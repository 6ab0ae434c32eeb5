"""Reference routes for the Hecke layer.

Hall-Littlewood polynomials are built by summing x^mu prod (1 - t x^(-a)) /
(1 - x^(-a)) over every Weyl element (|W| * 2^N group-algebra products),
dividing out each binomial by a peel, and collecting orbit sums.  Products
and constant terms then convolve orbit sums in the full weight
representation.  Slow, and independent of the character tables that the
library's Hecke layer uses, so the tests compare the two.

The character-basis peels at the end are a second reference: they expand the
library's character products by triangular peeling against the
Hall-Littlewood characters, where the library goes through Kostka-Foulkes
polynomials.

The enumerated forms are a third: the Hall-Littlewood characters from the
whole Macdonald numerator divided by the stabilizer Poincare polynomial, and
the Levi orbit sizes from the lengths of the group elements, both over the
group enumerated by ``weyl_oracle``.

``kostka_foulkes`` reads one of the library's cached Kostka-Foulkes
polynomials on its own, and ``hl_characters`` the library's character
expansion of one Hall-Littlewood polynomial, as ``LaurentPoly``s in v.

``numerator`` multiplies out the library's singular numerator with tuple
exponents, where the library packs each exponent into one integer.

``product_identity_sides`` gives the two sides of the structure-constant
identity for one instance, after validating every precondition; the
harness's ``product_identity`` check computes the same sides unvalidated,
since its instance enumeration guarantees them.
"""

from functools import lru_cache

from heckebranch import hecke
from heckebranch.characters import _restrict, tensor_decompose
from heckebranch.errors import DomainError
from heckebranch.hecke import (
    LaurentPoly,
    constant_term_coefficient,
    orbit_size,
    structure_constant,
)
from heckebranch.parabolic import geq_parabolic
from heckebranch.rootdata import (
    dual_star,
    mat_apply,
    pairing,
    vec_add,
    vec_sub,
)
from fraction_oracle import in_coroot_lattice
from peel_oracle import peel, peel_height
from weyl_oracle import dot_straighten, group

ONE = LaurentPoly.one()
T = LaurentPoly({-2: 1})
V = LaurentPoly.v_power


def hl_characters(view, mu):
    """``hecke._hl_characters`` at a view-dominant mu, as ``LaurentPoly``s."""
    chars = hecke._hl_characters(view, tuple(mu))
    return {k: LaurentPoly(p) for k, p in chars.items()}


def _gadd(a, b):
    out = dict(a)
    for k, p in b.items():
        n = out.get(k, LaurentPoly.zero()) + p
        if n:
            out[k] = n
        else:
            out.pop(k, None)
    return out


def _gmul(a, b):
    out = {}
    for k1, p1 in a.items():
        for k2, p2 in b.items():
            k = vec_add(k1, k2)
            n = out.get(k, LaurentPoly.zero()) + p1 * p2
            if n:
                out[k] = n
            else:
                out.pop(k, None)
    return out


def _divide_binomial(datum, f, coroot):
    """Exact division by (1 - x^(-coroot)), peeling from the top."""
    def binomial(k):
        return {k: ONE, vec_sub(k, coroot): -ONE}

    return peel(f, datum.full.two_rho, binomial)


def _poly_exact_div(f, g):
    """Exact Laurent division f / g; the divisor's top coefficient must be
    a unit and the division must leave no remainder."""
    if not g:
        raise DomainError("division by zero polynomial")
    if not f:
        return LaurentPoly.zero()
    gmax, gtop = g.items()[-1]
    if gtop not in (1, -1):
        raise AssertionError("divisor top coefficient is not a unit")
    floor = f.items()[0][0] - g.items()[0][0]
    q = {}
    rem = f
    while rem:
        top, ce = rem.items()[-1]
        d = top - gmax
        if d < floor:
            raise AssertionError("inexact polynomial division")
        q[d] = ce = ce * gtop
        rem = rem - g * LaurentPoly({d: ce})
    return LaurentPoly(q)


def stabilizer_poincare(view, mu):
    """Sum of t^length over the subsystem Weyl elements fixing mu."""
    coeffs = {}
    g = group(view)
    for a, l in zip(g.elements, g.lengths):
        if mat_apply(a, mu) == tuple(mu):
            coeffs[-2 * l] = coeffs.get(-2 * l, 0) + 1
    return LaurentPoly(coeffs)


def expand_orbits(view, inv):
    """Orbit-sum representation to full weight representation."""
    full = {}
    for k, p in inv.items():
        for y in view.orbit(k):
            if y in full:
                raise AssertionError("orbit-sum keys overlap")
            full[y] = p
    return full


def collect_orbits(view, full):
    """Full weight representation to orbit sums keyed by view-dominant
    representatives, checking Weyl invariance."""
    out = {}
    work = dict(full)
    while work:
        k = next(iter(work))
        rep = view.dominate(k)
        p = work.get(rep)
        if p is None:
            raise AssertionError("not invariant: dominant representative missing")
        for y in view.orbit(rep):
            if work.pop(y, None) != p:
                raise AssertionError("not invariant under the subsystem Weyl group")
        out[rep] = p
    return out


def multiply_invariants(view, a, b):
    return collect_orbits(view, _gmul(expand_orbits(view, a),
                                      expand_orbits(view, b)))


@lru_cache(maxsize=None)
def hall_littlewood(datum, view, mu):
    """Symmetrize x^mu prod (1 - t x^(-coroot)) / (1 - x^(-coroot)) over the
    subsystem Weyl group and divide by the stabilizer Poincare polynomial;
    orbit sums keyed by subsystem-dominant coweights."""
    zero_key = tuple(0 for _ in range(datum.rank))
    num = {}
    g = group(view)
    for a, r in zip(g.elements, g.root_elements):
        term = {mat_apply(a, mu): ONE}
        for root, cv in zip(view.positive_roots, view.positive_coroots):
            wc = mat_apply(a, cv)
            if all(v >= 0 for v in mat_apply(r, root)):
                factor = {zero_key: ONE, tuple(-v for v in wc): -T}
            else:
                factor = {zero_key: T, wc: -ONE}
            term = _gmul(term, factor)
        num = _gadd(num, term)
    f = num
    for cv in view.positive_coroots:
        f = _divide_binomial(datum, f, cv)
    stab = stabilizer_poincare(view, mu)
    return collect_orbits(view, {k: _poly_exact_div(p, stab)
                                 for k, p in f.items()})


def satake_f(datum, view, mu):
    shift = pairing(view.two_rho, mu)
    return {k: p * V(shift)
            for k, p in hall_littlewood(datum, view, mu).items()}


def hecke_product(datum, alpha, beta):
    """Convolve the two basis elements orbit by orbit and peel the product
    against the symmetrized Hall-Littlewood elements."""
    view = datum.full
    prod = multiply_invariants(view, satake_f(datum, view, alpha),
                               satake_f(datum, view, beta))

    def basis(gamma):
        if not view.is_dominant(gamma):
            raise AssertionError("peak of the product expansion is not dominant")
        return hall_littlewood(datum, view, gamma)

    coeffs = peel(prod, view.two_rho, basis)
    return {gamma: c * V(-pairing(view.two_rho, gamma))
            for gamma, c in coeffs.items()}


def satake_expand(datum, upper, lower, mu):
    """Regroup the upper basis element's orbit sums into lower orbit sums and
    peel against the lower symmetrized Hall-Littlewood elements."""
    em = collect_orbits(lower, expand_orbits(upper, satake_f(datum, upper, mu)))
    coeffs = peel(em, peel_height(lower),
                  lambda lam: hall_littlewood(datum, lower, lam))
    return {lam: c * V(-pairing(lower.two_rho, lam))
            for lam, c in coeffs.items()}


def _add_scaled(out, k, p, n):
    out[k] = out.get(k, LaurentPoly.zero()) + (p if n == 1 else
                                                p * LaurentPoly({0: n}))


def peeled_hecke_product(datum, alpha, beta):
    view = datum.full
    shift = pairing(view.two_rho, vec_add(alpha, beta))
    right = hl_characters(view, beta)
    prod = {}
    for ka, pa in hl_characters(view, alpha).items():
        for kb, pb in right.items():
            p = pa * pb * V(shift)
            for gamma, n in tensor_decompose(datum, ka, kb).items():
                _add_scaled(prod, gamma, p, n)

    def basis(gamma):
        if not view.is_dominant(gamma):
            raise AssertionError("peak of the product expansion is not dominant")
        return hl_characters(view, gamma)

    coeffs = peel(prod, view.two_rho, basis)
    return {gamma: c * V(-pairing(view.two_rho, gamma))
            for gamma, c in sorted(coeffs.items())}


def peeled_satake_expand(datum, upper, lower, mu):
    shift = pairing(upper.two_rho, mu)
    em = {}
    for kappa, p in hl_characters(upper, mu).items():
        p = p * V(shift)
        for lam, r in _restrict(upper, lower, kappa).items():
            _add_scaled(em, lam, p, r)
    coeffs = peel(em, peel_height(lower),
                  lambda lam: hl_characters(lower, lam))
    return {lam: c * V(-pairing(lower.two_rho, lam))
            for lam, c in sorted(coeffs.items())}


@lru_cache(maxsize=None)
def full_numerator(view):
    """The product over all of the view's positive coroots of
    (1 - t x^(-coroot)), as exponent -> flat {v-exponent: int}."""
    terms = {tuple(0 for _ in range(view.ambient_rank)): {0: 1}}
    for cv in view.positive_coroots:
        nxt = {k: dict(p) for k, p in terms.items()}
        for k, p in terms.items():
            acc = nxt.setdefault(vec_sub(k, cv), {})
            for e, x in p.items():
                acc[e - 2] = acc.get(e - 2, 0) - x
        terms = nxt
    return {k: p for k, p in terms.items() if any(p.values())}


def numerator(view, zeros):
    """The product of (1 - t x^(-coroot)) over the view's positive coroots
    whose roots are supported off the simple roots in ``zeros`` (those that
    pair nonzero with a view-dominant coweight vanishing exactly there), as
    exponent tuple -> coefficient packed as ``hecke._numerator`` packs it."""
    off = [i - 1 for i in view.indices if i not in zeros]
    terms = {tuple(0 for _ in range(view.ambient_rank)): 1}
    for r, cv in zip(view.positive_roots, view.positive_coroots):
        if not any(r[i] for i in off):
            continue
        nxt = dict(terms)
        for k, p in terms.items():
            k = vec_sub(k, cv)
            nxt[k] = nxt.get(k, 0) - (p << hecke._T_BITS)
        terms = nxt
    return {k: p for k, p in terms.items() if p}


def divided_hall_littlewood_characters(view, mu):
    """Macdonald's formula over the whole Weyl group: the characters of x^mu
    times ``full_numerator``, each coefficient divided by the stabilizer
    Poincare polynomial; keyed in sorted order."""
    stab = stabilizer_poincare(view, mu)
    chars = {}
    for kappa, sign, p in dot_straighten(view, mu, full_numerator(view)):
        acc = chars.setdefault(kappa, {})
        for e, x in p.items():
            acc[e] = acc.get(e, 0) + sign * x
    polys = {kappa: LaurentPoly(p) for kappa, p in sorted(chars.items())}
    return {kappa: _poly_exact_div(p, stab) for kappa, p in polys.items() if p}


def enumerated_orbit_size(levi, lam):
    """The Levi orbit size through the group elements: each orbit point
    counted at q^(the least length carrying lam there), with the same
    q-shift as the library's."""
    sh = pairing(levi.two_rho, lam)
    d = sum(1 for r in levi.positive_roots if pairing(r, lam) > 0)
    best = {}
    g = group(levi)
    for a, l in zip(g.elements, g.lengths):
        w = mat_apply(a, lam)
        if w not in best or l < best[w]:
            best[w] = l
    coeffs = {}
    for l in best.values():
        coeffs[2 * l] = coeffs.get(2 * l, 0) + 1
    return LaurentPoly(coeffs) * V(2 * (sh - d))


def kostka_foulkes(datum, view, lam, gamma):
    """Kostka-Foulkes polynomial of the view, in v with t = v^(-2): the
    coefficient of the Hall-Littlewood polynomial at gamma in the Weyl
    character at lam.  Zero unless gamma lies below lam in the view's
    dominance order; raises ``FeasibilityError`` over
    ``hecke.PARTITION_CAP``."""
    lam, gamma = tuple(lam), tuple(gamma)
    if not (view.is_dominant(lam) and view.is_dominant(gamma)):
        raise DomainError(f"{lam} and {gamma} must be dominant for {view.key}")
    return LaurentPoly(hecke._kostka_foulkes(datum, view, lam, gamma))


def product_identity_sides(datum, levi, mu, lam, nu):
    """The two sides of the structure-constant identity: the constant-term
    coefficient at lam times v^(pairing of lam with the roots off the Levi)
    times the Levi orbit size, against the product structure constant at nu
    for the pair (nu + lam, dual of mu)."""
    mu, lam, nu = tuple(mu), tuple(lam), tuple(nu)
    if not levi.is_dominant(lam):
        raise DomainError(f"{lam} is not dominant for the Levi")
    if not in_coroot_lattice(datum, vec_sub(mu, lam)):
        raise DomainError("mu and lam are not congruent modulo the coroot lattice")
    if not geq_parabolic(datum, levi, nu, mu):
        raise DomainError("nu does not dominate mu for this parabolic")
    alpha = vec_add(nu, lam)
    if not datum.full.is_dominant(alpha):
        raise DomainError("nu + lam left the dominant cone")
    c = constant_term_coefficient(datum, levi, mu, lam)
    shift_n = pairing(datum.full.two_rho, lam) - pairing(levi.two_rho, lam)
    lhs = c * V(shift_n) * orbit_size(datum, levi, lam)
    rhs = structure_constant(datum, alpha, dual_star(datum, mu), nu)
    return lhs, rhs
