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
"""

from functools import lru_cache

from heckebranch.characters import restrict_decompose, tensor_decompose
from heckebranch.hecke import (
    LaurentPoly,
    _poly_exact_div,
    hall_littlewood_characters,
    stabilizer_poincare,
)
from heckebranch.rootdata import (
    is_dominant,
    mat_apply,
    pairing,
    vec_add,
    vec_neg,
    vec_sub,
)
from peel_oracle import peel, peel_height

ONE = LaurentPoly.one()
T = LaurentPoly({-2: 1})


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
    for a, r in zip(view.elements, view.root_elements):
        term = {mat_apply(a, mu): ONE}
        for root, cv in zip(view.positive_roots, view.positive_coroots):
            wc = mat_apply(a, cv)
            if all(v >= 0 for v in mat_apply(r, root)):
                factor = {zero_key: ONE, vec_neg(wc): -T}
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
    return {k: p.shift(shift)
            for k, p in hall_littlewood(datum, view, mu).items()}


def hecke_product(datum, alpha, beta):
    """Convolve the two basis elements orbit by orbit and peel the product
    against the symmetrized Hall-Littlewood elements."""
    view = datum.full
    prod = multiply_invariants(view, satake_f(datum, view, alpha),
                               satake_f(datum, view, beta))

    def basis(gamma):
        if not is_dominant(gamma):
            raise AssertionError("peak of the product expansion is not dominant")
        return hall_littlewood(datum, view, gamma)

    coeffs = peel(prod, view.two_rho, basis)
    return {gamma: c.shift(-pairing(view.two_rho, gamma))
            for gamma, c in coeffs.items()}


def satake_expand(datum, upper, lower, mu):
    """Regroup the upper basis element's orbit sums into lower orbit sums and
    peel against the lower symmetrized Hall-Littlewood elements."""
    em = collect_orbits(lower, expand_orbits(upper, satake_f(datum, upper, mu)))
    coeffs = peel(em, peel_height(lower),
                  lambda lam: hall_littlewood(datum, lower, lam))
    return {lam: c.shift(-pairing(lower.two_rho, lam))
            for lam, c in coeffs.items()}


def _add_scaled(out, k, p, n):
    out[k] = out.get(k, LaurentPoly.zero()) + (p if n == 1 else p.scale(n))


def peeled_hecke_product(datum, alpha, beta):
    view = datum.full
    shift = pairing(view.two_rho, vec_add(alpha, beta))
    right = hall_littlewood_characters(view, beta)
    prod = {}
    for ka, pa in hall_littlewood_characters(view, alpha).items():
        for kb, pb in right.items():
            p = (pa * pb).shift(shift)
            for gamma, n in tensor_decompose(datum, ka, kb).items():
                _add_scaled(prod, gamma, p, n)

    def basis(gamma):
        if not is_dominant(gamma):
            raise AssertionError("peak of the product expansion is not dominant")
        return hall_littlewood_characters(view, gamma)

    coeffs = peel(prod, view.two_rho, basis)
    return {gamma: c.shift(-pairing(view.two_rho, gamma))
            for gamma, c in sorted(coeffs.items())}


def peeled_satake_expand(datum, upper, lower, mu):
    shift = pairing(upper.two_rho, mu)
    em = {}
    for kappa, p in hall_littlewood_characters(upper, mu).items():
        p = p.shift(shift)
        for lam, r in restrict_decompose(upper, lower, kappa).items():
            _add_scaled(em, lam, p, r)
    coeffs = peel(em, peel_height(lower),
                  lambda lam: hall_littlewood_characters(lower, lam))
    return {lam: c.shift(-pairing(lower.two_rho, lam))
            for lam, c in sorted(coeffs.items())}
