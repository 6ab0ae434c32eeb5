"""Exact spherical Hecke algebra computations via symmetric functions.

Elements of the Hecke algebra are represented through their symmetric-function
images, with coefficients Laurent polynomials in v = q^(1/2) and t = v^(-2).
The basis element attached to a dominant coweight is the Hall-Littlewood
polynomial times an explicit v-power.  Hall-Littlewood polynomials come from
Macdonald's formula (Macdonald, Spherical Functions on a Group of p-adic Type,
1971), written in the basis of Weyl characters and summed over the cosets of
the stabilizer W_mu of mu: the W_mu-sum of 1 / Delta is
1 / prod (1 - x^(-a)) over the positive coroots a whose roots pair nonzero
with mu, so

    P_mu = sum_w w(x^mu prod_{<a,mu> != 0} (1 - t x^(-a)) / Delta)

over the whole Weyl group, and no division is needed.  That singular
numerator is expanded once per subsystem and zero set of mu, and its terms
shifted by mu are straightened by the dot action and summed by
``characters.klimyk``, the step of the Klimyk tensor rule.  Its
coefficients, polynomials in t, are packed into one integer each while they
are multiplied out and summed.  Its exponents are packed too, and stay
packed: the numerator is multiplied out straight into signed digits of the
width ``characters._width`` gives it (``characters.PackedWeights``), so a
term shifted by mu is one integer addition, and a point that another
weight's numerator, a tensor product or a restriction under the same view
already reached at that width is read from the view's straightening memo
instead of walked again.

Structure constants and constant-term coefficients are computed one
coefficient at a time through Kostka-Foulkes polynomials, which expand a Weyl
character in Hall-Littlewood polynomials, s_lam = sum_gamma K_{lam,gamma}(t)
P_gamma.  Lusztig's q-analogue of Kostant's partition function gives them as

    K_{lam,gamma}(t) = sum_w eps(w) P_t(w(lam + rho) - (gamma + rho)),

where prod over positive coroots a of 1 / (1 - t x^a) = sum_g P_t(g) x^g
(Lusztig, Singularities, character formulas, and a q-analog of weight
multiplicities, 1983; Kato, Invent. Math. 1982).  With A and B the character
expansions of the Hall-Littlewood polynomials at alpha and beta,

    m_{alpha,beta}^gamma = v^<2rho, alpha+beta-gamma> sum_a A_a G(a, beta, gamma),
    G(a, beta, gamma) = sum_b B_b sum_c n_{ab}^c K_{c,gamma}(v^-2),
    c_mu(lam) = v^(<2rho, mu> - <2rho_M, lam>)
                sum_{kappa,l} A_kappa r_kappa(l) K^M_{l,lam}(v^-2),

with n from the cached ``tensor_decompose``, r from the cached
``restrict_decompose`` (so the constant-term coefficients come from the
branching multiplicities), and K^M taken over the Levi's positive coroots.
Each coefficient has one body: ``structure_constant`` for m and
``_ct_coefficient`` for c.  ``hecke_product`` and ``satake_expand`` loop them
over their supports and cache no result of their own.
K is evaluated only where it can be nonzero: K_{c,gamma} on the
constituents c at or above gamma, and ``structure_constant`` evaluates none
unless alpha + beta is at or above gamma.  On the torus K^M is the identity,
so the torus constant term at lam reads the one restricted character at lam
and evaluates no K.  On a proper Levi K^M decides its own support: it is {}
at once unless l - lam is a nonnegative integer combination of the Levi's
simple coroots, the one test ``_kostka_foulkes`` makes before its walk.  The
partial sum G is memoized on (datum, a, beta, gamma) and leaves out the
characters b with a + b not at or above gamma, on whose
constituents K_{c,gamma} vanishes; the sum over a leaves out, by the same
test, the characters a with a + beta not at or above gamma, since every b
lies below beta.  Every such dominance test reads the datum's memo of
integer coroot numerators adj @ x (``rootdata.coroot_numerators``): by
linearity, those of x - y are those of x minus those of y.  The instances
of a sweep that share mu share beta = mu* and gamma = nu, so they reuse G
across their first factors, and ``hecke_product`` reads the same G at each
gamma of its support.  The restricted characters sum_kappa A_kappa r_kappa(l)
are memoized per (upper, lower, mu).  On the torus they are the monomial
coefficients of P_mu, and on dominant weights those are its orbit-sum
coefficients: ``hall_littlewood`` reads them at view-dominant keys, so
orbit sums take the same route as the torus constant term.

K is evaluated in the view's simple-coroot coordinates of
w(lam + rho) - (gamma + rho): the walk starts at lam - gamma (w = 1) and
goes down the orbit one simple reflection at a time, flipping the sign at each
and keeping only points at or above gamma + rho in dominance.  Every such point
that is not dominant reflects up to lam + rho through such points, so the
walk reaches every contributing Weyl element without enumerating the Weyl
group.  P_t is one memoized table per view, its entries tuples by power
of t.  Every memo here is ``functools.cache`` on a private function, keyed
by the datum or view object itself.

Between ``_unpack_t`` and the public boundary every polynomial is one flat
{v-exponent: int} map: the Hall-Littlewood characters, the restricted
characters, the partial sums G, and K itself, whose t^j sits at exponent
-2j with no zero coefficient kept.  ``_add_product`` is the one product of
two such maps, and ``LaurentPoly``, built at the public boundary only,
multiplies through it too.

Nothing here peels: the triangular peels against the Hall-Littlewood
characters are kept in ``tests/hecke_oracle.py`` as oracles, and the
branching multiplicities come from Brauer's rule through
``characters.klimyk``, the same straightening step.

Maps are handed out read-only, cached or not.
"""

from __future__ import annotations

from functools import cache
from math import prod
from operator import add, mul, sub
from types import MappingProxyType
from typing import Mapping, Optional

from .characters import (
    PackedWeights,
    _pack,
    _width,
    dominant_support,
    klimyk,
    restrict_decompose,
    tensor_decompose,
)
from .errors import DomainError, FeasibilityError
from .rootdata import (
    Coweight,
    RootDatum,
    SubsystemView,
    coroot_numerators,
    levi_view,
    pairing,
    vec_add,
    vec_sub,
)


class LaurentPoly:
    """Integer Laurent polynomial in v, with t = q^(-1) = v^(-2)."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Optional[dict] = None):
        self._c = {int(e): int(c) for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def v_power(cls, k: int) -> "LaurentPoly":
        return cls({k: 1})

    @classmethod
    def q_power(cls, k: int) -> "LaurentPoly":
        return cls({2 * k: 1})

    def items(self):
        return sorted(self._c.items())

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self):
        return hash(tuple(sorted(self._c.items())))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._c)
        for e, c in other._c.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        r = LaurentPoly.zero()
        r._c = {e: -c for e, c in self._c.items()}
        return r

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(_add_product({}, self._c, other._c))

    def scale(self, k: int) -> "LaurentPoly":
        return LaurentPoly({e: k * c for e, c in self._c.items()})

    def shift(self, d: int) -> "LaurentPoly":
        """Multiply by v**d."""
        r = LaurentPoly.zero()
        r._c = {e + d: c for e, c in self._c.items()}
        return r

    def max_exponent(self) -> int:
        if not self._c:
            raise DomainError("zero polynomial has no degree")
        return max(self._c)

    def min_exponent(self) -> int:
        if not self._c:
            raise DomainError("zero polynomial has no valuation")
        return min(self._c)

    def leading(self) -> int:
        """Coefficient of the highest v-power (0 for the zero polynomial)."""
        if not self._c:
            return 0
        return self._c[max(self._c)]

    def has_even_exponents(self) -> bool:
        return all(e % 2 == 0 for e in self._c)

    def to_json(self) -> dict:
        return {"exponents_of_v": {str(e): c for e, c in sorted(self._c.items())}}

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        return cls({int(e): int(c) for e, c in data["exponents_of_v"].items()})

    def __repr__(self) -> str:
        if not self._c:
            return "0"
        return " + ".join(f"{c}*v^{e}" if e else f"{c}"
                          for e, c in sorted(self._c.items(), reverse=True))


# Lattice points in the box below lam - gamma, in simple-coroot coordinates:
# the most entries a Kostka-Foulkes polynomial can add to each level of its
# view's partition table.  It is checked per polynomial, not against the
# table's running size, so a verdict does not depend on what ran before.
PARTITION_CAP = 20_000

# Terms of one Hall-Littlewood numerator, counted as it is multiplied out.
# A regular weight needs 51,936 on C5, 50,574 on B5, 36,961 on A6, 15,145 on
# F4 and 13,213 on D5; D6, A7 and E6 need 0.37-0.74M.
NUMERATOR_CAP = 60_000

InvariantElement = Mapping  # dominant Coweight -> LaurentPoly

# A numerator coefficient is a polynomial in t, packed into one integer: the
# coefficient of t^j is the j-th signed base-2^64 digit.  Every coefficient
# of a Hall-Littlewood numerator and of its straightening is bounded by
# 2^(number of positive roots) < 2^63, so sums of packed integers add digit
# by digit and multiplying by t is a shift.
_T_BITS = 64
_T_MASK = (1 << _T_BITS) - 1
_T_HALF = 1 << (_T_BITS - 1)


def _add_product(out: dict, p: Mapping, q: Mapping, shift: int = 0) -> dict:
    """Add v^shift p q into the flat map out in place and return out, which
    must not be p or q.  Zero coefficients may remain in out."""
    get = out.get
    for e1, x1 in p.items():
        e1 += shift
        for e2, x2 in q.items():
            e = e1 + e2
            out[e] = get(e, 0) + x1 * x2
    return out


def _unpack_t(p: int) -> dict:
    """A packed polynomial in t = v^(-2) as a flat {v-exponent: int} map."""
    out = {}
    e = 0
    while p:
        d = ((p + _T_HALF) & _T_MASK) - _T_HALF   # the signed lowest digit
        if d:
            out[e] = d
        p = (p - d) >> _T_BITS
        e -= 2
    return out


@cache
def _numerator(view: SubsystemView, zeros: tuple[int, ...]) -> PackedWeights:
    """The product of (1 - t x^(-a)) over the view's positive coroots a whose
    roots have support on a view index outside zeros, as a read-only
    ``PackedWeights`` of exponent -> packed coefficient.  With zeros the
    view indices where a view-dominant mu vanishes, these are the roots
    that pair nonzero with mu, so the product is cached per view and zero
    set.

    It is multiplied out in the packed form ``klimyk`` reads: each
    exponent w is the integer 2w in signed digits of the width
    ``characters._width`` gives twice the reach, so stepping down a coroot
    is one subtraction and no exponent is decoded.  The digits are wide
    enough for every partial sum, whose coordinates are bounded by the
    coroots' coordinates summed.  A product past ``NUMERATOR_CAP`` terms
    raises ``FeasibilityError`` before anything is cached."""
    if len(view.positive_roots) >= _T_BITS - 1:
        raise AssertionError("numerator coefficients overflow their digits")
    off = [i - 1 for i in view.indices if i not in zeros]
    coroots = [cv for r, cv in zip(view.positive_roots, view.positive_coroots)
               if any(r[j] for j in off)]
    n = view.ambient_rank
    reach = max(sum(abs(cv[j]) for cv in coroots) for j in range(n))
    bits = _width(2 * reach)
    terms = {0: 1}
    for cv in coroots:
        step = _pack(cv, bits) << 1
        nxt = dict(terms)
        get = nxt.get
        for k, p in terms.items():
            k -= step
            nxt[k] = get(k, 0) - (p << _T_BITS)
        terms = nxt
        # the map only grows, so a build that passes the cap here ends over it
        if len(terms) > NUMERATOR_CAP:
            raise FeasibilityError(
                f"Hall-Littlewood numerator of {view.key} with zero set "
                f"{zeros} has more than {NUMERATOR_CAP} terms", NUMERATOR_CAP)
    return PackedWeights(n, reach, bits=bits,
                         packed=[(k, p) for k, p in terms.items() if p])


def hall_littlewood_characters(view: SubsystemView,
                               mu: Coweight) -> Mapping[Coweight, LaurentPoly]:
    """Hall-Littlewood polynomial of the subsystem at mu in the basis of its
    Weyl characters, by Macdonald's formula taken over the cosets of the
    stabilizer of mu: the characters of x^mu times ``_numerator`` at the
    view indices where mu vanishes, straightened and summed as packed
    coefficients by ``klimyk`` through the view's memo.
    Summing 1 / Delta over the stabilizer leaves 1 / prod (1 - x^(-a)) over
    the coroots off it, so nothing is divided.  Read-only, keyed by
    subsystem-dominant coweights in sorted order, monic at mu; coefficients
    lie in Z[t], built afresh from the cached flat maps on each call."""
    return MappingProxyType({kappa: LaurentPoly(p) for kappa, p
                             in _hl_characters(view, tuple(mu)).items()})


@cache
def _hl_characters(view: SubsystemView, mu: Coweight) -> Mapping:
    """``hall_littlewood_characters`` as {kappa: flat {v-exponent: int}
    map}.  Cached; callers only read it."""
    if not view.is_dominant(mu):
        raise DomainError(f"{mu} is not dominant for {view.key}")
    zeros = tuple(i for i in view.indices if not mu[i - 1])
    chars = klimyk(view, mu, _numerator(view, zeros))
    return MappingProxyType({kappa: _unpack_t(p)
                             for kappa, p in sorted(chars.items())})


def _offset_above(datum: RootDatum, view: SubsystemView, lam: Coweight,
                  gamma: Coweight) -> Optional[tuple]:
    """Coefficients of lam - gamma over the view's simple coroots when they
    are nonnegative integers, else None: K_{lam,gamma} of the view is zero
    unless they are.  They are the coroot numerators of lam minus those of
    gamma, both read from the memo, divided by det; off the view the
    difference must be zero.  On the torus only lam = gamma passes."""
    det = datum.cartan_det
    top = []
    for i, n in enumerate(map(sub, coroot_numerators(datum, lam),
                              coroot_numerators(datum, gamma)), 1):
        if i in view.indices:
            q, r = divmod(n, det)
            if r or q < 0:
                return None
            top.append(q)
        elif n:
            return None
    return tuple(top)


@cache
def _partition_table(datum: RootDatum, view: SubsystemView) -> tuple:
    """The view's non-simple positive coroots in simple-coroot coordinates,
    and its memo of partition-function values keyed by (level, point)."""
    zero = (0,) * datum.rank
    coords = (_offset_above(datum, view, cv, zero)
              for cv in view.positive_coroots)
    return tuple(a for a in coords if sum(a) > 1), {}


def _partition(roots: tuple, table: dict, k: int, d: tuple) -> tuple:
    """Coefficients by power of t of x^d in the product of 1 / (1 - t x^a)
    over the simple coroots and the first k of ``roots``; at k = len(roots)
    this is the q-analogue of Kostant's partition function.  d is a
    nonnegative point in simple-coroot coordinates.  Level k is filled along
    the chain d, d - a, d - 2a, ... from its lowest point up, so the
    recursion is only as deep as there are roots."""
    if k == 0:
        return (0,) * sum(d) + (1,)
    a = roots[k - 1]
    chain = []
    below: tuple = ()
    while True:
        hit = table.get((k, d))
        if hit is not None:
            below = hit
            break
        chain.append(d)
        d = tuple(map(sub, d, a))
        if min(d) < 0:
            break
    for d in reversed(chain):
        # level k at d is level k - 1 at d plus t times level k at d - a.
        # Level k - 1 at d is the longer: its top term, t^sum(d), uses the
        # simple coroots alone, and sum(a) >= 2 for a non-simple coroot
        p = _partition(roots, table, k - 1, d)
        below = (p[0],) + tuple(map(add, p[1:], below)) + p[len(below) + 1:]
        table[(k, d)] = below
    return below


@cache
def _kostka_foulkes(datum: RootDatum, view: SubsystemView, lam: Coweight,
                    gamma: Coweight) -> dict:
    """K_{lam,gamma}(t) of the view as a flat {v-exponent: int} map, t^j at
    -2j, with no zero coefficient: {} when K is zero.  lam and gamma are
    view-dominant.  Cached; callers only read it."""
    top = _offset_above(datum, view, lam, gamma)
    acc: dict[int, int] = {}
    if top is not None:
        box = prod(v + 1 for v in top)
        if box > PARTITION_CAP:
            raise FeasibilityError(
                f"Kostka-Foulkes polynomial of {view.key} at {lam}, {gamma} "
                f"needs {box} partition-table points", PARTITION_CAP)
        roots, table = _partition_table(datum, view)
        cm = datum.cartan_matrix
        # a point d stands for p = w(lam + rho): <alpha_i, p> is gamma_i + 1
        # plus the i-th row of the view's Cartan matrix applied to d, and the
        # reflection s_i lowers d_i by it
        rows = [(pos, [cm[i - 1][j - 1] for j in view.indices], gamma[i - 1] + 1)
                for pos, i in enumerate(view.indices)]
        level, sign = {top}, 1
        while level:
            below = set()
            for d in level:
                for j, c in enumerate(_partition(roots, table, len(roots), d)):
                    if c:
                        acc[-2 * j] = acc.get(-2 * j, 0) + sign * c
                for pos, row, base in rows:
                    step = base + sum(map(mul, row, d))
                    if 0 < step <= d[pos]:
                        below.add(d[:pos] + (d[pos] - step,) + d[pos + 1:])
            level, sign = below, -sign
    return {e: c for e, c in acc.items() if c}


@cache
def _partial_sum(datum: RootDatum, a: Coweight, beta: Coweight,
                 gamma: Coweight) -> dict:
    """G(a, beta, gamma) = sum over b of B_b sum over c of n_{ab}^c
    K_{c,gamma}(v^-2), with B the character expansion of the
    Hall-Littlewood polynomial at beta and n from the cached
    ``tensor_decompose``, as a flat {v-exponent: int} map.  K_{c,gamma} is
    zero unless c is at or above gamma in dominance, so it is evaluated only
    on those constituents c, and characters b with a + b not at or above
    gamma are left out: every constituent of a x b lies below a + b.  Both
    tests read adj @ (x - gamma) >= 0, at x = c and at x = a + b, from the
    numerator memo; x - gamma lies in the coroot lattice whenever
    K_{c,gamma} can be nonzero, so the sign alone decides.
    Cached on (datum, a, beta, gamma), so every product whose first factor
    has a in its expansion reuses it; callers only read it."""
    view = datum.full
    low = coroot_numerators(datum, gamma)
    rest = tuple(map(sub, coroot_numerators(datum, a), low))
    out: dict[int, int] = {}
    for b, pb in _hl_characters(view, beta).items():
        if min(map(add, rest, coroot_numerators(datum, b))) < 0:
            continue
        # sum over c of n_{ab}^c K_{c,gamma}
        kf: dict[int, int] = {}
        for c, n in tensor_decompose(datum, a, b).items():
            if min(map(sub, coroot_numerators(datum, c), low)) < 0:
                continue
            for e, k in _kostka_foulkes(datum, view, c, gamma).items():
                kf[e] = kf.get(e, 0) + n * k
        _add_product(out, kf, pb)
    return out


@cache
def _restricted_characters(upper: SubsystemView, lower: SubsystemView,
                           mu: Coweight) -> dict:
    """The upper view's Hall-Littlewood polynomial at mu restricted to the
    lower view's Weyl characters, through the cached branching
    multiplicities: {l: flat map}.  Cached; callers only read it."""
    # mu is a character of P_mu: over the cap, fail before expanding P_mu
    restrict_decompose(upper, lower, mu)
    out: dict = {}
    for kappa, p in _hl_characters(upper, mu).items():
        for l, r in restrict_decompose(upper, lower, kappa).items():
            acc = out.setdefault(l, {})
            for e, x in p.items():
                acc[e] = acc.get(e, 0) + r * x
    return out


def structure_constant(datum: RootDatum, alpha: Coweight, beta: Coweight,
                       gamma: Coweight) -> LaurentPoly:
    """The structure constant at gamma of the convolution product of the
    basis elements at alpha and beta, zero when gamma is not dominant:
    m_{alpha,beta}^gamma = v^<2rho, alpha+beta-gamma> sum over a of A_a
    G(a, beta, gamma), with A the character expansion of the
    Hall-Littlewood polynomial at alpha.  Characters a with a + beta not at
    or above gamma are left out."""
    alpha, beta, gamma = tuple(alpha), tuple(beta), tuple(gamma)
    view = datum.full
    if not (view.is_dominant(alpha) and view.is_dominant(beta)):
        raise DomainError("product arguments must be dominant")
    if not view.is_dominant(gamma):
        return LaurentPoly.zero()
    return _structure_constant(datum, alpha, beta, gamma)


def _structure_constant(datum: RootDatum, alpha: Coweight, beta: Coweight,
                        gamma: Coweight) -> LaurentPoly:
    """``structure_constant`` at dominant tuples alpha, beta and gamma."""
    view = datum.full
    # m is zero unless alpha + beta is at or above gamma: answer that before
    # any Hall-Littlewood polynomial is expanded
    if _offset_above(datum, view, vec_add(alpha, beta), gamma) is None:
        return LaurentPoly.zero()
    shift = pairing(view.two_rho, vec_sub(vec_add(alpha, beta), gamma))
    rest = tuple(map(sub, coroot_numerators(datum, beta),
                     coroot_numerators(datum, gamma)))
    out: dict[int, int] = {}
    for a, pa in _hl_characters(view, alpha).items():
        # every b of P_beta lies below beta, so G(a, beta, gamma) is zero
        # unless a + beta is at or above gamma
        if min(map(add, rest, coroot_numerators(datum, a))) < 0:
            continue
        _add_product(out, pa, _partial_sum(datum, a, beta, gamma), shift)
    return LaurentPoly(out)


def hecke_product(datum: RootDatum, alpha: Coweight,
                  beta: Coweight) -> Mapping[Coweight, LaurentPoly]:
    """Structure constants of the convolution product of the basis elements
    at alpha and beta: the expansion of their product in the triangular
    basis, keyed by dominant coweight, one ``structure_constant`` at each
    dominant weight below alpha + beta."""
    out = {}
    for gamma in sorted(dominant_support(datum.full, vec_add(alpha, beta))):
        m = structure_constant(datum, alpha, beta, gamma)
        if m:
            out[gamma] = m
    return MappingProxyType(out)


def _ct_coefficient(datum: RootDatum, upper: SubsystemView,
                    lower: SubsystemView, mu: Coweight,
                    lam: Coweight) -> LaurentPoly:
    """The coefficient at the lower view's lam of the upper view's basis
    element at mu: v^(<2rho, mu> - <2rho_M, lam>) times the sum over l of
    the restricted characters at l times K^M_{l,lam}(v^-2).  On the torus
    K^M is the identity, so the coefficient is the restricted character at
    lam and no K is evaluated; on a proper Levi K^M decides its own
    support, as ``_kostka_foulkes`` is {} unless l - lam is a nonnegative
    integer combination of the lower view's simple coroots."""
    shift = pairing(upper.two_rho, mu) - pairing(lower.two_rho, lam)
    chars = _restricted_characters(upper, lower, mu)
    if not lower.indices:
        return LaurentPoly(chars.get(lam, {})).shift(shift)
    out: dict[int, int] = {}
    for l, p in chars.items():
        _add_product(out, _kostka_foulkes(datum, lower, l, lam), p, shift)
    return LaurentPoly(out)


def satake_expand(datum: RootDatum, upper: SubsystemView, lower: SubsystemView,
                  mu: Coweight) -> Mapping[Coweight, LaurentPoly]:
    """Expand the basis element of the upper subsystem at mu into the basis
    of the lower subsystem (lower simple roots a subset of upper's):
    the coefficient map of the constant-term homomorphism, one
    ``_ct_coefficient`` at each lower-dominant weight below the restricted
    characters.  Each upper character is restricted by
    ``restrict_decompose``, so the coefficients come from the branching
    multiplicities of the dual groups."""
    mu = tuple(mu)
    if not set(lower.indices) <= set(upper.indices):
        raise DomainError(f"{lower.key} is not a subsystem of {upper.key}")
    chars = _restricted_characters(upper, lower, mu)
    out = {}
    for lam in sorted(set().union(*(dominant_support(lower, l)
                                    for l in chars))):
        c = _ct_coefficient(datum, upper, lower, mu, lam)
        if c:
            out[lam] = c
    return MappingProxyType(out)


def hall_littlewood(datum: RootDatum, view: SubsystemView,
                    mu: Coweight) -> InvariantElement:
    """Hall-Littlewood orbit polynomial for the subsystem.  Its orbit-sum
    coefficient at a view-dominant lam is its monomial coefficient there,
    the restriction of P_mu to the torus's characters at lam, which the
    torus constant term reads too.  Exact; returns a read-only map of orbit
    sums keyed by subsystem-dominant coweights, monic at mu."""
    chars = _restricted_characters(view, levi_view(datum, ()), tuple(mu))
    out = {}
    for lam in sorted(chars):
        if view.is_dominant(lam):
            c = LaurentPoly(chars[lam])
            if c:
                out[lam] = c
    return MappingProxyType(out)


def _check_ct_support(datum: RootDatum, mu: Coweight, lam: Coweight) -> None:
    """lam lies in the hull of the orbit of mu and in mu's coroot-lattice
    coset exactly when mu minus the dominant point of lam's orbit is a
    nonnegative integer combination of the simple coroots."""
    full = datum.full
    if _offset_above(datum, full, mu, full.dominate(lam)) is None:
        raise AssertionError("constant-term support escaped the weight hull")


def constant_term(datum: RootDatum, levi: SubsystemView,
                  mu: Coweight) -> Mapping[Coweight, LaurentPoly]:
    """Coefficients of the constant-term homomorphism from the full group to
    the Levi, keyed by Levi-dominant coweight.  Support lies inside the orbit
    hull of mu in the coroot-lattice coset of mu."""
    mu = tuple(mu)
    if not datum.full.is_dominant(mu):
        raise DomainError(f"{mu} is not dominant")
    result = satake_expand(datum, datum.full, levi, mu)
    for lam in result:
        _check_ct_support(datum, mu, lam)
    return result


def constant_term_coefficient(datum: RootDatum, levi: SubsystemView,
                              mu: Coweight, lam: Coweight) -> LaurentPoly:
    """The constant-term coefficient of the basis element at mu at the
    Levi's lam, on its own: the coefficient of ``constant_term(datum, levi,
    mu)`` at lam, zero when lam is not Levi-dominant."""
    mu, lam = tuple(mu), tuple(lam)
    if not datum.full.is_dominant(mu):
        raise DomainError(f"{mu} is not dominant")
    if not levi.is_dominant(lam):
        return LaurentPoly.zero()
    c = _ct_coefficient(datum, datum.full, levi, mu, lam)
    if c:
        _check_ct_support(datum, mu, lam)
    return c


def orbit_size(datum: RootDatum, levi: SubsystemView,
               lam: Coweight) -> LaurentPoly:
    """Cardinality of the Levi integral-group orbit of the lattice point at
    lam, as a polynomial in q: q^(pairing with the Levi positive-root sum
    minus the number of Levi positive roots off the stabilizer) times the
    Poincare series of the minimal coset representatives, summed over the
    Levi orbit of lam: the representative carrying lam to x has length the
    number of Levi positive roots negative on x."""
    lam = tuple(lam)
    if not levi.is_dominant(lam):
        raise DomainError(f"{lam} is not dominant for the Levi {levi.indices}")
    sh = pairing(levi.two_rho, lam)
    d = sum(1 for r in levi.positive_roots if pairing(r, lam) > 0)
    coeffs: dict[int, int] = {}
    for x in levi.orbit(lam):
        e = 2 * (sh - d + sum(1 for r in levi.positive_roots
                              if pairing(r, x) < 0))
        coeffs[e] = coeffs.get(e, 0) + 1
    return LaurentPoly(coeffs)
