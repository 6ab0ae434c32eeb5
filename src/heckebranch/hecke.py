"""Exact spherical Hecke algebra computations via symmetric functions.

Elements of the Hecke algebra are represented through their symmetric-function
images, with coefficients Laurent polynomials in v = q^(1/2) and t = v^(-2).
The basis element attached to a dominant coweight is the Hall-Littlewood
polynomial times an explicit v-power.  Hall-Littlewood polynomials come from
Macdonald's formula (Macdonald, Spherical Functions on a Group of p-adic Type,
1971), written in the basis of Weyl characters: the product over positive
coroots of (1 - t x^(-coroot)) is expanded once per subsystem, each of its
terms shifted by mu is straightened by the dot action (``characters.klimyk``,
the step of the Klimyk tensor rule), and the coefficients are divided exactly
by the stabilizer Poincare polynomial.

Products and constant terms stay in that character basis: a product
multiplies characters through the cached ``tensor_decompose``, and a constant
term restricts each character to the Levi through the cached
``restrict_decompose``, so the constant-term coefficients are computed from
the branching multiplicities.  Both are then expanded by triangular peeling
against the character-basis Hall-Littlewood elements, exact in Z[v, v^-1].
Every peel goes through the one primitive ``rootdata.peel``, which pops peaks
off a heap ordered by an integer height: the pairing with the sum of positive
roots for the full group, and ``SubsystemView.peel_height`` for a Levi's
basis.  ``hall_littlewood`` and ``satake_f`` give the orbit-sum form, keyed by
dominant coweights, through ``dominant_weights``.

Cached results are handed out as read-only mappings.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional

from .characters import (
    dominant_weights,
    klimyk,
    restrict_decompose,
    tensor_decompose,
)
from .errors import DomainError, FeasibilityError
from .parabolic import geq_parabolic
from .rootdata import (
    Coweight,
    RootDatum,
    SubsystemView,
    dual_star,
    in_hull,
    in_coroot_lattice,
    is_dominant,
    mat_apply,
    pairing,
    peel,
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
            n = out.get(e, 0) + c
            if n:
                out[e] = n
            else:
                out.pop(e, None)
        r = LaurentPoly.zero()
        r._c = out
        return r

    def __neg__(self) -> "LaurentPoly":
        r = LaurentPoly.zero()
        r._c = {e: -c for e, c in self._c.items()}
        return r

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                n = out.get(e, 0) + c1 * c2
                if n:
                    out[e] = n
                else:
                    out.pop(e, None)
        r = LaurentPoly.zero()
        r._c = out
        return r

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

    def q_degree(self) -> Optional[Fraction]:
        """Degree as a polynomial in q = v**2, None for the zero polynomial."""
        if not self._c:
            return None
        return Fraction(max(self._c), 2)

    def leading(self) -> int:
        """Coefficient of the highest v-power (0 for the zero polynomial)."""
        if not self._c:
            return 0
        return self._c[max(self._c)]

    def has_even_exponents(self) -> bool:
        return all(e % 2 == 0 for e in self._c)

    def eval_q(self, q) -> Fraction:
        """Value at a given q; requires even v-exponents."""
        if not self.has_even_exponents():
            raise DomainError("odd v-exponent present, not a function of q")
        # the lowest negative power of q becomes the one denominator
        low = min([0, *(e // 2 for e in self._c)])
        num = sum(c * q ** (e // 2 - low) for e, c in self._c.items())
        return Fraction(num, q ** -low)

    def to_json(self) -> dict:
        return {"exponents_of_v": {str(e): c for e, c in sorted(self._c.items())}}

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        return cls({int(e): int(c) for e, c in data["exponents_of_v"].items()})

    def __repr__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, c in sorted(self._c.items(), reverse=True):
            if e == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"{c}*v^{e}")
        return " + ".join(parts)


# Terms of the Macdonald numerator one Hall-Littlewood polynomial straightens:
# every rank up to 5 stays under it except F4 (15,145 terms), where the
# sweeps ask for thousands of these polynomials
SUPPORT_CAP = 10_000

_ONE = LaurentPoly.one()
_ZERO = LaurentPoly.zero()
_T = LaurentPoly({-2: 1})

InvariantElement = Mapping  # dominant Coweight -> LaurentPoly

_numerator_cache: dict = {}
_hl_cache: dict = {}
_product_cache: dict = {}
_ct_cache: dict = {}


def _add_scaled(out: dict, k: Coweight, p: LaurentPoly, n: int) -> None:
    out[k] = out.get(k, _ZERO) + (p if n == 1 else p.scale(n))


def _poly_exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact Laurent division f / g; the divisor's top coefficient must be
    a unit and the division must leave no remainder."""
    if not g:
        raise DomainError("division by zero polynomial")
    if not f:
        return LaurentPoly.zero()
    gmax = g.max_exponent()
    gtop = g.coeff(gmax)
    if gtop not in (1, -1):
        raise AssertionError("divisor top coefficient is not a unit")
    floor = f.min_exponent() - g.min_exponent()
    q: dict[int, int] = {}
    rem = f
    while rem:
        d = rem.max_exponent() - gmax
        if d < floor:
            raise AssertionError("inexact polynomial division")
        ce = rem.coeff(rem.max_exponent()) * gtop
        q[d] = ce
        rem = rem - g.shift(d).scale(ce)
    return LaurentPoly(q)


def stabilizer_poincare(view: SubsystemView, mu: Coweight) -> LaurentPoly:
    """Sum of t^length over the subsystem Weyl elements fixing mu."""
    coeffs: dict[int, int] = {}
    for a, l in zip(view.elements, view.lengths):
        if mat_apply(a, mu) == tuple(mu):
            coeffs[-2 * l] = coeffs.get(-2 * l, 0) + 1
    return LaurentPoly(coeffs)


def _numerator(view: SubsystemView) -> Mapping[Coweight, LaurentPoly]:
    """The product over the view's positive coroots of (1 - t x^(-coroot)),
    as a read-only map exponent -> coefficient, cached per view."""
    cached = _numerator_cache.get(view.key)
    if cached is not None:
        return cached
    terms = {tuple(0 for _ in range(view.ambient_rank)): _ONE}
    for cv in view.positive_coroots:
        nxt = dict(terms)
        for k, p in terms.items():
            y = vec_sub(k, cv)
            n = nxt.get(y, _ZERO) - p * _T
            if n:
                nxt[y] = n
            else:
                nxt.pop(y, None)
        terms = nxt
    cached = MappingProxyType(terms)
    _numerator_cache[view.key] = cached
    return cached


def hall_littlewood_characters(view: SubsystemView,
                               mu: Coweight) -> Mapping[Coweight, LaurentPoly]:
    """Hall-Littlewood polynomial of the subsystem at mu in the basis of its
    Weyl characters, by Macdonald's formula: the characters of the numerator
    times x^mu, straightened by ``klimyk``, each coefficient divided exactly
    by the stabilizer Poincare polynomial.  Read-only, keyed by
    subsystem-dominant coweights, monic at mu; coefficients lie in Z[t]."""
    mu = tuple(mu)
    key = (view.key, mu)
    cached = _hl_cache.get(key)
    if cached is not None:
        return cached
    if not view.is_dominant(mu):
        raise DomainError(f"{mu} is not dominant for {view.key}")
    numerator = _numerator(view)
    if len(numerator) > SUPPORT_CAP:
        raise FeasibilityError(
            f"Hall-Littlewood numerator of {view.key} has {len(numerator)} "
            f"terms, over the cap", SUPPORT_CAP)
    stab = stabilizer_poincare(view, mu)
    chars = klimyk(view, mu, numerator)
    result = MappingProxyType({kappa: _poly_exact_div(p, stab)
                               for kappa, p in sorted(chars.items())})
    _hl_cache[key] = result
    return result


def hall_littlewood(datum: RootDatum, view: SubsystemView,
                    mu: Coweight) -> InvariantElement:
    """Hall-Littlewood orbit polynomial for the subsystem: the character
    expansion of ``hall_littlewood_characters`` written in orbit sums through
    ``dominant_weights``.  Exact; returns a read-only map of orbit sums keyed
    by subsystem-dominant coweights, monic at mu."""
    out: dict = {}
    for kappa, p in hall_littlewood_characters(view, mu).items():
        for lam, m in dominant_weights(view, kappa).items():
            _add_scaled(out, lam, p, m)
    return MappingProxyType({lam: p for lam, p in sorted(out.items()) if p})


def satake_f(datum: RootDatum, view: SubsystemView,
             mu: Coweight) -> InvariantElement:
    """Symmetric-function image of the basis element at mu: the
    Hall-Littlewood element shifted by v to the pairing of mu with the sum of
    the subsystem's positive roots."""
    shift = pairing(view.two_rho, mu)
    return MappingProxyType(
        {k: p.shift(shift) for k, p in hall_littlewood(datum, view, mu).items()})


def hecke_product(datum: RootDatum, alpha: Coweight,
                  beta: Coweight) -> Mapping[Coweight, LaurentPoly]:
    """Structure constants of the convolution product of the basis elements
    at alpha and beta: the expansion of their product in the triangular
    basis, keyed by dominant coweight."""
    alpha, beta = tuple(alpha), tuple(beta)
    key = (datum.cartan_type, alpha, beta)
    if key in _product_cache:
        return _product_cache[key]
    view = datum.full
    if not (is_dominant(alpha) and is_dominant(beta)):
        raise DomainError("product arguments must be dominant")
    # satake_f at gamma is the Hall-Littlewood element times v^<2 rho, gamma>,
    # so multiply characters, peel against the Hall-Littlewood elements and
    # shift afterwards
    shift = pairing(view.two_rho, vec_add(alpha, beta))
    right = hall_littlewood_characters(view, beta)
    prod: dict = {}
    for ka, pa in hall_littlewood_characters(view, alpha).items():
        for kb, pb in right.items():
            p = (pa * pb).shift(shift)
            for gamma, n in tensor_decompose(datum, ka, kb).items():
                _add_scaled(prod, gamma, p, n)

    def basis(gamma: Coweight) -> InvariantElement:
        if not is_dominant(gamma):
            raise AssertionError("peak of the product expansion is not dominant")
        return hall_littlewood_characters(view, gamma)

    coeffs = peel(prod, view.two_rho, basis)
    result = MappingProxyType({
        gamma: c.shift(-pairing(view.two_rho, gamma))
        for gamma, c in sorted(coeffs.items())})
    _product_cache[key] = result
    return result


def satake_expand(datum: RootDatum, upper: SubsystemView, lower: SubsystemView,
                  mu: Coweight) -> Mapping[Coweight, LaurentPoly]:
    """Expand the basis element of the upper subsystem at mu into the basis
    of the lower subsystem (lower simple roots a subset of upper's):
    the coefficient map of the constant-term homomorphism.  Each upper
    character is restricted by ``restrict_decompose``, so the coefficients
    come from the branching multiplicities of the dual groups."""
    mu = tuple(mu)
    key = (upper.key, lower.key, mu)
    if key in _ct_cache:
        return _ct_cache[key]
    if not set(lower.indices) <= set(upper.indices):
        raise DomainError(f"{lower.key} is not a subsystem of {upper.key}")
    shift = pairing(upper.two_rho, mu)
    em: dict = {}
    for kappa, p in hall_littlewood_characters(upper, mu).items():
        p = p.shift(shift)
        for lam, r in restrict_decompose(upper, lower, kappa).items():
            _add_scaled(em, lam, p, r)
    coeffs = peel(em, lower.peel_height,
                  lambda lam: hall_littlewood_characters(lower, lam))
    result = MappingProxyType({
        lam: c.shift(-pairing(lower.two_rho, lam))
        for lam, c in sorted(coeffs.items())})
    _ct_cache[key] = result
    return result


def constant_term(datum: RootDatum, levi: SubsystemView,
                  mu: Coweight) -> Mapping[Coweight, LaurentPoly]:
    """Coefficients of the constant-term homomorphism from the full group to
    the Levi, keyed by Levi-dominant coweight.  Support lies inside the orbit
    hull of mu in the coroot-lattice coset of mu."""
    mu = tuple(mu)
    if not is_dominant(mu):
        raise DomainError(f"{mu} is not dominant")
    result = satake_expand(datum, datum.full, levi, mu)
    for lam in result:
        if not (in_hull(datum, lam, mu)
                and in_coroot_lattice(datum, vec_sub(mu, lam))):
            raise AssertionError("constant-term support escaped the weight hull")
    return result


def orbit_size(datum: RootDatum, levi: SubsystemView,
               lam: Coweight) -> LaurentPoly:
    """Cardinality of the Levi integral-group orbit of the lattice point at
    lam, as a polynomial in q: q^(pairing with the Levi positive-root sum
    minus the number of Levi positive roots off the stabilizer) times the
    Poincare series of the minimal coset representatives."""
    lam = tuple(lam)
    if not levi.is_dominant(lam):
        raise DomainError(f"{lam} is not dominant for the Levi {levi.indices}")
    sh = pairing(levi.two_rho, lam)
    d = sum(1 for r in levi.positive_roots if pairing(r, lam) > 0)
    best: dict[Coweight, int] = {}
    for a, l in zip(levi.elements, levi.lengths):
        w = mat_apply(a, lam)
        if w not in best or l < best[w]:
            best[w] = l
    coeffs: dict[int, int] = {}
    for l in best.values():
        coeffs[2 * l] = coeffs.get(2 * l, 0) + 1
    return LaurentPoly(coeffs).shift(2 * (sh - d))


def product_identity_sides(datum: RootDatum, levi: SubsystemView, mu: Coweight,
                           lam: Coweight, nu: Coweight
                           ) -> tuple[LaurentPoly, LaurentPoly]:
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
    if not is_dominant(alpha):
        raise DomainError("nu + lam left the dominant cone")
    c = constant_term(datum, levi, mu).get(lam, LaurentPoly.zero())
    shift_n = pairing(datum.full.two_rho, lam) - pairing(levi.two_rho, lam)
    lhs = c.shift(shift_n) * orbit_size(datum, levi, lam)
    mustar = dual_star(datum, mu)
    rhs = hecke_product(datum, alpha, mustar).get(nu, LaurentPoly.zero())
    return lhs, rhs


def verify_product_identity(datum: RootDatum, levi: SubsystemView,
                            mu: Coweight, lam: Coweight, nu: Coweight) -> bool:
    lhs, rhs = product_identity_sides(datum, levi, mu, lam, nu)
    return lhs == rhs
