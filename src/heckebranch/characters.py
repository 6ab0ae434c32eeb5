"""Weight multiplicities, tensor products, and Levi branching.

All modules here are representations of the dual group attached to a root
datum (or to a Levi subsystem of it), so "weights" are coweights of the
original datum and the roots acting on them are its coroots.  Multiplicities
come from the Freudenthal recursion run with the ambient Weyl-invariant form,
which restricts correctly to every Levi subsystem.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, FeasibilityError
from .rootdata import (
    Coweight,
    RootDatum,
    SubsystemView,
    dominate_with_sign,
    pairing,
    peel,
    vec_add,
    vec_scale,
    vec_sub,
    weyl_dim,
)

DIMENSION_CAP = 200_000

_dominant_cache: dict = {}
_table_cache: dict = {}


def _check_cap(view: SubsystemView, mu: Coweight) -> None:
    d = weyl_dim(view, mu)
    if d > DIMENSION_CAP:
        raise FeasibilityError(
            f"module of dimension {d} at highest weight {mu} exceeds the cap",
            DIMENSION_CAP)


def dominant_weights(view: SubsystemView, mu: Coweight) -> dict[Coweight, int]:
    """Multiplicities of the view-dominant weights of the irreducible module
    with highest weight mu, by the Freudenthal recursion."""
    mu = tuple(mu)
    key = (view.key, mu)
    if key in _dominant_cache:
        return _dominant_cache[key]
    if not view.is_dominant(mu):
        raise DomainError(f"{mu} is not dominant for {view.key}")
    _check_cap(view, mu)

    # all view-dominant weights below mu, found by stepping down positive coroots
    found = {mu}
    frontier = [mu]
    while frontier:
        nxt = []
        for x in frontier:
            for cv in view.positive_coroots:
                y = vec_sub(x, cv)
                if y not in found and view.is_dominant(y):
                    found.add(y)
                    nxt.append(y)
        frontier = nxt

    def depth(x: Coweight) -> Fraction:
        cc = view.coroot_coefficients(vec_sub(mu, x))
        return sum(cc, Fraction(0))

    ordered = sorted(found, key=lambda x: (depth(x), x))
    shifted_mu = vec_add(mu, view.rho_hat)
    norm_mu = view.bilinear(shifted_mu, shifted_mu)
    mults: dict[Coweight, int] = {}
    orbit_mult: dict[Coweight, int] = {}
    for kappa in ordered:
        if kappa == mu:
            mults[kappa] = 1
            for y in view.orbit(kappa):
                orbit_mult[y] = 1
            continue
        acc = Fraction(0)
        for cv in view.positive_coroots:
            k = 1
            while True:
                y = vec_add(kappa, vec_scale(k, cv))
                m = orbit_mult.get(y)
                if m is None:
                    dom = view.dominate(y)
                    if dom not in mults:
                        break
                    m = mults[dom]
                acc += m * view.bilinear(y, cv)
                k += 1
        shifted = vec_add(kappa, view.rho_hat)
        denom = norm_mu - view.bilinear(shifted, shifted)
        val = 2 * acc / denom
        if val.denominator != 1:
            raise AssertionError("Freudenthal produced a non-integer multiplicity")
        mults[kappa] = int(val)
        for y in view.orbit(kappa):
            orbit_mult[y] = int(val)
    _dominant_cache[key] = mults
    return mults


def weight_table(view: SubsystemView, mu: Coweight) -> dict[Coweight, int]:
    """Every weight of the irreducible module with highest weight mu, with
    multiplicity (the view-orbit expansion of ``dominant_weights``)."""
    mu = tuple(mu)
    key = (view.key, mu)
    if key in _table_cache:
        return _table_cache[key]
    table: dict[Coweight, int] = {}
    for kappa, m in dominant_weights(view, mu).items():
        for y in view.orbit(kappa):
            table[y] = m
    _table_cache[key] = table
    return table


def module_dimension(view: SubsystemView, mu: Coweight) -> int:
    return weyl_dim(view, mu)


def tensor_decompose(datum: RootDatum, a: Coweight, b: Coweight) -> dict[Coweight, int]:
    """Decomposition of the tensor product of the irreducibles with highest
    weights a and b, as a dict highest weight -> multiplicity.

    Runs over the weights of the smaller factor (Klimyk's rule with the
    half-sum of positive coroots as the regular shift)."""
    a, b = tuple(a), tuple(b)
    view = datum.full
    if not (view.is_dominant(a) and view.is_dominant(b)):
        raise DomainError("tensor factors must be dominant")
    if weyl_dim(view, b) > weyl_dim(view, a):
        a, b = b, a
    shift = view.rho_hat
    out: dict[Coweight, int] = {}
    for w, m in weight_table(view, b).items():
        x = vec_add(vec_add(a, w), shift)
        dom, sign = dominate_with_sign(datum, x)
        if any(v == 0 for v in dom):
            continue
        c = tuple(int(v - s) for v, s in zip(dom, shift))
        out[c] = out.get(c, 0) + sign * m
    return {c: m for c, m in sorted(out.items()) if m != 0}


def tensor_multiplicity(datum: RootDatum, a: Coweight, b: Coweight,
                        c: Coweight) -> int:
    return tensor_decompose(datum, a, b).get(tuple(c), 0)


def decompose_invariant_multiset(view: SubsystemView,
                                 table: dict[Coweight, int]) -> dict[Coweight, int]:
    """Peel a Weyl-invariant weight multiset (with integer multiplicities)
    into irreducible highest weights.  Raises if the multiset is not a
    nonnegative sum of irreducible characters."""
    def character(top: Coweight) -> dict[Coweight, int]:
        if not view.is_dominant(top):
            raise DomainError("multiset is not a character: peak weight not dominant")
        return weight_table(view, top)

    out = peel(table, view.peel_height, character)
    if any(m < 0 for m in out.values()):
        raise DomainError("multiset is not a character: negative multiplicity")
    return dict(sorted(out.items()))


def branch_decompose(datum: RootDatum, levi: SubsystemView,
                     mu: Coweight) -> dict[Coweight, int]:
    """Restriction multiplicities: for the irreducible module of the full dual
    group with highest weight mu, the dict of Levi-dominant highest weights
    to their multiplicity in the restriction."""
    mu = tuple(mu)
    if not datum.full.is_dominant(mu):
        raise DomainError(f"{mu} is not dominant")
    return decompose_invariant_multiset(levi, weight_table(datum.full, mu))


def branch_multiplicity(datum: RootDatum, levi: SubsystemView, mu: Coweight,
                        lam: Coweight) -> int:
    return branch_decompose(datum, levi, mu).get(tuple(lam), 0)


def tensor_decompose_by_tables(datum: RootDatum, a: Coweight,
                               b: Coweight) -> dict[Coweight, int]:
    """Independent cross-check of ``tensor_decompose``: multiply the two full
    weight tables and peel the product multiset."""
    view = datum.full
    ta = weight_table(view, tuple(a))
    tb = weight_table(view, tuple(b))
    prod: dict[Coweight, int] = {}
    for x, mx in ta.items():
        for y, my in tb.items():
            z = vec_add(x, y)
            prod[z] = prod.get(z, 0) + mx * my
    return decompose_invariant_multiset(view, prod)
