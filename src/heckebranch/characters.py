"""Weight multiplicities, tensor products, and Levi branching.

All modules here are representations of the dual group attached to a root
datum (or to a Levi subsystem of it), so "weights" are coweights of the
original datum and the roots acting on them are its coroots.  Multiplicities
come from the Freudenthal recursion run with the ambient Weyl-invariant form,
which restricts correctly to every Levi subsystem.  Tensor products and
restrictions are both decomposed by one step, ``klimyk``: a weight table is
shifted by a highest weight and straightened by the dot action, for a tensor
product by the full Weyl group (Klimyk's rule) and for a restriction by the
Levi's, at highest weight 0 (Brauer's rule).  Everything here is integer
arithmetic: the recursion orders weights by their pairing with the view's
sum of positive roots and divides exactly by
``<mu - kappa, mu + kappa + 2 rho_hat>``, and the Klimyk step works in doubled
coordinates.  Its walk to the dominant chamber reflects a list in place and
stops at the first point that a simple reflection fixes, since that term
straightens to zero.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import DomainError, FeasibilityError
from .rootdata import (
    Coweight,
    RootDatum,
    SubsystemView,
    pairing,
    vec_add,
    vec_scale,
    vec_sub,
    weyl_dim,
)

DIMENSION_CAP = 200_000

_table_cache: dict = {}
_tensor_cache: dict = {}
_branch_cache: dict = {}


def _check_cap(view: SubsystemView, mu: Coweight) -> None:
    d = weyl_dim(view, mu)
    if d > DIMENSION_CAP:
        raise FeasibilityError(
            f"module of dimension {d} at highest weight {mu} exceeds the cap",
            DIMENSION_CAP)


def dominant_support(view: SubsystemView, mu: Coweight) -> frozenset:
    """The view-dominant weights of the irreducible module with highest
    weight mu, without multiplicities: every view-dominant weight reached
    from mu by stepping down positive coroots.  Needs no Freudenthal step,
    so it runs under no dimension cap."""
    mu = tuple(mu)
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
    return frozenset(found)


def dominant_weights(view: SubsystemView, mu: Coweight) -> Mapping[Coweight, int]:
    """Multiplicities of the view-dominant weights of the irreducible module
    with highest weight mu, by the Freudenthal recursion.  Read-only."""
    mu = tuple(mu)
    if not view.is_dominant(mu):
        raise DomainError(f"{mu} is not dominant for {view.key}")
    _check_cap(view, mu)
    found = dominant_support(view, mu)

    # from mu down: the depth of x below mu (the sum of the coroot
    # coefficients of mu - x) is half the pairing of mu - x with two_rho
    two_rho = view.two_rho
    ordered = sorted(found, key=lambda x: (-pairing(two_rho, x), x))
    shift = vec_add(mu, view.two_rho_hat)
    mults: dict[Coweight, int] = {}
    orbit_mult: dict[Coweight, int] = {}
    for kappa in ordered:
        if kappa == mu:
            mults[kappa] = 1
            for y in view.orbit(kappa):
                orbit_mult[y] = 1
            continue
        acc = 0
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
        # |mu + rho_hat|^2 - |kappa + rho_hat|^2, in integers
        denom = view.bilinear(vec_sub(mu, kappa), vec_add(shift, kappa))
        val, rem = divmod(2 * acc, denom)
        if rem:
            raise AssertionError("Freudenthal produced a non-integer multiplicity")
        mults[kappa] = val
        for y in view.orbit(kappa):
            orbit_mult[y] = val
    return MappingProxyType(mults)


def weight_table(view: SubsystemView, mu: Coweight) -> Mapping[Coweight, int]:
    """Every weight of the irreducible module with highest weight mu, with
    multiplicity (the view-orbit expansion of ``dominant_weights``).
    Read-only."""
    mu = tuple(mu)
    key = (view.key, mu)
    if key in _table_cache:
        return _table_cache[key]
    table: dict[Coweight, int] = {}
    for kappa, m in dominant_weights(view, mu).items():
        for y in view.orbit(kappa):
            table[y] = m
    result = MappingProxyType(table)
    _table_cache[key] = result
    return result


def dot_straighten(view: SubsystemView, top: Coweight,
                   weights: Mapping) -> Iterator[tuple[Coweight, int, object]]:
    """The dot-action straightening of Klimyk's rule, term by term: for each
    weight w of ``weights`` whose top + w + rho_hat is off the view's walls,
    yields the dominant highest weight it is carried to, the sign of the
    Weyl element carrying it, and w's coefficient.  Works in doubled
    coordinates, which keep rho_hat integral on every view.

    Each point walks up one simple reflection at a time, reflected in place
    through the nonzero entries of the simple coroot, and is dropped at the
    first point of its walk with a zero coordinate at a view index: a simple
    reflection fixes that point, so its orbit meets the dominant chamber on
    a wall."""
    shift = view.two_rho_hat
    base = [2 * a + s for a, s in zip(top, shift)]
    coroots = view.simple_coroots
    reflect = [(i - 1, tuple((j, c) for j, c in enumerate(coroots[i]) if c))
               for i in view.indices]
    for w, m in weights.items():
        x = [b + 2 * a for b, a in zip(base, w)]
        sign = 1
        while True:
            for i, coroot in reflect:
                c = x[i]
                if c <= 0:
                    break
            else:
                yield tuple([(d - s) // 2 for d, s in zip(x, shift)]), sign, m
                break
            if not c:
                break
            for j, b in coroot:
                x[j] -= c * b
            sign = -sign


def klimyk(view: SubsystemView, top: Coweight, weights: Mapping) -> dict:
    """Sum over the weights w of ``weights`` of their integer coefficient
    times the view's Weyl character at top + w, straightened by the dot
    action (Klimyk's rule, through ``dot_straighten``): top + w + rho_hat is
    carried into the dominant chamber, taking the sign of the Weyl element,
    and dropped when it lies on a wall.  Returns ``{highest weight:
    coefficient}`` without zero coefficients."""
    out: dict = {}
    for k, sign, m in dot_straighten(view, top, weights):
        out[k] = out.get(k, 0) + (m if sign > 0 else -m)
    return {k: m for k, m in out.items() if m}


def tensor_decompose(datum: RootDatum, a: Coweight,
                     b: Coweight) -> Mapping[Coweight, int]:
    """Decomposition of the tensor product of the irreducibles with highest
    weights a and b, as a read-only map highest weight -> multiplicity.

    Runs ``klimyk`` over the weights of the smaller factor.  Cached on the
    ordered pair, so (a, b) and (b, a) are computed independently."""
    a, b = tuple(a), tuple(b)
    key = (datum.cartan_type, a, b)
    cached = _tensor_cache.get(key)
    if cached is not None:
        return cached
    view = datum.full
    if not (view.is_dominant(a) and view.is_dominant(b)):
        raise DomainError("tensor factors must be dominant")
    big, small = (b, a) if weyl_dim(view, b) > weyl_dim(view, a) else (a, b)
    out = klimyk(view, big, weight_table(view, small))
    result = MappingProxyType(dict(sorted(out.items())))
    _tensor_cache[key] = result
    return result


def tensor_multiplicity(datum: RootDatum, a: Coweight, b: Coweight,
                        c: Coweight) -> int:
    return tensor_decompose(datum, a, b).get(tuple(c), 0)


def restrict_decompose(upper: SubsystemView, lower: SubsystemView,
                       mu: Coweight) -> Mapping[Coweight, int]:
    """Restriction of the upper view's irreducible module at mu to the lower
    view (lower simple roots a subset of upper's): a read-only map of
    lower-dominant highest weights to multiplicities, sorted by highest
    weight and cached.

    Brauer's rule: the upper weight table is invariant under the lower Weyl
    group, so ``klimyk`` at highest weight 0 straightens it into lower
    characters."""
    mu = tuple(mu)
    key = (upper.key, lower.key, mu)
    cached = _branch_cache.get(key)
    if cached is not None:
        return cached
    out = klimyk(lower, (0,) * len(mu), weight_table(upper, mu))
    if any(m < 0 for m in out.values()):
        raise AssertionError("restriction has a negative multiplicity")
    result = MappingProxyType(dict(sorted(out.items())))
    _branch_cache[key] = result
    return result


def branch_decompose(datum: RootDatum, levi: SubsystemView,
                     mu: Coweight) -> Mapping[Coweight, int]:
    """Restriction multiplicities: for the irreducible module of the full dual
    group with highest weight mu, the read-only map of Levi-dominant highest
    weights to their multiplicity in the restriction."""
    mu = tuple(mu)
    if not datum.full.is_dominant(mu):
        raise DomainError(f"{mu} is not dominant")
    return restrict_decompose(datum.full, levi, mu)


def branch_multiplicity(datum: RootDatum, levi: SubsystemView, mu: Coweight,
                        lam: Coweight) -> int:
    return branch_decompose(datum, levi, mu).get(tuple(lam), 0)

