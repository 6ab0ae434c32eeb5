"""Reference route for the path model: whole-crystal scans.

The crystal is closed under both the lowering and the raising root
operators, and each path set is found by rebuilding every crystal path's
breakpoints and testing its endpoint.  Slow, and independent of the
endpoint index and the lowering-only generation that the library uses, so
the tests compare the two.
"""

from functools import lru_cache

from heckebranch.littelmann import (
    e_op,
    endpoint_weight,
    f_op,
    path_points,
    straight_path,
)
from heckebranch.rootdata import vec_add


@lru_cache(maxsize=None)
def closure_crystal(datum, mu) -> frozenset:
    """Every path reachable from the straight path to mu under f and e."""
    start = straight_path(datum, mu)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for i in range(1, datum.rank + 1):
                for op in (f_op, e_op):
                    q = op(datum, i, p)
                    if q is not None and q not in seen:
                        seen.add(q)
                        nxt.append(q)
        frontier = nxt
    return frozenset(seen)


def branch_path_set(datum, levi, mu, lam) -> frozenset:
    lam = tuple(lam)
    return frozenset(
        p for p in closure_crystal(datum, mu)
        if all(levi.is_dominant(x) for x in path_points(p))
        and endpoint_weight(p) == lam)


def tensor_path_set(datum, mu, nu, target) -> frozenset:
    nu, target = tuple(nu), tuple(target)
    return frozenset(
        p for p in closure_crystal(datum, mu)
        if all(all(c >= 0 for c in vec_add(nu, x)) for x in path_points(p))
        and vec_add(nu, endpoint_weight(p)) == target)
