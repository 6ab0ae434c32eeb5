"""Reference route for the path model: ``Fraction`` root operators and
whole-crystal scans.

The root operators cut and reflect paths in exact rationals, with no time
grid, and the crystal is closed under both the lowering and the raising
operators.  Each path set is found by rebuilding every crystal path's
breakpoints and testing its endpoint.  Slow, and independent of the integer
grid, the endpoint index and the lowering-only generation that the library
uses, so the tests compare the two.
"""

from fractions import Fraction
from functools import lru_cache

from heckebranch.errors import DomainError
from heckebranch.rootdata import mat_apply, vec_add, vec_scale
from weyl_oracle import reflections


def canonical(segments, rank):
    """Drop zero-duration segments and merge adjacent equal directions; the
    empty result becomes the constant path at the origin."""
    out = []
    for d, t in segments:
        if t == 0:
            continue
        if t < 0:
            raise DomainError("negative segment duration")
        if out and out[-1][0] == d:
            out[-1][1] += t
        else:
            out.append([d, t])
    if not out:
        return ((tuple(Fraction(0) for _ in range(rank)), Fraction(1)),)
    return tuple((d, t) for d, t in out)


def straight_path(datum, mu):
    return canonical([(tuple(Fraction(v) for v in mu), Fraction(1))],
                     datum.rank)


def path_times_and_points(path):
    """Breakpoint times and positions, starting at (0, origin)."""
    times = [Fraction(0)]
    points = [tuple(Fraction(0) for _ in path[0][0])]
    for d, t in path:
        points.append(vec_add(points[-1], vec_scale(t, d)))
        times.append(times[-1] + t)
    return times, points


def endpoint_weight(path):
    end = path_times_and_points(path)[1][-1]
    assert all(v.denominator == 1 for v in end), "endpoint off the lattice"
    return tuple(int(v) for v in end)


def _cut_and_reflect(datum, i, path, t0, t1):
    """Reflect the directions of the sub-path on [t0, t1] by the i-th simple
    reflection, splitting segments at t0 and t1 when they fall inside one."""
    refl = reflections(datum.cartan_matrix)[i]
    out = []
    clock = Fraction(0)
    for d, t in path:
        start, end = clock, clock + t
        clock = end
        cuts = [c for c in (t0, t1) if start < c < end]
        last = start
        for c in cuts + [end]:
            if c > last:
                if last >= t0 and c <= t1:
                    out.append((mat_apply(refl, d), c - last))
                else:
                    out.append((d, c - last))
                last = c
    return canonical(out, datum.rank)


def f_op(datum, i, path):
    """Lowering root operator for the i-th simple root, by the
    cut-and-reflect rule on the height function t -> <alpha_i, path(t)>."""
    times, points = path_times_and_points(path)
    heights = [x[i - 1] for x in points]
    low = min(heights)
    if heights[-1] - low < 1:
        return None
    k0 = max(k for k, h in enumerate(heights) if h == low)
    t0 = times[k0]
    k1 = next(k for k in range(k0, len(heights)) if heights[k] >= low + 1)
    if heights[k1] == low + 1:
        t1 = times[k1]
    else:
        frac = (low + 1 - heights[k1 - 1]) / (heights[k1] - heights[k1 - 1])
        t1 = times[k1 - 1] + (times[k1] - times[k1 - 1]) * frac
    return _cut_and_reflect(datum, i, path, t0, t1)


def e_op(datum, i, path):
    """Raising root operator, inverse to ``f_op`` where both are defined."""
    times, points = path_times_and_points(path)
    heights = [x[i - 1] for x in points]
    low = min(heights)
    if low > -1:
        return None
    k1 = min(k for k, h in enumerate(heights) if h == low)
    t1 = times[k1]
    t0 = None
    for k in range(k1, 0, -1):
        if heights[k - 1] >= low + 1:
            if heights[k - 1] == low + 1:
                t0 = times[k - 1]
            else:
                frac = (heights[k - 1] - (low + 1)) / (heights[k - 1] - heights[k])
                t0 = times[k - 1] + (times[k] - times[k - 1]) * frac
            break
    if t0 is None:
        raise AssertionError("raising operator found no upper level")
    return _cut_and_reflect(datum, i, path, t0, t1)


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
        if all(levi.is_dominant(x) for x in path_times_and_points(p)[1])
        and endpoint_weight(p) == lam)


def tensor_path_set(datum, mu, nu, target) -> frozenset:
    nu, target = tuple(nu), tuple(target)
    return frozenset(
        p for p in closure_crystal(datum, mu)
        if all(all(c >= 0 for c in vec_add(nu, x))
               for x in path_times_and_points(p)[1])
        and vec_add(nu, endpoint_weight(p)) == target)
