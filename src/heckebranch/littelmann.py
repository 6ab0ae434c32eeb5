"""Piecewise-linear paths in the coweight space, crystal root operators,
path counting for restriction and tensor multiplicities, and the folded-path
validity checker.

A path is a tuple of (direction, duration) segments with rational entries;
durations are positive and sum to 1, and the canonical form merges adjacent
segments with equal directions so that path equality is decidable.  The
trajectory starts at the origin.  All cone tests are evaluated at the
breakpoints only, which suffices by piecewise linearity.

The crystal at a dominant mu is generated from the straight path by the
lowering operators alone (every path of Littelmann's crystal is a string of
lowerings of the straight path).  ``crystal_fibers`` indexes it once by
endpoint, with each path's breakpoints computed once; the restriction and
tensor path sets read only the fiber at the endpoint they can match.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DomainError, FeasibilityError
from .rootdata import (
    Coweight,
    RatVec,
    RootDatum,
    SubsystemView,
    mat_apply,
    pairing,
    vec_add,
    vec_scale,
    vec_sub,
    weyl_dim,
)

Segment = tuple[RatVec, Fraction]
Path = tuple[Segment, ...]

CRYSTAL_CAP = 200_000

_crystal_cache: dict = {}


def canonical(segments: Iterable[Segment], rank: int) -> Path:
    """Drop zero-duration segments and merge adjacent equal directions; the
    empty result becomes the constant path at the origin."""
    out: list[list] = []
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


def straight_path(datum: RootDatum, mu: Coweight) -> Path:
    direction = tuple(Fraction(v) for v in mu)
    return canonical([(direction, Fraction(1))], datum.rank)


def path_times_and_points(path: Path) -> tuple[list[Fraction], list[RatVec]]:
    """Breakpoint times and positions, starting at (0, origin)."""
    times = [Fraction(0)]
    points = [tuple(Fraction(0) for _ in path[0][0])]
    for d, t in path:
        points.append(vec_add(points[-1], vec_scale(t, d)))
        times.append(times[-1] + t)
    return times, points


def path_points(path: Path) -> list[RatVec]:
    return path_times_and_points(path)[1]


def endpoint_weight(path: Path) -> Coweight:
    return _lattice_point(path_points(path)[-1])


def _lattice_point(end: RatVec) -> Coweight:
    if any(v.denominator != 1 for v in end):
        raise DomainError("path endpoint is not a lattice point")
    return tuple(int(v) for v in end)


def _cut_and_reflect(datum: RootDatum, i: int, path: Path, t0: Fraction,
                     t1: Fraction) -> Path:
    """Reflect the directions of the sub-path on [t0, t1] by the i-th simple
    reflection, splitting segments at t0 and t1 when they fall inside one."""
    refl = datum.full.reflections[i]
    out: list[Segment] = []
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


def f_op(datum: RootDatum, i: int, path: Path) -> Optional[Path]:
    """Lowering root operator for the i-th simple root (1-based), by the
    cut-and-reflect rule on the height function t -> <alpha_i, path(t)>.
    Returns None when undefined."""
    return _lower(datum, i, path, *path_times_and_points(path))


def _lower(datum: RootDatum, i: int, path: Path, times: Sequence[Fraction],
           points: Sequence[RatVec]) -> Optional[Path]:
    """``f_op`` on a path whose breakpoint times and positions are given."""
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


def e_op(datum: RootDatum, i: int, path: Path) -> Optional[Path]:
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


def generate_crystal(datum: RootDatum, mu: Coweight,
                     cap: Optional[int] = None) -> frozenset:
    """All paths reachable from the straight path to mu under the lowering
    root operators.  The count equals the dimension of the irreducible module
    of the dual group with highest weight mu."""
    return _crystal(datum, tuple(mu), cap)[0]


def crystal_fibers(datum: RootDatum, mu: Coweight) -> Mapping:
    """The crystal at mu indexed by endpoint: a read-only map from each
    endpoint weight to the tuple of ``(path, breakpoints)`` ending there,
    the breakpoints being the path's positions from the origin on.
    Cached; raises as ``generate_crystal`` does."""
    return _crystal(datum, tuple(mu), None)[1]


def _crystal(datum: RootDatum, mu: Coweight,
             cap: Optional[int]) -> tuple[frozenset, Mapping]:
    """The crystal at mu and its endpoint index, cached together.  Each
    path's breakpoints are computed once, when the search first reaches it,
    and serve both its lowerings and the index."""
    key = (datum.cartan_type, mu)
    cached = _crystal_cache.get(key)
    if cached is not None:
        return cached
    if cap is None:
        cap = CRYSTAL_CAP
    if not datum.full.is_dominant(mu):
        raise DomainError(f"{mu} is not dominant")
    if weyl_dim(datum.full, mu) > cap:
        raise FeasibilityError(f"crystal at {mu} exceeds {cap} paths", cap)
    start = straight_path(datum, mu)
    breakpoints = {start: path_times_and_points(start)}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            times, points = breakpoints[p]
            for i in range(1, datum.rank + 1):
                q = _lower(datum, i, p, times, points)
                if q is not None and q not in breakpoints:
                    breakpoints[q] = path_times_and_points(q)
                    if len(breakpoints) > cap:
                        raise FeasibilityError(
                            f"crystal at {mu} exceeds {cap} paths", cap)
                    nxt.append(q)
        frontier = nxt
    fibers: dict = {}
    for p, (_, points) in breakpoints.items():
        fibers.setdefault(_lattice_point(points[-1]), []).append(
            (p, tuple(points)))
    cached = (frozenset(breakpoints),
              MappingProxyType({w: tuple(f) for w, f in sorted(fibers.items())}))
    _crystal_cache[key] = cached
    return cached


def branch_path_set(datum: RootDatum, levi: SubsystemView, mu: Coweight,
                    lam: Coweight) -> frozenset:
    """Crystal paths that stay Levi-dominant at every breakpoint and end
    at lam."""
    fiber = crystal_fibers(datum, mu).get(tuple(lam), ())
    return frozenset(p for p, points in fiber
                     if all(levi.is_dominant(x) for x in points))


def count_branch_paths(datum: RootDatum, levi: SubsystemView, mu: Coweight,
                       lam: Coweight) -> int:
    return len(branch_path_set(datum, levi, mu, lam))


def tensor_path_set(datum: RootDatum, mu: Coweight, nu: Coweight,
                    target: Coweight) -> frozenset:
    """Crystal paths of mu that stay G-dominant at every breakpoint after
    translation by nu and whose translated endpoint is the target."""
    nu, target = tuple(nu), tuple(target)
    if not (datum.full.is_dominant(nu) and datum.full.is_dominant(target)):
        raise DomainError("translation point and target must be dominant")
    fiber = crystal_fibers(datum, mu).get(vec_sub(target, nu), ())
    return frozenset(p for p, points in fiber
                     if all(all(c >= 0 for c in vec_add(nu, x))
                            for x in points))


def count_tensor_paths(datum: RootDatum, mu: Coweight, nu: Coweight,
                       target: Coweight) -> int:
    return len(tensor_path_set(datum, mu, nu, target))


def _directions_connected(datum: RootDatum, point: RatVec, incoming: RatVec,
                          outgoing: RatVec) -> bool:
    """Breadth-first search over reflection chains through walls containing
    the point: each step reflects the current direction in a positive root
    whose pairing with the point is integral and with the direction strictly
    negative.  Directions live in a finite Weyl orbit, so the search halts."""
    if incoming == outgoing:
        return True
    integral_walls = [
        (root, cv) for root, cv in zip(datum.positive_roots,
                                       datum.positive_coroots)
        if pairing(root, point).denominator == 1
    ]
    seen = {incoming}
    frontier = [incoming]
    while frontier:
        nxt = []
        for eta in frontier:
            for root, cv in integral_walls:
                p = pairing(root, eta)
                if p >= 0:
                    continue
                eta2 = vec_sub(eta, vec_scale(p, cv))
                if eta2 == outgoing:
                    return True
                if eta2 not in seen:
                    seen.add(eta2)
                    nxt.append(eta2)
        frontier = nxt
    return False


def is_hecke_path(datum: RootDatum, path: Path) -> bool:
    """Validity of a folded path: at every interior breakpoint the incoming
    direction must reach the outgoing one by a chain of reflections in
    integral walls through the breakpoint, each applied to a direction it
    pairs strictly negatively with."""
    path = canonical(path, datum.rank)
    return _folds_connected(datum, path, path_points(path))


def _folds_connected(datum: RootDatum, path: Path,
                     points: Sequence[RatVec]) -> bool:
    """``is_hecke_path`` on a canonical path whose breakpoints are given, as
    ``crystal_fibers`` holds them."""
    return all(_directions_connected(datum, points[k], path[k - 1][0],
                                     path[k][0])
               for k in range(1, len(path)))

