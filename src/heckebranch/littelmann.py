"""Piecewise-linear paths in the coweight space, crystal root operators,
path counting for restriction and tensor multiplicities, and the folded-path
validity checker.

A path is a tuple of (direction, duration) segments with rational entries;
durations are positive and sum to 1, and the canonical form merges adjacent
segments with equal directions so that path equality is decidable.  The
trajectory starts at the origin.  All cone tests are evaluated at the
breakpoints only, which suffices by piecewise linearity.

Every computation runs in integers, on a time grid.  On the grid ``N`` a
path is a tuple of (direction, duration) segments with integer directions
and positive integer durations summing to ``N``; its breakpoints are ``N``
times its positions, so they are integer points and the height ``1`` of a
root operator is ``N``.  The crystal at a dominant mu lives on the grid
``N = lcm(1, ..., <theta, mu>)``, theta the highest root.  This suffices: a
break time ``a`` of a Lakshmibai-Seshadri path of shape mu satisfies
``a <beta, tau mu> in Z`` for a positive root beta and a Weyl element tau
(Littelmann, Ann. of Math. 1995), and ``|<beta, tau mu>| <= <theta, mu>``
because theta dominates every positive root and mu is dominant.  So every
cut a lowering operator makes lands on the grid, which the exact ``divmod``
by the slope checks: a remainder raises ``AssertionError``, as Freudenthal's
non-integer check does.  A lowering operator finds its cut on the
breakpoints' heights and takes it by index: the cut starts at a breakpoint
and ends at one or inside the segment before it, which alone is split.

The crystal at a dominant mu is generated from the straight path by the
lowering operators alone (every path of Littelmann's crystal is a string of
lowerings of the straight path).  It is indexed once by endpoint, with each
path's breakpoints computed once, and holds grid paths only; the restriction
and tensor path filters, ``_branch_paths`` and ``_tensor_paths``, take a
crystal their caller fetched, read only the fiber at the endpoint they can
match and return the positions of the passing paths in that fiber, which is
what the sweep compares.  ``_fiber`` hands out one fiber of a crystal and
``_dominant_after`` is the tensor filter's cone test on it: by Littelmann's
rule the multiplicity of nu in ``V(alpha) x V(mu)`` is the number of paths
of the crystal at mu that end at ``nu - alpha`` and stay dominant after
translation by alpha, which is how the sweep counts its second tensor
multiplicity, on the crystal at the dual of its mu.  A crystal's size is
the Weyl dimension at mu, so it runs under the module cap:
``characters._check_cap`` tests it, the same rule as for a weight table.
``Fraction`` paths exist at the public path functions alone: they encode
their input on a grid that its denominators fix, run the integer routine
and decode the result on each call, importing ``Fraction`` there, so
importing this module does not load ``fractions``.
"""

from __future__ import annotations

from functools import cache
from math import lcm
from operator import add
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .characters import _check_cap
from .errors import DomainError
from .rootdata import (
    Coweight,
    RatVec,
    RootDatum,
    SubsystemView,
    pairing,
    vec_scale,
    vec_sub,
)

if TYPE_CHECKING:
    from fractions import Fraction

Segment = tuple[RatVec, "Fraction"]
Path = tuple[Segment, ...]
# a path on an integer grid: (direction, duration) with integer entries
GridPath = tuple[tuple[Coweight, int], ...]

# --- the integer routine --------------------------------------------------

def _canonical(segments: Iterable[tuple[Coweight, int]]) -> GridPath:
    """Drop zero-duration segments and merge adjacent equal directions."""
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
    return tuple((d, t) for d, t in out)


def _points(path: GridPath) -> tuple[Coweight, ...]:
    """Breakpoints from the origin on, in the grid's units."""
    x = (0,) * len(path[0][0])
    out = [x]
    for d, t in path:
        x = tuple(a + t * b for a, b in zip(x, d))
        out.append(x)
    return tuple(out)


def _lattice_point(x: Coweight, unit: int) -> Coweight:
    out = []
    for c in x:
        q, r = divmod(c, unit)
        if r:
            raise DomainError("path endpoint is not a lattice point")
        out.append(q)
    return tuple(out)


def _lower(coroot: Coweight, j: int, path: GridPath, points: Sequence[Coweight],
           unit: int) -> Optional[GridPath]:
    """The lowering operator for the simple root with coroot ``coroot`` and
    coordinate ``j``, by the cut-and-reflect rule on the height function
    ``t -> path(t)[j]``, on a path whose breakpoints are given and whose
    height 1 is ``unit``.  None when undefined.

    The cut runs from breakpoint k0, the last minimum of the height, to
    the first time the height reaches ``top``, one unit above it.  So it
    starts at a breakpoint, and ends at breakpoint k1 or inside the segment
    before it, where the time to climb the rest is an exact division by that
    segment's slope, or the cut is off the grid.  The segments between are
    reflected by ``x -> x - x[j] * coroot``."""
    heights = [x[j] for x in points]
    low = min(heights)
    top = low + unit
    if heights[-1] < top:
        return None
    k0 = len(heights) - 1 - heights[::-1].index(low)
    k1 = k0 + 1
    while heights[k1] < top:
        k1 += 1
    out = list(path[:k0])
    out += ((tuple(a - d[j] * b for a, b in zip(d, coroot)), t)
            for d, t in path[k0:k1])
    if heights[k1] > top:
        d, t = path[k1 - 1]
        steps, rem = divmod(heights[k1] - top, d[j])
        if rem:
            raise AssertionError("root operator cut falls off the time grid")
        out[-1] = (out[-1][0], t - steps)
        out.append((d, steps))
    out += path[k1:]
    return _canonical(out)


# --- Fraction paths at the API --------------------------------------------

def _encode(path: Iterable[Segment], i: int = 0) -> tuple[list, int, int]:
    """A path in integer form: directions times ``scale``, the lcm of their
    denominators, and durations on the grid, the lcm of theirs.  With a
    simple-root index i the grid is refined by the slopes at i, so the cut
    of the i-th root operator falls on it.  Positions come out multiplied
    by ``grid * scale``.  Returns (segments, grid, scale)."""
    path = list(path)
    scale = lcm(*(c.denominator for d, _ in path for c in d))
    directions = [tuple(int(c * scale) for c in d) for d, _ in path]
    grid = lcm(*(t.denominator for _, t in path))
    if i:
        grid *= lcm(*(d[i - 1] for d in directions if d[i - 1]))
    return ([(d, int(t * grid)) for d, (_, t) in zip(directions, path)],
            grid, scale)


def _decode(path: GridPath, grid: int, scale: int = 1) -> Path:
    from fractions import Fraction

    return tuple((tuple(Fraction(c, scale) for c in d), Fraction(t, grid))
                 for d, t in path)


def path_points(path: Path) -> list[RatVec]:
    """Breakpoint positions, starting at the origin."""
    from fractions import Fraction

    ipath, grid, scale = _encode(path)
    unit = grid * scale
    return [tuple(Fraction(c, unit) for c in x) for x in _points(ipath)]


def endpoint_weight(path: Path) -> Coweight:
    ipath, grid, scale = _encode(path)
    return _lattice_point(_points(ipath)[-1], grid * scale)


def f_op(datum: RootDatum, i: int, path: Path) -> Optional[Path]:
    """Lowering root operator for the i-th simple root (1-based), by the
    cut-and-reflect rule on the height function t -> <alpha_i, path(t)>.
    Returns None when undefined."""
    ipath, grid, scale = _encode(path, i)
    out = _lower(datum.full.simple_coroots[i], i - 1, ipath, _points(ipath),
                 grid * scale)
    return None if out is None else _decode(out, grid, scale)


# --- the crystal ----------------------------------------------------------

def _lowering_closure(datum: RootDatum, mu: Coweight, grid: int) -> dict:
    """Every path reachable from the straight path to mu by lowering, on the
    given grid, mapped to its breakpoints."""
    coroots = [(i - 1, c) for i, c in datum.full.simple_coroots.items()]
    start = ((tuple(mu), grid),)
    points = {start: _points(start)}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            x = points[p]
            for j, coroot in coroots:
                q = _lower(coroot, j, p, x, grid)
                if q is not None and q not in points:
                    points[q] = _points(q)
                    nxt.append(q)
        frontier = nxt
    return points


class _Crystal:
    """The crystal at one dominant mu, on its grid.

    ``fibers`` maps each endpoint weight to the tuple of ``(grid path,
    breakpoints, their coordinate-wise minimum)`` ending there, in the
    grid's integers and the order the search met them; endpoints are sorted.
    A path stays in a cone x_i >= c_i exactly when its minimum does."""

    def __init__(self, datum: RootDatum, mu: Coweight):
        self.grid = grid = lcm(*range(1, pairing(datum.highest_root, mu) + 1))
        fibers: dict = {}
        for ipath, points in _lowering_closure(datum, mu, grid).items():
            fibers.setdefault(_lattice_point(points[-1], grid), []).append(
                (ipath, points, tuple(map(min, *points))))
        self.fibers = {w: tuple(f) for w, f in sorted(fibers.items())}


_crystal_of = cache(_Crystal)


def _crystal(datum: RootDatum, mu: Coweight) -> _Crystal:
    """The crystal at mu, cached.  Its size is the Weyl dimension at mu, so
    ``_check_cap`` tests the module at mu on every call, before the cache is
    read: a crystal cached under a larger cap is not handed out."""
    if not datum.full.is_dominant(mu):
        raise DomainError(f"{mu} is not dominant")
    _check_cap(datum.full, mu)
    return _crystal_of(datum, mu)


def generate_crystal(datum: RootDatum, mu: Coweight) -> frozenset:
    """All paths reachable from the straight path to mu under the lowering
    root operators.  The count equals the dimension of the irreducible module
    of the dual group with highest weight mu."""
    crystal = _crystal(datum, tuple(mu))
    return frozenset(_decode(p, crystal.grid)
                     for fiber in crystal.fibers.values() for p, *_ in fiber)


def _fiber(datum: RootDatum, mu: Coweight,
           weight: Coweight) -> tuple[int, tuple]:
    """The grid of the crystal at mu and its fiber at ``weight``, under the
    crystal's cap."""
    crystal = _crystal(datum, mu)
    return crystal.grid, crystal.fibers.get(weight, ())


def _dominant_after(fiber: tuple, shift: Coweight) -> tuple[int, ...]:
    """Positions in the fiber of the paths that stay G-dominant at every
    breakpoint after translation by ``shift``, in the grid's units."""
    return tuple(k for k, (_, _, low) in enumerate(fiber)
                 if min(map(add, shift, low)) >= 0)


def _branch_paths(crystal: _Crystal, levi: SubsystemView,
                  lam: Coweight) -> tuple[int, ...]:
    """Positions in the fiber at lam of the paths that stay Levi-dominant
    at every breakpoint."""
    return tuple(k for k, (_, _, low) in enumerate(crystal.fibers.get(lam, ()))
                 if levi.is_dominant(low))


def _tensor_paths(crystal: _Crystal, nu: Coweight,
                  target: Coweight) -> tuple[int, ...]:
    """Positions in the fiber at ``target - nu`` of the paths that stay
    G-dominant at every breakpoint after translation by nu: those whose
    translated endpoint is the target."""
    return _dominant_after(crystal.fibers.get(vec_sub(target, nu), ()),
                           vec_scale(crystal.grid, nu))


def _decoded(crystal: _Crystal, weight: Coweight, positions) -> frozenset:
    """The paths at ``positions`` in the fiber at ``weight``, decoded."""
    fiber = crystal.fibers.get(weight, ())
    return frozenset(_decode(fiber[k][0], crystal.grid) for k in positions)


def branch_path_set(datum: RootDatum, levi: SubsystemView, mu: Coweight,
                    lam: Coweight) -> frozenset:
    """Crystal paths that stay Levi-dominant at every breakpoint and end
    at lam: ``_branch_paths`` decoded."""
    crystal, lam = _crystal(datum, tuple(mu)), tuple(lam)
    return _decoded(crystal, lam, _branch_paths(crystal, levi, lam))


def tensor_path_set(datum: RootDatum, mu: Coweight, nu: Coweight,
                    target: Coweight) -> frozenset:
    """Crystal paths of mu that stay G-dominant at every breakpoint after
    translation by nu and whose translated endpoint is the target:
    ``_tensor_paths`` decoded."""
    nu, target = tuple(nu), tuple(target)
    if not (datum.full.is_dominant(nu) and datum.full.is_dominant(target)):
        raise DomainError("translation point and target must be dominant")
    crystal = _crystal(datum, tuple(mu))
    return _decoded(crystal, vec_sub(target, nu),
                    _tensor_paths(crystal, nu, target))


# --- folded paths ---------------------------------------------------------

def _directions_connected(datum: RootDatum, point: Coweight,
                          incoming: Coweight, outgoing: Coweight,
                          unit: int) -> bool:
    """Breadth-first search over reflection chains through walls containing
    the point (``unit`` times the position): each step reflects the current
    direction in a positive root whose pairing with the position is
    integral and with the direction strictly negative.  Directions live in
    a finite Weyl orbit, so the search halts.  The directions differ: the
    path is canonical."""
    integral_walls = [
        (root, cv) for root, cv in zip(datum.positive_roots,
                                       datum.positive_coroots)
        if pairing(root, point) % unit == 0
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
    direction must reach the outgoing one by reflecting it in integral walls
    through the breakpoint, one wall at a time, each reflection applied to
    a direction it pairs strictly negatively with.  The path is first put
    in canonical form, without zero-duration segments and with adjacent
    equal directions merged; the empty path is valid."""
    ipath, grid, scale = _encode(path)
    ipath = _canonical(ipath)
    return not ipath or _folds_connected(datum, ipath, _points(ipath),
                                         grid * scale)


def _folds_connected(datum: RootDatum, path: GridPath,
                     points: Sequence[Coweight], unit: int) -> bool:
    """``is_hecke_path`` on a canonical grid path whose breakpoints are
    given, in units where the lattice spacing is ``unit``."""
    return all(_directions_connected(datum, points[k], path[k - 1][0],
                                     path[k][0], unit)
               for k in range(1, len(path)))
