"""Reference routes that the library no longer takes.

The triangular peel: a Weyl-invariant weight multiset is expanded over the
irreducible characters by taking its highest weight off a heap and
subtracting that character's full weight table, over and over.  Restrictions
(``decompose_invariant_multiset``) and tensor products
(``tensor_decompose_by_tables``, which peels the product of two weight
tables) come out of it independently of the Brauer-Klimyk straightening the
library uses, so the tests compare the two.  ``tests/hecke_oracle.py`` peels
the Hecke layer with the same ``peel``.

The hull certificates: ``hull_vertices`` computes the vertices of the orbit
polytope cut by the Levi-dominant cone exactly, by Gauss-Jordan elimination
(``solve_exact``) over every choice of facets, and ``hull_conditions`` reads
the parabolic comparison off them in two more ways, to check against the
pairing criterion ``parabolic.geq_parabolic``.

The offset box search: ``minimal_offset_by_box`` takes each requirement of
a root outside the Levi as the minimum of its pairing over the Weyl orbit of
mu, and tries every central coweight nu >= 0 whose pairing with the sum of
positive roots is at most that of the all-maximal requirement point, which
is feasible, to check the closed form ``parabolic.minimal_offset`` against.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, Mapping, Optional, Sequence

from heckebranch.characters import weight_table
from heckebranch.errors import DomainError
from heckebranch.parabolic import geq_parabolic, is_levi_central, nilradical_roots
from heckebranch.rootdata import (
    Coweight,
    RatVec,
    RootDatum,
    SubsystemView,
    mat_apply,
    pairing,
    vec_add,
)
from weyl_oracle import group

_PEEL_GUARD = 200_000


def peel(work: dict, height: Sequence[int],
         basis: Callable[[tuple], Mapping]) -> dict:
    """Expand ``work`` over a triangular basis by peeling from the top.

    ``basis(k)`` is an element monic at ``k`` whose other keys lie strictly
    below ``k`` in the order of ``(<height, k>, k)``, with ``height`` an
    integer vector.  The peak of what remains is taken off a max-heap (keys
    whose coefficient cancelled to zero stay in the heap and are skipped when
    popped), its coefficient is recorded, and that multiple of its basis
    element is subtracted.  Coefficients are ints or ``LaurentPoly``s, matching
    the basis values.  Returns ``{k: coefficient}`` in pop order; ``work`` is
    left unchanged."""
    def entry(k: tuple) -> tuple:
        return (-sum(map(mul, height, k)), tuple(-v for v in k), k)

    rest = {k: c for k, c in work.items() if c}
    heap = [entry(k) for k in rest]
    heapq.heapify(heap)
    out: dict = {}
    while heap:
        top = heapq.heappop(heap)
        k = top[2]
        c = rest.get(k)
        if c is None:
            continue
        if len(out) >= _PEEL_GUARD:
            raise AssertionError("triangular peel did not terminate")
        out[k] = c
        for y, b in basis(k).items():
            cur = rest.get(y)
            if cur is None:
                below = entry(y)
                if below < top:
                    raise AssertionError("basis element reaches above its key")
                rest[y] = -(c * b)
                heapq.heappush(heap, below)
                continue
            n = cur - c * b
            if n:
                rest[y] = n
            else:
                del rest[y]
        if k in rest:
            raise AssertionError("basis element is not monic at its key")
    return out


def peel_height(view: SubsystemView) -> tuple:
    """The form applied to 2 * rho_hat: <peel_height, x> is twice the form
    pairing of x with rho_hat, the height by which the view's characters
    are peeled."""
    return mat_apply(view.form, view.two_rho_hat)


def decompose_invariant_multiset(view: SubsystemView,
                                 table: Mapping[Coweight, int]) -> dict[Coweight, int]:
    """Peel a Weyl-invariant weight multiset (with integer multiplicities)
    into irreducible highest weights.  Raises if the multiset is not a
    nonnegative sum of irreducible characters."""
    def character(top: Coweight) -> dict[Coweight, int]:
        if not view.is_dominant(top):
            raise DomainError("multiset is not a character: peak weight not dominant")
        return weight_table(view, top)

    out = peel(table, peel_height(view), character)
    if any(m < 0 for m in out.values()):
        raise DomainError("multiset is not a character: negative multiplicity")
    return dict(sorted(out.items()))


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


def solve_exact(rows: Sequence[Sequence], rhs: Sequence[Sequence]
                ) -> Optional[tuple[RatVec, ...]]:
    """Exact Gauss-Jordan elimination of the square matrix ``rows`` augmented
    by the block ``rhs`` (one row of right-hand sides per equation).  Returns
    the reduced right-hand block row by row, or None when ``rows`` is
    singular."""
    n = len(rows)
    aug = [[Fraction(v) for v in rows[i]] + [Fraction(v) for v in rhs[i]]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@lru_cache(maxsize=None)
def fundamental_weights(datum: RootDatum) -> tuple[RatVec, ...]:
    """Rows: the simple-root coordinates of each fundamental weight, the
    rational inverse of the Cartan matrix by ``solve_exact``."""
    n = datum.rank
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return solve_exact(datum.cartan_matrix, ident)


def hull_vertices(datum: RootDatum, levi: SubsystemView,
                  mu: Coweight) -> tuple[RatVec, ...]:
    """Vertices of the polytope Conv(W mu) intersected with the M-dominant
    cone, computed exactly from the facet description.

    Facets of the orbit polytope are the Weyl translates of the fundamental
    weight functionals bounded by their value at mu; the cone contributes one
    facet per Levi simple root."""
    mu = tuple(mu)
    if not datum.full.is_dominant(mu):
        raise DomainError(f"{mu} is not dominant")
    n = datum.rank
    constraints: list[tuple[RatVec, Fraction]] = []
    seen_funcs = set()
    for i in range(n):
        omega = fundamental_weights(datum)[i]
        bound = sum(omega[j] * mu[j] for j in range(n))
        frontier = [omega]
        orbit = {omega}
        while frontier:
            nxt = []
            for f in frontier:
                for r in group(datum.full).root_elements:
                    g = mat_apply(r, f)
                    if g not in orbit:
                        orbit.add(g)
                        nxt.append(g)
            frontier = nxt
        for f in orbit:
            if (f, bound) not in seen_funcs:
                seen_funcs.add((f, bound))
                constraints.append((f, bound))
    for i in levi.indices:
        f = tuple(Fraction(-1 if j == i - 1 else 0) for j in range(n))
        constraints.append((f, Fraction(0)))

    vertices = set()
    for subset in itertools.combinations(range(len(constraints)), n):
        rows = [constraints[k][0] for k in subset]
        sol = solve_exact(rows, [(constraints[k][1],) for k in subset])
        if sol is None:
            continue
        x = tuple(v for (v,) in sol)
        if all(sum(f[j] * x[j] for j in range(n)) <= b for f, b in constraints):
            vertices.add(x)
    return tuple(sorted(vertices))


def hull_conditions(datum: RootDatum, levi: SubsystemView, nu: Coweight,
                    mu: Coweight) -> dict[str, bool]:
    """Three equivalent forms of the parabolic comparison, evaluated
    independently:

    * ``pairing_criterion``: the orbit-minimum pairing bound over the roots
      outside the Levi (same as ``geq_parabolic``);
    * ``shifted_vertices_dominant``: every vertex of Conv(W mu) cap Delta_M,
      translated by nu, is G-dominant;
    * ``vertex_pairing_bound``: for every positive root alpha outside the
      Levi, the minimum of <alpha, -> over those vertices is at least
      <alpha, -nu>.

    Raises DomainError when nu is not M-central, since the polytope forms
    presuppose centrality."""
    nu, mu = tuple(nu), tuple(mu)
    if not is_levi_central(levi, nu):
        raise DomainError(f"{nu} is not central for the Levi {levi.indices}")
    cond1 = geq_parabolic(datum, levi, nu, mu)
    verts = hull_vertices(datum, levi, mu)
    cond2 = all(all(c >= 0 for c in vec_add(v, nu)) for v in verts)
    cond3 = True
    for alpha in nilradical_roots(datum, levi):
        lowest = min(pairing(alpha, v) for v in verts)
        if lowest < -pairing(alpha, nu):
            cond3 = False
            break
    return {
        "pairing_criterion": cond1,
        "shifted_vertices_dominant": cond2,
        "vertex_pairing_bound": cond3,
    }


def minimal_offset_by_box(datum: RootDatum, levi: SubsystemView,
                          mu: Coweight) -> Coweight:
    """The M-central dominant nu with geq_parabolic(nu, mu), minimizing the
    pairing with the sum of positive roots (ties broken lexicographically),
    searched over every central nu >= 0 whose pairing is at most that of
    the all-maximal requirement point, which is always feasible."""
    mu = tuple(mu)
    off = [i for i in range(datum.rank) if (i + 1) not in levi.indices]
    orbit = datum.full.orbit(mu)
    requirements = [(alpha, -min(pairing(alpha, w) for w in orbit))
                    for alpha in nilradical_roots(datum, levi)]
    two_rho = datum.full.two_rho
    star = max((q for _, q in requirements), default=0)
    h_star = star * sum(two_rho[i] for i in off)
    best: Optional[tuple] = None

    def search(nu: list, k: int, h: int) -> None:
        nonlocal best
        if k == len(off):
            if all(pairing(alpha, nu) >= q for alpha, q in requirements):
                if best is None or (h, tuple(nu)) < best:
                    best = (h, tuple(nu))
            return
        i = off[k]
        while h <= h_star:
            search(nu, k + 1, h)
            nu[i] += 1
            h += two_rho[i]
        nu[i] = 0

    search([0] * datum.rank, 0, 0)
    return best[1]
