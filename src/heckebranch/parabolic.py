"""Parabolic comparison of coweights, minimal translation offsets, hull tests.

Fixing a Levi subsystem M inside the full system, a coweight nu dominates a
dominant coweight mu for the parabolic (written ``geq_parabolic``) when nu is
M-central and nu + x stays G-dominant for every point x of the convex hull of
the Weyl orbit of mu that is itself M-dominant.  The pairing form of that
condition, its polytope form, and a facet form are all implemented; the three
are provably equivalent and the equivalence is exercised by the test suite.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError
from .rootdata import (
    Coweight,
    RatVec,
    Root,
    RootDatum,
    SubsystemView,
    is_dominant,
    mat_apply,
    pairing,
    solve_exact,
    vec_add,
)


def nilradical_roots(datum: RootDatum, levi: SubsystemView) -> tuple[Root, ...]:
    """Positive roots of the full system outside the Levi span."""
    inside = set(levi.positive_roots)
    return tuple(r for r in datum.positive_roots if r not in inside)


def is_levi_central(levi: SubsystemView, nu: Sequence) -> bool:
    """True when every Levi simple root pairs to zero with nu."""
    return all(nu[i - 1] == 0 for i in levi.indices)


def geq_parabolic(datum: RootDatum, levi: SubsystemView, nu: Coweight,
                  mu: Coweight) -> bool:
    """nu is M-central and <alpha, nu + w mu> >= 0 for every Weyl element w
    and every positive root alpha outside the Levi."""
    nu, mu = tuple(nu), tuple(mu)
    if not is_dominant(mu):
        raise DomainError(f"{mu} is not dominant")
    if not is_levi_central(levi, nu):
        return False
    orbit = datum.full.orbit(mu)
    for alpha in nilradical_roots(datum, levi):
        lowest = min(pairing(alpha, w) for w in orbit)
        if pairing(alpha, nu) + lowest < 0:
            return False
    return True


def minimal_offset(datum: RootDatum, levi: SubsystemView, mu: Coweight) -> Coweight:
    """The M-central dominant nu with geq_parabolic(nu, mu), minimizing the
    pairing with the half-sum of positive roots (ties broken lexicographically).

    Searched over the box of central coweights bounded by the all-maximal
    requirement point, which is always feasible."""
    mu = tuple(mu)
    if not is_dominant(mu):
        raise DomainError(f"{mu} is not dominant")
    off = [i for i in range(datum.rank) if (i + 1) not in levi.indices]
    orbit = datum.full.orbit(mu)
    requirements = []
    for alpha in nilradical_roots(datum, levi):
        lowest = min(pairing(alpha, w) for w in orbit)
        requirements.append((alpha, -lowest))
    if not off:
        return tuple(0 for _ in range(datum.rank))
    star = max(0, max((q for _, q in requirements), default=0))
    feasible = tuple(star if i in off else 0 for i in range(datum.rank))
    # doubled heights: pairings with the sum of positive roots
    two_rho = datum.full.two_rho
    h_star = pairing(two_rho, feasible)
    box = h_star // min(two_rho[i] for i in off) + 1
    best: Optional[tuple] = None
    for combo in itertools.product(range(box + 1), repeat=len(off)):
        nu = [0] * datum.rank
        for i, v in zip(off, combo):
            nu[i] = v
        nu = tuple(nu)
        h = pairing(two_rho, nu)
        if h > h_star:
            continue
        if all(pairing(alpha, nu) >= q for alpha, q in requirements):
            key = (h, nu)
            if best is None or key < best:
                best = key
    return best[1]


def offset_pair(datum: RootDatum, levi: SubsystemView,
                mu: Coweight) -> tuple[Coweight, Coweight]:
    """The minimal offset and a strictly larger one (every coordinate off the
    Levi bumped by one), both comparing above mu for the parabolic."""
    nu0 = minimal_offset(datum, levi, mu)
    nu1 = tuple(v + (0 if (i + 1) in levi.indices else 1)
                for i, v in enumerate(nu0))
    return nu0, nu1


def hull_vertices(datum: RootDatum, levi: SubsystemView,
                  mu: Coweight) -> tuple[RatVec, ...]:
    """Vertices of the polytope Conv(W mu) intersected with the M-dominant
    cone, computed exactly from the facet description.

    Facets of the orbit polytope are the Weyl translates of the fundamental
    weight functionals bounded by their value at mu; the cone contributes one
    facet per Levi simple root."""
    mu = tuple(mu)
    if not is_dominant(mu):
        raise DomainError(f"{mu} is not dominant")
    n = datum.rank
    constraints: list[tuple[RatVec, Fraction]] = []
    seen_funcs = set()
    for i in range(n):
        bound = sum(datum.fundamental_weights[i][j] * mu[j] for j in range(n))
        frontier = [datum.fundamental_weights[i]]
        orbit = {datum.fundamental_weights[i]}
        while frontier:
            nxt = []
            for f in frontier:
                for r in datum.full.root_elements:
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
