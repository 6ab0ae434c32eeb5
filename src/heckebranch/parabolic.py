"""Parabolic comparison of coweights and minimal translation offsets.

Fixing a Levi subsystem M inside the full system, a coweight nu dominates a
dominant coweight mu for the parabolic (written ``geq_parabolic``) when nu is
M-central and nu + x stays G-dominant for every point x of the convex hull of
the Weyl orbit of mu that is itself M-dominant.  It is evaluated in its
pairing form: the minimum over the orbit of each root outside the Levi.  The
polytope and facet forms, computed from the exact hull vertices, are
reference routes in ``tests/peel_oracle.py``, and the tests check that all
three agree.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .errors import DomainError
from .rootdata import (
    Coweight,
    Root,
    RootDatum,
    SubsystemView,
    is_dominant,
    pairing,
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

