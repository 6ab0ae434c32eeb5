"""Parabolic comparison of coweights and minimal translation offsets.

Fixing a Levi subsystem M inside the full system, a coweight nu dominates a
dominant coweight mu for the parabolic (written ``geq_parabolic``) when nu is
M-central and nu + x stays G-dominant for every point x of the convex hull of
the Weyl orbit of mu that is itself M-dominant.  It is evaluated in its
pairing form: <alpha, nu> must reach the requirement
q_alpha = -min_w <alpha, w mu> of every root alpha outside the Levi.  No
orbit is walked for it: the orbit of alpha holds -alpha and one dominant
root theta, the highest root of alpha's length, and every root of the orbit
lies below theta, so q_alpha = <theta, mu>.  The Weyl group carries coroots
as it carries roots, so theta is the root whose coroot
``SubsystemView.dominate`` reaches from alpha's coroot, and that is the one
upward Weyl walk here.  The list of pairs (alpha, theta) depends only on the
datum and the Levi, so it is built once for each and cached; each mu then
costs pairings only.  The polytope and facet forms, computed from the
exact hull vertices, and the box search for the minimal offset are
reference routes in ``tests/peel_oracle.py``, and the tests check that they
agree.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

from .errors import DomainError
from .rootdata import (
    Coweight,
    Root,
    RootDatum,
    SubsystemView,
    pairing,
)


def nilradical_roots(datum: RootDatum, levi: SubsystemView) -> tuple[Root, ...]:
    """Positive roots of the full system outside the Levi span."""
    inside = set(levi.positive_roots)
    return tuple(r for r in datum.positive_roots if r not in inside)


def is_levi_central(levi: SubsystemView, nu: Sequence) -> bool:
    """True when every Levi simple root pairs to zero with nu."""
    return all(nu[i - 1] == 0 for i in levi.indices)


@cache
def _offset_roots(datum: RootDatum, levi: SubsystemView) -> tuple:
    """(alpha, theta) for every root alpha outside the Levi, theta the
    dominant root of alpha's orbit: its coroot is the dominant point of the
    orbit of alpha's coroot.  Built once per datum and Levi; read-only."""
    coroot = dict(zip(datum.positive_roots, datum.positive_coroots))
    root = {cv: r for r, cv in coroot.items()}
    return tuple((alpha, root[datum.full.dominate(coroot[alpha])])
                 for alpha in nilradical_roots(datum, levi))


def _requirements(datum: RootDatum, levi: SubsystemView,
                  mu: Coweight) -> list:
    """(alpha, q_alpha) for every root alpha outside the Levi, where
    q_alpha = -min_w <alpha, w mu> = <theta, mu>."""
    return [(alpha, pairing(theta, mu))
            for alpha, theta in _offset_roots(datum, levi)]


def geq_parabolic(datum: RootDatum, levi: SubsystemView, nu: Coweight,
                  mu: Coweight) -> bool:
    """nu is M-central and <alpha, nu + w mu> >= 0 for every Weyl element w
    and every positive root alpha outside the Levi."""
    nu, mu = tuple(nu), tuple(mu)
    if not datum.full.is_dominant(mu):
        raise DomainError(f"{mu} is not dominant")
    if not is_levi_central(levi, nu):
        return False
    return all(pairing(alpha, nu) >= q
               for alpha, q in _requirements(datum, levi, mu))


def minimal_offset(datum: RootDatum, levi: SubsystemView, mu: Coweight) -> Coweight:
    """The M-central dominant nu with geq_parabolic(nu, mu), minimizing the
    pairing with the half-sum of positive roots (ties broken lexicographically).

    In closed form: a root alpha outside the Levi whose support off the
    Levi is the single simple root j needs alpha_j nu_j >= q_alpha, so nu_j
    is at least the largest ceil(q_alpha / alpha_j) over such roots.  That
    bound is taken at every j and then checked against every requirement.
    When it meets them all, as it has on every case tested, it is the least
    feasible nu in every coordinate, so the unique minimizer; a miss raises
    ``AssertionError``."""
    mu = tuple(mu)
    if not datum.full.is_dominant(mu):
        raise DomainError(f"{mu} is not dominant")
    requirements = _requirements(datum, levi, mu)
    nu = [0] * datum.rank
    for alpha, q in requirements:
        off = [j for j, a in enumerate(alpha)
               if a and j + 1 not in levi.indices]
        if len(off) == 1:
            j = off[0]
            nu[j] = max(nu[j], -(-q // alpha[j]))
    nu = tuple(nu)
    if any(pairing(alpha, nu) < q for alpha, q in requirements):
        raise AssertionError(f"the offset {nu} misses a requirement of {mu}")
    return nu


def offset_pair(datum: RootDatum, levi: SubsystemView,
                mu: Coweight) -> tuple[Coweight, Coweight]:
    """The minimal offset and a larger one (every coordinate off the Levi
    bumped by one), both comparing above mu for the parabolic.  The two are
    equal exactly when the Levi is the whole system, so a proper Levi gives
    every mu two distinct offsets and the whole system gives it one."""
    nu0 = minimal_offset(datum, levi, mu)
    nu1 = tuple(v + (0 if (i + 1) in levi.indices else 1)
                for i, v in enumerate(nu0))
    return nu0, nu1

