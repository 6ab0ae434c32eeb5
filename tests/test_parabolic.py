"""Parabolic dominance order, minimal offsets, and orbit hull certificates."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heckebranch.errors import DomainError
from heckebranch.parabolic import (
    geq_parabolic,
    is_levi_central,
    minimal_offset,
    nilradical_roots,
    offset_pair,
)
from heckebranch.rootdata import (
    levi_view,
    rho_height,
    root_datum,
    vec_add,
    vec_scale,
)
from peel_oracle import hull_conditions, hull_vertices, minimal_offset_by_box


def test_nilradical_roots():
    d = root_datum("A2")
    assert set(nilradical_roots(d, levi_view(d, (1,)))) == {(0, 1), (1, 1)}
    assert set(nilradical_roots(d, levi_view(d, ()))) == set(d.positive_roots)
    assert nilradical_roots(d, d.full) == ()


def test_is_levi_central():
    d = root_datum("A3")
    lv = levi_view(d, (1, 3))
    assert is_levi_central(lv, (0, 5, 0))
    assert not is_levi_central(lv, (1, 0, 0))
    assert is_levi_central(levi_view(d, ()), (1, 2, 3))


def test_geq_parabolic_goldens():
    d = root_datum("A2")
    lv = levi_view(d, (1,))
    theta = (1, 1)
    assert geq_parabolic(d, lv, (0, 2), theta)
    assert not geq_parabolic(d, lv, (0, 1), theta)
    assert geq_parabolic(d, lv, (0, 1), (1, 0))
    # centrality is part of the relation
    assert not geq_parabolic(d, lv, (1, 1), theta)
    with pytest.raises(DomainError):
        geq_parabolic(d, lv, (0, 2), (-1, 0))


def test_geq_parabolic_zero_cases():
    d = root_datum("B2")
    for idx in [(), (1,), (2,), (1, 2)]:
        lv = levi_view(d, idx)
        assert geq_parabolic(d, lv, (0, 0), (0, 0))


def test_minimal_offset_goldens():
    d = root_datum("A2")
    lv = levi_view(d, (1,))
    assert minimal_offset(d, lv, (1, 0)) == (0, 1)
    assert minimal_offset(d, lv, (1, 1)) == (0, 2)
    a1 = root_datum("A1")
    t = levi_view(a1, ())
    for m in range(4):
        assert minimal_offset(a1, t, (m,)) == (m,)
    # full Levi: nothing to dominate
    assert minimal_offset(d, d.full, (3, 2)) == (0, 0)


def test_minimal_offset_is_valid_and_minimal():
    for type_str, idx in [("A2", (1,)), ("A2", ()), ("B2", (2,)), ("B2", (1,)),
                          ("G2", (1,)), ("A3", (1, 3))]:
        d = root_datum(type_str)
        lv = levi_view(d, idx)
        off_s = [i - 1 for i in range(1, d.rank + 1) if i not in lv.indices]
        for mu in itertools.product(range(3), repeat=d.rank):
            if rho_height(d, mu) > 3:
                continue
            nu = minimal_offset(d, lv, mu)
            assert geq_parabolic(d, lv, nu, mu)
            h = rho_height(d, nu)
            # exhaustive search below the found height confirms minimality
            bound = [int(h) + 1 if j in off_s else 0 for j in range(d.rank)]
            for cand in itertools.product(*(range(b + 1) for b in bound)):
                if (rho_height(d, cand), cand) < (h, nu):
                    assert not geq_parabolic(d, lv, cand, mu)


RANK_UP_TO_FIVE = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C2",
                   "C3", "C4", "C5", "D4", "D5", "F4", "G2"]


@pytest.mark.parametrize("type_str", RANK_UP_TO_FIVE)
def test_minimal_offset_matches_the_box_search(type_str):
    # every Levi, at every fundamental coweight and, up to rank 3, at their
    # sum; the search's simplex grows with the requirements, which these
    # keep small
    d = root_datum(type_str)
    mus = [tuple(int(i == j) for i in range(d.rank)) for j in range(d.rank)]
    if d.rank <= 3:
        mus.append((1,) * d.rank)
    for r in range(d.rank + 1):
        for idx in itertools.combinations(range(1, d.rank + 1), r):
            lv = levi_view(d, idx)
            for mu in mus:
                assert minimal_offset(d, lv, mu) \
                    == minimal_offset_by_box(d, lv, mu), (idx, mu)


def test_minimal_offset_matches_the_box_search_on_a6():
    d = root_datum("A6")
    lv = levi_view(d, (1,))
    for mu in [tuple(int(i == j) for i in range(6)) for j in range(6)] \
            + [(1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, 0)]:
        assert minimal_offset(d, lv, mu) == minimal_offset_by_box(d, lv, mu)


def test_offset_pair():
    d = root_datum("A2")
    lv = levi_view(d, (1,))
    nu0, nu1 = offset_pair(d, lv, (1, 1))
    assert nu0 == (0, 2)
    assert nu1 == (0, 3)
    assert geq_parabolic(d, lv, nu1, (1, 1))
    # full Levi collapses the pair
    assert offset_pair(d, d.full, (1, 1)) == ((0, 0), (0, 0))


@settings(max_examples=40, derandomize=True)
@given(st.sampled_from([("A2", (1,)), ("B2", (2,)), ("A2", ())]),
       st.tuples(st.integers(0, 2), st.integers(0, 2)),
       st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_geq_parabolic_semigroup_and_homogeneity(case, mu1, mu2):
    type_str, idx = case
    d = root_datum(type_str)
    lv = levi_view(d, idx)
    nu1 = minimal_offset(d, lv, mu1)
    nu2 = minimal_offset(d, lv, mu2)
    assert geq_parabolic(d, lv, vec_add(nu1, nu2), vec_add(mu1, mu2))
    for k in (2, 3):
        assert geq_parabolic(d, lv, vec_scale(k, nu1), vec_scale(k, mu1))


def test_hull_vertices_golden():
    d = root_datum("A2")
    lv = levi_view(d, (1,))
    verts = hull_vertices(d, lv, (1, 1))
    expected = {(Fraction(1), Fraction(1)), (Fraction(2), Fraction(-1)),
                (Fraction(1), Fraction(-2)), (Fraction(0), Fraction(3, 2)),
                (Fraction(0), Fraction(-3, 2))}
    assert set(verts) == expected


def test_hull_vertices_torus_levi():
    d = root_datum("A2")
    # no cone constraints: plain orbit hull has the orbit among its vertices
    verts = set(hull_vertices(d, levi_view(d, ()), (1, 0)))
    orbit = {tuple(Fraction(c) for c in x) for x in d.full.orbit((1, 0))}
    assert orbit <= verts


def test_hull_vertices_full_levi_is_dominant_slice():
    d = root_datum("A2")
    verts = set(hull_vertices(d, d.full, (1, 1)))
    assert verts == {(Fraction(1), Fraction(1)), (Fraction(0), Fraction(3, 2)),
                     (Fraction(3, 2), Fraction(0)), (Fraction(0), Fraction(0))}


def test_hull_conditions_agree():
    # the pairing criterion, the shifted-vertex test, and the vertex pairing
    # bound answer identically
    for type_str, idx in [("A2", (1,)), ("A2", (2,)), ("B2", (1,)),
                          ("B2", (2,)), ("A2", ())]:
        d = root_datum(type_str)
        lv = levi_view(d, idx)
        off_s = [i for i in range(1, d.rank + 1) if i not in lv.indices]
        for mu in itertools.product(range(3), repeat=d.rank):
            if rho_height(d, mu) > Fraction(5, 2):
                continue
            for nu_off in itertools.product(range(4), repeat=len(off_s)):
                nu = [0] * d.rank
                for i, c in zip(off_s, nu_off):
                    nu[i - 1] = c
                conds = hull_conditions(d, lv, tuple(nu), mu)
                vals = set(conds.values())
                assert len(conds) == 3
                assert len(vals) == 1, (type_str, idx, mu, nu, conds)


def test_hull_conditions_match_geq():
    d = root_datum("B2")
    lv = levi_view(d, (1,))
    for mu in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]:
        for c in range(5):
            nu = (0, c)
            conds = hull_conditions(d, lv, nu, mu)
            assert conds["pairing_criterion"] == geq_parabolic(d, lv, nu, mu)


def test_hull_conditions_requires_central():
    d = root_datum("A2")
    lv = levi_view(d, (1,))
    with pytest.raises(DomainError):
        hull_conditions(d, lv, (1, 1), (1, 1))
