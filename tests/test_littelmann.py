"""Path crystals: root operators, counting, and folded-path validity."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import littelmann_oracle
from littelmann_oracle import canonical, e_op, straight_path
from heckebranch.characters import (
    branch_multiplicity,
    dominant_weights,
    tensor_decompose,
    tensor_multiplicity,
    weight_table,
)
from heckebranch.errors import DomainError, FeasibilityError
from heckebranch import characters, harness, littelmann
from heckebranch.harness import SweepConfig, enumerate_instances
from heckebranch.littelmann import (
    branch_path_set,
    endpoint_weight,
    f_op,
    generate_crystal,
    is_hecke_path,
    path_points,
    tensor_path_set,
)
from heckebranch.parabolic import offset_pair
from heckebranch.rootdata import (
    dual_star,
    levi_view,
    pairing,
    root_datum,
    vec_add,
    vec_scale,
    weyl_dim,
)


def F(*args):
    return Fraction(*args)


def test_straight_path_and_endpoint():
    d = root_datum("A2")
    p = straight_path(d, (2, 1))
    assert endpoint_weight(p) == (2, 1)
    z = straight_path(d, (0, 0))
    assert endpoint_weight(z) == (0, 0)


def test_f_op_golden_a1():
    d = root_datum("A1")
    p = straight_path(d, (2,))
    q = f_op(d, 1, p)
    assert q == (((F(-2),), F(1, 2)), ((F(2),), F(1, 2)))
    r = f_op(d, 1, q)
    assert r == (((F(-2),), F(1)),)
    assert f_op(d, 1, r) is None
    # lowering then raising is the identity where defined
    assert e_op(d, 1, q) == p
    assert e_op(d, 1, r) == q
    assert e_op(d, 1, p) is None


def test_crystal_sizes():
    for type_str, mu in [("A1", (3,)), ("A2", (1, 1)), ("A2", (2, 1)),
                         ("B2", (1, 0)), ("B2", (1, 1)), ("G2", (0, 1)),
                         ("A3", (1, 0, 1))]:
        d = root_datum(type_str)
        assert len(generate_crystal(d, mu)) == weyl_dim(d.full, mu)


def test_crystal_endpoint_histogram():
    for type_str, mu in [("A2", (1, 1)), ("B2", (1, 1)), ("G2", (1, 0))]:
        d = root_datum(type_str)
        hist = {}
        for p in generate_crystal(d, mu):
            w = endpoint_weight(p)
            hist[w] = hist.get(w, 0) + 1
        assert hist == weight_table(d.full, mu)


_CLOSURE_CASES = [
    ("A2", [(0, 0), (1, 0), (1, 1), (2, 1), (3, 0)]),
    ("B2", [(1, 0), (0, 1), (1, 1), (2, 1)]),
    ("G2", [(1, 0), (0, 1), (1, 1)]),
    ("A3", [(1, 0, 0), (0, 1, 0), (1, 0, 1), (2, 1, 0)]),
    ("B3", [(1, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 1)]),
]


@pytest.mark.parametrize("type_str,mus", _CLOSURE_CASES)
def test_lowering_crystal_matches_closure(type_str, mus):
    d = root_datum(type_str)
    for mu in mus:
        crystal = generate_crystal(d, mu)
        assert crystal == littelmann_oracle.closure_crystal(d, mu), mu
        indexed = littelmann._crystal(d, mu)
        fibers = indexed.fibers
        assert {w: len(f) for w, f in fibers.items()} == weight_table(d.full, mu)
        assert {littelmann._decode(p, indexed.grid)
                for f in fibers.values() for p, *_ in f} == crystal


@pytest.mark.parametrize("type_str,mus", _CLOSURE_CASES)
def test_root_operators_match_fraction_oracle(type_str, mus):
    d = root_datum(type_str)
    for mu in mus:
        for p in littelmann_oracle.closure_crystal(d, mu):
            for i in range(1, d.rank + 1):
                assert f_op(d, i, p) == littelmann_oracle.f_op(d, i, p), (mu, p, i)


# canonical paths outside every crystal: off-lattice break times, slopes
# that do not divide the heights, rational directions
_NON_LS_PATHS = [
    ("A1", [((3,), F(1, 3)), ((-2,), F(2, 5)), ((3,), F(4, 15))]),
    ("A1", [((-3,), F(2, 5)), ((3,), F(3, 5))]),
    ("A1", [((F(3, 2),), F(1))]),
    ("A2", [((2, -1), F(1, 3)), ((-1, 3), F(2, 5)), ((3, 0), F(4, 15))]),
    ("A2", [((F(1, 2), F(3, 2)), F(2, 3)), ((-2, 3), F(1, 3))]),
    ("B2", [((3, -2), F(2, 5)), ((-1, 2), F(1, 3)), ((2, 2), F(4, 15))]),
    ("G2", [((2, -3), F(1, 3)), ((-1, 3), F(2, 5)), ((3, -2), F(4, 15))]),
]


@pytest.mark.parametrize("type_str,segments", _NON_LS_PATHS)
def test_root_operators_match_fraction_oracle_off_the_crystal(type_str,
                                                               segments):
    # each path and every path a string of root operators makes from it
    d = root_datum(type_str)
    start = canonical([(tuple(F(c) for c in dd), t) for dd, t in segments],
                      d.rank)
    seen = {start}
    frontier = [start]
    for _ in range(3):
        nxt = []
        for p in frontier:
            assert path_points(p) == \
                littelmann_oracle.path_times_and_points(p)[1], p
            for i in range(1, d.rank + 1):
                q = f_op(d, i, p)
                assert q == littelmann_oracle.f_op(d, i, p), (p, i)
                for r in (q, e_op(d, i, p)):
                    if r is not None and r not in seen:
                        seen.add(r)
                        nxt.append(r)
        frontier = nxt
    assert len(seen) > 1


_ALL_TYPES = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3",
              "C4", "D4", "F4", "G2")
# bound on <theta, mu>, which fixes the grid lcm(1, ..., <theta, mu>)
_GRID_HEIGHT = {"A4": 2, "A5": 2, "B4": 2, "C4": 2, "D4": 2, "G2": 9}


@pytest.mark.parametrize("type_str", _ALL_TYPES)
def test_crystal_grid_is_exact(type_str):
    # every crystal builds on lcm(1, ..., <theta, mu>) with no off-grid cut
    # and equals the Fraction closure
    d = root_datum(type_str)
    height = _GRID_HEIGHT.get(type_str, 3)
    theta = d.highest_root
    mus = [mu for mu in itertools.product(*(range(height // c + 1)
                                            for c in theta))
           if pairing(theta, mu) <= height and weyl_dim(d.full, mu) <= 2000]
    assert len(mus) > 2
    for mu in mus:
        assert generate_crystal(d, mu) == \
            littelmann_oracle.closure_crystal(d, mu), mu


def test_coarse_grid_trips_the_cut_check():
    # A1 (2,) cuts at time 1/2 and G2 (1, 0) at thirds
    for type_str, mu, grid in (("A1", (2,), 1), ("G2", (1, 0), 2)):
        with pytest.raises(AssertionError):
            littelmann._lowering_closure(root_datum(type_str), mu, grid)


def test_crystal_cap_holds_on_a_warm_cache(monkeypatch):
    d = root_datum("A2")
    assert len(generate_crystal(d, (2, 1))) == 15
    monkeypatch.setattr(characters, "DIMENSION_CAP", 5)
    with pytest.raises(FeasibilityError, match=r"module of dimension 15 at "
                       r"highest weight \(2, 1\) exceeds the cap"):
        generate_crystal(d, (2, 1))


def _levis(d):
    n = d.rank
    return [idx for r in range(n + 1)
            for idx in itertools.combinations(range(1, n + 1), r)]


# every Levi of A2, B2 and G2, and the benchmark's A3 Levi {1} sweep
_PATH_SET_SWEEPS = [(t, idx, h) for t, h in (("A2", 4), ("B2", 5), ("G2", 6))
                    for idx in _levis(root_datum(t))] + [("A3", (1,), 4)]


@pytest.mark.parametrize(
    "type_str,idx,height", _PATH_SET_SWEEPS,
    ids=[f"{t}-levi{''.join(map(str, idx))}-h{h}" for t, idx, h in _PATH_SET_SWEEPS])
def test_path_sets_match_whole_crystal_scan(type_str, idx, height):
    d = root_datum(type_str)
    lv = levi_view(d, idx)
    config = SweepConfig(type_str, idx, height, ("multiplicity_identity",))
    for mu, lam, nu in enumerate_instances(config):
        target = vec_add(nu, lam)
        assert branch_path_set(d, lv, mu, lam) == \
            littelmann_oracle.branch_path_set(d, lv, mu, lam), (mu, lam)
        assert tensor_path_set(d, mu, nu, target) == \
            littelmann_oracle.tensor_path_set(d, mu, nu, target), (mu, nu, lam)


# the tier-1 path-set sweeps at Levi {1}
_LEVI_ONE_SWEEPS = [(t, idx, h) for t, idx, h in _PATH_SET_SWEEPS
                    if idx == (1,)]


@pytest.mark.parametrize(
    "type_str,height", [(t, h) for t, _, h in _LEVI_ONE_SWEEPS],
    ids=[f"{t}-h{h}" for t, _, h in _LEVI_ONE_SWEEPS])
def test_grid_path_sets_decode_to_the_public_ones(type_str, height):
    # the sweep compares positions in the fiber at lambda, which both
    # filters read; the grid paths there, decoded on the crystal's grid, are
    # the Fraction path sets, and their counts are r and n
    d = root_datum(type_str)
    lv = levi_view(d, (1,))
    config = SweepConfig(type_str, (1,), height, ("multiplicity_identity",))
    for mu, lam, nu in enumerate_instances(config):
        target = vec_add(nu, lam)
        crystal = littelmann._crystal(d, mu)
        grid, fiber = crystal.grid, crystal.fibers[lam]
        r_paths = littelmann._branch_paths(crystal, lv, lam)
        n_paths = littelmann._tensor_paths(crystal, nu, target)
        assert {littelmann._decode(fiber[k][0], grid) for k in r_paths} == \
            branch_path_set(d, lv, mu, lam), (mu, lam)
        assert {littelmann._decode(fiber[k][0], grid) for k in n_paths} == \
            tensor_path_set(d, mu, nu, target), (mu, nu, lam)
        assert len(r_paths) == branch_multiplicity(d, lv, mu, lam)
        assert len(n_paths) == tensor_multiplicity(d, nu, mu, target)


@pytest.mark.parametrize(
    "type_str,idx,height", _PATH_SET_SWEEPS,
    ids=[f"{t}-levi{''.join(map(str, idx))}-h{h}" for t, idx, h in _PATH_SET_SWEEPS])
def test_sweep_n_on_the_dual_crystal_is_the_klimyk_coefficient(type_str, idx,
                                                               height):
    # a record's n, counted on the crystal at mu*, against the multiplicity of
    # nu in (nu + lambda) x mu* from Klimyk's formula; at every instance, and
    # one coordinate step below the minimal offset, where (nu + lambda) stays
    # dominant
    d = root_datum(type_str)
    lv = levi_view(d, idx)
    config = SweepConfig(type_str, idx, height, ("multiplicity_identity",))
    compared = below = fewer = 0
    for mu, lam, nu in enumerate_instances(config):
        nus = [nu]
        if nu == offset_pair(d, lv, mu)[0]:
            for j, c in enumerate(nu):
                step = tuple(x - (k == j) for k, x in enumerate(nu))
                if c and d.full.is_dominant(vec_add(step, lam)):
                    nus.append(step)
        below += len(nus) - 1
        records = harness._instance_records(d, lv, mu, lam, nus,
                                            config.checks)
        mustar = dual_star(d, mu)
        fiber = littelmann._crystal(d, mustar).fibers[vec_scale(-1, lam)]
        for nu, rec in zip(nus, records, strict=True):
            n2 = rec["values"]["n"]
            assert n2 == tensor_decompose(d, vec_add(nu, lam), mustar).get(
                nu, 0), (mu, lam, nu)
            compared += 1
            fewer += n2 < len(fiber)
    # G's offset is 0, with nothing below it
    assert compared and (below > 0) == (len(idx) < d.rank)
    # at the torus n is a weight multiplicity, the whole fiber, even below
    # the minimal offset; on every other Levi the translated cone turns some
    # paths away
    assert (fewer > 0) == (len(idx) > 0)


def test_crystal_cap():
    d = root_datum("A1")
    with pytest.raises(FeasibilityError):
        generate_crystal(d, (10 ** 6,))
    with pytest.raises(DomainError):
        generate_crystal(d, (-1,))


@settings(max_examples=30, derandomize=True)
@given(st.sampled_from([("A2", (2, 1)), ("B2", (1, 1)), ("G2", (0, 1))]),
       st.integers(0, 10 ** 6))
def test_e_f_inverse_on_crystal(case, pick):
    type_str, mu = case
    d = root_datum(type_str)
    paths = sorted(generate_crystal(d, mu))
    p = paths[pick % len(paths)]
    for i in range(1, d.rank + 1):
        q = f_op(d, i, p)
        if q is not None:
            assert e_op(d, i, q) == p
        q = e_op(d, i, p)
        if q is not None:
            assert f_op(d, i, q) == p


def test_branch_counts_match_oracle():
    for type_str, idx, mu in [("A2", (1,), (1, 1)), ("A2", (2,), (2, 1)),
                              ("B2", (1,), (1, 1)), ("B2", (2,), (2, 0)),
                              ("G2", (1,), (0, 1)), ("A3", (1, 3), (1, 0, 1))]:
        d = root_datum(type_str)
        lv = levi_view(d, idx)
        for lam in weight_table(d.full, mu):
            if not lv.is_dominant(lam):
                continue
            assert len(branch_path_set(d, lv, mu, lam)) == \
                branch_multiplicity(d, lv, mu, lam), (type_str, idx, mu, lam)


def test_tensor_counts_match_oracle():
    for type_str, mu, nu in [("A2", (1, 1), (1, 1)), ("B2", (1, 1), (2, 2)),
                             ("A1", (3,), (3,))]:
        d = root_datum(type_str)
        for lam in weight_table(d.full, mu):
            target = vec_add(nu, lam)
            if any(c < 0 for c in target):
                continue
            assert len(tensor_path_set(d, mu, nu, target)) == \
                tensor_multiplicity(d, nu, mu, target), (type_str, mu, lam)


def test_tensor_count_spec_example():
    d = root_datum("A2")
    # target = nu + w1 - highest root
    assert len(tensor_path_set(d, (1, 0), (0, 1), (0, 0))) == 1
    a1 = root_datum("A1")
    assert len(tensor_path_set(a1, (1,), (1,), (0,))) == 1
    assert len(tensor_path_set(a1, (1,), (1,), (2,))) == 1
    assert len(tensor_path_set(a1, (1,), (1,), (1,))) == 0


def test_shift_bijection_between_path_sets():
    # the same crystal subset computes restriction and tensor multiplicities
    for type_str, idx, mu in [("A2", (1,), (1, 1)), ("B2", (2,), (1, 1))]:
        d = root_datum(type_str)
        lv = levi_view(d, idx)
        nu0, nu1 = offset_pair(d, lv, mu)
        for lam in weight_table(d.full, mu):
            if not lv.is_dominant(lam):
                continue
            for nu in (nu0, nu1):
                assert branch_path_set(d, lv, mu, lam) == \
                    tensor_path_set(d, mu, nu, vec_add(nu, lam))


def test_tensor_count_independent_of_offset():
    d = root_datum("A2")
    lv = levi_view(d, (1,))
    mu = (2, 1)
    nu0, nu1 = offset_pair(d, lv, mu)
    for lam in weight_table(d.full, mu):
        if not lv.is_dominant(lam):
            continue
        assert len(tensor_path_set(d, mu, nu0, vec_add(nu0, lam))) == \
            len(tensor_path_set(d, mu, nu1, vec_add(nu1, lam)))


def test_tensor_requires_dominant_arguments():
    d = root_datum("A2")
    with pytest.raises(DomainError):
        tensor_path_set(d, (1, 1), (-1, 0), (0, 1))
    with pytest.raises(DomainError):
        tensor_path_set(d, (1, 1), (1, 0), (0, -1))


def test_crystal_paths_are_folded_valid():
    for type_str, mu in [("A1", (3,)), ("A2", (1, 1)), ("A2", (2, 1)),
                         ("B2", (1, 1)), ("G2", (0, 1))]:
        d = root_datum(type_str)
        for p in generate_crystal(d, mu):
            assert is_hecke_path(d, p), (type_str, mu, p)


def test_folded_validity_examples():
    a1 = root_datum("A1")
    # direction change at a non-lattice point is rejected
    t = F(1, 3)
    bad = canonical([((F(-1),), t), ((F(1),), 1 - t)], 1)
    assert not is_hecke_path(a1, bad)
    half = canonical([((F(-1),), F(1, 2)), ((F(1),), F(1, 2))], 1)
    assert not is_hecke_path(a1, half)
    # reflection at an integral wall is accepted
    good = canonical([((F(-2),), F(1, 2)), ((F(2),), F(1, 2))], 1)
    assert is_hecke_path(a1, good)
    # straight paths have no interior breakpoints
    assert is_hecke_path(a1, straight_path(a1, (5,)))


def test_is_hecke_path_normalises_its_input():
    # zero-duration segments, a direction split in two and the empty path
    # get the verdict of their canonical forms
    a1, b2 = root_datum("A1"), root_datum("B2")
    cases = [
        (a1, [((F(-2),), F(1, 2)), ((F(5),), F(0)), ((F(2),), F(1, 2))]),
        (a1, [((F(-1),), F(1, 3)), ((F(1),), F(2, 3)), ((F(3),), F(0))]),
        (a1, [((F(-2),), F(1, 4)), ((F(-2),), F(1, 4)), ((F(2),), F(1, 2))]),
        (a1, [((F(-1),), F(1, 6)), ((F(-1),), F(1, 3)), ((F(1),), F(1, 2))]),
        (b2, [((F(1), F(1)), F(1, 3)), ((F(1), F(1)), F(1, 6)),
              ((F(0), F(0)), F(0)), ((F(-1), F(2)), F(1, 2))]),
        (a1, []),
        (b2, [((F(1), F(0)), F(0))]),
    ]
    verdicts = set()
    for d, segments in cases:
        form = canonical(segments, d.rank)
        assert form != tuple(segments)
        verdict = is_hecke_path(d, segments)
        assert verdict == is_hecke_path(d, form), segments
        verdicts.add(verdict)
    assert verdicts == {True, False}
    with pytest.raises(DomainError):
        is_hecke_path(a1, [((F(1),), F(3, 2)), ((F(-1),), F(-1, 2))])

