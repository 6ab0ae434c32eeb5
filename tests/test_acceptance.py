"""Acceptance gate: eight criteria, one pass/fail line each, all exact.

Criterion tests print one CRITERION line on success; pytest -v adds the
corresponding PASSED/FAILED line per test.  Everything is integer or
Fraction arithmetic; there are no tolerances anywhere.
"""

import itertools
import random
import time

import pytest

from heckebranch.characters import (
    branch_decompose,
    tensor_decompose,
    weight_table,
)
from heckebranch.harness import (
    CHECK_NAMES,
    SweepConfig,
    dominant_coweights_up_to,
    run_sweep,
)
from heckebranch.hecke import (
    LaurentPoly,
    constant_term,
    hecke_product,
    orbit_size,
    satake_expand,
)
from heckebranch.littelmann import (
    endpoint_weight,
    f_op,
    generate_crystal,
    is_hecke_path,
    path_points,
)
from heckebranch.parabolic import (
    geq_parabolic,
    minimal_offset,
)
from heckebranch.rootdata import (
    levi_view,
    rho_height,
    root_datum,
    vec_add,
    vec_scale,
    weyl_dim,
)
from littelmann_oracle import e_op
from peel_oracle import hull_conditions

ONE = LaurentPoly.one()
Q = LaurentPoly.q_power

CRYSTAL_SWEEP = ("A1", "A2", "A3", "B2", "G2")
CRYSTAL_HEIGHT = 6
IDENTITY_SWEEP = ("A1", "A2", "B2")
IDENTITY_HEIGHT = 4


def all_levi_subsets(rank):
    out = []
    for r in range(rank + 1):
        out.extend(itertools.combinations(range(1, rank + 1), r))
    return out


@pytest.fixture(scope="module")
def identity_reports():
    """One combined sweep shared by criteria 3, 4, 6, and 7: every Levi
    subset of A1, A2, B2 up to the identity height, with both offsets."""
    checks = ("multiplicity_identity", "product_identity", "degrees",
              "nonvanishing", "semigroup", "saturation")
    reports = {}
    start = time.perf_counter()
    for type_str in IDENTITY_SWEEP:
        rank = root_datum(type_str).rank
        for levi in all_levi_subsets(rank):
            cfg = SweepConfig(type_str, levi, IDENTITY_HEIGHT, checks, jobs=4)
            reports[(type_str, levi)] = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    return reports, elapsed


def _verdicts(reports, check):
    out = []
    for (type_str, levi), rep in reports.items():
        for rec in rep["instances"]:
            if check in rec["checks"]:
                out.append(((type_str, levi, tuple(rec["mu"]),
                             tuple(rec["lambda"]), tuple(rec["nu"])),
                            rec["checks"][check]))
    return out


def test_criterion_1_crystal_generation():
    start = time.perf_counter()
    total = 0
    for type_str in CRYSTAL_SWEEP:
        d = root_datum(type_str)
        for mu in dominant_coweights_up_to(d, CRYSTAL_HEIGHT):
            crystal = generate_crystal(d, mu)
            assert len(crystal) == weyl_dim(d.full, mu), (type_str, mu)
            hist = {}
            for p in crystal:
                w = endpoint_weight(p)
                hist[w] = hist.get(w, 0) + 1
            assert hist == weight_table(d.full, mu), (type_str, mu)
            total += len(crystal)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"crystal sweep took {elapsed:.1f}s"
    print(f"\nCRITERION 1 (crystal sizes and endpoint histograms, "
          f"{total} paths): PASS")


def test_criterion_2_path_counts_match_oracles():
    checked = 0
    for type_str in CRYSTAL_SWEEP:
        d = root_datum(type_str)
        torus = levi_view(d, ())
        for mu in dominant_coweights_up_to(d, CRYSTAL_HEIGHT):
            crystal = generate_crystal(d, mu)
            points = {p: path_points(p) for p in crystal}
            for levi_idx in all_levi_subsets(d.rank):
                lv = levi_view(d, levi_idx)
                hist = {}
                for p, pts in points.items():
                    if all(lv.is_dominant(x) for x in pts):
                        w = endpoint_weight(p)
                        hist[w] = hist.get(w, 0) + 1
                assert hist == branch_decompose(d, lv, mu), \
                    (type_str, mu, levi_idx)
                checked += 1
            nu = minimal_offset(d, torus, mu)
            hist = {}
            for p, pts in points.items():
                if all(all(c >= 0 for c in vec_add(nu, x)) for x in pts):
                    w = vec_add(nu, endpoint_weight(p))
                    hist[w] = hist.get(w, 0) + 1
            assert hist == tensor_decompose(d, nu, mu), (type_str, mu, nu)
            checked += 1
    print(f"\nCRITERION 2 (path counts equal independent oracles, "
          f"{checked} tables): PASS")


def test_criterion_3_restriction_equals_tensor(identity_reports):
    reports, elapsed = identity_reports
    verdicts = _verdicts(reports, "multiplicity_identity")
    assert verdicts, "sweep produced no instances"
    bad = [k for k, v in verdicts if v != "PASS"]
    assert not bad, bad[:5]
    # proper Levi subsets carry two distinct offsets per (mu, lambda)
    for (type_str, levi), rep in reports.items():
        rank = root_datum(type_str).rank
        if len(levi) == rank:
            continue
        seen = {}
        for rec in rep["instances"]:
            key = (tuple(rec["mu"]), tuple(rec["lambda"]))
            seen.setdefault(key, set()).add(tuple(rec["nu"]))
        assert all(len(nus) == 2 for nus in seen.values()), (type_str, levi)
    assert elapsed < 300.0, f"identity sweep took {elapsed:.1f}s"
    print(f"\nCRITERION 3 (restriction equals shifted tensor multiplicity, "
          f"{len(verdicts)} instances): PASS")


def test_criterion_4_product_identity(identity_reports):
    reports, _ = identity_reports
    verdicts = _verdicts(reports, "product_identity")
    assert verdicts
    bad = [k for k, v in verdicts if v != "PASS"]
    assert not bad, bad[:5]
    print(f"\nCRITERION 4 (constant term times orbit size equals product "
          f"structure constant, {len(verdicts)} instances): PASS")


def test_criterion_5_rank_one_goldens():
    d = root_datum("A1")
    full = d.full
    torus = levi_view(d, ())
    assert hecke_product(d, (1,), (1,)) == {(2,): ONE, (0,): Q(1) + ONE}
    assert orbit_size(d, full, (0,)) == ONE
    for m in range(1, 5):
        assert orbit_size(d, full, (m,)) == (Q(1) + ONE) * Q(m - 1)
    assert constant_term(d, torus, (1,)) == {
        (1,): LaurentPoly.v_power(1), (-1,): LaurentPoly.v_power(1)}
    assert constant_term(d, torus, (2,)) == {
        (2,): Q(1), (0,): Q(1) - ONE, (-2,): Q(1)}
    assert constant_term(d, torus, (3,)) == {
        (3,): LaurentPoly.v_power(3), (1,): LaurentPoly.v_power(3) - LaurentPoly.v_power(1),
        (-1,): LaurentPoly.v_power(3) - LaurentPoly.v_power(1),
        (-3,): LaurentPoly.v_power(3)}
    print("\nCRITERION 5 (rank-one golden values): PASS")


def test_criterion_6_degree_laws(identity_reports):
    reports, _ = identity_reports
    verdicts = _verdicts(reports, "degrees")
    assert verdicts
    bad = [k for k, v in verdicts if v != "PASS"]
    assert not bad, bad[:5]
    print(f"\nCRITERION 6 (degree bounds, leading coefficients, parity, "
          f"and spot evaluations, {len(verdicts)} instances): PASS")


def test_criterion_7_nonvanishing_and_saturation(identity_reports):
    reports, _ = identity_reports
    verdicts = _verdicts(reports, "nonvanishing")
    assert verdicts
    bad = [k for k, v in verdicts if v == "FAIL"]
    assert not bad, bad[:5]
    total_pairs = 0
    hit_count = 0
    for (type_str, levi), rep in reports.items():
        semi = rep["semigroup"]
        assert semi["verdict"] == "PASS", (type_str, levi)
        assert semi["failures"] == []
        total_pairs += semi["pairs_checked"]
        sat = rep["saturation"]
        assert sat["verdict"] == "PASS", (type_str, levi)
        if type_str.startswith("A"):
            assert sat["hits"] == [], (type_str, levi, sat["hits"])
        hit_count += len(sat["hits"])
    assert total_pairs >= 100
    # the scan is not vacuous: stretch witnesses exist outside type A
    assert hit_count >= 1
    print(f"\nCRITERION 7 (nonvanishing transfer, semigroup on "
          f"{total_pairs} pairs, saturation with {hit_count} witnesses): PASS")


def test_criterion_8_property_suites():
    rng = random.Random(20260816)

    # dominance order for the parabolic: closed under sums and scaling
    for type_str, idx in [("A2", (1,)), ("A2", ()), ("B2", (2,)), ("B2", (1,))]:
        d = root_datum(type_str)
        lv = levi_view(d, idx)
        for _ in range(25):
            mu1 = tuple(rng.randrange(3) for _ in range(d.rank))
            mu2 = tuple(rng.randrange(3) for _ in range(d.rank))
            nu1 = minimal_offset(d, lv, mu1)
            nu2 = minimal_offset(d, lv, mu2)
            assert geq_parabolic(d, lv, vec_add(nu1, nu2), vec_add(mu1, mu2))
            assert geq_parabolic(d, lv, vec_scale(2, nu1), vec_scale(2, mu1))

    # three hull certificates agree
    for type_str, idx in [("A2", (1,)), ("B2", (1,)), ("B2", (2,))]:
        d = root_datum(type_str)
        lv = levi_view(d, idx)
        off = [i for i in range(1, d.rank + 1) if i not in lv.indices]
        for mu in itertools.product(range(3), repeat=d.rank):
            for c in range(4):
                nu = tuple(c if (j + 1) in off else 0 for j in range(d.rank))
                conds = hull_conditions(d, lv, nu, mu)
                assert len(set(conds.values())) == 1, (type_str, idx, mu, nu)

    # lowering and raising operators invert each other on whole crystals
    for type_str, mu in [("A2", (2, 1)), ("B2", (1, 1)), ("G2", (0, 1))]:
        d = root_datum(type_str)
        for p in generate_crystal(d, mu):
            for i in range(1, d.rank + 1):
                q = f_op(d, i, p)
                if q is not None:
                    assert e_op(d, i, q) == p
                q = e_op(d, i, p)
                if q is not None:
                    assert f_op(d, i, q) == p

    # every crystal path satisfies the folded validity condition
    for type_str, mu in [("A2", (1, 1)), ("B2", (1, 1)), ("G2", (0, 1)),
                         ("A3", (1, 0, 1))]:
        d = root_datum(type_str)
        assert all(is_hecke_path(d, p) for p in generate_crystal(d, mu))

    # the convolution product commutes
    for type_str in ("A2", "B2"):
        d = root_datum(type_str)
        pool = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
        for a, b in itertools.combinations(pool, 2):
            assert hecke_product(d, a, b) == hecke_product(d, b, a)

    # constant term composes transitively through any intermediate Levi
    for type_str in ("A2", "B2"):
        d = root_datum(type_str)
        torus = levi_view(d, ())
        for idx in [(1,), (2,)]:
            lv = levi_view(d, idx)
            for mu in dominant_coweights_up_to(d, 3):
                direct = satake_expand(d, d.full, torus, mu)
                composed = {}
                for lam, outer in satake_expand(d, d.full, lv, mu).items():
                    for tau, inner in satake_expand(d, lv, torus, lam).items():
                        cur = composed.get(tau, LaurentPoly.zero()) + outer * inner
                        if cur:
                            composed[tau] = cur
                        else:
                            composed.pop(tau, None)
                assert composed == direct, (type_str, idx, mu)

    print("\nCRITERION 8 (order, hull, operator, validity, commutativity, "
          "and transitivity properties): PASS")
