"""Sweep enumeration, report structure, determinism, and worker independence."""

import ast
import functools
import hashlib
import importlib.util
import json
import operator
import os
import random
import sys
import time
from pathlib import Path

import pytest

import harness_oracle
import hecke_oracle
import weyl_oracle
from heckebranch import characters, harness, hecke, littelmann, rootdata
from heckebranch.errors import ConfigurationError, FeasibilityError
from heckebranch.harness import (
    CHECK_NAMES,
    SweepConfig,
    dominant_coweights_up_to,
    enumerate_instances,
    run_sweep,
)
from heckebranch.rootdata import dual_star, levi_view, root_datum, vec_add

ALL = CHECK_NAMES
IDENTITY_CHECKS = ("multiplicity_identity", "product_identity")


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items()
                if not k.endswith("_ms")}
    if isinstance(obj, list):
        return [strip_timing(x) for x in obj]
    return obj


def test_dominant_enumeration():
    d = root_datum("A1")
    assert dominant_coweights_up_to(d, 1) == [(0,), (1,), (2,)]
    assert dominant_coweights_up_to(d, 0) == [(0,)]
    a2 = root_datum("A2")
    assert dominant_coweights_up_to(a2, 1) == [(0, 0), (0, 1), (1, 0)]
    g2 = root_datum("G2")
    assert dominant_coweights_up_to(g2, 4) == [(0, 0), (0, 1)]


def test_enumerate_instances_rank_one():
    cfg = SweepConfig("A1", (), 1, IDENTITY_CHECKS)
    inst = enumerate_instances(cfg)
    assert inst == [
        ((0,), (0,), (0,)), ((0,), (0,), (1,)),
        ((1,), (-1,), (1,)), ((1,), (-1,), (2,)),
        ((1,), (1,), (1,)), ((1,), (1,), (2,)),
        ((2,), (-2,), (2,)), ((2,), (-2,), (3,)),
        ((2,), (0,), (2,)), ((2,), (0,), (3,)),
        ((2,), (2,), (2,)), ((2,), (2,), (3,)),
    ]


def test_enumerate_instances_full_levi_degenerate():
    cfg = SweepConfig("A1", (1,), 0, IDENTITY_CHECKS)
    assert enumerate_instances(cfg) == [((0,), (0,), (0,))]


def test_enumerate_instances_frozen_count():
    cfg = SweepConfig("A2", (1,), 2, IDENTITY_CHECKS)
    assert len(enumerate_instances(cfg)) == 34


def test_empty_checks_yield_empty_sweep():
    cfg = SweepConfig("A2", (1,), 3, ())
    assert enumerate_instances(cfg) == []
    report = run_sweep(cfg)
    assert report["instance_count"] == 0
    assert report["instances"] == [] and report["per_mu"] == []
    assert report["summary"]["fail"] == 0


SCANS = ("semigroup", "saturation")


@pytest.mark.parametrize("config", [
    *(SweepConfig(t, levi, 3, SCANS) for t in ("A2", "B2", "G2")
      for levi in ((), (1,), (2,), (1, 2))),
    SweepConfig("A3", (1,), 2, SCANS),
    SweepConfig("A3", (1, 2, 3), 2, SCANS),
], ids=lambda c: f"{c.cartan_type}-levi{''.join(map(str, c.levi))}")
def test_scan_only_sweep_counts_and_scans_as_with_instances(config):
    # a sweep without instance checks builds no offsets, but counts the
    # triples the enumeration lists and scans the same pairs
    report = run_sweep(config)
    assert report["instances"] == []
    assert report["instance_count"] == len(enumerate_instances(config))
    with_instances = run_sweep(config._replace(
        checks=config.checks + ("multiplicity_identity",)))
    assert with_instances["instance_count"] == report["instance_count"]
    for name in SCANS:
        assert report[name] == with_instances[name]


def test_config_validation():
    with pytest.raises(ConfigurationError):
        run_sweep(SweepConfig("A2", (1,), -1, IDENTITY_CHECKS))
    with pytest.raises(ConfigurationError):
        run_sweep(SweepConfig("A2", (1,), 1, ("bogus",)))
    with pytest.raises(ConfigurationError):
        run_sweep(SweepConfig("A2", (1,), 1, IDENTITY_CHECKS, jobs=0))
    with pytest.raises(ConfigurationError):
        run_sweep(SweepConfig("E8", (1,), 1, IDENTITY_CHECKS))


@pytest.mark.parametrize("config", [
    SweepConfig("A2", (1, 1), 1, ("multiplicity_identity",)),
    SweepConfig("A3", (3, 1, 3), 1, ("multiplicity_identity",)),
    SweepConfig("A2", (1,), 1, ("semigroup",), semigroup_samples=0),
    SweepConfig("A2", (1,), 1, ("semigroup",), semigroup_samples=-5),
], ids=["levi-11", "levi-313", "samples-0", "samples-neg"])
def test_config_validation_rejects_repeats_and_empty_samples(config):
    # a repeated Levi index would be reported as given while the sweep runs
    # the subset, and no sample would check 0 pairs and pass
    with pytest.raises(ConfigurationError):
        run_sweep(config)
    with pytest.raises(ConfigurationError):
        enumerate_instances(config)


def test_sweep_config_surface():
    positional = SweepConfig("A2", (1,), 2, ("crystal",), 2, 7, 9)
    keyword = SweepConfig(cartan_type="A2", levi=(1,), max_height=2,
                          checks=("crystal",), jobs=2, seed=7,
                          semigroup_samples=9)
    assert positional == keyword and hash(positional) == hash(keyword)
    assert positional != SweepConfig("A2", (1,), 2, ("crystal",))
    defaults = SweepConfig("A2", (1,), 2, ("crystal",))
    assert (defaults.jobs, defaults.seed, defaults.semigroup_samples) == (
        1, 20260816, 120)
    assert repr(defaults).startswith("SweepConfig(cartan_type='A2', levi=(1,)")
    for name in ("cartan_type", "levi", "max_height", "checks", "jobs", "seed",
                 "semigroup_samples"):
        with pytest.raises(AttributeError):
            setattr(defaults, name, getattr(defaults, name))
        with pytest.raises(AttributeError):
            delattr(defaults, name)
    defaults.validate()


def test_report_shape_and_all_green():
    cfg = SweepConfig("A1", (), 2, ALL, semigroup_samples=30)
    report = run_sweep(cfg)
    assert report["schema"] == 1
    assert set(report) == {"schema", "config", "instance_count", "per_mu",
                           "instances", "semigroup", "saturation", "summary",
                           "total_time_ms"}
    assert report["summary"]["fail"] == 0
    assert report["summary"]["counterexamples"] == []
    assert report["instance_count"] == len(report["instances"])
    for rec in report["instances"]:
        assert set(rec["checks"]) <= {"multiplicity_identity",
                                      "product_identity", "degrees",
                                      "nonvanishing"}
        assert rec["values"]["r"] is not None
        assert isinstance(rec["time_ms"], float)
    for rec in report["per_mu"]:
        assert set(rec["checks"]) <= {"crystal", "hecke_paths",
                                      "ct_transitivity"}
    assert report["semigroup"]["verdict"] == "PASS"
    assert report["semigroup"]["pairs_checked"] == 30
    assert report["saturation"]["verdict"] == "PASS"
    # type A saturation never produces stretch witnesses for zero pairs
    assert report["saturation"]["hits"] == []
    json.dumps(report)


def test_report_deterministic_and_jobs_independent():
    cfg1 = SweepConfig("A2", (2,), 2, ALL, semigroup_samples=25)
    cfg2 = SweepConfig("A2", (2,), 2, ALL, semigroup_samples=25, jobs=2)
    r1 = run_sweep(cfg1)
    r2 = run_sweep(cfg1)
    r3 = run_sweep(cfg2)
    s1 = json.dumps(strip_timing(r1), sort_keys=True)
    assert s1 == json.dumps(strip_timing(r2), sort_keys=True)
    assert s1 == json.dumps(strip_timing(r3), sort_keys=True)


def test_seed_changes_semigroup_draws():
    base = SweepConfig("A2", (1,), 2, ("semigroup",), semigroup_samples=15)
    other = SweepConfig("A2", (1,), 2, ("semigroup",), semigroup_samples=15,
                        seed=7)
    r1 = run_sweep(base)
    r2 = run_sweep(base)
    r3 = run_sweep(other)
    assert r1["semigroup"] == r2["semigroup"]
    assert r3["semigroup"]["verdict"] == "PASS"
    assert r1["config"]["seed"] != r3["config"]["seed"]


def _counting_decompositions(monkeypatch, fake=None):
    # records the mu of each branch_decompose call that the library's scan
    # and the oracle's make, and the library's calls over the cap; a fake,
    # when given, replaces the decomposition in both
    calls = {"library": [], "oracle": [], "over_cap": []}
    inner = fake or characters.branch_decompose

    def counting(who):
        def counted(datum, levi, mu):
            calls[who].append(mu)
            try:
                return inner(datum, levi, mu)
            except FeasibilityError:
                if who == "library":
                    calls["over_cap"].append(mu)
                raise
        return counted

    monkeypatch.setattr(harness, "branch_decompose", counting("library"))
    monkeypatch.setattr(harness_oracle, "branch_decompose", counting("oracle"))
    return calls


def _semigroup_sections(monkeypatch, config):
    # the section of the library's scan and of the oracle's, each from cold
    # caches
    out = []
    for scan in (harness._semigroup_section, harness_oracle.semigroup_section):
        _fresh_caches()
        monkeypatch.setattr(harness, "_semigroup_section", scan)
        out.append(run_sweep(config)["semigroup"])
    return out


def _sum_decompositions(calls, want):
    # the library's decompositions of drawn mu sums, and the distinct sums
    # drawn: the oracle decomposes each swept mu once to build the pool,
    # then the sum of every draw, and the library builds the same pool first
    draws = want["pairs_checked"] + want["pairs_skipped"]
    swept = calls["oracle"][:len(calls["oracle"]) - draws]
    drawn = set(calls["oracle"][len(swept):])
    assert calls["library"][:len(swept)] == swept
    return calls["library"][len(swept):], drawn


@pytest.mark.parametrize("seed", [1, 7, 20260816])
def test_semigroup_scan_counts_every_draw(monkeypatch, seed):
    # A3 Levi {1} h2 pools 11 entries, so 600 samples draw each pair of
    # them, and each of their 10 sums, many times
    calls = _counting_decompositions(monkeypatch)
    got, want = _semigroup_sections(monkeypatch, SweepConfig(
        "A3", (1,), 2, ("semigroup",), seed=seed, semigroup_samples=600))
    assert got == want
    assert got["pool_size"] == 11 and got["pairs_checked"] == 600
    sums, drawn = _sum_decompositions(calls, want)
    # each drawn sum is decomposed once
    assert sorted(sums) == sorted(drawn) and len(drawn) <= 10


@pytest.mark.parametrize("seed", [1, 7, 20260816])
def test_semigroup_scan_counts_every_draw_over_the_cap(monkeypatch, seed):
    # B2 Levi {1} h3 at cap 10: every swept module fits, but many sums do
    # not, and a pair over the cap drawn again is skipped again, while its
    # sum is tried once
    monkeypatch.setattr(characters, "DIMENSION_CAP", 10)
    calls = _counting_decompositions(monkeypatch)
    got, want = _semigroup_sections(monkeypatch, SweepConfig(
        "B2", (1,), 3, ("semigroup",), seed=seed))
    assert got == want
    assert got["pairs_checked"] == 120
    sums, drawn = _sum_decompositions(calls, want)
    assert sorted(sums) == sorted(drawn)
    assert len(calls["over_cap"]) == len(set(calls["over_cap"]))
    assert got["pairs_skipped"] > len(calls["over_cap"]) > 0


def test_semigroup_scan_records_every_failing_draw(monkeypatch):
    # a fake decomposition whose multiplicity vanishes on half of the sums
    # and that is over the cap on a third of the mu outside the sweep:
    # failures are listed per draw, in draw order
    swept = set(dominant_coweights_up_to(root_datum("A2"), 2))

    def fake(datum, levi, mu):
        if mu[1] % 3 == 2 and mu not in swept:
            raise FeasibilityError("fake cap", 0)
        return {lam: (mu[0] + lam[1]) % 2
                for lam in characters.branch_decompose(datum, levi, mu)}

    calls = _counting_decompositions(monkeypatch, fake)
    got, want = _semigroup_sections(monkeypatch, SweepConfig(
        "A2", (1,), 2, ("semigroup",), semigroup_samples=200))
    assert got == want
    assert got["verdict"] == "FAIL"
    assert len(got["failures"]) > len({json.dumps(f, sort_keys=True)
                                       for f in got["failures"]})
    assert got["pairs_skipped"] > len(calls["over_cap"]) > 0


@pytest.mark.parametrize("seed", [0, 1, 7, 20260816])
def test_semigroup_draws_match_randrange(monkeypatch, seed):
    # a pool of n entries, every one of whose sums fails, so the failures
    # list the scan's index pairs; they must be randrange(n)'s draws, for
    # n from 1 up, powers of two and their neighbours among them
    samples = 40
    for n in range(1, 301):
        pool = dict.fromkeys([(i,) for i in range(n)], 0)
        monkeypatch.setattr(harness, "branch_decompose",
                            lambda datum, levi, mu: pool)
        section = harness._semigroup_section(None, None, [(0,)], seed,
                                             samples)
        got = [(f["lambda1"][0], f["lambda2"][0])
               for f in section["failures"]]
        rng = random.Random(seed)
        want = [(rng.randrange(n), rng.randrange(n)) for _ in range(samples)]
        assert got == want, n


def test_skips_are_recorded_not_dropped(monkeypatch):
    # a tiny cap forces the crystal check to skip while oracles still run
    cfg = SweepConfig("B2", (1,), 3, ("crystal", "multiplicity_identity"))
    _fresh_caches()
    monkeypatch.setattr(characters, "DIMENSION_CAP", 4)
    report = run_sweep(cfg)
    assert report["summary"]["skipped"] > 0
    assert report["summary"]["fail"] == 0
    skipped_mu = [rec for rec in report["per_mu"]
                  if rec["checks"]["crystal"] == "SKIPPED"]
    assert skipped_mu and all(rec["notes"] for rec in skipped_mu)


def _fresh_caches():
    # caps are checked on cache misses only, so start from empty caches
    for module in (characters, hecke, littelmann):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


PER_MU_AND_INSTANCE = ("crystal", "hecke_paths", "ct_transitivity",
                       "multiplicity_identity", "product_identity", "degrees",
                       "nonvanishing")


def test_dimension_cap_hit_skips_checks(monkeypatch):
    # (1, 2) and (2, 1) have dimension 15, over a cap of 10; everything
    # below it still runs
    _fresh_caches()
    monkeypatch.setattr(characters, "DIMENSION_CAP", 10)
    report = run_sweep(SweepConfig("A2", (1,), 3, PER_MU_AND_INSTANCE))
    over = ([1, 2], [2, 1])
    records = report["per_mu"] + report["instances"]
    for rec in records:
        if rec["mu"] in over:
            skipped = {n for n, v in rec["checks"].items() if v == "SKIPPED"}
            assert skipped == set(rec["checks"])
            assert sorted(note.split(":")[0] for note in rec["notes"]) \
                == sorted(skipped)
        else:
            assert set(rec["checks"].values()) == {"PASS"}
            assert rec["notes"] == []
    assert {tuple(rec["mu"]) for rec in report["instances"]} >= {(1, 2), (2, 1)}
    assert report["summary"]["fail"] == 0
    assert report["summary"]["skipped"] == sum(
        v == "SKIPPED" for rec in records for v in rec["checks"].values()) > 0
    # asked for alone, a check's note names that check
    alone = run_sweep(SweepConfig("A2", (1,), 3, ("hecke_paths",)))
    assert [rec["notes"] for rec in alone["per_mu"] if rec["mu"] in over] == [
        [f"hecke_paths: module of dimension 15 at highest weight {tuple(mu)} "
         "exceeds the cap"] for mu in over]


def test_a_dimension_cap_hit_skips_n_through_r(monkeypatch):
    # every check that reads n reads r, and the crystal at mu* that n is
    # counted on has the dimension of r's table at mu: over the cap, r skips
    # n's readers, one note each, and no crystal at mu* is asked for
    _fresh_caches()
    monkeypatch.setattr(characters, "DIMENSION_CAP", 10)
    asked = []
    crystal = littelmann._crystal

    def recorded(datum, mu):
        asked.append(mu)
        return crystal(datum, mu)

    monkeypatch.setattr(littelmann, "_crystal", recorded)
    checks = ("multiplicity_identity", "degrees")
    report = run_sweep(SweepConfig("A2", (1,), 3, checks))
    over = {(1, 2), (2, 1)}
    for rec in report["instances"]:
        mu = tuple(rec["mu"])
        if mu in over:
            assert rec["checks"] == dict.fromkeys(checks, "SKIPPED")
            assert rec["notes"] == [
                f"{c}: module of dimension 15 at highest weight {mu} exceeds "
                "the cap" for c in checks]
            assert rec["values"]["n"] is None
        else:
            assert rec["checks"] == dict.fromkeys(checks, "PASS")
            assert rec["notes"] == []
    mus = {tuple(rec["mu"]) for rec in report["instances"]}
    assert mus >= over
    # 2 offsets a lambda, 1 fetch a (mu, lambda) for both
    assert len(asked) == sum(tuple(rec["mu"]) not in over
                             for rec in report["instances"]) // 2
    d = root_datum("A2")
    assert set(asked) == {rootdata.dual_star(d, mu) for mu in mus - over}


def test_nonvanishing_reads_the_dimension_cap_at_call_time(monkeypatch):
    # at cap 10 the scaled modules at (0, 2) and (4, 0), of dimensions 14
    # and 35, are over it: the branching at them stops where their weight
    # tables would be built
    _fresh_caches()
    monkeypatch.setattr(characters, "DIMENSION_CAP", 10)
    report = run_sweep(SweepConfig("B2", (1,), 3, ("nonvanishing",)))
    notes = [note for rec in report["instances"] for note in rec["notes"]]
    assert len(notes) == 16
    assert set(notes) == {f"nonvanishing: module of dimension {dim} at "
                          f"highest weight {kmu} exceeds the cap"
                          for kmu, dim in (((0, 2), 14), ((4, 0), 35))}
    assert (report["summary"]["skipped"], report["summary"]["fail"]) == (16, 0)


def test_partition_cap_hit_skips_checks(monkeypatch):
    _fresh_caches()
    d = root_datum("A2")
    # (1, 1) - (0, 0) is one simple coroot of each kind: a box of 4 points
    cached = hecke_oracle.kostka_foulkes(d, d.full, (1, 1), (0, 0))
    monkeypatch.setattr(hecke, "PARTITION_CAP", 3)
    # checked once per cache miss: a cached polynomial is still handed out
    assert hecke_oracle.kostka_foulkes(d, d.full, (1, 1), (0, 0)) == cached
    with pytest.raises(FeasibilityError):
        hecke_oracle.kostka_foulkes(d, d.full, (2, 2), (1, 1))
    monkeypatch.setattr(hecke, "PARTITION_CAP", 1)
    report = run_sweep(SweepConfig("A2", (1,), 2, ("product_identity",
                                                   "ct_transitivity")))
    verdicts = {(name, v) for rec in report["per_mu"] + report["instances"]
                for name, v in rec["checks"].items()}
    assert verdicts == {(name, v) for name in ("product_identity",
                                               "ct_transitivity")
                        for v in ("PASS", "SKIPPED")}
    assert all(rec["notes"] for rec in report["per_mu"] + report["instances"]
               if "SKIPPED" in rec["checks"].values())


def test_partition_cap_hit_skips_the_saturation_constant_term(monkeypatch):
    # B2 Levi {1} h3 has one saturation hit, (0, 1) at lambda 0, and its
    # constant term at k mu = (0, 2) needs more than two partition-table
    # points: the hit records c_at_k as SKIPPED and the scan goes on
    config = SweepConfig("B2", (1,), 3, ("saturation",))
    _fresh_caches()
    full = run_sweep(config)["saturation"]
    _fresh_caches()
    monkeypatch.setattr(hecke, "PARTITION_CAP", 2)
    capped = run_sweep(config)["saturation"]
    assert [h["c_at_k"] for h in full["hits"]] == [True]
    assert full["skipped"] == []
    assert capped["hits"] == [dict(full["hits"][0], c_at_k="SKIPPED")]
    assert capped["skipped"] == [{"mu": [0, 1], "lambda": [0, 0], "n": 2,
                                  "reason": "k-scaled constant term over "
                                            "the cap"}]
    assert capped["verdict"] == full["verdict"] == "PASS"


def test_numerator_cap_hit_skips_checks_and_caches_nothing(monkeypatch):
    # a regular A3 weight's numerator has up to 2^6 terms, while (0, 0, 1)
    # needs 2^3: a cap of 10 stops the first and lets the second through
    _fresh_caches()
    d = root_datum("A3")
    cap = hecke.NUMERATOR_CAP
    monkeypatch.setattr(hecke, "NUMERATOR_CAP", 10)
    with pytest.raises(FeasibilityError) as hit:
        hecke_oracle.hl_characters(d.full, (1, 1, 1))
    assert hit.value.cap == 10 and "10 terms" in str(hit.value)
    report = run_sweep(SweepConfig("A3", (1,), 2, ("product_identity",)))
    verdicts = [rec["checks"]["product_identity"]
                for rec in report["instances"]]
    assert set(verdicts) == {"PASS", "SKIPPED"}
    assert all(rec["notes"] == [] if v == "PASS" else
               len(rec["notes"]) == 1 and "10 terms" in rec["notes"][0]
               for rec, v in zip(report["instances"], verdicts))
    monkeypatch.setattr(hecke, "NUMERATOR_CAP", cap)
    got = hecke_oracle.hl_characters(d.full, (1, 1, 1))
    want = hecke_oracle.divided_hall_littlewood_characters(d.full, (1, 1, 1))
    assert list(got.items()) == list(want.items())
    again = run_sweep(SweepConfig("A3", (1,), 2, ("product_identity",)))
    assert {rec["checks"]["product_identity"]
            for rec in again["instances"]} == {"PASS"}


# the harness seam each value is computed by, and the checks that read that
# value; a per-mu record reads the crystal whole, an instance record filters
# its fiber at lambda.  n is counted on the fiber at -lambda of the crystal
# at mu*, which ``_fiber`` fetches apart from the ``_crystal`` seam
VALUE_READERS = {
    "r": (("_restrict",),
          {"multiplicity_identity", "nonvanishing", "degrees"}),
    "c": (("_ct_coefficient",),
          {"product_identity", "nonvanishing", "degrees"}),
    "m": (("_structure_constant",), {"product_identity", "degrees"}),
    "n": (("_fiber",), {"multiplicity_identity", "degrees"}),
    "crystal": (("_crystal",),
                {"crystal", "hecke_paths", "multiplicity_identity"}),
    "ct": (("satake_expand",), {"ct_transitivity"}),
}


@pytest.mark.parametrize("value", sorted(VALUE_READERS))
def test_a_cap_hit_skips_exactly_the_checks_that_read_its_value(monkeypatch,
                                                                value):
    names, readers = VALUE_READERS[value]

    def capped(*args):
        raise FeasibilityError(f"{value} over a test cap", 1)

    for name in names:
        monkeypatch.setattr(harness, name, capped)
    report = run_sweep(SweepConfig("A2", (1,), 2, PER_MU_AND_INSTANCE))
    per_mu = {"crystal", "hecke_paths", "ct_transitivity"}
    for kind, records in ((per_mu, report["per_mu"]),
                          (set(PER_MU_AND_INSTANCE) - per_mu,
                           report["instances"])):
        assert records
        for rec in records:
            skipped = {n for n, v in rec["checks"].items() if v == "SKIPPED"}
            assert set(rec["checks"]) == kind
            assert skipped == readers & kind
            assert sorted(rec["notes"]) == sorted(
                f"{n}: {value} over a test cap" for n in skipped)
            assert {v for n, v in rec["checks"].items()
                    if n not in skipped} <= {"PASS"}


INSTANCE_CHECKS = tuple(c for c in CHECK_NAMES
                        if harness._CHECKS[c].kind == "instance")


@pytest.mark.parametrize("check", INSTANCE_CHECKS)
def test_an_instance_check_alone_builds_exactly_the_values_it_reads(
        monkeypatch, check):
    # nonvanishing builds r and c and no m; product_identity builds c and m
    # and no r.  A value no check reads is null in the record
    built = set()

    def spy(value, fn):
        def call(*args):
            built.add(value)
            return fn(*args)
        return call

    for value, (names, _) in VALUE_READERS.items():
        for name in names:
            monkeypatch.setattr(harness, name,
                                spy(value, getattr(harness, name)))
    report = run_sweep(SweepConfig("A2", (1,), 2, (check,)))
    reads = set(harness._CHECKS[check].reads)
    assert built == reads
    assert report["instances"]
    for rec in report["instances"]:
        assert rec["checks"] == {check: "PASS"}
        assert {k for k, v in rec["values"].items() if v is not None} \
            == reads - {"crystal"}
        assert "m" in reads or not rec["m_has_negative_coefficient"]


def test_fixed_evaluation_points_and_stretch_stay_in_the_report():
    assert SweepConfig._fields == ("cartan_type", "levi", "max_height",
                                   "checks", "jobs", "seed",
                                   "semigroup_samples")
    report = run_sweep(SweepConfig("A2", (1,), 1, ("degrees", "saturation")))
    assert report["config"]["q_eval_points"] == [2, 3, 4, 5, 7] \
        == list(harness.Q_EVAL_POINTS)
    assert report["config"]["saturation_n_max"] \
        == report["saturation"]["n_max"] == harness.SATURATION_N_MAX == 3


def test_a_cap_hit_on_m_keeps_the_nonvanishing_verdict_and_c(monkeypatch):
    # A3 Levi {1} h2 at a numerator cap of 10: 12 records compute r and c and
    # then hit the cap on m, which nonvanishing does not read
    _fresh_caches()
    monkeypatch.setattr(hecke, "NUMERATOR_CAP", 10)
    both = run_sweep(SweepConfig("A3", (1,), 2, ("nonvanishing",
                                                 "product_identity")))
    _fresh_caches()
    alone = run_sweep(SweepConfig("A3", (1,), 2, ("product_identity",)))
    d = root_datum("A3")
    levi = levi_view(d, (1,))
    m_capped = 0
    for rec, solo in zip(both["instances"], alone["instances"], strict=True):
        # the product identity reads the same way whatever runs beside it
        assert rec["checks"]["product_identity"] \
            == solo["checks"]["product_identity"]
        assert [n for n in rec["notes"] if n.startswith("product_identity")] \
            == solo["notes"]
        try:
            c = hecke.constant_term_coefficient(d, levi, tuple(rec["mu"]),
                                                tuple(rec["lambda"]))
        except FeasibilityError:
            continue
        if rec["checks"]["product_identity"] == "SKIPPED":
            m_capped += 1
            assert rec["values"]["r"] is not None
            assert rec["values"]["c"] == c.to_json()
            assert rec["checks"]["nonvanishing"] == "PASS"
            assert "10 terms" in solo["notes"][0]
    assert m_capped == 12
    assert both["summary"]["fail"] == 0


def test_only_skip_and_nonvanishing_write_skipped_into_records():
    # run_sweep only counts verdicts, and the saturation section writes the
    # word into its own hit fields
    tree = ast.parse(Path(harness.__file__).read_text(encoding="utf-8"))
    naming = {fn.name for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef)
              for node in ast.walk(fn)
              if isinstance(node, ast.Name) and node.id == "SKIPPED"
              or isinstance(node, ast.Constant) and node.value == "SKIPPED"}
    assert naming == {"_skip", "_nonvanishing", "_saturation_section",
                      "run_sweep"}


def _recording_runner(workers: list):
    """Stands in for the forked runner: records the worker count, then runs
    the tasks in this process."""
    def run(tasks, units, n):
        workers.append(n)
        return [task() for task in tasks]
    return run


@pytest.mark.parametrize("cpus,jobs,expected", [
    (2, 4, 2),      # clamped to the cores
    (8, 4, 3),      # clamped to the three tasks
    (8, 2, 2),
    (None, 4, None),  # one core: no fork
    (8, 1, None),
])
def test_pool_is_clamped(monkeypatch, cpus, jobs, expected):
    workers = []
    monkeypatch.setattr(harness, "_run_forked", _recording_runner(workers))
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    # A1 up to height 1: three coweights, one per-mu task each
    cfg = SweepConfig("A1", (), 1, ("crystal",), jobs=jobs)
    report = run_sweep(cfg)
    assert workers == ([] if expected is None else [expected])
    serial = run_sweep(SweepConfig("A1", (), 1, ("crystal",)))
    assert strip_timing(report) == strip_timing(serial)
    assert len(report["per_mu"]) == 3


@pytest.mark.parametrize("affinity,expected", [({3, 5}, [2]), ({1}, [])])
def test_clamp_counts_the_cores_this_process_may_use(monkeypatch, affinity,
                                                     expected):
    workers = []
    monkeypatch.setattr(harness, "_run_forked", _recording_runner(workers))
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: affinity)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
    run_sweep(SweepConfig("A1", (), 1, ("crystal",), jobs=8))
    assert workers == expected


def test_no_fork_runs_serially(monkeypatch):
    workers = []
    monkeypatch.setattr(harness, "_run_forked", _recording_runner(workers))
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(harness.os, "fork")
    report = run_sweep(SweepConfig("A1", (), 1, ("crystal",), jobs=2))
    assert workers == []
    serial = run_sweep(SweepConfig("A1", (), 1, ("crystal",)))
    assert strip_timing(report) == strip_timing(serial)


def test_forked_sweep_is_jobs_independent(monkeypatch):
    # B2 Levi {1} h3: 19 tasks, one per mu, one per (mu, lambda) and one
    # per section, of which (2, 0) has 7, cut into units of at most 5 at
    # jobs 2 and 4 at jobs 3.  At cap 10 every module at mu
    # fits, so the sections run, but modules at 2 mu do not: nonvanishing,
    # saturation and semigroup record skips
    def sweep(jobs):
        _fresh_caches()
        return strip_timing(run_sweep(SweepConfig(
            "B2", (1,), 3, ALL, semigroup_samples=30, jobs=jobs)))

    monkeypatch.setattr(characters, "DIMENSION_CAP", 10)
    serial = sweep(1)
    assert serial["summary"]["skipped"] > 0 and serial["summary"]["fail"] == 0
    assert serial["saturation"]["skipped"] and serial["semigroup"]["pairs_skipped"]
    assert any("SKIPPED" in rec["checks"].values() and rec["notes"]
               for rec in serial["instances"])
    runs = []
    real = harness._run_forked

    def spy(tasks, units, workers):
        runs.append((workers, max(map(len, units))))
        return real(tasks, units, workers)

    monkeypatch.setattr(harness, "_run_forked", spy)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert sweep(2) == serial
    assert sweep(3) == serial
    assert runs == [(2, 5), (3, 4)]


FIXTURE_CHECKS = ("multiplicity_identity", "product_identity", "degrees",
                  "nonvanishing", "semigroup", "saturation")


def test_torus_fixture_sweep_is_jobs_independent(monkeypatch):
    # A2 torus h2, the acceptance check set: 26 (mu, lambda) tasks of two
    # offsets each, whose records share their nu-free values
    def sweep(jobs):
        _fresh_caches()
        return strip_timing(run_sweep(SweepConfig("A2", (), 2, FIXTURE_CHECKS,
                                                  jobs=jobs)))

    monkeypatch.setattr(harness.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2})
    serial = sweep(1)
    assert len(serial["instances"]) == serial["instance_count"] == 52
    assert serial["summary"]["fail"] == serial["summary"]["skipped"] == 0
    assert sweep(2) == serial
    assert sweep(3) == serial


def test_nu_free_values_are_computed_once_per_mu_and_lambda(monkeypatch):
    # the torus fixture sweep's 52 instances are 26 (mu, lambda) at two
    # offsets: the orbit size and the constant term are read once for both
    calls = {"_orbit_size": 0, "_ct_coefficient": 0}

    def counting(name):
        real = getattr(harness, name)

        def count(*args):
            calls[name] += 1
            return real(*args)
        return count

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name))
    report = run_sweep(SweepConfig("A2", (), 2, FIXTURE_CHECKS))
    assert len(report["instances"]) == 52
    assert calls == {"_orbit_size": 26, "_ct_coefficient": 26}


@pytest.mark.parametrize("type_str,levi,height", [
    ("A2", (), 4), ("B2", (1,), 4), ("G2", (2,), 5), ("A3", (1,), 4)])
def test_record_values_match_the_public_route(type_str, levi, height):
    # records read m and c off the flat kernels; the public functions wrap
    # the same kernels in LaurentPoly and check their arguments first
    report = run_sweep(SweepConfig(type_str, levi, height,
                                   ("product_identity",)))
    d = root_datum(type_str)
    lv = levi_view(d, levi)
    assert report["instances"]
    for rec in report["instances"]:
        mu, lam, nu = (tuple(rec[k]) for k in ("mu", "lambda", "nu"))
        m = hecke.structure_constant(d, vec_add(nu, lam), dual_star(d, mu), nu)
        c = hecke.constant_term_coefficient(d, lv, mu, lam)
        assert rec["values"]["m"] == m.to_json()
        assert rec["values"]["c"] == c.to_json()
        assert rec["m_has_negative_coefficient"] \
            == any(x < 0 for _, x in m.items())


@pytest.mark.parametrize("crafted,verdict,negative", [
    ({0: 1}, "PASS", False),            # the true value
    ({0: 1, -1: 420}, "FAIL", False),   # odd exponent, integral at each q
    ({0: 1, -2: 1}, "FAIL", False),     # 1 + 1/q, no integer
    ({0: 1, -2: -420}, "FAIL", True),   # negative at each q
], ids=["true", "odd", "fraction", "negative"])
def test_degrees_and_the_sign_flag_read_crafted_values_of_m(
        monkeypatch, crafted, verdict, negative):
    # no real sweep gives m a negative exponent.  At mu = 0, where m = 1 has
    # top exponent 0 = <2rho, lam + mu*> and leading coefficient 1 = n, each
    # crafted value breaks one flag of degrees alone
    real = harness._structure_constant
    monkeypatch.setattr(harness, "_structure_constant",
                        lambda datum, alpha, beta, gamma: dict(crafted)
                        if beta == (0, 0) else real(datum, alpha, beta, gamma))
    report = run_sweep(SweepConfig("A2", (), 1, ("degrees",)))
    hits = [rec["mu"] == [0, 0] for rec in report["instances"]]
    assert hits.count(True) == 2
    for rec, hit in zip(report["instances"], hits):
        assert rec["checks"] == {"degrees": verdict if hit else "PASS"}
        assert rec["m_has_negative_coefficient"] == (hit and negative)
        if hit:
            assert rec["values"]["m"] == hecke.LaurentPoly(crafted).to_json()
    summary = report["summary"]
    assert summary["m_nonneg_violations"] == 2 * negative
    assert summary["fail"] == (0 if verdict == "PASS" else 2)


@pytest.mark.parametrize("config, modules", [
    (SweepConfig("A3", (1,), 4, ("multiplicity_identity", "crystal",
                                 "hecke_paths")), 10),
    (SweepConfig("A2", (), 2, FIXTURE_CHECKS), 15)],
    ids=["A3_levi1_h4", "A2_torus_h2"])
def test_a_sweep_evaluates_weyl_dimensions_only_for_modules_it_builds(
        config, modules):
    # a tensor product picks the factor it walks by height, so Weyl's
    # formula runs only at the cap check of a weight table being built,
    # not on both factors of every product
    _fresh_caches()
    rootdata._weyl_dim.cache_clear()
    run_sweep(config)
    assert rootdata._weyl_dim.cache_info().misses == modules
    assert characters._freudenthal.cache_info().misses == modules


def test_failed_checks_are_reported_as_counterexamples(monkeypatch):
    # a wrong weight table at (0, 1) fails its crystal check, and a zero
    # orbit size at lambda (1, -1) fails the product identity of both
    # instances there, whose m is nonzero
    real_table, real_orbit = harness.weight_table, harness._orbit_size
    monkeypatch.setattr(harness, "weight_table", lambda view, mu: (
        {} if mu == (0, 1) else real_table(view, mu)))
    monkeypatch.setattr(harness, "_orbit_size", lambda levi, lam: (
        {} if lam == (1, -1) else real_orbit(levi, lam)))
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    serial, forked = (strip_timing(run_sweep(SweepConfig(
        "A2", (1,), 1, ("crystal", "product_identity"), jobs=jobs)))
        for jobs in (1, 2))
    assert forked == serial
    summary = serial["summary"]
    assert summary["counterexamples"] == [
        {"where": "mu", "check": "crystal", "mu": [0, 1]},
        *({"where": "instance", "check": "product_identity", "mu": [0, 1],
           "lambda": [1, -1], "nu": nu} for nu in ([0, 1], [0, 2]))]
    assert (summary["pass"], summary["fail"]) == (10, 3)


def test_units_past_the_claim_pipe_still_run():
    # 20,000 four-byte tokens overfill a 64 KiB pipe; the parent runs the rest
    n = 20_000
    tasks = [functools.partial(operator.neg, i) for i in range(n)]
    assert harness._run_forked(tasks, [[i] for i in range(n)], 2) \
        == [-i for i in range(n)]


def _raising_in(where: str, exc: Exception, delay: float):
    """An ``_instance_records`` that raises ``exc`` in the parent or in a
    forked child, and sleeps ``delay`` seconds before running the real one
    in the other process."""
    parent = os.getpid()
    real = harness._instance_records

    def record(*args):
        if (os.getpid() == parent) == (where == "parent"):
            raise exc
        time.sleep(delay)
        return real(*args)
    return record


@pytest.mark.parametrize("exc", [AssertionError("wrong r"),
                                 FeasibilityError("over the cap", 7)],
                         ids=["AssertionError", "FeasibilityError"])
def test_child_error_raises_in_the_parent(monkeypatch, exc):
    # the parent's instances are slow, so the child claims some
    monkeypatch.setattr(harness, "_instance_records",
                        _raising_in("child", exc, 0.01))
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(type(exc)) as info:
        run_sweep(SweepConfig("A2", (1,), 2, IDENTITY_CHECKS, jobs=2))
    assert str(info.value) == str(exc)
    assert getattr(info.value, "cap", None) == getattr(exc, "cap", None)
    assert "raised in a sweep worker" in "".join(info.value.__notes__)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parent_error_kills_and_reaps_children(monkeypatch):
    # A1 h1 at jobs 3: six (mu, lambda) tasks of two instances each, in
    # units of one; children that sleep 5 s per task would keep a parent
    # that waits for them 10 s or more
    monkeypatch.setattr(harness, "_instance_records",
                        _raising_in("parent", RuntimeError("parent"), 5.0))
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="parent"):
        run_sweep(SweepConfig("A1", (), 1, IDENTITY_CHECKS, jobs=3))
    assert time.monotonic() - start < 4.0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_exits_without_its_results_raises(monkeypatch):
    # a child that leaves before writing leaves its result pipe empty
    monkeypatch.setattr(harness, "_child_exit", lambda *a: os._exit(0))
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(RuntimeError,
                       match="a sweep worker exited without its results"):
        run_sweep(SweepConfig("A2", (1,), 2, IDENTITY_CHECKS, jobs=2))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", [1, 2])
def test_semigroup_records_a_swept_module_over_the_cap(monkeypatch, jobs):
    # (1, 2) and (2, 1) have dimension 15, over a cap of 10: they stay out
    # of the pool, each listed once, and the draws among the rest go on
    _fresh_caches()
    monkeypatch.setattr(characters, "DIMENSION_CAP", 10)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    semi = run_sweep(SweepConfig("A2", (1,), 3, ("semigroup",),
                                 jobs=jobs))["semigroup"]
    assert semi["mus_over_cap"] == [
        {"mu": [1, 2], "reason": "module over the cap"},
        {"mu": [2, 1], "reason": "module over the cap"}]
    assert semi["pool_size"] == 23 and semi["pairs_checked"] == 120
    assert semi["failures"] == [] and semi["verdict"] == "PASS"
    # below the cap the key is left out
    _fresh_caches()
    monkeypatch.setattr(characters, "DIMENSION_CAP", 200_000)
    full = run_sweep(SweepConfig("A2", (1,), 3, ("semigroup",),
                                 jobs=jobs))["semigroup"]
    assert "mus_over_cap" not in full and full["pool_size"] == 35


@pytest.mark.parametrize("jobs", [1, 2])
def test_saturation_records_a_swept_module_over_the_cap(monkeypatch, jobs):
    # (1, 2) and (2, 1) have dimension 15, over a cap of 10: each of their
    # Levi-dominant weights gets one skip entry at n = 1, and the scan goes on
    _fresh_caches()
    monkeypatch.setattr(characters, "DIMENSION_CAP", 10)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    sat = run_sweep(SweepConfig("A2", (1,), 3, ("saturation",),
                                jobs=jobs))["saturation"]
    lams = {(1, 2): [(0, -2), (0, 1), (1, -1), (1, 2), (2, -3), (2, 0),
                     (3, -2)],
            (2, 1): [(0, -1), (0, 2), (1, -3), (1, 0), (2, -2), (2, 1),
                     (3, -1)]}
    assert [entry for entry in sat["skipped"] if entry["n"] == 1] == [
        {"mu": list(mu), "lambda": list(lam), "n": 1,
         "reason": "module over the cap"}
        for mu, ls in lams.items() for lam in ls]
    assert sat["verdict"] == "PASS"


def test_saturation_finds_witness_outside_type_a():
    # doubling fills a genuine gap: the zero weight is missing from the
    # module at the second fundamental coweight of B2 but present after
    # stretching by two
    cfg = SweepConfig("B2", (1,), 3, ("saturation",))
    report = run_sweep(cfg)
    sat = report["saturation"]
    assert sat["verdict"] == "PASS"
    assert {"mu": [0, 1], "lambda": [0, 0], "witness_n": 2, "witness_r": 1,
            "c_at_k": True, "r_at_k_squared": 1,
            "factor_two_r": 1} in sat["hits"]
    for hit in sat["hits"]:
        assert hit["c_at_k"] in (True, "SKIPPED")
        assert hit["r_at_k_squared"] != 0
        assert "factor_two_r" in hit


@pytest.mark.parametrize("patched,at,zero,field,value,reason", [
    ("constant_term_coefficient", (0, 2), hecke.LaurentPoly.zero(), "c_at_k",
     False, "saturation witness but zero constant term at factor k"),
    ("branch_multiplicity", (0, 4), 0, "r_at_k_squared", 0,
     "saturation witness but zero branching at factor k^2"),
])
def test_saturation_failures_are_reported(monkeypatch, patched, at, zero,
                                          field, value, reason):
    # B2 Levi {1} h3 has one witness, (0, 1) at lambda 0, with k = 2: a zero
    # constant term at k mu = (0, 2), or a zero branching at k^2 mu = (0, 4),
    # fails the section
    real = getattr(harness, patched)
    monkeypatch.setattr(harness, patched, lambda datum, levi, mu, lam: (
        zero if mu == at else real(datum, levi, mu, lam)))
    report = run_sweep(SweepConfig("B2", (1,), 3, ("saturation",)))
    sat = report["saturation"]
    assert [hit[field] for hit in sat["hits"]] == [value]
    assert sat["failures"] == [{"mu": [0, 1], "lambda": [0, 0],
                                "reason": reason}]
    assert sat["verdict"] == "FAIL"
    assert report["summary"]["counterexamples"] == [
        {"where": "saturation", "check": "saturation"}]
    assert (report["summary"]["pass"], report["summary"]["fail"]) == (0, 1)


def test_saturation_type_a_has_no_witnesses():
    for idx in [(), (1,), (2,)]:
        report = run_sweep(SweepConfig("A2", idx, 3, ("saturation",)))
        assert report["saturation"]["hits"] == []
        assert report["saturation"]["verdict"] == "PASS"


def _assert_all_pass(report, checks):
    verdicts = [(name, v) for rec in report["per_mu"] + report["instances"]
                for name, v in rec["checks"].items()]
    assert {name for name, _ in verdicts} == set(checks)
    assert all(v == "PASS" for _, v in verdicts)
    assert report["summary"]["skipped"] == 0


HECKE_SMOKE = [("A3", 2), ("B3", 3), ("C3", 3), ("G2", 3), ("B4", 4),
               ("C4", 4), ("A5", 3)]
HECKE_SMOKE_CHECKS = ("product_identity", "multiplicity_identity", "degrees",
                      "ct_transitivity")
PATH_SMOKE = [("A3", 3), ("B3", 3), ("C3", 3), ("G2", 3), ("B4", 4),
              ("A4", 2)]
PATH_SMOKE_CHECKS = ("crystal", "hecke_paths", "multiplicity_identity")


@pytest.mark.parametrize("type_str,height", HECKE_SMOKE)
def test_rank_three_hecke_smoke(type_str, height):
    # the lowest height with a nonzero coweight, Levi {1}
    _assert_all_pass(run_sweep(SweepConfig(type_str, (1,), height,
                                           HECKE_SMOKE_CHECKS)),
                     HECKE_SMOKE_CHECKS)


def test_rank_five_all_checks_smoke():
    # D5, a type whose Weyl group nothing enumerates: Levi {1} at height 4,
    # every check and both scans included
    report = run_sweep(SweepConfig("D5", (1,), 4, ALL))
    assert report["instance_count"] == 18
    assert report["semigroup"]["verdict"] == "PASS"
    assert report["saturation"]["verdict"] == "PASS"
    summary = report["summary"]
    assert (summary["pass"], summary["fail"], summary["skipped"]) == (80, 0, 0)


@pytest.mark.parametrize("type_str,height", PATH_SMOKE)
def test_path_checks_smoke(type_str, height):
    # Levi {1}; rank 4 at the lowest height with a nonzero coweight
    _assert_all_pass(run_sweep(SweepConfig(type_str, (1,), height,
                                           PATH_SMOKE_CHECKS)),
                     PATH_SMOKE_CHECKS)


@pytest.mark.parametrize("config", [
    *(SweepConfig(t, (1,), h, HECKE_SMOKE_CHECKS) for t, h in HECKE_SMOKE),
    *(SweepConfig(t, (1,), h, PATH_SMOKE_CHECKS) for t, h in PATH_SMOKE),
    SweepConfig("D5", (1,), 4, ALL),
], ids=lambda c: f"{c.cartan_type}-h{c.max_height}-{len(c.checks)}")
def test_smoke_straightenings_match_the_full_walk(monkeypatch, config):
    # every tensor, restriction and numerator straightening of a smoke
    # sweep, from cold caches, against the walk that tests for a wall at its
    # end only
    calls = []
    walk = characters.klimyk

    def recording(view, top, weights):
        calls.append((view, top, weights))
        return walk(view, top, weights)

    _fresh_caches()
    monkeypatch.setattr(characters, "klimyk", recording)
    monkeypatch.setattr(hecke, "klimyk", recording)
    run_sweep(config)
    assert calls
    for view, top, weights in calls:
        _assert_sums_match_the_full_walk(walk, view, top, weights)


def _assert_sums_match_the_full_walk(walk, view, top, weights):
    # the sums as the sweep made them, and again term by term
    for table in (weights, weyl_oracle.tagged(weights)):
        assert list(walk(view, top, table).items()) \
            == list(weyl_oracle.klimyk(view, top, table).items())


def test_straightening_memo_does_not_depend_on_call_order(monkeypatch):
    # the tensor, restriction and numerator straightenings of two smoke
    # sweeps, replayed from empty memos with the Levi views' calls first and
    # then with the full views' first, against the walk that tests for a
    # wall at its end only
    calls = []
    walk = characters.klimyk

    def recorder(source):
        def recording(view, top, weights):
            calls.append((source, view, top, weights))
            return walk(view, top, weights)
        return recording

    _fresh_caches()
    monkeypatch.setattr(characters, "klimyk", recorder("characters"))
    monkeypatch.setattr(hecke, "klimyk", recorder("hecke"))
    run_sweep(SweepConfig("B3", (1,), 3, HECKE_SMOKE_CHECKS))
    run_sweep(SweepConfig("A3", (1,), 3, PATH_SMOKE_CHECKS))
    kinds = {(source, len(view.indices) == view.ambient_rank)
             for source, view, _, _ in calls}
    assert kinds == {("characters", True), ("characters", False),
                     ("hecke", True), ("hecke", False)}
    for full_first in (False, True):
        characters._walks.cache_clear()
        order = sorted(range(len(calls)), key=lambda i: full_first != (
            len(calls[i][1].indices) == calls[i][1].ambient_rank))
        for i in order:
            _, view, top, weights = calls[i]
            _assert_sums_match_the_full_walk(walk, view, top, weights)


def test_sweep_builds_one_walk_state_per_view_and_width():
    # the full view and the Levi view each get one width for the whole
    # sweep, so no state is built twice or thrown away; the torus, which
    # the sweep restricts to as well, straightens nothing and builds none
    _fresh_caches()
    run_sweep(SweepConfig("A3", (1,), 5, ALL))
    info = characters._walks.cache_info()
    assert (info.currsize, info.misses) == (2, 2)


# SHA-256 of each all-checks report's canonical JSON without its *_ms fields,
# as ``perfbench/child.py`` digests it; recorded from the program before the
# integer lattice kernels and the per-character Hecke partial sums.  The
# tests run in this order, which fixes each one's id: append new goldens
GOLDEN_DIGESTS = {
    ("A3", (1,), 5):
        "54c8c6fe676d12c3857352b1c824cb96fe55ef9fb7aa8835cc262cc72595f3fd",
    ("B3", (2,), 4):
        "86d623ecc44fe44fe62e398555756f197e89719fd5e2575629c12b23c3ec3b93",
    ("G2", (), 6):
        "5fd31c1ad9f91e2f2755aa738b97d35f3c2cbc35e119722ef758ea3baa68673e",
    # the saturation witnesses, which read constant_term_coefficient at k*mu:
    # 11 witnesses with every c_at_k and r_at_k_squared evaluated, and 3
    # whose r_at_k_squared is SKIPPED over the cap; recorded before the
    # constant-term coefficient and its full expansion shared one body
    ("B2", (1,), 6):
        "3fe75006555b98ef62900e88cd204ef0218eb8ba4bec4ab51971e951ebb0961e",
    ("G2", (2,), 6):
        "69b821bdd0296bae4d9ea19acc7372f9728be2b634ee8f60a448a49b220ebcd0",
    # a rank-two Levi, where K^M is read off the torus; recorded while
    # _ct_coefficient still tested each l against the Levi's cone itself
    ("A3", (1, 2), 4):
        "2228f30c6e38a5be02927394f4dca045a2ec063d4c1d5966bbab301915d2b72b",
}


@pytest.mark.parametrize("type_str,levi,height", list(GOLDEN_DIGESTS))
def test_reports_match_golden_digests(type_str, levi, height):
    report = run_sweep(SweepConfig(type_str, levi, height, ALL))
    blob = json.dumps(strip_timing(report), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() \
        == GOLDEN_DIGESTS[type_str, levi, height]


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _perfbench_module(name):
    """``perfbench/<name>.py`` loaded under its own module name, so it does
    not shadow a module of the tests."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not os.path.isdir(PERFBENCH),
                    reason="no perfbench/ in this checkout")
def test_benchmark_workloads_match_their_recorded_digests():
    # the benchmark's output check, in-process: a report that moves fails
    # here before a benchmark run marks it incorrect
    run = _perfbench_module("run")
    child = _perfbench_module("child")
    recorded = run.load_digests()
    for name, w in run.WORKLOADS.items():
        entry = recorded[name]
        assert (entry["seed"], entry["max_height"]) \
            == (run.DEFAULT_SEED, w.max_height), name
        report = run_sweep(SweepConfig(
            w.cartan_type, w.levi, w.max_height, w.checks, jobs=w.jobs,
            seed=run.DEFAULT_SEED, semigroup_samples=w.semigroup_samples))
        assert child.report_digest(report) == entry["digest"], name
