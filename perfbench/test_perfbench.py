"""Tests of the sweep benchmark itself, on every workload cut to height 1.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

SEED = 7
WORKLOAD_NAMES = sorted(run.WORKLOADS)


def small(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], max_height=1)


@pytest.fixture(scope="module")
def results():
    """One shortest run of each small workload, untraced and traced."""
    return {(name, trace): run.run_workload(small(name), SEED, 0, trace, {})
            for name in WORKLOAD_NAMES for trace in (False, True)}


def test_benchmark_json_matches_definitions():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        assert json.load(fh) == run.benchmark_json()


def test_recorded_digests_cover_every_workload():
    recorded = run.load_digests()
    assert set(recorded) == set(run.WORKLOADS)
    for name, entry in recorded.items():
        assert entry["max_height"] == run.WORKLOADS[name].max_height
        assert entry["seed"] == run.DEFAULT_SEED
    assert (recorded["identity_a2"]["digest"]
            == recorded["identity_a2_jobs2"]["digest"])


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_its_unit(results, name, trace):
    result = results[(name, trace)]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if trace:
        expected = {n: u for n, u, _ in run.PER_LAYER}
    else:
        expected = {n: u for n, u, _, _ in run.END_TO_END}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_digests_independent_of_jobs(results):
    assert (results[("identity_a2", False)]["digest"]
            == results[("identity_a2_jobs2", False)]["digest"])


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tracing_leaves_the_report_unchanged(results, name):
    untraced = results[(name, False)]["digest"]
    assert untraced is not None
    assert results[(name, True)]["digest"] == untraced


def test_traced_layers_see_the_expected_calls(results):
    hecke_bound = results[("identity_a2", True)]["metrics"]
    assert hecke_bound["hecke.hecke_product.calls"]["value"] > 0
    paths = results[("paths_a3", True)]["metrics"]
    assert paths["littelmann.tensor_path_set.calls"]["value"] > 0
    assert paths["hecke.hecke_product.calls"]["value"] == 0
    scan = results[("scan_a3", True)]["metrics"]
    assert scan["characters.branch_decompose.calls"]["value"] > 0
    assert scan["littelmann.generate_crystal.calls"]["value"] == 0
    # worker-side spans are not collected: the parent makes no hecke calls
    pooled = results[("identity_a2_jobs2", True)]["metrics"]
    assert pooled["hecke.hecke_product.calls"]["value"] == 0


def test_wrong_recorded_digest_fails_every_verdict():
    w = small("scan_a3")
    recorded = {w.name: {"max_height": 1, "seed": run.DEFAULT_SEED,
                         "digest": "0" * 64}}
    result = run.run_workload(w, run.DEFAULT_SEED, 0, False, recorded)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_a3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_normalise_scales_timings_by_the_reference():
    result = {"setup_wall_s": 0.2, "ref_before_s": 2 * run.REFERENCE_S,
              "ref_after_s": 4 * run.REFERENCE_S, "sweep_s": 3.0,
              "cpu_s": 6.0}
    run.normalise(result)
    assert result["setup_s"] == pytest.approx(0.1)
    assert result["sweep_wall_s"] == 3.0
    assert result["sweep_s"] == pytest.approx(1.0)
    assert result["cpu_s"] == pytest.approx(2.0)
