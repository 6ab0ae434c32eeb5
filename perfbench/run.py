"""Sweep benchmark for heckebranch: time to an exact, green report.

Run one workload::

    python3 perfbench/run.py --workload identity_a2 --seed 1 --seconds 25 --trace 0

or every workload, traced and untraced, and rewrite ``BENCHMARK.json``::

    python3 perfbench/run.py --all

Every sample runs in a fresh interpreter (``child.py``), so caches start cold
as they do for each ``heckebranch verify`` call.  A run first times a few
set-ups on their own, then repeats the sweep until ``--seconds`` have passed
and reports medians.  Timings are scaled to a nominal machine speed by a
reference loop timed in the same interpreter (see ``normalise``).  With
``--trace 1`` half of the time goes to untraced sweeps and one traced sweep
gives the per-layer metrics.  Each run ends with one sweep at the other
worker count; the reports must hash alike.  See ``README.md`` in this
directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 20260816      # SweepConfig's default semigroup seed
RUN_SECONDS = 25
SETUP_SAMPLES = 5            # set-up-only interpreters at the start of a run
MIN_REPS = 3                 # timed sweeps per run, even past --seconds
CHILD_TIMEOUT_S = 60.0       # one sweep over this counts as failed
RUN_LIMIT_S = 170.0          # the whole run must end within 180 s
REFERENCE_S = 0.014          # child.reference_s() at the nominal speed

FIXTURE_CHECKS = ("multiplicity_identity", "product_identity", "degrees",
                  "nonvanishing", "semigroup", "saturation")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cartan_type: str
    levi: tuple[int, ...]
    max_height: int
    checks: tuple[str, ...]
    jobs: int
    semigroup_samples: int = 120


WORKLOADS = {w.name: w for w in (
    Workload("identity_a2",
             "A2 torus, acceptance check set, jobs=1: Hecke-bound "
             "(hall_littlewood and hecke_product take most of the time)",
             "A2", (), 2, FIXTURE_CHECKS, 1),
    Workload("identity_a2_jobs2",
             "identity_a2 at jobs=2: isolates the harness process pool "
             "against its single-process baseline",
             "A2", (), 2, FIXTURE_CHECKS, 2),
    Workload("paths_a3",
             "A3 Levi {1}, path checks: littelmann path sets and "
             "branch_decompose, no hecke calls",
             "A3", (1,), 4, ("multiplicity_identity", "crystal", "hecke_paths"),
             1),
    # 600 semigroup samples average out the seed's effect on the sampled
    # pairs; at the default 120 the run-to-run spread across seeds is ~20%
    Workload("scan_a3",
             "A3 Levi {1}, semigroup and saturation scans: repeated uncached "
             "branch_decompose, no littelmann or hecke calls",
             "A3", (1,), 2, ("semigroup", "saturation"), 1,
             semigroup_samples=600),
)}

# name, unit, better, bound
END_TO_END = (
    ("sweep_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)


def _per_layer() -> tuple:
    calls_s = [
        ("hecke", ("hall_littlewood", "hecke_product", "satake_expand",
                   "constant_term", "orbit_size"), ("calls", "s")),
        ("hecke", ("hall_littlewood", "hecke_product", "satake_expand"),
         ("repeat_ratio",)),
        ("characters", ("dominant_weights", "weight_table", "branch_decompose",
                        "tensor_decompose"), ("calls", "s", "repeat_ratio")),
        ("littelmann", ("generate_crystal", "branch_path_set",
                        "tensor_path_set", "is_hecke_path"), ("calls", "s")),
        ("parabolic", ("offset_pair",), ("calls", "s")),
        ("harness", ("run_sweep", "enumerate_instances"), ("s",)),
        ("rootdata", ("root_datum", "levi_view"), ("s",)),
        ("rootdata", ("rho_height",), ("calls",)),
    ]
    units = {"calls": "count", "s": "s", "repeat_ratio": "ratio"}
    out = []
    for layer, names, kinds in calls_s:
        out += [(f"{layer}.{f}.{k}", units[k], "lower")
                for f in names for k in kinds]
    out += [(f"{layer}.self_s", "s", "lower")
            for layer in ("hecke", "characters", "littelmann", "parabolic")]
    out += [("harness.serial_s", "s", "lower"),
            ("harness.pool.efficiency", "ratio", "higher"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return tuple(out)


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """Spawns the samples of one run and stops each before returning."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = _clock()

    def spec(self, **overrides) -> dict:
        w = self.workload
        spec = {"cartan_type": w.cartan_type, "levi": list(w.levi),
                "max_height": w.max_height, "checks": list(w.checks),
                "jobs": w.jobs, "seed": self.seed,
                "semigroup_samples": w.semigroup_samples, "setup_only": False,
                "trace": False, "spans_path": None}
        spec.update(overrides)
        return spec

    def sample(self, spec: dict):
        """The normalised result of one fresh interpreter, or None when it
        failed or ran out of time."""
        timeout = min(CHILD_TIMEOUT_S, self.started + RUN_LIMIT_S - _clock())
        if timeout <= 0:
            return None
        env = dict(os.environ, PYTHONPATH=str(SRC))
        spawned = _clock()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)   # the child and its pool
            proc.communicate()
            return None
        if proc.returncode != 0:
            sys.stderr.write(stderr)
            return None
        result = json.loads(stdout.strip().splitlines()[-1])
        result["setup_wall_s"] = result["ready"] - spawned
        return normalise(result)


def normalise(result: dict) -> dict:
    """Scale a child's timings to the nominal machine speed.

    The shared host's cores change speed in phases of seconds to minutes,
    by tens of percent.  The child times a fixed reference loop right after
    set-up and again after the sweep, in the same process.  Each timing is
    multiplied by ``REFERENCE_S`` over the reference time around it, so it
    reads as seconds on a machine where the loop takes ``REFERENCE_S``.
    The unscaled times are kept as ``*_wall_s``.
    """
    result["setup_s"] = (result["setup_wall_s"] * REFERENCE_S
                         / result["ref_before_s"])
    if "sweep_s" in result:
        scale = REFERENCE_S / statistics.mean(
            (result["ref_before_s"], result["ref_after_s"]))
        result["sweep_wall_s"] = result["sweep_s"]
        result["sweep_s"] *= scale
        result["cpu_s"] *= scale
    return result


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 recorded: dict) -> dict:
    """Measure one workload and check its outputs.  Returns the result
    object (``correct``, ``attempted``, ``failed``, ``metrics``) plus
    ``samples`` (per-metric sample lists) and ``digest``."""
    run = Run(workload, seed)
    deadline = run.started + seconds

    setup = []
    for _ in range(SETUP_SAMPLES):
        got = run.sample(run.spec(setup_only=True))
        if got is None:
            raise SystemExit("perfbench: the program failed to set up")
        setup.append(got["setup_s"])

    reps = []      # results of the untraced sweeps at the workload's jobs
    missing = 0    # sweeps that failed or ran out of time
    timed_until = deadline if not trace else run.started + seconds / 2
    while len(reps) + missing < MIN_REPS or (
            reps and _clock() + statistics.median(r["wall"] for r in reps)
            < timed_until):
        before = _clock()
        got = run.sample(run.spec())
        if got is None:
            missing += 1
            if missing >= MIN_REPS:
                break
            continue
        got["wall"] = _clock() - before
        setup.append(got["setup_s"])
        reps.append(got)

    traced = None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv"
        traced = run.sample(run.spec(trace=True, spans_path=str(spans)))
        missing += traced is None

    other_jobs = 2 if workload.jobs == 1 else 1
    cross = run.sample(run.spec(jobs=other_jobs))
    missing += cross is None

    # output check: one digest for every sweep, equal across worker counts
    # and, at the recorded seed and height, equal to the recorded digest
    swept = reps + [r for r in (traced, cross) if r is not None]
    digests = {r["digest"] for r in swept}
    entry = recorded.get(workload.name)
    if (seed == DEFAULT_SEED and entry is not None
            and entry["max_height"] == workload.max_height):
        digests.add(entry["digest"])
    verdicts = [r["pass"] + r["fail"] + r["skipped"] for r in swept]
    per_sweep = max(verdicts, default=1)
    attempted = sum(verdicts) + missing * per_sweep
    if len(digests) == 1:
        failed = sum(r["fail"] + r["skipped"] for r in swept) + missing * per_sweep
    else:
        failed = attempted

    samples = {"setup_s": setup}
    for key in ("sweep_s", "cpu_s", "peak_rss_mb", "sweep_wall_s"):
        samples[key] = [r[key] for r in reps]
    if not reps:
        raise SystemExit("perfbench: no sweep finished")
    if trace:
        if traced is None:
            raise SystemExit("perfbench: the traced sweep did not finish")
        layers = traced["layers"]
        layers["trace.overhead_ratio"] = (traced["sweep_s"]
                                          / statistics.median(samples["sweep_s"]))
        metrics = {n: {"value": layers[n], "unit": u} for n, u, _ in PER_LAYER}
    else:
        metrics = {n: {"value": statistics.median(samples[n]), "unit": u}
                   for n, u, _, _ in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "samples": samples,
            "digest": digests.pop() if len(digests) == 1 else None}


def describe(workload: Workload, result: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit, medians
    with their sample count, and the failed ratio."""
    lines = []
    for name, m in result["metrics"].items():
        line = f"{workload.name} {name} = {m['value']:.6g} {m['unit']}"
        if name in result["samples"]:
            vals = result["samples"][name]
            line += f" (median of {len(vals)}, min {min(vals):.6g}, max {max(vals):.6g})"
        lines.append(line)
    wall = result["samples"]["sweep_wall_s"]
    lines.append(f"{workload.name} sweep wall time, not normalised = "
                 f"{statistics.median(wall):.6g} s (median of {len(wall)})")
    ratio = result["failed"] / result["attempted"]
    lines.append(f"{workload.name} failed_ratio = {ratio:.6g} "
                 f"({result['failed']} of {result['attempted']} verdicts)")
    return lines


def _require_program() -> None:
    if not (SRC / "heckebranch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no heckebranch sources under {SRC}")


def record_digests() -> dict:
    """Hash one sweep of every workload at the default seed."""
    recorded = {}
    for w in WORKLOADS.values():
        run = Run(w, DEFAULT_SEED)
        result = run.sample(run.spec())
        if result is None:
            raise SystemExit(f"perfbench: {w.name} failed")
        if result["fail"] or result["skipped"]:
            raise SystemExit(f"perfbench: {w.name} is not green")
        recorded[w.name] = {"max_height": w.max_height, "seed": DEFAULT_SEED,
                            "digest": result["digest"]}
    return recorded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="semigroup sampling seed passed to SweepConfig.seed")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload traced and untraced, print "
                             "every metric and rewrite BENCHMARK.json")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the current program")
    args = parser.parse_args(argv)
    _require_program()

    if args.record_digests:
        with open(DIGESTS, "w") as fh:
            json.dump(record_digests(), fh, indent=2)
            fh.write("\n")
        return 0

    recorded = load_digests()
    if args.all:
        ok = True
        for w in WORKLOADS.values():
            for trace in (False, True):
                result = run_workload(w, args.seed, args.seconds, trace, recorded)
                print("\n".join(describe(w, result)), flush=True)
                ok = ok and result["correct"]
        with open(ROOT / "BENCHMARK.json", "w") as fh:
            json.dump(benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0 if ok else 1

    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    w = WORKLOADS[args.workload]
    result = run_workload(w, args.seed, args.seconds, bool(args.trace), recorded)
    print("\n".join(describe(w, result)))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
