"""One benchmark sample in a fresh interpreter, so every cache starts cold.

Usage: ``python3 perfbench/child.py '<json spec>'`` with ``src`` on
``PYTHONPATH``.  The spec names the sweep (``cartan_type``, ``levi``,
``max_height``, ``checks``, ``jobs``, ``seed``, ``semigroup_samples``),
whether to stop after set-up (``setup_only``) and whether to trace
(``trace``, ``spans_path``).  The last line of standard output is one JSON
object with the results.

The child also times a fixed reference loop, in ``jobs`` processes at
once, right after set-up and again after the sweep (``ref_before_s``, ``ref_after_s``).  The loop uses nothing
from heckebranch, so its time follows only the speed the machine gives this
process at that moment; ``run.py`` divides the timings by it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction


def strip_ms(value):
    """The report without its ``*_ms`` timing fields, at every depth."""
    if isinstance(value, dict):
        return {k: strip_ms(v) for k, v in value.items() if not k.endswith("_ms")}
    if isinstance(value, list):
        return [strip_ms(v) for v in value]
    return value


def report_digest(report: dict) -> str:
    blob = json.dumps(strip_ms(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


REFERENCE_STEPS = 15000
REFERENCE_REPS = 5


def reference_loop() -> int:
    """A fixed mix of the interpreter work heckebranch does: dict updates
    on tuple keys (weight tables), exact rationals with big numerators and
    denominators (Hecke products), and small-int arithmetic (pairings)."""
    table: dict = {}
    small = 0
    for i in range(REFERENCE_STEPS):
        key = (i % 37, i % 11, i % 5)
        table[key] = table.get(key, 0) + 3 * i
        small += i * i % 7
    num, den = 3 ** 900, 7 ** 650
    for i in range(150):
        small += (num * den + i) // (den + i) % 97
        ratio = Fraction(num + i, den - i) + Fraction(i + 1, 13)
        small += ratio.numerator % 97
    return len(sorted(table.items())) + small


def _reference_median(_=None) -> float:
    times = []
    gc.disable()
    try:
        for _ in range(REFERENCE_REPS):
            start = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return sorted(times)[REFERENCE_REPS // 2]


def reference_s(jobs: int) -> float:
    """Median time of ``REFERENCE_REPS`` reference loops, with the cyclic
    collector off so the heap the sweep left behind does not count.  With
    ``jobs`` > 1 the loops run in that many processes at once, on the cores
    the sweep's pool workers use, and the mean of their medians is taken."""
    if jobs == 1:
        return _reference_median()
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(jobs) as pool:
        return sum(pool.map(_reference_median, range(jobs))) / jobs


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    from heckebranch import SweepConfig, levi_view, root_datum, run_sweep

    levi_view(root_datum(spec["cartan_type"]), spec["levi"])
    out: dict = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    out["ref_before_s"] = reference_s(spec["jobs"])
    if spec["setup_only"]:
        return out

    config = SweepConfig(spec["cartan_type"], tuple(spec["levi"]),
                         spec["max_height"], tuple(spec["checks"]),
                         jobs=spec["jobs"], seed=spec["seed"],
                         semigroup_samples=spec["semigroup_samples"])
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    report = run_sweep(config)
    sweep_s = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    out["ref_after_s"] = reference_s(spec["jobs"])

    summary = report["summary"]
    self_cpu = _cpu_s(self1) - _cpu_s(self0)
    kids_cpu = _cpu_s(kids1) - _cpu_s(kids0)
    out.update({
        "sweep_s": sweep_s,
        "cpu_s": self_cpu + kids_cpu,
        # ru_maxrss is in KiB on Linux; pool workers are reaped by run_sweep
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "digest": report_digest(report),
        "pass": summary["pass"],
        "fail": summary["fail"],
        "skipped": summary["skipped"],
    })
    if tracer is not None:
        tracer.active = False
        layers = tracer.layer_metrics()
        # with a pool the workers run the tasks; without one the parent does
        worker_cpu = kids_cpu if config.jobs > 1 else self_cpu
        layers["harness.pool.efficiency"] = worker_cpu / (config.jobs * sweep_s)
        out["layers"] = layers
        tracer.write_spans(spec["spans_path"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
