"""Benchmark-side tracing of heckebranch's layers.

The tracer wraps public functions of each layer module from outside the
package and rebinds every ``heckebranch.*`` module attribute that points at
the original, because ``harness`` and ``hecke`` bind names at import.  Each
wrapped call records one span (name, start, end, parent) in memory; the spans
are reduced to per-layer metrics and written out when the sweep ends.

Only the process that installs the tracer records spans.  Pool workers forked
from it keep the wrappers but record nothing, so at ``jobs > 1`` the spans
cover the parent's serial part only.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

# layer -> functions that get a span; the layer names are the package modules
SPANNED = {
    "rootdata": ("root_datum", "levi_view"),
    "characters": ("dominant_weights", "weight_table", "branch_decompose",
                   "tensor_decompose"),
    "littelmann": ("generate_crystal", "branch_path_set", "tensor_path_set",
                   "is_hecke_path"),
    "parabolic": ("offset_pair",),
    "hecke": ("hall_littlewood", "hecke_product", "satake_expand",
              "constant_term", "orbit_size"),
    "harness": ("run_sweep", "enumerate_instances"),
}
# functions too small and too frequent for a span: only their calls are counted
COUNTED = {"rootdata": ("rho_height",)}
# functions whose argument repeats are tracked
REPEATS = {
    "characters": ("dominant_weights", "weight_table", "branch_decompose",
                   "tensor_decompose"),
    "hecke": ("hall_littlewood", "hecke_product", "satake_expand"),
}


def _arg_key(value):
    """A hashable stand-in for one argument: root data and subsystem views by
    their identifying key, sequences as tuples."""
    if hasattr(value, "positive_coroots"):
        return getattr(value, "key", None) or value.cartan_type
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return value


class Tracer:
    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.repeats: dict[str, int] = {}
        self.pool_s = 0.0
        self.active = True

    def _spanned(self, name: str, fn, track_repeats: bool):
        spans, stack = self.spans, self._stack
        seen: set = set()   # argument keys already passed to fn
        self.repeats[name] = 0

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if track_repeats:
                key = tuple(_arg_key(a) for a in args)
                if key in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(key)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent)
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _timed_pool(self):
        tracer = self

        class TimedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                self._opened = time.perf_counter()
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.pool_s += time.perf_counter() - self._opened

        return TimedPool

    def install(self) -> None:
        """Wrap the traced functions in every loaded heckebranch module."""
        import heckebranch  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "heckebranch" or n.startswith("heckebranch.")]
        replacements = {}
        for layer, names in SPANNED.items():
            module = sys.modules[f"heckebranch.{layer}"]
            for fname in names:
                orig = getattr(module, fname)
                replacements[id(orig)] = self._spanned(
                    f"{layer}.{fname}", orig, fname in REPEATS.get(layer, ()))
        for layer, names in COUNTED.items():
            module = sys.modules[f"heckebranch.{layer}"]
            for fname in names:
                orig = getattr(module, fname)
                replacements[id(orig)] = self._counted(f"{layer}.{fname}", orig)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])
        harness = sys.modules["heckebranch.harness"]
        harness.ProcessPoolExecutor = self._timed_pool()
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.active = False

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls, inclusive seconds and repeat ratios, per-layer
        self seconds, and the harness split around the worker pool."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, float] = {}
        for layer, names in SPANNED.items():
            out[f"{layer}.self_s"] = 0.0
            for fname in names:
                out[f"{layer}.{fname}.calls"] = 0
                out[f"{layer}.{fname}.s"] = 0.0
        for idx, (name, start, end, parent) in enumerate(spans):
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] += 1
            out[f"{layer}.self_s"] += (end - start) - child_s[idx]
            # inclusive time counts only the outermost call of a recursion
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[f"{name}.s"] += end - start
        for name, n in self.counts.items():
            out[f"{name}.calls"] = n
        for layer, names in REPEATS.items():
            for fname in names:
                calls = out[f"{layer}.{fname}.calls"]
                out[f"{layer}.{fname}.repeat_ratio"] = (
                    self.repeats[f"{layer}.{fname}"] / calls if calls else 0.0)
        out["harness.serial_s"] = out["harness.run_sweep.s"] - self.pool_s
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
