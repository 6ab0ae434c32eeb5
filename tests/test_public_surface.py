"""The names other code looks up: the benchmark tracer's tables and the
README's library entry points; the argument checks at the public boundary,
which the sweep's records skip; and the modules a sweep loads."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import heckebranch
from heckebranch.characters import branch_multiplicity, tensor_multiplicity
from heckebranch.errors import DomainError
from heckebranch.hecke import (
    constant_term,
    constant_term_coefficient,
    orbit_size,
    structure_constant,
)
from heckebranch.littelmann import branch_path_set, tensor_path_set
from heckebranch.parabolic import minimal_offset
from heckebranch.rootdata import levi_view, root_datum

ROOT = Path(__file__).resolve().parents[1]


def _layertrace():
    # loaded by path and only read: the tracer wraps nothing until installed
    spec = importlib.util.spec_from_file_location(
        "_layertrace_tables", ROOT / "perfbench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _layertrace()
    missing = [f"{layer}.{name}"
               for table in (tracer.SPANNED, tracer.COUNTED)
               for layer, names in table.items() for name in names
               if not callable(getattr(importlib.import_module(
                   f"heckebranch.{layer}"), name, None))]
    assert missing == []


def test_readme_entry_points_are_exported():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library entry points", 1)[1]
    block = block.split("```python", 1)[1].split("```", 1)[0]
    imports = block.split("from heckebranch import (", 1)[1].split(")", 1)[0]
    names = re.findall(r"\w+", re.sub(r"#.*", "", imports))
    assert sorted(names) == sorted(heckebranch.__all__)
    assert all(hasattr(heckebranch, n) for n in heckebranch.__all__)


def test_readme_lists_the_supported_types():
    # "Supported Cartan types: `A1`-`A6`, ..., `G2`." names each letter's
    # ranks as one type or a range of them
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Supported Cartan types:(.*?)\.", readme, re.S)
    listed = {letter: list(range(int(lo), int(hi or lo) + 1))
              for letter, lo, hi in re.findall(
                  r"`([A-Z])(\d+)`(?:-`[A-Z](\d+)`)?", sentence.group(1))}
    assert listed == {letter: list(ranks) for letter, ranks
                      in heckebranch.rootdata._SUPPORTED_RANKS.items()}


def test_memos_are_cached_functions():
    # every memo is functools.cache on a private function, so the only
    # module-level container is a constant table
    containers = []
    for info in pkgutil.iter_modules(heckebranch.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"heckebranch.{info.name}")
        containers += [f"{info.name}.{name}"
                       for name, value in vars(module).items()
                       if not name.startswith("__")
                       and isinstance(value, (dict, list, set))]
    assert containers == ["rootdata._SUPPORTED_RANKS"]


def test_only_characters_names_the_dimension_cap():
    # the cap is tested once, by characters._check_cap where a module is
    # built; a name in the syntax tree counts, a docstring does not
    naming = set()
    for path in (ROOT / "src" / "heckebranch").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "DIMENSION_CAP":
                naming.add(path.stem)
    assert naming == {"characters"}


def _modules_after(code: str) -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_and_path_sweep_load_no_dataclasses_or_fractions():
    # a module the bare interpreter already loads at start-up says nothing
    # about the package
    heavy = {"dataclasses", "fractions"} - _modules_after("")
    loaded = _modules_after(
        "import heckebranch\n"
        "heckebranch.run_sweep(heckebranch.SweepConfig('A2', (1,), 2, "
        "('multiplicity_identity', 'crystal', 'hecke_paths')))")
    assert "heckebranch.harness" in loaded
    assert heavy & loaded == set()


def test_a_forked_sweep_loads_no_pickle_or_signal():
    # worker results travel as marshal data: pickle carries only a worker's
    # exception, and signal only kills workers after an error here
    heavy = {"pickle", "signal"} - _modules_after("")
    loaded = _modules_after(
        "import os, heckebranch\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "report = heckebranch.run_sweep(heckebranch.SweepConfig('A2', (1,), "
        "2, ('multiplicity_identity', 'degrees'), jobs=2))\n"
        "assert forks == [1] and report['summary']['fail'] == 0")
    assert heavy == {"pickle", "signal"}
    assert heavy & loaded == set()


_A2 = root_datum("A2")
_LEVI = levi_view(_A2, (1,))
# function -> dominant arguments, and the indices of the arguments it checks
_BOUNDARY = {
    structure_constant: ((_A2, (1, 0), (0, 1), (1, 1)), (1, 2)),
    tensor_multiplicity: ((_A2, (1, 0), (0, 1), (1, 1)), (1, 2)),
    branch_multiplicity: ((_A2, _LEVI, (1, 1), (1, 1)), (2,)),
    constant_term_coefficient: ((_A2, _LEVI, (1, 1), (1, 1)), (2,)),
    constant_term: ((_A2, _LEVI, (1, 1)), (2,)),
    # [1, -1] is dominant for the Levi {1}, so the view is the full one
    orbit_size: ((_A2, _A2.full, (1, 1)), (2,)),
    minimal_offset: ((_A2, _LEVI, (1, 1)), (2,)),
    branch_path_set: ((_A2, _LEVI, (1, 1), (1, 1)), (2,)),
    tensor_path_set: ((_A2, (1, 0), (0, 1), (1, 1)), (1, 2, 3)),
}
_CHECKED = [(fn, i) for fn, (_, indices) in _BOUNDARY.items()
            for i in indices]


@pytest.mark.parametrize(
    "fn,index", _CHECKED,
    ids=[f"{fn.__name__}-{list(inspect.signature(fn).parameters)[i]}"
         for fn, i in _CHECKED])
def test_a_public_function_rejects_a_non_dominant_argument(fn, index):
    # the sweep reads these values from kernels with the enumeration's
    # dominant tuples; the public functions keep checking their arguments
    args, _ = _BOUNDARY[fn]
    fn(*args)
    with pytest.raises(DomainError, match="dominant"):
        fn(*args[:index], [1, -1], *args[index + 1:])
