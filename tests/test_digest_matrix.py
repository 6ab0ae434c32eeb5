"""The digest matrix: every supported type at height 3, with Levi {1}, Levi
{r} and the torus, all checks.  Each report's SHA-256, taken as
``perfbench/child.py`` takes it (canonical JSON without its *_ms fields), is
recorded in ``digest_matrix.json``; a refactor that moves no value passes
unedited.  A change that means to move a value re-records the file with

    PYTHONPATH=src python tests/test_digest_matrix.py

and names each moved entry in its change log."""

import hashlib
import json
from pathlib import Path

import pytest

from heckebranch import rootdata
from heckebranch.harness import CHECK_NAMES, SweepConfig, run_sweep

MATRIX = Path(__file__).with_name("digest_matrix.json")
HEIGHT = 3


def matrix_configs() -> list:
    """(type, Levi) of every supported type with Levi {1}, Levi {r} and the
    torus, in order; A1's {1} is its {r}."""
    out = []
    for letter, ranks in rootdata._SUPPORTED_RANKS.items():
        for rank in ranks:
            for levi in dict.fromkeys([(1,), (rank,), ()]):
                out.append((f"{letter}{rank}", levi))
    return out


def digest(type_str: str, levi: tuple) -> str:
    report = run_sweep(SweepConfig(type_str, levi, HEIGHT, CHECK_NAMES))
    blob = json.dumps(_strip(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if not k.endswith("_ms")}
    if isinstance(obj, list):
        return [_strip(x) for x in obj]
    return obj


def _recorded() -> dict:
    return {(e["type"], tuple(e["levi"])): e["digest"]
            for e in json.loads(MATRIX.read_text())["sweeps"]}


def test_the_matrix_covers_every_supported_type():
    assert list(_recorded()) == matrix_configs()
    assert json.loads(MATRIX.read_text())["max_height"] == HEIGHT
    assert len(matrix_configs()) == 53


@pytest.mark.parametrize("type_str,levi", matrix_configs(),
                         ids=[f"{t}-{''.join(map(str, l)) or 'torus'}"
                              for t, l in matrix_configs()])
def test_an_all_check_sweep_keeps_its_recorded_digest(type_str, levi):
    assert digest(type_str, levi) == _recorded()[type_str, levi]


if __name__ == "__main__":
    sweeps = [{"type": t, "levi": list(l), "digest": digest(t, l)}
              for t, l in matrix_configs()]
    MATRIX.write_text(f'{{"max_height": {HEIGHT}, "sweeps": [\n'
                      + ",\n".join(map(json.dumps, sweeps)) + "\n]}\n")
