"""Command line behaviour: outputs, report files, and exit codes."""

import json
import os
import subprocess
import sys

import pytest

from heckebranch import characters, cli, hecke
from heckebranch.cli import main
from heckebranch.harness import CHECK_NAMES, SweepConfig, run_sweep


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        ["verify", "--type", "A2", "--levi", "1", "--max-height", "2",
         "--checks", "all", "--out", str(out), "--jobs", "2"], capsys)
    assert code == 0
    assert "34 instances" in stdout
    assert "summary: pass=" in stdout
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["summary"]["fail"] == 0
    assert report["config"]["cartan_type"] == "A2"


def test_verify_defaults_are_the_sweep_config_defaults(tmp_path, monkeypatch,
                                                      capsys):
    # with no optional flag, verify runs SweepConfig's own defaults
    seen = []
    monkeypatch.setattr(cli, "run_sweep",
                        lambda config: seen.append(config) or run_sweep(config))
    out = tmp_path / "report.json"
    code, _, _ = run_cli(["verify", "--type", "A2", "--levi", "1",
                          "--max-height", "2", "--out", str(out)], capsys)
    assert code == 0
    config = SweepConfig("A2", (1,), 2, CHECK_NAMES)
    assert seen == [config]
    assert json.loads(out.read_text())["config"] == run_sweep(config)["config"]


def test_verify_takes_no_evaluation_points_or_stretch_bound(capsys):
    with pytest.raises(SystemExit) as done:
        main(["verify", "--help"])
    assert done.value.code == 0
    usage = capsys.readouterr().out
    assert "--semigroup-samples" in usage
    assert "--q-points" not in usage and "--n-max" not in usage


def test_verify_subset_of_checks(capsys):
    code, stdout, _ = run_cli(
        ["verify", "--type", "A1", "--levi", "none", "--max-height", "1",
         "--checks", "product_identity,degrees"], capsys)
    assert code == 0
    assert "product_identity:" in stdout
    assert "crystal:" not in stdout


def test_verify_empty_checks(capsys):
    code, stdout, _ = run_cli(
        ["verify", "--type", "B2", "--levi", "2", "--max-height", "3",
         "--checks", "none"], capsys)
    assert code == 0
    assert "0 instances" in stdout


def test_verify_rejects_unknown_type(capsys):
    code, _, stderr = run_cli(
        ["verify", "--type", "Z9", "--levi", "none", "--max-height", "1"],
        capsys)
    assert code == 2
    assert "unsupported type" in stderr


def test_verify_rejects_unknown_check(capsys):
    code, _, stderr = run_cli(
        ["verify", "--type", "A1", "--levi", "none", "--max-height", "1",
         "--checks", "bogus"], capsys)
    assert code == 2
    assert "unknown checks" in stderr


def test_verify_rejects_repeated_levi_and_empty_samples(capsys):
    for extra, message in ((["--levi", "1,1"], "repeated indices"),
                           (["--levi", "1", "--semigroup-samples", "-5"],
                            "semigroup_samples"),
                           (["--levi", "1", "--semigroup-samples", "0"],
                            "semigroup_samples")):
        code, stdout, stderr = run_cli(
            ["verify", "--type", "A2", "--max-height", "1", *extra], capsys)
        assert code == 2, extra
        assert message in stderr
        assert stdout == ""


@pytest.mark.parametrize("option,value,message", [
    ("--levi", "1,x", "cannot parse Levi subset '1,x'"),
])
def test_verify_rejects_unparsable_integer_lists(capsys, option, value,
                                                 message):
    code, stdout, stderr = run_cli(
        ["verify", "--type", "A2", "--max-height", "1", option, value], capsys)
    assert code == 2
    assert message in stderr
    assert stdout == ""


def test_compute_r(capsys):
    code, stdout, _ = run_cli(
        ["compute", "r", "--type", "A2", "--levi", "1",
         "--mu", "1,1", "--lambda", "1,1"], capsys)
    assert code == 0
    assert stdout.strip() == "1"


def test_compute_c(capsys):
    code, stdout, _ = run_cli(
        ["compute", "c", "--type", "A2", "--levi", "none",
         "--mu", "1,0", "--lambda", "1,0"], capsys)
    assert code == 0
    assert stdout.strip() == "1*v^2"
    code, stdout, _ = run_cli(
        ["compute", "c", "--type", "A2", "--levi", "1",
         "--mu", "1,0", "--lambda", "1,0"], capsys)
    assert code == 0
    assert stdout.strip() == "1*v^1"


def test_compute_m_and_n_with_auto_offset(capsys):
    code, stdout, _ = run_cli(
        ["compute", "m", "--type", "A1", "--levi", "none",
         "--mu", "1", "--lambda", "1", "--nu", "auto"], capsys)
    assert code == 0
    assert stdout.strip() == "1*v^2"
    code, stdout, _ = run_cli(
        ["compute", "n", "--type", "A1", "--levi", "none",
         "--mu", "1", "--lambda", "-1"], capsys)
    assert code == 0
    assert stdout.strip() == "1"


def test_compute_m_off_the_coroot_lattice_expands_nothing(capsys):
    # mu - lambda is off the coroot lattice, so alpha + beta is not at or
    # above gamma and m is zero before any Hall-Littlewood polynomial is built
    hecke._hl_characters.cache_clear()
    code, stdout, _ = run_cli(
        ["compute", "m", "--type", "A5", "--levi", "1",
         "--mu", "1,1,1,1,1", "--lambda", "0,0,0,0,0"], capsys)
    assert code == 0
    assert stdout.strip() == "0"
    assert hecke._hl_characters.cache_info().misses == 0


def test_compute_over_the_cap_exits_1(monkeypatch, capsys):
    # the caps are checked on cache misses only, so start from empty caches
    monkeypatch.setattr(characters, "DIMENSION_CAP", 1)
    for fn in (*vars(characters).values(), *vars(hecke).values()):
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    code, stdout, stderr = run_cli(
        ["compute", "c", "--type", "B3", "--levi", "1",
         "--mu", "1,0,1", "--lambda", "0,0,0"], capsys)
    assert (code, stdout) == (1, "")
    assert stderr == ("error: module of dimension 70 at highest weight "
                      "(1, 0, 1) exceeds the cap\n")


def test_compute_json_output(capsys):
    code, stdout, _ = run_cli(
        ["compute", "c", "--type", "A1", "--levi", "none",
         "--mu", "2", "--lambda", "0", "--json"], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert data == {"exponents_of_v": {"0": -1, "2": 1}}


def test_compute_explicit_offset(capsys):
    code, stdout, _ = run_cli(
        ["compute", "m", "--type", "A2", "--levi", "1",
         "--mu", "1,1", "--lambda", "0,0", "--nu", "0,2"], capsys)
    assert code == 0
    assert stdout.strip() != ""


def test_compute_bad_coweight(capsys):
    code, _, stderr = run_cli(
        ["compute", "r", "--type", "A2", "--levi", "1",
         "--mu", "1,1,1", "--lambda", "0,0"], capsys)
    assert code == 2
    assert "coordinates" in stderr


def test_compute_nondominant_mu(capsys):
    # equals syntax carries leading-dash coordinate values through argparse
    code, _, stderr = run_cli(
        ["compute", "c", "--type", "A2", "--levi", "1",
         "--mu=-1,0", "--lambda", "0,0"], capsys)
    assert code == 2
    assert "not dominant" in stderr


def test_compute_negative_lambda(capsys):
    code, stdout, _ = run_cli(
        ["compute", "r", "--type", "A2", "--levi", "1",
         "--mu", "1,1", "--lambda=2,-1"], capsys)
    assert code == 0
    assert stdout.strip() == "1"


@pytest.mark.parametrize("spaced", [True, False])
def test_compute_coordinates_with_a_negative_first_entry(capsys, spaced):
    def options(**values):
        out = []
        for name, value in values.items():
            out += [f"--{name}", value] if spaced else [f"--{name}={value}"]
        return out

    code, stdout, _ = run_cli(
        ["compute", "c", "--type", "A2", "--levi", "none",
         *options(mu="1,1", **{"lambda": "-1,2"})], capsys)
    assert (code, stdout.strip()) == (0, "1*v^4")
    code, _, stderr = run_cli(
        ["compute", "c", "--type", "A2", "--levi", "1",
         *options(mu="-1,0", **{"lambda": "0,0"})], capsys)
    assert code == 2
    assert "not dominant" in stderr
    # nu = (-1, 3) makes nu + lambda = (0, 2) dominant; nu itself is not,
    # so it is no constituent of the tensor product
    code, stdout, _ = run_cli(
        ["compute", "n", "--type", "A2", "--levi", "2",
         *options(mu="1,1", **{"lambda": "1,-1", "nu": "-1,3"})], capsys)
    assert (code, stdout.strip()) == (0, "0")


def test_compute_option_without_a_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "c", "--type", "A2", "--levi", "none",
              "--mu", "--lambda", "0,0"])
    assert exc.value.code == 2
    assert "argument --mu: expected one argument" in capsys.readouterr().err


def test_package_runs_as_a_module():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "heckebranch", "compute", "r", "--type",
         "A2", "--levi", "2", "--mu", "1,1", "--lambda", "-1,2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout.strip()) == (0, "1")


def test_console_script_installed():
    # the child imports the package this test imported, installed or not
    src = os.path.dirname(os.path.dirname(characters.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "heckebranch.cli", "compute", "r", "--type",
         "A1", "--levi", "none", "--mu", "2", "--lambda", "0"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def test_internal_error_exit_status(monkeypatch, capsys):
    # a weight table that is not a character restricts to a negative
    # multiplicity: (-2, 0) straightens to -1 times the Levi character (0, -1)
    monkeypatch.setattr(characters, "weight_table",
                        lambda view, mu: {(-2, 0): 1})
    # an earlier test's cached restriction would skip the straightening
    characters._restrict.cache_clear()
    code, stdout, stderr = run_cli(
        ["compute", "r", "--type", "A2", "--levi", "1",
         "--mu", "1,1", "--lambda", "1,1"], capsys)
    assert code == 3
    assert stdout == ""
    assert stderr.startswith("internal error: ")
    assert "negative multiplicity" in stderr
