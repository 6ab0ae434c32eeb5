"""Command line interface.

Two subcommands:

* ``verify`` runs a configured sweep of identity and property checks and
  optionally writes the JSON report.
* ``compute`` evaluates a single quantity (branching multiplicity, tensor
  multiplicity, product structure constant, or constant-term coefficient)
  for one instance.

Exit status: 0 when no check failed (``verify`` counts a check SKIPPED at a
cap as no failure), 1 when a check failed or ``compute`` exceeded a
feasibility cap, 2 for configuration or domain errors, 3 when an internal
invariant failed (a bug in this package, not in the input).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Optional, Sequence

from .characters import branch_multiplicity, tensor_multiplicity
from .errors import ConfigurationError, DomainError, FeasibilityError
from .harness import CHECK_NAMES, SweepConfig, run_sweep
from .hecke import LaurentPoly, constant_term_coefficient, structure_constant
from .parabolic import minimal_offset
from .rootdata import (
    dual_star,
    levi_view,
    parse_coweight,
    root_datum,
    vec_add,
)


def _parse_levi(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "none"):
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ConfigurationError(f"cannot parse Levi subset {text!r}")
    if len(set(parts)) != len(parts):
        raise ConfigurationError("Levi subset has repeated indices")
    return tuple(sorted(parts))


def _parse_checks(text: str) -> tuple[str, ...]:
    text = text.strip()
    if text == "all":
        return CHECK_NAMES
    if text in ("", "none"):
        return ()
    return tuple(dict.fromkeys(p.strip() for p in text.split(",")))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckebranch",
        description="Exact checks for branching multiplicities, tensor "
                    "multiplicities, and spherical Hecke structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run a sweep of checks")
    ver.add_argument("--type", required=True, dest="cartan_type",
                     help="Cartan type, e.g. A2, B3, G2")
    ver.add_argument("--levi", required=True,
                     help="comma separated 1-based simple root indices of the "
                          "Levi subset, or 'none'")
    ver.add_argument("--max-height", required=True, type=int,
                     help="bound on the pairing of mu with the half sum of "
                          "positive roots")
    ver.add_argument("--checks", default="all",
                     help="comma separated subset of: "
                          + ",".join(CHECK_NAMES) + " (or 'all')")
    ver.add_argument("--out", default=None, help="path for the JSON report")
    default = SweepConfig._field_defaults
    ver.add_argument("--jobs", type=int, default=default["jobs"],
                     help="processes, this one included (1 = serial)")
    ver.add_argument("--seed", type=int, default=default["seed"],
                     help="seed for the randomized semigroup sampling")
    ver.add_argument("--semigroup-samples", type=int,
                     default=default["semigroup_samples"],
                     dest="semigroup_samples",
                     help="random pairs drawn by the semigroup check")

    comp = sub.add_parser("compute", help="evaluate a single quantity")
    comp.add_argument("quantity", choices=("r", "n", "m", "c"),
                      help="r: branching multiplicity of lambda at mu; "
                           "n: tensor multiplicity of nu in (nu+lambda) "
                           "tensor dual(mu); m: product structure constant "
                           "at nu for (nu+lambda, dual(mu)); c: constant-term "
                           "coefficient of lambda at mu")
    comp.add_argument("--type", required=True, dest="cartan_type")
    comp.add_argument("--levi", required=True)
    comp.add_argument("--mu", required=True, help="comma separated coordinates")
    comp.add_argument("--lambda", required=True, dest="lam",
                      help="comma separated coordinates")
    comp.add_argument("--nu", default="auto",
                      help="comma separated coordinates, or 'auto' for the "
                           "minimal valid offset (used by n and m)")
    comp.add_argument("--json", action="store_true",
                      help="print the value as JSON")
    return parser


def _cmd_verify(args) -> int:
    config = SweepConfig(
        cartan_type=args.cartan_type,
        levi=_parse_levi(args.levi),
        max_height=args.max_height,
        checks=_parse_checks(args.checks),
        jobs=args.jobs,
        seed=args.seed,
        semigroup_samples=args.semigroup_samples,
    )
    report = run_sweep(config)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    # (check, verdict) -> count
    counts = Counter((name, verdict)
                     for rec in report["per_mu"] + report["instances"]
                     for name, verdict in rec["checks"].items())
    counts.update((name, report[name]["verdict"])
                  for name in ("semigroup", "saturation") if report[name])
    print(f"{config.cartan_type} levi={list(config.levi)} "
          f"max_height={config.max_height}: "
          f"{report['instance_count']} instances")
    for name in CHECK_NAMES:
        if any(n == name for n, _ in counts):
            print(f"  {name}: {counts[name, 'PASS']} pass, "
                  f"{counts[name, 'FAIL']} fail, "
                  f"{counts[name, 'SKIPPED']} skipped")
    s = report["summary"]
    print(f"summary: pass={s['pass']} fail={s['fail']} "
          f"skipped={s['skipped']} "
          f"m_nonneg_violations={s['m_nonneg_violations']}")
    return 1 if s["fail"] > 0 else 0


def _cmd_compute(args) -> int:
    datum = root_datum(args.cartan_type)
    levi = levi_view(datum, _parse_levi(args.levi))
    mu = parse_coweight(args.mu, datum.rank)
    lam = parse_coweight(args.lam, datum.rank)
    if args.quantity in ("n", "m"):
        if args.nu == "auto":
            nu = minimal_offset(datum, levi, mu)
        else:
            nu = parse_coweight(args.nu, datum.rank)
        alpha = vec_add(nu, lam)
        mustar = dual_star(datum, mu)
    if args.quantity == "r":
        value = branch_multiplicity(datum, levi, mu, lam)
    elif args.quantity == "n":
        value = tensor_multiplicity(datum, alpha, mustar, nu)
    elif args.quantity == "m":
        value = structure_constant(datum, alpha, mustar, nu)
    else:
        value = constant_term_coefficient(datum, levi, mu, lam)
    poly = isinstance(value, LaurentPoly)
    if args.json:
        print(json.dumps(value.to_json() if poly else value, sort_keys=True))
    else:
        print(repr(value) if poly else value)
    return 0


_COORDINATE_OPTIONS = ("--mu", "--lambda", "--nu")


def _attach_negative_coordinates(argv: Sequence[str]) -> list[str]:
    """``--mu -1,2`` as ``--mu=-1,2``: argparse reads a value that starts
    with a minus sign and is not a single number as an option, so a
    coordinate list with a negative first entry is attached to its option."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in _COORDINATE_OPTIONS and len(arg) > 1
                and arg[0] == "-" and arg[1].isdigit()):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_coordinates(
        sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_compute(args)
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
