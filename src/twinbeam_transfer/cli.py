"""Command line interface: run, sweep, fock, selftest.

Batch operation only. Exit codes: 0 success, 2 configuration or validation
error, 3 insufficient statistics (the selection kept too few events), 4 I/O
error, 1 selftest disagreement.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    EmptySelectionError,
    EstimationError,
    TwinBeamError,
    ValidationError,
)
from .oracle import JointFockDistribution, fock_transfer
from .scenario import (
    SWEEP_COLUMNS,
    ScenarioConfig,
    load_config,
    run_scenario,
    run_selftest,
    run_sweep,
)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_CONFIG = 2
EXIT_STATS = 3
EXIT_IO = 4


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinbeam-transfer",
        description="Conditional quantum-correlation transfer simulator")
    parser.add_argument("--version", action="version",
                        version=f"twinbeam-transfer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one paired acquisition (conditioned + "
                                     "unconditioned) with oracle overlay")
    sweep = sub.add_parser("sweep", help="one row per value of the config's sweep axis")
    for cmd in (run, sweep):
        cmd.add_argument("--config", type=Path, default=None,
                         help="JSON scenario config (defaults used when omitted)")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument("--points", type=int, default=None,
                         help="override config n_points")
        cmd.add_argument("--engine", choices=["direct", "chain"], default=None,
                         help="override config engine")
        cmd.add_argument("--out", type=Path, default=None,
                         help="directory for output files")
        cmd.add_argument("--workers", type=_positive_int, default=1,
                         help="parallel workers, >= 1 (results are identical for any count)")

    fock = sub.add_parser("fock", help="ideal photon-number transfer on a supplied "
                                       "joint-distribution file")
    fock.add_argument("--config", type=Path, required=True,
                      help='JSON file with keys "p1" and "p2": joint (signal, idler) '
                           "probability matrices")
    fock.add_argument("--out", type=Path, default=None,
                      help="directory for fock.json (stdout when omitted)")

    selftest = sub.add_parser("selftest", help="randomized closed-form vs Monte Carlo "
                                               "agreement check")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--points", type=int, default=1_000_000,
                          help="samples per case")
    selftest.add_argument("--cases", type=int, default=8)

    return parser


def _load_scenario(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config is not None else ScenarioConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.points is not None:
        overrides["n_points"] = args.points
    if args.engine is not None:
        overrides["engine"] = args.engine
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _print_report(label: str, report) -> None:
    print(f"{label}: {report.squeezing_db:+.2f} dB "
          f"[{report.ci_low_db:+.2f}, {report.ci_high_db:+.2f}] "
          f"kept {report.kept_count} "
          f"(probability {report.preparation_probability:.3e})")


def _cmd_run(args) -> int:
    cfg = _load_scenario(args)
    result = run_scenario(cfg, out_dir=args.out, workers=args.workers)
    _print_report("conditioned  ", result.conditioned)
    _print_report("unconditioned", result.unconditioned)
    print(f"oracle       : {result.oracle.transferred_db:+.2f} dB "
          f"(probability {result.oracle.selection_probability:.3e})")
    if args.out is not None:
        print(f"wrote report.json, scatter and histogram files to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_scenario(args)
    rows = run_sweep(cfg, out_dir=args.out, workers=args.workers)
    if args.out is None:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in SWEEP_COLUMNS])
        sys.stdout.write(buffer.getvalue())
    else:
        failed = sum(1 for row in rows if row["error"])
        print(f"wrote sweep.csv ({len(rows)} rows, {failed} failed) to {args.out}")
    return EXIT_OK


def _load_fock_input(path: Path) -> tuple[JointFockDistribution, JointFockDistribution]:
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path} must hold an object with keys 'p1' and 'p2'")
    unknown = sorted(set(data) - {"p1", "p2"})
    if unknown:
        raise ValidationError(f"unknown key(s) {unknown} in {path}; expected 'p1', 'p2'")
    if "p1" not in data or "p2" not in data:
        raise ValidationError(f"{path} must supply both 'p1' and 'p2'")
    return (JointFockDistribution(np.asarray(data["p1"], dtype=float)),
            JointFockDistribution(np.asarray(data["p2"], dtype=float)))


def _cmd_fock(args) -> int:
    p1, p2 = _load_fock_input(args.config)
    joint, acceptance = fock_transfer(p1, p2)
    payload = {
        "version": __version__,
        "acceptance_probability": acceptance,
        "diagonal": joint.is_diagonal(),
        "joint": joint.matrix.tolist(),
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "fock.json").write_text(text)
        print(f"wrote fock.json to {args.out}")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = run_selftest(seed=args.seed, points=args.points, cases=args.cases)
    for row in results:
        status = "ok  " if row["ok"] else "FAIL"
        print(f"case {row['case']}: {status} S={row['squeezing_db']:5.2f} dB "
              f"V+={row['v_plus']:9.2f} dI={row['bandwidth_delta']:6.4f} "
              f"mc={row['mc_db']:+.3f} oracle={row['oracle_db']:+.3f} "
              f"se={row['se_db']:.3f} kept={row['kept_count']}")
    if all(row["ok"] for row in results):
        print(f"selftest PASS ({len(results)} cases)")
        return EXIT_OK
    failed = sum(1 for row in results if not row["ok"])
    print(f"selftest FAIL ({failed} of {len(results)} cases)")
    return EXIT_SELFTEST


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep,
                "fock": _cmd_fock, "selftest": _cmd_selftest}
    try:
        return handlers[args.command](args)
    except (EmptySelectionError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATS
    except TwinBeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
