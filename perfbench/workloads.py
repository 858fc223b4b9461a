"""The benchmark workloads: CLI arguments, input size and output checks.

Every workload runs the headline physics of the paper (7 dB twin-beam
squeezing per pair, 20 dB excess sum noise) through the public CLI with a
generated config file, so that the inputs do not depend on the package's
defaults. The workload seed goes to the CLI as ``--seed``.

Output checks. Each repetition passes only if
- the CLI exits with code 0;
- the expected output files exist with the expected row counts;
- every conditioned Monte Carlo result sits within ``PULL_BOUND`` standard
  errors of the closed-form oracle, and every kept count within
  ``PULL_BOUND`` binomial standard deviations of the oracle's selection
  probability. For a Gaussian pull the two-sided false-alarm rate is
  5.7e-7 per check: at most 1.2e-5 per run on the sweep, which makes 20
  such checks (all repetitions of a run share one seed, so they repeat the
  same checks);
- the outputs are the same in every repetition of a run (one config and
  seed give bit-identical results for any worker count).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

PULL_BOUND = 5.0

_PAIR = {"squeezing_db": 7.0, "excess_sum_db": 20.0}
_HEADLINE = {"pair1": _PAIR, "pair2": _PAIR, "selection": {"bandwidth_delta": 0.03},
             "setting": "twin_beams_0deg", "scatter_points": 20_000}

_RUN_FILES = ("report.json", "scatter_conditioned.csv", "scatter_unconditioned.csv",
              "histogram_conditioned.csv", "histogram_unconditioned.csv")

_SWEEP_AXIS = {"parameter": "squeezing_db", "minimum": 0.5, "maximum": 12.0,
               "steps": 10, "scale": "linear"}


@dataclass
class Checked:
    """What the output checks found in one repetition."""

    problems: list[str] = field(default_factory=list)
    pull_sigma: float = math.nan
    count_pull_sigma: float = math.nan
    output_bytes: int = 0
    nonfinite_json: int = 0
    digest: str = ""


def _pulls(mc_db, ci_low, ci_high, kept, n, oracle_db, oracle_p) -> tuple[float, float]:
    # the CLI reports a 68% interval, so its half-width is one standard error
    se = (ci_high - ci_low) / 2.0
    pull = (mc_db - oracle_db) / se
    count_pull = (kept - n * oracle_p) / math.sqrt(n * oracle_p * (1.0 - oracle_p))
    return pull, count_pull


def _check_pulls(checked: Checked, label: str, pull: float, count_pull: float) -> None:
    for name, value in (("pull", pull), ("count pull", count_pull)):
        if not abs(value) <= PULL_BOUND:
            checked.problems.append(f"{label}: {name} {value:+.2f} sigma exceeds "
                                    f"{PULL_BOUND} sigma")


def _csv_rows(path: Path) -> list[list[str]]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return list(csv.reader(lines))[1:]


_REPORT_LINE = re.compile(r"^(conditioned|unconditioned)\s*: ([+-]\d+\.\d+) dB "
                          r"\[([+-]\d+\.\d+), ([+-]\d+\.\d+)\] kept (\d+)", re.M)
_ORACLE_LINE = re.compile(r"^oracle\s*: ([+-]\d+\.\d+) dB \(probability (\S+)\)", re.M)


def _check_run(checked: Checked, n: int, stdout: str, out: Path | None) -> None:
    """The report of ``run``: from report.json when written, else from stdout."""
    if out is None:
        reports = {m[1]: (float(m[2]), float(m[3]), float(m[4]), int(m[5]))
                   for m in _REPORT_LINE.finditer(stdout)}
        oracle = _ORACLE_LINE.search(stdout)
        if set(reports) != {"conditioned", "unconditioned"} or oracle is None:
            checked.problems.append("stdout lacks the conditioned/unconditioned/oracle lines")
            return
        oracle_db, oracle_p = float(oracle[1]), float(oracle[2])
    else:
        names = sorted(p.name for p in out.iterdir())
        if names != sorted(_RUN_FILES):
            checked.problems.append(f"output files {names}, expected {sorted(_RUN_FILES)}")
            return

        def count_nonfinite(literal):
            checked.nonfinite_json += 1
            return float(literal)

        report = json.loads((out / "report.json").read_text(),
                            parse_constant=count_nonfinite)
        reports = {key: (report[key]["squeezing_db"], report[key]["ci_low_db"],
                         report[key]["ci_high_db"], report[key]["kept_count"])
                   for key in ("conditioned", "unconditioned")}
        oracle_db = report["oracle"]["transferred_db"]
        oracle_p = report["oracle"]["selection_probability"]
        kept = reports["conditioned"][3]
        scatter = report["config"]["scatter_points"]
        expected_rows = {"scatter_conditioned.csv": min(kept, scatter),
                         "scatter_unconditioned.csv": min(n, scatter)}
        for name, rows in expected_rows.items():
            if len(_csv_rows(out / name)) != rows:
                checked.problems.append(f"{name}: expected {rows} rows")
        for name, total in (("histogram_conditioned.csv", kept),
                            ("histogram_unconditioned.csv", n)):
            if sum(int(row[2]) for row in _csv_rows(out / name)) != total:
                checked.problems.append(f"{name}: counts do not sum to {total}")

    if reports["unconditioned"][3] != n:
        checked.problems.append(f"unconditioned kept {reports['unconditioned'][3]}, "
                                f"expected all {n} events")
    checked.pull_sigma, checked.count_pull_sigma = _pulls(
        *reports["conditioned"], n, oracle_db, oracle_p)
    _check_pulls(checked, "conditioned", checked.pull_sigma, checked.count_pull_sigma)


def _check_sweep(checked: Checked, n: int, stdout: str, out: Path | None) -> None:
    names = sorted(p.name for p in out.iterdir())
    if names != ["sweep.csv"]:
        checked.problems.append(f"output files {names}, expected ['sweep.csv']")
        return
    lines = [line for line in (out / "sweep.csv").read_text().splitlines()
             if not line.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    steps = _SWEEP_AXIS["steps"]
    if len(rows) != steps:
        checked.problems.append(f"sweep.csv has {len(rows)} rows, expected {steps}")
        return
    worst = (0.0, 0.0)
    for index, row in enumerate(rows):
        label = f"row {index}"
        if row["error"]:
            checked.problems.append(f"{label}: error {row['error']!r}")
            continue
        step = (_SWEEP_AXIS["maximum"] - _SWEEP_AXIS["minimum"]) / (steps - 1)
        if not math.isclose(float(row["axis_value"]), _SWEEP_AXIS["minimum"] + index * step):
            checked.problems.append(f"{label}: axis value {row['axis_value']}")
        pulls = _pulls(float(row["transferred_db"]), float(row["ci_low_db"]),
                       float(row["ci_high_db"]), int(row["kept_count"]), n,
                       float(row["oracle_transferred_db"]), float(row["oracle_probability"]))
        _check_pulls(checked, label, *pulls)
        worst = tuple(max(old, new, key=abs) for old, new in zip(worst, pulls))
    checked.pull_sigma, checked.count_pull_sigma = worst


@dataclass(frozen=True)
class Workload:
    """One CLI invocation, its input size and the check of its outputs."""

    name: str
    command: str
    config: dict
    options: tuple[str, ...]
    writes_files: bool
    n_points: int
    check_outputs: Callable[[Checked, int, str, Path | None], None]
    rows: int = 1

    @property
    def events(self) -> int:
        """Monte Carlo events per run: sampled rows or chain output points."""
        return self.n_points * self.rows

    def argv(self, config_path: Path, seed: int, out: Path | None) -> list[str]:
        args = [self.command, "--config", str(config_path), "--seed", str(seed),
                "--points", str(self.n_points), *self.options]
        return args + (["--out", str(out)] if out is not None else [])

    def check(self, exit_code, stdout: str, out: Path | None) -> Checked:
        checked = Checked()
        if exit_code != 0:
            checked.problems.append(f"exit code {exit_code}")
            return checked
        text = stdout.replace(str(out), "<out>") if out is not None else stdout
        digest = hashlib.sha256(text.encode())
        try:
            self.check_outputs(checked, self.n_points, stdout, out)
            for path in sorted(out.iterdir()) if out is not None else ():
                data = path.read_bytes()
                checked.output_bytes += len(data)
                digest.update(path.name.encode() + data)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checked.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        checked.digest = digest.hexdigest()
        return checked


WORKLOADS = {w.name: w for w in (
    # stats: the unconditioned percentile bootstrap over 1M events is almost
    # the whole run; the only workload that writes report.json and the CSVs
    Workload("direct-1m", "run", {**_HEADLINE, "engine": "direct"},
             ("--workers", "1"), True, n_points=1_000_000, check_outputs=_check_run),
    # dsp_chain: synthesis and demodulation of 4 x 25M wideband samples set
    # the time and the peak RSS; bypasses model.sample_batch
    Workload("chain-100k", "run", {**_HEADLINE, "engine": "chain"},
             ("--engine", "chain", "--workers", "1"), False, n_points=100_000,
             check_outputs=_check_run),
    # model.sample_batch on two threads: 10 rows x 3M events, ~3.4k kept a row
    Workload("sweep-squeezing", "sweep",
             {**_HEADLINE, "selection": {"bandwidth_delta": 0.01}, "engine": "direct",
              "sweep": _SWEEP_AXIS},
             ("--workers", "2"), True, n_points=3_000_000, check_outputs=_check_sweep,
             rows=_SWEEP_AXIS["steps"]),
)}
