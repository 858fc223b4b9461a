"""Benchmark of the twinbeam-transfer CLI.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each repetition of a workload runs
``twinbeam_transfer.cli.main(argv)`` in a fresh child interpreter, because a
CLI user pays the imports and the chain calibration (an in-process cache)
on every run. Repetitions go on until the next one would end more than
``--seconds`` after the start; there is at least one (two with ``--trace 1``:
one traced, one not). The set-up time is the median over the repetitions
and, when they are fewer than five, import-only children run after them.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json,
``--trace 1`` the per-layer metrics: traced and untraced repetitions
alternate, the traced ones record spans at the package's public functions
(see tracer.py), and ``trace.overhead_s`` is the traced minus the untraced
median wall time. Every value is the median over the repetitions of the
run. Every repetition's outputs are checked (see workloads.py); a
repetition whose checks fail counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files go to
``.perfbench_work/`` in the checkout; the spans of the last traced
repetition stay there as ``trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import WORKLOADS, Checked, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"

# set-up samples per run: the repetitions' own, topped up by import-only children
SETUP_SAMPLES = 5
# the whole invocation must end within 180 s
DEADLINE_S = 170.0


@dataclass
class Rep:
    """One child process: its timings and what the output checks found."""

    setup_s: float
    wall_s: float
    peak_rss_mb: float
    checked: Checked
    spans: list | None = None


def _spawn(args: list[str], result: Path, timeout: float):
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), str(result), *args],
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not result.exists():
        return None, proc.stdout, proc.stderr
    record = json.loads(result.read_text())
    result.unlink()
    record["setup_s"] = record["ready"] - start
    return record, proc.stdout, proc.stderr


def _probe(work: Path, timeout: float) -> float:
    record, _, stderr = _spawn(["-"], work / "probe.json", timeout)
    if record is None:
        raise RuntimeError(f"import-only child failed: {stderr.strip()}")
    return record["setup_s"]


def _repetition(workload: Workload, seed: int, work: Path, traced: bool,
                timeout: float) -> Rep:
    out = work / "out" if workload.writes_files else None
    if out is not None and out.exists():
        shutil.rmtree(out)
    spans_path = work / "spans.jsonl"
    argv = workload.argv(work / "config.json", seed, out)
    record, stdout, stderr = _spawn([str(spans_path) if traced else "-", *argv],
                                    work / "result.json", timeout)
    if record is None:
        checked = Checked(problems=[f"child failed: {stderr.strip()[-2000:]}"])
        return Rep(setup_s=float("nan"), wall_s=float("nan"), peak_rss_mb=float("nan"),
                   checked=checked)
    checked = workload.check(record["exit_code"], stdout, out)
    if checked.problems:
        print(f"{workload.name}: {'; '.join(checked.problems)}", file=sys.stderr)
        if stderr.strip():
            print(stderr.strip()[-2000:], file=sys.stderr)
    spans = None
    if traced:
        spans = tracer.read_spans(spans_path)
        shutil.copyfile(spans_path, WORK / f"trace-{workload.name}.jsonl")
    return Rep(setup_s=record["setup_s"], wall_s=record["wall_s"],
               peak_rss_mb=record["maxrss_kb"] / 1024.0, checked=checked, spans=spans)


def _median(values) -> float:
    values = [v for v in values if v == v]
    return statistics.median(values) if values else float("nan")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool):
    """Run one workload; return (attempted, failed, metrics by name)."""
    started = time.monotonic()
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        (work / "config.json").write_text(json.dumps(workload.config))

        def remaining():
            return DEADLINE_S - (time.monotonic() - started)

        reps: list[Rep] = []
        window_end = started + seconds
        longest = 0.0
        while True:
            rep_start = time.monotonic()
            reps.append(_repetition(workload, seed, work, trace and len(reps) % 2 == 1,
                                    remaining()))
            longest = max(longest, time.monotonic() - rep_start)
            # stop when the next repetition, as long as the longest so far,
            # would end after the window (or, below the minimum count, after
            # the deadline)
            enough = len(reps) >= (2 if trace else 1)
            if longest > (window_end - time.monotonic() if enough else remaining()):
                break
        setups = [rep.setup_s for rep in reps if rep.setup_s == rep.setup_s]
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(_probe(work, remaining()))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = {rep.checked.digest for rep in reps if not rep.checked.problems}
    if len(digests) > 1:
        for rep in reps:
            rep.checked.problems.append("outputs differ between repetitions of one seed")
        print(f"{workload.name}: outputs differ between repetitions", file=sys.stderr)
    failed = sum(1 for rep in reps if rep.checked.problems)

    plain = [rep for rep in reps if rep.spans is None]
    wall = _median(rep.wall_s for rep in plain)
    if not trace:
        metrics = {
            "wall_s": wall,
            "events_per_s": workload.events / wall,
            "peak_rss_mb": _median(rep.peak_rss_mb for rep in plain),
            "setup_s": _median(setups),
        }
        return len(reps), failed, metrics

    traced = [rep for rep in reps if rep.spans is not None]
    if not traced:
        raise RuntimeError(f"no traced repetition of {workload.name} fit in {DEADLINE_S} s")
    per_rep = [tracer.layer_metrics(rep.spans) for rep in traced]
    metrics = {name: _median(m[name] for m in per_rep) for name in per_rep[0]}
    last = next((rep.checked for rep in reversed(reps) if not rep.checked.problems),
                reps[-1].checked)
    metrics.update({
        "oracle.pull_sigma": last.pull_sigma,
        "oracle.count_pull_sigma": last.count_pull_sigma,
        "scenario.output_bytes": last.output_bytes,
        "scenario.nonfinite_json": last.nonfinite_json,
        "trace.overhead_s": _median(rep.wall_s for rep in traced) - wall,
    })
    return len(reps), failed, metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twinbeam_transfer" / "cli.py").is_file():
        print(f"no twinbeam_transfer package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    attempted = failed = 0
    metrics = {}
    for name in names:
        done, bad, measured = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                           bool(args.trace))
        if set(measured) != set(units):
            raise RuntimeError(f"measured {sorted(measured)}, declared {sorted(units)}")
        attempted += done
        failed += bad
        prefix = f"{name}." if len(names) > 1 else ""
        print(f"# {name}: {done} repetitions, {bad} failed")
        for metric, unit in units.items():
            value = measured[metric]
            print(f"{name:16s} {metric:42s} {value:14.6g} {unit}")
            # a metric of failed repetitions only is NaN: report it as null
            metrics[prefix + metric] = {"value": value if value == value else None,
                                        "unit": unit}
    print(f"# failed {failed} of {attempted} ({failed / attempted:.1%})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
