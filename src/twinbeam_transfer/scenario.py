"""Scenario orchestration: single runs, parameter sweeps, and the self-check.

A ScenarioConfig bundles everything one acquisition needs: the two pair
parameter sets, the measurement setting, the selection rule, sample count,
seed, and which engine generates the samples (direct Gaussian sampling or
the wideband detection chain of dsp_chain.simulate). run_scenario always
evaluates both the conditioned and the unconditioned statistics of the same
record, the way a paired acquisition would, and overlays the closed-form
prediction.

Everything here is deterministic per (config, seed): sweep row seeds derive
from (base seed, row index), so results do not depend on the worker count.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .dsp_chain import SignalChainConfig, simulate
from .errors import (
    ConfigurationError,
    InsufficientStatisticsError,
    TwinBeamError,
    ValidationError,
)
from .model import (
    MeasurementSetting,
    SampleBatch,
    TwinPairParams,
    _require_int,
    build_covariance,
    sample_batch,
)
from .oracle import TransferPrediction, predict_transfer
from .selection import (
    SelectionConfig,
    SelectionResult,
    conditional_statistics,
    derived_seed,
    select,
    unconditioned_statistics,
)
from .stats import Histogram, TransferReport, histogram

SWEEP_PARAMETERS = (
    "squeezing_db",
    "efficiency",
    "rotation_deg",
    "bandwidth_delta",
    "excess_sum_db",
)

ENGINES = ("direct", "chain")

# Peak memory one acquisition holds per event, for either engine: the (n, 4)
# float64 batch plus the copies selection and statistics make. Peak RSS grows
# by about 57 B per event for a direct run (1M to 16M events) and 45 B per
# chain point (1M to 3M points, beside a fixed ~100 MB of wideband blocks);
# rounded up. A sweep runs its rows one after another, so run, sweep and
# selftest each hold one batch at a time.
_BYTES_PER_EVENT = 64

# seed tags for the scatter subsample streams derived from the batch seed
_SCATTER_TAG_CONDITIONED = 0x5CA0
_SCATTER_TAG_UNCONDITIONED = 0x5CA1


def _reject_unknown(data: dict, known: tuple[str, ...], context: str) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {unknown} in {context}; known keys: {sorted(known)}")


def _build_strict(cls, data: Any, context: str):
    """Construct a dataclass from a plain dict, rejecting unknown keys and
    malformed values (wrong type, NaN for an integer, beyond int/float range)."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{context} must be an object, got {type(data).__name__}")
    names = tuple(f.name for f in dataclasses.fields(cls))
    _reject_unknown(data, names, context)
    try:
        return cls(**data)
    except TwinBeamError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"bad {context}: {exc}") from exc


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: name, range, step count, and spacing."""

    parameter: str
    minimum: float
    maximum: float
    steps: int
    scale: str = "linear"

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ConfigurationError(
                f"sweep parameter must be one of {SWEEP_PARAMETERS}, "
                f"got {self.parameter!r}")
        lo, hi = float(self.minimum), float(self.maximum)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValidationError(f"sweep range must be finite with minimum < maximum, "
                                  f"got [{self.minimum}, {self.maximum}]")
        object.__setattr__(self, "minimum", lo)
        object.__setattr__(self, "maximum", hi)
        object.__setattr__(self, "steps", _require_int("sweep steps", self.steps, 2))
        if self.scale not in ("linear", "log"):
            raise ConfigurationError(f"sweep scale must be 'linear' or 'log', "
                                     f"got {self.scale!r}")
        if self.scale == "log" and lo <= 0.0:
            raise ValidationError(f"log-scale sweep requires minimum > 0, got {lo}")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.minimum, self.maximum, self.steps)
        return np.linspace(self.minimum, self.maximum, self.steps)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one acquisition (or one sweep of acquisitions)."""

    pair1: TwinPairParams = TwinPairParams(squeezing_db=7.0)
    pair2: TwinPairParams = TwinPairParams(squeezing_db=7.0)
    setting: MeasurementSetting = MeasurementSetting.TWIN_BEAMS_0DEG
    selection: SelectionConfig = SelectionConfig(bandwidth_delta=0.03)
    n_points: int = 300_000
    seed: int = 0
    engine: str = "direct"
    signal_chain: SignalChainConfig = SignalChainConfig()
    sweep: SweepAxis | None = None
    scatter_points: int = 20_000

    def __post_init__(self):
        for name, cls in (("pair1", TwinPairParams), ("pair2", TwinPairParams),
                          ("selection", SelectionConfig),
                          ("signal_chain", SignalChainConfig)):
            if not isinstance(getattr(self, name), cls):
                raise ConfigurationError(f"{name} must be a {cls.__name__}")
        if not isinstance(self.setting, MeasurementSetting):
            raise ConfigurationError("setting must be a MeasurementSetting")
        if self.sweep is not None and not isinstance(self.sweep, SweepAxis):
            raise ConfigurationError("sweep must be a SweepAxis or None")
        if self.engine not in ENGINES:
            raise ConfigurationError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        for name, minimum in (("n_points", 2), ("scatter_points", 1), ("seed", 0)):
            object.__setattr__(self, name, _require_int(name, getattr(self, name), minimum))

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigurationError(f"config must be an object, got {type(data).__name__}")
        kwargs: dict[str, Any] = dict(data)
        for name in ("pair1", "pair2"):
            if name in kwargs:
                kwargs[name] = _build_strict(TwinPairParams, kwargs[name], name)
        if "setting" in kwargs:
            try:
                kwargs["setting"] = MeasurementSetting(kwargs["setting"])
            except ValueError as exc:
                raise ConfigurationError(
                    f"unknown setting {kwargs['setting']!r}; valid settings: "
                    f"{[s.value for s in MeasurementSetting]}") from exc
        if "selection" in kwargs:
            kwargs["selection"] = _build_strict(SelectionConfig, kwargs["selection"],
                                                "selection")
        if "signal_chain" in kwargs:
            kwargs["signal_chain"] = _build_strict(SignalChainConfig,
                                                   kwargs["signal_chain"], "signal_chain")
        if kwargs.get("sweep") is not None:
            kwargs["sweep"] = _build_strict(SweepAxis, kwargs["sweep"], "sweep")
        return _build_strict(cls, kwargs, "config")

    def to_dict(self) -> dict[str, Any]:
        return {**dataclasses.asdict(self), "setting": self.setting.value}

    def predict(self) -> TransferPrediction:
        """Closed-form conditioned noise and acceptance probability."""
        return predict_transfer(self.pair1, self.pair2, self.selection.bandwidth_delta,
                                self.setting)


def load_config(path) -> ScenarioConfig:
    """Parse a JSON config file into a ScenarioConfig, strictly."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    return ScenarioConfig.from_dict(data)


def _available_memory_bytes() -> int | None:
    """Memory available to new allocations without swapping, or None.

    Reads MemAvailable (free memory plus reclaimable page cache) from
    /proc/meminfo, falling back to the free physical pages where that file
    is absent, and to None where the platform reports neither.
    """
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(n_points: int) -> None:
    """Refuse, before any work starts, a batch that would not fit in memory.

    One batch of ``n_points`` events is held at a time, whether by a run, a
    sweep row or a selftest case. Raises ValidationError, rather than let
    the process be killed part way.
    """
    needed = n_points * _BYTES_PER_EVENT
    available = _available_memory_bytes()
    if available is None or needed <= available:
        return
    raise ValidationError(
        f"{n_points} points need about {needed / 1e9:.2f} GB but only "
        f"{available / 1e9:.2f} GB of memory is available; lower n_points "
        f"(--points) to at most {available // _BYTES_PER_EVENT}")


def generate_batch(cfg: ScenarioConfig, workers: int = 1) -> SampleBatch:
    """Produce the sample batch for a config through its chosen engine.

    ``workers`` threads draw the direct engine's chunks in parallel; the
    chain engine runs in one thread. The batch is the same for any count.
    """
    cov = build_covariance(cfg.pair1, cfg.pair2, cfg.setting)
    if cfg.engine == "direct":
        return sample_batch(cov, cfg.n_points, cfg.seed, workers=workers)
    return simulate(cov, cfg.signal_chain, cfg.n_points, cfg.seed)


def acquire(cfg: ScenarioConfig,
            workers: int = 1) -> tuple[SampleBatch, SelectionResult, TransferReport]:
    """Generate a record, post-select it, and estimate the conditioned noise.

    The one acquisition pipeline behind run, sweep and selftest.
    """
    batch = generate_batch(cfg, workers=workers)
    selected = select(batch, cfg.selection)
    return batch, selected, conditional_statistics(batch, selected, cfg.selection)


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one run produces, before any file is written."""

    conditioned: TransferReport
    unconditioned: TransferReport
    oracle: TransferPrediction
    conditioned_histogram: Histogram
    unconditioned_histogram: Histogram
    conditioned_scatter: np.ndarray
    unconditioned_scatter: np.ndarray
    config: ScenarioConfig


def _subsample(indices: np.ndarray, count: int, seed: int) -> np.ndarray:
    if indices.size <= count:
        return indices
    rng = np.random.Generator(np.random.Philox(seed))
    chosen = rng.choice(indices.size, size=count, replace=False)
    chosen.sort()
    return indices[chosen]


def run_scenario(cfg: ScenarioConfig, out_dir=None, workers: int = 1) -> ScenarioResult:
    """One paired acquisition: conditioned and unconditioned statistics.

    When out_dir is given, also writes scatter, histogram, and report files
    there (see _write_scenario_outputs for the exact set). Refuses, with a
    ValidationError, a run whose batch would not fit in available memory.
    """
    _check_memory(cfg.n_points)
    batch, selected, conditioned = acquire(cfg, workers=workers)
    difference = batch.i1 - batch.i2
    unconditioned = unconditioned_statistics(batch, difference, cfg.selection)
    prediction = cfg.predict()

    cond_hist = histogram(difference[selected.kept_indices])
    uncond_hist = histogram(difference)

    cond_idx = _subsample(selected.kept_indices, cfg.scatter_points,
                          derived_seed(batch.seed, _SCATTER_TAG_CONDITIONED))
    uncond_idx = _subsample(np.arange(batch.n), cfg.scatter_points,
                            derived_seed(batch.seed, _SCATTER_TAG_UNCONDITIONED))
    cond_scatter = np.column_stack([batch.i1[cond_idx], batch.i2[cond_idx]])
    uncond_scatter = np.column_stack([batch.i1[uncond_idx], batch.i2[uncond_idx]])

    result = ScenarioResult(
        conditioned=conditioned,
        unconditioned=unconditioned,
        oracle=prediction,
        conditioned_histogram=cond_hist,
        unconditioned_histogram=uncond_hist,
        conditioned_scatter=cond_scatter,
        unconditioned_scatter=uncond_scatter,
        config=cfg,
    )
    if out_dir is not None:
        _write_scenario_outputs(result, Path(out_dir))
    return result


def _comment_lines(cfg: ScenarioConfig) -> list[str]:
    compact = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return [f"twinbeam-transfer {__version__}", f"config: {compact}"]


def _write_csv(path: Path, comments: list[str], header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_scenario_outputs(result: ScenarioResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    comments = _comment_lines(cfg)

    for name, scatter in (("scatter_conditioned.csv", result.conditioned_scatter),
                          ("scatter_unconditioned.csv", result.unconditioned_scatter)):
        rows = [(float(a), float(b)) for a, b in scatter]
        _write_csv(out_dir / name, comments, ["i1", "i2"], rows)

    hist_header = ["bin_left_delta", "bin_right_delta", "count"]
    hist_comments = comments + ["bin edges are in units of delta (coherent-difference sigma)"]
    for name, hist in (("histogram_conditioned.csv", result.conditioned_histogram),
                       ("histogram_unconditioned.csv", result.unconditioned_histogram)):
        rows = [(float(left), float(right), int(count))
                for left, right, count in zip(hist.bin_edges[:-1], hist.bin_edges[1:],
                                              hist.counts)]
        _write_csv(out_dir / name, hist_comments, hist_header, rows)

    payload = {
        "version": __version__,
        "config": cfg.to_dict(),
        "conditioned": dataclasses.asdict(result.conditioned),
        "unconditioned": dataclasses.asdict(result.unconditioned),
        "oracle": dataclasses.asdict(result.oracle),
    }
    (out_dir / "report.json").write_text(json.dumps(payload, sort_keys=True, indent=2)
                                         + "\n")


SWEEP_COLUMNS = (
    "axis_value",
    "transferred_db",
    "ci_low_db",
    "ci_high_db",
    "kept_count",
    "preparation_probability",
    "oracle_transferred_db",
    "oracle_probability",
    "error",
)


def _apply_axis(cfg: ScenarioConfig, parameter: str, value: float) -> ScenarioConfig:
    if parameter == "bandwidth_delta":
        selection = dataclasses.replace(cfg.selection, bandwidth_delta=value)
        return dataclasses.replace(cfg, selection=selection, sweep=None)
    pair1 = dataclasses.replace(cfg.pair1, **{parameter: value})
    pair2 = dataclasses.replace(cfg.pair2, **{parameter: value})
    return dataclasses.replace(cfg, pair1=pair1, pair2=pair2, sweep=None)


def _sweep_row(cfg: ScenarioConfig, index: int, value: float,
               workers: int) -> dict[str, Any]:
    row: dict[str, Any] = dict.fromkeys(SWEEP_COLUMNS, math.nan)
    row["axis_value"] = value
    row["kept_count"] = 0
    row["error"] = ""
    try:
        row_cfg = _apply_axis(cfg, cfg.sweep.parameter, value)
        row_cfg = dataclasses.replace(row_cfg, seed=derived_seed(cfg.seed, index))
        # the oracle goes first, so a row whose acquisition fails keeps it
        prediction = row_cfg.predict()
        row.update(oracle_transferred_db=prediction.transferred_db,
                   oracle_probability=prediction.selection_probability)
        _, _, report = acquire(row_cfg, workers=workers)
        row.update(transferred_db=report.squeezing_db,
                   ci_low_db=report.ci_low_db,
                   ci_high_db=report.ci_high_db,
                   kept_count=report.kept_count,
                   preparation_probability=report.preparation_probability)
    except TwinBeamError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, InsufficientStatisticsError):
            row.update(kept_count=exc.kept_count,
                       preparation_probability=exc.kept_count / row_cfg.n_points)
    return row


def run_sweep(cfg: ScenarioConfig, out_dir=None, workers: int = 1) -> list[dict[str, Any]]:
    """One row per sweep point; failed rows carry the error, never abort.

    Rows run one after another, each sampled by ``workers`` threads (see
    generate_batch); row seeds derive from (cfg.seed, row index), so the
    table is identical for any worker count. When out_dir is given, writes
    sweep.csv there. Refuses, with a ValidationError and before any row
    runs, a sweep whose row batch would not fit in available memory.
    """
    if cfg.sweep is None:
        raise ConfigurationError("sweep requires a config with a sweep axis")
    _check_memory(cfg.n_points)
    rows = [_sweep_row(cfg, i, float(v), workers)
            for i, v in enumerate(cfg.sweep.values())]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        table = [[row[c] for c in SWEEP_COLUMNS] for row in rows]
        comments = _comment_lines(cfg) + [
            f"sweep: {cfg.sweep.parameter} from {cfg.sweep.minimum} to "
            f"{cfg.sweep.maximum} in {cfg.sweep.steps} steps ({cfg.sweep.scale})"]
        _write_csv(out / "sweep.csv", comments, list(SWEEP_COLUMNS), table)
    return rows


def run_selftest(seed: int = 0, points: int = 1_000_000,
                 cases: int = 8) -> list[dict[str, Any]]:
    """Randomized closed-form-vs-Monte-Carlo agreement check.

    Each case draws squeezing in [0, 12] dB, sum-mode variance in [2, 1e4]
    (log-uniform), and a selection half-width in [0.01, 3] delta
    (log-uniform), then requires the measured conditional noise to match the
    prediction within 3 standard errors of the moment-based (delta-method)
    interval and the kept count to match the predicted probability within 4
    binomial sigma.

    False-alarm rate: for a correct program a case fails with probability
    about 0.0028 (two-sided 3 sigma, plus 6e-5 for 4 sigma), so the default
    8 cases fail for about 2.2% of seeds (5 of 300 seeds measured at
    points=200000).
    """
    if cases < 1:
        raise ValidationError(f"cases must be >= 1, got {cases}")
    base = ScenarioConfig(n_points=points, seed=seed)
    _check_memory(points)
    rng = np.random.Generator(np.random.Philox(seed))
    results = []
    for index in range(cases):
        squeezing = float(rng.uniform(0.0, 12.0))
        v_plus = float(10.0 ** rng.uniform(math.log10(2.0), 4.0))
        delta_i = float(10.0 ** rng.uniform(math.log10(0.01), math.log10(3.0)))
        pair = TwinPairParams(squeezing_db=squeezing,
                              excess_sum_db=10.0 * math.log10(v_plus / 2.0))
        case = dataclasses.replace(
            base, pair1=pair, pair2=pair, seed=derived_seed(seed, index),
            selection=SelectionConfig(bandwidth_delta=delta_i, min_kept=30))
        _, _, report = acquire(case)
        prediction = case.predict()

        se = max((report.ci_high_db - report.ci_low_db) / 2.0, 1e-9)
        db_gap = abs(report.squeezing_db - prediction.transferred_db)
        p = prediction.selection_probability
        count_sigma = math.sqrt(points * p * (1.0 - p)) if p < 1.0 else 1.0
        count_gap = abs(report.kept_count - points * p)
        ok = bool(db_gap <= 3.0 * se and count_gap <= 4.0 * count_sigma)
        results.append({
            "case": index,
            "squeezing_db": squeezing,
            "v_plus": v_plus,
            "bandwidth_delta": delta_i,
            "mc_db": report.squeezing_db,
            "oracle_db": prediction.transferred_db,
            "se_db": se,
            "kept_count": report.kept_count,
            "expected_count": points * p,
            "ok": ok,
        })
    return results
