"""Scenario orchestration: single runs, parameter sweeps, and the self-check.

A ScenarioConfig bundles everything one acquisition needs: the two pair
parameter sets, the measurement setting, the selection rule, sample count,
seed, and which engine generates the samples (direct Gaussian sampling or
the wideband detection chain of dsp_chain.stream). run_scenario always
evaluates both the conditioned and the unconditioned statistics of the same
record, the way a paired acquisition would, and overlays the closed-form
prediction.

The record is consumed chunk by chunk (acquire): the direct engine draws
each chunk of _SAMPLE_CHUNK events in a worker thread, the chain engine's
stream (dsp_chain.stream) hands over each low-pass block's points as it
makes them, at most _CHUNK a chunk, and each chunk is gated and
reduced. Each window's kept idler differences are reduced, in record
order, in blocks of _SAMPLE_CHUNK kept values (stats.BlockedMoments), and
its scatter is its first scatter_points kept events, so no result depends
on how the record is cut into chunks.
The unconditioned statistics are those of one more window, the whole
record, which keeps every event. So memory is flat in the record length on
either engine, whatever the window keeps.

A sweep acquires all its rows together at the sweep's seed. On the direct
engine each chunk is drawn once, as far as the widest row's window reaches,
and every row gates that draw and computes its own kept rows (common random
numbers, so the rows are correlated; each row's interval is valid on its
own). On the chain engine the rows that build the same covariance, all
rows of a bandwidth_delta sweep, gate one stream; other chain rows run one
stream after another. The selftest is such a sweep, whose rows are cases
drawn at random.

Everything here is deterministic per (config, seed), so results do not
depend on the worker count.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from . import __version__
from .dsp_chain import (_CHUNK, SignalChainConfig, _bank_samples, _lowpass_block,
                        decimation_plan, stream)
from .errors import (
    ConfigurationError,
    InsufficientStatisticsError,
    TwinBeamError,
    ValidationError,
)
from .model import (
    _SAMPLE_CHUNK,
    COHERENT_DELTA,
    MeasurementSetting,
    TwinPairParams,
    _chunk_scratch,
    _combine,
    _covariance_factor,
    _draw_chunk,
    _factor_terms,
    _require_int,
    _require_real,
    build_covariance,
)
from .oracle import TransferPrediction, predict_transfer
from .selection import SelectionConfig, in_window, kept_moment_statistics
from .stats import (
    _INTERVAL_HALF_WIDTH_SE,
    _MIN_INTERVAL_VALUES,
    BlockedMoments,
    Histogram,
    Moments,
    TransferReport,
    _binned,
)

SWEEP_PARAMETERS = (
    "squeezing_db",
    "efficiency",
    "rotation_deg",
    "bandwidth_delta",
    "excess_sum_db",
)

ENGINES = ("direct", "chain")

# the parts of a config that are objects of their own, in JSON and in Python
_PARTS = (("pair1", TwinPairParams), ("pair2", TwinPairParams),
          ("selection", SelectionConfig), ("signal_chain", SignalChainConfig))

# Peak memory per kept event of each chunk in flight (drawn, or waiting to
# be merged; _check_memory), and per scatter_points row of a run's two
# scatters. A chunk's kept events cost the worker's gathered normals and
# (i1, i2) rows, the differences and at most scatter_points rows it hands
# to the merge, and the merge's block of them: peak RSS of a 4M-event
# acquisition with the unconditioned summary, at a window that keeps every
# event, rises by 3.7 MB with 1 worker and 7.8 MB with 2 over one that
# keeps almost none, 19 and 24 B per kept event of a chunk in flight (a
# 10-row sweep keeping every event: 13 and 12 B a row). A scatter row
# costs 16 B in each window's (i1, i2) array, which the merge fills: peak
# RSS of run --out over 1M events rises by 17 B a row from 20k to 1M
# scatter rows, by 35 B a row where every event is kept. Rounded up.
_BYTES_PER_KEPT = 64

# Peak memory per direct-engine worker thread for the chunk it draws,
# gates and reduces: its 3.5 MiB scratch (the (4, 65536) normals and three
# channel buffers, one holding |z0| during the gate) and the draw's
# temporaries. Peak RSS of a 16M-event acquisition that draws every layer
# (a 0.45 delta window, which keeps 5% of the events) grows by 6.4 MB with
# 1 worker, 9.3 MB with 2 and 12.4 MB with 3 over the imported package,
# whatever the record length (4M events: the same to 0.1 MB); rounded up.
# A chain worker draws nothing and touches only _CHUNK columns of its
# three channel buffers (12 KB), so it is charged none of this.
_BYTES_PER_CHUNK = 12 << 20

# Per window, its kept differences held between chunks until a block of
# _SAMPLE_CHUNK is full (stats.BlockedMoments): 8 B each, at most a
# chunk's worth and at most its kept count. Per sweep row or selftest
# case, its table row and config and what acquire keeps of it (its
# covariance factor, gate limit, idler terms, reducer and report): peak RSS
# (VmHWM) of a 200-point sweep rises by 3.2 KB a row, and of a selftest by
# 3.7 KB a case, from 5k to 50k rows; rounded up.
_BYTES_PER_HELD = 8
_BYTES_PER_SWEEP_ROW = 4 << 10

# Peak memory of the chain engine's stream that grows with neither its
# shaping filters, its decimation plan nor its low-pass: the package's
# modules and scipy's pocketfft kernel (dsp_chain._pocketfft, about 0.5
# MiB, loaded without importing scipy), the low-pass design, and each pair
# pipeline's block of draws and output chunks, one of them on the stream's
# helper thread. Peak RSS (VmHWM) of a default 100k-point chain run (plan
# q1 = 50, q2 = 5, 1025 shaping taps) grows by 23.9-24.4, 23.9-24.4 and
# 24.7-25.1 MiB with 1, 2 and 3 workers (4 runs each) over a process that
# has imported numpy only. Less the rest of each run's charge (12.0-12.1
# MiB: the shaping design, the filter banks and the low-pass blocks, the
# kept, held and scatter terms), at most 13.1 MiB; rounded up to 16 MiB,
# so a 1-worker to 3-worker run is charged 28.0-28.1 MiB, 3.0 MiB above
# the largest growth measured (34 MiB, and 41.7-43.1 MiB of growth, while
# the chain imported the scipy.fft package for the kernel).
# tests/test_scenario_cli.py re-measures the run at 1 and 3 workers, and
# requires the charge to be at least the growth and at most 16 MiB above it.
_BYTES_PER_CHAIN_STREAM = 16 << 20

# The chain's buffers that grow with its shaping filters' tap count M and
# its decimation plan. Its shaping design, made before either pair
# pipeline starts, holds a 16 * (M - 1) point grid of one mode at a time
# (dsp_chain._shaping_filters): tracemalloc peaks at 426 B a tap from 257
# to 65,537 taps, and the transforms' plans come on top; rounded up. Its
# filter banks (dsp_chain._bank_samples): per segment sample of each pair
# pipeline, its float32 inputs (8 B, 2 channels), the batch's complex64
# spectra (8 B, half the bins of 2 channels) and their float32 planes (16
# B, the real and imaginary parts of 2 channels), and per bin the bank's
# float32 weights (32 B: 2 parts of 2 parts of 2 inputs), counted with
# the batch's overlap: at most 40 B, 80 B for the two pipelines; a
# mid-rate sample of a batch, counted as two segment samples, takes about
# 48 B in a single-stage plan (the inverse transform's float32 output and
# its copy, the float64 phases, their cosines and the float64 samples of
# 2 channels) and at most 88 B in others. The banks are made one after
# the other through complex128 transforms of N bins (at most about 96 B a
# bin), which are freed before the pipelines start.
_BYTES_PER_SHAPING_TAP = 1 << 10
_BYTES_PER_BANK_SAMPLE = 80

# The chain's low-pass blocks, which grow with its lead and q2: per
# mid-rate sample of a block (q2 * dsp_chain._lowpass_block), each pair
# pipeline's block of its 2 channels (16 B) and one channel's phase
# spectra (8 B), the phases' spectra that both share (8 B), and the
# design's transients. Peak RSS of a 2000-point chain run at the default
# rates rises by 83-95 B per block sample from post_mixer_cutoff_hz 100 kHz
# to 5 kHz (blocks of 20,480 to 655,360 samples); rounded up.
_BYTES_PER_LOWPASS_SAMPLE = 96

# chunk results in flight (drawn or waiting to be merged) per worker
_CHUNKS_PER_WORKER = 2

# rows of a numeric output table formatted per write (_write_table)
_TABLE_SLICE = 4096

# the selftest gate: a case passes when its conditioned noise is within
# _SELFTEST_DB_SIGMA standard errors of the oracle and its kept count within
# _SELFTEST_COUNT_SIGMA binomial standard deviations of the expected count
_SELFTEST_DB_SIGMA = 3.0
_SELFTEST_COUNT_SIGMA = 4.0


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
        lo = _require_real("sweep minimum", self.minimum)
        hi = _require_real("sweep maximum", self.maximum)
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
        space = np.geomspace if self.scale == "log" else np.linspace
        try:
            return space(self.minimum, self.maximum, self.steps)
        except (MemoryError, ValueError) as exc:  # numpy refuses such an array at once
            raise ValidationError(f"sweep steps {self.steps} are too many: {exc}") from exc


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
        for name, part in _PARTS:
            if not isinstance(getattr(self, name), part):
                raise ConfigurationError(f"{name} must be a {part.__name__}")
        if not isinstance(self.setting, MeasurementSetting):
            raise ConfigurationError("setting must be a MeasurementSetting")
        if self.sweep is not None and not isinstance(self.sweep, SweepAxis):
            raise ConfigurationError("sweep must be a SweepAxis or None")
        if self.engine not in ENGINES:
            raise ConfigurationError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        for name, minimum in (("n_points", 2), ("scatter_points", 1), ("seed", 0)):
            object.__setattr__(self, name, _require_int(name, getattr(self, name), minimum))
        # the record's event positions are int64 (the chunk grid, the scatter picks)
        if self.n_points > np.iinfo(np.int64).max:
            raise ValidationError(f"n_points must be at most 2**63 - 1, got {self.n_points}")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigurationError(f"config must be an object, got {type(data).__name__}")
        kwargs: dict[str, Any] = dict(data)
        for name, part in _PARTS:
            if name in kwargs:
                kwargs[name] = _build_strict(part, kwargs[name], name)
        if "setting" in kwargs:
            try:
                kwargs["setting"] = MeasurementSetting(kwargs["setting"])
            except ValueError as exc:
                raise ConfigurationError(
                    f"unknown setting {kwargs['setting']!r}; valid settings: "
                    f"{[s.value for s in MeasurementSetting]}") from exc
        if kwargs.get("sweep") is not None:
            kwargs["sweep"] = _build_strict(SweepAxis, kwargs["sweep"], "sweep")
        return _build_strict(cls, kwargs, "config")

    def to_dict(self) -> dict[str, Any]:
        return {**dataclasses.asdict(self), "setting": self.setting.value}

    def predict(self) -> TransferPrediction:
        """Closed-form conditioned noise and acceptance probability."""
        return predict_transfer(self.pair1, self.pair2, self.selection.bandwidth_delta,
                                self.setting)


def _read_json(path) -> Any:
    """The JSON value in the input file at ``path``, which must be UTF-8 JSON."""
    try:
        return json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc


def load_config(path) -> ScenarioConfig:
    """Parse a JSON config file into a ScenarioConfig, strictly."""
    return ScenarioConfig.from_dict(_read_json(path))


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


def _check_memory(cfg: ScenarioConfig, probability: float, workers: int = 1,
                  scatter: int = 0, rows: int = 1) -> None:
    """Refuse, before any work starts, an acquisition that would not fit in memory.

    acquire's check, made before it draws or streams anything; run_sweep's,
    before it builds any of its ``rows`` rows; and run_selftest's, before
    it draws any of its ``rows`` cases. Its windows are the ``rows`` configs
    acquired together, whose acceptance probabilities sum to
    ``probability``, and the record windows of the ``scatter`` configs
    acquired with the unconditioned summary, at probability 1 each.
    Nothing it charges grows with n_points past a chunk: each row's or
    case's table row, config and what acquire keeps of it
    (_BYTES_PER_SWEEP_ROW, alive while acquire runs); on the
    direct engine, _BYTES_PER_CHUNK for each worker that has a chunk to
    draw; the kept events of the chunks in flight (_CHUNKS_PER_WORKER per
    worker and the one being merged) at _BYTES_PER_KEPT, the windows'
    probability of each chunk's events, where a chain chunk is at most
    _CHUNK points; each window's held kept differences, at most a block of
    _SAMPLE_CHUNK and at most its expected kept count (_BYTES_PER_HELD);
    the ``scatter`` configs' pairs of scatters of scatter_points rows, at
    _BYTES_PER_KEPT a row; and on the chain engine the stream's
    _BYTES_PER_CHAIN_STREAM, its shaping design and filter banks, which
    grow with the shaping filters' tap count (the check designs them, and
    the stream takes that design: dsp_chain._designed), and
    its low-pass blocks. Raises ValidationError, naming what to
    lower, rather than let the process be killed part way; the message
    opens with the rows' count when their table rows are the larger part of
    the charge, with the record's points otherwise.
    """
    n = cfg.n_points
    # a block of held values, and a chunk in flight: a direct chunk is a block
    chunk = item = min(n, _SAMPLE_CHUNK)
    # each worker's draw scratch, the chain's stream, and (bytes, how to
    # free them) of what a request can lower
    scratch, stream_bytes, plan, lowpass = _BYTES_PER_CHUNK, 0, (0, ""), (0, "")
    if cfg.engine == "chain":
        scratch, stream_bytes = 0, _BYTES_PER_CHAIN_STREAM
        q1, q2 = decimation_plan(cfg.signal_chain)
        taps, banks = _bank_samples(build_covariance(cfg.pair1, cfg.pair2, cfg.setting),
                                    cfg.signal_chain)
        plan = (taps * _BYTES_PER_SHAPING_TAP + banks * _BYTES_PER_BANK_SAMPLE,
                f"raise cavity_bandwidth_hz or lower the synth_rate_hz / output_rate_hz ratio "
                f"(the filter banks hold {banks} samples for {taps} shaping taps at q1 = {q1})")
        block = q2 * _lowpass_block(cfg.signal_chain)
        lowpass = (block * _BYTES_PER_LOWPASS_SAMPLE,
                   f"lower the output_rate_hz / post_mixer_cutoff_hz ratio (the low-pass "
                   f"blocks are {block} samples)")
        item = min(n, _CHUNK)
    threads = min(workers, -(-n // item))
    flights = _CHUNKS_PER_WORKER * threads + 1  # chunks whose kept events are held at once
    # a record window keeps every event
    probability += scatter
    kept = probability * item * flights * _BYTES_PER_KEPT
    # each window holds at most a block, and at most what it keeps
    held = min((rows + scatter) * chunk, probability * n) * _BYTES_PER_HELD
    tables = rows * _BYTES_PER_SWEEP_ROW
    scattered = scatter * min(n, cfg.scatter_points) * _BYTES_PER_KEPT
    needed = (threads * scratch + kept + held + tables + scattered + plan[0] + lowpass[0]
              + stream_bytes)
    available = _available_memory_bytes()
    if available is None or needed <= available:
        return
    remedies = (
        ((threads - 1) * (scratch + kept / flights * _CHUNKS_PER_WORKER),
         f"lower the worker count (--workers, now {workers})"),
        (scattered, f"lower scatter_points (now {cfg.scatter_points})"),
        ((1 - 1 / rows) * (kept + held + tables),
         f"lower the sweep steps or selftest cases (now {rows})"),
        plan,
        lowpass,
    )
    # the first remedy that alone would make the acquisition fit; the
    # worker count, first, changes no output
    advice = next((text for saved, text in remedies if saved and needed - saved <= available),
                  "free some memory first")
    # named by what the larger part of the charge is for
    what = f"{rows} sweep steps or selftest cases" if 2 * tables > needed else f"{n} points"
    raise ValidationError(
        f"{what} need about {needed / 1e9:.2f} GB but only "
        f"{available / 1e9:.2f} GB of memory is available; {advice}")


class Acquisition(NamedTuple):
    """What one window of an acquisition keeps of its record of ``n`` events.

    ``kept_moments`` are the moments of the idler difference i1 - i2 over
    the kept events, reduced in record order in blocks of _SAMPLE_CHUNK
    kept values (stats.BlockedMoments), or None when the window keeps none.
    With the unconditioned summary, ``kept_histogram`` bins those
    differences and ``kept_scatter`` holds the (i1, i2) rows of the first
    scatter_points kept events; without it they are None. A record window
    keeps every event: its fields are run's unconditioned statistics.
    """

    kept_moments: Moments | None
    n: int
    kept_histogram: Histogram | None = None
    kept_scatter: np.ndarray | None = None

    @property
    def kept_count(self) -> int:
        return 0 if self.kept_moments is None else self.kept_moments.n

    def report(self, cfg: SelectionConfig) -> TransferReport:
        """The window's noise report; see selection.kept_moment_statistics."""
        return kept_moment_statistics(self.kept_moments, self.n, cfg)


def _in_order(fn, items, workers: int):
    """Yield fn(item) for each item, in order, computed by ``workers``
    threads; at most _CHUNKS_PER_WORKER * workers results are in flight."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for item in items:
            if len(pending) == _CHUNKS_PER_WORKER * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()


# the chain's record holds the channels themselves: i1 and i2
_IDLER_TERMS = _factor_terms(np.eye(4)[[1, 3]])


def acquire(cfgs: Sequence[ScenarioConfig], workers: int = 1,
            unconditioned: bool = False) -> list[Acquisition | TwinBeamError]:
    """Generate a record chunk by chunk and keep what each config's estimates need.

    The one acquisition pipeline behind run, sweep and selftest. ``cfgs``
    share engine, n_points, seed and scatter_points; the result has one
    entry per config, its Acquisition, or the TwinBeamError that stopped the
    chain stream it reads, so one stream's failure leaves the other configs
    be. A window that keeps no event is reported when its report is made.
    With ``unconditioned``, each config also reduces the whole record, a
    window that keeps every event, through its idler terms; those record
    windows follow the configs' in the result, in config order, and every
    window keeps its histogram and scatter.

    The direct engine draws each chunk of _SAMPLE_CHUNK events once, exactly
    as sample_batch draws it, as far as the widest window reaches (every
    layer for a record window; model._draw_chunk), and every config gates
    it on |z0| (see selection): the configs see the same events, as the
    rows of one sweep do. The chain engine's stream (dsp_chain.stream)
    yields its points in chunks of at most _CHUNK, so a worker's scratch of
    _SAMPLE_CHUNK holds it; in_window gates it. Chain configs that build
    the same covariance and signal chain read one stream, one after
    another otherwise. ``workers`` threads
    reduce chunks in parallel and the parts are merged in chunk order, so
    the result is the same for any count.
    Refuses, before it draws or streams anything, what would not fit in
    memory (_check_memory): the chunks in flight, and every window's held
    kept differences and scatter at once; none of it grows with n_points.
    """
    cfgs = tuple(cfgs)
    workers = _require_int("workers", workers, 1)
    if not cfgs:
        return []
    if len({(c.engine, c.n_points, c.seed, c.scatter_points) for c in cfgs}) > 1:
        raise ValidationError("configs acquired together must share engine, "
                              "n_points, seed and scatter_points")
    _check_memory(cfgs[0], sum(c.predict().selection_probability for c in cfgs), workers,
                  scatter=len(cfgs) if unconditioned else 0, rows=len(cfgs))
    if cfgs[0].engine == "chain":
        return _acquire_chain(cfgs, workers, unconditioned)
    n, seed = cfgs[0].n_points, cfgs[0].seed
    factors = [_covariance_factor(build_covariance(c.pair1, c.pair2, c.setting)) for c in cfgs]
    # the gate: |z0| <= bandwidth_delta * delta / sigma_g (see selection);
    # a record window's has no bound
    limits = [c.selection.bandwidth_delta * COHERENT_DELTA / sigma
              for c, (sigma, _) in zip(cfgs, factors)] + [math.inf] * (len(cfgs) * unconditioned)
    reach = max(limits)
    local = threading.local()

    def gate(start: int, spare: np.ndarray) -> tuple:
        # in the worker thread, into its scratch; |z0| goes to spare
        if not hasattr(local, "draw"):
            local.draw = _chunk_scratch(seed)
        m = min(start + _SAMPLE_CHUNK, n) - start
        drawn = _draw_chunk(local.draw, start, start + m, reach, spare)
        # |z0| of the events whose columns the normals hold, in order
        near = spare[:m] if drawn is None else spare[drawn]
        return local.draw[0][:, :near.size], [np.flatnonzero(near <= limit) for limit in limits]

    idlers = [_factor_terms(factor[[1, 3]]) for _, factor in factors] * (1 + unconditioned)
    return _stream(cfgs[0], idlers, range(0, n, _SAMPLE_CHUNK), gate, workers, unconditioned)


def _acquire_chain(cfgs: tuple[ScenarioConfig, ...], workers: int,
                   unconditioned: bool) -> list[Acquisition | TwinBeamError]:
    """acquire for chain configs, one stream per distinct (covariance,
    signal chain): every row of a bandwidth_delta sweep reads one record."""
    groups: dict[tuple, tuple] = {}
    for r, cfg in enumerate(cfgs):
        cov = build_covariance(cfg.pair1, cfg.pair2, cfg.setting)
        groups.setdefault((cov.matrix.tobytes(), cfg.signal_chain), (cov, []))[1].append(r)
    n, seed = cfgs[0].n_points, cfgs[0].seed
    results: list[Acquisition | TwinBeamError] = [None] * (len(cfgs) * (1 + unconditioned))
    for cov, members in groups.values():
        group = tuple(cfgs[r] for r in members)

        def gate(chunk: np.ndarray, spare: np.ndarray) -> tuple:
            if not np.isfinite(chunk).all():
                raise ValidationError("sample data contains non-finite values")
            spare = spare[:chunk.shape[1]]
            kept = [in_window(chunk[0], chunk[2], c.selection, spare) for c in group]
            return chunk, kept + [np.arange(chunk.shape[1])] * (len(group) * unconditioned)

        try:
            # the calling thread and the stream's helper synthesize and
            # demodulate; the workers gate and reduce. Closing the stream,
            # also when a chunk fails its gate, joins its helper
            with closing(stream(cov, group[0].signal_chain, n, seed)) as chunks:
                acquired = _stream(group[0],
                                   [_IDLER_TERMS] * (len(group) * (1 + unconditioned)),
                                   chunks, gate, workers, unconditioned)
        except TwinBeamError as exc:
            acquired = [exc] * (len(group) * (1 + unconditioned))
        # the group's windows, then their record windows, to the same places
        for r, one in zip(members + [len(cfgs) + r for r in members], acquired):
            results[r] = one
    return results


def _stream(cfg: ScenarioConfig, idlers: list, items: Iterable, gate: Callable,
            workers: int, unconditioned: bool) -> list[Acquisition]:
    """The chunk loop of acquire, for the record of ``cfg``.

    ``items`` are pulled in the calling thread, in record order, at most
    _CHUNKS_PER_WORKER * workers ahead of the merge. ``gate(item, spare)``,
    in a worker thread and with its scratch row ``spare``, returns a chunk's
    (4, m) columns and, per window, the columns it keeps; window r's i1 and
    i2, ``_combine`` of the columns with ``idlers[r]``, are computed for
    those only (in place when it keeps them all), and the merge reduces
    their differences in blocks (stats.BlockedMoments). With
    ``unconditioned`` the merge also bins those blocks and fills each
    window's scatter with its first scatter_points kept rows, in record
    order, of which the worker hands over at most scatter_points a chunk.
    """
    n, points = cfg.n_points, cfg.scatter_points
    # one reused scratch per thread: fresh arrays per chunk cost 128 page
    # faults per 512 KiB once glibc returns the freed pages
    local = threading.local()

    def reduce(item) -> list[tuple]:
        if not hasattr(local, "channels"):
            local.channels = np.empty((3, _SAMPLE_CHUNK))
        z, gates = gate(item, local.channels[0])
        first, second, scratch = local.channels
        parts = []
        for (i1_terms, i2_terms), kept in zip(idlers, gates):
            kept_z = z if kept.size == z.shape[1] else z[:, kept]
            idler1 = _combine(kept_z, i1_terms, first[:kept.size], scratch[:kept.size])
            idler2 = _combine(kept_z, i2_terms, second[:kept.size], scratch[:kept.size])
            rows = np.column_stack((idler1[:points], idler2[:points])) if unconditioned else None
            parts.append((idler1 - idler2, rows))
        return parts

    blocks = [BlockedMoments(binned=unconditioned) for _ in idlers]
    scatters = [np.empty((min(n, points), 2)) if unconditioned else None for _ in idlers]
    filled = [0] * len(idlers)
    for parts in _in_order(reduce, items, workers):
        for r, (differences, rows) in enumerate(parts):
            blocks[r].add(differences)
            if unconditioned:
                rows = rows[:len(scatters[r]) - filled[r]]
                scatters[r][filled[r]:filled[r] + len(rows)] = rows
                filled[r] += len(rows)
    return [Acquisition(
        kept_moments=reduced.close().moments,
        n=n,
        kept_histogram=_binned(*reduced.counts) if reduced.counts else None,
        kept_scatter=None if scatter is None else scatter[:count],
    ) for reduced, scatter, count in zip(blocks, scatters, filled)]


class ScenarioResult(NamedTuple):
    """Everything one run produces, before any file is written."""

    conditioned: TransferReport
    unconditioned: TransferReport
    oracle: TransferPrediction
    conditioned_histogram: Histogram
    unconditioned_histogram: Histogram
    conditioned_scatter: np.ndarray
    unconditioned_scatter: np.ndarray
    config: ScenarioConfig


def run_scenario(cfg: ScenarioConfig, out_dir=None, workers: int = 1) -> ScenarioResult:
    """One paired acquisition: conditioned and unconditioned statistics.

    The unconditioned statistics are those of the record window, which
    keeps every event (acquire). Each scatter holds the first
    scatter_points events its window keeps, in record order: events are
    independent (direct engine) or stationary (chain), so they are a sample
    of the window's distribution. When out_dir is given, also writes
    scatter, histogram, and report files there (see _write_scenario_outputs
    for the exact set). Refuses, with a ValidationError, a run that would
    not fit in available memory (acquire).
    """
    prediction = cfg.predict()
    acquired, record = acquire([cfg], workers, unconditioned=True)
    if isinstance(acquired, TwinBeamError):
        raise acquired
    result = ScenarioResult(
        conditioned=acquired.report(cfg.selection),
        unconditioned=record.report(cfg.selection),
        oracle=prediction,
        conditioned_histogram=acquired.kept_histogram,
        unconditioned_histogram=record.kept_histogram,
        conditioned_scatter=acquired.kept_scatter,
        unconditioned_scatter=record.kept_scatter,
        config=cfg,
    )
    if out_dir is not None:
        _write_scenario_outputs(result, Path(out_dir))
    return result


def _comment_lines(cfg: ScenarioConfig) -> list[str]:
    compact = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return [f"twinbeam-transfer {__version__}", f"config: {compact}"]


def _csv_head(fh: TextIO, comments: Sequence[str], header: Sequence[str]):
    """Write ``#`` comment lines and a header to ``fh``; the csv.writer for the rows."""
    fh.writelines(f"# {line}\n" for line in comments)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    return writer


def _write_table(path: Path, comments: list[str], header: Sequence[str],
                 columns: Sequence[np.ndarray]) -> None:
    """A CSV file of the rows of numeric ``columns``, formatted _TABLE_SLICE
    rows at a time, one write per slice: only one slice's values are ever
    Python objects.

    csv.writer writes a float or an int as its repr and quotes neither, so
    the bytes are the ones it would write.
    """
    width = len(columns)
    row = ",".join(["%r"] * width) + "\n"
    with open(path, "w", newline="") as fh:
        _csv_head(fh, comments, header)
        for start in range(0, len(columns[0]), _TABLE_SLICE):
            parts = [column[start:start + _TABLE_SLICE].tolist() for column in columns]
            # the slice's values in row order, for one % of the repeated row format
            values = [None] * (width * len(parts[0]))
            for j, part in enumerate(parts):
                values[j::width] = part
            fh.write(row * len(parts[0]) % tuple(values))


def _write_scenario_outputs(result: ScenarioResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    comments = _comment_lines(cfg)

    for name, scatter in (("scatter_conditioned.csv", result.conditioned_scatter),
                          ("scatter_unconditioned.csv", result.unconditioned_scatter)):
        _write_table(out_dir / name, comments, ["i1", "i2"], scatter.T)

    hist_header = ["bin_left_delta", "bin_right_delta", "count"]
    hist_comments = comments + ["bin edges are in units of delta (coherent-difference sigma)"]
    for name, hist in (("histogram_conditioned.csv", result.conditioned_histogram),
                       ("histogram_unconditioned.csv", result.unconditioned_histogram)):
        _write_table(out_dir / name, hist_comments, hist_header,
                     (hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts))

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


def write_sweep_table(rows: Sequence[dict[str, Any]], fh: TextIO,
                      comments: Sequence[str] = ()) -> None:
    """run_sweep's ``rows`` as sweep.csv holds them, after the ``#`` comment
    lines and the header; csv.writer quotes the error cells as they need."""
    _csv_head(fh, comments, SWEEP_COLUMNS).writerows(
        [row[c] for c in SWEEP_COLUMNS] for row in rows)


def _apply_axis(cfg: ScenarioConfig, parameter: str, value: float) -> ScenarioConfig:
    if parameter == "bandwidth_delta":
        selection = dataclasses.replace(cfg.selection, bandwidth_delta=value)
        return dataclasses.replace(cfg, selection=selection, sweep=None)
    pair1 = dataclasses.replace(cfg.pair1, **{parameter: value})
    pair2 = dataclasses.replace(cfg.pair2, **{parameter: value})
    return dataclasses.replace(cfg, pair1=pair1, pair2=pair2, sweep=None)


def _blank_row(**columns) -> dict[str, Any]:
    """A row of SWEEP_COLUMNS with ``columns`` set, that kept nothing and has no error."""
    return {**dict.fromkeys(SWEEP_COLUMNS, math.nan), "kept_count": 0, "error": "", **columns}


def _acquire_rows(built: Sequence[tuple[dict[str, Any], ScenarioConfig]], workers: int) -> None:
    """Acquire the configs of ``built``, (row, config) pairs, in one acquire
    call, and fill each row's report columns, or its error, in place."""
    for (row, row_cfg), acquired in zip(built, acquire([c for _, c in built], workers)):
        try:
            if isinstance(acquired, TwinBeamError):
                raise acquired
            report = acquired.report(row_cfg.selection)
        except TwinBeamError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, InsufficientStatisticsError):
                row.update(kept_count=exc.kept_count,
                           preparation_probability=exc.kept_count / row_cfg.n_points)
            continue
        row.update(transferred_db=report.squeezing_db,
                   ci_low_db=report.ci_low_db,
                   ci_high_db=report.ci_high_db,
                   kept_count=report.kept_count,
                   preparation_probability=report.preparation_probability)


def run_sweep(cfg: ScenarioConfig, out_dir=None, workers: int = 1) -> list[dict[str, Any]]:
    """One row per sweep point; failed rows carry the error, never abort.

    Every row runs at cfg.seed, in one acquire call streamed by ``workers``
    threads. The rows share each chunk (common random numbers): on the
    direct engine its draw, which every row gates on its own, on the chain
    engine its stream where the rows build the same covariance, as a
    bandwidth_delta sweep's rows do, while other chain rows run one stream
    after another. Row r is bit for bit what acquire gives for that row's
    config alone, and the rows are correlated, while each row's interval is
    valid on its own. The table is identical for any worker count. When
    out_dir is given, writes sweep.csv there (write_sweep_table). Refuses,
    with a ValidationError, a sweep whose rows would not fit in available
    memory: before it builds a row, one whose rows alone would not, and
    before any row runs, one whose chunks in flight and held kept
    differences of all rows, which acquire holds at once, would not. None
    of it grows with n_points.
    """
    if cfg.sweep is None:
        raise ConfigurationError("sweep requires a config with a sweep axis")
    values = cfg.sweep.values()
    _check_memory(cfg, 0.0, workers, rows=len(values))
    rows: list[dict[str, Any]] = []
    built: list[tuple[dict[str, Any], ScenarioConfig]] = []
    for value in values:
        row = _blank_row(axis_value=float(value))
        rows.append(row)
        try:
            row_cfg = _apply_axis(cfg, cfg.sweep.parameter, row["axis_value"])
            prediction = row_cfg.predict()
        except TwinBeamError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
            continue
        # the oracle goes first, so a row whose acquisition fails keeps it
        row.update(oracle_transferred_db=prediction.transferred_db,
                   oracle_probability=prediction.selection_probability)
        built.append((row, row_cfg))
    _acquire_rows(built, workers)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        comments = _comment_lines(cfg) + [
            f"sweep: {cfg.sweep.parameter} from {cfg.sweep.minimum} to "
            f"{cfg.sweep.maximum} in {cfg.sweep.steps} steps ({cfg.sweep.scale})",
            "rows share the seed (common random numbers), so they are correlated; "
            "each row's interval is valid on its own"]
        with open(out / "sweep.csv", "w", newline="") as fh:
            write_sweep_table(rows, fh, comments)
    return rows


def selftest_false_alarm_rate(cases: int) -> float:
    """An upper bound on the probability that ``cases`` selftest cases
    report FAIL for a correct program: 1 - (1 - a)**cases, where a case
    fails with probability at most a, about 0.0028, the two-sided Gaussian
    tails of its two checks (3 sigma, 0.0027, plus 4 sigma, 6e-5).

    The cases share one record, as a sweep's rows do, so their checks are
    correlated. For jointly Gaussian two-sided checks, Sidak's inequality
    (Sidak 1967) gives P(all pass) >= the product of each one's pass
    probability, under any correlation; so the bound holds as the checks
    hold, asymptotically in the kept count.
    """
    per_case = (math.erfc(_SELFTEST_DB_SIGMA / math.sqrt(2.0))
                + math.erfc(_SELFTEST_COUNT_SIGMA / math.sqrt(2.0)))
    return 1.0 - (1.0 - per_case) ** cases


def run_selftest(seed: int = 0, points: int = 1_000_000,
                 cases: int = 8) -> list[dict[str, Any]]:
    """Randomized closed-form-vs-Monte-Carlo agreement check: a sweep whose
    rows are drawn at random.

    Each case draws squeezing in [0, 12] dB, sum-mode variance in [2, 1e4]
    (log-uniform), and a selection half-width in [0.01, 3] delta
    (log-uniform), then requires the measured conditional noise to match the
    prediction within 3 standard errors of the moment-based (delta-method)
    interval and the kept count to match the predicted probability within 4
    binomial sigma. A case that keeps fewer than its 30-event minimum has
    NaN mc_db and se_db, and only its count is checked. The cases are
    acquired as a sweep's rows are, in one acquire call at ``seed``: they
    share each chunk's draw (common random numbers), so they are
    correlated, and each case is bit for bit what acquire gives for its
    config alone. Refuses, with a ValidationError, a case count whose rows
    and configs would not fit in available memory, before it draws a case.

    False-alarm rate (selftest_false_alarm_rate): the default 8 cases fail
    for at most about 2.2% of seeds of a correct program (5 of 300 seeds
    measured at points=200000); an upper bound, by Sidak's inequality, and
    more so for a run with a case checked by count alone.
    """
    cases = _require_int("cases", cases, 1)
    base = ScenarioConfig(n_points=points, seed=seed)
    try:
        _check_memory(base, 0.0, rows=cases)
    except OverflowError as exc:  # a charge beyond the float range
        raise ValidationError(f"selftest cases {cases} are too many: {exc}") from exc
    rng = np.random.Generator(np.random.Philox(seed))
    results, built = [], []
    for index in range(cases):
        squeezing = float(rng.uniform(0.0, 12.0))
        v_plus = float(10.0 ** rng.uniform(math.log10(2.0), 4.0))
        delta_i = float(10.0 ** rng.uniform(math.log10(0.01), math.log10(3.0)))
        pair = TwinPairParams(squeezing_db=squeezing,
                              excess_sum_db=10.0 * math.log10(v_plus / 2.0))
        case = dataclasses.replace(
            base, pair1=pair, pair2=pair,
            selection=SelectionConfig(bandwidth_delta=delta_i, min_kept=_MIN_INTERVAL_VALUES))
        results.append({"case": index, "squeezing_db": squeezing, "v_plus": v_plus,
                        "bandwidth_delta": delta_i})
        built.append((_blank_row(), case))
    _acquire_rows(built, 1)
    for result, (row, case) in zip(results, built):
        prediction = case.predict()
        # NaN where the case kept too few events for a noise estimate: max
        # keeps its NaN first argument, and only the count is checked
        mc = row["transferred_db"]
        se = max((row["ci_high_db"] - row["ci_low_db"]) / 2.0 / _INTERVAL_HALF_WIDTH_SE, 1e-9)
        db_ok = math.isnan(mc) or abs(mc - prediction.transferred_db) <= _SELFTEST_DB_SIGMA * se
        p = prediction.selection_probability
        count_sigma = math.sqrt(points * p * (1.0 - p)) if p < 1.0 else 1.0
        count_gap = abs(row["kept_count"] - points * p)
        result.update(mc_db=mc, oracle_db=prediction.transferred_db, se_db=se,
                      kept_count=row["kept_count"], expected_count=points * p,
                      ok=bool(db_ok and count_gap <= _SELFTEST_COUNT_SIGMA * count_sigma))
    return results
