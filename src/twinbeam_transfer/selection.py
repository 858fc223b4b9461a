"""Conditional transfer: gate on the signal difference, measure the idlers.

An event is kept when the two trigger photocurrents agree to within the
selection half-width, |trigger1 - trigger2| <= bandwidth_delta * delta.
``bandwidth_delta`` is deliberately the HALF-width of the acceptance window:
that way bandwidth_delta -> 0 is the exact-coincidence limit. Note a
full-width convention would halve the preparation probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import (
    ConfigurationError,
    EmptySelectionError,
    InsufficientStatisticsError,
    ValidationError,
)
from .model import CHANNELS, COHERENT_DELTA, SHOT_DIFFERENCE_VARIANCE, SampleBatch
from .stats import TransferReport, _variance_estimate

# the moment-based interval (and its bootstrap reference) needs >= 30 values
_MIN_KEPT_FLOOR = 30


def derived_seed(base_seed: int, tag: int) -> int:
    """Deterministic child seed for a named sub-task of a batch."""
    return int(np.random.SeedSequence((int(base_seed), int(tag))).generate_state(1)[0])


@dataclass(frozen=True)
class SelectionConfig:
    """Acceptance window and channel routing for the post-selection rule."""

    bandwidth_delta: float
    trigger_channels: tuple[str, str] = ("s1", "s2")
    target_channels: tuple[str, str] = ("i1", "i2")
    min_kept: int = 100

    def __post_init__(self):
        bw = float(self.bandwidth_delta)
        if math.isnan(bw) or bw <= 0.0:
            raise ValidationError(f"bandwidth_delta must be > 0, got {bw}")
        object.__setattr__(self, "bandwidth_delta", bw)
        for attr in ("trigger_channels", "target_channels"):
            pair = tuple(getattr(self, attr))
            if len(pair) != 2 or pair[0] == pair[1]:
                raise ConfigurationError(f"{attr} must name two distinct channels, got {pair}")
            for name in pair:
                if name not in CHANNELS:
                    raise ConfigurationError(
                        f"{attr} names unknown channel {name!r}; valid channels are {CHANNELS}")
            object.__setattr__(self, attr, pair)
        if set(self.trigger_channels) & set(self.target_channels):
            raise ConfigurationError(
                f"trigger {self.trigger_channels} and target {self.target_channels} "
                "channels must be disjoint")
        if int(self.min_kept) < _MIN_KEPT_FLOOR:
            raise ValidationError(
                f"min_kept must be >= {_MIN_KEPT_FLOOR}, got {self.min_kept}")
        object.__setattr__(self, "min_kept", int(self.min_kept))

    def to_echo(self) -> dict[str, Any]:
        return {
            "bandwidth_delta": self.bandwidth_delta,
            "trigger_channels": list(self.trigger_channels),
            "target_channels": list(self.target_channels),
            "min_kept": self.min_kept,
        }


@dataclass(frozen=True)
class SelectionResult:
    """Indices retained by one pass of the selection rule."""

    kept_indices: np.ndarray
    total: int

    def __post_init__(self):
        idx = np.asarray(self.kept_indices, dtype=np.int64)
        total = int(self.total)
        if idx.ndim != 1 or idx.size < 1:
            raise ValidationError("kept_indices must be a nonempty 1-d index array")
        if np.any(np.diff(idx) <= 0):
            raise ValidationError("kept_indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= total:
            raise ValidationError(f"kept_indices must lie in [0, {total})")
        idx.setflags(write=False)
        object.__setattr__(self, "kept_indices", idx)
        object.__setattr__(self, "total", total)

    @property
    def kept_count(self) -> int:
        return self.kept_indices.size

    @property
    def preparation_probability(self) -> float:
        return self.kept_count / self.total


def select(batch: SampleBatch, cfg: SelectionConfig) -> SelectionResult:
    """Apply the acceptance rule; pure function of (batch, cfg)."""
    t1 = batch.channel(cfg.trigger_channels[0])
    t2 = batch.channel(cfg.trigger_channels[1])
    half_width = cfg.bandwidth_delta * COHERENT_DELTA
    kept = np.flatnonzero(np.abs(t1 - t2) <= half_width)
    if kept.size == 0:
        raise EmptySelectionError(
            f"no events satisfy |{cfg.trigger_channels[0]} - {cfg.trigger_channels[1]}|"
            f" <= {cfg.bandwidth_delta} * delta out of {batch.n}")
    return SelectionResult(kept_indices=kept, total=batch.n)


def _transfer_report(values: np.ndarray, probability: float, echo: dict[str, Any],
                     level: float = 0.68) -> TransferReport:
    point, low, high = _variance_estimate(values, SHOT_DIFFERENCE_VARIANCE, level)
    return TransferReport(
        squeezing_db=point,
        ci_low_db=low,
        ci_high_db=high,
        kept_count=values.size,
        preparation_probability=probability,
        config_echo=echo,
    )


def conditional_statistics(batch: SampleBatch, result: SelectionResult,
                           cfg: SelectionConfig, level: float = 0.68) -> TransferReport:
    """Noise of the target difference over the kept events.

    The interval is the moment-based (delta-method) interval of
    :func:`~twinbeam_transfer.stats.variance_interval`.
    """
    if result.kept_count < cfg.min_kept:
        raise InsufficientStatisticsError(result.kept_count, cfg.min_kept)
    a = batch.channel(cfg.target_channels[0])
    b = batch.channel(cfg.target_channels[1])
    values = a[result.kept_indices] - b[result.kept_indices]
    echo = {"selection": cfg.to_echo(), "n": batch.n, "seed": batch.seed}
    return _transfer_report(values, result.preparation_probability, echo, level)


def unconditioned_statistics(batch: SampleBatch, difference: np.ndarray,
                             cfg: SelectionConfig) -> TransferReport:
    """Noise of the target difference over every event of ``batch``.

    ``difference`` is the full target difference, target_channels[0] minus
    target_channels[1], one value per event. The echo's ``bandwidth_delta``
    is null: no selection window applies.
    """
    if np.shape(difference) != (batch.n,):
        raise ValidationError(
            f"difference must hold one value per event, shape ({batch.n},), "
            f"got {np.shape(difference)}")
    echo = {"selection": {**cfg.to_echo(), "bandwidth_delta": None},
            "n": batch.n, "seed": batch.seed}
    return _transfer_report(difference, 1.0, echo)
