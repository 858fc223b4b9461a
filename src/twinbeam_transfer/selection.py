"""Conditional transfer: gate on the signal difference, measure the idlers.

The protocol is fixed, as in the experiment: an event is kept when the two
signal photocurrents agree to within the selection half-width,
|s1 - s2| <= bandwidth_delta * delta, and the transferred correlation is
the noise of the idler difference i1 - i2 over the kept events. The
closed-form oracle assumes exactly this routing.
``bandwidth_delta`` is deliberately the HALF-width of the acceptance window:
that way bandwidth_delta -> 0 is the exact-coincidence limit. Note a
full-width convention would halve the preparation probability.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .errors import EmptySelectionError, InsufficientStatisticsError, ValidationError
from .model import COHERENT_DELTA, SHOT_DIFFERENCE_VARIANCE, SampleBatch, _require_int
from .stats import TransferReport, _variance_estimate

# the moment-based interval needs >= 30 values
_MIN_KEPT_FLOOR = 30

# two-sided coverage of the reported interval: one standard error
_INTERVAL_LEVEL = 0.68


def derived_seed(base_seed: int, tag: int) -> int:
    """Deterministic child seed for a named sub-task of a batch."""
    return int(np.random.SeedSequence((int(base_seed), int(tag))).generate_state(1)[0])


@dataclass(frozen=True)
class SelectionConfig:
    """Acceptance window and minimum kept count for the post-selection rule."""

    bandwidth_delta: float
    min_kept: int = 100

    def __post_init__(self):
        bw = float(self.bandwidth_delta)
        if not (math.isfinite(bw) and bw > 0.0):
            raise ValidationError(f"bandwidth_delta must be positive and finite, got {bw}")
        object.__setattr__(self, "bandwidth_delta", bw)
        object.__setattr__(self, "min_kept",
                           _require_int("min_kept", self.min_kept, _MIN_KEPT_FLOOR))


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
    half_width = cfg.bandwidth_delta * COHERENT_DELTA
    kept = np.flatnonzero(np.abs(batch.s1 - batch.s2) <= half_width)
    if kept.size == 0:
        raise EmptySelectionError(
            f"no events satisfy |s1 - s2| <= {cfg.bandwidth_delta} * delta out of {batch.n}")
    return SelectionResult(kept_indices=kept, total=batch.n)


def _transfer_report(values: np.ndarray, probability: float,
                     echo: dict[str, Any]) -> TransferReport:
    point, low, high = _variance_estimate(values, SHOT_DIFFERENCE_VARIANCE, _INTERVAL_LEVEL)
    return TransferReport(
        squeezing_db=point,
        ci_low_db=low,
        ci_high_db=high,
        kept_count=values.size,
        preparation_probability=probability,
        config_echo=echo,
    )


def conditional_statistics(batch: SampleBatch, result: SelectionResult,
                           cfg: SelectionConfig) -> TransferReport:
    """Noise of the idler difference i1 - i2 over the kept events.

    The interval is the moment-based (delta-method) interval of
    :func:`~twinbeam_transfer.stats.variance_interval`.
    """
    if result.kept_count < cfg.min_kept:
        raise InsufficientStatisticsError(result.kept_count, cfg.min_kept)
    kept = result.kept_indices
    values = batch.i1[kept] - batch.i2[kept]
    echo = {"selection": asdict(cfg), "n": batch.n, "seed": batch.seed}
    return _transfer_report(values, result.preparation_probability, echo)


def unconditioned_statistics(batch: SampleBatch, difference: np.ndarray,
                             cfg: SelectionConfig) -> TransferReport:
    """Noise of the idler difference over every event of ``batch``.

    ``difference`` is the full idler difference i1 - i2, one value per
    event. The echo's ``bandwidth_delta`` is null: no selection window
    applies.
    """
    if np.shape(difference) != (batch.n,):
        raise ValidationError(
            f"difference must hold one value per event, shape ({batch.n},), "
            f"got {np.shape(difference)}")
    echo = {"selection": {**asdict(cfg), "bandwidth_delta": None},
            "n": batch.n, "seed": batch.seed}
    return _transfer_report(difference, 1.0, echo)
