"""Conditional transfer: gate on the signal difference, measure the idlers.

The protocol is fixed, as in the experiment: an event is kept when the two
signal photocurrents agree to within the selection half-width,
|s1 - s2| <= bandwidth_delta * delta, and the transferred correlation is
the noise of the idler difference i1 - i2 over the kept events. The
closed-form oracle assumes exactly this routing.

The gate, stated once: in_window applies it to s1 - s2, for a batch and
for the chain engine's chunks. The direct engine draws s1 - s2 =
sigma_g * z0 (model._covariance_factor), so scenario.acquire applies it as
|z0| <= bandwidth_delta * delta / sigma_g, before any channel exists; the
two forms differ only for an event within a few ulps of the window's edge.
``bandwidth_delta`` is deliberately the HALF-width of the acceptance window:
that way bandwidth_delta -> 0 is the exact-coincidence limit. Note a
full-width convention would halve the preparation probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySelectionError, InsufficientStatisticsError, ValidationError
from .model import COHERENT_DELTA, SampleBatch, _require_int, _require_real
from .stats import _MIN_INTERVAL_VALUES, BlockedMoments, Moments, TransferReport, _as_clean_1d


def derived_seed(base_seed: int, tag: int) -> int:
    """Deterministic child seed for a named sub-task of a batch."""
    return int(np.random.SeedSequence((int(base_seed), int(tag))).generate_state(1)[0])


@dataclass(frozen=True)
class SelectionConfig:
    """Acceptance window and minimum kept count for the post-selection rule."""

    bandwidth_delta: float
    min_kept: int = 100

    def __post_init__(self):
        bw = _require_real("bandwidth_delta", self.bandwidth_delta)
        if not (math.isfinite(bw) and bw > 0.0):
            raise ValidationError(f"bandwidth_delta must be positive and finite, got {bw}")
        object.__setattr__(self, "bandwidth_delta", bw)
        object.__setattr__(self, "min_kept",
                           _require_int("min_kept", self.min_kept, _MIN_INTERVAL_VALUES))


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


def in_window(s1: np.ndarray, s2: np.ndarray, cfg: SelectionConfig,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """Indices of the events with signals ``s1``, ``s2`` inside the
    acceptance window, in order.

    The one gate, for a whole batch and for one chunk of a streamed record.
    ``scratch``, when given, is an array like ``s1`` that receives
    |s1 - s2|; otherwise one is allocated.
    """
    distance = np.subtract(s1, s2, out=scratch)
    np.abs(distance, out=distance)
    return np.flatnonzero(distance <= cfg.bandwidth_delta * COHERENT_DELTA)


def _require_kept(count: int, total: int, cfg: SelectionConfig) -> None:
    if count == 0:
        raise EmptySelectionError(
            f"no events satisfy |s1 - s2| <= {cfg.bandwidth_delta} * delta out of {total}")


def select(batch: SampleBatch, cfg: SelectionConfig) -> SelectionResult:
    """Apply the acceptance rule; pure function of (batch, cfg)."""
    kept = in_window(batch.s1, batch.s2, cfg)
    _require_kept(kept.size, batch.n, cfg)
    return SelectionResult(kept_indices=kept, total=batch.n)


def conditional_statistics(batch: SampleBatch, result: SelectionResult,
                           cfg: SelectionConfig) -> TransferReport:
    """Noise of the idler difference i1 - i2 over the kept events.

    The interval is the moment-based (delta-method) interval of
    :meth:`~twinbeam_transfer.stats.Moments.estimate`. The kept
    differences are reduced in record order, in the blocks a streamed
    record reduces them in (stats.BlockedMoments), so both give the same
    bits.
    """
    kept = result.kept_indices
    blocks = BlockedMoments()
    blocks.add(_as_clean_1d(batch.i1[kept] - batch.i2[kept], 0))
    return kept_moment_statistics(blocks.close().moments, result.total, cfg)


def kept_moment_statistics(moments: Moments | None, total: int,
                           cfg: SelectionConfig) -> TransferReport:
    """:func:`conditional_statistics` from the moments of the kept idler
    differences of a record of ``total`` events (None when none is kept);
    raises EmptySelectionError when none is kept and
    InsufficientStatisticsError when fewer than ``cfg.min_kept`` are. A
    window that keeps every event reports the unconditioned noise, at
    preparation probability 1."""
    count = 0 if moments is None else moments.n
    _require_kept(count, total, cfg)
    if count < cfg.min_kept:
        raise InsufficientStatisticsError(count, cfg.min_kept)
    point, low, high = moments.estimate()
    return TransferReport(
        squeezing_db=point,
        ci_low_db=low,
        ci_high_db=high,
        kept_count=count,
        preparation_probability=count / total,
    )
