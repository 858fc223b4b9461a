"""Estimation utilities: shot-normalized variance in dB, histograms, intervals.

:func:`variance_interval`, the moment-based (delta-method) interval, is the
interval every run reports. The test suite checks it against a percentile
bootstrap reference, which the package does not ship.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Any

import numpy as np

from .errors import EstimationError, ValidationError
from .model import COHERENT_DELTA


def _as_clean_1d(values, minimum: int) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size < minimum:
        raise EstimationError(f"need at least {minimum} values, got {x.size}")
    if not np.isfinite(x).all():
        raise EstimationError("values contain non-finite entries")
    return x


def variance_db(values, shot_reference: float) -> float:
    """Noise level of ``values`` in dB below the shot reference.

    Positive means squeezed (variance below reference), negative means excess
    noise. Uses the unbiased (n-1) variance estimator.
    """
    x = _as_clean_1d(values, minimum=2)
    return _variance_to_db(float(x.var(ddof=1)), shot_reference)


def _variance_to_db(var: float, shot_reference: float) -> float:
    shot_reference = float(shot_reference)
    if not (shot_reference > 0.0):
        raise ValidationError(f"shot_reference must be > 0, got {shot_reference}")
    if var <= 0.0:
        raise EstimationError("sample variance is zero; cannot express in dB")
    return -10.0 * math.log10(var / shot_reference)


@dataclass(frozen=True)
class Histogram:
    """Binned distribution of difference-photocurrent values.

    Everything is expressed in units of delta (the coherent-state difference
    standard deviation): ``bin_width`` is the spacing and ``bin_edges`` the
    boundaries, with 0 always at a bin center.
    """

    bin_width: float
    bin_edges: np.ndarray
    counts: np.ndarray
    total: int

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if edges.ndim != 1 or counts.ndim != 1 or edges.size != counts.size + 1:
            raise ValidationError("bin_edges must be 1-d with one more entry than counts")
        if not np.all(np.diff(edges) > 0):
            raise ValidationError("bin_edges must be strictly increasing")
        widths = np.diff(edges)
        if not np.allclose(widths, self.bin_width, rtol=1e-9, atol=1e-12):
            raise ValidationError("bin_edges spacing must equal bin_width")
        if np.any(counts < 0):
            raise ValidationError("counts must be non-negative")
        if int(counts.sum()) != int(self.total):
            raise ValidationError("counts must sum to total")
        edges.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", int(self.total))

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def densities(self) -> np.ndarray:
        """Probability density per bin, normalized in delta units."""
        return self.counts / (self.total * self.bin_width)

    @property
    def mean(self) -> float:
        """Binned mean in delta units."""
        return float(np.average(self.centers, weights=self.counts))

    @property
    def std(self) -> float:
        """Binned standard deviation in delta units."""
        dev = self.centers - self.mean
        return float(math.sqrt(np.average(dev * dev, weights=self.counts)))


def histogram(values, bin_width_delta: float = 0.1) -> Histogram:
    """Bin difference samples (model units) on a grid of width ``bin_width_delta``.

    The grid is anchored so that 0 is a bin center and extends just far
    enough to cover the data, so every value lands in exactly one bin.
    """
    x = _as_clean_1d(values, minimum=1)
    w = float(bin_width_delta)
    if not (0.0 < w < 1.0):
        raise ValidationError(f"bin_width_delta must be in (0, 1), got {w}")

    # bin index k holds the bin centered at k*w (in delta units)
    k = np.floor(x / COHERENT_DELTA / w + 0.5).astype(np.int64)
    k_min, k_max = int(k.min()), int(k.max())
    counts = np.bincount(k - k_min, minlength=k_max - k_min + 1)
    edges = (np.arange(k_min, k_max + 2) - 0.5) * w
    return Histogram(bin_width=w, bin_edges=edges, counts=counts, total=x.size)


def _check_level(level: float) -> float:
    level = float(level)
    if not (0.0 < level < 1.0):
        raise ValidationError(f"level must be in (0, 1), got {level}")
    return level


def variance_interval(values, shot_reference: float,
                      level: float = 0.68) -> tuple[float, float]:
    """Moment-based (delta-method) interval for :func:`variance_db`.

    The sample variance s^2 has asymptotic variance (mu4 - sigma^4)/n for any
    distribution with a finite fourth moment, so the interval stays valid for
    the non-Gaussian conditioned record. With m4 the fourth central sample
    moment, the standard error of s^2 is sqrt((m4 - s^4 (n-3)/(n-1)) / n),
    mapped to dB by the derivative (10 / ln 10) / s^2. The interval is
    centred on the point estimate. O(n) and deterministic.
    """
    _, low, high = _variance_estimate(values, shot_reference, level)
    return low, high


def _variance_estimate(values, shot_reference: float,
                       level: float) -> tuple[float, float, float]:
    """(point, low, high): :func:`variance_db` and :func:`variance_interval`
    from one validation pass over ``values``."""
    x = _as_clean_1d(values, minimum=30)
    level = _check_level(level)
    n = x.size
    dev = x - x.mean()
    dev *= dev
    # bit-identical to x.var(ddof=1), the estimate variance_db reports
    s2 = float(dev.sum()) / (n - 1)
    point = _variance_to_db(s2, shot_reference)
    dev *= dev
    m4 = float(dev.sum()) / n
    # m4 >= (s^2 (n-1) / n)^2 (Cauchy-Schwarz), so the radicand is at least
    # s^4 (3n - 1) / (n^2 (n-1)) > 0
    se_db = 10.0 / math.log(10.0) * math.sqrt((m4 - s2 * s2 * (n - 3) / (n - 1)) / n) / s2
    half = NormalDist().inv_cdf(0.5 + level / 2.0) * se_db
    return point, point - half, point + half


@dataclass(frozen=True)
class TransferReport:
    """Conditional (or unconditional) correlation measurement summary.

    squeezing_db is the idler-difference noise relative to the SNL over the
    kept events; the moment-based (delta-method) interval of
    :func:`variance_interval` carries the statistical uncertainty.
    config_echo records the parameters that produced the numbers.
    """

    squeezing_db: float
    ci_low_db: float
    ci_high_db: float
    kept_count: int
    preparation_probability: float
    config_echo: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not (self.ci_low_db <= self.squeezing_db <= self.ci_high_db):
            raise ValidationError(
                "confidence interval must contain the point estimate: "
                f"[{self.ci_low_db}, {self.ci_high_db}] vs {self.squeezing_db}")
        if int(self.kept_count) < 2:
            raise ValidationError(f"kept_count must be >= 2, got {self.kept_count}")
        if not (0.0 <= self.preparation_probability <= 1.0):
            raise ValidationError(
                f"preparation_probability must be in [0, 1], got "
                f"{self.preparation_probability}")
        object.__setattr__(self, "kept_count", int(self.kept_count))
