"""Estimation utilities: shot-normalized variance in dB, histograms, intervals.

:func:`variance_interval` is the interval every run reports; the percentile
bootstrap :func:`bootstrap_ci` stays as the independent reference it is
tested against.
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
    return _clean_variance_db(_as_clean_1d(values, minimum=2), shot_reference)


def _clean_variance_db(x: np.ndarray, shot_reference: float) -> float:
    shot_reference = float(shot_reference)
    if not (shot_reference > 0.0):
        raise ValidationError(f"shot_reference must be > 0, got {shot_reference}")
    var = float(x.var(ddof=1))
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
    point = _clean_variance_db(x, shot_reference)
    n = x.size
    dev = x - x.mean()
    dev *= dev
    s2 = float(dev.sum()) / (n - 1)
    dev *= dev
    m4 = float(dev.sum()) / n
    # m4 >= (s^2 (n-1) / n)^2 (Cauchy-Schwarz), so the radicand is at least
    # s^4 (3n - 1) / (n^2 (n-1)) > 0
    se_db = 10.0 / math.log(10.0) * math.sqrt((m4 - s2 * s2 * (n - 3) / (n - 1)) / n) / s2
    half = NormalDist().inv_cdf(0.5 + level / 2.0) * se_db
    return point, point - half, point + half


def bootstrap_ci(values, shot_reference: float, resamples: int = 1000,
                 level: float = 0.68, seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap interval for :func:`variance_db`.

    O(n * resamples); the reference that :func:`variance_interval` is tested
    against. Deterministic for a fixed seed. The returned interval is
    widened, if necessary, to contain the point estimate (percentile
    intervals can exclude it by a hair on skewed resample distributions).
    """
    x = _as_clean_1d(values, minimum=30)
    resamples = int(resamples)
    if resamples < 200:
        raise ValidationError(f"resamples must be >= 200, got {resamples}")
    level = _check_level(level)

    point = variance_db(x, shot_reference)
    rng = np.random.default_rng(int(seed))
    n = x.size
    estimates = np.empty(resamples)
    # cap the index matrix at ~10^7 entries so large batches stay in memory
    block = max(1, 10_000_000 // n)
    done = 0
    while done < resamples:
        m = min(block, resamples - done)
        idx = rng.integers(0, n, size=(m, n))
        var = x[idx].var(axis=1, ddof=1)
        estimates[done:done + m] = -10.0 * np.log10(var / float(shot_reference))
        done += m

    tail = 100.0 * (1.0 - level) / 2.0
    low, high = np.percentile(estimates, [tail, 100.0 - tail])
    return min(float(low), point), max(float(high), point)


@dataclass(frozen=True)
class TransferReport:
    """Conditional (or unconditional) correlation measurement summary.

    squeezing_db is the target-difference noise relative to the SNL over the
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
