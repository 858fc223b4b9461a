"""Estimation utilities: shot-normalized variance in dB, binning, intervals.

:class:`Moments` is the one estimator behind every report: the point and
its moment-based (delta-method) interval (:meth:`Moments.estimate`) come
from the count and central moment sums of the values, which a streamed
record merges chunk by chunk, so it needs no copy of every value. The test
suite checks the interval against a percentile bootstrap reference, which
the package does not ship. The kept events' values are merged from blocks
of a fixed count (:class:`BlockedMoments`), so a streamed record and its
batch give the same bits; the same blocks are binned on the one
_BIN_WIDTH_DELTA grid (:func:`_bin_counts`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .errors import EstimationError, ValidationError
from .model import _SAMPLE_CHUNK, COHERENT_DELTA, SHOT_DIFFERENCE_VARIANCE

# the moment-based interval needs this many values
_MIN_INTERVAL_VALUES = 30

# histogram bin width, in units of delta
_BIN_WIDTH_DELTA = 0.1

# two-sided coverage of the reported interval, and its half-width in
# standard errors, 0.9945
_INTERVAL_LEVEL = 0.68
_INTERVAL_HALF_WIDTH_SE = NormalDist().inv_cdf(0.5 + _INTERVAL_LEVEL / 2.0)


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

    ``bin_edges`` are the bin boundaries in units of delta (the
    coherent-state difference standard deviation), _BIN_WIDTH_DELTA apart
    with 0 always at a bin center; ``counts`` the events in each bin.
    """

    bin_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if edges.ndim != 1 or counts.ndim != 1 or edges.size != counts.size + 1:
            raise ValidationError("bin_edges must be 1-d with one more entry than counts")
        if not np.all(np.diff(edges) > 0):
            raise ValidationError("bin_edges must be strictly increasing")
        if np.any(counts < 0):
            raise ValidationError("counts must be non-negative")
        edges.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)


def _bin_counts(x: np.ndarray) -> tuple[int, np.ndarray]:
    """(k_min, counts): counts[j] events fall in the bin centred on
    (k_min + j) * _BIN_WIDTH_DELTA, in delta units."""
    t, k = np.empty(x.size), np.empty(x.size, np.int64)
    # bin index k holds the bin centered at k * _BIN_WIDTH_DELTA (in delta units)
    np.divide(x, COHERENT_DELTA, out=t)
    np.divide(t, _BIN_WIDTH_DELTA, out=t)
    np.add(t, 0.5, out=t)
    np.floor(t, out=t)
    np.copyto(k, t, casting="unsafe")
    k_min = int(k.min())
    return k_min, np.bincount(np.subtract(k, k_min, out=k))


def _merge_counts(a: tuple[int, np.ndarray],
                  b: tuple[int, np.ndarray]) -> tuple[int, np.ndarray]:
    """Sum two (k_min, counts) pairs of _bin_counts; exact."""
    low = min(a[0], b[0])
    counts = np.zeros(max(a[0] + a[1].size, b[0] + b[1].size) - low, dtype=np.int64)
    for k_min, part in (a, b):
        counts[k_min - low:k_min - low + part.size] += part
    return low, counts


def _binned(k_min: int, counts: np.ndarray) -> Histogram:
    """The Histogram of a (k_min, counts) pair of _bin_counts."""
    edges = (np.arange(k_min, k_min + counts.size + 1) - 0.5) * _BIN_WIDTH_DELTA
    return Histogram(bin_edges=edges, counts=counts)


class Moments(NamedTuple):
    """Count, mean and central moment sums of a set of values.

    ``m2``, ``m3`` and ``m4`` are the sums of the 2nd, 3rd and 4th powers of
    the deviations from ``mean``. :meth:`merge` combines the moments of two
    disjoint sets with the pairwise update of Chan, Golub & LeVeque (1983)
    and Pebay (2008, SAND2008-6212), so a record can be summarized chunk by
    chunk; merging in a fixed order gives the same bits every time.
    """

    n: int
    mean: float
    m2: float
    m3: float
    m4: float

    @classmethod
    def of(cls, values) -> "Moments":
        """Two-pass moments of a nonempty 1-d array."""
        x = np.asarray(values, dtype=np.float64)
        dev, sq = np.empty((2, x.size))
        mean = float(x.mean())
        np.subtract(x, mean, out=dev)
        np.multiply(dev, dev, out=sq)
        m2 = float(sq.sum())
        # dev is spent once it has made sq * dev
        m3 = float(np.multiply(sq, dev, out=dev).sum())
        return cls(x.size, mean, m2, m3, float(np.multiply(sq, sq, out=dev).sum()))

    def merge(self, other: "Moments") -> "Moments":
        """The moments of the union of the two sets."""
        na, nb = self.n, other.n
        n = na + nb
        d_n = (other.mean - self.mean) / n
        # delta^2 na nb / n, the between-set part of m2
        between = d_n * d_n * n * na * nb
        return Moments(
            n=n,
            mean=self.mean + d_n * nb,
            m2=self.m2 + other.m2 + between,
            m3=(self.m3 + other.m3 + between * d_n * (na - nb)
                + 3.0 * d_n * (na * other.m2 - nb * self.m2)),
            m4=(self.m4 + other.m4 + between * d_n * d_n * (na * na - na * nb + nb * nb)
                + 6.0 * d_n * d_n * (na * na * other.m2 + nb * nb * self.m2)
                + 4.0 * d_n * (na * other.m3 - nb * self.m3)),
        )

    def estimate(self) -> tuple[float, float, float]:
        """(point, low, high): the noise of the values in dB below the shot
        reference (:func:`variance_db` at SHOT_DIFFERENCE_VARIANCE) and its
        moment-based (delta-method) interval, from their moments.

        The point is bit-identical to ``x.var(ddof=1)`` of the values ``x``
        that :meth:`of` summarized. The sample variance s^2 has asymptotic
        variance (mu4 - sigma^4)/n for any distribution with a finite fourth
        moment, so the interval stays valid for the non-Gaussian conditioned
        record. With m4 the fourth central sample moment, the standard error
        of s^2 is sqrt((m4 - s^4 (n-3)/(n-1)) / n), mapped to dB by the
        derivative (10 / ln 10) / s^2; the interval is centred on the point
        and _INTERVAL_HALF_WIDTH_SE standard errors wide on each side.
        """
        n = self.n
        if n < _MIN_INTERVAL_VALUES:
            raise EstimationError(f"need at least {_MIN_INTERVAL_VALUES} values, got {n}")
        s2, m4 = self.m2 / (n - 1), self.m4 / n
        point = _variance_to_db(s2, SHOT_DIFFERENCE_VARIANCE)
        # m4 >= (s^2 (n-1) / n)^2 (Cauchy-Schwarz), so the radicand is at least
        # s^4 (3n - 1) / (n^2 (n-1)) > 0
        se_db = 10.0 / math.log(10.0) * math.sqrt((m4 - s2 * s2 * (n - 3) / (n - 1)) / n) / s2
        half = _INTERVAL_HALF_WIDTH_SE * se_db
        return point, point - half, point + half


class BlockedMoments:
    """Moments of values that arrive in order, reduced in blocks.

    The blocks are cut from the sequence of values, whatever arrays it
    arrives in: _SAMPLE_CHUNK values each, the last one partial. Each block
    is reduced to :class:`Moments` and, with ``binned``, to bin counts on
    the _BIN_WIDTH_DELTA grid, and merged in order, so a sequence fed a
    chunk at a time gives the bits of the same sequence fed at once. Each
    value is copied into the one block being filled, which grows as it
    fills. :meth:`close` reduces that block, full (from :meth:`add`) or
    the partial last one; ``moments`` is None when no value arrived.
    """

    def __init__(self, binned: bool = False):
        self.moments: Moments | None = None
        self.counts: tuple[int, np.ndarray] | None = None
        self._binned = binned
        self._block = np.empty(0)
        self._filled = 0

    def add(self, values: np.ndarray) -> None:
        while values.size:
            end = self._filled + min(values.size, _SAMPLE_CHUNK - self._filled)
            if end > self._block.size:
                # doubled, up to a block: a config that keeps few values holds few
                grown = np.empty(min(max(2 * self._block.size, end), _SAMPLE_CHUNK))
                grown[:self._filled] = self._block[:self._filled]
                self._block = grown
            self._block[self._filled:end] = values[:end - self._filled]
            values = values[end - self._filled:]
            self._filled = end
            if end == _SAMPLE_CHUNK:
                self.close()

    def close(self) -> "BlockedMoments":
        if self._filled:
            block = self._block[:self._filled]
            part = Moments.of(block)
            self.moments = part if self.moments is None else self.moments.merge(part)
            if self._binned:
                counts = _bin_counts(block)
                self.counts = counts if self.counts is None else _merge_counts(self.counts, counts)
            self._filled = 0
        return self


@dataclass(frozen=True)
class TransferReport:
    """Conditional (or unconditional) correlation measurement summary.

    squeezing_db is the idler-difference noise relative to the SNL over the
    kept events; the moment-based (delta-method) interval of
    :meth:`Moments.estimate` carries the statistical uncertainty.
    """

    squeezing_db: float
    ci_low_db: float
    ci_high_db: float
    kept_count: int
    preparation_probability: float

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
