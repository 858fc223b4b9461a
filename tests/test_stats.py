"""Tests for the estimation helpers."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from twinbeam_transfer.errors import EstimationError, ValidationError
from twinbeam_transfer.model import (
    _SAMPLE_CHUNK,
    COHERENT_DELTA,
    SHOT_DIFFERENCE_VARIANCE,
    build_covariance,
    sample_batch,
)
from twinbeam_transfer.scenario import ScenarioConfig
from twinbeam_transfer.selection import SelectionConfig, select
from twinbeam_transfer.stats import (
    BlockedMoments,
    Histogram,
    Moments,
    TransferReport,
    _as_clean_1d,
    _bin_counts,
    _binned,
    _merge_counts,
    variance_db,
)


def bootstrap_ci(values, shot_reference: float, resamples: int = 1000,
                 level: float = 0.68, seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap interval for :func:`variance_db`.

    O(n * resamples); the reference that :meth:`Moments.estimate`'s interval
    is tested against. Deterministic for a fixed seed. The returned interval is
    widened, if necessary, to contain the point estimate (percentile
    intervals can exclude it by a hair on skewed resample distributions).
    """
    x = _as_clean_1d(values, minimum=30)
    resamples = int(resamples)
    if resamples < 200:
        raise ValidationError(f"resamples must be >= 200, got {resamples}")
    level = float(level)
    if not (0.0 < level < 1.0):
        raise ValidationError(f"level must be in (0, 1), got {level}")

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


def _values_with_sample_variance(v: float) -> np.ndarray:
    # two points at +-a have unbiased sample variance 2*a^2
    a = math.sqrt(v / 2.0)
    return np.array([-a, a])


@pytest.mark.parametrize("var,expected", [
    (2.0, 0.00),
    (0.3990, 7.00),
    (0.7980, 3.99),
])
def test_variance_db_reference_points(var, expected):
    assert variance_db(_values_with_sample_variance(var), 2.0) == pytest.approx(
        expected, abs=0.005)


def test_variance_db_scale_invariance():
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1.3, size=5000)
    for c in (0.1, 3.0, 17.0):
        assert variance_db(c * x, c * c * 2.0) == pytest.approx(
            variance_db(x, 2.0), rel=1e-12)


def test_variance_db_rejects_degenerate_input():
    with pytest.raises(EstimationError):
        variance_db([1.0], 2.0)
    with pytest.raises(EstimationError):
        variance_db([3.0, 3.0, 3.0], 2.0)
    with pytest.raises(ValidationError):
        variance_db([0.0, 1.0], 0.0)
    with pytest.raises(EstimationError):
        variance_db([0.0, np.nan], 2.0)


def _histogram(x):
    # the histogram of values x, as the reducer bins a block of them
    return _binned(*_bin_counts(np.asarray(x, dtype=np.float64)))


def test_histogram_single_value_at_zero():
    h = _histogram([0.0])
    assert h.counts.sum() == 1
    (idx,) = np.nonzero(h.counts)
    left, right = h.bin_edges[idx[0]], h.bin_edges[idx[0] + 1]
    assert left < 0.0 < right
    # zero sits at a bin center
    assert 0.5 * (left + right) == pytest.approx(0.0, abs=1e-12)


def test_histogram_conserves_counts_and_units():
    rng = np.random.default_rng(11)
    x = rng.normal(0, COHERENT_DELTA, size=10_000)
    h = _histogram(x)
    assert h.counts.sum() == x.size
    assert np.all(np.diff(h.bin_edges) > 0)
    assert np.allclose(np.diff(h.bin_edges), 0.1)
    # edges are in delta units: they must cover the data rescaled by delta
    assert h.bin_edges[0] <= (x / COHERENT_DELTA).min()
    assert h.bin_edges[-1] >= (x / COHERENT_DELTA).max()


def test_histogram_matches_unit_gaussian():
    # coherent difference samples are N(0, delta^2) in model units, so the
    # binned distribution in delta units must fit a standard normal
    rng = np.random.default_rng(808)
    x = rng.normal(0, COHERENT_DELTA, size=1_000_000)
    h = _histogram(x)
    prob = np.diff(sps.norm.cdf(h.bin_edges))
    expected = h.counts.sum() * prob
    keep = expected >= 10.0
    chi2 = float(((h.counts[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    pvalue = sps.chi2.sf(chi2, df=int(keep.sum()) - 1)
    assert pvalue > 0.001


def test_histogram_validation():
    Histogram(bin_edges=[0.0, 0.1, 0.3], counts=[1, 0])
    for edges, counts in (([[0.0, 0.1], [0.2, 0.3]], [1]),   # 2-d edges
                          ([0.0, 0.1, 0.2], [[1, 1]]),         # 2-d counts
                          ([0.0, 0.1], [1, 1]),                # as many edges as counts
                          ([0.0, 0.2, 0.1], [1, 1]),           # decreasing edges
                          ([0.0, 0.1, 0.1], [1, 1]),           # a bin of no width
                          ([0.0, 0.1, 0.2], [1, -1])):         # a negative count
        with pytest.raises(ValidationError):
            Histogram(bin_edges=edges, counts=counts)


def test_bootstrap_deterministic_and_contains_point():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, size=2000)
    point = variance_db(x, 2.0)
    lo1, hi1 = bootstrap_ci(x, 2.0, resamples=500, seed=9)
    lo2, hi2 = bootstrap_ci(x, 2.0, resamples=500, seed=9)
    assert (lo1, hi1) == (lo2, hi2)
    assert lo1 <= point <= hi1


def test_bootstrap_width_shrinks_with_n():
    rng = np.random.default_rng(31)
    x = rng.normal(0, 1, size=100_000)
    lo, hi = bootstrap_ci(x, 2.0, resamples=400, seed=1)
    assert hi - lo < 0.1


def test_bootstrap_width_at_thousand_events():
    # ~10^3 kept events at 4 dB below SNL: the 68% interval width should sit
    # in the few-tenths-of-a-dB range quoted for conditioned measurements
    rng = np.random.default_rng(77)
    x = rng.normal(0, math.sqrt(2.0 * 10 ** (-0.4)), size=1000)
    lo, hi = bootstrap_ci(x, 2.0, resamples=1000, seed=4)
    assert 0.2 <= hi - lo <= 0.5


def test_bootstrap_point_estimate_independent_of_resamples():
    rng = np.random.default_rng(13)
    x = rng.normal(0, 1, size=3000)
    point = variance_db(x, 2.0)
    lo_a, hi_a = bootstrap_ci(x, 2.0, resamples=200, seed=2)
    lo_b, hi_b = bootstrap_ci(x, 2.0, resamples=1000, seed=2)
    assert lo_a <= point <= hi_a and lo_b <= point <= hi_b
    width = hi_b - lo_b
    assert abs((hi_a - lo_a) - width) < 0.2 * width


def test_bootstrap_coverage():
    # 68% interval should cover the known truth in roughly 68% of repeats
    truth = -10.0 * math.log10(0.5)
    rng = np.random.default_rng(99)
    hits = 0
    reps = 200
    for k in range(reps):
        x = rng.normal(0, 1, size=2000)
        lo, hi = bootstrap_ci(x, 2.0, resamples=300, seed=k)
        hits += lo <= truth <= hi
    assert 0.60 * reps <= hits <= 0.76 * reps


def test_bootstrap_validation():
    with pytest.raises(EstimationError):
        bootstrap_ci(np.zeros(10) + np.arange(10), 2.0)
    x = np.random.default_rng(1).normal(size=100)
    with pytest.raises(ValidationError):
        bootstrap_ci(x, 2.0, resamples=100)
    with pytest.raises(ValidationError):
        bootstrap_ci(x, 2.0, level=1.0)


def _interval(x):
    # the interval a report gives values x
    return Moments.of(x).estimate()[1:]


def test_variance_interval_centred_on_point_and_validated():
    x = np.random.default_rng(8).normal(0, 1, size=500)
    point = variance_db(x, 2.0)
    lo, hi = _interval(x)
    assert lo < point < hi
    assert point - lo == pytest.approx(hi - point, rel=1e-12)
    # two-point data sit at the Cauchy-Schwarz minimum of m4: still finite
    lo2, hi2 = _interval(np.tile([-1.0, 1.0], 15))
    assert math.isfinite(lo2) and lo2 < hi2
    with pytest.raises(EstimationError):
        _interval(np.arange(29.0))


def test_variance_interval_matches_bootstrap_on_default_batch():
    # the seed-0 default batch, conditioned at the default 0.03 delta window
    # and at a 0.3 delta window; the percentile bootstrap is the reference
    cfg = ScenarioConfig()
    batch = sample_batch(build_covariance(cfg.pair1, cfg.pair2, cfg.setting),
                         cfg.n_points, cfg.seed)
    difference = batch.i1 - batch.i2
    for window, kept, tolerance in ((0.03, 985, 0.03), (0.3, 10033, 0.01)):
        result = select(batch, SelectionConfig(bandwidth_delta=window))
        assert result.kept_count == kept
        values = difference[result.kept_indices]
        reference = bootstrap_ci(values, SHOT_DIFFERENCE_VARIANCE, resamples=1000)
        interval = _interval(values)
        assert interval == pytest.approx(reference, abs=tolerance)


@pytest.mark.parametrize("draw", [
    lambda rng, size: rng.normal(0.0, 1.0, size=size),
    # kurtosis 6, like the non-Gaussian conditioned mixture
    lambda rng, size: rng.laplace(0.0, math.sqrt(0.5), size=size),
], ids=["gaussian", "laplace"])
def test_variance_interval_coverage(draw):
    # unit-variance data against a shot reference of 2. The hit count is
    # binomial with sigma sqrt(0.68 * 0.32 / 2000) = 0.0104, so the +-0.04
    # band is +-3.8 sigma: a false-alarm rate of about 1.3e-4 per check at
    # the nominal 68%. Over 20000 repeats the rates were 0.678 (Gaussian)
    # and 0.674 (Laplace); from 0.674 the lower bound is 3.2 sigma away,
    # about 7e-4 per check
    truth = -10.0 * math.log10(0.5)
    rng = np.random.default_rng(2024)
    reps = 2000
    data = draw(rng, (reps, 2000))
    hits = 0
    for x in data:
        lo, hi = _interval(x)
        hits += lo <= truth <= hi
    assert 0.64 * reps <= hits <= 0.72 * reps


def test_transfer_report_validation():
    TransferReport(squeezing_db=4.0, ci_low_db=3.8, ci_high_db=4.2,
                   kept_count=1000, preparation_probability=0.003)
    with pytest.raises(ValidationError):
        TransferReport(squeezing_db=4.0, ci_low_db=4.1, ci_high_db=4.2,
                       kept_count=1000, preparation_probability=0.003)
    with pytest.raises(ValidationError):
        TransferReport(squeezing_db=4.0, ci_low_db=3.8, ci_high_db=4.2,
                       kept_count=1, preparation_probability=0.003)
    with pytest.raises(ValidationError):
        TransferReport(squeezing_db=4.0, ci_low_db=3.8, ci_high_db=4.2,
                       kept_count=100, preparation_probability=1.5)


@pytest.mark.parametrize("cuts", [(1,), (999,), (500, 501), (3, 250, 251, 997),
                                  (65,), (1, 2, 3)])
def test_moments_merge_matches_two_pass(cuts):
    # uneven chunks, 1-row chunks among them, merged in order like a stream;
    # skewed data so the third moment is far from 0
    rng = np.random.default_rng(17)
    x = 5.0 + rng.exponential(2.0, size=1000)
    merged = None
    for part in np.split(x, cuts):
        moments = Moments.of(part)
        merged = moments if merged is None else merged.merge(moments)
    dev = x - x.mean()
    assert merged.n == x.size
    assert merged.mean == pytest.approx(x.mean(), rel=1e-14)
    for got, power in ((merged.m2, 2), (merged.m3, 3), (merged.m4, 4)):
        assert got == pytest.approx(float((dev ** power).sum()), rel=1e-12)


def test_moments_estimate_needs_30_values():
    with pytest.raises(EstimationError):
        Moments.of(np.arange(29.0)).estimate()
    # at 30 values: the point of variance_db at the shot reference, and the
    # delta-method interval of the formula, the 68% normal quantile of
    # standard errors each side
    x = np.arange(30.0)
    n, s2 = x.size, x.var(ddof=1)
    m4 = float(((x - x.mean()) ** 4).mean())
    se_db = 10.0 / math.log(10.0) * math.sqrt((m4 - s2 * s2 * (n - 3) / (n - 1)) / n) / s2
    half = sps.norm.ppf(0.84) * se_db
    point = variance_db(x, SHOT_DIFFERENCE_VARIANCE)
    assert Moments.of(x).estimate() == pytest.approx((point, point - half, point + half),
                                                     rel=1e-13)


def _two_pass_moments(x):
    # the formulas with fresh temporaries, as Moments.of computed them
    # before it took buffers
    mean = float(x.mean())
    dev = x - mean
    sq = dev * dev
    return Moments(x.size, mean, float(sq.sum()), float((sq * dev).sum()),
                   float((sq * sq).sum()))


def _fresh_bin_counts(x, w):
    k = np.floor(x / COHERENT_DELTA / w + 0.5).astype(np.int64)
    return int(k.min()), np.bincount(k - k.min())


def test_moments_and_bin_counts_match_the_formulas():
    # a full block, a short last block and random lengths down to 30 give
    # the bits of the formulas with fresh temporaries, and the values are
    # left as they were
    rng = np.random.default_rng(29)
    lengths = [_SAMPLE_CHUNK, 30, *rng.integers(30, _SAMPLE_CHUNK, size=8, endpoint=True)]
    for m in lengths:
        x = rng.normal(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 20.0), size=m) * COHERENT_DELTA
        kept = x.copy()
        assert Moments.of(x) == _two_pass_moments(x)
        reference_min, reference = _fresh_bin_counts(x, 0.1)
        k_min, counts = _bin_counts(x)
        assert k_min == reference_min and np.array_equal(counts, reference)
        assert np.array_equal(x, kept)


def _blocked_reference(x):
    # the moments and bin counts of x's blocks of _SAMPLE_CHUNK values,
    # merged in order
    moments = counts = None
    for start in range(0, x.size, _SAMPLE_CHUNK):
        block = x[start:start + _SAMPLE_CHUNK]
        part, part_counts = Moments.of(block), _bin_counts(block)
        moments = part if moments is None else moments.merge(part)
        counts = part_counts if counts is None else _merge_counts(counts, part_counts)
    return moments, counts


@pytest.mark.parametrize("sizes", [
    (),                                   # nothing arrives
    (0, 0),                               # empty arrays only
    (40,),                                # one partial block
    (_SAMPLE_CHUNK,),                     # one whole block
    (_SAMPLE_CHUNK, 0, 1),                # a block, an empty array, one more value
    (70_000, 1, 65_535, 3),               # arrays across block edges
    (5_000,) * 30,                        # many short arrays
    (2 * _SAMPLE_CHUNK + 7,),             # several blocks in one array
])
def test_blocked_moments_do_not_depend_on_the_arrays_they_arrive_in(sizes):
    # the blocks are cut from the sequence of values: any cut of it into
    # arrays gives the bits of the blocks of the whole, moments and bin
    # counts, and less than a block of values is held between arrays, in a
    # buffer no longer than a block
    rng = np.random.default_rng(41)
    x = rng.normal(0.3, 2.0, size=sum(sizes)) * COHERENT_DELTA
    blocks = BlockedMoments(binned=True)
    for part in np.split(x, np.cumsum(sizes)[:-1]) if sizes else ():
        blocks.add(part)
        assert blocks._filled < _SAMPLE_CHUNK and blocks._block.size <= _SAMPLE_CHUNK
    blocks.close()
    moments, counts = _blocked_reference(x)
    assert blocks.moments == moments
    if counts is None:
        assert blocks.counts is None
    else:
        assert blocks.counts[0] == counts[0] and np.array_equal(blocks.counts[1], counts[1])
    assert BlockedMoments().close().moments is None
