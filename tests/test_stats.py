"""Tests for the estimation helpers."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from twinbeam_transfer.errors import EstimationError, ValidationError
from twinbeam_transfer.model import COHERENT_DELTA, SHOT_DIFFERENCE_VARIANCE
from twinbeam_transfer.scenario import ScenarioConfig, generate_batch
from twinbeam_transfer.selection import SelectionConfig, select
from twinbeam_transfer.stats import (
    Histogram,
    TransferReport,
    _as_clean_1d,
    _check_level,
    histogram,
    variance_db,
    variance_interval,
)


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


def test_histogram_single_value_at_zero():
    h = histogram([0.0], bin_width_delta=0.1)
    assert h.total == 1
    assert h.counts.sum() == 1
    (idx,) = np.nonzero(h.counts)
    assert h.bin_edges[idx[0]] < 0.0 < h.bin_edges[idx[0] + 1]
    # zero sits at a bin center
    assert h.centers[idx[0]] == pytest.approx(0.0, abs=1e-12)


def test_histogram_conserves_counts_and_units():
    rng = np.random.default_rng(11)
    x = rng.normal(0, COHERENT_DELTA, size=10_000)
    h = histogram(x, bin_width_delta=0.1)
    assert h.counts.sum() == h.total == x.size
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
    h = histogram(x, bin_width_delta=0.1)
    prob = np.diff(sps.norm.cdf(h.bin_edges))
    expected = h.total * prob
    keep = expected >= 10.0
    chi2 = float(((h.counts[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    pvalue = sps.chi2.sf(chi2, df=int(keep.sum()) - 1)
    assert pvalue > 0.001


def test_histogram_moments():
    rng = np.random.default_rng(21)
    x = rng.normal(0, COHERENT_DELTA, size=200_000)
    h = histogram(x, bin_width_delta=0.05)
    # binned std in delta units approximates 1 (binning bias ~ w^2/12)
    assert h.std == pytest.approx(1.0, abs=0.01)
    assert h.mean == pytest.approx(0.0, abs=0.01)
    assert h.densities.sum() * h.bin_width == pytest.approx(1.0, rel=1e-12)


def test_histogram_validation():
    with pytest.raises(EstimationError):
        histogram([], bin_width_delta=0.1)
    with pytest.raises(ValidationError):
        histogram([0.0], bin_width_delta=0.0)
    with pytest.raises(ValidationError):
        histogram([0.0], bin_width_delta=1.0)
    with pytest.raises(ValidationError):
        Histogram(bin_width=0.1, bin_edges=[0.0, 0.1, 0.3], counts=[1, 1], total=2)
    with pytest.raises(ValidationError):
        Histogram(bin_width=0.1, bin_edges=[0.0, 0.1, 0.2], counts=[1, 1], total=3)


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


def test_variance_interval_centred_on_point_and_validated():
    x = np.random.default_rng(8).normal(0, 1, size=500)
    point = variance_db(x, 2.0)
    lo, hi = variance_interval(x, 2.0)
    assert lo < point < hi
    assert point - lo == pytest.approx(hi - point, rel=1e-12)
    # a wider level gives a wider interval
    lo95, hi95 = variance_interval(x, 2.0, level=0.95)
    assert lo95 < lo and hi < hi95
    # two-point data sit at the Cauchy-Schwarz minimum of m4: still finite
    lo2, hi2 = variance_interval(np.tile([-1.0, 1.0], 15), 2.0)
    assert math.isfinite(lo2) and lo2 < hi2
    with pytest.raises(EstimationError):
        variance_interval(np.arange(29.0), 2.0)
    with pytest.raises(EstimationError):
        variance_interval(np.append(x, np.inf), 2.0)
    for level in (0.0, 1.0):
        with pytest.raises(ValidationError):
            variance_interval(x, 2.0, level=level)


def test_variance_interval_matches_bootstrap_on_default_batch():
    # the seed-0 default batch, conditioned at the default 0.03 delta window
    # and at a 0.3 delta window; the percentile bootstrap is the reference
    cfg = ScenarioConfig()
    batch = generate_batch(cfg)
    difference = batch.i1 - batch.i2
    for window, kept, tolerance in ((0.03, 1054, 0.03), (0.3, 10292, 0.01)):
        result = select(batch, SelectionConfig(bandwidth_delta=window))
        assert result.kept_count == kept
        values = difference[result.kept_indices]
        reference = bootstrap_ci(values, SHOT_DIFFERENCE_VARIANCE, resamples=1000)
        interval = variance_interval(values, SHOT_DIFFERENCE_VARIANCE)
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
        lo, hi = variance_interval(x, 2.0)
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
