"""Tests for the post-selection rule and conditional statistics."""

import math

import numpy as np
import pytest

from twinbeam_transfer.errors import (
    EmptySelectionError,
    InsufficientStatisticsError,
    ValidationError,
)
from twinbeam_transfer.model import (
    MeasurementSetting,
    SampleBatch,
    TwinPairParams,
    build_covariance,
    sample_batch,
)
from twinbeam_transfer.oracle import predict_transfer
from twinbeam_transfer.selection import (
    SelectionConfig,
    SelectionResult,
    conditional_statistics,
    select,
    unconditioned_statistics,
)
from twinbeam_transfer.stats import histogram, variance_db


PAIR = TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0)


def _twin_batch(n=300_000, seed=101, setting=MeasurementSetting.TWIN_BEAMS_0DEG):
    return sample_batch(build_covariance(PAIR, PAIR, setting), n, seed)


def _coherent_batch(n=300_000, seed=707):
    return _twin_batch(n, seed, MeasurementSetting.COHERENT_STATE)


def test_select_all_when_window_huge():
    batch = _twin_batch(n=50_000)
    result = select(batch, SelectionConfig(bandwidth_delta=1e6))
    assert result.kept_count == batch.n
    assert result.preparation_probability == 1.0
    assert np.array_equal(result.kept_indices, np.arange(batch.n))


def test_selection_probability_coherent():
    batch = _coherent_batch()
    result = select(batch, SelectionConfig(bandwidth_delta=0.03))
    # trigger difference is N(0, 2), so P(|D| <= 0.03*delta) = erf(0.03/sqrt(2))
    expected = math.erf(0.03 / math.sqrt(2.0))
    sigma = math.sqrt(expected * (1 - expected) / batch.n)
    assert abs(result.preparation_probability - expected) < 3.5 * sigma


def test_selection_probability_twin_beams():
    batch = _twin_batch()
    result = select(batch, SelectionConfig(bandwidth_delta=0.03))
    expected = predict_transfer(PAIR, PAIR, 0.03).selection_probability
    assert expected == pytest.approx(3.4e-3, rel=0.02)
    sigma = math.sqrt(expected * (1 - expected) / batch.n)
    assert abs(result.preparation_probability - expected) < 3.5 * sigma


def test_conditional_statistics_headline_transfer():
    batch = _twin_batch()
    cfg = SelectionConfig(bandwidth_delta=0.03)
    report = conditional_statistics(batch, select(batch, cfg), cfg)
    assert report.squeezing_db == pytest.approx(4.0, abs=0.3)
    assert report.kept_count >= 100
    assert report.ci_low_db <= report.squeezing_db <= report.ci_high_db
    assert report.config_echo["selection"]["bandwidth_delta"] == 0.03


def test_conditional_statistics_coherent_control():
    batch = _coherent_batch()
    cfg = SelectionConfig(bandwidth_delta=0.03)
    report = conditional_statistics(batch, select(batch, cfg), cfg)
    assert report.squeezing_db == pytest.approx(0.0, abs=0.2)


def test_conditional_statistics_rotated_sits_at_classical_bound():
    # at 45 degrees the input difference is at the SNL while the huge sum
    # noise is still common to trigger and target, so conditioning transfers
    # only the classical correlation: the output lands 3 dB above the SNL,
    # not at it (four independent shot contributions survive)
    batch = _twin_batch(seed=55, setting=MeasurementSetting.TWIN_BEAMS_45DEG)
    cfg = SelectionConfig(bandwidth_delta=0.03)
    report = conditional_statistics(batch, select(batch, cfg), cfg)
    oracle = predict_transfer(PAIR, PAIR, 0.03, MeasurementSetting.TWIN_BEAMS_45DEG)
    assert oracle.transferred_db == pytest.approx(-2.97, abs=0.01)
    assert report.squeezing_db == pytest.approx(oracle.transferred_db, abs=0.3)


def test_unconditional_limit_equals_plain_statistics():
    batch = _twin_batch(n=100_000)
    cfg = SelectionConfig(bandwidth_delta=1e9)
    result = select(batch, cfg)
    report = conditional_statistics(batch, result, cfg)
    direct = variance_db(batch.i1 - batch.i2, 2.0)
    assert report.squeezing_db == direct
    assert report.kept_count == batch.n
    assert report.preparation_probability == 1.0


def test_unconditioned_statistics_matches_widest_window():
    batch = _twin_batch(n=100_000)
    cfg = SelectionConfig(bandwidth_delta=1e9)
    wide = conditional_statistics(batch, select(batch, cfg), cfg)
    report = unconditioned_statistics(batch, batch.i1 - batch.i2, cfg)
    assert (report.squeezing_db, report.ci_low_db, report.ci_high_db) == (
        wide.squeezing_db, wide.ci_low_db, wide.ci_high_db)
    assert report.kept_count == batch.n
    assert report.preparation_probability == 1.0
    assert report.config_echo["selection"]["bandwidth_delta"] is None
    with pytest.raises(ValidationError):
        unconditioned_statistics(batch, (batch.i1 - batch.i2)[:-1], cfg)


def test_order_invariance():
    batch = _twin_batch(n=100_000)
    cfg = SelectionConfig(bandwidth_delta=0.1)
    kept = select(batch, cfg).kept_indices
    pairs = np.column_stack([batch.i1[kept], batch.i2[kept]])

    rng = np.random.default_rng(0)
    perm = rng.permutation(batch.n)
    permuted = SampleBatch(data=batch.data[perm], seed=batch.seed)
    kept_p = select(permuted, cfg).kept_indices
    pairs_p = np.column_stack([permuted.i1[kept_p], permuted.i2[kept_p]])

    order = np.lexsort(pairs.T)
    order_p = np.lexsort(pairs_p.T)
    assert np.array_equal(pairs[order], pairs_p[order_p])


def test_mc_matches_oracle_at_moderate_window():
    batch = _twin_batch(n=300_000, seed=31)
    cfg = SelectionConfig(bandwidth_delta=0.1)
    report = conditional_statistics(batch, select(batch, cfg), cfg)
    oracle = predict_transfer(PAIR, PAIR, 0.1)
    se = (report.ci_high_db - report.ci_low_db) / 2.0
    assert abs(report.squeezing_db - oracle.transferred_db) < 3.0 * se


def test_conditioned_histogram_narrower_than_coherent():
    # transferred squeezing of ~4 dB shows up as a width ratio of 10^(-4/20)
    twin = _twin_batch()
    cfg = SelectionConfig(bandwidth_delta=0.03)
    kept = select(twin, cfg).kept_indices
    conditioned = histogram(twin.i1[kept] - twin.i2[kept], 0.1)
    coherent_batch = _coherent_batch()
    reference = histogram(coherent_batch.i1 - coherent_batch.i2, 0.1)
    ratio = conditioned.std / reference.std
    assert ratio == pytest.approx(10 ** (-4.0 / 20.0), abs=0.05)


def test_empty_selection_raises():
    batch = _coherent_batch(n=200, seed=3)
    with pytest.raises(EmptySelectionError):
        select(batch, SelectionConfig(bandwidth_delta=1e-7))


def test_insufficient_statistics_carries_count():
    batch = _coherent_batch(n=10_000, seed=8)
    cfg = SelectionConfig(bandwidth_delta=0.003)
    result = select(batch, cfg)
    assert 0 < result.kept_count < 100
    with pytest.raises(InsufficientStatisticsError) as info:
        conditional_statistics(batch, result, cfg)
    assert info.value.kept_count == result.kept_count
    assert info.value.minimum == 100


def test_selection_config_validation():
    with pytest.raises(ValidationError):
        SelectionConfig(bandwidth_delta=0.0)
    with pytest.raises(ValidationError):
        SelectionConfig(bandwidth_delta=0.1, min_kept=10)


def test_swapped_roles_also_transfer():
    # gating on the idlers and measuring the signals is the mirror protocol
    batch = _twin_batch(seed=77)
    # permuting the columns to (i1, s1, i2, s2) swaps the roles
    batch = SampleBatch(batch.data[:, [1, 0, 3, 2]], batch.seed)
    cfg = SelectionConfig(bandwidth_delta=0.03)
    report = conditional_statistics(batch, select(batch, cfg), cfg)
    assert report.squeezing_db == pytest.approx(4.0, abs=0.3)


def test_selection_result_validation():
    with pytest.raises(ValidationError):
        SelectionResult(kept_indices=np.array([3, 1, 2]), total=10)
    with pytest.raises(ValidationError):
        SelectionResult(kept_indices=np.array([0, 5, 12]), total=10)
    with pytest.raises(ValidationError):
        SelectionResult(kept_indices=np.array([], dtype=np.int64), total=10)


def test_reports_are_deterministic():
    batch = _twin_batch(n=100_000, seed=5)
    cfg = SelectionConfig(bandwidth_delta=0.05)
    r1 = conditional_statistics(batch, select(batch, cfg), cfg)
    r2 = conditional_statistics(batch, select(batch, cfg), cfg)
    assert r1 == r2
