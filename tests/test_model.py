"""Tests for the Gaussian two-pair noise model."""

import math

import numpy as np
import pytest

from twinbeam_transfer.errors import ModelError, ValidationError
from twinbeam_transfer.model import (
    CHANNELS,
    COHERENT_DELTA,
    SHOT_DIFFERENCE_VARIANCE,
    FourChannelCovariance,
    MeasurementSetting,
    TwinPairParams,
    build_covariance,
    effective_variances,
    sample_batch,
    squeezing_db_of,
)


def test_constants():
    assert SHOT_DIFFERENCE_VARIANCE == 2.0
    assert COHERENT_DELTA == pytest.approx(math.sqrt(2.0), abs=0.0)


def test_effective_variances_reference_point():
    # 7 dB below SNL and 20 dB above it, no rotation, unit efficiency
    p = TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0)
    v_minus, v_plus = effective_variances(p)
    assert v_minus == pytest.approx(2.0 * 10 ** (-0.7), rel=1e-12)
    assert v_minus == pytest.approx(0.399052, abs=1e-6)
    assert v_plus == pytest.approx(200.0, rel=1e-12)


def test_effective_variances_coherent_is_exact_snl():
    p = TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0, efficiency=0.8)
    assert effective_variances(p, MeasurementSetting.COHERENT_STATE) == (2.0, 2.0)


def test_effective_variances_45deg_kills_correlation():
    p = TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0)
    v_minus, v_plus = effective_variances(p, MeasurementSetting.TWIN_BEAMS_45DEG)
    # cos(90 deg)^2 vanishes identically, so the difference sits at the SNL
    assert v_minus == pytest.approx(2.0, abs=1e-12)
    assert v_plus == pytest.approx(200.0, rel=1e-12)


def test_effective_variances_45deg_overrides_rotation_param():
    p0 = TwinPairParams(squeezing_db=5.0, rotation_deg=0.0)
    p1 = TwinPairParams(squeezing_db=5.0, rotation_deg=30.0)
    assert (effective_variances(p0, MeasurementSetting.TWIN_BEAMS_45DEG)
            == effective_variances(p1, MeasurementSetting.TWIN_BEAMS_45DEG))


def test_rotation_interpolates_to_snl():
    p = TwinPairParams(squeezing_db=7.0, rotation_deg=20.0)
    v_minus, _ = effective_variances(p)
    c2 = math.cos(math.radians(40.0)) ** 2
    assert v_minus == pytest.approx(c2 * 2.0 * 10 ** (-0.7) + (1 - c2) * 2.0, rel=1e-12)


def test_loss_pulls_both_variances_toward_snl():
    p = TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0, efficiency=0.6)
    v_minus, v_plus = effective_variances(p)
    assert v_minus == pytest.approx(0.6 * 2.0 * 10 ** (-0.7) + 0.4 * 2.0, rel=1e-12)
    assert v_plus == pytest.approx(0.6 * 200.0 + 0.4 * 2.0, rel=1e-12)


def test_loss_is_applied_after_rotation():
    p = TwinPairParams(squeezing_db=7.0, efficiency=0.6, rotation_deg=20.0)
    v_minus, _ = effective_variances(p)
    c2 = math.cos(math.radians(40.0)) ** 2
    rotated = c2 * 2.0 * 10 ** (-0.7) + (1 - c2) * 2.0
    assert v_minus == pytest.approx(0.6 * rotated + 0.4 * 2.0, rel=1e-12)


def test_difference_variance_monotone_in_efficiency():
    values = [effective_variances(TwinPairParams(squeezing_db=7.0, efficiency=e))[0]
              for e in (0.2, 0.4, 0.6, 0.8, 1.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("field,kwargs", [
    ("squeezing_db", dict(squeezing_db=-0.1)),
    ("squeezing_db", dict(squeezing_db=20.5)),
    ("excess_sum_db", dict(squeezing_db=3.0, excess_sum_db=-1.0)),
    ("excess_sum_db", dict(squeezing_db=3.0, excess_sum_db=61.0)),
    ("efficiency", dict(squeezing_db=3.0, efficiency=0.0)),
    ("efficiency", dict(squeezing_db=3.0, efficiency=1.2)),
    ("rotation_deg", dict(squeezing_db=3.0, rotation_deg=-5.0)),
    ("rotation_deg", dict(squeezing_db=3.0, rotation_deg=46.0)),
    ("squeezing_db", dict(squeezing_db=float("nan"))),
])
def test_params_validation_names_offending_field(field, kwargs):
    with pytest.raises(ValidationError, match=field):
        TwinPairParams(**kwargs)


def test_build_covariance_block_structure():
    cov = build_covariance(TwinPairParams(squeezing_db=7.0),
                           TwinPairParams(squeezing_db=4.0))
    m = cov.matrix
    assert m.shape == (4, 4)
    assert np.array_equal(m, m.T)
    # pairs are independent: off blocks exactly zero, not merely small
    assert np.all(m[:2, 2:] == 0.0)
    v_minus, v_plus = effective_variances(TwinPairParams(squeezing_db=7.0))
    assert m[0, 0] == pytest.approx((v_plus + v_minus) / 4, rel=1e-12)
    assert m[0, 1] == pytest.approx((v_plus - v_minus) / 4, rel=1e-12)


def test_covariance_derived_variances_roundtrip():
    p1 = TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0)
    p2 = TwinPairParams(squeezing_db=4.0, excess_sum_db=15.0)
    cov = build_covariance(p1, p2)
    for k, p in ((1, p1), (2, p2)):
        v_minus, v_plus = effective_variances(p)
        assert cov.difference_variance(k) == pytest.approx(v_minus, rel=1e-12)
        assert cov.sum_variance(k) == pytest.approx(v_plus, rel=1e-12)


@pytest.mark.parametrize("s_db,expected", [(7.0, 7.0), (0.0, 0.0), (3.01, 3.01)])
def test_squeezing_db_roundtrip(s_db, expected):
    cov = build_covariance(TwinPairParams(squeezing_db=s_db),
                           TwinPairParams(squeezing_db=s_db))
    assert squeezing_db_of(cov, 1) == pytest.approx(expected, abs=1e-9)
    assert squeezing_db_of(cov, 2) == pytest.approx(expected, abs=1e-9)


def test_squeezing_db_of_coherent_is_zero():
    cov = build_covariance(TwinPairParams(squeezing_db=7.0),
                           TwinPairParams(squeezing_db=7.0),
                           MeasurementSetting.COHERENT_STATE)
    assert squeezing_db_of(cov, 1) == pytest.approx(0.0, abs=1e-12)


def test_covariance_rejects_nonzero_cross_block():
    m = np.eye(4)
    m[0, 2] = m[2, 0] = 1e-9
    with pytest.raises(ValidationError, match="cross-pair"):
        FourChannelCovariance(m)


def test_covariance_rejects_asymmetry_and_indefiniteness():
    m = np.eye(4)
    m[0, 1] = 0.5
    with pytest.raises(ValidationError, match="symmetric"):
        FourChannelCovariance(m)
    m = np.diag([1.0, -1.0, 1.0, 1.0])
    with pytest.raises(ModelError):
        FourChannelCovariance(m)


def test_sample_batch_deterministic_and_worker_invariant():
    cov = build_covariance(TwinPairParams(squeezing_db=7.0),
                           TwinPairParams(squeezing_db=7.0))
    a = sample_batch(cov, 200_000, seed=42)
    b = sample_batch(cov, 200_000, seed=42)
    c = sample_batch(cov, 200_000, seed=42, workers=4)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.data, c.data)
    d = sample_batch(cov, 200_000, seed=43)
    assert not np.array_equal(a.data, d.data)


def test_sample_batch_prefix_stable_in_n():
    # growing n must extend the stream, not reshuffle it
    cov = build_covariance(TwinPairParams(squeezing_db=5.0),
                           TwinPairParams(squeezing_db=5.0))
    short = sample_batch(cov, 70_000, seed=7)
    long = sample_batch(cov, 140_000, seed=7)
    assert np.array_equal(short.data[: 1 << 16], long.data[: 1 << 16])


def test_sample_batch_matches_target_covariance():
    cov = build_covariance(TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0),
                           TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0))
    batch = sample_batch(cov, 1_000_000, seed=123)
    sample_cov = np.cov(batch.data, rowvar=False)
    n = batch.n
    # elementwise 5 sigma: SE of a covariance entry ~ sqrt((Cii*Cjj + Cij^2)/n)
    diag = np.diag(cov.matrix)
    se = np.sqrt((np.outer(diag, diag) + cov.matrix ** 2) / n)
    assert np.all(np.abs(sample_cov - cov.matrix) < 5 * se)


def test_sample_batch_channel_accessors():
    cov = build_covariance(TwinPairParams(squeezing_db=3.0),
                           TwinPairParams(squeezing_db=3.0))
    batch = sample_batch(cov, 1000, seed=1)
    assert batch.n == 1000
    for idx, name in enumerate(CHANNELS):
        assert np.array_equal(getattr(batch, name), batch.data[:, idx])


def test_sample_batch_is_read_only():
    cov = build_covariance(TwinPairParams(squeezing_db=3.0),
                           TwinPairParams(squeezing_db=3.0))
    batch = sample_batch(cov, 100, seed=1)
    with pytest.raises(ValueError):
        batch.data[0, 0] = 99.0


def test_sample_batch_input_validation():
    cov = build_covariance(TwinPairParams(squeezing_db=3.0),
                           TwinPairParams(squeezing_db=3.0))
    # never truncated or coerced: 2.5 is not 2 events, True is not 1
    for n in (0, 2.5, True):
        with pytest.raises(ValidationError, match="sample count"):
            sample_batch(cov, n, seed=1)


@pytest.mark.parametrize("seed", [2.7, True, -1])
def test_sample_batch_rejects_bad_seed(seed):
    # never truncated or coerced: 2.7 is not seed 2, True is not seed 1
    cov = build_covariance(TwinPairParams(squeezing_db=3.0),
                           TwinPairParams(squeezing_db=3.0))
    with pytest.raises(ValidationError, match="seed"):
        sample_batch(cov, 10, seed)
