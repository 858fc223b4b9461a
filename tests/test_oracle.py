"""Tests for the closed-form transfer oracle and the Fock-model transfer."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps

from twinbeam_transfer.errors import EmptySelectionError, ValidationError
from twinbeam_transfer.model import TwinPairParams, MeasurementSetting, effective_variances
from twinbeam_transfer.oracle import (
    JointFockDistribution,
    TransferPrediction,
    fock_transfer,
    predict_transfer,
    predict_transfer_from_variances,
    truncated_gaussian_variance,
)


def _tgv_by_quadrature(sigma: float, c: float) -> float:
    # independent numerical oracle: second moment of the truncated density
    num, _ = integrate.quad(lambda x: x * x * sps.norm.pdf(x, scale=sigma), -c, c)
    den, _ = integrate.quad(lambda x: sps.norm.pdf(x, scale=sigma), -c, c)
    return num / den


def test_tgv_no_truncation_limit():
    assert truncated_gaussian_variance(1.0, 1e6) == pytest.approx(1.0, rel=1e-12)
    assert truncated_gaussian_variance(3.0, 200.0) == pytest.approx(9.0, rel=1e-12)


def test_tgv_uniform_limit():
    c = 1e-4
    assert truncated_gaussian_variance(1.0, c) == pytest.approx(c * c / 3.0, rel=1e-6)


def test_tgv_reference_value():
    assert truncated_gaussian_variance(1.0, 1.0) == pytest.approx(0.2911, abs=1e-4)
    assert truncated_gaussian_variance(1.0, 1.0) == pytest.approx(
        0.29112509477279314, rel=1e-12)


@pytest.mark.parametrize("sigma,c", [
    (1.0, 0.3), (1.0, 1.0), (1.0, 2.5), (0.2, 0.5), (7.0, 1.0), (10.0, 0.04),
])
def test_tgv_matches_quadrature(sigma, c):
    assert truncated_gaussian_variance(sigma, c) == pytest.approx(
        _tgv_by_quadrature(sigma, c), rel=1e-8)


def test_tgv_branches_agree_near_crossover():
    # just above the switch point the closed form is still well conditioned;
    # it must agree with the series to the series' truncation order
    a = 0.006
    series = (a * a / 3.0) * (1.0 - 2.0 * a * a / 15.0)
    assert truncated_gaussian_variance(1.0, a) == pytest.approx(series, rel=1e-8)
    # just below, the series branch must agree with the direct formula
    a = 0.004
    phi = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    direct = 1.0 - 2.0 * a * phi / math.erf(a / math.sqrt(2.0))
    assert truncated_gaussian_variance(1.0, a) == pytest.approx(direct, rel=1e-9)


def test_tgv_monotone_in_half_width():
    values = [truncated_gaussian_variance(2.0, c)
              for c in (0.01, 0.1, 0.5, 1.0, 3.0, 10.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_tgv_validation():
    with pytest.raises(ValidationError):
        truncated_gaussian_variance(0.0, 1.0)
    with pytest.raises(ValidationError):
        truncated_gaussian_variance(1.0, 0.0)
    with pytest.raises(ValidationError):
        truncated_gaussian_variance(-1.0, 1.0)


def test_predict_transfer_headline():
    p = TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0)
    pred = predict_transfer(p, p, delta_i=0.03)
    assert pred.transferred_db == pytest.approx(4.00, abs=0.01)
    assert pred.selection_probability == pytest.approx(3.4e-3, rel=0.02)
    # frozen regression anchors for the exact formula values
    assert pred.transferred_db == pytest.approx(3.995112492617178, rel=1e-12)
    assert pred.selection_probability == pytest.approx(0.0033817553028660744, rel=1e-12)
    assert pred.conditional_variance == pytest.approx(0.797110897288168, rel=1e-12)


def test_predict_transfer_coherent_degenerate_branch():
    coherent = TwinPairParams(squeezing_db=0.0, excess_sum_db=0.0)
    for delta_i in (0.01, 0.1, 1.0, 10.0):
        pred = predict_transfer(coherent, coherent, delta_i)
        # regression slope vanishes identically, so selection changes nothing
        assert pred.conditional_variance == 2.0
        assert pred.transferred_db == 0.0


def test_predict_transfer_setting_overrides():
    p = TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0)
    rotated = predict_transfer(p, p, 0.03, MeasurementSetting.TWIN_BEAMS_45DEG)
    # rotation floors the input difference at the SNL (0 dB input), so the
    # conditioned output lands at the classical-transfer bound of -3 dB:
    # once the common excess is pinned by the trigger, four independent
    # shot contributions remain (two per difference), twice the SNL
    assert rotated.transferred_db == pytest.approx(-2.9679, abs=0.001)
    assert rotated.conditional_variance == pytest.approx(4.0, abs=0.05)
    coherent = predict_transfer(p, p, 0.03, MeasurementSetting.COHERENT_STATE)
    assert coherent.conditional_variance == 2.0


def test_three_db_degradation_law():
    # tight window, overwhelming sum noise: output tracks input minus 3.01 dB
    for s_db in (0.5, 2.0, 4.0, 7.0, 9.0, 12.0):
        v_minus = 2.0 * 10 ** (-s_db / 10.0)
        pred = predict_transfer_from_variances((v_minus, 1e8), (v_minus, 1e8), 1e-5)
        assert pred.transferred_db == pytest.approx(
            s_db - 10.0 * math.log10(2.0), abs=1e-3)


def test_transfer_threshold_at_three_db():
    v_at_3db = 2.0 * 10 ** (-0.301029995663981 / 1.0)
    pred = predict_transfer_from_variances((v_at_3db, 1e8), (v_at_3db, 1e8), 1e-5)
    assert pred.transferred_db == pytest.approx(0.0, abs=1e-3)
    below = predict_transfer_from_variances((2.0 * 10 ** (-0.25), 1e8),
                                            (2.0 * 10 ** (-0.25), 1e8), 1e-5)
    above = predict_transfer_from_variances((2.0 * 10 ** (-0.35), 1e8),
                                            (2.0 * 10 ** (-0.35), 1e8), 1e-5)
    assert below.transferred_db < 0.0 < above.transferred_db


@pytest.mark.parametrize("vm1,vp1,vm2,vp2,delta_i", [
    (0.4, 200.0, 0.4, 200.0, 0.03),
    (0.4, 200.0, 0.8, 120.0, 0.1),
    (1.0, 6.0, 0.5, 3.0, 0.5),
    (2.0, 2.0, 0.3, 50.0, 1.0),
    (0.2, 2000.0, 0.2, 2000.0, 2.0),
])
def test_predict_matches_conditional_quadrature(vm1, vp1, vm2, vp2, delta_i):
    # independent check assembling the conditional second moment numerically
    # from the bivariate-normal regression of target on trigger
    v_a = (vp1 + vp2) / 4.0
    v_b = (vm1 + vm2) / 4.0
    sigma = math.sqrt(v_a + v_b)
    alpha = (v_a - v_b) / (v_a + v_b)
    resid = 4.0 * v_a * v_b / (v_a + v_b)
    c = delta_i * math.sqrt(2.0)
    num, _ = integrate.quad(
        lambda u: (alpha * alpha * u * u + resid) * sps.norm.pdf(u, scale=sigma), -c, c)
    den, _ = integrate.quad(lambda u: sps.norm.pdf(u, scale=sigma), -c, c)
    pred = predict_transfer_from_variances((vm1, vp1), (vm2, vp2), delta_i)
    assert pred.conditional_variance == pytest.approx(num / den, rel=1e-8)
    assert pred.selection_probability == pytest.approx(
        sps.norm.cdf(c / sigma) - sps.norm.cdf(-c / sigma), rel=1e-10)


def test_selection_probability_insensitive_to_squeezing():
    probs = []
    for s_db in (0.0, 3.0, 6.0, 9.0):
        p = TwinPairParams(squeezing_db=s_db, excess_sum_db=20.0)
        probs.append(predict_transfer(p, p, 0.03).selection_probability)
    spread = (max(probs) - min(probs)) / min(probs)
    assert spread < 0.01


def test_transfer_plateau_over_narrow_windows():
    p = TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0)
    levels = [predict_transfer(p, p, d).transferred_db
              for d in (0.01, 0.03, 0.05, 0.1)]
    assert max(levels) - min(levels) < 0.5


def test_unconditional_limit_recovers_total_variance():
    pred = predict_transfer_from_variances((0.4, 200.0), (0.4, 200.0), 100.0)
    v_a, v_b = 100.0, 0.2
    assert pred.conditional_variance == pytest.approx(v_a + v_b, rel=1e-9)
    assert pred.selection_probability == 1.0


def test_predict_validation():
    with pytest.raises(ValidationError):
        predict_transfer_from_variances((0.4, 200.0), (0.4, 200.0), 0.0)
    with pytest.raises(ValidationError, match="pair 2"):
        predict_transfer_from_variances((0.4, 200.0), (0.0, 200.0), 0.1)
    with pytest.raises(ValidationError):
        TransferPrediction(conditional_variance=0.0, transferred_db=0.0,
                           selection_probability=0.5)
    with pytest.raises(ValidationError):
        TransferPrediction(conditional_variance=1.0, transferred_db=3.0,
                           selection_probability=0.0)


# --- Fock-model transfer ---


def _brute_force_transfer(m1: np.ndarray, m2: np.ndarray):
    dim = max(m1.shape[0], m2.shape[0])
    out = np.zeros((dim, dim))
    for ns1 in range(m1.shape[0]):
        for ni1 in range(m1.shape[0]):
            for ns2 in range(m2.shape[0]):
                for ni2 in range(m2.shape[0]):
                    if ns1 == ns2:
                        out[ni1, ni2] += m1[ns1, ni1] * m2[ns2, ni2]
    acceptance = out.sum()
    return out / acceptance, float(acceptance)


def test_fock_two_level_diagonal():
    p = JointFockDistribution.from_diagonal([0.5, 0.5])
    result, acceptance = fock_transfer(p, p)
    assert np.array_equal(result.matrix, np.diag([0.5, 0.5]))
    assert acceptance == pytest.approx(0.5, rel=1e-12)


def test_fock_diagonal_inputs_give_exact_diagonal_output():
    rng = np.random.default_rng(6)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        w1 = rng.random(dim) + 0.01
        w2 = rng.random(dim) + 0.01
        p1 = JointFockDistribution.from_diagonal(w1)
        p2 = JointFockDistribution.from_diagonal(w2)
        result, acceptance = fock_transfer(p1, p2)
        brute, brute_acc = _brute_force_transfer(p1.matrix, p2.matrix)
        assert result.is_diagonal()
        assert np.array_equal(result.matrix, brute)
        assert acceptance == brute_acc


def test_fock_general_inputs_match_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        m1 = rng.random((dim, dim))
        m2 = rng.random((dim, dim))
        p1 = JointFockDistribution(m1 / m1.sum())
        p2 = JointFockDistribution(m2 / m2.sum())
        result, acceptance = fock_transfer(p1, p2)
        brute, brute_acc = _brute_force_transfer(p1.matrix, p2.matrix)
        assert result.matrix == pytest.approx(brute, rel=1e-12)
        assert acceptance == pytest.approx(brute_acc, rel=1e-12)


def test_fock_uncorrelated_inputs_stay_uncorrelated():
    signal = np.array([0.2, 0.5, 0.3])
    idler = np.array([0.6, 0.3, 0.1])
    product = JointFockDistribution(np.outer(signal, idler))
    result, acceptance = fock_transfer(product, product)
    marg_a = result.matrix.sum(axis=1)
    marg_b = result.matrix.sum(axis=0)
    assert result.matrix == pytest.approx(np.outer(marg_a, marg_b), abs=1e-14)
    assert acceptance == pytest.approx(float((signal * signal).sum()), rel=1e-12)


def test_fock_mixed_dimensions_embed():
    p1 = JointFockDistribution.from_diagonal([0.5, 0.5])
    p2 = JointFockDistribution.from_diagonal([0.25, 0.25, 0.5])
    result, acceptance = fock_transfer(p1, p2)
    assert result.dimension == 3
    assert acceptance == pytest.approx(0.5 * 0.25 + 0.5 * 0.25, rel=1e-12)


def test_fock_disjoint_support_raises():
    p1 = JointFockDistribution(np.array([[1.0, 0.0], [0.0, 0.0]]))
    p2 = JointFockDistribution(np.array([[0.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(EmptySelectionError):
        fock_transfer(p1, p2)


def test_fock_distribution_validation():
    with pytest.raises(ValidationError):
        JointFockDistribution(np.full((2, 3), 0.1))
    with pytest.raises(ValidationError):
        JointFockDistribution(np.array([[0.6, -0.1], [0.3, 0.2]]))
    with pytest.raises(ValidationError):
        JointFockDistribution(np.full((2, 2), 0.3))


@pytest.mark.parametrize("matrix", [
    [[1.0, "a"], [0.0, 0.0]],
    [[0.5, 0.5], [0.0]],
    [[10 ** 400]],
    {"n": 1},
], ids=["non-numeric", "ragged", "overflow", "object"])
def test_fock_distribution_rejects_non_numeric_matrices(matrix):
    # the one conversion of a fock matrix to floats reports what it cannot
    # convert as a ValidationError, not a bare ValueError or OverflowError
    with pytest.raises(ValidationError, match="numeric array"):
        JointFockDistribution(matrix)
