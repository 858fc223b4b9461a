"""Acceptance gate: one test per stated criterion (or labeled sub-part).

Run with `pytest -v tests/test_acceptance.py`: the verbose listing then
shows exactly one PASSED/FAILED/XFAIL line per criterion. Tolerances are
pinned in the asserts; seeds are pinned so every run evaluates the same
draw. Two sub-parts (5c, 7c) assert claims that contradict what this model
provably produces at the stated parameters; they are marked strict-xfail
with the physics spelled out in the reason rather than weakened to pass.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
from scipy import signal as sp_signal

from twinbeam_transfer.cli import main
from twinbeam_transfer.dsp_chain import (
    SignalChainConfig,
    decimation_plan,
    post_mixer_sos,
    simulate,
)
from twinbeam_transfer.model import (
    MeasurementSetting,
    TwinPairParams,
    build_covariance,
    effective_variances,
    sample_batch,
)
from twinbeam_transfer.oracle import (
    JointFockDistribution,
    fock_transfer,
    predict_transfer,
)
from twinbeam_transfer.scenario import ScenarioConfig, SweepAxis, run_sweep
from twinbeam_transfer.selection import (
    SelectionConfig,
    conditional_statistics,
    derived_seed,
    select,
)
from twinbeam_transfer.stats import variance_db

PAIR = TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0)
TWIN_COV = build_covariance(PAIR, PAIR)
WINDOW = SelectionConfig(bandwidth_delta=0.03)


def _conditioned_report(cov, n, seed, cfg=WINDOW):
    batch = sample_batch(cov, n, seed)
    return conditional_statistics(batch, select(batch, cfg), cfg)


def test_criterion_01_headline_transfer():
    # S=7 dB on both pairs, 20 dB excess, window 0.03 delta, 300k points
    started = time.perf_counter()
    report = _conditioned_report(TWIN_COV, 300_000, seed=0)
    elapsed = time.perf_counter() - started
    assert report.squeezing_db == pytest.approx(4.0, abs=0.3)
    assert report.kept_count == 1054
    assert elapsed < 5.0


def test_criterion_02_input_calibration():
    started = time.perf_counter()
    batch = sample_batch(TWIN_COV, 1_000_000, seed=0)
    intra1 = variance_db(batch.s1 - batch.i1, 2.0)
    intra2 = variance_db(batch.s2 - batch.i2, 2.0)
    elapsed = time.perf_counter() - started
    assert intra1 == pytest.approx(7.0, abs=0.1)
    assert intra2 == pytest.approx(7.0, abs=0.1)
    assert elapsed < 5.0


def test_criterion_03_three_db_degradation_law():
    # bright sum mode (V+ = 1e4) and a narrow window isolate the 3 dB cost
    excess = 10.0 * math.log10(1e4 / 2.0)
    cfg = SelectionConfig(bandwidth_delta=0.01, min_kept=30)
    for index, s_db in enumerate([4.0, 5.0, 6.0, 7.0, 8.0, 9.0]):
        pair = TwinPairParams(squeezing_db=s_db, excess_sum_db=excess)
        prediction = predict_transfer(pair, pair, 0.01)
        assert prediction.transferred_db == pytest.approx(s_db - 3.01, abs=0.05)

        batch = sample_batch(build_covariance(pair, pair), 1_000_000,
                             derived_seed(0, index))
        report = conditional_statistics(batch, select(batch, cfg), cfg)
        se = (report.ci_high_db - report.ci_low_db) / 2.0
        assert abs(report.squeezing_db - prediction.transferred_db) <= 3.0 * se


def test_criterion_04_transfer_threshold():
    cfg = ScenarioConfig(n_points=1_000_000, seed=0,
                         sweep=SweepAxis("squeezing_db", 2.0, 4.0, 9))
    rows = run_sweep(cfg)
    assert all(row["error"] == "" for row in rows)
    x = np.array([row["axis_value"] for row in rows])

    y_mc = np.array([row["transferred_db"] for row in rows])
    slope, intercept = np.polyfit(x, y_mc, 1)
    assert -intercept / slope == pytest.approx(3.0, abs=0.2)

    y_oracle = np.array([row["oracle_transferred_db"] for row in rows])
    slope_o, intercept_o = np.polyfit(x, y_oracle, 1)
    assert -intercept_o / slope_o == pytest.approx(3.0, abs=0.2)


def test_criterion_05a_bandwidth_plateau():
    grid = np.geomspace(0.01, 0.1, 25)
    curve = [predict_transfer(PAIR, PAIR, float(d)).transferred_db for d in grid]
    assert max(curve) - min(curve) < 0.5

    for index, delta_i in enumerate([0.01, 0.1]):
        cfg = SelectionConfig(bandwidth_delta=delta_i)
        batch = sample_batch(TWIN_COV, 1_000_000, derived_seed(0, 100 + index))
        report = conditional_statistics(batch, select(batch, cfg), cfg)
        prediction = predict_transfer(PAIR, PAIR, delta_i)
        se = (report.ci_high_db - report.ci_low_db) / 2.0
        assert abs(report.squeezing_db - prediction.transferred_db) <= 3.0 * se


def test_criterion_05b_wide_window_approaches_unconditional():
    vm, vp = effective_variances(PAIR, MeasurementSetting.TWIN_BEAMS_0DEG)
    total = (vp + vp) / 4.0 + (vm + vm) / 4.0
    unconditional_db = -10.0 * math.log10(total / 2.0)

    # the conditional variance rises monotonically toward the full variance
    cv = [predict_transfer(PAIR, PAIR, d).conditional_variance
          for d in (3.0, 10.0, 50.0)]
    assert cv[0] < cv[1] < cv[2] <= total * (1 + 1e-12)
    assert predict_transfer(PAIR, PAIR, 50.0).transferred_db == pytest.approx(
        unconditional_db, abs=0.05)

    # and a 50-delta window keeps every sample: identical to direct statistics
    batch = sample_batch(TWIN_COV, 300_000, seed=0)
    wide = SelectionConfig(bandwidth_delta=50.0)
    report = conditional_statistics(batch, select(batch, wide), wide)
    assert report.kept_count == batch.n
    assert report.squeezing_db == variance_db(batch.i1 - batch.i2, 2.0)


@pytest.mark.xfail(
    strict=True,
    reason="with 20 dB excess sum noise the unconditioned idler difference "
           "carries variance V_A + V_B = 100.2, i.e. -17 dB relative to the "
           "SNL, not 0 dB; a 0 +/- 0.3 dB unconditional level is only "
           "reachable with no excess noise, so the stated level cannot hold "
           "at the default parameters")
def test_criterion_05c_unconditional_level_at_snl():
    batch = sample_batch(TWIN_COV, 300_000, seed=0)
    unconditional_db = variance_db(batch.i1 - batch.i2, 2.0)
    assert unconditional_db == pytest.approx(0.0, abs=0.3)


def test_criterion_06_preparation_probability():
    windows = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0]
    for s_db in (0.0, 9.0):
        pair = TwinPairParams(squeezing_db=s_db)
        batch = sample_batch(build_covariance(pair, pair), 1_000_000,
                             derived_seed(0, 200))
        counts = []
        for delta_i in windows:
            kept = select(batch, SelectionConfig(bandwidth_delta=delta_i,
                                                 min_kept=30)).kept_count
            counts.append(kept)
            p = predict_transfer(pair, pair, delta_i).selection_probability
            sigma = math.sqrt(1_000_000 * p * (1.0 - p))
            assert abs(kept - 1_000_000 * p) <= 3.0 * sigma
        assert all(b > a for a, b in zip(counts, counts[1:]))

    # insensitivity to squeezing at bright sum mode (V+ = 200): closed form
    probs = [predict_transfer(TwinPairParams(squeezing_db=s),
                              TwinPairParams(squeezing_db=s),
                              0.03).selection_probability
             for s in np.linspace(0.0, 9.0, 10)]
    assert (max(probs) - min(probs)) / min(probs) < 0.05

    # and measured: kept counts at S=0 and S=9 agree within 5% relative
    kept = {}
    for tag, s_db in ((201, 0.0), (202, 9.0)):
        pair = TwinPairParams(squeezing_db=s_db)
        batch = sample_batch(build_covariance(pair, pair), 3_000_000,
                             derived_seed(0, tag))
        kept[s_db] = select(batch, WINDOW).kept_count
    assert abs(kept[0.0] - kept[9.0]) / kept[0.0] < 0.05


def test_criterion_07a_coherent_control():
    cov = build_covariance(PAIR, PAIR, MeasurementSetting.COHERENT_STATE)
    batch = sample_batch(cov, 1_000_000, seed=0)
    report = conditional_statistics(batch, select(batch, WINDOW), WINDOW)
    assert report.squeezing_db == pytest.approx(0.0, abs=0.2)
    assert variance_db(batch.i1 - batch.i2, 2.0) == pytest.approx(0.0, abs=0.2)
    assert variance_db(batch.s1 - batch.s2, 2.0) == pytest.approx(0.0, abs=0.2)


def test_criterion_07b_rotated_intra_pair_calibration():
    # a 45 degree rotation erases the intra-pair correlation: the pair's own
    # difference sits exactly at the SNL, which is how the SNL is calibrated
    cov = build_covariance(PAIR, PAIR, MeasurementSetting.TWIN_BEAMS_45DEG)
    assert cov.difference_variance(1) == pytest.approx(2.0, abs=1e-12)
    batch = sample_batch(cov, 1_000_000, seed=0)
    assert variance_db(batch.s1 - batch.i1, 2.0) == pytest.approx(0.0, abs=0.2)
    assert variance_db(batch.s2 - batch.i2, 2.0) == pytest.approx(0.0, abs=0.2)


@pytest.mark.xfail(
    strict=True,
    reason="at 45 degrees each beam still carries the pair's full sum noise "
           "(V+ = 200), so the cross-pair idler difference is -17 dB "
           "unconditioned, and conditioning can at best reach the four-beam "
           "classical bound of 4 shot units (-3 dB); neither statistic can "
           "sit at 0 +/- 0.2 dB")
def test_criterion_07c_rotated_cross_pair_at_snl():
    cov = build_covariance(PAIR, PAIR, MeasurementSetting.TWIN_BEAMS_45DEG)
    batch = sample_batch(cov, 1_000_000, seed=0)
    report = conditional_statistics(batch, select(batch, WINDOW), WINDOW)
    assert variance_db(batch.i1 - batch.i2, 2.0) == pytest.approx(0.0, abs=0.2)
    assert report.squeezing_db == pytest.approx(0.0, abs=0.2)


def test_criterion_08_dsp_chain_cross_validation():
    cfg = SignalChainConfig()
    batch = simulate(TWIN_COV, cfg, 300_000, seed=0)
    assert batch.n == 300_000

    # input calibration through the chain (widened tolerance)
    assert variance_db(batch.s1 - batch.i1, 2.0) == pytest.approx(7.0, abs=0.4)
    assert variance_db(batch.s2 - batch.i2, 2.0) == pytest.approx(7.0, abs=0.4)

    # headline transfer through the chain (widened tolerance)
    report = conditional_statistics(batch, select(batch, WINDOW), WINDOW)
    assert report.squeezing_db == pytest.approx(4.0, abs=0.4)


def test_criterion_08b_anti_aliasing():
    base = SignalChainConfig()

    # design contract: >= 40 dB suppression beyond a 1.25x transition
    # allowance, all the way to the intermediate-rate Nyquist
    sos = post_mixer_sos(base)
    q1, _ = decimation_plan(base)
    mid_rate = base.synth_rate_hz / q1
    freqs = np.linspace(1.25 * base.post_mixer_cutoff_hz, mid_rate / 2.0, 2000)
    _, response = sp_signal.sosfreqz(sos, worN=freqs, fs=mid_rate)
    assert 20.0 * np.log10(np.abs(response) + 1e-300).max() <= -40.0

    # measured: widen the output rate so the stopband is observable in the
    # output spectrum, then compare pass- and stop-band levels
    cfg = dataclasses.replace(base, output_rate_hz=4.0e5)
    cov = build_covariance(PAIR, PAIR, MeasurementSetting.COHERENT_STATE)
    batch = simulate(cov, cfg, 60_000, seed=0)
    freqs, psd = sp_signal.welch(batch.s1, fs=cfg.output_rate_hz, nperseg=4096)
    passband = psd[(freqs > 1e3) & (freqs < 0.8 * cfg.post_mixer_cutoff_hz)].mean()
    stopband = psd[freqs >= 1.25 * cfg.post_mixer_cutoff_hz].mean()
    assert 10.0 * math.log10(passband / stopband) >= 40.0


def _brute_force_fock(p1: JointFockDistribution, p2: JointFockDistribution):
    dim = max(p1.dimension, p2.dimension)
    out = np.zeros((dim, dim))
    for ns1 in range(p1.dimension):
        for ni1 in range(p1.dimension):
            for ns2 in range(p2.dimension):
                for ni2 in range(p2.dimension):
                    if ns1 != ns2:
                        continue
                    out[ni1, ni2] += p1.matrix[ns1, ni1] * p2.matrix[ns2, ni2]
    # normalize with the same reduction the library uses, so agreement on the
    # enumerated weights is testable bit for bit
    acceptance = float(out.sum())
    return out / acceptance, acceptance


def test_criterion_09_fock_oracle_brute_force():
    rng = np.random.Generator(np.random.Philox(9))
    for _ in range(25):
        dim1 = int(rng.integers(1, 7))
        dim2 = int(rng.integers(1, 7))
        p1 = JointFockDistribution.from_diagonal(rng.uniform(0.1, 1.0, size=dim1))
        p2 = JointFockDistribution.from_diagonal(rng.uniform(0.1, 1.0, size=dim2))
        joint, acceptance = fock_transfer(p1, p2)
        expected, expected_acceptance = _brute_force_fock(p1, p2)
        assert joint.is_diagonal()
        assert np.array_equal(joint.matrix, expected)
        assert acceptance == expected_acceptance


def test_criterion_10_bit_identical_outputs(tmp_path):
    run_args = ["run", "--points", "60000", "--seed", "13"]
    assert main(run_args + ["--out", str(tmp_path / "run_a"), "--workers", "1"]) == 0
    assert main(run_args + ["--out", str(tmp_path / "run_b"), "--workers", "3"]) == 0

    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "n_points": 40_000, "seed": 5,
        "selection": {"bandwidth_delta": 0.1},
        "sweep": {"parameter": "squeezing_db", "minimum": 0.0, "maximum": 9.0,
                  "steps": 4, "scale": "linear"}}))
    sweep_args = ["sweep", "--config", str(sweep_cfg)]
    assert main(sweep_args + ["--out", str(tmp_path / "sw_a"), "--workers", "1"]) == 0
    assert main(sweep_args + ["--out", str(tmp_path / "sw_b"), "--workers", "3"]) == 0

    for first, second in (("run_a", "run_b"), ("sw_a", "sw_b")):
        names_a = sorted(p.name for p in (tmp_path / first).iterdir())
        names_b = sorted(p.name for p in (tmp_path / second).iterdir())
        assert names_a == names_b and names_a
        for name in names_a:
            assert ((tmp_path / first / name).read_bytes()
                    == (tmp_path / second / name).read_bytes()), name
