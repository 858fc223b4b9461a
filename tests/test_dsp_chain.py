"""Tests for wideband synthesis and the demodulation chain.

All configs here are scaled-down (2 MHz synthesis instead of 50 MHz) so one
synthesis+demodulation round trip stays well under a second; rate ratios
mirror the defaults.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import signal as sp_signal

from twinbeam_transfer import dsp_chain
from twinbeam_transfer.dsp_chain import (
    SignalChainConfig,
    _calibration_variance,
    _demod_stream,
    _margins,
    _mode_densities,
    _polyphase_fir,
    _shaping_filters,
    _synth_blocks,
    decimation_plan,
    post_mixer_sos,
    required_synth_samples,
    simulate,
)
from twinbeam_transfer.errors import ModelError, RecordLengthError, ValidationError
from twinbeam_transfer.model import (
    MeasurementSetting,
    TwinPairParams,
    build_covariance,
)
from twinbeam_transfer.stats import variance_db


CFG = SignalChainConfig(
    lo_frequency_hz=2.0e5,
    synth_rate_hz=2.0e6,
    post_mixer_cutoff_hz=2.0e4,
    output_rate_hz=5.0e4,
    cavity_bandwidth_hz=1.0e6,
)
POINTS = 30_000

PAIR = TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0)
TWIN_COV = build_covariance(PAIR, PAIR)
SHOT_COV = build_covariance(PAIR, PAIR, MeasurementSetting.COHERENT_STATE)


def _record(cov, cfg, seed, points=POINTS):
    # the whole (4, n) float32 wideband record that simulate streams
    return np.concatenate(list(_synth_blocks(cov, cfg, points, seed)), axis=1)


def test_config_defaults_are_valid():
    cfg = SignalChainConfig()
    assert cfg.lo_frequency_hz == 3.5e6
    assert cfg.output_rate_hz == 2.0e5
    assert decimation_plan(cfg) == (50, 5)


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(output_rate_hz=3.0e4), "output_rate_hz"),
    (dict(synth_rate_hz=4.0e5), "synth_rate_hz"),
    (dict(mixer_phase_rad=math.nan), "mixer_phase_rad"),
    (dict(lo_frequency_hz=1.0e4), "lo_frequency_hz"),
    (dict(post_mixer_cutoff_hz=-1.0), "post_mixer_cutoff_hz"),
    (dict(cavity_bandwidth_hz=math.inf), "cavity_bandwidth_hz"),
    (dict(output_rate_hz=5.1e4), "integer multiple"),
])
def test_config_validation(kwargs, fragment):
    with pytest.raises(ValidationError, match=fragment):
        dataclasses.replace(CFG, **kwargs)


@pytest.mark.parametrize("points", [0, 2.5, True])
def test_simulate_rejects_bad_point_count(points):
    with pytest.raises(ValidationError, match="points"):
        simulate(SHOT_COV, CFG, points, seed=0)


@pytest.mark.parametrize("seed", [2.7, True, -1])
def test_simulate_rejects_bad_seed(seed):
    # never truncated or coerced: 2.7 is not seed 2, True is not seed 1
    with pytest.raises(ValidationError, match="seed"):
        simulate(SHOT_COV, CFG, POINTS, seed=seed)


@pytest.mark.parametrize("synth,output,plan", [
    (5.0e7, 2.0e5, (50, 5)),   # default ratio 250
    (2.0e6, 5.0e4, (8, 5)),    # ratio 40
    (4.0e5, 8.0e4, (1, 5)),    # ratio 5: single stage
    (1.2e6, 5.0e4, (6, 4)),    # ratio 24: no factor 5, falls to 4
    (2.45e6, 5.0e4, (7, 7)),   # ratio 49
])
def test_decimation_plan(synth, output, plan):
    cfg = dataclasses.replace(CFG, synth_rate_hz=synth, output_rate_hz=output,
                              lo_frequency_hz=synth / 10)
    assert decimation_plan(cfg) == plan


def test_required_samples_divisible_by_ratio():
    q1, q2 = decimation_plan(CFG)
    n = required_synth_samples(CFG, POINTS)
    assert n % (q1 * q2) == 0
    lead_tail_and_record = POINTS + 1250 + 125
    assert n >= lead_tail_and_record * q1 * q2


def test_synthesize_deterministic():
    a = _record(SHOT_COV, CFG, seed=11)
    b = _record(SHOT_COV, CFG, seed=11)
    c = _record(SHOT_COV, CFG, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.dtype == np.float32
    assert a.shape == (4, required_synth_samples(CFG, POINTS))


@pytest.mark.parametrize("cfg", [CFG, SignalChainConfig()], ids=["test", "default"])
def test_shaping_filters_follow_mode_densities(cfg):
    taps = _shaping_filters(TWIN_COV, cfg)
    assert taps.shape[0] == 4 and taps.shape[1] % 2 == 1
    # exact at the lo, where the configured variances are defined
    lo_phasor = np.exp(-2j * np.pi * cfg.lo_frequency_hz / cfg.synth_rate_hz
                       * np.arange(taps.shape[1]))
    variances = [TWIN_COV.difference_variance(1), TWIN_COV.sum_variance(1),
                 TWIN_COV.difference_variance(2), TWIN_COV.sum_variance(2)]
    assert np.abs(taps @ lo_phasor) ** 2 == pytest.approx(variances, rel=1e-9)
    # and within the design tolerance everywhere else (shot level below it)
    freqs = np.linspace(0.0, cfg.synth_rate_hz / 2, 20_001)
    response = np.array([sp_signal.freqz(h, worN=freqs, fs=cfg.synth_rate_hz)[1]
                         for h in taps])
    model = _mode_densities(TWIN_COV, cfg, freqs)
    error = np.abs(np.abs(response) ** 2 - model) / np.maximum(model, 2.0)
    assert error.max() <= 1e-3


def test_synthesized_difference_psd_matches_model():
    rec = _record(TWIN_COV, CFG, seed=21)
    d = rec[0].astype(np.float64) - rec[1].astype(np.float64)
    freqs, psd = sp_signal.welch(d, fs=CFG.synth_rate_hz, nperseg=8192)
    density = psd * CFG.synth_rate_hz / 2.0  # to units where white shot pair = 2

    l_at_lo = 1.0 / (1.0 + (CFG.lo_frequency_hz / CFG.cavity_bandwidth_hz) ** 2)
    dip = (2.0 - TWIN_COV.difference_variance(1)) / (2.0 * l_at_lo)
    model = 2.0 * (1.0 - dip / (1.0 + (freqs / CFG.cavity_bandwidth_hz) ** 2))

    for f_check in (CFG.lo_frequency_hz, 5.0e5, 9.0e5):
        band = (freqs > f_check * 0.9) & (freqs < f_check * 1.1)
        assert density[band].mean() == pytest.approx(model[band].mean(), rel=0.10)
    # the squeezing dip is calibrated to the configured value at the lo
    at_lo = (freqs > CFG.lo_frequency_hz * 0.95) & (freqs < CFG.lo_frequency_hz * 1.05)
    assert density[at_lo].mean() == pytest.approx(
        TWIN_COV.difference_variance(1), rel=0.10)


def test_synthesized_sum_psd_matches_model():
    rec = _record(TWIN_COV, CFG, seed=22)
    s = rec[0].astype(np.float64) + rec[1].astype(np.float64)
    freqs, psd = sp_signal.welch(s, fs=CFG.synth_rate_hz, nperseg=8192)
    density = psd * CFG.synth_rate_hz / 2.0
    at_lo = (freqs > CFG.lo_frequency_hz * 0.95) & (freqs < CFG.lo_frequency_hz * 1.05)
    assert density[at_lo].mean() == pytest.approx(TWIN_COV.sum_variance(1), rel=0.10)


def test_shot_record_demodulates_to_unit_variance():
    batch = simulate(SHOT_COV, CFG, POINTS, seed=31)
    assert batch.n == POINTS
    sample_cov = np.cov(batch.data, rowvar=False)
    assert np.diag(sample_cov) == pytest.approx(np.ones(4), abs=0.03)
    off = sample_cov - np.diag(np.diag(sample_cov))
    assert np.abs(off).max() < 0.02


def test_calibration_matches_white_noise_reference():
    # Monte Carlo reference for the closed-form noise gain: unit white records
    # through the same chain. The per-record ratio has sd ~0.01, so 0.01 on the
    # mean of 20 is ~4.5 standard errors (two-sided false-alarm rate ~7e-6).
    q1, q2 = decimation_plan(CFG)
    n = required_synth_samples(CFG, POINTS)
    ratios = []
    for seed in range(20):
        white = np.random.Generator(np.random.Philox(seed)).standard_normal(
            n, dtype=np.float32)
        ratios.append(_demod_stream([white[np.newaxis]], CFG, POINTS)[:, 0].var())
    assert np.mean(ratios) / _calibration_variance(CFG) == pytest.approx(1.0, abs=0.01)


def _mix_upfirdn_reference(channels, cfg, points):
    # the demodulator before the mixer was folded into the polyphase taps, on
    # a whole record: a float32 sqrt(2)*cos LO times the input, resample_poly's
    # FIR decimation by q1 through upfirdn, the low-pass, decimation by q2
    # and the trim
    q1, q2 = decimation_plan(cfg)
    lead, _ = _margins(cfg)
    fir = _polyphase_fir(q1) if q1 > 1 else np.ones(1, dtype=np.float32)
    half = (fir.size - 1) // 2
    t = np.arange(channels.shape[1], dtype=np.float64) / cfg.synth_rate_hz
    lo = math.sqrt(2.0) * np.cos(2.0 * math.pi * cfg.lo_frequency_hz * t
                                 + cfg.mixer_phase_rad)
    mixed = np.concatenate((np.zeros((channels.shape[0], half), dtype=np.float32),
                            channels * lo.astype(np.float32)), axis=1)
    count = (mixed.shape[1] - 2 * half - 1) // q1 + 1
    skip = 2 * half // q1
    mid = sp_signal.upfirdn(fir, mixed, 1, q1, axis=1)[:, skip:skip + count]
    low = sp_signal.sosfilt(post_mixer_sos(cfg), mid, axis=1)
    return low[:, ::q2][:, lead:lead + points].T


@pytest.mark.parametrize("cfg", [
    CFG,
    # lo/fs = 0.1065: q1 = 8 is no multiple of half the LO period
    dataclasses.replace(CFG, mixer_phase_rad=0.7, lo_frequency_hz=2.13e5),
    # ratio 5: a single-stage plan, q1 = 1
    dataclasses.replace(CFG, synth_rate_hz=4.0e5, output_rate_hz=8.0e4,
                        lo_frequency_hz=1.0e5),
], ids=["test", "phase-incommensurate-lo", "single-stage"])
def test_folded_demodulator_matches_mix_then_upfirdn(cfg):
    rec = _record(TWIN_COV, cfg, seed=45)
    reference = _mix_upfirdn_reference(rec, cfg, POINTS)
    folded = _demod_stream([rec], cfg, POINTS)
    assert folded.shape == reference.shape == (POINTS, 4)
    assert np.abs(folded - reference).max() <= 1e-5 * np.abs(reference).max()


def test_simulate_equals_demodulated_synthesis():
    streamed = simulate(TWIN_COV, CFG, POINTS, seed=42)
    record = _record(TWIN_COV, CFG, seed=42)
    whole = _demod_stream([record], CFG, POINTS)
    whole *= 1.0 / math.sqrt(_calibration_variance(CFG))
    assert np.array_equal(streamed.data, whole)
    assert streamed.seed == 42


def test_streamed_output_independent_of_block_size(monkeypatch):
    q1, q2 = decimation_plan(CFG)
    record = _record(TWIN_COV, CFG, seed=43)
    scale = 1.0 / math.sqrt(_calibration_variance(CFG))
    outputs = []
    # the whole record is also fed in slices of exactly _BLOCK samples, and
    # 12345 is no multiple of q1 (simulate's blocks are whole overlap-save
    # segments); q1 * q2 * 100_000 spans the whole record
    for block in (q1 * q2 * 1_000, q1 * q2 * 100_000, 12_345):
        monkeypatch.setattr(dsp_chain, "_BLOCK", block)
        batch = simulate(TWIN_COV, CFG, POINTS, seed=43)
        slices = (record[:, start:start + block]
                  for start in range(0, record.shape[1], block))
        outputs += [batch.data, _demod_stream(slices, CFG, POINTS) * scale]
    assert all(np.array_equal(outputs[0], other) for other in outputs[1:])


def test_simulate_peak_memory_below_wideband_record(monkeypatch):
    q1, q2 = decimation_plan(CFG)
    monkeypatch.setattr(dsp_chain, "_BLOCK", q1 * q2 * 1_000)
    record_bytes = 4 * required_synth_samples(CFG, POINTS) * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        simulate(TWIN_COV, CFG, POINTS, seed=44)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < record_bytes


def test_twin_record_reproduces_input_squeezing():
    batch = simulate(TWIN_COV, CFG, POINTS, seed=32)
    assert variance_db(batch.s1 - batch.i1, 2.0) == pytest.approx(7.0, abs=0.3)
    assert variance_db(batch.s2 - batch.i2, 2.0) == pytest.approx(7.0, abs=0.3)
    # sum mode carries the configured excess noise
    assert variance_db(batch.s1 + batch.i1, 2.0) == pytest.approx(-20.0, abs=1.0)
    # pairs stay uncorrelated through the chain
    c = np.corrcoef(batch.data, rowvar=False)
    assert np.abs(c[:2, 2:]).max() < 0.03


def test_end_to_end_covariance_matches_model():
    batch = simulate(TWIN_COV, CFG, POINTS, seed=33)
    sample_cov = np.cov(batch.data, rowvar=False)
    diag = np.diag(TWIN_COV.matrix)
    se = np.sqrt((np.outer(diag, diag) + TWIN_COV.matrix ** 2) / batch.n)
    assert np.all(np.abs(sample_cov - TWIN_COV.matrix) < 6 * se)


def test_demodulate_deterministic():
    a = simulate(TWIN_COV, CFG, POINTS, seed=34)
    b = simulate(TWIN_COV, CFG, POINTS, seed=34)
    assert np.array_equal(a.data, b.data)
    assert a.seed == 34


def test_mixer_phase_pi_flips_sign_only():
    # the mixer phase does not enter synthesis: both calls see one record
    flipped_cfg = dataclasses.replace(CFG, mixer_phase_rad=math.pi)
    var_a = simulate(SHOT_COV, CFG, POINTS, seed=35).data.var(axis=0)
    var_b = simulate(SHOT_COV, flipped_cfg, POINTS, seed=35).data.var(axis=0)
    assert var_b == pytest.approx(var_a, rel=1e-5)


def test_mixer_quadrature_phase_same_distribution():
    # intensity-noise demodulation is phase-insensitive in distribution
    quad_cfg = dataclasses.replace(CFG, mixer_phase_rad=math.pi / 2)
    d_a = simulate(TWIN_COV, CFG, POINTS, seed=36)
    d_b = simulate(TWIN_COV, quad_cfg, POINTS, seed=36)
    v_a = (d_a.s1 - d_a.i1).var(ddof=1)
    v_b = (d_b.s1 - d_b.i1).var(ddof=1)
    # two-sample variance-ratio check, ~4 sigma of log F statistic
    assert abs(math.log(v_a / v_b)) < 4.0 * math.sqrt(4.0 / d_a.n)


def test_output_approximately_white():
    batch = simulate(SHOT_COV, CFG, POINTS, seed=37)
    x = batch.s1 - batch.s1.mean()
    r1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    # mild residual correlation from the filter corner near output Nyquist
    assert abs(r1) < 0.25


def test_no_aliasing_above_cutoff():
    # widen the output rate so the band above the filter cutoff is visible,
    # then demand >= 40 dB suppression beyond a 1.25x transition allowance
    cfg = dataclasses.replace(CFG, output_rate_hz=8.0e4)
    batch = simulate(SHOT_COV, cfg, 20_000, seed=38)
    freqs, psd = sp_signal.welch(batch.s1, fs=cfg.output_rate_hz, nperseg=4096)
    passband = psd[(freqs > 1e3) & (freqs < 0.8 * cfg.post_mixer_cutoff_hz)].mean()
    stopband = psd[freqs >= 1.25 * cfg.post_mixer_cutoff_hz].mean()
    assert 10.0 * math.log10(passband / stopband) >= 40.0


def test_post_mixer_filter_contract():
    sos = post_mixer_sos(CFG)
    assert sos.shape == (4, 6)
    q1, _ = decimation_plan(CFG)
    mid_rate = CFG.synth_rate_hz / q1
    freqs = np.linspace(1e3, mid_rate / 2, 2000)
    _, response = sp_signal.sosfreqz(sos, worN=freqs, fs=mid_rate)
    gain_db = 20.0 * np.log10(np.abs(response) + 1e-300)
    passband = freqs <= 0.95 * CFG.post_mixer_cutoff_hz
    assert gain_db[passband].min() > -0.1
    assert gain_db[passband].max() < 0.1
    stopband = freqs >= 1.25 * CFG.post_mixer_cutoff_hz
    assert gain_db[stopband].max() <= -40.0


def test_record_too_short_raises():
    rec = _record(SHOT_COV, CFG, seed=39)
    with pytest.raises(RecordLengthError):
        _demod_stream([rec], CFG, 80_000)


def test_oversqueezed_at_lo_rejected():
    # a 12 dB dip at the lo cannot be reached when the lo sits where the
    # Lorentzian has already rolled off this far
    cfg = dataclasses.replace(CFG, cavity_bandwidth_hz=8.0e4)
    deep = build_covariance(TwinPairParams(squeezing_db=12.0),
                            TwinPairParams(squeezing_db=12.0))
    with pytest.raises(ModelError, match="cavity"):
        simulate(deep, cfg, POINTS, seed=41)
