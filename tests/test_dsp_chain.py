"""Tests for wideband synthesis and the demodulation chain.

All configs here are scaled-down (2 MHz synthesis instead of 50 MHz) so one
synthesis+demodulation round trip stays well under a second; rate ratios
mirror the defaults.
"""

import dataclasses
import functools
import importlib.machinery
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sp_fft
from scipy import signal as sp_signal

from twinbeam_transfer import dsp_chain
from twinbeam_transfer.dsp_chain import (
    SignalChainConfig,
    _calibration_variance,
    _demod_stream,
    _demodulator,
    _filter_bank,
    _lead,
    _mode_densities,
    _pair_stream,
    _polyphase_fir,
    _shaping_filters,
    decimation_plan,
    post_mixer_sos,
    required_synth_samples,
    simulate,
    stream,
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


def _synth_blocks(taps, cfg, points, seed, modes):
    """The reference wideband record of the pairs of ``modes`` for points
    output points, as consecutive (len(modes), b) float32 blocks, each a
    fresh array: (s, i) of each pair in turn, whose modes are an even mode,
    the difference d, and the next, the sum u. ``taps`` are the (4, M)
    shaping filters of all four modes (_shaping_filters).

    Mode k is unit white noise from its own Philox substream,
    ``Philox(seed).jumped(k)``, as the chain draws it, drawn continuously
    and filtered by taps[k] by overlap-save: fixed FFT segments at fixed
    positions of the record, each taking the last M - 1 input samples of
    the one before, so the record does not depend on the block size. The
    first segment's history is drawn too, so the record is stationary from
    its first sample. Per pair, s = (u + d) / 2 and i = (u - d) / 2 of its
    independent modes. The chain forms no such record: it demodulates the
    draws through filter banks that fold the shaping filters in.
    """
    overlap = taps.shape[1] - 1
    nfft = 1 << max(12, (16 * overlap - 1).bit_length())
    step = nfft - overlap
    spectra = np.fft.rfft(taps[modes], n=nfft).astype(np.complex64)
    streams = [np.random.Generator(np.random.Philox(seed).jumped(k)) for k in modes]

    n = required_synth_samples(cfg, points)
    per_block = max(1, dsp_chain._BLOCK // step) * step
    # per mode, the last M - 1 samples of the draw before, then the block's draw
    white = np.empty((len(modes), overlap + per_block), dtype=np.float32)
    for k, gen in enumerate(streams):
        gen.standard_normal(dtype=np.float32, out=white[k, :overlap])
    filtered = np.empty((len(modes), per_block), dtype=np.float32)
    for start in range(0, n, per_block):
        drawn = -(-min(per_block, n - start) // step) * step
        for k, gen in enumerate(streams):
            gen.standard_normal(dtype=np.float32, out=white[k, overlap:overlap + drawn])
            windows = sliding_window_view(white[k, :overlap + drawn], nfft)[::step]
            spectrum = sp_fft.rfft(windows)
            spectrum *= spectra[k]
            segments = filtered[k, :drawn].reshape(-1, step)
            segments[...] = sp_fft.irfft(spectrum, n=nfft)[:, overlap:]
            white[k, :overlap] = white[k, drawn:drawn + overlap]
        d, u = filtered[0::2, :n - start], filtered[1::2, :n - start]
        block = np.empty((len(modes), d.shape[1]), dtype=np.float32)
        np.add(u, d, out=block[0::2])
        np.subtract(u, d, out=block[1::2])
        block *= 0.5
        yield block


def _record(cov, cfg, seed, points=POINTS, modes=range(4)):
    # the whole (len(modes), n) float32 reference wideband record
    return np.concatenate(list(_synth_blocks(_shaping_filters(cov, cfg), cfg, points, seed,
                                              modes)), axis=1)


def _modes(block):
    # a record block's pairs (s, i) as the modes (s - i, s + i) that
    # _demod_stream reads
    modes = np.empty_like(block)
    s, i = block[0::2], block[1::2]
    np.subtract(s, i, out=modes[0::2])
    np.add(s, i, out=modes[1::2])
    return modes


def _record_bank(cfg, channels=4):
    # the filter bank of one-tap filters, which demodulates a record
    return _filter_bank(cfg, _demodulator(cfg), np.ones((channels, 1)))


def _demodulated(blocks, cfg, points):
    # the calibrated (points, c) output of a record given as a list of
    # (c, b) blocks, which _demod_stream yields batch by batch
    chunks = _demod_stream((_modes(b) for b in blocks), _record_bank(cfg, blocks[0].shape[0]),
                           cfg, points, _demodulator(cfg))
    return np.concatenate(list(chunks), axis=1).T


def test_config_defaults_are_valid():
    cfg = SignalChainConfig()
    assert cfg.lo_frequency_hz == 3.5e6
    assert cfg.output_rate_hz == 2.0e5
    assert decimation_plan(cfg) == (50, 5)


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(output_rate_hz=3.0e4), "output_rate_hz"),
    (dict(synth_rate_hz=4.0e5), "synth_rate_hz"),
    (dict(synth_rate_hz=math.nan), "synth_rate_hz"),
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


@pytest.mark.parametrize("cfg", [
    CFG,
    SignalChainConfig(),
    # ratio 5: a single-stage plan, q1 = 1, whose FIR is one tap
    dataclasses.replace(CFG, synth_rate_hz=4.0e5, output_rate_hz=8.0e4, lo_frequency_hz=1.0e5),
], ids=["test", "default", "single-stage"])
def test_required_samples_are_the_demodulator_bound(cfg):
    # the record is synthesized exactly as far as the last output point's
    # polyphase FIR reads, past the 1250-point lead of the test config
    assert required_synth_samples(cfg, POINTS) == _needed_samples(cfg, POINTS)[0]
    if cfg == CFG:
        q1, q2 = decimation_plan(CFG)
        assert _lead(CFG) == 1250
        assert required_synth_samples(CFG, POINTS) == (1250 + POINTS - 1) * q2 * q1 + 10 * q1 + 1


def test_synthesize_deterministic():
    a = _record(SHOT_COV, CFG, seed=11)
    b = _record(SHOT_COV, CFG, seed=11)
    c = _record(SHOT_COV, CFG, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.dtype == np.float32
    assert a.shape == (4, required_synth_samples(CFG, POINTS))


def _four_mode_shaping_filters(cov, cfg):
    # _shaping_filters as it was designed with all four modes' grids at
    # once: the densities, their zero-phase responses and the grid errors
    # as (4, grid) arrays
    fs = cfg.synth_rate_hz
    at_lo = _mode_densities(cov, cfg, np.array([cfg.lo_frequency_hz]))[:, 0]
    taps = dsp_chain._MIN_SHAPING_TAPS
    while True:
        half = (taps - 1) // 2
        grid = 16 * (taps - 1)
        density = _mode_densities(cov, cfg, np.arange(grid // 2 + 1) * (fs / grid))
        zero_phase = np.fft.irfft(np.sqrt(density), n=grid)
        h = np.concatenate((zero_phase[:, -half:], zero_phase[:, :half + 1]), axis=1)
        lo_phasor = np.exp(-2j * math.pi * cfg.lo_frequency_hz / fs * np.arange(taps))
        h *= np.sqrt(at_lo / np.abs(np.einsum("km,m->k", h, lo_phasor)) ** 2)[:, np.newaxis]
        error = (np.abs(np.abs(np.fft.rfft(h, n=grid)) ** 2 - density)
                 / np.maximum(density, 2.0))
        if error.max() <= dsp_chain._SHAPING_TOL:
            return h
        taps = 2 * taps - 1


@pytest.mark.parametrize("cavity,taps", [(1.0e6, 513), (2.0e5, 1025)])
def test_shaping_filters_one_mode_at_a_time_are_the_four_mode_design(cavity, taps):
    # the design takes one mode's grid at a time; its taps are, bit for
    # bit, those of the design that took all four at once, through five or
    # six tap counts, with four different modes
    cfg = dataclasses.replace(CFG, cavity_bandwidth_hz=cavity)
    cov = build_covariance(TwinPairParams(squeezing_db=1.0),
                           TwinPairParams(squeezing_db=3.0, excess_sum_db=10.0))
    h = _shaping_filters(cov, cfg)
    assert h.shape == (4, taps)
    assert np.array_equal(h, _four_mode_shaping_filters(cov, cfg))


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


@pytest.mark.parametrize("cfg", [
    CFG,
    SignalChainConfig(),
    # q1 = 400
    SignalChainConfig(synth_rate_hz=4.0e8, cavity_bandwidth_hz=4.0e7),
    # ratio 5: a single-stage plan, q1 = 1, whose FIR is one tap
    dataclasses.replace(CFG, synth_rate_hz=4.0e5, output_rate_hz=8.0e4, lo_frequency_hz=1.0e5),
], ids=["test", "default", "q1-400", "single-stage"])
def test_calibration_is_the_squared_norm_of_the_upsampled_response(cfg):
    # the noise gain from the autocorrelations of the polyphase FIR and the
    # low-pass response against the squared norm of the response it stands
    # for: the FIR convolved with the low-pass response upsampled by q1
    q1, q2 = decimation_plan(cfg)
    response = sp_signal.sosfilt(post_mixer_sos(cfg), sp_signal.unit_impulse(_lead(cfg) * q2))
    if q1 > 1:
        response = sp_signal.upfirdn(_polyphase_fir(q1), response, up=q1)
    assert _calibration_variance(_demodulator(cfg).response, q1) == pytest.approx(
        float(np.dot(response, response)), rel=1e-13)


def test_ellip_prototype_is_scipys():
    # the low-pass's analog prototype, held as constants, is
    # scipy.signal.ellipap(8, 0.05, 50): zeros, poles and gain exactly
    zeros, poles, gain = sp_signal.ellipap(8, 0.05, 50.0)
    upper = np.array(dsp_chain._ELLIP_ZEROS)
    assert np.array_equal(zeros, np.concatenate((upper, upper.conj())))
    upper = np.array(dsp_chain._ELLIP_POLES)
    assert np.array_equal(poles, np.concatenate((upper.conj(), upper)))
    assert gain == dsp_chain._ELLIP_GAIN


_DESIGN_CONFIGS = [
    CFG,
    SignalChainConfig(),
    # q1 = 400
    SignalChainConfig(synth_rate_hz=4.0e8, cavity_bandwidth_hz=4.0e7),
    # ratio 5: a single-stage plan, q1 = 1, whose FIR is one tap
    dataclasses.replace(CFG, synth_rate_hz=4.0e5, output_rate_hz=8.0e4, lo_frequency_hz=1.0e5),
]
_DESIGN_IDS = ["test", "default", "q1-400", "single-stage"]


@pytest.mark.parametrize("cfg", _DESIGN_CONFIGS, ids=_DESIGN_IDS)
def test_post_mixer_sos_is_scipys_elliptic_design(cfg):
    q1, _ = decimation_plan(cfg)
    reference = sp_signal.ellip(8, 0.05, 50.0, cfg.post_mixer_cutoff_hz, btype="low",
                                output="sos", fs=cfg.synth_rate_hz / q1)
    assert np.abs(post_mixer_sos(cfg) - reference).max() <= 1e-12


@pytest.mark.parametrize("q1", [2, 8, 50, 400, 2000])
def test_polyphase_fir_is_scipys_firwin(q1):
    # resample_poly's default design for down=q1, in float32 bit for bit
    reference = sp_signal.firwin(20 * q1 + 1, 1.0 / q1, window=("kaiser", 5.0))
    assert np.array_equal(_polyphase_fir(q1), reference.astype(np.float32))


@pytest.mark.parametrize("cfg", [
    *_DESIGN_CONFIGS,
    # plan (1, 19): a 19,000-tap response at the full rate
    SignalChainConfig(synth_rate_hz=3.8e6, lo_frequency_hz=1.0e6),
], ids=[*_DESIGN_IDS, "single-stage-19"])
def test_lowpass_response_is_the_sections_impulse_response(cfg):
    # the response the chain applies and calibrates with, computed on an
    # FFT grid, is the sections' recursion run on a unit impulse for lead*q2
    # samples
    _, q2 = decimation_plan(cfg)
    reference = sp_signal.sosfilt(post_mixer_sos(cfg), sp_signal.unit_impulse(_lead(cfg) * q2))
    response = _demodulator(cfg).response
    assert response.shape == reference.shape
    assert np.abs(response - reference).max() <= 1e-13 * np.abs(reference).max()


def test_calibration_matches_white_noise_reference():
    # Monte Carlo reference for the closed-form noise gain the chain divides
    # by: unit white records through the same chain come out at unit
    # variance. The per-record variance has sd ~0.01, so 0.01 on the mean of
    # 20 (5 draws of the four channels, each an independent record) is ~4.5
    # standard errors (two-sided false-alarm rate ~7e-6).
    n = required_synth_samples(CFG, POINTS)
    variances = []
    for seed in range(5):
        white = np.random.Generator(np.random.Philox(seed)).standard_normal(
            (4, n), dtype=np.float32)
        variances.extend(_demodulated([white], CFG, POINTS).var(axis=0))
    assert len(variances) == 20
    assert np.mean(variances) == pytest.approx(1.0, abs=0.01)


def _mix_upfirdn_reference(channels, cfg, points):
    # the demodulator before the mixer was folded into the polyphase taps, on
    # a whole record: a float32 sqrt(2)*cos LO times the input, resample_poly's
    # FIR decimation by q1 through upfirdn, the low-pass, decimation by q2
    # and the trim
    q1, q2 = decimation_plan(cfg)
    lead = _lead(cfg)
    fir = _polyphase_fir(q1) if q1 > 1 else np.ones(1, dtype=np.float32)
    half = (fir.size - 1) // 2
    t = np.arange(channels.shape[1], dtype=np.float64) / cfg.synth_rate_hz
    lo = math.sqrt(2.0) * np.cos(2.0 * math.pi * cfg.lo_frequency_hz * t)
    mixed = np.concatenate((np.zeros((channels.shape[0], half), dtype=np.float32),
                            channels * lo.astype(np.float32)), axis=1)
    count = (mixed.shape[1] - 2 * half - 1) // q1 + 1
    skip = 2 * half // q1
    mid = sp_signal.upfirdn(fir, mixed, 1, q1, axis=1)[:, skip:skip + count]
    low = sp_signal.sosfilt(post_mixer_sos(cfg), mid, axis=1)
    return low[:, ::q2][:, lead:lead + points].T


@pytest.mark.parametrize("cfg", [
    CFG,
    # lo/fs = 0.1065: q1 = 8 is no multiple of half the LO period, so the
    # LO phase at the start of each row is no multiple of pi
    dataclasses.replace(CFG, lo_frequency_hz=2.13e5),
    # ratio 5: a single-stage plan, q1 = 1
    dataclasses.replace(CFG, synth_rate_hz=4.0e5, output_rate_hz=8.0e4,
                        lo_frequency_hz=1.0e5),
], ids=["test", "phase-incommensurate-lo", "single-stage"])
def test_folded_demodulator_matches_mix_then_upfirdn(cfg):
    rec = _record(TWIN_COV, cfg, seed=45)
    reference = _mix_upfirdn_reference(rec, cfg, POINTS) * _demodulator(cfg).scale
    folded = _demodulated([rec], cfg, POINTS)
    assert folded.shape == reference.shape == (POINTS, 4)
    assert np.abs(folded - reference).max() <= 1e-5 * np.abs(reference).max()


# plan (2000, 5), whose shaping filters are short: its lead of 1000 points
# reads 10M wideband samples
_Q1_2000 = SignalChainConfig(lo_frequency_hz=1.0e7, synth_rate_hz=4.0e8,
                             post_mixer_cutoff_hz=2.0e4, output_rate_hz=4.0e4,
                             cavity_bandwidth_hz=4.0e7)


@pytest.mark.parametrize("cfg,points,modes", [
    (CFG, POINTS, range(4)),
    (SignalChainConfig(), 5_000, range(4)),
    (dataclasses.replace(CFG, lo_frequency_hz=2.13e5), POINTS, range(4)),
    (dataclasses.replace(CFG, synth_rate_hz=4.0e5, output_rate_hz=8.0e4,
                         lo_frequency_hz=1.0e5), POINTS, range(4)),
    # pair 1 only, whose reference record alone is 80 MB
    (_Q1_2000, 200, range(2)),
], ids=["test", "default", "phase-incommensurate-lo", "single-stage", "q1-2000"])
def test_simulate_matches_mix_then_upfirdn_of_the_reference_record(cfg, points, modes):
    # the filter banks demodulate the draws without forming the wideband
    # record; the reference synthesizer forms it from the same draws, and
    # mixing, resample_poly's FIR and the low-pass on it give the same
    # output to float32 rounding
    assert decimation_plan(_Q1_2000) == (2000, 5)
    streamed = simulate(TWIN_COV, cfg, points, seed=42).data[:, :len(modes)]
    record = _record(TWIN_COV, cfg, 42, points, modes)
    reference = _mix_upfirdn_reference(record, cfg, points) * _demodulator(cfg).scale
    assert streamed.shape == reference.shape == (points, len(modes))
    assert np.abs(streamed - reference).max() <= 1e-5 * np.abs(reference).max()


def test_streamed_output_independent_of_block_size(monkeypatch):
    # the stream's chunks are consecutive slices of one record, 1 to _CHUNK
    # points each, whatever the draws' block; a record fed to the
    # demodulator in slices of the block size, whole segments or not
    # (12345 is no multiple of q1), gives what it gives whole.
    # q1 * q2 * 100_000 spans the whole record
    q1, q2 = decimation_plan(CFG)
    record = _record(TWIN_COV, CFG, seed=43)
    whole = simulate(TWIN_COV, CFG, POINTS, seed=43).data
    demodulated = _demodulated([record], CFG, POINTS)
    for block in (q1 * q2 * 1_000, q1 * q2 * 100_000, 12_345):
        monkeypatch.setattr(dsp_chain, "_BLOCK", block)
        chunks = list(stream(TWIN_COV, CFG, POINTS, seed=43))
        assert all(c.shape[0] == 4 and 1 <= c.shape[1] <= dsp_chain._CHUNK for c in chunks)
        assert np.array_equal(np.concatenate(chunks, axis=1), whole.T)
        slices = [record[:, start:start + block] for start in range(0, record.shape[1], block)]
        assert np.array_equal(_demodulated(slices, CFG, POINTS), demodulated)


@pytest.mark.parametrize("cfg", [
    CFG,
    # ratio 5: a single-stage plan, q1 = 1
    dataclasses.replace(CFG, synth_rate_hz=4.0e5, output_rate_hz=8.0e4, lo_frequency_hz=1.0e5),
], ids=["test", "single-stage"])
def test_output_independent_of_the_segment_batch(monkeypatch, cfg):
    # the filter banks' segments and the low-pass blocks sit at fixed
    # record positions, and the last block holds zeros past the last output
    # point's sample whatever a batch computes there, so batches of 1, 3 or
    # 40 segments give the same bits, in chunks of at most _CHUNK points
    whole = simulate(TWIN_COV, cfg, POINTS, seed=49).data
    step = _filter_bank(cfg, _demodulator(cfg), _shaping_filters(TWIN_COV, cfg)[:2]).step
    for segments in (1, 3, 40):
        monkeypatch.setattr(dsp_chain, "_BATCH", segments * step)
        chunks = list(stream(TWIN_COV, cfg, POINTS, seed=49))
        assert max(c.shape[1] for c in chunks) == dsp_chain._CHUNK
        assert np.array_equal(np.concatenate(chunks, axis=1), whole.T)


def test_stream_stacks_the_pair_pipelines_run_one_after_the_other():
    # the helper thread changes no arithmetic: the stream's chunks are, bit
    # for bit, each pair's pipeline run in this thread, one pair after the
    # other, stacked chunk by chunk
    taps, demod = _shaping_filters(TWIN_COV, CFG), _demodulator(CFG)
    pairs = [list(_pair_stream(taps, demod, CFG, POINTS, 46, pair)) for pair in (1, 2)]
    chunks = list(stream(TWIN_COV, CFG, POINTS, seed=46))
    assert len(chunks) == len(pairs[0]) == len(pairs[1])
    for chunk, one, two in zip(chunks, *pairs):
        assert one.shape[0] == two.shape[0] == 2
        assert np.array_equal(chunk, np.concatenate((one, two)))


def _failing_pairs(monkeypatch, pairs):
    # make the pipelines of ``pairs`` raise after their first block of draws
    draws = dsp_chain._draws

    def failing(seed, modes, count):
        blocks = draws(seed, modes, count)
        pair = modes.start // 2 + 1
        if pair in pairs:
            yield next(blocks)
            raise ModelError(f"pair {pair} pipeline failed")
        yield from blocks

    monkeypatch.setattr(dsp_chain, "_draws", failing)


def test_stream_joins_its_helper_thread(monkeypatch):
    # pair 2's pipeline runs on one helper thread, joined when the stream is
    # exhausted, closed early or ended by an error, which reaches the caller
    before = threading.active_count()
    assert len(list(stream(TWIN_COV, CFG, 2_000, seed=47))) > 1
    assert threading.active_count() == before
    # closed after 1 to 30 of a record's 61 chunks, with the helper at most
    # _PAIR_AHEAD chunks ahead, blocked or running; a short switch interval
    # interleaves the two threads finely
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for taken in (1, 2, 3, 5, 8, 13, 30):
            chunks = stream(TWIN_COV, CFG, POINTS, seed=47)
            for _ in range(taken):
                next(chunks)
            assert threading.active_count() == before + 1
            chunks.close()
            assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)
    _failing_pairs(monkeypatch, {2})
    with pytest.raises(ModelError, match="pair 2 pipeline failed"):
        list(stream(TWIN_COV, CFG, POINTS, seed=47))
    assert threading.active_count() == before


def test_both_pairs_failing_raise_pair_1s_error(monkeypatch):
    # as when one thread ran both pairs: the design refuses pair 1 first,
    # and of two pipelines failing at the same chunk, pair 1's error is raised.
    # This narrow cavity needs V- >= 1.72 at the lo: 0.3 dB passes, 7 fails
    cfg = dataclasses.replace(CFG, cavity_bandwidth_hz=8.0e4)
    shallow = TwinPairParams(squeezing_db=0.3)
    with pytest.raises(ModelError, match="^pair 1: difference variance"):
        list(stream(TWIN_COV, cfg, POINTS, seed=48))
    with pytest.raises(ModelError, match="^pair 2: difference variance"):
        list(stream(build_covariance(shallow, PAIR), cfg, POINTS, seed=48))
    _failing_pairs(monkeypatch, {1, 2})
    with pytest.raises(ModelError, match="pair 1 pipeline failed"):
        list(stream(TWIN_COV, CFG, POINTS, seed=48))


@pytest.mark.parametrize("cfg", [
    CFG,
    # ratio 5: a single-stage plan, q1 = 1
    dataclasses.replace(CFG, synth_rate_hz=4.0e5, output_rate_hz=8.0e4, lo_frequency_hz=1.0e5),
], ids=["test", "single-stage"])
def test_fft_kernel_calls_are_scipy_fft_bit_for_bit(cfg):
    # the filter banks call scipy's pocketfft kernel, loaded from its file,
    # as scipy.fft's rfft, ifft(overwrite_x=True) and irfft call it, on the
    # stream's buffers: the real FFT of a batch's segments, a strided
    # sliding window over the inputs (steps of q1 = 8 in the test plan),
    # then the inverse FFT of the folded bins, in place for q1 > 1 and a
    # real inverse FFT of N/2 + 1 bins for a single-stage plan
    kernel = dsp_chain._pocketfft()
    q1, _ = decimation_plan(cfg)
    bank = _filter_bank(cfg, _demodulator(cfg), _shaping_filters(TWIN_COV, cfg)[:2])
    count = max(1, dsp_chain._BATCH // bank.step)
    rng = np.random.default_rng(50)
    inputs = rng.standard_normal((2, bank.size - bank.step + count * bank.step))
    segments = sliding_window_view(inputs.astype(np.float32), bank.size, axis=1)[:, ::bank.step]
    assert segments.shape == (2, count, bank.size) and not segments.flags.c_contiguous
    spectra = kernel.r2c(segments, (2,), True, 0, None, 1)
    reference = sp_fft.rfft(segments, axis=2)
    assert spectra.dtype == reference.dtype == np.complex64
    assert np.array_equal(spectra, reference)

    shape = (2, count, bank.spectra.shape[4])
    folds = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)
    if q1 > 1:
        reference = sp_fft.ifft(folds.copy(), axis=2, overwrite_x=True)
        z = kernel.c2c(folds, (2,), False, 2, folds, 1)
        assert np.shares_memory(z, folds)
    else:
        assert shape[2] == bank.size // 2 + 1
        reference = sp_fft.irfft(folds, n=bank.size, axis=2)
        z = kernel.c2r(folds, (2,), bank.size, False, 2, None, 1)
    assert z.dtype == reference.dtype
    assert np.array_equal(z, reference)


def test_missing_fft_kernel_raises_naming_where_it_looked(monkeypatch):
    # no fallback to the scipy.fft package: a scipy without the kernel's
    # file raises ImportError naming the file's path and scipy's version,
    # from the stream's first chunk, before the helper thread starts
    import scipy

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".absent.so"])
    monkeypatch.setattr(dsp_chain, "_pocketfft",
                        functools.cache(dsp_chain._pocketfft.__wrapped__))
    stem = os.path.join(os.path.dirname(scipy.__file__), "fft", "_pocketfft", "pypocketfft")
    before = threading.active_count()
    with pytest.raises(ImportError) as raised:
        next(stream(TWIN_COV, CFG, POINTS, seed=51))
    assert threading.active_count() == before
    message = str(raised.value)
    assert message.startswith(f"scipy {scipy.__version__} has no pocketfft kernel")
    assert f"{stem} with the suffixes .absent.so" in message


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
        _demodulated([rec], CFG, 80_000)


def _needed_samples(cfg, points):
    # the record-length bound of _demod_stream: the last output point is
    # mid-rate sample (lead + points - 1) * q2, whose FIR reads up to half
    # wideband samples past q1 times its index
    q1, q2 = decimation_plan(cfg)
    fir = _polyphase_fir(q1) if q1 > 1 else np.ones(1, dtype=np.float32)
    half = (fir.size - 1) // 2
    return (_lead(cfg) + points - 1) * q2 * q1 + half + 1, half


def _batch(cfg):
    # the inputs a record's batch carries from the one before, and the
    # inputs it adds
    bank = _record_bank(cfg)
    return bank.size - bank.step, max(1, dsp_chain._BATCH // bank.step) * bank.step


def _white_record(cfg, points):
    # a record a batch longer than the length bound
    length = _needed_samples(cfg, points)[0] + sum(_batch(cfg))
    return np.random.default_rng(40).standard_normal((4, length), dtype=np.float32)


@pytest.mark.parametrize("run_boundary,block", [(False, None), (False, 7), (True, None)])
def test_record_at_the_length_bound_matches_the_whole_record(run_boundary, block):
    # exactly the bound's samples, whole or in blocks of 7; or the first
    # length past it that, after half zeros, ends a batch, so that every
    # batch after the record's last adds only padding
    points = 2_000
    rec = _white_record(CFG, points)
    length, half = _needed_samples(CFG, points)
    if run_boundary:
        keep, width = _batch(CFG)
        length = keep + -(-(half + length - keep) // width) * width - half
        assert length < rec.shape[1]
    cut = rec[:, :length]
    blocks = [cut] if block is None else [cut[:, s:s + block]
                                          for s in range(0, length, block)]
    assert np.array_equal(_demodulated(blocks, CFG, points),
                          _demodulated([rec], CFG, points))


def test_record_one_sample_short_raises():
    points = 2_000
    rec = _white_record(CFG, points)
    needed, _ = _needed_samples(CFG, points)
    with pytest.raises(RecordLengthError, match=r"\b1 wideband samples short"):
        _demodulated([rec[:, :needed - 1]], CFG, points)


def test_oversqueezed_at_lo_rejected():
    # a 12 dB dip at the lo cannot be reached when the lo sits where the
    # Lorentzian has already rolled off this far
    cfg = dataclasses.replace(CFG, cavity_bandwidth_hz=8.0e4)
    deep = build_covariance(TwinPairParams(squeezing_db=12.0),
                            TwinPairParams(squeezing_db=12.0))
    with pytest.raises(ModelError, match="cavity"):
        simulate(deep, cfg, POINTS, seed=41)
    # the memory check charges such a design nothing: the stream refuses it
    # before it holds any buffer
    assert dsp_chain._bank_samples(deep, cfg) == (0, 0)
