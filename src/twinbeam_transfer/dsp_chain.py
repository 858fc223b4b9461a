"""Broadband synthesis and lock-in demodulation of the photocurrent channels.

Spectral model: each channel is white unit-density shot noise plus a
Lorentzian-shaped correlated component of half-width ``cavity_bandwidth_hz``.
The configured pair variances are defined AT the analysis frequency
``lo_frequency_hz``, so the zero-frequency depths are back-computed from the
Lorentzian value there. Each pair is built from independent difference and
sum modes, unit white noise passed through a FIR shaping filter whose
|H|^2 follows the mode's density. Demodulation multiplies by
sqrt(2)*cos(2*pi*lo*t + phase), decimates by q1 through a polyphase FIR,
low-pass filters, decimates by q2 to ``output_rate_hz``, discards the filter
warm-up, and divides by the square root of the chain's noise gain (the
squared norm of its impulse response, computed from the filter taps) so
that a shot-limited input yields unit sample variance. The mixer is folded
into the polyphase FIR as complex taps: the input, cut into rows of q1
samples, meets them in one matrix product, and each decimated sample is
then rotated by its LO phase, so no full-rate LO or product is formed.

``simulate`` streams: synthesis and demodulation run block by block
(``_BLOCK`` wideband samples, float32), with every filter's state carried
between blocks, so no array of wideband length exists. Memory is the
(points, 4) float64 output, 32 bytes per output point, plus a few blocks;
a 300k-point record passes 4 x 75M wideband samples through it.

scipy is imported inside the functions that use it, so importing this module
(and so every direct-engine run) does not load it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ModelError, RecordLengthError, ValidationError
from .model import (
    SHOT_DIFFERENCE_VARIANCE,
    FourChannelCovariance,
    SampleBatch,
    _require_int,
)

# lead/tail margins around the kept record, in cutoff periods: the lead
# swallows the causal filter transient, the tail the polyphase edge effects
_LEAD_CUTOFF_PERIODS = 500.0
_TAIL_CUTOFF_PERIODS = 50.0

# wideband samples per block of the streamed chain; outputs do not depend on it
_BLOCK = 1 << 18

# rows of q1 wideband samples per polyphase product of the demodulator: one
# matrix shape at fixed record positions, so no output depends on how the
# BLAS library treats a particular matrix size
_ROWS = 1 << 12

# the mode shaping filters: largest error of |H|^2 against the model density,
# and the range of tap counts searched for it
_SHAPING_TOL = 1e-3
_MIN_SHAPING_TAPS = 33
_MAX_SHAPING_TAPS = (1 << 16) + 1


@dataclass(frozen=True)
class SignalChainConfig:
    """Rates and cutoffs of the detection/demodulation chain."""

    lo_frequency_hz: float = 3.5e6
    synth_rate_hz: float = 5.0e7
    post_mixer_cutoff_hz: float = 1.0e5
    output_rate_hz: float = 2.0e5
    cavity_bandwidth_hz: float = 1.0e7
    mixer_phase_rad: float = 0.0

    def __post_init__(self):
        for name in ("lo_frequency_hz", "synth_rate_hz", "post_mixer_cutoff_hz",
                     "output_rate_hz", "cavity_bandwidth_hz"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
            object.__setattr__(self, name, value)
        if not math.isfinite(float(self.mixer_phase_rad)):
            raise ValidationError(f"mixer_phase_rad must be finite, got {self.mixer_phase_rad}")
        object.__setattr__(self, "mixer_phase_rad", float(self.mixer_phase_rad))

        if self.output_rate_hz < 2.0 * self.post_mixer_cutoff_hz:
            raise ValidationError(
                "output_rate_hz must be >= 2 * post_mixer_cutoff_hz "
                f"({self.output_rate_hz} < {2.0 * self.post_mixer_cutoff_hz})")
        if self.synth_rate_hz <= 2.0 * (self.lo_frequency_hz + self.post_mixer_cutoff_hz):
            raise ValidationError(
                "synth_rate_hz must exceed 2 * (lo_frequency_hz + post_mixer_cutoff_hz) "
                f"({self.synth_rate_hz} <= "
                f"{2.0 * (self.lo_frequency_hz + self.post_mixer_cutoff_hz)})")
        if self.lo_frequency_hz <= self.post_mixer_cutoff_hz:
            raise ValidationError(
                "lo_frequency_hz must exceed post_mixer_cutoff_hz so the "
                "demodulated band clears dc "
                f"({self.lo_frequency_hz} <= {self.post_mixer_cutoff_hz})")

        ratio = self.synth_rate_hz / self.output_rate_hz
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 2:
            raise ValidationError(
                "synth_rate_hz must be an integer multiple (>= 2) of output_rate_hz, "
                f"got ratio {ratio}")


def decimation_plan(cfg: SignalChainConfig) -> tuple[int, int]:
    """Split the total decimation M into (polyphase q1, post-filter q2).

    Large ratios get a polyphase FIR front stage so the final IIR low-pass is
    designed at a moderate rate where it is well conditioned; small ratios
    run single-stage.
    """
    m = round(cfg.synth_rate_hz / cfg.output_rate_hz)
    if m < 20:
        return 1, m
    for q2 in (5, 4, 6, 7, 8, 9, 10):
        if m % q2 == 0:
            return m // q2, q2
    return 1, m


def _margins(cfg: SignalChainConfig) -> tuple[int, int]:
    lead = math.ceil(_LEAD_CUTOFF_PERIODS * cfg.output_rate_hz / cfg.post_mixer_cutoff_hz)
    tail = math.ceil(_TAIL_CUTOFF_PERIODS * cfg.output_rate_hz / cfg.post_mixer_cutoff_hz)
    return lead, tail


def required_synth_samples(cfg: SignalChainConfig, points: int) -> int:
    """Wideband samples needed for points output points plus warm-up."""
    q1, q2 = decimation_plan(cfg)
    lead, tail = _margins(cfg)
    return (lead + points + tail) * q1 * q2


def _lorentzian_depths(cov: FourChannelCovariance, cfg: SignalChainConfig,
                       pair_index: int) -> tuple[float, float]:
    # fractional dip of the difference PSD and absolute bump of the sum PSD
    # at zero frequency, chosen so both equal the configured variances at lo
    l_at_lo = 1.0 / (1.0 + (cfg.lo_frequency_hz / cfg.cavity_bandwidth_hz) ** 2)
    v_minus = cov.difference_variance(pair_index)
    v_plus = cov.sum_variance(pair_index)
    dip = (2.0 - v_minus) / (2.0 * l_at_lo)
    if dip > 1.0 + 1e-12:
        raise ModelError(
            f"pair {pair_index}: difference variance {v_minus:.4f} at "
            f"{cfg.lo_frequency_hz:.3g} Hz needs a zero-frequency dip beyond total "
            f"suppression; requires V- >= {2.0 * (1.0 - l_at_lo):.4f} at this "
            "lo/cavity-bandwidth ratio")
    bump = (v_plus - 2.0) / l_at_lo
    if bump < -1e-9:
        raise ModelError(f"pair {pair_index}: sum variance {v_plus:.4f} is below the SNL")
    return min(dip, 1.0), max(bump, 0.0)


def _mode_densities(cov: FourChannelCovariance, cfg: SignalChainConfig,
                    f: np.ndarray) -> np.ndarray:
    # one-sided densities of the four modes (difference and sum of pair 1,
    # then of pair 2) at the frequencies f, in units where white shot noise
    # of a beam pair is 2
    lorentzian = 1.0 / (1.0 + (np.asarray(f) / cfg.cavity_bandwidth_hz) ** 2)
    rows = []
    for pair in (1, 2):
        dip, bump = _lorentzian_depths(cov, cfg, pair)
        rows += [2.0 * (1.0 - dip * lorentzian), 2.0 + bump * lorentzian]
    return np.array(rows)


def _shaping_filters(cov: FourChannelCovariance, cfg: SignalChainConfig) -> np.ndarray:
    """FIR taps, shape (4, M), that shape unit white noise into the four modes.

    Each filter is the frequency-sampled sqrt(S) of its mode, made causal and
    cut to M taps, then scaled so that |H|^2 equals S exactly at the LO, where
    the configured variances are defined. M = 2**k + 1 is the shortest length
    at which every |H|^2 stays within _SHAPING_TOL of S on a grid 16 times
    finer than the taps, the error taken relative to S or, below the shot
    level, to the shot level (a relative error under a near-total squeezing
    dip would need unbounded length). It grows with synth_rate_hz /
    cavity_bandwidth_hz.
    """
    fs = cfg.synth_rate_hz
    at_lo = _mode_densities(cov, cfg, np.array([cfg.lo_frequency_hz]))[:, 0]
    taps = _MIN_SHAPING_TAPS
    while taps <= _MAX_SHAPING_TAPS:
        half = (taps - 1) // 2
        grid = 16 * (taps - 1)
        density = _mode_densities(cov, cfg, np.arange(grid // 2 + 1) * (fs / grid))
        zero_phase = np.fft.irfft(np.sqrt(density), n=grid)
        h = np.concatenate((zero_phase[:, -half:], zero_phase[:, :half + 1]), axis=1)
        lo_phasor = np.exp(-2j * math.pi * cfg.lo_frequency_hz / fs * np.arange(taps))
        h *= np.sqrt(at_lo / np.abs(h @ lo_phasor) ** 2)[:, np.newaxis]
        error = (np.abs(np.abs(np.fft.rfft(h, n=grid)) ** 2 - density)
                 / np.maximum(density, SHOT_DIFFERENCE_VARIANCE))
        if error.max() <= _SHAPING_TOL:
            return h
        taps = 2 * taps - 1
    raise ModelError(
        f"cavity_bandwidth_hz {cfg.cavity_bandwidth_hz:.3g} is too narrow to shape "
        f"at synth_rate_hz {fs:.3g} with at most {_MAX_SHAPING_TAPS} filter taps; "
        "raise cavity_bandwidth_hz or lower synth_rate_hz")


def _synth_blocks(cov: FourChannelCovariance, cfg: SignalChainConfig, points: int,
                  seed: int) -> Iterator[np.ndarray]:
    """The wideband record for points output points, as consecutive (4, b)
    float32 blocks (s1, i1, s2, i2).

    Each mode is unit white noise from its own Philox substream, drawn
    continuously, filtered by overlap-save: fixed FFT segments at fixed
    positions of the record, each taking the last M - 1 input samples of the
    one before, so the record does not depend on the block size. The first
    segment's history is drawn too, so the record is stationary from its
    first sample. Per pair, s = (u + d) / 2 and i = (u - d) / 2 of the
    independent sum (u) and difference (d) modes; the pairs use disjoint
    substreams, which keeps the cross-pair spectra identically zero.
    """
    from scipy import fft as sp_fft

    taps = _shaping_filters(cov, cfg)
    overlap = taps.shape[1] - 1
    nfft = 1 << max(12, (16 * overlap - 1).bit_length())
    step = nfft - overlap
    spectra = np.fft.rfft(taps, n=nfft).astype(np.complex64)
    streams = [np.random.Generator(np.random.Philox(seed).jumped(k)) for k in range(4)]
    history = [gen.standard_normal(overlap, dtype=np.float32) for gen in streams]

    n = required_synth_samples(cfg, points)
    per_block = max(1, _BLOCK // step) * step
    for start in range(0, n, per_block):
        segments = -(-min(per_block, n - start) // step)
        modes = np.empty((4, segments * step), dtype=np.float32)
        for k, gen in enumerate(streams):
            white = np.concatenate(
                (history[k], gen.standard_normal(segments * step, dtype=np.float32)))
            windows = sliding_window_view(white, nfft)[::step]
            spectrum = sp_fft.rfft(windows)
            spectrum *= spectra[k]
            modes[k] = sp_fft.irfft(spectrum, n=nfft)[:, overlap:].ravel()
            history[k] = white[-overlap:].copy()
        d1, u1, d2, u2 = modes[:, :n - start]
        yield np.stack(((u1 + d1) * 0.5, (u1 - d1) * 0.5,
                        (u2 + d2) * 0.5, (u2 - d2) * 0.5))


def post_mixer_sos(cfg: SignalChainConfig) -> np.ndarray:
    """The baseband low-pass filter sections, at the rate they are applied."""
    from scipy import signal as sp_signal

    q1, _ = decimation_plan(cfg)
    # elliptic: steep enough to hit the stopband contract within a 1.25x
    # transition band while keeping the passband flat to 0.05 dB
    return sp_signal.ellip(8, 0.05, 50.0, cfg.post_mixer_cutoff_hz, btype="low",
                           output="sos", fs=cfg.synth_rate_hz / q1)


def _polyphase_fir(q1: int) -> np.ndarray:
    # resample_poly's own default design for down=q1, spelled out so the
    # calibration sees exactly the taps the chain applies
    from scipy import signal as sp_signal

    return sp_signal.firwin(20 * q1 + 1, 1.0 / q1,
                            window=("kaiser", 5.0)).astype(np.float32)


def _folded_fir(cfg: SignalChainConfig) -> tuple[np.ndarray, int]:
    """The polyphase FIR with the mixer folded in, and its half-length.

    Returns float32 weights of shape (2R, q1), R = ceil(taps / q1): the
    complex taps fir[k] * exp(i*omega*k*dt), zero past the last tap, cut
    into R rows of q1, row r's real part in row 2r and its imaginary part in
    row 2r + 1. A single-stage plan gets the one-tap identity filter.
    """
    q1, _ = decimation_plan(cfg)
    fir = _polyphase_fir(q1) if q1 > 1 else np.ones(1, dtype=np.float32)
    branches = -(-fir.size // q1)
    taps = np.zeros(branches * q1, dtype=np.complex128)
    k = np.arange(fir.size)
    # upfirdn convolves: input a + k of a window meets fir[2*half - k]
    taps[:fir.size] = fir[::-1] * np.exp(2j * math.pi * cfg.lo_frequency_hz
                                         / cfg.synth_rate_hz * k)
    rows = taps.reshape(branches, 1, q1)
    weights = np.concatenate((rows.real, rows.imag), axis=1).reshape(2 * branches, q1)
    return weights.astype(np.float32), (fir.size - 1) // 2


def _demod_stream(blocks: Iterable[np.ndarray], cfg: SignalChainConfig,
                  points: int) -> np.ndarray:
    """The chain's uncalibrated output, shape (points, c), for a record given
    as consecutive (c, b) float32 blocks.

    Mixing by sqrt(2)*cos(omega*t + phase) and then the polyphase FIR
    decimation by q1, with resample_poly's taps and zero-phase alignment, is
    one modulated polyphase filter (Crochiere & Rabiner 1983). Mid-rate
    sample j reads the inputs a = j*q1 - half .. a + 2*half, and since
    cos(omega*(a + k)*dt + phase) = Re(exp(i*(omega*a*dt + phase)) *
    exp(i*omega*k*dt)), the LO folds into the complex taps of _folded_fir,
    exactly for any LO frequency. The input is cut into rows of q1 samples
    and multiplied by those (2R, q1) weights, one BLAS product per run of
    _ROWS rows; sample j sums the R branch diagonals (row j + r times
    branch r) and is rotated by its phase omega*a*dt + phase. Then comes the
    low-pass with its state carried, decimation by q2 and the trim. The runs
    sit at fixed record positions with one fixed shape (the last one padded
    with zeros), so every output sample is computed the same way whatever
    the block lengths.
    """
    from scipy import signal as sp_signal

    q1, q2 = decimation_plan(cfg)
    lead, _ = _margins(cfg)
    sos = post_mixer_sos(cfg)
    weights, half = _folded_fir(cfg)
    branches = weights.shape[0] // 2
    width = _ROWS * q1
    lo_step = 2.0 * math.pi * cfg.lo_frequency_hz / cfg.synth_rate_hz

    out = state = pending = products = folded = None
    received = filtered = decimated = written = 0
    # products column c holds row first + c; mid-rate sample first + t sums
    # branch r times row first + t + r
    first = 1 - branches
    for block in itertools.chain(blocks, [None]):
        if block is None:
            if pending is None:
                break
            # the record ended: pad its last run with zeros
            block = np.zeros((pending.shape[0], width - pending.shape[1]), dtype=np.float32)
        else:
            received += block.shape[1]
        if pending is None:
            channels = block.shape[0]
            out = np.empty((points, channels))
            state = np.zeros((sos.shape[0], channels, 2))
            # resample_poly zero-pads before the first sample
            pending = np.zeros((channels, half), dtype=np.float32)
            # the last R - 1 rows' products, then the run's
            products = np.zeros((channels, 2 * branches, branches - 1 + _ROWS),
                                dtype=np.float32)
            folded = products.reshape(channels, branches, 2, -1)
        pending = np.concatenate((pending, block), axis=1)
        # mid-rate samples whose inputs have all arrived
        ready = max(0, (received - half - 1) // q1 + 1)
        while pending.shape[1] >= width:
            run = pending[:, :width].reshape(channels, _ROWS, q1)
            pending = pending[:, width:]
            products[:, :, :branches - 1] = products[:, :, _ROWS:]
            np.matmul(weights, run.transpose(0, 2, 1), out=products[:, :, branches - 1:])
            z = folded[:, 0, :, :_ROWS].copy()
            for branch in range(1, branches):
                z += folded[:, branch, :, branch:branch + _ROWS]
            lo, hi = max(filtered, first), min(first + _ROWS, ready)
            z = z[:, :, lo - first:hi - first]
            first += _ROWS
            if hi <= lo:
                continue
            phase = lo_step * (np.arange(lo, hi) * q1 - half) + cfg.mixer_phase_rad
            mid = math.sqrt(2.0) * (np.cos(phase) * z[:, 0] - np.sin(phase) * z[:, 1])
            low, state = sp_signal.sosfilt(sos, mid, axis=1, zi=state)
            kept = low[:, (-filtered) % q2::q2]
            filtered += mid.shape[1]
            # decimated samples lead .. lead + points - 1 are the output
            new = kept[:, max(lead - decimated, 0):][:, :points - written]
            decimated += kept.shape[1]
            out[written:written + new.shape[1]] = new.T
            written += new.shape[1]
            if written == points:
                return out
    raise RecordLengthError(f"record ended {points - written} output points short")


def _calibration_variance(cfg: SignalChainConfig) -> float:
    # noise gain of the chain for a unit white (shot-noise) input: the
    # sqrt(2)*cos mixer keeps it white with unit variance and decimation by
    # q2 keeps the variance, so the output variance is the squared norm of
    # the polyphase FIR followed by the low-pass upsampled by q1. The
    # low-pass response is cut where the chain discards its warm-up.
    from scipy import signal as sp_signal

    q1, q2 = decimation_plan(cfg)
    lead, _ = _margins(cfg)
    response = sp_signal.sosfilt(post_mixer_sos(cfg), sp_signal.unit_impulse(lead * q2))
    if q1 > 1:
        response = sp_signal.upfirdn(_polyphase_fir(q1), response, up=q1)
    return float(np.dot(response, response))


def simulate(cov: FourChannelCovariance, cfg: SignalChainConfig, points: int,
             seed: int) -> SampleBatch:
    """Synthesize and demodulate a record of points output points, block by block.

    No array of wideband length exists: memory is the (points, 4) output
    plus a few blocks of _BLOCK samples. The output is calibrated so that a
    shot-noise input comes out at unit variance.
    """
    points = _require_int("points", points, 1)
    seed = _require_int("seed", seed, 0)
    out = _demod_stream(_synth_blocks(cov, cfg, points, seed), cfg, points)
    out *= 1.0 / math.sqrt(_calibration_variance(cfg))
    return SampleBatch(data=out, seed=seed)
