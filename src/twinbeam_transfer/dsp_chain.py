"""Broadband synthesis and lock-in demodulation of the photocurrent channels.

Spectral model: each channel is white unit-density shot noise plus a
Lorentzian-shaped correlated component of half-width ``cavity_bandwidth_hz``.
The configured pair variances are defined AT the analysis frequency
``lo_frequency_hz``, so the zero-frequency depths are back-computed from the
Lorentzian value there. Each pair is built from independent difference and
sum modes, unit white noise passed through a FIR shaping filter whose
|H|^2 follows the mode's density. Demodulation multiplies by
sqrt(2)*cos(2*pi*lo*t), decimates by q1 through a polyphase FIR,
low-pass filters, decimates by q2 to ``output_rate_hz``, discards the filter
warm-up, and divides by the square root of the chain's noise gain (the
squared norm of its impulse response, computed from the filter taps) so
that a shot-limited input yields unit sample variance. The mixer is folded
into the polyphase FIR as complex taps: the input, cut into rows of q1
samples, meets them in one matrix product, and each decimated sample is
then rotated by its LO phase, so no full-rate LO or product is formed.

``stream`` is the chain: synthesis and demodulation run block by block
(``_BLOCK`` wideband samples, float32), with every filter's state carried
between blocks, and the calibrated output leaves as each demodulator run
makes it, at most ceil(_ROWS / q2) points at a time, so no array of
wideband or record length exists and memory does not grow with the record
(a 300k-point record passes 4 x 75M wideband samples through it).
``simulate`` concatenates the chunks into one batch.

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
    CHANNELS,
    SHOT_DIFFERENCE_VARIANCE,
    FourChannelCovariance,
    SampleBatch,
    _require_int,
    _require_real,
)

# the lead before the kept record, in cutoff periods: it swallows the
# causal filter transient
_LEAD_CUTOFF_PERIODS = 500.0

# wideband samples per block of the streamed chain; outputs do not depend on it
_BLOCK = 1 << 16

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

    def __post_init__(self):
        for name in ("lo_frequency_hz", "synth_rate_hz", "post_mixer_cutoff_hz",
                     "output_rate_hz", "cavity_bandwidth_hz"):
            value = _require_real(name, getattr(self, name))
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
            object.__setattr__(self, name, value)

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


def _lead(cfg: SignalChainConfig) -> int:
    """Output points demodulated and discarded before the record."""
    return math.ceil(_LEAD_CUTOFF_PERIODS * cfg.output_rate_hz / cfg.post_mixer_cutoff_hz)


def _fir_half(q1: int) -> int:
    """Half-length of the polyphase FIR for ratio q1: 10*q1, as in
    resample_poly's default design for down=q1, and 0 for the one-tap
    identity filter of a single-stage plan."""
    return 10 * q1 if q1 > 1 else 0


def required_synth_samples(cfg: SignalChainConfig, points: int) -> int:
    """Wideband samples that points output points read, warm-up included.

    The last output point is mid-rate sample (lead + points - 1)*q2, and the
    polyphase FIR of mid-rate sample j reads the wideband samples up to
    j*q1 + half (_demod_stream), so no output reads past this many.
    """
    q1, q2 = decimation_plan(cfg)
    return (_lead(cfg) + points - 1) * q2 * q1 + _fir_half(q1) + 1


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
    float32 blocks (s1, i1, s2, i2), each a fresh array.

    Each mode is unit white noise from its own Philox substream, drawn
    continuously, filtered by overlap-save: fixed FFT segments at fixed
    positions of the record, each taking the last M - 1 input samples of the
    one before, so the record does not depend on the block size. The first
    segment's history is drawn too, so the record is stationary from its
    first sample. Per pair, s = (u + d) / 2 and i = (u - d) / 2 of the
    independent sum (u) and difference (d) modes; the pairs use disjoint
    substreams, which keeps the cross-pair spectra identically zero. The
    draws and the filtered modes go to buffers reused from block to block.
    """
    from scipy import fft as sp_fft

    taps = _shaping_filters(cov, cfg)
    overlap = taps.shape[1] - 1
    nfft = 1 << max(12, (16 * overlap - 1).bit_length())
    step = nfft - overlap
    spectra = np.fft.rfft(taps, n=nfft).astype(np.complex64)
    streams = [np.random.Generator(np.random.Philox(seed).jumped(k)) for k in range(4)]

    n = required_synth_samples(cfg, points)
    per_block = max(1, _BLOCK // step) * step
    # per mode, the last M - 1 samples of the draw before, then the block's draw
    white = np.empty((4, overlap + per_block), dtype=np.float32)
    for k, gen in enumerate(streams):
        gen.standard_normal(dtype=np.float32, out=white[k, :overlap])
    modes = np.empty((4, per_block), dtype=np.float32)
    for start in range(0, n, per_block):
        drawn = -(-min(per_block, n - start) // step) * step
        for k, gen in enumerate(streams):
            gen.standard_normal(dtype=np.float32, out=white[k, overlap:overlap + drawn])
            windows = sliding_window_view(white[k, :overlap + drawn], nfft)[::step]
            spectrum = sp_fft.rfft(windows)
            spectrum *= spectra[k]
            filtered = sp_fft.irfft(spectrum, n=nfft)[:, overlap:]
            modes[k, :drawn].reshape(-1, step)[...] = filtered
            white[k, :overlap] = white[k, drawn:drawn + overlap]
        d1, u1, d2, u2 = modes[:, :min(per_block, n - start)]
        block = np.empty((4, d1.size), dtype=np.float32)
        np.add(u1, d1, out=block[0])
        np.subtract(u1, d1, out=block[1])
        np.add(u2, d2, out=block[2])
        np.subtract(u2, d2, out=block[3])
        block *= 0.5
        yield block


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

    return sp_signal.firwin(2 * _fir_half(q1) + 1, 1.0 / q1,
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
                  points: int) -> Iterator[np.ndarray]:
    """The chain's calibrated output for a record given as consecutive (4, b)
    float32 blocks of the four channels (s1, i1, s2, i2): (4, m) float64
    chunks in record order, each a fresh array, one per run of _ROWS rows
    that reaches the record, holding the run's output points (1 to
    ceil(_ROWS / q2) of them).

    Mixing by sqrt(2)*cos(omega*t) and then the polyphase FIR decimation by
    q1, with resample_poly's taps and zero-phase alignment, is one modulated
    polyphase filter (Crochiere & Rabiner 1983). Mid-rate sample j reads the
    inputs a = j*q1 - half .. a + 2*half, and since cos(omega*(a + k)*dt) =
    Re(exp(i*omega*a*dt) * exp(i*omega*k*dt)), the LO folds into the
    complex taps of _folded_fir, exactly for any LO frequency. The input is cut into rows of q1 samples
    and multiplied by those (2R, q1) weights, one BLAS product per run of
    _ROWS rows; sample j sums the R branch diagonals (row j + r times
    branch r) and is rotated by its LO phase omega*a*dt. Then comes the
    low-pass with its state carried, decimation by q2, the trim and the
    calibration (one multiply by 1/sqrt(_calibration_variance)). The runs
    sit at fixed record positions with one fixed shape, filled into one
    reused buffer, so every output sample is computed the same way whatever
    the block lengths.

    The last output point is mid-rate sample (lead + points - 1)*q2, so the
    record must hold needed = (lead + points - 1)*q2*q1 + half + 1 wideband
    samples (required_synth_samples); a shorter one raises
    RecordLengthError, naming the shortfall, when its input ends. A long
    enough record that ends inside a run has that run padded with zeros.
    The samples computed from the padding never reach an output: the
    low-pass is causal, and every output sample's FIR reads no input past
    needed.
    """
    from scipy import signal as sp_signal

    q1, q2 = decimation_plan(cfg)
    lead = _lead(cfg)
    sos = post_mixer_sos(cfg)
    weights, half = _folded_fir(cfg)
    branches = weights.shape[0] // 2
    width = _ROWS * q1
    lo_step = 2.0 * math.pi * cfg.lo_frequency_hz / cfg.synth_rate_hz
    scale = 1.0 / math.sqrt(_calibration_variance(cfg))
    needed = required_synth_samples(cfg, points)

    channels = len(CHANNELS)
    run = np.empty((channels, width), dtype=np.float32)
    # resample_poly zero-pads before the first sample
    run[:, :half] = 0.0
    state = np.zeros((sos.shape[0], channels, 2))
    # the last R - 1 rows' products, then the run's
    products = np.zeros((channels, 2 * branches, branches - 1 + _ROWS), dtype=np.float32)
    folded = products.reshape(channels, branches, 2, -1)
    filled, received, written = half, 0, 0
    # products column c holds row first + c; mid-rate sample first + t sums
    # branch r times row first + t + r
    first = 1 - branches
    for block in itertools.chain(blocks, [None]):
        if block is None:
            if received < needed:
                raise RecordLengthError(f"record ended {needed - received} wideband samples short")
            # the record ended: pad its last run with zeros, in place
            run[:, filled:] = 0.0
            filled, block = width, run[:, width:]
        received += block.shape[1]
        while True:
            take = min(width - filled, block.shape[1])
            run[:, filled:filled + take] = block[:, :take]
            block = block[:, take:]
            filled += take
            if filled < width:
                break
            filled = 0
            products[:, :, :branches - 1] = products[:, :, _ROWS:]
            np.matmul(weights, run.reshape(channels, _ROWS, q1).transpose(0, 2, 1),
                      out=products[:, :, branches - 1:])
            z = folded[:, 0, :, :_ROWS].copy()
            for branch in range(1, branches):
                z += folded[:, branch, :, branch:branch + _ROWS]
            # the run's mid-rate samples lo .. first + _ROWS - 1
            lo = max(first, 0)
            phase = lo_step * (np.arange(lo, first + _ROWS) * q1 - half)
            z = z[:, :, lo - first:]
            first += _ROWS
            mid = math.sqrt(2.0) * (np.cos(phase) * z[:, 0] - np.sin(phase) * z[:, 1])
            low, state = sp_signal.sosfilt(sos, mid, axis=1, zi=state)
            # mid-rate samples lead*q2, (lead + 1)*q2, .. are the output
            new = low[:, max(lead * q2 - lo, -lo % q2)::q2][:, :points - written]
            if new.shape[1]:
                written += new.shape[1]
                yield new * scale
            if written == points:
                return


def _calibration_variance(cfg: SignalChainConfig) -> float:
    # noise gain of the chain for a unit white (shot-noise) input: the
    # sqrt(2)*cos mixer keeps it white with unit variance and decimation by
    # q2 keeps the variance, so the output variance is the squared norm of
    # the polyphase FIR h followed by the low-pass response x upsampled by
    # q1, upfirdn(h, x, up=q1). That is the sum of c_l * R_x[l] * R_h[l*q1]
    # over the lags l*q1 < len(h), with R the autocorrelations, c_0 = 1 and
    # c_l = 2 (x[k] meets x[k + l] through R_h[l*q1]), so no response of
    # length lead*q2*q1 is formed. The low-pass response is cut where the
    # chain discards its warm-up.
    from scipy import signal as sp_signal

    q1, q2 = decimation_plan(cfg)
    x = sp_signal.sosfilt(post_mixer_sos(cfg), sp_signal.unit_impulse(_lead(cfg) * q2))
    h = _polyphase_fir(q1).astype(np.float64) if q1 > 1 else np.ones(1)
    return float(sum((2.0 if lag else 1.0) * np.dot(x[:x.size - lag], x[lag:])
                     * np.dot(h[:h.size - lag * q1], h[lag * q1:])
                     for lag in range(-(-h.size // q1))))


def stream(cov: FourChannelCovariance, cfg: SignalChainConfig, points: int,
           seed: int) -> Iterator[np.ndarray]:
    """Synthesize and demodulate a record of points output points, block by block.

    Yields the calibrated output as (4, m) float64 chunks (s1, i1, s2, i2)
    in record order, one per demodulator run, at most ceil(_ROWS / q2)
    points each (_demod_stream). No array of wideband or record length
    exists: memory is a few blocks of _BLOCK samples and the demodulator's
    run buffer, whatever points is. The output is calibrated so that a
    shot-noise input comes out at unit variance.
    """
    points = _require_int("points", points, 1)
    seed = _require_int("seed", seed, 0)
    return _demod_stream(_synth_blocks(cov, cfg, points, seed), cfg, points)


def simulate(cov: FourChannelCovariance, cfg: SignalChainConfig, points: int,
             seed: int) -> SampleBatch:
    """The whole record of ``stream``, as one (points, 4) batch."""
    chunks = list(stream(cov, cfg, points, seed))
    return SampleBatch(data=np.concatenate(chunks, axis=1).T)
