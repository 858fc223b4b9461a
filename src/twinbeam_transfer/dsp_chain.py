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
samples, meets them in one einsum per channel and run, and each decimated
sample is then rotated by its LO phase, so no full-rate LO or product is
formed, and no BLAS call is made.

``stream`` is the chain: synthesis and demodulation run block by block
(``_BLOCK`` wideband samples, float32), with every filter's state carried
between blocks, and the calibrated output leaves as each demodulator run
makes it, at most ceil(_ROWS / q2) points at a time, so no array of
wideband or record length exists and memory does not grow with the record
(a 300k-point record passes 4 x 75M wideband samples through it). Each
beam pair has its own pipeline, pair 2's on a helper thread. ``simulate``
concatenates the chunks into one batch.

scipy is imported inside the functions that use it, so importing this module
(and so every direct-engine run) does not load it.
"""

from __future__ import annotations

import itertools
import math
import queue
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ModelError, RecordLengthError, ValidationError
from .model import (
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

# rows of q1 wideband samples per polyphase product of the demodulator:
# one matrix shape at fixed record positions
_ROWS = 1 << 12

# demodulator runs that pair 2's pipeline may make ahead of pair 1's (stream)
_PAIR_AHEAD = 4

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
        h *= np.sqrt(at_lo / np.abs(np.einsum("km,m->k", h, lo_phasor)) ** 2)[:, np.newaxis]
        error = (np.abs(np.abs(np.fft.rfft(h, n=grid)) ** 2 - density)
                 / np.maximum(density, SHOT_DIFFERENCE_VARIANCE))
        if error.max() <= _SHAPING_TOL:
            return h
        taps = 2 * taps - 1
    raise ModelError(
        f"cavity_bandwidth_hz {cfg.cavity_bandwidth_hz:.3g} is too narrow to shape "
        f"at synth_rate_hz {fs:.3g} with at most {_MAX_SHAPING_TAPS} filter taps; "
        "raise cavity_bandwidth_hz or lower synth_rate_hz")


def _synth_blocks(taps: np.ndarray, cfg: SignalChainConfig, points: int, seed: int,
                  modes: range) -> Iterator[np.ndarray]:
    """The wideband record of the pairs of ``modes`` for points output
    points, as consecutive (len(modes), b) float32 blocks, each a fresh
    array: (s, i) of each pair in turn, whose modes are an even mode, the
    difference d, and the next, the sum u. ``taps`` are the (4, M) shaping
    filters of all four modes (_shaping_filters).

    Mode k is unit white noise from its own Philox substream,
    ``Philox(seed).jumped(k)``, drawn continuously and filtered by taps[k]
    by overlap-save: fixed FFT segments at fixed positions of the record,
    each taking the last M - 1 input samples of the one before, so the
    record does not depend on the block size. The first segment's history
    is drawn too, so the record is stationary from its first sample. Per
    pair, s = (u + d) / 2 and i = (u - d) / 2 of its independent modes; the
    pairs use disjoint substreams, which keeps the cross-pair spectra
    identically zero, and no mode depends on which others are synthesized
    with it. The draws and the filtered modes go to buffers reused from
    block to block.
    """
    from scipy import fft as sp_fft

    overlap = taps.shape[1] - 1
    nfft = 1 << max(12, (16 * overlap - 1).bit_length())
    step = nfft - overlap
    spectra = np.fft.rfft(taps[modes], n=nfft).astype(np.complex64)
    streams = [np.random.Generator(np.random.Philox(seed).jumped(k)) for k in modes]

    n = required_synth_samples(cfg, points)
    per_block = max(1, _BLOCK // step) * step
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
            # freed before the next mode's is made, as the block below before
            # the next block: two pipelines run at once, and their peaks add
            del spectrum
            white[k, :overlap] = white[k, drawn:drawn + overlap]
        d, u = filtered[0::2, :n - start], filtered[1::2, :n - start]
        block = np.empty((len(modes), d.shape[1]), dtype=np.float32)
        np.add(u, d, out=block[0::2])
        np.subtract(u, d, out=block[1::2])
        block *= 0.5
        yield block
        del block


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


class _Demodulator(NamedTuple):
    """The demodulator's designs for one signal chain (_demodulator)."""

    sos: np.ndarray
    weights: np.ndarray
    half: int
    scale: float


def _demodulator(cfg: SignalChainConfig) -> _Demodulator:
    """The low-pass sections, the folded polyphase weights and their
    half-length, and the calibration factor 1/sqrt(_calibration_variance)."""
    weights, half = _folded_fir(cfg)
    return _Demodulator(post_mixer_sos(cfg), weights, half,
                        1.0 / math.sqrt(_calibration_variance(cfg)))


def _put(rows: np.ndarray, start: int, values: np.ndarray) -> None:
    """Write ``values``, (channels, n), to the positions start .. start + n
    of ``rows``, a (channels, rows, q1) view read row after row: the rest of
    a begun row, the whole rows, and the start of the last."""
    q1 = rows.shape[2]
    row, col = divmod(start, q1)
    if col:
        head = min(q1 - col, values.shape[1])
        rows[:, row, col:col + head] = values[:, :head]
        values, row = values[:, head:], row + 1
    whole = values.shape[1] // q1
    rows[:, row:row + whole] = values[:, :whole * q1].reshape(rows.shape[0], whole, q1)
    if values.shape[1] > whole * q1:
        rows[:, row + whole, :values.shape[1] - whole * q1] = values[:, whole * q1:]


def _demod_stream(blocks: Iterable[np.ndarray], cfg: SignalChainConfig, points: int,
                  demod: _Demodulator) -> Iterator[np.ndarray]:
    """The chain's calibrated output for a record given as consecutive
    (c, b) float32 blocks of c channels: (c, m) float64 chunks in record
    order, each a fresh array, one per run of _ROWS rows that reaches the
    record, holding the run's output points (1 to ceil(_ROWS / q2) of
    them). ``demod`` is the chain's _demodulator(cfg).

    Mixing by sqrt(2)*cos(omega*t) and then the polyphase FIR decimation by
    q1, with resample_poly's taps and zero-phase alignment, is one modulated
    polyphase filter (Crochiere & Rabiner 1983). Mid-rate sample j reads the
    inputs a = j*q1 - half .. a + 2*half, and since cos(omega*(a + k)*dt) =
    Re(exp(i*omega*a*dt) * exp(i*omega*k*dt)), the LO folds into the
    complex taps of _folded_fir, exactly for any LO frequency. The input is
    cut into rows of q1 samples, held sample by row, so that each channel
    of a run of _ROWS rows is one contiguous (q1, _ROWS) matrix, and the
    (2R, q1) weights multiply it in one einsum: a fixed loop whose
    summation order depends on no BLAS library or CPU kernel. Sample j sums
    the R branch diagonals (row j + r times branch r) and is rotated by its
    LO phase omega*a*dt. Then comes the low-pass with its state carried,
    decimation by q2, the trim and the calibration (one multiply by
    demod.scale). The runs sit at fixed record positions with one fixed
    shape, filled into one reused buffer, so every output sample is
    computed the same way whatever the block lengths, and each channel the
    same way whatever channels come with it.

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
    sos, weights, half, scale = demod
    branches = weights.shape[0] // 2
    width = _ROWS * q1
    lo_step = 2.0 * math.pi * cfg.lo_frequency_hz / cfg.synth_rate_hz
    needed = required_synth_samples(cfg, points)

    blocks = iter(blocks)
    block = next(blocks, None)
    channels = 0 if block is None else block.shape[0]
    run = np.empty((channels, q1, _ROWS), dtype=np.float32)
    # the run as rows of q1 samples
    rows = run.transpose(0, 2, 1)
    # resample_poly zero-pads before the first sample
    _put(rows, 0, np.broadcast_to(np.float32(0.0), (channels, half)))
    state = np.zeros((sos.shape[0], channels, 2))
    # the last R - 1 rows' products, then the run's
    products = np.zeros((channels, 2 * branches, branches - 1 + _ROWS), dtype=np.float32)
    folded = products.reshape(channels, branches, 2, -1)
    filled, received, written = half, 0, 0
    # products column c holds row first + c; mid-rate sample first + t sums
    # branch r times row first + t + r
    first = 1 - branches
    for block in itertools.chain([block], blocks, [None]):
        if block is None:
            if received < needed:
                raise RecordLengthError(f"record ended {needed - received} wideband samples short")
            # the record ended: pad its last run with zeros
            block = np.broadcast_to(np.float32(0.0), (channels, width - filled))
        received += block.shape[1]
        while True:
            take = min(width - filled, block.shape[1])
            _put(rows, filled, block[:, :take])
            block = block[:, take:]
            filled += take
            if filled < width:
                # the spent block is freed before the next is made
                del block
                break
            filled = 0
            products[:, :, :branches - 1] = products[:, :, _ROWS:]
            for channel in range(channels):
                np.einsum("kq,qr->kr", weights, run[channel],
                          out=products[channel, :, branches - 1:], optimize=False)
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
    return float(sum((2.0 if lag else 1.0) * np.einsum("i,i->", x[:x.size - lag], x[lag:])
                     * np.einsum("i,i->", h[:h.size - lag * q1], h[lag * q1:])
                     for lag in range(-(-h.size // q1))))


def _pair_stream(taps: np.ndarray, demod: _Demodulator, cfg: SignalChainConfig,
                 points: int, seed: int, pair: int) -> Iterator[np.ndarray]:
    """Pair ``pair``'s pipeline: its (s, i) record from modes 2*pair - 2
    and 2*pair - 1 (_synth_blocks), demodulated with its own buffers and
    filter state (_demod_stream), as (2, m) chunks."""
    modes = range(2 * pair - 2, 2 * pair)
    return _demod_stream(_synth_blocks(taps, cfg, points, seed, modes), cfg, points, demod)


def stream(cov: FourChannelCovariance, cfg: SignalChainConfig, points: int,
           seed: int) -> Iterator[np.ndarray]:
    """Synthesize and demodulate a record of points output points, block by block.

    Yields the calibrated output as (4, m) float64 chunks (s1, i1, s2, i2)
    in record order, one per demodulator run, at most ceil(_ROWS / q2)
    points each (_demod_stream). No array of wideband or record length
    exists: memory is a few blocks of _BLOCK samples and the demodulator's
    run buffers, whatever points is. The output is calibrated so that a
    shot-noise input comes out at unit variance.

    The two beam pairs are independent until the idlers are selected, so
    each has its own pipeline (_pair_stream): the calling thread advances
    pair 1's while one helper thread advances pair 2's, at most _PAIR_AHEAD
    runs ahead, and each run's chunks are stacked. Both pipelines share one
    design: the shaping filters, whose tap count holds all four modes to
    _SHAPING_TOL, and the demodulator's. Neither pipeline reads the other's
    data, so the output is what running them one after the other gives. An
    error of either pipeline reaches the caller, pair 1's first, and
    closing the stream, or its end, joins the helper thread.
    """
    points = _require_int("points", points, 1)
    seed = _require_int("seed", seed, 0)
    return _paired(cov, cfg, points, seed)


def _paired(cov: FourChannelCovariance, cfg: SignalChainConfig, points: int,
            seed: int) -> Iterator[np.ndarray]:
    # stream's generator: pair 2's chunks, or the exception that ended its
    # pipeline, come through a queue the calling thread drains on its way out
    taps = _shaping_filters(cov, cfg)
    demod = _demodulator(cfg)
    first, second = (_pair_stream(taps, demod, cfg, points, seed, pair) for pair in (1, 2))
    handoff: queue.Queue = queue.Queue(_PAIR_AHEAD)
    stop = threading.Event()

    def advance():
        # after stop is set this puts at most once more, and a drained
        # queue has room for that, so the join below cannot wait forever
        try:
            for chunk in second:
                handoff.put(chunk)
                if stop.is_set():
                    return
        except BaseException as exc:
            # whatever ended the pipeline, which the calling thread raises
            handoff.put(exc)

    helper = threading.Thread(target=advance, name="pair-2-pipeline", daemon=True)
    helper.start()
    try:
        for chunk in first:
            other = handoff.get()
            if isinstance(other, BaseException):
                raise other
            yield np.concatenate((chunk, other))
    finally:
        stop.set()
        while True:
            try:
                handoff.get_nowait()
            except queue.Empty:
                break
        helper.join()


def simulate(cov: FourChannelCovariance, cfg: SignalChainConfig, points: int,
             seed: int) -> SampleBatch:
    """The whole record of ``stream``, as one (points, 4) batch."""
    chunks = list(stream(cov, cfg, points, seed))
    return SampleBatch(data=np.concatenate(chunks, axis=1).T)
