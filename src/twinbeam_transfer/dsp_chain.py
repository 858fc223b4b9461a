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
into the polyphase FIR as complex taps, and the shaping filters into those
too: each mode's white draws meet one frequency-domain filter bank
(_filter_bank), overlap-save segments whose spectra are multiplied by the
combined filter's and folded by q1, so one inverse FFT of N/q1 bins gives
the mid-rate samples, each then rotated by its LO phase. No wideband sample
is formed and no BLAS call is made. The low-pass, an elliptic design, is
applied as its impulse response, cut where the warm-up ends, by FFT with
the decimation by q2 folded in; the calibration sums that same response.

``stream`` is the chain: draws and demodulation run batch by batch, with
every filter's history carried between batches, and the calibrated output
leaves as each low-pass block makes it, at most _CHUNK points at a time,
so no array of wideband or record length exists and memory does not grow
with the record (a 300k-point record reads 4 x 75M draws through it). Each
beam pair has its own pipeline, pair 2's on a helper thread. ``simulate``
concatenates the chunks into one batch.

Of scipy the chain uses only its compiled pocketfft kernel, the extension
module behind scipy.fft, for the filter banks' transforms: _pocketfft
loads it from its file when a stream starts, and no scipy package is
imported, so neither importing this module (and so every direct-engine
run) nor a chain run loads scipy. The filter designs are numpy's.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
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

# draws per block of the streamed chain; outputs do not depend on it
_BLOCK = 1 << 16

# inputs per batch of the filter bank's segments (at least one segment);
# outputs do not depend on it
_BATCH = 1 << 16

# the filter bank's segments: at least this many times their overlap (the
# inputs a mid-rate sample reads, less one), and at least this long. Of 2,
# 4, 8 and 16 overlaps (segments of 6400 to 51,200 samples at the default
# plan), 4 ran a pair pipeline fastest
_SEGMENT_OVERLAPS = 4
_MIN_SEGMENT = 1 << 12

# output points per chunk of the stream, at most
_CHUNK = 1 << 9

# output chunks that pair 2's pipeline may make ahead of pair 1's (stream):
# a low-pass block's at the default plan
_PAIR_AHEAD = 8

# the mode shaping filters: largest error of |H|^2 against the model density,
# and the range of tap counts searched for it
_SHAPING_TOL = 1e-3
_MIN_SHAPING_TAPS = 33
_MAX_SHAPING_TAPS = (1 << 16) + 1

# the normalized analog prototype of the low-pass (post_mixer_sos), the
# elliptic order 8, 0.05 dB, 50 dB design of scipy's ellipap: its
# zeros on the imaginary axis and its poles, each of positive imaginary
# part standing for its conjugate pair, and its gain
_ELLIP_ZEROS = (4.127056855711344j, 1.6153733233234753j, 1.2329509559279972j,
                1.1353453956271693j)
_ELLIP_POLES = (-0.5186202286701701 + 0.3443833744075895j,
                -0.2839401927953269 + 0.7983648484130351j,
                -0.11149569235767817 + 0.9699766875284219j,
                -0.027729527255783423 + 1.0214743901365633j)
_ELLIP_GAIN = 0.0031622776601683534


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


def _mode_density(cov: FourChannelCovariance, cfg: SignalChainConfig, f: np.ndarray,
                  mode: int) -> np.ndarray:
    # one-sided density of mode ``mode`` (0 and 1: the difference and sum
    # of pair 1, 2 and 3: of pair 2) at the frequencies f, in units where
    # white shot noise of a beam pair is 2
    lorentzian = 1.0 / (1.0 + (np.asarray(f) / cfg.cavity_bandwidth_hz) ** 2)
    dip, bump = _lorentzian_depths(cov, cfg, mode // 2 + 1)
    return 2.0 * (1.0 - dip * lorentzian) if mode % 2 == 0 else 2.0 + bump * lorentzian


def _mode_densities(cov: FourChannelCovariance, cfg: SignalChainConfig,
                    f: np.ndarray) -> np.ndarray:
    # the densities of the four modes at the frequencies f, shape (4, len(f))
    return np.array([_mode_density(cov, cfg, f, mode) for mode in range(4)])


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
        f = np.arange(grid // 2 + 1) * (fs / grid)
        # one mode's grid at a time: at 65,537 taps a mode's is 8 MB
        h = np.empty((4, taps))
        for mode in range(4):
            zero_phase = np.fft.irfft(np.sqrt(_mode_density(cov, cfg, f, mode)), n=grid)
            h[mode, :half] = zero_phase[-half:]
            h[mode, half:] = zero_phase[:half + 1]
            del zero_phase
        lo_phasor = np.exp(-2j * math.pi * cfg.lo_frequency_hz / fs * np.arange(taps))
        h *= np.sqrt(at_lo / np.abs(np.einsum("km,m->k", h, lo_phasor)) ** 2)[:, np.newaxis]
        if all(_shaping_error(h[mode], _mode_density(cov, cfg, f, mode)) <= _SHAPING_TOL
               for mode in range(4)):
            return h
        taps = 2 * taps - 1
    raise ModelError(
        f"cavity_bandwidth_hz {cfg.cavity_bandwidth_hz:.3g} is too narrow to shape "
        f"at synth_rate_hz {fs:.3g} with at most {_MAX_SHAPING_TAPS} filter taps; "
        "raise cavity_bandwidth_hz or lower synth_rate_hz")


def _shaping_error(taps: np.ndarray, density: np.ndarray) -> float:
    # the largest error of |H|^2 of ``taps`` against ``density``, sampled at
    # density.size frequencies from 0 to half the rate, relative to the
    # density or, below the shot level, to the shot level
    response = np.abs(np.fft.rfft(taps, n=2 * (density.size - 1))) ** 2
    error = np.abs(response - density) / np.maximum(density, SHOT_DIFFERENCE_VARIANCE)
    return float(error.max())


# the last shaping design (_designed): its (covariance, chain) key and taps
_last_design: tuple = (None, None)


def _designed(cov: FourChannelCovariance, cfg: SignalChainConfig) -> np.ndarray:
    """_shaping_filters(cov, cfg), read-only, designed once for consecutive
    calls with the same covariance matrix and chain: an acquisition's
    memory check designs the filters to charge their tap count
    (_bank_samples), and its stream takes that design. A failed design is
    not kept."""
    global _last_design
    key = (cov.matrix.tobytes(), cfg)
    last, taps = _last_design
    if last != key:
        taps = _shaping_filters(cov, cfg)
        taps.flags.writeable = False
        _last_design = key, taps
    return taps


def _draws(seed: int, modes: range, count: int) -> Iterator[np.ndarray]:
    """The first count unit white draws of each mode of ``modes``, as
    consecutive (len(modes), b) float32 blocks of at most _BLOCK draws,
    each a fresh array. Mode k draws from its own Philox substream,
    ``Philox(seed).jumped(k)``, so the pairs use disjoint substreams, which
    keeps the cross-pair spectra identically zero, and no mode depends on
    which others are drawn with it."""
    streams = [np.random.Generator(np.random.Philox(seed).jumped(k)) for k in modes]
    for start in range(0, count, _BLOCK):
        block = np.empty((len(modes), min(_BLOCK, count - start)), dtype=np.float32)
        for row, gen in zip(block, streams):
            gen.standard_normal(dtype=np.float32, out=row)
        yield block
        del block


def post_mixer_sos(cfg: SignalChainConfig) -> np.ndarray:
    """The baseband low-pass filter sections, at the rate they are applied.

    Elliptic, order 8, 0.05 dB passband ripple, 50 dB stopband: steep enough
    to hit the stopband contract within a 1.25x transition band while
    keeping the passband flat. Designed as scipy's ellip(..., output="sos")
    designs it: the normalized analog prototype (_ELLIP_*) scaled to the
    prewarped cutoff and mapped by the bilinear transform at fs = 2, then
    one section per conjugate pole pair, the pole nearest the unit circle
    last, each with the zero pair nearest its pole, and the gain in
    section 0.
    """
    q1, _ = decimation_plan(cfg)
    warped = 4.0 * math.tan(math.pi * cfg.post_mixer_cutoff_hz * q1 / cfg.synth_rate_hz)

    def bilinear(s: complex) -> complex:
        return (4.0 + warped * s) / (4.0 - warped * s)

    def pairs_gain(roots: tuple) -> float:
        # the bilinear transform's gain factor of the roots and their conjugates
        return math.prod(abs(4.0 - warped * s) ** 2 for s in roots)

    zeros = [bilinear(s) for s in _ELLIP_ZEROS]
    gain = _ELLIP_GAIN * pairs_gain(_ELLIP_ZEROS) / pairs_gain(_ELLIP_POLES)
    sections = []
    for pole in sorted((bilinear(s) for s in _ELLIP_POLES), key=lambda p: abs(1.0 - abs(p))):
        zero = min(zeros, key=lambda z: abs(z - pole))
        zeros.remove(zero)
        sections.append([1.0, -2.0 * zero.real, zero.real * zero.real + zero.imag * zero.imag,
                         1.0, -2.0 * pole.real, pole.real * pole.real + pole.imag * pole.imag])
    sos = np.array(sections[::-1])
    sos[0, :3] *= gain
    return sos


def _polyphase_fir(q1: int) -> np.ndarray:
    # resample_poly's own default design for down=q1, scipy's firwin with a
    # Kaiser window (beta 5) at cutoff 1/q1: the windowed sinc scaled to unit
    # dc gain, spelled out so the calibration sees exactly the taps the
    # chain applies; for q1 = 1, the one tap 1
    half = _fir_half(q1)
    cutoff = 1.0 / q1
    fir = cutoff * np.sinc(cutoff * (np.arange(2 * half + 1.0) - half))
    fir *= np.kaiser(2 * half + 1, 5.0)
    fir /= fir.sum()
    return fir.astype(np.float32)


def _lowpass_response(cfg: SignalChainConfig) -> np.ndarray:
    """The low-pass's impulse response at the mid rate, cut at lead*q2
    samples, where the chain discards its warm-up: the sections' response
    evaluated on an FFT grid and transformed back. Past the cut it is below
    1e-36 of its peak at the default plan (largest pole radius 0.984).

    The sections' spectra are products of their coefficients' FFTs, and the
    complex quotients and products are spelled out in real multiplies and
    adds, which are rounded the same way whatever SIMD loops numpy picks.
    """
    _, q2 = decimation_plan(cfg)
    taps = _lead(cfg) * q2
    grid = 1 << (taps - 1).bit_length()
    sos = post_mixer_sos(cfg)
    b, a = np.fft.rfft(sos[:, :3], n=grid), np.fft.rfft(sos[:, 3:], n=grid)
    norm = a.real * a.real + a.imag * a.imag
    re = (b.real * a.real + b.imag * a.imag) / norm
    im = (b.imag * a.real - b.real * a.imag) / norm
    h_re, h_im = re[0], im[0]
    for s in range(1, sos.shape[0]):
        h_re, h_im = h_re * re[s] - h_im * im[s], h_re * im[s] + h_im * re[s]
    h = np.empty(grid // 2 + 1, dtype=np.complex128)
    h.real, h.imag = h_re, h_im
    return np.fft.irfft(h, n=grid)[:taps]


class _Demodulator(NamedTuple):
    """The demodulator's designs for one signal chain (_demodulator)."""

    response: np.ndarray
    phases: np.ndarray
    fir: np.ndarray
    half: int
    scale: float


def _demodulator(cfg: SignalChainConfig) -> _Demodulator:
    """The low-pass response x (_lowpass_response) and the spectra of its
    phases, the polyphase FIR with the mixer folded in and its half-length,
    and the calibration factor 1/sqrt(_calibration_variance) of that
    response.

    The folded FIR is the complex taps fir[k] * exp(i*omega*k*dt), k = 0 ..
    2*half, of the float32 FIR (_polyphase_fir; one tap 1 for a
    single-stage plan).

    The phases are what a low-pass block of n = q2*m mid-rate samples, m =
    _lowpass_block(cfg), applies (_demod_stream): phase j holds the taps
    x[s*q2 - j], zero outside the response, for s = 0 .. m - 1, and the
    phases' real FFTs of length m are held as their real parts, then their
    imaginary parts, shape (2, m // 2 + 1, q2).
    """
    q1, q2 = decimation_plan(cfg)
    lead = _lead(cfg)
    fir = _polyphase_fir(q1)
    # upfirdn convolves: input a + k of a window meets fir[2*half - k]
    fir = fir[::-1] * np.exp(2j * math.pi * cfg.lo_frequency_hz / cfg.synth_rate_hz
                             * np.arange(fir.size))
    response = _lowpass_response(cfg)
    taps = np.zeros((_lowpass_block(cfg), q2))
    # x[s*q2] for phase 0, x[s*q2 - j] = x[(s - 1)*q2 + q2 - j] from s = 1 on
    taps[:lead, 0] = response[::q2]
    for j in range(1, q2):
        taps[1:lead + 1, j] = response[q2 - j::q2]
    spectra = np.fft.rfft(taps, axis=0)
    del taps
    phases = np.stack((spectra.real, spectra.imag))
    return _Demodulator(response, phases, fir, _fir_half(q1),
                        1.0 / math.sqrt(_calibration_variance(response, q1)))


def _lowpass_block(cfg: SignalChainConfig) -> int:
    """Output points per low-pass block, the lead's included: the power of
    two of at least 4*lead, so that a block of q2 times as many mid-rate
    samples is at least 4 times the response (_demod_stream)."""
    return 1 << (4 * _lead(cfg) - 1).bit_length()


def _segments(q1: int, taps: int) -> tuple[int, int]:
    """The overlap-save segments of a filter bank whose mid-rate samples
    each read ``taps`` inputs: their length N, q1 times the least power of
    two at which N is at least _SEGMENT_OVERLAPS times taps - 1 and at least
    _MIN_SEGMENT, and their step, the most whole multiples of q1 that leave
    taps - 1 inputs of overlap."""
    least = max(_SEGMENT_OVERLAPS * (taps - 1), _MIN_SEGMENT)
    n = q1 << (-(-least // q1) - 1).bit_length()
    return n, ((n - taps) // q1 + 1) * q1


def _bank_samples(cov: FourChannelCovariance, cfg: SignalChainConfig) -> tuple[int, int]:
    """The tap count M of the shaping filters of ``cov`` (_designed),
    and the segment samples that each pair pipeline's filter bank holds at
    once (_demod_stream): N for the bank's spectra and the batch's inputs'
    overlap, N for each segment of a batch, for its inputs, spectrum and
    planes, and two for each mid-rate sample a batch makes, for its inverse
    transform and LO rotation. (0, 0) if the design fails, which the stream
    raises before it holds anything."""
    try:
        taps = _designed(cov, cfg).shape[1]
    except ModelError:
        return 0, 0
    q1, _ = decimation_plan(cfg)
    n, step = _segments(q1, taps + 2 * _fir_half(q1))
    count = max(1, _BATCH // step)
    return taps, n * (1 + count) + 2 * count * step // q1


class _Bank(NamedTuple):
    """One pipeline's frequency-domain filter bank (_filter_bank)."""

    spectra: np.ndarray
    size: int
    step: int
    reach: int


def _filter_bank(cfg: SignalChainConfig, demod: _Demodulator, taps: np.ndarray) -> _Bank:
    """The filter bank that takes inputs filtered by ``taps``, (c, M) real
    FIR taps, one row an input, to complex mid-rate samples (_demod_stream).

    Mid-rate sample j of input k reads its inputs w[j*q1 - half + r], r =
    0 .. L - 1, L = M + 2*half, through the taps c_k = conv(fir, taps[k]
    reversed) of the folded FIR (demod.fir) after the input's filter. On a
    segment of N inputs (_segments(q1, L)), the circular sum
    y[t] = sum_r c_k[r] seg[t + r] has the spectrum A_k[b] * S[b] at bin
    b, with A_k[b] = sum_r c_k[r] exp(2i*pi*b*r/N); c_k is at most N long,
    so A_k is the product of the two filters' such sums, scaled by
    1/(2*q1): the 1/2 of s and i in their modes and the 1/q1 of the fold by
    q1. Held as float32 weights of a spectrum's real and imaginary parts,
    first for the product's real part, (Re A, -Im A), then for its
    imaginary part, (Im A, Re A), each as q1 blocks of N/q1 bins: shape
    (2, 2, c, q1, N/q1). A single-stage plan's spectra are Hermitian, and
    it holds bins 0 .. N/2: shape (2, 2, c, 1, N/2 + 1).
    """
    q1, _ = decimation_plan(cfg)
    reach = taps.shape[1] + 2 * demod.half
    n, step = _segments(q1, reach)
    # all N bins, or the N/2 + 1 of Hermitian spectra
    kept = n if q1 > 1 else n // 2 + 1
    a = np.fft.ifft(taps[:, ::-1], n=n)[:, :kept]
    a *= np.fft.ifft(demod.fir, n=n)[:kept] * (0.5 * n * n / q1)
    weights = np.array(((a.real, -a.imag), (a.imag, a.real)), dtype=np.float32)
    return _Bank(weights.reshape(2, 2, taps.shape[0], q1, kept // q1), n, step, reach)


@functools.cache
def _pocketfft():
    """scipy's compiled pocketfft kernel, scipy/fft/_pocketfft/pypocketfft,
    loaded from its file once per process without importing scipy: the
    filter banks take three of its transforms (_demod_stream), for which
    importing scipy.fft would load about 300 more modules, 0.2-0.3 s and
    18 MiB of peak RSS (loading the kernel: 1 ms and 0.5 MiB). The chain calls the kernel as scipy.fft calls it, so its
    transforms are scipy.fft's bit for bit. Raises ImportError, naming
    where it looked and scipy's version, if that scipy has no such kernel.
    """
    spec = importlib.util.find_spec("scipy")  # locates scipy, imports nothing
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("the chain engine needs scipy, which is not installed")
    stem = os.path.join(spec.submodule_search_locations[0], "fft", "_pocketfft", "pypocketfft")
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    for suffix in suffixes:
        if os.path.isfile(stem + suffix):
            loader = importlib.machinery.ExtensionFileLoader("pypocketfft", stem + suffix)
            kernel = importlib.util.module_from_spec(
                importlib.util.spec_from_loader("pypocketfft", loader))
            loader.exec_module(kernel)
            return kernel
    from importlib import metadata
    try:
        version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        version = "of unknown version"
    raise ImportError(f"scipy {version} has no pocketfft kernel: looked for {stem} with "
                      f"the suffixes {', '.join(suffixes)}")


def _demod_stream(blocks: Iterable[np.ndarray], bank: _Bank, cfg: SignalChainConfig,
                  points: int, demod: _Demodulator) -> Iterator[np.ndarray]:
    """The chain's calibrated output for inputs given as consecutive (c, b)
    float32 blocks, in pairs of a difference mode d and a sum mode u, each
    filtered by its row of ``bank`` (_filter_bank): (c, k) float64 chunks
    of the channels (s, i) = ((u + d)/2, (u - d)/2) of each pair, in
    record order, each a fresh array of 1 to _CHUNK consecutive output
    points. ``demod`` is the chain's _demodulator(cfg). The chain passes
    white draws and a bank of its shaping filters; a wideband record of
    (s, i) enters as (s - i, s + i) through a bank of one-tap filters.

    Mixing by sqrt(2)*cos(omega*t) and then the polyphase FIR decimation by
    q1, with resample_poly's taps and zero-phase alignment, is one modulated
    polyphase filter (Crochiere & Rabiner 1983). Mid-rate sample j reads the
    wideband samples a = j*q1 - half .. a + 2*half, zero before sample 0,
    and since cos(omega*(a + k)*dt) = Re(exp(i*omega*a*dt) *
    exp(i*omega*k*dt)), the LO folds into the complex taps of demod.fir,
    exactly for any LO frequency. With the inputs' filters folded in too,
    mid-rate sample j of an input reads its inputs a .. a + L - 1, zero
    before input 0, so no wideband sample is formed: the inputs are cut
    into overlap-save segments of N samples (Oppenheim & Schafer), segment
    g from input g*step - half on, each segment's last N - step inputs the
    first of the next, and a batch of _BATCH // step segments (at least
    one) takes one real FFT per input and segment. Each spectrum is
    multiplied by its input's A over all N bins, those past N/2 from the
    conjugate of the bins below; only every q1-th sample of the circular
    sum is kept, so its N bins fold by q1 into N/q1 (the sum of q1 blocks
    of N/q1 bins), and the pairs' folded bins make s and i, whose inverse
    FFT of N/q1 bins holds the segment's mid-rate samples g*step/q1 ..
    (g + 1)*step/q1 - 1 first. A single-stage plan's spectra are
    Hermitian, so it keeps N/2 + 1 bins and takes a real inverse FFT. These
    transforms are scipy's pocketfft kernel's (_pocketfft), called as
    scipy.fft's rfft, ifft(overwrite_x=True) and irfft call it. The
    products and the fold are spelled out in real multiplies and adds, one
    einsum over the spectra's real and imaginary parts and the q1 blocks
    for each part of the folded bins, rounded the same whatever SIMD loops
    numpy picks. Each mid-rate sample is then rotated by its LO phase
    omega*a*dt.

    The low-pass is its response x of T = lead*q2 taps (demod.response),
    applied by overlap-save in blocks of n = q2*m mid-rate samples, m =
    _lowpass_block(cfg): block b holds the samples from b*(m - lead)*q2 on,
    the last T of one block being the first of the next, and makes the
    output points b*(m - lead) .. (b + 1)*(m - lead) - 1. Only every q2-th
    low-pass sample is kept, so the decimation folds into the transform:
    output point p = k - lead + b*(m - lead) is the sum over the q2 phases
    j of the circular convolution of length m of the block's samples
    j, j + q2, .. with the taps x[s*q2 - j], which never wraps for k >=
    lead. So each block takes q2 real FFTs of length m, one product with
    the phases' spectra, summed over the phases in an einsum, and one
    inverse FFT of length m, whatever q2 is. The products are spelled out in
    real multiplies and adds, rounded the same whatever SIMD loops numpy
    picks. Then comes the calibration (one multiply by demod.scale).

    The segments and the blocks sit at fixed record positions with fixed
    shapes, filled into reused buffers, so every output sample is computed
    the same way whatever the input blocks or the batch, and each channel
    the same way whatever channels come with it. The last block, which
    holds the last output point's sample (lead + points - 1)*q2, is
    filtered once it holds that sample, with zeros past it: which samples
    a batch computes past it, from the inputs or their padding, reaches no
    output bit.

    The inputs must hold needed = (lead + points - 1)*q2*q1 - half + L
    samples (for one-tap filters required_synth_samples); fewer raise
    RecordLengthError, naming the shortfall, when the inputs end. Only the
    needed inputs are read, and batches are padded with zeros past them,
    so no output bit depends on what follows them.
    """
    # the kernel's calls take (array, axes, forward, normalization: 0 none
    # and 2 by 1/n, out, threads), as scipy.fft passes them
    fft = _pocketfft()
    q1, q2 = decimation_plan(cfg)
    lead = _lead(cfg)
    spectra, size, step, reach = bank
    channels = spectra.shape[2]
    lo_step = 2.0 * math.pi * cfg.lo_frequency_hz / cfg.synth_rate_hz
    # mid-rate samples up to this one reach an output
    last = (lead + points - 1) * q2
    needed = last * q1 - demod.half + reach

    # the batch's inputs: the last N - step of the one before, then its
    # segments' steps, the first at input -half, which is zero
    count = max(1, _BATCH // step)
    keep = size - step
    width = keep + count * step
    inputs = np.zeros((channels, width), dtype=np.float32)
    segments = sliding_window_view(inputs, size, axis=1)[:, ::step]
    # the segments' spectra at the bank's bins, real parts then imaginary,
    # as q1 blocks of N/q1 bins (one block of N/2 + 1 if single-stage)
    bins = size // 2 + 1
    planes = np.empty((2, channels, count) + spectra.shape[3:], dtype=np.float32)
    flat_re, flat_im = planes.reshape(2, channels, count, -1)
    # the products' real and imaginary parts summed over the blocks, and
    # each pair's s and i of them
    folded = np.empty((2, channels, count, spectra.shape[4]), dtype=np.float32)
    folds = np.empty(folded.shape[1:], dtype=np.complex64)

    # the low-pass blocks: m points of n mid-rate samples
    m = _lowpass_block(cfg)
    n, span, overlap = q2 * m, m - lead, lead * q2
    taps_re, taps_im = demod.phases
    # the low-pass block, its first mid-rate sample and how many it holds,
    # and its transforms' buffers, reused from block to block
    held = np.empty((channels, n))
    origin, have = 0, 0
    spectrum = np.empty((m // 2 + 1, q2), dtype=np.complex128)
    product = np.empty((channels, m // 2 + 1), dtype=np.complex128)
    part = np.empty(m // 2 + 1)
    low = np.empty((channels, m))
    filled, written, first = demod.half, 0, 0

    def padded():
        # the needed inputs, then batches of zeros: an input past them would
        # reach the outputs' rounding through the segments' transforms
        received = 0
        for block in blocks:
            yield block[:, :needed - received]
            received += block.shape[1]
            if received >= needed:
                break
        else:
            raise RecordLengthError(f"record ended {needed - received} wideband samples short")
        while True:
            yield np.broadcast_to(np.float32(0.0), (channels, width))

    for block in padded():
        while block.shape[1]:
            take = min(width - filled, block.shape[1])
            inputs[:, filled:filled + take] = block[:, :take]
            block = block[:, take:]
            filled += take
            if filled < width:
                break
            s = fft.r2c(segments, (2,), True, 0, None, 1)
            inputs[:, :keep] = inputs[:, width - keep:]
            filled = keep
            flat_re[..., :bins], flat_im[..., :bins] = s.real, s.imag
            if q1 > 1:
                # bin N - b is the conjugate of bin b: bins N/2 - 1 .. 1
                flat_re[..., bins:] = s.real[..., bins - 2:0:-1]
                np.negative(s.imag[..., bins - 2:0:-1], out=flat_im[..., bins:])
            del s
            for weights, sums, out in zip(spectra, folded, (folds.real, folds.imag)):
                np.einsum("xcslk,xclk->csk", planes, weights, out=sums)
                # s = u + d and i = u - d of each pair, the 1/2 in the spectra
                np.add(sums[1::2], sums[0::2], out=out[0::2])
                np.subtract(sums[1::2], sums[0::2], out=out[1::2])
            z = (fft.c2c(folds, (2,), False, 2, folds, 1) if q1 > 1
                 else fft.c2r(folds, (2,), size, False, 2, None, 1))[..., :step // q1]
            z = z.reshape(channels, -1)
            phase = lo_step * (np.arange(first, first + z.shape[1]) * q1 - demod.half)
            first += z.shape[1]
            mid = math.sqrt(2.0) * (np.cos(phase) * z.real - np.sin(phase) * z.imag)
            while mid.shape[1]:
                take = min(n - have, mid.shape[1])
                held[:, have:have + take] = mid[:, :take]
                mid = mid[:, take:]
                have += take
                stop = last + 1 - origin
                if have < min(n, stop):
                    continue
                if stop < n:
                    held[:, stop:] = 0.0
                for channel in range(channels):
                    np.fft.rfft(held[channel].reshape(m, q2), axis=0, out=spectrum)
                    re, im, out = spectrum.real, spectrum.imag, product[channel]
                    np.einsum("fj,fj->f", re, taps_re, out=out.real)
                    out.real -= np.einsum("fj,fj->f", im, taps_im, out=part)
                    np.einsum("fj,fj->f", re, taps_im, out=out.imag)
                    out.imag += np.einsum("fj,fj->f", im, taps_re, out=part)
                np.fft.irfft(product, n=m, axis=1, out=low)
                new = low[:, lead:lead + points - written]
                for start in range(0, new.shape[1], _CHUNK):
                    yield new[:, start:start + _CHUNK] * demod.scale
                written += new.shape[1]
                if written == points:
                    return
                held[:, :overlap] = held[:, n - overlap:]
                origin += span * q2
                have = overlap


def _calibration_variance(x: np.ndarray, q1: int) -> float:
    # noise gain of the chain for a unit white (shot-noise) input: the
    # sqrt(2)*cos mixer keeps it white with unit variance and decimation by
    # q2 keeps the variance, so the output variance is the squared norm of
    # the polyphase FIR h followed by the low-pass response x upsampled by
    # q1, upfirdn(h, x, up=q1). That is the sum of c_l * R_x[l] * R_h[l*q1]
    # over the lags l*q1 < len(h), with R the autocorrelations, c_0 = 1 and
    # c_l = 2 (x[k] meets x[k + l] through R_h[l*q1]), so no response of
    # length lead*q2*q1 is formed. x is the low-pass response the chain
    # applies, cut where it discards its warm-up (_lowpass_response).
    h = _polyphase_fir(q1).astype(np.float64)
    return float(sum((2.0 if lag else 1.0) * np.einsum("i,i->", x[:x.size - lag], x[lag:])
                     * np.einsum("i,i->", h[:h.size - lag * q1], h[lag * q1:])
                     for lag in range(-(-h.size // q1))))


def _pair_stream(taps: np.ndarray, demod: _Demodulator, cfg: SignalChainConfig,
                 points: int, seed: int, pair: int) -> Iterator[np.ndarray]:
    """Pair ``pair``'s pipeline: the draws of its modes 2*pair - 2 and
    2*pair - 1 (_draws), the difference d and the sum u, through a filter
    bank of their shaping filters (_filter_bank) and demodulated with its
    own buffers and filter state (_demod_stream), as (2, m) chunks of its
    (s, i) = ((u + d)/2, (u - d)/2). The bank is made when this is called."""
    modes = range(2 * pair - 2, 2 * pair)
    draws = _draws(seed, modes, required_synth_samples(cfg, points) + taps.shape[1] - 1)
    return _demod_stream(draws, _filter_bank(cfg, demod, taps[modes]), cfg, points, demod)


def stream(cov: FourChannelCovariance, cfg: SignalChainConfig, points: int,
           seed: int) -> Iterator[np.ndarray]:
    """Draw and demodulate a record of points output points, batch by batch.

    Yields the calibrated output as (4, m) float64 chunks (s1, i1, s2, i2)
    in record order, at most _CHUNK points each (_demod_stream). No array
    of wideband or record length exists: memory is a block of _BLOCK draws
    per pipeline, its filter bank's segments and its low-pass buffers,
    whatever points is. The output is calibrated so that a shot-noise input
    comes out at unit variance.

    The two beam pairs are independent until the idlers are selected, so
    each has its own pipeline (_pair_stream): the calling thread advances
    pair 1's while one helper thread advances pair 2's, at most _PAIR_AHEAD
    chunks ahead, and each pair of chunks is stacked. Both pipelines share
    one design: the shaping filters, whose tap count holds all four modes
    to _SHAPING_TOL (_designed: the memory check's design, if it made
    one), and the demodulator's; their filter banks are made
    from it one after the other, before either pipeline starts. Neither
    pipeline reads the other's data, so the output is what running them
    one after the other gives. An error of either pipeline reaches the
    caller, pair 1's first, and closing the stream, or its end, joins the
    helper thread.
    """
    points = _require_int("points", points, 1)
    seed = _require_int("seed", seed, 0)
    return _paired(cov, cfg, points, seed)


def _paired(cov: FourChannelCovariance, cfg: SignalChainConfig, points: int,
            seed: int) -> Iterator[np.ndarray]:
    # stream's generator: pair 2's chunks, or the exception that ended its
    # pipeline, come through a queue the calling thread drains on its way
    # out. The FFT kernel is loaded here, before the helper thread starts,
    # so one thread loads it and a missing kernel fails the stream at once
    _pocketfft()
    taps = _designed(cov, cfg)
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
