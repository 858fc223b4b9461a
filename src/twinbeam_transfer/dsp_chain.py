"""Broadband synthesis and lock-in demodulation of the photocurrent channels.

Spectral model: each channel is white unit-density shot noise plus a
Lorentzian-shaped correlated component of half-width ``cavity_bandwidth_hz``.
The configured pair variances are defined AT the analysis frequency
``lo_frequency_hz``, so the zero-frequency depths are back-computed from the
Lorentzian value there. Demodulation multiplies by sqrt(2)*cos(2*pi*lo*t +
phase), low-pass filters, decimates to ``output_rate_hz``, discards the
filter warm-up, and divides by the square root of the chain's noise gain
(the squared norm of its impulse response, computed from the filter taps)
so that a shot-limited input yields unit sample variance.

The wideband path runs in float32: the default record is 4 x 75M samples and
float64 would double a >1 GB footprint for noise that is statistically
identical at these lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft
from scipy import signal as sp_signal

from .errors import (
    ConfigurationError,
    ModelError,
    RecordLengthError,
    ValidationError,
)
from .model import FourChannelCovariance, SampleBatch, _require_int

# lead/tail margins around the kept record, in cutoff periods: the lead
# swallows the causal filter transient, the tail the polyphase edge effects
_LEAD_CUTOFF_PERIODS = 500.0
_TAIL_CUTOFF_PERIODS = 50.0

_BLOCK = 1 << 20


@dataclass(frozen=True)
class SignalChainConfig:
    """Rates, cutoffs, and lengths of the detection/demodulation chain."""

    lo_frequency_hz: float = 3.5e6
    synth_rate_hz: float = 5.0e7
    post_mixer_cutoff_hz: float = 1.0e5
    output_rate_hz: float = 2.0e5
    record_points: int = 300_000
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
        object.__setattr__(self, "record_points",
                           _require_int("record_points", self.record_points, 1))

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


def required_synth_samples(cfg: SignalChainConfig) -> int:
    """Wideband samples needed for record_points plus warm-up, FFT-friendly."""
    q1, q2 = decimation_plan(cfg)
    m = q1 * q2
    lead, tail = _margins(cfg)
    n_out = lead + cfg.record_points + tail
    return sp_fft.next_fast_len(n_out) * m


@dataclass(frozen=True)
class WidebandRecord:
    """Four wideband photocurrent channels at the synthesis rate (float32)."""

    channels: np.ndarray
    sample_rate_hz: float
    seed: int

    def __post_init__(self):
        ch = np.asarray(self.channels)
        if ch.ndim != 2 or ch.shape[0] != 4 or ch.shape[1] < 2:
            raise ValidationError(f"channels must have shape (4, n), got {ch.shape}")
        if ch.dtype != np.float32:
            ch = ch.astype(np.float32)
        for row in ch:
            if not np.isfinite(row).all():
                raise ValidationError("channels contain non-finite values")
        ch.setflags(write=False)
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n(self) -> int:
        return self.channels.shape[1]


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


def _synth_mode(seed: int, stream_index: int, psd, n: int, rate: float) -> np.ndarray:
    """One real noise series of length n whose one-sided PSD follows psd(f).

    The PSD is in density units where a flat psd == c gives per-sample
    variance c. Complex spectral amplitudes are drawn from a counter-based
    substream, so the series is a pure function of (seed, stream_index).
    """
    gen = np.random.Generator(np.random.Philox(int(seed)).jumped(stream_index))
    k = n // 2 + 1
    g = gen.standard_normal(2 * k, dtype=np.float32)
    re, im = g[0::2], g[1::2]
    spectrum = np.empty(k, dtype=np.complex64)
    step = rate / n
    for start in range(0, k, _BLOCK):
        stop = min(start + _BLOCK, k)
        f = np.arange(start, stop, dtype=np.float64) * step
        amp = np.sqrt(n * psd(f) / 2.0)
        spectrum.real[start:stop] = amp * re[start:stop]
        spectrum.imag[start:stop] = amp * im[start:stop]
    # dc (and Nyquist for even n) are real bins carrying the full power
    spectrum[0] = math.sqrt(2.0) * float(spectrum.real[0])
    if n % 2 == 0:
        spectrum[-1] = math.sqrt(2.0) * float(spectrum.real[-1])
    del g, re, im
    return sp_fft.irfft(spectrum, n=n)


def synthesize(cov: FourChannelCovariance, cfg: SignalChainConfig,
               seed: int) -> WidebandRecord:
    """Wideband four-channel record with the configured correlation structure.

    Per pair, independent sum and difference modes are shaped in the
    frequency domain (shot floor plus Lorentzian correlated part) and
    recombined into signal and idler; the two pairs use disjoint substreams,
    which keeps the cross-pair spectra identically zero.
    """
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    n = required_synth_samples(cfg)
    rate = cfg.synth_rate_hz
    b_c = cfg.cavity_bandwidth_hz

    channels = np.empty((4, n), dtype=np.float32)
    for pair in (1, 2):
        dip, bump = _lorentzian_depths(cov, cfg, pair)

        def s_minus(f, dip=dip):
            return 2.0 * (1.0 - dip / (1.0 + (f / b_c) ** 2))

        def s_plus(f, bump=bump):
            return 2.0 + bump / (1.0 + (f / b_c) ** 2)

        base = 2 * (pair - 1)
        d = _synth_mode(seed, base, s_minus, n, rate)
        u = _synth_mode(seed, base + 1, s_plus, n, rate)
        np.add(u, d, out=channels[base])
        channels[base] *= 0.5
        np.subtract(u, d, out=channels[base + 1])
        channels[base + 1] *= 0.5
        del d, u
    return WidebandRecord(channels=channels, sample_rate_hz=rate, seed=seed)


def post_mixer_sos(cfg: SignalChainConfig) -> np.ndarray:
    """The baseband low-pass filter sections, at the rate they are applied."""
    q1, _ = decimation_plan(cfg)
    # elliptic: steep enough to hit the stopband contract within a 1.25x
    # transition band while keeping the passband flat to 0.05 dB
    return sp_signal.ellip(8, 0.05, 50.0, cfg.post_mixer_cutoff_hz, btype="low",
                           output="sos", fs=cfg.synth_rate_hz / q1)


def _polyphase_fir(q1: int) -> np.ndarray:
    # resample_poly's own default design for down=q1, spelled out so the
    # calibration sees exactly the taps the chain applies
    return sp_signal.firwin(20 * q1 + 1, 1.0 / q1,
                            window=("kaiser", 5.0)).astype(np.float32)


def _demod_channel(x: np.ndarray, cfg: SignalChainConfig,
                   q1: int, q2: int) -> np.ndarray:
    mixed = np.empty(x.size, dtype=np.float32)
    omega = 2.0 * math.pi * cfg.lo_frequency_hz
    dt = 1.0 / cfg.synth_rate_hz
    for start in range(0, x.size, _BLOCK):
        stop = min(start + _BLOCK, x.size)
        t = np.arange(start, stop, dtype=np.float64) * dt
        lo = math.sqrt(2.0) * np.cos(omega * t + cfg.mixer_phase_rad)
        mixed[start:stop] = x[start:stop] * lo.astype(np.float32)

    mid = (sp_signal.resample_poly(mixed, 1, q1, window=_polyphase_fir(q1))
           if q1 > 1 else mixed)
    filtered = sp_signal.sosfilt(post_mixer_sos(cfg), mid)
    decimated = filtered[::q2]
    lead, _ = _margins(cfg)
    kept = decimated[lead:lead + cfg.record_points]
    return np.asarray(kept, dtype=np.float64)


def _calibration_variance(cfg: SignalChainConfig) -> float:
    # noise gain of the chain for a unit white (shot-noise) input: the
    # sqrt(2)*cos mixer keeps it white with unit variance and decimation by
    # q2 keeps the variance, so the output variance is the squared norm of
    # the polyphase FIR followed by the low-pass upsampled by q1. The
    # low-pass response is cut where the chain discards its warm-up.
    q1, q2 = decimation_plan(cfg)
    lead, _ = _margins(cfg)
    response = sp_signal.sosfilt(post_mixer_sos(cfg), sp_signal.unit_impulse(lead * q2))
    if q1 > 1:
        response = sp_signal.upfirdn(_polyphase_fir(q1), response, up=q1)
    return float(np.dot(response, response))


def demodulate(rec: WidebandRecord, cfg: SignalChainConfig) -> SampleBatch:
    """Mix down at the LO, low-pass, decimate, trim, and calibrate."""
    if not math.isclose(rec.sample_rate_hz, cfg.synth_rate_hz, rel_tol=1e-12):
        raise ConfigurationError(
            f"record rate {rec.sample_rate_hz} does not match configured "
            f"synth_rate_hz {cfg.synth_rate_hz}")
    q1, q2 = decimation_plan(cfg)
    m = q1 * q2
    lead, tail = _margins(cfg)
    needed = (lead + cfg.record_points + tail) * m
    if rec.n < needed:
        raise RecordLengthError(
            f"record has {rec.n} samples but {needed} are needed for "
            f"{cfg.record_points} output points plus {lead}+{tail} margin")

    usable = (rec.n // m) * m
    scale = 1.0 / math.sqrt(_calibration_variance(cfg))
    out = np.empty((cfg.record_points, 4))
    for c in range(4):
        out[:, c] = _demod_channel(rec.channels[c, :usable], cfg, q1, q2)
    out *= scale
    return SampleBatch(data=out, seed=rec.seed)
