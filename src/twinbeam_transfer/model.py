"""Semiclassical Gaussian noise model of two independent twin-beam pairs.

Units: every detected beam carries a shot-noise variance of 1, so the
shot-noise limit (SNL) of a two-beam difference photocurrent is 2 and the
coherent-state difference standard deviation is ``COHERENT_DELTA = sqrt(2)``.
A pair is described by the variance of its intensity-sum mode (``V+``,
super-Poissonian excess for beams from a pumped source) and of its
intensity-difference mode (``V-``, below 2 when the pair is quantum
correlated). The two pairs are independent by construction, which makes the
four-channel covariance block diagonal.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
# numpy loads its random module lazily; every run draws from it
import numpy.random

from .errors import ModelError, ValidationError

#: Channel order used everywhere: signal/idler of pair 1, then of pair 2.
CHANNELS = ("s1", "i1", "s2", "i2")

#: Shot-noise limit of a two-beam difference photocurrent.
SHOT_DIFFERENCE_VARIANCE = 2.0

#: Standard deviation of the difference photocurrent of two coherent beams.
COHERENT_DELTA = math.sqrt(2.0)

# Fixed chunk length for counter-based sampling substreams. Changing this
# changes the sample stream, so it is a constant, not a parameter.
_SAMPLE_CHUNK = 1 << 16


class MeasurementSetting(Enum):
    """What the detection bench is looking at.

    ``TWIN_BEAMS_0DEG`` passes the twin beams straight to the splitters and
    records their quantum correlation. ``TWIN_BEAMS_45DEG`` rotates the
    polarization by 45 degrees, which scrambles signal against idler and
    yields the shot-noise level in the difference. ``COHERENT_STATE`` replaces
    the inputs with coherent light of the same power, reconfirming the
    shot-noise level on every channel.
    """

    TWIN_BEAMS_0DEG = "twin_beams_0deg"
    TWIN_BEAMS_45DEG = "twin_beams_45deg"
    COHERENT_STATE = "coherent_state"


def _require_range(name: str, value: float, low: float, high: float,
                   low_open: bool = False) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if low_open:
        if not (low < value <= high):
            raise ValidationError(f"{name} must be in ({low}, {high}], got {value}")
    elif not (low <= value <= high):
        raise ValidationError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def _require_int(name: str, value, minimum: int) -> int:
    # rejects, rather than truncates, a non-integral value such as 2.9, and
    # a boolean, which would pass as 0 or 1
    if isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if int(value) != value or int(value) < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value}")
    return int(value)


@dataclass(frozen=True)
class TwinPairParams:
    """Noise parameters of one twin-beam pair.

    squeezing_db
        Intensity-difference noise reduction below the SNL, in dB (>= 0).
    excess_sum_db
        Intensity-sum noise above the SNL, in dB. Sources pumped above
        threshold are far noisier than shot noise on each beam, so the
        default is a large 20 dB.
    efficiency
        Overall detection efficiency, modeled as a beam splitter admixing
        vacuum into both beams.
    rotation_deg
        Half-wave-plate angle before the polarizing splitter; 0 keeps the
        pair correlation, 45 degrees swaps it out entirely.
    """

    squeezing_db: float
    excess_sum_db: float = 20.0
    efficiency: float = 1.0
    rotation_deg: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "squeezing_db",
                           _require_range("squeezing_db", self.squeezing_db, 0.0, 20.0))
        object.__setattr__(self, "excess_sum_db",
                           _require_range("excess_sum_db", self.excess_sum_db, 0.0, 60.0))
        object.__setattr__(self, "efficiency",
                           _require_range("efficiency", self.efficiency, 0.0, 1.0, low_open=True))
        object.__setattr__(self, "rotation_deg",
                           _require_range("rotation_deg", self.rotation_deg, 0.0, 45.0))


def effective_variances(params: TwinPairParams,
                        setting: MeasurementSetting = MeasurementSetting.TWIN_BEAMS_0DEG,
                        ) -> tuple[float, float]:
    """Effective (V-, V+) of one pair after rotation and loss.

    Applied in this order: base values from the dB parameters, then the
    half-wave-plate rotation (which drags V- toward the SNL but leaves V+
    alone), then detection loss (vacuum admixture pulls both toward the SNL).
    ``COHERENT_STATE`` short-circuits to exactly (2, 2).
    """
    if setting is MeasurementSetting.COHERENT_STATE:
        return SHOT_DIFFERENCE_VARIANCE, SHOT_DIFFERENCE_VARIANCE

    v_minus = SHOT_DIFFERENCE_VARIANCE * 10.0 ** (-params.squeezing_db / 10.0)
    v_plus = SHOT_DIFFERENCE_VARIANCE * 10.0 ** (+params.excess_sum_db / 10.0)

    theta = 45.0 if setting is MeasurementSetting.TWIN_BEAMS_45DEG else params.rotation_deg
    c2 = math.cos(math.radians(2.0 * theta)) ** 2
    v_minus = c2 * v_minus + (1.0 - c2) * SHOT_DIFFERENCE_VARIANCE

    eta = params.efficiency
    v_minus = eta * v_minus + (1.0 - eta) * SHOT_DIFFERENCE_VARIANCE
    v_plus = eta * v_plus + (1.0 - eta) * SHOT_DIFFERENCE_VARIANCE
    return v_minus, v_plus


@dataclass(frozen=True)
class FourChannelCovariance:
    """Second moments of the four photocurrent channels (s1, i1, s2, i2).

    The matrix must be symmetric positive semi-definite, and the blocks
    coupling pair 1 to pair 2 must be exactly zero: pair independence is an
    axiom of the model, not a numerical accident.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValidationError(f"covariance matrix must be 4x4, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValidationError("covariance matrix contains non-finite entries")
        scale = max(float(np.abs(m).max()), 1.0)
        if float(np.abs(m - m.T).max()) > 1e-12 * scale:
            raise ValidationError("covariance matrix must be symmetric")
        m = 0.5 * (m + m.T)
        if np.any(m[:2, 2:] != 0.0):
            raise ValidationError("cross-pair covariance entries must be exactly zero")
        if float(np.linalg.eigvalsh(m).min()) < -1e-9 * scale:
            raise ModelError("covariance matrix is not positive semi-definite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def _pair_slice(self, pair_index: int) -> slice:
        if pair_index not in (1, 2):
            raise ValidationError(f"pair_index must be 1 or 2, got {pair_index}")
        return slice(0, 2) if pair_index == 1 else slice(2, 4)

    def difference_variance(self, pair_index: int) -> float:
        """Var(signal - idler) of one pair."""
        b = self.matrix[self._pair_slice(pair_index), self._pair_slice(pair_index)]
        return float(b[0, 0] + b[1, 1] - 2.0 * b[0, 1])

    def sum_variance(self, pair_index: int) -> float:
        """Var(signal + idler) of one pair."""
        b = self.matrix[self._pair_slice(pair_index), self._pair_slice(pair_index)]
        return float(b[0, 0] + b[1, 1] + 2.0 * b[0, 1])


def build_covariance(pair1: TwinPairParams, pair2: TwinPairParams,
                     setting: MeasurementSetting = MeasurementSetting.TWIN_BEAMS_0DEG,
                     ) -> FourChannelCovariance:
    """Four-channel covariance for two independent pairs under a measurement setting.

    Within a pair the sum and difference modes are uncorrelated with
    variances (V+, V-), which fixes the 2x2 block to
    Var(s) = Var(i) = (V+ + V-)/4 and Cov(s, i) = (V+ - V-)/4.
    """
    m = np.zeros((4, 4))
    for k, params in ((1, pair1), (2, pair2)):
        v_minus, v_plus = effective_variances(params, setting)
        var = 0.25 * (v_plus + v_minus)
        cov = 0.25 * (v_plus - v_minus)
        s = slice(0, 2) if k == 1 else slice(2, 4)
        m[s, s] = [[var, cov], [cov, var]]
    return FourChannelCovariance(m)


def squeezing_db_of(cov: FourChannelCovariance, pair_index: int) -> float:
    """Intra-pair difference squeezing in dB below the SNL (positive = squeezed)."""
    return -10.0 * math.log10(cov.difference_variance(pair_index) / SHOT_DIFFERENCE_VARIANCE)


@dataclass(frozen=True)
class SampleBatch:
    """Columnar batch of demodulated photocurrent fluctuation samples.

    ``data`` has one row per event and one column per channel in the order
    of :data:`CHANNELS`, in shot-noise units. Immutable once constructed.
    """

    data: np.ndarray
    seed: int

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 2 or d.shape[1] != len(CHANNELS):
            raise ValidationError(f"sample data must have shape (n, 4), got {d.shape}")
        if d.shape[0] < 1:
            raise ValidationError("sample batch must contain at least one row")
        if not np.isfinite(d).all():
            raise ValidationError("sample data contains non-finite values")
        d.setflags(write=False)
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def s1(self) -> np.ndarray:
        return self.data[:, 0]

    @property
    def i1(self) -> np.ndarray:
        return self.data[:, 1]

    @property
    def s2(self) -> np.ndarray:
        return self.data[:, 2]

    @property
    def i2(self) -> np.ndarray:
        return self.data[:, 3]


def _covariance_factor(cov: FourChannelCovariance) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov.matrix)
    except np.linalg.LinAlgError:
        # semi-definite edge: eigenfactor with tiny negatives clipped
        w, v = np.linalg.eigh(cov.matrix)
        return v * np.sqrt(np.clip(w, 0.0, None))


def _sample_chunk(factor: np.ndarray, seed: int, index: int, length: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(seed).jumped(index))
    z = gen.standard_normal((length, 4))
    return z @ factor.T


def sample_batch(cov: FourChannelCovariance, n: int, seed: int,
                 workers: int = 1) -> SampleBatch:
    """Draw ``n`` independent events from the zero-mean Gaussian model.

    The stream is split into fixed-size chunks, each drawn from its own
    counter-based substream of the seed, so the result is a pure function of
    ``(cov, n, seed)`` no matter how many workers compute the chunks.
    """
    n = _require_int("sample count", n, 1)
    seed = _require_int("seed", seed, 0)
    factor = _covariance_factor(cov)

    out = np.empty((n, 4))
    spans = [(i, slice(start, min(start + _SAMPLE_CHUNK, n)))
             for i, start in enumerate(range(0, n, _SAMPLE_CHUNK))]
    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for (i, s), block in zip(
                    spans, pool.map(lambda t: _sample_chunk(factor, seed, t[0],
                                                            t[1].stop - t[1].start), spans)):
                out[s] = block
    else:
        for i, s in spans:
            out[s] = _sample_chunk(factor, seed, i, s.stop - s.start)
    return SampleBatch(data=out, seed=seed)
