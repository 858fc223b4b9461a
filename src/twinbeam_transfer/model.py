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

# The layers of |z0| by binary exponent and the substreams of a chunk, its
# z0's and one per layer (see _draw_chunk); they define the sample stream.
_LAYER_LOW = -20
_LAYER_HIGH = -3
_SUBSTREAMS = 2 + _LAYER_HIGH - _LAYER_LOW


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


def _require_real(name: str, value) -> float:
    # rejects, rather than converts, a boolean, which would pass as 0.0 or
    # 1.0, and a numeric string such as "7"
    if isinstance(value, (bool, str)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)


def _require_range(name: str, value: float, low: float, high: float,
                   low_open: bool = False) -> float:
    value = _require_real(name, value)
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


@dataclass(frozen=True)
class SampleBatch:
    """Columnar batch of demodulated photocurrent fluctuation samples.

    ``data`` has one row per event and one column per channel in the order
    of :data:`CHANNELS`, in shot-noise units. Immutable once constructed.
    """

    data: np.ndarray

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


def _covariance_factor(cov: FourChannelCovariance) -> tuple[float, np.ndarray]:
    """(sigma_g, factor): the rows of ``factor`` weigh the normals (z0, z1,
    z2, z3) into the channels (s1, i1, s2, i2) so that s1 - s2 = sigma_g * z0
    (sequential conditional sampling, Glasserman 2003, section 2.3): z1, z2,
    z3 give (s2, i1, i2) given s1 - s2 through the Cholesky factor of their
    conditional covariance, or, where that is only semi-definite, its
    eigenfactor with tiny negative eigenvalues clipped.
    """
    # rows (g, s2, i1, i2) of the channels (s1, i1, s2, i2)
    gate_first = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                           [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    c = gate_first @ cov.matrix @ gate_first.T
    factor = np.zeros((4, 4))
    factor[:, 0] = c[:, 0] / math.sqrt(c[0, 0]) if c[0, 0] > 0.0 else 0.0
    conditional = c[1:, 1:] - np.outer(factor[1:, 0], factor[1:, 0])
    try:
        factor[1:, 1:] = np.linalg.cholesky(conditional)
        # given g and s2, so s1 and s2, i1 and i2 are independent (the pairs
        # are): i2's weight on z2 is 0, though roundoff leaves about 1e-14
        factor[3, 2] = 0.0
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(conditional)
        factor[1:, 1:] = v * np.sqrt(np.clip(w, 0.0, None))
    g, s2, i1, i2 = factor
    return factor[0, 0], np.array([g + s2, i1, s2, i2])


def _substream(gen: np.random.Generator, key: np.ndarray, chunk: int,
               slot: int) -> np.random.Generator:
    """``gen``, a Philox generator, reset to Philox(seed).jumped(chunk *
    _SUBSTREAMS + slot) for the seed of ``key``: each (chunk, slot) has a
    jump of its own, 2**128 counter steps, far more than it draws."""
    counter = np.array([0, 0, chunk * _SUBSTREAMS + slot, 0], dtype=np.uint64)
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": counter, "key": key},
                               "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0}
    return gen


def _chunk_scratch(seed: int) -> tuple:
    """A thread's scratch for _draw_chunk from the stream of ``seed``:
    (4, _SAMPLE_CHUNK) normals, a generator for _substream to reset (a fifth
    of the cost of a new one) and the Philox key of ``seed``."""
    gen = np.random.Generator(np.random.Philox(seed))
    return np.empty((4, _SAMPLE_CHUNK)), gen, gen.bit_generator.state["state"]["key"]


def _draw_chunk(scratch: tuple, start: int, stop: int, reach: float,
                magnitude: np.ndarray) -> np.ndarray | None:
    """Draw events ``start`` to ``stop``, in one chunk, of the stream of
    ``scratch`` (_chunk_scratch) into it; |z0| goes to ``magnitude``.

    The stream: chunk k, events [k, k + 1) * _SAMPLE_CHUNK, draws z0 in
    event order from its substream 0 (_substream). Layer e holds the events
    with 2**(e - 1) <= |z0| < 2**e, the lowest layer also every smaller
    |z0| and the top layer, _LAYER_HIGH, every larger one. A layer below
    the top draws (z1, z2, z3) for its events in event order, event-major,
    from substream 1 + e - _LAYER_LOW; event i of the top layer, most
    events, takes column i of a (3, _SAMPLE_CHUNK) draw of the last one.

    Only the layers up to that of |z0| = ``reach`` are drawn: below the top
    layer about twice the events with |z0| <= reach at most. With reach in
    the top layer (or inf), column i of the scratch normals holds event i's
    (z0, z1, z2, z3), and the result is None; otherwise it is the drawn
    events' indices, in order, and column j holds event drawn[j]'s.
    """
    normals, gen, key = scratch
    m = stop - start
    chunk = start // _SAMPLE_CHUNK
    _substream(gen, key, chunk, 0).standard_normal(out=normals[0, :m])
    near = np.abs(normals[0, :m], out=magnitude[:m])
    every = reach >= 2.0 ** (_LAYER_HIGH - 1)
    top = _LAYER_HIGH - 1 if every else max(math.frexp(reach)[1], _LAYER_LOW)
    drawn = np.flatnonzero(near < 2.0 ** top)
    if every:
        _substream(gen, key, chunk, _SUBSTREAMS - 1).standard_normal(out=normals[1:])
    else:
        normals[0, :drawn.size] = normals[0, drawn]
    # the layer is the binary exponent of |z0|, clipped at the lowest layer
    _, layer = np.frexp(np.maximum(near[drawn], 2.0 ** (_LAYER_LOW - 1)))
    slots = (layer + (1 - _LAYER_LOW)).astype(np.uint8)
    order = np.argsort(slots, kind="stable")
    rows = np.empty((drawn.size, 3))
    at = 0
    for slot, count in enumerate(np.bincount(slots, minlength=_SUBSTREAMS - 1)):
        if count:
            _substream(gen, key, chunk, slot).standard_normal(out=rows[at:at + count])
            at += count
    columns = drawn[order] if every else order
    for c in range(3):
        normals[1 + c, columns] = rows[:, c]
    return None if every else drawn


def _factor_terms(factor: np.ndarray) -> tuple[tuple[tuple[int, float], ...], ...]:
    """Per output channel, the (column, weight) pairs of the nonzero entries
    of its factor row, in column order."""
    return tuple(tuple((c, float(w)) for c, w in enumerate(row) if w != 0.0)
                 for row in factor)


def _combine(columns: np.ndarray, terms: tuple[tuple[int, float], ...],
             out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """One output channel: sum ``columns[c] * w`` over ``terms``, in order.

    The elementwise definition of the covariance factor's product, without
    BLAS: a matrix product may fuse or reorder the sums (and wakes BLAS
    threads), this does neither, so a channel has the same bits for any
    subset of events it is computed on. ``out`` receives the result,
    ``scratch`` (same length) each further product; nothing is allocated.
    """
    if not terms:
        out.fill(0.0)
        return out
    (first, weight), *rest = terms
    np.multiply(columns[first], weight, out=out)
    for c, weight in rest:
        np.multiply(columns[c], weight, out=scratch)
        np.add(out, scratch, out=out)
    return out


def sample_batch(cov: FourChannelCovariance, n: int, seed: int) -> SampleBatch:
    """Draw ``n`` independent events from the zero-mean Gaussian model.

    The stream is split into fixed-size chunks (see _draw_chunk), drawn one
    after another, every layer, into one reused scratch, so the result is a
    pure function of ``(cov, n, seed)``: the events that scenario.acquire
    streams chunk by chunk. Each channel is computed by _combine from
    _covariance_factor, so s1 - s2 is sigma_g * z0 to within a few ulps.
    """
    n = _require_int("sample count", n, 1)
    seed = _require_int("seed", seed, 0)
    terms = _factor_terms(_covariance_factor(cov)[1])
    out = np.empty((n, 4))
    draw = _chunk_scratch(seed)
    normals, scratch = draw[0], np.empty(min(n, _SAMPLE_CHUNK))
    for start in range(0, n, _SAMPLE_CHUNK):
        stop = min(start + _SAMPLE_CHUNK, n)
        m = stop - start
        _draw_chunk(draw, start, stop, math.inf, scratch)
        for r, row_terms in enumerate(terms):
            _combine(normals[:, :m], row_terms, out[start:stop, r], scratch[:m])
    return SampleBatch(data=out)
