"""Closed-form ground truth for the conditional-transfer protocol.

Derivation of the conditioning formula, in model units (per-beam shot
variance 1, difference SNL 2, delta = sqrt(2)).

Write each pair k through its uncorrelated sum/difference modes,
``Var(s_k + i_k) = V+_k`` and ``Var(s_k - i_k) = V-_k``, so that

    s_k = (u_k + d_k) / 2,   i_k = (u_k - d_k) / 2.

The trigger observable is the inter-pair signal difference and the target is
the inter-pair idler difference:

    D_s = s_1 - s_2 = A + B,   D_i = i_1 - i_2 = A - B,

with A = (u_1 - u_2)/2 and B = (d_1 - d_2)/2 independent zero-mean Gaussians,
Var(A) = V_A = (V+_1 + V+_2)/4 and Var(B) = V_B = (V-_1 + V-_2)/4.

Regressing the target on the trigger, D_i = alpha * D_s + W with

    alpha = Cov(D_i, D_s) / Var(D_s) = (V_A - V_B) / (V_A + V_B) = 1 - 2*rho,
    rho = V_B / (V_A + V_B),

and W independent of D_s with Var(W) = 4*V_A*V_B / (V_A + V_B). Selection
keeps |D_s| <= c where c = delta_i * delta, which truncates D_s but leaves W
untouched, hence

    Var(D_i | kept) = (1 - 2*rho)^2 * TGV(sqrt(V_A + V_B), c)
                      + 4*V_A*V_B / (V_A + V_B),

with TGV the variance of a centered normal truncated to [-c, c]. The kept
fraction is P(|D_s| <= c) = erf(c / (sqrt(2) * sigma_s)), sigma_s^2 = V_A+V_B.

Two limits worth naming: for V_A >> V_B and c -> 0 the first term dies and
Var -> 4*V_B = 2 * (V-_1 + V-_2)/2, i.e. the transferred noise level sits a
factor 2 (3.01 dB) above the input difference level; and for equal
shot-limited pairs V_A = V_B the regression slope vanishes, so selection
changes nothing and the conditional variance stays exactly at the SNL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySelectionError, ValidationError
from .model import (
    COHERENT_DELTA,
    SHOT_DIFFERENCE_VARIANCE,
    MeasurementSetting,
    TwinPairParams,
    effective_variances,
)

# Below this ratio a = c/sigma the direct formula cancels catastrophically;
# the uniform-limit series is exact to O(a^4) there.
_SERIES_THRESHOLD = 0.005


def truncated_gaussian_variance(sigma: float, half_width: float) -> float:
    """Variance of X ~ N(0, sigma^2) conditioned on |X| <= half_width.

    Closed form sigma^2 * [1 - 2a*phi(a) / (2*Phi(a) - 1)] with a = c/sigma;
    for a below a small threshold the series (c^2/3) * (1 - 2a^2/15) is used
    instead, and for very large a the truncation is a no-op.
    """
    sigma = float(sigma)
    c = float(half_width)
    if not (sigma > 0.0) or math.isnan(sigma):
        raise ValidationError(f"sigma must be > 0, got {sigma}")
    if not (c > 0.0) or math.isnan(c):
        raise ValidationError(f"half_width must be > 0, got {c}")

    a = c / sigma
    if a < _SERIES_THRESHOLD:
        return (c * c / 3.0) * (1.0 - 2.0 * a * a / 15.0)
    if a > 38.0:
        # the excluded tails underflow double precision entirely
        return sigma * sigma
    phi = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    mass = math.erf(a / math.sqrt(2.0))
    return sigma * sigma * (1.0 - 2.0 * a * phi / mass)


@dataclass(frozen=True)
class TransferPrediction:
    """Closed-form prediction for one selection configuration."""

    conditional_variance: float
    transferred_db: float
    selection_probability: float

    def __post_init__(self):
        if not (self.conditional_variance > 0.0):
            raise ValidationError(
                f"conditional_variance must be > 0, got {self.conditional_variance}")
        if not (0.0 < self.selection_probability <= 1.0):
            raise ValidationError(
                f"selection_probability must be in (0, 1], got "
                f"{self.selection_probability}")


def predict_transfer_from_variances(variances1: tuple[float, float],
                                    variances2: tuple[float, float],
                                    delta_i: float) -> TransferPrediction:
    """Prediction from per-pair effective (V-, V+), window half-width delta_i*delta."""
    (vm1, vp1), (vm2, vp2) = variances1, variances2
    for name, v in (("V- of pair 1", vm1), ("V+ of pair 1", vp1),
                    ("V- of pair 2", vm2), ("V+ of pair 2", vp2)):
        if not (float(v) > 0.0):
            raise ValidationError(f"{name} must be > 0, got {v}")
    delta_i = float(delta_i)
    if not (delta_i > 0.0):
        raise ValidationError(f"delta_i must be > 0, got {delta_i}")

    v_a = (vp1 + vp2) / 4.0
    v_b = (vm1 + vm2) / 4.0
    sigma_s = math.sqrt(v_a + v_b)
    c = delta_i * COHERENT_DELTA
    rho = v_b / (v_a + v_b)
    conditional = ((1.0 - 2.0 * rho) ** 2 * truncated_gaussian_variance(sigma_s, c)
                   + 4.0 * v_a * v_b / (v_a + v_b))
    transferred_db = -10.0 * math.log10(conditional / SHOT_DIFFERENCE_VARIANCE)
    probability = math.erf(c / (math.sqrt(2.0) * sigma_s))
    return TransferPrediction(conditional_variance=conditional,
                              transferred_db=transferred_db,
                              selection_probability=probability)


def predict_transfer(pair1: TwinPairParams, pair2: TwinPairParams, delta_i: float,
                     setting: MeasurementSetting = MeasurementSetting.TWIN_BEAMS_0DEG,
                     ) -> TransferPrediction:
    """Closed-form transfer prediction for two pairs and a selection half-width."""
    return predict_transfer_from_variances(effective_variances(pair1, setting),
                                           effective_variances(pair2, setting),
                                           delta_i)


@dataclass(frozen=True)
class JointFockDistribution:
    """Joint photon-number distribution p(n_a, n_b) on a square grid."""

    matrix: np.ndarray

    def __post_init__(self):
        try:
            m = np.array(self.matrix, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"matrix must be a numeric array: {exc}") from exc
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValidationError(f"matrix must be square and nonempty, got {m.shape}")
        if not np.isfinite(m).all() or np.any(m < 0.0):
            raise ValidationError("probabilities must be finite and non-negative")
        total = float(m.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"probabilities must sum to 1, got {total}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_diagonal(cls, weights) -> "JointFockDistribution":
        w = np.asarray(weights, dtype=np.float64)
        return cls(np.diag(w / w.sum()))

    def is_diagonal(self) -> bool:
        off = self.matrix - np.diag(np.diag(self.matrix))
        return bool(np.all(off == 0.0))


def _embed(m: np.ndarray, dim: int) -> np.ndarray:
    if m.shape[0] == dim:
        return m
    out = np.zeros((dim, dim))
    out[: m.shape[0], : m.shape[0]] = m
    return out


def fock_transfer(p1: JointFockDistribution, p2: JointFockDistribution,
                  ) -> tuple[JointFockDistribution, float]:
    """Idler-idler joint distribution after demanding equal signal counts.

    Keeping only outcomes with n_s1 = n_s2 = N leaves the (unnormalized)
    joint weight sum_N p1(N, n_i1) * p2(N, n_i2); the normalizer is the
    acceptance probability, returned alongside the distribution.
    """
    dim = max(p1.dimension, p2.dimension)
    joint = _embed(p1.matrix, dim).T @ _embed(p2.matrix, dim)
    acceptance = float(joint.sum())
    if acceptance <= 0.0:
        raise EmptySelectionError(
            "signal photon-number distributions share no support; "
            "acceptance probability is zero")
    return JointFockDistribution(joint / acceptance), acceptance
