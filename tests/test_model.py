"""Tests for the Gaussian two-pair noise model."""

import decimal
import itertools
import math

import numpy as np
import pytest

from twinbeam_transfer.errors import ModelError, ValidationError
from twinbeam_transfer.model import (
    CHANNELS,
    COHERENT_DELTA,
    SHOT_DIFFERENCE_VARIANCE,
    FourChannelCovariance,
    MeasurementSetting,
    TwinPairParams,
    build_covariance,
    effective_variances,
    _chunk_scratch,
    _covariance_factor,
    _substream,
    sample_batch,
)


def test_constants():
    assert SHOT_DIFFERENCE_VARIANCE == 2.0
    assert COHERENT_DELTA == pytest.approx(math.sqrt(2.0), abs=0.0)


def test_effective_variances_reference_point():
    # 7 dB below SNL and 20 dB above it, no rotation, unit efficiency
    p = TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0)
    v_minus, v_plus = effective_variances(p)
    assert v_minus == pytest.approx(2.0 * 10 ** (-0.7), rel=1e-12)
    assert v_minus == pytest.approx(0.399052, abs=1e-6)
    assert v_plus == pytest.approx(200.0, rel=1e-12)


def test_effective_variances_coherent_is_exact_snl():
    p = TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0, efficiency=0.8)
    assert effective_variances(p, MeasurementSetting.COHERENT_STATE) == (2.0, 2.0)


def test_effective_variances_45deg_kills_correlation():
    p = TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0)
    v_minus, v_plus = effective_variances(p, MeasurementSetting.TWIN_BEAMS_45DEG)
    # cos(90 deg)^2 vanishes identically, so the difference sits at the SNL
    assert v_minus == pytest.approx(2.0, abs=1e-12)
    assert v_plus == pytest.approx(200.0, rel=1e-12)


def test_effective_variances_45deg_overrides_rotation_param():
    p0 = TwinPairParams(squeezing_db=5.0, rotation_deg=0.0)
    p1 = TwinPairParams(squeezing_db=5.0, rotation_deg=30.0)
    assert (effective_variances(p0, MeasurementSetting.TWIN_BEAMS_45DEG)
            == effective_variances(p1, MeasurementSetting.TWIN_BEAMS_45DEG))


def test_rotation_interpolates_to_snl():
    p = TwinPairParams(squeezing_db=7.0, rotation_deg=20.0)
    v_minus, _ = effective_variances(p)
    c2 = math.cos(math.radians(40.0)) ** 2
    assert v_minus == pytest.approx(c2 * 2.0 * 10 ** (-0.7) + (1 - c2) * 2.0, rel=1e-12)


def test_loss_pulls_both_variances_toward_snl():
    p = TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0, efficiency=0.6)
    v_minus, v_plus = effective_variances(p)
    assert v_minus == pytest.approx(0.6 * 2.0 * 10 ** (-0.7) + 0.4 * 2.0, rel=1e-12)
    assert v_plus == pytest.approx(0.6 * 200.0 + 0.4 * 2.0, rel=1e-12)


def test_loss_is_applied_after_rotation():
    p = TwinPairParams(squeezing_db=7.0, efficiency=0.6, rotation_deg=20.0)
    v_minus, _ = effective_variances(p)
    c2 = math.cos(math.radians(40.0)) ** 2
    rotated = c2 * 2.0 * 10 ** (-0.7) + (1 - c2) * 2.0
    assert v_minus == pytest.approx(0.6 * rotated + 0.4 * 2.0, rel=1e-12)


def test_difference_variance_monotone_in_efficiency():
    values = [effective_variances(TwinPairParams(squeezing_db=7.0, efficiency=e))[0]
              for e in (0.2, 0.4, 0.6, 0.8, 1.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("field,kwargs", [
    ("squeezing_db", dict(squeezing_db=-0.1)),
    ("squeezing_db", dict(squeezing_db=20.5)),
    ("excess_sum_db", dict(squeezing_db=3.0, excess_sum_db=-1.0)),
    ("excess_sum_db", dict(squeezing_db=3.0, excess_sum_db=61.0)),
    ("efficiency", dict(squeezing_db=3.0, efficiency=0.0)),
    ("efficiency", dict(squeezing_db=3.0, efficiency=1.2)),
    ("rotation_deg", dict(squeezing_db=3.0, rotation_deg=-5.0)),
    ("rotation_deg", dict(squeezing_db=3.0, rotation_deg=46.0)),
    ("squeezing_db", dict(squeezing_db=float("nan"))),
])
def test_params_validation_names_offending_field(field, kwargs):
    with pytest.raises(ValidationError, match=field):
        TwinPairParams(**kwargs)


def test_build_covariance_block_structure():
    cov = build_covariance(TwinPairParams(squeezing_db=7.0),
                           TwinPairParams(squeezing_db=4.0))
    m = cov.matrix
    assert m.shape == (4, 4)
    assert np.array_equal(m, m.T)
    # pairs are independent: off blocks exactly zero, not merely small
    assert np.all(m[:2, 2:] == 0.0)
    v_minus, v_plus = effective_variances(TwinPairParams(squeezing_db=7.0))
    assert m[0, 0] == pytest.approx((v_plus + v_minus) / 4, rel=1e-12)
    assert m[0, 1] == pytest.approx((v_plus - v_minus) / 4, rel=1e-12)


def test_covariance_derived_variances_roundtrip():
    p1 = TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0)
    p2 = TwinPairParams(squeezing_db=4.0, excess_sum_db=15.0)
    cov = build_covariance(p1, p2)
    for k, p in ((1, p1), (2, p2)):
        v_minus, v_plus = effective_variances(p)
        assert cov.difference_variance(k) == pytest.approx(v_minus, rel=1e-12)
        assert cov.sum_variance(k) == pytest.approx(v_plus, rel=1e-12)


@pytest.mark.parametrize("s_db,expected", [(7.0, 7.0), (0.0, 0.0), (3.01, 3.01)])
def test_squeezing_db_roundtrip(s_db, expected):
    # each pair's difference sits ``expected`` dB below the shot level
    cov = build_covariance(TwinPairParams(squeezing_db=s_db),
                           TwinPairParams(squeezing_db=s_db))
    for k in (1, 2):
        assert cov.difference_variance(k) == pytest.approx(
            SHOT_DIFFERENCE_VARIANCE * 10.0 ** (-expected / 10.0), rel=1e-12)


def test_squeezing_db_of_coherent_is_zero():
    # coherent states: the difference is at the shot level, 0 dB
    cov = build_covariance(TwinPairParams(squeezing_db=7.0),
                           TwinPairParams(squeezing_db=7.0),
                           MeasurementSetting.COHERENT_STATE)
    assert cov.difference_variance(1) == pytest.approx(SHOT_DIFFERENCE_VARIANCE, rel=1e-12)


def test_covariance_rejects_nonzero_cross_block():
    m = np.eye(4)
    m[0, 2] = m[2, 0] = 1e-9
    with pytest.raises(ValidationError, match="cross-pair"):
        FourChannelCovariance(m)


def test_covariance_rejects_asymmetry_and_indefiniteness():
    m = np.eye(4)
    m[0, 1] = 0.5
    with pytest.raises(ValidationError, match="symmetric"):
        FourChannelCovariance(m)
    m = np.diag([1.0, -1.0, 1.0, 1.0])
    with pytest.raises(ModelError):
        FourChannelCovariance(m)


def test_sample_batch_deterministic_and_worker_invariant():
    cov = build_covariance(TwinPairParams(squeezing_db=7.0),
                           TwinPairParams(squeezing_db=7.0))
    a = sample_batch(cov, 200_000, seed=42)
    b = sample_batch(cov, 200_000, seed=42)
    assert np.array_equal(a.data, b.data)
    d = sample_batch(cov, 200_000, seed=43)
    assert not np.array_equal(a.data, d.data)


def test_sample_batch_prefix_stable_in_n():
    # growing n must extend the stream, not reshuffle it, also inside a
    # partial last chunk: every event of chunk 1 that the 70k record holds
    # is the same in the 140k record, whose chunk 1 is whole
    cov = build_covariance(TwinPairParams(squeezing_db=5.0),
                           TwinPairParams(squeezing_db=5.0))
    short = sample_batch(cov, 70_000, seed=7)
    long = sample_batch(cov, 140_000, seed=7)
    assert np.array_equal(short.data, long.data[:70_000])


# the definition of the direct engine's stream, written out independently
_CHUNK = 1 << 16
_LOW, _TOP = -20, -3          # layers of |z0|: lowest and top
_SUBSTREAMS = 2 + _TOP - _LOW  # per chunk: z0, one per layer


def _reference_normals(n, seed):
    # chunk k of 65536 events draws its z0 in event order from
    # Philox(seed).jumped(19 k). Layer e of an event is the binary exponent
    # of |z0| (2**(e - 1) <= |z0| < 2**e), clipped to [-20, -3]. A layer
    # below the top draws (z1, z2, z3) for its events, event-major and in
    # event order, from jumped(19 k + 1 + e + 20); event i of the top layer
    # takes column i of the (3, 65536) draw of jumped(19 k + 18)
    z = np.empty((n, 4))
    for start in range(0, n, _CHUNK):
        k, m = start // _CHUNK, min(_CHUNK, n - start)

        def substream(slot):
            return np.random.Generator(np.random.Philox(seed).jumped(k * _SUBSTREAMS + slot))

        z0 = substream(0).standard_normal(m)
        # the count of thresholds 2**-20 ... 2**-4 at or below |z0|
        layer = _LOW + np.searchsorted(2.0 ** np.arange(_LOW, _TOP), np.abs(z0), side="right")
        rest = substream(_SUBSTREAMS - 1).standard_normal((3, _CHUNK))[:, :m].T.copy()
        for e in range(_LOW, _TOP):
            events = np.flatnonzero(layer == e)
            rest[events] = substream(1 + e - _LOW).standard_normal((events.size, 3))
        z[start:start + m, 0] = z0
        z[start:start + m, 1:] = rest
    return z


def _elementwise_batch(factor, n, seed):
    # channel r is the sum of z[:, c] * factor[r, c] over the nonzero
    # factor[r, c], in column order
    z = _reference_normals(n, seed)
    out = np.zeros((n, 4))
    for r in range(4):
        terms = [z[:, c] * factor[r, c] for c in range(4) if factor[r, c] != 0.0]
        if terms:
            total = terms[0]
            for term in terms[1:]:
                total = total + term
            out[:, r] = total
    return out


# (g, s2, i1, i2) of the channels (s1, i1, s2, i2), g = s1 - s2
_GATE_FIRST = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                        [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


@pytest.mark.parametrize("case", ["cholesky", "semidefinite"])
def test_sample_batch_is_the_elementwise_product_of_the_draw(case):
    if case == "cholesky":
        cov = build_covariance(TwinPairParams(squeezing_db=7.0),
                               TwinPairParams(squeezing_db=4.0))
    else:
        # a singular pair block (signal and idler identical) leaves s2 and
        # i1 identical given g, so their conditional covariance is singular
        # and has no Cholesky factor; the closed form clips its radicand
        m = np.zeros((4, 4))
        m[:2, :2] = [[1.0, 1.0], [1.0, 1.0]]
        m[2:, 2:] = [[2.0, 0.5], [0.5, 2.0]]
        cov = FourChannelCovariance(m)
    sigma, factor = _covariance_factor(cov)
    # the gate-first factor: s1 - s2 = sigma_g * z0, it is lower-triangular
    # in gate-first order, and it reproduces the covariance
    c = _GATE_FIRST @ cov.matrix @ _GATE_FIRST.T
    assert sigma == pytest.approx(math.sqrt(c[0, 0]), rel=1e-15)
    assert factor[0] - factor[2] == pytest.approx([sigma, 0.0, 0.0, 0.0], abs=1e-14)
    assert np.allclose(factor @ factor.T, cov.matrix, rtol=0.0, atol=1e-13)
    gate_first = _GATE_FIRST @ factor
    assert not np.triu(gate_first, 1).any()
    if case == "cholesky":
        assert np.allclose(gate_first, np.linalg.cholesky(c), rtol=1e-13, atol=1e-13)
        # i1 and i2 are independent given s1 and s2: i2 weighs z0, z1 and
        # z3 only, where a 7/4 dB LAPACK Cholesky factor leaves about 1e-14
        # on z2
        assert factor[3, 2] == 0.0
        assert np.count_nonzero(factor[3]) == 3
    # 140,003 events: two whole chunks and a partial one
    expected = _elementwise_batch(factor, 140_003, 31)
    assert np.array_equal(sample_batch(cov, 140_003, 31).data, expected)


def _closed_form_grid():
    # (definite, cov): every build_covariance config is definite
    pairs = [TwinPairParams(sq, excess, eta)
             for sq, excess, eta in itertools.product((0.0, 7.0, 20.0), (0.0, 20.0, 60.0),
                                                      (1.0, 0.5))]
    grid = [(True, build_covariance(p, p)) for p in pairs]
    grid += [(True, build_covariance(p, q)) for p, q in zip(pairs, reversed(pairs))]
    grid += [(True, build_covariance(TwinPairParams(7.0), TwinPairParams(4.0), setting))
             for setting in MeasurementSetting]
    # block-diagonal matrices with a zero signal variance: a = 0, d = 0,
    # and both
    for a_zero, d_zero in ((True, False), (False, True), (True, True)):
        m = np.zeros((4, 4))
        m[:2, :2] = [[0.0, 0.0], [0.0, 1.5]] if a_zero else [[2.0, 1.25], [1.25, 3.0]]
        m[2:, 2:] = [[0.0, 0.0], [0.0, 0.7]] if d_zero else [[3.0, -0.4], [-0.4, 0.9]]
        grid.append((False, FourChannelCovariance(m)))
    return grid


def _decimal_gate_first_factor(matrix):
    # the Cholesky factor of the gate-first covariance, to 50 digits
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        m = [[decimal.Decimal(float(x)) for x in row] for row in matrix]
        gate = [[decimal.Decimal(int(x)) for x in row] for row in _GATE_FIRST]
        c = [[sum(gate[i][k] * m[k][n] * gate[j][n] for k in range(4) for n in range(4))
              for j in range(4)] for i in range(4)]
        low = [[decimal.Decimal(0)] * 4 for _ in range(4)]
        for j in range(4):
            low[j][j] = (c[j][j] - sum(low[j][k] ** 2 for k in range(j))).sqrt()
            for i in range(j + 1, 4):
                low[i][j] = (c[i][j] - sum(low[i][k] * low[j][k] for k in range(j))) / low[j][j]
        return low


def _worst_relative_error(factor, reference):
    # over the reference's nonzero entries but i2's weight on z2, which is
    # 0 (a LAPACK factor leaves roundoff there, the 50-digit one about 1e-50)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return max(float(abs(decimal.Decimal(float(factor[i][j])) - reference[i][j])
                         / abs(reference[i][j]))
                   for i in range(4) for j in range(4)
                   if reference[i][j] != 0 and (i, j) != (3, 2))


def test_covariance_factor_closed_form():
    worst, worst_lapack = 0.0, 0.0
    for definite, cov in _closed_form_grid():
        # no warning (the test config makes one an error) and no
        # ZeroDivisionError, on the zero-variance blocks too
        sigma, factor = _covariance_factor(cov)
        c = _GATE_FIRST @ cov.matrix @ _GATE_FIRST.T
        # sigma_g keeps the bits of c00 / sqrt(c00), and with them every
        # gate and kept count
        assert sigma == (c[0, 0] / math.sqrt(c[0, 0]) if c[0, 0] > 0.0 else 0.0)
        scale = np.abs(cov.matrix).max()
        assert np.abs(factor @ factor.T - cov.matrix).max() <= 1e-12 * scale
        gate_first = _GATE_FIRST @ factor
        assert not np.triu(gate_first, 1).any() and factor[3, 2] == 0.0
        if definite:
            reference = _decimal_gate_first_factor(cov.matrix)
            worst = max(worst, _worst_relative_error(gate_first, reference))
            worst_lapack = max(worst_lapack,
                               _worst_relative_error(np.linalg.cholesky(c), reference))
    # about 1.0e-9 and 2.4e-9, both where a pair at 60 dB excess noise and
    # efficiency 0.5 meets one at 20 dB squeezing and no excess
    assert 1e-10 < worst_lapack < 1e-8
    assert worst <= 2.0 * worst_lapack


def test_substreams_never_coincide():
    # each (chunk, slot) of the stream is Philox(seed).jumped(its own jump
    # count), so the z0 substream of one chunk is never a layer substream of
    # another (jumping chunk k to k and its layers to 64 k + slot would
    # make chunk 64's z0 chunk 1's first layer). A jump is 2**128 counter
    # steps; a substream uses at most 3 * 65536 / 4 of them per normal draw
    _, gen, key = _chunk_scratch(5)
    seen = {}
    for chunk in range(300):
        for slot in range(_SUBSTREAMS):
            counter = tuple(_substream(gen, key, chunk, slot).bit_generator.state["state"]
                            ["counter"])
            assert counter[:2] == (0, 0) and counter[3] == 0
            assert counter not in seen, (chunk, slot, seen.get(counter))
            seen[counter] = (chunk, slot)
    assert len(seen) == 300 * _SUBSTREAMS
    for chunk, slot in ((0, 0), (3, 0), (3, _SUBSTREAMS - 1), (7, 5)):
        reference = np.random.Generator(np.random.Philox(5).jumped(chunk * _SUBSTREAMS + slot))
        assert np.array_equal(_substream(gen, key, chunk, slot).standard_normal(9),
                              reference.standard_normal(9))


def test_sample_batch_matches_target_covariance():
    cov = build_covariance(TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0),
                           TwinPairParams(squeezing_db=7.0, excess_sum_db=20.0))
    batch = sample_batch(cov, 1_000_000, seed=123)
    sample_cov = np.cov(batch.data, rowvar=False)
    n = batch.n
    # elementwise 5 sigma: SE of a covariance entry ~ sqrt((Cii*Cjj + Cij^2)/n)
    diag = np.diag(cov.matrix)
    se = np.sqrt((np.outer(diag, diag) + cov.matrix ** 2) / n)
    assert np.all(np.abs(sample_cov - cov.matrix) < 5 * se)


def test_sample_batch_channel_accessors():
    cov = build_covariance(TwinPairParams(squeezing_db=3.0),
                           TwinPairParams(squeezing_db=3.0))
    batch = sample_batch(cov, 1000, seed=1)
    assert batch.n == 1000
    for idx, name in enumerate(CHANNELS):
        assert np.array_equal(getattr(batch, name), batch.data[:, idx])


def test_sample_batch_is_read_only():
    cov = build_covariance(TwinPairParams(squeezing_db=3.0),
                           TwinPairParams(squeezing_db=3.0))
    batch = sample_batch(cov, 100, seed=1)
    with pytest.raises(ValueError):
        batch.data[0, 0] = 99.0


def test_sample_batch_input_validation():
    cov = build_covariance(TwinPairParams(squeezing_db=3.0),
                           TwinPairParams(squeezing_db=3.0))
    # never truncated or coerced: 2.5 is not 2 events, True is not 1
    for n in (0, 2.5, True):
        with pytest.raises(ValidationError, match="sample count"):
            sample_batch(cov, n, seed=1)


@pytest.mark.parametrize("seed", [2.7, True, -1])
def test_sample_batch_rejects_bad_seed(seed):
    # never truncated or coerced: 2.7 is not seed 2, True is not seed 1
    cov = build_covariance(TwinPairParams(squeezing_db=3.0),
                           TwinPairParams(squeezing_db=3.0))
    with pytest.raises(ValidationError, match="seed"):
        sample_batch(cov, 10, seed)
