import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghk import (
    GridFunction,
    add,
    fourier,
    from_values,
    inner,
    integral,
    lp_norm,
    pointwise_mul,
    scale,
    shift,
)
from ghk.budget import BudgetExceededError, set_memory_budget

from oracles import autocorrelation_oracle, inner_oracle, integral_oracle, lp_oracle


def rand_grid(seed, n=8, d=1, w=0.25, signed=True):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1 if signed else 0, 1, (n,) * d)
    return from_values(vals, w)


# magnitudes whose squares stay in the normal float range: squaring a value
# below ~1e-154 underflows into subnormals and genuinely loses precision
sane_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-100, max_value=10),
    st.floats(min_value=-10, max_value=-1e-100),
)
small_arrays = st.lists(sane_values, min_size=1, max_size=12)


class TestConstruction:
    def test_basic_fields(self):
        f = from_values([[1.0, 2.0], [3.0, 4.0]], 0.5, (1, -2))
        assert f.dim == 2
        assert f.extents == (2, 2)
        assert f.origin == (1, -2)
        assert f.box == ((1, -2), (3, 0))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            from_values([1.0, np.nan], 1.0)

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            from_values([np.inf], 1.0)

    def test_rejects_bad_spacing(self):
        for w in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="spacing"):
                from_values([1.0], w)

    def test_rejects_high_dim(self):
        with pytest.raises(ValueError, match="dimension"):
            from_values(np.zeros((2, 2, 2, 2)), 1.0)

    def test_memory_budget(self):
        set_memory_budget(1024)
        try:
            with pytest.raises(BudgetExceededError):
                from_values(np.zeros(1000), 1.0)
        finally:
            set_memory_budget(1 << 28)

    def test_values_frozen(self):
        f = from_values([1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 5.0


class TestIntegral:
    def test_unit_indicator(self):
        f = from_values(np.ones(8), 1.0 / 8)
        assert integral(f) == pytest.approx(1.0, abs=0)

    def test_zero(self):
        assert integral(from_values(np.zeros(5), 1.0)) == 0.0

    def test_cancellation(self):
        assert integral(from_values([1.0, -1.0], 1.0)) == 0.0

    def test_against_oracle(self):
        f = rand_grid(1, n=9, d=2)
        assert integral(f) == pytest.approx(
            integral_oracle(f.values, f.spacing), rel=1e-14
        )


class TestLpNorm:
    def test_unit_mass_indicator_any_p(self):
        f = from_values(np.ones(4), 0.25)
        for p in (1, 1.5, 2, 4 / 3, 7, math.inf):
            assert lp_norm(f, p) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(from_values([1.0], 1.0), 0.5)

    def test_oracle_p_four_thirds(self):
        f = rand_grid(7, n=10)
        assert lp_norm(f, 4 / 3) == pytest.approx(
            lp_oracle(f.values, f.spacing, 4 / 3), rel=1e-12
        )

    def test_infinity(self):
        f = from_values([-3.0, 2.0], 1.0)
        assert lp_norm(f, math.inf) == 3.0

    # scale factors of sane magnitude: squaring a ~1e-300 value underflows
    # and breaks exact-homogeneity comparisons for float reasons only
    sane_t = st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-3, max_value=4),
        st.floats(min_value=-4, max_value=-1e-3),
    )

    @given(small_arrays, sane_t)
    @settings(max_examples=50, deadline=None)
    def test_homogeneity(self, vals, t):
        f = from_values(vals, 0.5)
        assert lp_norm(scale(f, t), 2) == pytest.approx(
            abs(t) * lp_norm(f, 2), rel=1e-12, abs=1e-300
        )


class TestScaleSafeLpNorm:
    """Sums that leave the normal float64 range are redone on rescaled values."""

    PS = [1, 4 / 3, 3 / 2, 2, 8 / 3, 4, math.inf]

    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize(
        "t, w", [(1e100, 0.25), (1e-100, 0.25), (1e200, 0.25), (-1e200, 1e120), (1e-100, 1e-250)]
    )
    def test_scales_or_raises(self, t, w, p):
        f = rand_grid(8, n=6, w=w)
        base = lp_norm(f, p)
        if -1021.0 < math.log2(abs(t)) + math.log2(base) < 1023.0:
            assert lp_norm(scale(f, t), p) == pytest.approx(abs(t) * base, rel=1e-12)
        else:
            with pytest.raises(OverflowError, match="outside the normal float64 range"):
                lp_norm(scale(f, t), p)

    def test_plain_sum_overflow(self):
        f = from_values(np.full(4, 1e200), 1.0)
        assert lp_norm(f, 2) == pytest.approx(2e200, rel=1e-15)
        assert lp_norm(scale(f, 1e-300), 4) == pytest.approx(4 ** 0.25 * 1e-100, rel=1e-15)

    @pytest.mark.parametrize("t", [1e200, 1e-100])
    def test_spectrum(self, t):
        f = rand_grid(9, n=6)
        base = fourier(f, 12).lp_norm(4)
        assert fourier(scale(f, t), 12).lp_norm(4) == pytest.approx(t * base, rel=1e-12)


class TestShift:
    def test_zero_shift_identity(self):
        f = rand_grid(3)
        assert shift(f, 0) == f

    def test_full_shift_disjoint(self):
        f = from_values(np.ones(8), 1.0 / 8)
        g = pointwise_mul(shift(f, 8), f)
        assert not g.values.any()

    def test_measure_preserving_exact(self):
        f = rand_grid(11, n=7)
        for v in (-3, 1, 12):
            assert lp_norm(shift(f, v), 4 / 3) == lp_norm(f, 4 / 3)

    def test_autocorrelation_matches_oracle(self):
        f = rand_grid(5, n=6)
        for v in range(-6, 7):
            assert inner(shift(f, (v,)), f) == pytest.approx(
                autocorrelation_oracle(f.values, f.spacing, (v,)), rel=1e-12, abs=1e-15
            )

    def test_shift_semantics(self):
        # f^h(x) = f(x + h): shifting by +1 moves the support box down
        f = from_values([1.0, 2.0], 1.0, origin=3)
        g = shift(f, 1)
        assert g.origin == (2,)
        assert np.array_equal(g.values, f.values)


class TestAlgebra:
    def test_mul_zero(self):
        f = rand_grid(2)
        z = scale(f, 0.0)
        assert not pointwise_mul(f, z).values.any()

    def test_scale_one(self):
        f = rand_grid(2)
        assert scale(f, 1.0) == f

    def test_add_inverse(self):
        f = rand_grid(4)
        assert not add(f, scale(f, -1.0)).values.any()

    def test_add_disjoint_boxes(self):
        f = from_values([1.0], 1.0, origin=0)
        g = from_values([2.0], 1.0, origin=5)
        s = add(f, g)
        assert s.extents == (6,)
        assert integral(s) == pytest.approx(3.0)

    def test_mul_respects_offsets(self):
        f = from_values([1.0, 2.0, 3.0], 1.0, origin=0)
        g = from_values([10.0, 20.0], 1.0, origin=1)
        prod = pointwise_mul(f, g)
        assert prod.origin == (1,)
        assert np.array_equal(prod.values, [20.0, 60.0])

    def test_mismatched_spacing_rejected(self):
        f = from_values([1.0], 1.0)
        g = from_values([1.0], 0.5)
        for op in (inner, add, pointwise_mul):
            with pytest.raises(ValueError, match="spacing"):
                op(f, g)


class TestInner:
    def test_self_inner_is_l2_squared(self):
        f = rand_grid(9)
        assert inner(f, f) == pytest.approx(lp_norm(f, 2) ** 2, rel=1e-14)

    def test_zero(self):
        f = rand_grid(9)
        assert inner(f, scale(f, 0.0)) == 0.0

    def test_against_oracle(self):
        f, g = rand_grid(12, n=8), rand_grid(13, n=8)
        assert inner(f, g) == pytest.approx(
            inner_oracle(f.values, g.values, f.spacing), rel=1e-12
        )

    def test_disjoint_supports(self):
        f = from_values([1.0, 1.0], 1.0, origin=0)
        g = from_values([1.0, 1.0], 1.0, origin=10)
        assert inner(f, g) == 0.0


class TestFourier:
    def test_zero_function(self):
        spec = fourier(from_values(np.zeros(4), 1.0), 8)
        assert not spec.values.any()

    def test_rejects_short_padding(self):
        with pytest.raises(ValueError, match="padded"):
            fourier(from_values(np.ones(8), 1.0), 4)

    @given(small_arrays)
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, vals):
        f = from_values(vals, 0.25)
        spec = fourier(f, 2 * f.extents[0])
        l2 = lp_norm(f, 2)
        assert abs(l2 ** 2 - spec.lp_norm(2) ** 2) <= 1e-10 * max(l2 ** 2, 1e-30)

    def test_indicator_sinc_values(self):
        # |f_hat(1/2)| for the unit indicator sampled at pitch w is exactly
        # w / sin(pi w / 2); as w -> 0 it approaches 2/pi
        previous = None
        for n in (8, 16, 32):
            f = from_values(np.ones(n), 1.0 / n)
            spec = fourier(f, 2 * n)  # frequency pitch 1/(2n w) = 1/2
            w = 1.0 / n
            got = abs(spec.values[1])  # bin 1 sits at xi = 1/2
            assert got == pytest.approx(w / math.sin(math.pi * w / 2), rel=1e-12)
            err = abs(got - 2 / math.pi)
            if previous is not None:
                assert err < previous
            previous = err
        assert previous < 2e-3

    def test_origin_phase(self):
        # translation multiplies the transform by a unimodular phase
        f = rand_grid(21, n=6)
        g = shift(f, 2)
        sf = fourier(f, 12)
        sg = fourier(g, 12)
        np.testing.assert_allclose(np.abs(sf.values), np.abs(sg.values), rtol=1e-12)
        xi = np.arange(12) / (12 * f.spacing)
        phase = np.exp(2j * np.pi * 2 * f.spacing * xi)
        np.testing.assert_allclose(sg.values, sf.values * phase, rtol=0, atol=1e-12)

    def test_spectrum_rejects_bad_p(self):
        spec = fourier(from_values(np.ones(4), 1.0), 8)
        with pytest.raises(ValueError):
            spec.lp_norm(0.5)
