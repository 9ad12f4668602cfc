import numpy as np
import pytest

from ghk import (
    BudgetExceededError,
    FunctionTuple,
    continuity_modulus,
    dual_brute,
    dual_rec,
    fourier_bound_gap,
    from_values,
    gowers_norm_rec,
    inner,
    lemma1_gap,
    lp_norm,
    pointwise_mul,
    product_bound_gap,
    product_identity_gap,
    scale,
    shift,
)
from ghk.families import random_function, random_tuple

from oracles import dual_field_oracle
from test_norms import times_power


def rand_grid(seed, n=8, d=1, w=0.25, signed=False):
    rng = np.random.default_rng(seed)
    lo = -1.0 if signed else 0.0
    return from_values(rng.uniform(lo, 1.0, (n,) * d), w)


def equal_tuple(f, k):
    return FunctionTuple.constant(f, k, punctured=True)


def assert_rec_matches_brute(f, k, out_box=None):
    b = dual_brute(equal_tuple(f, k), out_box=out_box)
    r = dual_rec(f, k, out_box=out_box)
    assert b.origin == r.origin and b.extents == r.extents
    scale_ref = max(1e-300, np.abs(b.values).max())
    np.testing.assert_allclose(r.values, b.values, rtol=0, atol=1e-9 * scale_ref)
    return r


class TestDualBrute:
    def test_indicator_value_at_zero(self):
        # area of {t1, t2 >= 0, t1 + t2 < 1} discretizes to (N+1)/(2N)
        for n in (4, 8, 16):
            f = from_values(np.ones(n), 1.0 / n)
            field = dual_brute(equal_tuple(f, 2))
            assert field.values[0] == pytest.approx((n + 1) / (2 * n), rel=1e-13)

    def test_indicator_limit_is_half(self):
        vals = []
        for n in (8, 16, 32):
            f = from_values(np.ones(n), 1.0 / n)
            vals.append(dual_brute(equal_tuple(f, 2)).values[0])
        errs = [abs(v - 0.5) for v in vals]
        assert errs[0] > errs[1] > errs[2]

    def test_zero_member_gives_zero_field(self):
        f = rand_grid(1)
        fs = FunctionTuple.punctured(2, [f, scale(f, 0.0), f])
        assert not dual_brute(fs).values.any()

    def test_homogeneity(self):
        f = rand_grid(2, signed=True)
        for k in (2, 3):
            for t in (-2.0, 0.5, 3.0):
                left = dual_brute(equal_tuple(scale(f, t), k))
                right = scale(dual_brute(equal_tuple(f, k)), t ** ((1 << k) - 1))
                np.testing.assert_allclose(
                    left.values,
                    right.values,
                    rtol=0,
                    atol=1e-12 * max(1.0, np.abs(right.values).max()),
                )

    def test_against_plain_oracle(self):
        fs = random_tuple("random-signed", 2, 1, 5, 0.5, 33, punctured=True)
        field = dual_brute(fs)
        lo, hi, stack = fs.stacked()
        want = dual_field_oracle(list(stack), 2, (0,), (5,)) * 0.5 ** 2
        np.testing.assert_allclose(field.values, want, rtol=1e-12)

    def test_budget_guard(self):
        fs = equal_tuple(rand_grid(3, n=8), 3)
        with pytest.raises(BudgetExceededError):
            dual_brute(fs, work_budget=100)

    def test_needs_punctured(self):
        f = rand_grid(4)
        with pytest.raises(ValueError, match="punctured"):
            dual_brute(FunctionTuple.constant(f, 2))


class TestScaleSafeDualBrute:
    """``dual_brute`` evaluates on rows rescaled by powers of two."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("t", [1e40, 1e-40, 1e100, 1e-100, 1e200])
    def test_field_scales_or_raises(self, t, k):
        base = dual_brute(equal_tuple(from_values(np.ones(4), 1.0), k)).values
        want = times_power(base, t, (1 << k) - 1)
        f = from_values(np.full(4, t), 1.0)
        if want is None:
            with pytest.raises(OverflowError, match="outside the normal float64 range"):
                dual_brute(equal_tuple(f, k))
            with pytest.raises(OverflowError):
                dual_rec(f, k)
        else:
            np.testing.assert_allclose(dual_brute(equal_tuple(f, k)).values, want, rtol=1e-13)

    def test_one_exponent_per_row(self):
        # the first two factors overflow together; all three make about 1e100
        rows = [from_values(np.ones(4) * t, 1.0) for t in (1e200, 1e200, 1e-300)]
        got = dual_brute(FunctionTuple.punctured(2, rows)).values
        base = dual_brute(equal_tuple(from_values(np.ones(4), 1.0), 2)).values
        np.testing.assert_allclose(got, base * 1e100, rtol=1e-13)


class TestDualRec:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_brute_pointwise(self, k, d):
        n = 8 if d == 1 else 4
        f = rand_grid(5, n=n, d=d)
        b = dual_brute(equal_tuple(f, k))
        r = dual_rec(f, k)
        assert b.origin == r.origin and b.extents == r.extents
        scale_ref = max(1e-300, np.abs(b.values).max())
        np.testing.assert_allclose(r.values, b.values, rtol=0, atol=1e-9 * scale_ref)

    def test_full_box_matches_brute(self):
        f = rand_grid(6, n=6)
        b = dual_brute(equal_tuple(f, 3), out_box="full")
        r = dual_rec(f, 3, out_box="full")
        assert b.origin == r.origin == (-5,)
        scale_ref = np.abs(b.values).max()
        np.testing.assert_allclose(r.values, b.values, rtol=0, atol=1e-9 * scale_ref)

    def test_k4_matches_brute(self):
        f = rand_grid(7, n=4)
        b = dual_brute(equal_tuple(f, 4))
        r = dual_rec(f, 4)
        scale_ref = np.abs(b.values).max()
        np.testing.assert_allclose(r.values, b.values, rtol=0, atol=1e-9 * scale_ref)

    @pytest.mark.parametrize("k, shape", [(4, (2, 2)), (4, (2, 3)), (5, (4,))])
    def test_high_order_matches_brute(self, k, shape):
        rng = np.random.default_rng(12)
        assert_rec_matches_brute(from_values(rng.uniform(-1.0, 1.0, shape), 0.25), k)

    # the field of a frame [0, N) vanishes off [-(N-1), 2N-1) per axis
    @pytest.mark.parametrize(
        "k, d, out_box",
        [
            (3, 1, ((-9,), (4,))),
            (3, 1, ((7,), (16,))),
            (4, 1, ((-7,), (1,))),
            (2, 2, ((-4, 1), (2, 7))),
        ],
    )
    def test_box_partly_outside_support(self, k, d, out_box):
        n = 6 if d == 1 else 3
        r = assert_rec_matches_brute(rand_grid(13, n=n, d=d), k, out_box)
        assert r.values.any() and not r.values.all()

    # for k >= 3 the field vanishes exactly off the narrower per-axis range
    # [-floor((N-1)/(k-1)), floor(k(N-1)/(k-1))], where FFT roundoff can read
    # as a tiny negative value
    @pytest.mark.parametrize(
        "n, k, d", [(5, 3, 1), (7, 3, 1), (6, 4, 1), (4, 3, 2), (6, 5, 1)]
    )
    def test_exact_zero_off_order_k_support(self, n, k, d):
        f = random_function("random-nonneg", d, n, 0.25, 1)
        r = dual_rec(f, k, out_box="full")
        coords = np.arange(r.extents[0]) + r.origin[0]
        axis = (coords >= -((n - 1) // (k - 1))) & (coords <= k * (n - 1) // (k - 1))
        inside = np.ones((), dtype=bool)
        for _ in range(d):
            inside = np.multiply.outer(inside, axis)
        assert not (r.values < 0).any()
        assert not r.values[~inside].any()
        assert r.values[inside].all()

    @pytest.mark.parametrize("k, out_box", [(3, ((11,), (15,))), (4, ((-12,), (-5,)))])
    def test_box_outside_support_is_zero(self, k, out_box):
        r = assert_rec_matches_brute(rand_grid(14, n=6), k, out_box)
        assert not r.values.any()

    @pytest.mark.parametrize(
        "k, d, n, out_box", [(3, 1, 8, "full"), (4, 1, 6, None), (3, 2, 3, None)]
    )
    def test_sparse_indicator_matches_brute(self, k, d, n, out_box):
        # most shift products and outer factors of a small box vanish
        f = random_function("indicator-box", d, n, 0.25, 1)
        assert 0 < np.count_nonzero(f.values) <= f.values.size // 2
        assert_rec_matches_brute(f, k, out_box)

    @pytest.mark.parametrize("k, d, n", [(3, 1, 8), (4, 1, 4), (3, 2, 2)])
    def test_split_batches_match_brute(self, small_batches, k, d, n):
        f = rand_grid(15, n=n, d=d, signed=True)
        assert_rec_matches_brute(f, k, out_box="full")
        assert len(small_batches) > 1

    # the padding follows the output box, clipped to the support: boxes along
    # the last axis that cross the left support edge, lie wholly left of the
    # support, cross the frame box's padded length 2N, lie right of the
    # support, and lie far away
    BOXES = {
        "left-edge": lambda n: (-n - 1, 1),
        "left": lambda n: (-n - 2, -n + 1),
        "straddle": lambda n: (n - 1, 2 * n + 1),
        "right": lambda n: (2 * n - 1, 2 * n + 2),
        "far": lambda n: (50 * n, 50 * n + 3),
    }

    @staticmethod
    def last_axis_box(n, d, where):
        a, b = TestDualRec.BOXES[where](n)
        return (0,) * (d - 1) + (a,), (n,) * (d - 1) + (b,)

    @pytest.mark.parametrize("where", sorted(BOXES))
    @pytest.mark.parametrize(
        "d, k, n", [(1, 2, 6), (1, 3, 5), (1, 4, 4), (2, 2, 3), (2, 3, 2), (3, 2, 2)]
    )
    def test_boxes_around_support(self, d, k, n, where):
        f = rand_grid(16, n=n, d=d, signed=True)
        r = assert_rec_matches_brute(f, k, self.last_axis_box(n, d, where))
        if where in ("left-edge", "straddle"):
            assert r.values.any() and not r.values.all()

    @pytest.mark.parametrize("where", ["left-edge", "straddle"])
    @pytest.mark.parametrize("d, k, n", [(1, 3, 6), (2, 3, 2)])
    def test_boxes_around_support_split(self, small_batches, d, k, n, where):
        f = rand_grid(17, n=n, d=d, signed=True)
        assert_rec_matches_brute(f, k, self.last_axis_box(n, d, where))
        assert len(small_batches) > 1

    @pytest.mark.parametrize("k, d", [(2, 1), (3, 2), (4, 3)])
    def test_far_box_takes_no_transform(self, small_batches, k, d):
        f = rand_grid(18, n=3, d=d)
        r = dual_rec(f, k, out_box=self.last_axis_box(3, d, "far"))
        assert r.extents == (3,) * (d - 1) + (3,)
        assert not r.values.any()
        assert small_batches == []

    def test_zero(self):
        assert not dual_rec(from_values(np.zeros(5), 1.0), 2).values.any()

    def test_signed_input(self):
        f = rand_grid(8, signed=True)
        b = dual_brute(equal_tuple(f, 2))
        np.testing.assert_allclose(dual_rec(f, 2).values, b.values, atol=1e-12)

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            dual_rec(rand_grid(9), 1)

    def test_pairing_identity(self):
        # <f, D_k f> equals the 2^k-th power of the uniformity norm
        for k in (2, 3):
            f = rand_grid(10, signed=True)
            pair = inner(f, dual_rec(f, k))
            want = gowers_norm_rec(f, k) ** (1 << k)
            assert abs(pair - want) <= 1e-9 * max(want, 1e-300)


class TestLemma1:
    def test_indicator_peak(self):
        # sup of the order-2 dual field of unit indicators is exactly 3/4
        # (attained at the support midpoint); the product of q-norms is 1
        f = from_values(np.ones(8), 1.0 / 8)
        rec = lemma1_gap(equal_tuple(f, 2))
        assert rec.lhs == pytest.approx(0.75, rel=1e-12)
        assert rec.rhs == pytest.approx(1.0, rel=1e-12)
        assert rec.passed

    def test_zero_member(self):
        f = rand_grid(12)
        fs = FunctionTuple.punctured(2, [f, f, scale(f, 0.0)])
        rec = lemma1_gap(fs)
        assert rec.lhs == 0.0 and rec.passed

    @pytest.mark.parametrize("k", [2, 3])
    def test_random_sweep(self, k):
        for seed in range(25):
            fs = random_tuple("random-nonneg", k, 1, 6, 0.25, 3000 + seed, punctured=True)
            rec = lemma1_gap(fs)
            assert rec.passed, (seed, rec.ratio)

    def test_signed_monitored(self):
        fs = random_tuple("random-signed", 2, 1, 6, 0.25, 77, punctured=True)
        assert lemma1_gap(fs).passed is None


class TestContinuity:
    def test_zero_shift(self):
        fs = random_tuple("random-nonneg", 2, 1, 6, 0.25, 13, punctured=True)
        rec = continuity_modulus(fs, 0)
        assert rec.lhs == 0.0 and rec.passed

    def test_smooth_bump_slope(self):
        # for a smooth bump the modulus is linear in the shift: doubling v
        # roughly doubles the left side, and both stay under the majorant
        phi = random_function("gaussian-bump", 1, 16, 1.0 / 16, 5)
        fs = FunctionTuple.constant(phi, 2, punctured=True)
        lhs = {}
        for v in (1, 2, 4):
            rec = continuity_modulus(fs, v)
            assert rec.passed
            lhs[v] = rec.lhs
        assert 1.8 <= lhs[2] / lhs[1] <= 2.1
        assert 1.8 <= lhs[4] / lhs[2] <= 2.1

    def test_random_sweep(self):
        for seed in range(20):
            fs = random_tuple("random-nonneg", 2, 1, 6, 0.25, 4000 + seed, punctured=True)
            for v in (1, 2, 5):
                assert continuity_modulus(fs, v).passed

    def test_edge_jump_stays_under_majorant(self):
        # sharp indicators at fine pitch: the field is evaluated on its full
        # support, so the boundary difference is genuine, not a truncation cliff
        f = from_values(np.ones(32), 1.0 / 32)
        rec = continuity_modulus(equal_tuple(f, 2), 1)
        assert rec.passed


class TestProductChecks:
    def test_identity_small(self):
        for seed in range(5):
            fs1 = random_tuple("random-nonneg", 2, 1, 4, 0.25, 500 + seed, punctured=True)
            fs2 = random_tuple("random-nonneg", 2, 1, 4, 0.25, 600 + seed, punctured=True)
            rec = product_identity_gap(fs1, fs2)
            assert rec.passed and rec.ratio <= 1e-9

    def test_identity_zero_tuple(self):
        f = rand_grid(13, n=4)
        z = scale(f, 0.0)
        fs1 = equal_tuple(f, 2)
        fs2 = FunctionTuple.punctured(2, [z, z, z])
        rec = product_identity_gap(fs1, fs2)
        assert rec.lhs == 0.0 and rec.passed

    def test_identity_indicator_value(self):
        # product of the two indicator fields at the origin is the square of
        # the single-field value (N+1)/(2N)
        n = 8
        f = from_values(np.ones(n), 1.0 / n)
        g1 = dual_brute(equal_tuple(f, 2))
        prod = pointwise_mul(g1, g1)
        assert prod.values[0] == pytest.approx(((n + 1) / (2 * n)) ** 2, rel=1e-12)

    def test_bound_sweep(self):
        for seed in range(25):
            fs1 = random_tuple("random-nonneg", 2, 1, 6, 0.25, 700 + seed, punctured=True)
            fs2 = random_tuple("random-nonneg", 2, 1, 6, 0.25, 800 + seed, punctured=True)
            rec = product_bound_gap(fs1, fs2)
            assert rec.passed, (seed, rec.ratio)

    def test_bound_zero_tuple(self):
        f = rand_grid(14)
        z = FunctionTuple.punctured(2, [scale(f, 0.0)] * 3)
        assert product_bound_gap(equal_tuple(f, 2), z).passed

    def test_k_mismatch_rejected(self):
        fs2 = random_tuple("random-nonneg", 2, 1, 4, 0.25, 1, punctured=True)
        fs3 = random_tuple("random-nonneg", 3, 1, 4, 0.25, 1, punctured=True)
        with pytest.raises(ValueError, match="order"):
            product_identity_gap(fs2, fs3)


class TestFourierBound:
    def test_rejects_k2(self):
        fs = random_tuple("random-nonneg", 2, 1, 4, 0.25, 1, punctured=True)
        with pytest.raises(ValueError, match="k >= 3"):
            fourier_bound_gap(fs)

    def test_zero_tuple(self):
        z = from_values(np.zeros(4), 0.25)
        fs = FunctionTuple.constant(z, 3, punctured=True)
        rec = fourier_bound_gap(fs)
        assert rec.lhs == 0.0 and rec.passed

    def test_random_sweep(self):
        for seed in range(15):
            fs = random_tuple("random-nonneg", 3, 1, 4, 0.25, 900 + seed, punctured=True)
            rec = fourier_bound_gap(fs)
            assert rec.passed, (seed, rec.ratio)

    def test_bump_ratio_below_one(self):
        phi = random_function("gaussian-bump", 1, 4, 0.25, 2)
        rec = fourier_bound_gap(FunctionTuple.constant(phi, 3, punctured=True))
        assert rec.passed and rec.ratio < 1.0


class TestSupportGeometry:
    def test_union_box_default(self):
        f = rand_grid(15, n=6)
        g = shift(rand_grid(16, n=4), 3)
        fs = FunctionTuple.punctured(2, [f, g, f])
        field = dual_brute(fs)
        lo, hi, _ = fs.stacked()
        assert field.box == (lo, hi)

    def test_full_box_covers_support(self):
        f = rand_grid(17, n=5)
        wide = dual_brute(equal_tuple(f, 2), out_box=((-20,), (25,)))
        full = dual_brute(equal_tuple(f, 2), out_box="full")
        # nothing outside the covering box
        inside = slice(20 - 4, 20 - 4 + full.extents[0])
        np.testing.assert_array_equal(wide.values[inside], full.values)
        outside = np.concatenate([wide.values[: 20 - 4], wide.values[20 - 4 + full.extents[0]:]])
        assert not outside.any()

    def test_translation_equivariance(self):
        f = rand_grid(18)
        a = dual_rec(shift(f, 4), 2)
        b = shift(dual_rec(f, 2), 4)
        assert a == b


class TestThreeDimensional:
    def test_rec_matches_brute(self):
        rng = np.random.default_rng(46)
        f = from_values(rng.random((3, 3, 3)), 0.5)
        b = dual_brute(FunctionTuple.constant(f, 2, punctured=True))
        r = dual_rec(f, 2)
        np.testing.assert_allclose(
            r.values, b.values, rtol=0, atol=1e-12 * np.abs(b.values).max()
        )
