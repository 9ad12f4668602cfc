import math

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
from ghk import kernels, norms
from ghk.budget import brute_dual_work
from ghk.dual import _resolve_out_box
from ghk.families import random_function, random_tuple
from ghk.grid import embed, union_box
from ghk.records import IDENTITY_TOL

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


def assert_full_matches_kernel(f, k, box):
    """``dual_rec(f, k, "full")``, zero-extended and read on the index box
    ``box``, against the brute kernel evaluated on that box (the kernel layer
    still takes any box); returns the values read."""
    lo, hi = box
    full = dual_rec(f, k, out_box="full")
    ulo, uhi = union_box([full.box, box])
    got = embed(full, ulo, uhi)[tuple(slice(a - u, b - u) for a, b, u in zip(lo, hi, ulo))]
    rows = np.stack([f.values] * ((1 << k) - 1))
    rel_lo = tuple(a - o for a, o in zip(lo, f.origin))
    want = kernels.dual_field_sum(rows, k, rel_lo, got.shape) * f.spacing ** (k * f.dim)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * max(1e-300, np.abs(want).max()))
    return got


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

    def test_support_runs_at_default_budget(self):
        # 1,000 output cells times 7^6 shift vectors, the walk the kernel
        # takes; counting 13 offsets per coordinate would model 4.8e9
        fs = random_tuple("random-signed", 2, 3, 4, 0.5, 1, punctured=True)
        assert brute_dual_work((4,) * 3, 2, (10,) * 3) == 117_649_000
        field = dual_brute(fs, out_box="full")
        assert field.extents == (10, 10, 10)

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
        assert b.origin == r.origin == (-2,)
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

    # for k >= 3 the "full" box is the narrower per-axis support
    # [-floor((N-1)/(k-1)), floor(k(N-1)/(k-1))], off which the field is
    # exactly zero (TestSupportGeometry) and on which a nonnegative input's
    # field is positive; FFT roundoff must not read as a negative value
    @pytest.mark.parametrize(
        "n, k, d", [(5, 3, 1), (7, 3, 1), (6, 4, 1), (4, 3, 2), (6, 5, 1)]
    )
    def test_exact_zero_off_order_k_support(self, n, k, d):
        f = random_function("random-nonneg", d, n, 0.25, 1)
        r = dual_rec(f, k, out_box="full")
        assert r.origin == (-((n - 1) // (k - 1)),) * d
        assert r.extents == (k * (n - 1) // (k - 1) + 1 + (n - 1) // (k - 1),) * d
        assert not (r.values < 0).any()
        assert r.values.all()

    # boxes partly outside the support of a frame [0, N)
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
        r = assert_full_matches_kernel(rand_grid(13, n=n, d=d), k, out_box)
        assert r.any() and not r.all()

    @pytest.mark.parametrize("k, out_box", [(3, ((11,), (15,))), (4, ((-12,), (-5,)))])
    def test_box_outside_support_is_zero(self, k, out_box):
        r = assert_full_matches_kernel(rand_grid(14, n=6), k, out_box)
        assert not r.any()

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
        assert small_batches["rfftn"] > 1

    # the support box has a negative lower corner: the base gathers it from
    # a transform padded past both support edges, which no alias reaches
    FULL_GRID = [(1, 2, 6), (1, 3, 5), (1, 4, 4), (2, 2, 3), (2, 3, 2), (3, 2, 2)]

    @pytest.mark.parametrize("d, k, n", FULL_GRID)
    def test_full_box_grid(self, d, k, n):
        assert_rec_matches_brute(rand_grid(16, n=n, d=d, signed=True), k, "full")

    @pytest.mark.parametrize("d, k, n", FULL_GRID)
    def test_full_box_grid_split(self, small_batches, d, k, n):
        assert_rec_matches_brute(rand_grid(17, n=n, d=d, signed=True), k, "full")
        assert small_batches["rfftn"] > 1 or k == 2  # k=2 transforms one row

    # boxes around the support that the field was once evaluated on directly:
    # along the last axis they cross the left support edge, lie wholly left of
    # the support, cross the frame box's padded length 2N, lie right of the
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
    @pytest.mark.parametrize("d, k, n", FULL_GRID)
    def test_boxes_around_support(self, d, k, n, where):
        f = rand_grid(16, n=n, d=d, signed=True)
        r = assert_full_matches_kernel(f, k, self.last_axis_box(n, d, where))
        if where in ("left-edge", "straddle"):
            assert r.any() and not r.all()

    @pytest.mark.parametrize("where", ["left-edge", "straddle"])
    @pytest.mark.parametrize("d, k, n", [(1, 3, 6), (2, 3, 2)])
    def test_boxes_around_support_split(self, small_batches, d, k, n, where):
        f = rand_grid(17, n=n, d=d, signed=True)
        assert_full_matches_kernel(f, k, self.last_axis_box(n, d, where))
        assert small_batches["rfftn"] > 1

    @pytest.mark.parametrize("k, d", [(2, 1), (3, 2), (4, 3)])
    def test_far_box_takes_no_transform(self, small_batches, k, d):
        # an explicit box is refused by both routes, before any work
        f = rand_grid(18, n=3, d=d)
        far = self.last_axis_box(3, d, "far")
        with pytest.raises(ValueError, match="out_box"):
            dual_rec(f, k, out_box=far)
        with pytest.raises(ValueError, match="out_box"):
            dual_brute(equal_tuple(f, k), out_box=far)
        assert not small_batches

    def test_order_one_has_no_full_box(self):
        with pytest.raises(ValueError, match="order-1"):
            dual_brute(equal_tuple(rand_grid(19), 1), out_box="full")

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


class TestDualTuple:
    """``dual_rec`` of a general punctured tuple: the shift-product engine
    peels a stack of vertex rows, against ``dual_brute``."""

    GRID = [
        (1, 2, 6), (1, 3, 5), (1, 4, 4), (2, 2, 3), (2, 3, 2), (2, 4, 2), (3, 2, 2), (3, 3, 2),
    ]

    @staticmethod
    def assert_matches_brute(fs, out_box):
        b = dual_brute(fs, out_box=out_box)
        r = dual_rec(fs, out_box=out_box)
        assert r.box == b.box
        scale_ref = max(1e-300, np.abs(b.values).max())
        np.testing.assert_allclose(r.values, b.values, rtol=0, atol=1e-12 * scale_ref)

    @pytest.mark.parametrize("out_box", [None, "full"])
    @pytest.mark.parametrize("family", ["random-signed", "random-nonneg"])
    @pytest.mark.parametrize("d, k, n", GRID)
    def test_matches_brute(self, d, k, n, family, out_box):
        fs = random_tuple(family, k, d, n, 0.25, 31, punctured=True)
        self.assert_matches_brute(fs, out_box)

    @pytest.mark.parametrize("out_box", [None, "full"])
    @pytest.mark.parametrize("family", ["random-signed", "random-nonneg"])
    @pytest.mark.parametrize("d, k, n", [(1, 3, 6), (1, 4, 4), (2, 3, 2), (3, 3, 2)])
    def test_split_batches_match_brute(self, small_batches, d, k, n, family, out_box):
        fs = random_tuple(family, k, d, n, 0.25, 32, punctured=True)
        self.assert_matches_brute(fs, out_box)
        assert small_batches["rfftn"] > 1

    def test_mixed_boxes(self):
        # members on different boxes are embedded into the common frame
        f, g = rand_grid(33, n=5), shift(rand_grid(34, n=3, signed=True), 2)
        fs = FunctionTuple.punctured(3, [f, g, f, g, g, f, f])
        for out_box in (None, "full"):
            self.assert_matches_brute(fs, out_box)

    def test_sparse_members(self):
        # a vanishing member, and members whose shift products mostly vanish
        ind = random_function("indicator-box", 1, 8, 0.25, 1)
        fs = random_tuple("random-signed", 3, 1, 8, 0.25, 35, punctured=True)
        rows = list(fs)
        rows[2], rows[5] = ind, ind
        self.assert_matches_brute(FunctionTuple.punctured(3, rows), "full")
        rows[6] = scale(ind, 0.0)
        assert not dual_rec(FunctionTuple.punctured(3, rows)).values.any()

    @pytest.mark.parametrize("out_box", [None, "full"])
    @pytest.mark.parametrize("d, k, n", [(1, 2, 8), (1, 3, 6), (1, 4, 4), (2, 3, 3), (3, 2, 3)])
    def test_all_equal_tuple_is_one_row(self, small_batches, d, k, n, out_box):
        # bit for bit the grid form, with its forward transform count
        f = rand_grid(36, n=n, d=d, signed=True)
        want = dual_rec(f, k, out_box)
        transforms = small_batches["rfftn"]
        small_batches.clear()
        got = dual_rec(equal_tuple(f, k), out_box=out_box)
        assert small_batches["rfftn"] == transforms
        assert got.origin == want.origin and np.array_equal(got.values, want.values)

    def test_scales_per_row(self):
        # each pair of rows overflows alone, the field does not
        fs = random_tuple("random-nonneg", 2, 1, 5, 0.25, 37, punctured=True)
        big = FunctionTuple.punctured(2, [scale(g, t) for g, t in zip(fs, (1e200, 1e200, 1e-300))])
        want = dual_rec(fs).values * 1e200 * (1e200 * 1e-300)
        np.testing.assert_allclose(dual_rec(big).values, want, rtol=1e-13)

    def test_entry_arguments(self):
        fs = random_tuple("random-nonneg", 3, 1, 4, 0.25, 38, punctured=True)
        assert np.array_equal(dual_rec(fs, 3).values, dual_rec(fs).values)
        with pytest.raises(ValueError, match="order 3"):
            dual_rec(fs, 2)
        with pytest.raises(TypeError, match="order k"):
            dual_rec(rand_grid(39))
        with pytest.raises(ValueError, match="punctured"):
            dual_rec(random_tuple("random-nonneg", 2, 1, 4, 0.25, 38))

    @pytest.mark.parametrize(
        "call",
        [
            lambda fs, b: dual_rec(fs, out_box="full", work_budget=b),
            lambda fs, b: lemma1_gap(fs, work_budget=b),
            lambda fs, b: continuity_modulus(fs, 1, work_budget=b),
            lambda fs, b: product_bound_gap(fs, fs, work_budget=b),
            lambda fs, b: fourier_bound_gap(fs, work_budget=b),
        ],
        ids=["dual_rec", "lemma1", "continuity", "product-bound", "fourier"],
    )
    def test_budget_guard_before_any_transform(self, small_batches, call):
        fs = random_tuple("random-signed", 3, 1, 6, 0.25, 40, punctured=True)
        with pytest.raises(BudgetExceededError):
            call(fs, 1000)
        assert not small_batches


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
        # the plain-loop oracle on a box one cell wider than the support on
        # every side: exactly zero off the support, and dual_brute's "full"
        # box on it
        for k, d, n in [(2, 1, 5), (3, 1, 5), (4, 1, 4), (2, 2, 3), (3, 2, 2), (4, 2, 2)]:
            fs = random_tuple("random-signed", k, d, n, 0.5, 19, punctured=True)
            full = dual_brute(fs, out_box="full")
            lo, hi, stack = fs.stacked()
            rel_lo = tuple(o - l - 1 for o, l in zip(full.origin, lo))
            wide = dual_field_oracle(list(stack), k, rel_lo, tuple(e + 2 for e in full.extents))
            inside = (slice(1, -1),) * d
            np.testing.assert_allclose(
                wide[inside] * 0.5 ** (k * d),
                full.values,
                rtol=0,
                atol=1e-12 * np.abs(full.values).max(),
            )
            wide[inside] = 0.0
            assert not wide.any(), (k, d, n)

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


class TestScaleSafeProducts:
    """The two product checks evaluate on rows rescaled by powers of two."""

    @staticmethod
    def pair(t):
        tuples = [random_tuple("random-nonneg", 2, 1, 3, 1.0, s, punctured=True) for s in (1, 2)]
        return [FunctionTuple.punctured(2, [scale(f, t) for f in fs]) for fs in tuples]

    @pytest.mark.parametrize("check", [product_identity_gap, product_bound_gap])
    @pytest.mark.parametrize("t", [1e40, 1e-40])
    def test_values_scale_with_input(self, check, t):
        base, rec = check(*self.pair(1.0)), check(*self.pair(t))
        assert rec.passed
        assert rec.rhs == pytest.approx(t**6 * base.rhs, rel=1e-12)
        if check is product_bound_gap:
            assert rec.lhs == pytest.approx(t**6 * base.lhs, rel=1e-12)
        else:  # the identity's lhs is a roundoff gap
            assert rec.lhs <= IDENTITY_TOL * rec.rhs

    @pytest.mark.parametrize("check", [product_identity_gap, product_bound_gap])
    @pytest.mark.parametrize("j", [133, -133])
    def test_power_of_two_scales_exactly(self, check, j):
        # the rows rescale to the same values, so lhs scales bit for bit; the
        # bound's rhs takes q-norms of the unscaled rows
        base, rec = check(*self.pair(1.0)), check(*self.pair(2.0**j))
        assert rec.lhs == math.ldexp(base.lhs, 6 * j)
        assert rec.rhs == pytest.approx(math.ldexp(base.rhs, 6 * j), rel=1e-12)

    @pytest.mark.parametrize("check", [product_identity_gap, product_bound_gap])
    @pytest.mark.parametrize("t", [1e60, 1e-60])
    def test_out_of_range_raises(self, check, t):
        with pytest.raises(OverflowError, match="outside the normal float64 range"):
            check(*self.pair(t))


class TestFoldedField:
    """The one-row engine folds each first-peel shift h with -h and adds the
    mirrored term ``(f . u_h)(x - h)``; the general path (``2^k - 1`` equal
    rows, no fold and no all-equal collapse) and ``dual_brute`` check it."""

    SHAPES = [
        (1, 3, 5), (1, 4, 4), (2, 3, 3), (2, 4, 2), (3, 3, 2), (3, 4, 2),
        (1, 3, 1), (2, 4, 1), (3, 3, 1),
    ]

    @staticmethod
    def engine_fields(values, k, out_box):
        lo, box = _resolve_out_box(values.shape, k, out_box)
        one, _ = norms._shift_product_sum(values[None], k, lo, box)
        rows = np.repeat(values[None], (1 << k) - 1, axis=0)
        general, _ = norms._shift_product_sum(rows, k, lo, box)
        scale_ref, _ = norms._shift_product_sum(np.abs(values)[None], k, lo, box)
        return one, general, max(1e-300, np.abs(scale_ref).max())

    @pytest.mark.parametrize("out_box", [None, "full"])
    @pytest.mark.parametrize("family", ["random-signed", "random-nonneg", "indicator-box"])
    @pytest.mark.parametrize("d, k, n", SHAPES)
    def test_matches_general_path_and_brute(self, d, k, n, family, out_box):
        f = random_function(family, d, n, 0.25, 56)
        one, general, scale_ref = self.engine_fields(f.values, k, out_box)
        np.testing.assert_allclose(one, general, rtol=0, atol=1e-13 * scale_ref)
        assert_rec_matches_brute(f, k, out_box)

    @pytest.mark.parametrize("out_box", [None, "full"])
    @pytest.mark.parametrize("shape", [(3, 1), (1, 3), (2, 3, 1), (1, 2, 3)])
    @pytest.mark.parametrize("k", [3, 4])
    def test_uneven_frames(self, shape, k, out_box):
        # the centre of the shift axis lies inside the first slab's rows
        values = np.random.default_rng(57).uniform(-1.0, 1.0, shape)
        one, general, scale_ref = self.engine_fields(values, k, out_box)
        np.testing.assert_allclose(one, general, rtol=0, atol=1e-13 * scale_ref)

    @pytest.mark.parametrize("out_box", [None, "full"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [3, 4])
    def test_single_cell_counts_zero_shift_once(self, d, k, out_box):
        # only h = 0 has a nonzero product: the field is c^(2^k - 1) w^(kd)
        # at the cell and zero elsewhere, with nothing mirrored
        values = np.zeros((4 if d < 3 else 2,) * d)
        values[(1,) * d] = 1.5
        f = from_values(values, 0.5)
        r = assert_rec_matches_brute(f, k, out_box)
        peak = 1.5 ** ((1 << k) - 1) * 0.5 ** (k * d)
        cell = tuple(1 - a for a in r.origin)
        assert r.values[cell] == pytest.approx(peak, rel=1e-13)
        rest = np.delete(r.values.ravel(), np.ravel_multi_index(cell, r.extents))
        assert np.abs(rest).max(initial=0.0) <= 1e-13 * peak

    @pytest.mark.parametrize("out_box", [None, "full"])
    @pytest.mark.parametrize("d, k, n", [(1, 3, 8), (1, 4, 5), (2, 3, 3), (3, 3, 2)])
    def test_split_batches(self, small_batches, d, k, n, out_box):
        f = rand_grid(58, n=n, d=d, signed=True)
        one, general, scale_ref = self.engine_fields(f.values, k, out_box)
        assert small_batches["rfftn"] > 1
        np.testing.assert_allclose(one, general, rtol=0, atol=1e-13 * scale_ref)
        assert_rec_matches_brute(f, k, out_box)
