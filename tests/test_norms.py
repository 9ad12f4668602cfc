import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghk
from ghk import (
    BudgetExceededError,
    FunctionTuple,
    csg_gap,
    dual_rec,
    from_values,
    gowers_inner,
    gowers_norm,
    gowers_norm_brute,
    gowers_norm_rec,
    gowers_norm_spectral_u2,
    integral,
    lp_norm,
    scale,
    shift,
)
from ghk.budget import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    fft_work,
    memory_budget,
    rec_gowers_work,
    set_memory_budget,
)
from ghk.dual import dual_brute
from ghk.exponents import exponent_triple
from ghk import kernels, norms
from ghk.families import random_function, random_tuple
from ghk.norms import _clamp_power, _norm_and_dual, _Order2Line
from ghk.records import ORACLE_TOL

from oracles import gowers_sum_oracle


def rand_grid(seed, n=8, d=1, w=0.25, signed=False):
    rng = np.random.default_rng(seed)
    lo = -1.0 if signed else 0.0
    return from_values(rng.uniform(lo, 1.0, (n,) * d), w)


class TestBruteForce:
    def test_indicator_closed_form(self):
        # the shift sum for the unit indicator evaluates exactly to
        # 2/3 + 1/(3 N^2): the symmetric triangle autocorrelation sums
        # telescope, leaving only the second-order lattice correction
        for n in (4, 8, 16):
            f = from_values(np.ones(n), 1.0 / n)
            got = gowers_norm_brute(f, 2) ** 4
            assert got == pytest.approx(2 / 3 + 1 / (3 * n * n), rel=1e-13)

    def test_zero_function(self):
        for k in (1, 2, 3):
            assert gowers_norm_brute(from_values(np.zeros(4), 1.0), k) == 0.0

    def test_homogeneity(self):
        f = rand_grid(1, signed=True)
        for t in (-2.0, 0.5, 3.0):
            assert gowers_norm_brute(scale(f, t), 2) == pytest.approx(
                abs(t) * gowers_norm_brute(f, 2), rel=1e-12
            )

    def test_k1_is_abs_integral(self):
        f = rand_grid(2, signed=True)
        assert gowers_norm_brute(f, 1) == pytest.approx(abs(integral(f)), rel=1e-12)

    def test_against_plain_oracle(self):
        f = rand_grid(3, n=5, signed=True)
        raw = gowers_sum_oracle([f.values] * 4, 2)
        want = (f.spacing ** 3 * raw) ** 0.25 if raw > 0 else 0.0
        assert gowers_norm_brute(f, 2) == pytest.approx(want, rel=1e-12)

    def test_budget_guard(self):
        f = rand_grid(4, n=8)
        with pytest.raises(BudgetExceededError):
            gowers_norm_brute(f, 3, work_budget=1000)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            gowers_norm_brute(rand_grid(5), 0)


class TestWorkBudget:
    @pytest.mark.parametrize("algo", ["brute", "rec", "spectral"])
    def test_tiny_budget_refused_first(self, monkeypatch, algo):
        # gowers_norm hands its budget to every route, and each route checks
        # it before it touches the values (rescaling comes first in each)
        def unreachable(values):
            raise AssertionError(f"the {algo} route ran before its budget check")

        monkeypatch.setattr(norms, "_unit_binade", unreachable)
        with pytest.raises(BudgetExceededError):
            gowers_norm(rand_grid(6), 2, algo=algo, work_budget=10)


class TestClampRule:
    def test_small_negative_clamped(self):
        assert _clamp_power(-1e-13, 1.0, "test") == 0.0

    def test_large_negative_raises(self):
        with pytest.raises(ArithmeticError):
            _clamp_power(-1e-6, 1.0, "test")

    def test_positive_passthrough(self):
        assert _clamp_power(0.5, 1.0, "test") == 0.5


class TestRecursive:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_brute(self, k, d):
        n = 8 if d == 1 else 5
        f = rand_grid(6, n=n, d=d)
        b = gowers_norm_brute(f, k)
        r = gowers_norm_rec(f, k)
        assert abs(r - b) <= 1e-9 * max(1.0, b)

    def test_matches_brute_signed(self):
        f = rand_grid(7, signed=True)
        for k in (2, 3):
            b = gowers_norm_brute(f, k)
            assert gowers_norm_rec(f, k) == pytest.approx(b, rel=1e-11)

    def test_k4_recursion(self):
        f = rand_grid(8, n=5)
        b = gowers_norm_brute(f, 4)
        assert gowers_norm_rec(f, 4) == pytest.approx(b, rel=1e-10)

    @pytest.mark.parametrize("k, shape", [(4, (2, 2)), (4, (2, 3)), (5, (4,))])
    def test_high_order_matches_brute(self, k, shape):
        rng = np.random.default_rng(11)
        f = from_values(rng.uniform(-1.0, 1.0, shape), 0.25)
        b = gowers_norm_brute(f, k)
        assert gowers_norm_rec(f, k) == pytest.approx(b, rel=1e-9)

    @pytest.mark.parametrize("k, d, n", [(3, 1, 8), (4, 1, 8), (3, 2, 3)])
    def test_sparse_indicator_matches_brute(self, k, d, n):
        # most shift products of a small box vanish and are dropped
        f = random_function("indicator-box", d, n, 0.25, 1)
        assert 0 < np.count_nonzero(f.values) <= f.values.size // 2
        b = gowers_norm_brute(f, k)
        assert gowers_norm_rec(f, k) == pytest.approx(b, rel=1e-9)

    @pytest.mark.parametrize("k, d, n", [(3, 1, 8), (4, 1, 4), (3, 2, 3)])
    def test_split_batches_match_brute(self, small_batches, k, d, n):
        f = rand_grid(12, n=n, d=d, signed=True)
        r = gowers_norm_rec(f, k)
        assert small_batches["rfftn"] > 1
        assert r == pytest.approx(gowers_norm_brute(f, k), rel=1e-9)

    def test_k1_base(self):
        f = rand_grid(9, signed=True)
        assert gowers_norm_rec(f, 1) == abs(integral(f))

    def test_translation_invariance_exact(self):
        f = rand_grid(10, signed=True)
        for k in (2, 3):
            assert gowers_norm_rec(shift(f, 5), k) == gowers_norm_rec(f, k)

    # fourth powers of values below ~1e-77 underflow into subnormals; keep
    # magnitudes where the power sums stay in the normal range
    sane_values = st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-50, max_value=2),
        st.floats(min_value=-2, max_value=-1e-50),
    )

    @given(st.lists(sane_values, min_size=2, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity_property(self, vals):
        f = from_values(vals, 0.5)
        base = gowers_norm_rec(f, 2)
        got = gowers_norm_rec(scale(f, -2.0), 2)
        assert got == pytest.approx(2.0 * base, rel=1e-12, abs=1e-250)

    def test_monotone_domination_by_lp(self):
        # nonnegative functions: the order-k norm never exceeds the L^p_k norm
        for seed in range(20):
            f = rand_grid(100 + seed)
            for k in (2, 3):
                p = exponent_triple(k).p_float
                assert gowers_norm_rec(f, k) <= lp_norm(f, p) * (1 + 1e-9)


class TestScaleSafeRec:
    """The rec routes evaluate on f / 2^e with 2^e near max|f| and scale back."""

    @staticmethod
    def indicator(t):
        # the indicator of [0, 4) on a frame of 8 cells, times t
        return from_values(np.where(np.arange(8) < 4, t, 0.0), 0.25)

    @pytest.mark.parametrize("t", [1e40, 1e-45, 1e200, 1e-200])
    def test_norm_scales_with_input(self, t):
        want = t * gowers_norm_rec(self.indicator(1.0), 3)
        assert gowers_norm_rec(self.indicator(t), 3) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("t", [1e200, 1e-45])
    def test_unrepresentable_dual_raises_overflow(self, t):
        # t^7 lies past the normal float64 range at both ends
        with pytest.raises(OverflowError, match="outside the normal float64 range") as err:
            dual_rec(self.indicator(t), 3)
        assert "kernel" not in str(err.value)
        with pytest.raises(OverflowError):
            _norm_and_dual(self.indicator(t).values, 0.25, 3)

    def test_dual_scales_with_input(self):
        base = dual_rec(self.indicator(1.0), 3).values
        got = dual_rec(self.indicator(1e40), 3).values
        # cells that vanish carry FFT roundoff relative to the largest cell
        np.testing.assert_allclose(got, base * 1e280, rtol=1e-14, atol=1e-14 * got.max())

    def test_order_one_sums_rescaled_values(self):
        # the plain cell sum overflows to inf; the integral is 5e307
        f = from_values(np.full(4, 1e308), 0.125)
        assert gowers_norm_rec(f, 1) == pytest.approx(5e307, rel=1e-15)
        with pytest.raises(OverflowError):
            gowers_norm_rec(from_values(np.full(4, 1e308), 1.0), 1)

    def test_unrepresentable_norm_raises_overflow(self):
        # the norm of 1e300 on cells of width 1e20 is about 1e315
        f = from_values(np.full(4, 1e300), 1e20)
        with pytest.raises(OverflowError, match="U\\(2\\) norm"):
            gowers_norm_rec(f, 2)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("j", [-60, -1, 3, 50])
    def test_power_of_two_homogeneity_is_exact(self, k, j):
        f = rand_grid(21, n=5, signed=True)
        t = 2.0 ** j
        assert gowers_norm_rec(scale(f, t), k) == t * gowers_norm_rec(f, k)
        got = dual_rec(scale(f, t), k).values
        want = np.ldexp(dual_rec(f, k).values, j * ((1 << k) - 1))
        assert np.array_equal(got, want)


class TestFusedPowerSum:
    """The dual pass also returns the power sum from its base spectra."""

    @pytest.mark.parametrize(
        "d, k, n", [(1, 2, 8), (1, 3, 6), (1, 4, 4), (2, 2, 4), (2, 3, 3), (3, 2, 3)]
    )
    @pytest.mark.parametrize("family", ["random-signed", "random-nonneg", "indicator-box"])
    def test_matches_norm_only_pass(self, d, k, n, family):
        f = random_function(family, d, n, 0.25, 5)
        u, field = _norm_and_dual(f.values, f.spacing, k)
        assert u == pytest.approx(gowers_norm_rec(f, k), rel=1e-14)
        assert np.array_equal(field, dual_rec(f, k).values)

    def test_split_batches(self, small_batches):
        f = rand_grid(22, n=4, d=2, signed=True)
        u, _ = _norm_and_dual(f.values, f.spacing, 3)
        assert small_batches["rfftn"] > 1
        assert u == pytest.approx(gowers_norm_brute(f, 3), rel=1e-12)


#: Steps along a line, from far below to far above the iterate's scale.
LINE_STEPS = (1e-9, 1e-3, 1.0, 1e3)


class TestOrder2Line:
    """At k=2 the points ``f + s d`` of a line are read off the spectra of
    ``f`` and ``d``: the norm agrees with the recursion's, the field with
    ``dual_rec``'s, the numerator with the direct sum, and all scale as the
    engine's do."""

    @staticmethod
    def line(d, n, family, seed, t=1.0):
        f = scale(random_function(family, d, n, 0.25, seed), t)
        v = scale(random_function("random-signed", d, n, 0.25, seed + 1), t)
        g = random_function("random-nonneg", d, n, 0.25, seed + 2).values
        return f, v, g, _Order2Line(g, f.values, v.values, f.spacing)

    @staticmethod
    def point(f, v, s):
        return from_values(f.values + s * v.values, f.spacing)

    @pytest.mark.parametrize("d, n", [(1, 8), (2, 5), (3, 3)])
    @pytest.mark.parametrize("family", ["random-signed", "random-nonneg", "indicator-box"])
    def test_matches_the_recursion(self, fft_calls, d, n, family):
        f, v, g, line = self.line(d, n, family, 31)
        assert fft_calls == {"rfftn": 1}  # f and d in one transform
        for s in LINE_STEPS:
            p = self.point(f, v, s)
            u, want = gowers_norm_rec(p, 2), dual_rec(p, 2).values
            fft_calls.clear()
            assert line.norm(s) == pytest.approx(u, rel=1e-12)
            assert line.numerator() == pytest.approx(np.sum(g * p.values), rel=1e-12)
            assert not fft_calls
            field = line.field()
            assert fft_calls == {"irfftn": 1}
            tol = ORACLE_TOL * max(1.0, np.abs(want).max())
            np.testing.assert_allclose(field, want, rtol=0, atol=tol)

    @pytest.mark.parametrize("d, n", [(1, 8), (2, 5), (3, 3)])
    def test_move(self, fft_calls, d, n):
        f, v, g, line = self.line(d, n, "random-nonneg", 37)
        p = self.point(f, v, 1e-3)
        nrm = gowers_norm_rec(p, 2)
        f2 = p.values * (1.0 / nrm)
        v2 = random_function("random-signed", d, n, 0.25, 39).values
        fft_calls.clear()
        line.move(1e-3, nrm, f2, v2)
        assert fft_calls == {"rfftn": 1}  # the new direction's
        for s in LINE_STEPS:
            q = from_values(f2 + s * v2, f.spacing)
            assert line.norm(s) == pytest.approx(gowers_norm_rec(q, 2), rel=1e-12)
            assert line.numerator() == pytest.approx(np.sum(g * q.values), rel=1e-12)

    @pytest.mark.parametrize("j", [600, -600])
    @pytest.mark.parametrize("d, n", [(1, 8), (2, 5)])
    def test_scaled_inputs(self, d, n, j):
        f, v, _, line = self.line(d, n, "random-nonneg", 41, 2.0**j)
        for s in LINE_STEPS:
            p = self.point(f, v, s)
            assert line.norm(s) == pytest.approx(gowers_norm_rec(p, 2), rel=1e-12)
            try:
                want = dual_rec(p, 2).values
            except OverflowError:
                with pytest.raises(OverflowError):
                    line.field()
                continue
            np.testing.assert_allclose(line.field(), want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestLineMaximizer:
    """The k=2 line's power sum is an exact quartic in the step, and its
    maximizer beats every step of a dense scan of the ratio."""

    @pytest.mark.parametrize("d, n", [(1, 8), (2, 5), (3, 3)])
    @pytest.mark.parametrize("j", [0, 300, -300])
    def test_quartic_matches_the_point(self, d, n, j):
        line = TestOrder2Line.line(d, n, "random-nonneg", 43, 2.0**j)[3]
        u, w, q = line.quartic()
        for s in (-3.0, -0.5, 1e-3, 0.25, 2.0, 40.0):
            t = math.ldexp(s, line.ed - line.ef)
            _, _, e, _, total = line._point(s)
            # both are sum wgt |spectrum|^4 of (f + s d), in the binades 2**e and 2**ef
            want = math.ldexp(total, 4 * (e - line.ef))
            assert np.polynomial.polynomial.polyval(t, q) == pytest.approx(want, rel=1e-12)
            line.norm(s)
            assert math.ldexp(u + t * w, line.ef) == pytest.approx(line.numerator(), rel=1e-12)

    @pytest.mark.parametrize("d, n", [(1, 8), (2, 5), (3, 3)])
    @pytest.mark.parametrize("family", ["random-signed", "random-nonneg", "indicator-box"])
    def test_beats_a_dense_scan(self, d, n, family):
        line = TestOrder2Line.line(d, n, family, 47)[3]
        s_best = line.maximizer()
        assert s_best is not None

        def ratio(s):
            u = line.norm(s)
            return line.numerator() / u

        best = ratio(s_best)
        scan = np.concatenate([-np.logspace(-4, 4, 400), np.logspace(-4, 4, 400)])
        assert best >= max(ratio(s) for s in scan) * (1 - 1e-12)
        # and it is stationary: a small step either way does not beat it
        h = 1e-4 * max(abs(s_best), 1e-3)
        assert best >= max(ratio(s_best - h), ratio(s_best + h)) * (1 - 1e-14)


def real_roots(c):
    """The real roots of ``sum c[i] t^i`` by ``np.roots``, sorted."""
    roots = np.roots(c[::-1])
    return np.sort(roots[np.abs(roots.imag) <= 1e-6 * np.maximum(1.0, np.abs(roots))].real)


class TestCubicRoots:
    """The closed-form cubic of the line search agrees with ``np.roots``."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_cubics(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.normal(size=4) * 10.0 ** rng.integers(-3, 4)
        got = np.sort(norms._cubic_roots(*c))
        want = real_roots(c)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize(
        "c",
        [
            (2.0, -3.0, 1.0, 0.0),  # leading coefficient zero: (t - 1)(t - 2)
            (1.0, 0.0, 1.0, 0.0),  # leading coefficient zero, no real root
            (3.0, -1.5, 0.0, 0.0),  # linear
            (-6.0, 11.0, -6.0, 1.0),  # three simple roots 1, 2, 3
            (2.0, -5.0, 4.0, -1.0),  # a double root: -(t - 1)^2 (t - 2)
            (-1.0, 3.0, -3.0, 1.0),  # a triple root: (t - 1)^3
            (1.0, 1.0, 1.0, 1.0),  # one real root, -1
            (0.0, 0.0, 0.0, 2.0),  # t^3
        ],
    )
    def test_special_cubics(self, c):
        got = np.sort(norms._cubic_roots(*c))
        want = real_roots(np.array(c))
        # a root of multiplicity m is determined only to about eps^(1/m)
        np.testing.assert_allclose(np.unique(got.round(4)), np.unique(want.round(4)))
        for t in got:
            assert abs(np.polynomial.polynomial.polyval(t, c)) <= 1e-12 * max(1.0, abs(t)) ** 3

    def test_all_zero_and_constant(self):
        assert norms._cubic_roots(0.0, 0.0, 0.0, 0.0) == []
        assert norms._cubic_roots(1.0, 0.0, 0.0, 0.0) == []


class TestEnginePlan:
    """The engine sizes its batches from the memory budget at every call."""

    @pytest.mark.parametrize("d, n", [(1, 8), (2, 3)])
    def test_budget_change_resizes_batches(self, small_batches, d, n):
        # at k=3 a peel feeds many rows to the base, so a small budget splits
        f, k = rand_grid(23, n=n, d=d, signed=True), 3
        small = memory_budget()
        set_memory_budget(DEFAULT_MEMORY_BUDGET_BYTES)
        gowers_norm_rec(f, k), dual_rec(f, k)
        set_memory_budget(small)
        small_batches.clear()
        u = gowers_norm_rec(f, k)
        assert small_batches["rfftn"] > 1
        small_batches.clear()
        field = dual_rec(f, k).values
        assert small_batches["rfftn"] > 1
        assert u == pytest.approx(gowers_norm_brute(f, k), rel=1e-9)
        want = dual_brute(FunctionTuple.constant(f, k, punctured=True)).values
        np.testing.assert_allclose(field, want, rtol=0, atol=1e-9 * np.abs(want).max())

    def test_only_norms_binds_the_engine(self):
        # the other modules call the engine's passes, never the engine itself
        # (ghk.__main__ runs the CLI on import)
        names = ["ghk"] + [
            m.name for m in pkgutil.iter_modules(ghk.__path__, "ghk.") if m.name != "ghk.__main__"
        ]
        binders = [n for n in names if hasattr(importlib.import_module(n), "_shift_product_sum")]
        assert binders == ["ghk.norms"]


def times_power(value, t, deg):
    """``value * t**deg``, or None when that is not a normal float64."""
    magnitude = np.log2(np.max(np.abs(value))) + deg * np.log2(t)
    if not (-1021.0 < magnitude < 1023.0):
        return None
    for _ in range(deg):  # every partial product lies between the two ends
        value = value * t
    return value


SCALES = [1e40, 1e-40, 1e100, 1e-100, 1e200]


class TestScaleSafeBrute:
    """The brute and spectral routes, and the cube inner product, evaluate on
    rows rescaled by powers of two and scale back exactly."""

    @staticmethod
    def ones(t):
        return from_values(np.full(4, t), 1.0)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("t", SCALES)
    def test_brute_norm_scales_with_input(self, t, k):
        got = gowers_norm_brute(self.ones(t), k)
        assert got == pytest.approx(t * gowers_norm_brute(self.ones(1.0), k), rel=1e-14, abs=0)
        assert got == pytest.approx(gowers_norm_rec(self.ones(t), k), rel=1e-13, abs=0)

    @pytest.mark.parametrize("t", SCALES)
    def test_spectral_scales_with_input(self, t):
        got = gowers_norm_spectral_u2(self.ones(t))
        assert got == pytest.approx(t * gowers_norm_spectral_u2(self.ones(1.0)), rel=1e-14, abs=0)
        assert got == pytest.approx(gowers_norm_brute(self.ones(t), 2), rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("t", SCALES)
    def test_inner_scales_or_raises(self, t, k):
        want = times_power(gowers_inner(FunctionTuple.constant(self.ones(1.0), k)), t, 1 << k)
        fs = FunctionTuple.constant(self.ones(t), k)
        if want is None:
            with pytest.raises(OverflowError, match="cube inner product"):
                gowers_inner(fs)
        else:
            assert gowers_inner(fs) == pytest.approx(want, rel=1e-13, abs=0)

    def test_inner_takes_one_exponent_per_row(self):
        # each pair of factors overflows, the product of all four does not
        rows = [self.ones(t) for t in (1e200, 1e200, 1e-200, 1e-200)]
        want = gowers_inner(FunctionTuple.constant(self.ones(1.0), 2))
        assert gowers_inner(FunctionTuple.full(2, rows)) == pytest.approx(want, rel=1e-13, abs=0)

    def test_signed_brute_matches_rec_at_large_scale(self):
        f = scale(rand_grid(4, n=5, signed=True), 1e150)
        assert gowers_norm_brute(f, 3) == pytest.approx(gowers_norm_rec(f, 3), rel=1e-12, abs=0)


class TestSpectral:
    def test_matches_brute(self):
        for seed in range(10):
            f = rand_grid(200 + seed, signed=bool(seed % 2))
            s = gowers_norm_spectral_u2(f)
            b = gowers_norm_brute(f, 2)
            assert abs(s - b) <= 1e-8 * max(1.0, b)

    def test_zero(self):
        assert gowers_norm_spectral_u2(from_values(np.zeros(4), 1.0)) == 0.0

    def test_shift_invariance(self):
        f = rand_grid(11)
        assert gowers_norm_spectral_u2(shift(f, 3)) == pytest.approx(
            gowers_norm_spectral_u2(f), rel=1e-12
        )

    def test_dispatch(self):
        f = rand_grid(13)
        assert gowers_norm(f, 2, algo="spectral") == gowers_norm_spectral_u2(f)
        with pytest.raises(ValueError):
            gowers_norm(f, 3, algo="spectral")
        with pytest.raises(ValueError):
            gowers_norm(f, 2, algo="magic")


class TestGowersInner:
    def test_all_equal_matches_norm_power(self):
        f = rand_grid(14)
        for k in (2, 3):
            t = gowers_inner(FunctionTuple.constant(f, k))
            assert t == pytest.approx(gowers_norm_brute(f, k) ** (1 << k), rel=1e-10)

    def test_zero_factor_kills(self):
        f = rand_grid(15)
        z = scale(f, 0.0)
        fs = FunctionTuple.full(2, [f, f, z, f])
        assert gowers_inner(fs) == 0.0

    def test_needs_full_tuple(self):
        f = rand_grid(16)
        with pytest.raises(ValueError, match="full"):
            gowers_inner(FunctionTuple.constant(f, 2, punctured=True))

    def test_mixed_boxes(self):
        # members on different boxes are embedded into the common frame
        f = rand_grid(17, n=4)
        g = shift(rand_grid(18, n=4), -2)
        fs = FunctionTuple.full(2, [f, g, f, g])
        raw = gowers_sum_oracle(
            [x for x in fs.stacked()[2]], 2
        )
        assert gowers_inner(fs) == pytest.approx(f.spacing ** 3 * raw, rel=1e-12)


class TestInnerPairing:
    """``gowers_inner`` pairs ``f_0`` with the engine's field of the other
    members; the brute kernel and the plain-loop oracle sum every flat term."""

    @pytest.mark.parametrize("family", ["random-signed", "random-nonneg"])
    @pytest.mark.parametrize(
        "d, k, n", [(1, 1, 5), (1, 2, 6), (1, 3, 4), (1, 4, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2)]
    )
    def test_matches_brute_kernel(self, d, k, n, family):
        fs = random_tuple(family, k, d, n, 0.25, 41)
        rows = fs.stacked()[2]
        want = kernels.gowers_sum(rows, k)[0] * 0.25 ** ((k + 1) * d)
        scale_ref = kernels.gowers_sum(np.abs(rows), k)[0] * 0.25 ** ((k + 1) * d)
        assert abs(gowers_inner(fs) - want) <= 1e-13 * scale_ref

    @pytest.mark.parametrize("d, k, n", [(1, 2, 4), (1, 3, 3), (2, 2, 2)])
    def test_matches_plain_loop_oracle(self, d, k, n):
        fs = random_tuple("random-signed", k, d, n, 0.5, 42)
        raw = gowers_sum_oracle(list(fs.stacked()[2]), k)
        assert gowers_inner(fs) == pytest.approx(0.5 ** ((k + 1) * d) * raw, rel=1e-12)

    def test_budget_guard_before_any_transform(self, small_batches):
        fs = random_tuple("random-signed", 3, 1, 6, 0.25, 43)
        with pytest.raises(BudgetExceededError):
            gowers_inner(fs, work_budget=1000)
        with pytest.raises(BudgetExceededError):
            csg_gap(fs, work_budget=1000)
        assert not small_batches


class TestCsgGap:
    def test_equality_case(self):
        f = rand_grid(19)
        for k in (2, 3):
            rec = csg_gap(FunctionTuple.constant(f, k))
            assert rec.passed
            assert rec.ratio == pytest.approx(1.0, abs=1e-9)

    def test_zero_member(self):
        f = rand_grid(20)
        fs = FunctionTuple.full(2, [f, f, f, scale(f, 0.0)])
        rec = csg_gap(fs)
        assert rec.lhs == 0.0 and rec.passed

    def test_random_sweep(self):
        for seed in range(30):
            fns = [rand_grid(1000 + 10 * seed + i) for i in range(4)]
            rec = csg_gap(FunctionTuple.full(2, fns))
            assert rec.passed, (seed, rec.lhs, rec.rhs)
            assert rec.lhs <= rec.rhs * (1 + 1e-9)
            assert rec.rhs <= rec.extra["rhs_lp"] * (1 + 1e-9)

    def test_signed_monitored_not_gated(self):
        fns = [rand_grid(2000 + i, signed=True) for i in range(4)]
        rec = csg_gap(FunctionTuple.full(2, fns))
        assert rec.passed is None


class TestThreeDimensional:
    def test_all_routes_agree(self):
        rng = np.random.default_rng(44)
        f = from_values(rng.random((3, 3, 3)), 0.5)
        b = gowers_norm_brute(f, 2)
        assert abs(gowers_norm_rec(f, 2) - b) <= 1e-9 * max(1.0, b)
        assert abs(gowers_norm_spectral_u2(f) - b) <= 1e-8 * max(1.0, b)

    def test_order_three(self):
        rng = np.random.default_rng(45)
        f = from_values(rng.random((3, 3, 3)), 0.5)
        b = gowers_norm_brute(f, 3)
        assert abs(gowers_norm_rec(f, 3) - b) <= 1e-9 * max(1.0, b)


#: (d, k, N) of the folded-shift tests: k = 3 and 4 on d = 1..3, and N = 1
FOLD_SHAPES = [
    (1, 3, 5), (1, 4, 4), (2, 3, 3), (2, 4, 2), (3, 3, 2), (3, 4, 2),
    (1, 3, 1), (2, 4, 1), (3, 3, 1),
]
FAMILIES = ["random-signed", "random-nonneg", "indicator-box"]


def general_power(values, k):
    """The power sum of the all-equal tuple through the engine's general
    path: ``2^k - 1`` equal rows, which it peels without folding any shift,
    paired with ``f`` on the frame."""
    rows = np.repeat(values[None], (1 << k) - 1, axis=0)
    field, _ = norms._shift_product_sum(rows, k, (0,) * values.ndim, values.shape)
    return float(np.sum(values * field))


class TestFoldedPowerSum:
    """The one-row engine folds each first-peel shift h with -h; the general
    path, the brute sum and a single-cell input check the fold."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d, k, n", FOLD_SHAPES)
    def test_matches_general_path_and_brute(self, d, k, n, family):
        f = random_function(family, d, n, 0.25, 51)
        got = norms._shift_product_sum(f.values[None], k)
        scale_ref = norms._shift_product_sum(np.abs(f.values)[None], k)
        assert abs(got - general_power(f.values, k)) <= 1e-13 * scale_ref
        b = gowers_norm_brute(f, k)
        assert gowers_norm_rec(f, k) == pytest.approx(b, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3), (2, 3, 1), (1, 2, 3)])
    @pytest.mark.parametrize("k", [3, 4])
    def test_uneven_frames(self, shape, k):
        # the centre of the shift axis lies inside the first slab's rows
        values = np.random.default_rng(52).uniform(-1.0, 1.0, shape)
        got = norms._shift_product_sum(values[None], k)
        assert got == pytest.approx(general_power(values, k), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [3, 4])
    def test_single_cell_counts_zero_shift_once(self, d, k):
        # only h = 0 has a nonzero product: the power sum is c^(2^k)
        values = np.zeros((4,) * d)
        values[(1,) * d] = 1.5
        got = norms._shift_product_sum(values[None], k)
        assert got == pytest.approx(1.5 ** (1 << k), rel=1e-13)

    @pytest.mark.parametrize("d, k, n", [(1, 3, 8), (1, 4, 5), (2, 3, 3), (3, 3, 2)])
    def test_split_batches(self, small_batches, d, k, n):
        f = rand_grid(53, n=n, d=d, signed=True)
        got = norms._shift_product_sum(f.values[None], k)
        assert small_batches["rfftn"] > 1
        scale_ref = norms._shift_product_sum(np.abs(f.values)[None], k)
        assert abs(got - general_power(f.values, k)) <= 1e-13 * scale_ref
        assert gowers_norm_rec(f, k) == pytest.approx(gowers_norm_brute(f, k), rel=1e-12)


def modelled_rows(extents, k, rows, out_extents=None):
    """The forward transform rows that ``budget.rec_gowers_work`` models."""
    if out_extents is None:
        return rec_gowers_work(extents, k, rows) // fft_work([2 * n for n in extents])
    lengths = [n + m for n, m in zip(extents, out_extents)]
    per_base = (rows + 1) * fft_work(lengths)
    return rec_gowers_work(extents, k, rows, out_extents) * rows // per_base


class TestRecWorkModel:
    """``budget.rec_gowers_work`` against the rows the engine transforms."""

    @staticmethod
    def count_rows(monkeypatch):
        rows = []
        rfftn = np.fft.rfftn

        def counting(a, *args, **kwargs):
            rows.append(len(a))
            return rfftn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfftn", counting)
        return rows

    @pytest.mark.parametrize("family", ["random-nonneg", "indicator-box"])
    @pytest.mark.parametrize("out_box", [None, "full"])
    @pytest.mark.parametrize("d, n", [(1, 5), (2, 3), (3, 2)])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_model_counts_transformed_rows(self, monkeypatch, k, d, n, out_box, family):
        rows = self.count_rows(monkeypatch)
        f = random_function(family, d, n, 0.25, 54)
        # on random-nonneg, which has no zero cell, the model is exact
        exact = family == "random-nonneg"
        ext = f.extents
        gowers_norm_rec(f, k)
        assert sum(rows) <= modelled_rows(ext, k, 1)
        assert sum(rows) == modelled_rows(ext, k, 1) or not exact
        rows.clear()
        field = dual_rec(f, k, out_box=out_box)
        assert sum(rows) <= modelled_rows(ext, k, 1, field.extents)
        assert sum(rows) == modelled_rows(ext, k, 1, field.extents) or not exact
        rows.clear()
        fs = random_tuple(family, k, d, n, 0.25, 55, punctured=True)
        field = dual_rec(fs, out_box=out_box)
        assert sum(rows) <= modelled_rows(ext, k, 3, field.extents)
        assert sum(rows) == modelled_rows(ext, k, 3, field.extents) or not exact
