import numpy as np
import pytest

from ghk import (
    AscentOptions,
    BudgetExceededError,
    corollary5,
    decompose,
    dual_norm_lower,
    dual_rec,
    from_values,
    gowers_norm_rec,
    inner,
    lp_norm,
    scale,
    shift,
    triple_dual_lower,
    triple_norm,
)
from ghk.exponents import exponent_triple
from ghk.families import random_function, unit_p_norm


def rand_grid(seed, n=8, d=1, w=0.25):
    return random_function("random-nonneg", d, n, w, seed)


class TestAscentOptions:
    def test_defaults(self):
        opts = AscentOptions()
        assert opts.max_iters == 500
        assert opts.rel_tol == 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            AscentOptions(max_iters=0)
        with pytest.raises(ValueError):
            AscentOptions(rel_tol=0)
        with pytest.raises(ValueError):
            AscentOptions(rel_tol=float("nan"))
        with pytest.raises(ValueError):
            AscentOptions(max_iters=2.5)
        with pytest.raises(TypeError):
            AscentOptions(step_init=1.0)

    def test_stop_needs_two_small_gains(self):
        # every step gains less than the whole objective, so the stop rule
        # fires at the second accepted step and not before
        g = random_function("tent", 2, 6, 0.125, 3)
        est = dual_norm_lower(g, 2, AscentOptions(rel_tol=1.0))
        assert est.converged and est.iterations == 2

    def test_barzilai_borwein_step(self):
        from ghk.antiuniform import _bb_step

        df = np.array([[1.0, 2.0], [0.0, 2.0]])
        assert _bb_step(df, -0.5 * df, 0.25) == 2.0
        assert _bb_step(df, np.zeros_like(df), 0.25) == 0.25
        assert _bb_step(df, 1e-320 * df, 0.25) == 0.25


class TestPolakRibiere:
    """The k=2 uniform-ball ascent's directions: Polak-Ribiere+, restarted on
    steepest ascent where ``beta`` is 0 or the direction does not ascend."""

    def test_conjugate_direction(self):
        from ghk.antiuniform import _polak_ribiere

        r, r_old, d_old = np.array([2.0, 1.0]), np.array([1.0, 0.0]), np.array([0.5, 0.5])
        d, steepest = _polak_ribiere(r, r_old, d_old)
        # beta = <r, r - r_old> / <r_old, r_old> = 3
        np.testing.assert_array_equal(d, r + 3.0 * d_old)
        assert not steepest

    def test_restarts_where_beta_is_not_positive(self):
        from ghk.antiuniform import _polak_ribiere

        r = np.array([0.5, 0.0])
        d, steepest = _polak_ribiere(r, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert steepest and d is r

    def test_restarts_where_the_direction_does_not_ascend(self):
        from ghk.antiuniform import _polak_ribiere

        # beta = 3, and <r + beta d_old, r> = -4
        r, r_old, d_old = np.array([2.0, 1.0]), np.array([1.0, 0.0]), np.array([-1.5, 0.0])
        assert float(np.vdot(r + 3.0 * d_old, r)) == -4.0
        d, steepest = _polak_ribiere(r, r_old, d_old)
        assert steepest and d is r


class TestDualNormLower:
    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="nonzero"):
            dual_norm_lower(from_values(np.zeros(4), 1.0), 2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_s_norm_floor(self, k):
        # the L^p-duality seed certifies at least the L^s norm
        for seed in range(8):
            g = rand_grid(seed)
            est = dual_norm_lower(g, k)
            floor = lp_norm(g, exponent_triple(k).s_float)
            assert est.value >= floor * (1 - 1e-9)

    @pytest.mark.parametrize("k", [2, 3])
    def test_witness_certificate(self, k):
        g = rand_grid(42)
        est = dual_norm_lower(g, k)
        # the reported value is exactly the recomputed pairing of the witness
        assert est.value == pytest.approx(inner(g, est.witness), rel=1e-12)
        assert gowers_norm_rec(est.witness, k) == pytest.approx(1.0, abs=1e-10)
        # the pairing never exceeds norm times value (recomputed)
        assert inner(g, est.witness) <= gowers_norm_rec(est.witness, k) * est.value * (
            1 + 1e-12
        )

    @pytest.mark.parametrize("k", [2, 3])
    def test_candidate_floor_for_dual_fields(self, k):
        # g = D_k f: the witness f / ||f||_U certifies ||f||_U^(2^k - 1)
        f = rand_grid(7)
        g = dual_rec(f, k)
        target = gowers_norm_rec(f, k) ** ((1 << k) - 1)
        est = dual_norm_lower(g, k, candidates=(f,))
        assert est.value >= target * (1 - 1e-9)

    def test_monotone_under_more_iterations(self):
        g = rand_grid(9)
        lo = dual_norm_lower(g, 2, AscentOptions(max_iters=3))
        hi = dual_norm_lower(g, 2, AscentOptions(max_iters=200))
        assert hi.value >= lo.value * (1 - 1e-12)

    def test_signed_input_allowed(self):
        g = random_function("random-signed", 1, 8, 0.25, 11)
        est = dual_norm_lower(g, 2)
        assert est.value > 0


class TestTripleNorm:
    def test_zero(self):
        assert triple_norm(from_values(np.zeros(4), 1.0), 2, 0.5) == 0.0

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            triple_norm(rand_grid(1), 2, 0.0)

    def test_term_dropping_bounds(self):
        f = rand_grid(2)
        for k in (2, 3):
            for delta in (1.0, 0.5, 0.1):
                t = triple_norm(f, k, delta)
                assert gowers_norm_rec(f, k) <= t * (1 + 1e-12)
                p = exponent_triple(k).p_float
                assert delta ** 2 * lp_norm(f, p) <= t * (1 + 1e-12)

    def test_homogeneity(self):
        f = rand_grid(3)
        for t in (-2.0, 0.5, 3.0):
            assert triple_norm(scale(f, t), 2, 0.5) == pytest.approx(
                abs(t) * triple_norm(f, 2, 0.5), rel=1e-12
            )


class TestTripleDualLower:
    def test_dominated_by_dual_norm(self):
        # the blend norm dominates the uniformity norm, so its dual value is
        # never larger; compared on matched witnesses to absorb ascent gaps
        g = rand_grid(4)
        for delta in (1.0, 0.5, 0.1):
            td = triple_dual_lower(g, 2, delta)
            du = dual_norm_lower(g, 2, candidates=(td.witness,))
            assert td.value <= du.value * (1 + 1e-8)

    def test_delta_shrinks_toward_dual_norm(self):
        g = rand_grid(5)
        du = dual_norm_lower(g, 2).value
        vals = [triple_dual_lower(g, 2, delta).value for delta in (1.0, 0.5, 0.1, 0.01)]
        # monitored trend: approaching the plain dual value from below
        assert all(v <= du * (1 + 1e-8) for v in vals)
        assert vals[-1] >= vals[0] * (1 - 1e-9)
        assert du - vals[-1] <= du - vals[0] + 1e-9

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="nonzero"):
            triple_dual_lower(from_values(np.zeros(4), 1.0), 2, 0.5)


class TestDecompose:
    def test_parameter_validation(self):
        g = rand_grid(6)
        for delta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="delta"):
                decompose(g, 2, delta)
        with pytest.raises(ValueError, match="nonzero"):
            decompose(from_values(np.zeros(4), 1.0), 2, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            decompose(from_values([-1.0, 1.0], 1.0), 2, 0.5)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("delta", [0.5, 0.25])
    def test_bounds_and_exactness(self, k, delta):
        g = rand_grid(60 + k)
        res = decompose(g, k, delta)
        assert res.norms["F_p"] <= (1 / delta) * (1 + 1e-6)
        assert res.norms["F_U"] <= 1 + 1e-6
        assert res.norms["H_s"] <= delta * (1 + 0.05)
        # bit-exact reconstruction against a fresh dual evaluation
        dk = dual_rec(res.F, k)
        assert np.array_equal(dk.values + res.H.values, res.g_normalized.values)

    def test_residual_trail_nonincreasing(self):
        for seed in (70, 71, 72):
            res = decompose(rand_grid(seed), 2, 0.5)
            hist = res.residual_history
            assert len(hist) >= 1
            for a, b in zip(hist, hist[1:]):
                assert b <= a * (1 + 1e-9)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", [75, 76, 77])
    def test_trail_ends_at_closed_form_residual(self, k, seed):
        # the ascent gates on its direction; decompose recomputes the defect
        # from the closed form g - D_k F - p-term(F)
        res = decompose(rand_grid(seed), k, 0.5)
        assert res.iterations > 0
        assert res.stationarity_residual == pytest.approx(res.residual_history[-1], rel=1e-9)

    def test_norms_recomputed(self):
        res = decompose(rand_grid(73), 2, 0.5)
        p = exponent_triple(2).p_float
        s = exponent_triple(2).s_float
        assert res.norms["F_p"] == pytest.approx(lp_norm(res.F, p), rel=1e-12)
        assert res.norms["F_U"] == pytest.approx(gowers_norm_rec(res.F, 2), rel=1e-12)
        assert res.norms["H_s"] == pytest.approx(lp_norm(res.H, s), rel=1e-12)

    def test_scale_diagnostics(self):
        g = rand_grid(74)
        res = decompose(g, 2, 0.5)
        diag = res.diagnostics
        assert diag["scale"] == pytest.approx(
            diag["first_stage_value"] * diag["u_correction"], rel=1e-12
        )
        # the normalized input differs from g / scale by at most one ulp/cell
        approx = g.values * (1.0 / diag["scale"])
        np.testing.assert_allclose(
            res.g_normalized.values, approx, rtol=1e-12, atol=1e-300
        )

    def test_near_stationary_input(self):
        # g already of dual-field form: the seed witness makes the first
        # stage exact and the residual small from the start
        phi = unit_p_norm(random_function("gaussian-bump", 1, 8, 0.25, 75), 2)
        theta = gowers_norm_rec(phi, 2)
        g = scale(dual_rec(phi, 2), theta ** -3)
        res = decompose(g, 2, 0.5, dual_candidates=(phi,))
        assert res.norms["H_s"] <= 0.5
        assert res.diagnostics["first_stage_value"] == pytest.approx(1.0, rel=1e-9)


class TestCorollary5:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError, match="nonzero"):
            corollary5(from_values(np.zeros(4), 1.0), 2)
        with pytest.raises(ValueError, match="nonnegative"):
            corollary5(from_values([-1.0], 1.0), 2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_guarantees(self, k):
        for seed in (80, 81):
            phi = unit_p_norm(rand_grid(seed), k)
            theta = gowers_norm_rec(phi, k)
            f = corollary5(phi, k)
            assert lp_norm(f, exponent_triple(k).p_float) <= 1 + 1e-6
            pairing = inner(dual_rec(f, k), phi)
            assert pairing > (theta / 2) ** (1 << k) * (1 - 0.05)

    def test_rescales_large_phi(self):
        phi = scale(unit_p_norm(rand_grid(82), 2), 3.0)  # p-norm 3
        f = corollary5(phi, 2)
        assert lp_norm(f, exponent_triple(2).p_float) <= 1 + 1e-6

    def test_translation_equivariance(self):
        phi = unit_p_norm(random_function("gaussian-bump", 1, 8, 0.25, 83), 2)
        f0 = corollary5(phi, 2)
        f5 = corollary5(shift(phi, 5), 2)
        pair0 = inner(dual_rec(f0, 2), phi)
        pair5 = inner(dual_rec(f5, 2), shift(phi, 5))
        assert pair5 == pytest.approx(pair0, rel=1e-8)

    def test_unit_indicator(self):
        # the unit indicator has unit p-norm already; theta is its order-2
        # uniformity norm (2/3 + 1/(3 N^2))^(1/4)
        phi = from_values(np.ones(8), 1.0 / 8)
        theta = gowers_norm_rec(phi, 2)
        assert theta == pytest.approx((2 / 3 + 1 / 192) ** 0.25, rel=1e-12)
        f = corollary5(phi, 2)
        assert lp_norm(f, exponent_triple(2).p_float) <= 1 + 1e-6
        assert inner(dual_rec(f, 2), phi) > (theta / 2) ** 4 * (1 - 0.05)


class TestPairingBound:
    def test_unit_ball_pairings(self):
        # every pairing of a dual field of a unit-norm function against a
        # unit-norm test function stays at most 1
        for k in (2, 3):
            for seed in range(10):
                f = rand_grid(seed + 300)
                h = rand_grid(seed + 400)
                fn = scale(f, 1.0 / gowers_norm_rec(f, k))
                hn = scale(h, 1.0 / gowers_norm_rec(h, k))
                assert inner(dual_rec(fn, k), hn) <= 1 + 1e-9


class TestEngineCalls:
    """At k >= 3 each seed and each trial step of the ascent costs one engine
    pass. At k=2 only the seeds take engine passes (and ``dual_norm_lower``'s
    witness, and ``decompose``'s ``F``): a trial is read off the iterate's
    spectrum, besides one forward transform per ascent for the first iterate
    and direction.

    On the uniform ball at k=2 each line takes one trial, at its exact
    maximizer, and one forward transform (the direction's spectrum) when an
    accepted step or a restart makes it; an accepted step takes one inverse
    transform (its field), and a trial that gains nothing ends the line. On
    the blend ball a rejected trial takes no transform, a trial that passes
    the value test one inverse transform, and an accepted step one forward
    transform."""

    @staticmethod
    def count(monkeypatch, fft_calls):
        from ghk import antiuniform, norms

        keys = ("engine", "objective", "seeds", "values", "accepted", "lines", "turns", "moves")
        calls = dict.fromkeys(keys, 0)
        outside = fft_calls.copy()  # transforms outside the engine

        def wrap(module, name, key, size=lambda out: 1):
            fn = getattr(module, name)

            def counting(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls[key] += size(out)
                return out

            monkeypatch.setattr(module, name, counting)

        engine = norms._shift_product_sum

        def counting_engine(*args, **kwargs):
            before = fft_calls.copy()
            calls["engine"] += 1
            out = engine(*args, **kwargs)
            outside.subtract(fft_calls - before)
            return out

        monkeypatch.setattr(norms, "_shift_product_sum", counting_engine)
        calls["outside"] = lambda: {name: fft_calls[name] + outside[name] for name in fft_calls}
        wrap(antiuniform, "_seeds", "seeds", len)
        # one direction per start and per trial that passes the value test
        wrap(antiuniform, "_direction", "values")
        # an accepted step takes the next direction from one of these
        wrap(antiuniform, "_bb_step", "accepted")
        wrap(antiuniform, "_polak_ribiere", "accepted")
        # an exact line search per line; a restart turns the line, and an
        # accepted step moves it (and turns it as well)
        wrap(norms._Order2Line, "maximizer", "lines")
        wrap(norms._Order2Line, "turn", "turns")
        wrap(norms._Order2Line, "move", "moves")
        calls["restarts"] = lambda: calls["turns"] - calls["moves"]
        # the ascent evaluates the ball norm once per seed and once per trial
        for ball in (antiuniform._UniformityBall, antiuniform._BlendBall):
            wrap(ball, "norm_from", "objective")
        return calls

    @pytest.mark.parametrize("family", ["random-nonneg", "tent", "indicator-box"])
    def test_dual_norm_lower(self, monkeypatch, fft_calls, family):
        calls = self.count(monkeypatch, fft_calls)
        g = random_function(family, 2, 6, 0.125, 3)
        est = dual_norm_lower(g, 2)
        assert est.iterations == calls["accepted"] == calls["moves"] > 0
        # one trial per line; every line that gains nothing restarts on
        # steepest ascent, or ends the ascent
        assert calls["objective"] - calls["seeds"] == calls["lines"]
        assert calls["lines"] - est.iterations - calls["restarts"]() in (0, 1)
        # plus one pass for the witness
        assert calls["engine"] == calls["seeds"] + 1
        assert calls["outside"]() == {
            "rfftn": 1 + est.iterations + calls["restarts"](),
            "irfftn": est.iterations,
        }

    def test_dual_norm_lower_restart(self, monkeypatch, fft_calls):
        # on this input the Polak-Ribiere+ line after the first step gains
        # nothing: the ascent restarts on steepest ascent, with one more
        # transform, and that line gains nothing either
        calls = self.count(monkeypatch, fft_calls)
        est = dual_norm_lower(random_function("indicator-box", 3, 4, 0.125, 1), 2)
        assert est.converged and est.iterations == calls["accepted"] == 1
        assert calls["restarts"]() == 1 and calls["lines"] == 3
        assert calls["objective"] - calls["seeds"] == calls["lines"]
        assert calls["outside"]() == {
            "rfftn": 2 + est.iterations,
            "irfftn": est.iterations,
        }

    @pytest.mark.parametrize("family", ["random-nonneg", "tent", "indicator-box"])
    def test_dual_norm_lower_k3(self, monkeypatch, fft_calls, family):
        calls = self.count(monkeypatch, fft_calls)
        dual_norm_lower(random_function(family, 1, 12, 0.125, 4), 3)
        assert calls["engine"] == calls["objective"]

    @pytest.mark.parametrize("family", ["random-nonneg", "tent", "indicator-box"])
    def test_decompose(self, monkeypatch, fft_calls, family):
        calls = self.count(monkeypatch, fft_calls)
        g = random_function(family, 1, 12, 0.125, 4)
        res = decompose(g, 3, 0.25)
        assert res.iterations > 0
        # plus one pass for the norm and the dual field of F
        assert calls["engine"] == calls["objective"] + 1

    @pytest.mark.parametrize("family", ["random-nonneg", "tent", "indicator-box"])
    def test_decompose_k2(self, monkeypatch, fft_calls, family):
        calls = self.count(monkeypatch, fft_calls)
        res = decompose(random_function(family, 2, 6, 0.125, 4), 2, 0.25)
        assert res.iterations > 0
        # the exact line search runs on the first stage only, one trial per
        # line; the blend ascent backtracks
        blend_trials = calls["objective"] - calls["seeds"] - calls["lines"]
        assert blend_trials >= res.iterations and calls["lines"] > 0
        # plus one pass for the first stage's witness and one for F
        assert calls["engine"] == calls["seeds"] + 2
        # two ascents, each with one start; a first-stage trial that passes
        # the value test is accepted
        trials_past_value_test = calls["values"] - 2
        assert trials_past_value_test >= calls["accepted"]
        assert calls["outside"]() == {
            "rfftn": 2 + calls["accepted"] + calls["restarts"](),
            "irfftn": trials_past_value_test,
        }


class TestPasses:
    """``passes`` reports the seeds and the trial evaluations a call took:
    at k >= 3 its engine passes, at k=2 more than its engine passes. On the
    uniform ball at k=2 a trial is a line's exact maximizer."""

    def test_dual_norm_lower(self, monkeypatch, fft_calls):
        calls = TestEngineCalls.count(monkeypatch, fft_calls)
        est = dual_norm_lower(random_function("tent", 2, 6, 0.125, 3), 2)
        assert est.passes == calls["objective"] == calls["seeds"] + calls["lines"]
        assert est.passes > calls["engine"]
        assert calls["lines"] >= est.iterations > 0

    def test_decompose(self, monkeypatch, fft_calls):
        calls = TestEngineCalls.count(monkeypatch, fft_calls)
        res = decompose(random_function("tent", 1, 12, 0.125, 4), 3, 0.25)
        assert res.diagnostics["passes"] == calls["engine"] > res.iterations

    def test_decompose_k2(self, monkeypatch, fft_calls):
        calls = TestEngineCalls.count(monkeypatch, fft_calls)
        res = decompose(random_function("tent", 2, 6, 0.125, 3), 2, 0.5)
        # plus the pass for F
        assert res.diagnostics["passes"] == calls["objective"] + 1 > calls["engine"]
        # the first stage's exact lines and the blend ascent's trials
        assert calls["lines"] > 0 and calls["objective"] - calls["seeds"] > calls["lines"]


class TestSpectralTrials:
    """The k=2 ascent's carried spectrum stays on its iterate, and an
    ``OverflowError`` of its line ends the ascent. The exact line search
    converges in fewer steps than backtracking, so the uniform-ball runs
    take the inputs on which a long run takes more than 50 steps."""

    @pytest.mark.parametrize("d, n, blend", [(2, 8, False), (3, 5, False), (2, 8, True)])
    def test_no_drift_over_a_long_run(self, monkeypatch, d, n, blend):
        from ghk import antiuniform, norms

        lines = []

        class RecordedLine(norms._Order2Line):
            def __init__(self, *args):
                super().__init__(*args)
                lines.append(self)

        monkeypatch.setattr(norms, "_Order2Line", RecordedLine)
        g = random_function("tent", d, n, 0.125, 3)
        ball = antiuniform._UniformityBall(2)
        if blend:
            ball = antiuniform._BlendBall(2, 0.5, g.cell_measure)
        long_run = AscentOptions(max_iters=20000, rel_tol=1e-15)
        f, _, iterations, _, _, _ = antiuniform._ascend(g, 2, ball, long_run, ())
        assert iterations > 50
        assert lines[-1].norm(0.0) == pytest.approx(gowers_norm_rec(f, 2), rel=1e-12)

    @pytest.mark.parametrize("family", ["random-nonneg", "tent", "indicator-box"])
    def test_line_overflow_propagates(self, monkeypatch, family):
        from ghk import norms

        def overflow(self, s):
            raise OverflowError("U(2) norm outside the normal float64 range")

        monkeypatch.setattr(norms._Order2Line, "norm", overflow)
        g = random_function(family, 2, 6, 0.125, 3)
        with pytest.raises(OverflowError, match="normal float64"):
            dual_norm_lower(g, 2)
        with pytest.raises(OverflowError, match="normal float64"):
            decompose(g, 2, 0.5)


class TestBudgetGuards:
    """The shift recursion's entries refuse work over the default budget
    before their first transform."""

    @pytest.mark.parametrize(
        "entry",
        [
            lambda g: gowers_norm_rec(g, 2),
            lambda g: dual_norm_lower(g, 2),
            lambda g: triple_dual_lower(g, 2, 0.5),
            lambda g: decompose(g, 2, 0.5),
            lambda g: corollary5(g, 2),
        ],
        ids=["gowers_norm_rec", "dual_norm_lower", "triple_dual_lower", "decompose", "corollary5"],
    )
    def test_tiny_budget_raises_before_any_pass(self, monkeypatch, fft_calls, entry):
        from ghk import budget

        calls = TestEngineCalls.count(monkeypatch, fft_calls)
        monkeypatch.setattr(budget, "DEFAULT_WORK_BUDGET", 10)
        with pytest.raises(BudgetExceededError):
            entry(random_function("tent", 2, 6, 0.125, 3))
        assert calls["engine"] == 0 and not fft_calls


ASCENT_SHAPES = ((2, 8, 2), (1, 16, 3), (3, 4, 2))  # (d, N, k)
ASCENT_FAMILIES = ("random-nonneg", "tent", "gaussian-bump", "indicator-box")


class TestAscentQuality:
    """The default stop rule leaves the ascent close to where it can go."""

    @pytest.mark.parametrize("d, n, k", ASCENT_SHAPES)
    def test_tight_against_a_long_run(self, d, n, k):
        long_run = AscentOptions(max_iters=20000, rel_tol=1e-15)
        for family in ASCENT_FAMILIES:
            for seed in (3, 4):
                g = random_function(family, d, n, 0.125, seed)
                best = dual_norm_lower(g, k, long_run).value
                assert dual_norm_lower(g, k).value >= best * (1 - 1e-6)

    @pytest.mark.parametrize("d, n, k", ASCENT_SHAPES)
    def test_decompose_stops_before_max_iters(self, d, n, k):
        for family in ASCENT_FAMILIES:
            g = random_function(family, d, n, 0.125, 3)
            for delta in (0.5, 0.25):
                res = decompose(g, k, delta)
                assert res.diagnostics["converged"]
                assert res.iterations < AscentOptions().max_iters


#: (family, d, N, k, delta, seed, blend-stage passes and C when the blend
#: ascent started from the plain L^p-duality seed only)
COLD_BLEND_STAGE = (
    ("tent", 2, 6, 2, 0.5, 3, 366, 0.9980990176632081),
    ("tent", 1, 12, 3, 0.25, 4, 41, 0.999999999911362),
    ("random-nonneg", 2, 8, 2, 0.25, 3, 82, 0.9999193417472733),
    ("gaussian-bump", 3, 4, 2, 0.5, 3, 97, 0.9980726618197978),
)


class TestWarmStart:
    """The blend ascent also starts from the first stage's witness."""

    @pytest.mark.parametrize("family, d, n, k, delta, seed, cold_passes, cold_C", COLD_BLEND_STAGE)
    def test_fewer_blend_passes_and_no_worse_C(
        self, family, d, n, k, delta, seed, cold_passes, cold_C
    ):
        g = random_function(family, d, n, 0.125, seed)
        res = decompose(g, k, delta)
        # the whole call less the first stage and the one pass for F
        blend = res.diagnostics["passes"] - dual_norm_lower(g, k).passes - 1
        assert blend <= cold_passes / 2
        assert res.C >= cold_C * (1 - 2e-6)

    def test_blend_ball_does_not_stall(self):
        # from the L^p-duality seed alone this instance stops after 10 blend
        # steps at residual 6.3e-3, where every trial along the direction
        # raises the residual; 20,000 steps do not get it further
        g = random_function("tent", 2, 8, 0.125, 1833363367622783186)
        res = decompose(g, 2, 0.5)
        assert res.diagnostics["converged"]
        assert res.stationarity_residual <= 1e-3
