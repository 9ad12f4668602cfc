import numpy as np
import pytest

from ghk import (
    AscentOptions,
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
        with pytest.raises(TypeError):
            AscentOptions(step_init=1.0)


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
    """Each seed and each trial step of the ascent costs one engine pass."""

    @staticmethod
    def count(monkeypatch):
        from ghk import antiuniform, dual, norms

        calls = {"engine": 0, "objective": 0}
        engine = norms._shift_product_sum

        def counting_engine(*args, **kwargs):
            calls["engine"] += 1
            return engine(*args, **kwargs)

        monkeypatch.setattr(norms, "_shift_product_sum", counting_engine)
        monkeypatch.setattr(dual, "_shift_product_sum", counting_engine)
        # the ascent evaluates the ball norm once per seed and once per trial
        for ball in (antiuniform._UniformityBall, antiuniform._BlendBall):
            norm_from = ball.norm_from

            def counting_norm(self, fv, u, norm_from=norm_from):
                calls["objective"] += 1
                return norm_from(self, fv, u)

            monkeypatch.setattr(ball, "norm_from", counting_norm)
        return calls

    @pytest.mark.parametrize("family", ["random-nonneg", "tent", "indicator-box"])
    def test_dual_norm_lower(self, monkeypatch, family):
        calls = self.count(monkeypatch)
        g = random_function(family, 2, 6, 0.125, 3)
        est = dual_norm_lower(g, 2)
        assert est.iterations > 0
        assert calls["engine"] == calls["objective"]

    @pytest.mark.parametrize("family", ["random-nonneg", "tent", "indicator-box"])
    def test_decompose(self, monkeypatch, family):
        calls = self.count(monkeypatch)
        g = random_function(family, 1, 12, 0.125, 4)
        res = decompose(g, 3, 0.25)
        assert res.iterations > 0
        # plus one pass for the norm and the dual field of F
        assert calls["engine"] == calls["objective"] + 1
