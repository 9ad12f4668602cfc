"""Dual-norm estimation, the regularized blend norm, and the constructive
anti-uniform decomposition.

The anti-uniform norm of ``g`` is ``sup { <g, f> : ||f||_U(k) <= 1 }``. The
supremum over a finite box is approached by monotone gradient ascent on the
scale-invariant objective ``R(f) = <g, f> / ||f||_U(k)``; any
feasible iterate certifies a lower bound, so reported values are certified
lower bounds with the best witness attached.

Two structural floors hold by construction and are re-derived in the tests:

* the initial iterate ``f0 = |g|^(s_k - 1) sign(g)``, normalized in L^p_k, is
  the exact optimizer of the plain L^p duality, so the estimate is at least
  ``||g||_s_k``;
* for ``g = D_k f`` the candidate witness ``f / ||f||_U(k)`` certifies
  ``||f||_U(k)^(2^k - 1)``; callers holding such an ``f`` can pass it through
  ``candidates``.

The decomposition solver maximizes ``<g, f>`` over the unit ball of the blend
norm ``(||f||_U^(2^k) + delta^(2^(k+1)) ||f||_p^(2^k))^(1/2^k)``. Writing
``C`` for the attained value and ``F = C^(1/(2^k-1)) f*``, first-order
stationarity of the maximizer makes ``g - D_k F`` match the closed form
``delta^(2^(k+1)) ||F||_p^(2^k - p) F^(p-1)``; the defect (in L^s_k) is the
``stationarity_residual``. In the decomposition ascent a step is accepted
only when the objective strictly increases *and* this residual does not, so
the recorded residual trail is non-increasing by construction while the
ascent stays monotone.

The blend ball is the U(k) ball plus a small L^p term: its weight
``delta^(2^(k+1))`` is 0.0039 at delta=0.5, k=2. So the first stage's
unit-U(k) witness, which maximizes nearly the same problem, joins the blend
ascent's seeds. The ascent starts from the best seed by blend objective,
hence at or above that witness, and takes a fraction of the passes it would
from the L^p-duality seed alone.

``H`` is *defined* as the residual ``g - D_k F``, making the decomposition
identity exact regardless of optimizer quality; all approximation error lands
in the norm bounds, never in the sum.

Each seed of an ascent costs one engine pass, which returns its U(k) norm
and its dual field on the frame together. The trials ``f + s d`` along a
direction are the points of a line in ``norms`` (``_ascent_line``): at
k >= 3 one engine pass each; at k=2 read off the padded spectra of ``f``
and ``d``, which are linear in the values: a trial's norm takes no
transform, a trial that passes the value test one inverse transform for
its field, and each new line one forward transform for its direction's
spectrum. The iterate's spectrum is carried from step to step, so
``dual_norm_lower`` scales its witness by one fresh engine pass.
By homogeneity the direction of steepest ascent ``g - C grad(f*)`` is the
stationarity defect, so the residual is its L^s_k norm, and an accepted
step carries it into the next iteration. The loop works on bare frame
arrays and builds grid functions only for what it returns.

The step rule is where the passes go. On the uniform ball at k=2 the power
sum along a line is an exact quartic in the step, so each line takes one
trial, at its exact maximizer (``norms._Order2Line.maximizer``), and the
directions are Polak-Ribiere+ (Nocedal and Wright, *Numerical
Optimization*, 2nd ed., sec. 5.2): the steepest direction ``r`` plus
``beta`` times the last direction, ``beta = max(0, <r, r - r_old> /
<r_old, r_old>)``. The ascent restarts on ``r`` where that sum does not
ascend or its line gains nothing, and a steepest line that gains nothing
ends it as converged. Elsewhere (the blend ball, and every k >= 3) the
first trial of every iteration after the first is the Barzilai-Borwein
step ``|df|^2 / |<df, dgrad>|`` of the last accepted pair of iterates and
directions (Barzilai and Borwein, IMA J. Numer. Anal. 8, 1988), which the
loop already holds, so it costs no pass; a rejected trial halves. Since
both rules gain unevenly, the ascent stops only after two consecutive
accepted steps each gain at most ``rel_tol`` of the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .budget import check_work, rec_gowers_work
from .exponents import exponent_triple
from .grid import (
    GridFunction, _frozen, _lp_norm, _require_finite, common_frame, embed, inner, lp_norm, scale,
)
from .norms import _ascent_line, _norm_and_dual, gowers_norm_rec

#: First trial step of the ascent; every later first trial is a
#: Barzilai-Borwein step.
STEP_INIT = 1.0
#: Factor that shrinks a rejected trial step.
BACKTRACK = 0.5
#: A trial step that shrinks to this ends the ascent as converged.
STEP_MIN = 1e-16
#: Relative gain over the objective that a trial step must exceed.
ACCEPT_SLACK = 1e-15
#: Relative rise of the stationarity residual that a gated step may not exceed.
RESIDUAL_SLACK = 1e-12
#: Relative excess of ``||phi||_p_k`` over one above which corollary5 rescales.
PNORM_SLACK = 1e-12


@dataclass(frozen=True)
class AscentOptions:
    """Knobs for the gradient ascent.

    ``max_iters`` caps the accepted steps. The ascent stops as converged after
    two consecutive accepted steps that each gain at most ``rel_tol`` times
    the objective; or, with backtracking, when a trial step shrinks to
    ``STEP_MIN``; or, with the exact line search of the uniform ball at k=2,
    when the maximizer of a steepest-ascent line gains nothing. An accepted
    step gains more than ``ACCEPT_SLACK`` times the objective, so a
    ``rel_tol`` at or below ``ACCEPT_SLACK`` turns the small-gain stop off:
    such a run, a long reference run, ends at one of the other stops or at
    ``max_iters``.
    """

    max_iters: int = 500
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not isinstance(self.max_iters, int) or self.max_iters < 1:
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol!r}")


@dataclass(slots=True)
class DualNormEstimate:
    """Certified lower bound: ``value = <g, witness>`` with unit-ball witness.

    ``iterations`` counts accepted steps and ``passes`` the seeds and trial
    steps the ascent evaluated: its engine passes at k >= 3; at k=2 the
    seeds' engine passes and the trials read off the iterate's spectrum.
    """

    value: float
    witness: GridFunction
    iterations: int
    converged: bool
    passes: int


@dataclass(slots=True)
class DecompositionResult:
    """The split ``g_normalized = D_k F + H`` plus solver diagnostics.

    ``norms`` carries the recomputed ``F_p``, ``F_U`` and ``H_s``;
    ``residual_history`` the per-accepted-iterate stationarity defect
    (non-increasing by the acceptance rule); ``diagnostics`` the
    normalization scale, bound targets and ``passes``, the evaluations of
    the whole call (both ascents' seeds and trials, counted as in
    ``DualNormEstimate.passes``, and the engine pass for ``F``).
    """

    F: GridFunction
    H: GridFunction
    C: float
    iterations: int
    stationarity_residual: float
    norms: dict
    g_normalized: GridFunction
    residual_history: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def _signed_power(values, expo):
    # |f|^expo * sign(f); exact 0 at f == 0 (continuous extension), with a
    # tiny floor under the fractional power to dodge signed-zero artifacts
    av = np.abs(values)
    out = np.where(av > 0.0, np.maximum(av, 1e-300) ** expo, 0.0)
    return out * np.sign(values)


class _UniformityBall:
    """The U(k) norm; the gradient of ``norm^(2^k) / 2^k`` is the dual field.
    A ball's ``norm_from(values, u)`` takes the cell values as a callable,
    which this ball never calls."""

    gated = False

    def __init__(self, k):
        self.k = int(k)
        self.two_k = 1 << self.k

    def norm_from(self, values, u):
        return u

    def grad_from(self, fv, dual_vals):
        return dual_vals


class _BlendBall:
    """The delta-regularized blend of the U(k) and L^p_k norms, on a lattice
    of cell measure ``cell``."""

    gated = True

    def __init__(self, k, delta, cell):
        self.k = int(k)
        self.delta = float(delta)
        self.cell = cell
        self.p = exponent_triple(self.k).p_float
        self.s = exponent_triple(self.k).s_float
        self.two_k = 1 << self.k
        self.coef = self.delta ** (2 * self.two_k)

    def norm(self, f):
        return self.norm_from(lambda: f.values, gowers_norm_rec(f, self.k))

    def norm_from(self, values, u):
        """The blend norm of the cell values that ``values()`` returns, given
        their U(k) norm ``u``."""
        pn = _lp_norm(values(), self.cell, self.p)
        return (u ** self.two_k + self.coef * pn ** self.two_k) ** (1.0 / self.two_k)

    def _p_term(self, values, pn):
        if pn <= 0.0:
            return 0.0
        return self.coef * pn ** (self.two_k - self.p) * _signed_power(
            values, self.p - 1.0
        )

    def grad_from(self, fv, dual_vals):
        return dual_vals + self._p_term(fv, _lp_norm(fv, self.cell, self.p))


def triple_norm(f, k, delta):
    """The blend norm ``(||f||_U^(2^k) + delta^(2^(k+1)) ||f||_p^(2^k))^(1/2^k)``."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return _BlendBall(k, delta, f.cell_measure).norm(f)


def _seeds(g, k, candidates):
    trip = exponent_triple(k)
    f0 = GridFunction(_frozen(_signed_power(g.values, trip.s_float - 1.0)), g.spacing, g.origin)
    return list(candidates) + [scale(f0, 1.0 / lp_norm(f0, trip.p_float))]


def _direction(gv, fv, val, dual_vals, ball):
    # g - val grad(f) at a unit-ball iterate; for the blend ball also the
    # stationarity defect g - D_k F - p-term(F) of F = val^(1/(2^k-1)) f,
    # since both terms are homogeneous of degree 2^k - 1
    grad = gv - val * ball.grad_from(fv, dual_vals)
    if not np.isfinite(grad).all():
        raise ArithmeticError("non-finite ascent gradient (upstream bug)")
    return grad


def _bb_step(df, dgrad, fallback):
    """The Barzilai-Borwein step ``|df|^2 / |<df, dgrad>|`` of the last
    accepted pair of iterates and directions, or ``fallback`` where that
    ratio is undefined or not finite."""
    curv = abs(float(np.vdot(df, dgrad)))
    step = float(np.vdot(df, df)) / curv if curv > 0.0 else math.inf
    return step if 0.0 < step < math.inf else fallback


def _polak_ribiere(r, r_old, d_old):
    """``(d, steepest)``: the Polak-Ribiere+ direction ``r + beta d_old``,
    ``beta = max(0, <r, r - r_old> / <r_old, r_old>)``, or ``r`` itself,
    flagged steepest, where ``beta`` is 0 or that direction does not ascend
    (``<d, r> <= 0``)."""
    norm_old = float(np.vdot(r_old, r_old))
    beta = float(np.vdot(r, r - r_old)) / norm_old if norm_old > 0.0 else 0.0
    if beta > 0.0:
        d = r + beta * d_old
        if float(np.vdot(d, r)) > 0.0:
            return d, False
    return r, True


def _ascend(g, k, ball, opts, candidates):
    """Ascent of ``<g, f>`` over the ball norm of ``f`` from the best seed.

    The objective is strictly monotone over accepted steps; when the ball is
    gated, acceptance additionally requires the stationarity residual not to
    increase, so the recorded residual trail is non-increasing. Where the
    line has an exact maximizer and the ball is not gated (the uniform ball
    at k=2), each line's one trial is that maximizer and the directions are
    Polak-Ribiere+; elsewhere each iteration's first trial step is the
    Barzilai-Borwein step of the last accepted pair, halved while rejected.
    The ascent stops after two consecutive accepted steps that each gain at
    most ``rel_tol * |value|``. Every seed costs one
    engine pass, which gives its U(k) norm and its dual field together; the
    trials along a direction are the points of its line
    (``norms._ascent_line``), which gives a trial's norm first and its
    values and field only when the ball or the value test asks for them.
    The loop works on frame arrays. The engine's cost model for one pass on
    the frame is checked against the default work budget first. Returns
    ``(f, val, iterations, converged, history, passes)`` with ``f`` of unit
    ball norm, history entries ``(value, residual-or-None, U(k) norm)``, one
    per iterate, and ``passes`` the seeds and trials evaluated.
    """
    if not np.any(g.values):
        raise ValueError("the dual-norm objective needs a nonzero g")

    frame_lo, _, stack = common_frame([g] + _seeds(g, k, candidates))
    check_work(rec_gowers_work(stack.shape[1:], k, out_extents=stack.shape[1:]))
    gv, w, cell, two_k = stack[0], g.spacing, g.cell_measure, ball.two_k

    best = None
    for fv in stack[1:]:
        u, dual = _norm_and_dual(fv, w, ball.k)
        nrm = ball.norm_from(lambda: fv, u)
        if nrm <= 0.0:
            continue
        val = cell * float(np.sum(gv * fv)) / nrm
        if val < 0.0:
            # D_k is odd: 2^k - 1 factors
            fv, dual, val = fv * -1.0, dual * -1.0, -val
        if best is None or val > best[1]:
            best = (fv * (1.0 / nrm), val, u / nrm, dual / nrm ** (two_k - 1))
    if best is None:
        raise ValueError("no admissible starting point (all seeds degenerate)")

    f, val, u_f, dual_f = best
    grad = _direction(gv, f, val, dual_f, ball)
    resid = _lp_norm(grad, cell, ball.s) if ball.gated else None
    history = [(val, resid, u_f)]
    passes = len(stack) - 1
    line = _ascent_line(gv, f, grad, w, ball.k)

    def trial(s):
        # the point at s, unit in the ball norm, with its value, U(k) norm,
        # direction and residual, if it gains (and, gated, keeps the residual)
        nonlocal passes
        u = line.norm(s)
        passes += 1
        nrm = ball.norm_from(line.values, u)
        if nrm > 0.0:
            val_try = cell * line.numerator() / nrm
            if val_try > val * (1.0 + ACCEPT_SLACK):
                dual_try = line.field() / nrm ** (two_k - 1)
                f_try = _require_finite(line.values() * (1.0 / nrm))
                grad_try = _direction(gv, f_try, val_try, dual_try, ball)
                # the gated residual is the direction's L^s norm
                resid_try = _lp_norm(grad_try, cell, ball.s) if ball.gated else None
                if not ball.gated or not resid_try > resid * (1.0 + RESIDUAL_SLACK):
                    return nrm, f_try, val_try, u / nrm, grad_try, resid_try
        return None

    # on an ungated ball whose line has an exact maximizer (k=2): one trial
    # per line, there, along Polak-Ribiere+ directions; elsewhere
    # Barzilai-Borwein steps, halved while rejected
    exact = hasattr(line, "maximizer") and not ball.gated
    d, steepest = grad, True
    step = STEP_INIT
    iterations = 0
    small_gains = 0
    converged = False
    while iterations < opts.max_iters:
        point = None
        if exact:
            s = line.maximizer()
            if s is not None:
                point = trial(s)
            if point is None and not steepest:
                d, steepest = grad, True
                line.turn(d)
                continue
        else:
            s = step
            while s > STEP_MIN and (point := trial(s)) is None:
                s *= BACKTRACK
        if point is None:
            converged = True
            break
        nrm, f_try, val_try, u_try, grad_try, resid_try = point
        if exact:
            d, steepest = _polak_ribiere(grad_try, grad, d * (1.0 / nrm))
        else:
            d = grad_try
            step = _bb_step(f_try - f, grad_try - grad, s / BACKTRACK)
        line.move(s, nrm, f_try, d)
        prev, f, val, u_f, grad, resid = val, f_try, val_try, u_try, grad_try, resid_try
        iterations += 1
        history.append((val, resid, u_f))
        small_gains = small_gains + 1 if val - prev <= opts.rel_tol * abs(val) else 0
        if small_gains == 2:
            converged = True
            break
    return GridFunction(_frozen(f), w, frame_lo), val, iterations, converged, history, passes


def dual_norm_lower(g, k, opts=None, candidates=()):
    """Certified lower bound on the anti-uniform norm of ``g``.

    Extra ``candidates`` join the structural L^p-duality seed; the ascent
    starts from the best seed and never decreases, so the returned value is
    at least the objective of every seed.
    """
    ball, opts = _UniformityBall(k), opts or AscentOptions()
    f, _, iterations, converged, history, passes = _ascend(g, k, ball, opts, candidates)
    # at k=2 the iterate's norm was read off its carried spectrum: the
    # certificate takes a fresh pass instead
    witness = scale(f, 1.0 / (gowers_norm_rec(f, k) if ball.k == 2 else history[-1][2]))
    return DualNormEstimate(inner(g, witness), witness, iterations, converged, passes)


def triple_dual_lower(g, k, delta, opts=None, candidates=()):
    """Certified lower bound on the dual of the blend norm."""
    ball, opts = _BlendBall(k, delta, g.cell_measure), opts or AscentOptions()
    f, _, iterations, converged, _, passes = _ascend(g, k, ball, opts, candidates)
    witness = scale(f, 1.0 / ball.norm(f))
    return DualNormEstimate(inner(g, witness), witness, iterations, converged, passes)


def decompose(g, k, delta, opts=None, dual_candidates=()):
    """Split ``g`` (normalized to unit dual-norm estimate) as ``D_k F + H``.

    The returned pieces decompose ``g_normalized = g / scale`` where the
    reported ``scale`` folds in both the first-stage dual-norm estimate and a
    correction by the best plain-dual objective seen during the blend ascent
    (this keeps ``C <= 1``, hence ``||F||_U <= 1``, immune to first-stage
    ascent gaps). ``H`` is the exact residual, so ``D_k F + H`` reproduces
    ``g_normalized`` bit for bit.

    The blend ascent starts from the best of ``dual_candidates``, the L^p
    duality seed and the first stage's witness, which maximizes nearly the
    same problem: the blend ball is the U(k) ball plus a small L^p term.
    """
    delta = float(delta)
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if not np.any(g.values):
        raise ValueError("decompose needs a nonzero g")
    if float(g.values.min()) < 0.0:
        raise ValueError("decompose expects a nonnegative g")
    opts = opts or AscentOptions()
    k = int(k)
    two_k = 1 << k

    base = dual_norm_lower(g, k, opts, dual_candidates)
    g1 = scale(g, 1.0 / base.value)

    ball = _BlendBall(k, delta, g.cell_measure)
    f, val, iterations, converged, history, passes = _ascend(
        g1, k, ball, opts, tuple(dual_candidates) + (base.witness,)
    )

    # Any iterate whose plain dual objective beats the first-stage estimate
    # would push C above 1; fold the best one back into the normalization.
    # Iterates have unit blend norm, so that objective is value / U-norm.
    u_corr = max([1.0] + [vi / ui for vi, _, ui in history if ui > 0.0])

    lo, hi = f.box
    g2 = GridFunction(_frozen(embed(g1, lo, hi) * (1.0 / u_corr)), g1.spacing, lo)
    total_scale = base.value * u_corr

    C = val / u_corr
    F = scale(f, C ** (1.0 / (two_k - 1)))
    F_U, dkF = _norm_and_dual(F.values, F.spacing, k)
    # H is the float residual. Cells where the dual field and the residual
    # live in a coarser binade than g cannot round back to g exactly, so the
    # normalized input is reconstituted as the rounded sum: the decomposition
    # identity then holds bit for bit, and the reconstituted g differs from
    # g / scale by at most one ulp per cell (far inside the normalization
    # estimate gap the bound tolerances already absorb).
    Hv = g2.values - dkF
    g2 = GridFunction(_frozen(dkF + Hv), g2.spacing, g2.origin)
    H = GridFunction(_frozen(Hv), g2.spacing, g2.origin)

    # residuals are positively homogeneous in g, so dividing by the common
    # normalization preserves both values and the non-increasing order
    residual_history = [ri / u_corr for _, ri, _ in history]
    pn = lp_norm(F, ball.p)
    closed = dkF + ball._p_term(F.values, pn)
    stationarity_residual = _lp_norm(_require_finite(g2.values - closed), ball.cell, ball.s)

    norms = {
        "F_p": pn,
        "F_U": F_U,
        "H_s": lp_norm(H, ball.s),
    }
    diagnostics = {
        "scale": total_scale,
        "first_stage_value": base.value,
        "u_correction": u_corr,
        "converged": converged,
        "passes": base.passes + passes + 1,
        "delta": delta,
        "k": k,
        "bounds": {"F_p": 1.0 / delta, "F_U": 1.0, "H_s": delta},
    }
    return DecompositionResult(
        F=F,
        H=H,
        C=C,
        iterations=iterations,
        stationarity_residual=stationarity_residual,
        norms=norms,
        g_normalized=g2,
        residual_history=residual_history,
        diagnostics=diagnostics,
    )


def corollary5(phi, k, opts=None):
    """Build ``f`` with unit p-norm budget whose dual field correlates with ``phi``.

    Given nonnegative ``phi`` with ``||phi||_p_k <= 1`` (rescaled otherwise)
    and ``theta = ||phi||_U(k) > 0``, runs the decomposition against
    ``g = D_k phi / theta^(2^k - 1)`` at ``delta = theta / 2`` and returns
    ``f = delta * F``, which satisfies ``||f||_p_k <= 1`` and
    ``<D_k f, phi> > (theta/2)^(2^k)`` up to the documented ascent slack.
    """
    if not np.any(phi.values):
        raise ValueError("corollary5 needs a nonzero phi")
    if float(phi.values.min()) < 0.0:
        raise ValueError("corollary5 expects a nonnegative phi")
    k = int(k)
    trip = exponent_triple(k)
    pnorm = lp_norm(phi, trip.p_float)
    if pnorm > 1.0 + PNORM_SLACK:
        phi = scale(phi, 1.0 / pnorm)
    check_work(rec_gowers_work(phi.extents, k, out_extents=phi.extents))
    theta, dual_phi = _norm_and_dual(phi.values, phi.spacing, k)
    if theta <= 0.0:
        raise ValueError("corollary5 needs ||phi||_U(k) > 0")
    g = scale(GridFunction(_frozen(dual_phi), phi.spacing, phi.origin), theta ** (-(1 << k) + 1))
    res = decompose(g, k, theta / 2.0, opts, dual_candidates=(phi,))
    return scale(res.F, theta / 2.0)
