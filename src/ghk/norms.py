"""Uniformity norms of order k, the cube inner product, and the CSG check.

Three independent evaluation routes are provided for ``||f||_U(k)``:

``gowers_norm_brute``
    The flat (k+1)-fold lattice sum over all cube shifts: the oracle.
``gowers_norm_rec``
    The shift recursion ``||f||^(2^(k+1))_U(k+1) = w^d sum_h ||f^h f||^(2^k)_U(k)``
    down to an order-2 base evaluated from padded FFT autocorrelations
    (padding ``M >= 2N`` per axis makes cyclic wraparound vanish), on ``f``
    rescaled by a power of two so that the power sums neither overflow nor
    underflow. ``f^(-h) f`` is ``f^h f`` translated, with the same norm, so
    the first level sums the ``h`` from the centre of the shift axis on and
    counts each ``h != 0`` twice.
``gowers_norm_spectral_u2``
    The order-2 identity ``||f||_U(2) = ||f_hat||_4`` on a transform padded to
    ``3N`` per axis, so no aliased vertex-shift offset re-enters the
    support.

All three agree to float roundoff: for whole-cell shifts the x-sums are exact,
so the discrete values coincide identically across algorithms. Each route,
and ``gowers_inner``, evaluates on its rows rescaled by powers of two
(``_unit_binade``) and scales the result back exactly, or raises
``OverflowError`` when it is not a normal float64.

The recursion here, ``gowers_inner`` and ``dual.dual_rec`` share one
engine, ``_shift_product_sum``, which peels a stack of vertex rows (one row
for an all-equal tuple, whose first peel folds each shift ``h`` with ``-h``
and so walks half the shifts): every order and dimension is batched the
same way, tuples with a vanishing row are skipped, and the batches are
sized from ``budget.memory_budget()`` at each call; what depends only on
the input shape and the output box is planned once per pair (``_plan``).
Only this module calls the engine; the others call its passes:
``_dual_unit`` for a dual field and ``_norm_and_dual``, which pads each axis
to 2N and returns the norm with the field on the frame, so the ascent in
``antiuniform`` gets both from one pass. The ascent's trials along a line
come from ``_ascent_line``: a ``_Line`` takes one such pass per trial at
k >= 3, and at k=2 an ``_Order2Line`` keeps the base spectra of the line's
point and direction and shares the engine's one-row base arithmetic
(``_base_power``, ``_base_field``).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

from . import kernels
from .budget import (
    brute_gowers_work,
    check_work,
    memory_budget,
    rec_gowers_work,
    spectral_work,
)
from .cubes import FunctionTuple
from .exponents import exponent_triple
from .grid import (
    GridFunction, _field_from, _frozen, _require_finite, _scale_back, _unit_binade, _unit_rows,
    fourier, lp_norm,
)
from .records import INEQ_SLACK, check_record, instance_params, safe_ratio

#: Clamp threshold for negative power-sum accumulations (relative to the
#: absolute-product mass); anything more negative signals a kernel bug.
NEG_CLAMP_REL = 1e-12


def _clamp_power(value_pow, scale, what):
    if value_pow >= 0.0:
        return value_pow
    floor = NEG_CLAMP_REL * max(scale, 1e-300)
    if value_pow >= -floor:
        return 0.0
    raise ArithmeticError(
        f"{what} accumulated {value_pow}, below the -{NEG_CLAMP_REL} relative "
        f"clamp window (scale {scale}); this indicates a kernel bug"
    )


def gowers_norm_brute(f, k, work_budget=None):
    """Order-k uniformity norm by the full brute-force shift sum.

    Work grows like ``N^d * (2N-1)^(kd)`` lattice visits and is refused above
    the work budget. Negative accumulations within the clamp window (pure
    float cancellation on signed inputs) are clamped to zero before the root.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"gowers_norm_brute requires k >= 1, got {k}")
    check_work(brute_gowers_work(f.extents, k), work_budget)
    values, e = _unit_binade(f.values)
    stack = np.broadcast_to(values, (1 << k,) + f.extents)
    acc, accabs = kernels.gowers_sum(np.ascontiguousarray(stack), k)
    weight = f.spacing ** ((k + 1) * f.dim)
    value_pow = _clamp_power(acc * weight, accabs * weight, f"U({k})^{1 << k}")
    return _norm_from_power(value_pow, k, e)


@functools.lru_cache(maxsize=64)
def _window_plan(n, lo, shape):
    # buffer extents, the frame's place in the buffer and in the rows, and
    # the shift extents of :func:`_shift_windows`
    span, dst, src = [], [Ellipsis], [Ellipsis]
    for a, m, s in zip(lo, n, shape):
        span.append(s + 2 * m - 2)
        start = a - (m - 1)  # frame coordinate of buffer index 0
        i0 = max(0, -start)
        i1 = max(i0, min(span[-1], m - start))
        dst.append(slice(i0, i1))
        src.append(slice(i0 + start, i1 + start))
    return tuple(span), tuple(dst), tuple(src), tuple(2 * m - 1 for m in n)


def _shift_windows(rows, lo, shape):
    # strided view (b, *(2N-1), *rest, *shape) of one zero-padded copy: rows
    # (b, *rest, *n) read at y + h for y in the box [lo, lo + shape) and h in
    # [-(N-1), N-1]^d, zero off the frame [0, N)
    lead, n = rows.shape[: -len(shape)], rows.shape[-len(shape) :]
    span, dst, src, shifts = _window_plan(n, lo, shape)
    buf = np.zeros(lead + span)
    buf[dst] = rows[src]
    st, space = buf.strides, buf.strides[len(lead) :]
    view = lead[:1] + shifts + lead[1:] + shape
    return np.ndarray(view, buffer=buf, strides=st[:1] + space + st[1 : len(lead)] + space)


def _order2_length(lo, hi, m):
    # smallest even transform length at which no cyclic alias of the order-2
    # base lands in [lo, hi): its offsets fill [-(m-1), 2m-1), so y + M must
    # pass 2m-2 for y >= lo and y - M must fall below -(m-1) for y < hi
    need = max(2 * m - 1 - lo, hi + m - 1)
    return need + need % 2


_Plan = namedtuple("_Plan", "padded wgt gather own mirror")


@functools.lru_cache(maxsize=64)
def _plan(n, lo, box):
    """What :func:`_shift_product_sum` derives from the frame extents ``n``
    and the output box ``[lo, lo + box)`` (``None``: the power sum alone),
    once per key, in read-only arrays: the base's transform lengths, the
    Hermitian weights of the last axis's bins, and for a box its gather
    index, the frame-box flag ``own`` and the :func:`_mirror_plan`."""
    dual = box is not None
    if not dual:  # the power sum pads as the frame box does: 2N
        lo, box = (0,) * len(n), n
    hi = tuple(a + s for a, s in zip(lo, box))
    padded = tuple(_order2_length(a, b, m) for a, b, m in zip(lo, hi, n))
    gather = mirror = None
    if dual:
        mirror = _mirror_plan(n, lo, box)
        if min(lo) >= 0:  # the box lies in [0, M): hi <= M by the padding
            gather = (slice(None),) + tuple(slice(a, b) for a, b in zip(lo, hi))
        else:
            gather = (slice(None),) + np.ix_(
                *[np.arange(a, b) % p for a, b, p in zip(lo, hi, padded)]
            )
            for index in gather[1:]:
                index.flags.writeable = False
    wgt = np.full(padded[-1] // 2 + 1, 2.0)
    wgt[0] = wgt[-1] = 1.0  # self-conjugate bins of the even last axis
    wgt.flags.writeable = False
    return _Plan(padded, wgt, gather, dual and box == n and not any(lo), mirror)


def _mirror_plan(n, lo, box):
    # where the mirrored term of a folded shift h puts (f . u_h)(y), y on the
    # frame: at x = y + h, as a flat index into a buffer over [-(N-1), 2N-1)
    # per axis, split into a part per shift and a part per frame cell. h = 0
    # has no mirror: its part points past the buffer.
    span = tuple(3 * m - 2 for m in n)
    strides = np.array([math.prod(span[a + 1 :]) for a in range(len(n))])
    per_shift = strides @ np.indices(tuple(2 * m - 1 for m in n)).reshape(len(n), -1)
    per_shift[len(per_shift) // 2] = math.prod(span)
    per_cell = strides @ np.indices(n).reshape(len(n), -1)
    per_shift.flags.writeable = per_cell.flags.writeable = False
    frame = (slice(None),) + tuple(slice(-a, m - a) for a, m in zip(lo, n))
    place = tuple(slice(a + m - 1, a + m - 1 + s) for a, m, s in zip(lo, n, box))
    return per_shift, per_cell, frame, span, place


def _base_power(spec, wgt):
    """``(|T|^2, sum |T|^4)`` of one-row order-2 base spectra ``T`` (tuples on
    the first axis), the sum over each tuple's spectrum with the last axis's
    bins weighted by ``wgt``: Parseval's ``||f||_U(2)^4`` times the padded
    size."""
    a = spec.real * spec.real + spec.imag * spec.imag
    return a, (a * a) @ wgt


def _base_field(cubic, plan):
    """The order-2 base field ``irfftn(cubic)`` of each tuple on the plan's box."""
    return np.fft.irfftn(cubic, s=plan.padded, axes=tuple(range(1, cubic.ndim)))[plan.gather]


def _shift_product_sum(rows, k, lo=None, box=None):
    """Unweighted order-k shift recursion on the frame of ``rows``.

    ``rows`` stacks the vertex functions of one order-k tuple: either the
    ``2^k - 1`` members of a punctured tuple in vertex order (mask ``a`` in
    row ``a - 1``), or a single row standing for the all-equal tuple.

    Each level peels the top cube coordinate off a batch of tuples: a tuple
    becomes the ``(2N-1)^d`` tuples ``(g_b . g_(b|top)^h : 0 < b < top)``,
    ``h`` in ``[-(N-1), N-1]^d`` (every larger shift gives a zero product),
    and one row ``g`` becomes ``g . g^h``, so an all-equal tuple stays one
    row at every order; its first peel keeps about half of them (below).
    The order-2 base transforms each row once; for one row it also sums
    ``|F|^4`` over the spectrum (Parseval): without an output box the result
    is that power sum ``||f||_U(k)^(2^k) / w^((k+1)d)``, on a transform
    padded to 2N per axis.

    The first peel of one row ``f`` (k >= 3) folds ``h`` with ``-h``: it
    keeps ``h = 0`` and the lexicographically positive ``h``, the tail of
    the shift axis from its centre in C order, about half the tuples. The
    row ``f . f^(-h)`` is ``f . f^h`` translated by ``-h``, so its U(k-1)
    power sum is the same, counted twice for ``h != 0``, and its order-(k-1)
    field ``u_h`` is translated too: the shift ``-h`` adds
    ``(f . u_h)(x - h)``, which reads ``u_h`` on the frame only.

    With the box ``[lo, lo + box)``, the frame or the field's order-k support
    (``dual._resolve_out_box``), the result is the pair ``(field, power)``:
    the field is the dual field ``D_k / w^(kd)`` there, and ``power`` the
    power sum above for one row, ``None`` for a general tuple. Each tuple
    also carries a weight on the box that every peel multiplies by the outer
    factor ``g_top(y + h)``, and the base adds the cubic correlation
    ``irfft(F_1 F_2 conj(F_3))`` (``F |F|^2`` for one row), on a transform
    padded only as far as the box needs: 2N on the frame, about 3N on the
    support at k=2. A folded tuple carries its first-peel shift and its
    weight without the top factor ``f(y + h)``: the base multiplies that
    factor in for the direct term, and scatters the mirrored term, taken on
    the frame, to ``x = y + h`` (``np.bincount`` on planned indices).

    Tuples with a vanishing row or weight are dropped; in the dual mode a
    tuple dropped for its weight has a zero product as well, because both
    boxes contain the frame, which keeps the power sum exact. A batch holds
    about ``memory_budget() / 64`` padded f64 elements (the transform and
    its temporaries), and never less than one tuple in the base or, in a
    peel, the products of one tuple at one value of the first shift
    coordinate: a peel batch is tuples times a slab of the first shift axis,
    the whole axis unless one tuple's products exceed the limit.
    """
    n = rows.shape[1:]
    d = len(n)
    axes = tuple(range(1, d + 1))
    expand = (slice(None),) + (None,) * d
    at = (slice(None),) * (d + 1)
    dual = box is not None
    plan = _plan(n, lo, box)
    shifts = tuple(2 * m - 1 for m in n)
    h0, centre = shifts[0], math.prod(shifts) // 2  # centre: the flat index of h = 0
    # children of one tuple per value of the first shift coordinate
    per = math.prod(shifts[1:])
    limit = memory_budget() // 64  # padded f64 elements per batch
    out = math.prod(box) if dual else 0

    def batches(g, w, hs, order):
        # g: (tuples, r, *n); w: (tuples, *box), or None: every tuple weighs
        # one (the top call); hs: each tuple's folded first-peel shift (flat
        # index), or None: not folded
        r = g.shape[1]
        if order == 2:
            step = max(1, limit // (r * math.prod(plan.padded)))
        else:
            # a peel keeps m rows: the rows beta < top (rows [0, m)) times the
            # rows beta|top shifted (windows [1, top] of the rows from the top
            # row on); one row g stays one row, g times its own window
            top, m = r // 2, max(r // 2, 1)
            low, high = slice(0, m), slice(min(r - 1, 1), None)
            rest = (m * math.prod(n) + out) * per
            slab = max(1, min(h0, limit // rest))
            step = max(1, limit // (slab * rest))
        fold = hs is None and r == 1
        for s in range(0, len(g), step):
            gs = g[s : s + step]
            ws = None if w is None else w[s : s + step]
            hss = None if hs is None else hs[s : s + step]
            if order == 2:
                yield gs, ws, hss
                continue
            # (tuples, *(2N-1), rows from the top on, *n)
            windows = _shift_windows(gs[:, top:], (0,) * d, n)
            outer = None
            if dual and not fold:
                outer = windows[at + (0,)] if plan.own else _shift_windows(gs[:, top], lo, box)
            shifted, lower = windows[at + (high,)], gs[expand + (low,)]
            first = h0 // 2 if fold else 0
            for t in range(first, h0, slab):
                end = min(t + slab, h0)
                prods = (shifted[:, t:end] * lower).reshape((-1,) + lower.shape[d + 1 :])
                hs_h = None
                if fold:  # one tuple: its children from h = 0 on
                    cut = per // 2 if t == first else 0
                    prods, hs_h = prods[cut:], np.arange(t * per + cut, end * per)
                elif hss is not None:
                    hs_h = np.repeat(hss, (end - t) * per)
                rows_nz = prods.reshape(prods.shape[:2] + (-1,)).any(axis=2)
                keep = np.logical_and.reduce(rows_nz, axis=1)
                w_h = None
                if outer is not None:
                    w_h = outer[:, t:end]
                    w_h = (w_h if ws is None else w_h * ws[expand]).reshape((-1,) + box)
                    keep &= w_h.reshape(len(w_h), -1).any(axis=1)
                if not keep.all():
                    prods = prods[keep]
                    w_h = None if w_h is None else w_h[keep]
                    hs_h = None if hs_h is None else hs_h[keep]
                yield from batches(prods, w_h, hs_h, order - 1)

    total = 0.0
    field = np.zeros(box) if dual else None
    mirrors = dual and len(rows) == 1 and k >= 3
    if mirrors:
        per_shift, per_cell, frame, span, place = plan.mirror
        size = math.prod(span)
        mirrored = np.zeros(size)
        # the top factor f(y + h) on the box, per shift
        top_factor = _shift_windows(rows, lo, box)[0]
    for g, w, hs in batches(rows[None], None, None, k):
        spec = np.fft.rfftn(g.reshape((-1,) + n), s=plan.padded, axes=axes)
        if g.shape[1] == 1:
            a, sums = _base_power(spec, plan.wgt)
            if hs is None:
                total += float(np.sum(sums))
            else:  # h != 0 stands for -h too
                total += float(sums.reshape(len(g), -1).sum(axis=1) @ (2.0 - (hs == centre)))
            if not dual:
                continue
            cubic = spec * a
        else:
            spec = spec.reshape(g.shape[:2] + spec.shape[1:])
            cubic = spec[:, 0] * spec[:, 1] * spec[:, 2].conj()
        z = _base_field(cubic, plan)
        if hs is None:
            field += z[0] if w is None else np.einsum("i...,i...->...", w, z)
            continue
        direct, back = top_factor[np.unravel_index(hs, shifts)], z[frame] * rows[0]
        if w is not None:
            direct *= w
            back *= w[frame]
        field += np.einsum("i...,i...->...", direct, z)
        where = (per_shift[hs][:, None] + per_cell).reshape(-1)
        mirrored += np.bincount(where, back.reshape(-1), size)[:size]
    if mirrors:
        field += mirrored.reshape(span)[place]
    power = total / math.prod(plan.padded) if len(rows) == 1 else None
    return (field, power) if dual else power


def _dual_unit(stack, k, lo, box, work_budget=None):
    """``(field, e)``: D_k / w^(kd) of a punctured stack (vertex order) on the
    box ``[lo, lo + box)`` of its frame, evaluated on its rows rescaled by
    powers of two, ``e`` summing the exponents of all its factors.

    An all-equal stack goes to the engine as one row. The engine's cost model
    is checked against ``work_budget`` before its first transform.
    """
    rows, e = _unit_rows(stack)
    if (rows[1:] == rows[0]).all():
        rows = rows[:1]
    check_work(rec_gowers_work(stack.shape[1:], k, min(len(rows), 3), box), work_budget)
    return _shift_product_sum(rows, k, lo, box)[0], e


def _norm_from_power(value_pow, k, e):
    """``||f||_U(k)`` from the weighted power sum of ``f * 2**-e``."""
    return _scale_back(value_pow ** (1.0 / (1 << k)), e, f"U({k}) norm")


def gowers_norm_rec(f, k, work_budget=None):
    """Order-k uniformity norm by the fast shift recursion (FFT base at k=2).

    Evaluated on ``f`` rescaled by a power of two, so any norm that is a
    normal float64 comes back finite and correctly scaled; one that is not
    raises ``OverflowError``. The cost model ``budget.rec_gowers_work`` is
    checked against ``work_budget`` first.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"gowers_norm_rec requires k >= 1, got {k}")
    check_work(rec_gowers_work(f.extents, k), work_budget)
    values, e = _unit_binade(f.values)
    if k == 1:
        # |integral(f)|, summed on the rescaled values
        return _scale_back(abs(f.cell_measure * float(np.sum(values))), e, "U(1) norm")
    # the recursion accumulates squares, so the power sum is nonnegative by
    # construction and needs no clamp
    power = _shift_product_sum(values[None], k) * f.spacing ** ((k + 1) * f.dim)
    return _norm_from_power(power, k, e)


def _norm_and_dual(values, spacing, k):
    """``(||f||_U(k), D_k f on the frame)`` for frame values, from one pass:
    the field equals ``dual.dual_rec(f, k).values`` bit for bit, and the norm
    is the power sum the pass takes from its base spectra."""
    scaled, e = _unit_binade(values)
    raw, power = _shift_product_sum(scaled[None], k, (0,) * scaled.ndim, scaled.shape)
    return (
        _norm_from_power(power * spacing ** ((k + 1) * scaled.ndim), k, e),
        _field_from(raw * spacing ** (k * scaled.ndim), k, e * ((1 << k) - 1)),
    )


class _Line:
    """The points ``f + s d`` of a line through frame values, as an order-k
    ascent on ``<g, .>`` evaluates them: :meth:`norm` sets the point that
    :meth:`numerator`, :meth:`values` and :meth:`field` read, and :meth:`move`
    carries the line to the next iterate and direction. Each point takes one
    engine pass (:func:`_norm_and_dual`); :class:`_Order2Line` takes fewer."""

    def __init__(self, g, f, d, spacing, k):
        self.g, self.f, self.d, self.spacing, self.k = g, f, d, spacing, k

    def norm(self, s):
        """``||f + s d||_U(k)``."""
        self.s, self.point = s, None
        u, self.dual = _norm_and_dual(self.values(), self.spacing, self.k)
        return u

    def values(self):
        if self.point is None:
            self.point = _require_finite(self.f + self.s * self.d)
        return self.point

    def numerator(self):
        """``<g, f + s d>`` without the cell measure."""
        return float(np.sum(self.g * self.values()))

    def field(self):
        return self.dual

    def move(self, s, nrm, f, d):
        """Carry the line to ``f``, its point at ``s`` over ``nrm``, along ``d``."""
        self.f, self.d = f, d


class _Order2Line(_Line):
    """The line at k=2, read off the spectra that a pass of
    :func:`_norm_and_dual` transforms: padded to 2N per axis, ``F`` of
    ``f * 2**-ef`` and ``D`` of ``d * 2**-ed`` (the :func:`_unit_binade`
    exponents). The spectrum is linear in the values, so a point's norm and
    numerator take no transform, its values and field (one inverse
    transform) are built only when asked for, and :meth:`move` takes one
    forward transform. Norms and fields agree with the engine's to roundoff
    and raise its ``OverflowError`` where they are not normal float64s."""

    def __init__(self, g, f, d, spacing):
        super().__init__(g, f, d, spacing, 2)
        n = f.shape
        self.plan = _plan(n, (0,) * len(n), n)
        self.size = math.prod(self.plan.padded)
        # the lattice weights of the power sum and of the field, as the engine's
        self.w_norm, self.w_field = spacing ** (3 * len(n)), spacing ** (2 * len(n))
        (uf, self.ef), (ud, self.ed) = _unit_binade(f), _unit_binade(d)
        spec = self._spectra(np.stack([uf, ud]))
        self.F, self.D = spec[:1], spec[1:]
        self._at = None
        self._pair()

    def _spectra(self, rows):
        return np.fft.rfftn(rows, s=self.plan.padded, axes=tuple(range(1, rows.ndim)))

    def _pair(self):
        # <g, f> and <g, d>: a point's numerator is their combination
        self.gf, self.gd = float((self.g * self.f).sum()), float((self.g * self.d).sum())

    def _point(self, s):
        # (s, T, e, |T|^2, sum |T|^4): T the spectrum of (f + s d) * 2**-e,
        # with |f + s d| < 2**(e + 1), so |T|^4 stays finite
        if self._at is None or self._at[0] != s:
            e = max(self.ef, self.ed + math.frexp(s)[1])
            spec = self.D * math.ldexp(s, self.ed - e)
            spec += self.F if e == self.ef else self.F * math.ldexp(1.0, self.ef - e)
            a, sums = _base_power(spec, self.plan.wgt)
            self._at = (s, spec, e, a, float(sums.sum()))
        return self._at

    def norm(self, s):
        """``||f + s d||_U(2)``, without a transform."""
        self.s, self.point, self.dual = s, None, None
        _, _, e, _, total = self._point(s)
        return _norm_from_power(total / self.size * self.w_norm, 2, e)

    def numerator(self):
        return self.gf + self.s * self.gd

    def field(self):
        """``D_2(f + s d)`` on the frame, from one inverse transform."""
        if self.dual is None:
            _, spec, e, a, _ = self._point(self.s)
            raw = _base_field(spec * a, self.plan)[0]
            self.dual = _field_from(raw * self.w_field, 2, 3 * e)
        return self.dual

    def move(self, s, nrm, f, d):
        # F from the point's spectrum (f's values set ef), D from one transform
        super().move(s, nrm, f, d)
        _, spec, e, _, _ = self._point(s)
        m, en = math.frexp(nrm)
        self.ef = math.frexp(float(np.abs(f).max()))[1]
        self.F = spec * math.ldexp(1.0 / m, e - en - self.ef)
        ud, self.ed = _unit_binade(d)
        self.D = self._spectra(ud[None])
        self._at = None
        self._pair()


def _ascent_line(g, f, d, spacing, k):
    """The line of an order-k ascent on ``<g, .>`` through ``f`` along ``d``."""
    return _Order2Line(g, f, d, spacing) if k == 2 else _Line(g, f, d, spacing, k)


def gowers_norm_spectral_u2(f, work_budget=None):
    """Order-2 norm as the dual-lattice L^4 norm of the transform padded to 3N.

    The cost model ``budget.spectral_work`` is checked against ``work_budget``
    before the transform.
    """
    check_work(spectral_work(f.extents), work_budget)
    values, e = _unit_binade(f.values)
    unit = GridFunction(_frozen(values), f.spacing, f.origin)
    spec = fourier(unit, tuple(3 * n for n in f.extents))
    return _scale_back(spec.lp_norm(4), e, "U(2) norm")


def gowers_norm(f, k, algo="rec", work_budget=None):
    """Dispatch on evaluation route: ``brute``, ``rec`` or ``spectral`` (k=2)."""
    if algo == "brute":
        return gowers_norm_brute(f, k, work_budget)
    if algo == "rec":
        return gowers_norm_rec(f, k, work_budget)
    if algo == "spectral":
        if int(k) != 2:
            raise ValueError("the spectral route applies to k = 2 only")
        return gowers_norm_spectral_u2(f, work_budget)
    raise ValueError(f"unknown algorithm {algo!r}")


def gowers_inner(fs, work_budget=None):
    """The cube inner product of a complete tuple over the full vertex set:
    ``sum_{x,h} w^((k+1)d) prod_alpha f_alpha(x + alpha.h)``.

    Evaluated as the pairing ``<f_0, D_k(f_alpha : alpha != 0)>`` on the
    tuple's common frame, the field from the shift-product engine (the
    order-1 field is the constant ``integral(f_1)``).
    """
    if not isinstance(fs, FunctionTuple):
        raise TypeError("gowers_inner expects a FunctionTuple over the full cube")
    if fs.vertex_set.punctured:
        raise ValueError("gowers_inner needs the full vertex set, not the punctured one")
    k = fs.k
    _, _, stack = fs.stacked()
    row0, e0 = _unit_binade(stack[0])
    if k == 1:
        row1, e = _unit_binade(stack[1])
        acc = float(np.sum(row0)) * float(np.sum(row1))
    else:
        n = stack.shape[1:]
        field, e = _dual_unit(stack[1:], k, (0,) * len(n), n, work_budget)
        acc = float(np.sum(row0 * field))
    return _scale_back(acc * fs.spacing ** ((k + 1) * fs.dim), e0 + e, "cube inner product")


def csg_gap(fs, work_budget=None):
    """Cauchy-Schwarz-Gowers check for one tuple.

    Gates ``T_k <= prod ||f_a||_U(k) <= prod ||f_a||_p_k`` with relative
    slack ``records.INEQ_SLACK``; signed tuples are recorded but not gated.
    """
    k = fs.k
    trip = exponent_triple(k)
    lhs = gowers_inner(fs, work_budget)
    rhs = float(np.prod([gowers_norm_rec(g, k) for g in fs]))
    rhs2 = float(np.prod([lp_norm(g, trip.p_float) for g in fs]))
    passed = lhs <= rhs * (1.0 + INEQ_SLACK) and rhs <= rhs2 * (1.0 + INEQ_SLACK)
    params = instance_params(k, fs.dim, fs.extent, fs.spacing)
    return check_record(
        "eq1.5-csg", lhs, rhs, passed, params, signed=not fs.is_nonnegative(),
        extra={"rhs_lp": rhs2, "ratio_norms_lp": safe_ratio(rhs, rhs2)},
    )
