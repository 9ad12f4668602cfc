"""Uniformity norms of order k, the cube inner product, and the CSG check.

Three independent evaluation routes are provided for ``||f||_U(k)``:

``gowers_norm_brute``
    The flat (k+1)-fold lattice sum over all cube shifts: the oracle.
``gowers_norm_rec``
    The shift recursion ``||f||^(2^(k+1))_U(k+1) = w^d sum_h ||f^h f||^(2^k)_U(k)``
    down to an order-2 base evaluated from padded FFT autocorrelations
    (padding ``M >= 2N`` per axis makes cyclic wraparound vanish).
``gowers_norm_spectral_u2``
    The order-2 identity ``||f||_U(2) = ||f_hat||_4`` on a transform padded to
    ``M >= 3N`` per axis, so no aliased vertex-shift offset re-enters the
    support.

All three agree to float roundoff: for whole-cell shifts the x-sums are exact,
so the discrete values coincide identically across algorithms.

The recursion here and ``dual.dual_rec`` share one engine,
``_shift_product_sum``: every order and dimension is batched the same way,
shift products that vanish are skipped, and the batches are sized from
``budget.memory_budget()``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import kernels
from .budget import brute_gowers_work, check_work, memory_budget
from .cubes import FunctionTuple
from .exponents import UniformityConstant, exponent_triple
from .grid import integral, lp_norm, fourier
from .records import CheckRecord, safe_ratio

#: Relative slack applied to inequality gates (float roundoff allowance).
INEQ_SLACK = 1e-9

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
    stack = np.broadcast_to(f.values, (1 << k,) + f.extents)
    acc, accabs = kernels.gowers_sum(np.ascontiguousarray(stack), k)
    weight = f.spacing ** ((k + 1) * f.dim)
    value_pow = _clamp_power(acc * weight, accabs * weight, f"U({k})^{1 << k}")
    return value_pow ** (1.0 / (1 << k))


def _shift_windows(rows, lo, shape):
    # strided view (b, *(2N-1), *shape) of one zero-padded copy: rows read at
    # y + h for y in the box [lo, lo + shape) and h in [-(N-1), N-1]^d, zero
    # off the frame [0, N)
    n = rows.shape[1:]
    span = tuple(s + 2 * m - 2 for s, m in zip(shape, n))
    buf = np.zeros(rows.shape[:1] + span)
    dst, src = [slice(None)], [slice(None)]
    for a, m in enumerate(n):
        start = lo[a] - (m - 1)  # frame coordinate of buffer index 0
        i0 = max(0, -start)
        i1 = max(i0, min(span[a], m - start))
        dst.append(slice(i0, i1))
        src.append(slice(i0 + start, i1 + start))
    buf[tuple(dst)] = rows[tuple(src)]
    view = rows.shape[:1] + tuple(2 * m - 1 for m in n) + tuple(shape)
    return np.ndarray(view, buffer=buf, strides=buf.strides + buf.strides[1:])


def _shift_product_sum(values, k, out_lo=None, out_shape=None):
    """Unweighted order-k shift recursion on the frame of ``values``.

    Each level peels one cube coordinate off a batch of rows: row ``g``
    becomes the ``(2N-1)^d`` products ``g . g^h``, ``h`` in ``[-(N-1), N-1]^d``
    (every larger shift gives a zero product). Without an output box the
    result is the power sum ``||f||_U(k)^(2^k) / w^((k+1)d)``, with the order-2
    base the Parseval sum of ``|F|^4`` on a transform padded to 2N per axis.
    With the box ``[out_lo, out_lo + out_shape)`` it is the dual field
    ``D_k f / w^(kd)`` there: each row also carries a weight that every peel
    multiplies by the outer factor ``g(y + h)``, and the order-2 base is the
    cubic correlation ``ifft(F F conj F)`` padded to 3N per axis; the field
    is zeroed off its order-k support. Rows whose product or weight vanishes
    are dropped. A batch holds about ``memory_budget() / 64`` padded f64 elements
    (the transform and its temporaries), and never less than one transform
    row in the base or, in a peel, the products of one row at one value of
    the first shift coordinate.
    """
    n = values.shape
    d = values.ndim
    axes = tuple(range(1, d + 1))
    expand = (slice(None),) + (None,) * d
    dual = out_shape is not None
    padded = tuple((3 if dual else 2) * m for m in n)
    limit = memory_budget() // 64
    base_rows = max(1, limit // math.prod(padded))
    row_size = math.prod(n) + (math.prod(out_shape) if dual else 0)
    # a peel batch is rows times a slab of the first shift axis; the slab is
    # the whole axis unless the products of one row alone exceed the limit
    h0, rest = 2 * n[0] - 1, row_size * math.prod(2 * m - 1 for m in n[1:])
    slab = max(1, min(h0, limit // rest))
    peel_rows = max(1, limit // (slab * rest))

    def batches(rows, wts, order):
        step = base_rows if order == 2 else peel_rows
        for s in range(0, len(rows), step):
            g = rows[s : s + step]
            w = None if wts is None else wts[s : s + step]
            if order == 2:
                yield g, w
                continue
            windows = _shift_windows(g, (0,) * d, n)
            outer = _shift_windows(g, out_lo, out_shape) if dual else None
            for t in range(0, h0, slab):
                prods = (windows[:, t : t + slab] * g[expand]).reshape((-1,) + n)
                keep = prods.reshape(len(prods), -1).any(axis=1)
                w_h = None
                if dual:
                    w_h = outer[:, t : t + slab] * w[expand]
                    w_h = w_h.reshape((-1,) + out_shape)
                    keep &= w_h.reshape(len(w_h), -1).any(axis=1)
                if not keep.all():
                    prods = prods[keep]
                    w_h = None if w_h is None else w_h[keep]
                yield from batches(prods, w_h, order - 1)

    if not dual:
        wgt = np.full(padded[-1] // 2 + 1, 2.0)
        wgt[0] = wgt[-1] = 1.0  # self-conjugate bins of the even last axis
        total = 0.0
        for g, _ in batches(values[None], None, k):
            spec = np.fft.rfftn(g, s=padded, axes=axes)
            a = spec.real * spec.real + spec.imag * spec.imag
            total += float(np.sum((a * a) @ wgt))
        return total / math.prod(padded)

    gather = (slice(None),) + np.ix_(
        *[np.arange(lo, lo + s) % p for lo, s, p in zip(out_lo, out_shape, padded)]
    )
    out = np.zeros(out_shape)
    for g, w in batches(values[None], np.ones((1,) + out_shape), k):
        spec = np.fft.rfftn(g, s=padded, axes=axes)
        z = np.fft.irfftn(spec * spec * np.conj(spec), s=padded, axes=axes)
        out += np.einsum("i...,i...->...", w, z[gather])
    for a, (lo, m) in enumerate(zip(out_lo, n)):
        # zero the cyclic aliases and roundoff off the order-k support
        # [-floor((N-1)/(k-1)), floor(k(N-1)/(k-1))]: with p_i = y + h_i in
        # [0, N), the full-cube vertex reads y + sum h_i = sum p_i - (k-1) y
        s_lo, s_hi = -((m - 1) // (k - 1)), k * (m - 1) // (k - 1) + 1
        out[(slice(None),) * a + (slice(0, max(0, s_lo - lo)),)] = 0.0
        out[(slice(None),) * a + (slice(max(0, s_hi - lo), None),)] = 0.0
    return out


def gowers_norm_rec(f, k):
    """Order-k uniformity norm by the fast shift recursion (FFT base at k=2)."""
    k = int(k)
    if k < 1:
        raise ValueError(f"gowers_norm_rec requires k >= 1, got {k}")
    if k == 1:
        return abs(integral(f))
    # the recursion accumulates squares, so the power sum is nonnegative by
    # construction and needs no clamp
    raw = _shift_product_sum(np.asarray(f.values), k)
    value_pow = raw * f.spacing ** ((k + 1) * f.dim)
    return value_pow ** (1.0 / (1 << k))


def gowers_norm_spectral_u2(f, padding_factor=3):
    """Order-2 norm as the dual-lattice L^4 norm of the padded transform."""
    if padding_factor < 3:
        raise ValueError("spectral route needs padding >= 3N per axis")
    spec = fourier(f, tuple(padding_factor * n for n in f.extents))
    return spec.lp_norm(4)


def gowers_norm(f, k, algo="rec", work_budget=None):
    """Dispatch on evaluation route: ``brute``, ``rec`` or ``spectral`` (k=2)."""
    if algo == "brute":
        return gowers_norm_brute(f, k, work_budget)
    if algo == "rec":
        return gowers_norm_rec(f, k)
    if algo == "spectral":
        if int(k) != 2:
            raise ValueError("the spectral route applies to k = 2 only")
        return gowers_norm_spectral_u2(f)
    raise ValueError(f"unknown algorithm {algo!r}")


def gowers_inner(fs, work_budget=None):
    """The cube inner product of a complete tuple over the full vertex set.

    Brute force only: ``sum_{x,h} w^((k+1)d) prod_alpha f_alpha(x + alpha.h)``.
    """
    if not isinstance(fs, FunctionTuple):
        raise TypeError("gowers_inner expects a FunctionTuple over the full cube")
    if fs.vertex_set.punctured:
        raise ValueError("gowers_inner needs the full vertex set, not the punctured one")
    k = fs.k
    lo, hi, stack = fs.stacked()
    extents = tuple(h - l for l, h in zip(lo, hi))
    check_work(brute_gowers_work(extents, k), work_budget)
    acc, _ = kernels.gowers_sum(stack, k)
    return acc * fs.spacing ** ((k + 1) * fs.dim)


def csg_gap(fs, constant=None, work_budget=None):
    """Cauchy-Schwarz-Gowers check for one tuple.

    Gates ``T_k <= prod ||f_a||_U(k) <= a^(2^k) prod ||f_a||_p_k`` with
    relative slack 1e-9; signed tuples are recorded but not gated.
    """
    t0 = time.perf_counter()
    k = fs.k
    if constant is None:
        constant = UniformityConstant(k)
    trip = exponent_triple(k)
    lhs = gowers_inner(fs, work_budget)
    unorms = [gowers_norm_rec(g, k) for g in fs]
    pnorms = [lp_norm(g, trip.p_float) for g in fs]
    rhs = float(np.prod(unorms))
    rhs2 = constant.a ** (1 << k) * float(np.prod(pnorms))
    if fs.is_nonnegative():
        passed = lhs <= rhs * (1.0 + INEQ_SLACK) and rhs <= rhs2 * (1.0 + INEQ_SLACK)
    else:
        passed = None
    lo, hi, _ = fs.stacked()
    return CheckRecord(
        name="eq1.5-csg",
        lhs=lhs,
        rhs=rhs,
        ratio=safe_ratio(lhs, rhs),
        passed=passed,
        params={
            "k": k,
            "d": fs.dim,
            "N": max(h - l for l, h in zip(lo, hi)),
            "w": fs.spacing,
        },
        extra={"rhs_lp": rhs2, "ratio_norms_lp": safe_ratio(rhs, rhs2)},
        runtime_ms=1e3 * (time.perf_counter() - t0),
    )
