"""Hot correlation kernels: the brute-force flat sums, in numpy.

These sums are the oracles every fast route is checked against, and they
dominate the toolkit's runtime. Each kernel loops over the shift vectors in
Python and vectorizes over ``x`` with numpy; results are bit-reproducible run
to run.

All kernels work on a dense stack of vertex functions embedded in one common
box and return *raw* lattice sums; callers apply the ``w``-power measure
weights. Offsets are bitmask driven: row ``alpha`` is read at
``x + sum_i bit_i(alpha) * h_i``, and reads outside the box contribute zero
(enforced by intersecting per-axis validity windows, so every slice stays
inside the box).

Reduction order is fixed: one partial sum per shift vector, accumulated in
odometer order.
"""

from __future__ import annotations

import itertools

import numpy as np


def _mask_offsets(masks, hvec, k, d):
    # hvec: flat int tuple of length k*d
    offs = {}
    for mask in masks:
        o = [0] * d
        for i in range(k):
            if mask >> i & 1:
                for a in range(d):
                    o[a] += hvec[i * d + a]
        offs[mask] = tuple(o)
    return offs


def _window(offs, shape, base_lo, base_hi):
    # the x-box inside [base_lo, base_hi) where every offset read stays in the frame
    lo = list(base_lo)
    hi = list(base_hi)
    for o in offs:
        for a, oa in enumerate(o):
            lo[a] = max(lo[a], -oa)
            hi[a] = min(hi[a], shape[a] - oa)
    if any(l >= h for l, h in zip(lo, hi)):
        return None
    return tuple(lo), tuple(hi)


def _sliced(row, off, wlo, whi):
    sl = tuple(slice(l + o, h + o) for l, h, o in zip(wlo, whi, off))
    return row[sl]


def gowers_sum(stack, k):
    """Raw correlation sum over the full cube for a ``(2^k, *box)`` stack.

    Returns ``(acc, acc_abs)`` where ``acc_abs`` accumulates the absolute
    products (the natural scale for the negative-clamp rule).
    """
    if stack.shape[0] != (1 << k):
        raise ValueError(f"stack has {stack.shape[0]} rows, expected {1 << k}")
    m, shape, d = stack.shape[0], stack.shape[1:], stack.ndim - 1
    zero = (0,) * d
    acc = 0.0
    accabs = 0.0
    ranges = [range(-(shape[a] - 1), shape[a]) for _ in range(k) for a in range(d)]
    for hvec in itertools.product(*ranges):
        offs = _mask_offsets(range(m), hvec, k, d)
        win = _window(offs.values(), shape, zero, shape)
        if win is None:
            continue
        wlo, whi = win
        prod = _sliced(stack[0], offs[0], wlo, whi).copy()
        for mask in range(1, m):
            prod *= _sliced(stack[mask], offs[mask], wlo, whi)
        acc += float(np.sum(prod))
        accabs += float(np.sum(np.abs(prod)))
    return acc, accabs


def dual_field_sum(stack, k, out_lo, out_shape):
    """Raw cubic convolution product field for a punctured ``(2^k - 1, *box)`` stack.

    ``out_lo``/``out_shape`` select the evaluation box in coordinates relative
    to the common frame; cells outside the natural support stay zero.
    """
    if stack.shape[0] != (1 << k) - 1:
        raise ValueError(f"stack has {stack.shape[0]} rows, expected {(1 << k) - 1}")
    out_lo = tuple(int(v) for v in out_lo)
    out_shape = tuple(int(v) for v in out_shape)
    shape, d = stack.shape[1:], stack.ndim - 1
    out = np.zeros(out_shape)
    out_hi = tuple(l + n for l, n in zip(out_lo, out_shape))
    ranges = [
        range(-(out_hi[a] - 1), shape[a] - out_lo[a])
        for _ in range(k)
        for a in range(d)
    ]
    masks = range(1, 1 << k)
    for hvec in itertools.product(*ranges):
        offs = _mask_offsets(masks, hvec, k, d)
        win = _window(offs.values(), shape, out_lo, out_hi)
        if win is None:
            continue
        wlo, whi = win
        prod = _sliced(stack[0], offs[1], wlo, whi).copy()
        for mask in masks:
            if mask == 1:
                continue
            prod *= _sliced(stack[mask - 1], offs[mask], wlo, whi)
        osl = tuple(slice(l - ol, h - ol) for l, h, ol in zip(wlo, whi, out_lo))
        out[osl] += prod
    return out


def dual_pair_field_sum(stack1, stack2, k, out_lo, out_shape):
    """Raw double cubic sum over two shift vectors for two punctured stacks.

    Evaluates, per output cell ``x``, the sum over ``(h, u)`` of
    ``prod_a f1_a(x + a.h) * f2_a(x + a.h + a.u)``.
    """
    if stack1.shape != stack2.shape:
        raise ValueError("the two stacks must share one common box")
    out_lo = tuple(int(v) for v in out_lo)
    out_shape = tuple(int(v) for v in out_shape)
    shape, d = stack1.shape[1:], stack1.ndim - 1
    out = np.zeros(out_shape)
    out_hi = tuple(l + n for l, n in zip(out_lo, out_shape))
    h_ranges = [
        (-(out_hi[a] - 1), shape[a] - 1 - out_lo[a]) for _ in range(k) for a in range(d)
    ]
    ranges = [range(lo, hi + 1) for lo, hi in h_ranges] + [
        range(lo - hi, hi - lo + 1) for lo, hi in h_ranges
    ]
    masks = range(1, 1 << k)
    kd = k * d
    for huvec in itertools.product(*ranges):
        hvec = huvec[:kd]
        wvec = tuple(huvec[j] + huvec[kd + j] for j in range(kd))
        offs1 = _mask_offsets(masks, hvec, k, d)
        offs2 = _mask_offsets(masks, wvec, k, d)
        win = _window(list(offs1.values()) + list(offs2.values()), shape, out_lo, out_hi)
        if win is None:
            continue
        wlo, whi = win
        prod = _sliced(stack1[0], offs1[1], wlo, whi).copy()
        for mask in masks:
            if mask != 1:
                prod *= _sliced(stack1[mask - 1], offs1[mask], wlo, whi)
        for mask in masks:
            prod *= _sliced(stack2[mask - 1], offs2[mask], wlo, whi)
        osl = tuple(slice(l - ol, h - ol) for l, h, ol in zip(wlo, whi, out_lo))
        out[osl] += prod
    return out
