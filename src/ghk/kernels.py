"""Hot correlation kernels: the brute-force flat sums, in numpy.

These sums are the oracles every fast route is checked against, and they
dominate the toolkit's runtime. All three are one loop, ``_flat_terms``, with
three reductions: ``gowers_sum`` adds up each flat term, ``dual_field_sum``
and ``dual_pair_field_sum`` add each term into an output box. The loop walks
the shift vectors in Python and vectorizes over ``x`` with numpy; results are
bit-reproducible run to run.

All kernels work on a dense stack of vertex functions embedded in one common
box and return *raw* lattice sums; callers apply the ``w``-power measure
weights. Offsets are bitmask driven: row ``r`` is read at ``x`` plus the sum
of the shift vectors whose bits are set in its mask, and reads outside the
box contribute zero (enforced by intersecting per-axis validity windows, so
every slice stays inside the box).

Reduction order is fixed: one product per shift vector, its factors in row
order, accumulated in odometer order.
"""

from __future__ import annotations

import itertools

import numpy as np


def _flat_terms(rows, masks, ranges, lo, hi):
    """Yield ``(wlo, whi, prod)`` for each shift vector in odometer order.

    ``ranges`` holds one range per coordinate of the flat shift vector, which
    is made of ``len(ranges) // d`` shifts of ``d`` coordinates each. Row
    ``r`` is read at ``x`` plus the shifts whose bits are set in
    ``masks[r]``; ``prod`` is the product of the reads, in row order, over
    the window ``[wlo, whi)`` of ``[lo, hi)`` where every read stays in the
    frame. Shift vectors with an empty window yield nothing.
    """
    shape = rows[0].shape
    d = len(shape)
    # the first coordinate of each shift that a row reads
    bits = [[i * d for i in range(len(ranges) // d) if mask >> i & 1] for mask in masks]
    for hvec in itertools.product(*ranges):
        wlo, whi = list(lo), list(hi)
        offs = []
        for b in bits:
            off = [0] * d
            for j in b:
                for a in range(d):
                    off[a] += hvec[j + a]
            for a in range(d):
                wlo[a] = max(wlo[a], -off[a])
                whi[a] = min(whi[a], shape[a] - off[a])
            offs.append(off)
        if any(l >= h for l, h in zip(wlo, whi)):
            continue
        reads = (
            row[tuple(slice(l + o, h + o) for l, h, o in zip(wlo, whi, off))]
            for row, off in zip(rows, offs)
        )
        prod = next(reads).copy()
        for r in reads:
            prod *= r
        yield wlo, whi, prod


def _field(rows, masks, ranges, out_lo, out_hi):
    # adds every flat term into its cells of the output box [out_lo, out_hi)
    out = np.zeros(tuple(h - l for l, h in zip(out_lo, out_hi)))
    for wlo, whi, prod in _flat_terms(rows, masks, ranges, out_lo, out_hi):
        out[tuple(slice(l - ol, h - ol) for l, h, ol in zip(wlo, whi, out_lo))] += prod
    return out


def _out_box(out_lo, out_shape):
    out_lo = tuple(int(v) for v in out_lo)
    return out_lo, tuple(l + int(n) for l, n in zip(out_lo, out_shape))


def gowers_sum(stack, k):
    """Raw correlation sum over the full cube for a ``(2^k, *box)`` stack.

    Returns ``(acc, acc_abs)`` where ``acc_abs`` accumulates the absolute
    products (the natural scale for the negative-clamp rule).
    """
    if stack.shape[0] != (1 << k):
        raise ValueError(f"stack has {stack.shape[0]} rows, expected {1 << k}")
    shape = stack.shape[1:]
    ranges = [range(-(n - 1), n) for n in shape] * k
    acc = 0.0
    accabs = 0.0
    for _, _, prod in _flat_terms(stack, range(1 << k), ranges, (0,) * len(shape), shape):
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
    out_lo, out_hi = _out_box(out_lo, out_shape)
    shape = stack.shape[1:]
    ranges = [range(-(h - 1), n - l) for l, h, n in zip(out_lo, out_hi, shape)] * k
    return _field(stack, range(1, 1 << k), ranges, out_lo, out_hi)


def dual_pair_field_sum(stack1, stack2, k, out_lo, out_shape):
    """Raw double cubic sum over two shift vectors for two punctured stacks.

    Evaluates, per output cell ``x``, the sum over ``(h, u)`` of
    ``prod_a f1_a(x + a.h) * f2_a(x + a.h + a.u)``: a field sum over the
    ``2k`` shifts ``(h, u)`` in which ``f2_a`` has the mask ``a | a << k``.
    """
    if stack1.shape != stack2.shape:
        raise ValueError("the two stacks must share one common box")
    if stack1.shape[0] != (1 << k) - 1:
        raise ValueError(f"stacks have {stack1.shape[0]} rows, expected {(1 << k) - 1}")
    out_lo, out_hi = _out_box(out_lo, out_shape)
    shape = stack1.shape[1:]
    h_ranges = [(-(h - 1), n - 1 - l) for l, h, n in zip(out_lo, out_hi, shape)] * k
    ranges = [range(lo, hi + 1) for lo, hi in h_ranges] + [
        range(lo - hi, hi - lo + 1) for lo, hi in h_ranges
    ]
    masks = range(1, 1 << k)
    return _field(
        np.concatenate([stack1, stack2]),
        list(masks) + [a | a << k for a in masks],
        ranges,
        out_lo,
        out_hi,
    )
