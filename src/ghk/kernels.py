"""Hot correlation kernels: the brute-force flat sums, in numpy.

These sums are the oracles every fast route is checked against. All three
are one walk, ``_flat_blocks``, with three reductions: ``gowers_sum`` adds up
every flat term, ``dual_field_sum`` and ``dual_pair_field_sum`` add each term
into an output box. Each flat term is one explicit product of the rows'
reads at one ``(x, h)``; no sum is factorised, and none turns into the shift
recursion it checks.

All kernels work on a dense stack of vertex functions embedded in one common
box and return *raw* lattice sums; callers apply the ``w``-power measure
weights. Offsets are bitmask driven: row ``r`` is read at ``x`` plus the sum
of the shift vectors whose bits are set in its mask, and reads outside the
box contribute zero.

A shift vector is made of ``L`` shifts of ``d`` coordinates. Python walks
the first ``L - 1`` (the head) in odometer order; the last shift is one numpy
block per head. The early rows, whose masks leave out the last shift, are
multiplied over their window of ``x``; the late rows over that window
widened by the last shift's range, zero outside the frame. A strided
sliding-window view of the late product, shift axes leading, times the early
product gives every term of the head at once. The windows of a chunk of
heads are computed together in numpy, so Python only slices and multiplies.

The walk skips the heads and last-shift values whose window is provably
empty, by one rule taken from the mask set (``_tight_ranges``): when two
masks differ only in bit ``i``, every coordinate of shift ``i`` lies in
``(-N, N)``. This cuts the ``u`` shifts of the pair kernel from ``4N-3`` to
``2N-1`` values per coordinate, and at k >= 2 every shift of a field on its
support or past the frame; the ranges of ``gowers_sum`` and of frame-box
fields are tight already. Each block then keeps only the last-shift values
at which some term can be nonzero, so a cut and an uncut walk build the same
blocks and give the same sums bit for bit.

Reduction order is fixed, so results are bit-reproducible run to run: the
heads in odometer order, and within a head the values of the last shift in
odometer order, each term's factors as the early product times the late
product, each in row order. ``gowers_sum`` sums each value's window and adds
these sums in sequence; the field kernels add a block's values in sequence
(``np.add.accumulate``) and then add the result into the output box. A block
is built in chunks of whole values of the last shift's first coordinate,
each checked against the memory budget before it is allocated; the running
sum carries across chunks, so the chunking changes no bit.
"""

from __future__ import annotations

import math

import numpy as np

from .budget import check_allocation, memory_budget


def _tight_ranges(masks, ranges, shape):
    """``ranges`` (step 1) with each coordinate of shift ``i`` cut to
    ``(-N, N)`` whenever two of ``masks`` differ only in bit ``i``."""
    masks = set(masks)
    d = len(shape)
    ranges = list(ranges)
    for i in range(len(ranges) // d):
        if any(m ^ (1 << i) in masks for m in masks):
            for a, n in enumerate(shape):
                r = ranges[i * d + a]
                ranges[i * d + a] = range(max(r.start, 1 - n), min(r.stop, n))
    return ranges


#: Head vectors whose windows are computed in one numpy pass.
_HEAD_CHUNK = 4096


def _product(rows, offs, lo, hi):
    # the product, in row order, of the rows read at their offsets over [lo, hi)
    out = np.ones(tuple(h - l for l, h in zip(lo, hi)))
    for row, off in zip(rows, offs):
        out *= row[tuple(slice(l + o, h + o) for l, h, o in zip(lo, hi, off))]
    return out


def _windows(a, win):
    # sliding_window_view(a, win) with the shift axes leading, built with the
    # buffer constructor: shape (a.shape - win + 1) + win
    lead = tuple(n - m + 1 for n, m in zip(a.shape, win))
    return np.ndarray(lead + tuple(win), buffer=a, strides=a.strides * 2)


def _blocks(late, early, win):
    # the terms (late shifted by each last-shift value) * early, flattened to
    # (values, *win), in chunks of whole values of the last shift's first
    # coordinate; each chunk is checked against the memory budget
    view = _windows(late, win)
    slab = math.prod(view.shape[1:])
    step = max(1, memory_budget() // (8 * slab))
    for i in range(0, len(view), step):
        part = view[i : i + step]
        check_allocation(part.size)
        yield (part * early).reshape((-1,) + win)


def _narrow(offs, lo, hi, shape):
    # per head vector, [lo, hi) cut to where every read x + off lies in the frame
    big = np.iinfo(np.intp).max
    return (
        np.maximum(lo, np.max(-offs, axis=1, initial=-big)),
        np.minimum(hi, np.min(shape - offs, axis=1, initial=big)),
    )


def _flat_blocks(rows, masks, ranges, lo, hi):
    """Yield ``(wlo, whi, blocks)`` for each head of the shift vector, in
    odometer order.

    ``ranges`` holds one range per coordinate of the flat shift vector, which
    is made of ``L = len(ranges) // d`` shifts of ``d`` coordinates each. Row
    ``r`` is read at ``x`` plus the shifts whose bits are set in
    ``masks[r]``. Python walks the head, the first ``L - 1`` shifts; the last
    shift is one numpy block, which ``blocks`` yields in chunks that fit the
    memory budget. Row ``j`` of the block holds the flat terms at the
    ``j``-th value of the last shift, in odometer order, over the window
    ``[wlo, whi)`` of ``[lo, hi)`` where every early row (one that does not
    read the last shift) stays in the frame. Each term is the product of the
    early rows, in row order, times the product of the late rows, in row
    order, which is zero where a late row leaves the frame. The block keeps
    only the values of the last shift at which some term can be nonzero.

    Heads with an empty window yield nothing, and the walk skips those that
    ``_tight_ranges`` proves empty: two rows whose masks differ only in bit
    ``i`` read ``h_i`` apart, so both stay in a frame of extent ``N`` only if
    each coordinate of ``h_i`` lies in ``(-N, N)``.
    """
    shape = rows[0].shape
    d = len(shape)
    last = len(ranges) // d - 1
    ranges = _tight_ranges(masks, ranges, shape)
    head, tail = ranges[: last * d], ranges[last * d :]
    reads = np.array([[m >> i & 1 for i in range(last)] for m in masks], dtype=np.intp)
    reads = reads.reshape(len(masks), last)
    late = [m >> last & 1 for m in masks]
    early_ix = [r for r, t in enumerate(late) if not t]
    late_ix = [r for r, t in enumerate(late) if t]
    early_rows, late_rows = [rows[r] for r in early_ix], [rows[r] for r in late_ix]
    # y = x + (last shift) runs over the output box and the last shift's range
    ylo = [l + t.start for l, t in zip(lo, tail)]
    yhi = [h + t.stop - 1 for h, t in zip(hi, tail)]
    lens = [len(r) for r in head]
    starts = np.array([r.start for r in head], dtype=np.intp)
    n_head = math.prod(lens)
    for c0 in range(0, n_head, _HEAD_CHUNK):
        ix = np.arange(c0, min(c0 + _HEAD_CHUNK, n_head))
        coords = np.array(np.unravel_index(ix, lens) if lens else (), dtype=np.intp)
        hvecs = (coords.reshape(len(lens), len(ix)).T + starts).reshape(len(ix), last, d)
        offs = np.einsum("ri,cia->cra", reads, hvecs)  # (head, row, axis)
        # x window of the early rows, y window of the late ones, and the last
        # shift's values at which some x of the one meets some y of the other
        wlo, whi = _narrow(offs[:, early_ix], lo, hi, shape)
        vlo, vhi = _narrow(offs[:, late_ix], ylo, yhi, shape)
        tlo = np.maximum([t.start for t in tail], vlo - whi + 1)
        thi = np.minimum([t.stop for t in tail], vhi - wlo)
        keep = np.all((wlo < whi) & (vlo < vhi) & (tlo < thi), axis=1)
        bounds = np.concatenate([wlo, whi, vlo, vhi, tlo, thi], axis=1)[keep].tolist()
        for b, off in zip(bounds, offs[keep].tolist()):
            wlo, whi, vlo, vhi, tlo, thi = (b[i : i + d] for i in range(0, 6 * d, d))
            win = tuple(h - l for l, h in zip(wlo, whi))
            # the late rows over y in [wlo + tlo, whi + thi - 1), zero off [vlo, vhi)
            y0 = [w + t for w, t in zip(wlo, tlo)]
            span = tuple(h + t - 1 - y for h, t, y in zip(whi, thi, y0))
            check_allocation(math.prod(span))
            late_prod = np.zeros(span)
            late_prod[tuple(slice(l - y, h - y) for l, h, y in zip(vlo, vhi, y0))] = _product(
                late_rows, [off[r] for r in late_ix], vlo, vhi
            )
            early = _product(early_rows, [off[r] for r in early_ix], wlo, whi)
            yield wlo, whi, _blocks(late_prod, early, win)


def _field(rows, masks, ranges, out_lo, out_hi):
    # adds each head's terms, summed over the last shift in order (one
    # running sum across its chunks), into its cells of the output box
    out = np.zeros(tuple(h - l for l, h in zip(out_lo, out_hi)))
    for wlo, whi, blocks in _flat_blocks(rows, masks, ranges, out_lo, out_hi):
        total = None
        for block in blocks:
            if total is not None:
                block[0] += total
            total = np.add.accumulate(block)[-1]
        out[tuple(slice(l - ol, h - ol) for l, h, ol in zip(wlo, whi, out_lo))] += total
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
    for _, _, blocks in _flat_blocks(stack, range(1 << k), ranges, (0,) * len(shape), shape):
        for block in blocks:
            flat = block.reshape(len(block), -1)
            # one window sum per value of the last shift, added up in order
            for s, sabs in zip(flat.sum(axis=1).tolist(), np.abs(flat).sum(axis=1).tolist()):
                acc += s
                accabs += sabs
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
