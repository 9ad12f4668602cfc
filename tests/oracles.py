"""Independent plain-loop oracles.

Everything here is deliberately slow and dumb: pure Python loops over nested
lists with ``math.fsum`` accumulation, no numpy reductions, no shared code
with the package kernels. Small instances only.
"""

import itertools
import math


def tolist(values):
    return values.tolist()


def integral_oracle(values, w):
    flat = []

    def walk(v):
        if isinstance(v, list):
            for x in v:
                walk(x)
        else:
            flat.append(v)

    walk(tolist(values))
    return w ** values.ndim * math.fsum(flat)


def lp_oracle(values, w, p):
    flat = []

    def walk(v):
        if isinstance(v, list):
            for x in v:
                walk(x)
        else:
            flat.append(abs(v) ** p)

    walk(tolist(values))
    return (w ** values.ndim * math.fsum(flat)) ** (1.0 / p)


def inner_oracle(a, b, w):
    assert a.shape == b.shape
    terms = []
    for idx in itertools.product(*[range(n) for n in a.shape]):
        terms.append(float(a[idx]) * float(b[idx]))
    return w ** a.ndim * math.fsum(terms)


def _read(arr, idx):
    for a, n in zip(idx, arr.shape):
        if not (0 <= a < n):
            return 0.0
    return float(arr[tuple(idx)])


def gowers_sum_oracle(rows, k):
    """Sum over x and all shift vectors of the product over cube vertices.

    ``rows[alpha]`` is the function at vertex bitmask ``alpha`` (numpy array,
    common shape); raw sum, no measure weights.
    """
    shape = rows[0].shape
    d = len(shape)
    h_axes = [range(-(n - 1), n) for _ in range(k) for n in shape]
    terms = []
    for hvec in itertools.product(*h_axes):
        for x in itertools.product(*[range(n) for n in shape]):
            p = 1.0
            for mask in range(1 << k):
                idx = list(x)
                for i in range(k):
                    if mask >> i & 1:
                        for a in range(d):
                            idx[a] += hvec[i * d + a]
                v = _read(rows[mask], idx)
                if v == 0.0:
                    p = 0.0
                    break
                p *= v
            if p != 0.0:
                terms.append(p)
    return math.fsum(terms)


def dual_field_oracle(rows, k, out_lo, out_shape):
    """Raw cubic convolution product field over the requested box.

    ``rows[alpha - 1]`` is the function at punctured vertex ``alpha``. Cell
    ``x`` adds up ``prod_alpha f_alpha(x + alpha.h)`` over the shift vectors
    whose single-vertex reads ``p_i = x + h_i`` lie in the frame: any other
    vector reads a single-vertex row off the frame, a zero factor. So the
    loops run over the points ``p_i`` of the frame.
    """
    shape = rows[0].shape
    d = len(shape)
    frame = list(itertools.product(*[range(n) for n in shape]))
    cells = {
        x: []
        for x in itertools.product(
            *[range(lo, lo + n) for lo, n in zip(out_lo, out_shape)]
        )
    }
    for x, terms in cells.items():
        for ps in itertools.product(frame, repeat=k):
            hvec = [p[a] - x[a] for p in ps for a in range(d)]
            p = 1.0
            for mask in range(1, 1 << k):
                idx = list(x)
                for i in range(k):
                    if mask >> i & 1:
                        for a in range(d):
                            idx[a] += hvec[i * d + a]
                v = _read(rows[mask - 1], idx)
                if v == 0.0:
                    p = 0.0
                    break
                p *= v
            if p != 0.0:
                terms.append(p)
    import numpy as np

    out = np.zeros(out_shape)
    for x, terms in cells.items():
        out[tuple(a - l for a, l in zip(x, out_lo))] = math.fsum(terms)
    return out


def dual_pair_oracle(rows1, rows2, k, out_lo, out_shape):
    """Raw double shift sum pairing two punctured tuples, literal evaluation.

    Cell ``x`` adds up ``prod_a f1_a(x + a.h) * f2_a(x + a.h + a.u)`` over the
    shift pairs whose single-vertex reads ``p_i = x + h_i`` and
    ``q_i = x + h_i + u_i`` lie in the frame: any other pair reads a
    single-vertex row off the frame, a zero factor. So the loops run over the
    points ``p_i`` and ``q_i`` of the frame.
    """
    shape = rows1[0].shape
    d = len(shape)
    frame = list(itertools.product(*[range(n) for n in shape]))
    cells = {
        x: []
        for x in itertools.product(
            *[range(lo, lo + n) for lo, n in zip(out_lo, out_shape)]
        )
    }
    for x, terms in cells.items():
        for ps in itertools.product(frame, repeat=k):
            hvec = [p[a] - x[a] for p in ps for a in range(d)]
            for qs in itertools.product(frame, repeat=k):
                wvec = [q[a] - x[a] for q in qs for a in range(d)]
                p = 1.0
                for mask in range(1, 1 << k):
                    idx1 = list(x)
                    idx2 = list(x)
                    for i in range(k):
                        if mask >> i & 1:
                            for a in range(d):
                                idx1[a] += hvec[i * d + a]
                                idx2[a] += wvec[i * d + a]
                    v1 = _read(rows1[mask - 1], idx1)
                    if v1 == 0.0:
                        p = 0.0
                        break
                    v2 = _read(rows2[mask - 1], idx2)
                    if v2 == 0.0:
                        p = 0.0
                        break
                    p *= v1 * v2
                if p != 0.0:
                    terms.append(p)
    import numpy as np

    out = np.zeros(out_shape)
    for x, terms in cells.items():
        out[tuple(a - l for a, l in zip(x, out_lo))] = math.fsum(terms)
    return out


def autocorrelation_oracle(values, w, shift):
    """``w^d sum_x f(x) f(x + shift)`` by plain loops with zero extension."""
    terms = []
    for x in itertools.product(*[range(n) for n in values.shape]):
        a = float(values[x])
        if a == 0.0:
            continue
        idx = [c + s for c, s in zip(x, shift)]
        terms.append(a * _read(values, idx))
    return w ** values.ndim * math.fsum(terms)
