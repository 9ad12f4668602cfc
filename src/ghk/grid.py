"""Compactly supported step functions on a uniform lattice.

A :class:`GridFunction` represents ``f: R^d -> R`` as a d-dimensional array of
cell values on a lattice of pitch ``w``: ``f(x)`` is the value of the cell
containing ``x`` and 0 outside the sampled box (zero-extension semantics).
Because every function in a computation shares one global lattice and shifts
are whole-cell shifts, Riemann sums for integrals, L^p norms and inner
products are *exact* continuum values; the only numerical error anywhere is
float roundoff.

All operations are pure: inputs are never mutated, and value arrays are
frozen (read-only) on construction, so instances are safe to share across
threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .budget import check_allocation

MAX_DIM = 3

#: Relative spacing mismatch tolerated when combining two functions.
_SPACING_RTOL = 1e-12


def _as_origin(origin, dim):
    if np.isscalar(origin):
        origin = (origin,) * dim
    origin = tuple(int(o) for o in origin)
    if len(origin) != dim:
        raise ValueError(f"origin has {len(origin)} entries for a {dim}-d grid")
    return origin


@dataclass(frozen=True, eq=False, slots=True, weakref_slot=True)
class GridFunction:
    """A real step function sampled on a uniform lattice.

    Attributes
    ----------
    values : ndarray
        Cell values, row-major, one axis per dimension (1 <= d <= 3).
    spacing : float
        Lattice pitch ``w > 0``, identical on every axis.
    origin : tuple of int
        Lattice coordinate of the first cell; cell ``j`` covers
        ``[(origin + j) * w, (origin + j + 1) * w)`` per axis.
    """

    values: np.ndarray
    spacing: float
    origin: tuple

    def __post_init__(self):
        raw = self.values
        arr = np.asarray(raw, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if not (1 <= arr.ndim <= MAX_DIM):
            raise ValueError(f"dimension must be 1..{MAX_DIM}, got {arr.ndim}")
        if any(n < 1 for n in arr.shape):
            raise ValueError(f"all extents must be >= 1, got {arr.shape}")
        check_allocation(arr.size)
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid values must be finite (no NaN/inf)")
        w = float(self.spacing)
        if not (math.isfinite(w) and w > 0.0):
            raise ValueError(f"spacing must be a positive finite real, got {w}")
        arr = np.ascontiguousarray(arr)
        if arr.flags.writeable:
            # freeze a private copy so callers keep their array writable;
            # already-frozen arrays (shared from another grid) are reused
            if isinstance(raw, np.ndarray) and np.shares_memory(arr, raw):
                arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "spacing", w)
        object.__setattr__(self, "origin", _as_origin(self.origin, arr.ndim))

    # -- geometry ----------------------------------------------------------

    @property
    def dim(self):
        return self.values.ndim

    @property
    def extents(self):
        return self.values.shape

    @property
    def box(self):
        """Half-open cell-index box ``(lo, hi)`` per axis, in lattice coords."""
        lo = self.origin
        hi = tuple(o + n for o, n in zip(self.origin, self.extents))
        return lo, hi

    @property
    def cell_measure(self):
        return self.spacing ** self.dim

    def __eq__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        return (
            self.spacing == other.spacing
            and self.origin == other.origin
            and self.extents == other.extents
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return (
            f"GridFunction(dim={self.dim}, extents={self.extents}, "
            f"spacing={self.spacing!r}, origin={self.origin})"
        )


def _frozen(arr):
    """``arr`` made read-only, so that a grid takes it without a copy.

    Only for a fresh array that nothing else holds or writes: the library's
    own temporaries, never a caller's array.
    """
    arr.flags.writeable = False
    return arr


def from_values(values, spacing=1.0, origin=0):
    """Convenience constructor accepting any array-like of cell values."""
    return GridFunction(np.asarray(values, dtype=np.float64), spacing, origin)


def _require_same_spacing(f, g):
    if abs(f.spacing - g.spacing) > _SPACING_RTOL * max(f.spacing, g.spacing):
        raise ValueError(
            f"mismatched lattice spacing: {f.spacing} vs {g.spacing}"
        )
    if f.dim != g.dim:
        raise ValueError(f"mismatched dimension: {f.dim} vs {g.dim}")


def union_box(boxes):
    """Bounding box of several ``(lo, hi)`` index boxes."""
    los, his = zip(*boxes)
    lo = tuple(min(l[a] for l in los) for a in range(len(los[0])))
    hi = tuple(max(h[a] for h in his) for a in range(len(his[0])))
    return lo, hi


def intersection_box(boxes):
    """Intersection of index boxes, or None when empty."""
    los, his = zip(*boxes)
    lo = tuple(max(l[a] for l in los) for a in range(len(los[0])))
    hi = tuple(min(h[a] for h in his) for a in range(len(his[0])))
    if any(l >= h for l, h in zip(lo, hi)):
        return None
    return lo, hi


def embed(f, lo, hi):
    """Zero-extend ``f``'s values into the index box ``[lo, hi)``.

    The box must contain ``f``'s own box. Returns a fresh writable array.
    """
    shape = tuple(h - l for l, h in zip(lo, hi))
    check_allocation(math.prod(shape))
    out = np.zeros(shape)
    sl = tuple(
        slice(o - l, o - l + n) for o, l, n in zip(f.origin, lo, f.extents)
    )
    out[sl] = f.values
    return out


def common_frame(fs):
    """Embed several same-spacing functions into their union box.

    Returns ``(lo, hi, stack)`` where ``stack[i]`` is the i-th function's
    values zero-extended to the union box.
    """
    fs = list(fs)
    for g in fs[1:]:
        _require_same_spacing(fs[0], g)
    lo, hi = union_box([f.box for f in fs])
    stack = np.stack([embed(f, lo, hi) for f in fs])
    return lo, hi, stack


# -- reductions ------------------------------------------------------------
#
# Every reduction funnels through np.sum on a C-contiguous array, which is
# pairwise summation in a fixed order: repeated evaluation is bit-identical.


def integral(f):
    """Exact integral ``w^d * sum(values)``."""
    return f.cell_measure * float(np.sum(f.values))


def lp_norm(f, p):
    """The L^p norm ``(w^d sum |f|^p)^(1/p)``; ``p = inf`` gives ``max |f|``.

    ``p`` may be an int, float or Fraction; it must satisfy ``p >= 1``.
    """
    return _lp_norm(f.values, f.cell_measure, p)


def _lp_norm(values, cell_measure, p):
    # lp_norm on bare cell values, for loops that keep arrays
    if p == math.inf:
        return float(np.max(np.abs(values))) if values.size else 0.0
    pf = float(p)
    if pf < 1.0:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    av = np.abs(values)
    with np.errstate(over="ignore"):  # an overflowing sum is redone below
        mass = cell_measure * _power_sum(av, pf)
    if not (sys.float_info.min <= mass < math.inf) and av.any():
        # the plain sum left the normal range: sum on av * 2**-e, scale back
        unit, e = _unit_binade(av)
        norm = (cell_measure * _power_sum(unit, pf)) ** (1.0 / pf)
        return _scale_back(norm, e, f"L^{p} norm")
    return mass if pf == 1.0 else mass ** (1.0 / pf)


def _power_sum(av, pf):
    # sum |f|^p over nonnegative values
    return float(np.sum(av if pf == 1.0 else av * av if pf == 2.0 else av**pf))


def _unit_binade(values):
    """``(values * 2**-e, e)``, the largest magnitude moved into [0.5, 1).

    A power-of-two scale is exact, so a homogeneous route can evaluate on this
    copy and scale back; the recursive engine commutes with it bit for bit.
    """
    e = math.frexp(float(np.abs(values).max()))[1]
    return np.ldexp(values, -e), e


def _check_pow2(top, e, what):
    """Raise ``OverflowError`` unless ``top * 2**e`` is zero or a normal float64."""
    if top and not (
        math.isfinite(top)
        and sys.float_info.min_exp <= math.frexp(top)[1] + e <= sys.float_info.max_exp
    ):
        raise OverflowError(
            f"{what} has magnitude {top!r} * 2**{e}, outside the normal float64 range"
        )


def _scale_back(value, e, what):
    """``value * 2**e``, exactly, or ``OverflowError`` if not a normal float64."""
    _check_pow2(value, e, what)
    return math.ldexp(value, e)


def inner(f, g):
    """Exact pairing ``w^d sum f*g`` over the common lattice box."""
    _require_same_spacing(f, g)
    box = intersection_box([f.box, g.box])
    if box is None:
        return 0.0
    lo, hi = box
    fsl = tuple(slice(l - o, h - o) for l, h, o in zip(lo, hi, f.origin))
    gsl = tuple(slice(l - o, h - o) for l, h, o in zip(lo, hi, g.origin))
    return f.cell_measure * float(np.sum(f.values[fsl] * g.values[gsl]))


# -- pointwise algebra -----------------------------------------------------


def shift(f, v):
    """The shifted function ``f^h(x) = f(x + h)`` for the lattice shift ``h = v*w``.

    No data is lost: the result carries origin ``origin - v`` and the same
    values, so shifting is exactly measure preserving.
    """
    if np.isscalar(v):
        v = (v,) * f.dim
    v = tuple(int(c) for c in v)
    if len(v) != f.dim:
        raise ValueError(f"shift vector has {len(v)} entries for a {f.dim}-d grid")
    new_origin = tuple(o - c for o, c in zip(f.origin, v))
    return GridFunction(f.values, f.spacing, new_origin)


def scale(f, t):
    """Pointwise scaling ``t * f``."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("scale factor must be finite")
    return GridFunction(_frozen(f.values * t), f.spacing, f.origin)


def add(f, g):
    """Pointwise sum over the union bounding box (zero-extension)."""
    _require_same_spacing(f, g)
    lo, hi = union_box([f.box, g.box])
    out = embed(f, lo, hi)
    gsl = tuple(
        slice(o - l, o - l + n) for o, l, n in zip(g.origin, lo, g.extents)
    )
    out[gsl] += g.values
    return GridFunction(_frozen(out), f.spacing, lo)


def pointwise_mul(f, g):
    """Pointwise product; supported on the intersection of the two boxes.

    An empty intersection yields a one-cell zero function at ``f``'s origin.
    """
    _require_same_spacing(f, g)
    box = intersection_box([f.box, g.box])
    if box is None:
        return GridFunction(_frozen(np.zeros((1,) * f.dim)), f.spacing, f.origin)
    lo, hi = box
    fsl = tuple(slice(l - o, h - o) for l, h, o in zip(lo, hi, f.origin))
    gsl = tuple(slice(l - o, h - o) for l, h, o in zip(lo, hi, g.origin))
    return GridFunction(_frozen(f.values[fsl] * g.values[gsl]), f.spacing, lo)


# -- Fourier transform -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Samples of ``f_hat`` on the dual lattice of a zero-padded transform.

    ``values[m]`` approximates ``f_hat(xi_m)`` at ``xi_m = m / (M*w)`` per
    axis (``m`` in DFT index order), where ``M >= N`` is the transform length.
    L^p norms on the dual lattice carry the frequency cell weight
    ``(1/(M*w))^d`` per sample.
    """

    values: np.ndarray
    spacing: float
    source_extents: tuple

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.values, dtype=np.complex128))
        arr.setflags(write=False)
        if any(m < n for m, n in zip(arr.shape, self.source_extents)):
            raise ValueError(
                f"transform length {arr.shape} below extents {self.source_extents}"
            )
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(
            self, "source_extents", tuple(int(n) for n in self.source_extents)
        )

    @property
    def dim(self):
        return self.values.ndim

    @property
    def frequency_cell_measure(self):
        return float(np.prod([1.0 / (m * self.spacing) for m in self.values.shape]))

    def lp_norm(self, p):
        """Dual-lattice L^p norm with frequency cell weighting."""
        return _lp_norm(np.abs(self.values), self.frequency_cell_measure, p)


def fourier(f, padded_len):
    """Transform ``f_hat(xi) = w^d sum_x f(x) exp(-2 pi i x.xi)`` on the dual lattice.

    ``padded_len`` gives the per-axis transform length ``M >= N`` (a scalar is
    broadcast to every axis). Zero padding only refines the frequency grid;
    with enough padding, cyclic wraparound of correlation sums contributes
    nothing, which is how the consuming identities pick their ``M``.
    """
    if np.isscalar(padded_len):
        padded = (int(padded_len),) * f.dim
    else:
        padded = tuple(int(m) for m in padded_len)
    if len(padded) != f.dim:
        raise ValueError("padded_len must give one length per axis")
    for m, n in zip(padded, f.extents):
        if m < n:
            raise ValueError(f"padded length {m} is below extent {n}")
    spec = np.fft.fftn(f.values, s=padded, axes=tuple(range(f.dim)))
    # Cells sit at absolute lattice positions (origin + j) * w; fftn indexes
    # from j = 0, so fold in the origin phase per axis.
    for axis, (o, m) in enumerate(zip(f.origin, padded)):
        if o != 0:
            phase = np.exp(-2j * np.pi * o * np.arange(m) / m)
            shape = [1] * f.dim
            shape[axis] = m
            spec = spec * phase.reshape(shape)
    spec = spec * f.cell_measure
    return Spectrum(spec, f.spacing, f.extents)
