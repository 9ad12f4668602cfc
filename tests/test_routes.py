"""A differential test across the evaluation routes.

Each norm is computed by the brute sum, the shift recursion and, at k=2, the
spectral route; each dual field of a punctured tuple by the brute sum and the
recursion, on the frame and on the order-k support. On small boxes with
signed, nonnegative, zero and single-cell inputs at scales 1e-40, 1 and 1e40,
the routes agree within ``ORACLE_TOL`` (``SPECTRAL_TOL`` for the spectral
route), or every one of them raises ``OverflowError``. At scale 1 and the
smallest extents the plain-loop oracles of ``oracles.py`` join as a third
route, so the chain stays anchored to code that shares nothing with the
kernels.

A norm is compared relative to its value. A field is compared relative to
the product of its rows' L^q_k norms, the bound of Lemma 1 on its sup norm:
the transforms' roundoff scales with the rows, so a field far below that
bound (rows of disjoint support, one tiny factor) keeps no relative digits
on the recursive route.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghk import (
    FunctionTuple,
    dual_brute,
    dual_rec,
    from_values,
    gowers_norm_brute,
    gowers_norm_rec,
    gowers_norm_spectral_u2,
    lp_norm,
)
from ghk.cubes import VertexSet
from ghk.exponents import exponent_triple
from ghk.records import ORACLE_TOL, SPECTRAL_TOL

from oracles import dual_field_oracle, gowers_sum_oracle

KINDS = ("signed", "nonneg", "zero", "single")
SCALES = (1e-40, 1.0, 1e40)
SPACINGS = (0.25, 0.5, 1.0)


#: (d, k): extents up to 3 (2 at d=3), k=2..3 and k=4 at d=1
ORDERS = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3))


def shapes(d):
    return st.tuples(*[st.integers(1, 2 if d == 3 else 3)] * d)


@st.composite
def grids(draw, shape, spacing, scale):
    """A grid of one of ``KINDS`` whose nonzero cells have magnitudes in
    ``[scale/16, scale]``, so that every field of up to 7 rows lies well
    inside the normal float64 range at 1e-40 and 1e40, and every field of
    15 rows well outside it."""
    size = math.prod(shape)
    kind = draw(st.sampled_from(KINDS))
    magnitudes = st.floats(1 / 16, 1.0)
    values = np.zeros(size)
    if kind == "single":
        values[draw(st.integers(0, size - 1))] = draw(magnitudes) * draw(st.sampled_from((-1, 1)))
    elif kind != "zero":
        values[:] = draw(st.lists(magnitudes, min_size=size, max_size=size))
    if kind == "signed":
        # zero cells too, so that rows of disjoint support meet
        values *= draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=size, max_size=size))
    return from_values(values.reshape(shape) * scale, spacing)


#: Lattice visits (output cells times shift vectors) up to which the
#: plain-loop oracles run as a third route.
ORACLE_VISITS = 10_000


def oracle_visits(extents, k, out_shape):
    """Output cells times the shift vectors a plain-loop oracle walks."""
    shifts = math.prod(n + m - 1 for n, m in zip(extents, out_shape))
    return math.prod(out_shape) * shifts**k


def oracle_norm(f, k):
    """The U(k) norm from the plain-loop sum, with the measure weight."""
    raw = gowers_sum_oracle([f.values] * (1 << k), k)
    return (f.spacing ** ((k + 1) * f.dim) * max(raw, 0.0)) ** (1.0 / (1 << k))


def oracle_field(fs, box):
    """The dual field of a punctured tuple on ``box``, a grid's ``(lo, hi)``,
    from the plain-loop sum, with the measure weight."""
    lo, _, stack = fs.stacked()
    rel_lo = tuple(b - l for b, l in zip(box[0], lo))
    shape = tuple(h - b for b, h in zip(*box))
    return dual_field_oracle(list(stack), fs.k, rel_lo, shape) * fs.spacing ** (fs.k * fs.dim)


def outcomes(routes):
    """Each route's value, or ``None`` where it raised ``OverflowError``."""
    out = []
    for route in routes:
        try:
            out.append(route())
        except OverflowError:
            out.append(None)
    return out


def assert_agree(ref, others, tol, scale):
    """All overflowed, or none did and each of ``others`` lies within
    ``tol * scale`` of ``ref``."""
    values = [ref] + others
    if any(v is None for v in values):
        assert all(v is None for v in values), values
        return
    for v in others:
        diff = float(np.max(np.abs(np.asarray(v) - np.asarray(ref)), initial=0.0))
        assert diff <= tol * scale, (ref, v)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("d, k", ORDERS)
@given(data=st.data())
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
def test_norm_routes_agree(d, k, scale, data):
    shape, spacing = data.draw(shapes(d)), data.draw(st.sampled_from(SPACINGS))
    f = data.draw(grids(shape, spacing, scale))
    brute, rec, *spec = outcomes(
        [lambda: gowers_norm_brute(f, k), lambda: gowers_norm_rec(f, k)]
        + ([lambda: gowers_norm_spectral_u2(f)] if k == 2 else [])
    )
    assert_agree(brute, [rec], ORACLE_TOL, brute or 0.0)
    assert_agree(brute, spec, SPECTRAL_TOL, brute or 0.0)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("d, k", ORDERS)
@given(data=st.data())
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
def test_dual_field_routes_agree(d, k, scale, data):
    shape, spacing = data.draw(shapes(d)), data.draw(st.sampled_from(SPACINGS))
    vs = VertexSet(k, punctured=True)
    fs = FunctionTuple(vs, [data.draw(grids(shape, spacing, scale)) for _ in range(len(vs))])
    # Lemma 1 bounds the field by the product of the rows' L^q_k norms; the
    # transforms' roundoff is relative to that, not to the field's own size
    # (the product leaves the float range only where both routes overflow)
    bound = math.prod(lp_norm(f, exponent_triple(k).q_float) for f in fs)
    for out_box in (None, "full"):
        brute, rec = outcomes(
            [lambda: dual_brute(fs, out_box), lambda: dual_rec(fs, out_box=out_box)]
        )
        if brute is not None and rec is not None:
            assert rec.box == brute.box
            brute, rec = brute.values, rec.values
        assert_agree(brute, [rec], ORACLE_TOL, bound)


@pytest.mark.parametrize("d, k", ORDERS)
@given(data=st.data())
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
def test_plain_loop_oracles_agree(d, k, data):
    # the third route, at scale 1 on boxes of at most ORACLE_VISITS visits:
    # the oracles are the reference for both the brute and the recursive route
    m = max(m for m in (1, 2, 3) if oracle_visits((m,) * d, k, (m,) * d) <= ORACLE_VISITS)
    shape = data.draw(st.tuples(*[st.integers(1, m)] * d))
    spacing = data.draw(st.sampled_from(SPACINGS))
    f = data.draw(grids(shape, spacing, 1.0))
    oracle = oracle_norm(f, k)
    assert_agree(oracle, [gowers_norm_brute(f, k), gowers_norm_rec(f, k)], ORACLE_TOL, oracle)
    vs = VertexSet(k, punctured=True)
    fs = FunctionTuple(vs, [data.draw(grids(shape, spacing, 1.0)) for _ in range(len(vs))])
    bound = math.prod(lp_norm(f, exponent_triple(k).q_float) for f in fs)
    for out_box in (None, "full"):
        brute, rec = dual_brute(fs, out_box), dual_rec(fs, out_box=out_box)
        assert rec.box == brute.box
        if oracle_visits(shape, k, brute.extents) <= ORACLE_VISITS:
            want = oracle_field(fs, brute.box)
            assert_agree(want, [brute.values, rec.values], ORACLE_TOL, bound)


@pytest.mark.parametrize("scale", [1e-40, 1e40])
def test_order_four_fields_leave_the_range_on_every_route(scale):
    # 15 rows of magnitude 1e+-40: the field is about 1e+-600
    vs = VertexSet(4, punctured=True)
    fs = FunctionTuple(vs, [from_values(np.full(3, scale), 0.5)] * len(vs))
    for out_box in (None, "full"):
        assert outcomes(
            [lambda: dual_brute(fs, out_box), lambda: dual_rec(fs, out_box=out_box)]
        ) == [None, None]
