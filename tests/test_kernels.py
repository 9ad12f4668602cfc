"""The hot kernels against the plain-loop oracles.

Each kernel is bit-reproducible run to run and agrees with the oracles in
``oracles.py`` to float roundoff, including output boxes that reach past the
frame. The shift ranges that ``kernels._tight_ranges`` cuts drop only
vectors with an empty window, and the cut walk is bit-identical to the full
one.
"""

import itertools
import math

import numpy as np
import pytest

from ghk import kernels
from ghk.budget import brute_dual_work, brute_pair_work

from oracles import dual_field_oracle, dual_pair_oracle, gowers_sum_oracle


@pytest.fixture(params=["numpy"])
def impl(request):
    """Tags each test id with the kernels' one implementation, ``[numpy]``,
    so the ids stay stable."""
    return request.param


def rand_stack(seed, rows, shape, signed=True):
    rng = np.random.default_rng(seed)
    lo = -1.0 if signed else 0.0
    return rng.uniform(lo, 1.0, (rows,) + shape)


@pytest.mark.usefixtures("impl")
class TestGowersSum:
    @pytest.mark.parametrize(
        "k,shape",
        [(2, (5,)), (3, (4,)), (2, (3, 4)), (4, (3,)), (2, (2, 2, 2)), (3, (2, 2))],
    )
    def test_matches_oracle(self, k, shape):
        stack = rand_stack(1, 1 << k, shape)
        acc, accabs = kernels.gowers_sum(stack, k)
        want = gowers_sum_oracle(list(stack), k)
        assert acc == pytest.approx(want, rel=1e-13)
        assert accabs >= abs(acc) - 1e-12

    def test_bit_reproducible(self):
        stack = rand_stack(2, 4, (6,))
        a1 = kernels.gowers_sum(stack, 2)
        a2 = kernels.gowers_sum(stack, 2)
        assert a1 == a2

    def test_row_count_validated(self):
        with pytest.raises(ValueError, match="rows"):
            kernels.gowers_sum(rand_stack(3, 3, (4,)), 2)

    def test_abs_accumulation_for_nonneg(self):
        stack = rand_stack(4, 4, (5,), signed=False)
        acc, accabs = kernels.gowers_sum(stack, 2)
        assert accabs == pytest.approx(acc, rel=1e-13)


@pytest.mark.usefixtures("impl")
class TestDualField:
    @pytest.mark.parametrize("k,shape", [(2, (5,)), (3, (4,)), (2, (3, 3))])
    def test_matches_oracle(self, k, shape):
        stack = rand_stack(5, (1 << k) - 1, shape)
        out_lo = tuple(-(n - 1) for n in shape)
        out_shape = tuple(3 * n - 2 for n in shape)
        got = kernels.dual_field_sum(stack, k, out_lo, out_shape)
        want = dual_field_oracle(list(stack), k, out_lo, out_shape)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1, np.abs(want).max()))

    @pytest.mark.parametrize(
        "k,shape,out_lo,out_shape",
        [
            (2, (4,), (-5,), (6,)),
            (3, (3,), (2,), (6,)),
            (2, (2, 2), (-1, 0), (4, 3)),
        ],
    )
    def test_box_past_frame_matches_oracle(self, k, shape, out_lo, out_shape):
        stack = rand_stack(11, (1 << k) - 1, shape)
        got = kernels.dual_field_sum(stack, k, out_lo, out_shape)
        want = dual_field_oracle(list(stack), k, out_lo, out_shape)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1, np.abs(want).max()))

    def test_union_box_subset_of_full(self):
        stack = rand_stack(6, 3, (6,))
        full = kernels.dual_field_sum(stack, 2, (-5,), (16,))
        box = kernels.dual_field_sum(stack, 2, (0,), (6,))
        np.testing.assert_array_equal(full[5:11], box)

    def test_support_is_contained(self):
        # cells outside [-(N-1), 2N-2] provably vanish
        stack = rand_stack(7, 3, (4,), signed=False)
        wide = kernels.dual_field_sum(stack, 2, (-8,), (24,))
        assert not wide[:5].any() and not wide[-5:].any()
        assert wide[5:19].any()


@pytest.mark.usefixtures("impl")
class TestDualPairField:
    def test_matches_oracle(self):
        k, shape = 2, (3,)
        s1 = rand_stack(8, 3, shape)
        s2 = rand_stack(9, 3, shape)
        got = kernels.dual_pair_field_sum(s1, s2, k, (0,), shape)
        want = dual_pair_oracle(list(s1), list(s2), k, (0,), shape)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize(
        "k,shape,out_lo,out_shape",
        [
            (2, (3,), (-2,), (7,)),
            (3, (2,), (0,), (2,)),
            (2, (2, 2), (0, 0), (2, 2)),
            # the order-k supports, affordable since the u ranges were cut
            (2, (2, 2), (-1, -1), (4, 4)),
            (3, (3,), (-1,), (5,)),
        ],
    )
    def test_boxes_match_oracle(self, k, shape, out_lo, out_shape):
        rows = (1 << k) - 1
        s1 = rand_stack(12, rows, shape)
        s2 = rand_stack(13, rows, shape)
        got = kernels.dual_pair_field_sum(s1, s2, k, out_lo, out_shape)
        want = dual_pair_oracle(list(s1), list(s2), k, out_lo, out_shape)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1, np.abs(want).max()))

    def test_row_count_validated(self):
        # the rows are zipped with their masks, so a short stack must not
        # silently pair f2 rows with f1 masks
        with pytest.raises(ValueError, match="rows"):
            kernels.dual_pair_field_sum(
                rand_stack(1, 2, (3,)), rand_stack(2, 2, (3,)), 2, (0,), (3,)
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="common box"):
            kernels.dual_pair_field_sum(
                rand_stack(1, 3, (3,)), rand_stack(1, 3, (4,)), 2, (0,), (3,)
            )


def support_box(shape, k):
    lo = tuple(-((n - 1) // (k - 1)) for n in shape)
    return lo, tuple(k * (n - 1) // (k - 1) + 1 - a for a, n in zip(lo, shape))


def out_box(shape, k, box):
    """``(lo, shape)`` of the box ``"frame"``, ``"support"``, ``"past"``
    (past the support) or ``"inside"`` (the frame less its last cell per
    axis)."""
    if box == "frame":
        return (0,) * len(shape), shape
    if box == "support":
        return support_box(shape, k)
    if box == "inside":
        return (0,) * len(shape), tuple(n - 1 for n in shape)
    return tuple(-n for n in shape), tuple(3 * n for n in shape)


def kernel_call(kernel, k, shape, box, seed=0):
    """A no-argument call of the kernel on random rows of ``shape``, on the
    box named by ``box`` (see ``out_box``)."""
    rows = (1 << k) - 1
    s1, s2 = rand_stack(seed, rows, shape), rand_stack(seed + 1, rows, shape)
    if kernel == "gowers":
        return lambda: kernels.gowers_sum(rand_stack(seed, 1 << k, shape), k)
    out = out_box(shape, k, box)
    if kernel == "dual":
        return lambda: kernels.dual_field_sum(s1, k, *out)
    return lambda: kernels.dual_pair_field_sum(s1, s2, k, *out)


class _Seen(Exception):
    pass


def tight_args(monkeypatch, call):
    """The ``(masks, ranges, shape, cut)`` that a kernel call hands to
    ``_tight_ranges``; the call stops there, before its walk."""
    tight = kernels._tight_ranges

    def spy(masks, ranges, shape):
        seen.append((list(masks), list(ranges), shape, tight(masks, ranges, shape)))
        raise _Seen

    seen = []
    monkeypatch.setattr(kernels, "_tight_ranges", spy)
    with pytest.raises(_Seen):
        call()
    monkeypatch.undo()
    return seen[0]


def window_is_empty(masks, hvec, shape):
    # no x puts every row's read x + (sum of its shifts) inside [0, N)
    d = len(shape)
    for a, n in enumerate(shape):
        offs = [
            sum(hvec[i * d + a] for i in range(len(hvec) // d) if m >> i & 1) for m in masks
        ]
        if max(offs) - min(offs) >= n:
            return True
    return False


def dropped_vectors(ranges, cut, rng, walk=20_000, draws=2_000):
    """The vectors of ``itertools.product(*ranges)`` outside ``cut``: all of
    them when the product has at most ``walk`` vectors; otherwise ``draws``
    random ones and, for each cut coordinate, a vector of the cut ranges with
    that coordinate just past either end of its cut."""
    def kept(v):
        return all(x in c for x, c in zip(v, cut))

    if math.prod(map(len, ranges)) <= walk:
        return [v for v in itertools.product(*ranges) if not kept(v)]
    out = [tuple(int(rng.choice(r)) for r in ranges) for _ in range(draws)]
    if all(cut):
        for j, (r, c) in enumerate(zip(ranges, cut)):
            for x in (c.start - 1, c.stop):
                if x in r:
                    v = [int(rng.choice(c)) for c in cut]
                    v[j] = x
                    out.append(tuple(v))
    return [v for v in out if not kept(v)]


RULE_CASES = [
    (kernel, d, k, box)
    for kernel in ("gowers", "dual", "pair")
    for d in (1, 2, 3)
    for k in (1, 2, 3, 4)
    for box in (("full",) if kernel == "gowers" else ("frame", "support", "past"))
    if not (box == "support" and k == 1)
]


class TestTightRanges:
    @pytest.mark.parametrize("kernel,d,k,box", RULE_CASES)
    def test_dropped_vectors_have_empty_windows(self, monkeypatch, kernel, d, k, box):
        shape = (3,) if d == 1 else (2,) * d
        masks, ranges, got_shape, cut = tight_args(monkeypatch, kernel_call(kernel, k, shape, box))
        assert got_shape == shape
        assert len(cut) == len(ranges)
        for r, c in zip(ranges, cut):
            assert c.step == 1 and (not c or (c.start in r and c.stop - 1 in r))
        rng = np.random.default_rng(len(RULE_CASES))
        dropped = dropped_vectors(ranges, cut, rng)
        if kernel == "gowers" or (kernel == "dual" and box == "frame"):
            assert not dropped  # these ranges are tight already
        for hvec in dropped:
            assert window_is_empty(masks, hvec, shape), hvec

    def test_pair_u_ranges(self):
        # the u shifts of the pair kernel: 2N - 1 of the 4N - 3 values
        n, k = 4, 2
        masks = list(range(1, 4)) + [a | a << k for a in range(1, 4)]
        ranges = [range(-(n - 1), n)] * k + [range(-2 * (n - 1), 2 * n - 1)] * k
        cut = kernels._tight_ranges(masks, ranges, (n,))
        assert cut == [range(1 - n, n)] * (2 * k)


WORK_CASES = [
    (kernel, shape, k, box)
    for kernel in ("dual", "pair")
    for shape in ((2,), (5,), (2, 3), (3, 3), (3, 2, 3))
    for k in (1, 2, 3)
    for box in ("frame", "support", "past", "inside")
    if not (box == "support" and k == 1)
]


@pytest.mark.parametrize("kernel,shape,k,box", WORK_CASES)
def test_work_model_covers_the_walk(monkeypatch, kernel, shape, k, box):
    # output cells times the shift vectors the walk takes after the cut
    _, out_shape = out_box(shape, k, box)
    *_, cut = tight_args(monkeypatch, kernel_call(kernel, k, shape, box))
    visits = math.prod(out_shape) * math.prod(map(len, cut))
    model = brute_dual_work if kernel == "dual" else brute_pair_work
    assert model(shape, k, out_shape) >= visits


UNCUT_CASES = [
    ("gowers", 2, (3, 3), "full"),
    ("gowers", 3, (3,), "full"),
    ("dual", 2, (4,), "support"),
    ("dual", 3, (3,), "support"),
    ("dual", 2, (3,), "past"),
    ("dual", 2, (2, 2), "past"),
    ("pair", 2, (3,), "frame"),
    ("pair", 2, (3,), "support"),
    ("pair", 2, (2,), "past"),
    ("pair", 3, (2,), "support"),
    ("pair", 2, (2, 2), "frame"),
]


@pytest.mark.parametrize("kernel,k,shape,box", UNCUT_CASES)
def test_cut_walk_is_bit_identical(monkeypatch, kernel, k, shape, box):
    call = kernel_call(kernel, k, shape, box, seed=21)
    cut = call()
    monkeypatch.setattr(kernels, "_tight_ranges", lambda masks, ranges, shape: ranges)
    full = call()
    if kernel == "gowers":
        assert cut == full
    else:
        assert cut.tobytes() == full.tobytes()
