"""The hot kernels against the plain-loop oracles.

Each kernel is bit-reproducible run to run and agrees with the oracles in
``oracles.py`` to float roundoff, including output boxes that reach past the
frame. The per-head windows are the walk's one pruning rule, and the terms
the walk builds stay within the budget's work models.
"""

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
            # the order-k supports, affordable with the u shifts in (-N, N)
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
    out = out_box(shape, k, box)
    if kernel == "dual":
        return lambda: kernels.dual_field_sum(s1, k, *out)
    return lambda: kernels.dual_pair_field_sum(s1, s2, k, *out)


WORK_CASES = [
    (kernel, shape, k, box)
    for kernel in ("dual", "pair")
    for shape in ((2,), (5,), (2, 3), (3, 3), (3, 2, 3))
    for k in (1, 2, 3)
    for box in ("frame", "support", "past", "inside")
    if not (box == "support" and k == 1)
]


def work_model(kernel, shape, k, box):
    model = brute_dual_work if kernel == "dual" else brute_pair_work
    return model(shape, k, out_box(shape, k, box)[1])


@pytest.mark.parametrize(
    "kernel,shape,k,box",
    # the affordable cases, with the ids pytest gives them in all of WORK_CASES
    [
        pytest.param(*c, id=f"{c[0]}-shape{i}-{c[2]}-{c[3]}")
        for i, c in enumerate(WORK_CASES)
        if work_model(*c) <= 10**7
    ],
)
def test_work_model_covers_the_walk(monkeypatch, kernel, shape, k, box):
    # the terms the walk builds: per head, last-shift values times window cells
    built = []

    def spy(late, early, win):
        values = math.prod(n - m + 1 for n, m in zip(late.shape, win))
        built.append(values * math.prod(win))
        yield np.zeros((1,) + win)

    monkeypatch.setattr(kernels, "_blocks", spy)
    kernel_call(kernel, k, shape, box)()
    assert built and work_model(kernel, shape, k, box) >= sum(built)
