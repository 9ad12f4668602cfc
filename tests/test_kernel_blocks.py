"""The last-shift blocks of the brute kernels and the memory budget.

Each kernel builds the terms of one head of the shift vector as a numpy
block over the values of the last shift, in chunks that fit the memory
budget. A budget too small for one chunk raises ``BudgetExceededError``
before that chunk is built, and the chunking never changes a result bit.
"""

import numpy as np
import pytest

from ghk import kernels
from ghk.budget import BudgetExceededError, memory_budget, set_memory_budget

from oracles import dual_field_oracle, dual_pair_oracle, gowers_sum_oracle


def stack(seed, rows, shape):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (rows,) + shape)


def kernel_call(kernel, k, shape):
    """A no-argument call of one kernel on random rows over the frame box."""
    rows = (1 << k) - 1
    zero = (0,) * len(shape)
    if kernel == "gowers":
        s = stack(1, 1 << k, shape)
        return lambda: kernels.gowers_sum(s, k)[0]
    s1, s2 = stack(2, rows, shape), stack(3, rows, shape)
    if kernel == "dual":
        return lambda: kernels.dual_field_sum(s1, k, zero, shape)
    return lambda: kernels.dual_pair_field_sum(s1, s2, k, zero, shape)


@pytest.fixture
def budget():
    """Sets the memory budget for one test, then restores it."""
    saved = memory_budget()
    yield set_memory_budget
    set_memory_budget(saved)


@pytest.fixture
def chunks(monkeypatch):
    """The sizes of the chunks ``kernels._blocks`` yields, one list per head."""
    seen = []
    blocks = kernels._blocks

    def spy(late, early, win):
        seen.append([])
        for block in blocks(late, early, win):
            seen[-1].append(block.size)
            yield block

    monkeypatch.setattr(kernels, "_blocks", spy)
    return seen


#: (kernel, k, shape, cells): a budget of ``cells`` float64 values holds
#: every chunk of one value of the last shift's first coordinate, not a
#: whole block
CASES = [
    ("gowers", 2, (3, 3), 64),
    ("dual", 2, (3, 3), 64),
    ("pair", 2, (2, 2), 16),
    ("dual", 3, (4,), 16),
]


@pytest.mark.parametrize("kernel,k,shape,cells", CASES)
def test_tiny_budget_raises_before_the_block(budget, chunks, kernel, k, shape, cells):
    call = kernel_call(kernel, k, shape)
    budget(16)  # two float64 values
    with pytest.raises(BudgetExceededError, match="memory"):
        call()
    assert all(size <= 2 for head in chunks for size in head)


@pytest.mark.parametrize("kernel,k,shape,cells", CASES)
def test_chunked_blocks_are_bit_identical(budget, chunks, kernel, k, shape, cells):
    call = kernel_call(kernel, k, shape)
    whole = call()
    assert all(len(head) == 1 for head in chunks)
    chunks.clear()
    budget(8 * cells)
    split = call()
    assert any(len(head) > 1 for head in chunks)
    assert all(size <= cells for head in chunks for size in head)
    assert np.asarray(split).tobytes() == np.asarray(whole).tobytes()


@pytest.mark.parametrize("kernel,k,shape,cells", CASES)
def test_chunked_blocks_match_oracle(budget, kernel, k, shape, cells):
    budget(8 * cells)
    got = kernel_call(kernel, k, shape)()
    rows = (1 << k) - 1
    zero = (0,) * len(shape)
    if kernel == "gowers":
        want = gowers_sum_oracle(list(stack(1, 1 << k, shape)), k)
    elif kernel == "dual":
        want = dual_field_oracle(list(stack(2, rows, shape)), k, zero, shape)
    else:
        s1, s2 = list(stack(2, rows, shape)), list(stack(3, rows, shape))
        want = dual_pair_oracle(s1, s2, k, zero, shape)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))
