import numpy as np
import pytest

from ghk.budget import memory_budget, set_memory_budget


@pytest.fixture
def small_batches(monkeypatch):
    """Shrink the memory budget to 64 padded elements per recursion batch
    (restored afterwards) and count the forward transforms it takes."""
    calls = []
    rfftn = np.fft.rfftn

    def counting_rfftn(*args, **kwargs):
        calls.append(1)
        return rfftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", counting_rfftn)
    saved = memory_budget()
    set_memory_budget(64 * 64)
    yield calls
    set_memory_budget(saved)
