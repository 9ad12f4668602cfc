from collections import Counter

import numpy as np
import pytest

from ghk.budget import memory_budget, set_memory_budget


@pytest.fixture
def fft_calls(monkeypatch):
    """Count the calls of ``np.fft.rfftn`` and ``np.fft.irfftn``, by name, in
    a ``Counter``."""
    calls = Counter()
    for name in ("rfftn", "irfftn"):

        def counting(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls


@pytest.fixture
def small_batches(fft_calls):
    """Shrink the memory budget to 64 padded elements per recursion batch
    (restored afterwards) and count the transforms it takes."""
    saved = memory_budget()
    set_memory_budget(64 * 64)
    yield fft_calls
    set_memory_budget(saved)
