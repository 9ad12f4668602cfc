"""Work and memory guards shared by the heavy kernels.

Brute-force correlation sums grow like ``N**((k+1)*d)``; rather than letting a
mistyped size run for hours, every brute entry point estimates its lattice
visit count up front and refuses anything above the configured budget. The
shift recursion (``dual.dual_rec``, ``norms.gowers_inner``,
``norms.gowers_norm_rec`` and each ascent of ``antiuniform``) does the same
with its transform cost model, ``rec_gowers_work``, and the spectral route
(``norms.gowers_norm_spectral_u2``) with ``spectral_work``.
"""

from __future__ import annotations

import math

DEFAULT_WORK_BUDGET = 1_000_000_000
DEFAULT_MEMORY_BUDGET_BYTES = 1 << 28

_memory_budget_bytes = DEFAULT_MEMORY_BUDGET_BYTES


class BudgetExceededError(RuntimeError):
    """An operation would exceed the configured work or memory budget."""

    def __init__(self, kind, needed, budget):
        self.kind = kind
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"{kind} budget exceeded: needs {needed:,} but budget is {budget:,}"
        )


def set_memory_budget(n_bytes):
    """Set the global allocation budget for grid values, in bytes."""
    global _memory_budget_bytes
    if n_bytes <= 0:
        raise ValueError("memory budget must be positive")
    _memory_budget_bytes = int(n_bytes)


def memory_budget():
    return _memory_budget_bytes


def check_allocation(n_elements):
    """Validate an f64 allocation of ``n_elements`` against the memory budget."""
    needed = 8 * int(n_elements)
    if needed > _memory_budget_bytes:
        raise BudgetExceededError("memory", needed, _memory_budget_bytes)


def check_work(n_visits, work_budget=None):
    """Validate an estimated lattice visit count against the work budget.

    ``work_budget=None`` selects :data:`DEFAULT_WORK_BUDGET`.
    """
    budget = DEFAULT_WORK_BUDGET if work_budget is None else int(work_budget)
    n = int(n_visits)
    if n > budget:
        raise BudgetExceededError("work", n, budget)
    return n


def brute_gowers_work(extents, k):
    """Visit-count model for the brute k-th correlation sum: ``N^d * (2N-1)^(kd)``."""
    work = 1
    for n in extents:
        work *= int(n) * (2 * int(n) - 1) ** k
    return work


def brute_dual_work(extents, k, out_extents=None):
    """Visit-count model for the brute cubic convolution product field:
    output cells times the shift vectors at which the kernel builds terms.

    Per axis a shift coordinate has ``n + out_n - 1`` admissible offsets. At
    ``k >= 2`` each shift is all that parts the reads of some two rows, so
    the kernel's per-head windows, its one pruning rule, build terms only
    where it lies in ``(-n, n)``: ``min(n + out_n - 1, 2n - 1)`` offsets,
    ``2n - 1`` when the output box is the input box.
    """
    out = extents if out_extents is None else out_extents
    work = math.prod(int(n) for n in out)
    for n, m in zip(extents, out):
        offsets = int(n) + int(m) - 1
        work *= (min(offsets, 2 * int(n) - 1) if k >= 2 else offsets) ** k
    return work


def brute_pair_work(extents, k, out_extents=None):
    """Visit-count model for the brute double cubic sum of two punctured
    stacks: its ``k`` shifts ``h`` count as a field's do, and its ``k``
    shifts ``u``, each all that parts the reads of two of its rows, range
    over ``(-n, n)``."""
    u_offsets = math.prod(2 * int(n) - 1 for n in extents)
    return brute_dual_work(extents, k, out_extents) * u_offsets ** k


def fft_work(lengths):
    """Transform cost model: ``M^d * log2(M^d)`` for per-axis lengths M."""
    total = math.prod(int(m) for m in lengths)
    return int(total * max(1, math.ceil(math.log2(max(total, 2)))))


def _cross_points(n, j):
    """Integer points ``h`` in ``Z^j`` with ``|h_1| + ... + |h_j| <= n - 1``."""
    return sum(2**i * math.comb(j, i) * math.comb(n - 1, i) for i in range(j + 1))


def rec_gowers_work(extents, k, rows=1, out_extents=None):
    """Cost model for the shift recursion: its order-2 bases, each ``rows``
    padded forward transforms (1 for an all-equal tuple, 3 for a general
    one) of length 2N per axis.

    The bases are those the engine keeps when no cell is zero: the shifts
    ``h_1 .. h_(k-2)`` whose product does not vanish (``|h_1| + ... +
    |h_(k-2)| <= N - 1`` per axis), for an all-equal tuple with ``h_1``
    folded with ``-h_1`` (k >= 3). At k=3 that is ``(2N-1)^d`` bases, and
    ``ceil((2N-1)^d / 2)`` for an all-equal tuple. A dual field
    (``out_extents`` given) adds one inverse transform per base and pads
    each axis to at most ``N + out_N``.
    """
    j = max(int(k) - 2, 0)
    bases = math.prod(_cross_points(int(n), j) for n in extents)
    if int(rows) == 1 and j:
        bases = (bases + math.prod(_cross_points(int(n), j - 1) for n in extents)) // 2
    if out_extents is None:
        return bases * int(rows) * fft_work([2 * int(n) for n in extents])
    lengths = [int(n) + int(m) for n, m in zip(extents, out_extents)]
    return bases * (int(rows) + 1) * fft_work(lengths)


def spectral_work(extents):
    """Cost model for the spectral norm route, padded to 3N per axis."""
    return fft_work([3 * int(n) for n in extents])
