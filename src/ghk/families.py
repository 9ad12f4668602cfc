"""Seeded random test-function families.

Every family is a pure function of ``(family, d, N, w, seed)``: the same seed
reproduces the same grid bit for bit (PCG64 generator, fixed draw order).
"""

from __future__ import annotations

import numpy as np

from .exponents import exponent_triple
from .grid import GridFunction, lp_norm, scale

FAMILIES = ("indicator-box", "tent", "gaussian-bump", "random-nonneg", "random-signed")


def random_function(family, d, N, w, seed):
    """Draw one grid function from a named family.

    Nonnegative families produce values >= 0.
    """
    d = int(d)
    N = int(N)
    if d < 1 or N < 1:
        raise ValueError("need d >= 1 and N >= 1")
    shape = (N,) * d
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    if family == "indicator-box":
        values = np.zeros(shape)
        sl = []
        for _ in range(d):
            lo = int(rng.integers(0, N))
            hi = int(rng.integers(lo + 1, N + 1))
            sl.append(slice(lo, hi))
        values[tuple(sl)] = 1.0
    elif family in ("tent", "gaussian-bump"):
        # a product of one profile per axis
        values = np.ones(shape)
        x = np.arange(N) + 0.5
        for axis in range(d):
            if family == "tent":
                c, r = rng.uniform(0.25 * N, 0.75 * N), rng.uniform(0.25 * N, 0.6 * N)
                t = np.maximum(0.0, 1.0 - np.abs(x - c) / r)
            else:
                c, sigma = rng.uniform(0.3 * N, 0.7 * N), rng.uniform(N / 8.0, N / 4.0)
                t = np.exp(-0.5 * ((x - c) / sigma) ** 2)
            values = values * t.reshape((N,) + (1,) * (d - 1 - axis))
    elif family == "random-nonneg":
        values = rng.random(shape)
    elif family == "random-signed":
        values = rng.uniform(-1.0, 1.0, shape)
    else:
        raise ValueError(f"unknown function family {family!r}")
    return GridFunction(values, w, (0,) * d)


def random_tuple(family, k, d, N, w, seed, punctured=False):
    """A complete vertex tuple with one independent draw per vertex."""
    from .cubes import FunctionTuple, VertexSet

    vs = VertexSet(k, punctured=punctured)
    fns = [random_function(family, d, N, w, seed * 1000 + i) for i in range(len(vs))]
    return FunctionTuple(vs, fns)


def unit_p_norm(f, k):
    """Rescale to unit L^p_k norm (no-op for the zero function)."""
    nrm = lp_norm(f, exponent_triple(k).p_float)
    return scale(f, 1.0 / nrm) if nrm > 0 else f
