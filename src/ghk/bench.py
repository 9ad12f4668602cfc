"""Timing harness for the correlation kernels.

Contrasts the brute-force shift sums against the recursive/spectral routes.
Every timed kernel is warmed once before measurement so first-call costs never
land in a sample; values across routes that compute the same quantity are
cross-checked during the run.

Work counts follow the documented visit model: brute order-k norms cost
``N^d (2N-1)^(kd)`` visits, the recursion ``ceil((2N-1)^d / 2)`` transform
passes of length ``2N`` per axis (the order-3 norm and the order-3 dual field
on the frame box alike: the all-equal tuple folds each shift ``h`` with
``-h``), and transforms are modeled at ``M^d log2(M^d)``. The
cross-check tolerances are ``records.ORACLE_TOL`` and ``records.SPECTRAL_TOL``.
"""

from __future__ import annotations

import csv
import io
import statistics
import time

import numpy as np

from .budget import brute_dual_work, brute_gowers_work, rec_gowers_work, spectral_work
from .cubes import FunctionTuple
from .dual import dual_brute, dual_rec
from .families import random_function
from .grid import GridFunction
from .norms import gowers_norm_brute, gowers_norm_rec, gowers_norm_spectral_u2
from .records import ORACLE_TOL, SPECTRAL_TOL

CSV_HEADER = ("kernel", "impl", "N", "d", "median_ms", "work_count")

DEFAULT_SEED = 12345


def _kernel_table():
    return {
        "u2-brute": {
            "run": lambda f: gowers_norm_brute(f, 2),
            "work": lambda n, d: brute_gowers_work((n,) * d, 2),
            "value_group": "u2",
        },
        "u2-spectral": {
            "run": lambda f: gowers_norm_spectral_u2(f),
            "work": lambda n, d: spectral_work((n,) * d),
            "value_group": "u2",
        },
        "u3-brute": {
            "run": lambda f: gowers_norm_brute(f, 3),
            "work": lambda n, d: brute_gowers_work((n,) * d, 3),
            "value_group": "u3",
        },
        "u3-rec": {
            "run": lambda f: gowers_norm_rec(f, 3),
            "work": lambda n, d: rec_gowers_work((n,) * d, 3),
            "value_group": "u3",
        },
        "d2-brute": {
            "run": lambda f: dual_brute(FunctionTuple.constant(f, 2, punctured=True)),
            "work": lambda n, d: brute_dual_work((n,) * d, 2),
            "value_group": "d2",
            "reference": lambda f: dual_rec(f, 2),
        },
        "d3-rec": {
            "run": lambda f: dual_rec(f, 3),
            "work": lambda n, d: rec_gowers_work((n,) * d, 3),
            "value_group": "d3",
            "reference": lambda f: dual_brute(
                FunctionTuple.constant(f, 3, punctured=True)
            ),
        },
    }


KERNELS = tuple(_kernel_table())

#: cross-check tolerances per value group, relative to max(1, reference)
_GROUP_TOL = {"u2": SPECTRAL_TOL, "u3": ORACLE_TOL, "d2": ORACLE_TOL, "d3": ORACLE_TOL}


def _as_scalar(result):
    if isinstance(result, GridFunction):
        return float(np.max(np.abs(result.values)))
    return float(result)


def bench(kernel_names, sizes, reps=5, d=1, seed=DEFAULT_SEED):
    """Time the named kernels at each size; returns one row dict per (kernel, N).

    Rows carry the median wall time of ``reps`` runs and the modeled work
    count; the ``impl`` column names the brute kernels' implementation,
    ``"numpy"``. Unknown kernels raise; an empty size list yields no rows (the
    CSV then holds only the header).
    """
    table = _kernel_table()
    for name in kernel_names:
        if name not in table:
            raise ValueError(f"unknown bench kernel {name!r}")
    rows = []
    for n in sizes:
        n = int(n)
        f = random_function("random-nonneg", d, n, 1.0 / n, seed)
        group_values = {}
        for name in kernel_names:
            spec = table[name]
            spec["run"](f)  # warm-up: FFT plan and allocator caches
            samples = []
            for _ in range(max(1, int(reps))):
                t0 = time.perf_counter()
                out = spec["run"](f)
                samples.append(1e3 * (time.perf_counter() - t0))
            value = _as_scalar(out)
            group = spec["value_group"]
            tol = _GROUP_TOL[group]
            if group in group_values:
                ref = group_values[group]
                if abs(value - ref) > tol * max(1.0, abs(ref)):
                    raise ArithmeticError(
                        f"bench cross-check failed for {name} at N={n}: "
                        f"{value} vs {ref}"
                    )
            else:
                group_values[group] = value
            if "reference" in spec:
                ref = spec["reference"](f).values
                scale_ref = max(1.0, float(np.max(np.abs(ref))))
                if float(np.max(np.abs(out.values - ref))) > tol * scale_ref:
                    raise ArithmeticError(
                        f"bench reference check failed for {name} at N={n}"
                    )
            rows.append(
                {
                    "kernel": name,
                    "impl": "numpy",
                    "N": n,
                    "d": d,
                    "median_ms": statistics.median(samples),
                    "work_count": spec["work"](n, d),
                }
            )
    return rows


def rows_to_csv(rows):
    """Schema-stable CSV: fixed header, full round-trip float precision."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                row["kernel"],
                row["impl"],
                row["N"],
                row["d"],
                repr(float(row["median_ms"])),
                row["work_count"],
            ]
        )
    return buf.getvalue()
