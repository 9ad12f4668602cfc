import numpy as np
import pytest

from ghk import norms
from ghk.bench import CSV_HEADER, KERNELS, _kernel_table, bench, rows_to_csv
from ghk.budget import fft_work
from ghk.dual import dual_rec
from ghk.families import random_function


class TestBench:
    def test_empty_sizes_header_only(self):
        csv_text = rows_to_csv(bench(["u2-brute"], []))
        assert csv_text == ",".join(CSV_HEADER) + "\n"

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown bench kernel"):
            bench(["warp-drive"], [8])

    def test_rows_schema(self):
        rows = bench(["u2-brute", "u2-spectral"], [6], reps=2)
        assert len(rows) == 2
        for row in rows:
            assert set(row) == set(CSV_HEADER)
            assert row["N"] == 6 and row["d"] == 1
            assert row["impl"] == "numpy"
            assert row["median_ms"] > 0
            assert row["work_count"] > 0

    def test_cross_check_runs(self):
        # same-quantity kernels are value-checked against each other inline
        rows = bench(["u3-brute", "u3-rec"], [6], reps=1)
        assert {r["kernel"] for r in rows} == {"u3-brute", "u3-rec"}

    def test_dual_kernels_have_references(self):
        rows = bench(["d2-brute", "d3-rec"], [5], reps=1)
        assert len(rows) == 2

    def test_work_counts_monotone(self):
        for kernel in KERNELS:
            rows = bench([kernel], [4, 6, 8], reps=1)
            works = [r["work_count"] for r in rows]
            assert works == sorted(works) and works[0] < works[-1]

    def test_all_kernels_run(self):
        rows = bench(list(KERNELS), [5], reps=1)
        assert len(rows) == len(KERNELS)

    def test_csv_round_trip_precision(self):
        rows = bench(["u2-brute"], [5], reps=1)
        text = rows_to_csv(rows)
        line = text.splitlines()[1].split(",")
        assert float(line[4]) == rows[0]["median_ms"]


class TestWorkModel:
    @pytest.mark.parametrize("d, n", [(1, 5), (1, 8), (2, 4)])
    def test_d3_rec_models_the_padding_dual_rec_uses(self, d, n, monkeypatch):
        lengths = []
        rfftn = np.fft.rfftn

        def recording(a, s=None, axes=None):
            lengths.append(tuple(s))
            return rfftn(a, s=s, axes=axes)

        monkeypatch.setattr(norms.np.fft, "rfftn", recording)
        dual_rec(random_function("random-nonneg", d, n, 1.0 / n, 3), 3)
        assert lengths and set(lengths) == {(2 * n,) * d}
        modelled = _kernel_table()["d3-rec"]["work"](n, d)
        assert modelled == (2 * n - 1) ** d * fft_work(lengths[0])
