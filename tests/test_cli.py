import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from ghk import (
    continuity_modulus,
    dual_brute,
    dual_rec,
    from_values,
    gowers_norm_brute,
    gowers_norm_rec,
    inner,
    read_ghk,
    write_ghk,
)
from ghk.budget import rec_gowers_work
from ghk.cli import main
from ghk.cubes import FunctionTuple
from ghk.families import random_function
from ghk.records import ORACLE_TOL
from ghk.suite import run_suite


@pytest.fixture
def grids(tmp_path):
    paths = {}
    f = random_function("random-nonneg", 1, 8, 0.125, 42)
    g = random_function("gaussian-bump", 1, 8, 0.125, 43)
    paths["f"] = str(tmp_path / "f.ghk")
    paths["g"] = str(tmp_path / "g.ghk")
    write_ghk(f, paths["f"])
    write_ghk(g, paths["g"])
    paths["_f"] = f
    paths["_g"] = g
    return paths


#: Suite configs that the sweeps cannot read, and what the diagnostic names.
MALFORMED_CONFIGS = [
    ({"ascent": {"step_init": 1}}, "'ascent'"),
    ({"reps": None}, "'reps'"),
    ([1, 2], "JSON object"),
    ({"k": 2}, "'k'"),
    ({"rep": 1}, "'rep'"),
    ({"check": ["oracle-norm"]}, "'check'"),
    ({"ascent": {"max_iters": 2.5}}, "'ascent'"),
    ({"ascent": {"rel_tol": float("nan")}}, "'ascent'"),
    ({"reps_overrides": {"eq2.1-lemma": 3}}, "'reps_overrides'"),
    ({"checks": ["no-such-check"]}, "'checks'"),
    ({"reps": -3}, "'reps'"),
    ({"deltas": [2.0]}, "'deltas'"),
    ({"spacing": 0}, "'spacing'"),
    ({"version": "banana"}, "'version'"),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExponentsCmd:
    def test_golden_output(self, capsys):
        code, out, _ = run_cli(capsys, "exponents", "--k", "3")
        assert code == 0
        assert json.loads(out) == {
            "k": 3,
            "p": "2",
            "q": "7/3",
            "s": "2",
            "p_float": 2.0,
            "q_float": 2.3333333333333335,
            "s_float": 2.0,
        }

    def test_k2(self, capsys):
        _, out, _ = run_cli(capsys, "exponents", "--k", "2")
        doc = json.loads(out)
        assert (doc["p"], doc["q"], doc["s"]) == ("4/3", "3/2", "4")


class TestNormCmd:
    def test_matches_api(self, capsys, grids):
        code, out, _ = run_cli(
            capsys, "norm", "--k", "2", "--algo", "brute", "--in", grids["f"], "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == gowers_norm_brute(grids["_f"], 2)
        assert doc["work_count"] > 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_default_rec_matches_api(self, capsys, grids, k):
        code, out, _ = run_cli(capsys, "norm", "--k", str(k), "--in", grids["f"], "--json")
        assert code == 0
        f = grids["_f"]
        assert json.loads(out) == {
            "value": gowers_norm_rec(f, k),
            "k": k,
            "algo": "rec",
            "work_count": rec_gowers_work(f.extents, k),
            "padding": [2 * n for n in f.extents],
        }

    def test_spectral_close_to_brute(self, capsys, grids):
        _, out1, _ = run_cli(
            capsys, "norm", "--k", "2", "--algo", "spectral", "--in", grids["f"], "--json"
        )
        _, out2, _ = run_cli(
            capsys, "norm", "--k", "2", "--algo", "brute", "--in", grids["f"], "--json"
        )
        v1, v2 = json.loads(out1)["value"], json.loads(out2)["value"]
        assert abs(v1 - v2) <= 1e-8 * max(1, v2)

    def test_missing_file_diagnostic(self, capsys):
        code, out, err = run_cli(capsys, "norm", "--k", "2", "--in", "missing.ghk")
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "FileNotFoundError"
        assert "missing.ghk" in diag["message"]

    def test_budget_overflow_diagnostic(self, capsys, grids):
        code, _, err = run_cli(
            capsys, "norm", "--k", "3", "--algo", "brute", "--in", grids["f"],
            "--budget", "10",
        )
        assert code == 2
        assert json.loads(err)["error"] == "BudgetExceededError"

    @pytest.mark.parametrize("algo", ["brute", "rec", "spectral"])
    def test_budget_reaches_every_route(self, capsys, grids, algo):
        code, _, err = run_cli(
            capsys, "norm", "--k", "2", "--algo", algo, "--in", grids["f"], "--budget", "10"
        )
        assert code == 2
        assert json.loads(err)["error"] == "BudgetExceededError"


class TestInnerCmd:
    def test_matches_api(self, capsys, grids):
        code, out, _ = run_cli(
            capsys, "inner", "--in", grids["f"], "--in", grids["g"], "--json"
        )
        assert code == 0
        assert json.loads(out)["value"] == inner(grids["_f"], grids["_g"])

    def test_wrong_arity(self, capsys, grids):
        code, _, err = run_cli(capsys, "inner", "--in", grids["f"])
        assert code == 2 and "two" in json.loads(err)["message"]


class TestDualCmd:
    def test_round_trip(self, capsys, grids, tmp_path):
        out_path = str(tmp_path / "D.ghk")
        code, _, _ = run_cli(
            capsys, "dual", "--k", "2", "--in", grids["f"], "--out", out_path, "--json"
        )
        assert code == 0
        want = dual_brute(FunctionTuple.constant(grids["_f"], 2, punctured=True))
        assert read_ghk(out_path) == want

    def test_rec_algo(self, capsys, grids, tmp_path):
        out_path = str(tmp_path / "Dr.ghk")
        code, _, _ = run_cli(
            capsys, "dual", "--k", "2", "--algo", "rec", "--in", grids["f"],
            "--out", out_path,
        )
        assert code == 0
        assert read_ghk(out_path) == dual_rec(grids["_f"], 2)

    def test_rec_budget_overflow_diagnostic(self, capsys, grids, tmp_path):
        code, _, err = run_cli(
            capsys, "dual", "--k", "2", "--algo", "rec", "--in", grids["f"],
            "--out", str(tmp_path / "D.ghk"), "--budget", "10",
        )
        assert code == 2
        assert json.loads(err)["error"] == "BudgetExceededError"

    def test_tuple_routes_agree(self, capsys, grids, tmp_path):
        h = random_function("random-signed", 1, 8, 0.125, 44)
        write_ghk(h, str(tmp_path / "h.ghk"))
        inputs = ["--in", grids["f"], "--in", grids["g"], "--in", str(tmp_path / "h.ghk")]
        fields = []
        for algo in ("brute", "rec"):
            out_path = str(tmp_path / f"D_{algo}.ghk")
            code, _, _ = run_cli(
                capsys, "dual", "--k", "2", "--algo", algo, *inputs, "--out", out_path
            )
            assert code == 0
            fields.append(read_ghk(out_path))
        brute, rec = fields
        assert (rec.extents, rec.origin) == (brute.extents, brute.origin)
        scale = max(1.0, float(np.max(np.abs(brute.values))))
        assert np.max(np.abs(rec.values - brute.values)) <= ORACLE_TOL * scale


class TestCheckCmd:
    def test_lemma1(self, capsys, grids):
        code, out, _ = run_cli(
            capsys, "check", "lemma1", "--k", "2",
            "--in", grids["f"], "--in", grids["g"], "--in", grids["f"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "eq2.1-lemma1" and doc["pass"] is True
        assert doc["runtime_ms"] > 0.0

    def test_continuity_needs_shift(self, capsys, grids):
        code, _, err = run_cli(
            capsys, "check", "continuity", "--k", "2",
            "--in", grids["f"], "--in", grids["g"], "--in", grids["f"],
        )
        assert code == 2 and "shift" in json.loads(err)["message"]

    @pytest.mark.parametrize("shift", ["1", "-3", "0"])
    def test_continuity_matches_api(self, capsys, grids, shift):
        code, out, _ = run_cli(
            capsys, "check", "continuity", "--k", "2", "--shift", shift,
            "--in", grids["f"], "--in", grids["g"], "--in", grids["f"],
        )
        fs = FunctionTuple.punctured(2, [grids["_f"], grids["_g"], grids["_f"]])
        want = continuity_modulus(fs, (int(shift),))
        doc = json.loads(out)
        assert code == (0 if want.passed is not False else 1)
        assert doc.pop("runtime_ms") > 0.0
        assert doc == json.loads(json.dumps(want.as_dict(include_runtime=False)))

    def test_product_identity_grid_count(self, capsys, grids):
        code, out, err = run_cli(
            capsys, "check", "product-identity", "--k", "2",
            *[a for _ in range(5) for a in ("--in", grids["f"])],
        )
        assert (code, out) == (2, "")
        assert "need 6 grids (two punctured tuples)" in json.loads(err)["message"]

    def test_csg(self, capsys, grids):
        code, out, _ = run_cli(
            capsys, "check", "csg", "--k", "2",
            "--in", grids["f"], "--in", grids["g"], "--in", grids["f"],
            "--in", grids["g"],
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_wrong_tuple_size(self, capsys, grids):
        code, _, err = run_cli(
            capsys, "check", "csg", "--k", "2", "--in", grids["f"]
        )
        assert code == 2 and "need 4 grids" in json.loads(err)["message"]

    def test_product_bound(self, capsys, grids):
        ins = []
        for name in ("f", "g", "f", "g", "f", "g"):
            ins += ["--in", grids[name]]
        code, out, _ = run_cli(capsys, "check", "product-bound", "--k", "2", *ins)
        assert code == 0
        assert json.loads(out)["name"] == "eq5.6-product-bound"

    def test_fourier_bound_k3(self, capsys, grids):
        ins = []
        for _ in range(7):
            ins += ["--in", grids["f"]]
        code, out, _ = run_cli(capsys, "check", "fourier-bound", "--k", "3", *ins)
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "eq5.7-fourier" and doc["pass"] is True


class TestDualnormCmd:
    def test_reports_estimate(self, capsys, grids, tmp_path):
        witness_path = str(tmp_path / "w.ghk")
        code, out, _ = run_cli(
            capsys, "dualnorm", "--k", "2", "--in", grids["f"],
            "--out-witness", witness_path, "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] > 0 and doc["iterations"] >= 0
        assert doc["passes"] > doc["iterations"]
        w = read_ghk(witness_path)
        assert doc["value"] == pytest.approx(inner(grids["_f"], w), rel=1e-12)


class TestDecomposeCmd:
    def test_full_pipeline(self, capsys, grids, tmp_path):
        f_path = str(tmp_path / "F.ghk")
        h_path = str(tmp_path / "H.ghk")
        gn_path = str(tmp_path / "GN.ghk")
        rep_path = str(tmp_path / "rep.json")
        code, out, _ = run_cli(
            capsys, "decompose", "--k", "2", "--delta", "0.5", "--in", grids["f"],
            "--out-f", f_path, "--out-h", h_path, "--out-gnorm", gn_path,
            "--report", rep_path,
        )
        assert code == 0
        report = json.loads(open(rep_path).read())
        assert report["norms"]["F_U"] <= 1 + 1e-6
        assert report["passes"] == report["diagnostics"]["passes"] > report["iterations"]
        F, H, GN = read_ghk(f_path), read_ghk(h_path), read_ghk(gn_path)
        dk = dual_rec(F, 2)
        assert np.array_equal(dk.values + H.values, GN.values)


class TestVerifyCmd:
    CONFIG = {
        "k": [2],
        "d": [1],
        "n": 5,
        "reps": 1,
        "reps_overrides": {},
        "base_seed": 3,
        "checks": ["eq1.6-homogeneity", "oracle-norm"],
    }

    def test_run_and_report(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out_path = str(tmp_path / "report.json")
        code, out, _ = run_cli(
            capsys, "verify", "--config", str(cfg), "--out", out_path, "--threads", "1"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["all_passed"] is True
        report = json.loads(open(out_path).read())
        assert len(report["records"]) == 2
        canonical = run_suite(self.CONFIG, threads=1).canonical_bytes()
        assert summary["canonical_sha256"] == hashlib.sha256(canonical).hexdigest()

    def test_replay(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        code, out, _ = run_cli(
            capsys, "verify", "--config", str(cfg), "--replay", "oracle-norm:2:1:3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "oracle-norm" and doc["pass"] is True

    def test_bad_replay_format(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--replay", "oracle-norm")
        assert code == 2

    @pytest.mark.parametrize(
        "replay, coordinate",
        [
            ("oracle-norm:1:1:3", "'k': 1"),
            ("oracle-norm:2:1:-1", "'seed': -1"),
            ("oracle-norm:2:4:1", "'d': 4"),
            ("oracle-norm:2:0:1", "'d': 0"),
            ("no-such-check:2:1:1", "'name': 'no-such-check'"),
            ("oracle-norm:two:1:1", "'k'"),
        ],
    )
    def test_bad_replay_coordinate(self, capsys, replay, coordinate):
        code, out, err = run_cli(capsys, "verify", "--replay", replay)
        assert (code, out) == (2, "")
        diag = json.loads(err)
        assert diag["error"] == "ValueError"
        assert f"replay coordinate {coordinate}" in diag["message"]

    @pytest.mark.parametrize("replay", [(), ("--replay", "oracle-norm:2:1:3")])
    @pytest.mark.parametrize("config, key", MALFORMED_CONFIGS)
    def test_malformed_config_diagnostic(self, capsys, tmp_path, replay, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg), *replay)
        assert (code, out) == (2, "")
        diag = json.loads(err)
        assert diag["error"] == "ValueError" and key in diag["message"]


class TestBenchCmd:
    def test_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--kernels", "u2-brute", "--sizes", "")
        assert code == 0
        assert out == "kernel,impl,N,d,median_ms,work_count\n"

    def test_rows(self, capsys, tmp_path):
        out_path = str(tmp_path / "rows.csv")
        code, _, _ = run_cli(
            capsys, "bench", "--kernels", "u2-brute,u2-spectral", "--sizes", "5,6",
            "--reps", "1", "--out", out_path,
        )
        assert code == 0
        lines = open(out_path).read().splitlines()
        assert lines[0] == "kernel,impl,N,d,median_ms,work_count"
        assert len(lines) == 5


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ghk", "exponents", "--k", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["p"] == "4/3"

    def test_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ghk", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        for sub in ("norm", "dual", "inner", "dualnorm", "decompose", "verify",
                    "exponents", "bench"):
            assert sub in proc.stdout
