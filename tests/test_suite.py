import concurrent.futures
import json
import pathlib
import re
import weakref

import numpy as np
import pytest

from ghk import bench, from_values, records, suite
from ghk.budget import BudgetExceededError
from ghk.dual import (
    continuity_modulus,
    fourier_bound_gap,
    lemma1_gap,
    product_bound_gap,
    product_identity_gap,
)
from ghk.families import random_tuple
from ghk.norms import csg_gap
from ghk.records import (
    CheckRecord,
    SuiteReport,
    check_record,
    config_hash,
    instance_params,
    safe_ratio,
)
from ghk.suite import CHECKS, resolved_config, run_check, run_suite

SMALL_CONFIG = {
    "k": [2, 3],
    "d": [1],
    "n": 6,
    "reps": 2,
    "reps_overrides": {},
    "base_seed": 555,
}


class TestRecords:
    def test_safe_ratio(self):
        assert safe_ratio(1.0, 2.0) == 0.5
        assert safe_ratio(0.0, 0.0) == 0.0
        assert safe_ratio(1.0, 0.0) == float("inf")

    def test_record_serialization(self):
        rec = CheckRecord("x", lhs=1.0, rhs=2.0, passed=True, seed=3)
        doc = rec.as_dict()
        assert doc["pass"] is True and doc["seed"] == 3
        assert "runtime_ms" in doc
        assert "runtime_ms" not in rec.as_dict(include_runtime=False)
        assert doc["ratio"] == rec.ratio == 0.5
        assert "extra" not in doc and doc["params"] == {}

    def test_records_share_params(self):
        a = check_record("x", 1.0, 2.0, True, instance_params(2, 1, 4, 0.5, v=(1,)))
        b = check_record("x", 3.0, 0.0, True, instance_params(2, 1, 4, 0.5, v=(1,)))
        assert a.params is b.params and a.extra is b.extra
        with pytest.raises(TypeError):
            a.params["k"] = 3
        # 2 and 2.0 serialise apart, so they never share one mapping
        c = check_record("x", 1.0, 2.0, True, instance_params(2.0, 1, 4, 0.5, v=(1,)))
        assert c.params is not a.params
        assert json.loads(json.dumps(a.as_dict()))["params"]["v"] == [1]
        assert b.ratio == float("inf")

    def test_record_numbers_round_trip(self):
        # extreme float values read back exactly, runtimes included
        values = (-0.0, 5e-324, 1.7976931348623157e308, float("inf"), 0.1)
        extra = {"a": 0.3, "b": -2.5e-300}
        for lhs in values:
            rec = check_record("x", lhs, 0.1, True, {"k": 2}, extra=extra)
            rec.runtime_ms = 12.5
            assert (rec.lhs, rec.rhs, rec.runtime_ms) == (lhs, 0.1, 12.5)
            assert str(rec.lhs) == str(lhs) and dict(rec.extra) == extra
        mixed = check_record("x", 1.0, 2.0, True, {}, extra={"n": 3, "ok": True})
        assert mixed.as_dict()["extra"] == {"n": 3, "ok": True}
        assert isinstance(mixed.as_dict()["extra"]["n"], int)

    @pytest.mark.parametrize("name", ["eq2.1-lemma1", "oracle-norm"])
    def test_suite_records_share_params(self, name):
        # a benchmark keeps every record: equal params must be one object
        a, _ = run_check(SMALL_CONFIG, name, 2, 1, 5)
        b, _ = run_check(SMALL_CONFIG, name, 2, 1, 6)
        assert a.params["family"] == "random-nonneg"
        assert a.params is b.params
        assert a.extra is b.extra is records._NO_ENTRIES

    def test_suite_tags_a_copy(self):
        # the suite adds its family without touching the library's mapping
        rec, _ = run_check(SMALL_CONFIG, "eq2.1-lemma1", 2, 1, 5)
        assert rec.params["family"] == "random-nonneg"
        lib = lemma1_gap(random_tuple("random-nonneg", 2, 1, 6, 0.125, 5, punctured=True))
        assert "family" not in lib.params

    def test_report_counts_and_sorting(self):
        recs = [
            CheckRecord("b", 1, 1, True, seed=2),
            CheckRecord("a", 1, 1, False, seed=1),
            CheckRecord("a", 1, 1, None, seed=0),
        ]
        rep = SuiteReport("0", "h", recs)
        assert [r.name for r in rep.records] == ["a", "a", "b"]
        assert rep.counts["a"] == {"total": 2, "passed": 0, "failed": 1, "monitored": 1}
        assert not rep.all_passed
        assert len(rep.failures()) == 1

    def test_config_hash_stability(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})


def _library_record(name, family):
    """One record of a library check on small tuples drawn from ``family``."""
    k = 3 if name == "eq5.7-fourier" else 2

    def draw(seed, punctured=True):
        return random_tuple(family, k, 1, 4, 0.25, seed, punctured=punctured)

    calls = {
        "eq1.5-csg": lambda: csg_gap(draw(1, punctured=False)),
        "eq2.1-lemma1": lambda: lemma1_gap(draw(1)),
        "eq5.2-continuity": lambda: continuity_modulus(draw(1), 1),
        "eq5.4-product-identity": lambda: product_identity_gap(draw(1), draw(2)),
        "eq5.6-product-bound": lambda: product_bound_gap(draw(1), draw(2)),
        "eq5.7-fourier": lambda: fourier_bound_gap(draw(1)),
    }
    return calls[name]()


LIBRARY_CHECKS = [
    "eq1.5-csg",
    "eq2.1-lemma1",
    "eq5.2-continuity",
    "eq5.4-product-identity",
    "eq5.6-product-bound",
    "eq5.7-fourier",
]


class TestCheckRecord:
    @pytest.mark.parametrize("name", LIBRARY_CHECKS)
    @pytest.mark.parametrize("family", ["random-nonneg", "random-signed"])
    def test_library_ratio_is_safe_ratio(self, name, family):
        rec = _library_record(name, family)
        assert rec.name == name
        assert rec.ratio == safe_ratio(rec.lhs, rec.rhs)
        if name == "eq1.5-csg":
            assert rec.extra["ratio_norms_lp"] == safe_ratio(rec.rhs, rec.extra["rhs_lp"])

    @pytest.mark.parametrize("name", LIBRARY_CHECKS)
    def test_signed_inequalities_are_monitored(self, name):
        assert _library_record(name, "random-nonneg").passed is True
        signed = _library_record(name, "random-signed")
        if name == "eq5.4-product-identity":
            assert signed.passed is True  # an identity stays gated
        else:
            assert signed.passed is None

    def test_builder(self):
        rec = check_record("x", 0.0, 0.0, False, {"k": 2})
        assert (rec.ratio, rec.passed, rec.extra) == (0.0, False, {})
        assert check_record("x", 1.0, 2.0, False, {}, signed=True).passed is None
        assert instance_params(2, 1, 4, 0.5, family="f") == {
            "k": 2, "d": 1, "N": 4, "w": 0.5, "family": "f"
        }

    def test_tolerances_pinned(self):
        # a gate moves only when this table moves with it
        assert {name: getattr(records, name) for name in TOLERANCES} == TOLERANCES
        assert bench._GROUP_TOL == {"u2": 1e-8, "u3": 1e-9, "d2": 1e-9, "d3": 1e-9}


TOLERANCES = {
    "INEQ_SLACK": 1e-9,
    "FOURIER_SLACK": 1e-8,
    "IDENTITY_TOL": 1e-9,
    "HOMOGENEITY_TOL": 1e-12,
    "ORACLE_TOL": 1e-9,
    "SPECTRAL_TOL": 1e-8,
    "UNIT_BOUND_SLACK": 1e-6,
    "H_BOUND": 1.05,
    "CORRELATION_SHORTFALL": 0.05,
}


class TestRunSuite:
    def test_small_sweep_passes(self):
        rep = run_suite(SMALL_CONFIG, threads=1)
        assert rep.all_passed
        assert set(rep.counts) == set(CHECKS)

    def test_two_dimensional_sweep(self):
        cfg = {
            "k": [2, 3],
            "d": [2],
            "reps": 1,
            "reps_overrides": {},
            "base_seed": 77,
        }
        rep = run_suite(cfg, threads=2)
        assert rep.all_passed
        assert set(rep.counts) == set(CHECKS)

    def test_parallel_serial_identical(self):
        a = run_suite(SMALL_CONFIG, threads=1)
        b = run_suite(SMALL_CONFIG, threads=4)
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_serial_by_default(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("run_suite started a thread pool without threads > 1")

        # run_suite imports the pool class only on its threaded branch
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        cfg = {"checks": ["eq1.6-homogeneity"], "k": [2], "d": [1], "n": 4, "reps": 2}
        rep = run_suite(cfg)
        assert len(rep.records) == 2 and rep.all_passed
        assert all(r.runtime_ms > 0.0 for r in rep.records)
        with pytest.raises(AssertionError, match="thread pool"):
            run_suite(cfg, threads=2)

    def test_passing_grids_released(self, monkeypatch):
        # only failing records keep their grids for the artifacts
        held = []

        def check(ctx, k, d, seed):
            assert all(ref() is None for ref in held), "a passing check's grids outlived it"
            g = from_values(np.ones(4), 1.0)
            held.append(weakref.ref(g))
            return check_record("held", 1.0, 1.0, True, {"k": k}), {"g": g}

        monkeypatch.setitem(suite.CHECKS, "held", (check, lambda k: True))
        rep = run_suite({"checks": ["held"], "k": [2], "d": [1], "reps": 3})
        assert len(held) == 3 and rep.all_passed

    def test_empty_config(self):
        rep = run_suite({"checks": [], "reps": 0})
        assert rep.records == [] and rep.all_passed

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_suite({"checks": ["no-such-check"], "reps": 1})

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"ascent": {"step_init": 1}}, "'ascent'"),
            ({"reps": None}, "'reps'"),
            ([1, 2], "JSON object"),
            ({"k": 2}, "'k'"),
            ({"reps_overrides": {"eq2.1-lemma": 3}}, "'reps_overrides': 'eq2.1-lemma'"),
            ({"checks": ["oracle-norm", "eq2.1-lemma"]}, "'checks': 'eq2.1-lemma'"),
            ({"reps": -3, "reps_overrides": {}}, "'reps': -3"),
            ({"reps_overrides": {"oracle-norm": -1}}, "'reps_overrides': -1"),
            ({"k": [2, 1]}, "'k': 1"),
            ({"d": [0]}, "'d': 0"),
            ({"d": [4]}, "'d': 4"),
            ({"n": 0}, "'n': 0"),
            ({"spacing": 0.0}, "'spacing': 0.0"),
            ({"spacing": -0.125}, "'spacing': -0.125"),
            ({"deltas": [0.5, 2.0]}, "'deltas': 2.0"),
            ({"deltas": [0.0]}, "'deltas': 0.0"),
            ({"work_budget": -1}, "'work_budget': -1"),
            ({"base_seed": -1}, "'base_seed': -1"),
            ({"version": "banana"}, "'version': 'banana'"),
            ({"version": 2}, "'version': 2"),
            ({"version": 1.0}, "'version': 1.0"),
        ],
    )
    def test_malformed_config_names_its_key(self, config, key):
        with pytest.raises(ValueError, match=key):
            run_suite(config)

    def test_deterministic_bytes(self):
        a = run_suite(SMALL_CONFIG, threads=2)
        b = run_suite(SMALL_CONFIG, threads=2)
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_report_json_shape(self):
        rep = run_suite({**SMALL_CONFIG, "checks": ["eq1.6-homogeneity"]}, threads=1)
        doc = json.loads(rep.to_json())
        assert doc["all_passed"] is True
        assert doc["version"]
        assert doc["config_hash"]
        assert all(r["name"] == "eq1.6-homogeneity" for r in doc["records"])
        assert "worst_ratio" in doc


class TestReplay:
    def test_bit_identical(self):
        rep = run_suite(SMALL_CONFIG, threads=2)
        for rec in rep.records[::9]:
            again, _ = run_check(
                SMALL_CONFIG, rec.name, rec.params["k"], rec.params["d"], rec.seed
            )
            assert (again.lhs, again.rhs, again.ratio) == (rec.lhs, rec.rhs, rec.ratio)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_check(None, "bogus", 2, 1, 0)

    @pytest.mark.parametrize(
        "coords, message",
        [
            (("oracle-norm", 1, 1, 3), "replay coordinate 'k': 1 is below 2"),
            (("oracle-norm", 2, 1, -1), "replay coordinate 'seed': -1 is negative"),
            (("oracle-norm", 2, 4, 1), "replay coordinate 'd': 4 is not in 1..3"),
            (("bogus", 2, 1, 0), "replay coordinate 'name': 'bogus' is an unknown check"),
            (("oracle-norm", "x", 1, 0), "replay coordinate 'k': invalid literal"),
            (("oracle-norm", 2, 1, None), "replay coordinate 'seed'"),
        ],
    )
    def test_coordinates_read_as_config_values(self, coords, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_check(None, *coords)

    def test_string_coordinates(self):
        # the CLI hands NAME:K:D:SEED over as strings
        (a, _), (b, _) = (run_check(None, "oracle-norm", *c) for c in (("2", "1", "3"), (2, 1, 3)))
        assert a.as_dict(include_runtime=False) == b.as_dict(include_runtime=False)

    def test_inapplicable_k(self):
        with pytest.raises(ValueError, match="does not apply"):
            run_check(None, "eq5.7-fourier", 2, 1, 0)

    def test_returns_grids(self, monkeypatch):
        # the input grids come back with a failed record only
        rec, grids = run_check(SMALL_CONFIG, "eq2.1-lemma1", 2, 1, 5)
        assert rec.passed and grids is None
        monkeypatch.setitem(CHECKS, "stub-fail", (failing_check, lambda k: k == 2))
        rec, grids = run_check(SMALL_CONFIG, "stub-fail", 2, 1, 5)
        assert rec.passed is False and list(grids) == ["g"]


def failing_check(ctx, k, d, seed):
    """A stub check whose one record always fails."""
    from ghk.families import random_function
    from ghk.records import CheckRecord as CR

    g = random_function("random-nonneg", d, 4, 0.25, seed)
    rec = CR(
        name="stub-fail",
        lhs=2.0,
        rhs=1.0,
        passed=False,
        params={"k": k, "d": d, "N": 4, "w": 0.25},
    )
    return rec, {"g": g}


class TestFailureArtifacts:
    def test_artifacts_written(self, tmp_path, monkeypatch):
        # force one failing record through a stub check
        monkeypatch.setitem(CHECKS, "stub-fail", (failing_check, lambda k: k == 2))
        cfg = {"checks": ["stub-fail"], "k": [2], "d": [1], "reps": 1, "base_seed": 9}
        rep = run_suite(cfg, threads=1, artifacts_dir=str(tmp_path))
        assert not rep.all_passed
        case = tmp_path / "stub-fail-k2-d1-s9"
        assert (case / "g.ghk").exists()
        replay = (case / "replay.txt").read_text()
        assert "stub-fail:2:1:9" in replay

    def test_budget_abort_serialized(self, tmp_path):
        cfg = {
            "checks": ["oracle-norm"],
            "k": [3],
            "d": [1],
            "n": 8,
            "reps": 1,
            "reps_overrides": {},
            "base_seed": 1,
            "work_budget": 10,
        }
        with pytest.raises(BudgetExceededError):
            run_suite(cfg, threads=1, artifacts_dir=str(tmp_path))
        note = (tmp_path / "budget-abort.txt").read_text()
        assert "oracle-norm:3:1:1" in note


class TestCatalog:
    """Each ``CHECKS`` key is the name its records, its replay line and the
    README's catalog give it."""

    @pytest.mark.parametrize(
        "name, k", [(name, k) for name, (_, on) in CHECKS.items() for k in (2, 3) if on(k)]
    )
    def test_records_carry_their_key(self, tmp_path, name, k):
        rec, _ = run_check({"n": 4}, name, k, 1, 7)
        assert rec.name == name
        suite._write_failure_artifacts(str(tmp_path), rec, {})
        (case,) = tmp_path.iterdir()
        assert (case / "replay.txt").read_text() == f"ghk verify --replay '{name}:{k}:1:7'\n"

    def test_readme_lists_the_catalog(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("\n## Verification suite\n", 1)[1].split("\n## ", 1)[0]
        assert re.findall(r"^\| `([^`]+)`", section, flags=re.M) == list(CHECKS)


class TestConfig:
    def test_resolved_defaults(self):
        cfg = resolved_config(None)
        assert cfg["checks"] == list(CHECKS)
        assert cfg["k"] == [2, 3]

    def test_default_config_hash(self):
        assert config_hash(resolved_config(None)) == "8a37f9af744ed403"
        assert resolved_config({"version": 1}) == resolved_config(None)

    def test_resolved_merge(self):
        cfg = resolved_config({"n": 4})
        assert cfg == {**suite.DEFAULT_CONFIG, "n": 4, "checks": list(CHECKS)}

    @pytest.mark.parametrize(
        "config, key", [({"rep": 1}, "rep"), ({"check": ["oracle-norm"]}, "check")]
    )
    def test_unknown_key_refused(self, config, key):
        with pytest.raises(ValueError, match=f"suite config key '{key}': unknown"):
            resolved_config(config)
        with pytest.raises(ValueError, match=f"'{key}'"):
            run_check(config, "oracle-norm", 2, 1, 3)
