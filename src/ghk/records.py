"""Check records, their gate tolerances, and suite reports.

A :class:`CheckRecord` captures one numerically verified inequality or
identity instance: the two sides, their ratio, and a pass flag. Every record
is built by :func:`check_record`, and every gate reads its tolerance from the
names below. Signed-input runs of the inequality checks are recorded with
``passed=None`` (monitored, not gated), since the constant-1 bounds are
proved for nonnegative inputs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType


#: Relative slack of the constant-one inequality gates and the ascent trail.
INEQ_SLACK = 1e-9
#: Relative slack of the transform-norm bound (eq5.7).
FOURIER_SLACK = 1e-8
#: Relative gap of the exact identities (eq3.2 pairing, eq5.4, duality).
IDENTITY_TOL = 1e-9
#: Relative gap of the dual field's homogeneity identity (eq1.6).
HOMOGENEITY_TOL = 1e-12
#: Gap of a recursive route from its brute oracle, per max(1, oracle).
ORACLE_TOL = 1e-9
#: Gap of the spectral route from the brute oracle, per max(1, oracle).
SPECTRAL_TOL = 1e-8
#: Slack of the decomposition's unit bounds (eq4.2) and of eq4.9's p-norm.
UNIT_BOUND_SLACK = 1e-6
#: Ceiling of ||H||_s / delta in the decomposition (eq4.2).
H_BOUND = 1.05
#: Share of the correlation floor (theta/2)^(2^k) eq4.9 may fall short.
CORRELATION_SHORTFALL = 0.05


def safe_ratio(lhs, rhs):
    """``lhs / rhs`` for ``rhs > 0``; 0 when both vanish, inf otherwise."""
    if rhs > 0.0:
        return lhs / rhs
    return 0.0 if lhs == 0.0 else math.inf


#: The ``params`` or ``extra`` of a record that has none, shared by all.
_NO_ENTRIES = MappingProxyType({})


@functools.lru_cache(maxsize=1024)
def _interned_params(key, items):
    return MappingProxyType(dict(items))


def shared_params(params):
    """A read-only copy of ``params``, one object for all equal ``params``.

    Equal means equal ``repr`` of the items, so that 2 and 2.0 stay apart.
    """
    if not params:
        return _NO_ENTRIES
    items = tuple(params.items())
    return _interned_params(repr(items), items)


@dataclass(slots=True, eq=False)
class CheckRecord:
    """One check instance: the two sides ``lhs`` and ``rhs``, the pass flag
    ``passed``, the ``seed``, the coordinates ``params``, the ``extra``
    values and the runtime. ``ratio`` is ``safe_ratio(lhs, rhs)``.

    A sweep or a benchmark may keep many records, so ``params`` is one
    read-only mapping shared by every record with equal ones
    (:func:`shared_params`), and an empty ``extra`` is one shared mapping.
    """

    name: str
    lhs: float
    rhs: float
    passed: bool | None
    seed: int | None = None
    params: Mapping = None
    runtime_ms: float = 0.0
    extra: Mapping = None

    def __post_init__(self):
        self.params = shared_params(self.params)
        if not self.extra:
            self.extra = _NO_ENTRIES

    @property
    def ratio(self):
        return safe_ratio(self.lhs, self.rhs)

    def as_dict(self, include_runtime=True):
        doc = {
            "name": self.name,
            "seed": self.seed,
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "pass": self.passed,
        }
        if self.extra:
            doc["extra"] = dict(self.extra)
        if include_runtime:
            doc["runtime_ms"] = self.runtime_ms
        return doc


def instance_params(k, d, n, w, **more):
    """A record's coordinates (order, dimension, extent, pitch) and extras."""
    return {"k": k, "d": d, "N": n, "w": w, **more}


def check_record(name, lhs, rhs, passed, params, signed=False, extra=None):
    """The record of one check instance, with ``ratio = safe_ratio(lhs, rhs)``.

    An inequality run on ``signed`` inputs is monitored (``passed=None``),
    not gated.
    """
    passed = None if signed else passed
    return CheckRecord(name, lhs, rhs, passed, params=params, extra=dict(extra or {}))


def config_hash(config):
    """Stable hash of a JSON-serializable suite configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class SuiteReport:
    version: str
    config_hash: str
    records: list

    def __post_init__(self):
        self.records = sorted(
            self.records,
            key=lambda r: (
                r.name,
                r.seed if r.seed is not None else -1,
                r.params.get("k", 0),
                r.params.get("d", 0),
            ),
        )

    @property
    def counts(self):
        out = {}
        for r in self.records:
            c = out.setdefault(r.name, {"total": 0, "passed": 0, "failed": 0, "monitored": 0})
            c["total"] += 1
            if r.passed is None:
                c["monitored"] += 1
            elif r.passed:
                c["passed"] += 1
            else:
                c["failed"] += 1
        return out

    @property
    def worst_ratio(self):
        out = {}
        for r in self.records:
            if math.isfinite(r.ratio):
                out[r.name] = max(out.get(r.name, r.ratio), r.ratio)
        return out

    @property
    def all_passed(self):
        return all(r.passed for r in self.records if r.passed is not None)

    def failures(self):
        return [r for r in self.records if r.passed is False]

    def as_dict(self, include_runtime=True):
        return {
            "version": self.version,
            "config_hash": self.config_hash,
            "all_passed": self.all_passed,
            "counts": self.counts,
            "worst_ratio": self.worst_ratio,
            "records": [r.as_dict(include_runtime) for r in self.records],
        }

    def to_json(self, include_runtime=True):
        return json.dumps(self.as_dict(include_runtime), indent=2, sort_keys=True)

    def canonical_bytes(self):
        """Deterministic serialization: runtimes (the only timestamps) dropped."""
        return json.dumps(
            self.as_dict(include_runtime=False), sort_keys=True, separators=(",", ":")
        ).encode()
