"""Spans around the public functions of ``ghk``, recorded from outside it.

:class:`Tracer` wraps every public function of the traced ``ghk`` modules,
plus the ``numpy.fft`` transforms they call, and records one span per call:
name, start, end, parent span, op id and one modelled amount (lattice visits,
transform work, transformed elements or ascent iterations, by function).
Modules that import a function by name hold their own binding, so the wrapper
replaces every binding of the original in every loaded ``ghk`` module.

Spans are kept in flat in-memory arrays and written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from array import array
from time import perf_counter

import numpy as np
import numpy.fft

from ghk import budget

TRACED_MODULES = ("kernels", "norms", "dual", "antiuniform", "grid", "suite")
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _fft_elements(args, kwargs, _result, multi_axis):
    """Elements transformed: the input shape with the transform lengths applied."""
    shape = list(np.shape(args[0] if args else kwargs["a"]))
    if multi_axis:
        s = _arg(args, kwargs, 1, "s")
        axes = _arg(args, kwargs, 2, "axes")
        if axes is None:
            axes = range(len(shape)) if s is None else range(len(shape) - len(s), len(shape))
        if s is not None:
            for ax, m in zip(axes, s):
                shape[ax] = int(m)
    else:
        n = _arg(args, kwargs, 1, "n")
        if n is not None:
            shape[_arg(args, kwargs, 2, "axis", -1)] = int(n)
    return math.prod(shape)


def _dual_rec_work(f, k):
    # (2N-1)^((k-2)d) order-2 fields, each one padded transform of (3N)^d
    shifts = math.prod(2 * n - 1 for n in f.extents) ** max(k - 2, 0)
    return shifts * budget.fft_work([3 * n for n in f.extents])


#: span name -> amount(args, kwargs, result), recorded after the call
METERS = {
    "kernels.gowers_sum": lambda a, kw, r: budget.brute_gowers_work(
        np.shape(a[0])[1:], _arg(a, kw, 1, "k")
    ),
    "kernels.dual_field_sum": lambda a, kw, r: budget.brute_dual_work(
        np.shape(a[0])[1:], _arg(a, kw, 1, "k"), _arg(a, kw, 3, "out_shape")
    ),
    "kernels.dual_pair_field_sum": lambda a, kw, r: budget.brute_dual_work(
        np.shape(a[0])[1:], 2 * _arg(a, kw, 2, "k"), _arg(a, kw, 4, "out_shape")
    ),
    "norms.gowers_norm_rec": lambda a, kw, r: (
        budget.rec_gowers_work(a[0].extents, _arg(a, kw, 1, "k"))
        if int(_arg(a, kw, 1, "k")) >= 2
        else 0
    ),
    "dual.dual_rec": lambda a, kw, r: _dual_rec_work(a[0], int(_arg(a, kw, 1, "k"))),
    "antiuniform.decompose": lambda a, kw, r: r.iterations,
    "antiuniform.dual_norm_lower": lambda a, kw, r: r.iterations,
    "antiuniform.triple_dual_lower": lambda a, kw, r: r.iterations,
}
for _name in FFT_FUNCTIONS:
    METERS[f"fft.{_name}"] = functools.partial(_fft_elements, multi_axis=_name.endswith("n"))

#: span name -> label(args, kwargs): one span name per suite check
LABELS = {"suite.run_check": lambda a, kw: "suite." + _arg(a, kw, 1, "name")}


class Tracer:
    """Records spans while installed (:meth:`install` / :meth:`uninstall`,
    or as a context manager)."""

    def __init__(self):
        self.op_id = -1
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack = []
        self._bindings = self._find_bindings()

    def _intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name):
        tracer = self
        nid = self._intern(name)
        meter = METERS.get(name)
        label = LABELS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer.start)
            tracer.name.append(nid if label is None else tracer._intern(label(args, kwargs)))
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            tracer.amount.append(0.0)
            tracer._stack.append(i)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = perf_counter()
                tracer._stack.pop()
            if meter is not None:
                tracer.amount[i] = meter(args, kwargs, result)
            return result

        return traced

    def _find_bindings(self):
        """``(module, attribute, original, wrapper)`` for every binding to wrap."""
        wrapped = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"ghk.{short}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        bindings = []
        # every name that holds an original, wherever it was imported
        for modname, mod in list(sys.modules.items()):
            if modname == "ghk" or modname.startswith("ghk."):
                for attr, obj in vars(mod).items():
                    hit = wrapped.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        bindings.append((mod, attr, obj, hit[1]))
        for attr in FFT_FUNCTIONS:
            obj = getattr(numpy.fft, attr)
            bindings.append((numpy.fft, attr, obj, self._wrap(obj, f"fft.{attr}")))
        return bindings

    def install(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "amount": np.array(self.amount, dtype=np.float64),
        }

    def summary(self):
        """Per span name: ``calls``, ``self_s``, ``incl_s``, ``amount`` and
        ``calls_by_parent`` (calls per name of the enclosing span)."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - covered
        calls = np.bincount(a["name"], minlength=n_names)
        self_s = np.bincount(a["name"], weights=self_time, minlength=n_names)
        incl_s = np.bincount(a["name"], weights=dur, minlength=n_names)
        amount = np.bincount(a["name"], weights=a["amount"], minlength=n_names)
        out = {
            name: {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "incl_s": float(incl_s[i]),
                "amount": float(amount[i]),
                "calls_by_parent": {},
            }
            for i, name in enumerate(self.names)
        }
        pairs = np.stack([a["name"][nested], a["name"][a["parent"][nested]]], axis=1)
        if pairs.size:
            uniq, counts = np.unique(pairs, axis=0, return_counts=True)
            for (child, parent), cnt in zip(uniq, counts):
                out[self.names[child]]["calls_by_parent"][self.names[parent]] = int(cnt)
        return out

    def write(self, path, meta):
        """Write every span and the run's stamp to one ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names), meta=np.array(json.dumps(meta)), **self.arrays()
        )
