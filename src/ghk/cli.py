"""Command-line front end.

Subcommands are thin adapters over the library API: identical inputs through
the CLI and through Python produce identical numbers. All numeric output is
serialized in shortest round-trip form (Python's float repr / json), so
printed values parse back bit-identically.

Errors print a machine-parsable JSON diagnostic to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .antiuniform import AscentOptions, decompose, dual_norm_lower
from .bench import KERNELS, bench, rows_to_csv
from .budget import brute_gowers_work, rec_gowers_work, spectral_work
from .cubes import FunctionTuple
from .dual import (
    continuity_modulus,
    dual_brute,
    dual_rec,
    fourier_bound_gap,
    lemma1_gap,
    product_bound_gap,
    product_identity_gap,
)
from .exponents import exponent_triple
from .grid import inner
from .gridio import read_grid, write_ghk, write_grid
from .norms import csg_gap, gowers_norm
from .suite import run_check, run_suite


def _ascent_opts(args):
    given = {n: getattr(args, n) for n in ("max_iters", "rel_tol")}
    return AscentOptions(**{n: v for n, v in given.items() if v is not None})


def _add_ascent_flags(sub):
    sub.add_argument("--max-iters", type=int, default=None)
    sub.add_argument("--rel-tol", type=float, default=None)


def _print(doc, as_json):
    if as_json:
        print(json.dumps(doc))
    else:
        for key, val in doc.items():
            print(f"{key}: {val!r}" if isinstance(val, float) else f"{key}: {val}")


def _cmd_exponents(args):
    print(json.dumps(exponent_triple(args.k).as_dict()))
    return 0


def _cmd_norm(args):
    f = read_grid(args.inputs[0])
    value = gowers_norm(f, args.k, algo=args.algo, work_budget=args.budget)
    if args.algo == "brute":
        work = brute_gowers_work(f.extents, args.k)
        padding = []
    elif args.algo == "spectral":
        padding = [3 * n for n in f.extents]
        work = spectral_work(f.extents)
    else:
        padding = [2 * n for n in f.extents]
        work = rec_gowers_work(f.extents, args.k)
    _print(
        {"value": value, "k": args.k, "algo": args.algo, "work_count": work,
         "padding": padding},
        args.json,
    )
    return 0


def _cmd_inner(args):
    if len(args.inputs) != 2:
        raise ValueError("inner needs exactly two --in files")
    f, g = (read_grid(p) for p in args.inputs)
    _print({"value": inner(f, g)}, args.json)
    return 0


def _tuple_from_files(paths, k, punctured):
    fns = [read_grid(p) for p in paths]
    size = ((1 << k) - 1) if punctured else (1 << k)
    if len(fns) == 1 and punctured:
        return FunctionTuple.constant(fns[0], k, punctured=True)
    if len(fns) != size:
        raise ValueError(
            f"need {size} grids for k={k}"
            f"{' (punctured)' if punctured else ''}, got {len(fns)}"
        )
    return FunctionTuple.punctured(k, fns) if punctured else FunctionTuple.full(k, fns)


def _cmd_dual(args):
    fs = _tuple_from_files(args.inputs, args.k, punctured=True)
    route = dual_rec if args.algo == "rec" else dual_brute
    out = route(fs, work_budget=args.budget)
    write_grid(out, args.out)
    _print(
        {"out": args.out, "extents": list(out.extents), "origin": list(out.origin)},
        args.json,
    )
    return 0


#: ``ghk check`` names: (library check, punctured tuples it takes; 0 for one
#: full tuple)
_CHECKS = {
    "csg": (csg_gap, 0),
    "lemma1": (lemma1_gap, 1),
    "continuity": (continuity_modulus, 1),
    "product-identity": (product_identity_gap, 2),
    "product-bound": (product_bound_gap, 2),
    "fourier-bound": (fourier_bound_gap, 1),
}


def _cmd_check(args):
    name = args.name
    fn, tuples = _CHECKS[name]
    if tuples == 2:
        m = (1 << args.k) - 1
        if len(args.inputs) != 2 * m:
            raise ValueError(f"need {2 * m} grids (two punctured tuples) for {name}")
        halves = (args.inputs[:m], args.inputs[m:])
        fargs = [_tuple_from_files(half, args.k, punctured=True) for half in halves]
    else:
        fargs = [_tuple_from_files(args.inputs, args.k, punctured=tuples == 1)]
    if name == "continuity":
        if args.shift is None:
            raise ValueError("continuity needs --shift (comma-separated integers)")
        fargs.append(tuple(int(c) for c in args.shift.split(",")))
    t0 = time.perf_counter()
    record = fn(*fargs, work_budget=args.budget)
    record.runtime_ms = 1e3 * (time.perf_counter() - t0)
    print(json.dumps(record.as_dict()))
    return 0 if record.passed is not False else 1


def _cmd_dualnorm(args):
    g = read_grid(args.inputs[0])
    est = dual_norm_lower(g, args.k, _ascent_opts(args))
    if args.out_witness:
        write_grid(est.witness, args.out_witness)
    _print(
        {
            "value": est.value,
            "iterations": est.iterations,
            "passes": est.passes,
            "converged": est.converged,
            "witness": args.out_witness,
        },
        args.json,
    )
    return 0


def _cmd_decompose(args):
    g = read_grid(args.inputs[0])
    res = decompose(g, args.k, args.delta, _ascent_opts(args))
    write_ghk(res.F, args.out_f)
    write_ghk(res.H, args.out_h)
    if args.out_gnorm:
        write_ghk(res.g_normalized, args.out_gnorm)
    report = {
        "k": args.k,
        "delta": args.delta,
        "C": res.C,
        "iterations": res.iterations,
        "passes": res.diagnostics["passes"],
        "stationarity_residual": res.stationarity_residual,
        "norms": res.norms,
        "residual_history": res.residual_history,
        "diagnostics": res.diagnostics,
        "files": {"F": args.out_f, "H": args.out_h, "g_normalized": args.out_gnorm},
    }
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print(json.dumps(report))
    return 0


def _cmd_verify(args):
    config = None
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
    if args.replay:
        parts = args.replay.split(":")
        if len(parts) != 4:
            raise ValueError("--replay expects NAME:K:D:SEED")
        name, k, d, seed = parts[0], int(parts[1]), int(parts[2]), int(parts[3])
        record, _ = run_check(config, name, k, d, seed)
        print(json.dumps(record.as_dict()))
        return 0 if record.passed is not False else 1
    report = run_suite(config, threads=args.threads, artifacts_dir=args.artifacts)
    payload = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    summary = {
        "all_passed": report.all_passed,
        "records": len(report.records),
        "counts": report.counts,
        "out": args.out,
    }
    print(json.dumps(summary))
    return 0 if report.all_passed else 1


def _cmd_bench(args):
    names = [s for s in args.kernels.split(",") if s] if args.kernels else list(KERNELS)
    sizes = [int(s) for s in args.sizes.split(",") if s] if args.sizes else []
    rows = bench(names, sizes, reps=args.reps, d=args.d, seed=args.seed)
    payload = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ghk",
        description=(
            "Uniformity norms, cubic convolution products and anti-uniform "
            "decompositions on lattice step functions"
        ),
    )
    parser.add_argument("--version", action="version", version=f"ghk {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("exponents", help="print the exact exponent triple")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_exponents)

    p = subs.add_parser("norm", help="order-k uniformity norm of a grid file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--algo", choices=("brute", "rec", "spectral"), default="rec")
    p.add_argument("--in", dest="inputs", action="append", required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_norm)

    p = subs.add_parser("inner", help="pairing of two grid files")
    p.add_argument("--in", dest="inputs", action="append", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_inner)

    p = subs.add_parser("dual", help="cubic convolution product field")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--algo", choices=("brute", "rec"), default="brute")
    p.add_argument("--in", dest="inputs", action="append", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_dual)

    p = subs.add_parser("check", help="run one inequality check, emit the record")
    p.add_argument("name", choices=tuple(_CHECKS))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="inputs", action="append", required=True)
    p.add_argument("--shift", default=None, help="lattice offset for continuity")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_check)

    p = subs.add_parser("dualnorm", help="certified dual-norm lower bound")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="inputs", action="append", required=True)
    p.add_argument("--out-witness", default=None)
    p.add_argument("--json", action="store_true")
    _add_ascent_flags(p)
    p.set_defaults(fn=_cmd_dualnorm)

    p = subs.add_parser("decompose", help="anti-uniform decomposition g = D_k F + H")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--in", dest="inputs", action="append", required=True)
    p.add_argument("--out-f", required=True)
    p.add_argument("--out-h", required=True)
    p.add_argument("--out-gnorm", default=None)
    p.add_argument("--report", default=None)
    _add_ascent_flags(p)
    p.set_defaults(fn=_cmd_decompose)

    p = subs.add_parser("verify", help="run the randomized verification suite")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--artifacts", default=None)
    p.add_argument("--replay", default=None, help="NAME:K:D:SEED")
    p.set_defaults(fn=_cmd_verify)

    p = subs.add_parser("bench", help="time kernels, emit CSV rows")
    p.add_argument("--kernels", default=None, help="comma list; default all")
    p.add_argument("--sizes", default="", help="comma list of N values")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, ArithmeticError, KeyError, RuntimeError) as err:
        diag = {"error": type(err).__name__, "message": str(err)}
        print(json.dumps(diag), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
