"""Command-line driver.

Subcommands: decompose, compare, scaling, lemmas, bounds.  Exit codes:
0 success, 2 validation failure (bad input or arguments, any L1GramError
or ValueError), 3 numerical failure (a singular peeling pivot, any LAPACK
LinAlgError, or a decomposition that fails validation).  LinAlgError
subclasses ValueError, so the numerical clause comes first.  The
experiment suites run serially and emit their rows in grid order.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .bounds import (
    DEFAULT_N_CAP,
    piplus_dual_upper,
    piplus_rank1_lower,
    rho1_exact,
    rho1_multistart,
)
from .decompose import (PIVOT_RULE_KINDS, PivotRule, eigen_decomposer,
                        greedy_peel, validate)
from .errors import L1GramError, SingularPivotError
from .experiments import run_compare, run_lemmas, run_scaling, write_rows
from .linalg import entrywise_one_norm, trace
from .matio import load_matrix, report_to_dict, save_decomposition
from .rng import Rng

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _int_list(text: str):
    return [int(t) for t in text.split(",") if t]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="l1gram",
        description="Rank-one decompositions of PSD matrices with l1 costs, "
                    "and bounds for the associated extremal ratios.",
    )
    p.add_argument("--version", action="version", version=f"l1gram {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="decompose one matrix file")
    d.add_argument("matrix", help="matrix text file (line 1: n; then n rows)")
    d.add_argument("--method", choices=("peel", "eigen"), default="peel")
    d.add_argument("--pivot", choices=PIVOT_RULE_KINDS, default="min_cost_per_trace")
    d.add_argument("--pivot-seed", type=int, default=0,
                   help="seed for --pivot random_order")
    d.add_argument("--out", help="write the decomposition export here")
    d.add_argument("--tol-rec", type=float, default=1e-9)

    c = sub.add_parser("compare", help="eigen vs peeling costs over an ensemble")
    c.add_argument("--n", type=_int_list, default=[10, 20])
    c.add_argument("--trials", type=int, default=20)
    c.add_argument("--ensemble", choices=("wishart", "circulant", "all_ones",
                                          "diagonal"), default="wishart")
    c.add_argument("--seed", type=int, default=1)
    c.add_argument("--eps", type=float, default=None,
                   help="off-diagonal size for the circulant ensemble")
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.add_argument("--out", help="output path (default stdout)")

    s = sub.add_parser("scaling", help="ratio lower bounds against n")
    s.add_argument("--n", type=_int_list, default=[4, 6, 8, 10, 12])
    s.add_argument("--seeds", type=int, default=10, help="seeds per n")
    s.add_argument("--seed", type=int, default=1, help="base seed")
    s.add_argument("--c", type=float, default=2.5)
    s.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    s.add_argument("--restarts", type=int, default=64)
    s.add_argument("--steps", type=int, default=500)
    s.add_argument("--n-cap", type=int, default=DEFAULT_N_CAP)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--out")

    m = sub.add_parser("lemmas", help="witness, extreme-eigenvalue and "
                                      "restricted-norm statistics")
    m.add_argument("--n", type=_int_list, default=[50, 100, 200])
    m.add_argument("--trials", type=int, default=20)
    m.add_argument("--seed", type=int, default=1)
    m.add_argument("--c", type=float, default=3.0)
    m.add_argument("--alphas", type=lambda t: [float(x) for x in t.split(",")],
                   default=[0.05, 0.1, 0.2])
    m.add_argument("--format", choices=("csv", "json"), default="csv")
    m.add_argument("--out")

    b = sub.add_parser("bounds", help="rho1/piplus reports for one matrix")
    b.add_argument("matrix")
    b.add_argument("--n-cap", type=int, default=DEFAULT_N_CAP)
    b.add_argument("--restarts", type=int, default=64)
    b.add_argument("--steps", type=int, default=500)
    b.add_argument("--seed", type=int, default=1)
    b.add_argument("--tol-dual", type=float, default=1e-8)
    b.add_argument("--out", help="output path (default stdout)")
    return p


def _emit(rows, args):
    if args.out:
        write_rows(args.out, rows, args.format)
    else:
        write_rows(sys.stdout, rows, args.format)


def _cmd_decompose(args) -> int:
    A = load_matrix(args.matrix)
    if args.method == "eigen":
        dec = eigen_decomposer(A)
    else:
        if args.pivot == "random_order":
            rule = PivotRule.random_order(args.pivot_seed)
        else:
            rule = PivotRule(args.pivot)
        dec = greedy_peel(A, rule)
    report = validate(dec, A, tol_rec=args.tol_rec)
    n_tr = A.n * trace(A)
    one_norm = entrywise_one_norm(A)
    print(f"n               {A.n}")
    print(f"vectors         {dec.k}")
    print(f"total_cost      {dec.total_cost:.17g}")
    print(f"n*tr(A)         {n_tr:.17g}")
    print(f"entrywise_norm  {one_norm:.17g}")
    print(f"bound_margin    {report.bound_margin:.17g}")
    print(f"reconstruction  max_err={report.reconstruction_error:.3e} "
          f"ok={report.reconstruction_ok}")
    if args.out:
        save_decomposition(args.out, dec)
        report_path = f"{args.out}.report.json"
        with open(report_path, "w") as fh:
            json.dump({
                "n": A.n,
                "vectors": dec.k,
                "source": dec.source,
                "total_cost": dec.total_cost,
                "n_times_trace": n_tr,
                "entrywise_one_norm": one_norm,
                "bound_margin": report.bound_margin,
                "residual_trace": dec.residual_trace,
                "reconstruction_error": report.reconstruction_error,
                "reconstruction_ok": report.reconstruction_ok,
                "cost_ok": report.cost_ok,
                "bound_ok": report.bound_ok,
                "messages": list(report.messages),
            }, fh, indent=2)
            fh.write("\n")
        print(f"export          {args.out}")
        print(f"report          {report_path}")
    if not report.ok:
        for msg in report.messages:
            print(f"validation: {msg}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_bounds(args) -> int:
    A = load_matrix(args.matrix)
    reports = []
    if A.n <= args.n_cap:
        r1 = rho1_exact(A, n_cap=args.n_cap)
    else:
        r1 = rho1_multistart(A, restarts=args.restarts, steps=args.steps,
                             rng=Rng(args.seed))
    reports.append(r1)
    rank1 = piplus_rank1_lower(A, r1)
    reports.append(rank1)
    reports.append(piplus_dual_upper(A, tol=args.tol_dual))
    payload = json.dumps([report_to_dict(r) for r in reports], indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command == "compare":
            if args.eps is not None and args.ensemble != "circulant":
                raise ValueError("--eps applies only to --ensemble circulant")
            rows = run_compare(args.n, args.trials, args.ensemble, args.seed,
                               eps=args.eps)
            _emit(rows, args)
            return EXIT_OK
        if args.command == "scaling":
            rows = run_scaling(args.n, args.seeds, args.seed, c=args.c,
                               mode=args.mode, restarts=args.restarts,
                               steps=args.steps, n_cap=args.n_cap)
            _emit(rows, args)
            return EXIT_OK
        if args.command == "lemmas":
            rows = run_lemmas(args.n, args.trials, args.seed, c=args.c,
                              alphas=args.alphas)
            _emit(rows, args)
            return EXIT_OK
        if args.command == "bounds":
            return _cmd_bounds(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (SingularPivotError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (L1GramError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
