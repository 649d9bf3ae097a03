"""The benchmark's workloads: inputs made from a seed, the ops of one pass,
and the checks every op's output must pass.

One op is one call into a public entry point: ``l1gram.cli.main`` in-process
for the CLI scenarios, ``l1gram.bounds.certify_ratio`` for the structured
route.  Set-up samples every input matrix with the package's own samplers
and writes it to a file; the program sees only those files and the seeds
listed in ``inputs.json``.  Entry points and samplers are looked up on their
modules when called, so a tracer that rebinds them sees every op and the
set-up.

Each pass repeats the same ops, so an op's output must be identical in every
pass.  The mix inside a pass is weighted so that the pooled median and 90th
percentile of op times each fall well inside one group of equal-cost ops,
never on the boundary between two groups.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List

import numpy as np

import l1gram
from l1gram import GramMatrix, Rng
from l1gram import bounds as bounds_mod
from l1gram import cli


class CheckError(Exception):
    """An op's output broke one of the program's own invariants."""


@dataclass
class Op:
    """One call into an entry point and the check of its output.

    ``check(result)`` returns ``(values, blob)``: the recorded output values
    and the bytes whose hash must repeat in every pass; it raises
    ``CheckError`` on a violated invariant.  ``outputs`` are removed before
    each call so a stale file can never pass a check.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]
    outputs: List[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    ops: List[Op]          # one pass, in order; ops[0] is also the warm-up
    quality: str           # name of the workload's output-quality metric
    quality_of: Callable[[dict], float]  # {label: values} -> metric value
    probe: dict            # a cheap call of the same entry point; see probe.py


PIVOTS = ("min_cost_per_trace", "max_diagonal", "max_trace_removal",
          "random_order")


def run_cli(argv) -> int:
    """Call the CLI in-process with its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _exit_ok(rc) -> None:
    _require(rc == 0, f"exit code {rc}")


def _seeds(rng: Rng, count: int) -> List[int]:
    return [int(s) for s in rng.integers(2**31, count)]


def _write_inputs(workdir: Path, payload) -> None:
    with open(workdir / "inputs.json", "w") as fh:
        json.dump(payload, fh, indent=1)


# -- decompose ---------------------------------------------------------------

def _decompose_op(label, matrix_path, out, argv_tail, n_tr):
    def check(rc):
        _exit_ok(rc)
        export = Path(out).read_bytes()
        report_bytes = Path(out + ".report.json").read_bytes()
        report = json.loads(report_bytes)
        _require(report["reconstruction_ok"] and report["cost_ok"]
                 and report["bound_ok"],
                 f"validate(...) not ok: {report['messages']}")
        total = float(report["total_cost"])
        _require(total <= n_tr * (1.0 + 1e-8),
                 f"total_cost {total!r} exceeds n*tr(A) = {n_tr!r}")
        header = export.split(b"\n", 1)[0].split()
        _require(float(header[2]) == total, "export and report disagree on total_cost")
        values = {"total_cost": total, "cost_ratio": total / n_tr,
                  "vectors": int(report["vectors"]),
                  "residual_trace": float(report["residual_trace"])}
        return values, export + report_bytes

    argv = ["decompose", str(matrix_path), *argv_tail, "--out", out]
    return Op(label, lambda: run_cli(argv), check, [out, out + ".report.json"])


def setup_decompose(seed: int, workdir: Path) -> Workload:
    root = Rng(seed)
    matrices = {"full": l1gram.sample_wishart(400, root.child(0)),
                "rank40": l1gram.sample_wishart(400, root.child(1), p=40)}
    pivot_seed = _seeds(root.child(2), 1)[0]
    paths, n_tr = {}, {}
    for key, A in matrices.items():
        paths[key] = workdir / f"wishart_{key}.txt"
        l1gram.save_matrix(paths[key], A)
        n_tr[key] = A.n * float(np.trace(A.entries))
    _write_inputs(workdir, {"matrices": {k: str(p.name) for k, p in paths.items()},
                            "pivot_seed": pivot_seed})

    def op(key, method, pivot=None):
        label = f"{key}/{method}" + (f"/{pivot}" if pivot else "")
        tail = ["--method", method]
        if pivot:
            tail += ["--pivot", pivot, "--pivot-seed", str(pivot_seed)]
        out = str(workdir / (label.replace("/", "_") + ".dec.txt"))
        return _decompose_op(label, paths[key], out, tail, n_tr[key])

    # Warm op times: rank40 eigen < rank40 peel < full eigen < full peel.
    # Running each rank40 peel twice puts the pooled median inside the
    # rank40-peel group and the 90th percentile inside the full-peel group.
    full = [op("full", "eigen")] + [op("full", "peel", p) for p in PIVOTS]
    rank40 = [op("rank40", "eigen")] + [op("rank40", "peel", p) for p in PIVOTS]
    ops = full + rank40 + rank40[1:]
    probe = {"kind": "cli", "argv": ["decompose", str(paths["rank40"]), "--method",
                                     "eigen", "--out", str(workdir / "probe.dec.txt")]}
    return Workload("decompose", ops, "cost_ratio.mean",
                    lambda vals: float(np.mean([v["cost_ratio"] for v in vals.values()])),
                    probe)


# -- scaling-exact -------------------------------------------------------------

SCALING_NS = (4, 6, 8, 10, 12)
SCALING_SEEDS_PER_N = 3


def _strip_wall_time(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    drop = rows[0].index("wall_time_ms")
    return "\n".join(",".join(f for i, f in enumerate(r) if i != drop) for r in rows)


def _scaling_op(n, cell_seed, out):
    def check(rc):
        _exit_ok(rc)
        text = _strip_wall_time(Path(out).read_text())
        rows = {r["quantity"]: r for r in csv.DictReader(io.StringIO(text))}
        ratio = float(rows["ratio"]["value"])
        _require(ratio >= 1.0, f"exact-mode ratio {ratio!r} < 1")
        values = {"ratio": ratio,
                  "piplus_lower": float(rows["piplus_lower"]["value"]),
                  "rho1_upper": float(rows["rho1_upper"]["value"])}
        return values, text.encode()

    argv = ["scaling", "--n", str(n), "--seeds", "1", "--seed", str(cell_seed),
            "--mode", "exact", "--out", out]
    return Op(f"n={n}/seed={cell_seed}", lambda: run_cli(argv), check, [out])


def setup_scaling_exact(seed: int, workdir: Path) -> Workload:
    # The CLI samples each cell's matrix from its seed; the cell seeds are
    # the inputs.  Equal shares of each n put the median on n=8 cells and
    # the 90th percentile on n=12 cells.
    cell_seeds = _seeds(Rng(seed).child(3), SCALING_SEEDS_PER_N)
    _write_inputs(workdir, {"n": list(SCALING_NS), "cell_seeds": cell_seeds})
    ops = [_scaling_op(n, s, str(workdir / f"scaling_n{n}_s{s}.csv"))
           for n in SCALING_NS for s in cell_seeds]
    probe = {"kind": "cli", "argv": [
        "scaling", "--n", str(SCALING_NS[0]), "--seeds", "1", "--seed",
        str(cell_seeds[0]), "--mode", "exact", "--out", str(workdir / "probe.csv")]}
    return Workload("scaling-exact", ops, "ratio_lower.mean",
                    lambda vals: float(np.mean([v["ratio"] for v in vals.values()])),
                    probe)


# -- bounds --------------------------------------------------------------------

def _bounds_op(label, matrix_path, out):
    def check(rc):
        _exit_ok(rc)
        blob = Path(out).read_bytes()
        r1, rank1, dual = json.loads(blob)
        _require((r1["quantity"], rank1["quantity"], dual["quantity"])
                 == ("rho1", "piplus", "piplus"), "unexpected report layout")
        upper = float(dual["upper"])
        _require(rank1["lower"] <= upper + 1e-9,
                 f"rank-one lower {rank1['lower']!r} > dual upper {upper!r}")
        if r1["certificate"] == "exact":
            _require(r1["lower"] <= upper + 1e-9,
                     f"exact rho1 {r1['lower']!r} > dual upper {upper!r}")
        values = {"rho1": float(r1["lower"]), "rho1_method": r1["method"],
                  "piplus_lower": float(rank1["lower"]), "piplus_upper": upper,
                  "dual_method": dual["method"],
                  "gap": (upper - float(rank1["lower"])) / max(1.0, abs(upper))}
        return values, blob

    argv = ["bounds", str(matrix_path), "--out", out]
    return Op(label, lambda: run_cli(argv), check, [out])


# The dual solver's time on a draw depends mostly on whether it converges
# (about a third of n=12 draws do) or runs out of its iteration budget, and a
# run affords only five bounds calls per pass.  Fresh draws per seed would make
# the percentiles measure that coin toss, so bounds draws its matrices once
# from a fixed root, and the run's seed applies a random signed permutation
# P D A D P^T to each.  That changes every file but leaves rho1, piplus and the
# solver's path unchanged; the fixed draws hold both converged and
# budget-exhausted (inconclusive) n=12 runs.
BOUNDS_ROOT = 0


def signed_permutation(A: GramMatrix, rng: Rng) -> GramMatrix:
    """P D A D P^T for a random permutation P and random signs D."""
    perm = np.argsort(rng.uniform(A.n), kind="stable")
    d = rng.rademacher(A.n)
    return GramMatrix(A.entries[np.ix_(perm, perm)] * np.outer(d, d))


def setup_bounds(seed: int, workdir: Path) -> Workload:
    base = Rng(BOUNDS_ROOT)
    matrices = [("T30", l1gram.build_T(30, base.child(20))),
                ("W8", l1gram.sample_W(8, base.child(30)))]
    matrices += [(f"T12.{j}", l1gram.build_T(12, base.child(10 + j))) for j in range(3)]
    # The n=12 ops take longer than the W8 and T30 ops; three of them per
    # pass keep both percentiles inside the n=12 group.
    root = Rng(seed)
    ops = []
    for k, (label, M) in enumerate(matrices):
        path = workdir / f"{label}.txt"
        l1gram.save_matrix(path, signed_permutation(M, root.child(k)))
        ops.append(_bounds_op(label, path, str(workdir / f"{label}.bounds.json")))
    _write_inputs(workdir, {"matrices": [f"{label}.txt" for label, _ in matrices]})
    l1gram.save_matrix(workdir / "probe.txt", l1gram.build_T(4, root.child(90)))
    probe = {"kind": "cli", "argv": ["bounds", str(workdir / "probe.txt"),
                                     "--out", str(workdir / "probe.json")]}
    return Workload("bounds", ops, "piplus_gap.max",
                    lambda vals: float(max(v["gap"] for v in vals.values())),
                    probe)


# -- certify-structured --------------------------------------------------------

def _certify_op(n, cell_seed):
    def check(cert):
        ratio = cert.ratio.lower
        pi = cert.piplus.lower
        rho_up = cert.rho1.upper
        _require(math.isfinite(ratio) and ratio > 0.0, f"ratio {ratio!r}")
        _require(cert.cn_lower == max(1.0, ratio), "cn_lower != max(1, ratio)")
        # Tr(TA) <= max|T_ij| ||A||_1 for every feasible A
        _require(0.0 < pi <= max(1.0, math.sqrt(n) / 4.0) + 1e-9,
                 f"piplus lower {pi!r} outside (0, max|T_ij|]")
        if cert.ratio.method == "structured":
            _require(abs(ratio - pi / rho_up) <= 1e-12 * ratio,
                     "ratio != piplus lower / rho1 upper")
        values = {"ratio": ratio, "piplus_lower": pi, "rho1_upper": rho_up,
                  "kappa": cert.kappa, "ratio_method": cert.ratio.method,
                  "rho1_certificate": cert.rho1.certificate}
        return values, repr(sorted(values.items())).encode()

    return Op(f"n={n}/seed={cell_seed}",
              lambda: bounds_mod.certify_ratio(n, cell_seed, mode="structured"),
              check)


def setup_certify_structured(seed: int, workdir: Path) -> Workload:
    # Three n=512 ops (mostly multistart) per n=128 op (mostly the exhaustive
    # C(128,3) scan) put the median on n=512 and the 90th percentile on n=128.
    # The multistart's time differs by up to 20% between seeds, so the median
    # rests on three of them.
    s = _seeds(Rng(seed).child(40), 4)
    cells = [(512, s[0]), (512, s[1]), (512, s[2]), (128, s[3])]
    _write_inputs(workdir, {"cells": cells})
    ops = [_certify_op(n, cs) for n, cs in cells]
    return Workload("certify-structured", ops, "ratio_lower.mean",
                    lambda vals: float(np.mean([v["ratio"] for v in vals.values()])),
                    {"kind": "certify", "n": 32, "seed": s[0]})


SETUP = {
    "decompose": setup_decompose,
    "scaling-exact": setup_scaling_exact,
    "bounds": setup_bounds,
    "certify-structured": setup_certify_structured,
}
