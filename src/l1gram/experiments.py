"""Experiment suites: decomposition comparisons, ratio scaling, lemma stats.

Every suite runs its (n, count-per-n) grid through one expander, _run_grid,
under one seed rule: cell i, counting through the ns in order, gets seed
base_seed + i.  Cells run one after another, and their rows come out in
grid order; each suite then adds its summary rows.  The per-n statistics
of run_lemmas (Bai-Yin trials and restricted norms) are not cells: they
draw from Rng(base_seed).child(n).  Only wall_time_ms varies between runs.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, List, Sequence

import numpy as np

from .bounds import (
    DEFAULT_N_CAP,
    _check_witness_c,
    _piplus_lower,
    certify_ratio,
    piplus_witness,
    rho1_multistart,
    witness_value_closed_form,
)
from .decompose import DEFAULT_RULE, PivotRule, eigen_decomposer, greedy_peel
from .randcert import (
    bai_yin_stat,
    make_ensemble,
    max_restricted_norm,
    sample_W,
    shift_to_T,
    tail_bound_curve,
)
from .rng import Rng

CSV_FIELDS = ("experiment", "n", "seed", "quantity", "value", "method",
              "certificate", "wall_time_ms")


@dataclass
class ExperimentRow:
    experiment: str
    n: int
    seed: int
    quantity: str
    value: float
    method: str
    certificate: str
    wall_time_ms: int = 0


def rows_to_csv_text(rows: Sequence[ExperimentRow]) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_FIELDS) + "\n")
    for r in rows:
        buf.write(",".join(f"{r.value:.17g}" if f == "value" else str(getattr(r, f))
                           for f in CSV_FIELDS) + "\n")
    return buf.getvalue()


def write_rows(path_or_file, rows: Sequence[ExperimentRow], fmt: str = "csv") -> None:
    """Write rows as CSV or as a JSON list of objects.

    The CSV spells a non-finite value nan or inf; the JSON writes it as
    null, so that strict JSON parsers accept the output.
    """
    if fmt == "csv":
        text = rows_to_csv_text(rows)
    elif fmt == "json":
        records = [{**asdict(r), "value": r.value if math.isfinite(r.value) else None}
                   for r in rows]
        text = json.dumps(records, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)


def _run_grid(experiment: str, ns: Sequence[int], per_n: int, base_seed: int,
              run_cell: Callable) -> List:
    """Run run_cell(n, seed) on every cell of the (n, per_n) grid.

    Cell i gets seed base_seed + i, counting through ns in order and per_n
    cells per n.  run_cell returns ((quantity, value, method, certificate)
    rows, extra).  Returns one (n, rows, extras) block per entry of ns, with
    the ExperimentRows and the extras of its cells in grid order.
    """
    if not ns or per_n < 1 or any(n < 1 for n in ns):
        raise ValueError(
            "need at least one n, and every n and the count per n must be >= 1")
    blocks = []
    for i, n in enumerate(ns):
        out, extras = [], []
        for seed in range(base_seed + i * per_n, base_seed + (i + 1) * per_n):
            t0 = time.perf_counter()
            rows, extra = run_cell(n, seed)
            ms = int(1000 * (time.perf_counter() - t0))
            out += [ExperimentRow(experiment, n, seed, q, v, m, c, ms)
                    for q, v, m, c in rows]
            extras.append(extra)
        blocks.append((n, out, extras))
    return blocks


COMPARE_RULES = tuple(PivotRule(kind) for kind in (
    "min_cost_per_trace", "max_diagonal", "max_trace_removal"))


def run_compare(ns: Sequence[int], trials: int, ensemble: str,
                base_seed: int) -> List[ExperimentRow]:
    """Eigen cost vs peeling cost per pivot rule, with a win-rate summary.

    Each trial draws make_ensemble(ensemble, n, seed); circulant uses
    eps = 1/(2n).  A trial is a win for peeling when the default rule's cost
    is strictly below the eigendecomposition cost.  The trial rows come
    first, in grid order, then one peel_win_rate row per entry of ns over
    that entry's trials alone, so a repeated n gets one row per block.
    """
    def run_cell(n, seed):
        A = make_ensemble(ensemble, n, seed)
        eig = eigen_decomposer(A).total_cost
        costs = {rule.label(): greedy_peel(A, rule).total_cost
                 for rule in COMPARE_RULES}
        rows = [("total_cost", eig, "eigen", "exact")]
        for label, cost in costs.items():
            rows += [("total_cost", cost, f"peel({label})", "exact"),
                     ("cost_ratio", cost / eig, f"peel({label})", "exact")]
        return rows, costs[DEFAULT_RULE.label()] < eig

    blocks = _run_grid("compare", ns, trials, base_seed, run_cell)
    out = [row for _, rows, _ in blocks for row in rows]
    for n, _, won in blocks:
        out.append(ExperimentRow("compare", n, base_seed, "peel_win_rate",
                                 sum(won) / len(won),
                                 f"peel({DEFAULT_RULE.label()})", "exact", 0))
    return out


def fit_loglog_exponent(ns: Sequence[int], values: Sequence[float]) -> float:
    """Least-squares slope of log(value) against log(n); NaN if degenerate."""
    pts = [(n, v) for n, v in zip(ns, values)
           if v > 0.0 and math.isfinite(v)]
    if len({n for n, _ in pts}) < 2:
        return math.nan
    x = np.log([n for n, _ in pts])
    y = np.log([v for _, v in pts])
    return float(np.polyfit(x, y, 1)[0])


def run_scaling(ns: Sequence[int], n_seeds: int, base_seed: int, c: float = 2.5,
                mode: str = "exact", n_cap: int = DEFAULT_N_CAP) -> List[ExperimentRow]:
    """Ratio values per (n, seed) plus the fitted log-log exponent.

    exact mode reproduces certify_ratio cell by cell (ratios are certified
    and >= 1 by the rank-one reduction).  heuristic mode studies how the
    explicit-witness construction scales: it divides the witness trace value
    by the multistart rho1 estimate.  That quotient is an estimate, not a
    certified bound (the denominator is itself a lower estimate), and it may
    lie below 1; seeds whose witness is infeasible or nonpositive contribute
    NaN ratios, which the fit ignores.  Its piplus_lower row is the
    certified bound certify_ratio picks: the witness value when the witness
    is feasible and better, else the rank-one bound from the multistart.
    The multistart runs at its default 64 restarts x 500 steps.
    """
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown scaling mode {mode!r}")
    _check_witness_c(c)
    if mode == "exact" and any(n > n_cap for n in ns):
        raise ValueError(f"exact mode requires all n <= {n_cap}")

    def run_cell(n, seed):
        if mode == "exact":
            cert = certify_ratio(n, seed, c=c, mode="exact", n_cap=n_cap)
            rows = [
                ("piplus_lower", cert.piplus.lower, cert.piplus.method,
                 cert.piplus.certificate),
                ("rho1_upper", cert.rho1.upper, cert.rho1.method,
                 cert.rho1.certificate),
                ("ratio", cert.ratio.lower, cert.ratio.method,
                 cert.ratio.certificate),
            ]
            return rows, cert.ratio.lower
        root = Rng(seed)
        W = sample_W(n, root.child(0))
        T = shift_to_T(W)
        ms_rep = rho1_multistart(T, rng=root.child(1))
        rho1_value = ms_rep.lower
        wit = piplus_witness(W, c) if n >= 2 else None
        pi = _piplus_lower(T, ms_rep, wit)
        usable = (wit is not None and wit.feasible
                  and wit.value > 0.0 and rho1_value > 0.0)
        ratio = wit.value / rho1_value if usable else math.nan
        rows = [
            ("piplus_lower", pi.lower, pi.method, pi.certificate),
            ("rho1_value", rho1_value, "multistart", "heuristic"),
            ("ratio", ratio, "witness_over_multistart", "heuristic"),
        ]
        return rows, ratio

    blocks = _run_grid("scaling", ns, n_seeds, base_seed, run_cell)
    out = [row for _, rows, _ in blocks for row in rows]
    exponent = fit_loglog_exponent(
        [n for n, _, ratios in blocks for _ in ratios],
        [ratio for _, _, ratios in blocks for ratio in ratios])
    method = "loglog_fit" if math.isfinite(exponent) else "loglog_fit_undefined"
    out.append(ExperimentRow("scaling", 0, base_seed, "scaling_exponent",
                             exponent, method, "heuristic", 0))
    return out


_LEMMA_ALPHAS = (0.05, 0.1, 0.2)


def run_lemmas(ns: Sequence[int], trials: int, base_seed: int,
               c: float = 3.0) -> List[ExperimentRow]:
    """Witness statistics, extreme-eigenvalue ratios and restricted norms.

    Per n: the fraction of seeds whose witness is PSD with value >= 1/3, the
    witness limit value 1 - c/4 and the c threshold 8/3 below which that
    limit clears 1/3, lambda_max(W)/sqrt(n) statistics, and the normalized
    restricted norm at each subset fraction alpha in 0.05, 0.1, 0.2 next to
    its failure probability bound.  The per-n draws come from disjoint
    children of Rng(base_seed).child(n): the Bai-Yin trials from child 0,
    the restricted-norm W from child 1 and its size-k subsets from child
    2's child k.  A repeated n would only repeat its rows under the same
    key, so it raises ValueError before any cell runs.
    """
    _check_witness_c(c)
    if len(set(ns)) < len(ns):
        raise ValueError(f"lemmas needs distinct n, got {list(ns)}")

    def run_cell(n, seed):
        if n < 2:
            return [], False
        wit = piplus_witness(sample_W(n, Rng(seed).child(0)), c)
        rows = [
            ("witness_value", wit.value, f"witness(c={c:g})",
             "certified_bound" if wit.feasible else "heuristic"),
            ("witness_lambda_min", wit.lambda_min, f"witness(c={c:g})", "exact"),
        ]
        return rows, wit.feasible and wit.value >= 1.0 / 3.0

    out = []
    for n, rows, good in _run_grid("lemmas", ns, trials, base_seed, run_cell):
        out.extend(rows)
        out.append(ExperimentRow("lemmas", n, base_seed, "witness_large_fraction",
                                 sum(good) / trials, f"witness(c={c:g})", "exact", 0))
        if n >= 2:
            out.append(ExperimentRow("lemmas", n, base_seed, "witness_limit_value",
                                     1.0 - c / 4.0, "closed_form", "exact", 0))
            out.append(ExperimentRow("lemmas", n, base_seed,
                                     "witness_value_closed_form",
                                     witness_value_closed_form(n, c),
                                     "closed_form", "exact", 0))
        per_n = Rng(base_seed).child(n)
        t0 = time.perf_counter()
        by = bai_yin_stat(n, trials, per_n.child(0))
        ms = int(1000 * (time.perf_counter() - t0))
        for stat, value in (("bai_yin_mean", by.mean), ("bai_yin_min", by.min),
                            ("bai_yin_max", by.max)):
            out.append(ExperimentRow("lemmas", n, base_seed, stat, value,
                                     "monte_carlo", "heuristic", ms))
        W0 = sample_W(n, per_n.child(1))
        rng_mc = per_n.child(2)
        for alpha in _LEMMA_ALPHAS:
            k = max(1, min(n, int(alpha * n)))
            est = max_restricted_norm(W0, k, mode="auto", samples=200,
                                      rng=rng_mc.child(k))
            cert = "exact" if est.mode == "exhaustive" else "heuristic"
            out.append(ExperimentRow("lemmas", n, base_seed,
                                     f"restricted_norm_normalized(alpha={alpha:g})",
                                     est.normalized, est.mode, cert, 0))
            out.append(ExperimentRow("lemmas", n, base_seed,
                                     f"tail_bound(alpha={alpha:g})",
                                     tail_bound_curve(alpha, n), "closed_form",
                                     "exact", 0))
    out.append(ExperimentRow("lemmas", 0, base_seed, "witness_c_threshold",
                             8.0 / 3.0, "closed_form", "exact", 0))
    return out

