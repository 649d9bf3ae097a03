"""Acceptance suite: twelve criteria, one test and one printed verdict each.

Criterion 04's per-step identity also has a few worked examples, which
print no verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each test also asserts, so a plain pytest run enforces them all.
"""

import math
import time

import numpy as np
import pytest

from l1gram import (
    GramMatrix,
    Rng,
    bai_yin_stat,
    build_T,
    eigen_decomposer,
    greedy_peel,
    max_restricted_norm,
    peel_step,
    piplus_dual_upper,
    piplus_rank1_lower,
    piplus_witness,
    quadratic_vertex_bound,
    rho1_exact,
    rho1_multistart,
    sample_W,
    sample_wishart,
    witness_value_closed_form,
)
from l1gram.experiments import run_compare, run_scaling, rows_to_csv_text

BASE_SEED = 20260809


def verdict(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


WISHART_SIZES = (5, 10, 20, 30)
WISHART_PER_SIZE = 250  # 1000 matrices total


@pytest.fixture(scope="module")
def wishart_runs():
    """Greedy-peel 1000 seeded Wishart matrices once; criteria 1 and 4 share it."""
    runs = []
    elapsed = 0.0
    seed = BASE_SEED
    for n in WISHART_SIZES:
        for _ in range(WISHART_PER_SIZE):
            A = sample_wishart(n, Rng(seed))
            t0 = time.perf_counter()
            dec = greedy_peel(A)
            elapsed += time.perf_counter() - t0
            runs.append((n, A, dec))
            seed += 1
    return runs, elapsed


def test_criterion_01_peel_cost_bound(wishart_runs):
    runs, elapsed = wishart_runs
    violations = sum(
        1 for n, A, dec in runs if dec.total_cost > n * np.trace(A.entries) * (1 + 1e-8)
    )
    ok = violations == 0 and elapsed < 60.0
    verdict(1, ok,
            f"greedy peel cost <= n*tr(A)(1+1e-8) on {len(runs)} Wishart draws: "
            f"{violations} violations, decomposition time {elapsed:.1f}s (< 60s)")


def test_criterion_02_all_ones_sharpness():
    worst_eigen = 0.0
    peel_exact = True
    for n in range(2, 51):
        A = GramMatrix(np.ones((n, n)))
        target = float(n * n)
        peel_cost = greedy_peel(A).total_cost
        if peel_cost != target:
            peel_exact = False
        eig_cost = eigen_decomposer(A).total_cost
        worst_eigen = max(worst_eigen, abs(eig_cost - target) / target)
    ok = peel_exact and worst_eigen <= 1e-12
    verdict(2, ok,
            f"all-ones cost n^2: peel bit-exact={peel_exact}, eigen within "
            f"{worst_eigen:.2e} relative (<= 1e-12) for n in 2..50")


def test_criterion_03_rank_one_exactness():
    worst = 0.0
    r = Rng(BASE_SEED + 10_000)
    for t in range(200):
        n = 2 + int(r.u64(1)[0] % 19)  # n in 2..20
        x = r.normal(n)
        if np.abs(x).sum() == 0.0:
            continue
        A = GramMatrix(np.outer(x, x))
        target = np.abs(x).sum() ** 2
        for dec in (eigen_decomposer(A), greedy_peel(A)):
            worst = max(worst, abs(dec.total_cost - target) / target)
    ok = worst <= 1e-9
    verdict(3, ok,
            f"rank-one inputs: both decomposers recover ||x||_1^2 within "
            f"{worst:.2e} relative (<= 1e-9) over 200 draws")


def _cost_identity_discrepancy(a, i, x, a2):
    """Relative discrepancy of ||x||_1^2 against (||a_i||_1^2 / ||a_i||_2^2)
    (tr A - tr A2) for (x, A2) = peel_step(A, i); 0 for a zero row."""
    lhs = np.abs(x).sum() ** 2
    row = a[i]
    l1sq = np.abs(row).sum() ** 2
    l2sq = float(row @ row)
    if l2sq == 0.0:
        return 0.0
    rhs = (l1sq / l2sq) * float((np.diag(a) - np.diag(a2)).sum())
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def test_criterion_04_per_step_identities(wishart_runs):
    runs, _ = wishart_runs
    worst_step = 0.0
    worst_tele = 0.0
    for n, A, dec in runs:
        a = A.entries
        removed = 0.0
        for i in dec.pivots:
            x, A2 = peel_step(a, i)
            worst_step = max(worst_step,
                             _cost_identity_discrepancy(a, i, x, A2.entries))
            removed += float(a[i] @ a[i]) / a[i, i]
            a = A2.entries
        tr = np.trace(A.entries)
        tele = abs(removed - (tr - dec.residual_trace)) / max(1.0, tr)
        worst_tele = max(worst_tele, tele)
    ok = worst_step <= 1e-9 and worst_tele <= 1e-9
    verdict(4, ok,
            f"per-step cost identity worst {worst_step:.2e} and trace "
            f"telescoping worst {worst_tele:.2e} (both <= 1e-9) over all steps")


@pytest.mark.parametrize("A, pivots, bound", [
    (GramMatrix(np.ones((3, 3))), [0], 0.0),
    (GramMatrix(np.diag([1.0, 2.0])), [1], 1e-12),
    (sample_wishart(5, Rng(31)), range(5), 1e-10),
], ids=["all_ones", "diagonal", "random_wishart"])
def test_criterion_04_identity_examples(A, pivots, bound):
    a = A.entries
    for i in pivots:
        x, A2 = peel_step(a, i)
        assert _cost_identity_discrepancy(a, i, x, A2.entries) <= bound


def test_criterion_05_rho1_oracle_agreement():
    hits = 0
    total = 200
    for t in range(total):
        n = 4 + t % 7  # n in 4..10
        g = Rng(BASE_SEED + 20_000 + t).normal(n * n).reshape(n, n)
        A = GramMatrix((g + g.T) / 2)
        ex = rho1_exact(A).upper
        ms = rho1_multistart(A, restarts=64, steps=500,
                             rng=Rng(BASE_SEED + 30_000 + t)).lower
        assert ms <= ex + 1e-9
        if abs(ms - ex) <= 1e-6:
            hits += 1
    rate = hits / total

    def grid_rho1(arr, step=1e-3):
        m = int(round(1 / step))
        if arr.shape[0] == 2:
            t = np.arange(m + 1) / m
            pts = np.stack([t, 1 - t], axis=1)
            sign_sets = [(1, 1), (1, -1)]
        else:
            i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
            mask = i + j <= m
            a, b = i[mask] / m, j[mask] / m
            pts = np.stack([a, b, 1 - a - b], axis=1)
            sign_sets = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
        best = 0.0
        for s in sign_sets:
            x = pts * np.array(s)
            best = max(best, float(np.einsum("ki,ij,kj->k", x, arr, x).max()))
        return best

    worst_grid = 0.0
    for t in range(20):
        n = 2 + t % 2
        g = Rng(BASE_SEED + 40_000 + t).normal(n * n).reshape(n, n)
        A = GramMatrix((g + g.T) / 2)
        worst_grid = max(worst_grid, abs(rho1_exact(A).upper - grid_rho1(A.entries)))
    ok = rate >= 0.95 and worst_grid <= 1e-3
    verdict(5, ok,
            f"multistart matches exact within 1e-6 on {rate:.1%} of 200 draws "
            f"(>= 95%); exact vs 1e-3 grid within {worst_grid:.2e} (<= 1e-3)")


def test_criterion_06_sandwich_and_hollow_ratio():
    worst_gap = -math.inf
    worst_rank1 = 0.0
    for t in range(100):
        n = 4 + t % 7
        T = build_T(n, Rng(BASE_SEED + 50_000 + t))
        ex = rho1_exact(T)
        up = piplus_dual_upper(T)
        lo = piplus_rank1_lower(T, ex)
        worst_gap = max(worst_gap, ex.upper - up.upper)
        worst_rank1 = max(worst_rank1,
                          abs(lo.lower - ex.upper) / max(1.0, abs(ex.upper)))
    worst_ratio = 0.0
    for t in range(100):
        n = 4 + t % 5  # n in 4..8
        W = sample_W(n, Rng(BASE_SEED + 60_000 + t))
        ex = rho1_exact(W).upper
        up = piplus_dual_upper(W)
        worst_ratio = max(worst_ratio, up.upper / ex)
    ok = worst_gap <= 1e-9 and worst_rank1 <= 1e-9 and worst_ratio <= 2.0 + 1e-6
    verdict(6, ok,
            f"rho1 <= dual upper (worst excess {worst_gap:.2e}), rank-one "
            f"lower = rho1 within {worst_rank1:.2e}, hollow ratio max "
            f"{worst_ratio:.4f} (<= 2 + 1e-6)")


def test_criterion_07_witness_trace_arithmetic():
    worst = 0.0
    for n in range(2, 501):
        W = sample_W(n, Rng(BASE_SEED + 70_000 + n))
        for c in (2.5, 3.0, 3.5):
            wit = piplus_witness(W, c)
            closed = witness_value_closed_form(n, c)
            worst = max(worst, abs(wit.value - closed) / max(1.0, abs(closed)))
    big = witness_value_closed_form(10_000, 3.0)
    ok = worst <= 1e-9 and abs(big - 0.22) <= 1e-12
    verdict(7, ok,
            f"direct trace vs closed form within {worst:.2e} relative "
            f"(<= 1e-9) for n in 2..500, c in {{2.5, 3, 3.5}}; closed form at "
            f"n=10000, c=3 is {big:.17g} (= 0.22)")


def test_criterion_08_extreme_eigenvalue_trend():
    t0 = time.perf_counter()
    stat = bai_yin_stat(500, 20, Rng(BASE_SEED + 80_000))
    elapsed = time.perf_counter() - t0
    ok = 1.85 <= stat.mean <= 2.15 and elapsed < 120.0
    verdict(8, ok,
            f"mean lambda_max(W)/sqrt(n) at n=500 over 20 seeds = "
            f"{stat.mean:.4f} (in [1.85, 2.15]), {elapsed:.1f}s (< 2 min)")


def test_criterion_09_restricted_norm_structure():
    small_ok = True
    for t in range(10):
        n = 6 + t
        W = sample_W(n, Rng(BASE_SEED + 90_000 + t))
        if max_restricted_norm(W, 1).value != 0.0:
            small_ok = False
        if max_restricted_norm(W, 2).value != 1.0:
            small_ok = False
    dominance_ok = True
    for n in (8, 11, 14):
        W = sample_W(n, Rng(BASE_SEED + 91_000 + n))
        for k in range(1, n + 1):
            ex = max_restricted_norm(W, k, mode="exhaustive")
            mc = max_restricted_norm(W, k, mode="monte_carlo", samples=60,
                                     rng=Rng(BASE_SEED + 92_000 + 20 * n + k))
            if mc.value > ex.value + 1e-12:
                dominance_ok = False
    ok = small_ok and dominance_ok
    verdict(9, ok,
            f"restricted norms: k=1 gives 0 and k=2 gives 1 exactly "
            f"({small_ok}); Monte Carlo never exceeds exhaustive on n <= 14 "
            f"({dominance_ok})")


def test_criterion_10_split_bound_peak():
    worst_arg = 0.0
    worst_peak = 0.0
    pairs = [(n, k) for n in (9, 16, 36, 64, 144) for k in (0.02, 0.125, 0.5, 1.0)]
    assert len(pairs) == 20
    for n, kappa in pairs:
        argmax, peak = quadratic_vertex_bound(
            -math.sqrt(n) / 8.0, 4.0 / kappa, 2.0 / (kappa**2 * math.sqrt(n)))
        ref_arg = 16.0 / (kappa * math.sqrt(n))
        ref_peak = 34.0 / (kappa**2 * math.sqrt(n))
        worst_arg = max(worst_arg, abs(argmax - ref_arg) / ref_arg)
        worst_peak = max(worst_peak, abs(peak - ref_peak) / ref_peak)
    ok = worst_arg <= 1e-12 and worst_peak <= 1e-12
    verdict(10, ok,
            f"split-bound peak 34/(k^2 sqrt(n)) at 16/(k sqrt(n)): relative "
            f"errors {worst_peak:.2e} / {worst_arg:.2e} over 20 pairs (<= 1e-12)")


def test_criterion_11_scaling_trend():
    t0 = time.perf_counter()
    exact_rows = run_scaling(list(range(4, 13)), 20, BASE_SEED + 100_000,
                             c=2.5, mode="exact")
    exact_ratios = [r.value for r in exact_rows if r.quantity == "ratio"]
    all_at_least_one = all(v >= 1.0 for v in exact_ratios)

    heur_rows = run_scaling([100, 200, 400, 800], 10, BASE_SEED + 110_000,
                            c=2.5, mode="heuristic")
    exponent = [r.value for r in heur_rows if r.quantity == "scaling_exponent"][0]
    elapsed = time.perf_counter() - t0
    ok = (all_at_least_one and 0.35 <= exponent <= 0.65 and elapsed < 900.0)
    verdict(11, ok,
            f"exact-mode ratios all >= 1 over n=4..12 x 20 seeds "
            f"({all_at_least_one}, min {min(exact_ratios):.6f}); heuristic "
            f"log-log exponent {exponent:.3f} (in [0.35, 0.65]); "
            f"{elapsed:.0f}s (< 15 min)")


def test_criterion_12_comparison_study():
    rows1 = run_compare([20], 100, "wishart", BASE_SEED + 120_000)
    rows2 = run_compare([20], 100, "wishart", BASE_SEED + 120_000)
    strip = lambda rows: "\n".join(",".join(line.split(",")[:-1]) for line in
                                   rows_to_csv_text(rows).splitlines())
    deterministic = strip(rows1) == strip(rows2)
    win = [r.value for r in rows1 if r.quantity == "peel_win_rate"]
    ok = deterministic and len(win) == 1 and 0.0 <= win[0] <= 1.0
    verdict(12, ok,
            f"comparison study on Wishart n=20, 100 trials: peel win-rate "
            f"{win[0]:.2f} reported, byte-deterministic per seed "
            f"({deterministic})")
