import math

import numpy as np
import pytest

from l1gram import (
    BoundReport,
    GramMatrix,
    Rng,
    build_T,
    certify_ratio,
    entrywise_one_norm,
    max_eigenvalue,
    min_eigenvalue,
    operator_norm,
    piplus_dual_upper,
    piplus_rank1_lower,
    piplus_witness,
    quadratic_vertex_bound,
    rho1_exact,
    rho1_multistart,
    rho1_structured_upper,
    sample_W,
    shift_to_T,
    witness_value_closed_form,
)

OFFDIAG = GramMatrix([[0.0, 1.0], [1.0, 0.0]])


def grid_rho1(arr, step=1e-3):
    """Oracle: dense grid over the l1 sphere, n <= 3."""
    n = arr.shape[0]
    m = int(round(1 / step))
    if n == 1:
        return max(0.0, float(arr[0, 0]))
    if n == 2:
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


def random_symmetric(n, seed):
    g = Rng(seed).normal(n * n).reshape(n, n)
    return GramMatrix((g + g.T) / 2)


class TestRho1Exact:
    def test_identity_families(self):
        for n in (1, 2, 4):
            rep = rho1_exact(GramMatrix.identity(n))
            assert rep.lower == rep.upper == pytest.approx(1.0, abs=1e-12)
            assert rep.certificate == "exact"

    def test_offdiagonal_half(self):
        rep = rho1_exact(OFFDIAG)
        assert rep.upper == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(np.abs(rep.witness), [0.5, 0.5], atol=1e-10)

    def test_diag_two_minus_one(self):
        rep = rho1_exact(GramMatrix(np.diag([2.0, -1.0])))
        assert rep.upper == pytest.approx(2.0, abs=1e-12)

    def test_negative_definite_is_zero(self):
        rep = rho1_exact(GramMatrix(-np.eye(3) - 0.5 * np.ones((3, 3))))
        assert rep.upper == 0.0

    def test_grid_agreement_small_n(self):
        for t in range(15):
            n = 2 + t % 2
            A = random_symmetric(n, 500 + t)
            ex = rho1_exact(A).upper
            gr = grid_rho1(A.entries)
            assert gr <= ex + 1e-9
            assert abs(ex - gr) <= 1e-3

    def test_singular_patterns_skipped_all_ones(self):
        rep = rho1_exact(GramMatrix(np.ones((5, 5))))
        assert rep.upper == pytest.approx(1.0, abs=1e-12)

    def test_cap_refusal(self):
        with pytest.raises(ValueError, match="multistart"):
            rho1_exact(GramMatrix.identity(13))

    def test_scale_covariance(self):
        A = random_symmetric(5, 123)
        base = rho1_exact(A)
        for alpha in (0.25, 3.0, 17.5):
            scaled = rho1_exact(GramMatrix(alpha * A.entries))
            assert scaled.upper == pytest.approx(alpha * base.upper, rel=1e-12)
            # same support and the same signs up to one global flip
            x, y = base.witness, scaled.witness
            support = np.abs(x) > 1e-12 * np.abs(x).max()
            assert np.array_equal(np.abs(y) > 1e-12 * np.abs(y).max(), support)
            sx, sy = np.sign(x[support]), np.sign(y[support])
            assert np.array_equal(sx * sx[0], sy * sy[0])

    def test_witness_achieves_value(self):
        A = random_symmetric(6, 321)
        rep = rho1_exact(A)
        x = rep.witness
        assert abs(np.abs(x).sum() - 1.0) <= 1e-9 or rep.upper == 0.0
        assert float(x @ A.entries @ x) == pytest.approx(rep.upper, rel=1e-9)


class TestRho1Multistart:
    def test_identity_five(self):
        rep = rho1_multistart(GramMatrix.identity(5), restarts=10, rng=Rng(1))
        assert rep.lower == pytest.approx(1.0, abs=1e-6)
        assert rep.certificate == "heuristic"

    def test_never_exceeds_exact_and_mostly_matches(self):
        hits = 0
        trials = 40
        for t in range(trials):
            n = 4 + t % 7
            A = random_symmetric(n, 700 + t)
            ex = rho1_exact(A).upper
            ms = rho1_multistart(A, restarts=64, steps=500, rng=Rng(900 + t))
            assert ms.lower <= ex + 1e-9
            if abs(ms.lower - ex) <= 1e-6:
                hits += 1
        assert hits >= 0.95 * trials

    def test_restart_range_split_matches_serial(self):
        A = random_symmetric(7, 55)
        rng = Rng(66)
        full = rho1_multistart(A, restarts=16, rng=rng)
        lo = rho1_multistart(A, restarts=16, rng=Rng(66), restart_indices=range(8))
        hi = rho1_multistart(A, restarts=16, rng=Rng(66), restart_indices=range(8, 16))
        assert max(lo.lower, hi.lower) == full.lower

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            rho1_multistart(GramMatrix.identity(2))


class TestPiplusRank1Lower:
    def test_identity(self):
        rep = piplus_rank1_lower(GramMatrix.identity(2), rho1_exact(GramMatrix.identity(2)))
        assert rep.lower == pytest.approx(1.0, abs=1e-12)
        assert rep.certificate == "certified_bound"

    def test_offdiagonal(self):
        rep = piplus_rank1_lower(OFFDIAG, rho1_exact(OFFDIAG))
        assert rep.lower == pytest.approx(0.5, abs=1e-12)
        assert entrywise_one_norm(rep.witness) == pytest.approx(1.0, rel=1e-12)

    def test_negative_definite_gives_zero(self):
        T = GramMatrix(-2.0 * np.eye(3))
        rep = piplus_rank1_lower(T, rho1_exact(T))
        assert rep.lower == 0.0

    def test_matches_rho1_exactly(self):
        for t in range(10):
            A = random_symmetric(6, 40 + t)
            ex = rho1_exact(A)
            rep = piplus_rank1_lower(A, ex)
            assert rep.lower == pytest.approx(ex.upper, rel=1e-9)


class TestPiplusWitness:
    def test_closed_form_examples(self):
        assert witness_value_closed_form(10000, 3.0) == pytest.approx(0.22, abs=1e-12)
        # limit value 1 - c/4
        assert witness_value_closed_form(10**12, 3.0) == pytest.approx(0.25, abs=1e-5)

    def test_direct_vs_closed_form_sweep(self):
        for t, n in enumerate((2, 3, 7, 20, 51, 140, 333, 500)):
            W = sample_W(n, Rng(60 + t))
            for c in (0.5, min(1.3, 0.9 * math.sqrt(n))):
                wit = piplus_witness(W, c, compute_lambda_min=False)
                scale = max(1.0, abs(wit.value_closed_form))
                assert abs(wit.value - wit.value_closed_form) <= 1e-9 * scale
                assert wit.value_closed_form == pytest.approx(
                    witness_value_closed_form(n, c), rel=1e-12)

    def test_unit_entrywise_norm(self):
        for n in (2, 5, 40):
            wit = piplus_witness(sample_W(n, Rng(n)), 1.0, compute_lambda_min=False)
            assert entrywise_one_norm(wit.A) == pytest.approx(1.0, rel=1e-12)

    def test_lambda_min_matches_direct_eigensolve(self):
        W = sample_W(30, Rng(17))
        wit = piplus_witness(W, 2.5)
        assert wit.lambda_min == pytest.approx(min_eigenvalue(wit.A), abs=1e-10)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            piplus_witness(sample_W(1, Rng(0)), 1.0)  # n < 2
        with pytest.raises(ValueError):
            piplus_witness(GramMatrix.identity(3), 1.0)  # not hollow
        with pytest.raises(ValueError):
            piplus_witness(GramMatrix([[0.0, 0.5], [0.5, 0.0]]), 0.3)  # not +-1
        with pytest.raises(ValueError):
            piplus_witness(sample_W(4, Rng(1)), -1.0)  # c <= 0

    def test_c_at_least_sqrt_n_is_infeasible_but_identity_holds(self):
        wit = piplus_witness(sample_W(4, Rng(1)), 2.5)  # c >= sqrt(n): b < 0
        assert wit.b < 0.0
        assert wit.feasible is False
        scale = max(1.0, abs(wit.value_closed_form))
        assert abs(wit.value - wit.value_closed_form) <= 1e-9 * scale


class TestPiplusDualUpper:
    def test_identity_sandwich(self):
        T = GramMatrix.identity(4)
        up = piplus_dual_upper(T)
        lo = piplus_rank1_lower(T, rho1_exact(T))
        assert up.upper == pytest.approx(1.0, abs=1e-6)
        assert lo.lower <= up.upper + 1e-9

    def test_diag_two_minus_three(self):
        rep = piplus_dual_upper(GramMatrix(np.diag([2.0, -3.0])))
        assert rep.upper == pytest.approx(2.0, abs=1e-6)

    def test_negative_definite_zero(self):
        rep = piplus_dual_upper(GramMatrix(-np.eye(3)))
        assert rep.upper == 0.0

    def test_never_above_lambda_max(self):
        for t in range(8):
            A = random_symmetric(6, 90 + t)
            rep = piplus_dual_upper(A)
            assert rep.upper <= max(0.0, max_eigenvalue(A)) + 1e-8

    def test_witness_is_dual_feasible(self):
        A = random_symmetric(5, 13)
        rep = piplus_dual_upper(A)
        y = rep.witness.entries
        assert min_eigenvalue(GramMatrix(y - A.entries)) >= -1e-10
        assert np.abs(y).max() == pytest.approx(rep.upper, rel=1e-12)

    def test_sandwich_on_shifted_family(self):
        for t in range(6):
            T = build_T(6, Rng(150 + t))
            ex = rho1_exact(T).upper
            up = piplus_dual_upper(T, lower_hint=ex)
            assert ex <= up.upper + 1e-9

    def test_cvxpy_oracle_agreement(self):
        cp = pytest.importorskip("cvxpy")
        for t in range(4):
            A = random_symmetric(5, 170 + t)
            rep = piplus_dual_upper(A)
            n = 5
            X = cp.Variable((n, n), symmetric=True)
            prob = cp.Problem(cp.Maximize(cp.trace(A.entries @ X)),
                              [X >> 0, cp.sum(cp.abs(X)) <= 1])
            prob.solve(solver=cp.SCS, eps=1e-9, max_iters=100000)
            assert rep.upper >= prob.value - 1e-6
            assert rep.upper <= prob.value + 1e-5


def test_hollow_ratio_at_most_two():
    for t in range(30):
        n = 4 + t % 5
        W = sample_W(n, Rng(250 + t))
        ex = rho1_exact(W).upper
        up = piplus_dual_upper(W, lower_hint=ex)
        assert up.upper / ex <= 2.0 + 1e-6


class TestQuadraticVertexBound:
    def test_trivial_cases(self):
        assert quadratic_vertex_bound(-1.0, 0.0, 0.0) == (0.0, 0.0)
        assert quadratic_vertex_bound(-1.0, 2.0, 0.0) == (1.0, 1.0)

    def test_rejects_nonnegative_leading(self):
        with pytest.raises(ValueError):
            quadratic_vertex_bound(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            quadratic_vertex_bound(2.0, 1.0, 1.0)

    def test_split_bound_constant(self):
        # coefficients (-sqrt(n)/8, 4/k, 2/(k^2 sqrt(n))) peak at 34/(k^2 sqrt(n))
        n, kappa = 64.0, 1.0
        argmax, peak = quadratic_vertex_bound(
            -math.sqrt(n) / 8.0, 4.0 / kappa, 2.0 / (kappa**2 * math.sqrt(n)))
        assert argmax == pytest.approx(2.0, rel=1e-12)
        assert peak == pytest.approx(4.25, rel=1e-12)

    def test_split_bound_constant_many_pairs(self):
        pairs = [(n, k) for n in (16, 64, 100, 400, 2500) for k in (0.5, 1.0, 0.125, 0.02)]
        for n, kappa in pairs:
            argmax, peak = quadratic_vertex_bound(
                -math.sqrt(n) / 8.0, 4.0 / kappa, 2.0 / (kappa**2 * math.sqrt(n)))
            assert argmax == pytest.approx(16.0 / (kappa * math.sqrt(n)), rel=1e-12)
            assert peak == pytest.approx(34.0 / (kappa**2 * math.sqrt(n)), rel=1e-12)


class TestRho1StructuredUpper:
    def test_reproduces_split_constant(self):
        n = 16
        T = build_T(n, Rng(1))
        kappa = 1.0
        rep = rho1_structured_upper(T, kappa, restricted_norm=math.sqrt(n) / 8.0,
                                    full_norm=2.0 * math.sqrt(n))
        assert rep.upper == pytest.approx(34.0 / (kappa**2 * math.sqrt(n)), rel=1e-12)
        assert rep.certificate == "certified_bound"

    def test_zero_norms_give_zero_bound(self):
        T = GramMatrix(-(math.sqrt(9) / 4.0) * np.eye(9))
        rep = rho1_structured_upper(T, 1.0, 0.0, 0.0)
        assert rep.upper == 0.0

    def test_vacuous_flagged(self):
        T = build_T(4, Rng(2))
        rep = rho1_structured_upper(T, 1.0, restricted_norm=10.0, full_norm=10.0)
        assert rep.upper == math.inf
        assert rep.method == "structured(vacuous)"
        assert rep.certificate == "heuristic"

    def test_dominates_exact_value(self):
        for t in range(6):
            n = 8
            W = sample_W(n, Rng(350 + t))
            T = shift_to_T(W)
            kappa = 1.0 / n  # only singletons are "large": restricted norm 0
            rep = rho1_structured_upper(T, kappa, restricted_norm=0.0,
                                        full_norm=operator_norm(W))
            assert rep.upper >= rho1_exact(T).upper

    def test_heuristic_when_uncertified(self):
        T = build_T(16, Rng(3))
        rep = rho1_structured_upper(T, 0.125, restricted_norm=0.2,
                                    full_norm=8.0, certified=False)
        assert rep.certificate == "heuristic"


class TestCertifyRatio:
    def test_exact_mode_ratio_at_least_one(self):
        for seed in range(5):
            for n in (4, 7, 10):
                cert = certify_ratio(n, seed, mode="exact")
                assert cert.ratio.lower >= 1.0
                assert cert.cn_lower >= 1.0

    def test_exact_mode_deterministic(self):
        a = certify_ratio(8, 4242, mode="exact")
        b = certify_ratio(8, 4242, mode="exact")
        assert a.ratio.lower == b.ratio.lower
        assert a.piplus.lower == b.piplus.lower
        assert a.rho1.upper == b.rho1.upper

    def test_exact_mode_cap(self):
        with pytest.raises(ValueError):
            certify_ratio(13, 1, mode="exact")

    def test_structured_mode_runs_and_floors(self):
        cert = certify_ratio(32, 5, mode="structured", restarts=8, steps=100)
        assert cert.mode == "structured"
        assert cert.cn_lower >= 1.0
        assert cert.kappa is not None
        assert cert.rho1.upper > 0.0

    def test_sandwich_inequalities(self):
        for t in range(8):
            T = build_T(8, Rng(450 + t))
            ex = rho1_exact(T)
            lo = piplus_rank1_lower(T, ex)
            up = piplus_dual_upper(T, lower_hint=ex.upper)
            assert ex.upper <= up.upper + 1e-9
            assert lo.lower <= up.upper + 1e-9


def test_bound_report_invariants_enforced():
    with pytest.raises(ValueError):
        BoundReport("rho1", lower=2.0, upper=1.0, method="x", certificate="exact")
    with pytest.raises(ValueError):
        BoundReport("rho1", lower=1.0, upper=2.0, method="x", certificate="exact")
    with pytest.raises(ValueError):
        BoundReport("rho1", lower=0.0, upper=1.0, method="x", certificate="bogus")
