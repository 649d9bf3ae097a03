import itertools
import math

import numpy as np
import pytest

from l1gram import (
    GramMatrix,
    Rng,
    all_ones,
    bai_yin_stat,
    build_T,
    circulant_small_offdiag,
    estimate_kappa_for,
    make_ensemble,
    max_restricted_norm,
    min_eigenvalue,
    operator_norm,
    sample_W,
    sample_wishart,
    shift_to_T,
    tail_bound_curve,
)
from l1gram import randcert


class TestSampleW:
    def test_structure_exact(self):
        for n in (2, 5, 12):
            W = sample_W(n, Rng(n)).entries
            assert np.array_equal(W, W.T)
            assert np.abs(np.diag(W)).max() == 0.0
            off = W[~np.eye(n, dtype=bool)]
            assert set(np.unique(off)) <= {-1.0, 1.0}

    def test_n_one_is_zero(self):
        assert np.array_equal(sample_W(1, Rng(0)).entries, np.zeros((1, 1)))

    def test_deterministic_per_seed(self):
        a = sample_W(8, Rng(77)).entries
        b = sample_W(8, Rng(77)).entries
        assert np.array_equal(a, b)
        c = sample_W(8, Rng(78)).entries
        assert not np.array_equal(a, c)


class TestBuildT:
    def test_diagonal_values(self):
        assert np.all(np.diag(build_T(16, Rng(1)).entries) == -1.0)
        assert np.all(np.diag(build_T(4, Rng(1)).entries) == -0.5)

    def test_shift_inverse_is_hollow(self):
        n = 9
        T = build_T(n, Rng(5)).entries
        W = T + (math.sqrt(n) / 4.0) * np.eye(n)
        assert np.abs(np.diag(W)).max() == 0.0
        off = W[~np.eye(n, dtype=bool)]
        assert np.abs(np.abs(off) - 1.0).max() == 0.0

    def test_matches_sample_then_shift(self):
        a = build_T(6, Rng(3)).entries
        b = shift_to_T(sample_W(6, Rng(3))).entries
        assert np.array_equal(a, b)


class TestEnsembles:
    def test_wishart_is_psd(self):
        A = sample_wishart(10, Rng(2))
        assert min_eigenvalue(A) >= -1e-10

    def test_all_ones_and_diagonal(self):
        assert np.array_equal(all_ones(3).entries, np.ones((3, 3)))
        A = make_ensemble("diagonal", 4, 9).entries
        assert np.array_equal(A, np.diag(np.diag(A)))
        assert np.all((1.0 <= np.diag(A)) & (np.diag(A) < 2.0))

    def test_circulant_default_eps(self):
        A = circulant_small_offdiag(6).entries
        assert np.all(np.diag(A) == 1.0)
        assert A[0, 1] == pytest.approx(1.0 / 12.0)
        assert A[0, 5] == pytest.approx(1.0 / 12.0)  # wraps

    def test_make_ensemble_dispatch(self):
        expected = {
            "rademacher_W": sample_W(5, Rng(1)),
            "shifted_T": build_T(5, Rng(1)),
            "wishart": sample_wishart(5, Rng(1)),
            "circulant": circulant_small_offdiag(5, 0.3),
            "all_ones": all_ones(5),
            "diagonal": GramMatrix(np.diag(1.0 + Rng(1).uniform(5))),
        }
        for kind, ref in expected.items():
            A = make_ensemble(kind, 5, 1, eps=0.3)
            assert np.array_equal(A.entries, ref.entries), kind
        assert np.array_equal(make_ensemble("circulant", 5, 1).entries,
                              circulant_small_offdiag(5).entries)
        with pytest.raises(ValueError):
            make_ensemble("nope", 3, 1)
        with pytest.raises(ValueError):
            make_ensemble("all_ones", 0, 1)


class TestBaiYin:
    def test_n_one_exact_zero(self):
        s = bai_yin_stat(1, 3, Rng(0))
        assert s.mean == 0.0 and s.max == 0.0

    def test_values_within_gershgorin(self):
        n = 20
        s = bai_yin_stat(n, 10, Rng(4))
        assert s.min >= 0.0
        assert s.max * math.sqrt(n) <= n - 1 + 1e-9

    def test_moderate_n_near_two(self):
        s = bai_yin_stat(150, 8, Rng(6))
        assert 1.6 <= s.mean <= 2.3


class TestMaxRestrictedNorm:
    def test_k_one_and_two_exact(self):
        for seed in range(5):
            W = sample_W(10, Rng(800 + seed))
            assert max_restricted_norm(W, 1).value == 0.0
            assert max_restricted_norm(W, 2).value == 1.0

    def test_k_n_matches_operator_norm(self):
        W = sample_W(9, Rng(3))
        est = max_restricted_norm(W, 9)
        assert est.value == pytest.approx(operator_norm(W), rel=1e-12)
        assert est.normalized == pytest.approx(est.value / 3.0, rel=1e-12)

    def test_monotone_in_k(self):
        W = sample_W(10, Rng(12))
        vals = [max_restricted_norm(W, k).value for k in range(1, 11)]
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(9))

    def test_monte_carlo_never_exceeds_exhaustive(self):
        for n in (8, 11, 14):
            W = sample_W(n, Rng(n))
            for k in range(1, n + 1):
                ex = max_restricted_norm(W, k, mode="exhaustive")
                mc = max_restricted_norm(W, k, mode="monte_carlo", samples=50,
                                         rng=Rng(1000 + k))
                assert mc.value <= ex.value + 1e-12

    def test_exhaustive_cap_refusal(self):
        W = sample_W(40, Rng(1))
        with pytest.raises(ValueError, match="monte_carlo"):
            max_restricted_norm(W, 20, mode="exhaustive")

    def test_closed_form_pairs_match_eigensolver(self):
        # the 2x2 fast path must agree with per-subset eigendecompositions
        g = Rng(9).normal(36).reshape(6, 6)
        A = GramMatrix((g + g.T) / 2)
        fast = max_restricted_norm(A, 2).value
        slow = max(
            operator_norm(GramMatrix(A.entries[np.ix_([i, j], [i, j])]))
            for i in range(6) for j in range(i + 1, 6)
        )
        assert fast == pytest.approx(slow, rel=1e-12)


def _reference_norm(a, subsets):
    # one eigvalsh per subset: the unbatched scan the batched one must equal
    best = 0.0
    for idx in subsets:
        lam = np.linalg.eigvalsh(a[np.ix_(idx, idx)])
        best = max(best, float(max(abs(lam[0]), abs(lam[-1]))))
    return best


def _hollow_and_gaussian(n, seed):
    g = Rng(seed).normal(n * n).reshape(n, n)
    return sample_W(n, Rng(seed)).entries, (g + g.T) / 2


class TestBatchedScan:
    def test_exhaustive_equals_per_subset_loop(self):
        for n in range(3, 15):
            for a in _hollow_and_gaussian(n, 300 + n):
                for k in range(3, n + 1):
                    ref = _reference_norm(a, itertools.combinations(range(n), k))
                    assert max_restricted_norm(a, k, mode="exhaustive").value == ref

    def test_exhaustive_spanning_chunks(self):
        n, k = 50, 3
        chunk = randcert._STACK_CAP // (k * k)
        assert chunk < math.comb(n, k) and math.comb(n, k) % chunk != 0
        for a in _hollow_and_gaussian(n, 17):
            ref = _reference_norm(a, itertools.combinations(range(n), k))
            assert max_restricted_norm(a, k, mode="exhaustive").value == ref

    @pytest.mark.parametrize("k, samples", [(3, 1001), (40, 200)])
    def test_monte_carlo_equals_sequential_reference(self, k, samples):
        n = 60
        chunk = randcert._STACK_CAP // (k * k)
        assert samples % chunk != 0
        for a in _hollow_and_gaussian(n, k):
            seq, batch = Rng(k), Rng(k)
            ref = _reference_norm(a, (seq.subset(n, k) for _ in range(samples)))
            est = max_restricted_norm(a, k, mode="monte_carlo", samples=samples,
                                      rng=batch)
            assert est.value == ref
            assert batch.counter == seq.counter == samples * k


class TestEstimateKappa:
    def test_degenerate_small_n(self):
        # beta sqrt(n) = 0.5 < 1, the norm of every 2x2 principal submatrix
        rng = Rng(5)
        est = estimate_kappa_for(sample_W(16, rng.child(0)), 0.125, rng.child(1))
        assert est.alpha < 2.0 / 16.0
        assert est.k == 1

    def test_monotone_in_beta_same_seed(self):
        rng = Rng(5)
        W = sample_W(64, rng.child(0))
        lo = estimate_kappa_for(W, 0.125, rng.child(1))
        hi = estimate_kappa_for(W, 0.25, rng.child(1))
        assert hi.alpha >= lo.alpha

    def test_bound_holds_at_returned_k(self):
        rng = Rng(8)
        est = estimate_kappa_for(sample_W(64, rng.child(0)), 0.25, rng.child(1))
        assert est.restricted_norm <= 0.25 * 8.0 + 1e-12

    def test_requires_hollow(self):
        with pytest.raises(ValueError):
            estimate_kappa_for(GramMatrix(np.eye(4)), 0.125, Rng(1))

    def test_all_sizes_qualify_with_huge_beta(self):
        rng = Rng(2)
        est = estimate_kappa_for(sample_W(12, rng.child(0)), 100.0, rng.child(1))
        assert est.k == 12 and est.alpha == 1.0


class TestTailBoundCurve:
    def test_near_one_is_vacuous(self):
        assert tail_bound_curve(1.0 - 1e-12, 50) == pytest.approx(4.0, abs=1e-6)

    def test_point_value(self):
        # alpha log(1/alpha) n = 0.1 * ln 10 * 100 = 10 ln 10, so exp term = 1e-10
        assert tail_bound_curve(0.1, 100) == pytest.approx(4e-10, rel=1e-12)

    def test_decreasing_in_n(self):
        vals = [tail_bound_curve(0.2, n) for n in (10, 20, 40, 80)]
        assert all(vals[i] > vals[i + 1] for i in range(3))

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                tail_bound_curve(bad, 10)
