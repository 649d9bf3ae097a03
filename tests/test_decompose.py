import hashlib

import numpy as np
import pytest

from l1gram import (
    GramMatrix,
    NotPositiveSemidefiniteError,
    PivotRule,
    Rng,
    SingularPivotError,
    eigen_decomposer,
    greedy_peel,
    min_eigenvalue,
    peel_step,
    per_step_cost_identity_check,
    sample_wishart,
    trace,
    validate,
)

ONES3 = GramMatrix(np.ones((3, 3)))

ALL_RULES = (
    PivotRule.min_cost_per_trace(),
    PivotRule.max_diagonal(),
    PivotRule.max_trace_removal(),
    PivotRule.fixed_order(range(30)),
    PivotRule.random_order(5),
)


class TestEigenDecomposer:
    def test_all_ones(self):
        dec = eigen_decomposer(ONES3)
        assert dec.k == 1
        assert abs(dec.total_cost - 9.0) <= 1e-12 * 9.0
        assert np.allclose(np.abs(dec.vectors[0]), 1.0, atol=1e-12)

    def test_diagonal(self):
        dec = eigen_decomposer(GramMatrix(np.diag([1.0, 2.0])))
        assert sorted(dec.costs.tolist()) == pytest.approx([1.0, 2.0], rel=1e-12)
        assert dec.total_cost == pytest.approx(3.0, rel=1e-12)

    def test_diagonal_factors_in_descending_order(self):
        dec = eigen_decomposer(GramMatrix(np.diag([1.0, 3.0])))
        assert np.allclose(np.abs(dec.vectors), [[0.0, np.sqrt(3.0)], [1.0, 0.0]])
        assert dec.costs == pytest.approx([3.0, 1.0], rel=1e-12)

    def test_two_by_two(self):
        # eigenpairs (3, (1, 1)/sqrt 2) and (1, (1, -1)/sqrt 2)
        dec = eigen_decomposer(GramMatrix([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(np.abs(dec.vectors),
                           [[np.sqrt(1.5)] * 2, [np.sqrt(0.5)] * 2], atol=1e-12)
        assert dec.costs == pytest.approx([6.0, 2.0], rel=1e-12)

    @pytest.mark.parametrize("seed, n, p", [(400, 10, 10), (401, 26, 26),
                                            (402, 30, 12)])
    def test_wishart_factors_in_descending_eigenvalue_order(self, seed, n, p):
        A = sample_wishart(n, Rng(seed), p=p)
        dec = eigen_decomposer(A)
        assert dec.k == min(n, p)
        sq = (dec.vectors ** 2).sum(axis=1)  # ||x_k||_2^2 = lambda_k
        lam = np.linalg.eigvalsh(A.entries)[::-1][:dec.k]
        assert sq == pytest.approx(lam, rel=1e-10)
        assert np.all(np.diff(sq) <= 1e-12 * sq[0])
        assert np.abs(dec.reconstruct() - A.entries).max() <= 1e-10 * trace(A)

    def test_rank_one_recovery(self):
        x = np.array([1.0, -2.0])
        dec = eigen_decomposer(GramMatrix(np.outer(x, x)))
        assert dec.k == 1
        assert dec.total_cost == pytest.approx(9.0, rel=1e-9)  # ||x||_1^2
        assert np.allclose(np.abs(dec.vectors[0]), [1.0, 2.0], atol=1e-9)

    def test_rejects_indefinite_with_lambda_min(self):
        with pytest.raises(NotPositiveSemidefiniteError) as exc:
            eigen_decomposer(GramMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert exc.value.lambda_min == pytest.approx(-1.0, abs=1e-12)


class TestPeelStep:
    def test_all_ones_single_step(self):
        x, A2 = peel_step(ONES3, 0)
        assert np.array_equal(x, np.ones(3))
        assert np.abs(A2.entries).max() == 0.0

    def test_diagonal(self):
        x, A2 = peel_step(GramMatrix(np.diag([1.0, 2.0])), 1)
        assert np.allclose(x, [0.0, np.sqrt(2.0)])
        assert np.allclose(A2.entries, np.diag([1.0, 0.0]))

    def test_direct_arithmetic_case(self):
        # a_0 = (2, 1), a_0 a_0^T / 2 = [[2, 1], [1, 1/2]]
        x, A2 = peel_step(GramMatrix([[2.0, 1.0], [1.0, 1.0]]), 0)
        assert np.allclose(x, [np.sqrt(2.0), 1.0 / np.sqrt(2.0)], atol=1e-15)
        assert np.allclose(A2.entries, [[0.0, 0.0], [0.0, 0.5]], atol=1e-15)

    def test_trace_identity(self):
        A = sample_wishart(8, Rng(3))
        x, A2 = peel_step(A, 2)
        drop = trace(A) - trace(A2)
        expect = float(A.entries[2] @ A.entries[2]) / A.entries[2, 2]
        assert drop == pytest.approx(expect, rel=1e-10)

    def test_zeroed_row_and_psd_preserved(self):
        A = sample_wishart(10, Rng(9))
        x, A2 = peel_step(A, 4)
        assert np.abs(A2.entries[4]).max() == 0.0
        assert np.abs(A2.entries[:, 4]).max() == 0.0
        assert min_eigenvalue(A2) >= -1e-8 * trace(A)

    def test_singular_pivot_raises(self):
        with pytest.raises(SingularPivotError):
            peel_step(np.array([[0.0, 1.0], [1.0, 0.0]]), 0, check_psd=False)

    def test_exhausted_pivot_is_noop(self):
        A = GramMatrix(np.diag([0.0, 1.0]))
        x, A2 = peel_step(A, 0, check_psd=False)
        assert np.array_equal(x, np.zeros(2))
        assert np.array_equal(A2.entries, A.entries)

    def test_exhausted_row_within_psd_bound_is_noop(self):
        # r r^T with r_0^2 = 1e-14 below the pivot tolerance: row 0 has norm
        # 1e-7 > tol * n, yet sqrt(a_00 tr) allows it, so it is exhausted.
        r = np.array([1e-7, 1.0])
        A = GramMatrix(np.outer(r, r))
        x, A2 = peel_step(A, 0)
        assert np.array_equal(x, np.zeros(2))
        assert np.array_equal(A2.entries, A.entries)


class TestGreedyPeel:
    def test_all_ones_sharpness(self):
        dec = greedy_peel(ONES3, PivotRule.max_diagonal())
        assert dec.k == 1
        assert dec.total_cost == 9.0
        assert dec.residual_trace == 0.0

    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.label())
    def test_diagonal_any_rule(self, rule):
        d = np.array([1.0, 2.0, 4.0, 0.5, 3.0])
        if rule.kind == "fixed_order":
            rule = PivotRule.fixed_order(range(5))
        dec = greedy_peel(GramMatrix(np.diag(d)), rule)
        assert dec.k == 5
        assert dec.total_cost == pytest.approx(d.sum(), rel=1e-12)

    def test_rank_one_single_step(self):
        x = np.array([1.0, 2.0, 3.0])
        dec = greedy_peel(GramMatrix(np.outer(x, x)))
        assert dec.k == 1
        assert dec.total_cost == pytest.approx(36.0, rel=1e-9)

    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.label())
    def test_all_rules_produce_valid_decompositions(self, rule):
        A = sample_wishart(30, Rng(77))
        dec = greedy_peel(A, rule)
        report = validate(dec, A)
        assert report.ok, report.messages
        assert dec.total_cost <= 30 * trace(A) * (1 + 1e-8)

    def test_cost_bound_and_psd_preservation_sweep(self):
        for t in range(50):
            n = 5 + (t % 4) * 5
            A = sample_wishart(n, Rng(2000 + t))
            dec = greedy_peel(A)
            assert dec.total_cost <= n * trace(A) * (1 + 1e-8)
            assert dec.k <= n
            # replay and watch PSD-ness plus trace telescoping
            a = A.entries
            removed = 0.0
            for i in dec.pivots:
                x, A2 = peel_step(a, i, check_psd=False)
                removed += float(a[i] @ a[i]) / a[i, i]
                a = A2.entries
                assert min_eigenvalue(A2) >= -1e-8 * trace(A)
            assert removed == pytest.approx(trace(A) - dec.residual_trace, rel=1e-9)

    def test_max_steps_truncation_leaves_residual(self):
        A = sample_wishart(12, Rng(5))
        dec = greedy_peel(A, max_steps=4)
        assert dec.k == 4
        assert dec.residual_trace > 0.0
        assert validate(dec, A).ok  # residual allowance covers the rest

    def test_non_psd_rejected(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            greedy_peel(GramMatrix([[0.0, 2.0], [2.0, 0.0]]))

    def test_fixed_order_must_be_distinct_indices(self):
        with pytest.raises(ValueError):
            greedy_peel(GramMatrix(np.eye(3)), PivotRule.fixed_order([0, 0, 1]))

    @pytest.mark.parametrize("seed, n, pivots", [
        (5, 12, [2, 5, 1, 0, 9, 3, 4, 7, 8, 11, 6, 10]),
        (123, 20, [15, 0, 18, 13, 6, 16, 4, 1, 9, 11, 7, 8, 12, 19, 10, 2,
                   14, 5, 3, 17]),
        (0xDEADBEEF, 9, [7, 3, 6, 1, 4, 8, 5, 0, 2]),
    ])
    def test_random_order_pivots_frozen(self, seed, n, pivots):
        # the shuffle is part of the output: these orders must never change
        dec = greedy_peel(sample_wishart(n, Rng(seed + 1)), PivotRule.random_order(seed))
        assert list(dec.pivots) == pivots

    @pytest.mark.parametrize("seed, rule", [
        (21, PivotRule.max_diagonal()),
        (34, PivotRule.min_cost_per_trace()),
    ], ids=["seed21-max_diagonal", "seed34-min_cost_per_trace"])
    def test_rank_one_remainder_is_not_a_singular_pivot(self, seed, rule):
        # The rank-40 input of the decompose benchmark at this seed.  On the
        # 40th step the residual is r r^T; a row j with r_j^2 below the pivot
        # tolerance still has norm |r_j| ||r|| = sqrt(a_jj tr), which PSD-ness
        # allows, so it is exhausted, not evidence of a non-PSD input.
        A = sample_wishart(400, Rng(seed).child(1), p=40)
        dec = greedy_peel(A, rule)
        assert dec.k == 40
        assert validate(dec, A).ok

    def test_row_beyond_psd_bound_raises(self):
        # a_22 = 0 but |a_20| = 1e-3, far above sqrt(max(a_22, tol) tr) + tol n:
        # no PSD matrix has such a row.
        a = np.array([[1.0, 0.0, 1e-3], [0.0, 1.0, 0.0], [1e-3, 0.0, 0.0]])
        with pytest.raises(SingularPivotError) as exc:
            greedy_peel(a, PivotRule.max_diagonal(), tol_psd=1e-5)
        assert exc.value.index == 2


def _digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


FROZEN_INPUTS = {
    "full": lambda: sample_wishart(96, Rng(2024)),
    "rank24": lambda: sample_wishart(96, Rng(2025), p=24),
}
FROZEN_RULES = {
    "max_diagonal": PivotRule.max_diagonal(),
    "min_cost_per_trace": PivotRule.min_cost_per_trace(),
    "max_trace_removal": PivotRule.max_trace_removal(),
    "fixed_order": PivotRule.fixed_order(range(95, -1, -1)),
    "random_order": PivotRule.random_order(7),
}
FROZEN_PEEL = {
    ("full", "max_diagonal"):
        "308e292cd90e52a2bbb7127e715e56525f2336ce05aa0bcb73fbbf40d9b6f66e",
    ("full", "min_cost_per_trace"):
        "e24fc2304e5194ae771e6b7969489efa3a67517f08bf7e20fc6f30105490ce2c",
    ("full", "max_trace_removal"):
        "845b290f4328d7462b3ac4efb32237e8b1992ed39796a89ea303eee1e7406fdc",
    ("full", "fixed_order"):
        "4cb73406bee60ba8b79e6d1d941199570262e2b413462f807ad4c6b634c7a6d5",
    ("full", "random_order"):
        "b60aeaba24bd86d7f9859f4106aef1c26273bfb9369bb92c993d1fed10f54a1a",
    ("rank24", "max_diagonal"):
        "983db2df590a10a7fcf779b3ed995595f3aa85ee64c3959925b49da762744af9",
    ("rank24", "min_cost_per_trace"):
        "62cc5f58748ef112ca0c03341879e7078588cff583d5df51177ed81d8291148f",
    ("rank24", "max_trace_removal"):
        "cad82511a1b716ab7b1461d3c3fc618cddeccefb946e14bd704a3ad07d0d8dbc",
    ("rank24", "fixed_order"):
        "efe74ae94a32ba3fa61f83c7050ecba3425ff4df6f57556f2d85b9065b51ebd0",
    ("rank24", "random_order"):
        "53a28d4bfdac9fb5c20c5882601b36b5d4897d81304761d822e89b15289c6c7b",
}


class TestFrozenOutputs:
    """SHA-256 of peeling outputs, recorded before the shared pivot kernel.

    Every byte of every factor is part of the output.
    """

    @pytest.mark.parametrize("key, rule", sorted(FROZEN_PEEL))
    def test_greedy_peel(self, key, rule):
        dec = greedy_peel(FROZEN_INPUTS[key](), FROZEN_RULES[rule])
        assert _digest(dec.vectors.tobytes(), dec.costs.tobytes(),
                       repr(dec.pivots).encode(),
                       dec.residual_trace.hex().encode()) == FROZEN_PEEL[key, rule]

    def test_peel_step_chain(self):
        a = sample_wishart(40, Rng(11))
        chunks = []
        for i in (3, 17, 0, 39, 22):
            x, a = peel_step(a, i, check_psd=False)
            chunks.append(x.tobytes())
        chunks.append(a.entries.tobytes())
        assert _digest(*chunks) == (
            "15e27e7f5092b54879db1eaeb3213d1ce1a7e51f293a91994200ccdc51d7dbbf")


class TestCostIdentity:
    def test_all_ones(self):
        assert per_step_cost_identity_check(ONES3, 0) == 0.0

    def test_diagonal(self):
        disc = per_step_cost_identity_check(GramMatrix(np.diag([1.0, 2.0])), 1)
        assert disc <= 1e-12

    def test_random_wishart(self):
        A = sample_wishart(5, Rng(31))
        for i in range(5):
            assert per_step_cost_identity_check(A, i) <= 1e-10


class TestValidate:
    def test_identity_margin(self):
        I3 = GramMatrix(np.eye(3))
        report = validate(eigen_decomposer(I3), I3)
        assert report.ok
        assert report.reconstruction_error <= 1e-12
        assert report.bound_margin == pytest.approx(6.0, abs=1e-9)

    def test_all_ones_zero_margin(self):
        report = validate(greedy_peel(ONES3), ONES3)
        assert report.ok
        assert report.bound_margin == pytest.approx(0.0, abs=1e-9)

    def test_truncated_decomposition_flagged(self):
        A = sample_wishart(6, Rng(8))
        dec = greedy_peel(A)
        dec.vectors = dec.vectors[:-1]  # drop a factor but keep the books
        dec.costs = dec.costs[:-1]
        dec.total_cost = float(dec.costs.sum())
        report = validate(dec, A)
        assert not report.reconstruction_ok
        assert not report.ok


def test_decomposition_bookkeeping_invariants():
    A = sample_wishart(9, Rng(4))
    for dec in (eigen_decomposer(A), greedy_peel(A)):
        assert dec.total_cost == pytest.approx(float(dec.costs.sum()), rel=1e-12)
        recomputed = np.abs(dec.vectors).sum(axis=1) ** 2
        assert np.allclose(recomputed, dec.costs, rtol=1e-12)
        err = np.abs(dec.reconstruct() - A.entries).max()
        assert err <= 1e-9 * (1.0 + np.abs(A.entries).sum()) + dec.residual_trace
