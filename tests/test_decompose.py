import hashlib

import numpy as np
import pytest

from l1gram import (
    AsymmetricMatrixError,
    GramMatrix,
    NotPositiveSemidefiniteError,
    PivotRule,
    Rng,
    SingularPivotError,
    eigen_decomposer,
    greedy_peel,
    peel_step,
    sample_wishart,
    validate,
)
from l1gram.decompose import _select_pivot, default_psd_tolerance

ONES3 = GramMatrix(np.ones((3, 3)))

ALL_RULES = (
    PivotRule("min_cost_per_trace"),
    PivotRule("max_diagonal"),
    PivotRule("max_trace_removal"),
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
        assert np.abs(dec.reconstruct() - A.entries).max() <= 1e-10 * np.trace(A.entries)

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
        drop = np.trace(A.entries) - np.trace(A2.entries)
        expect = float(A.entries[2] @ A.entries[2]) / A.entries[2, 2]
        assert drop == pytest.approx(expect, rel=1e-10)

    def test_zeroed_row_and_psd_preserved(self):
        A = sample_wishart(10, Rng(9))
        x, A2 = peel_step(A, 4)
        assert np.abs(A2.entries[4]).max() == 0.0
        assert np.abs(A2.entries[:, 4]).max() == 0.0
        assert np.linalg.eigvalsh(A2.entries)[0] >= -1e-8 * np.trace(A.entries)

    def test_singular_pivot_raises(self):
        with pytest.raises(SingularPivotError):
            peel_step(np.array([[0.0, 1.0], [1.0, 0.0]]), 0)

    def test_exhausted_pivot_is_noop(self):
        A = GramMatrix(np.diag([0.0, 1.0]))
        x, A2 = peel_step(A, 0)
        assert np.array_equal(x, np.zeros(2))
        assert np.array_equal(A2.entries, A.entries)

    def test_input_checks_kept(self):
        with pytest.raises(AsymmetricMatrixError):
            peel_step(np.array([[1.0, 0.5], [0.0, 1.0]]), 0)
        with pytest.raises(ValueError):
            peel_step(np.array([[1.0, np.nan], [np.nan, 1.0]]), 0)
        with pytest.raises(ValueError):
            peel_step(np.ones((2, 3)), 0)
        with pytest.raises(IndexError):
            peel_step(ONES3, 3)

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
        dec = greedy_peel(ONES3, PivotRule("max_diagonal"))
        assert dec.k == 1
        assert dec.total_cost == 9.0
        assert dec.residual_trace == 0.0

    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.label())
    def test_diagonal_any_rule(self, rule):
        d = np.array([1.0, 2.0, 4.0, 0.5, 3.0])
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
        assert dec.total_cost <= 30 * np.trace(A.entries) * (1 + 1e-8)

    def test_cost_bound_and_psd_preservation_sweep(self):
        for t in range(50):
            n = 5 + (t % 4) * 5
            A = sample_wishart(n, Rng(2000 + t))
            dec = greedy_peel(A)
            assert dec.total_cost <= n * np.trace(A.entries) * (1 + 1e-8)
            assert dec.k <= n
            # replay and watch PSD-ness plus trace telescoping
            a = A.entries
            removed = 0.0
            for i in dec.pivots:
                x, A2 = peel_step(a, i)
                removed += float(a[i] @ a[i]) / a[i, i]
                a = A2.entries
                assert np.linalg.eigvalsh(A2.entries)[0] >= -1e-8 * np.trace(A.entries)
            assert removed == pytest.approx(np.trace(A.entries) - dec.residual_trace, rel=1e-9)

    def test_non_psd_rejected(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            greedy_peel(GramMatrix([[0.0, 2.0], [2.0, 0.0]]))

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
        (21, PivotRule("max_diagonal")),
        (34, PivotRule("min_cost_per_trace")),
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

    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.label())
    @pytest.mark.parametrize("diag, pivots, left", [
        ([1e-14] * 100, (), 1e-12),
        ([1.0] + [1e-14] * 200, (0,), 2e-12),
    ], ids=["all-exhausted", "exhausted-after-one"])
    def test_rows_exhausted_before_the_stop(self, diag, pivots, left, rule):
        # each 1e-14 diagonal is below the pivot tolerance 1e-13 (1 + tr A)
        # while the trace they leave is above the stop 1e-12 tr A: once no
        # row above the tolerance is left, the peel ends with that trace
        A = GramMatrix(np.diag(diag))
        dec = greedy_peel(A, rule)
        assert dec.pivots == pivots and dec.k == len(pivots)
        assert dec.residual_trace == pytest.approx(left, rel=1e-12)
        assert validate(dec, A).ok

    def test_row_beyond_psd_bound_raises(self):
        # a_22 = 0 but |a_20| = 1e-4, far above sqrt(max(a_22, tol) tr) + tol n:
        # no PSD matrix has such a row.  lambda_min is about -1e-8, inside the
        # PSD gate's tolerance of 3e-8, so the pivot check is what raises.
        a = np.array([[1.0, 0.0, 1e-4], [0.0, 1.0, 0.0], [1e-4, 0.0, 0.0]])
        assert -3e-8 < np.linalg.eigvalsh(a)[0] < 0.0
        with pytest.raises(SingularPivotError) as exc:
            greedy_peel(a, PivotRule("max_diagonal"))
        assert exc.value.index == 2

    def test_row_beyond_psd_bound_raises_after_compaction(self):
        # Rows 0 and 1 are peeled first, so the live block of this n = 7
        # input drops them before the third step.  Row 5 duplicates row 3
        # but for a_56 = 1e-4; once row 3 is peeled, a_55 = 0 while a_56 is
        # still 1e-4.  lambda_min is about -5e-9, inside the PSD gate.
        a = np.diag([10.0, 9.0, 0.5, 1.0, 0.5, 1.0, 1.0])
        a[3, 5] = a[5, 3] = 1.0
        a[5, 6] = a[6, 5] = 1e-4
        assert -1e-8 < np.linalg.eigvalsh(a)[0] < 0.0
        with pytest.raises(SingularPivotError) as exc:
            greedy_peel(a, PivotRule("max_diagonal"))
        assert exc.value.index == 5


def _near_boundary(n, f, seed):
    """A = Q diag(lam) Q^T, symmetrized, with the other eigenvalues in
    [1, 2) and lam_min = -f * default_psd_tolerance(A)."""
    rng = Rng(seed)
    q, _ = np.linalg.qr(rng.normal(n * n).reshape(n, n))
    lam = 1.0 + rng.uniform(n)
    s = lam[1:].sum()
    # tol = 1e-8 (1 + s + lam_0), solved for lam_0 = -f tol
    lam[0] = -f * 1e-8 * (1.0 + s) / (1.0 + f * 1e-8)
    a = (q * lam) @ q.T
    return GramMatrix((a + a.T) / 2.0)


GATE_CASES = [(n, f) for n in (6, 60) for f in (0.4, 0.6, 0.99, 1.01, 1.5)]


class TestPsdGate:
    """greedy_peel's Cholesky gate accepts only what the eigvalsh rule
    accepts, and eigvalsh runs only where the gate fails.  peel_step runs
    no gate: its callers have gated A, so it decides nothing."""

    @pytest.mark.parametrize("n, f", GATE_CASES)
    def test_inputs_lie_on_the_intended_sides(self, n, f):
        a = _near_boundary(n, f, 70 + n).entries
        tol = default_psd_tolerance(a)
        lam_min = np.linalg.eigvalsh(a)[0]
        assert (lam_min < -tol) == (f > 1.0)
        assert (lam_min < -tol / 2) == (f > 0.5)

    @pytest.mark.parametrize("n, f", GATE_CASES)
    @pytest.mark.parametrize("peel", [greedy_peel, lambda A: peel_step(A, 0)],
                             ids=["greedy_peel", "peel_step"])
    def test_decides_as_the_eigvalsh_rule(self, n, f, peel, monkeypatch):
        A = _near_boundary(n, f, 70 + n)
        tol = default_psd_tolerance(A.entries)
        lam_min = float(np.linalg.eigvalsh(A.entries)[0])
        calls = {"cholesky": 0, "eigvalsh": 0}
        for name in calls:
            real = getattr(np.linalg, name)

            def counted(a, real=real, name=name):
                calls[name] += 1
                return real(a)
            monkeypatch.setattr(np.linalg, name, counted)
        if peel is greedy_peel:
            if lam_min < -tol:
                with pytest.raises(NotPositiveSemidefiniteError) as exc:
                    peel(A)
                assert exc.value.lambda_min == lam_min
                assert exc.value.tolerance == tol
            else:
                peel(A)
            assert calls == {"cholesky": 1, "eigvalsh": 0 if f < 0.5 else 1}
        else:
            peel(A)  # indefinite cases included: no gate, no raise
            assert calls == {"cholesky": 0, "eigvalsh": 0}


def _gathered_pivot(a, rule, active):
    # the reference: the criteria over gathered copies of the active rows
    idx = np.flatnonzero(active)
    if idx.size == 0:
        return None
    diag = np.diagonal(a)[idx]
    if rule.kind == "max_diagonal":
        return int(idx[np.argmax(diag)])
    rows = a[idx]
    l2sq = (rows * rows).sum(axis=1)
    if rule.kind == "max_trace_removal":
        return int(idx[np.argmax(l2sq / diag)])
    l1sq = np.abs(rows).sum(axis=1) ** 2
    return int(idx[np.argmin(l1sq / l2sq)])


def _pivot_block(kind, m):
    if kind == "wishart":
        return sample_wishart(m, Rng(900 + m)).entries
    if kind == "repeated":
        # G G^T for a factor with entries 1..7 whose second half repeats its
        # first: integer entries, so twin rows tie exactly
        g = (Rng(960 + m).u64(m * 6) % np.uint64(7)).astype(np.float64) + 1.0
        g = g.reshape(m, 6)
        g[m // 2:] = g[:m - m // 2]
        return g @ g.T
    if kind == "huge":
        # rows 0, 2, 4, ... scaled by 1e80: their squares overflow, so
        # min_cost_per_trace prices them inf / inf = NaN
        d = np.where(np.arange(m) % 2 == 0, 1e80, 1.0)
        return sample_wishart(m, Rng(950 + m)).entries * np.outer(d, d)
    if kind == "l1_overflow":
        # x (I + J) with (m + 3) x^2 = 1e308: every l2sq is finite while every
        # l1sq = ((m + 1) x)^2 overflows once m > 1, so every row is priced
        # inf / finite = inf and the lowest active row must win
        return 1e154 / np.sqrt(m + 3) * (np.eye(m) + 1.0)
    # circulant: every row is a cyclic shift of the first, so the criteria
    # tie exactly and their roundoff, which follows the order each row is
    # summed in, picks the row
    c = Rng(940 + m).uniform(m) + 0.5
    c = c + c[-np.arange(m)]
    return c[(np.arange(m)[None, :] - np.arange(m)[:, None]) % m]


PIVOT_BLOCKS = ["wishart", "repeated", "huge", "l1_overflow", "circulant"]


def _pivot_masks(a, rule):
    m = a.shape[0]
    rng = Rng(m)
    masks = [np.zeros(m, dtype=bool), np.ones(m, dtype=bool)]
    for j in (0, m // 2, m - 1):
        one = np.zeros(m, dtype=bool)
        one[j] = True
        masks.append(one)
    masks += [rng.uniform(m) < 0.5 for _ in range(8)]
    # the row that wins over the whole block, masked out
    with np.errstate(over="ignore", invalid="ignore"):
        winner = _gathered_pivot(a, rule, np.ones(m, dtype=bool))
    masks.append(np.arange(m) != winner)
    return masks


class TestMaskedPivot:
    """_select_pivot sums the rows of the whole block in place, in C order
    whatever the block's layout, and picks the row that the criteria over
    gathered active rows picked."""

    @pytest.mark.parametrize("rule", ALL_RULES[:3],
                             ids=lambda r: r.label())
    @pytest.mark.parametrize("m", [1, 5, 40])
    @pytest.mark.parametrize("kind", PIVOT_BLOCKS)
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_same_row_as_the_gathered_criteria(self, layout, kind, m, rule):
        a = _pivot_block(kind, m)
        if kind == "repeated" and m > 1:
            assert len({r.tobytes() for r in a}) == m - m // 2
        if kind == "l1_overflow" and m > 1:
            with np.errstate(over="ignore"):
                assert np.isinf(np.abs(a).sum(axis=1) ** 2).all()
            assert np.isfinite((a * a).sum(axis=1)).all()
        block = np.asfortranarray(a) if layout == "F" else a
        for active in _pivot_masks(a, rule):
            with np.errstate(over="ignore", invalid="ignore"):
                expect = _gathered_pivot(a, rule, active)
                got = _select_pivot(block, rule, active)
            assert got == expect, active
            assert (got is None) == (not active.any())
            if got is not None:
                assert active[got]

    def test_peel_where_every_l1sq_overflows(self):
        # every step pivots on an active row, as the gathered criteria did,
        # never on a peeled row, so m distinct pivots empty the residual
        m = 40
        a = _pivot_block("l1_overflow", m)
        with np.errstate(over="ignore", invalid="ignore"):
            dec = greedy_peel(a)
        assert dec.k == len(set(dec.pivots)) == m
        assert (np.abs(dec.vectors).max(axis=1) > 0.0).all()
        assert dec.residual_trace <= 1e-12 * np.trace(a)


def _digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _repeated_rows():
    # An exact integer Gram matrix, so the same bytes under any BLAS: rows
    # 48..95 of its 96 x 48 factor repeat earlier rows and a fifth of the
    # rows are zero.  Once one row of a pair is peeled its twin is exhausted
    # with roundoff entries and stays in the live block.
    rng = Rng(2031)
    g = (rng.u64(96 * 48) % np.uint64(7)).astype(np.float64).reshape(96, 48) - 3.0
    g[48:] = g[(rng.u64(48) % np.uint64(48)).astype(np.intp)]
    g[rng.uniform(96) < 0.2] = 0.0
    return GramMatrix(g @ g.T)


FROZEN_INPUTS = {
    "full": lambda: sample_wishart(96, Rng(2024)),
    "rank24": lambda: sample_wishart(96, Rng(2025), p=24),
    "rank60": lambda: sample_wishart(96, Rng(2026), p=60),
    "repeated": _repeated_rows,
    "rank3": lambda: sample_wishart(8, Rng(152), p=3),
}
FROZEN_RULES = {
    "max_diagonal": PivotRule("max_diagonal"),
    "min_cost_per_trace": PivotRule("min_cost_per_trace"),
    "max_trace_removal": PivotRule("max_trace_removal"),
    "random_order": PivotRule.random_order(7),
}
FROZEN_PEEL = {
    ("full", "max_diagonal"):
        "308e292cd90e52a2bbb7127e715e56525f2336ce05aa0bcb73fbbf40d9b6f66e",
    ("full", "min_cost_per_trace"):
        "e24fc2304e5194ae771e6b7969489efa3a67517f08bf7e20fc6f30105490ce2c",
    ("full", "max_trace_removal"):
        "845b290f4328d7462b3ac4efb32237e8b1992ed39796a89ea303eee1e7406fdc",
    ("full", "random_order"):
        "b60aeaba24bd86d7f9859f4106aef1c26273bfb9369bb92c993d1fed10f54a1a",
    ("rank24", "max_diagonal"):
        "983db2df590a10a7fcf779b3ed995595f3aa85ee64c3959925b49da762744af9",
    ("rank24", "min_cost_per_trace"):
        "62cc5f58748ef112ca0c03341879e7078588cff583d5df51177ed81d8291148f",
    ("rank24", "max_trace_removal"):
        "cad82511a1b716ab7b1461d3c3fc618cddeccefb946e14bd704a3ad07d0d8dbc",
    ("rank24", "random_order"):
        "53a28d4bfdac9fb5c20c5882601b36b5d4897d81304761d822e89b15289c6c7b",
    ("rank60", "max_diagonal"):
        "174c4ca0f8f9da70ab4b16310cf2223db2af57b36a3c6b21e948f5995a06b82a",
    ("rank60", "min_cost_per_trace"):
        "98b0000a7687e7b1e59862bf878ef64a8be2b47a38d6cf41befbf234674c0e1a",
    ("rank60", "max_trace_removal"):
        "636a530d5a3bc493aaf1d50bcd4d678c3ee2cd931c2ceab968874bb73b38c867",
    ("rank60", "random_order"):
        "cdc42964db09a09ee5eb38434c92b73c94cd95b13a4aa0d54fcd71f0e06fa45e",
    # re-recorded when the trace and the row criteria were summed over the
    # live block alone; was 493ff012a6fb7a147f81db27c00e28243b9158e8d653db2066ffb7a6fc6292e9
    ("repeated", "max_diagonal"):
        "3476a3b8baaa1a51919e6f40e51866d20c533771c4c5f49d2c225329c002db46",
    # re-recorded when the trace and the row criteria were summed over the
    # live block alone; was 0e7b750326da652221ba1d9f46f29ca9f952a080cff5643bd4437252ca82c784
    ("repeated", "min_cost_per_trace"):
        "0121c5dd2fc3af1a8a33e0b95de3e139da8b521ef7bd2c6904df3f69190f2912",
    # re-recorded when the trace and the row criteria were summed over the
    # live block alone; was d2c4d4394d83982caf5a370ea6ce9e8a6f5e0105a32d37103e4ff4ebc09f3ce0
    ("repeated", "max_trace_removal"):
        "e678c0d6deae56ba81ff51f78bd4f79d63c3fe3e84669eb328de1f66ac2f3d70",
    # re-recorded when the trace and the row criteria were summed over the
    # live block alone; was 6415848d4c1981993175a87a25f97604202f52b3dca99dbea06b746fe52179aa
    ("repeated", "random_order"):
        "15685cc38a1f4bf2e738c2f5adcedea7b82d726a23b99b9255f9e1f70cd282ad",
    ("rank3", "max_diagonal"):
        "4dff927e2073b0f15d0649277be8eff56a1e46258b6033b56bf04eecd3c78ce3",
    # re-recorded when the trace and the row criteria were summed over the
    # live block alone; was 0db0ce8001658dc6ab9e207b2755648aec5bf1712471e97aa6bc5128aa575436
    ("rank3", "min_cost_per_trace"):
        "19f126d64b74c58bd4629c48575ede69dfa377842425b93c53a2525ee9d7f5d4",
    # re-recorded when the trace and the row criteria were summed over the
    # live block alone; was f54a3fadf356f829dad8b4ab9bd3b59e86079c16680ed4bb0f8af0ba5cdad07e
    ("rank3", "max_trace_removal"):
        "5c15d6b40e855b79b0cd4e63523c7213b2ff0188df61da1bb1b8abdf2d89d94f",
    ("rank3", "random_order"):
        "6dcb530394950e2d7728e9917bd082bb6e73a17e71122936355188e000cb79f0",
}


class TestFrozenOutputs:
    """SHA-256 of peeling outputs.  full and rank24 were recorded on the
    n x n residual before the shared pivot kernel, the others before
    greedy_peel's live block; the other fourteen kept their bytes when
    every sum moved from n-wide rows to the block alone.  Each input drops
    peeled rows from its block at least once.  repeated keeps exhausted
    rows in the block, and its trace moved by roundoff under every rule at
    that change.  rank3 ends on a rank-one residual whose rows tie to the
    ulp, and its min_cost_per_trace and max_trace_removal pivots moved
    then.  Those six were re-recorded, with the same k.

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
            x, a = peel_step(a, i)
            chunks.append(x.tobytes())
        chunks.append(a.entries.tobytes())
        assert _digest(*chunks) == (
            "15e27e7f5092b54879db1eaeb3213d1ce1a7e51f293a91994200ccdc51d7dbbf")


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

    def test_residual_trace_covers_the_unpeeled_part(self):
        # the first 4 factors of a complete peel, with the trace of the rest
        # declared as residual: every entry of that PSD rest is within it
        A = sample_wishart(12, Rng(5))
        dec = greedy_peel(A)
        rest = dec.vectors[4:]
        dec.vectors, dec.costs = dec.vectors[:4], dec.costs[:4]
        dec.total_cost = float(dec.costs.sum())
        dec.residual_trace = float((rest * rest).sum())
        report = validate(dec, A)
        assert report.ok, report.messages
        assert report.reconstruction_error > 1e-9 * (1.0 + np.abs(A.entries).sum())


def test_decomposition_bookkeeping_invariants():
    A = sample_wishart(9, Rng(4))
    for dec in (eigen_decomposer(A), greedy_peel(A)):
        assert dec.total_cost == pytest.approx(float(dec.costs.sum()), rel=1e-12)
        recomputed = np.abs(dec.vectors).sum(axis=1) ** 2
        assert np.allclose(recomputed, dec.costs, rtol=1e-12)
        err = np.abs(dec.reconstruct() - A.entries).max()
        assert err <= 1e-9 * (1.0 + np.abs(A.entries).sum()) + dec.residual_trace
