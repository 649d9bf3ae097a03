import numpy as np
import pytest

from l1gram import (
    AsymmetricMatrixError,
    GramMatrix,
    Rng,
    entrywise_one_norm,
    min_eigenvalue,
    operator_norm,
    project_l1_sphere,
    trace,
)
from l1gram.linalg import _project_l1_rows

ONES3 = GramMatrix(np.ones((3, 3)))


def brute_sphere_projection(x, step=1e-3):
    """Oracle: minimize ||y - x||_2 over a dense grid of the l1 sphere (n=2)."""
    m = int(round(1 / step))
    t = np.arange(m + 1) / m
    best, best_y = np.inf, None
    for sa in (1, -1):
        for sb in (1, -1):
            ys = np.stack([sa * t, sb * (1 - t)], axis=1)
            d = np.linalg.norm(ys - x, axis=1)
            j = int(np.argmin(d))
            if d[j] < best:
                best, best_y = d[j], ys[j]
    return best_y


class TestGramMatrix:
    def test_rejects_asymmetric_input(self):
        with pytest.raises(AsymmetricMatrixError):
            GramMatrix([[1.0, 2.0], [0.5, 1.0]])

    def test_symmetrizes_tiny_asymmetry(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]])
        g = GramMatrix(a)
        assert g.entries[0, 1] == g.entries[1, 0]

    def test_rejects_nonsquare_and_empty(self):
        with pytest.raises(ValueError):
            GramMatrix(np.ones((2, 3)))
        with pytest.raises(ValueError):
            GramMatrix(np.ones((0, 0)))

    def test_entries_read_only(self):
        g = GramMatrix(np.eye(3))
        with pytest.raises(ValueError):
            g.entries[0, 0] = 5.0


def test_entrywise_one_norm_examples():
    assert entrywise_one_norm(GramMatrix(np.eye(2))) == 2.0
    assert entrywise_one_norm(GramMatrix([[1.0, -2.0], [-2.0, 5.0]])) == 10.0
    assert entrywise_one_norm(ONES3) == 9.0


def test_trace_examples():
    assert trace(GramMatrix(np.eye(3))) == 3.0
    assert trace(ONES3) == 3.0
    assert trace(GramMatrix(np.diag([1.0, 2.0, 4.0]))) == 7.0


def test_min_eigenvalue_examples():
    assert min_eigenvalue(GramMatrix(np.eye(2))) == 1.0
    assert min_eigenvalue(GramMatrix([[0.0, 1.0], [1.0, 0.0]])) == -1.0
    assert abs(min_eigenvalue(ONES3)) <= 1e-12


def test_operator_norm_examples():
    assert operator_norm(GramMatrix(np.diag([2.0, -5.0]))) == 5.0
    assert operator_norm(GramMatrix([[0.0, 1.0], [1.0, 0.0]])) == 1.0
    assert abs(operator_norm(GramMatrix(np.ones((4, 4)))) - 4.0) <= 1e-12


def test_operator_norm_dominates_rayleigh_quotients():
    g = Rng(42).normal(100).reshape(10, 10)
    A = GramMatrix((g + g.T) / 2)
    nrm = operator_norm(A)
    r = Rng(43)
    for _ in range(1000):
        x = r.normal(10)
        x /= np.linalg.norm(x)
        assert abs(x @ A.entries @ x) <= nrm + 1e-10


class TestProjectL1Sphere:
    def test_simple_examples(self):
        assert np.allclose(project_l1_sphere(np.array([2.0, 0.0])), [1.0, 0.0])
        assert np.allclose(project_l1_sphere(np.array([0.2, 0.2])), [0.5, 0.5])

    def test_three_one_against_grid_oracle(self):
        x = np.array([3.0, 1.0])
        y = project_l1_sphere(x)
        assert np.allclose(y, [1.0, 0.0], atol=1e-12)
        oracle = brute_sphere_projection(x)
        assert np.abs(y - oracle).max() <= 2e-3

    def test_random_inputs_against_grid_oracle(self):
        r = Rng(7)
        for t in range(20):
            x = 3.0 * r.normal(2)
            if np.abs(x).sum() == 0.0:
                continue
            y = project_l1_sphere(x)
            oracle = brute_sphere_projection(x)
            assert np.linalg.norm(y - x) <= np.linalg.norm(oracle - x) + 1e-6

    def test_unit_norm_and_fixed_point(self):
        r = Rng(8)
        for t in range(200):
            x = r.normal(6) * (10.0 ** (t % 5 - 2))
            y = project_l1_sphere(x)
            assert abs(np.abs(y).sum() - 1.0) <= 1e-12
            y2 = project_l1_sphere(y)
            assert np.abs(y2 - y).max() <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            project_l1_sphere(np.zeros(3))
        rows = np.ones((3, 4))
        rows[1] = 0.0
        with pytest.raises(ValueError):
            _project_l1_rows(rows)

    def test_rows_match_the_vector_projection(self):
        # rows inside the ball, on the sphere, outside it, and with tied
        # magnitudes: every row bit for bit as project_l1_sphere alone
        r = Rng(9)
        x = r.normal(12 * 7).reshape(12, 7)
        x[0] *= 1e-3 / np.abs(x[0]).sum()
        x[1] /= np.abs(x[1]).sum()
        x[2] = project_l1_sphere(x[2])
        x[3] = [0.5, -0.5, 0.5, -0.5, 0.5, 0.0, 0.25]
        x[4] = [2.0, -2.0, 2.0, 1.0, -1.0, 1.0, 0.0]
        x[5] = [0.1, -0.1, 0.1, -0.1, 0.1, -0.1, 0.1]
        x[6:] *= 10.0 ** np.arange(-2, 4)[:, None]
        y = _project_l1_rows(x)
        for row, out in zip(x, y):
            assert np.array_equal(out, project_l1_sphere(row))
