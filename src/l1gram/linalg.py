"""Dense symmetric matrices: eigenvalues, norms, l1 projections.

All matrices are real symmetric, stored dense in float64; vectors are plain
1-d float64 arrays.  ``GramMatrix`` enforces symmetry at construction; every
operation here is a pure function.
"""

from __future__ import annotations

import numpy as np

from .errors import AsymmetricMatrixError, EigenConvergenceError

SYMMETRY_RTOL = 1e-8  # admissible asymmetry relative to the Frobenius norm


class GramMatrix:
    """Dense real symmetric n x n matrix.

    Construction symmetrizes the input via (A + A^T)/2 when the maximum
    asymmetry is at most ``SYMMETRY_RTOL`` times the Frobenius norm and
    rejects it otherwise; this catches data errors early.  The stored array
    is read-only.
    """

    __slots__ = ("_a",)

    def __init__(self, entries):
        a = np.array(entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        if not np.array_equal(a, a.T):  # one comparison pass when exact
            asym = np.abs(a - a.T).max()
            tol = SYMMETRY_RTOL * np.linalg.norm(a)
            if asym > tol:
                raise AsymmetricMatrixError(asym, tol)
            a = (a + a.T) / 2.0
        a.setflags(write=False)
        self._a = a

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "GramMatrix":
        """Trusted constructor for arrays already exactly symmetric."""
        obj = cls.__new__(cls)
        a = np.asarray(a, dtype=np.float64)
        a.setflags(write=False)
        obj._a = a
        return obj

    @property
    def n(self) -> int:
        return self._a.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Read-only (n, n) array view."""
        return self._a

    def __repr__(self):
        return f"GramMatrix(n={self.n})"


def as_matrix_array(A) -> np.ndarray:
    """Accept a GramMatrix or a raw symmetric array, return the ndarray."""
    if isinstance(A, GramMatrix):
        return A.entries
    return GramMatrix(A).entries


def entrywise_one_norm(A) -> float:
    """Sum of absolute values of all entries."""
    return float(np.abs(as_matrix_array(A)).sum())


def trace(A) -> float:
    return float(np.trace(as_matrix_array(A)))


def _eigvals(A) -> np.ndarray:
    a = as_matrix_array(A)
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigenvalue computation failed: {exc}") from exc


def min_eigenvalue(A) -> float:
    return float(_eigvals(A)[0])


def max_eigenvalue(A) -> float:
    return float(_eigvals(A)[-1])


def operator_norm(A) -> float:
    """Spectral norm: max |lambda| over the eigenvalues."""
    lam = _eigvals(A)
    return float(max(abs(lam[0]), abs(lam[-1])))


def project_l1_sphere(x) -> np.ndarray:
    """Project onto the unit l1 sphere {y : ||y||_1 = 1}.

    Points outside the unit l1 ball get the Euclidean ball projection
    (sort-and-threshold on |x| with signs restored; Duchi et al., ICML
    2008), which lands on the sphere; points strictly inside are rescaled
    to unit l1 norm.  The zero or a non-finite vector raises ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a vector")
    return _project_l1_rows(x[None, :])[0]


def _project_l1_rows(x: np.ndarray) -> np.ndarray:
    """project_l1_sphere applied to every row of the (m, n) array x.

    Every reduction runs along the contiguous last axis, so each row of a
    C-contiguous x comes out bit for bit as it would alone.
    """
    a = np.abs(x)
    norm1 = a.sum(axis=1)
    if not np.all(np.isfinite(norm1) & (norm1 != 0.0)):
        raise ValueError("cannot project the zero (or non-finite) vector")
    y = x / norm1[:, None]
    out = norm1 > 1.0
    if out.any():
        xo, ao = x[out], a[out]
        u = np.sort(ao, axis=1)[:, ::-1]
        cumsum = np.cumsum(u, axis=1)
        ks = np.arange(1, x.shape[1] + 1)
        # the last index where u_k k > cumsum_k - 1 (always true at k = 1)
        rho = x.shape[1] - 1 - np.argmax((u * ks > cumsum - 1.0)[:, ::-1], axis=1)
        theta = (cumsum[np.arange(rho.size), rho] - 1.0) / (rho + 1.0)
        yo = ao - theta[:, None]
        np.maximum(yo, 0.0, out=yo)
        yo *= np.sign(xo)
        s = np.abs(yo).sum(axis=1)
        off = s != 1.0  # kill the last ulp of threshold roundoff
        yo[off] /= s[off, None]
        y[out] = yo
    return y
