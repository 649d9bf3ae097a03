"""Dense symmetric matrices and their validation.

The module holds ``GramMatrix``, the one place a matrix is checked to be
square, finite and symmetric, and ``as_matrix_array``, which hands on a
GramMatrix's array or validates a raw one.  Matrices are real symmetric,
dense float64.  ``GramMatrix._wrap`` makes the array it is given read-only.
"""

from __future__ import annotations

import numpy as np

from .errors import AsymmetricMatrixError

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
