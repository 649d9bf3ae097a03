"""Dense symmetric matrices: validation, the spectral norm, l1 projections.

The module holds ``GramMatrix``, the one place a matrix is checked to be
square, finite and symmetric; ``as_matrix_array``, which hands on a
GramMatrix's array or validates a raw one; ``operator_norm``; and the
l1-sphere projection ``_project_l1_rows``.  Matrices are real symmetric,
dense float64; vectors are 1-d float64 arrays.  ``GramMatrix._wrap`` makes
the array it is given read-only, and ``_project_l1_rows`` writes its
scratch into the ``_L1Work`` it is given; every other operation here is a
pure function.
"""

from __future__ import annotations

import math

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


def operator_norm(A) -> float:
    """Spectral norm: max |lambda| over the eigenvalues."""
    lam = np.linalg.eigvalsh(as_matrix_array(A))
    return float(max(abs(lam[0]), abs(lam[-1])))


class _L1Work:
    """Scratch for _project_l1_rows(x, work) on an x of one shape: the
    sorted magnitudes, their cumulative sums, the criterion, its mask and
    sign(x), and the 1..n ramp.  The result is never built here, so a
    caller may keep it while it projects again on the same workspace."""

    __slots__ = ("srt", "cumsum", "crit", "mask", "sign", "ramp")

    def __init__(self, shape):
        self.srt, self.cumsum, self.crit, self.sign = (np.empty(shape) for _ in range(4))
        self.mask = np.empty(shape, dtype=bool)
        self.ramp = np.arange(1.0, shape[-1] + 1.0)


def _project_l1_rows(x: np.ndarray, work: _L1Work) -> np.ndarray:
    """Project onto the unit l1 sphere {y : ||y||_1 = 1} along the last axis
    of x: the vector x itself, or every row of the (m, n) array x.

    Points outside the unit l1 ball get the Euclidean ball projection
    (sort-and-threshold on |x| with signs restored; Duchi et al., ICML
    2008), which lands on the sphere; points inside are rescaled to unit l1
    norm.  The zero or a non-finite vector (or row) raises ValueError.

    work is an _L1Work of x's shape; the result is a new array, the
    caller's.  Every reduction runs along the contiguous last axis, so each
    row of a C-contiguous x comes out bit for bit as it would alone.  A
    batch is shrunk whole, and its rows inside the ball are overwritten.  A
    vector's norm is tested as a Python float, which skips the .all() calls
    of the row tests on a numpy scalar, about 2 us each.
    """
    a = np.abs(x)
    norm1 = np.add.reduce(a, -1)
    if x.ndim == 1:
        s = float(norm1)
        if math.isfinite(s) and s != 0.0:
            if s > 1.0:
                return _shrink_rows(x, a, work)
            return np.divide(x, s, out=a)
    elif (np.isfinite(norm1) & (norm1 != 0.0)).all():
        y = _shrink_rows(x, a, work)
        inside = norm1 <= 1.0
        if inside.any():  # rare in the ascent
            np.divide(x, norm1[:, None], out=y, where=inside[:, None])
        return y
    raise ValueError("cannot project the zero (or non-finite) vector")


def _shrink_rows(x: np.ndarray, a: np.ndarray, work: _L1Work) -> np.ndarray:
    """The l1-ball projection along the last axis of x, a = |x|, with every
    temporary in work, an _L1Work of x's shape.

    The result is built in a's buffer, which the caller gives up.  A row
    inside the ball is shrunk too, with a threshold of at most 0 and a
    result of no use, and the caller overwrites it.
    """
    n, srt = x.shape[-1], work.srt
    np.copyto(srt, a)
    srt.sort()
    u = srt[..., ::-1]
    # ufunc methods in place of the cumsum and sum wrappers, about 1 us each
    cumsum = np.add.accumulate(u, -1, out=work.cumsum)
    cumsum -= 1.0
    # the last index where u_k k > cumsum_k - 1 (always true at k = 1)
    rho = n - 1 - np.greater(
        np.multiply(u, work.ramp, out=work.crit), cumsum, out=work.mask)[..., ::-1].argmax(-1)
    # cumsum at rho in each row; a vector's theta and s stay numpy scalars,
    # which a ufunc takes about 0.4 us faster than a one-element column
    if x.ndim == 1:
        theta = cumsum[rho] / (rho + 1.0)
    else:
        theta = (cumsum[np.arange(rho.size), rho] / (rho + 1.0))[:, None]
    np.subtract(a, theta, out=a)
    np.maximum(a, 0.0, out=a)
    # s comes after the sign multiply: a row can end with a negative theta
    # (its pairwise norm above 1, its sorted cumulative sum not), and then
    # a zero entry holds -theta until its sign of 0 clears it
    a *= np.sign(x, out=work.sign)
    s = np.add.reduce(np.abs(a, out=srt), -1)
    # kills the last ulp of threshold roundoff; a row with s = 1 keeps its bits
    a /= s if x.ndim == 1 else s[:, None]
    return a
