"""Exception types shared across the package.

LAPACK failures are not wrapped: numpy's LinAlgError propagates from every
eigen or solve call, and the command line maps it to exit 3.
"""


class L1GramError(Exception):
    """Base class for all package errors."""


class AsymmetricMatrixError(L1GramError):
    """Input matrix is not symmetric within the admission tolerance."""

    def __init__(self, max_asymmetry, tolerance):
        self.max_asymmetry = float(max_asymmetry)
        self.tolerance = float(tolerance)
        super().__init__(
            f"matrix is not symmetric: max |A - A^T| = {self.max_asymmetry:.3e} "
            f"exceeds tolerance {self.tolerance:.3e}"
        )


class NotPositiveSemidefiniteError(L1GramError):
    """A positive semidefinite matrix was required."""

    def __init__(self, lambda_min, tolerance):
        self.lambda_min = float(lambda_min)
        self.tolerance = float(tolerance)
        super().__init__(
            f"matrix is not positive semidefinite: lambda_min = {self.lambda_min:.6e} "
            f"< -{self.tolerance:.3e}"
        )


class SingularPivotError(L1GramError):
    """A peeling pivot had a (near-)zero diagonal but a row too long for it.

    In a PSD matrix |A_ij|^2 <= A_ii A_jj, so ||a_i||_2 <= sqrt(A_ii tr A).
    A row whose diagonal is at most the pivot tolerance tol is exhausted
    while ||a_i||_2 <= sqrt(max(A_ii, tol) tr A) + tol n; a longer row
    signals corrupted or non-PSD input.
    """

    def __init__(self, index, diagonal, row_norm):
        self.index = int(index)
        self.diagonal = float(diagonal)
        self.row_norm = float(row_norm)
        super().__init__(
            f"pivot {self.index}: diagonal {self.diagonal:.3e} is negligible but "
            f"row norm {self.row_norm:.3e} is not; input cannot be PSD"
        )


class ParseError(L1GramError):
    """A matrix text file failed to parse."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = int(line)
        super().__init__(f"{self.path}:{self.line}: {message}")
