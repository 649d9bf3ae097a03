"""Plain-text matrix files, decomposition exports and the report dicts
of the bounds JSON.

Matrix format: first line is n, then n lines of n decimal scalars separated
by single spaces.  The parser accepts scientific notation and any run of
whitespace; the writer emits 17 significant digits so float64 round-trips
exactly.
"""

from __future__ import annotations

import numpy as np

from .bounds import BoundReport
from .decompose import Decomposition
from .errors import ParseError
from .linalg import GramMatrix, as_matrix_array


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def load_matrix(path) -> GramMatrix:
    """Parse a matrix file; symmetry is validated by GramMatrix."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    body = [(no, line) for no, line in enumerate(lines, start=1) if line.strip()]
    if not body:
        raise ParseError(path, 1, "empty file")
    no, header = body[0]
    try:
        n = int(header.strip())
    except ValueError:
        raise ParseError(path, no, f"expected the dimension n, got {header.strip()!r}")
    if n < 1:
        raise ParseError(path, no, f"dimension must be positive, got {n}")
    if len(body) - 1 < n:
        last = body[-1][0]
        raise ParseError(path, last, f"expected {n} rows, found {len(body) - 1}")
    if len(body) - 1 > n:
        no_extra = body[n + 1][0]
        raise ParseError(path, no_extra, f"unexpected content after {n} rows")
    a = np.empty((n, n))
    for r in range(n):
        no, line = body[r + 1]
        tokens = line.split()
        if len(tokens) != n:
            raise ParseError(path, no, f"expected {n} values, found {len(tokens)}")
        try:
            a[r] = [float(t) for t in tokens]
        except ValueError as exc:
            raise ParseError(path, no, f"bad scalar: {exc}")
    return GramMatrix(a)


def save_matrix(path, A) -> None:
    a = as_matrix_array(A)
    with open(path, "w") as fh:
        fh.write(f"{a.shape[0]}\n")
        for row in a:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def save_decomposition(path, dec: Decomposition) -> None:
    """Header: n k total_cost source; then one line per vector:
    index cost entry_1 ... entry_n."""
    with open(path, "w") as fh:
        fh.write(f"{dec.n} {dec.k} {_fmt(dec.total_cost)} {dec.source}\n")
        for i in range(dec.k):
            entries = " ".join(_fmt(v) for v in dec.vectors[i])
            fh.write(f"{i} {_fmt(dec.costs[i])} {entries}\n")


def report_to_dict(report: BoundReport) -> dict:
    return {
        "quantity": report.quantity,
        "lower": report.lower,
        "upper": report.upper,
        "method": report.method,
        "certificate": report.certificate,
        "witness_path": None,  # kept so the bounds JSON bytes stay stable
    }
