"""Plain-text matrix files and decomposition exports.

Matrix format: the first non-blank line is n, then n non-blank lines of n
scalars.  The file is ASCII; lines end in \\n, \\r\\n or \\r; a line of
only spaces and tabs is blank; tokens are separated by runs of spaces or
tabs; a scalar is a decimal or scientific number (what ``float`` reads,
without underscores) and must be finite.  The writer emits 17 significant
digits so float64 round-trips exactly.
"""

from __future__ import annotations

import re
import warnings

import numpy as np

from .decompose import Decomposition
from .errors import ParseError
from .linalg import GramMatrix, as_matrix_array

_BLANK = " \t\n"
_SEPARATOR = re.compile("[ \t]+")
_DIMENSION = re.compile("[+-]?[0-9]+")
_SCALAR = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                     r"|inf|infinity|nan)", re.IGNORECASE)
# ASCII characters that numpy's tokenizer takes for separators but the
# format does not (\r never reaches it: text mode turns it into \n)
_FOREIGN_SPACE = "\v\f\x1c\x1d\x1e\x1f"


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _row_format(n: int) -> str:
    """``%`` format of one row of n values; ``'%.17g' % x`` writes the same
    bytes as ``_fmt(x)``."""
    return " ".join(["%.17g"] * n)


def _open_text(path):
    """Open a matrix file so that every byte decodes: a byte above 0x7f
    becomes a lone surrogate, which the checks below reject at its line."""
    return open(path, "r", encoding="ascii", errors="surrogateescape")


def _require_ascii(path, no: int, line: str) -> None:
    if not line.isascii():
        byte = next(ord(c) for c in line if not c.isascii()) - 0xDC00
        raise ParseError(path, no, f"non-ASCII byte 0x{byte:02x}")


def _checked_lines(fh):
    """The lines of fh, refusing any the format rejects but numpy's
    tokenizer would read."""
    for line in fh:
        if not line.isascii() or any(c in line for c in _FOREIGN_SPACE):
            raise ValueError("character outside the format")
        yield line


def _read_header(path, fh) -> int:
    for no, line in enumerate(fh, start=1):
        header = line.strip(_BLANK)
        if header:
            break
    else:
        raise ParseError(path, 1, "empty file")
    _require_ascii(path, no, header)
    if not _DIMENSION.fullmatch(header):
        raise ParseError(path, no, f"expected the dimension n, got {header!r}")
    n = int(header)
    if n < 1:
        raise ParseError(path, no, f"dimension must be positive, got {n}")
    return n


def _parse_lines(path, n: int) -> np.ndarray:
    """Parse the body line by line, raising a ParseError at the first line
    that breaks the format.  load_matrix calls it only when the bulk parse
    fails, to name that line."""
    with _open_text(path) as fh:
        body = [(no, line) for no, line in enumerate(fh, start=1)
                if line.strip(_BLANK)]
    if len(body) - 1 < n:
        last = body[-1][0]
        raise ParseError(path, last, f"expected {n} rows, found {len(body) - 1}")
    if len(body) - 1 > n:
        no_extra = body[n + 1][0]
        raise ParseError(path, no_extra, f"unexpected content after {n} rows")
    a = np.empty((n, n))
    for r, (no, line) in enumerate(body[1:]):
        _require_ascii(path, no, line)
        tokens = _SEPARATOR.split(line.strip(_BLANK))
        if len(tokens) != n:
            raise ParseError(path, no, f"expected {n} values, found {len(tokens)}")
        for t in tokens:
            if not _SCALAR.fullmatch(t):
                raise ParseError(
                    path, no, f"bad scalar: could not convert string to float: {t!r}")
        a[r] = [float(t) for t in tokens]
    finite = np.isfinite(a).all(axis=1)
    if not finite.all():
        no = body[1 + int(np.argmin(finite))][0]
        raise ParseError(path, no, "matrix entries must be finite")
    return a


def load_matrix(path) -> GramMatrix:
    """Parse a matrix file; symmetry is validated by GramMatrix."""
    with _open_text(path) as fh:
        n = _read_header(path, fh)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # empty body
                a = np.loadtxt(_checked_lines(fh), dtype=np.float64,
                               comments=None, ndmin=2)
        except ValueError:
            a = None
    if a is None or a.shape != (n, n) or not np.isfinite(a).all():
        a = _parse_lines(path, n)
    return GramMatrix(a)


def save_matrix(path, A) -> None:
    a = as_matrix_array(A)
    row = _row_format(a.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{a.shape[0]}\n")
        for values in a:
            fh.write(row % tuple(values.tolist()))


def save_decomposition(path, dec: Decomposition) -> None:
    """Header: n k total_cost source; then one line per vector:
    index cost entry_1 ... entry_n."""
    row = _row_format(dec.n)
    with open(path, "w") as fh:
        fh.write(f"{dec.n} {dec.k} {_fmt(dec.total_cost)} {dec.source}\n")
        for i in range(dec.k):
            entries = row % tuple(dec.vectors[i].tolist())
            fh.write(f"{i} {_fmt(dec.costs[i])} {entries}\n")
