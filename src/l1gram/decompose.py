"""Rank-one decompositions A = sum_k x_k x_k^T and their l1 costs.

Two routes: the eigendecomposition (vectors sqrt(lambda_k) v_k) and greedy
peeling, which repeatedly subtracts a_i a_i^T / A_ii for a pivot row i.
Both keep the total cost sum_k ||x_k||_1^2 at or below n * tr(A) up to
roundoff (peel on [[3]] costs 3.0000000000000004); validate allows an
excess of 1e-8 * max(1, n * tr(A)).

Greedy peeling works on the residual's live block, the rows and columns
not yet peeled (a peeled row and column are exactly zero), as pivoted
Cholesky works on its trailing block.  Every step validates, updates and
sums over the block alone; the pivot criteria's row sums are taken on
every row of the block in place, and only the active rows' criteria are
compared.  The block drops its peeled rows once a quarter of its rows
have been peeled since it last did.  Factor k is written into row k of one
zeroed (n, n) array, at the block's rows.

Peeling first requires a PSD input.  A Cholesky factorization of
A + (tol/2) I certifies it; only where that fails does eigvalsh decide,
against -tol, so both give the same verdict (see _require_psd).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import NotPositiveSemidefiniteError, SingularPivotError
from .linalg import GramMatrix, as_matrix_array
from .rng import Rng

PIVOT_RULE_KINDS = (
    "min_cost_per_trace",
    "max_diagonal",
    "max_trace_removal",
    "random_order",
)


@dataclass(frozen=True)
class PivotRule:
    """Pivot selection strategy for greedy peeling.

    kind is one of PIVOT_RULE_KINDS, which are also the choices of
    decompose --pivot.  min_cost_per_trace picks the row minimizing
    ||a_i||_1^2 / ||a_i||_2^2, the per-step cost per unit of trace removed;
    max_diagonal the row with the largest A_ii; max_trace_removal the row
    maximizing ||a_i||_2^2 / A_ii.  Those three are built as PivotRule(kind).
    random_order, built by PivotRule.random_order(seed), walks a permutation
    of the rows drawn from Rng(seed).
    """

    kind: str
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in PIVOT_RULE_KINDS:
            raise ValueError(f"unknown pivot rule {self.kind!r}")
        if self.kind == "random_order" and self.seed is None:
            raise ValueError("random_order requires a seed")

    @classmethod
    def random_order(cls, seed):
        return cls("random_order", seed=int(seed))

    def label(self) -> str:
        if self.kind == "random_order":
            return f"random_order({self.seed})"
        return self.kind


DEFAULT_RULE = PivotRule("min_cost_per_trace")

# greedy_peel drops the peeled rows from its live block once 1/_COMPACT_EVERY
# of the block's rows have been peeled since it last did
_COMPACT_EVERY = 4

_TOL_REC = 1e-9


@dataclass
class Decomposition:
    """Ordered rank-one factors with per-vector l1^2 costs.

    vectors is a (k, n) array whose rows are the x_k; residual_trace is the
    trace greedy peeling left when it stopped (0 for the eigen route).
    """

    vectors: np.ndarray
    costs: np.ndarray
    total_cost: float
    source: str
    pivots: Optional[Tuple[int, ...]] = None
    residual_trace: float = 0.0

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    def reconstruct(self) -> np.ndarray:
        return self.vectors.T @ self.vectors


@dataclass
class ValidationReport:
    reconstruction_error: float
    reconstruction_allowance: float
    reconstruction_ok: bool
    cost_discrepancy: float
    cost_ok: bool
    bound_margin: float  # n * tr(A) - total_cost
    bound_ok: bool
    messages: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.reconstruction_ok and self.cost_ok and self.bound_ok


def default_psd_tolerance(a: np.ndarray) -> float:
    return 1e-8 * (1.0 + abs(float(np.trace(a))))


def _require_psd(a: np.ndarray) -> None:
    """Raise unless a, a validated (exactly symmetric) array, is PSD.

    The rule is eigvalsh's: with tol = default_psd_tolerance(a), raise
    NotPositiveSemidefiniteError when the computed lambda_min is below
    -tol.  A Cholesky factorization of a + (tol/2) I decides first, and
    only where it fails does eigvalsh run and supply lambda_min.  That
    gate accepts nothing the rule would reject.  Let B = fl(a + s I) with
    s = tol/2.  If the computed Cholesky factor R of B exists, then
    B + dB = R^T R with ||dB||_2 <= gamma_{n+1} ||R||_F^2 <=
    gamma_{n+1} tr B / (1 - gamma_{n+1}) (Higham, Accuracy and Stability
    of Numerical Algorithms, Thm 10.3), so lambda_min(a) >= -s -
    O(n eps (tr a + n s)).  eigvalsh's lambda_min is within
    O(n eps ||a||_2) of the true one.  At n = 400 both terms are about
    1e-13 tr a, against s = 5e-9 (1 + |tr a|).
    """
    tol = default_psd_tolerance(a)
    shifted = a.copy()
    shifted.flat[:: a.shape[0] + 1] += tol / 2
    try:
        np.linalg.cholesky(shifted)
        return
    except np.linalg.LinAlgError:
        pass  # not certified: eigvalsh decides
    lam_min = float(np.linalg.eigvalsh(a)[0])
    if lam_min < -tol:
        raise NotPositiveSemidefiniteError(lam_min, tol)


def eigen_decomposer(A) -> Decomposition:
    """Decompose a PSD matrix through its eigensystem.

    Keeps the factors sqrt(lambda_k) v_k, in descending eigenvalue order, for
    eigenvalues above 1e-12 * max(1, lambda_max); the total cost
    sum lambda_k ||v_k||_1^2 stays at or below n * tr(A) up to roundoff (the
    all-ones n = 7 matrix costs 49.00000000000003), within validate's
    allowance of 1e-8 * max(1, n * tr(A)).  An eigenvalue below
    -default_psd_tolerance raises NotPositiveSemidefiniteError.  eigh's
    bytes change with the OpenBLAS thread count (n = 400: one against two).
    """
    a = as_matrix_array(A)
    tol = default_psd_tolerance(a)
    lam, v = np.linalg.eigh(a)
    lam, v = lam[::-1], v[:, ::-1]  # descending
    if lam[-1] < -tol:
        raise NotPositiveSemidefiniteError(lam[-1], tol)
    keep = lam > 1e-12 * max(1.0, float(lam[0]))
    vecs = (v[:, keep] * np.sqrt(lam[keep])).T
    costs = np.abs(vecs).sum(axis=1) ** 2
    return Decomposition(
        vectors=vecs,
        costs=costs,
        total_cost=float(costs.sum()),
        source="eigen",
    )


def default_pivot_tolerance(a: np.ndarray) -> float:
    return 1e-13 * (1.0 + abs(float(np.trace(a))))


def _check_exhausted(row: np.ndarray, d: float, tol: float, tr: float,
                     n: int, index: int) -> None:
    """Raise SingularPivotError unless the row of an exhausted pivot (its
    diagonal d at most ``tol``) satisfies the PSD bound; n is the order of
    the matrix the row was taken from."""
    row_norm = float(np.linalg.norm(row))
    if not row_norm <= np.sqrt(max(d, tol) * max(tr, 0.0)) + tol * n:
        raise SingularPivotError(index, d, row_norm)


def peel_step(A, i: int) -> Tuple[np.ndarray, GramMatrix]:
    """One peeling step: split off a_i a_i^T / A_ii.

    A must be PSD; peel_step does not check it, since greedy_peel gates A
    once (_require_psd) and every residual of a PSD A is PSD.  It checks
    that A is square, symmetric and finite and that i indexes a row.
    Returns (x, A2) with x = a_i / sqrt(A_ii) and A2 = A - x x^T; row and
    column i of A2 are exactly zero.  With tol = default_pivot_tolerance(A),
    a pivot whose diagonal is at most tol is exhausted when its row
    satisfies the PSD bound ||a_i||_2 <= sqrt(max(A_ii, tol) * tr A) +
    tol * n; then the result is (0, A) unchanged.  A longer row raises
    SingularPivotError.
    """
    a = as_matrix_array(A)
    n = a.shape[0]
    if not 0 <= i < n:
        raise IndexError(f"pivot index {i} out of range for n={n}")
    tol = default_pivot_tolerance(a)
    d = float(a[i, i])
    if d <= tol:
        _check_exhausted(a[i], d, tol, float(np.trace(a)), n, i)
        return np.zeros(n), GramMatrix._wrap(a)
    row = a[i]
    a2 = np.multiply.outer(row, row)
    a2 /= d
    np.subtract(a, a2, out=a2)
    a2[i, :] = 0.0  # exact in theory; clear the roundoff
    a2[:, i] = 0.0
    return row / np.sqrt(d), GramMatrix._wrap(a2)


def _select_pivot(a: np.ndarray, rule: PivotRule,
                  active: np.ndarray) -> Optional[int]:
    """The block position of the next pivot among the active rows of the
    live block ``a``, or None when no row is active.

    The row sums are taken on every row of the block in place, over C-ordered
    squares whatever the layout of ``a``, so each row is summed as a gathered
    copy would be; only the active rows' sums are then divided and compared.
    Ties go to the lowest active position, and an active criterion that
    overflowed to NaN wins first.
    """
    idx = np.flatnonzero(active)
    if idx.size == 0:
        return None
    diag = np.diagonal(a)
    if rule.kind == "max_diagonal":
        return int(idx[np.argmax(diag[idx])])
    sq = np.multiply(a, a, order="C")
    l2sq = sq.sum(axis=1)
    if rule.kind == "max_trace_removal":
        return int(idx[np.argmax(l2sq[idx] / diag[idx])])
    l1sq = np.abs(a, out=sq).sum(axis=1) ** 2  # min_cost_per_trace
    return int(idx[np.argmin(l1sq[idx] / l2sq[idx])])


def greedy_peel(A, rule: PivotRule = DEFAULT_RULE) -> Decomposition:
    """Peel rank-one factors until the residual trace is negligible.

    An eigenvalue of A below -default_psd_tolerance(A) raises
    NotPositiveSemidefiniteError; a Cholesky factorization of the shifted
    A certifies the rest without eigvalsh (_require_psd).  That is the only
    PSD check: each step is one peel_step, which checks no PSD itself, on
    the live block of the residual: the rows and columns
    not yet peeled, exhausted rows included, whose entries enter later
    steps.  The block drops its peeled rows once a quarter of its rows
    have been peeled since it last did, so a step validates and updates
    m x m entries for m live rows.  The trace, the pivot criteria and an
    exhausted row's norm are summed over the block, in which a peeled
    position not yet dropped is an exact zero.  The criteria's row sums
    are taken on every row of the block, and the pivot is chosen among
    the active (not peeled, not exhausted) rows alone.  Factor k is
    written into row k of one zeroed (n, n) array, at the live rows, and
    its cost is summed over that row.
    At most n vectors are emitted (each step zeroes one row/column);
    peeling stops once the trace left is at most 1e-12 |tr A| or every
    row is used.  With tol = default_pivot_tolerance(A), a row whose
    diagonal is at most tol is exhausted and skipped when ||a_j||_2 <=
    sqrt(max(a_jj, tol) * tr) + tol * n, tr being the trace left at that
    step; a longer row cannot belong to a PSD residual and raises
    SingularPivotError, which names its index in A.
    """
    a = as_matrix_array(A)
    n = a.shape[0]
    _require_psd(a)
    tol = default_pivot_tolerance(a)
    stop_at = 1e-12 * abs(float(np.trace(a)))

    order = None
    if rule.kind == "random_order":
        order = iter(Rng(rule.seed).permutation(n).tolist())

    vecs = np.zeros((n, n))  # row k is factor k; never-written entries stay 0
    costs = []
    pivots = []
    live = np.arange(n)  # block position -> row of A, ascending
    used = np.zeros(n, dtype=bool)  # peeled or exhausted, by row of A
    peeled = []  # block positions peeled since the block last shrank
    for _ in range(n):
        if _COMPACT_EVERY * len(peeled) >= live.size:
            keep = np.delete(np.arange(live.size), peeled)
            a = a[np.ix_(keep, keep)]
            live = live[keep]
            peeled = []
        tr = float(np.trace(a))
        if tr <= stop_at:
            break
        active = ~used[live]
        # exhausted diagonals are skipped, or raise if their row is too long
        for j in np.flatnonzero(active & (np.diagonal(a) <= tol)):
            _check_exhausted(a[j], float(a[j, j]), tol, tr, n, live[j])
            active[j] = False
            used[live[j]] = True
        if order is None:
            j = _select_pivot(a, rule, active)
        else:
            i = next((i for i in order if not used[i]), None)
            j = None if i is None else int(np.searchsorted(live, i))
        if j is None:
            break
        x, A2 = peel_step(a, j)
        a = A2.entries
        k = len(pivots)
        vecs[k, live] = x
        costs.append(np.abs(vecs[k]).sum() ** 2)
        pivots.append(int(live[j]))
        used[live[j]] = True
        peeled.append(j)

    costs = np.asarray(costs, dtype=np.float64)
    return Decomposition(
        vectors=vecs[:len(pivots)],
        costs=costs,
        total_cost=float(costs.sum()),
        source=f"peel({rule.label()})",
        pivots=tuple(pivots),
        residual_trace=max(float(np.trace(a)), 0.0),
    )


def validate(dec: Decomposition, A) -> ValidationReport:
    """Check reconstruction (max error <= _TOL_REC (1 + ||A||_1) plus the
    residual trace, _TOL_REC = 1e-9), cost bookkeeping and the n*tr(A) bound."""
    a = as_matrix_array(A)
    n = a.shape[0]
    messages = []
    if dec.n != n:
        raise ValueError(f"decomposition is for n={dec.n}, matrix has n={n}")

    err = float(np.abs(dec.reconstruct() - a).max())
    allowance = _TOL_REC * (1.0 + float(np.abs(a).sum())) + dec.residual_trace
    rec_ok = err <= allowance
    if not rec_ok:
        messages.append(
            f"reconstruction error {err:.3e} exceeds allowance {allowance:.3e}"
        )

    recomputed = np.abs(dec.vectors).sum(axis=1) ** 2
    scale = max(1.0, abs(dec.total_cost))
    cost_disc = max(
        float(np.abs(recomputed - dec.costs).max(initial=0.0)),
        abs(float(recomputed.sum()) - dec.total_cost),
    ) / scale
    cost_ok = cost_disc <= 1e-12
    if not cost_ok:
        messages.append(f"cost bookkeeping off by {cost_disc:.3e} (relative)")

    n_tr = n * float(np.trace(a))
    margin = n_tr - dec.total_cost
    bound_ok = margin >= -1e-8 * max(1.0, abs(n_tr))
    if not bound_ok:
        messages.append(f"total cost exceeds n*tr(A) by {-margin:.3e}")

    return ValidationReport(
        reconstruction_error=err,
        reconstruction_allowance=allowance,
        reconstruction_ok=rec_ok,
        cost_discrepancy=cost_disc,
        cost_ok=cost_ok,
        bound_margin=margin,
        bound_ok=bound_ok,
        messages=tuple(messages),
    )
