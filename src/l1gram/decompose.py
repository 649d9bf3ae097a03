"""Rank-one decompositions A = sum_k x_k x_k^T and their l1 costs.

Two routes: the eigendecomposition (vectors sqrt(lambda_k) v_k) and greedy
peeling, which repeatedly subtracts a_i a_i^T / A_ii for a pivot row i.
Both keep the total cost sum_k ||x_k||_1^2 at or below n * tr(A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import (EigenConvergenceError, NotPositiveSemidefiniteError,
                     SingularPivotError)
from .linalg import GramMatrix, as_matrix_array, entrywise_one_norm, min_eigenvalue
from .rng import Rng

PIVOT_RULE_KINDS = (
    "max_diagonal",
    "min_cost_per_trace",
    "max_trace_removal",
    "fixed_order",
    "random_order",
)


@dataclass(frozen=True)
class PivotRule:
    """Pivot selection strategy for greedy peeling.

    min_cost_per_trace picks the row minimizing ||a_i||_1^2 / ||a_i||_2^2,
    the per-step cost per unit of trace removed; max_trace_removal picks the
    row maximizing ||a_i||_2^2 / A_ii.
    """

    kind: str
    order: Optional[Tuple[int, ...]] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in PIVOT_RULE_KINDS:
            raise ValueError(f"unknown pivot rule {self.kind!r}")
        if self.kind == "fixed_order" and not self.order:
            raise ValueError("fixed_order requires an index sequence")
        if self.kind == "random_order" and self.seed is None:
            raise ValueError("random_order requires a seed")

    @classmethod
    def max_diagonal(cls):
        return cls("max_diagonal")

    @classmethod
    def min_cost_per_trace(cls):
        return cls("min_cost_per_trace")

    @classmethod
    def max_trace_removal(cls):
        return cls("max_trace_removal")

    @classmethod
    def fixed_order(cls, order):
        return cls("fixed_order", order=tuple(int(i) for i in order))

    @classmethod
    def random_order(cls, seed):
        return cls("random_order", seed=int(seed))

    def label(self) -> str:
        if self.kind == "random_order":
            return f"random_order({self.seed})"
        return self.kind


DEFAULT_RULE = PivotRule.min_cost_per_trace()


@dataclass
class Decomposition:
    """Ordered rank-one factors with per-vector l1^2 costs.

    vectors is a (k, n) array whose rows are the x_k; residual_trace is the
    trace left unpeeled when greedy peeling stopped early (0 for complete
    decompositions).
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


def _require_psd(a: np.ndarray, tol_psd: Optional[float]) -> None:
    tol = default_psd_tolerance(a) if tol_psd is None else tol_psd
    lam_min = min_eigenvalue(a)
    if lam_min < -tol:
        raise NotPositiveSemidefiniteError(lam_min, tol)


def eigen_decomposer(A) -> Decomposition:
    """Decompose a PSD matrix through its eigensystem.

    Keeps the factors sqrt(lambda_k) v_k, in descending eigenvalue order, for
    eigenvalues above 1e-12 * max(1, lambda_max); the total cost
    sum lambda_k ||v_k||_1^2 never exceeds n * tr(A).  An eigenvalue below
    -default_psd_tolerance raises NotPositiveSemidefiniteError.
    """
    a = as_matrix_array(A)
    tol = default_psd_tolerance(a)
    try:
        lam, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition failed: {exc}") from exc
    lam, v = lam[::-1], v[:, ::-1]  # descending
    if lam[-1] < -tol:
        raise NotPositiveSemidefiniteError(lam[-1], tol)
    keep = lam > 1e-12 * max(1.0, float(lam[0]))
    vecs = (v[:, keep] * np.sqrt(lam[keep])).T
    if vecs.shape[0] == 0:
        vecs = np.zeros((0, a.shape[0]))
    costs = np.abs(vecs).sum(axis=1) ** 2
    return Decomposition(
        vectors=vecs,
        costs=costs,
        total_cost=float(costs.sum()),
        source="eigen",
    )


def default_pivot_tolerance(a: np.ndarray) -> float:
    return 1e-13 * (1.0 + abs(float(np.trace(a))))


def _peel_pivot(a: np.ndarray, i: int, tol: float,
                tr: float) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """One pivot step of peel_step on ``a``, which it leaves as is.

    Returns (x, a - x x^T) in fresh arrays for a diagonal above ``tol``;
    returns None for an exhausted row within the PSD bound (see
    SingularPivotError); raises otherwise.
    """
    n = a.shape[0]
    d = float(a[i, i])
    row = a[i]
    if d <= tol:
        row_norm = float(np.linalg.norm(row))
        if row_norm <= np.sqrt(max(d, tol) * max(tr, 0.0)) + tol * n:
            return None
        raise SingularPivotError(i, d, row_norm)
    a2 = np.multiply.outer(row, row)
    a2 /= d
    np.subtract(a, a2, out=a2)
    a2[i, :] = 0.0  # exact in theory; clear the roundoff
    a2[:, i] = 0.0
    return row / np.sqrt(d), a2


def peel_step(A, i: int, tol_pivot: Optional[float] = None,
              check_psd: bool = True) -> Tuple[np.ndarray, GramMatrix]:
    """One peeling step: split off a_i a_i^T / A_ii.

    Returns (x, A2) with x = a_i / sqrt(A_ii) and A2 = A - x x^T; row and
    column i of A2 are exactly zero.  A pivot whose diagonal is at most
    ``tol_pivot`` is exhausted when its row satisfies the PSD bound
    ||a_i||_2 <= sqrt(max(A_ii, tol_pivot) * tr A) + tol_pivot * n; then the
    result is (0, A) unchanged.  A longer row raises SingularPivotError.
    """
    a = as_matrix_array(A)
    n = a.shape[0]
    if not 0 <= i < n:
        raise IndexError(f"pivot index {i} out of range for n={n}")
    if check_psd:
        _require_psd(a, None)
    tol = default_pivot_tolerance(a) if tol_pivot is None else tol_pivot
    step = _peel_pivot(a, i, tol, float(np.trace(a)))
    if step is None:
        return np.zeros(n), (A if isinstance(A, GramMatrix) else GramMatrix._wrap(a))
    return step[0], GramMatrix._wrap(step[1])


def per_step_cost_identity_check(A, i: int) -> float:
    """Relative discrepancy of ||x||_1^2 vs (||a_i||_1^2/||a_i||_2^2) * (tr A - tr A2)."""
    a = as_matrix_array(A)
    x, A2 = peel_step(a, i, check_psd=False)
    lhs = np.abs(x).sum() ** 2
    row = a[i]
    l1sq = np.abs(row).sum() ** 2
    l2sq = float(row @ row)
    if l2sq == 0.0:
        return 0.0
    trace_drop = float((np.diag(a) - np.diag(A2.entries)).sum())
    rhs = (l1sq / l2sq) * trace_drop
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


def _select_pivot(a: np.ndarray, rule: PivotRule, active: np.ndarray,
                  order: Optional[Tuple[int, ...]]) -> Optional[int]:
    idx = np.nonzero(active)[0]
    if idx.size == 0:
        return None
    if rule.kind in ("fixed_order", "random_order"):
        for i in order:
            if active[i]:
                return int(i)
        return None
    diag = np.diag(a)[idx]
    if rule.kind == "max_diagonal":
        return int(idx[np.argmax(diag)])
    rows = a[idx]
    l2sq = (rows * rows).sum(axis=1)
    if rule.kind == "max_trace_removal":
        return int(idx[np.argmax(l2sq / diag)])
    l1sq = np.abs(rows).sum(axis=1) ** 2
    return int(idx[np.argmin(l1sq / l2sq)])  # min_cost_per_trace


def greedy_peel(A, rule: PivotRule = DEFAULT_RULE,
                max_steps: Optional[int] = None,
                tol_psd: Optional[float] = None) -> Decomposition:
    """Peel rank-one factors until the residual trace is negligible.

    Each step is one peel_step on the raw residual, so at most n vectors are
    emitted (each step zeroes one row/column); peeling stops once the trace
    left is at most 1e-12 |tr A|.  With tol = default_pivot_tolerance(A), a
    row whose diagonal is at most tol is exhausted and skipped when
    ||a_j||_2 <= sqrt(max(a_jj, tol) * tr) + tol * n, tr being the trace left
    at that step; a longer row cannot belong to a PSD residual and raises
    SingularPivotError.
    """
    a = as_matrix_array(A)
    n = a.shape[0]
    _require_psd(a, tol_psd)
    tol = default_pivot_tolerance(a)
    tr0 = float(np.trace(a))
    stop_at = 1e-12 * abs(tr0)
    cap = n if max_steps is None else max(0, min(max_steps, n))

    order = None
    if rule.kind == "fixed_order":
        order = rule.order
        if len(set(order)) != len(order) or any(not 0 <= i < n for i in order):
            raise ValueError("fixed_order must be a sequence of distinct in-range indices")
    elif rule.kind == "random_order":
        order = tuple(Rng(rule.seed).permutation(n).tolist())

    vectors = []
    costs = []
    pivots = []
    used = np.zeros(n, dtype=bool)
    for _ in range(cap):
        tr = float(np.trace(a))
        if tr <= stop_at:
            break
        # exhausted diagonals are skipped, or raise if their row is too long
        for j in np.nonzero(~used & (np.diag(a) <= tol))[0]:
            _peel_pivot(a, j, tol, tr)
            used[j] = True
        i = _select_pivot(a, rule, ~used, order)
        if i is None:
            break
        x, A2 = peel_step(a, i, tol_pivot=tol, check_psd=False)
        a = A2.entries
        vectors.append(x)
        costs.append(np.abs(x).sum() ** 2)
        pivots.append(i)
        used[i] = True

    vecs = np.array(vectors) if vectors else np.zeros((0, n))
    costs = np.asarray(costs, dtype=np.float64)
    return Decomposition(
        vectors=vecs,
        costs=costs,
        total_cost=float(costs.sum()),
        source=f"peel({rule.label()})",
        pivots=tuple(pivots),
        residual_trace=max(float(np.trace(a)), 0.0),
    )


def validate(dec: Decomposition, A, tol_rec: float = 1e-9) -> ValidationReport:
    """Check reconstruction, cost bookkeeping and the n*tr(A) bound."""
    if not (math.isfinite(tol_rec) and tol_rec >= 0.0):
        raise ValueError(f"tol_rec must be finite and >= 0, got {tol_rec!r}")
    a = as_matrix_array(A)
    n = a.shape[0]
    messages = []
    if dec.n != n:
        raise ValueError(f"decomposition is for n={dec.n}, matrix has n={n}")

    err = float(np.abs(dec.reconstruct() - a).max()) if n else 0.0
    allowance = tol_rec * (1.0 + entrywise_one_norm(a)) + dec.residual_trace
    rec_ok = err <= allowance
    if not rec_ok:
        messages.append(
            f"reconstruction error {err:.3e} exceeds allowance {allowance:.3e}"
        )

    recomputed = np.abs(dec.vectors).sum(axis=1) ** 2 if dec.k else np.zeros(0)
    scale = max(1.0, abs(dec.total_cost))
    cost_disc = max(
        float(np.abs(recomputed - dec.costs).max()) if dec.k else 0.0,
        abs(float(recomputed.sum()) - dec.total_cost),
    ) / scale
    cost_ok = cost_disc <= 1e-12
    if not cost_ok:
        messages.append(f"cost bookkeeping off by {cost_disc:.3e} (relative)")

    margin = n * float(np.trace(a)) - dec.total_cost
    bound_ok = margin >= -1e-8 * max(1.0, abs(n * float(np.trace(a))))
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
