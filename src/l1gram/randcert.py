"""Random matrix ensembles and spectral statistics.

Samples hollow Rademacher matrices W (symmetric, +-1 off the diagonal, zero
diagonal) and the shifted family T = -(sqrt(n)/4) I + W, measures extreme
eigenvalues, and takes the largest spectral norm over the principal
submatrices of one size, either exhaustively or by Monte Carlo subset
sampling (the scan behind certify_ratio's structured mode and the lemmas
suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Optional

import numpy as np

from .linalg import GramMatrix, as_matrix_array
from .rng import Rng

EXHAUSTIVE_SUBSET_CAP = 10**6
_STACK_CAP = 1 << 17  # float64 block entries per stacked eigvalsh or solve call


def sample_W(n: int, rng: Rng) -> GramMatrix:
    """Hollow symmetric +-1 matrix, deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = np.zeros((n, n))
    if n > 1:
        iu = np.triu_indices(n, 1)
        vals = rng.rademacher(iu[0].size)
        a[iu] = vals
        a.T[iu] = vals
    return GramMatrix._wrap(a)


def shift_to_T(W) -> GramMatrix:
    """Attach the -(sqrt(n)/4) diagonal to a hollow matrix."""
    w = as_matrix_array(W)
    n = w.shape[0]
    a = w - (math.sqrt(n) / 4.0) * np.eye(n)
    return GramMatrix._wrap(a)


def build_T(n: int, rng: Rng) -> GramMatrix:
    """Sample W and shift: diagonal -(sqrt(n)/4), off-diagonal +-1."""
    return shift_to_T(sample_W(n, rng))


def sample_wishart(n: int, rng: Rng, p: Optional[int] = None) -> GramMatrix:
    """G G^T for an n x p standard normal G (PSD, full rank a.s. for p >= n).

    G G^T goes through BLAS: for some shapes (n = 150, p = 75) its bytes
    change with the OpenBLAS thread count.
    """
    p = n if p is None else p
    g = rng.normal(n * p).reshape(n, p)
    a = g @ g.T
    return GramMatrix._wrap((a + a.T) / 2.0)


def make_ensemble(kind: str, n: int, seed: int) -> GramMatrix:
    """One n x n draw of an ensemble, deterministic per seed.

    kind is one of wishart (n columns), circulant (unit diagonal and
    eps = 1/(2n) on the two wrapped off-diagonals), all_ones, or diagonal
    (entries 1 + U[0, 1)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "wishart":
        return sample_wishart(n, Rng(seed))
    if kind == "circulant":
        eps = 1.0 / (2.0 * n)
        a = np.eye(n)
        if n > 1:
            idx = np.arange(n)
            a[idx, (idx + 1) % n] += eps
            a[(idx + 1) % n, idx] += eps
        return GramMatrix._wrap(a)
    if kind == "all_ones":
        return GramMatrix._wrap(np.ones((n, n)))
    if kind == "diagonal":
        return GramMatrix._wrap(np.diag(1.0 + Rng(seed).uniform(n)))
    raise ValueError(f"unknown ensemble {kind!r}")


@dataclass
class BaiYinSummary:
    """Sample statistics of lambda_max(W) / sqrt(n)."""

    n: int
    trials: int
    mean: float
    min: float
    max: float


def bai_yin_stat(n: int, trials: int, rng: Rng) -> BaiYinSummary:
    """Top-eigenvalue statistics over fresh W draws (one child seed each)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    vals = np.empty(trials)
    root = math.sqrt(n)
    for t in range(trials):
        w = sample_W(n, rng.child(t))
        vals[t] = np.linalg.eigvalsh(w.entries)[-1] / root
    return BaiYinSummary(
        n=n, trials=trials,
        mean=float(vals.mean()), min=float(vals.min()), max=float(vals.max()),
    )


@dataclass
class SubsetNormEstimate:
    """Max spectral norm over size-k principal submatrices.

    Exhaustive mode scans all C(n, k) subsets and is the true maximum over
    subsets of size <= k (the norm is monotone under taking supersets);
    monte_carlo is a lower estimate from sampled subsets.
    """

    k: int
    mode: str  # "exhaustive" | "monte_carlo"
    samples: Optional[int]
    value: float
    normalized: float


def _max_norm_of_subsets(a: np.ndarray, subsets, k: int) -> float:
    """Max spectral norm of the principal submatrices a[S, S] over the size-k
    index rows S that `subsets` yields, one stacked eigvalsh call per chunk."""
    rows = max(1, _STACK_CAP // (k * k))
    best = 0.0
    while True:
        idx = np.fromiter(islice(subsets, rows), dtype=(np.intp, k))
        if idx.shape[0] == 0:
            return best
        lam = np.linalg.eigvalsh(a[idx[:, :, None], idx[:, None, :]])
        best = max(best, float(np.abs(lam[:, [0, -1]]).max()))


def _exhaustive_norm(a: np.ndarray, k: int) -> float:
    n = a.shape[0]
    if k == 2:
        # closed-form 2x2 symmetric spectral norm over all index pairs
        iu, ju = np.triu_indices(n, 1)
        mid = (a[iu, iu] + a[ju, ju]) / 2.0
        rad = np.sqrt(((a[iu, iu] - a[ju, ju]) / 2.0) ** 2 + a[iu, ju] ** 2)
        return float((np.abs(mid) + rad).max())
    return _max_norm_of_subsets(a, combinations(range(n), k), k)


def max_restricted_norm(W, k: int, mode: str = "auto",
                        samples: int = 1000,
                        rng: Optional[Rng] = None) -> SubsetNormEstimate:
    """Max ||W_S|| over principal submatrices with |S| = k."""
    a = as_matrix_array(W)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    n_subsets = math.comb(n, k)
    if mode == "auto":
        mode = "exhaustive" if (k <= 2 or n_subsets <= EXHAUSTIVE_SUBSET_CAP) \
            else "monte_carlo"
    if mode == "exhaustive":
        if k > 2 and n_subsets > EXHAUSTIVE_SUBSET_CAP:
            raise ValueError(
                f"C({n},{k}) = {n_subsets} subsets exceeds the exhaustive cap "
                f"{EXHAUSTIVE_SUBSET_CAP}; use monte_carlo mode"
            )
        best = _exhaustive_norm(a, k)
        return SubsetNormEstimate(k, "exhaustive", None, best, best / math.sqrt(n))
    if mode != "monte_carlo":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        raise ValueError("monte_carlo mode requires an rng")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    best = _max_norm_of_subsets(a, iter(rng.subsets(n, k, samples)), k)
    return SubsetNormEstimate(k, "monte_carlo", samples, best, best / math.sqrt(n))


def tail_bound_curve(alpha: float, n: int) -> float:
    """Failure-probability bound 4 exp(-alpha log(1/alpha) n) for the
    restricted-norm event; vacuous (-> 4) as alpha -> 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return 4.0 * math.exp(-alpha * math.log(1.0 / alpha) * n)
