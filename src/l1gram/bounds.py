"""Bounds for the extremal trace and quadratic-form quantities.

For a symmetric T this module computes

* rho1(T)  = sup { <Tx, x> : ||x||_1 <= 1 }   (nonconvex quadratic max),
* piplus(T) = sup { Tr(TA) : A PSD, ||A||_1 <= 1 }   (convex program),

with exact enumeration, heuristic ascent, explicit feasible witnesses and a
certified dual upper bound, plus the ratio piplus/rho1 that lower-bounds the
worst-case decomposition-cost constant.  Since the l1 ball contains 0, both
quantities are reported with a floor at 0.

Everything is real-valued; rho1 over complex vectors can in principle exceed
the real value and is out of scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    GramMatrix,
    _project_l1_rows,
    as_matrix_array,
    max_eigenvalue,
    operator_norm,
    project_l1_sphere,
)
from .randcert import _STACK_CAP, estimate_kappa_for, sample_W, shift_to_T
from .rng import Rng

CERTIFICATE_RANK = {"exact": 2, "certified_bound": 1, "heuristic": 0}

# The worst case for rho1_exact is a matrix on which nothing prunes (zero,
# or -I + W): all (3^n - 1)/2 stationarity systems, 265,720 at n = 12,
# about 0.35-0.65 s warm on one core (1.4-1.5 s at n = 13, 4.5-4.9 s at 14)
DEFAULT_N_CAP = 12

EPS = np.finfo(np.float64).eps


def weaker_certificate(*certs: str) -> str:
    return min(certs, key=lambda c: CERTIFICATE_RANK[c])


@dataclass
class BoundReport:
    """Lower/upper values for one quantity with a certificate status.

    quantity is one of rho1 | piplus | ratio; certificate is
    exact | certified_bound | heuristic.  witness optionally carries the
    vector or matrix achieving the reported bound.
    """

    quantity: str
    lower: Optional[float]
    upper: Optional[float]
    method: str
    certificate: str
    witness: object = None

    def __post_init__(self):
        if self.certificate not in CERTIFICATE_RANK:
            raise ValueError(f"unknown certificate {self.certificate!r}")
        if self.lower is not None and self.upper is not None:
            if self.lower > self.upper + 1e-9:
                raise ValueError(
                    f"inconsistent report: lower {self.lower} > upper {self.upper}"
                )
            if self.certificate == "exact":
                if self.upper - self.lower > 1e-6 * max(1.0, abs(self.upper)):
                    raise ValueError("exact certificate requires matching bounds")


def rho1_exact(T, n_cap: int = DEFAULT_N_CAP) -> BoundReport:
    """Exact rho1 by enumerating the sign/support patterns that can hold it.

    Within a pattern (support P, signs s with s_1 = +1, D = diag(s),
    M = D T_PP D) the problem is a quadratic maximum over the simplex,
    attained at the interior stationary point of some face (a vertex is a
    face), so the best candidate over all faces is the exact value (floored
    at 0).  Along e_i - e_j the objective's second derivative is
    2(M_ii + M_jj - 2 M_ij); where it is positive, an end of the segment,
    on a smaller face, beats the face's stationary point.  So the maximizer's
    pattern is a clique of the graph on signed vertices (i, +-) with an edge
    wherever T_ii + T_jj - 2 s_i s_j T_ij <= 0, and only cliques are priced.
    An edge is dropped only when that computed curvature exceeds
    4 eps (|T_ii| + |T_jj| + 2|T_ij|), so roundoff cannot drop the
    maximizer's pattern.  Cliques are closed under subsets, so a singular
    face, whose maximum also lies on a smaller face, is skipped safely.
    Ties go to the first pattern in (size, support, sign index) order, the
    sign index having bit j - 2 set where s_j = -1.

    The stationary point solves M y = const * 1 with sum(y) = 1; only
    strictly positive y are kept, and the value is re-evaluated as
    x^T T_PP x with x = s * y, so an ill-conditioned solve can only give a
    genuine feasible value or be rejected.  A size is priced in slices of
    at most _STACK_CAP block entries, one stacked solve per slice with each
    pattern its own right-hand side against its unflipped block: partial
    pivoting picks the same pivots on D S D as on S, so
    solve(D S D, 1) = s * solve(S, s) bit for bit.  When a slice's solve
    raises, one slogdet per support finds the singular ones (sign 0 exactly
    where LU meets the zero pivot the solve raised on), and the regular
    patterns are solved again in one call.
    """
    arr = as_matrix_array(T)
    n = arr.shape[0]
    if n > n_cap:
        raise ValueError(
            f"n = {n} exceeds the exact-enumeration cap {n_cap}; "
            "use rho1_multistart for larger matrices"
        )
    best = 0.0
    best_x = np.zeros(n)
    # signed vertex 2i + b is (i, (-1)^b), M its matrix s_u s_v T_ij; edge
    # [u, v] holds when v has the later index and the pair passes the test
    index = np.arange(2 * n) // 2
    M = np.kron(arr, [[1.0, -1.0], [-1.0, 1.0]])
    diag = np.diag(M)
    curvature = np.add.outer(diag, diag) - 2.0 * M
    margin = 4.0 * np.finfo(np.float64).eps * (
        np.add.outer(np.abs(diag), np.abs(diag)) + 2.0 * np.abs(M))
    edge = (curvature <= margin) & (index[:, None] < index[None, :])
    # the cliques of one size as rows of signed vertices (the smallest dtype
    # holding 2n keeps wide levels small) and the later vertices adjacent to
    # every member, starting from the positive vertices
    clique = np.arange(0, 2 * n, 2, dtype=np.min_scalar_type(2 * n))[:, None]
    common = edge[0::2]
    while clique.shape[0] > 0:
        k = clique.shape[1]
        support = clique >> 1
        starts = np.ones(clique.shape[0], dtype=bool)  # where a support begins
        starts[1:] = (support[1:] != support[:-1]).any(axis=1)
        rows = max(1, _STACK_CAP // (k * k))
        for lo in range(0, clique.shape[0], rows):
            idx = support[lo:lo + rows]
            s = 1.0 - 2.0 * (clique[lo:lo + rows] & 1)
            first = starts[lo:lo + rows].copy()
            first[0] = True
            block = idx[first]
            blocks = arr[block[:, :, None], block[:, None, :]]
            of = np.cumsum(first) - 1
            S = blocks[of]
            try:
                v = np.linalg.solve(S, s[:, :, None])[..., 0]
            except np.linalg.LinAlgError:
                # singular supports get no candidate
                regular = (np.linalg.slogdet(blocks)[0] != 0.0)[of]
                v = np.full(s.shape, np.nan)
                v[regular] = np.linalg.solve(S[regular], s[regular, :, None])[..., 0]
            w = s * v  # solve(D S D, 1) per pattern
            sums = w.sum(axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                y = w / sums[:, None]
            ok = np.isfinite(y).all(axis=1) & (y > 0.0).all(axis=1)
            feas = np.nonzero(ok)[0]
            if feas.size == 0:
                continue
            x = s[feas] * y[feas]
            vals = np.einsum("mi,mij,mj->m", x, S[feas], x)
            j = int(np.argmax(vals))
            if vals[j] > best:
                best = float(vals[j])
                best_x = np.zeros(n)
                best_x[idx[feas[j]]] = x[j]
        # a stable sort by (parent support, new vertex) gives (support, sign
        # index) order: the new member is last, its sign the index's top bit
        parent, vertex = np.nonzero(common)
        order = np.argsort(np.cumsum(starts)[parent] * (2 * n) + vertex, kind="stable")
        parent, vertex = parent[order], vertex[order]
        clique = np.column_stack((clique[parent], vertex.astype(clique.dtype)))
        common = common[parent] & edge[vertex]
    return BoundReport(
        quantity="rho1",
        lower=best,
        upper=best,
        method="exact_enumeration",
        certificate="exact",
        witness=best_x,
    )


# rho1_multistart prices each step's live gradient rows in one gemm call,
# with the rows zero-padded to a multiple of _GEMM_ROWS and T zero-padded to
# a multiple of _GEMM_PAD (the sweep that backs this is in its docstring).
_GEMM_ROWS = 8
_GEMM_PAD = 32


def rho1_multistart(T, restarts: int = 64, steps: int = 500,
                    rng: Optional[Rng] = None,
                    restart_indices=None) -> BoundReport:
    """Heuristic lower bound on rho1 by multistart projected gradient ascent.

    Each restart ascends from a random l1-sphere point with gradient 2Tx and
    backtracking (halving) from step 1/sqrt(n); the report value is the best
    objective found, which is a genuine feasible value and so never exceeds
    the true rho1.  Restart r draws its start from rng.child(r), so any
    split of the restart index range reproduces the serial result.
    ``restart_indices`` (a non-empty sequence of restart indices) replaces
    ``range(restarts)``, and ``restarts`` is then ignored.

    The restarts advance together as the rows of one (restarts, n) array,
    each with its own step size and accept test; a row leaves the live set
    once its step size underflows, and the arrays are compacted to the live
    rows only then.  A step makes one row-wise l1-sphere projection, one
    stacked gradient X @ T and one stacked value
    matmul(X[:, None, :], G[:, :, None]), which numpy prices row by row with
    the BLAS dot that x @ g uses on one vector.

    The gradient is a gemm, so a row's bits must not depend on the rows
    priced with it, on its place among them or on the BLAS thread count.
    A plain X @ T breaks this (numpy sends one or a few rows through gemv,
    and OpenBLAS splits and tiles the product by its shape), so the live
    rows are zero-padded to a multiple of _GEMM_ROWS and priced in one
    gemm call against T zero-padded to a multiple of _GEMM_PAD.  On
    OpenBLAS 0.3.31 with 1 to 4 BLAS threads this rule kept every row's
    bits fixed: one call over 1 to 64 padded rows gave the same bytes as
    8-row calls and as each row alone, over n = 1..79 and 18 sizes up to
    1024.  A plain X @ T, unpadded blocks of 16 to 64 rows and unpadded
    8-row blocks each failed at some n.  All other reductions run along
    contiguous rows, so the serial-split promise above holds bit for bit.
    """
    if rng is None:
        raise ValueError("rho1_multistart requires an rng")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if restart_indices is None:
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        indices = range(restarts)
    else:
        indices = list(restart_indices)
        if not indices:
            raise ValueError("restart_indices must not be empty")
    arr = as_matrix_array(T)
    n = arr.shape[0]
    n_pad = -(-n // _GEMM_PAD) * _GEMM_PAD
    Tp = np.zeros((n_pad, n_pad))
    Tp[:n, :n] = arr
    Yp = np.zeros((-(-len(indices) // _GEMM_ROWS) * _GEMM_ROWS, n_pad))

    def gradient(Y):
        # Y @ T through the zero-padded rows and T; the result is C-contiguous
        m = Y.shape[0]
        mb = -(-m // _GEMM_ROWS) * _GEMM_ROWS
        Yp[:m, :n] = Y
        Yp[m:mb] = 0.0
        P = np.matmul(Yp[:mb], Tp)
        return np.ascontiguousarray(P[:m, :n])

    step0 = 1.0 / math.sqrt(n)
    X = _project_l1_rows(np.stack([rng.child(r).normal(n) for r in indices]))
    G = gradient(X)
    f = np.matmul(X[:, None, :], G[:, :, None])[:, 0, 0]
    eta = np.full(f.size, step0)
    # X, G, f and eta hold the live rows only; live maps them to restarts,
    # and a row that leaves is written to X_end and f_end
    live = np.arange(f.size)
    X_end, f_end = np.empty_like(X), np.empty_like(f)
    for _ in range(steps):
        if live.size == 0:
            break
        cand = _project_l1_rows(X + (2.0 * eta)[:, None] * G)
        gc = gradient(cand)
        fc = np.matmul(cand[:, None, :], gc[:, :, None])[:, 0, 0]
        up = fc > f + 1e-15 * np.abs(f)
        if up.all():
            X, G, f = cand, gc, fc
        else:
            X[up], G[up], f[up] = cand[up], gc[up], fc[up]
        eta = np.where(up, np.minimum(eta * 2.0, step0), eta * 0.5)
        keep = up | (eta >= 1e-16 * step0)
        if not keep.all():
            gone = ~keep
            X_end[live[gone]], f_end[live[gone]] = X[gone], f[gone]
            X, G, f, eta, live = X[keep], G[keep], f[keep], eta[keep], live[keep]
    X_end[live], f_end[live] = X, f
    X, f = X_end, f_end
    best, best_x = 0.0, np.zeros(n)
    if np.any(f > 0.0):
        # the first restart in index order with the largest positive value
        j = int(np.argmax(np.where(f > 0.0, f, 0.0)))
        best, best_x = float(f[j]), X[j].copy()
    return BoundReport(
        quantity="rho1",
        lower=best,
        upper=None,
        method="multistart",
        certificate="heuristic",
        witness=best_x,
    )


def piplus_rank1_lower(T, rho1_report: BoundReport) -> BoundReport:
    """piplus >= rho1 via the witness A = x x^T / ||x||_1^2.

    The value is re-evaluated from the witness, so the resulting lower bound
    is certified by feasibility regardless of how the witness was found; the
    re-evaluation and the reported rho1 value agree to roundoff, and the max
    of the two is kept so the rank-one bound never drops below the input.
    """
    arr = as_matrix_array(T)
    x = rho1_report.witness
    value = max(0.0, float(rho1_report.lower))
    witness = None
    if x is not None:
        x = np.asarray(x, dtype=np.float64)
        norm1 = np.abs(x).sum()
        if norm1 > 0.0:
            value = max(value, float(x @ (arr @ x)) / norm1**2)
            witness = GramMatrix._wrap(np.outer(x, x) / norm1**2)
    return BoundReport(
        quantity="piplus",
        lower=value,
        upper=None,
        method="rank1_witness",
        certificate="certified_bound",
        witness=witness,
    )


@dataclass
class WitnessCertificate:
    """The point A = a I + b W for the piplus program.

    ``value`` is Tr(TA) evaluated entrywise against T = -(sqrt(n)/4) I + W;
    the trace algebra shows it equals witness_value_closed_form(n, c) for
    every W.  The point is a genuine witness (||A||_1 = 1 with A PSD) only
    when b >= 0 and lambda_min >= 0; b turns negative when c >= sqrt(n),
    where the trace identity still holds but the 1-norm normalization does
    not.
    """

    n: int
    c: float
    a: float
    b: float
    A: GramMatrix
    value: float
    lambda_min: Optional[float]

    @property
    def feasible(self) -> Optional[bool]:
        if self.b < 0.0:
            return False
        if self.lambda_min is None:
            return None
        return self.lambda_min >= 0.0


def witness_value_closed_form(n: int, c: float) -> float:
    """1 - c/sqrt(n) - c/4, the witness trace value for a = c n^{-3/2}."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 1.0 - c / math.sqrt(n) - c / 4.0


def _check_witness_c(c: float) -> None:
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"c must be finite and positive, got {c!r}")


def piplus_witness(W, c: float, compute_lambda_min: bool = True) -> WitnessCertificate:
    """Build the shifted-identity point A = a I + b W with a = c n^{-3/2}.

    b solves a n + b n(n-1) = 1, so for 0 < c < sqrt(n) both coefficients are
    positive and ||A||_1 = 1 exactly for a hollow +-1 matrix W; values
    2 < c < 4 keep the witness PSD for large n.
    """
    arr = as_matrix_array(W)
    n = arr.shape[0]
    if n < 2:
        raise ValueError("witness construction requires n >= 2")
    diag = np.diag(arr)
    if np.abs(diag).max() != 0.0:
        raise ValueError("W must have an exactly zero diagonal")
    off = arr[~np.eye(n, dtype=bool)]
    if np.abs(np.abs(off) - 1.0).max() != 0.0:
        raise ValueError("off-diagonal entries of W must be exactly +-1")
    _check_witness_c(c)
    a = c * n ** (-1.5)
    b = (1.0 - a * n) / (n * (n - 1.0))
    A = a * np.eye(n) + b * arr
    T = shift_to_T(arr)
    value = float((T.entries * A).sum())
    lam_min = None
    if compute_lambda_min:
        lam = np.linalg.eigvalsh(arr)
        lam_min = a + (b * lam[0] if b >= 0.0 else b * lam[-1])
    return WitnessCertificate(
        n=n, c=c, a=a, b=b,
        A=GramMatrix._wrap(A),
        value=value,
        lambda_min=lam_min,
    )


def _project_psd_shift(y: np.ndarray, t) -> np.ndarray:
    """Exactly symmetric projection onto {Y : Y - T PSD} (eigenvalue clipping)."""
    d = y - t
    lam, v = np.linalg.eigh((d + d.T) / 2.0)
    p = (v * np.maximum(lam, 0.0)) @ v.T
    return t + (p + p.T) / 2.0


def _piplus_admm(t: np.ndarray, tol_gap: float, iter_cap: int):
    """(lower, A, upper, Y, converged): the ADMM of piplus_dual_upper."""
    n = t.shape[0]
    rho, z, u = 1.0, t.copy(), np.zeros_like(t)
    lower, a_best = 0.0, np.zeros_like(t)  # A = 0 is feasible
    upper, y_best = math.inf, None
    eye = np.eye(n)
    # work buffers for V = Z - U and Y; W holds |V|, V / r, Y + U and Y - Z
    v, y, w = np.empty_like(t), np.empty_like(t), np.empty_like(t)
    for k in range(1, iter_cap + 1):
        r = 1.0 / rho
        np.subtract(z, u, out=v)
        if np.abs(v, out=w).sum() > r:
            np.divide(v, r, out=w)
            np.multiply(r, project_l1_sphere(w.ravel()).reshape(n, n), out=y)
            np.subtract(v, y, out=y)
        else:
            y.fill(0.0)
        z_prev, z = z, _project_psd_shift(np.add(y, u, out=w), t)
        u += np.subtract(y, z, out=w)
        if k % 10 and k < iter_cap:
            continue
        a = _project_psd_shift(-u, 0.0)  # the PSD part of -U
        norm1 = np.abs(a).sum()
        if norm1 > 0.0 and float((t * a).sum()) / norm1 > lower:
            a_best = a / norm1
            lower = float((t * a_best).sum())
        z_max = np.abs(z).max()
        if z_max < upper:
            d = z - t
            delta = max(0.0, -float(np.linalg.eigvalsh(d)[0])) + (n + 2) * EPS * (
                np.linalg.norm(d) + z_max)
            y_c = z + delta * eye
            y_max = float(np.abs(y_c).max())
            if y_max < upper:
                upper, y_best = y_max, y_c
        if upper - lower <= tol_gap:
            return lower, a_best, upper, y_best, True
        # residual balancing on the relative residuals (Z != 0 as T is not NSD)
        res = np.linalg.norm(y - z) / max(np.linalg.norm(y), np.linalg.norm(z))
        dz, du = np.linalg.norm(z - z_prev), np.linalg.norm(u)
        if res > 0.0 and dz > 0.0 and du > 0.0:
            f = min(5.0, max(0.2, math.sqrt(res * du / dz)))
            rho, u = rho * f, u / f
    return lower, a_best, upper, y_best, False


_TOL_DUAL = 1e-8  # piplus_dual_upper's relative bracket width


def piplus_dual_upper(T, iter_cap: int = 60000) -> BoundReport:
    """Certified bracket [lower, upper] on piplus from its conic dual.

    For Y - T PSD and A PSD with ||A||_1 <= 1, Tr(TA) <= Tr(YA) <= ||Y||_max,
    and min { ||Y||_max : Y - T PSD } equals piplus.  One scaled ADMM run
    (Boyd et al. 2011) on min ||Y||_max subject to Y = Z, Z - T PSD repeats
    Y = V - P(V) with V = Z - U and P the projection onto the l1 ball of
    radius 1/rho (the prox of ||.||_max / rho by Moreau), Z = the projection
    of Y + U onto {Z - T PSD}, and U += Y - Z; every 10 iterations it
    rescales rho and U by sqrt(primal / dual relative residual), clipped to
    [0.2, 5].  With r = 1/rho, P(V) = V, so Y = 0, when ||V||_1 <= r, and
    otherwise P(V) = r project_l1_sphere(V / r): one sort-and-threshold of
    V / r taken as a single n^2-vector.  Each iteration writes V, Y and its
    temporaries into buffers made once per run.

    Both ends are certified at every 10th and at the last iteration.  A
    step leaves U = D - D+ with D = Y + U - T, so the PSD part A of -U,
    normalized to ||A||_1 = 1, is feasible: lower = Tr(TA) (or 0, A = 0).
    The Z of least max-norm is shifted to Y = Z + delta I, with delta =
    max(0, -lambda_min(Z - T)) as computed plus (n + 2) eps (||Z - T||_F +
    max|Z|) for the eigenvalue error and the roundoff in forming Z - T and
    the shift (Jansson, Chaykin, Keil 2007); upper = max|Y|, witness Y.

    The method is "dual_ap" once upper - lower <= _TOL_DUAL (1e-8) *
    max(1, lambda_max), and "dual_ap(inconclusive)" when iter_cap iterations
    run out first; both ends stay valid either way.  For lambda_max <= 0,
    piplus = 0 exactly: lower = 0 (A = 0) and upper = 0 (witness Y = 0).
    """
    if iter_cap < 1:
        raise ValueError(f"iter_cap must be >= 1, got {iter_cap!r}")
    arr = as_matrix_array(T)
    lam_max = max_eigenvalue(arr)
    if lam_max <= 0.0:
        return BoundReport(
            quantity="piplus", lower=0.0, upper=0.0, method="dual_ap",
            certificate="certified_bound", witness=GramMatrix._wrap(np.zeros_like(arr)),
        )
    lower, _, upper, y, converged = _piplus_admm(arr, _TOL_DUAL * max(1.0, lam_max), iter_cap)
    return BoundReport(
        quantity="piplus", lower=lower, upper=upper,
        method="dual_ap" if converged else "dual_ap(inconclusive)",
        certificate="certified_bound", witness=GramMatrix._wrap(y),
    )


def quadratic_vertex_bound(a2: float, a1: float, a0: float) -> tuple:
    """(argmax, max) of a2 x^2 + a1 x + a0 for a2 < 0."""
    if a2 >= 0.0:
        raise ValueError("leading coefficient must be negative")
    argmax = -a1 / (2.0 * a2)
    return argmax, a0 - a1 * a1 / (4.0 * a2)


def rho1_structured_upper(T, kappa: float, restricted_norm: float,
                          full_norm: float, certified: bool = True) -> BoundReport:
    """Upper bound on rho1 for shifted hollow +-1 matrices.

    Splits any unit-l1 x into entries of size >= 1/(kappa n) (at most
    kappa n of them, giving the restricted-norm term) and the rest (with
    ||x_small||_2 <= 1/(kappa sqrt(n))), then maximizes the resulting
    quadratic in xi = ||x_big||_2:

        (restricted - sqrt(n)/4) xi^2 + (2 full/(kappa sqrt(n))) xi
          + full/(kappa^2 n).

    Vacuous (upper = inf) when restricted >= sqrt(n)/4; certified only when
    the norm inputs are exact and restricted <= sqrt(n)/8.
    """
    arr = as_matrix_array(T)
    n = arr.shape[0]
    if not 0.0 < kappa <= 1.0:
        raise ValueError("kappa must lie in (0, 1]")
    if restricted_norm < 0.0 or full_norm < 0.0:
        raise ValueError("norm bounds must be nonnegative")
    shift = math.sqrt(n) / 4.0
    diag = np.diag(arr)
    if np.abs(diag + shift).max() > 1e-9 * max(1.0, shift):
        raise ValueError("diagonal must equal -sqrt(n)/4")
    if n > 1:
        off = np.abs(arr[~np.eye(n, dtype=bool)])
        if (np.minimum(off, np.abs(off - 1.0))).max() > 1e-12:  # allow degenerate 0
            raise ValueError("off-diagonal entries must be +-1 (or 0)")

    a2 = restricted_norm - shift
    if a2 >= 0.0:
        return BoundReport(
            quantity="rho1", lower=None, upper=math.inf,
            method="structured(vacuous)", certificate="heuristic",
        )
    a1 = 2.0 * full_norm / (kappa * math.sqrt(n))
    a0 = full_norm / (kappa * kappa * n)
    _, upper = quadratic_vertex_bound(a2, a1, a0)
    cert = "certified_bound" if (certified and restricted_norm <= shift / 2.0) \
        else "heuristic"
    return BoundReport(
        quantity="rho1", lower=None, upper=upper,
        method="structured", certificate=cert,
    )


def _piplus_lower(T, rho1_report: BoundReport,
                  wit: Optional[WitnessCertificate]) -> BoundReport:
    """The better certified piplus lower bound: the shifted-identity witness
    when it is feasible and beats the rank-one witness of the rho1 search."""
    rank1 = piplus_rank1_lower(T, rho1_report)
    if wit is not None and wit.feasible and wit.value > rank1.lower:
        return BoundReport(quantity="piplus", lower=wit.value, upper=None,
                           method="witness", certificate="certified_bound",
                           witness=wit.A)
    return rank1


@dataclass
class RatioCertificate:
    """A piplus lower bound, a rho1 upper value and their ratio for one T.

    cn_lower floors the ratio at 1: the worst-case constant is at least 1
    for every symmetric T, so the certificate never reports less.
    """

    n: int
    seed: int
    c: float
    mode: str
    piplus: BoundReport
    rho1: BoundReport
    ratio: BoundReport
    cn_lower: float
    kappa: Optional[float] = None


def certify_ratio(n: int, seed: int, c: float = 2.5, mode: str = "exact",
                  n_cap: int = DEFAULT_N_CAP) -> RatioCertificate:
    """Sample W from the seed, build T and bound piplus/rho1 from below.

    exact mode (n <= n_cap) divides by the enumerated rho1; structured mode
    divides by the restricted-norm upper bound with the subset fraction
    calibrated on this W.  The piplus lower bound is the better of the
    shifted-identity witness (when PSD) and the rank-one witness taken from
    the rho1 search: rho1_exact's maximizer in exact mode, the best start of
    a default rho1_multistart (64 restarts of 500 steps) in structured mode.
    A denominator that is not a positive finite number, or a lower bound at
    or below 0, falls back to ratio = 1, which always holds.
    """
    _check_witness_c(c)  # also when n = 1, where no witness is built
    root = Rng(seed)
    W = sample_W(n, root.child(0))
    T = shift_to_T(W)

    kappa = None
    if mode == "exact":
        if n > n_cap:
            raise ValueError(f"exact mode requires n <= {n_cap}")
        rho1_rep = rho1_exact(T, n_cap=n_cap)
        rho1_for_rank1 = rho1_rep
        denom = rho1_rep.upper
    elif mode == "structured":
        ms = rho1_multistart(T, rng=root.child(1))
        kap = estimate_kappa_for(W, beta=0.125, rng=root.child(2))
        kappa = kap.alpha
        full = operator_norm(W)
        # the bound only needs the norm at the chosen k to be exact; whether
        # larger k would also qualify does not affect its validity
        rho1_rep = rho1_structured_upper(
            T, kappa=kap.alpha, restricted_norm=kap.restricted_norm,
            full_norm=full, certified=kap.restricted_exhaustive,
        )
        rho1_for_rank1 = ms
        denom = rho1_rep.upper
    else:
        raise ValueError(f"unknown mode {mode!r}")

    piplus_rep = _piplus_lower(T, rho1_for_rank1,
                               piplus_witness(W, c) if n >= 2 else None)
    pi_lower = piplus_rep.lower
    if pi_lower <= 0.0 or denom <= 0.0 or not math.isfinite(denom):
        ratio_val = 1.0
        ratio_method = f"{mode}(fallback)"
        ratio_cert = "certified_bound"  # the constant is >= 1 unconditionally
    else:
        ratio_val = pi_lower / denom
        ratio_method = mode
        ratio_cert = weaker_certificate(piplus_rep.certificate, rho1_rep.certificate)
    ratio_rep = BoundReport(
        quantity="ratio", lower=ratio_val, upper=None,
        method=ratio_method, certificate=ratio_cert,
    )
    return RatioCertificate(
        n=n, seed=seed, c=c, mode=mode,
        piplus=piplus_rep, rho1=rho1_rep, ratio=ratio_rep,
        cn_lower=max(1.0, ratio_val), kappa=kappa,
    )
