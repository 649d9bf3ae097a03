"""Bounds for the extremal trace and quadratic-form quantities.

For a symmetric T this module computes

* rho1(T)  = sup { <Tx, x> : ||x||_1 <= 1 }   (nonconvex quadratic max),
* piplus(T) = sup { Tr(TA) : A PSD, ||A||_1 <= 1 }   (convex program),

with exact enumeration, heuristic ascent, explicit feasible witnesses and a
certified dual upper bound, plus the ratio piplus/rho1 that lower-bounds the
worst-case decomposition-cost constant.  Since the l1 ball contains 0, both
quantities are reported with a floor at 0.  For T = W - (sqrt(n)/4) I, the
ratio may instead divide by a split bound on rho1 built from the restricted
norms of W (``certify_ratio``'s structured mode).

The multistart ascent on rho1 and the dual's prox on piplus (by Moreau, an
l1-ball projection) share one kernel: the sort-and-threshold projection of
the rows of an array, ``_shrink_rows`` (Duchi et al., ICML 2008), which
``_project_l1_rows`` completes to the l1 sphere.  It writes its scratch
into the ``_L1Work`` it is given.

Everything is real-valued; rho1 over complex vectors can in principle exceed
the real value and is out of scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .linalg import GramMatrix, as_matrix_array
from .randcert import _STACK_CAP, max_restricted_norm, sample_W, shift_to_T
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
    at most _STACK_CAP block entries, one stacked solve per slice
    (_face_points), each support's block gathered once.
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
    # signed vertex 2i + b is (i, (-1)^b); edge [u, v] holds when v has the
    # later index and the pair passes the test, whose curvature is
    # T_ii + T_jj - 2 T_ij for equal signs and T_ii + T_jj + 2 T_ij for
    # opposite ones (the same bits as subtracting 2 s_i s_j T_ij)
    diag = np.diag(arr)
    pair = np.add.outer(diag, diag)
    twice = 2.0 * arr
    margin = 4.0 * EPS * (np.add.outer(np.abs(diag), np.abs(diag)) + np.abs(twice))
    later = np.triu(np.ones((n, n), dtype=bool), 1)
    same = (pair - twice <= margin) & later
    opposite = (pair + twice <= margin) & later
    # edge[2i + b, 2j + c] is same where b == c and opposite where not
    edge = np.stack((np.stack((same, opposite), axis=2),
                     np.stack((opposite, same), axis=2)), axis=1).reshape(2 * n, 2 * n)
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
            S, y, ok = _face_points(blocks, of, s)
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
        clique = np.concatenate((clique[parent], vertex[:, None].astype(clique.dtype)), axis=1)
        common = common[parent] & edge[vertex]
    return BoundReport(
        quantity="rho1",
        lower=best,
        upper=best,
        method="exact_enumeration",
        certificate="exact",
        witness=best_x,
    )


def _face_points(blocks: np.ndarray, of: np.ndarray, s: np.ndarray) -> tuple:
    """(S, y, ok) for a stack of face systems: pattern r has the block
    S[r] = blocks[of[r]] and the signs s[r], and y[r] = solve(D S D, 1) /
    its sum with D = diag(s[r]), the stationary point of the face in simplex
    coordinates; ok[r] is True where every y_i is finite and > 0.

    The stack is solved in one call with each pattern its own right-hand
    side against its unflipped block: partial pivoting picks the same pivots
    on D S D as on S, so solve(D S D, 1) = s * solve(S, s) bit for bit.  When
    the solve raises, one slogdet per block finds the singular ones (sign 0
    exactly where LU meets the zero pivot the solve raised on); their
    patterns get NaN, so not ok, and the regular ones are solved again in
    one call.
    """
    S = blocks[of]
    try:
        v = np.linalg.solve(S, s[:, :, None])[..., 0]
    except np.linalg.LinAlgError:
        regular = (np.linalg.slogdet(blocks)[0] != 0.0)[of]
        v = np.full(s.shape, np.nan)
        v[regular] = np.linalg.solve(S[regular], s[regular, :, None])[..., 0]
    w = s * v
    sums = w.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        y = w / sums[:, None]
    return S, y, np.isfinite(y).all(axis=1) & (y > 0.0).all(axis=1)


class _L1Work:
    """Scratch for _project_l1_rows and _shrink_rows on an (m, n) x of one
    shape: the sorted magnitudes, their cumulative sums, the criterion, its
    mask and sign(x), the 1..n ramp and each row's offset in the flat
    buffers.  The result is never built here, so a caller may keep it while
    it projects again on the same workspace."""

    __slots__ = ("srt", "cumsum", "crit", "mask", "sign", "ramp", "offsets")

    def __init__(self, shape):
        self.srt, self.cumsum, self.crit, self.sign = (np.empty(shape) for _ in range(4))
        self.mask = np.empty(shape, dtype=bool)
        self.ramp = np.arange(1.0, shape[-1] + 1.0)
        self.offsets = np.arange(0, shape[0] * shape[-1], shape[-1])


def _project_l1_rows(x: np.ndarray, work: _L1Work) -> np.ndarray:
    """Project every row of the (m, n) array x onto the unit l1 sphere
    {y : ||y||_1 = 1}.

    Rows outside the unit l1 ball get the Euclidean ball projection
    (sort-and-threshold on |x| with signs restored; Duchi et al., ICML
    2008), which lands on the sphere; rows inside are rescaled to unit l1
    norm.  A zero or non-finite row raises ValueError.

    work is an _L1Work of x's shape; the result is a new array, the
    caller's.  Every reduction runs along the contiguous rows, so each row
    of a C-contiguous x comes out bit for bit as it would alone.  The batch
    is shrunk whole, and its rows inside the ball are overwritten.
    """
    a = np.abs(x)
    norm1 = np.add.reduce(a, -1)
    if (np.isfinite(norm1) & (norm1 != 0.0)).all():
        y = _shrink_rows(x, a, work)
        inside = norm1 <= 1.0
        if inside.any():  # rare in the ascent
            np.divide(x, norm1[:, None], out=y, where=inside[:, None])
        return y
    raise ValueError("cannot project the zero (or non-finite) vector")


def _shrink_rows(x: np.ndarray, a: np.ndarray, work: _L1Work) -> np.ndarray:
    """The l1-ball projection of every row of the (m, n) array x, a = |x|,
    with every temporary in work, an _L1Work of x's shape.

    The result is built in a's buffer, which the caller gives up.  Only a
    row outside the ball comes out projected: one inside is shrunk too,
    with a threshold of at most 0 and a result of no use.  So a caller
    hands over only outside rows (the dual's prox) or overwrites the
    inside ones (_project_l1_rows).
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
    # cumsum at rho in each row, one flat gather from the contiguous buffer
    theta = (cumsum.take(work.offsets + rho) / (rho + 1.0))[:, None]
    np.subtract(a, theta, out=a)
    np.maximum(a, 0.0, out=a)
    # s comes after the sign multiply: a row can end with a negative theta
    # (its pairwise norm above 1, its sorted cumulative sum not), and then
    # a zero entry holds -theta until its sign of 0 clears it
    a *= np.sign(x, out=work.sign)
    s = np.add.reduce(np.abs(a, out=srt), -1)
    # kills the last ulp of threshold roundoff; a row with s = 1 keeps its bits
    a /= s[:, None]
    return a


def _face_jumps(arr: np.ndarray, X: np.ndarray) -> tuple:
    """(rows, C): for each row x of X, the stationary point of its face
    (support S, signs s = sign(x_S)) on the l1 sphere, x' = s * y with
    D T_SS D y = 1 normalized to sum(y) = 1, kept only where every y_i is
    finite and > 0 (_face_points) and D T_SS D is negative definite on the
    face's directions {v : sum(v) = 0}, so that x' is a strict maximum on
    its face; rows indexes X's rows that have one, and C holds those points
    as rows of X's width.  A row whose support has more than
    _JUMP_MAX_SUPPORT entries gets none.

    The rows are grouped by support size, and each size is solved as
    stacked systems in slices of at most _STACK_CAP block entries.  The
    definiteness test takes the largest eigenvalue of the block in the
    basis e_i - e_k (i < k) of those directions, one stacked eigvalsh per
    slice; a vertex (k = 1) has no direction and always passes.
    """
    m, n = X.shape
    nz = X != 0.0
    size = np.count_nonzero(nz, axis=1)
    C, found = np.zeros((m, n)), np.zeros(m, dtype=bool)
    # the sizes present up to the cap; np.unique would cost about 17 ms on
    # its first call
    for k in np.flatnonzero(np.bincount(size)[:_JUMP_MAX_SUPPORT + 1]):
        group = np.flatnonzero(size == k)
        step = max(1, _STACK_CAP // (k * k))
        for lo in range(0, group.size, step):
            rows = group[lo:lo + step]
            idx = np.nonzero(nz[rows])[1].reshape(rows.size, k)
            s = np.sign(X[rows[:, None], idx])
            blocks = arr[idx[:, :, None], idx[:, None, :]]
            _, y, ok = _face_points(blocks, np.arange(rows.size), s)
            if k > 1 and ok.any():
                # D S D in the basis e_i - e_k of the face's directions
                M = blocks[ok] * s[ok, :, None] * s[ok, None, :]
                B = M[:, :-1, :-1] - M[:, :-1, -1:] - M[:, -1:, :-1] + M[:, -1:, -1:]
                ok[ok] = np.linalg.eigvalsh(B)[:, -1] < 0.0
            C[rows[ok, None], idx[ok]] = s[ok] * y[ok]
            found[rows] = ok
    rows = np.flatnonzero(found)
    return rows, C[rows]


# rho1_multistart prices each step's live gradient rows in one gemm call,
# with the rows zero-padded to a multiple of _GEMM_ROWS and T zero-padded to
# a multiple of _GEMM_PAD (the sweep that backs this is in its docstring).
_GEMM_ROWS = 8
_GEMM_PAD = 32
# every _JUMP_EVERY steps each live row tries the stationary point of its
# face, unless the face has more than _JUMP_MAX_SUPPORT entries: from
# k = 100 (k^2 >= 10,000 block entries) OpenBLAS 0.3.31 threads the stacked
# LU, and its bytes then follow the BLAS thread count (k <= 99 kept them)
_JUMP_EVERY = 25
_JUMP_MAX_SUPPORT = 96


def rho1_multistart(T, restarts: int = 64, steps: int = 500, *,
                    rng: Rng) -> BoundReport:
    """Heuristic lower bound on rho1 by multistart projected gradient ascent.

    Each restart ascends from a random l1-sphere point with gradient 2Tx and
    backtracking (halving) from step 1/sqrt(n); the report value is the best
    objective found, which is a genuine feasible value and so never exceeds
    the true rho1.  Restart r draws its start from rng.child(r).

    The restarts advance together as the rows of one (restarts, n) array,
    each with its own step size and accept test; a row leaves the live set
    once its step size underflows, and the arrays are compacted to the live
    rows only then.  A step makes one row-wise l1-sphere projection, on
    one workspace per run that is made again when rows leave, one
    stacked gradient X @ T and one stacked value
    matmul(X[:, None, :], G[:, :, None]), which numpy prices row by row with
    the BLAS dot that x @ g uses on one vector.

    After every _JUMP_EVERY (J = 25) steps each live row tries a face jump,
    the active-set step of projected Newton methods (Bertsekas 1982): its
    face is its support S with signs s, and the candidate is the face's
    stationary point x = s * y / sum(y) with D T_SS D y = 1, the system
    rho1_exact solves (_face_jumps, batched per support size through
    _face_points).  A face gives no candidate when its solve is singular,
    when an entry of y is not finite and > 0, or when the point is not a
    strict maximum on the face (D T_SS D not negative definite along the
    face): the ascent cannot leave a stationary point of its face, so a
    jump to a saddle would hold the row there.  The candidates' gradient
    and value go through the same padded gemm and row dot as a step's, a
    candidate replaces its row only where it passes the step's accept test,
    so no row's value falls, and the row keeps its step size.  A row that
    jumps to its face's maximum fails its next tests and leaves sooner, so
    the jumps roughly halve the row-steps of a run.  A run of fewer than J
    steps makes no jump, and neither does a row whose support has more
    than _JUMP_MAX_SUPPORT (96) entries, so that the LU stays on one thread.

    J was chosen on 303 runs: the heuristic scaling grids of criterion 11
    and of the README (n = 100, 200, 400, 800 x 10 seeds each), n = 100,
    200, 400 x seeds 0..9 and n = 800 seed 7 on
    T = shift_to_T(sample_W(n, Rng(seed).child(0))), the frozen test runs
    of 50 and 500 steps, and the bench's n = 30 and structured-ratio
    inputs.  Against the run without jumps, J = 5 lost 1.3e-3 (relative) on one 50-step
    frozen run, and J = 10 to 30 lost no more than 6.4e-16 relative on any
    cell, below the accept test's 1e-15 (at J = 25, seven frozen build_T
    cells of n <= 40, by at most 4 ulps).  J = 25 and 30 were the fastest at
    n = 512, and 25 takes fewer row-steps.
    Without the saddle test, J = 25 lost 2.4e-2 at n = 200 (README cell
    seed 11), and J = 20 lost 2.5e-3 at n = 400, seed 7.

    The gradient is a gemm, so a row's bits must not depend on the BLAS
    thread count, nor change as live rows leave the batch.  A plain X @ T
    breaks this (numpy sends one or a few rows through gemv, and OpenBLAS
    splits and tiles the product by its shape), so the live rows are
    zero-padded to a multiple of _GEMM_ROWS and priced in one gemm call
    against T zero-padded to a multiple of _GEMM_PAD.  On OpenBLAS 0.3.31
    with 1 to 4 BLAS threads this rule kept every row's bits fixed: one
    call over 1 to 64 padded rows gave the same bytes as 8-row calls and
    as each row alone, over n = 1..79 and 18 sizes up to 1024.  A plain
    X @ T, unpadded blocks of 16 to 64 rows and unpadded 8-row blocks each
    failed at some n.  All other reductions run along contiguous rows.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    arr = as_matrix_array(T)
    n = arr.shape[0]
    n_pad = -(-n // _GEMM_PAD) * _GEMM_PAD
    Tp = np.zeros((n_pad, n_pad))
    Tp[:n, :n] = arr
    Yp = np.zeros((-(-restarts // _GEMM_ROWS) * _GEMM_ROWS, n_pad))

    def gradient(Y):
        # Y @ T through the zero-padded rows and T; the result is C-contiguous
        m = Y.shape[0]
        mb = -(-m // _GEMM_ROWS) * _GEMM_ROWS
        Yp[:m, :n] = Y
        Yp[m:mb] = 0.0
        P = np.matmul(Yp[:mb], Tp)
        return np.ascontiguousarray(P[:m, :n])

    def priced(Y):
        # each row's gradient and its value y . g, the one row dot
        G = gradient(Y)
        return G, np.matmul(Y[:, None, :], G[:, :, None])[:, 0, 0]

    step0 = 1.0 / math.sqrt(n)
    work = _L1Work((restarts, n))
    X = _project_l1_rows(np.stack([rng.child(r).normal(n) for r in range(restarts)]), work)
    G, f = priced(X)
    eta = np.full(f.size, step0)
    # X, G, f and eta hold the live rows only; live maps them to restarts,
    # and a row that leaves is written to X_end and f_end
    live = np.arange(f.size)
    X_end, f_end = np.empty_like(X), np.empty_like(f)
    for t in range(1, steps + 1):
        if live.size == 0:
            break
        cand = _project_l1_rows(X + (2.0 * eta)[:, None] * G, work)
        gc, fc = priced(cand)
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
            work = _L1Work(X.shape)
        if t % _JUMP_EVERY == 0:
            rows, cand = _face_jumps(arr, X)
            gc, fc = priced(cand)
            up = fc > f[rows] + 1e-15 * np.abs(f[rows])
            rows = rows[up]
            X[rows], G[rows], f[rows] = cand[up], gc[up], fc[up]
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
            value = max(value, float(x @ (arr @ x) / norm1**2))
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
    not.  ``_w`` is the W the witness was built from, not a copy.

    lambda_min = a + b lambda(W), with lambda(W) the smallest eigenvalue of
    W when b >= 0 and the largest otherwise, is computed by one eigvalsh of
    W on first read and then kept.  feasible reads it only when b >= 0, so
    a witness that is never asked either runs no eigensolve.
    """

    n: int
    c: float
    a: float
    b: float
    A: GramMatrix
    value: float
    _w: np.ndarray = field(repr=False)

    @cached_property
    def lambda_min(self) -> float:
        lam = np.linalg.eigvalsh(self._w)
        return self.a + (self.b * lam[0] if self.b >= 0.0 else self.b * lam[-1])

    @property
    def feasible(self) -> bool:
        return self.b >= 0.0 and bool(self.lambda_min >= 0.0)


def witness_value_closed_form(n: int, c: float) -> float:
    """1 - c/sqrt(n) - c/4, the witness trace value for a = c n^{-3/2}."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 1.0 - c / math.sqrt(n) - c / 4.0


def _check_witness_c(c: float) -> None:
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"c must be finite and positive, got {c!r}")


def piplus_witness(W, c: float) -> WitnessCertificate:
    """Build the shifted-identity point A = a I + b W with a = c n^{-3/2}.

    b solves a n + b n(n-1) = 1, so for 0 < c < sqrt(n) both coefficients are
    positive and ||A||_1 = 1 exactly for a hollow +-1 matrix W; values
    2 < c < 4 keep the witness PSD for large n.  The certificate keeps W
    and runs no eigensolve until its lambda_min is read (WitnessCertificate).
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
    T = shift_to_T(W)
    value = float((T.entries * A).sum())
    return WitnessCertificate(
        n=n, c=c, a=a, b=b,
        A=GramMatrix._wrap(A),
        value=value,
        _w=arr,
    )


def _project_psd_shift(y: np.ndarray, t, d: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Exactly symmetric projection of y onto {Y : Y - t PSD} (eigenvalue
    clipping), written into out and returned; d is scratch for y - t, then
    V diag(lambda+) and P + P^T, and out holds P before the result.

    y and t (an array, or 0.0) must be exactly symmetric, so that eigh gets
    y - t as it stands: it reads only the lower triangle, and (D + D^T)/2
    would return D's own bits.  The gemm's P = V diag(lambda+) V^T is not
    exactly symmetric, so the result is t + (P + P^T)/2.  out must not be
    t; y is read only before out is written.
    """
    np.subtract(y, t, out=d)
    lam, v = np.linalg.eigh(d)
    p = np.matmul(np.multiply(v, np.maximum(lam, 0.0, out=lam), out=d), v.T, out=out)
    np.add(p, p.T, out=d)
    d /= 2.0
    return np.add(t, d, out=out)


_RELAXATION = 1.5  # the ADMM's over-relaxation alpha


def _piplus_admm(t: np.ndarray, tol_gap: float, iter_cap: int):
    """(lower, A, upper, Y, converged): the ADMM of piplus_dual_upper."""
    n = t.shape[0]
    rho, u = 1.0, np.zeros_like(t)
    lower, a_best = 0.0, np.zeros_like(t)  # A = 0 is feasible
    upper, y_best = math.inf, None
    eye = np.eye(n)
    # work buffers for V = Z - U, Y and the Z of this and the last step; W
    # holds V / r, Yhat + U, Y - Z, -U and the check's temporaries; D is the
    # PSD projection's scratch; the prox takes X = V / r as one row, its
    # |X| (then the shrunk row) in xa and its other scratch in prox
    z, z_prev = t.copy(), np.empty_like(t)
    v, y, w, d = (np.empty_like(t) for _ in range(4))
    x, xa = w.reshape(1, n * n), np.empty((1, n * n))
    prox = _L1Work(xa.shape)
    for k in range(1, iter_cap + 1):
        r = 1.0 / rho
        np.subtract(z, u, out=v)
        np.divide(v, r, out=w)
        if np.abs(x, out=xa).sum() > 1.0:
            np.multiply(r, _shrink_rows(x, xa, prox).reshape(n, n), out=y)
            np.subtract(v, y, out=y)
        else:
            y.fill(0.0)  # the exact prox inside the ball
        # W = Yhat + U with Yhat = Z + alpha (Y - Z); the projection reads W
        # before it writes Z, so U = W - Z needs no second sum
        np.subtract(y, z, out=w)
        w *= _RELAXATION
        w += z
        w += u
        z_prev, z = z, _project_psd_shift(w, t, d, z_prev)
        np.subtract(w, z, out=u)
        if k % 10 and k < iter_cap:
            continue
        # the PSD part of -U, in V's buffer
        a = _project_psd_shift(np.negative(u, out=w), 0.0, d, v)
        norm1 = np.abs(a, out=w).sum()
        if norm1 > 0.0 and float(np.multiply(t, a, out=w).sum()) / norm1 > lower:
            a_best = a / norm1
            lower = float(np.multiply(t, a_best, out=w).sum())
        z_max = np.abs(z, out=w).max()
        if z_max < upper:
            zt = np.subtract(z, t, out=w)
            delta = max(0.0, -float(np.linalg.eigvalsh(zt)[0])) + (n + 2) * EPS * (
                np.linalg.norm(zt) + z_max)
            y_c = z + np.multiply(delta, eye, out=w)
            y_max = float(np.abs(y_c, out=w).max())
            if y_max < upper:
                upper, y_best = y_max, y_c
        if upper - lower <= tol_gap:
            return lower, a_best, upper, y_best, True
        # residual balancing on the relative residuals (Z != 0 as T is not NSD)
        res = np.linalg.norm(np.subtract(y, z, out=w)) / max(
            np.linalg.norm(y), np.linalg.norm(z))
        dz, du = np.linalg.norm(np.subtract(z, z_prev, out=w)), np.linalg.norm(u)
        if res > 0.0 and dz > 0.0 and du > 0.0:
            f = min(5.0, max(0.2, math.sqrt(res * du / dz)))
            rho *= f
            u /= f
    return lower, a_best, upper, y_best, False


_TOL_DUAL = 1e-8  # piplus_dual_upper's relative bracket width


def piplus_dual_upper(T, iter_cap: int = 60000) -> BoundReport:
    """Certified bracket [lower, upper] on piplus from its conic dual.

    For Y - T PSD and A PSD with ||A||_1 <= 1, Tr(TA) <= Tr(YA) <= ||Y||_max,
    and min { ||Y||_max : Y - T PSD } equals piplus.  One scaled,
    over-relaxed ADMM run (Boyd et al. 2011, 3.4.3) on min ||Y||_max subject
    to Y = Z, Z - T PSD repeats Y = V - P(V) with V = Z - U and P the
    projection onto the l1 ball of radius 1/rho (the prox of ||.||_max / rho
    by Moreau); W = Yhat + U with Yhat = alpha Y + (1 - alpha) Z, formed as
    Z + alpha (Y - Z), and alpha = _RELAXATION (1.5); Z = the projection of
    W onto {Z - T PSD}; and U = W - Z.  Every 10 iterations it rescales rho
    and U by sqrt(primal / dual relative residual), clipped to [0.2, 5],
    with the unrelaxed Y - Z as the primal residual.  alpha = 1.5 cuts the
    iterations by 20-30% at n = 12..100 (1330 -> 920 on the bench's n = 30
    matrix); 1.6 and above slow the fast runs.  With r = 1/rho, the prox
    forms X = V / r as one row of n^2 entries and tests ||X||_1 > 1 once:
    inside the ball P(V) = V, so Y = 0 exactly, and outside it P(V) = r
    times the l1-ball projection of X, one sort-and-threshold of that row.
    Each run makes one workspace and keeps nothing across calls.  Every
    iteration writes into it: V, X, |X| (then the shrunk row), Y, W,
    D = W - T, V diag(lambda+), P, P + P^T and Z; the prox's sorted
    magnitudes, cumulative sums, criterion and sign, with the 1..n^2 ramp
    made once; and every 10th the check's |A|, T o A, Z - T, Y - Z and
    Z - Z_prev.  Beside the eigensolvers' results, the new arrays are a
    shifted witness and an improved A.  Two Z buffers alternate, as the
    balancing reads the last Z, and rescaling divides U in place.  T,
    Z = T + (P + P^T)/2 and every update are exactly symmetric (the prox,
    the relaxation and the rescaling act entrywise with scalar factors and
    thresholds), so eigh is handed D without symmetrizing it.

    Both ends are certified at every 10th and at the last iteration.  A
    step leaves U = D - D+ with D = W - T, whatever alpha made W, so the
    PSD part A of -U, normalized to ||A||_1 = 1, is feasible: lower =
    Tr(TA) (or 0, A = 0).
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
    lam_max = float(np.linalg.eigvalsh(arr)[-1])
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


def _rho1_structured(W: GramMatrix, rng: Rng) -> tuple:
    """(kappa, rho1 upper report) for T = W - (sqrt(n)/4) I, W from sample_W.

    The subset fraction kappa = k/n: the scan runs k = 2, 3, ... and stops
    at the first size whose max restricted norm
    (max_restricted_norm(W, k, "auto") on rng.child(k), 2000 Monte Carlo
    subsets beyond the exhaustive cap) exceeds sqrt(n)/8, keeping the last
    size that passed, or k = 1 (1x1 blocks of a hollow W have norm 0).

    The bound splits any unit-l1 x into entries of size >= 1/(kappa n) (at
    most kappa n of them, giving the restricted-norm term r) and the rest
    (with ||x_small||_2 <= 1/(kappa sqrt(n))), then maximizes the resulting
    quadratic in xi = ||x_big||_2:

        (r - sqrt(n)/4) xi^2 + (2 ||W||/(kappa sqrt(n))) xi
          + ||W||/(kappa^2 n).

    Since r <= sqrt(n)/8, the leading coefficient is negative.  The bound
    needs r exact only at the chosen k, so it is certified when that size
    was scanned exhaustively and heuristic when its subsets were sampled.
    """
    n = W.n
    root_n = math.sqrt(n)
    target = 0.125 * root_n

    def norm_at(k):
        return max_restricted_norm(W, k, mode="auto", samples=2000, rng=rng.child(k))

    k, est = 1, None
    for size in range(2, n + 1):
        nxt = norm_at(size)
        if nxt.value > target:
            break
        k, est = size, nxt
    if est is None:
        est = norm_at(1)
    kappa = k / n
    lam = np.linalg.eigvalsh(W.entries)
    full = float(max(abs(lam[0]), abs(lam[-1])))
    a1 = 2.0 * full / (kappa * root_n)
    a0 = full / (kappa * kappa * n)
    _, upper = quadratic_vertex_bound(est.value - root_n / 4.0, a1, a0)
    return kappa, BoundReport(
        quantity="rho1", lower=None, upper=upper, method="structured",
        certificate="certified_bound" if est.mode == "exhaustive" else "heuristic",
    )


def _piplus_lower(T, rho1_report: BoundReport,
                  wit: Optional[WitnessCertificate]) -> BoundReport:
    """The better certified piplus lower bound: the shifted-identity witness
    when it beats the rank-one witness of the rho1 search and is feasible.
    Feasibility, one eigvalsh of W, is read only for a witness that wins."""
    rank1 = piplus_rank1_lower(T, rho1_report)
    if wit is not None and wit.value > rank1.lower and wit.feasible:
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
    divides by the split bound of _rho1_structured, whose subset fraction
    kappa is calibrated on this W: certified when the restricted norm at
    kappa n was scanned exhaustively, heuristic when sampled.  That bound
    lies far above the trivial rho1 <= 1 (the largest |T_ij|) at every n
    tried: about 49 at n = 4, 33,000 at n = 512.  The piplus lower bound is
    the better of the shifted-identity witness (when PSD) and the rank-one
    witness taken from the rho1 search: rho1_exact's maximizer in exact
    mode, the best start of a default rho1_multistart (64 restarts of 500
    steps) in structured mode, where the multistart takes most of the time
    at large n.
    A denominator that is not a positive finite number, or a lower bound at
    or below 0, falls back to ratio = 1, which always holds.
    """
    _check_witness_c(c)  # also when n = 1, where no witness is built
    root = Rng(seed)
    W = sample_W(n, root.child(0))
    T = shift_to_T(W)

    kappa = None
    if mode == "exact":
        rho1_rep = rho1_exact(T, n_cap=n_cap)
        rho1_for_rank1 = rho1_rep
    elif mode == "structured":
        rho1_for_rank1 = rho1_multistart(T, rng=root.child(1))
        kappa, rho1_rep = _rho1_structured(W, root.child(2))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    denom = rho1_rep.upper

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
