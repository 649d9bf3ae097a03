import hashlib

import numpy as np
import pytest

from l1gram import AsymmetricMatrixError, GramMatrix, Rng
from l1gram.bounds import _L1Work, _project_l1_rows, _shrink_rows


def project(x):
    """_project_l1_rows on a fresh workspace of x's shape."""
    return _project_l1_rows(x, _L1Work(x.shape))


def project_row(x):
    """The vector x projected as a one-row batch."""
    return project(x[None])[0]


def brute_sphere_projection(x, step=1e-3):
    """Oracle: minimize ||y - x||_2 over a dense grid of the l1 sphere (n=2)."""
    m = int(round(1 / step))
    t = np.arange(m + 1) / m
    best, best_y = np.inf, None
    for sa in (1, -1):
        for sb in (1, -1):
            ys = np.stack([sa * t, sb * (1 - t)], axis=1)
            d = np.linalg.norm(ys - x, axis=1)
            j = int(np.argmin(d))
            if d[j] < best:
                best, best_y = d[j], ys[j]
    return best_y


class TestGramMatrix:
    def test_rejects_asymmetric_input(self):
        with pytest.raises(AsymmetricMatrixError):
            GramMatrix([[1.0, 2.0], [0.5, 1.0]])

    def test_symmetrizes_tiny_asymmetry(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]])
        g = GramMatrix(a)
        assert g.entries[0, 1] == g.entries[1, 0]

    def test_rejects_nonsquare_and_empty(self):
        with pytest.raises(ValueError):
            GramMatrix(np.ones((2, 3)))
        with pytest.raises(ValueError):
            GramMatrix(np.ones((0, 0)))

    def test_entries_read_only(self):
        g = GramMatrix(np.eye(3))
        with pytest.raises(ValueError):
            g.entries[0, 0] = 5.0


class TestProjectL1Rows:
    def test_simple_examples(self):
        assert np.allclose(project_row(np.array([2.0, 0.0])), [1.0, 0.0])
        assert np.allclose(project_row(np.array([0.2, 0.2])), [0.5, 0.5])

    def test_three_one_against_grid_oracle(self):
        x = np.array([3.0, 1.0])
        y = project_row(x)
        assert np.allclose(y, [1.0, 0.0], atol=1e-12)
        oracle = brute_sphere_projection(x)
        assert np.abs(y - oracle).max() <= 2e-3

    def test_random_inputs_against_grid_oracle(self):
        r = Rng(7)
        for t in range(20):
            x = 3.0 * r.normal(2)
            if np.abs(x).sum() == 0.0:
                continue
            y = project_row(x)
            oracle = brute_sphere_projection(x)
            assert np.linalg.norm(y - x) <= np.linalg.norm(oracle - x) + 1e-6

    def test_unit_norm_and_fixed_point(self):
        r = Rng(8)
        for t in range(200):
            x = r.normal(6) * (10.0 ** (t % 5 - 2))
            y = project_row(x)
            assert abs(np.abs(y).sum() - 1.0) <= 1e-12
            y2 = project_row(y)
            assert np.abs(y2 - y).max() <= 1e-12

    def test_zero_vector_rejected(self):
        # also a NaN, an infinity or an l1 norm that overflows, as a
        # one-row batch and as a row of a larger one
        for x in ([0.0, 0.0, 0.0], [1.0, np.nan, 0.5], [1.0, np.inf, 0.5],
                  [-np.inf, 0.0, 0.5], [1e308, -1e308, 0.0]):
            x = np.array(x)
            with np.errstate(over="ignore"), pytest.raises(ValueError):
                project(x[None])
            with np.errstate(over="ignore"), pytest.raises(ValueError):
                project(np.vstack([np.ones(3), x]))

    def test_rows_match_the_vector_projection(self):
        # rows inside the ball, on the sphere, outside it, and with tied
        # magnitudes: every row bit for bit as the row projected alone
        r = Rng(9)
        x = r.normal(12 * 7).reshape(12, 7)
        x[0] *= 1e-3 / np.abs(x[0]).sum()
        x[1] /= np.abs(x[1]).sum()
        x[2] = project_row(x[2])
        x[3] = [0.5, -0.5, 0.5, -0.5, 0.5, 0.0, 0.25]
        x[4] = [2.0, -2.0, 2.0, 1.0, -1.0, 1.0, 0.0]
        x[5] = [0.1, -0.1, 0.1, -0.1, 0.1, -0.1, 0.1]
        x[6:] *= 10.0 ** np.arange(-2, 4)[:, None]
        y = project(x)
        for row, out in zip(x, y):
            assert np.array_equal(out, project_row(row))


# Rows a few ulps outside the unit ball whose pairwise l1 norm exceeds 1
# while their sorted cumulative sum does not: the threshold is negative, so
# each zero entry holds a tiny positive value until its sign of 0 clears it,
# and the row sum before the sign multiply is one ulp larger than after.
NEGATIVE_THRESHOLD_ROWS = [
    [0.00258153889438211, 0.0, 0.14597092593996888, 0.036597582773014475,
     0.003923818154445995, 0.0, 0.07435579466826817, 0.0, 0.0,
     0.03532114822202497, 0.0, 0.0, 0.0, 0.018897637861862313,
     0.04722466650876382, 0.008789104305565485, 0.10558848529770185,
     0.07674898034291044, 0.025905021309203295, 0.04316929067334169,
     0.19060745500281537, 0.04161353889627826, 0.0, 0.003415749725569707,
     0.13928926142388345, 0.0],
    [0.04457525874483028, 0.03898373063400682, 0.03689130372169263, 0.0,
     0.0, 0.0, 0.023272674358156647, 0.11610700154294447,
     0.08236420328164779, 0.07261766031291014, 0.0, 0.0, 0.08864807777462,
     0.0007193469925193223, 0.0015225580869365147, 0.05665965704108762,
     0.04029940099326692, 0.03591319536550011, 0.066612526576529,
     0.014619376013618643, 0.0, 0.0, 0.02743282380531256, 0.0,
     0.04482853640283248, 0.0, 0.0, 0.011173064252630692, 0.0, 0.0,
     0.12637879734437274, 0.0, 0.07038080675458484],
    [0.05036031684983438, 0.250866989158467, 0.01850922877130379,
     0.21338756291719335, 0.10741817259807501, 0.255467182476448, 0.0,
     0.008259588240948976, 0.09573095898772958],
]


def projection_batches():
    """Batches for _project_l1_rows: every row outside the ball, every row
    inside, mixed, and rows with tied magnitudes and signed zeros."""
    r = Rng(31)
    batches = []
    for m, n in [(1, 1), (1, 5), (3, 2), (8, 7), (64, 33), (64, 512), (13, 100)]:
        x = 3.0 * r.normal(m * n).reshape(m, n) + np.sign(r.normal(m * n)).reshape(m, n)
        x[np.abs(x).sum(axis=1) <= 1.0] *= 4.0
        batches.append(x)  # all outside
        inside = x / (np.abs(x).sum(axis=1)[:, None] * (1.5 + r.uniform(m)[:, None]))
        batches.append(inside)  # all inside
        mixed = x.copy()
        mixed[::2] = inside[::2]
        batches.append(mixed)
    ties = np.array([
        [0.5, -0.5, 0.5, -0.5, 0.5, 0.0, 0.25],
        [2.0, -2.0, 2.0, 1.0, -1.0, 1.0, 0.0],
        [0.1, -0.1, 0.1, -0.1, 0.1, -0.1, 0.1],
        [-0.0, 3.0, 0.0, -3.0, -0.0, 0.0, 3.0],
        [-0.0, 0.2, 0.0, -0.2, -0.0, 0.0, 0.2],
        [1.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0],
        [-4.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0],
        [1 / 7, -1 / 7, 1 / 7, -1 / 7, 1 / 7, -1 / 7, 1 / 7],
        [0.25, 0.25, -0.25, 0.25, 0.0, -0.0, 0.0],
    ])
    batches += [ties, ties[ties.shape[0] // 2:], -ties]
    batches += [np.array(row)[None, :] for row in NEGATIVE_THRESHOLD_ROWS]
    edge = np.array(NEGATIVE_THRESHOLD_ROWS[0])[None, :]
    batches.append(np.vstack([edge, 2.0 * edge, 0.5 * edge]))
    return batches


# SHA-256 of the shape and output bytes of every batch, recorded before the
# projection's bookkeeping was trimmed
FROZEN_PROJECTION = (
    "be30d99ad369b106394d9b06ef5b1fad2d477dba26e1725011e3bffd658c88df")


def projection_digest():
    h = hashlib.sha256()
    for x in projection_batches():
        y = project(x)
        h.update(repr(y.shape).encode())
        h.update(y.tobytes())
    return h.hexdigest()


def test_project_rows_frozen_digest():
    assert projection_digest() == FROZEN_PROJECTION


def admm_sized_vectors():
    """Vectors of the ADMM's n^2 lengths, 144 (n = 12) and 900 (n = 30):
    outside the ball, inside it, with tied magnitudes, with signed zeros, and
    an ulp outside the ball with a negative threshold."""
    r = Rng(32)
    vectors = []
    for n, seed in ((144, 7), (900, 2)):
        x = 3.0 * r.normal(n)
        ties = np.round(x)
        ties[ties == 0.0] = -0.0
        zeros = x.copy()
        zeros[::3], zeros[1::3] = 0.0, -0.0
        edge = Rng(seed).uniform(n)
        edge[::4] = 0.0
        edge /= edge.sum()
        edge *= 1.0 + np.finfo(np.float64).eps
        # the row sum is above 1, the sorted cumulative sum below it
        assert edge.sum() > 1.0 > np.cumsum(np.sort(edge)[::-1])[-1]
        vectors += [x, x / (2.0 * np.abs(x).sum()), ties, zeros, edge, -edge]
    return vectors


def vector_family(family):
    """One-row batches: the ADMM-sized vectors, or every row of the batches."""
    if family == "admm":
        return [x[None] for x in admm_sized_vectors()]
    return [row[None] for batch in projection_batches() for row in batch]


def family_batches(family):
    """The ADMM-sized vectors stacked by length, or the batches themselves."""
    if family == "admm":
        vectors = admm_sized_vectors()
        return [np.stack([x for x in vectors if x.size == n]) for n in (144, 900)]
    return projection_batches()


@pytest.mark.parametrize("family", ["admm", "batches"])
def test_project_vector_matches_its_single_row(family):
    # each row of a batch, signed zeros included, must come out with the
    # bytes of the same vector projected alone as a one-row batch
    for x in family_batches(family):
        y = project(x)
        for row, out in zip(x, y):
            assert out.tobytes() == project_row(row).tobytes()


def stale_work(shape):
    """An _L1Work whose scratch holds NaN (and True in the mask), so that a
    read before a write shows in the output bytes."""
    work = _L1Work(shape)
    for name in ("srt", "cumsum", "crit", "sign"):
        getattr(work, name).fill(np.nan)
    work.mask.fill(True)
    return work


@pytest.mark.parametrize("family", ["admm", "batches"])
def test_project_with_stale_workspace_matches_a_fresh_one(family):
    # the multistart reuses one workspace across steps, and the dual's prox
    # hands a row outside the ball straight to _shrink_rows on one; the
    # bytes, signed zeros included, must be those of a fresh workspace, and
    # x must come back untouched
    for x in vector_family(family):
        before = x.tobytes()
        y = _project_l1_rows(x, stale_work(x.shape))
        assert y.tobytes() == project(x).tobytes()
        if np.abs(x).sum() > 1.0:
            shrunk = _shrink_rows(x, np.abs(x), stale_work(x.shape))
            assert shrunk.tobytes() == y.tobytes()
        assert x.tobytes() == before


def test_project_batches_with_stale_workspace_match_a_fresh_one():
    # every row outside the ball, every row inside, and mixed batches, whose
    # inside rows are shrunk and then overwritten
    for x in projection_batches():
        before = x.tobytes()
        y = _project_l1_rows(x, stale_work(x.shape))
        assert y.tobytes() == project(x).tobytes()
        assert x.tobytes() == before


@pytest.mark.parametrize("family", ["admm", "batches"])
def test_project_result_is_owned_by_the_caller(family):
    # the multistart keeps X while it projects the next candidate on the
    # same workspace: a second projection must leave the first result as it
    # was, for one-row batches and for larger batches of one shape
    if family == "admm":
        pairs = [(x, -2.0 * x) for x in vector_family("admm")]
    else:
        batches = projection_batches()
        pairs = [(x, z) for x, z in zip(batches, batches[1:]) if x.shape == z.shape]
    assert len(pairs) >= 10
    for x, z in pairs:
        work = _L1Work(x.shape)
        y = _project_l1_rows(x, work)
        first = y.tobytes()
        assert not np.shares_memory(y, x)
        _project_l1_rows(z, work)
        assert y.tobytes() == first
