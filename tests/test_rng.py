import numpy as np
import pytest

from l1gram import Rng, sample_W


def test_equal_seeds_give_bit_identical_streams():
    a, b = Rng(123456789), Rng(123456789)
    assert np.array_equal(a.u64(100), b.u64(100))
    assert np.array_equal(a.uniform(50), b.uniform(50))
    assert np.array_equal(a.normal(51), b.normal(51))
    assert np.array_equal(a.rademacher(64), b.rademacher(64))


def test_known_stream_values_frozen():
    # splitmix64 outputs for seed 0: mix64(1*gamma), mix64(2*gamma), ...
    got = Rng(0).u64(3)
    assert list(got) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_counter_advances_and_slices_agree():
    whole = Rng(7).u64(10)
    r = Rng(7)
    first, second = r.u64(4), r.u64(6)
    assert np.array_equal(whole, np.concatenate([first, second]))


def test_uniform_range_and_normal_moments():
    u = Rng(11).uniform(20000)
    assert u.min() >= 0.0 and u.max() < 1.0
    z = Rng(11).normal(200001)  # odd count exercises the pairing
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_rademacher_values_and_balance():
    v = Rng(3).rademacher(10000)
    assert set(np.unique(v)) == {-1.0, 1.0}
    assert abs(v.mean()) < 0.05


def test_child_streams_deterministic_and_distinct():
    r = Rng(99)
    c0, c0b = r.child(0), Rng(99).child(0)
    assert np.array_equal(c0.u64(10), c0b.u64(10))
    assert not np.array_equal(Rng(99).child(1).u64(10), Rng(99).child(2).u64(10))
    with pytest.raises(ValueError):
        r.child(-1)


def test_integers_in_range():
    v = Rng(5).integers(7, 1000)
    assert v.min() >= 0 and v.max() < 7
    with pytest.raises(ValueError):
        Rng(5).integers(0, 3)


def test_subset_is_sorted_unique_in_range():
    r = Rng(17)
    for _ in range(50):
        s = r.subset(20, 6)
        assert len(set(s.tolist())) == 6
        assert list(s) == sorted(s)
        assert s.min() >= 0 and s.max() < 20


def _sequential_fisher_yates(rng, n, k):
    # one word per swap, drawn per call: the stream contract of subset/permutation
    pool = list(range(n))
    for j, w in enumerate(rng.u64(k)):
        r = j + int(w) % (n - j)
        pool[j], pool[r] = pool[r], pool[j]
    return pool[:k]


@pytest.mark.parametrize("n, k, count", [(20, 6, 50), (1000, 3, 150), (7, 7, 3),
                                         (5, 0, 4), (9, 4, 0)])
def test_subsets_rows_equal_sequential_subset_calls(n, k, count):
    batch, seq, ref = Rng(31), Rng(31), Rng(31)
    rows = batch.subsets(n, k, count)
    assert rows.shape == (count, k)
    for row in rows:
        assert np.array_equal(row, seq.subset(n, k))
        assert row.tolist() == sorted(_sequential_fisher_yates(ref, n, k))
    assert batch.counter == seq.counter == ref.counter == count * k


def test_permutation_is_the_full_fisher_yates_shuffle():
    for n in (1, 2, 10, 400):
        r, ref = Rng(n), Rng(n)
        perm = r.permutation(n)
        assert perm.tolist() == _sequential_fisher_yates(ref, n, n)
        assert sorted(perm.tolist()) == list(range(n))
        assert r.counter == n


def test_subsets_argument_checks():
    with pytest.raises(ValueError):
        Rng(1).subsets(3, 4, 1)
    with pytest.raises(ValueError):
        Rng(1).subsets(3, 2, -1)


def test_w_entry_mean_over_many_seeds():
    # Rademacher mean of the (0, 1) entry across seeds
    vals = [sample_W(3, Rng(s)).entries[0, 1] for s in range(10000)]
    assert abs(np.mean(vals)) <= 0.05
