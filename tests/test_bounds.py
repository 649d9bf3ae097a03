import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

import l1gram
from l1gram import (
    BoundReport,
    GramMatrix,
    Rng,
    build_T,
    certify_ratio,
    max_restricted_norm,
    piplus_dual_upper,
    piplus_rank1_lower,
    piplus_witness,
    quadratic_vertex_bound,
    rho1_exact,
    rho1_multistart,
    sample_W,
    sample_wishart,
    shift_to_T,
    witness_value_closed_form,
)

from l1gram import bounds as bounds_mod
from l1gram.bounds import _piplus_admm

OFFDIAG = GramMatrix([[0.0, 1.0], [1.0, 0.0]])


def grid_rho1(arr, step=1e-3):
    """Oracle: dense grid over the l1 sphere, n <= 3."""
    n = arr.shape[0]
    m = int(round(1 / step))
    if n == 1:
        return max(0.0, float(arr[0, 0]))
    if n == 2:
        t = np.arange(m + 1) / m
        pts = np.stack([t, 1 - t], axis=1)
        sign_sets = [(1, 1), (1, -1)]
    else:
        i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
        mask = i + j <= m
        a, b = i[mask] / m, j[mask] / m
        pts = np.stack([a, b, 1 - a - b], axis=1)
        sign_sets = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
    best = 0.0
    for s in sign_sets:
        x = pts * np.array(s)
        best = max(best, float(np.einsum("ki,ij,kj->k", x, arr, x).max()))
    return best


def random_symmetric(n, seed):
    g = Rng(seed).normal(n * n).reshape(n, n)
    return GramMatrix((g + g.T) / 2)


class TestRho1Exact:
    def test_identity_families(self):
        for n in (1, 2, 4):
            rep = rho1_exact(GramMatrix(np.eye(n)))
            assert rep.lower == rep.upper == pytest.approx(1.0, abs=1e-12)
            assert rep.certificate == "exact"

    def test_offdiagonal_half(self):
        rep = rho1_exact(OFFDIAG)
        assert rep.upper == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(np.abs(rep.witness), [0.5, 0.5], atol=1e-10)

    def test_diag_two_minus_one(self):
        rep = rho1_exact(GramMatrix(np.diag([2.0, -1.0])))
        assert rep.upper == pytest.approx(2.0, abs=1e-12)

    def test_negative_definite_is_zero(self):
        rep = rho1_exact(GramMatrix(-np.eye(3) - 0.5 * np.ones((3, 3))))
        assert rep.upper == 0.0

    def test_grid_agreement_small_n(self):
        for t in range(15):
            n = 2 + t % 2
            A = random_symmetric(n, 500 + t)
            ex = rho1_exact(A).upper
            gr = grid_rho1(A.entries)
            assert gr <= ex + 1e-9
            assert abs(ex - gr) <= 1e-3

    def test_singular_patterns_skipped_all_ones(self):
        rep = rho1_exact(GramMatrix(np.ones((5, 5))))
        assert rep.upper == pytest.approx(1.0, abs=1e-12)

    def test_cap_refusal(self):
        with pytest.raises(ValueError, match="multistart"):
            rho1_exact(GramMatrix(np.eye(13)))

    def test_scale_covariance(self):
        A = random_symmetric(5, 123)
        base = rho1_exact(A)
        for alpha in (0.25, 3.0, 17.5):
            scaled = rho1_exact(GramMatrix(alpha * A.entries))
            assert scaled.upper == pytest.approx(alpha * base.upper, rel=1e-12)
            # same support and the same signs up to one global flip
            x, y = base.witness, scaled.witness
            support = np.abs(x) > 1e-12 * np.abs(x).max()
            assert np.array_equal(np.abs(y) > 1e-12 * np.abs(y).max(), support)
            sx, sy = np.sign(x[support]), np.sign(y[support])
            assert np.array_equal(sx * sx[0], sy * sy[0])

    def test_pattern_failing_the_pair_test_is_not_priced(self):
        # the face on {1, 3, 4, 5, 6} (signs + + - - -) fails the pair test;
        # its stationary point, with weights of order 1e-17 on three members,
        # prices at 0.5 + 2 ulp against the true maximum 0.5
        A = GramMatrix([[0, 0, 1, -1, 1, 0, -1], [0, -1, 0, -1, 0, -1, 0],
                        [1, 0, 0, 1, 0, 0, 0], [-1, -1, 1, 0, 1, -1, 0],
                        [1, 0, 0, 1, -1, 1, 0], [0, -1, 0, -1, 1, 0, 1],
                        [-1, 0, 0, 0, 0, 1, 0]])
        rep = rho1_exact(A)
        assert rep.upper == 0.5
        assert np.array_equal(rep.witness, [0.5, 0, 0.5, 0, 0, 0, 0])

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_zero_matrix_prices_every_pattern_once(self, n, monkeypatch):
        # every pair of the zero matrix is exactly flat with a zero margin, so
        # the pair test keeps all (3^n - 1)/2 patterns, each once and none on
        # more than n indices; all are singular, so each slice's first solve
        # gets every pattern of the slice and raises
        solve, rows = np.linalg.solve, []

        def counted(a, b):
            assert a.shape[-1] <= n
            rows.append(b.shape[0])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        rep = rho1_exact(GramMatrix(np.zeros((n, n))))
        assert rep.upper == 0.0
        assert sum(rows) == (3 ** n - 1) // 2

    def test_witness_achieves_value(self):
        A = random_symmetric(6, 321)
        rep = rho1_exact(A)
        x = rep.witness
        assert abs(np.abs(x).sum() - 1.0) <= 1e-9 or rep.upper == 0.0
        assert float(x @ A.entries @ x) == pytest.approx(rep.upper, rel=1e-9)


def _largest_balanced_set(W):
    """Brute force over bitmasks: the size of the largest index set on which
    every triangle of the +-1 matrix W has a positive product."""
    n = W.shape[0]
    masks = np.arange(1 << n)
    ok = np.ones(masks.size, dtype=bool)
    for a, b, c in combinations(range(n), 3):
        if W[a, b] * W[b, c] * W[a, c] < 0.0:
            t = (1 << a) | (1 << b) | (1 << c)
            ok &= (masks & t) != t
    sizes = sum((masks >> i) & 1 for i in range(n))
    return int(sizes[ok].max())


@pytest.mark.parametrize("n", range(2, 16))
def test_shifted_W_matches_the_balanced_set_oracle(n):
    # For T = -(sqrt(n)/4) I + W and n <= 15 the pair test keeps only
    # patterns on which W is switching-equivalent to J - I, and the best of
    # them is the uniform point on the largest one: 1 - (1 + sqrt(n)/4)/omega
    for seed in range(4):
        W = sample_W(n, Rng(100 * n + seed))
        omega = _largest_balanced_set(W.entries)
        expected = max(0.0, 1.0 - (1.0 + math.sqrt(n) / 4.0) / omega)
        rep = rho1_exact(shift_to_T(W), n_cap=15)
        assert abs(rep.upper - expected) <= 1e-14


@pytest.mark.parametrize("k", range(2, 13))
def test_sign_flip_solve_identity(k):
    # rho1_exact prices D S D through S: solve(D S D, 1) = s * solve(S, s)
    # must hold bit for bit, one single right-hand side per sign row
    S = build_T(12, Rng(77)).entries[:k, :k]
    signs = np.array([(1.0,) + t for t in product((1.0, -1.0), repeat=k - 1)])
    flipped = np.linalg.solve(signs[:, :, None] * signs[:, None, :] * S,
                              np.ones((len(signs), k, 1)))
    through_S = signs * np.linalg.solve(
        np.broadcast_to(S, (len(signs), k, k)), signs[:, :, None])[..., 0]
    assert np.array_equal(flipped[..., 0], through_S)


def _last_sign_block(k):
    """s s^T - I for s = (1, -1, ..., -1): its balanced pattern has the
    largest sign index of its support."""
    s = -np.ones(k)
    s[0] = 1.0
    return np.outer(s, s) - np.eye(k)


def _rank2_psd(n, seed):
    g = Rng(seed).normal(2 * n).reshape(n, 2)
    return GramMatrix(g @ g.T)


# Every rho1_exact code path: regular supports at n = 1..12 (slice
# boundaries at every support size), supports that are all singular
# (all-ones), singular and regular supports mixed in one slice (rank 2), and
# the zero matrix (no candidate beats the floor).  The pair-curvature test
# keeps every pattern of the zero matrix and of -I + W, none but the
# vertices of a Wishart matrix or the identity, and the exactly flat pairs
# of small-integer and rank-one matrices.  On ties4 two sign patterns of one
# size tie for the maximum, so the witness pins the order they are priced
# in; lastslice12 has its only maximizer in the last pattern of a size that
# spans several stacked solves.
FROZEN_RHO1_INPUTS = {
    **{f"gauss{n}": (lambda n=n: random_symmetric(n, 1000 + n))
       for n in range(1, 13)},
    **{f"T{n}": (lambda n=n: build_T(n, Rng(2000 + n))) for n in range(2, 13)},
    **{f"W{n}": (lambda n=n: sample_W(n, Rng(3000 + n))) for n in range(2, 13)},
    "ones5": lambda: GramMatrix(np.ones((5, 5))),
    "ones12": lambda: GramMatrix(np.ones((12, 12))),
    "rank2psd10": lambda: _rank2_psd(10, 4010),
    "zero3": lambda: GramMatrix(np.zeros((3, 3))),
    "zero12": lambda: GramMatrix(np.zeros((12, 12))),
    "negI_W12": lambda: GramMatrix(-np.eye(12) + sample_W(12, Rng(4012)).entries),
    "negdef6": lambda: GramMatrix(-np.eye(6) - 0.5 * np.ones((6, 6))),
    "intgauss8": lambda: GramMatrix(np.round(2 * random_symmetric(8, 4108).entries)),
    "intgauss12": lambda: GramMatrix(np.round(2 * random_symmetric(12, 4112).entries)),
    "rank1_8": lambda: GramMatrix(np.outer(np.arange(1.0, 9.0), np.arange(1.0, 9.0))),
    "wishart12": lambda: sample_wishart(12, Rng(4212)),
    "eye12": lambda: GramMatrix(np.eye(12)),
    "ties4": lambda: GramMatrix(
        [[-1.0, 0.0, 1.0, 1.0], [0.0, -1.0, -1.0, 1.0], [1.0, -1.0, 0.0, 0.0],
         [1.0, 1.0, 0.0, 0.0]]),
    "lastslice12": lambda: GramMatrix(
        -np.eye(12) + np.pad(_last_sign_block(6), (6, 0))),
}
FROZEN_RHO1 = {
    "T10":
        "8bc4ac33b0ae915ff7b62b652b1f035f2a1d1280b69e1852e21f3fe5f4aca521",
    "T11":
        "f181a2e19fa83f9a6517752017a72dea78a9073558595d8df89d5100cd58ef78",
    "T12":
        "c7b1462884cc103848e37edb8567ac60668ab098a0612c69023747b769f24143",
    "T2":
        "8d2294503fbc8af9061787bbf6805846f43d09b8fd53f9fa4ba940219524e686",
    "T3":
        "a3b6c05cdc338cea8d1fc746f27534bcec269794a83c014ffbb6a9916508bf99",
    "T4":
        "9419f931751bb3ff91ecb1df40f81db490cc9f5f9b720e07020c91a3f389b59c",
    "T5":
        "c0ecd019e5d7eaf3afedc57a5e768a88e11d246cc6da33145f55d456bf1addd3",
    "T6":
        "9c443c84bd0ded3a7a8e54ddf3ee8fa999bb5e79ab62c510bf3fa91929bedbb8",
    "T7":
        "6bbb1f7a04bad1dfc7f96a95d82e7b7a710e48cd64e1b0f80208eb2e8d0bf971",
    "T8":
        "5ee05572a1c463c796492330fafdb5ecb6253782e99165137ca5f9e4581339bf",
    "T9":
        "b2cd5d2e1012e07262656398e608875a09041a75b05e15f8136c041c169a2478",
    "W10":
        "bbf246bb4dba8823e1a09630100b8a6d0c48893b2b687e4c5e0f20a647b4b803",
    "W11":
        "7e757b997e20d9ba4df5d8ba85474d6e5bf1a53302b16f5de899a766a5bc4046",
    "W12":
        "e839123bd918d36bd752ba41a21de340c65f8a46ba3ee0ac350c312d545076a7",
    "W2":
        "18bbc0b4e318feea5036647ca02d8eb162810b678e3474d489fd5657aa6dcdfe",
    "W3":
        "ddc69a58e3cecf9526ef5bb4b7a6ac23d6e74aa5f9a6a7e60c578c3f76807a7d",
    "W4":
        "99763cfebb47325acb7f61c132ceee7baf1cfa15fb9168aa5be51832640037a8",
    "W5":
        "cfc0338328f09af270d846619c30d8f45ad406eb2efe1a6ec1183b5091e054ec",
    "W6":
        "4ae67e4623bbf689f7871b0a4a2aa17f236c73ddb9602182528e6f970e83dfd7",
    "W7":
        "875d906e465e81d6684dd80cd10ea283ad05337d88c8b4eb48a7eac7dd9ee6c3",
    "W8":
        "c82b4e016284dc70f209b279c6481924ef4fdb37af39eefc65cb0e4ffec654fc",
    "W9":
        "45ac5dd95ef0b48408f49f4e105245c14a5c1ff047d50c8b9aa7a0cf02220f12",
    "eye12":
        "0758f001b1bcbd0058be30ccacf4428b4d1c322bca7e2a59c332910fb68319b1",
    "gauss1":
        "aeb68617492933423c27bc9132a3a21c98e7f1c4d972ce871575d1992eac90d4",
    "gauss10":
        "6d2a6dfc8331e31a24308f820a2c4205808ffa0af9bff40e35fa8806104aa7bc",
    "gauss11":
        "7f91cca4e4fedc3567800ca231c3b70f8175e043a2b87641ecf116d80f8668a3",
    "gauss12":
        "d2f75bf061fbc1bda8dbfaeb70caea24cc449b8354dbb77d52fcc2bccb917495",
    "gauss2":
        "2dab27fdd8ee49f30f87bb83f976e97f16c615e124069bfd253ece0fe5fc442f",
    "gauss3":
        "b3975bfa1f6e1259963db2225881334882cd69303a9f344ad0136c98f489082d",
    "gauss4":
        "d3b1bd37f380ec4e444bd4b13f5a2e66dc61d9d91a23202ec244e92910baf2a4",
    "gauss5":
        "55e88a5f4f816cf6cf3d16da743a515fc32eaa3705bc6368ecc523c555746e06",
    "gauss6":
        "416ab1040f3f60bdcc10bc84e50897836c1151aff755873b7588534a4d91a7a4",
    "gauss7":
        "96e131b561c43d0ebba676d1eb0483b4cb900fe4555b9aa8d5c36768998e39c6",
    "gauss8":
        "cc0c8fb86f5770ad5137c05903a270b0e8a831a099517bbc55637285bbc652f7",
    "gauss9":
        "78aec82d57af00a6e55edd6efe36dc02c00ce29a65c4fa70c814e26b215c5029",
    "intgauss12":
        "0b85342165f5deecd0e1583fec497095d750345fd74df64b49842cb45b0a296d",
    "intgauss8":
        "3700a770944d2d9698b6099a6cc246ae32b34a9f974f00971f4cf2ceb852354c",
    "lastslice12":
        "fa2cbcda4a08e2f9ae1b41bffd023d5c6066af09f037c606b68b250ff81f30ee",
    "negI_W12":
        "82c8d574730b92c5936b87bdc0983d9ea2ede5dd3b9752320b49caf07dfc3220",
    "negdef6":
        "7b8525a9f3ef9ae7ebcc207cbee6efd7921cc13d0a4da3c2a54ee462fe434cc4",
    "ones12":
        "0758f001b1bcbd0058be30ccacf4428b4d1c322bca7e2a59c332910fb68319b1",
    "ones5":
        "53da6655018a6ed252f945e16e7c534609feac059ac229304c98d4ddaa9a14d4",
    "rank1_8":
        "73ec6bc88bbf4eef646c21018e7a17df1c477e45b089d7caaa94bba1e857cc18",
    "rank2psd10":
        "47deab36372249c7aef0fb7371d275e6f6961d1e320d9a608a5aba609c671777",
    "ties4":
        "369e990f29e09d604d955793f278ca4bd6320c3d7f5009db6090fdc3c7e74802",
    "wishart12":
        "915a53c39074bf608d7b3fcdd1bb7856fc980ade125ce4846e4820ce62c76145",
    "zero12":
        "6c93cc4f534911a7425d719e68d409c60d65514db7df130a8e4fc3ffe17d89a2",
    "zero3":
        "743721fe9a550a339e476ccf7d50dc6a6c07007da354034fb95eb151f5102776",
}


class TestRho1ExactFrozen:
    """SHA-256 of repr(value) and the witness bytes, recorded before the
    supports of one size were stacked into shared solves (the zero12 to
    lastslice12 entries: before only the patterns passing the pair test
    were priced)."""

    @pytest.mark.parametrize("key", sorted(FROZEN_RHO1_INPUTS))
    def test_digest(self, key):
        rep = rho1_exact(FROZEN_RHO1_INPUTS[key]())
        h = hashlib.sha256(repr(rep.upper).encode())
        h.update(rep.witness.tobytes())
        assert h.hexdigest() == FROZEN_RHO1[key]


# Ascent paths of every kind: Gaussian and build_T inputs of every size up
# to 40, ties (identity, all-ones, rank one), the 0 floor (-I, zero), and a
# Wishart and a hollow W at the sizes the experiment suites use.
MULTISTART_FAMILIES = {
    "gauss": lambda: [random_symmetric(n, 5000 + n) for n in range(1, 41)],
    "T": lambda: [build_T(n, Rng(6000 + n)) for n in range(1, 41)],
    "special": lambda: [
        GramMatrix(np.eye(6)),
        GramMatrix(-np.eye(6)),
        GramMatrix(np.ones((6, 6))),
        GramMatrix(np.outer(np.arange(1.0, 9.0), np.arange(1.0, 9.0))),
        GramMatrix(np.zeros((4, 4))),
        sample_wishart(60, Rng(7060)),
        sample_W(64, Rng(7064)),
    ],
}
MULTISTART_RUNS = {
    "64x500": dict(restarts=64, steps=500),
    "7x50": dict(restarts=7, steps=50),
    "1x0": dict(restarts=1, steps=0),
    "16x1": dict(restarts=16, steps=1),
}


def multistart_digest(family, run):
    h = hashlib.sha256()
    for i, A in enumerate(MULTISTART_FAMILIES[family]()):
        rep = rho1_multistart(A, rng=Rng(8000 + i), **MULTISTART_RUNS[run])
        h.update(repr(rep.lower).encode())
        h.update(rep.witness.tobytes())
    return h.hexdigest()


FROZEN_MULTISTART = {
    # re-recorded when the gradient became 8-row gemm blocks against a
    # 32-padded T, and the runs of 25 steps or more again when the face
    # jumps came in (16x1 and 1x0 make no jump and kept their bytes); each
    # moved entry keeps its old digests in comments
    # was 6796193605a0c328137f20b627dc6d39d25f45d92d73e010e0e12598c9139a3a
    "T-16x1":
        "af5b7ed02aa4368abb8f227cb63e65f48528d6ce6f2ef4e75790ce6290675a80",
    # was b98892bddc8e7d0517465b786f2488619d566277a9c7e19a3916de96597aa521
    "T-1x0":
        "51dd175ec71aaf828e8af52babed8b22f6909d4bff8bfcc18f1b831729d090f2",
    # was f2ddc0b09dbfbfeaae34c8fae930c826c027e43bc3f56b0027cab945c3691ad2 (before the gemm blocks)
    # was cdaa5fe56149db42057a710cd3ba32456bdc33e944e5719eea4846577ee6ef78 (before the face jumps)
    "T-64x500":
        "25fb330b8dbec831138d60aabe4ac05957382fbd12cf328e91d602ca3da64a04",
    # was b0abe5deeeabeca995639789ecc5982d11c6f648c4e05f1edabe04987876538c (before the gemm blocks)
    # was 75e65787e6083bcab5ea36902613c401dbbdbe43e3203a7ed40b364fdb198dae (before the face jumps)
    "T-7x50":
        "9c6d01ecfc0415f67b647ddccddf97152e2bd24d44a554f9c8c03ab933affebe",
    # was 7acd004aeae4b805a005958d108ee62d3457be2abe4662b37be7b9d1b63fdcef
    "gauss-16x1":
        "0a6281829bca81ca622677fde30321f99215cc5c250a79fe7649a33f44dbb958",
    # was 4a5eb8a8767602ab887ee3515dcd9e2059aa2e6b90415e1262bf9326d6b0b218
    "gauss-1x0":
        "b2aef487fed59041bfb442fe0c9cd5cd0ec5cf57f65be61ed9ac68477523238c",
    # was b951a08815b2c151b0f7c4e35d315dbc92e30c660eba0494438f5f2958730d7c (before the gemm blocks)
    # was d735f52302542c39c3cdc101881c7685e41f0bda00e7ade67fdc6aa36ebbdaa7 (before the face jumps)
    "gauss-64x500":
        "e071f163ea27140b9504245de02eb033328ad20da40f83ea68f8fe19549e7fd3",
    # was eef896969ae0e3f72246b091ddb8ba1dfe304d9cb6845ff8315194141d3da9a5 (before the gemm blocks)
    # was 6c37fb091c99f93004a8b22ab51ac37e947f54dd37dd5162b4f70233b2e058b7 (before the face jumps)
    "gauss-7x50":
        "90fbf2acbb17deb93a8f5fc518240fa1d63929e44d03ab30322f0a33dceeaccc",
    "special-16x1":
        "6eda21390c9fa2b03dc516d6887d5fdaafda1474533f7b1a7ff0cdbd00aea78b",
    # was e7a4f244e8105c8d86e559f05c938355f6de426aed8bddd934b89f8ad9496342
    "special-1x0":
        "2b59fc69cf3870d54cd640f51bdc6a4098aa41b198554f797e98a9a82ab3706d",
    # was 29583be111c9cfb5c58d840224ffd0ae636cfec09d6c91794b5e47115f4eb274 (before the gemm blocks)
    # was 8395a8064d6ddcc23bedfb540ebd041604df5a9aec6454bbacabd37eed6283e0 (before the face jumps)
    "special-64x500":
        "12d4fde8d01e47a4b3d6c7ba339147b02c46d6b478e364e64687c06021375476",
    # was 7bffea7e936529217d2e64564a39a8322b6ed05e03633b88f4bd05d588f37105 (before the gemm blocks)
    # was 66ca2f2ee151093795510a2a08c422120bb545ef4a147d27fd328264b6dcbc4e (before the face jumps)
    "special-7x50":
        "4e09ab7a725e3b24c42a31ba9f9e92a64409d0a229aca630bdf81a9a458b208e",
}


class TestRho1MultistartFrozen:
    """SHA-256 of repr(value) and the witness bytes over each family,
    recorded while the restarts still ran one after another (all but
    special-16x1 re-recorded for the blocked gemm gradient, and the 64x500
    and 7x50 runs again for the face jumps)."""

    @pytest.mark.parametrize("run", sorted(MULTISTART_RUNS))
    @pytest.mark.parametrize("family", sorted(MULTISTART_FAMILIES))
    def test_digest(self, family, run):
        assert multistart_digest(family, run) == FROZEN_MULTISTART[f"{family}-{run}"]


class TestRho1Multistart:
    def test_identity_five(self):
        rep = rho1_multistart(GramMatrix(np.eye(5)), restarts=10, rng=Rng(1))
        assert rep.lower == pytest.approx(1.0, abs=1e-6)
        assert rep.certificate == "heuristic"

    def test_never_exceeds_exact_and_mostly_matches(self):
        hits = 0
        trials = 40
        for t in range(trials):
            n = 4 + t % 7
            A = random_symmetric(n, 700 + t)
            ex = rho1_exact(A).upper
            ms = rho1_multistart(A, restarts=64, steps=500, rng=Rng(900 + t))
            assert ms.lower <= ex + 1e-9
            if abs(ms.lower - ex) <= 1e-6:
                hits += 1
        assert hits >= 0.95 * trials

    def test_blas_threads_leave_digest_unchanged(self):
        # unpadded 8-row gemm blocks changed bits with the OpenBLAS thread
        # count at n = 400 and 513; 2J steps make two rounds of face jumps,
        # whose stacked solves and candidate gemm must keep the bits too
        code = (
            "import hashlib\n"
            "from l1gram import Rng, build_T, rho1_multistart\n"
            "from l1gram.bounds import _JUMP_EVERY\n"
            "h = hashlib.sha256()\n"
            "for n in (400, 513):\n"
            "    for restarts in (16, 64):\n"
            "        rep = rho1_multistart(build_T(n, Rng(n)), restarts=restarts,"
            " steps=2 * _JUMP_EVERY, rng=Rng(n))\n"
            "        h.update(repr(rep.lower).encode())\n"
            "        h.update(rep.witness.tobytes())\n"
            "print(h.hexdigest())\n"
        )
        # run from the directory that holds the imported package, so the
        # child imports the same l1gram
        digests = [
            subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True,
                           cwd=Path(l1gram.__file__).parents[1],
                           env=dict(os.environ, OPENBLAS_NUM_THREADS=threads)
                           ).stdout
            for threads in ("1", "2", "4")
        ]
        assert digests[0] == digests[1] == digests[2]

    def test_requires_rng(self):
        with pytest.raises(TypeError):
            rho1_multistart(GramMatrix(np.eye(2)))

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="steps"):
            rho1_multistart(GramMatrix(np.eye(2)), steps=-1, rng=Rng(1))


def no_jumps(arr, X):
    return np.arange(0), np.zeros((0, X.shape[1]))


class TestFaceJumps:
    """The face jump that rho1_multistart makes every _JUMP_EVERY steps."""

    def test_accepted_jump_never_lowers_a_row(self, monkeypatch):
        # with steps = J the only jump comes after the last step, so each
        # one-restart run ends on its row as the jump left it, and the same
        # run with no candidates ends on the row as it stood before the jump
        T = build_T(40, Rng(3))
        steps = bounds_mod._JUMP_EVERY
        jumped = [rho1_multistart(T, restarts=1, steps=steps, rng=Rng(r))
                  for r in range(24)]
        monkeypatch.setattr(bounds_mod, "_face_jumps", no_jumps)
        before = [rho1_multistart(T, restarts=1, steps=steps, rng=Rng(r))
                  for r in range(24)]
        assert all(j.lower >= b.lower for j, b in zip(jumped, before))
        assert sum(j.lower > b.lower for j, b in zip(jumped, before)) >= 12

    def test_worse_candidate_is_refused(self, monkeypatch):
        # a vertex on T's diagonal (-sqrt(n)/4 < 0) is worse than every
        # ascended row, so each is refused and the run keeps the bytes of a
        # run whose jumps find no candidate
        T = build_T(40, Rng(3))

        def vertex(arr, X):
            C = np.zeros_like(X)
            C[:, 0] = 1.0
            return np.arange(X.shape[0]), C

        runs = []
        for jumps in (vertex, no_jumps):
            monkeypatch.setattr(bounds_mod, "_face_jumps", jumps)
            rep = rho1_multistart(T, restarts=16, steps=4 * bounds_mod._JUMP_EVERY,
                                  rng=Rng(5))
            runs.append((repr(rep.lower), rep.witness.tobytes()))
        assert runs[0] == runs[1]

    def test_saddle_of_a_face_is_refused(self):
        # on I the stationary point of the face {0, 1} is its minimum along
        # e_0 - e_1, on -I its maximum; a vertex always passes
        X = np.array([[0.5, 0.5], [0.0, -1.0]])
        rows, C = bounds_mod._face_jumps(np.eye(2), X)
        assert rows.tolist() == [1] and C.tolist() == [[0.0, -1.0]]
        rows, C = bounds_mod._face_jumps(-np.eye(2), X)
        assert rows.tolist() == [0, 1] and C.tolist() == [[0.5, 0.5], [0.0, -1.0]]

    def test_support_above_the_cap_is_not_tried(self):
        # on -I every face's stationary point is its maximum; the row with
        # one entry more than the cap gets no candidate
        cap = bounds_mod._JUMP_MAX_SUPPORT
        X = np.zeros((2, cap + 4))
        X[0, :cap + 1] = 1.0 / (cap + 1)
        X[1, :cap] = -1.0 / cap
        rows, C = bounds_mod._face_jumps(-np.eye(cap + 4), X)
        assert rows.tolist() == [1]
        assert (np.sign(C[0]) == np.sign(X[1])).all()

    def test_saddle_jump_does_not_cost_the_best_value(self, monkeypatch):
        # the README's heuristic cell n = 200, seed 11: jumps that took face
        # saddles held the best restart there and lost 2.4e-2
        root = Rng(11)
        T = shift_to_T(sample_W(200, root.child(0)))
        jumped = rho1_multistart(T, rng=root.child(1))
        monkeypatch.setattr(bounds_mod, "_face_jumps", no_jumps)
        before = rho1_multistart(T, rng=root.child(1))
        assert jumped.lower >= before.lower * (1.0 - 1e-12)

    def test_singular_face_is_skipped(self, monkeypatch):
        # rows 0 and 1 of a are equal, so a face holding both is singular:
        # LU meets an exact zero pivot, the stacked solve raises and slogdet
        # finds the block
        a = random_symmetric(6, 11).entries.copy()
        a[1], a[:, 1] = a[0], a[:, 0]
        X = np.array([[0.5, -0.5, 0.0, 0.0, 0.0, 0.0],
                      [0.25, 0.25, 0.5, 0.0, 0.0, 0.0],
                      [0.5, 0.0, 0.0, 0.0, 0.0, 0.5],
                      [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
        calls = []
        slogdet = np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda m: calls.append(m) or slogdet(m))
        rows, C = bounds_mod._face_jumps(a, X)
        assert len(calls) == 2  # the size-2 and size-3 stacks
        assert 0 not in rows and 1 not in rows and 3 in rows
        assert C.shape == (rows.size, 6)
        rep = rho1_multistart(GramMatrix(a), restarts=16,
                              steps=4 * bounds_mod._JUMP_EVERY, rng=Rng(2))
        assert rep.lower <= rho1_exact(GramMatrix(a)).upper + 1e-12


class TestPiplusRank1Lower:
    def test_lower_is_a_float(self):
        # the re-evaluated quotient wins the max at this structured cell and
        # in the direct call below, where it was an np.float64
        cert = certify_ratio(128, 2, mode="structured")
        assert type(cert.piplus.lower) is float
        assert type(cert.ratio.lower) is float
        rho1 = BoundReport("rho1", lower=0.0, upper=None, method="multistart",
                           certificate="heuristic", witness=np.array([1.0, 1.0]))
        rep = piplus_rank1_lower(OFFDIAG, rho1)
        assert type(rep.lower) is float and rep.lower == 0.5

    def test_identity(self):
        I2 = GramMatrix(np.eye(2))
        rep = piplus_rank1_lower(I2, rho1_exact(I2))
        assert rep.lower == pytest.approx(1.0, abs=1e-12)
        assert rep.certificate == "certified_bound"

    def test_offdiagonal(self):
        rep = piplus_rank1_lower(OFFDIAG, rho1_exact(OFFDIAG))
        assert rep.lower == pytest.approx(0.5, abs=1e-12)
        assert np.abs(rep.witness.entries).sum() == pytest.approx(1.0, rel=1e-12)

    def test_negative_definite_gives_zero(self):
        T = GramMatrix(-2.0 * np.eye(3))
        rep = piplus_rank1_lower(T, rho1_exact(T))
        assert rep.lower == 0.0

    def test_matches_rho1_exactly(self):
        for t in range(10):
            A = random_symmetric(6, 40 + t)
            ex = rho1_exact(A)
            rep = piplus_rank1_lower(A, ex)
            assert rep.lower == pytest.approx(ex.upper, rel=1e-9)


class TestPiplusWitness:
    def test_closed_form_examples(self):
        assert witness_value_closed_form(10000, 3.0) == pytest.approx(0.22, abs=1e-12)
        # limit value 1 - c/4
        assert witness_value_closed_form(10**12, 3.0) == pytest.approx(0.25, abs=1e-5)

    def test_direct_vs_closed_form_sweep(self):
        for t, n in enumerate((2, 3, 7, 20, 51, 140, 333, 500)):
            W = sample_W(n, Rng(60 + t))
            for c in (0.5, min(1.3, 0.9 * math.sqrt(n))):
                wit = piplus_witness(W, c)
                closed = witness_value_closed_form(n, c)
                assert abs(wit.value - closed) <= 1e-9 * max(1.0, abs(closed))

    def test_unit_entrywise_norm(self):
        for n in (2, 5, 40):
            wit = piplus_witness(sample_W(n, Rng(n)), 1.0)
            assert np.abs(wit.A.entries).sum() == pytest.approx(1.0, rel=1e-12)

    def test_lambda_min_matches_direct_eigensolve(self):
        W = sample_W(30, Rng(17))
        wit = piplus_witness(W, 2.5)
        lam_min = np.linalg.eigvalsh(wit.A.entries)[0]
        assert wit.lambda_min == pytest.approx(lam_min, abs=1e-10)

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(a.shape) or eigvalsh(a))
        return calls

    @pytest.mark.parametrize("first", ["lambda_min", "feasible"])
    def test_lambda_min_is_computed_once_on_first_read(self, first,
                                                       eigvalsh_calls):
        W = sample_W(30, Rng(17))
        wit = piplus_witness(W, 2.5)
        assert wit.b >= 0.0 and eigvalsh_calls == []
        getattr(wit, first)
        assert eigvalsh_calls == [(30, 30)]
        reads = [(wit.lambda_min, wit.feasible) for _ in range(3)]
        assert len(eigvalsh_calls) == 1
        lam_min = wit.a + wit.b * np.linalg.eigvalsh(W.entries)[0]
        assert reads == [(lam_min, True)] * 3
        assert wit._w is W.entries  # the W it was built from, not a copy

    def test_negative_b_is_infeasible_without_an_eigensolve(self, eigvalsh_calls):
        W = sample_W(4, Rng(1))
        wit = piplus_witness(W, 2.5)  # c >= sqrt(n): b < 0
        assert wit.b < 0.0
        assert wit.feasible is False
        assert eigvalsh_calls == []
        # lambda_min is still a + b lambda_max(W), on request
        assert wit.lambda_min == wit.a + wit.b * np.linalg.eigvalsh(W.entries)[-1]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            piplus_witness(sample_W(1, Rng(0)), 1.0)  # n < 2
        with pytest.raises(ValueError):
            piplus_witness(GramMatrix(np.eye(3)), 1.0)  # not hollow
        with pytest.raises(ValueError):
            piplus_witness(GramMatrix([[0.0, 0.5], [0.5, 0.0]]), 0.3)  # not +-1
        with pytest.raises(ValueError):
            piplus_witness(sample_W(4, Rng(1)), -1.0)  # c <= 0

    def test_c_at_least_sqrt_n_is_infeasible_but_identity_holds(self):
        wit = piplus_witness(sample_W(4, Rng(1)), 2.5)  # c >= sqrt(n): b < 0
        assert wit.b < 0.0
        assert wit.feasible is False
        closed = witness_value_closed_form(4, 2.5)
        assert abs(wit.value - closed) <= 1e-9 * max(1.0, abs(closed))


class TestPiplusDualUpper:
    def test_identity_sandwich(self):
        T = GramMatrix(np.eye(4))
        up = piplus_dual_upper(T)
        lo = piplus_rank1_lower(T, rho1_exact(T))
        assert up.upper == pytest.approx(1.0, abs=1e-6)
        assert lo.lower <= up.upper + 1e-9

    def test_diag_two_minus_three(self):
        rep = piplus_dual_upper(GramMatrix(np.diag([2.0, -3.0])))
        assert rep.upper == pytest.approx(2.0, abs=1e-6)

    def test_negative_definite_zero(self):
        # piplus = 0 exactly, A = 0 being feasible: a two-sided bracket
        for T in (-np.eye(3), np.zeros((3, 3))):
            rep = piplus_dual_upper(GramMatrix(T))
            assert rep.lower == rep.upper == 0.0
            assert rep.method == "dual_ap"

    def test_never_above_lambda_max(self):
        for t in range(8):
            A = random_symmetric(6, 90 + t)
            rep = piplus_dual_upper(A)
            assert rep.upper <= max(0.0, np.linalg.eigvalsh(A.entries)[-1]) + 1e-8

    def test_witness_is_dual_feasible(self):
        # the delta shift makes the computed lambda_min(Y - T) nonnegative,
        # not merely nonnegative up to roundoff
        for A in [random_symmetric(5, 13 + t) for t in range(4)] + [
                build_T(n, Rng(20 + n)) for n in (6, 9, 12)] + [sample_W(7, Rng(5))]:
            rep = piplus_dual_upper(A)
            y = rep.witness.entries
            assert np.linalg.eigvalsh(y - A.entries)[0] >= 0.0
            assert np.abs(y).max() == rep.upper

    def test_bracket_closes_on_build_T_30(self):
        # a feasible dual point gives piplus <= 0.7157052 here
        rep = piplus_dual_upper(build_T(30, Rng(3)))
        assert rep.method == "dual_ap"
        assert rep.upper <= 0.7157052

    def test_converged_bracket_within_tolerance(self):
        tol = 1e-8
        for A in [random_symmetric(6, 40 + t) for t in range(4)] + [
                build_T(n, Rng(60 + n)) for n in (5, 8, 12)] + [sample_W(8, Rng(7))]:
            rep = piplus_dual_upper(A)
            assert rep.method == "dual_ap"
            assert rep.lower <= rep.upper
            lam_max = np.linalg.eigvalsh(A.entries)[-1]
            assert rep.upper <= rep.lower + tol * max(1.0, lam_max)

    def test_lower_witness_is_feasible(self):
        for A in (random_symmetric(6, 44), build_T(10, Rng(8)), sample_W(6, Rng(9))):
            t = A.entries
            lower, a, upper, _, converged = _piplus_admm(t, 1e-8, 60000)
            assert converged
            assert np.linalg.eigvalsh(a)[0] >= -1e-12
            assert np.abs(a).sum() == pytest.approx(1.0, abs=1e-12)
            assert float((t * a).sum()) == lower
            assert 0.0 < lower <= upper

    def test_rank_one_value_in_bracket(self):
        # piplus(v v^T) = max_i v_i^2, attained at A = e_i e_i^T
        for seed in range(4):
            v = Rng(500 + seed).normal(7)
            rep = piplus_dual_upper(GramMatrix(np.outer(v, v)))
            assert rep.method == "dual_ap"
            assert rep.lower <= float(np.max(v * v)) <= rep.upper

    def test_budget_exhausted_is_inconclusive_but_valid(self):
        T = build_T(8, Rng(11))
        rep = piplus_dual_upper(T, iter_cap=3)
        assert rep.method == "dual_ap(inconclusive)"
        assert rep.upper >= rho1_exact(T).upper
        assert rep.lower <= rep.upper
        assert np.linalg.eigvalsh(rep.witness.entries - T.entries)[0] >= 0.0

    # The ids are the ones these cases had when four `tol` cases came first.
    @pytest.mark.parametrize("kwargs", [{"iter_cap": 0}, {"iter_cap": -5}],
                             ids=["kwargs4", "kwargs5"])
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            piplus_dual_upper(build_T(12, Rng(10)), **kwargs)

    def test_sandwich_on_shifted_family(self):
        for t in range(6):
            T = build_T(6, Rng(150 + t))
            ex = rho1_exact(T).upper
            up = piplus_dual_upper(T)
            assert ex <= up.upper + 1e-9

    def test_cvxpy_oracle_agreement(self):
        cp = pytest.importorskip("cvxpy")
        for t in range(4):
            A = random_symmetric(5, 170 + t)
            rep = piplus_dual_upper(A)
            n = 5
            X = cp.Variable((n, n), symmetric=True)
            prob = cp.Problem(cp.Maximize(cp.trace(A.entries @ X)),
                              [X >> 0, cp.sum(cp.abs(X)) <= 1])
            prob.solve(solver=cp.SCS, eps=1e-9, max_iters=100000)
            assert rep.upper >= prob.value - 1e-6
            assert rep.upper <= prob.value + 1e-5


# Every route through the ADMM: build_T at the sizes of the bounds scenarios
# (T30 rebalances rho for 390 iterations), a hollow W, a Wishart matrix
# whose bracket closes at the first check, a matrix of small norm whose first
# iterations take the Y = 0 branch of the prox, and a budget of 3 iterations
# that ends dual_ap(inconclusive).
FROZEN_DUAL_INPUTS = {
    "T8": lambda: (build_T(8, Rng(11)), {}),
    "T12": lambda: (build_T(12, Rng(10)), {}),
    "T30": lambda: (build_T(30, Rng(3)), {}),
    "W8": lambda: (sample_W(8, Rng(7)), {}),
    "wishart10": lambda: (sample_wishart(10, Rng(4)), {}),
    "small5": lambda: (GramMatrix(0.01 * random_symmetric(5, 3).entries), {}),
    "T8-cap3": lambda: (build_T(8, Rng(11)), {"iter_cap": 3}),
}
FROZEN_DUAL = {
    "T12":
        "dd623877cecb3536a31b380a1661b707fffd01fe21161efb1702ffe1812abfe3",
    "T30":
        "41345c0bf7eafb6c0c81e2eeba45dd82b78ecf113f73dd2f3f54b5eae3e54e0a",
    "T8":
        "4dc8d40094e40e63bb5e7320ae3aa3d43bdc2a1bb03a3c56757757b87aa8d0a9",
    "T8-cap3":
        "f4b42cd13d2c6f4363ac247fc2e81e14bf18d3e808b9d488981f4094bc5f22d1",
    "W8":
        "cc64615f860b180b08d8f7f4100f3e4cb25cd4754333264fc74eb53c77cfd77d",
    "small5":
        "4b5fe1dab267b858207e7407b027989f30c17601dcbc2e2a0090411fe098015f",
    "wishart10":
        "0cfac4093ed3817562a34ece03c9960c8df2abdab4aea29b95c1f3c29da5ef88",
}


# (lower, upper) of each FROZEN_DUAL_INPUTS entry from the unrelaxed ADMM
# (alpha = 1), recorded before the over-relaxation
UNRELAXED_DUAL_BRACKETS = {
    "T12": (0.6889957594538667, 0.6889957815737637),
    "T30": (0.7157050895632731, 0.7157051607697891),
    "T8": (0.6629054389910845, 0.662905446437178),
    "T8-cap3": (0.6138602056630638, 0.9864768514612722),
    "W8": (0.7499999999999989, 0.7500000016331211),
    "small5": (0.012590093514669252, 0.012590093555914002),
    "wishart10": (18.260236170031693, 18.260236170031742),
}


class TestPiplusDualFrozen:
    """SHA-256 of repr(lower), repr(upper), the method and the witness
    bytes, recorded with the over-relaxed ADMM (alpha = 1.5)."""

    @pytest.mark.parametrize("key", sorted(FROZEN_DUAL_INPUTS))
    def test_digest(self, key):
        T, kwargs = FROZEN_DUAL_INPUTS[key]()
        rep = piplus_dual_upper(T, **kwargs)
        h = hashlib.sha256()
        for part in (repr(rep.lower), repr(rep.upper), rep.method):
            h.update(part.encode())
        h.update(rep.witness.entries.tobytes())
        assert h.hexdigest() == FROZEN_DUAL[key]


@pytest.mark.parametrize("key", sorted(FROZEN_DUAL_INPUTS))
def test_dual_hands_eigh_only_exactly_symmetric_matrices(key, monkeypatch):
    # _project_psd_shift passes Y + U - T (and -U) to eigh without (D + D^T)/2,
    # which keeps the bytes only while every such matrix is bitwise symmetric
    eigh, seen = np.linalg.eigh, []

    def checked(a, *args, **kwargs):
        seen.append(a.tobytes() == np.ascontiguousarray(a.T).tobytes())
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", checked)
    T, kwargs = FROZEN_DUAL_INPUTS[key]()
    piplus_dual_upper(T, **kwargs)
    assert seen and all(seen), f"{seen.count(False)} of {len(seen)} asymmetric"


class TestPiplusDualRelaxed:
    @pytest.mark.parametrize("key", sorted(FROZEN_DUAL_INPUTS))
    def test_bracket_overlaps_unrelaxed_bracket(self, key):
        # both brackets hold piplus, so they overlap; a closed one stays
        # within the tolerance
        T, kwargs = FROZEN_DUAL_INPUTS[key]()
        rep = piplus_dual_upper(T, **kwargs)
        lower, upper = UNRELAXED_DUAL_BRACKETS[key]
        assert rep.lower <= upper and lower <= rep.upper
        if rep.method == "dual_ap":
            lam_max = np.linalg.eigvalsh(T.entries)[-1]
            assert rep.upper - rep.lower <= 1e-8 * max(1.0, lam_max)

    # eigh runs once per iteration and once per 10-iteration check, so k
    # iterations cost 1.1 k calls.  The unrelaxed ADMM made 1463 calls on the
    # bench's T30 (1330 iterations) and 8195 on criterion 06's slowest
    # matrix (7450); over-relaxed, 1012 (920) and 6259 (5690).
    @pytest.mark.parametrize("make_T, max_calls", [
        (lambda: build_T(30, Rng(0).child(20)), 1100),
        (lambda: build_T(10, Rng(20260809 + 50_013)), 7000),
    ], ids=["bench-T30", "criterion06-tail"])
    def test_iteration_count(self, make_T, max_calls, monkeypatch):
        eigh, calls = np.linalg.eigh, []

        def counted(a, *args, **kwargs):
            calls.append(None)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        rep = piplus_dual_upper(make_T())
        assert rep.method == "dual_ap"
        assert len(calls) <= max_calls


def dual_report_bytes(rep):
    return (repr(rep.lower).encode(), repr(rep.upper).encode(), rep.method.encode(),
            rep.witness.entries.tobytes())


def test_dual_runs_back_to_back_leave_each_other_alone():
    # each run makes its own workspace: a report must hash as the same call
    # run alone (the frozen digest), and a later run must not change an
    # earlier report's bytes
    reports, seen = [], []
    for key in ["T12", "W8", "T12", "T8-cap3"]:
        T, kwargs = FROZEN_DUAL_INPUTS[key]()
        reports.append(piplus_dual_upper(T, **kwargs))
        seen.append(dual_report_bytes(reports[-1]))
        assert hashlib.sha256(b"".join(seen[-1])).hexdigest() == FROZEN_DUAL[key], key
    assert [dual_report_bytes(rep) for rep in reports] == seen


@pytest.mark.parametrize("solve, matrix", [
    (piplus_dual_upper, lambda: build_T(8, Rng(11))),
    (lambda W: piplus_witness(W, 2.5), lambda: sample_W(8, Rng(7))),
], ids=["dual", "witness"])
def test_validated_input_is_not_validated_again(solve, matrix, monkeypatch):
    # a GramMatrix is square, finite and symmetric already: neither the dual
    # nor the witness (through shift_to_T) may build another one
    M, inits = matrix(), []
    init = GramMatrix.__init__
    monkeypatch.setattr(GramMatrix, "__init__",
                        lambda self, entries: inits.append(1) or init(self, entries))
    solve(M)
    assert inits == []


def test_hollow_ratio_at_most_two():
    for t in range(30):
        n = 4 + t % 5
        W = sample_W(n, Rng(250 + t))
        ex = rho1_exact(W).upper
        up = piplus_dual_upper(W)
        assert up.upper / ex <= 2.0 + 1e-6


class TestQuadraticVertexBound:
    def test_trivial_cases(self):
        assert quadratic_vertex_bound(-1.0, 0.0, 0.0) == (0.0, 0.0)
        assert quadratic_vertex_bound(-1.0, 2.0, 0.0) == (1.0, 1.0)

    def test_rejects_nonnegative_leading(self):
        with pytest.raises(ValueError):
            quadratic_vertex_bound(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            quadratic_vertex_bound(2.0, 1.0, 1.0)

    def test_split_bound_constant(self):
        # coefficients (-sqrt(n)/8, 4/k, 2/(k^2 sqrt(n))) peak at 34/(k^2 sqrt(n))
        n, kappa = 64.0, 1.0
        argmax, peak = quadratic_vertex_bound(
            -math.sqrt(n) / 8.0, 4.0 / kappa, 2.0 / (kappa**2 * math.sqrt(n)))
        assert argmax == pytest.approx(2.0, rel=1e-12)
        assert peak == pytest.approx(4.25, rel=1e-12)

    def test_split_bound_constant_many_pairs(self):
        pairs = [(n, k) for n in (16, 64, 100, 400, 2500) for k in (0.5, 1.0, 0.125, 0.02)]
        for n, kappa in pairs:
            argmax, peak = quadratic_vertex_bound(
                -math.sqrt(n) / 8.0, 4.0 / kappa, 2.0 / (kappa**2 * math.sqrt(n)))
            assert argmax == pytest.approx(16.0 / (kappa * math.sqrt(n)), rel=1e-12)
            assert peak == pytest.approx(34.0 / (kappa**2 * math.sqrt(n)), rel=1e-12)


class TestRho1StructuredUpper:
    def test_dominates_exact_value(self):
        # at n <= 12 the scan keeps k = 1 (TestEstimateKappa in
        # test_randcert), so kappa = 1/n and the restricted-norm term is 0
        for n in range(4, 13):
            for seed in range(3):
                cert = certify_ratio(n, seed, mode="structured")
                W = sample_W(n, Rng(seed).child(0))
                assert cert.kappa == 1.0 / n
                assert cert.rho1.upper >= rho1_exact(shift_to_T(W)).upper


class TestCertifyRatio:
    def test_exact_mode_ratio_at_least_one(self):
        for seed in range(5):
            for n in (4, 7, 10):
                cert = certify_ratio(n, seed, mode="exact")
                assert cert.ratio.lower >= 1.0
                assert cert.cn_lower >= 1.0

    def test_exact_mode_deterministic(self):
        a = certify_ratio(8, 4242, mode="exact")
        b = certify_ratio(8, 4242, mode="exact")
        assert a.ratio.lower == b.ratio.lower
        assert a.piplus.lower == b.piplus.lower
        assert a.rho1.upper == b.rho1.upper

    def test_exact_mode_cap(self):
        with pytest.raises(ValueError):
            certify_ratio(13, 1, mode="exact")

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("c", [math.nan, math.inf, -3.0, 0.0])
    def test_witness_c_checked_at_every_n(self, n, c):
        # n = 1 builds no witness, so c is checked before the n branch
        with pytest.raises(ValueError, match="c must be finite and positive"):
            certify_ratio(n, 3, c=c)

    def test_witness_feasibility_read_only_when_it_wins(self):
        # at n = 12, c = 2.5 the witness value is negative and loses to the
        # rank-one bound, so its eigvalsh of W never runs; against a rank-one
        # bound of 0 at n = 64 its value 0.0625 wins and feasibility is read
        W = sample_W(12, Rng(3).child(0))
        T = shift_to_T(W)
        wit = piplus_witness(W, 2.5)
        pi = bounds_mod._piplus_lower(T, rho1_exact(T), wit)
        assert pi.method == "rank1_witness" and wit.value < 0.0
        assert "lambda_min" not in vars(wit)
        W = sample_W(64, Rng(3).child(0))
        wit = piplus_witness(W, 2.5)
        zero = BoundReport(quantity="rho1", lower=0.0, upper=None,
                           method="none", certificate="heuristic")
        pi = bounds_mod._piplus_lower(shift_to_T(W), zero, wit)
        assert (pi.method, pi.lower) == ("witness", wit.value)
        assert "lambda_min" in vars(wit)

    def test_structured_mode_runs_and_floors(self):
        cert = certify_ratio(32, 5, mode="structured")
        assert cert.mode == "structured"
        assert cert.cn_lower >= 1.0
        assert cert.kappa is not None
        assert cert.rho1.upper > 0.0

    @pytest.mark.parametrize("n, seed", [(32, 5), (64, 1)])
    def test_structured_restricted_norm_within_target(self, n, seed):
        # the exhaustive scan keeps the last size within sqrt(n)/8 and stops
        # at the first beyond it
        cert = certify_ratio(n, seed, mode="structured")
        W = sample_W(n, Rng(seed).child(0))
        k = round(cert.kappa * n)
        assert cert.kappa == k / n
        assert max_restricted_norm(W, k, mode="exhaustive").value <= math.sqrt(n) / 8.0
        assert max_restricted_norm(W, k + 1, mode="exhaustive").value > math.sqrt(n) / 8.0

    def test_sandwich_inequalities(self):
        for t in range(8):
            T = build_T(8, Rng(450 + t))
            ex = rho1_exact(T)
            lo = piplus_rank1_lower(T, ex)
            up = piplus_dual_upper(T)
            assert ex.upper <= up.upper + 1e-9
            assert lo.lower <= up.upper + 1e-9


def certificate_fields(obj, prefix=""):
    """(dotted name, value) of every field of a RatioCertificate, with each
    BoundReport's fields in place of the report."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, BoundReport):
            yield from certificate_fields(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


def field_bytes(value):
    # numbers as float64 bytes, so that the digest reads each value and not
    # its Python type
    if value is None:
        return b"None"
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, GramMatrix):
        return value.entries.tobytes()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return np.float64(value).tobytes()


def structured_digest(cert, skip=()):
    h = hashlib.sha256()
    for name, value in certificate_fields(cert):
        if name not in skip:
            h.update(name.encode())
            h.update(field_bytes(value))
    return h.hexdigest()


# rho1.upper and ratio.lower come from eigvalsh of the whole W, whose last
# bits move with the BLAS thread count at n = 256, so that cell leaves them out
STRUCTURED_CELLS = {
    (32, 5): (),
    (64, 1): (),
    (128, 2): (),
    (256, 3): ("rho1.upper", "ratio.lower"),
}

FROZEN_STRUCTURED = {
    # re-recorded when the multistart, whose best point gives the rank-one
    # piplus lower bound, began its face jumps; each keeps its old digest
    # was 0d3d695ff87438d9b18c462b5fea9204e17e9ed7fe042be7fa452623fe644985
    (32, 5):
        "be40bb5a150c025d0a96b0d3cfe3dad3c1dfbc04f7a19f23dce6d3d7b05806f2",
    # was 0c87a144bb966159441fcdae6c1d9623ba9bbc97f0d6fe2fa08ed9e151fe1216
    (64, 1):
        "92545c8294dce01ac62e48d90e5221cc8f19df1fa8172c73658f5f77737dc4b9",
    # was 59162f5c57f869d37c74e52ebb3508f7192ae140f476622801abdf9d0bc6bbec
    (128, 2):
        "c9a43c930dc7e57c8997b7167a3093d9635cb7e4971d471ef288796588e11af7",
    # was d652f86b14298419b0f296a36fb016ed8bfcf88238cdc790827ca8aeebe6124d
    (256, 3):
        "d1cc35950447c5d9ce3f72b757ba2517184c551f52970315b70683c72a551ed7",
}


class TestCertifyStructuredFrozen:
    """SHA-256 of every field of certify_ratio(n, seed, mode="structured"),
    numbers as float64 bytes, recorded while the subset-fraction scan, the
    spectral norm and the split bound were three public functions, and
    re-recorded when the multistart began its face jumps.  n = 32,
    64 and 128 scan exhaustively (certified_bound); n = 256 samples subsets
    (heuristic)."""

    @pytest.mark.parametrize("n, seed", sorted(STRUCTURED_CELLS))
    def test_digest(self, n, seed):
        cert = certify_ratio(n, seed, mode="structured")
        assert structured_digest(cert, STRUCTURED_CELLS[n, seed]) == \
            FROZEN_STRUCTURED[n, seed]


def test_bound_report_invariants_enforced():
    with pytest.raises(ValueError):
        BoundReport("rho1", lower=2.0, upper=1.0, method="x", certificate="exact")
    with pytest.raises(ValueError):
        BoundReport("rho1", lower=1.0, upper=2.0, method="x", certificate="exact")
    with pytest.raises(ValueError):
        BoundReport("rho1", lower=0.0, upper=1.0, method="x", certificate="bogus")
