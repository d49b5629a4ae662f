import numpy as np
import pytest

import isopair.bcl
import isopair.toeplitz
from isopair.bcl import BCLTriple, random_triple, toeplitz_symbols, wandering_projections
from isopair.toeplitz import (
    _block_matrices,
    build_truncated_pair,
    degree_zero_block,
    oracle_cross_and_defect,
)

from conftest import two_finite_triple


def off_degree_zero(matrix, n):
    rest = matrix.copy()
    rest[:n, :n] = 0.0
    return float(np.abs(rest).max()) if rest.size else 0.0


class TestBuildTruncatedPair:
    def test_shift_model(self):
        # trivial projection: first operator is the identity symbol,
        # second is the pure block shift
        pair = build_truncated_pair(BCLTriple(2, np.eye(2), np.zeros((2, 2))), 3)
        assert np.allclose(pair.v1, np.eye(6))
        shift = np.zeros((6, 6))
        shift[2:4, 0:2] = np.eye(2)
        shift[4:6, 2:4] = np.eye(2)
        assert np.allclose(pair.v2, shift)

    def test_two_finite_commutes_on_degree_zero(self):
        pair = build_truncated_pair(two_finite_triple(np.exp(0.4j)), 2)
        commutator = pair.v1 @ pair.v2 - pair.v2 @ pair.v1
        assert np.abs(commutator[:, :2]).max() < 1e-14

    def test_random_commutator_below_top_degree(self):
        for seed in range(10):
            pair = build_truncated_pair(random_triple(4, 2, seed), 4)
            commutator = pair.v1 @ pair.v2 - pair.v2 @ pair.v1
            # columns of degree < cap-1 are truncation-exact
            assert np.abs(commutator[:, : 4 * 3]).max() < 1e-12

    def test_isometry_below_top_degree(self):
        for seed in range(10):
            pair = build_truncated_pair(random_triple(3, 1, seed), 5)
            keep = 3 * 4
            for v in (pair.v1, pair.v2):
                gram = (v.conj().T @ v)[:keep, :keep]
                assert np.linalg.norm(gram - np.eye(keep)) < 1e-12

    def test_cap_too_small(self):
        with pytest.raises(ValueError):
            build_truncated_pair(random_triple(2, 1, 0), 1)


def reference_block_matrices(triple, cap):
    """The two block bidiagonals as a per-degree loop: one slice assignment per block."""
    sym = toeplitz_symbols(triple)
    n = triple.dim
    v1 = np.zeros((n * cap, n * cap), dtype=np.complex128)
    v2 = np.zeros_like(v1)
    for k in range(cap):
        rows = slice(k * n, (k + 1) * n)
        v1[rows, rows] = sym.phi1_const
        v2[rows, rows] = sym.phi2_const
        if k + 1 < cap:
            above = slice((k + 1) * n, (k + 2) * n)
            v1[above, rows] = sym.phi1_lin
            v2[above, rows] = sym.phi2_lin
    return v1, v2


@pytest.mark.parametrize("cap", [2, 3, 4, 5, 6])
def test_block_matrices_match_the_per_degree_loop(cap):
    rng = np.random.default_rng(2500 + cap)
    for dim in range(1, 25):
        for rank in sorted({0, dim, int(rng.integers(0, dim + 1))}):
            triple = random_triple(dim, rank, int(rng.integers(2**31)))
            for got, want in zip(_block_matrices(triple, cap),
                                 reference_block_matrices(triple, cap)):
                assert got.shape == want.shape == (dim * cap, dim * cap)
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes(), (dim, rank, cap)


class TestOracle:
    def test_doubly_commuting(self, rng):
        from conftest import random_projection
        p = random_projection(3, 1, rng)
        pair = build_truncated_pair(BCLTriple(3, np.eye(3), p), 4)
        c_full, x_full = oracle_cross_and_defect(pair)
        assert np.linalg.norm(degree_zero_block(c_full, 3)) < 1e-12
        assert np.linalg.norm(x_full) < 1e-12

    def test_two_finite_cross_block(self):
        alpha = np.exp(2.2j)
        pair = build_truncated_pair(two_finite_triple(alpha), 3)
        _, x_full = oracle_cross_and_defect(pair)
        expected = np.array([[np.conj(alpha), 0.0], [0.0, 0.0]])
        assert np.allclose(degree_zero_block(x_full, 2), expected, atol=1e-13)

    def test_support_and_equivalence_random(self):
        for seed in range(20):
            triple = random_triple(5, 2, seed)
            ops = wandering_projections(triple)
            pair = build_truncated_pair(triple, 4)
            c_full, x_full = oracle_cross_and_defect(pair)
            assert off_degree_zero(c_full, 5) < 1e-12
            assert off_degree_zero(x_full, 5) < 1e-12
            assert np.linalg.norm(degree_zero_block(c_full, 5) - ops.defect) < 1e-12
            assert np.linalg.norm(degree_zero_block(x_full, 5) - ops.cross) < 1e-12

    def test_cap_too_small_for_oracle(self):
        pair = build_truncated_pair(random_triple(2, 1, 0), 2)
        with pytest.raises(ValueError):
            oracle_cross_and_defect(pair)


def reference_oracle(pair):
    """The oracle from the triple: symbols rebuilt at ``cap + 1``, whole products, cropped."""
    n, cap = pair.wandering_dim, pair.degree_cap
    v1, v2 = _block_matrices(pair.triple, cap + 1)
    eye = np.eye(n * (cap + 1))
    prod = v1 @ v2
    c_full = eye - v1 @ v1.conj().T - v2 @ v2.conj().T + prod @ prod.conj().T
    x_full = v2.conj().T @ v1 - v1 @ v2.conj().T
    keep = n * cap
    return c_full[:keep, :keep], x_full[:keep, :keep]


class TestOracleAgainstReference:
    @pytest.mark.parametrize("cap", [3, 4, 5, 6])
    def test_matches_the_whole_products(self, cap):
        rng = np.random.default_rng(1700 + cap)
        for dim in range(1, 25):
            triple = random_triple(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**31)))
            pair = build_truncated_pair(triple, cap)
            for got, want in zip(oracle_cross_and_defect(pair), reference_oracle(pair)):
                assert got.shape == want.shape == (dim * cap, dim * cap)
                scale = max(1.0, float(np.linalg.norm(want)))
                assert np.linalg.norm(got - want) <= 1e-13 * scale, (dim, cap)

    def test_reads_the_pair_not_the_triple(self, monkeypatch):
        pair = build_truncated_pair(random_triple(6, 3, 11), 4)
        calls = {"toeplitz_symbols": 0, "validate_triple": 0}

        def counted(module, name):
            original = getattr(module, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        counted(isopair.toeplitz, "toeplitz_symbols")
        counted(isopair.bcl, "validate_triple")
        oracle_cross_and_defect(pair)
        assert calls == {"toeplitz_symbols": 0, "validate_triple": 0}
        # the counters see the calls that rebuild the pair from its triple
        build_truncated_pair(pair.triple, 4)
        assert calls == {"toeplitz_symbols": 1, "validate_triple": 1}
