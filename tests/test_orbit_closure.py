"""The block Krylov orbit closure against the algorithms it replaced."""

import numpy as np
import pytest

from isopair.bcl import BCLTriple, random_triple, wandering_projections
from isopair.classify import _orbit_closure, working_space
from isopair.izuchi import build_izuchi_model
from isopair.linalg import hermitian_eig, orthonormal_columns
from isopair.models import bishift_truncated, direct_sum, scramble, twisted_shift

from test_classify import shift_unitary_pair


def reference_forward_orbit_fills(pair, seeds, tol=1e-8):
    """Per-vector Gram-Schmidt: does the forward orbit of the seeds span the interior?"""
    target = pair.interior_dim
    if seeds.shape[1] == 0:
        return target == 0
    idx = np.asarray(pair.interior, dtype=int)
    ops = [np.ascontiguousarray(op[np.ix_(idx, idx)]) for op in (pair.v1, pair.v2)]
    basis = np.zeros((target, 0), dtype=np.complex128)
    queue = [seeds[:, j].copy() for j in range(seeds.shape[1])]
    while queue:
        vec = queue.pop()
        for _ in range(2):
            vec = vec - basis @ (basis.conj().T @ vec)
        norm = float(np.linalg.norm(vec))
        if norm <= tol:
            continue
        vec /= norm
        basis = np.hstack([basis, vec.reshape(-1, 1)])
        if basis.shape[1] == target:
            return True
        queue.extend(op @ vec for op in ops)
    return basis.shape[1] == target


def reference_closure(unitary, seeds, tol=1e-10):
    """Closure under U and U* that re-orthonormalises the whole basis each round."""
    if seeds.shape[1] == 0:
        return np.zeros((unitary.shape[0], 0), dtype=np.complex128)
    basis = orthonormal_columns(seeds, tol)
    while True:
        extended = np.hstack([basis, unitary @ basis, unitary.conj().T @ basis])
        refreshed = orthonormal_columns(extended, tol)
        if refreshed.shape[1] == basis.shape[1]:
            return refreshed
        basis = refreshed


PAIRS = {
    "bishift6": (lambda: bishift_truncated(6), True),
    "bishift10": (lambda: bishift_truncated(10), True),
    "model8": (lambda: build_izuchi_model(0.5, 1j, 8, 8).pair, True),
    "model10": (lambda: build_izuchi_model(0.5, 1j, 10, 10).pair, True),
    "twisted12": (lambda: twisted_shift(np.exp(0.7j), 12), True),
    # the shift-unitary summand lies outside the orbit of the eigenvalue-1 space
    "shift_unitary_sum": (lambda: direct_sum([shift_unitary_pair(np.array([0.4, 2.0]), cap=6),
                                              bishift_truncated(8)]), False),
}


@pytest.mark.parametrize("scrambled", [False, True], ids=["plain", "scrambled"])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_pair_fill_decision_matches_reference(name, scrambled):
    make, fills = PAIRS[name]
    pair = make()
    if scrambled:
        pair = scramble(pair, seed=5)
    values, vectors = working_space(pair).defect_eig
    seeds = vectors[:, values >= 1.0 - 1e-8]

    orbit = _orbit_closure((pair.compress(pair.v1), pair.compress(pair.v2)), seeds, 1e-8)
    assert (orbit.shape[1] == pair.interior_dim) == fills
    assert reference_forward_orbit_fills(pair, seeds) == fills
    assert np.linalg.norm(orbit.conj().T @ orbit - np.eye(orbit.shape[1])) <= 1e-10


def _triple_with_commuting_block(seed: int) -> BCLTriple:
    """A random triple plus a block where a diagonal unitary commutes with P.

    The commuting block carries no defect, so the orbit misses it.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    m = int(rng.integers(0, 4))
    part = random_triple(n, int(rng.integers(0, n + 1)), seed)
    unitary = np.zeros((n + m, n + m), dtype=complex)
    projection = np.zeros_like(unitary)
    unitary[:n, :n], projection[:n, :n] = part.unitary, part.projection
    unitary[n:, n:] = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, m)))
    projection[n:, n:] = np.diag(rng.integers(0, 2, m).astype(complex))
    return BCLTriple(n + m, unitary, projection)


@pytest.mark.parametrize("seed", range(60))
def test_triple_closure_matches_full_reorthonormalisation(seed):
    triple = _triple_with_commuting_block(seed)
    values, vectors = hermitian_eig(wandering_projections(triple).defect)
    seeds = vectors[:, np.abs(values) > 1e-8]
    unitary = triple.unitary

    orbit = _orbit_closure((unitary, unitary.conj().T), seeds)
    expected = reference_closure(unitary, seeds)
    assert orbit.shape == expected.shape
    assert np.linalg.norm(orbit @ orbit.conj().T - expected @ expected.conj().T) <= 1e-10
