"""Brute-force oracle: truncated analytic multiplication operators.

Instead of trusting the closed forms on the wandering space, this module
builds the two multiplication operators of a triple on polynomial
coefficients of degree ``0 .. cap-1`` as block lower-bidiagonal matrices and
computes the defect operator and cross-commutator directly from their
products.  Both operators are supported on the degree-0 block, which must
reproduce the wandering-space formulas exactly.
"""

from dataclasses import dataclass

import numpy as np

from .bcl import BCLTriple, toeplitz_symbols


@dataclass(frozen=True)
class TruncatedToeplitzPair:
    """Block Toeplitz matrices of the two symbols on degrees ``0 .. cap-1``.

    ``v1`` and ``v2`` are ``(dim * cap) x (dim * cap)``; the coefficient of
    degree ``k`` occupies block ``k``, and the degree-raising part of each
    symbol simply drops the overflow out of the top block row.
    """

    wandering_dim: int
    degree_cap: int
    v1: np.ndarray
    v2: np.ndarray
    triple: BCLTriple


def _block_matrices(triple: BCLTriple, cap: int) -> tuple[np.ndarray, np.ndarray]:
    sym = toeplitz_symbols(triple)
    n = triple.dim
    v1 = np.zeros((n * cap, n * cap), dtype=np.complex128)
    v2 = np.zeros_like(v1)
    for v, const, lin in ((v1, sym.phi1_const, sym.phi1_lin),
                          (v2, sym.phi2_const, sym.phi2_lin)):
        _degree_blocks(v, n, cap, 0)[...] = const
        _degree_blocks(v, n, cap, 1)[...] = lin
    return v1, v2


def _degree_blocks(v: np.ndarray, n: int, cap: int, lower: int) -> np.ndarray:
    """Writable view of the ``n x n`` blocks ``(k + lower, k)`` of ``v``, by ``k``.

    ``v`` is C-ordered on ``cap`` degrees.  Block ``k`` of the view starts
    ``n`` rows and ``n`` columns after block ``k - 1``: one stride of
    ``n * (row + column)`` bytes.
    """
    row, col = v.strides
    return np.ndarray((cap - lower, n, n), dtype=v.dtype, buffer=v,
                      offset=lower * n * row, strides=(n * (row + col), row, col))


def build_truncated_pair(triple: BCLTriple, degree_cap: int) -> TruncatedToeplitzPair:
    """Truncated multiplication-operator pair for ``triple``.

    Requires ``degree_cap >= 2`` so that both the degree-preserving and the
    degree-raising coefficient of each symbol appear in the matrices.
    """
    if degree_cap < 2:
        raise ValueError(f"degree cap must be at least 2, got {degree_cap}")
    v1, v2 = _block_matrices(triple, degree_cap)
    return TruncatedToeplitzPair(
        wandering_dim=triple.dim,
        degree_cap=degree_cap,
        v1=v1,
        v2=v2,
        triple=triple,
    )


def degree_zero_block(matrix: np.ndarray, wandering_dim: int) -> np.ndarray:
    """Top-left ``wandering_dim`` square block of a truncated operator."""
    return np.ascontiguousarray(matrix[:wandering_dim, :wandering_dim])


def oracle_cross_and_defect(pair: TruncatedToeplitzPair) -> tuple[np.ndarray, np.ndarray]:
    """Defect operator and cross-commutator computed from raw products.

    Returns ``(c_full, x_full)`` on the pair's ``dim * cap`` coefficient
    space, where::

        c_full = I - V1 V1^H - V2 V2^H + (V1 V2)(V1 V2)^H
        x_full = V2^H V1 - V1 V2^H

    The products are those of the operators on one more degree, compressed
    back to ``cap`` blocks: the lowering-after-raising term of the
    cross-commutator needs the coefficient one degree above the cap, so the
    raw truncation carries an artifact in its top block that the extra
    degree removes.  Within the returned window both operators are then
    supported on the degree-0 block to machine precision, and that block is
    the oracle value for the wandering-space closed forms.

    The extra degree is never formed.  Its rows of each operator hold the
    raising block ``v[n:2n, :n]`` below the last kept degree and the
    constant block on the diagonal, and the kept rows have no entry in its
    columns.  So the defect's three products are those of the kept window,
    and the extra degree adds to ``V2^H V1`` only the product of the two
    raising blocks, on its last diagonal block.  The oracle reads the pair's
    matrices ``v1`` and ``v2``, not its triple.
    """
    if pair.degree_cap < 3:
        raise ValueError(
            f"degree cap must be at least 3 for the oracle, got {pair.degree_cap}"
        )
    n, keep = pair.wandering_dim, pair.wandering_dim * pair.degree_cap
    v1, v2 = pair.v1, pair.v2
    v1h, v2h = v1.conj().T, v2.conj().T
    prod = v1 @ v2
    # each sum is formed in place, on the first product
    c_full = prod @ prod.conj().T
    c_full -= v1 @ v1h
    c_full -= v2 @ v2h
    c_full.flat[::keep + 1] += 1.0
    x_full = v2h @ v1
    x_full -= v1 @ v2h
    x_full[keep - n:, keep - n:] += v2h[:n, n:2 * n] @ v1[n:2 * n, :n]
    return c_full, x_full
