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
    for k in range(cap):
        rows = slice(k * n, (k + 1) * n)
        v1[rows, rows] = sym.phi1_const
        v2[rows, rows] = sym.phi2_const
        if k + 1 < cap:
            above = slice((k + 1) * n, (k + 2) * n)
            v1[above, rows] = sym.phi1_lin
            v2[above, rows] = sym.phi2_lin
    return v1, v2


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

    The products are evaluated with one extra internal buffer degree and then
    compressed back to ``cap`` blocks: the lowering-after-raising term of the
    cross-commutator needs the coefficient one degree above the cap, so the
    raw truncation carries an artifact in its top block that the buffer
    removes.  Within the returned window both operators are then supported on
    the degree-0 block to machine precision, and that block is the oracle
    value for the wandering-space closed forms.

    The oracle reads the pair's matrices ``v1`` and ``v2``, not its triple:
    the buffer degree repeats their constant block ``v[:n, :n]`` on the
    diagonal and their raising block ``v[n:2n, :n]`` below it.  Only the
    rows and columns of the returned window of each product are formed,
    each over the whole buffered inner dimension.
    """
    if pair.degree_cap < 3:
        raise ValueError(
            f"degree cap must be at least 3 for the oracle, got {pair.degree_cap}"
        )
    n, cap = pair.wandering_dim, pair.degree_cap
    keep = n * cap
    v1, v2 = (_buffered(v, n, keep) for v in (pair.v1, pair.v2))
    top1, top2 = v1[:keep], v2[:keep]
    prod = top1 @ v2
    c_full = (np.eye(keep) - top1 @ top1.conj().T - top2 @ top2.conj().T
              + prod @ prod.conj().T)
    x_full = v2[:, :keep].conj().T @ v1[:, :keep] - top1 @ top2.conj().T
    return c_full, x_full


def _buffered(v: np.ndarray, n: int, keep: int) -> np.ndarray:
    """``v`` on one more degree: its constant and raising blocks extend the bidiagonal."""
    out = np.zeros((keep + n, keep + n), dtype=np.complex128)
    out[:keep, :keep] = v
    out[keep:, keep:] = v[:n, :n]
    out[keep:, keep - n:keep] = v[n:2 * n, :n]
    return out
