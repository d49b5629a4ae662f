"""Finite model triples for pairs of commuting isometries.

A pair of commuting isometries whose product is a shift is completely
described, up to joint unitary equivalence, by a triple ``(dim, U, P)``: a
unitary ``U`` and an orthogonal projection ``P`` acting on the wandering
space of the product.  This module validates such triples, derives the four
wandering-subspace projections together with the defect operator and the
cross-commutator restricted to the wandering space, exposes the degree-one
multiplication symbols of the associated analytic pair, and samples random
triples reproducibly.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import _check_tolerance, as_complex, frobenius_norm, random_unitary


@dataclass(frozen=True)
class BCLTriple:
    """Unitary/projection pair on an explicit finite wandering space.

    The numeric invariants (``U`` unitary, ``P`` an orthogonal projection)
    are deliberately not enforced at construction time so that invalid
    candidate triples can be built and handed to :func:`validate_triple`.
    """

    dim: int
    unitary: np.ndarray
    projection: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "unitary", as_complex(self.unitary))
        object.__setattr__(self, "projection", as_complex(self.projection))


@dataclass(frozen=True)
class TripleValidation:
    """Outcome of :func:`validate_triple`: per-check largest residuals."""

    ok: bool
    residuals: dict[str, float]

    def worst(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


class ToeplitzSymbols(NamedTuple):
    """Degree-0 and degree-1 coefficients of the two multiplication symbols."""

    phi1_const: np.ndarray
    phi1_lin: np.ndarray
    phi2_const: np.ndarray
    phi2_lin: np.ndarray


@dataclass(frozen=True)
class WanderingOperators:
    """Projections and derived operators on the wandering space.

    ``proj_w1 + proj_v1w2`` and ``proj_w2 + proj_v2w1`` both resolve the
    identity: the wandering space splits in two ways, once along the first
    isometry and once along the second.  ``defect`` is the difference of
    projections ``proj_w1 - proj_v2w1`` (equivalently
    ``proj_w2 - proj_v1w2``) and ``cross`` is the cross-commutator of the
    pair restricted to the wandering space.
    """

    proj_w1: np.ndarray
    proj_v2w1: np.ndarray
    proj_w2: np.ndarray
    proj_v1w2: np.ndarray
    defect: np.ndarray
    cross: np.ndarray


def validate_triple(triple: BCLTriple, tol: float = 1e-10) -> TripleValidation:
    """Check the defining conditions of a triple at tolerance ``tol``.

    Reports the largest residual of each check (unitarity of ``U``,
    idempotency and Hermitian symmetry of ``P``).  Raises ``ValueError`` only
    for shape mismatches, which make the numeric checks meaningless, and for a
    negative or non-finite ``tol``.
    """
    _check_tolerance("tol", tol)
    u, p = triple.unitary, triple.projection
    n = triple.dim
    if u.shape != (n, n) or p.shape != (n, n):
        raise ValueError(
            f"dimension mismatch: expected {(n, n)} operators, "
            f"got U {u.shape} and P {p.shape}"
        )
    # ``U^H U - I``, formed in place
    gram = u.conj().T @ u
    gram.flat[::n + 1] -= 1.0
    residuals = {
        "unitarity": frobenius_norm(gram),
        "idempotency": frobenius_norm(p @ p - p),
        "hermitian": frobenius_norm(p - p.conj().T),
    }
    return TripleValidation(ok=all(r <= tol for r in residuals.values()),
                            residuals=residuals)


def _require_valid(triple: BCLTriple, tol: float) -> None:
    report = validate_triple(triple, tol)
    if not report.ok:
        raise ValueError(f"invalid triple, residuals {report.residuals}")


def wandering_projections(triple: BCLTriple, tol: float = 1e-10) -> WanderingOperators:
    """All four wandering-subspace projections plus defect and cross-commutator.

    On the wandering space the first isometry's kernel projection is ``P``
    itself and the conjugated projection ``U P U^*`` covers the image of that
    kernel under the second isometry; the two complements fill in the other
    splitting.
    """
    _require_valid(triple, tol)
    u, p = triple.unitary, triple.projection
    eye = np.eye(triple.dim)
    uh = u.conj().T
    conj = u @ p @ uh
    complement = eye - p
    return WanderingOperators(
        proj_w1=p.copy(),
        proj_v2w1=conj,
        proj_w2=eye - conj,
        proj_v1w2=complement,
        defect=p - conj,
        cross=_cross_commutator(uh, p, complement),
    )


def cross_commutator_on_wandering(triple: BCLTriple, tol: float = 1e-10) -> np.ndarray:
    """Matrix of the pair's cross-commutator restricted to the wandering space.

    Closed form ``P U^* (I - P) U^*``.  This expression is cross-checked in
    the test suite against the truncated multiplication-operator oracle
    before anything downstream relies on it; its rank always equals the rank
    of ``U P U^* (I - P)``.
    """
    _require_valid(triple, tol)
    u, p = triple.unitary, triple.projection
    return _cross_commutator(u.conj().T, p, np.eye(triple.dim) - p)


def _cross_commutator(uh: np.ndarray, p: np.ndarray, complement: np.ndarray) -> np.ndarray:
    """``P U^* (I - P) U^*`` from ``U^*``, ``P`` and ``I - P``."""
    return p @ uh @ complement @ uh


def toeplitz_symbols(triple: BCLTriple, tol: float = 1e-10) -> ToeplitzSymbols:
    """Coefficients of the two degree-one multiplication symbols.

    The symbols are ``Phi1(z) = (I - P) U^* + z P U^*`` and
    ``Phi2(z) = U P + z U (I - P)``; their product is ``z I`` identically,
    which on coefficients reads::

        phi1_const @ phi2_const == 0
        phi1_const @ phi2_lin + phi1_lin @ phi2_const == I
        phi1_lin @ phi2_lin == 0
    """
    _require_valid(triple, tol)
    u, p = triple.unitary, triple.projection
    uh = u.conj().T
    comp = np.eye(triple.dim) - p
    return ToeplitzSymbols(
        phi1_const=comp @ uh,
        phi1_lin=p @ uh,
        phi2_const=u @ p,
        phi2_lin=u @ comp,
    )


def random_triple(dim: int, rank_p: int, seed: int) -> BCLTriple:
    """Seeded random triple: Haar unitary plus a Haar-random range projection.

    ``P`` projects onto the span of ``rank_p`` columns of an independent Haar
    unitary.  The same seed always produces bitwise-identical triples.
    """
    if not 0 <= rank_p <= dim:
        raise ValueError(f"rank_p must lie in [0, {dim}], got {rank_p}")
    rng = np.random.default_rng(seed)
    u = random_unitary(dim, rng)
    columns = random_unitary(dim, rng)[:, :rank_p]
    p = columns @ columns.conj().T
    return BCLTriple(dim=dim, unitary=u, projection=p)
