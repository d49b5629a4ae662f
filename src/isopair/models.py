"""Canonical truncated matrix models of isometric pairs.

Infinite-dimensional building blocks are represented by finite matrix
truncations together with an *interior window*: the set of basis indices on
which the two operators and their adjoints act exactly as in the infinite
model.  Every derived quantity (defect, cross-commutator, spectra) is
computed from full-matrix products and then compressed to the interior, so
truncation artifacts, which live on boundary indices only, never enter a
spectrum.

Basis labels are structured tuples, never strings:

* ``("mono", m, n)`` -- monomial in two variables (bidisc models),
* ``("mono", k)``    -- monomial in one variable (twisted shift),
* ``("chain", j)``   -- co-analytic chain vector (invariant-subspace model),
* ``(i, label)``     -- label inside part ``i`` of a direct sum,
* ``("scrambled", label)`` -- coordinate of a basis-scrambled pair.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import as_complex, random_unitary

Label = tuple


@dataclass(frozen=True)
class StructuredPair:
    """Truncated matrix model of an isometric pair with an interior window."""

    dim: int
    v1: np.ndarray
    v2: np.ndarray
    basis_labels: tuple[Label, ...]
    interior: tuple[int, ...]
    provenance: str

    def __post_init__(self):
        v1 = as_complex(self.v1)
        v2 = as_complex(self.v2)
        if v1.shape != (self.dim, self.dim) or v2.shape != (self.dim, self.dim):
            raise ValueError("operator shapes do not match dim")
        if len(self.basis_labels) != self.dim:
            raise ValueError("one label per basis vector required")
        if any(not 0 <= i < self.dim for i in self.interior):
            raise ValueError("interior indices out of range")
        if len(set(self.interior)) != len(self.interior):
            raise ValueError("interior indices must be distinct")
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        object.__setattr__(self, "interior", tuple(int(i) for i in self.interior))

    @property
    def interior_dim(self) -> int:
        return len(self.interior)

    @property
    def boundary(self) -> tuple[int, ...]:
        inside = set(self.interior)
        return tuple(i for i in range(self.dim) if i not in inside)

    def compress(self, operator) -> np.ndarray:
        """Submatrix of a full-space operator on interior rows and columns."""
        idx = np.asarray(self.interior, dtype=int)
        operator = np.asarray(operator)
        return np.ascontiguousarray(operator[np.ix_(idx, idx)])


@dataclass(frozen=True)
class PairValidation:
    ok: bool
    residuals: dict[str, float]


def validate_pair(pair: StructuredPair, tol: float = 1e-12) -> PairValidation:
    """Isometry and commutation residuals on the interior window."""
    idx = np.asarray(pair.interior, dtype=int)
    eye = np.eye(len(idx))
    gram1 = (pair.v1.conj().T @ pair.v1)[np.ix_(idx, idx)]
    gram2 = (pair.v2.conj().T @ pair.v2)[np.ix_(idx, idx)]
    comm = (pair.v1 @ pair.v2 - pair.v2 @ pair.v1)[:, idx]
    residuals = {
        "isometry_v1": float(np.linalg.norm(gram1 - eye)),
        "isometry_v2": float(np.linalg.norm(gram2 - eye)),
        "commutation": float(np.linalg.norm(comm)),
    }
    return PairValidation(ok=all(r <= tol for r in residuals.values()),
                          residuals=residuals)


#: Share of nonzero entries above which a pair's defect and cross-commutator
#: are multiplied densely.  Generated models hold a couple of entries per
#: column and stay far below it; a basis scramble fills the interior and
#: boundary blocks, well above.  The two paths cost the same between 4 % and
#: 18 % fill on models of dimension 240 to 930.
DENSE_FILL = 0.1


def dense_products(pair: StructuredPair) -> bool:
    """Whether the pair is filled enough for dense products to be cheaper."""
    nonzero = np.count_nonzero(pair.v1) + np.count_nonzero(pair.v2)
    return nonzero > DENSE_FILL * 2 * pair.dim * pair.dim


def _sparse_ops(pair: StructuredPair) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    return sp.csr_matrix(pair.v1), sp.csr_matrix(pair.v2)


def _raw_defect_cross(pair: StructuredPair) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Full-space defect and cross-commutator as sparse matrices.

    Products are carried out sparsely; the generators fill their matrices
    with at most a couple of entries per column, so this stays cheap even
    for a few thousand basis vectors.
    """
    v1, v2 = _sparse_ops(pair)
    eye = sp.identity(pair.dim, dtype=np.complex128, format="csr")
    prod = v1 @ v2
    defect = eye - v1 @ v1.getH() - v2 @ v2.getH() + prod @ prod.getH()
    cross = v2.getH() @ v1 - v1 @ v2.getH()
    return defect.tocsr(), cross.tocsr()


def defect_and_cross_on_interior(pair: StructuredPair) -> tuple[np.ndarray, np.ndarray]:
    """Defect operator and cross-commutator compressed to the interior window.

    A dense pair (see :func:`dense_products`) is multiplied densely on the
    interior rows and columns only; a sparse one through :func:`_raw_defect_cross`.
    """
    idx = np.asarray(pair.interior, dtype=int)
    if dense_products(pair):
        v1_rows, v2_rows = pair.v1[idx, :], pair.v2[idx, :]
        prod_rows = v1_rows @ pair.v2
        defect_int = (np.eye(len(idx)) - v1_rows @ v1_rows.conj().T
                      - v2_rows @ v2_rows.conj().T + prod_rows @ prod_rows.conj().T)
        cross_int = (pair.v2[:, idx].conj().T @ pair.v1[:, idx]
                     - v1_rows @ v2_rows.conj().T)
        return defect_int, cross_int
    defect, cross = _raw_defect_cross(pair)
    defect_int = defect[idx, :][:, idx].toarray()
    cross_int = cross[idx, :][:, idx].toarray()
    return defect_int, cross_int


def defect_on_interior(pair: StructuredPair) -> np.ndarray:
    return defect_and_cross_on_interior(pair)[0]


def cross_on_interior(pair: StructuredPair) -> np.ndarray:
    return defect_and_cross_on_interior(pair)[1]


def bishift_truncated(cap: int) -> StructuredPair:
    """Multiplication by the two coordinates on bidisc monomials of degree < cap.

    Basis ``z^m w^n`` with ``0 <= m, n < cap``; raising past the cap drops the
    overflow.  On the interior the defect is the rank-one projection onto the
    constant monomial and the cross-commutator vanishes.
    """
    if cap < 3:
        raise ValueError(f"cap must be at least 3, got {cap}")
    labels = tuple(("mono", m, n) for m in range(cap) for n in range(cap))
    index = {lab: i for i, lab in enumerate(labels)}
    dim = cap * cap
    v1 = np.zeros((dim, dim), dtype=np.complex128)
    v2 = np.zeros_like(v1)
    for (_, m, n), col in index.items():
        if m + 1 < cap:
            v1[index[("mono", m + 1, n)], col] = 1.0
        if n + 1 < cap:
            v2[index[("mono", m, n + 1)], col] = 1.0
    interior = tuple(index[("mono", m, n)]
                     for m in range(cap - 1) for n in range(cap - 1))
    return StructuredPair(dim, v1, v2, labels, interior, "bishift")


def twisted_shift(alpha: complex, cap: int) -> StructuredPair:
    """The pair ``(M_z, alpha M_z)`` on one-variable monomials of degree < cap.

    ``alpha`` must be unimodular.  On the interior the cross-commutator is
    ``conj(alpha)`` times the projection onto constants and the defect has
    nonzero eigenvalues exactly ``{1, -1}``.
    """
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > 1e-12:
        raise ValueError(f"alpha must be unimodular, got |alpha| = {abs(alpha)}")
    if cap < 3:
        raise ValueError(f"cap must be at least 3, got {cap}")
    shift = np.zeros((cap, cap), dtype=np.complex128)
    for k in range(cap - 1):
        shift[k + 1, k] = 1.0
    labels = tuple(("mono", k) for k in range(cap))
    interior = tuple(range(cap - 1))
    return StructuredPair(cap, shift, alpha * shift, labels, interior, "twisted")


def direct_sum(parts: list[StructuredPair]) -> StructuredPair:
    """Block-diagonal sum; interiors embed, labels are namespaced per part."""
    if not parts:
        raise ValueError("direct_sum needs at least one part")
    if len(parts) == 1:
        return parts[0]
    dim = sum(p.dim for p in parts)
    v1 = np.zeros((dim, dim), dtype=np.complex128)
    v2 = np.zeros_like(v1)
    labels: list[Label] = []
    interior: list[int] = []
    offset = 0
    for i, part in enumerate(parts):
        stop = offset + part.dim
        v1[offset:stop, offset:stop] = part.v1
        v2[offset:stop, offset:stop] = part.v2
        labels.extend((i, lab) for lab in part.basis_labels)
        interior.extend(offset + j for j in part.interior)
        offset = stop
    return StructuredPair(dim, v1, v2, tuple(labels), tuple(interior), "direct_sum")


def conjugate_split(pair: StructuredPair, w_interior, w_boundary) -> StructuredPair:
    """Conjugate both operators by a block unitary respecting the interior split."""
    w_interior = as_complex(w_interior)
    w_boundary = as_complex(w_boundary)
    boundary = pair.boundary
    if w_interior.shape != (pair.interior_dim,) * 2:
        raise ValueError("interior block has the wrong shape")
    if w_boundary.shape != (len(boundary),) * 2:
        raise ValueError("boundary block has the wrong shape")
    w = np.zeros((pair.dim, pair.dim), dtype=np.complex128)
    ii = np.asarray(pair.interior, dtype=int)
    bb = np.asarray(boundary, dtype=int)
    w[np.ix_(ii, ii)] = w_interior
    if bb.size:
        w[np.ix_(bb, bb)] = w_boundary
    wh = w.conj().T
    labels = tuple(("scrambled", lab) for lab in pair.basis_labels)
    return StructuredPair(pair.dim, w @ pair.v1 @ wh, w @ pair.v2 @ wh,
                          labels, pair.interior, "scrambled")


def scramble(pair: StructuredPair, seed: int) -> StructuredPair:
    """Haar-random change of basis that mixes interior vectors among themselves.

    Boundary vectors are mixed separately, so the interior window (as a
    subspace) is preserved and every classification invariant must survive.
    """
    rng = np.random.default_rng(seed)
    w_int = random_unitary(pair.interior_dim, rng)
    w_bnd = random_unitary(len(pair.boundary), rng)
    return conjugate_split(pair, w_int, w_bnd)
