"""Dense complex linear-algebra primitives used across the package.

Operators here are plain ``numpy.ndarray`` values with complex128 entries.
Structured pairs may store theirs as ``scipy.sparse`` CSR matrices (see
``models``); of the functions here, :func:`as_complex` (which densifies),
:func:`frobenius_norm`, :func:`numerical_rank`, :func:`normality_residual`
and :func:`coupled_eig` also take that form.
Every function here is pure: inputs are never mutated, outputs are fresh
arrays.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

#: Relative factor for the default numerical-rank cutoff.
RANK_TOL_FACTOR = 1e-12

#: Absolute floor below which singular values never count towards the rank.
RANK_FLOOR = 1e-12


def as_complex(a) -> np.ndarray:
    """Coerce ``a``, dense or ``scipy.sparse``, to a C-contiguous complex128 array."""
    # the ndarray test first: sp.issparse, an ABC check, is slow on hot paths
    if not isinstance(a, np.ndarray) and sp.issparse(a):
        a = a.toarray(order="C")
    return np.ascontiguousarray(np.asarray(a, dtype=np.complex128))


def hermitian_eig(a, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with a canonical phase choice.

    Parameters
    ----------
    a : array_like
        Square matrix with ``norm(a - a^H) <= tol * norm(a)``.
    tol : float
        Relative tolerance for the Hermitian check.

    Returns
    -------
    values, vectors
        Eigenvalues sorted in descending order and matching eigenvectors as
        columns.  Each eigenvector is rotated so that its first entry of
        largest modulus is real and nonnegative, making repeated runs and
        cross-run comparisons deterministic.
    """
    values, vectors = np.linalg.eigh(_checked_hermitian(a, tol))
    order = np.argsort(values)[::-1]
    values = np.ascontiguousarray(values[order])
    vectors = np.ascontiguousarray(vectors[:, order])
    _normalize_phases(vectors)
    return values, vectors


def _checked_hermitian(a, tol: float = 1e-10) -> np.ndarray:
    """``a`` as complex128, after the Hermitian check of :func:`hermitian_eig`.

    Raises ``ValueError`` unless ``a`` is square and finite with
    ``norm(a - a^H) <= tol * max(norm(a), 1)``.
    """
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # a NaN or inf entry makes the norm NaN or inf; tested before the
    # difference, which would turn inf - inf into NaN with a warning
    scale = float(np.linalg.norm(a))
    if not math.isfinite(scale):
        raise ValueError("matrix has a non-finite entry")
    # relative check with an absolute floor so near-zero matrices with
    # round-off-sized skew parts still pass; written so that NaN fails it
    if not np.linalg.norm(a - a.conj().T) <= tol * max(scale, 1.0):
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


def _normalize_phases(vectors: np.ndarray) -> None:
    """Rotate each column in place so its first largest-modulus entry is real and >= 0."""
    if vectors.size == 0:
        return
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    # np.hypot rounds like the scalar abs(); np.abs on an array may not
    moduli = np.hypot(pivots.real, pivots.imag)
    # a zero column keeps the factor 1, which multiplies exactly
    factors = np.ones_like(pivots)
    np.divide(pivots.conj(), moduli, out=factors, where=moduli > 0)
    vectors *= factors


def coupled_eig(a, keep: Callable[[np.ndarray], np.ndarray],
                eig: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian matrix, taken from its coupled rows only.

    A row whose only nonzero entry, if any, is on the diagonal (and whose
    column is alike) is an exact 1x1 block, with eigenpair ``(entry, e_i)``.
    The other rows, the coupled ones, form one block, which goes to one
    call of ``eig``: ``np.linalg.eigh``, or :func:`hermitian_eig` to check
    the block and fix each vector's phase.  A filled matrix has no 1x1
    blocks and takes that one call on the whole matrix.

    ``keep`` maps eigenvalues to a mask of the pairs to return; only their
    vectors are formed, as columns on all rows.  Values come in descending
    order.  ``a`` is dense or ``scipy.sparse``.
    """
    n = a.shape[0]
    if sp.issparse(a):
        entries = a.tocoo()
        off = (entries.row != entries.col) & (entries.data != 0)
        coupled = np.zeros(n, dtype=bool)
        coupled[entries.row[off]] = coupled[entries.col[off]] = True
        diagonal = a.diagonal()
    else:
        off = a != 0
        np.fill_diagonal(off, False)
        coupled = off.any(axis=0) | off.any(axis=1)
        diagonal = np.diagonal(a)
    if coupled.all():
        values, vectors = eig(as_complex(a))
        kept = keep(values)
        values, vectors = values[kept], vectors[:, kept]
    else:
        rows = np.flatnonzero(coupled)
        values, block = np.zeros(0), np.zeros((0, 0), dtype=np.complex128)
        if rows.size:
            values, block = eig(as_complex(a[rows][:, rows] if sp.issparse(a)
                                           else a[np.ix_(rows, rows)]))
        kept = keep(values)
        singles = np.flatnonzero(~coupled)
        units = singles[keep(diagonal[singles].real)]
        values = np.concatenate([values[kept], diagonal[units].real])
        vectors = np.zeros((n, values.size), dtype=np.complex128)
        vectors[rows, :np.count_nonzero(kept)] = block[:, kept]
        vectors[units, np.arange(values.size - units.size, values.size)] = 1.0
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]


def numerical_rank(a, tol: float | None = None) -> int:
    """Number of singular values above the relative cutoff ``tol * sigma_max``.

    ``tol`` defaults to ``max(a.shape) * 1e-12``, the usual backward-stable
    rank decision.  Singular values at or below an absolute floor of 1e-12
    never count, so the zero matrix has rank 0.  ``a`` is dense or
    ``scipy.sparse``.  A square ``a`` is decomposed on the block of the
    indices it touches (:func:`_support`): its other rows and columns are
    zero and add only zero singular values.  The cutoff stays that of the
    whole shape.
    """
    shape = np.shape(a)
    if 0 in shape:
        return 0
    if tol is not None and tol <= 0:
        raise ValueError("rank tolerance must be positive")
    square = len(shape) == 2 and shape[0] == shape[1]
    block = _support(a)[1] if square else as_complex(a)
    return _rank_from_moduli(np.linalg.svd(block, compute_uv=False), shape, tol)


def _rank_from_moduli(moduli: np.ndarray, shape: tuple[int, ...],
                      tol: float | None = None) -> int:
    """The rank cutoff of :func:`numerical_rank`, applied to given values.

    ``moduli`` are the singular values of a matrix of ``shape``, or, for a
    Hermitian matrix, the moduli of its eigenvalues, which are the same
    numbers.  Counts those above ``max(tol * max(moduli), 1e-12)``, where
    ``tol`` defaults to ``max(shape) * 1e-12``.
    """
    if moduli.size == 0:
        return 0
    if tol is None:
        tol = max(shape) * RANK_TOL_FACTOR
    cutoff = max(tol * float(np.max(moduli)), RANK_FLOOR)
    return int(np.count_nonzero(moduli > cutoff))


def frobenius_norm(x) -> float:
    """Frobenius norm of a dense array or a ``scipy.sparse`` matrix."""
    return float(np.linalg.norm(x) if isinstance(x, np.ndarray) else sp.linalg.norm(x))


def normality_residual(x) -> float:
    """Frobenius norm of ``x x^H - x^H x`` for dense or sparse ``x``; zero when ``x`` is normal.

    Rows and columns outside the support of a dense ``x`` (:func:`_support`)
    add only zeros to both products, so the residual is taken on the rest.
    That block is multiplied as CSR: BLAS picks its kernels by size, and on
    a small dense block it can round a single-term entry unlike the full
    product (3e-17 for 0.0).  A sparse ``x`` already touches only its
    stored entries.
    """
    if isinstance(x, np.ndarray):
        rows, block = _support(x)
        if rows.size < x.shape[0]:
            x = sp.csr_matrix(block)
    return frobenius_norm(x @ x.conj().T - x.conj().T @ x)


def _support(x, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The indices a square matrix touches, and its dense block on them.

    An index is touched when its row or its column of ``x`` holds an entry
    of modulus above ``floor``.  At the default 0 that is any nonzero
    entry, and every other row and column of ``x`` is zero.  Returns the touched
    indices in increasing order and the complex128 block of ``x`` on them,
    taken in one pass over the dense array or the stored entries of a
    ``scipy.sparse`` ``x``, which is never densified whole unless every
    index is touched.  A dense ``x`` touched everywhere is its own block.
    """
    sparse = not isinstance(x, np.ndarray) and sp.issparse(x)
    x = x.tocsr() if sparse else as_complex(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    n = x.shape[0]
    if sparse:
        rows = np.repeat(np.arange(n), np.diff(x.indptr))
        hit = np.abs(x.data) > floor if floor else x.data != 0
        touched = np.zeros(n, dtype=bool)
        touched[rows[hit]] = touched[x.indices[hit]] = True
        index = touched.nonzero()[0]
        at = np.full(n, -1)
        at[index] = np.arange(index.size)
        inside = (at[rows] >= 0) & (at[x.indices] >= 0)
        block = np.zeros((index.size, index.size), dtype=np.complex128)
        # summed like toarray(): repeated entries add up, and 0.0 + -0.0 is 0.0
        np.add.at(block, (at[rows[inside]], at[x.indices[inside]]), x.data[inside])
        return index, block
    hit = np.abs(x) > floor if floor else x
    touched = hit.any(axis=1)
    index = touched.nonzero()[0]
    # once every row holds an entry, every index is touched
    if index.size == n:
        return index, x
    touched |= hit.any(axis=0)
    index = touched.nonzero()[0]
    return index, x if index.size == n else x[np.ix_(index, index)]


def lift(dim: int, rows: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Place the rows of ``vectors`` at indices ``rows`` of a zero ``dim``-row array."""
    full = np.zeros((dim,) + vectors.shape[1:], dtype=np.complex128)
    full[rows] = vectors
    return full


def orthonormal_columns(a, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the column space of ``a`` (SVD based).

    Returns an ``(n, r)`` array whose columns are orthonormal and span the
    columns of ``a`` up to the rank cutoff; ``r`` may be zero.
    """
    a = as_complex(a)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    if a.shape[1] == 0 or a.shape[0] == 0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return np.ascontiguousarray(u[:, :_rank_from_moduli(s, a.shape, tol)])


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^n carried by an orthonormal column basis.

    ``basis`` has shape ``(ambient_dim, dim)``; a zero-dimensional subspace
    has a ``(ambient_dim, 0)`` basis.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = as_complex(self.basis)
        if basis.ndim != 2 or basis.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis shape {basis.shape} does not match ambient dimension "
                f"{self.ambient_dim}"
            )
        gram = basis.conj().T @ basis
        if np.linalg.norm(gram - np.eye(basis.shape[1])) > 1e-10:
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projection onto the subspace."""
        return self.basis @ self.basis.conj().T

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.zeros((ambient_dim, 0), dtype=np.complex128))

    @staticmethod
    def from_columns(columns, tol: float | None = None) -> "Subspace":
        """Subspace spanned by the given columns (orthonormalized, rank-cut)."""
        cols = as_complex(columns)
        if cols.ndim == 1:
            cols = cols.reshape(-1, 1)
        return Subspace(cols.shape[0], orthonormal_columns(cols, tol))


def subspace_intersection(s1: Subspace, s2: Subspace, tol: float = 1e-8) -> Subspace:
    """Intersection of two subspaces, as the eigenspace of P1 + P2 at 2.

    A vector lies in both subspaces exactly when the sum of the two
    orthogonal projections fixes it, i.e. when it is an eigenvector of
    ``P1 + P2`` at eigenvalue 2.  Eigenvalues within ``tol`` of 2 are
    clustered together, which keeps the result stable under round-off.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )
    n = s1.ambient_dim
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.zero(n)
    values, vectors = hermitian_eig(s1.projector() + s2.projector())
    mask = values >= 2.0 - tol
    return Subspace(n, vectors[:, mask])


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre sample.

    The phases of the triangular factor's diagonal are absorbed into Q so the
    distribution is exactly Haar rather than merely orthonormal.
    """
    if dim == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))
