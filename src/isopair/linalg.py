"""Dense complex linear-algebra primitives used across the package.

Operators here are plain ``numpy.ndarray`` values with complex128 entries.
Structured pairs may store theirs as ``scipy.sparse`` CSR matrices (see
``models``); of the functions here, :func:`as_complex` (which densifies),
:func:`frobenius_norm` and :func:`normality_residual` also take that form.
Every function here is pure: inputs are never mutated, outputs are fresh
arrays.
"""

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
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # relative check with an absolute floor so near-zero matrices with
    # round-off-sized skew parts still pass
    scale = max(float(np.linalg.norm(a)), 1.0)
    if np.linalg.norm(a - a.conj().T) > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(values)[::-1]
    values = np.ascontiguousarray(values[order])
    vectors = np.ascontiguousarray(vectors[:, order])
    _normalize_phases(vectors)
    return values, vectors


def _normalize_phases(vectors: np.ndarray) -> None:
    """Rotate each column in place so its first largest-modulus entry is real and >= 0."""
    for j in range(vectors.shape[1]):
        v = vectors[:, j]
        k = int(np.argmax(np.abs(v)))
        pivot = v[k]
        if abs(pivot) > 0:
            vectors[:, j] = v * (pivot.conjugate() / abs(pivot))


def numerical_rank(a, tol: float | None = None) -> int:
    """Number of singular values above the relative cutoff ``tol * sigma_max``.

    ``tol`` defaults to ``max(a.shape) * 1e-12``, the usual backward-stable
    rank decision.  Singular values at or below an absolute floor of 1e-12
    never count, so the zero matrix has rank 0.
    """
    a = as_complex(a)
    if a.size == 0:
        return 0
    if tol is None:
        tol = max(a.shape) * RANK_TOL_FACTOR
    if tol <= 0:
        raise ValueError("rank tolerance must be positive")
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = max(tol * float(s[0]), RANK_FLOOR)
    return int(np.count_nonzero(s > cutoff))


def frobenius_norm(x) -> float:
    """Frobenius norm of a dense array or a ``scipy.sparse`` matrix."""
    return float(np.linalg.norm(x) if isinstance(x, np.ndarray) else sp.linalg.norm(x))


def normality_residual(x) -> float:
    """Frobenius norm of ``x x^H - x^H x`` for dense or sparse ``x``; zero when ``x`` is normal.

    Rows and columns outside the exact support of a dense ``x`` add only
    zeros to both products, so the residual is taken on the rest.  That
    block is multiplied as CSR: BLAS picks its kernels by size, and on a
    small dense block it can round a single-term entry unlike the full
    product (3e-17 for 0.0).  A sparse ``x`` already touches only its
    stored entries.
    """
    if isinstance(x, np.ndarray):
        touched = x != 0
        if not touched.all():
            support = np.flatnonzero(touched.any(axis=0) | touched.any(axis=1))
            if support.size < len(x):
                x = sp.csr_matrix(x[np.ix_(support, support)])
    return frobenius_norm(x @ x.conj().T - x.conj().T @ x)


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
    if tol is None:
        tol = max(a.shape) * RANK_TOL_FACTOR
    cutoff = max(tol * float(s[0]), RANK_FLOOR)
    r = int(np.count_nonzero(s > cutoff))
    return np.ascontiguousarray(u[:, :r])


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
