"""Dense complex linear-algebra primitives used across the package.

Operators here are plain ``numpy.ndarray`` values with complex128 entries.
Structured pairs may store theirs as ``scipy.sparse`` CSR matrices (see
``models``); of the functions here, :func:`as_complex` (which densifies),
:func:`frobenius_norm`, :func:`numerical_rank`, :func:`normality_residual`
and :func:`coupled_eig` also take that form.  The last three restrict a
matrix to the indices it touches through :func:`_support`, which takes no
floor: a pair's products drop their round-off as they form (``models``).
Every function here is pure: inputs are never mutated, outputs are fresh
arrays.

Sparse products are formed by one kernel on stored entries, with no scipy
matrix in between: :func:`_pairs` and :func:`_adjoint_pairs` name the
products ``A B^H`` and ``A^H B`` of two matrices' entries, and
:func:`_signed_sum` lists their unsummed terms and adds them.  It gives
scipy's bits, because it adds in scipy's order: a CSR product sums the
terms at one position from zero, A's entries in storage order and for each
the matching entries of B in B's order; a chain of sums and differences
then adds the products left to right; each ``a * conj(b)`` is four real
products; and the Frobenius norm reads a sum's entries sorted by row, then
column.  A product scipy forms in CSC is summed as the transpose it is
(:func:`_by_column`).  One rule picks the arithmetic: the kernel sums what
fits (:func:`_fits`), and scipy's compiled arithmetic forms the rest from
the same formula, with the same bits and memory that grows with the output
only.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

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
        Relative tolerance for the Hermitian check, finite and nonnegative.

    Returns
    -------
    values, vectors
        Eigenvalues sorted in descending order and matching eigenvectors as
        columns.  Each eigenvector is rotated so that its first entry of
        largest modulus is real and nonnegative, making repeated runs and
        cross-run comparisons deterministic.
    """
    _check_tolerance("tol", tol)
    values, vectors = np.linalg.eigh(_checked_hermitian(a, tol))
    order = values.argsort()[::-1]
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
    scale = frobenius_norm(a)
    if not math.isfinite(scale):
        raise ValueError("matrix has a non-finite entry")
    # relative check with an absolute floor so near-zero matrices with
    # round-off-sized skew parts still pass; written so that NaN fails it
    if not frobenius_norm(a - a.conj().T) <= tol * max(scale, 1.0):
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


def _normalize_phases(vectors: np.ndarray) -> None:
    """Rotate each column in place so its first largest-modulus entry is real and >= 0."""
    if vectors.size == 0:
        return
    pivots = vectors[np.abs(vectors).argmax(axis=0), np.arange(vectors.shape[1])]
    # np.hypot rounds like the scalar abs(); np.abs on an array may not
    moduli = np.hypot(pivots.real, pivots.imag)
    # a zero column keeps the factor 1, which multiplies exactly
    factors = np.ones_like(pivots)
    np.divide(pivots.conj(), moduli, out=factors, where=moduli > 0)
    vectors *= factors


def coupled_eig(a, keep: Callable[[np.ndarray], np.ndarray],
                eig: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian matrix, taken from its coupled rows only.

    Zero rows give no eigenpair, so ``keep(0)`` must be false.  On the block
    of the other indices (:func:`_support`), a row whose only nonzero entry
    is on the diagonal (and whose column is alike) is an exact 1x1 block,
    with eigenpair ``(entry, e_i)``.  The other rows, the coupled ones, form
    one block, which goes to one call of ``eig``: ``np.linalg.eigh``, or
    :func:`hermitian_eig` to check the block and fix each vector's phase.
    A filled matrix takes that one call on the whole matrix.

    ``keep`` maps eigenvalues to a mask of the pairs to return; only their
    vectors are formed, as columns on all rows.  Values come in descending
    order.  ``a`` is dense or ``scipy.sparse``.
    """
    index, block = _support(a)
    off = block != 0
    # a block with no zero entry couples every row to the others
    filled = index.size == a.shape[0] > 1 and off.all()
    if not filled:
        np.fill_diagonal(off, False)
        coupled = off.any(axis=0) | off.any(axis=1)
        filled = index.size == a.shape[0] and coupled.all()
    if filled:
        # a filled matrix, such as a triple's defect: placing its vectors
        # would add a third to the call at dimension 10
        values, vectors = eig(block)
        kept = keep(values)
        values, vectors = values[kept], vectors[:, kept]
    else:
        values, block_vectors = np.zeros(0), np.zeros((0, 0), dtype=np.complex128)
        if coupled.any():
            values, block_vectors = eig(block[np.ix_(coupled, coupled)])
        kept = keep(values)
        diagonal = np.diagonal(block).real
        units = np.flatnonzero(~coupled & keep(diagonal))
        values = np.concatenate([values[kept], diagonal[units]])
        vectors = np.zeros((a.shape[0], values.size), dtype=np.complex128)
        vectors[index[coupled], :np.count_nonzero(kept)] = block_vectors[:, kept]
        vectors[index[units], np.arange(values.size - units.size, values.size)] = 1.0
    order = (-values).argsort(kind="stable")
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
        return _rank_from_moduli(np.zeros(0), shape, tol)
    square = len(shape) == 2 and shape[0] == shape[1]
    block = _support(a)[1] if square else as_complex(a)
    return _rank_from_moduli(np.linalg.svd(block, compute_uv=False), shape, tol)


def _rank_from_moduli(moduli: np.ndarray, shape: tuple[int, ...],
                      tol: float | None = None) -> int:
    """The rank cutoff of :func:`numerical_rank`, applied to given values.

    ``moduli`` are the singular values of a matrix of ``shape``, or, for a
    Hermitian matrix, the moduli of its eigenvalues, which are the same
    numbers.  Counts those above ``max(tol * max(moduli), 1e-12)``, where
    ``tol``, finite and positive when set, defaults to ``max(shape) * 1e-12``.
    """
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ValueError("rank tolerance must be finite and positive")
    if moduli.size == 0:
        return 0
    if tol is None:
        tol = max(shape) * RANK_TOL_FACTOR
    cutoff = max(tol * float(moduli.max()), RANK_FLOOR)
    return int(np.count_nonzero(moduli > cutoff))


def _check_tolerance(name: str, value: float) -> None:
    """Raise ``ValueError`` unless the tolerance ``value`` is finite and nonnegative."""
    # written so that NaN fails it
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def frobenius_norm(x) -> float:
    """Frobenius norm of a dense array or a ``scipy.sparse`` matrix.

    A float64 or complex128 array takes the arithmetic of ``np.linalg.norm``
    (the dot products of its flattened real and imaginary parts, read in
    memory order) without that function's argument handling, so the value
    is the same float.
    """
    if not isinstance(x, np.ndarray):
        return float(sp.linalg.norm(x))
    kind = x.dtype.char
    if kind not in "dD":
        return float(np.linalg.norm(x))
    flat = x.ravel(order="K")
    if kind == "d":
        return math.sqrt(flat.dot(flat))
    real, imag = flat.real, flat.imag
    return math.sqrt(real.dot(real) + imag.dot(imag))


def normality_residual(x) -> float:
    """Frobenius norm of ``x x^H - x^H x`` for dense or sparse ``x``; zero when ``x`` is normal.

    Rows and columns outside the support of a dense ``x`` (:func:`_support`)
    add only zeros to both products, so the residual is taken on the rest.
    That block is multiplied as CSR: BLAS picks its kernels by size, and on
    a small dense block it can round a single-term entry unlike the full
    product (3e-17 for 0.0).  A CSR ``x`` touches only its stored entries;
    its products are summed from them by the sparse kernel when they fit
    (:func:`_fits`), with the bits scipy gives for the same formula.
    """
    if isinstance(x, np.ndarray):
        rows, block = _support(x)
        if rows.size < x.shape[0]:
            x = sp.csr_matrix(block)
    if not isinstance(x, np.ndarray):
        x = x.tocsr()
        entries = _entries(x)
        parts = [_pairs(entries, entries), _adjoint_pairs(entries, entries)]
        if _fits(parts):
            return frobenius_norm(_signed_sum("+-", parts, x.shape)[2])
    return frobenius_norm(x @ x.conj().T - x.conj().T @ x)


def _entries(x: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A CSR matrix's stored entries as ``(rows, cols, values)``, in storage order."""
    indptr = x.indptr
    stored = int(indptr[-1])
    return (np.repeat(np.arange(x.shape[0]), indptr[1:] - indptr[:-1]), x.indices[:stored],
            x.data[:stored])


def _swap(entries):
    """Entries or terms with rows and columns exchanged, in the same order."""
    rows, cols, values = entries
    return cols, rows, values


def _by_column(entries):
    """The transpose's entries, in the order scipy's CSR-to-CSC conversion stores them.

    Column by column, each in the order of ``entries``: so a CSC product
    walks a column's entries by increasing row.
    """
    order = np.argsort(entries[1], kind="stable")
    return tuple(array[order] for array in _swap(entries))


class _Product(NamedTuple):
    """A product ``A B^H`` as a part of :func:`_signed_sum`, its terms not yet listed.

    ``a`` and ``b`` hold A's and B's entries as ``(row, shared index,
    value)`` arrays; with ``swapped``, the part is the product's transpose.
    """

    a: tuple
    b: tuple
    swapped: bool = False


def _pairs(a, b) -> _Product:
    """``A B^H`` for A's and B's entries ``a`` and ``b``, each in CSR storage order (:func:`_entries`)."""
    return _Product(a, b)


def _adjoint_pairs(a, b, transposed: bool = False) -> _Product:
    """``A^H B`` for A's and B's entries, each in CSR storage order, as scipy forms it.

    scipy forms it in CSC, as the transpose of ``B^T conj(A)`` with B read
    by columns (:func:`_by_column`).  With ``transposed``, the part is that
    ``B^T conj(A)``: the rows of its sum are the columns in which the sparse
    norm reads the CSC product.
    """
    return _Product(_by_column(b), _swap(a), not transposed)


def _terms(part: _Product):
    """The unsummed terms of a product ``A B^H``, or of its transpose, as ``(rows, cols, values)``.

    They come in the order scipy's CSR product adds them: A's entries in
    turn, and for each, B's entries with the same shared index, in B's
    order.  Each ``a * conj(b)`` is built from four real products, as scipy
    builds it; numpy's complex multiply may fuse them and round otherwise (a
    2e-17 imaginary part in ``|x|^2``).
    """
    (a_rows, a_shared, a_values), (b_rows, b_shared, b_values) = part.a, part.b
    # B's entries grouped by shared index, each group in B's order
    by_shared = np.argsort(b_shared, kind="stable")
    counts = np.bincount(b_shared, minlength=int(a_shared.max(initial=-1)) + 1)
    starts = np.cumsum(counts) - counts
    count = counts[a_shared]
    left = np.repeat(np.arange(a_shared.size), count)
    right = by_shared[np.arange(left.size)
                      + np.repeat(starts[a_shared] + count - np.cumsum(count), count)]
    a_left, b_right = a_values[left], b_values[right]
    ar, ai, br, bi = a_left.real, a_left.imag, b_right.real, b_right.imag
    values = np.empty(right.size, dtype=np.complex128)
    np.multiply(ar, br, out=values.real)
    values.real += ai * bi
    np.multiply(ai, br, out=values.imag)
    values.imag -= ar * bi
    terms = a_rows[left], b_rows[right], values
    return _swap(terms) if part.swapped else terms


#: Terms the kernel lists for one sum, at most (:func:`_fits`).  Each term
#: takes numpy passes of its own, and a factor with a dense s x s block gives
#: s^3 terms for s^2 entries of the sum; a larger sum goes to scipy.
_CHUNK_TERMS = 1 << 16


def _most_terms(part) -> int:
    """A bound on the number of terms of a part of :func:`_signed_sum`, cheaper than the count."""
    if not isinstance(part, _Product):
        return part[0].size
    return part.a[1].size * int(np.bincount(part.b[1]).max(initial=0))


def _fits(parts) -> bool:
    """Whether :func:`_signed_sum` takes ``parts``: at most ``_CHUNK_TERMS`` terms in all."""
    return sum(_most_terms(part) for part in parts) <= _CHUNK_TERMS


def _signed_sum(signs: str, parts, shape: tuple[int, int], drop: float = 0.0):
    """``P1 ± P2 ± ...`` as scipy sums it; ``signs`` holds each part's sign, ``+`` or ``-``.

    A part is a product (:func:`_pairs`, :func:`_adjoint_pairs`) or a
    matrix's entries ``(rows, cols, values)``.  Every term of every part is
    listed at once, so callers ask :func:`_fits` first.  A part's terms at
    one position are summed from zero in their order, as a CSR product sums
    them (``np.bincount`` adds in index order, like ``np.add.at``;
    ``np.add.reduceat`` would give ``1 + (-1 - 0.09)`` where scipy gives
    ``(1 - 1) - 0.09``).  The parts' sums are then added or subtracted left
    to right, as a chain of CSR sums and differences does.  Entries of
    modulus at most ``drop`` are dropped (by default the exact zeros, which
    scipy drops too).

    Returns the sum's entries as ``(rows, cols, values)``, sorted by row,
    then column: the order in which scipy's sparse norm reads a sum, so
    :func:`frobenius_norm` of ``values`` is the sum's norm, bit for bit.
    """
    parts = [_terms(part) if isinstance(part, _Product) else part for part in parts]
    n_cols = shape[1]
    keys = np.concatenate([np.asarray(rows, dtype=np.int64) * n_cols + cols
                           for rows, cols, _ in parts])
    # a stable sort: the terms come mostly in runs of increasing position
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    first = np.flatnonzero(new)
    runs = np.empty(first.size, dtype=np.intp)
    runs[:-1] = first[1:] - first[:-1]
    runs[-1:] = keys.size - first[-1:]
    at = np.empty(keys.size, dtype=np.intp)
    # (a cumulative sum of ``new`` gives the same, several times slower)
    at[order] = np.repeat(np.arange(first.size), runs)
    # a part's terms at one position, summed from zero in order: bincount
    # adds its weights in index order, like np.add.at, and a complex sum is
    # the sums of its real and imaginary parts
    real = imag = 0.0
    start = 0
    for sign, (_, _, values) in zip(signs, parts, strict=True):
        stop = start + values.size
        add = np.add if sign == "+" else np.subtract
        real = add(real, np.bincount(at[start:stop], values.real, first.size))
        imag = add(imag, np.bincount(at[start:stop], values.imag, first.size))
        start = stop
    total = np.empty(first.size, dtype=np.complex128)
    total.real, total.imag = real, imag
    # written so that a NaN entry is kept, as scipy keeps it
    kept = ~(np.abs(total) <= drop)
    rows, cols = np.divmod(ordered[first[kept]], n_cols)
    return rows, cols, total[kept]


def _sum_csr(shape: tuple[int, int], entries) -> sp.csr_matrix:
    """The CSR matrix of distinct entries ``(rows, cols, values)`` sorted by row, then column.

    Sorted so, the entries are the CSR arrays themselves, as :func:`_signed_sum`
    returns them; this skips scipy's slower conversion from coordinates.
    """
    rows, cols, values = entries
    indptr = np.searchsorted(rows, np.arange(shape[0] + 1)).astype(np.int32)
    return sp.csr_matrix((values, cols.astype(np.int32), indptr), shape=shape)


def _support(x) -> tuple[np.ndarray, np.ndarray]:
    """The indices a square matrix touches, and its dense block on them.

    An index is touched when its row or its column of ``x`` holds a nonzero
    entry; every other row and column of ``x`` is zero.  Returns the touched
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
        rows, cols, values = _entries(x)
        hit = values != 0
        touched = np.zeros(n, dtype=bool)
        touched[rows[hit]] = touched[cols[hit]] = True
        index = touched.nonzero()[0]
        return index, _block(x, index)
    touched = x.any(axis=1)
    index = touched.nonzero()[0]
    # once every row holds an entry, every index is touched
    if index.size == n:
        return index, x
    touched |= x.any(axis=0)
    index = touched.nonzero()[0]
    return index, x if index.size == n else x[np.ix_(index, index)]


def _block(x: sp.csr_matrix, index: np.ndarray) -> np.ndarray:
    """The dense block of a square CSR matrix on the increasing indices ``index``.

    Read from the stored entries, summed like ``toarray()``: repeated
    entries add up, and 0.0 + -0.0 is 0.0.
    """
    rows, cols, values = _entries(x)
    at = np.full(x.shape[0], -1)
    at[index] = np.arange(index.size)
    inside = (at[rows] >= 0) & (at[cols] >= 0)
    block = np.zeros((index.size, index.size), dtype=np.complex128)
    np.add.at(block, (at[rows[inside]], at[cols[inside]]), values[inside])
    return block


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
        # ``gram - I``, formed in place
        gram.flat[::basis.shape[1] + 1] -= 1.0
        if frobenius_norm(gram) > 1e-10:
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
    ``tol`` must be finite and nonnegative.
    """
    _check_tolerance("tol", tol)
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
