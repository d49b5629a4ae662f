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

A sum of products, such as a pair's defect ``I - V1 V1^H - V2 V2^H + V V^H``,
is written once, as signed parts (``A B^H``, ``A^H B``, a matrix or the
identity), and formed by one entry, :func:`form_sum` (:func:`sum_norm` for
its norm), which alone picks the arithmetic.  When every operand is CSR and
the terms fit (:data:`_CHUNK_TERMS`), a kernel adds the stored entries'
terms in scipy's order (:func:`_signed_sum`), which gives scipy's bits
without its intermediate matrices; otherwise numpy or scipy forms the parts
and adds them left to right.
"""

import functools
import math
from collections import namedtuple
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


#: Rows from which :func:`coupled_eig` solves a block on its range first
#: (:func:`_thin_eig`).  Median ms per call of ``hermitian_eig`` (full) and
#: of the thin solve on filled Hermitian matrices with ``r`` eigenvalues
#: +-1 and the rest 0, 1 BLAS thread on a shared 2-vCPU VM; "first" draws
#: the Gaussian block anew, as the first solve at a size does:
#:
#: ====  ====  =============  ==============  =============
#: rows  full  thin, r = n/8  first, r = n/8   thin, r = n/3
#: ====  ====  =============  ==============  =============
#: 24    0.22  0.18           0.25            (falls back)
#: 32    0.24  0.21           0.28            (falls back)
#: 40    0.29  0.17           0.17            (falls back)
#: 48    0.29  0.15           0.20            0.24
#: 64    0.52  0.20           0.25            0.31
#: 96    1.33  0.34           0.42            0.67
#: 128   2.51  0.59           0.72            1.15
#: ====  ====  =============  ==============  =============
#:
#: Below about 40 rows a first solve loses, and a win saves at most tens of
#: microseconds; 48 also keeps the coupled blocks of sparse models up to
#: cap 20 (at most 32 rows) on the full solve.
THIN_MIN_ROWS = 48

#: Completeness bound of a thin solve, relative to ``max(norm(a), 1)``.
THIN_RESIDUAL = 1e-10

#: Seed of the Gaussian block a thin solve draws; fixed, so every call is repeatable.
_THIN_SEED = 20111

#: Entries of the largest Gaussian block kept for later solves (1 MiB of
#: complex128); a larger one is drawn anew each time.  The cache holds at
#: most 8 blocks, so at most 8 MiB.
_CACHED_ENTRIES = 1 << 16


def _gaussian_block(rows: int, width: int) -> np.ndarray:
    """The read-only complex Gaussian ``rows x width`` block of :func:`_thin_eig`."""
    # real and imaginary parts interleaved
    block = np.random.default_rng(_THIN_SEED).standard_normal((rows, 2 * width))
    block = block.view(np.complex128)
    block.flags.writeable = False
    return block


_cached_gaussian_block = functools.lru_cache(maxsize=8)(_gaussian_block)


def _thin_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Eigenpairs of the Hermitian ``a`` solved on its range, with the completeness residual.

    A randomized range finder (Halko, Martinsson and Tropp, SIAM Review
    53(2), 2011): ``Q = qr(a Omega)`` for a fixed-seed complex Gaussian
    ``Omega`` of ``ceil(norm(a)^2) + 8`` columns (Frobenius norm, less its
    round-off; a contraction's rank is at least its square), then
    ``eigh(Q^H a Q)``.
    The pairs ``(values, vectors)`` are returned only when
    ``norm(a - V diag(values) V^H) <= THIN_RESIDUAL * max(norm(a), 1)``:
    by Weyl's inequality every eigenvalue they leave out is then at most
    that residual in modulus.  None comes back when that bound fails, when
    the width would pass half the rows, or when ``a`` has a non-finite
    entry; so randomness never decides an answer.

    ``a`` passes the checks of :func:`hermitian_eig` and the result follows
    its rules: values descend, and the phase rule holds on the full-length
    vectors.
    """
    n = a.shape[0]
    scale = frobenius_norm(a)
    if not math.isfinite(scale):
        return None
    # less a slack of n eps relative: round-off lifts the squared norm of a
    # rank-r projection a hair above r, which would add a column
    width = math.ceil(scale * scale * (1.0 - n * np.finfo(np.float64).eps)) + 8
    if 2 * width > n:
        return None
    a = _checked_hermitian(a)
    draw = _cached_gaussian_block if n * width <= _CACHED_ENTRIES else _gaussian_block
    q = np.linalg.qr(a @ draw(n, width))[0]
    values, small = np.linalg.eigh(q.conj().T @ a @ q)
    vectors = q @ small
    residual = frobenius_norm(a - (vectors * values) @ vectors.conj().T)
    if not residual <= THIN_RESIDUAL * max(scale, 1.0):  # written so that NaN fails it
        return None
    values, vectors = values[::-1].copy(), vectors[:, ::-1].copy()
    _normalize_phases(vectors)
    return values, vectors, residual


def _solve(block: np.ndarray, keep: Callable[[np.ndarray], np.ndarray]
           ) -> tuple[np.ndarray, np.ndarray, float | None]:
    """:func:`hermitian_eig` of ``block`` and None, or a thin solve ``keep`` lets stand."""
    if block.shape[0] >= THIN_MIN_ROWS:
        solved = _thin_eig(block)
        if solved is not None and not keep(np.array([-solved[2], solved[2]])).any():
            return solved
    return *hermitian_eig(block), None


def coupled_eig(a, keep: Callable[[np.ndarray], np.ndarray]
                ) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Eigenpairs of a Hermitian matrix, taken from its coupled rows only.

    ``a`` is dense or ``scipy.sparse``.  ``keep`` maps eigenvalues to a mask
    of the pairs to return; only their vectors are formed, as columns on all
    rows, and values come in descending order.  ``keep(0)`` must be false,
    and ``keep`` must be monotone on each sign: ``keep(v)`` implies
    ``keep(w)`` whenever ``w`` has the sign of ``v`` and ``|w| >= |v|``.

    Zero rows give no eigenpair.  On the block of the other indices
    (:func:`_support`), a row whose only nonzero entry is on the diagonal
    (and whose column is alike) is an exact 1x1 block, with eigenpair
    ``(entry, e_i)``; a non-finite entry there raises ``ValueError``.  The
    other rows, the coupled ones, form one block, decomposed by
    :func:`hermitian_eig` with its checks, order and phase rule.  A filled
    matrix is that block whole.

    A block of at least :data:`THIN_MIN_ROWS` rows is first solved on its
    range (:func:`_thin_eig`), which follows the same rules.  Every value
    that solve leaves out has modulus at most its completeness residual, so
    its result stands only when ``keep`` leaves out both ``-residual`` and
    ``residual``; for a ``keep`` monotone on each sign the pairs returned are
    then exactly those the whole solve would select.  The residual of a
    result that stands comes back as the third item, else None.
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
        values, vectors, residual = _solve(block, keep)
        kept = keep(values)
        values, vectors = values[kept], vectors[:, kept]
    else:
        diagonal = np.diagonal(block)
        if not np.isfinite(diagonal).all():
            raise ValueError("matrix has a non-finite entry")
        diagonal = diagonal.real
        values, block_vectors, residual = np.zeros(0), np.zeros((0, 0), dtype=np.complex128), None
        if coupled.any():
            values, block_vectors, residual = _solve(block[np.ix_(coupled, coupled)], keep)
        kept = keep(values)
        units = np.flatnonzero(~coupled & keep(diagonal))
        values = np.concatenate([values[kept], diagonal[units]])
        vectors = np.zeros((a.shape[0], values.size), dtype=np.complex128)
        vectors[index[coupled], :np.count_nonzero(kept)] = block_vectors[:, kept]
        vectors[index[units], np.arange(values.size - units.size, values.size)] = 1.0
    order = (-values).argsort(kind="stable")
    return values[order], vectors[:, order], residual


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
    is the same float.  A sparse matrix takes ``scipy.sparse.linalg.norm``'s:
    its stored values, summed where a position repeats, in canonical order.
    """
    if not isinstance(x, np.ndarray):
        if not hasattr(x, "has_canonical_format"):  # LIL, DOK or DIA
            x = x.tocsr()
        if not x.has_canonical_format:
            x = x.copy()
            x.sum_duplicates()
        x = x.data
    kind = x.dtype.char
    if kind not in "dD":
        return float(np.linalg.norm(x))
    flat = np.asarray(x).ravel(order="K")  # an np.matrix would ravel to two dimensions
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
    product (3e-17 for 0.0).
    """
    if isinstance(x, np.ndarray):
        rows, block = _support(x)
        if rows.size < x.shape[0]:
            x = sp.csr_matrix(block)
    else:
        x = x.tocsr()
    return sum_norm("+-", [TimesAdjoint(x, x), AdjointTimes(x, x)])


#: The parts ``A B^H`` and ``A^H B`` of a sum (:func:`form_sum`).
TimesAdjoint, AdjointTimes = namedtuple("TimesAdjoint", "a b"), namedtuple("AdjointTimes", "a b")

#: The identity, as a part of a square sum (:func:`form_sum`).
IDENTITY = "I"


def form_sum(signs: str, parts, drop: float = 0.0, entries: dict | None = None):
    """``P1 ± P2 ± ...`` as one fresh matrix; ``signs`` holds each part's sign, the first ``+``.

    A part is a product (:class:`TimesAdjoint`, :class:`AdjointTimes`), a
    matrix or :data:`IDENTITY`, on operands all dense or all CSR.  The kernel
    (:func:`_signed_sum`) forms CSR sums whose terms fit (:data:`_CHUNK_TERMS`);
    numpy or scipy forms the rest, part by part, left to right, with the same
    bits if no matrix part stores a zero or a negative zero, as no formed sum
    does.  Entries of modulus at most ``drop`` become zero; a sparse sum
    comes back as canonical CSR without them.  ``entries`` keeps the CSR
    operands' stored entries for the next sum.
    """
    shape, sparse = _layout(parts)
    listed = sparse and _listed(parts, shape, {} if entries is None else entries)
    if listed:
        return _sum_csr(shape, _signed_sum(signs, listed, shape, drop))
    total = _folded(signs, parts, shape, sparse)
    if total is parts[0]:  # a sum of one matrix is that matrix, not a fresh one
        total = total.copy()
    if sparse:
        total = total.tocsr()
        total.data[np.abs(total.data) <= drop] = 0
        total.eliminate_zeros()
        total.sort_indices()
    elif drop:  # else the entries to set are zero already
        total[np.abs(total) <= drop] = 0
    return total


def sum_norm(signs: str, parts, entries: dict | None = None) -> float:
    """Frobenius norm of the sum :func:`form_sum` forms, with scipy's bits.

    scipy forms a sparse sum that starts with ``A^H B`` in CSC, whose norm
    reads it by columns: the kernel then sums the parts' transposes.
    """
    shape, sparse = _layout(parts)
    by_columns = isinstance(parts[0], AdjointTimes)
    listed = sparse and _listed(parts, shape, {} if entries is None else entries, by_columns)
    if not listed:
        return frobenius_norm(_folded(signs, parts, shape, sparse))
    return frobenius_norm(_signed_sum(signs, listed, shape[::-1] if by_columns else shape)[2])


def _layout(parts) -> tuple[tuple[int, int], bool]:
    """A sum's shape, and whether it is sparse, read from its first part but the identity."""
    part = next(part for part in parts if part is not IDENTITY)
    if isinstance(part, TimesAdjoint):
        return (part.a.shape[0], part.b.shape[0]), not isinstance(part.a, np.ndarray)
    if isinstance(part, AdjointTimes):
        return (part.a.shape[1], part.b.shape[1]), not isinstance(part.a, np.ndarray)
    return part.shape, not isinstance(part, np.ndarray)


def _listed(parts, shape, entries: dict, transposed: bool = False):
    """The kernel's parts of a CSR sum, or their transposes; None unless the terms fit.

    ``entries`` maps an operand's ``id`` to the operand and its stored
    entries; holding the operand keeps its id from being reused.
    """
    def stored(x):
        if id(x) not in entries:
            entries[id(x)] = x, _entries(x)
        return entries[id(x)][1]

    listed = []
    for part in parts:
        if part is IDENTITY:
            diagonal = np.arange(shape[0])
            part = diagonal, diagonal, np.ones(shape[0], dtype=np.complex128)
        elif isinstance(part, TimesAdjoint):
            part = _Product(stored(part.a), stored(part.b), transposed)
        elif isinstance(part, AdjointTimes):
            # scipy forms it in CSC, as the transpose of B^T conj(A), with B's
            # transpose stored column by column, each in B's order
            b = stored(part.b)
            order = np.argsort(b[1], kind="stable")
            part = _Product(tuple(x[order] for x in _swap(b)), _swap(stored(part.a)),
                            not transposed)
        else:
            part = _swap(stored(part)) if transposed else stored(part)
        listed.append(part)
    return listed if sum(map(_most_terms, listed)) <= _CHUNK_TERMS else None


def _folded(signs: str, parts, shape, sparse: bool):
    """The sum as numpy or scipy forms it: each part by its formula, added left to right."""
    total = None
    for sign, part in zip(signs, parts, strict=True):
        if part is IDENTITY:
            part = sp.identity(shape[0], np.complex128, "csr") if sparse else np.eye(shape[0])
        elif isinstance(part, TimesAdjoint):
            part = part.a @ part.b.conj().T
        elif isinstance(part, AdjointTimes):
            part = part.a.conj().T @ part.b
        total = part if total is None else total + part if sign == "+" else total - part
    return total


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


class _Product(NamedTuple):
    """A product ``A B^H`` as a part of :func:`_signed_sum`, its terms not yet listed.

    ``a`` and ``b`` hold A's and B's entries as ``(row, shared index,
    value)`` arrays; with ``swapped``, the part is the product's transpose.
    """

    a: tuple
    b: tuple
    swapped: bool = False


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


#: Terms the kernel lists for one sum, at most (:func:`_listed`).  Each term
#: takes numpy passes of its own, and a factor with a dense s x s block gives
#: s^3 terms for s^2 entries of the sum; a larger sum goes to scipy.
_CHUNK_TERMS = 1 << 16


def _most_terms(part) -> int:
    """A bound on the number of terms of a part of :func:`_signed_sum`, cheaper than the count."""
    if not isinstance(part, _Product):
        return part[0].size
    return part.a[1].size * int(np.bincount(part.b[1]).max(initial=0))


def _signed_sum(signs: str, parts, shape: tuple[int, int], drop: float = 0.0):
    """The kernel's sum ``P1 ± P2 ± ...``, as scipy sums it (see :func:`form_sum`).

    A part is a :class:`_Product` or a matrix's entries ``(rows, cols,
    values)``.  Every term of every part is listed at once, so callers bound
    them first (:func:`_most_terms`).  A part's terms at one position are
    summed from zero in their order, as a CSR product sums them
    (``np.bincount`` adds in index order, like ``np.add.at``;
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
    returns them; this skips scipy's slower conversion from coordinates.  Row
    ``i`` starts after the entries of the rows before it: ``indptr`` is the
    running count of the entries per row.
    """
    rows, cols, values = entries
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    indptr[1:] = np.bincount(rows, minlength=shape[0]).cumsum()
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
