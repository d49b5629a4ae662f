"""Canonical truncated matrix models of isometric pairs.

Infinite-dimensional building blocks are represented by finite matrix
truncations together with an *interior window*: the set of basis indices on
which the two operators and their adjoints act exactly as in the infinite
model.  Every derived quantity (defect, cross-commutator, spectra) is the
compression to the interior of its formula on the whole truncated space,
formed from thin products of the operators' interior rows and columns, so
truncation artifacts, which live on boundary indices only, never enter a
spectrum.

A pair keeps each operator in the form it was given: the generators, which
know their nonzeros, and the JSON reader, for a COO operator, pass
``scipy.sparse`` matrices and the pair stores CSR; a basis scramble, and the
JSON reader for a dense matrix, pass dense arrays.  Products run on the
form :func:`product_operators` picks: dense for filled pairs, CSR for sparse
ones (see :func:`dense_products`).  :class:`_InteriorProducts` slices a
pair's interior rows and columns once per call and writes each product of
them once, as a sum that ``linalg.form_sum`` (``linalg.sum_norm`` for a
residual) forms in their form; the defect and cross-commutator drop their
round-off, entries of modulus up to ``_ROUNDOFF``, as they form.

Basis labels are structured tuples, never strings:

* ``("mono", m, n)`` -- monomial in two variables (bidisc models),
* ``("mono", k)``    -- monomial in one variable (twisted shift),
* ``("chain", j)``   -- co-analytic chain vector (invariant-subspace model),
* ``(i, label)``     -- label inside part ``i`` of a direct sum,
* ``("scrambled", label)`` -- coordinate of a basis-scrambled pair.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import (
    IDENTITY,
    AdjointTimes,
    TimesAdjoint,
    _check_tolerance,
    _sum_csr,
    as_complex,
    form_sum,
    random_unitary,
    sum_norm,
)

Label = tuple


def _aliases(matrix):
    """The arrays holding a dense or CSR matrix's entries, and all they view."""
    arrays = (matrix.data, matrix.indices, matrix.indptr) if sp.issparse(matrix) \
        else (matrix,)
    for array in arrays:
        while isinstance(array, np.ndarray):
            yield array
            array = array.base


def _read_only(matrix):
    """Make a dense or CSR matrix read-only, through every array it views."""
    for array in _aliases(matrix):
        array.flags.writeable = False
    return matrix


def _frozen(matrix) -> bool:
    """Whether no writable array aliases the matrix's entries."""
    return not any(array.flags.writeable for array in _aliases(matrix))


class _Operator:
    """An operator field of :class:`StructuredPair`, kept in the form it was given.

    A ``scipy.sparse`` matrix is stored as complex CSR with summed
    duplicates, anything else as a C-contiguous complex128 array.  Either
    way the stored form is read-only: a copy, unless the caller passed a
    frozen matrix of that form (see :func:`_frozen`), as the generators do,
    which is kept as it is.  Reading the field returns the dense array,
    made from the CSR on first read and cached; :meth:`csr` returns the CSR,
    made from a dense array on first call and cached.  Setting the field
    (only ``__init__`` can, the class is frozen) drops the cached form, so
    the two forms never disagree.
    """

    def __set_name__(self, owner, name):
        self.name = name
        self._given = f"_{name}_given"
        self._converted = f"_{name}_converted"

    def __get__(self, pair, owner=None):
        if pair is None:
            # the dataclass machinery reads the class attribute as the
            # field's default; raising here declares that there is none
            raise AttributeError(f"{owner.__name__}.{self.name} has no default")
        return self._form(pair, sparse=False)

    def __set__(self, pair, value):
        if sp.issparse(value):
            stored = value
            if not (isinstance(value, sp.csr_matrix) and value.dtype == np.complex128
                    and _frozen(value) and value.has_canonical_format):
                stored = sp.csr_matrix(value, dtype=np.complex128, copy=True)
                stored.sum_duplicates()
        else:
            stored = as_complex(value)
            if not _frozen(stored):
                stored = stored.copy()
        pair.__dict__.pop(self._converted, None)
        pair.__dict__[self._given] = _read_only(stored)

    def given(self, pair):
        """The stored form: a CSR matrix or a dense array."""
        return pair.__dict__[self._given]

    def csr(self, pair) -> sp.csr_matrix:
        return self._form(pair, sparse=True)

    def _form(self, pair, sparse: bool):
        given = self.given(pair)
        if sp.issparse(given) == sparse:
            return given
        converted = pair.__dict__.get(self._converted)
        if converted is None:
            converted = _read_only(sp.csr_matrix(given) if sparse else given.toarray())
            pair.__dict__[self._converted] = converted
        return converted


_V1 = _Operator()
_V2 = _Operator()


def _index_tuple(indices, dim: int) -> tuple[int, ...]:
    """``indices`` as a tuple of distinct ints in ``range(dim)``, else ``ValueError``.

    Integral floats convert; any other value is rejected, not truncated.
    """
    raw = np.asarray(indices)
    # NaN fails the integrality test; an infinity passes it and is out of range
    if raw.ndim != 1 or raw.dtype.kind not in "iuf" or (
            raw.dtype.kind == "f" and not np.all(raw == np.trunc(raw))):
        raise ValueError("interior indices must be integers")
    ordered = np.sort(raw)
    if ordered.size and (ordered[0] < 0 or ordered[-1] >= dim):
        raise ValueError("interior indices out of range")
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("interior indices must be distinct")
    return tuple(raw.astype(np.int64).tolist())


@dataclass(frozen=True)
class StructuredPair:
    """Truncated matrix model of an isometric pair with an interior window.

    ``v1`` and ``v2`` accept dense arrays or ``scipy.sparse`` matrices and
    read back as read-only dense arrays; :func:`sparse_operators` gives the
    CSR form.  Sparse input is stored sparse, so a dense copy exists only
    once something reads it.
    """

    dim: int
    v1: np.ndarray = _V1
    v2: np.ndarray = _V2
    basis_labels: tuple[Label, ...]
    interior: tuple[int, ...]
    provenance: str

    def __post_init__(self):
        shape = (self.dim, self.dim)
        if _V1.given(self).shape != shape or _V2.given(self).shape != shape:
            raise ValueError("operator shapes do not match dim")
        if len(self.basis_labels) != self.dim:
            raise ValueError("one label per basis vector required")
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        object.__setattr__(self, "interior", _index_tuple(self.interior, self.dim))

    def __repr__(self) -> str:
        def operator(field: _Operator) -> str:
            given = field.given(self)
            form = f"csr, {given.nnz} stored" if sp.issparse(given) else "dense"
            return f"<{self.dim}x{self.dim} {form}>"

        return (f"StructuredPair(dim={self.dim}, v1={operator(_V1)}, "
                f"v2={operator(_V2)}, basis_labels={self.basis_labels!r}, "
                f"interior={self.interior!r}, provenance={self.provenance!r})")

    @property
    def interior_dim(self) -> int:
        return len(self.interior)

    @property
    def boundary(self) -> tuple[int, ...]:
        outside = np.ones(self.dim, dtype=bool)
        outside[np.asarray(self.interior, dtype=int)] = False
        return tuple(np.flatnonzero(outside).tolist())


def sparse_operators(pair: StructuredPair) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The pair's operators as read-only CSR matrices, converted once and cached."""
    return _V1.csr(pair), _V2.csr(pair)


def _csr(dim: int, rows: np.ndarray, cols: np.ndarray, values) -> sp.csr_matrix:
    """``dim x dim`` CSR matrix with ``values[k]`` at ``(rows[k], cols[k])``.

    The positions must be distinct; ``values`` is one value per position or
    one for all of them.
    """
    order = np.lexsort((cols, rows))
    data = np.broadcast_to(np.asarray(values, dtype=np.complex128), order.shape)[order]
    return _read_only(_sum_csr((dim, dim), (rows[order], cols[order], data)))


def _block_diag(blocks: list[sp.csr_matrix]) -> sp.csr_matrix:
    """Block-diagonal CSR matrix of square CSR blocks.

    Concatenates the blocks' CSR arrays, several times faster than
    ``scipy.sparse.block_diag`` on the few small blocks of a direct sum.
    """
    data, indices, indptr = [], [], [np.zeros(1, dtype=np.int32)]
    dim = nnz = 0
    for block in blocks:
        stored = block.nnz
        data.append(block.data[:stored])
        indices.append(block.indices[:stored] + np.int32(dim))
        indptr.append(block.indptr[1:] + np.int32(nnz))
        dim += block.shape[0]
        nnz += stored
    return _read_only(sp.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), np.concatenate(indptr)),
        shape=(dim, dim)))


@dataclass(frozen=True)
class PairValidation:
    ok: bool
    residuals: dict[str, float]


#: Share of nonzero entries above which a pair's products run densely.
#: Generated models hold a couple of entries per column and stay far below
#: it; a basis scramble fills the interior and boundary blocks, well above.
#: The two paths cost the same between 4 % and 18 % fill on models of
#: dimension 240 to 930.
DENSE_FILL = 0.1


def _nonzeros(matrix) -> int:
    return matrix.count_nonzero() if sp.issparse(matrix) else np.count_nonzero(matrix)


def dense_products(pair: StructuredPair) -> bool:
    """Whether the pair is filled enough for dense products to be cheaper.

    The fill is read from the stored form, so no form is converted.
    """
    nonzero = _nonzeros(_V1.given(pair)) + _nonzeros(_V2.given(pair))
    return nonzero > DENSE_FILL * 2 * pair.dim * pair.dim


def product_operators(pair: StructuredPair):
    """The pair's operators in the form its products run on.

    Dense arrays for a filled pair (see :func:`dense_products`), the CSR form
    of :func:`sparse_operators` otherwise.
    """
    return (pair.v1, pair.v2) if dense_products(pair) else sparse_operators(pair)


#: Modulus up to which an entry of a pair's defect or cross-commutator is
#: round-off, set to zero where the products form.  With a non-real twist,
#: ``|twist|^2`` rounds away from 1 and leaves entries of about 1e-16 on rows
#: the exact model leaves zero: 50 or 96 of the 2352 interior rows of the
#: invariant-subspace model's defect at cap 50, against 3 that hold its spectrum.
_ROUNDOFF = 1e-13


class _InteriorProducts:
    """Thin products of ``v1`` and ``v2`` on the indices ``interior``, each formed once.

    The operators share one form, dense or CSR (:func:`product_operators`).
    Each product is formed on first read from their interior rows and
    columns, sliced here, and the three thin products ``V1 cols2``, ``V2
    cols1`` and ``rows1 V2``.
    """

    def __init__(self, v1, v2, interior):
        self.v1, self.v2, self.interior = v1, v2, np.asarray(interior, dtype=int)
        self.rows = v1[self.interior, :], v2[self.interior, :]
        self.cols = v1[:, self.interior], v2[:, self.interior]

    @functools.cached_property
    def range_v(self):
        """Interior compression of ``V V^H``, ``V = V1 V2``."""
        rows = self.rows[0] @ self.v2
        return form_sum("+", [TimesAdjoint(rows, rows)])

    def range_complement(self):
        """``I - range_v``, in the products' form."""
        return form_sum("+-", [IDENTITY, self.range_v])

    @functools.cached_property
    def residuals(self) -> dict[str, float]:
        """Isometry and commutation residuals on the interior columns."""
        cols1, cols2 = self.cols
        return {
            "isometry_v1": sum_norm("+-", [IDENTITY, AdjointTimes(cols1, cols1)]),
            "isometry_v2": sum_norm("+-", [IDENTITY, AdjointTimes(cols2, cols2)]),
            "commutation": sum_norm("+-", [self.v1 @ cols2, self.v2 @ cols1]),
        }

    @functools.cached_property
    def defect_and_cross(self):
        (rows1, rows2), (cols1, cols2) = self.rows, self.cols
        defect = form_sum("+--+", [IDENTITY, TimesAdjoint(rows1, rows1), TimesAdjoint(rows2, rows2),
                                   self.range_v], _ROUNDOFF)
        cross = form_sum("+-", [AdjointTimes(cols2, cols1), TimesAdjoint(rows1, rows2)], _ROUNDOFF)
        return defect, cross


def validate_pair(pair: StructuredPair, tol: float = 1e-12) -> PairValidation:
    """Isometry and commutation residuals on the interior window (:class:`_InteriorProducts`).

    ``tol`` must be finite and nonnegative.
    """
    _check_tolerance("tol", tol)
    residuals = _InteriorProducts(*product_operators(pair), pair.interior).residuals
    return PairValidation(all(r <= tol for r in residuals.values()), residuals)


def defect_and_cross_on_interior(pair: StructuredPair) -> tuple[np.ndarray, np.ndarray]:
    """Defect operator and cross-commutator compressed to the interior window, dense."""
    defect, cross = _InteriorProducts(*product_operators(pair), pair.interior).defect_and_cross
    return as_complex(defect), as_complex(cross)


def defect_on_interior(pair: StructuredPair) -> np.ndarray:
    return defect_and_cross_on_interior(pair)[0]


def cross_on_interior(pair: StructuredPair) -> np.ndarray:
    return defect_and_cross_on_interior(pair)[1]


@functools.lru_cache(maxsize=8)
def _monomial_labels(cap: int) -> tuple[Label, ...]:
    """Labels ``("mono", m, n)`` of the bidisc monomials, ``0 <= m, n < cap``.

    In index order ``m * cap + n``.  Built once per cap: the tuples are
    immutable, and a fresh set per model would leave thousands of objects
    for the garbage collector to scan.
    """
    return tuple(("mono", m, n) for m in range(cap) for n in range(cap))


def bishift_truncated(cap: int) -> StructuredPair:
    """Multiplication by the two coordinates on bidisc monomials of degree < cap.

    Basis ``z^m w^n`` with ``0 <= m, n < cap``; raising past the cap drops the
    overflow.  On the interior the defect is the rank-one projection onto the
    constant monomial and the cross-commutator vanishes.
    """
    if cap < 3:
        raise ValueError(f"cap must be at least 3, got {cap}")
    # monomial z^m w^n has index m * cap + n
    dim = cap * cap
    index = np.arange(dim)
    m, n = np.divmod(index, cap)
    raise_z, raise_w = index[m + 1 < cap], index[n + 1 < cap]
    interior = tuple(index[(m < cap - 1) & (n < cap - 1)].tolist())
    return StructuredPair(dim, _csr(dim, raise_z + cap, raise_z, 1.0),
                          _csr(dim, raise_w + 1, raise_w, 1.0), _monomial_labels(cap),
                          interior, "bishift")


def twisted_shift(alpha: complex, cap: int) -> StructuredPair:
    """The pair ``(M_z, alpha M_z)`` on one-variable monomials of degree < cap.

    ``alpha`` must be unimodular.  On the interior the cross-commutator is
    ``conj(alpha)`` times the projection onto constants and the defect has
    nonzero eigenvalues exactly ``{1, -1}``.
    """
    alpha = complex(alpha)
    # written so that a NaN modulus fails it
    if not abs(abs(alpha) - 1.0) <= 1e-12:
        raise ValueError(f"alpha must be finite and unimodular, got |alpha| = {abs(alpha)}")
    if cap < 3:
        raise ValueError(f"cap must be at least 3, got {cap}")
    below = np.arange(cap - 1)
    shift = _csr(cap, below + 1, below, 1.0)
    labels = tuple(("mono", k) for k in range(cap))
    interior = tuple(range(cap - 1))
    return StructuredPair(cap, shift, _read_only(alpha * shift), labels, interior,
                          "twisted")


def direct_sum(parts: list[StructuredPair]) -> StructuredPair:
    """Block-diagonal sum; interiors embed, labels are namespaced per part."""
    if not parts:
        raise ValueError("direct_sum needs at least one part")
    if len(parts) == 1:
        return parts[0]
    v1 = _block_diag([_V1.csr(part) for part in parts])
    v2 = _block_diag([_V2.csr(part) for part in parts])
    offsets = np.cumsum([0] + [part.dim for part in parts])
    labels = tuple(itertools.chain.from_iterable(
        zip(itertools.repeat(i), part.basis_labels) for i, part in enumerate(parts)))
    interior = np.concatenate([np.asarray(part.interior, dtype=int) + offset
                               for part, offset in zip(parts, offsets)])
    return StructuredPair(int(offsets[-1]), v1, v2, labels, interior, "direct_sum")


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
    return StructuredPair(pair.dim, _read_only(w @ pair.v1 @ wh),
                          _read_only(w @ pair.v2 @ wh), labels, pair.interior,
                          "scrambled")


def scramble(pair: StructuredPair, seed: int) -> StructuredPair:
    """Haar-random change of basis that mixes interior vectors among themselves.

    Boundary vectors are mixed separately, so the interior window (as a
    subspace) is preserved and every classification invariant must survive.
    """
    rng = np.random.default_rng(seed)
    w_int = random_unitary(pair.interior_dim, rng)
    w_bnd = random_unitary(len(pair.boundary), rng)
    return conjugate_split(pair, w_int, w_bnd)
