"""Canonical truncated matrix models of isometric pairs.

Infinite-dimensional building blocks are represented by finite matrix
truncations together with an *interior window*: the set of basis indices on
which the two operators and their adjoints act exactly as in the infinite
model.  Every derived quantity (defect, cross-commutator, spectra) is
computed on the whole truncated space and then compressed to the interior,
so truncation artifacts, which live on boundary indices only, never enter a
spectrum.

A pair keeps each operator in the form it was given: the generators, which
know their nonzeros, pass ``scipy.sparse`` matrices and the pair stores CSR;
a basis scramble and the JSON reader pass dense arrays.  Products run on the
form that suits the pair (see :func:`dense_products`): filled pairs are
multiplied densely, sparse ones through :func:`sparse_operators`.

Basis labels are structured tuples, never strings:

* ``("mono", m, n)`` -- monomial in two variables (bidisc models),
* ``("mono", k)``    -- monomial in one variable (twisted shift),
* ``("chain", j)``   -- co-analytic chain vector (invariant-subspace model),
* ``(i, label)``     -- label inside part ``i`` of a direct sum,
* ``("scrambled", label)`` -- coordinate of a basis-scrambled pair.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import as_complex, random_unitary

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
        if any(not 0 <= i < self.dim for i in self.interior):
            raise ValueError("interior indices out of range")
        if len(set(self.interior)) != len(self.interior):
            raise ValueError("interior indices must be distinct")
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        object.__setattr__(self, "interior", tuple(int(i) for i in self.interior))

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
        inside = set(self.interior)
        return tuple(i for i in range(self.dim) if i not in inside)

    def compress(self, operator) -> np.ndarray:
        """Submatrix of a full-space operator on interior rows and columns."""
        idx = np.asarray(self.interior, dtype=int)
        operator = np.asarray(operator)
        return np.ascontiguousarray(operator[np.ix_(idx, idx)])


def sparse_operators(pair: StructuredPair) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The pair's operators as read-only CSR matrices, converted once and cached."""
    return _V1.csr(pair), _V2.csr(pair)


def _csr(dim: int, entries: dict[tuple[int, int], complex]) -> sp.csr_matrix:
    """``dim x dim`` CSR matrix holding a ``{(row, col): value}`` map of entries."""
    # sorted by row, then column, the entries are the CSR arrays themselves;
    # this skips scipy's slower conversion from coordinates
    keys = sorted(entries)
    flat = np.fromiter(itertools.chain.from_iterable(keys), dtype=np.int32,
                       count=2 * len(keys))
    values = np.fromiter(map(entries.__getitem__, keys), dtype=np.complex128,
                         count=len(keys))
    indptr = np.searchsorted(flat[::2], np.arange(dim + 1)).astype(np.int32)
    return _read_only(sp.csr_matrix((values, flat[1::2].copy(), indptr),
                                    shape=(dim, dim)))


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


def validate_pair(pair: StructuredPair, tol: float = 1e-12) -> PairValidation:
    """Isometry and commutation residuals on the interior window.

    Like the defect and cross-commutator, the products run densely for a
    filled pair and on the CSR form otherwise (see :func:`dense_products`).
    """
    idx = np.asarray(pair.interior, dtype=int)
    eye = np.eye(len(idx))
    if dense_products(pair):
        v1, v2 = pair.v1, pair.v2
        gram1 = (v1.conj().T @ v1)[np.ix_(idx, idx)]
        gram2 = (v2.conj().T @ v2)[np.ix_(idx, idx)]
        comm = (v1 @ v2 - v2 @ v1)[:, idx]
    else:
        v1, v2 = sparse_operators(pair)
        gram1 = (v1.getH() @ v1)[idx, :][:, idx].toarray()
        gram2 = (v2.getH() @ v2)[idx, :][:, idx].toarray()
        # the Frobenius norm of a sparse matrix is the 2-norm of its entries
        comm = (v1 @ v2 - v2 @ v1)[:, idx].data
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


def _nonzeros(matrix) -> int:
    return matrix.count_nonzero() if sp.issparse(matrix) else np.count_nonzero(matrix)


def dense_products(pair: StructuredPair) -> bool:
    """Whether the pair is filled enough for dense products to be cheaper.

    The fill is read from the stored form, so no form is converted.
    """
    nonzero = _nonzeros(_V1.given(pair)) + _nonzeros(_V2.given(pair))
    return nonzero > DENSE_FILL * 2 * pair.dim * pair.dim


def interior_defect_and_cross(pair: StructuredPair) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Defect and cross-commutator compressed to the interior window, as CSR.

    Products are carried out sparsely on the whole truncated space; the
    generators fill their matrices with at most a couple of entries per
    column, so this stays cheap even for a few thousand basis vectors.
    """
    v1, v2 = sparse_operators(pair)
    eye = sp.identity(pair.dim, dtype=np.complex128, format="csr")
    prod = v1 @ v2
    defect = eye - v1 @ v1.getH() - v2 @ v2.getH() + prod @ prod.getH()
    cross = v2.getH() @ v1 - v1 @ v2.getH()
    idx = np.asarray(pair.interior, dtype=int)
    return (defect.tocsr()[idx, :][:, idx].tocsr(),
            cross.tocsr()[idx, :][:, idx].tocsr())


def defect_and_cross_on_interior(pair: StructuredPair) -> tuple[np.ndarray, np.ndarray]:
    """Defect operator and cross-commutator compressed to the interior window.

    A dense pair (see :func:`dense_products`) is multiplied densely on the
    interior rows and columns only; a sparse one through
    :func:`interior_defect_and_cross`.
    """
    if dense_products(pair):
        idx = np.asarray(pair.interior, dtype=int)
        v1, v2 = pair.v1, pair.v2
        v1_rows, v2_rows = v1[idx, :], v2[idx, :]
        prod_rows = v1_rows @ v2
        defect_int = (np.eye(len(idx)) - v1_rows @ v1_rows.conj().T
                      - v2_rows @ v2_rows.conj().T + prod_rows @ prod_rows.conj().T)
        cross_int = (v2[:, idx].conj().T @ v1[:, idx]
                     - v1_rows @ v2_rows.conj().T)
        return defect_int, cross_int
    defect, cross = interior_defect_and_cross(pair)
    return defect.toarray(), cross.toarray()


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
    v1, v2 = {}, {}
    for (_, m, n), col in index.items():
        if m + 1 < cap:
            v1[index[("mono", m + 1, n)], col] = 1.0
        if n + 1 < cap:
            v2[index[("mono", m, n + 1)], col] = 1.0
    interior = tuple(index[("mono", m, n)]
                     for m in range(cap - 1) for n in range(cap - 1))
    return StructuredPair(dim, _csr(dim, v1), _csr(dim, v2), labels, interior,
                          "bishift")


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
    shift = _csr(cap, {(k + 1, k): 1.0 for k in range(cap - 1)})
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
    labels: list[Label] = []
    interior: list[int] = []
    offset = 0
    for i, part in enumerate(parts):
        labels.extend((i, lab) for lab in part.basis_labels)
        interior.extend(offset + j for j in part.interior)
        offset += part.dim
    return StructuredPair(offset, v1, v2, tuple(labels), tuple(interior), "direct_sum")


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
