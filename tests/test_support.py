"""Ranks, spectra and residuals on the indices a matrix touches.

``linalg._support`` picks the indices whose row or column of a square
matrix holds an entry, and the block on them.  ``numerical_rank``,
``rank_formula`` and ``normality_residual`` decompose only that block, so a
truncated model, whose defect and cross-commutator touch a few of its
interior rows, is analyzed on blocks of that size.  The answers must be
those of the whole-matrix path: ``spectral_profile`` and an SVD rank.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg  # noqa: F401  (scipy's sparse norm, the reference)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isopair import linalg, models
from isopair.classify import working_space
from isopair.cli import analyze_object
from isopair.izuchi import build_izuchi_model, canonical_basis_3finite, verify_izuchi_invariants
from isopair.linalg import (
    IDENTITY,
    AdjointTimes,
    TimesAdjoint,
    _support,
    as_complex,
    form_sum,
    normality_residual,
    numerical_rank,
    sum_norm,
)
from isopair.models import (
    bishift_truncated,
    defect_and_cross_on_interior,
    direct_sum,
    sparse_operators,
    twisted_shift,
)
from isopair.spectral import rank_formula, spectral_profile

from test_linalg import eigh_sizes


def svd_rank(a: np.ndarray) -> int:
    """Rank of the whole matrix by one SVD, with ``numerical_rank``'s default cutoff."""
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > max(max(a.shape) * 1e-12 * s.max(), 1e-12)))


def touched(a: np.ndarray) -> int:
    """Number of indices whose row or column of ``a`` holds a nonzero entry."""
    nonzero = a != 0
    return int(np.count_nonzero(nonzero.any(axis=0) | nonzero.any(axis=1)))


def assert_same_profile(got, want, atol: float = 0.0):
    assert got.ambient_dim == want.ambient_dim
    assert got.clusters == want.clusters
    assert (got.dim_plus1, got.dim_minus1, got.dim_kplus, got.kernel_dim, got.symmetric) \
        == (want.dim_plus1, want.dim_minus1, want.dim_kplus, want.kernel_dim, want.symmetric)
    assert [(p.mult_pos, p.mult_neg) for p in got.interior_pairs] \
        == [(p.mult_pos, p.mult_neg) for p in want.interior_pairs]
    for p, q in zip(got.interior_pairs, want.interior_pairs):
        assert abs(p.value - q.value) <= atol
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues), initial=0.0) <= atol


class TestSupport:
    def _matrix(self, rng):
        # index 2 has only a column entry, index 4 only a tiny one, index 0 none
        a = np.zeros((6, 6), dtype=np.complex128)
        a[1, 3], a[3, 3], a[5, 2] = 0.5 + 1j, -0.25, 2.0
        a[4, 4] = 1e-15
        a[1, 5] = rng.standard_normal()
        return a

    @pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix], ids=["dense", "csr"])
    def test_indices_and_block(self, rng, form):
        a = self._matrix(rng)
        index, block = _support(form(a))
        assert index.tolist() == [1, 2, 3, 4, 5]
        assert block.dtype == np.complex128
        assert np.array_equal(block, a[np.ix_(index, index)])

    def test_touched_everywhere_is_its_own_block(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        index, block = _support(a)
        assert index.tolist() == [0, 1, 2, 3] and block is a

    def test_one_entry_in_every_row_is_its_own_block(self, rng):
        # one entry per row, all in column 0: each index is touched by its row
        a = np.zeros((5, 5), dtype=np.complex128)
        a[:, 0] = rng.standard_normal(5)
        index, block = _support(a)
        assert np.array_equal(index, np.arange(5)) and block is a

    @pytest.mark.parametrize("zero", [0, 3, 6])
    def test_one_zero_row_and_column_is_dropped(self, rng, zero):
        a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        a[zero, :] = a[:, zero] = 0.0
        index, block = _support(a)
        kept = [i for i in range(7) if i != zero]
        assert index.tolist() == kept
        assert np.array_equal(block, a[np.ix_(kept, kept)])

    def test_a_zero_row_with_a_column_entry_is_kept(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a[2, :] = 0.0
        index, block = _support(a)
        assert index.tolist() == [0, 1, 2, 3] and block is a

    @pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix], ids=["dense", "csr"])
    def test_zero_matrix(self, form):
        index, block = _support(form(np.zeros((3, 3))))
        assert index.size == 0 and block.shape == (0, 0)
        assert numerical_rank(form(np.zeros((3, 3)))) == 0
        report, profile = rank_formula(form(np.zeros((3, 3))), form(np.zeros((3, 3))))
        assert report.rank_defect == report.rank_cross == 0
        assert profile.kernel_dim == 3 and profile.eigenvalues.tolist() == [0.0] * 3

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            _support(np.ones((2, 3)))

    def test_rank_keeps_the_whole_shape_cutoff(self):
        # singular values 1 and 5e-11: the cutoff of a 100 x 100 matrix is
        # 1e-10, that of its 2 x 2 support block 2e-12
        a = np.zeros((100, 100))
        a[0, 0], a[1, 1] = 1.0, 5e-11
        assert numerical_rank(a) == numerical_rank(sp.csr_matrix(a)) == svd_rank(a) == 1
        assert numerical_rank(a[:2, :2]) == 2

    def test_rectangular_rank(self, rng):
        a = np.zeros((5, 3), dtype=np.complex128)
        a[1:3, :2] = rng.standard_normal((2, 2))
        assert numerical_rank(a) == numerical_rank(sp.csr_matrix(a)) == 2


@pytest.mark.parametrize("twist", [1j, np.exp(0.7j)], ids=["i", "e^0.7i"])
def test_analyze_decomposes_its_support_only(monkeypatch, twist):
    # a fall-back to interior-size decompositions (812 rows) fails here
    pair = build_izuchi_model(0.5, twist, 30, 30).pair
    ws = working_space(pair)
    support = {"eigh": touched(as_complex(ws.defect)), "svd": touched(as_complex(ws.cross))}
    sizes = {"eigh": [], "svd": []}
    for name, recorded in sizes.items():
        def record(a, *args, _original=getattr(np.linalg, name), _sizes=recorded, **kwargs):
            _sizes.append(max(np.shape(a)))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)
    report = analyze_object(pair, None, 1e-8)
    assert report["pass"] and len(report["spectrum"]) == pair.interior_dim == 812
    assert report["kernel_dim"] == 809
    for name, recorded in sizes.items():
        assert recorded and max(recorded) <= support[name] < 812, name


@pytest.mark.parametrize("form", ["dense", "csr"])
def test_products_drop_roundoff_and_nothing_else(form):
    # with a non-real twist the unpruned defect holds entries of about 1e-16
    # on rows the exact model leaves zero (49 of 54 stored ones at cap 20)
    pair = build_izuchi_model(0.5, np.exp(0.7j), 20, 20).pair
    idx = np.asarray(pair.interior, dtype=int)
    operators = (pair.v1, pair.v2) if form == "dense" else sparse_operators(pair)
    products = models._InteriorProducts(*operators, idx)
    (rows1, rows2), (cols1, cols2) = products.rows, products.cols
    identity = np.eye(idx.size) if form == "dense" else sp.identity(idx.size, np.complex128, "csr")
    unpruned = (identity - rows1 @ rows1.conj().T - rows2 @ rows2.conj().T
                + products.range_v,
                cols2.conj().T @ cols1 - rows1 @ rows2.conj().T)
    floor = 1e-13
    for got, want in zip(products.defect_and_cross, unpruned):
        assert sp.issparse(got) == (form == "csr")
        if sp.issparse(got):
            assert np.all(np.abs(got.data) > floor)
        got, want = as_complex(got), as_complex(want)
        above = np.abs(want) > floor
        assert np.array_equal(got[above], want[above])
        assert not np.any(got[~above])
    defect = as_complex(unpruned[0])
    assert np.any((defect != 0) & (np.abs(defect) <= floor))


def test_every_route_decomposes_the_same_few_rows(monkeypatch):
    # a non-real twist leaves entries of about 1e-16 on 36 of the unpruned
    # defect's interior rows at cap 20; its spectrum lives on 3
    model = build_izuchi_model(0.5, np.exp(0.7j), 20, 20)
    sizes = eigh_sizes(monkeypatch)
    assert analyze_object(model.pair, None, 1e-8)["pass"]
    assert sizes == [3]
    sizes.clear()
    values, _, _ = working_space(model.pair).defect_eig(1e-8)
    assert values.size == 3 and sizes == [2]
    sizes.clear()
    assert verify_izuchi_invariants(model).ok
    # the canonical basis reads the defect's eigenpairs as classify does
    assert canonical_basis_3finite(model).ok
    assert sizes == [3, 2]


@st.composite
def generator_blocks(draw):
    """A bishift, twisted shift or model block at caps 4 to 9."""
    kind = draw(st.sampled_from(["bishift", "twisted", "izuchi"]))
    cap = draw(st.integers(4, 9))
    if kind == "bishift":
        return bishift_truncated(cap)
    # any angle, so most twists are non-real
    twist = np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    if kind == "twisted":
        return twisted_shift(twist, cap)
    ratio = draw(st.floats(0.1, 0.9) | st.floats(-0.9, -0.1))
    return build_izuchi_model(ratio, twist, cap, cap).pair


@settings(max_examples=30, deadline=None)
@given(parts=st.lists(generator_blocks(), min_size=1, max_size=3))
# eigh of the support block and of the whole matrix differ by 1.11e-15 here
@example(parts=[build_izuchi_model(
    0.689974946, np.exp(1j * np.angle(0.203791508171088 - 0.979014311027859j)), 9, 9).pair])
def test_support_path_matches_the_whole_matrix(parts):
    pair = direct_sum(parts)
    defect, cross = defect_and_cross_on_interior(pair)
    ws = working_space(pair)
    sparse_defect, sparse_cross = ws.defect, ws.cross

    report, profile = rank_formula(defect, cross)
    sparse_report, sparse_profile = rank_formula(sparse_defect, sparse_cross)
    assert numerical_rank(sparse_defect) == numerical_rank(defect)
    assert numerical_rank(sparse_cross) == numerical_rank(cross)
    assert sparse_report == report
    assert_same_profile(sparse_profile, profile)

    assert report.rank_defect == svd_rank(defect)
    assert report.rank_cross == svd_rank(cross)
    # the two sides run eigh on different matrices (a block against the
    # whole), which round differently; eigh's accuracy is dim * eps * ||D||
    whole_profile = spectral_profile(defect)
    norm = float(np.max(np.abs(whole_profile.eigenvalues), initial=0.0))
    bound = defect.shape[0] * np.finfo(float).eps * max(1.0, norm)
    assert_same_profile(profile, whole_profile, atol=bound)
    whole = np.linalg.norm(cross @ cross.conj().T - cross.conj().T @ cross)
    assert abs(normality_residual(cross) - whole) <= 1e-15


#: Entry components: signed zeros, round-off-sized and ordinary values.
COMPONENTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 0.09, 1e-16]) | st.floats(-4.0, 4.0)


@st.composite
def csr_factors(draw, n_rows: int, n_cols: int) -> sp.csr_matrix:
    """A CSR matrix with several entries per row, stored in a random column
    order (as a scipy product leaves them), explicit zeros and signed zeros."""
    indices, data, indptr = [], [], [0]
    for _ in range(n_rows):
        cols = draw(st.permutations(range(n_cols)))[:draw(st.integers(0, n_cols))]
        indices += cols
        data += [complex(draw(COMPONENTS), draw(COMPONENTS)) for _ in cols]
        indptr.append(len(indices))
    return sp.csr_matrix((np.array(data, dtype=np.complex128), np.array(indices, dtype=np.int32),
                          np.array(indptr, dtype=np.int32)), shape=(n_rows, n_cols))


def assert_same_entries(got, want):
    """A sum equals scipy's result: canonical CSR arrays, byte for byte."""
    want = want.tocsr()
    want.sum_duplicates()  # sorts a product's columns in place, as its norm does
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def by_kernel(call):
    """``call()``, which must sum its terms with the kernel."""
    with mock.patch.object(linalg, "_signed_sum", wraps=linalg._signed_sum) as kernel:
        result = call()
    assert kernel.called
    return result


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_kernel_matches_scipy_bit_for_bit(data):
    n, m, k = (data.draw(st.integers(1, 6)) for _ in range(3))
    a1, a2 = (data.draw(csr_factors(n, k)) for _ in range(2))
    b1, b2 = (data.draw(csr_factors(m, k)) for _ in range(2))
    a3, c = data.draw(csr_factors(k, n)), data.draw(csr_factors(k, m))
    # one product, A B^H, and a chain of products and a product's stored entries
    product = TimesAdjoint(a1, b1)
    assert_same_entries(by_kernel(lambda: form_sum("+", [product])), a1 @ b1.conj().T)
    stored = a2 @ b2.conj().T
    chain = [product, TimesAdjoint(a2, b2), stored, stored]
    want = a1 @ b1.conj().T - a2 @ b2.conj().T + stored + stored
    assert_same_entries(by_kernel(lambda: form_sum("+-++", chain)), want)

    # A^H C in CSC, as scipy forms it, and the norm of its CSR form
    adjoint = [AdjointTimes(a3, c)]
    assert_same_entries(by_kernel(lambda: form_sum("+", adjoint)), a3.conj().T @ c)
    want = float(sp.linalg.norm((a3.conj().T @ c).tocsr()))
    assert by_kernel(lambda: sum_norm("+", adjoint)).hex() == want.hex()

    # entries of modulus at most ``drop`` are dropped, as the products drop round-off
    drop = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    want = a1 @ b1.conj().T - a2 @ b2.conj().T
    want.data[np.abs(want.data) <= drop] = 0
    want.eliminate_zeros()
    got = by_kernel(lambda: form_sum("+-", [product, TimesAdjoint(a2, b2)], drop))
    assert_same_entries(got, want)

    # the normality residual of a CSR matrix, summed by the kernel (these
    # products fit) and, with no sum fitting, formed by scipy
    square = data.draw(csr_factors(n, n))
    want = float(sp.linalg.norm(square @ square.conj().T - square.conj().T @ square))
    assert by_kernel(lambda: normality_residual(square)).hex() == want.hex()
    with mock.patch.object(linalg, "_CHUNK_TERMS", 0):
        assert normality_residual(square).hex() == want.hex()
    # and of a dense one with a zero row
    dense = square.toarray()
    dense[0, :] = dense[:, 0] = 0
    block = sp.csr_matrix(dense[1:, 1:])
    want = float(sp.linalg.norm(block @ block.conj().T - block.conj().T @ block))
    assert normality_residual(dense).hex() == want.hex()


@st.composite
def summed_matrices(draw, n_rows: int, n_cols: int) -> sp.csr_matrix:
    """A matrix part as a formed sum leaves it, in any storage order: its values
    summed from zero, so with no negative zero, and no stored zero."""
    matrix = draw(csr_factors(n_rows, n_cols))
    matrix.data += 0.0
    matrix.eliminate_zeros()
    return matrix


@st.composite
def signed_sums(draw):
    """Signs and parts of a sum of ``n x m`` CSR products and matrices, and a drop.

    A square sum's product may take one CSR object as both factors, as a
    pair's normality and isometry residuals do."""
    n, m, k = (draw(st.integers(1, 5)) for _ in range(3))
    kinds = ["times_adjoint", "adjoint_times", "matrix"] + ["identity"] * (n == m)
    parts = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        if kind == "times_adjoint":
            a = draw(csr_factors(n, k))
            b = a if n == m and draw(st.booleans()) else draw(csr_factors(m, k))
            parts.append(TimesAdjoint(a, b))
        elif kind == "adjoint_times":
            a = draw(csr_factors(k, n))
            b = a if n == m and draw(st.booleans()) else draw(csr_factors(k, m))
            parts.append(AdjointTimes(a, b))
        elif kind == "matrix":
            parts.append(draw(summed_matrices(n, m)))
        else:
            parts.append(IDENTITY)
    if all(part is IDENTITY for part in parts):
        parts.append(draw(summed_matrices(n, m)))
    signs = "+" + "".join(draw(st.sampled_from("+-")) for _ in parts[1:])
    return signs, parts, draw(st.sampled_from([0.0, 1e-16, 0.3, 1.0]))


@settings(max_examples=80, deadline=None)
@given(signed=signed_sums())
def test_kernel_and_scipy_give_a_sum_the_same_bytes(signed):
    signs, parts, drop = signed
    kernel = by_kernel(lambda: form_sum(signs, parts, drop))
    norm = by_kernel(lambda: sum_norm(signs, parts))
    with mock.patch.object(linalg, "_CHUNK_TERMS", 0):
        scipy = form_sum(signs, parts, drop)
        scipy_norm = sum_norm(signs, parts)
    assert isinstance(kernel, sp.csr_matrix) and isinstance(scipy, sp.csr_matrix)
    assert (kernel.indptr.tobytes(), kernel.indices.tobytes(), kernel.data.tobytes()) \
        == (scipy.indptr.tobytes(), scipy.indices.tobytes(), scipy.data.tobytes())
    assert norm.hex() == scipy_norm.hex()


def row_search_csr(shape, entries) -> sp.csr_matrix:
    """``linalg._sum_csr`` as it found ``indptr`` before: one binary search per row."""
    rows, cols, values = entries
    indptr = np.searchsorted(rows, np.arange(shape[0] + 1)).astype(np.int32)
    return sp.csr_matrix((values, cols.astype(np.int32), indptr), shape=shape)


def sorted_entries(shape, positions, last_row: bool = False):
    """Distinct entries at flat ``positions``, sorted by row, then column, as ``_sum_csr`` takes them."""
    n_rows, n_cols = shape
    flat = set(positions)
    if last_row and n_rows * n_cols:
        flat.add((n_rows - 1) * n_cols)
    rows, cols = np.divmod(np.array(sorted(flat), dtype=np.int64), max(n_cols, 1))
    values = np.arange(1, rows.size + 1) * (1 - 0.5j)
    return rows, cols, values


@st.composite
def csr_layouts(draw):
    """A shape, and sorted entries that leave some rows empty and may fill the last row."""
    shape = (draw(st.integers(0, 9)), draw(st.integers(0, 6)))
    size = shape[0] * shape[1]
    positions = draw(st.lists(st.integers(0, size - 1), max_size=12)) if size else []
    return shape, sorted_entries(shape, positions, draw(st.booleans()))


@settings(max_examples=100, deadline=None)
@given(layout=csr_layouts())
# no rows at all; empty rows around entries; entries in the last row only
@example(layout=((0, 0), sorted_entries((0, 0), [])))
@example(layout=((0, 4), sorted_entries((0, 4), [])))
@example(layout=((5, 3), sorted_entries((5, 3), [4, 5, 10])))
@example(layout=((4, 2), sorted_entries((4, 2), [], last_row=True)))
def test_sum_csr_arrays_match_the_row_search(layout):
    shape, entries = layout
    got, want = linalg._sum_csr(shape, entries), row_search_csr(shape, entries)
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
