import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg  # noqa: F401  (scipy's sparse norm, the reference)

from isopair.bcl import random_triple, wandering_projections
from isopair.linalg import (
    Subspace,
    _normalize_phases,
    coupled_eig,
    frobenius_norm,
    hermitian_eig,
    numerical_rank,
    orthonormal_columns,
    random_unitary,
    subspace_intersection,
)
from isopair.spectral import check_rank_formula

from conftest import two_finite_triple


def random_hermitian(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


class TestHermitianEig:
    def test_identity(self):
        values, _ = hermitian_eig(np.eye(2))
        assert np.allclose(values, [1.0, 1.0])

    def test_diagonal_input(self):
        values, vectors = hermitian_eig(np.diag([1.0, 0.5, -0.5]))
        assert np.allclose(values, [1.0, 0.5, -0.5])
        # descending order with matching eigenvectors
        recon = vectors @ np.diag(values) @ vectors.conj().T
        assert np.allclose(recon, np.diag([1.0, 0.5, -0.5]))

    def test_reconstruction_random(self, rng):
        a = random_hermitian(8, rng)
        values, vectors = hermitian_eig(a)
        recon = vectors @ np.diag(values) @ vectors.conj().T
        assert np.linalg.norm(a - recon) <= 1e-10 * np.linalg.norm(a)
        assert np.allclose(vectors.conj().T @ vectors, np.eye(8), atol=1e-12)

    def test_phase_normalization(self, rng):
        a = random_hermitian(6, rng)
        _, vectors = hermitian_eig(a)
        for j in range(6):
            v = vectors[:, j]
            pivot = v[int(np.argmax(np.abs(v)))]
            assert abs(pivot.imag) < 1e-12 and pivot.real >= 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_eigenvalues_invariant_under_conjugation(self, rng):
        a = random_hermitian(7, rng)
        w = random_unitary(7, rng)
        base, _ = hermitian_eig(a)
        conj, _ = hermitian_eig(w @ a @ w.conj().T)
        assert np.max(np.abs(base - conj)) < 1e-8


def reference_normalize_phases(vectors: np.ndarray) -> None:
    """The column-by-column phase pass the vectorised one replaced."""
    for j in range(vectors.shape[1]):
        v = vectors[:, j]
        k = int(np.argmax(np.abs(v)))
        pivot = v[k]
        if abs(pivot) > 0:
            vectors[:, j] = v * (pivot.conjugate() / abs(pivot))


def _phase_inputs():
    """Eigenbases and Schur bases as the package makes them, plus edge cases.

    A random unit entry in a one-row column is left out: there the loop's
    one-dimensional multiply takes numpy's contiguous kernel, which rounds
    the product's imaginary part differently (2e-17 for 0.0).  A one-row
    eigenbasis or Schur basis is ``[[1]]``.
    """
    rng = np.random.default_rng(17)
    for dim in (1, 2, 3, 5, 8, 24, 60):
        for _ in range(6):
            yield np.linalg.eigh(random_hermitian(dim, rng))[1]
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            yield sla.schur(z, output="complex")[1]
        if dim > 1:
            yield random_unitary(dim, rng)[:, : max(1, dim // 3)]
    yield np.array([[1.0, -1.0j], [1.0j, 1.0], [0.0, 0.0]])   # tied pivots
    yield np.array([[0.0, 0.6 - 0.8j], [0.0, 0.0]])            # a zero column
    yield np.zeros((0, 0), dtype=np.complex128)
    yield np.zeros((3, 0), dtype=np.complex128)


@pytest.mark.parametrize("vectors", list(_phase_inputs()))
def test_phase_pass_matches_column_loop_bit_for_bit(vectors):
    got = np.array(vectors, dtype=np.complex128)
    want = got.copy()
    _normalize_phases(got)
    reference_normalize_phases(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_phase_pass_leaves_zero_rows_alone():
    # the column loop cannot take an argmax over no rows
    vectors = np.zeros((0, 3), dtype=np.complex128)
    _normalize_phases(vectors)
    assert vectors.shape == (0, 3)


def eigh_sizes(monkeypatch) -> list:
    """Record the size of every matrix passed to ``np.linalg.eigh``."""
    sizes = []
    original = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        sizes.append(len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return sizes


class TestCoupledEig:
    """Exact 1x1 blocks are read off; only the coupled rows are diagonalized."""

    def _matrix(self, rng):
        # coupled rows 1, 3, 4; rows 0 and 5 carry diagonal entries only, row 2 is zero
        a = np.zeros((6, 6), dtype=np.complex128)
        block = random_hermitian(3, rng)
        a[np.ix_([1, 3, 4], [1, 3, 4])] = block
        a[0, 0], a[5, 5] = 0.75, -0.5
        return a

    @pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix], ids=["dense", "csr"])
    def test_matches_full_decomposition(self, rng, monkeypatch, form):
        a = self._matrix(rng)
        sizes = eigh_sizes(monkeypatch)
        values, vectors = coupled_eig(form(a), lambda v: v != 0, hermitian_eig)
        assert sizes == [3]
        full_values, full_vectors = hermitian_eig(a)
        # the zero row's eigenvalue, which the full decomposition rounds
        nonzero = np.abs(full_values) > 1e-12
        assert np.allclose(values, full_values[nonzero], atol=1e-13)
        assert np.linalg.norm(vectors - full_vectors[:, nonzero]) <= 1e-12
        assert np.all(np.diff(values) <= 0)

    def test_keep_selects_unit_vectors_and_block_vectors(self, rng):
        a = self._matrix(rng)
        values, vectors = coupled_eig(a, lambda v: v > 0.5, np.linalg.eigh)
        full_values, full_vectors = np.linalg.eigh(a)
        above = full_vectors[:, full_values > 0.5]
        assert np.allclose(values, np.sort(full_values[full_values > 0.5])[::-1])
        assert np.linalg.norm(vectors @ vectors.conj().T - above @ above.conj().T) <= 1e-12
        assert np.array_equal(vectors[:, values == 0.75], np.eye(6)[:, :1])

    @pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix], ids=["dense", "csr"])
    def test_diagonal_matrix_takes_no_decomposition(self, monkeypatch, form):
        sizes = eigh_sizes(monkeypatch)
        values, vectors = coupled_eig(form(np.diag([0.0, 2.0, 0.0, -1.0])),
                                      lambda v: v != 0, hermitian_eig)
        assert sizes == []
        assert values.tolist() == [2.0, -1.0]
        assert np.array_equal(vectors, np.eye(4)[:, [1, 3]])

    def test_zero_matrix_gives_no_pairs(self):
        values, vectors = coupled_eig(np.zeros((5, 5)), lambda v: v != 0, hermitian_eig)
        assert values.shape == (0,) and vectors.shape == (5, 0)

    def test_filled_matrix_takes_one_full_decomposition(self, rng, monkeypatch):
        a = random_hermitian(7, rng)
        sizes = eigh_sizes(monkeypatch)
        values, vectors = coupled_eig(a, lambda v: v != 0, hermitian_eig)
        assert sizes == [7]
        full_values, full_vectors = hermitian_eig(a)
        assert np.array_equal(values, full_values)
        assert np.array_equal(vectors, full_vectors)


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((4, 4))) == 0

    def test_outer_product(self, rng):
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert numerical_rank(np.outer(v, w.conj())) == 1

    def test_two_finite_defect(self):
        ops = wandering_projections(two_finite_triple(1.0))
        assert numerical_rank(ops.defect) == 2

    def test_custom_tolerance(self):
        a = np.diag([1.0, 1e-6])
        assert numerical_rank(a) == 2
        assert numerical_rank(a, tol=1e-3) == 1

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-3])
    @pytest.mark.parametrize("a", [np.diag([1.0, 2.0, 3.0]), np.zeros((4, 4)),
                                   np.zeros((0, 0)), sp.csr_matrix(np.eye(3))],
                             ids=["diagonal", "zero", "empty", "sparse"])
    def test_rejects_tolerance_that_is_not_finite_and_positive(self, a, tol):
        # a NaN cutoff compares false with every value and gave rank 0
        with pytest.raises(ValueError, match="finite and positive"):
            numerical_rank(a, tol)

    def test_rank_formula_rejects_nan_tolerance(self):
        # both ranks of the identities go through the one cutoff rule
        with pytest.raises(ValueError, match="finite and positive"):
            check_rank_formula(random_triple(6, 3, 0), rank_tol=float("nan"))


class TestSubspace:
    def test_projector_is_projection(self, rng):
        cols = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        s = Subspace.from_columns(cols)
        q = s.projector()
        assert np.linalg.norm(q @ q - q) <= 1e-10
        assert np.linalg.norm(q - q.conj().T) <= 1e-10

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError):
            Subspace(2, np.array([[1.0], [1.0]]))

    def test_zero_subspace(self):
        s = Subspace.zero(4)
        assert s.dim == 0
        assert np.linalg.norm(s.projector()) == 0.0


class TestSubspaceIntersection:
    def test_identical_lines(self):
        e1 = np.eye(3)[:, :1]
        s = Subspace(3, e1)
        inter = subspace_intersection(s, s)
        assert inter.dim == 1
        assert abs(abs(np.vdot(inter.basis[:, 0], e1[:, 0])) - 1) < 1e-12

    def test_orthogonal_lines(self):
        s1 = Subspace(3, np.eye(3)[:, :1])
        s2 = Subspace(3, np.eye(3)[:, 1:2])
        assert subspace_intersection(s1, s2).dim == 0

    def test_constructed_shared_vector(self, rng):
        # two 3-dim subspaces of C^6 sharing exactly one constructed vector
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v /= np.linalg.norm(v)
        extra = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        s1 = Subspace.from_columns(np.column_stack([v, extra[:, :2]]))
        s2 = Subspace.from_columns(np.column_stack([v, extra[:, 2:]]))
        inter = subspace_intersection(s1, s2)
        assert inter.dim == 1
        angle_cos = abs(np.vdot(inter.basis[:, 0], v))
        assert abs(angle_cos - 1.0) < 1e-8

    def test_symmetry_in_arguments(self, rng):
        a = Subspace.from_columns(rng.standard_normal((5, 2))
                                  + 1j * rng.standard_normal((5, 2)))
        b = Subspace.from_columns(rng.standard_normal((5, 3))
                                  + 1j * rng.standard_normal((5, 3)))
        left = subspace_intersection(a, b)
        right = subspace_intersection(b, a)
        assert left.dim == right.dim
        assert np.linalg.norm(left.projector() - right.projector()) < 1e-8

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            subspace_intersection(Subspace.zero(3), Subspace.zero(4))


def test_orthonormal_columns_rank_cut(rng):
    base = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    dependent = np.column_stack([base, base @ rng.standard_normal((2, 3))])
    q = orthonormal_columns(dependent)
    assert q.shape == (6, 2)
    assert np.allclose(q.conj().T @ q, np.eye(2), atol=1e-12)


def test_random_unitary_is_unitary_and_seeded():
    rng_a = np.random.default_rng(11)
    rng_b = np.random.default_rng(11)
    u = random_unitary(9, rng_a)
    assert np.linalg.norm(u.conj().T @ u - np.eye(9)) < 1e-12
    assert np.array_equal(u, random_unitary(9, rng_b))


@pytest.mark.parametrize("layout", ["c", "f", "strided", "transposed", "real", "int", "empty"])
def test_frobenius_norm_is_numpys_norm_bit_for_bit(rng, layout):
    # the summation order follows memory order, so every layout is checked
    x = rng.standard_normal((7, 9)) + 1j * rng.standard_normal((7, 9))
    x = {"c": x, "f": np.asfortranarray(x), "strided": x[::2, 1::3], "transposed": x.T,
         "real": x.real.copy(), "int": np.arange(12).reshape(3, 4),
         "empty": x[:0]}[layout]
    assert frobenius_norm(x).hex() == float(np.linalg.norm(x)).hex()


@pytest.mark.parametrize("kind", ["csr", "csc", "coo", "bsr", "duplicates", "lil", "dok", "dia"])
def test_sparse_frobenius_norm_is_scipys_norm(rng, kind):
    # the stored values, a repeated position summed, as scipy's sparse norm
    # reads them: bit for bit where it reads the compressed storage order
    dense = rng.standard_normal((7, 9)) + 1j * rng.standard_normal((7, 9))
    dense[rng.random((7, 9)) < 0.6] = 0
    if kind == "duplicates":
        rows, cols = np.nonzero(dense)
        values = dense[rows, cols]
        x = sp.coo_matrix((np.r_[values / 3, 2 * values / 3], (np.r_[rows, rows], np.r_[cols, cols])),
                          shape=dense.shape)
    else:
        x = sp.csr_matrix(dense).asformat(kind)
    stored = x.nnz
    want = float(sp.linalg.norm(x.copy()))  # scipy sums the copy's duplicates in place
    if kind in ("lil", "dok", "dia"):
        assert frobenius_norm(x) == pytest.approx(want, rel=1e-15)
    else:
        assert frobenius_norm(x).hex() == want.hex()
    assert x.nnz == stored
