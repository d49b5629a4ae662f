import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg  # noqa: F401  (scipy's sparse norm, the reference)

from isopair import linalg
from isopair.bcl import random_triple, wandering_projections
from isopair.linalg import (
    _CACHED_ENTRIES,
    THIN_MIN_ROWS,
    THIN_RESIDUAL,
    Subspace,
    _cached_gaussian_block,
    _normalize_phases,
    _thin_eig,
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
        values, vectors, _ = coupled_eig(form(a), lambda v: v != 0)
        assert sizes == [3]
        full_values, full_vectors = hermitian_eig(a)
        # the zero row's eigenvalue, which the full decomposition rounds
        nonzero = np.abs(full_values) > 1e-12
        assert np.allclose(values, full_values[nonzero], atol=1e-13)
        assert np.linalg.norm(vectors - full_vectors[:, nonzero]) <= 1e-12
        assert np.all(np.diff(values) <= 0)

    def test_keep_selects_unit_vectors_and_block_vectors(self, rng):
        a = self._matrix(rng)
        values, vectors, _ = coupled_eig(a, lambda v: v > 0.5)
        full_values, full_vectors = np.linalg.eigh(a)
        above = full_vectors[:, full_values > 0.5]
        assert np.allclose(values, np.sort(full_values[full_values > 0.5])[::-1])
        assert np.linalg.norm(vectors @ vectors.conj().T - above @ above.conj().T) <= 1e-12
        assert np.array_equal(vectors[:, values == 0.75], np.eye(6)[:, :1])

    @pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix], ids=["dense", "csr"])
    def test_diagonal_matrix_takes_no_decomposition(self, monkeypatch, form):
        sizes = eigh_sizes(monkeypatch)
        values, vectors, _ = coupled_eig(form(np.diag([0.0, 2.0, 0.0, -1.0])),
                                         lambda v: v != 0)
        assert sizes == []
        assert values.tolist() == [2.0, -1.0]
        assert np.array_equal(vectors, np.eye(4)[:, [1, 3]])

    def test_zero_matrix_gives_no_pairs(self):
        values, vectors, _ = coupled_eig(np.zeros((5, 5)), lambda v: v != 0)
        assert values.shape == (0,) and vectors.shape == (5, 0)

    def test_filled_matrix_takes_one_full_decomposition(self, rng, monkeypatch):
        a = random_hermitian(7, rng)
        sizes = eigh_sizes(monkeypatch)
        values, vectors, _ = coupled_eig(a, lambda v: v != 0)
        assert sizes == [7]
        full_values, full_vectors = hermitian_eig(a)
        assert np.array_equal(values, full_values)
        assert np.array_equal(vectors, full_vectors)


def signed_projection(dim, rank, rng):
    """A filled Hermitian matrix with ``rank`` eigenvalues +-1, in alternation, and the rest 0."""
    basis = random_unitary(dim, rng)[:, :rank]
    signs = np.where(np.arange(rank) % 2, -1.0, 1.0)
    a = (basis * signs) @ basis.conj().T
    return (a + a.conj().T) / 2


def eigh_by_hand(a):
    """``np.linalg.eigh`` with no check, in ``hermitian_eig``'s order and phase rule."""
    values, vectors = np.linalg.eigh(linalg.as_complex(a))
    order = values.argsort()[::-1]
    values, vectors = values[order], np.array(vectors[:, order])
    reference_normalize_phases(vectors)
    return values, vectors


# the whole solve a thin-route result is held to: hermitian_eig itself, or
# LAPACK's eigh put in its order and phase by hand
SOLVERS = pytest.mark.parametrize("solver", [hermitian_eig, eigh_by_hand], ids=["checked", "eigh"])


def full_route(a, keep, solver=hermitian_eig):
    """What ``coupled_eig`` returns for a filled matrix solved whole by ``solver``."""
    values, vectors = solver(a)
    kept = keep(values)
    values, vectors = values[kept], vectors[:, kept]
    order = (-values).argsort(kind="stable")
    return values[order], vectors[:, order]


class TestThinRoute:
    """A filled block of at least ``THIN_MIN_ROWS`` rows is solved on its range first."""

    @SOLVERS
    def test_block_below_the_size_returns_what_eig_returns(self, rng, monkeypatch, solver):
        a = signed_projection(THIN_MIN_ROWS - 1, 4, rng)
        keep = lambda v: v != 0  # noqa: E731
        want = full_route(a, keep, solver)
        draws = []
        monkeypatch.setattr(np.linalg, "qr", lambda *args: draws.append(args))
        *got, residual = coupled_eig(a, keep)
        assert draws == [] and residual is None
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @SOLVERS
    @pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix], ids=["dense", "csr"])
    def test_block_above_the_size_is_solved_on_its_range(self, rng, monkeypatch, form, solver):
        a = signed_projection(64, 5, rng)
        keep = lambda v: np.abs(v) > 0.5  # noqa: E731
        want_values, want_vectors = full_route(a, keep, solver)
        sizes = eigh_sizes(monkeypatch)
        values, vectors, residual = coupled_eig(form(a), keep)
        # a width of 5 + 8 columns: no 64-row solve
        assert max(sizes) <= 13
        assert 0 <= residual <= THIN_RESIDUAL * np.sqrt(5)
        assert np.allclose(values, [1, 1, 1, -1, -1], atol=1e-12)
        assert np.linalg.norm((vectors * values) @ vectors.conj().T - a) <= 1e-12
        # the phase rule of hermitian_eig, on the full-length vectors
        pivots = vectors[np.abs(vectors).argmax(axis=0), np.arange(values.size)]
        assert np.all(np.abs(pivots.imag) <= 1e-15) and np.all(pivots.real > 0)
        # the pairs the whole solve selects
        assert np.allclose(values, want_values, rtol=0, atol=1e-12)
        assert np.allclose(vectors @ vectors.conj().T, want_vectors @ want_vectors.conj().T,
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("solver, refuses", [(hermitian_eig, True), (eigh_by_hand, False)],
                             ids=["checked", "eigh"])
    def test_thin_route_keeps_hermitian_eigs_checks(self, rng, solver, refuses):
        a = signed_projection(64, 5, rng)
        a[0, 1] += 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            coupled_eig(a, lambda v: v != 0)
        # refused as hermitian_eig refuses it, also where eigh alone, which
        # reads one triangle, would answer
        if refuses:
            with pytest.raises(ValueError, match="not Hermitian"):
                solver(a)
        else:
            assert solver(a)[0].shape == (64,)

    @SOLVERS
    def test_full_rank_block_falls_back_to_eig_bit_for_bit(self, rng, monkeypatch, solver):
        a = random_hermitian(THIN_MIN_ROWS + 16, rng)
        draws = []
        monkeypatch.setattr(np.linalg, "qr", lambda *args: draws.append(args))
        # its squared norm is far above half its rows: no block is drawn
        assert _thin_eig(a) is None and draws == []
        *got, residual = coupled_eig(a, lambda v: v != 0)
        assert residual is None
        for g, w in zip(got, full_route(a, lambda v: v != 0, solver)):
            assert np.array_equal(g, w)

    @SOLVERS
    def test_missed_bound_falls_back_to_eig_bit_for_bit(self, rng, monkeypatch, solver):
        # squared norm 0.2 against rank 20: a width of 9 columns misses the range
        a = 0.1 * signed_projection(64, 20, rng)
        widths = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda x: widths.append(x.shape[1]) or qr(x))
        assert _thin_eig(a) is None and widths == [9]
        *got, residual = coupled_eig(a, lambda v: v != 0)
        assert residual is None and widths == [9, 9]
        for g, w in zip(got, full_route(a, lambda v: v != 0, solver)):
            assert np.array_equal(g, w)

    def test_without_thin_the_block_is_solved_whole(self, rng, monkeypatch):
        # a keep that takes a value of modulus at most the residual sets the
        # thin result aside, on either side of zero
        a = signed_projection(64, 5, rng)
        residual = _thin_eig(a)[2]
        draws = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda x: draws.append(x) or qr(x))
        for keep in (lambda v: np.abs(v) > residual / 2, lambda v: v > residual / 2,
                     lambda v: v < -residual / 2):
            draws.clear()
            *got, got_residual = coupled_eig(a, keep)
            assert len(draws) == 1 and got_residual is None
            for g, w in zip(got, full_route(a, keep)):
                assert np.array_equal(g, w)
        # one that leaves both -residual and residual out takes the thin result
        assert coupled_eig(a, lambda v: np.abs(v) > residual)[2] == residual

    def test_thin_solves_repeat_bit_for_bit(self, rng):
        a = signed_projection(80, 7, rng)
        first, second = _thin_eig(a), _thin_eig(a)
        for f, s in zip(first, second):
            assert np.array_equal(f, s)

    def test_only_small_gaussian_blocks_are_kept(self, rng, monkeypatch):
        # the cache holds at most maxsize blocks of _CACHED_ENTRIES entries
        held = _cached_gaussian_block.cache_parameters()["maxsize"] * _CACHED_ENTRIES * 16
        assert held <= 8 << 20
        a = signed_projection(64, 5, rng)
        entries = 64 * (5 + 8)
        _cached_gaussian_block.cache_clear()
        monkeypatch.setattr(linalg, "_CACHED_ENTRIES", entries - 1)
        large = _thin_eig(a)
        assert _cached_gaussian_block.cache_info().currsize == 0
        monkeypatch.setattr(linalg, "_CACHED_ENTRIES", entries)
        small = _thin_eig(a)
        assert _cached_gaussian_block.cache_info().currsize == 1
        # the block drawn anew is the one the cache holds
        for f, s in zip(small, large):
            assert np.array_equal(f, s)

    def test_non_finite_block_is_refused_by_hermitian_eig(self):
        a = signed_projection(THIN_MIN_ROWS, 3, np.random.default_rng(0))
        a[0, 0] = np.nan
        assert _thin_eig(a) is None
        with pytest.raises(ValueError, match="non-finite"):
            coupled_eig(a, lambda v: v != 0)

    @pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix], ids=["dense", "csr"])
    def test_non_finite_decoupled_entry_is_refused(self, form):
        a = np.zeros((THIN_MIN_ROWS, THIN_MIN_ROWS))
        a[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            coupled_eig(form(a), lambda v: v != 0)

    def test_round_off_in_the_norm_adds_no_column(self, rng, monkeypatch):
        # the squared norm of a rank-16 projection lands a hair above 16
        blocks = [signed_projection(48, 16, rng) for _ in range(40)]
        widths = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda x: widths.append(x.shape[1]) or qr(x))
        for a in blocks:
            assert coupled_eig(a, lambda v: np.abs(v) > 0.5)[2] is not None
        assert widths == [24] * 40


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
