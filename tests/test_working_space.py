"""Each input's working data is computed once, both product paths agree, and
a structured pair's eigen-data come from its coupled blocks only."""

import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _compressed

from isopair import bcl, cli, linalg, models
from isopair.classify import (
    ONE_FINITE,
    THREE_FINITE,
    check_compact_normal,
    classify,
    decide_equivalence,
    fundamental_sequence,
    working_space,
)
from isopair.cli import CLUSTER_TOL, analyze_object
from isopair.izuchi import build_izuchi_model, verify_izuchi_invariants
from isopair.linalg import as_complex, coupled_eig, hermitian_eig, lift, random_unitary
from isopair.models import (
    StructuredPair,
    bishift_truncated,
    conjugate_split,
    defect_and_cross_on_interior,
    dense_products,
    direct_sum,
    product_operators,
    scramble,
    sparse_operators,
    twisted_shift,
    validate_pair,
)
from isopair.serialize import classification_to_json, dumps_canonical, pair_to_json

from conftest import two_finite_triple
from test_classify import shift_unitary_pair
from test_linalg import eigh_sizes
from test_sparse_pair import GENERATED


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


#: The products of :class:`~isopair.models._InteriorProducts`, each formed on first read.
PRODUCTS = ("defect_and_cross", "range_v", "residuals")


@pytest.fixture
def counters(monkeypatch):
    return {
        "dense": _count_calls(monkeypatch, models, "defect_and_cross_on_interior"),
        "triple": _count_calls(monkeypatch, bcl, "wandering_projections"),
    }


@pytest.fixture
def products(monkeypatch):
    """Every interior-products object made, each listing the products it formed,
    and the slices and products of its CSR operators taken while it was latest."""
    made = []
    cls = models._InteriorProducts
    init = cls.__init__

    def counted_init(self, v1, v2, interior):
        self.formed, self.slices, self.products = [], [], []
        made.append(self)
        init(self, v1, v2, interior)

    monkeypatch.setattr(cls, "__init__", counted_init)
    for name in PRODUCTS:
        def counted(self, form=cls.__dict__[name].func, name=name):
            self.formed.append(name)
            return form(self)

        prop = functools.cached_property(counted)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)

    getitem = sp.csr_matrix.__getitem__

    def counted_getitem(matrix, key):
        # a slice of the latest object's own operators, wherever it is taken
        if made and any(matrix is op for op in (made[-1].v1, made[-1].v2)):
            made[-1].slices.append((made[-1].v1 is matrix, isinstance(key[0], slice)))
        return getitem(matrix, key)

    monkeypatch.setattr(sp.csr_matrix, "__getitem__", counted_getitem)
    matmul = sp.csr_matrix.__matmul__

    def counted_matmul(left, right):
        # a product of two of the latest object's operators and slices
        if made and hasattr(made[-1], "cols"):
            p = made[-1]
            named = {id(m): name for name, m in zip(
                ("v1", "v2", "rows1", "rows2", "cols1", "cols2"),
                (p.v1, p.v2, *p.rows, *p.cols))}
            if id(left) in named and id(right) in named:
                p.products.append((named[id(left)], named[id(right)]))
        return matmul(left, right)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counted_matmul)
    return made


def _formed_once(made) -> bool:
    """Whether each object formed each product once and, on CSR operators
    (whose slices and products are counted), sliced each operator's rows and
    columns once and multiplied no two of them twice."""
    slices = sorted([(True, False), (False, False), (True, True), (False, True)])
    # V1 cols2 and V2 cols1 for the commutation residual, rows1 V2 for range_v
    thin = sorted([("v1", "cols2"), ("v2", "cols1"), ("rows1", "v2")])
    return all(sorted(p.formed) == list(PRODUCTS) and (not sp.issparse(p.v1) or (
        sorted(p.slices) == slices and sorted(p.products) == thin)) for p in made)


class TestComputedOnce:
    def test_classify_pair(self, counters, products):
        pair = build_izuchi_model(0.5, 1j, 8, 8).pair
        classify(pair)
        assert [p.v1 is sparse_operators(pair)[0] for p in products] == [True]
        assert _formed_once(products)
        assert counters["triple"] == counters["dense"] == []

    def test_classify_triple(self, counters, products):
        classify(two_finite_triple(1j))
        assert len(counters["triple"]) == 1
        assert products == []

    def test_decide_equivalence_pairs(self, counters, products):
        a = build_izuchi_model(0.5, 1j, 8, 8).pair
        b = build_izuchi_model(0.5, 1j, 10, 10).pair
        assert decide_equivalence(a, b).equivalent
        assert [p.v1 is sparse_operators(a)[0] for p in products] == [True, False]
        assert products[1].v1 is sparse_operators(b)[0]
        assert _formed_once(products)
        assert counters["dense"] == []

    def test_decide_equivalence_triples(self, counters):
        a, b = two_finite_triple(1j), two_finite_triple(1j)
        assert decide_equivalence(a, b).equivalent
        assert [t is a for t in counters["triple"]] == [True, False]

    def test_decide_equivalence_triple_against_pair(self, counters, products):
        decide_equivalence(two_finite_triple(1j), twisted_shift(1j, 6))
        assert len(counters["triple"]) == 1
        assert len(products) == 1 and _formed_once(products)
        assert counters["dense"] == []


def test_wandering_projections_validates_once(monkeypatch):
    calls = _count_calls(monkeypatch, bcl, "validate_triple")
    triple = two_finite_triple(1j)
    ops = bcl.wandering_projections(triple)
    assert calls == [triple]
    assert np.array_equal(ops.cross, bcl.cross_commutator_on_wandering(triple))


@pytest.mark.parametrize("pair", [
    bishift_truncated(6),
    twisted_shift(np.exp(0.7j), 12),
    build_izuchi_model(0.5, 1j, 8, 8).pair,
], ids=["bishift", "twisted", "invariant_subspace"])
def test_dense_path_matches_sparse_path(pair):
    rng = np.random.default_rng(7)
    w_int = random_unitary(pair.interior_dim, rng)
    w_bnd = random_unitary(len(pair.boundary), rng)
    mixed = conjugate_split(pair, w_int, w_bnd)
    assert not dense_products(pair)
    assert dense_products(mixed)

    defect, cross = defect_and_cross_on_interior(pair)
    mixed_defect, mixed_cross = defect_and_cross_on_interior(mixed)
    wh = w_int.conj().T
    assert np.linalg.norm(mixed_defect - w_int @ defect @ wh) <= 1e-12
    assert np.linalg.norm(mixed_cross - w_int @ cross @ wh) <= 1e-12


BOTH_FORMS = dict(GENERATED, scrambled=lambda: scramble(GENERATED["direct_sum"](), seed=3))


@pytest.mark.parametrize("name", sorted(BOTH_FORMS))
def test_product_forms_agree_on_one_pair(name):
    # one object forms every product; its dense and CSR runs agree on the same pair
    pair = BOTH_FORMS[name]()
    idx = np.asarray(pair.interior, dtype=int)
    dense = models._InteriorProducts(pair.v1, pair.v2, idx)
    csr = models._InteriorProducts(*sparse_operators(pair), idx)
    assert dense.residuals.keys() == csr.residuals.keys()
    for key, value in dense.residuals.items():
        assert abs(value - csr.residuals[key]) <= 1e-13
    for got, csr_got in zip((*dense.defect_and_cross, dense.range_v, *dense.rows, *dense.cols),
                            (*csr.defect_and_cross, csr.range_v, *csr.rows, *csr.cols)):
        assert isinstance(got, np.ndarray) and sp.issparse(csr_got)
        assert np.linalg.norm(got - csr_got.toarray()) <= 1e-13


@pytest.mark.parametrize("interior", [(0,), ()], ids=["one-index", "empty"])
def test_window_inside_the_e1_support_classifies_on_both_forms(monkeypatch, tmp_path, capsys,
                                                               interior):
    # the eigenvalue-1 vectors touch every index of the window, so the CSR
    # cross-commutator minus a dense array gives an np.matrix, which the
    # Frobenius norm must read as an array
    bishift = bishift_truncated(12)
    pair = StructuredPair(bishift.dim, *sparse_operators(bishift), bishift.basis_labels,
                          interior, "bishift")
    path = tmp_path / "pair.json"
    path.write_text(dumps_canonical(pair_to_json(pair)))
    assert cli.main(["classify", str(path)]) == 0
    capsys.readouterr()
    result = classify(pair)
    assert (result.k, result.fundamental_sequence) == (len(interior), (0j,) * len(interior))
    csr = dumps_canonical(classification_to_json(result))
    monkeypatch.setattr(models, "DENSE_FILL", 0)
    assert dense_products(pair)
    assert dumps_canonical(classification_to_json(classify(pair))) == csr


def test_dense_path_keeps_shift_unitary_spectrum():
    # the residual shift-unitary part goes through the wandering-space model
    pair = shift_unitary_pair(np.array([0.4, 2.0]), cap=12)
    rng = np.random.default_rng(3)
    mixed = conjugate_split(pair, random_unitary(pair.interior_dim, rng),
                            random_unitary(len(pair.boundary), rng))
    assert not dense_products(pair)
    assert dense_products(mixed)

    expected = classify(pair).shift_unitary
    got = classify(mixed).shift_unitary
    assert got.eigs_on_pperp == expected.eigs_on_pperp == ()
    assert np.allclose(got.eigs_on_p, expected.eigs_on_p, atol=1e-10)
    assert np.allclose(sorted(np.angle(z) for z in got.eigs_on_p), [0.4, 2.0],
                       atol=1e-10)


def test_cross_check_runs_at_every_size():
    # the eigenvalue-1 cross-check runs inside W, with no interior-size limit
    for cap in (6, 30):
        result = fundamental_sequence(bishift_truncated(cap))
        assert result.residuals["e1_consistency"] == 0.0
        assert "e1_consistency_skipped" not in result.residuals


def test_large_shift_unitary_pair_classifies():
    # interior dimension 1202, and the shift-unitary part is not empty
    pair = shift_unitary_pair(np.array([0.4, 2.0]), cap=602)
    assert pair.interior_dim == 1202
    result = classify(pair)
    assert result.k == 0
    assert result.shift_unitary.eigs_on_pperp == ()
    assert np.allclose(sorted(np.angle(z) for z in result.shift_unitary.eigs_on_p),
                       [0.4, 2.0], atol=1e-10)


#: The three twists the structured benchmark draws for seed 0: evenly spaced
#: from a seeded offset.  On the second, every identity-like row of
#: ``V V^H`` has diagonal 0.9999999999999999 rather than 1.
_OFFSET = float(np.random.default_rng(0).uniform(0, 2 * np.pi))
SWEEP_TWISTS = tuple(complex(np.exp(1j * (_OFFSET + 2 * np.pi * k / 3))) for k in range(3))

SPLIT_INPUTS = {
    **{f"model{cap}_twist{k}": (lambda cap=cap, k=k:
                                build_izuchi_model(0.5, SWEEP_TWISTS[k], cap, cap).pair)
       for cap in (8, 10, 13, 20) for k in range(3)},
    "bishift5": lambda: bishift_truncated(5),
    "bishift20": lambda: bishift_truncated(20),
    "twisted": lambda: twisted_shift(np.exp(0.7j), 12),
    "direct_sum": GENERATED["direct_sum"],
    "scrambled": lambda: scramble(build_izuchi_model(0.5, 1j, 8, 8).pair, seed=3),
    "shift_unitary": lambda: shift_unitary_pair(np.array([0.4, 2.0]), cap=12),
}


def _gram_rows(pair):
    """Interior rows of ``V = V1 V2``, in the form the pair's products run on."""
    v1, v2 = product_operators(pair)
    return v1[np.asarray(pair.interior, dtype=int), :] @ v2


def _projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.conj().T


@pytest.mark.parametrize("name", sorted(SPLIT_INPUTS))
def test_coupled_blocks_match_full_decompositions(name):
    # the split path against one decomposition of the whole interior matrix
    pair = SPLIT_INPUTS[name]()
    ws = working_space(pair)
    values, vectors = ws.defect_eig
    full_values, full_vectors = hermitian_eig(ws.defect)
    got, want = values[np.abs(values) > 1e-8], full_values[np.abs(full_values) > 1e-8]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13
    e1, full_e1 = vectors[:, values >= 1 - 1e-8], full_vectors[:, full_values >= 1 - 1e-8]
    assert np.linalg.norm(_projector(e1) - _projector(full_e1)) <= 1e-12

    rows = _gram_rows(pair)
    w_values, w_vectors = np.linalg.eigh(np.eye(pair.interior_dim)
                                         - as_complex(rows @ rows.conj().T))
    full_w = w_vectors[:, w_values > 0.5]
    basis = ws.wandering_model.basis
    assert basis.shape == full_w.shape
    assert np.linalg.norm(_projector(basis) - _projector(full_w)) <= 1e-12


def reference_wandering_model(pair):
    """The wandering model as formed before the products were shared.

    The basis is lifted into a dense ``dim``-row array, which the whole
    operators multiply.
    """
    v1, v2 = product_operators(pair)
    interior = np.asarray(pair.interior, dtype=int)
    rows = v1[interior, :] @ v2
    eye = sp.identity(len(interior), np.complex128, "csr") if sp.issparse(rows) \
        else np.eye(len(interior))
    _, basis = coupled_eig(eye - rows @ rows.conj().T,
                           lambda values: values > 0.5, np.linalg.eigh)
    lifted = lift(pair.dim, interior, basis)
    adj1 = v1.conj().T @ lifted
    adj2 = v2.conj().T @ lifted
    range1 = v1 @ adj1
    unitary = (lifted.conj().T @ (v2 @ (lifted - range1))
               + (v1 @ lifted).conj().T @ range1)
    eye = np.eye(basis.shape[1])
    return basis, unitary, eye - adj1.conj().T @ adj1, eye - adj2.conj().T @ adj2


@pytest.mark.parametrize("name", sorted(SPLIT_INPUTS))
def test_wandering_model_matches_the_lifted_formulas(name):
    pair = SPLIT_INPUTS[name]()
    model = working_space(pair).wandering_model
    for got, want in zip(model, reference_wandering_model(pair)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13


@pytest.mark.parametrize("name", sorted(SPLIT_INPUTS))
def test_structure_residuals_are_the_validation_residuals(name):
    pair = SPLIT_INPUTS[name]()
    assert check_compact_normal(pair).structure_residuals == validate_pair(pair).residuals


def test_triple_has_no_structure_residuals():
    assert check_compact_normal(two_finite_triple(1j)).structure_residuals == {}


def test_no_pair_defect_gives_no_eigenpairs():
    # the unitary second operator leaves the interior defect zero
    pair = shift_unitary_pair(np.array([0.4, 2.0]), cap=12)
    ws = working_space(pair)
    assert not as_complex(ws.defect).any()
    values, vectors = ws.defect_eig
    assert values.shape == (0,) and vectors.shape == (pair.interior_dim, 0)
    assert classify(pair).k == 0


def test_bishift_wandering_space_has_no_coupled_block(monkeypatch):
    # every interior row of V V^H is a 1x1 block: W takes no decomposition
    pair = bishift_truncated(20)
    sizes = eigh_sizes(monkeypatch)
    basis = working_space(pair).wandering_model.basis
    assert sizes == []
    assert basis.shape == (361, 37)
    assert np.array_equal(np.abs(basis).sum(axis=0), np.ones(37))


def test_classify_diagonalizes_coupled_blocks_only(monkeypatch):
    # a silent fall-back to interior-size decompositions fails here
    pair = build_izuchi_model(0.5, SWEEP_TWISTS[1], 20, 20).pair
    rows = _gram_rows(pair)
    gram = np.diagonal(as_complex(rows @ rows.conj().T)).real
    assert np.any((gram > 0.5) & (gram < 1.0))   # identity-like rows are not exactly 1
    sizes = eigh_sizes(monkeypatch)
    result = classify(pair)
    assert pair.interior_dim == 342
    assert result.k == 1 and result.blocks[0].kind == THREE_FINITE
    assert sizes and max(sizes) <= 36


def test_large_inputs_classify_on_their_coupled_blocks():
    # at cap 100 (interior 9702) a dense interior defect or cross-commutator
    # alone would take 1.5 GB
    tracemalloc.start()
    try:
        model40 = build_izuchi_model(0.5, 1j, 40, 40).pair
        model100 = build_izuchi_model(0.5, 1j, 100, 100).pair
        results = [classify(model40), classify(model100)]
        report = analyze_object(model100, None, 1e-8)
        bishifts = [classify(bishift_truncated(cap)) for cap in (30, 100)]
        verdicts = [decide_equivalence(build_izuchi_model(0.5, 1j, 30, 30).pair, model)
                    for model in (model40, model100)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not dense_products(model100) and sp.issparse(working_space(model100).cross)
    for result in results:
        assert result.k == 1
        assert [b.kind for b in result.blocks] == [THREE_FINITE]
        assert abs(result.fundamental_sequence[0] - 0.5j) <= 1e-8
    assert report["pass"] and report["kernel_dim"] == model100.interior_dim - 3 == 9699
    assert (report["rank_defect"], report["rank_cross"]) == (3, 1)
    for bishift in bishifts:
        assert bishift.k == 1
        assert [b.kind for b in bishift.blocks] == [ONE_FINITE]
        assert bishift.fundamental_sequence == (0j,)
    assert all(verdict.equivalent for verdict in verdicts)
    assert peak <= 400e6


@pytest.mark.parametrize("cap", [50, 15], ids=["csr", "dense"])
def test_filled_block_in_a_sum_keeps_products_small(cap):
    # a scramble's dense 182 x 182 block gives a product about 6e6 terms for
    # 3e4 entries; listed all at once, they took 370 MB in either form
    scrambled = scramble(build_izuchi_model(0.5, 1j, 13, 13).pair, 1)
    pair = direct_sum([scrambled, build_izuchi_model(0.5, 1j, cap, cap).pair])
    assert dense_products(pair) == (cap == 15)
    tracemalloc.start()
    try:
        result = classify(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [b.kind for b in result.blocks] == [THREE_FINITE] * 2
    assert np.allclose(result.fundamental_sequence, [0.5j, 0.5j])
    assert peak <= 100e6


def _csr_constructions(monkeypatch) -> list:
    """Every scipy compressed-matrix construction, counted by its constructor."""
    made = []
    init = _compressed._cs_matrix.__init__

    def counted(self, *args, **kwargs):
        made.append(type(self).__name__)
        return init(self, *args, **kwargs)

    monkeypatch.setattr(_compressed._cs_matrix, "__init__", counted)
    return made


def test_sparse_products_build_few_csr_objects(monkeypatch):
    # the interior products are summed from stored entries; when scipy formed
    # them, a cap-15 classify built 86 CSR objects and a cap-50 verify 55
    pair = build_izuchi_model(0.5, np.exp(0.7j), 15, 15).pair
    model = build_izuchi_model(0.5, np.exp(0.7j), 50, 50)
    made = _csr_constructions(monkeypatch)
    classify(pair)
    assert len(made) <= 19
    made.clear()
    assert verify_izuchi_invariants(model).ok
    assert len(made) <= 9


def _filled_block_sum():
    """A sparse pair holding a filled block: a scramble's 182 x 182 block next to a cap-50 model."""
    return direct_sum([scramble(build_izuchi_model(0.5, 1j, 13, 13).pair, 1),
                       build_izuchi_model(0.5, 1j, 50, 50).pair])


def _sparse_answers(pair) -> tuple:
    products = models._InteriorProducts(*product_operators(pair), pair.interior)
    matrices = (*products.defect_and_cross, products.range_complement())
    assert all(isinstance(matrix, sp.csr_matrix) for matrix in matrices)
    arrays = [(matrix.indptr.tobytes(), matrix.indices.tobytes(), matrix.data.tobytes())
              for matrix in matrices]
    return (arrays, repr(validate_pair(pair)),
            dumps_canonical(classification_to_json(classify(pair))),
            dumps_canonical(analyze_object(pair, None, CLUSTER_TOL)))


@pytest.mark.parametrize("make", [
    lambda: bishift_truncated(8),
    lambda: twisted_shift(np.exp(0.7j), 9),
    lambda: build_izuchi_model(0.5, np.exp(0.7j), 12, 12).pair,
    lambda: direct_sum([build_izuchi_model(-0.3, np.exp(2.0j), 8, 8).pair,
                        twisted_shift(1j, 6), bishift_truncated(5)]),
    _filled_block_sum,
], ids=["bishift", "twisted", "model", "sum", "filled-block-sum"])
def test_scipy_formula_gives_the_kernels_bytes(monkeypatch, make):
    # with no sum small enough for the kernel, every product is formed by
    # scipy from its operator formula, and every answer keeps its bytes
    pair = make()
    assert not dense_products(pair)
    kernel = _sparse_answers(pair)
    monkeypatch.setattr(linalg, "_CHUNK_TERMS", 0)
    assert _sparse_answers(pair) == kernel


def test_filled_block_sum_hands_the_kernel_only_sums_that_fit(monkeypatch):
    # listing every term of a sum over the filled block would take millions
    sizes = []
    signed_sum = linalg._signed_sum

    def spy(signs, parts, *args, **kwargs):
        sizes.append(sum(linalg._most_terms(part) for part in parts))
        return signed_sum(signs, parts, *args, **kwargs)

    monkeypatch.setattr(linalg, "_signed_sum", spy)
    result = classify(_filled_block_sum())
    assert [b.kind for b in result.blocks] == [THREE_FINITE] * 2
    assert sizes and max(sizes) <= linalg._CHUNK_TERMS
