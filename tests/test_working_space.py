"""Each input's working data is computed once, both product paths agree, and
a structured pair's eigen-data come from its coupled blocks only."""

import importlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from isopair import bcl, models
from isopair.classify import (
    ONE_FINITE,
    THREE_FINITE,
    classify,
    decide_equivalence,
    fundamental_sequence,
    working_space,
)
from isopair.cli import analyze_object
from isopair.izuchi import build_izuchi_model
from isopair.linalg import as_complex, hermitian_eig, random_unitary
from isopair.models import (
    bishift_truncated,
    conjugate_split,
    defect_and_cross_on_interior,
    dense_products,
    product_operators,
    scramble,
    sparse_operators,
    twisted_shift,
)

from conftest import two_finite_triple
from test_classify import shift_unitary_pair
from test_linalg import eigh_sizes
from test_sparse_pair import GENERATED

# the package exports the function ``classify`` under the submodule's name
classify_module = importlib.import_module("isopair.classify")


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def counters(monkeypatch):
    return {
        "pair": _count_calls(monkeypatch, models, "interior_defect_and_cross"),
        "dense": _count_calls(monkeypatch, models, "defect_and_cross_on_interior"),
        "triple": _count_calls(monkeypatch, bcl, "wandering_projections"),
        "validate_pair": _count_calls(monkeypatch, classify_module, "validate_pair"),
    }


class TestComputedOnce:
    def test_classify_pair(self, counters):
        pair = build_izuchi_model(0.5, 1j, 8, 8).pair
        classify(pair)
        assert len(counters["pair"]) == 1
        assert len(counters["validate_pair"]) == 1
        assert counters["triple"] == counters["dense"] == []

    def test_classify_triple(self, counters):
        classify(two_finite_triple(1j))
        assert len(counters["triple"]) == 1
        assert counters["pair"] == []

    def test_decide_equivalence_pairs(self, counters):
        a = build_izuchi_model(0.5, 1j, 8, 8).pair
        b = build_izuchi_model(0.5, 1j, 10, 10).pair
        assert decide_equivalence(a, b).equivalent
        assert [p is a for p in counters["pair"]] == [True, False]
        assert [p is a for p in counters["validate_pair"]] == [True, False]
        assert counters["dense"] == []

    def test_decide_equivalence_triples(self, counters):
        a, b = two_finite_triple(1j), two_finite_triple(1j)
        assert decide_equivalence(a, b).equivalent
        assert [t is a for t in counters["triple"]] == [True, False]

    def test_decide_equivalence_triple_against_pair(self, counters):
        decide_equivalence(two_finite_triple(1j), twisted_shift(1j, 6))
        assert len(counters["triple"]) == 1
        assert len(counters["pair"]) == 1
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
    # each product is one formula; its dense and CSR runs agree on the same pair
    pair = BOTH_FORMS[name]()
    idx = np.asarray(pair.interior, dtype=int)
    dense, csr = (pair.v1, pair.v2), sparse_operators(pair)
    residuals = models._pair_residuals(*dense, idx)
    csr_residuals = models._pair_residuals(*csr, idx)
    assert residuals.keys() == csr_residuals.keys()
    for key, value in residuals.items():
        assert abs(value - csr_residuals[key]) <= 1e-13
    for got, csr_got in zip(models._defect_and_cross(*dense, idx),
                            models._defect_and_cross(*csr, idx)):
        assert isinstance(got, np.ndarray) and sp.issparse(csr_got)
        assert np.linalg.norm(got - csr_got.toarray()) <= 1e-13


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
    ws = working_space(SPLIT_INPUTS[name]())
    values, vectors = ws.defect_eig
    full_values, full_vectors = hermitian_eig(ws.defect)
    got, want = values[np.abs(values) > 1e-8], full_values[np.abs(full_values) > 1e-8]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13
    e1, full_e1 = vectors[:, values >= 1 - 1e-8], full_vectors[:, full_values >= 1 - 1e-8]
    assert np.linalg.norm(_projector(e1) - _projector(full_e1)) <= 1e-12

    rows = _gram_rows(ws.obj)
    w_values, w_vectors = np.linalg.eigh(np.eye(len(ws.interior))
                                         - as_complex(rows @ rows.conj().T))
    full_w = w_vectors[:, w_values > 0.5]
    basis = ws.wandering_model.basis
    assert basis.shape == full_w.shape
    assert np.linalg.norm(_projector(basis) - _projector(full_w)) <= 1e-12


def test_no_pair_defect_gives_no_eigenpairs():
    # the unitary second operator leaves the interior defect zero
    ws = working_space(shift_unitary_pair(np.array([0.4, 2.0]), cap=12))
    assert not as_complex(ws.defect).any()
    values, vectors = ws.defect_eig
    assert values.shape == (0,) and vectors.shape == (len(ws.interior), 0)
    assert classify(ws.obj).k == 0


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
