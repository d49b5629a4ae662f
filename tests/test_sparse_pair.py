"""Structured pairs keep the form they were given: CSR from the generators.

A pair built from CSR matrices and one built from the same matrices as dense
arrays must be indistinguishable through every public result; the two cached
forms of one operator must never disagree; and the invariant-subspace model
must build and verify without any dense ``dim x dim`` array.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from isopair.classify import classify
from isopair.izuchi import (
    _oracle_matrices,
    build_izuchi_model,
    chain_expansion,
    minimal_series_len,
    verify_izuchi_invariants,
)
from isopair.linalg import _entries
from isopair.models import (
    StructuredPair,
    bishift_truncated,
    dense_products,
    direct_sum,
    scramble,
    sparse_operators,
    twisted_shift,
    validate_pair,
)
from isopair.serialize import (
    classification_to_json,
    dumps_canonical,
    from_json,
    to_json,
)

from test_izuchi import oracle_built_pair
from test_serialize import assert_identical, reference_json

GENERATED = {
    "izuchi": lambda: build_izuchi_model(0.5, 1j, 8, 8).pair,
    "oracle": lambda: oracle_built_pair(0.5, 1j, 7, 7, 40),
    "bishift": lambda: bishift_truncated(6),
    "twisted": lambda: twisted_shift(np.exp(1j * np.pi / 3), 7),
    "direct_sum": lambda: direct_sum([bishift_truncated(4), twisted_shift(1j, 5),
                                      build_izuchi_model(0.3, -1.0, 6, 6).pair]),
}


def dense_copy(pair: StructuredPair) -> StructuredPair:
    """The same pair built from dense arrays."""
    return StructuredPair(pair.dim, np.array(pair.v1), np.array(pair.v2),
                          pair.basis_labels, pair.interior, pair.provenance)


@pytest.fixture(params=sorted(GENERATED))
def generated(request) -> StructuredPair:
    return GENERATED[request.param]()


def test_generators_store_csr(generated):
    for op in sparse_operators(generated):
        assert isinstance(op, sp.csr_matrix)
    assert "csr" in repr(generated)


def test_csr_and_dense_builds_agree(generated):
    dense = dense_copy(generated)
    assert "dense" in repr(dense)
    assert dumps_canonical(to_json(generated)) == dumps_canonical(to_json(dense))
    assert dense_products(generated) == dense_products(dense)
    assert validate_pair(generated) == validate_pair(dense)
    assert (dumps_canonical(classification_to_json(classify(generated)))
            == dumps_canonical(classification_to_json(classify(dense))))


def test_both_forms_write_coo_and_load_back(generated):
    dense = dense_copy(generated)
    for pair in (generated, dense):
        payload = to_json(pair)
        assert {"index", "re", "im"} <= set(payload["v1"]) and "data" not in payload["v1"]
        assert {"index", "re", "im"} <= set(payload["v2"]) and "data" not in payload["v2"]
        assert_identical(from_json(json.loads(dumps_canonical(payload))), pair)
    # a file in the dense encoding written before COO loads to the same object
    old = json.loads(dumps_canonical(reference_json(generated)))
    assert_identical(from_json(old), generated)


def test_cap_40_model_file_is_small_and_written_from_csr():
    pair = build_izuchi_model(0.5, 1j, 40, 40).pair
    tracemalloc.start()
    try:
        text = dumps_canonical(to_json(pair))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) < 1_000_000  # 53.8 MB in the dense encoding
    assert peak < 8e6  # a dense operator would take 43 MB


def test_verify_reports_agree():
    model = build_izuchi_model(0.5, np.exp(0.4j), 12, 12)
    dense = replace(model, pair=dense_copy(model.pair))
    assert verify_izuchi_invariants(model) == verify_izuchi_invariants(dense)


@pytest.mark.parametrize("make", [lambda: build_izuchi_model(0.5, 1j, 15, 15).pair,
                                  lambda: bishift_truncated(20)])
def test_sparse_validation_matches_dense_products(make):
    pair = make()
    assert not dense_products(pair)
    idx = np.asarray(pair.interior)
    eye = np.eye(len(idx))
    v1, v2 = pair.v1, pair.v2
    reference = {
        "isometry_v1": np.linalg.norm((v1.conj().T @ v1)[np.ix_(idx, idx)] - eye),
        "isometry_v2": np.linalg.norm((v2.conj().T @ v2)[np.ix_(idx, idx)] - eye),
        "commutation": np.linalg.norm((v1 @ v2 - v2 @ v1)[:, idx]),
    }
    got = validate_pair(pair)
    assert got.ok
    for name, value in reference.items():
        assert abs(got.residuals[name] - value) <= 1e-15


def test_replace_never_carries_a_stale_form():
    pair = build_izuchi_model(0.5, 1j, 6, 6).pair
    old_v1, _ = sparse_operators(pair)
    new = replace(pair, v1=1j * pair.v1)
    new_v1, new_v2 = sparse_operators(new)
    assert np.array_equal(new_v1.toarray(), new.v1)
    assert np.array_equal(new.v1, 1j * old_v1.toarray())
    assert np.array_equal(new_v2.toarray(), pair.v2)

    # and the other way round: a dense pair whose CSR form is cached
    dense = dense_copy(pair)
    sparse_operators(dense)
    again = replace(dense, v2=sp.csr_matrix(-dense.v2))
    assert np.array_equal(again.v2, -pair.v2)
    assert np.array_equal(sparse_operators(again)[1].toarray(), -pair.v2)

    # even setting the field behind the frozen class's back drops the cache
    object.__setattr__(again, "v2", pair.v2)
    assert np.array_equal(sparse_operators(again)[1].toarray(), pair.v2)


def test_stored_forms_are_read_only_copies():
    source = twisted_shift(1j, 5).v1.copy()
    pair = StructuredPair(5, source, source, tuple(range(5)), (0, 1), "t")
    source[1, 0] = 7.0
    assert pair.v1[1, 0] == 1.0
    for op in (pair.v1, build_izuchi_model(0.5, 1j, 5, 5).pair.v2):
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
    csr, _ = sparse_operators(pair)
    with pytest.raises(ValueError):
        csr.data[0] = 2.0


def test_only_frozen_input_is_kept_uncopied():
    frozen = np.eye(3, dtype=complex)
    frozen.flags.writeable = False
    base = np.eye(3, dtype=complex)
    view = base[:]
    view.flags.writeable = False
    pair = StructuredPair(3, frozen, view, (0, 1, 2), (0,), "f")
    assert pair.v1 is frozen
    base[0, 0] = 5.0  # the read-only view still aliases a writable array
    assert pair.v2[0, 0] == 1.0


def test_duplicate_entries_are_summed():
    dup = sp.coo_matrix(([1.0, 2.0], ([1, 1], [0, 0])), shape=(3, 3))
    pair = StructuredPair(3, dup, dup, (0, 1, 2), (0,), "dup")
    assert pair.v1[1, 0] == 3.0
    assert sparse_operators(pair)[0].nnz == 1
    assert dense_products(pair) == dense_products(dense_copy(pair))


def test_shapes_are_checked_on_the_stored_form():
    with pytest.raises(ValueError, match="shapes"):
        StructuredPair(3, sp.identity(4, format="csr"), np.eye(3), (0, 1, 2), (), "x")


def test_repr_makes_no_dense_matrix():
    pair = build_izuchi_model(0.5, 1j, 40, 40).pair
    tracemalloc.start()
    try:
        text = repr(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "1640x1640 csr" in text
    assert peak < 8e6  # a dense operator would take 43 MB


def test_scramble_reads_the_dense_form():
    pair = direct_sum([bishift_truncated(4), twisted_shift(1j, 5)])
    mixed = scramble(pair, 3)
    assert "dense" in repr(mixed)
    assert dense_products(mixed) and not dense_products(pair)


def test_cap_100_model_builds_and_verifies_in_little_memory():
    tracemalloc.start()
    try:
        model = build_izuchi_model(0.5, 1j, 100, 100, 100)
        report = verify_izuchi_invariants(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.pair.dim == 10100
    assert report.ok
    assert peak < 64e6  # one dense operator would take 1.6 GB


def loop_oracle(ratio, twist, monomial_cap, chain_len, series_len):
    """The inner-product oracle entry by entry, as dictionaries of exponents."""
    expansions = [{(m, n): 1.0} for m in range(monomial_cap) for n in range(monomial_cap)]
    expansions += [chain_expansion(ratio, j, series_len) for j in range(chain_len)]
    exponents = sorted({exp for series in expansions for exp in series})
    row_of = {exp: i for i, exp in enumerate(exponents)}
    rows, cols, data = [], [], []
    for b, series in enumerate(expansions):
        for exp, coeff in series.items():
            rows.append(row_of[exp])
            cols.append(b)
            data.append(coeff)
    coeff = sp.csr_matrix((data, (rows, cols)), shape=(len(exponents), len(expansions)),
                          dtype=np.complex128)

    def shift_matrix(dz, dw):
        pairs = [(row_of[(ze + dz, we + dw)], i) for (ze, we), i in row_of.items()
                 if (ze + dz, we + dw) in row_of]
        s_rows, s_cols = zip(*pairs)
        return sp.csr_matrix((np.ones(len(pairs), dtype=np.complex128), (s_rows, s_cols)),
                             shape=(len(exponents),) * 2)

    ch = coeff.getH()
    return (twist * (ch @ (shift_matrix(1, 0) @ coeff)), ch @ (shift_matrix(0, 1) @ coeff),
            ch @ coeff)


@st.composite
def oracle_args(draw):
    ratio = draw(st.floats(0.05, 0.95)) * draw(st.sampled_from([1.0, -1.0]))
    twist = draw(st.one_of(st.sampled_from([1.0, -1.0, 1j]),
                           st.floats(0.0, 2 * np.pi).map(lambda t: complex(np.exp(1j * t)))))
    monomial_cap, chain_len = draw(st.integers(4, 9)), draw(st.integers(4, 9))
    series_len = minimal_series_len(ratio) + draw(st.integers(0, 30))
    return ratio, twist, monomial_cap, chain_len, series_len


def _assert_oracles_agree(args):
    v1, v2, norms = _oracle_matrices(*args)
    want_v1, want_v2, gram = loop_oracle(*args)
    for got, want in ((v1, want_v1), (v2, want_v2)):
        assert want.shape == (norms.size, norms.size)
        # the same positions in the same order, and the same values bit for bit
        for got_part, want_part in zip(got, _entries(want.tocsr().sorted_indices())):
            assert np.array_equal(got_part, want_part)
    diagonal = gram.diagonal()
    assert np.array_equal(gram.toarray(), np.diag(diagonal))
    assert np.array_equal(norms, diagonal)


@pytest.mark.parametrize("args", [(0.5, 1j, 6, 6, 47), (-0.3, np.exp(0.2j), 5, 8, 12),
                                  (0.7, -1.0, 9, 4, 30)])
def test_vectorised_oracle_equals_the_entrywise_one(args):
    _assert_oracles_agree(args)


@settings(max_examples=40, deadline=None)
@given(args=oracle_args())
def test_vectorised_oracle_equals_the_entrywise_one_on_drawn_pairs(args):
    _assert_oracles_agree(args)
