"""The JSON codec: bit-exact round trips, canonical bytes, strict decoding."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from isopair.bcl import BCLTriple, random_triple
from isopair.classify import classify
from isopair.izuchi import build_izuchi_model
from isopair.models import (
    StructuredPair,
    bishift_truncated,
    direct_sum,
    scramble,
    twisted_shift,
)
from isopair.serialize import (
    classification_to_json,
    dumps_canonical,
    from_json,
    load_input,
    matrix_from_json,
    matrix_to_json,
    to_json,
)

# the edge values a double can take besides ordinary draws: signed zero,
# the smallest subnormal and a larger one, and the ends of the finite range
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308,
               1.7976931348623157e308]
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)


@st.composite
def complex_matrices(draw, rows, cols):
    parts = draw(st.lists(finite, min_size=2 * rows * cols,
                          max_size=2 * rows * cols))
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(rows, cols)


@st.composite
def triples(draw):
    dim = draw(st.integers(0, 4))
    return BCLTriple(dim, draw(complex_matrices(dim, dim)),
                     draw(complex_matrices(dim, dim)))


@st.composite
def structured_pairs(draw):
    dim = draw(st.integers(1, 4))
    interior = draw(st.lists(st.integers(0, dim - 1), unique=True))
    labels = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    return StructuredPair(
        dim=dim,
        v1=draw(complex_matrices(dim, dim)),
        v2=draw(complex_matrices(dim, dim)),
        basis_labels=tuple(draw(st.lists(labels, min_size=dim, max_size=dim))),
        interior=tuple(interior),
        provenance=draw(st.text(max_size=8)),
    )


@st.composite
def sparse_matrices(draw, rows, cols):
    """Mostly zero entries; a stored part may be a signed zero."""
    size = rows * cols
    stored = draw(st.sets(st.integers(0, size - 1), max_size=size)) if size else set()
    parts = np.zeros((size, 2))
    for i in stored:
        parts[i] = draw(finite), draw(finite)
    return parts.reshape(-1).view(np.complex128).reshape(rows, cols)


@st.composite
def sparse_pairs(draw):
    dim = draw(st.integers(0, 6))
    return StructuredPair(
        dim=dim,
        v1=draw(sparse_matrices(dim, dim)),
        v2=draw(sparse_matrices(dim, dim)),
        basis_labels=tuple(("mono", k) for k in range(dim)),
        interior=tuple(draw(st.lists(st.integers(0, dim - 1), unique=True))) if dim else (),
        provenance="sparse",
    )


def stored_count(m: np.ndarray) -> int:
    """Entries with a nonzero bit pattern in either part."""
    return int(np.count_nonzero(bits(m).reshape(-1, 2).any(axis=1)))


def reference_matrix_json(m) -> dict:
    """The dense matrix encoding, as every matrix was written before COO."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    rows, cols = m.shape
    return {"rows": int(rows), "cols": int(cols),
            "data": m.reshape(-1).view(np.float64).reshape(-1, 2).tolist()}


def reference_json(obj) -> dict:
    """A triple or pair in the all-dense encoding written before COO."""
    if isinstance(obj, BCLTriple):
        return {"kind": "bcl_triple", "dim": obj.dim,
                "unitary": reference_matrix_json(obj.unitary),
                "projection": reference_matrix_json(obj.projection)}
    return {"kind": "structured_pair", "dim": obj.dim,
            "v1": reference_matrix_json(obj.v1), "v2": reference_matrix_json(obj.v2),
            "basis_labels": [list(lab) for lab in obj.basis_labels],
            "interior": list(obj.interior), "provenance": obj.provenance}


def bits(m: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(m).view(np.uint64)


def assert_identical(loaded, original):
    assert type(loaded) is type(original)
    matrices = ("unitary", "projection") if isinstance(original, BCLTriple) \
        else ("v1", "v2")
    for name in matrices:
        got, want = getattr(loaded, name), getattr(original, name)
        assert got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))
    if isinstance(original, StructuredPair):
        assert loaded.basis_labels == original.basis_labels
        assert loaded.interior == original.interior
        assert loaded.provenance == original.provenance
    assert loaded.dim == original.dim


def load_text(tmp_path, text):
    path = tmp_path / "obj.json"
    path.write_text(text, encoding="utf-8")
    return load_input(str(path))


@settings(max_examples=60, deadline=None)
@given(obj=triples() | structured_pairs())
def test_round_trip_is_bit_exact_and_byte_stable(obj, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("codec")
    text = dumps_canonical(to_json(obj))
    loaded = load_text(tmp_path, text)
    assert_identical(loaded, obj)
    assert dumps_canonical(to_json(loaded)) == text


@settings(max_examples=40, deadline=None)
@given(obj=triples() | structured_pairs())
def test_indented_files_load_to_the_same_object(obj, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("codec")
    old_text = json.dumps(to_json(obj), sort_keys=True, indent=2) + "\n"
    assert_identical(load_text(tmp_path, old_text), obj)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 5).flatmap(
    lambda rows: st.integers(0, 5).flatmap(
        lambda cols: complex_matrices(rows, cols))))
def test_matrix_encoding_matches_per_entry_reference(m):
    # the per-entry form the vectorised encoder replaced
    reference = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    encoded = matrix_to_json(m)
    assert encoded["data"] == reference
    assert json.dumps(encoded["data"]) == json.dumps(reference)
    assert np.array_equal(bits(matrix_from_json(encoded)), bits(m))


def test_non_contiguous_matrix_encodes_like_its_copy():
    m = np.arange(16, dtype=float).reshape(4, 4) * (1 + 2j)
    view = m[::2, 1::2]
    assert matrix_to_json(view) == matrix_to_json(view.copy())


def test_output_is_compact_canonical():
    text = dumps_canonical(to_json(bishift_truncated(3)))
    assert text.endswith("}\n") and text.count("\n") == 1
    assert ": " not in text and ", " not in text
    payload = json.loads(text)
    assert list(payload) == sorted(payload)


@pytest.mark.parametrize("make", [
    lambda: to_json(random_triple(5, 2, 3)),
    lambda: to_json(build_izuchi_model(0.5, 1j, 6, 6).pair),
    lambda: to_json(scramble(direct_sum([bishift_truncated(4), twisted_shift(1j, 5)]), 3)),
    lambda: classification_to_json(classify(bishift_truncated(4))),
], ids=["triple", "coo-pair", "dense-pair", "classification"])
def test_canonical_text_is_the_stdlib_encoding(make):
    payload = make()
    assert dumps_canonical(payload) == \
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def test_integer_values_are_accepted():
    m = matrix_from_json({"rows": 1, "cols": 2, "data": [[1, 0], [0.5, -2]]})
    assert m.dtype == np.complex128
    assert m.tolist() == [[1 + 0j, 0.5 - 2j]]


@pytest.mark.parametrize("data", [
    [[1.0, 0.0], 3.0],
    [[1.0, 0.0], None],
    [[1.0, 0.0], "ab"],
    [[1.0, 0.0], {"re": 1.0, "im": 0.0}],
    [[1.0, 0.0, 2.0], [1.0]],
    [[1.0], [1.0]],
    [["x", "y"], [0.0, 0.0]],
    [[None, 0.0], [0.0, 0.0]],
    [[True, 0.0], [0.0, 0.0]],
    [[1.0, False], [0.0, 0.0]],
    [[1.0, [0.0]], [0.0, 0.0]],
    [[float("nan"), 0.0], [0.0, 0.0]],
    [[0.0, float("inf")], [0.0, 0.0]],
    [[0.0, 10 ** 400], [0.0, 0.0]],
    [[0.0, 0.0]],
    [[0.0, 0.0]] * 3,
    {"0": [0.0, 0.0], "1": [0.0, 0.0]},
], ids=["number-entry", "null-entry", "string-entry", "object-entry",
        "compensating-lengths", "short-pairs", "strings", "null", "true",
        "false", "nested", "nan", "inf", "huge-int", "too-short", "too-long",
        "object-data"])
def test_malformed_matrix_data_raises_value_error(data):
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 2, "data": data})



@settings(max_examples=80, deadline=None)
@given(pair=sparse_pairs())
def test_sparse_pairs_round_trip_in_the_shorter_encoding(pair, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("codec")
    payload = to_json(pair)
    for name in ("v1", "v2"):
        stored = stored_count(getattr(pair, name))
        assert ("index" in payload[name]) == (3 * stored < 2 * pair.dim ** 2)
        assert ("data" in payload[name]) != ("index" in payload[name])
    text = dumps_canonical(payload)
    loaded = load_text(tmp_path, text)
    assert_identical(loaded, pair)
    assert dumps_canonical(to_json(loaded)) == text
    # and the file written before COO loads to the same object
    assert_identical(load_text(tmp_path, dumps_canonical(reference_json(pair))), pair)


@settings(max_examples=40, deadline=None)
@given(pair=sparse_pairs())
def test_csr_and_dense_forms_write_the_same_bytes(pair):
    # CSR conversion drops the signed zeros, so compare it with its own dense copy
    csr = StructuredPair(pair.dim, sp.csr_matrix(pair.v1), sp.csr_matrix(pair.v2),
                         pair.basis_labels, pair.interior, pair.provenance)
    dense = StructuredPair(pair.dim, np.array(csr.v1), np.array(csr.v2),
                           pair.basis_labels, pair.interior, pair.provenance)
    assert dumps_canonical(to_json(csr)) == dumps_canonical(to_json(dense))


LABELS3 = (("mono", 0), ("mono", 1), ("mono", 2))


def test_csr_operator_writes_what_its_dense_form_reads():
    # explicit zeros are not written, and a stored -0.0 reads as 0.0 densely
    m = sp.csr_matrix((np.array([0.0, -0.0, 2.0, complex(0.0, -0.0)]),
                       ([0, 1, 2, 2], [0, 1, 0, 2])), shape=(3, 3))
    assert m.nnz == 4
    pair = StructuredPair(3, m, sp.csr_matrix((3, 3)), LABELS3, (), "z")
    payload = to_json(pair)
    assert payload["v1"] == {"rows": 3, "cols": 3, "index": [6], "re": [2.0], "im": [0.0]}
    assert payload["v2"] == {"rows": 3, "cols": 3, "index": [], "re": [], "im": []}
    assert np.array_equal(bits(matrix_from_json(payload["v1"])), bits(pair.v1))


def test_dense_operator_keeps_its_signed_zeros():
    m = np.zeros((3, 3), dtype=complex)
    m[1, 1] = -0.0
    m[2, 0] = complex(2.0, -0.0)
    payload = to_json(StructuredPair(3, m, m, LABELS3, (), "z"))
    assert payload["v1"] == {"rows": 3, "cols": 3, "index": [4, 6], "re": [-0.0, 2.0],
                             "im": [0.0, -0.0]}
    assert np.array_equal(bits(matrix_from_json(payload["v1"])), bits(m))


@pytest.mark.parametrize("make", [
    lambda: scramble(direct_sum([bishift_truncated(4), twisted_shift(1j, 5)]), 3),
    lambda: scramble(build_izuchi_model(0.5, 1j, 6, 6).pair, 1),
    lambda: StructuredPair(2, sp.csr_matrix(np.arange(1, 5).reshape(2, 2) * 1j),
                           sp.csr_matrix(np.ones((2, 2))), LABELS3[:2], (0,), "f"),
    lambda: random_triple(6, 2, 5),
    lambda: random_triple(0, 0, 1),
    lambda: BCLTriple(3, np.eye(3, dtype=complex), np.zeros((3, 3), dtype=complex)),
], ids=["scrambled-sum", "scrambled-model", "filled-csr-pair", "random-triple",
        "empty-triple", "sparse-triple"])
def test_filled_pairs_and_all_triples_stay_dense(make):
    obj = make()
    assert dumps_canonical(to_json(obj)) == dumps_canonical(reference_json(obj))


@settings(max_examples=30, deadline=None)
@given(obj=triples())
def test_triples_encode_like_the_reference(obj):
    assert dumps_canonical(to_json(obj)) == dumps_canonical(reference_json(obj))


@pytest.mark.parametrize("coo", [
    {"index": [0, 1.0], "re": [1.0, 1.0], "im": [0.0, 0.0]},
    {"index": [True], "re": [1.0], "im": [0.0]},
    {"index": ["0"], "re": [1.0], "im": [0.0]},
    {"index": [-1], "re": [1.0], "im": [0.0]},
    {"index": [2], "re": [1.0], "im": [0.0]},
    {"index": [2 ** 70], "re": [1.0], "im": [0.0]},
    {"index": [1, 1], "re": [1.0, 1.0], "im": [0.0, 0.0]},
    {"index": [1, 0], "re": [1.0, 1.0], "im": [0.0, 0.0]},
    {"index": [0, 1], "re": [1.0], "im": [0.0, 0.0]},
    {"index": [0], "re": [1.0], "im": []},
    {"index": [0], "re": [1.0]},
    {"index": 0, "re": [1.0], "im": [0.0]},
    {"index": [0], "re": [float("nan")], "im": [0.0]},
    {"index": [0], "re": [1.0], "im": [float("-inf")]},
    {"index": [0], "re": [None], "im": [0.0]},
    {"index": [0], "re": [False], "im": [0.0]},
    {"index": [0], "re": ["1"], "im": [0.0]},
    {"index": [0], "re": [10 ** 400], "im": [0.0]},
], ids=["float-index", "bool-index", "string-index", "negative-index",
        "index-past-end", "huge-index", "repeated-index", "decreasing-index",
        "short-re", "short-im", "missing-im", "index-not-list", "nan", "-inf",
        "null", "bool", "string", "huge-value"])
def test_malformed_coo_matrix_raises_value_error(coo):
    with pytest.raises((ValueError, KeyError)):
        matrix_from_json({"rows": 1, "cols": 2, **coo})


def test_coo_matrix_decodes_to_dense():
    m = matrix_from_json({"rows": 2, "cols": 2, "index": [1, 2], "re": [1, 0.5],
                          "im": [0, -2]})
    assert m.dtype == np.complex128 and m.flags.c_contiguous
    assert m.tolist() == [[0j, 1 + 0j], [0.5 - 2j, 0j]]


#: Label and provenance fields no encoder writes, on a three-vector pair.
MALFORMED_PAIR_FIELDS = {
    "labels-string": {"basis_labels": "abc"},
    "labels-object": {"basis_labels": {"a": 1, "b": 2, "c": 3}},
    "label-string": {"basis_labels": ["ab", ["mono", 1], ["mono", 2]]},
    "label-int": {"basis_labels": [0, ["mono", 1], ["mono", 2]]},
    "label-object": {"basis_labels": [{"x": 1}, ["mono", 1], ["mono", 2]]},
    "label-null": {"basis_labels": [None, ["mono", 1], ["mono", 2]]},
    "null-in-label": {"basis_labels": [["mono", None], ["mono", 1], ["mono", 2]]},
    "object-deep-in-label": {"basis_labels": [[0, ["mono", {"x": 1}]], ["mono", 1],
                                              ["mono", 2]]},
    "provenance-list": {"provenance": ["x"]},
    "provenance-null": {"provenance": None},
    "provenance-number": {"provenance": 1},
}


@pytest.mark.parametrize("spoil", MALFORMED_PAIR_FIELDS.values(), ids=MALFORMED_PAIR_FIELDS)
def test_malformed_labels_and_provenance_raise_value_error(spoil):
    payload = to_json(twisted_shift(1j, 3))
    payload.update(spoil)
    with pytest.raises(ValueError, match="basis_labels|basis labels|provenance"):
        from_json(payload)


@pytest.mark.parametrize("make", [
    lambda: build_izuchi_model(0.5, 1j, 6, 6).pair,
    lambda: bishift_truncated(4),
    lambda: twisted_shift(1j, 5),
    lambda: direct_sum([bishift_truncated(4), build_izuchi_model(0.3, -1.0, 6, 6).pair]),
    lambda: scramble(direct_sum([bishift_truncated(4), twisted_shift(1j, 5)]), 3),
], ids=["izuchi", "bishift", "twisted", "direct-sum", "scrambled-sum"])
def test_generated_labels_and_provenance_load_unchanged(make, tmp_path):
    # the labels nest up to three deep: ("scrambled", (i, ("mono", m, n)))
    pair = make()
    assert_identical(load_text(tmp_path, dumps_canonical(to_json(pair))), pair)


#: ``kind`` values no encoder writes; the list and object ones do not hash.
NON_STRING_KINDS = {"nested-list": [[]], "list": ["bcl_triple"], "object": {"a": 1},
                    "number": 1, "null": None}


@pytest.mark.parametrize("kind", NON_STRING_KINDS.values(), ids=NON_STRING_KINDS)
@pytest.mark.parametrize("make", [lambda: twisted_shift(1j, 3), lambda: random_triple(4, 2, 0)],
                         ids=["pair", "triple"])
def test_non_string_kind_raises_value_error(make, kind):
    payload = to_json(make())
    payload["kind"] = kind
    with pytest.raises(ValueError, match="unknown object kind"):
        from_json(payload)
