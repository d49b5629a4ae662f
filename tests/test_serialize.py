"""The JSON codec: bit-exact round trips, canonical bytes, strict decoding."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isopair.bcl import BCLTriple
from isopair.models import StructuredPair, bishift_truncated
from isopair.serialize import (
    dumps_canonical,
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

