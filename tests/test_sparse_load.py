"""A pair read from a file takes the sparse path a built pair takes.

A COO operator decodes straight to CSR, so loading a model file costs
memory in its stored entries, not in ``dim**2``; the dense decode stays for
``"data"`` matrices and for a COO operator holding a ``-0.0`` part, which
CSR cannot keep bit for bit.  Every answer of a loaded file equals the
built object's.
"""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from isopair.classify import classify, decide_equivalence
from isopair.cli import _build_parser, analyze_object, main
from isopair.izuchi import build_izuchi_model
from isopair.models import (
    _V1,
    _V2,
    StructuredPair,
    bishift_truncated,
    direct_sum,
    scramble,
    twisted_shift,
)
from isopair.serialize import (
    _LABEL_DEPTH,
    classification_to_json,
    dumps_canonical,
    from_json,
    load_input,
    to_json,
)

from test_serialize import LABELS3, assert_identical, bits, reference_json

BUILT = {
    "bishift": lambda: bishift_truncated(6),
    "twisted": lambda: twisted_shift(np.exp(0.9j), 7),
    "izuchi-nonreal": lambda: build_izuchi_model(0.5, np.exp(0.7j), 8, 8).pair,
    "direct-sum": lambda: direct_sum([bishift_truncated(4), twisted_shift(-1j, 5),
                                      build_izuchi_model(0.3, np.exp(2.1j), 6, 6).pair]),
    "scramble": lambda: scramble(direct_sum([twisted_shift(1j, 5),
                                             build_izuchi_model(0.5, -1.0, 5, 5).pair]), 4),
}


def round_trip(obj):
    return from_json(json.loads(dumps_canonical(to_json(obj))))


def forms(pair: StructuredPair) -> tuple:
    return tuple(type(field.given(pair)) for field in (_V1, _V2))


@pytest.mark.parametrize("make", [BUILT["bishift"], BUILT["izuchi-nonreal"],
                                  BUILT["direct-sum"]],
                         ids=["bishift", "izuchi-nonreal", "direct-sum"])
def test_coo_operator_loads_as_canonical_read_only_csr(make):
    pair = make()
    loaded = round_trip(pair)
    assert forms(loaded) == (sp.csr_matrix, sp.csr_matrix)
    for field in (_V1, _V2):
        given = field.given(loaded)
        assert given.dtype == np.complex128 and given.has_canonical_format
        assert given.indices.dtype == given.indptr.dtype == np.int32
        assert not any(a.flags.writeable for a in (given.data, given.indices, given.indptr))
        # the stored entries are the built CSR's, position and bits
        built = field.csr(pair)
        assert np.array_equal(given.indptr, built.indptr)
        assert np.array_equal(given.indices, built.indices)
        assert np.array_equal(bits(given.data), bits(built.data))
    assert_identical(loaded, pair)
    assert dumps_canonical(to_json(loaded)) == dumps_canonical(to_json(pair))


def test_data_operator_loads_dense():
    pair = BUILT["scramble"]()
    payload = to_json(pair)
    assert "data" in payload["v1"] and "data" in payload["v2"]
    loaded = round_trip(pair)
    assert forms(loaded) == (np.ndarray, np.ndarray)
    assert_identical(loaded, pair)
    # a sparse pair written in the dense encoding loads dense, to the same entries
    old = from_json(json.loads(dumps_canonical(reference_json(bishift_truncated(4)))))
    assert forms(old) == (np.ndarray, np.ndarray)
    assert_identical(old, bishift_truncated(4))


@pytest.mark.parametrize("signed", [complex(-0.0, 1.0), complex(2.0, -0.0), complex(-0.0, 0.0)],
                         ids=["re", "im", "both-zero"])
def test_signed_zero_part_loads_dense_and_keeps_its_bits(signed):
    m = np.zeros((3, 3), dtype=complex)
    m[2, 0] = 1.0
    m[1, 1] = signed
    pair = StructuredPair(3, m, np.eye(3, k=-1, dtype=complex), LABELS3, (0,), "z")
    text = dumps_canonical(to_json(pair))
    assert "index" in json.loads(text)["v1"]
    loaded = from_json(json.loads(text))
    # only the operator holding the signed zero decodes dense
    assert forms(loaded) == (np.ndarray, sp.csr_matrix)
    assert_identical(loaded, pair)
    assert dumps_canonical(to_json(loaded)) == text


def test_explicit_zero_entry_is_not_stored():
    # no encoder writes an entry whose parts are both +0.0, but one loads
    payload = to_json(twisted_shift(1j, 3))
    payload["v1"] = {"rows": 3, "cols": 3, "index": [3, 5, 7], "re": [1.0, 0.0, 1.0],
                     "im": [0.0, 0.0, 0.0]}
    loaded = from_json(payload)
    given = _V1.given(loaded)
    assert given.nnz == 2 and given.indices.tolist() == [0, 1]
    assert json.loads(dumps_canonical(to_json(loaded)))["v1"]["index"] == [3, 7]


def test_cap_60_file_loads_in_little_memory_and_classifies_as_built(tmp_path):
    pair = build_izuchi_model(0.5, 1j, 60, 60).pair
    path = tmp_path / "m60.json"
    path.write_text(dumps_canonical(to_json(pair)))
    tracemalloc.start()
    try:
        loaded = load_input(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.dim == 3660
    assert peak < 20e6  # one dense operator would take 214 MB
    assert (dumps_canonical(classification_to_json(classify(loaded)))
            == dumps_canonical(classification_to_json(classify(pair))))


@pytest.mark.parametrize("name", sorted(BUILT))
def test_loaded_file_answers_as_the_built_object(name, tmp_path):
    pair = BUILT[name]()
    path = tmp_path / f"{name}.json"
    path.write_text(dumps_canonical(to_json(pair)))
    loaded = load_input(str(path))

    def answers(obj) -> tuple:
        other = twisted_shift(1j, 6)
        return (dumps_canonical(classification_to_json(classify(obj))),
                dumps_canonical(analyze_object(obj, None, 1e-8)),
                repr(decide_equivalence(obj, obj)),
                repr(decide_equivalence(obj, other)),
                repr(decide_equivalence(other, obj)))

    assert answers(loaded) == answers(pair)


def nested(depth: int) -> list:
    label = ["mono", 0]
    for i in range(depth - 1):
        label = [i, label]
    return label


def test_labels_nest_up_to_the_depth_bound():
    payload = to_json(twisted_shift(1j, 3))
    payload["basis_labels"][1] = nested(_LABEL_DEPTH)
    labels = from_json(payload).basis_labels
    assert labels[0] == ("mono", 0) and labels[2] == ("mono", 2)
    depth, label = 1, labels[1]
    while label[0] != "mono":
        depth, label = depth + 1, label[1]
    assert depth == _LABEL_DEPTH
    payload["basis_labels"][1] = nested(_LABEL_DEPTH + 1)
    with pytest.raises(ValueError, match="nest"):
        from_json(payload)


@pytest.mark.parametrize("leaf", [None, {"x": 1}], ids=["null", "object"])
def test_a_null_or_object_deep_in_a_nested_label_is_rejected(leaf):
    payload = to_json(twisted_shift(1j, 3))
    label = nested(40)
    inner = label
    while inner[1][0] != "mono":
        inner = inner[1]
    inner[1] = ["mono", leaf]
    payload["basis_labels"][0] = label
    with pytest.raises(ValueError, match="objects or nulls"):
        from_json(payload)


def test_cached_parser_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    assert _build_parser() is _build_parser()
    model, out = tmp_path / "tw.json", tmp_path / "out.json"
    assert main(["gen", "twisted", "--alpha", "1j", "--N", "6", "-o", str(model)]) == 0
    assert main(["classify", str(model), "--format", "json", "--band-tol", "nan"]) == 2
    assert main(["classify", str(model), "--format", "json", "-o", str(out)]) == 0
    assert main(["classify", str(model), "--format", "json"]) == 0
    # no flag of an earlier call reaches a later one: not the tolerance,
    # not the output path
    assert capsys.readouterr().out == out.read_text()
    monkeypatch.setenv("ISOPAIR_BAND_TOL", "abc")
    assert main(["classify", str(model)]) == 2
    monkeypatch.delenv("ISOPAIR_BAND_TOL")
    assert main(["classify", str(model)]) == 0
    assert main(["equiv", str(model), str(model), "--tol", "1e-6"]) == 0
    monkeypatch.setenv("ISOPAIR_EQUIV_TOL", "0")
    assert main(["equiv", str(model), str(model)]) == 2
    monkeypatch.delenv("ISOPAIR_EQUIV_TOL")
    assert main(["analyze", str(model), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["kind"] == "analysis"
