"""The generators build their matrices by index arithmetic; the dict-and-loop
builders they replaced are kept here as references, and every CSR array,
label and interior index must come out identical, dtypes included."""

import itertools
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from isopair import izuchi
from isopair.cli import main
from isopair.izuchi import (
    _basis_labels,
    _closed_form_matrices,
    _interior_indices,
    build_izuchi_model,
)
from isopair.models import (
    StructuredPair,
    _read_only,
    bishift_truncated,
    direct_sum,
    scramble,
    sparse_operators,
    twisted_shift,
)
from isopair.serialize import dumps_canonical, pair_from_json, pair_to_json

CAPS = [(4, 4), (5, 14), (12, 7), (50, 50)]
RATIOS = [0.3, -0.3, 0.5, 0.9]
TWISTS = [1.0 + 0j, -1.0 + 0j, 1j, complex(np.exp(0.7j))]


def reference_csr(dim: int, entries: dict) -> sp.csr_matrix:
    """The ``{(row, col): value}`` map as CSR, as the generators built it."""
    keys = sorted(entries)
    flat = np.fromiter(itertools.chain.from_iterable(keys), dtype=np.int32,
                       count=2 * len(keys))
    values = np.fromiter(map(entries.__getitem__, keys), dtype=np.complex128,
                         count=len(keys))
    indptr = np.searchsorted(flat[::2], np.arange(dim + 1)).astype(np.int32)
    return _read_only(sp.csr_matrix((values, flat[1::2].copy(), indptr),
                                    shape=(dim, dim)))


def reference_labels(monomial_cap: int, chain_len: int) -> tuple:
    mono = tuple(("mono", m, n)
                 for m in range(monomial_cap) for n in range(monomial_cap))
    return mono + tuple(("chain", j) for j in range(chain_len))


def reference_closed_form(ratio, twist, monomial_cap, chain_len):
    labels = reference_labels(monomial_cap, chain_len)
    index = {lab: i for i, lab in enumerate(labels)}
    v1, v2 = {}, {}
    norm = math.sqrt(1.0 - ratio * ratio)
    for lab, col in index.items():
        if lab[0] == "mono":
            _, m, n = lab
            if m + 1 < monomial_cap:
                v1[index[("mono", m + 1, n)], col] = twist
            if n + 1 < monomial_cap:
                v2[index[("mono", m, n + 1)], col] = 1.0
        else:
            _, j = lab
            if j + 1 < chain_len:
                v1[index[("chain", j + 1)], col] = twist
                v2[index[("chain", j + 1)], col] = ratio
            if j < monomial_cap:
                v2[index[("mono", j, 0)], col] = norm
    return reference_csr(len(labels), v1), reference_csr(len(labels), v2)


def reference_interior(monomial_cap, chain_len):
    cap = min(monomial_cap, chain_len)
    keep = []
    for i, lab in enumerate(reference_labels(monomial_cap, chain_len)):
        if lab[0] == "mono":
            _, m, n = lab
            if m < cap - 2 and n < cap - 2:
                keep.append(i)
        elif lab[1] < cap - 2:
            keep.append(i)
    return tuple(keep)


def reference_bishift(cap):
    labels = tuple(("mono", m, n) for m in range(cap) for n in range(cap))
    index = {lab: i for i, lab in enumerate(labels)}
    v1, v2 = {}, {}
    for (_, m, n), col in index.items():
        if m + 1 < cap:
            v1[index[("mono", m + 1, n)], col] = 1.0
        if n + 1 < cap:
            v2[index[("mono", m, n + 1)], col] = 1.0
    interior = tuple(index[("mono", m, n)]
                     for m in range(cap - 1) for n in range(cap - 1))
    return reference_csr(cap * cap, v1), reference_csr(cap * cap, v2), labels, interior


def reference_twisted(alpha, cap):
    shift = reference_csr(cap, {(k + 1, k): 1.0 for k in range(cap - 1)})
    return shift, _read_only(alpha * shift)


def assert_same_csr(got: sp.csr_matrix, want: sp.csr_matrix):
    assert type(got) is type(want)
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), name


@pytest.mark.parametrize("caps", CAPS, ids=[f"{a}x{b}" for a, b in CAPS])
@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("twist", TWISTS, ids=["1", "-1", "i", "e^0.7i"])
def test_closed_form_matches_reference(caps, ratio, twist):
    got = _closed_form_matrices(ratio, twist, *caps)
    want = reference_closed_form(ratio, twist, *caps)
    for g, w in zip(got, want):
        assert_same_csr(g, w)


@pytest.mark.parametrize("caps", CAPS, ids=[f"{a}x{b}" for a, b in CAPS])
def test_labels_and_interior_match_reference(caps):
    assert _basis_labels(*caps) == reference_labels(*caps)
    # an int64 array, which the built pair holds as a tuple of ints
    indices = _interior_indices(*caps)
    assert indices.dtype == np.int64
    assert tuple(indices.tolist()) == reference_interior(*caps)
    interior = build_izuchi_model(0.5, 1j, *caps).pair.interior
    assert interior == reference_interior(*caps)
    assert all(type(i) is int for i in interior)


def test_interior_array_gives_the_pair_and_bytes_of_its_tuple():
    for cap in range(4, 51):
        pair = build_izuchi_model(0.5, 1j, cap, cap).pair
        listed = StructuredPair(pair.dim, *sparse_operators(pair), pair.basis_labels,
                                tuple(_interior_indices(cap, cap).tolist()), pair.provenance)
        assert pair.interior == listed.interior
        assert all(type(i) is int for i in pair.interior)
        assert dumps_canonical(pair_to_json(pair)) == dumps_canonical(pair_to_json(listed))


@pytest.mark.parametrize("caps", [(4, 4), (12, 7)], ids=["4x4", "12x7"])
def test_built_pair_matches_reference(caps):
    pair = build_izuchi_model(0.5, 1j, *caps).pair
    for got, want in zip(sparse_operators(pair), reference_closed_form(0.5, 1j, *caps)):
        assert_same_csr(got, want)
    assert pair.basis_labels == reference_labels(*caps)
    assert pair.interior == reference_interior(*caps)


@pytest.mark.parametrize("cap", range(3, 21))
def test_bishift_matches_reference(cap):
    pair = bishift_truncated(cap)
    v1, v2, labels, interior = reference_bishift(cap)
    got = sparse_operators(pair)
    assert_same_csr(got[0], v1)
    assert_same_csr(got[1], v2)
    assert pair.basis_labels == labels
    assert pair.interior == interior


@pytest.mark.parametrize("cap", range(3, 21))
@pytest.mark.parametrize("alpha", [1.0, -1.0, 1j, complex(np.exp(0.7j))],
                         ids=["1", "-1", "i", "e^0.7i"])
def test_twisted_matches_reference(cap, alpha):
    pair = twisted_shift(alpha, cap)
    got = sparse_operators(pair)
    for g, w in zip(got, reference_twisted(complex(alpha), cap)):
        assert_same_csr(g, w)
    assert pair.basis_labels == tuple(("mono", k) for k in range(cap))
    assert pair.interior == tuple(range(cap - 1))


def reference_sum_fields(parts) -> tuple[tuple, tuple, tuple]:
    """Labels, interior and boundary of a direct sum, as the per-entry loops built them."""
    labels, interior, offset = [], [], 0
    for i, part in enumerate(parts):
        labels.extend((i, lab) for lab in part.basis_labels)
        interior.extend(offset + j for j in part.interior)
        offset += part.dim
    inside = set(interior)
    return tuple(labels), tuple(interior), tuple(i for i in range(offset) if i not in inside)


SUMMANDS = {
    "generated": lambda: [bishift_truncated(4), twisted_shift(1j, 5),
                          build_izuchi_model(0.3, -1.0, 6, 6).pair],
    "model50-bishift-twisted": lambda: [build_izuchi_model(0.5, 1j, 50, 50).pair,
                                        bishift_truncated(20), twisted_shift(1j, 20)],
    "nested-and-scrambled": lambda: [direct_sum([bishift_truncated(3), twisted_shift(-1, 4)]),
                                     scramble(bishift_truncated(4), 1)],
    "no-interior-part": lambda: [twisted_shift(1j, 3),
                                 StructuredPair(2, np.zeros((2, 2)), np.zeros((2, 2)),
                                                (("a",), ("b",)), (), "empty")],
}


@pytest.mark.parametrize("name", sorted(SUMMANDS))
def test_direct_sum_matches_reference(name):
    parts = SUMMANDS[name]()
    pair = direct_sum(parts)
    labels, interior, boundary = reference_sum_fields(parts)
    assert pair.dim == sum(part.dim for part in parts) == len(labels)
    assert pair.basis_labels == labels
    assert pair.interior == interior
    assert pair.boundary == boundary
    for part in parts:
        assert part.boundary == reference_sum_fields([part])[2]


def test_builds_at_same_caps_share_labels():
    # a fresh set of label tuples per build costs the garbage collector a
    # scan of thousands of objects in whatever runs next
    a = build_izuchi_model(0.5, 1.0, 6, 7).pair
    b = build_izuchi_model(-0.3, 1j, 6, 7).pair
    assert a.basis_labels is b.basis_labels
    assert bishift_truncated(6).basis_labels is bishift_truncated(6).basis_labels


def test_closed_form_off_by_1e_9_is_caught(monkeypatch):
    closed_form = izuchi._closed_form_matrices

    def off(*args):
        v1, v2 = closed_form(*args)
        data = v2.data.copy()
        data[0] += 1e-9
        return v1, sp.csr_matrix((data, v2.indices, v2.indptr), shape=v2.shape)

    monkeypatch.setattr(izuchi, "_closed_form_matrices", off)
    with pytest.raises(ValueError, match="disagrees with the inner-product oracle"):
        build_izuchi_model(0.5, 1j, 6, 6)


def _entry_moved(matrix, row, col, value):
    """``matrix`` with ``value`` at ``(row, col)``; ``None`` drops that entry."""
    entries = matrix.todok()
    if value is None:
        del entries[row, col]
    else:
        entries[row, col] = value
    return entries.tocsr()


@pytest.mark.parametrize("operator, row, col, value, fires", [
    ("v1", 6, 0, 1j + 1e-9, True),      # an entry both store, off by 1e-9
    ("v2", 0, 36, None, True),          # the z^0 term of w . g_0 dropped
    ("v2", 0, 1, 1e-9, True),           # an entry the oracle lacks
    ("v2", 0, 1, 1e-11, False),         # below the threshold
], ids=["v1-off", "v2-missing", "v2-extra", "v2-extra-small"])
def test_closed_form_gap_is_read_over_both_supports(monkeypatch, operator, row, col,
                                                     value, fires):
    closed_form = izuchi._closed_form_matrices

    def moved(*args):
        v1, v2 = closed_form(*args)
        if operator == "v1":
            return _entry_moved(v1, row, col, value), v2
        return v1, _entry_moved(v2, row, col, value)

    monkeypatch.setattr(izuchi, "_closed_form_matrices", moved)
    if fires:
        with pytest.raises(ValueError, match=f"closed-form {operator} disagrees"):
            build_izuchi_model(0.5, 1j, 6, 6)
    else:
        build_izuchi_model(0.5, 1j, 6, 6)


NON_FINITE = [complex("nan"), complex(0.0, float("nan")), complex("inf"),
              complex(float("nan"), float("inf"))]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "nan-imag", "inf", "nan-inf"])
def test_non_finite_twist_is_rejected(value):
    with pytest.raises(ValueError, match="unimodular"):
        build_izuchi_model(0.5, value, 6, 6)
    with pytest.raises(ValueError, match="unimodular"):
        twisted_shift(value, 5)


@pytest.mark.parametrize("argv", [
    ["gen", "izuchi", "--r", "0.5", "--gamma", "nan", "--N", "6"],
    ["gen", "twisted", "--alpha", "nan", "--N", "5"],
], ids=["izuchi", "twisted"])
def test_non_finite_twist_exits_2_without_a_file(tmp_path, capsys, argv):
    path = tmp_path / "nan.json"
    assert main([*argv, "-o", str(path)]) == 2
    assert not path.exists()
    assert capsys.readouterr().err.startswith("error:")


def _pair_kwargs(interior):
    pair = twisted_shift(1j, 4)
    return dict(dim=4, v1=pair.v1, v2=pair.v2, basis_labels=pair.basis_labels,
                interior=interior, provenance="test")


@pytest.mark.parametrize("interior,message", [
    ((1.5, 1), "integers"),
    ((0.5,), "integers"),
    ((float("nan"),), "integers"),
    ((float("inf"),), "out of range"),
    (("0",), "integers"),
    ((1j,), "integers"),
    (((0, 1),), "integers"),
    ((-1, 0), "out of range"),
    ((0, 4), "out of range"),
    ((1.0, 1), "distinct"),
    ((2, 2), "distinct"),
    ((False, True), "integers"),
], ids=["1.5", "0.5", "nan", "inf", "string", "complex", "nested", "negative",
        "past-end", "float-duplicate", "duplicate", "boolean"])
def test_interior_is_checked_after_conversion(interior, message):
    with pytest.raises(ValueError, match=message):
        StructuredPair(**_pair_kwargs(interior))


def test_interior_stores_ints():
    pair = StructuredPair(**_pair_kwargs((2.0, np.int32(0), 1)))
    assert pair.interior == (2, 0, 1)
    assert all(type(i) is int for i in pair.interior)
    assert StructuredPair(**_pair_kwargs(())).interior == ()


@pytest.mark.parametrize("spoil", [
    lambda payload: payload.update(dim=4.0),
    lambda payload: payload.update(dim=3.9),
    lambda payload: payload.update(dim="4"),
    lambda payload: payload.update(dim=True),
    lambda payload: payload["interior"].__setitem__(0, 0.5),
    lambda payload: payload["interior"].__setitem__(0, 0.0),
    lambda payload: payload["interior"].__setitem__(0, False),
    lambda payload: payload.update(interior="012"),
    lambda payload: payload["v1"].update(rows=4.0),
], ids=["dim-float", "dim-fraction", "dim-string", "dim-bool", "interior-fraction",
        "interior-float", "interior-bool", "interior-string", "rows-float"])
def test_reader_requires_json_integers(tmp_path, capsys, spoil):
    payload = pair_to_json(twisted_shift(1j, 4))
    spoil(payload)
    with pytest.raises(ValueError):
        pair_from_json(payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
