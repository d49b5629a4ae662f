"""JSON schemas for triples, structured pairs, and classification results.

Complex numbers serialize as two-element ``[re, im]`` arrays.  A matrix has
two encodings, both with its ``"rows"`` and ``"cols"``:

* dense, ``{"data": [[re, im], ...]}``: every entry, row-major;
* COO, ``{"index": [...], "re": [...], "im": [...]}``: the stored entries
  only, at strictly increasing row-major flat indices, with their real and
  imaginary parts as flat lists.  An entry is stored when the bit pattern of
  either part is nonzero, so ``-0.0`` survives the round trip.

Triples, and :func:`matrix_to_json`, always write dense.  A structured
pair's operators, whose generators leave O(dim) nonzeros, are written in
COO when that writes fewer numbers (``3 * stored < 2 * rows * cols``).
The encoder reads the form the pair stores, CSR or dense, and does not
convert a sparse one.  It reads a CSR entry as the dense form reads it (a
stored -0.0 as 0.0), so both forms write the same bytes.
:func:`matrix_from_json` reads either encoding into a dense array.  A pair
reads a COO operator into a canonical, read-only CSR matrix with int32
indices, the form a generator stores, so a loaded pair makes no dense
``dim x dim`` array; it reads a dense matrix, or a COO one with a ``-0.0``
part, into a dense array, since a CSR operator's dense form adds each entry
to a zero and would read that part as ``0.0``.

Serialization is canonical and compact (sorted keys, no whitespace between
tokens, one trailing newline), which makes generate/parse/re-serialize
byte-stable.  Readers ignore whitespace, so files written in the earlier
indented form load to the same objects.  Matrix data is checked on load:
every value must be a finite number, a shape must not be negative, COO
indices must be ints in range and strictly increasing, and the shapes a
pair's or triple's matrices declare, and a pair's label count, must match
its ``dim`` before any matrix is decoded.  Shapes, a ``dim`` and a pair's
interior indices must be JSON ints, not floats that would be truncated.  A
pair's ``basis_labels`` must be a list of labels, each a list, as the
encoder writes them, with no JSON object or null at any depth and nested
at most ``_LABEL_DEPTH`` deep, and its ``provenance`` a string.
"""

import itertools
import json
import operator
import sys
from functools import reduce

import numpy as np
import scipy.sparse as sp

from .bcl import BCLTriple
from .classify import BlockDescriptor, ClassificationResult
from .linalg import _sum_csr
from .models import _V1, _V2, StructuredPair, _read_only


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(m) -> dict:
    m = np.ascontiguousarray(m, dtype=np.complex128)
    rows, cols = m.shape
    return {
        "rows": int(rows),
        "cols": int(cols),
        "data": m.reshape(-1).view(np.float64).reshape(-1, 2).tolist(),
    }


def _operator_to_json(matrix) -> dict:
    """Encode a pair operator, a dense array or a CSR matrix, as it is stored.

    COO when it writes fewer numbers than dense; see the module docstring.
    """
    rows, cols = matrix.shape
    if sp.issparse(matrix):
        # canonical CSR: row-major flat indices, strictly increasing.  Its
        # dense form adds each entry to a zero, which turns -0.0 into 0.0;
        # so does this, and both forms of a pair write the same bytes
        flat = np.repeat(np.arange(rows) * cols, np.diff(matrix.indptr)) + matrix.indices
        values = matrix.data + 0.0
    else:
        flat, values = None, matrix.reshape(-1)
    bits = values.view(np.uint64)
    stored = (bits[0::2] | bits[1::2]) != 0
    if 3 * np.count_nonzero(stored) >= 2 * rows * cols:
        return matrix_to_json(matrix.toarray() if sp.issparse(matrix) else matrix)
    index = np.flatnonzero(stored) if flat is None else flat[stored]
    values = values[stored]
    return {"rows": int(rows), "cols": int(cols), "index": index.tolist(),
            "re": values.real.tolist(), "im": values.imag.tolist()}


def _finite_values(values: list) -> np.ndarray:
    """The float64 array of a list of JSON numbers, each of them finite."""
    if not set(map(type, values)) <= {int, float}:
        raise ValueError("matrix values must be numbers")
    try:
        array = np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValueError("matrix value is out of float range") from None
    if np.count_nonzero(np.isfinite(array)) != len(values):
        raise ValueError("matrix values must be finite")
    return array


def _dense_values(data, size: int) -> np.ndarray:
    """The interleaved parts of dense ``[re, im]`` entries."""
    if not isinstance(data, list):
        raise ValueError("matrix data must be a list")
    if len(data) != size:
        raise ValueError(f"matrix data length {len(data)} != {size}")
    try:
        pairs = set(map(len, data)) <= {2}
    except TypeError:  # an entry without a length: a number or null
        pairs = False
    if not pairs:
        raise ValueError("matrix data entries must be [re, im] pairs")
    # flatten by growing one list in place (faster than itertools.chain); a
    # string or object entry of length 2 adds characters or str keys
    return _finite_values(reduce(operator.iadd, data, []))


def _coo_entries(obj, size: int) -> tuple[np.ndarray, np.ndarray]:
    """A COO matrix's checked flat indices, and its parts as a ``2 x stored`` array."""
    index, re, im = obj["index"], obj["re"], obj["im"]
    if not (isinstance(index, list) and isinstance(re, list) and isinstance(im, list)):
        raise ValueError("matrix index, re and im must be lists")
    if not len(index) == len(re) == len(im):
        raise ValueError(f"matrix index, re and im lengths {len(index)}, {len(re)}, "
                         f"{len(im)} differ")
    if not set(map(type, index)) <= {int}:
        raise ValueError("matrix indices must be ints")
    try:
        flat = np.array(index, dtype=np.int64)
    except OverflowError:
        raise ValueError("matrix index is out of range") from None
    if flat.size and (flat.min() < 0 or flat.max() >= size):
        raise ValueError(f"matrix index is out of range for {size} entries")
    if np.any(np.diff(flat) <= 0):
        raise ValueError("matrix indices must be strictly increasing")
    return flat, _finite_values(re + im).reshape(2, -1)


def _coo_csr(rows: int, cols: int, flat: np.ndarray, parts: np.ndarray) -> sp.csr_matrix:
    """The canonical CSR matrix of checked COO entries, int32-indexed.

    An entry whose parts are both zero is not stored, as converting the
    dense form would not store it.  The caller makes sure no part is ``-0.0``.
    """
    stored = np.flatnonzero(parts.any(axis=0))
    # strictly increasing flat indices are sorted by row, then column
    row, col = np.divmod(flat[stored], cols)
    data = np.empty(stored.size, dtype=np.complex128)
    data.real, data.imag = parts[:, stored]
    return _sum_csr((rows, cols), (row, col, data))


def _json_int(obj, key: str) -> int:
    """``obj[key]``, which must be a JSON int: ``int()`` would truncate a float."""
    value = obj[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an int, got {value!r}")
    return value


def _declared_shape(obj) -> tuple[int, int]:
    """A matrix's ``(rows, cols)`` as its JSON declares them, checked but not decoded."""
    rows, cols = _json_int(obj, "rows"), _json_int(obj, "cols")
    if rows < 0 or cols < 0:
        raise ValueError(f"matrix shape {rows}x{cols} is negative")
    return rows, cols


def _decode_matrix(obj, sparse: bool):
    """Decode a dense or COO matrix; see :func:`matrix_from_json` for the checks.

    With ``sparse``, a COO matrix decodes to CSR unless a stored part is
    ``-0.0``, which a CSR matrix does not keep bit for bit (its dense form
    adds each entry to a zero).  Everything else decodes to a dense array.
    """
    rows, cols = _declared_shape(obj)
    if "data" in obj:
        values = _dense_values(obj["data"], rows * cols)
    else:
        flat, parts = _coo_entries(obj, rows * cols)
        if sparse and not np.any(np.signbit(parts[parts == 0])):
            return _coo_csr(rows, cols, flat, parts)
        values = np.zeros((rows * cols, 2))
        values[flat] = parts.T
    return values.reshape(-1).view(np.complex128).reshape(rows, cols)


def matrix_from_json(obj) -> np.ndarray:
    """Decode a dense or COO matrix into a dense complex128 array.

    ``ValueError`` unless every value is a finite JSON number (an int or a
    float; strings, nulls and booleans are rejected rather than coerced),
    a dense matrix holds ``rows * cols`` ``[re, im]`` pairs, and a COO
    matrix's indices are in-range, strictly increasing ints, as many as its
    real and imaginary parts.  Each check is one pass of built-in calls over
    a list, not a Python loop per entry.
    """
    return _decode_matrix(obj, sparse=False)


def triple_to_json(triple: BCLTriple) -> dict:
    return {
        "kind": "bcl_triple",
        "dim": triple.dim,
        "unitary": matrix_to_json(triple.unitary),
        "projection": matrix_to_json(triple.projection),
    }


def triple_from_json(obj) -> BCLTriple:
    dim = _json_int(obj, "dim")
    shapes = [_declared_shape(obj[key]) for key in ("unitary", "projection")]
    if shapes != [(dim, dim)] * 2:
        raise ValueError(f"triple dim {dim} disagrees with matrix shapes "
                         f"{shapes[0]} and {shapes[1]}")
    return BCLTriple(dim=dim, unitary=matrix_from_json(obj["unitary"]),
                     projection=matrix_from_json(obj["projection"]))


def _label_to_json(label):
    return list(label)


#: How deep a basis label may nest: the recursive decoder this replaces
#: stopped there, taking two interpreter frames per level.
_LABEL_DEPTH = sys.getrecursionlimit() // 2


def _labels_from_json(labels: list) -> tuple:
    """The labels' nested JSON lists as nested tuples.

    One pass over every label's entries checks them; when none is a list,
    as in every generator's labels, that is all.  Nested labels (direct
    sums, scrambles) are converted by an explicit stack, not by recursion.
    ``ValueError`` if a label holds a JSON object or null at any depth, or
    nests more than ``_LABEL_DEPTH`` lists deep.
    """
    kinds = set(map(type, itertools.chain.from_iterable(labels)))
    _check_label_kinds(kinds)
    if list not in kinds:
        return tuple(map(tuple, labels))
    # a frame is a list's items still to read and those converted so far;
    # the bottom one is the label list itself
    frames = [(iter(labels), [])]
    while True:
        items, converted = frames[-1]
        for item in items:
            if type(item) is list:
                if len(frames) > _LABEL_DEPTH:
                    raise ValueError(f"basis labels must not nest more than "
                                     f"{_LABEL_DEPTH} deep")
                kinds = set(map(type, item))
                _check_label_kinds(kinds)
                if list in kinds:
                    frames.append((iter(item), []))
                    break
                item = tuple(item)
            converted.append(item)
        else:
            frames.pop()
            if not frames:
                return tuple(converted)
            frames[-1][1].append(tuple(converted))


def _check_label_kinds(kinds: set) -> None:
    if dict in kinds or type(None) in kinds:
        raise ValueError("basis labels must not hold JSON objects or nulls")


def pair_to_json(pair: StructuredPair) -> dict:
    return {
        "kind": "structured_pair",
        "dim": pair.dim,
        "v1": _operator_to_json(_V1.given(pair)),
        "v2": _operator_to_json(_V2.given(pair)),
        "basis_labels": [_label_to_json(lab) for lab in pair.basis_labels],
        "interior": list(pair.interior),
        "provenance": pair.provenance,
    }


def pair_from_json(obj) -> StructuredPair:
    dim, interior = _json_int(obj, "dim"), obj["interior"]
    if not (isinstance(interior, list) and set(map(type, interior)) <= {int}):
        raise ValueError("pair interior must be a list of ints")
    labels, provenance = obj["basis_labels"], obj["provenance"]
    if not (isinstance(labels, list) and set(map(type, labels)) <= {list}):
        raise ValueError("pair basis_labels must be a list of label lists")
    if not isinstance(provenance, str):
        raise ValueError(f"pair provenance must be a string, got {provenance!r}")
    # checked before decoding, which allocates the declared shapes in full
    if any(_declared_shape(obj[key]) != (dim, dim) for key in ("v1", "v2")):
        raise ValueError("operator shapes do not match dim")
    if len(labels) != dim:
        raise ValueError("one label per basis vector required")
    # the decoded matrices are fresh; frozen, the pair keeps them without a copy
    return StructuredPair(
        dim=dim,
        v1=_read_only(_decode_matrix(obj["v1"], sparse=True)),
        v2=_read_only(_decode_matrix(obj["v2"], sparse=True)),
        basis_labels=_labels_from_json(labels),
        interior=interior,
        provenance=provenance,
    )


def _block_to_json(block: BlockDescriptor) -> dict:
    out = {
        "kind": block.kind,
        "alpha": complex_to_json(block.alpha),
        "f_vector": [complex_to_json(z) for z in block.f_vector],
    }
    if block.interior_eigenvalue is not None:
        out["interior_eigenvalue"] = float(block.interior_eigenvalue)
    if block.twist is not None:
        out["twist"] = complex_to_json(block.twist)
    return out


def classification_to_json(result: ClassificationResult) -> dict:
    shift = result.shift_unitary
    return {
        "kind": "classification",
        "k": result.k,
        "fundamental_sequence": [complex_to_json(a)
                                 for a in result.fundamental_sequence],
        "blocks": [_block_to_json(b) for b in result.blocks],
        "shift_unitary": None if shift is None else {
            "eigs_on_p": [complex_to_json(z) for z in shift.eigs_on_p],
            "eigs_on_pperp": [complex_to_json(z) for z in shift.eigs_on_pperp],
        },
        "residuals": {k: float(v) for k, v in sorted(result.residuals.items())},
    }


def to_json(obj) -> dict:
    if isinstance(obj, BCLTriple):
        return triple_to_json(obj)
    if isinstance(obj, StructuredPair):
        return pair_to_json(obj)
    if isinstance(obj, ClassificationResult):
        return classification_to_json(obj)
    raise TypeError(f"no JSON schema for {type(obj).__name__}")


def from_json(obj):
    """Decode a triple or structured pair.

    A missing field or a field of the wrong JSON type raises ``ValueError``,
    as malformed matrix data does.
    """
    kind = obj.get("kind")
    # a list or object kind would not hash as a key of the table below
    decode = {"bcl_triple": triple_from_json,
              "structured_pair": pair_from_json}.get(kind) if isinstance(kind, str) else None
    if decode is None:
        raise ValueError(f"unknown object kind {kind!r}")
    try:
        return decode(obj)
    except (KeyError, TypeError) as exc:  # a missing field or a wrong JSON type
        raise ValueError(f"malformed {kind}: {exc!r}") from None


def dumps_canonical(payload: dict) -> str:
    """Canonical serialization: sorted keys, compact separators, trailing newline.

    Without ``indent`` the standard library uses its C encoder.  Every
    payload is a fresh tree (an encoder's output or a CLI report), which
    cannot hold a cycle, so the encoder's circular-reference bookkeeping
    is switched off.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      check_circular=False) + "\n"


def load_input(path: str):
    """Read a triple or structured pair from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return from_json(payload)
