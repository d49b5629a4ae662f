"""JSON schemas for triples, structured pairs, and classification results.

Complex numbers serialize as two-element ``[re, im]`` arrays and matrices as
``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with row-major data, so
files stay language-neutral.  Serialization is canonical and compact (sorted
keys, no whitespace between tokens, one trailing newline), which makes
generate/parse/re-serialize byte-stable.  Readers ignore whitespace, so files
written in the earlier indented form load to the same objects.  Matrix data
is checked on load: every entry must be an ``[re, im]`` pair of finite
numbers, a shape must not be negative, and a triple's ``dim`` must match
its matrices.
"""

import json
import operator
from functools import reduce

import numpy as np

from .bcl import BCLTriple
from .classify import BlockDescriptor, ClassificationResult
from .models import StructuredPair, _read_only


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


def matrix_from_json(obj) -> np.ndarray:
    """Decode a matrix; ``ValueError`` unless every entry is a finite ``[re, im]``.

    Values must be JSON numbers (ints or floats); strings, nulls and booleans
    are rejected rather than coerced.  Each check is one pass of built-in
    calls over the list, not a Python loop per entry.
    """
    rows, cols = int(obj["rows"]), int(obj["cols"])
    if rows < 0 or cols < 0:
        raise ValueError(f"matrix shape {rows}x{cols} is negative")
    data = obj["data"]
    if not isinstance(data, list):
        raise ValueError("matrix data must be a list")
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} != {rows}*{cols}")
    try:
        pairs = set(map(len, data)) <= {2}
    except TypeError:  # an entry without a length: a number or null
        pairs = False
    if not pairs:
        raise ValueError("matrix data entries must be [re, im] pairs")
    # flatten by growing one list in place (faster than itertools.chain); a
    # string or object entry of length 2 adds characters or str keys
    flat = reduce(operator.iadd, data, [])
    if not set(map(type, flat)) <= {int, float}:
        raise ValueError("matrix data values must be numbers")
    try:
        values = np.array(flat, dtype=np.float64)
    except OverflowError:
        raise ValueError("matrix data value is out of float range") from None
    if np.count_nonzero(np.isfinite(values)) != len(flat):
        raise ValueError("matrix data values must be finite")
    return values.view(np.complex128).reshape(rows, cols)


def triple_to_json(triple: BCLTriple) -> dict:
    return {
        "kind": "bcl_triple",
        "dim": triple.dim,
        "unitary": matrix_to_json(triple.unitary),
        "projection": matrix_to_json(triple.projection),
    }


def triple_from_json(obj) -> BCLTriple:
    dim = int(obj["dim"])
    unitary = matrix_from_json(obj["unitary"])
    projection = matrix_from_json(obj["projection"])
    if unitary.shape != (dim, dim) or projection.shape != (dim, dim):
        raise ValueError(f"triple dim {dim} disagrees with matrix shapes "
                         f"{unitary.shape} and {projection.shape}")
    return BCLTriple(dim=dim, unitary=unitary, projection=projection)


def _label_to_json(label):
    return list(label)


def _label_from_json(obj):
    if isinstance(obj, list):
        return tuple(_label_from_json(item) for item in obj)
    return obj


def pair_to_json(pair: StructuredPair) -> dict:
    return {
        "kind": "structured_pair",
        "dim": pair.dim,
        "v1": matrix_to_json(pair.v1),
        "v2": matrix_to_json(pair.v2),
        "basis_labels": [_label_to_json(lab) for lab in pair.basis_labels],
        "interior": list(pair.interior),
        "provenance": pair.provenance,
    }


def pair_from_json(obj) -> StructuredPair:
    # the decoded arrays are fresh; frozen, the pair keeps them without a copy
    return StructuredPair(
        dim=int(obj["dim"]),
        v1=_read_only(matrix_from_json(obj["v1"])),
        v2=_read_only(matrix_from_json(obj["v2"])),
        basis_labels=tuple(_label_from_json(lab) for lab in obj["basis_labels"]),
        interior=tuple(int(i) for i in obj["interior"]),
        provenance=str(obj["provenance"]),
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
    decode = {"bcl_triple": triple_from_json,
              "structured_pair": pair_from_json}.get(kind)
    if decode is None:
        raise ValueError(f"unknown object kind {kind!r}")
    try:
        return decode(obj)
    except (KeyError, TypeError) as exc:  # a missing field or a wrong JSON type
        raise ValueError(f"malformed {kind}: {exc!r}") from None


def dumps_canonical(payload: dict) -> str:
    """Canonical serialization: sorted keys, compact separators, trailing newline.

    Without ``indent`` the standard library uses its C encoder.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def load_input(path: str):
    """Read a triple or structured pair from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return from_json(payload)
