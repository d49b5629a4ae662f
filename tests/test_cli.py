import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import isopair
from isopair import serialize
from isopair.cli import main, parse_complex
from isopair.izuchi import build_izuchi_model
from isopair.models import direct_sum, scramble, twisted_shift
from isopair.serialize import (
    dumps_canonical,
    load_input,
    pair_to_json,
    to_json,
    triple_to_json,
)

from conftest import find_non_normal_triple, two_finite_triple
from test_serialize import MALFORMED_PAIR_FIELDS


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("text,value", [
    ("1+0i", 1.0), ("i", 1j), ("-i", -1j), ("0.5i", 0.5j),
    ("2", 2.0), ("1-1j", 1 - 1j), ("0.5+0.25i", 0.5 + 0.25j),
])
def test_parse_complex(text, value):
    assert parse_complex(text) == value


def test_gen_and_classify_leave_scipy_sparse_linalg_unimported(tmp_path):
    # every process would pay for its import; a sparse Frobenius norm, its
    # only use, reads the stored values itself
    path = tmp_path / "model.json"
    path.write_text(dumps_canonical(pair_to_json(build_izuchi_model(0.5, 1j, 8, 8).pair)))
    script = ("import sys\n"
              "from isopair.cli import main\n"
              "assert main(['gen', 'izuchi', '--r', '0.5', '--gamma', 'i', '--N', '8',"
              f" '-o', {str(tmp_path / 'gen.json')!r}]) == 0\n"
              f"assert main(['classify', {str(path)!r}]) == 0\n"
              "assert 'scipy.sparse.linalg' not in sys.modules\n")
    src = str(Path(isopair.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestGen:
    def test_izuchi_provenance(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        code, _, _ = run(capsys, "gen", "izuchi", "--r", "0.5", "--gamma", "1",
                         "--N", "6", "-o", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["provenance"] == "izuchi"
        assert payload["kind"] == "structured_pair"

    def test_random_triple_bytes_are_deterministic(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            code, _, _ = run(capsys, "gen", "random-triple", "--n", "8",
                             "--rankP", "3", "--seed", "7", "-o", str(path))
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "twisted", "--alpha", "1+0i",
                           "--N", "-1")
        assert code == 2
        assert err.strip()
        assert len(err.strip().splitlines()) == 1

    def test_round_trip_is_byte_stable(self, tmp_path, capsys):
        out = tmp_path / "pair.json"
        run(capsys, "gen", "twisted", "--alpha", "i", "--N", "5",
            "-o", str(out))
        original = out.read_text()
        reloaded = load_input(str(out))
        assert dumps_canonical(to_json(reloaded)) == original

    def test_direct_sum_and_scramble_pipeline(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        combined = tmp_path / "sum.json"
        mixed = tmp_path / "mixed.json"
        run(capsys, "gen", "bishift", "--N", "4", "-o", str(a))
        run(capsys, "gen", "twisted", "--alpha", "i", "--N", "4", "-o", str(b))
        code, _, _ = run(capsys, "gen", "direct-sum", str(a), str(b),
                         "-o", str(combined))
        assert code == 0
        assert json.loads(combined.read_text())["provenance"] == "direct_sum"
        code, _, _ = run(capsys, "gen", "scramble", str(combined),
                         "--seed", "3", "-o", str(mixed))
        assert code == 0
        code, _, _ = run(capsys, "equiv", str(combined), str(mixed))
        assert code == 0

    def test_direct_sum_rejects_triples(self, tmp_path, capsys):
        t = tmp_path / "t.json"
        run(capsys, "gen", "random-triple", "--n", "3", "--rank-p", "1",
            "-o", str(t))
        code, _, err = run(capsys, "gen", "direct-sum", str(t), str(t))
        assert code == 2 and "structured pairs" in err


class TestAnalyze:
    def write(self, tmp_path, obj, name="input.json"):
        path = tmp_path / name
        path.write_text(dumps_canonical(to_json(obj)))
        return str(path)

    def test_two_finite_triple_passes(self, tmp_path, capsys):
        path = self.write(tmp_path, two_finite_triple(np.exp(0.5j)))
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "rank(defect) = 2" in out
        assert "rank(cross) = 1" in out

    def test_commuting_triple_all_zero(self, tmp_path, capsys):
        from isopair.bcl import BCLTriple
        path = self.write(tmp_path, BCLTriple(3, np.eye(3), np.diag([1., 0, 0])))
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "rank(defect) = 0" in out

    def test_izuchi_spectrum(self, tmp_path, capsys):
        from isopair.izuchi import build_izuchi_model
        path = self.write(tmp_path, build_izuchi_model(0.5, 1.0, 8, 8).pair)
        code, out, _ = run(capsys, "analyze", path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        values = sorted(e["eigenvalue"][0] for e in payload["spectrum"]
                        if abs(e["eigenvalue"][0]) > 1e-8)
        assert np.allclose(values, [-0.5, 0.5, 1.0], atol=1e-8)
        assert payload["pass"]

    def test_csv_header(self, tmp_path, capsys):
        path = self.write(tmp_path, two_finite_triple(1.0))
        code, out, _ = run(capsys, "analyze", path, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == \
            "index,eigenvalue_re,eigenvalue_im,cluster_label"

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2 and err

    def test_batch_trials(self, capsys):
        code, out, _ = run(capsys, "analyze", "--trials", "25",
                           "--max-dim", "9", "--seed", "4")
        assert code == 0
        assert "25/25 trials passed" in out


class TestClassify:
    def test_direct_sum_blocks(self, tmp_path, capsys):
        from isopair.izuchi import build_izuchi_model
        from isopair.models import bishift_truncated
        pair = direct_sum([bishift_truncated(5), twisted_shift(1j, 5),
                           build_izuchi_model(0.5, 1.0, 8, 8).pair])
        path = tmp_path / "sum.json"
        path.write_text(dumps_canonical(pair_to_json(pair)))
        code, out, _ = run(capsys, "classify", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 3
        kinds = sorted(b["kind"] for b in payload["blocks"])
        assert kinds == ["one_finite", "three_finite", "two_finite"]

    def test_commuting_triple_is_shift_unitary_only(self, tmp_path, capsys):
        from isopair.bcl import BCLTriple
        triple = BCLTriple(3, np.diag([1.0, 1j, -1.0]), np.diag([1.0, 1.0, 0.0]))
        path = tmp_path / "t.json"
        path.write_text(dumps_canonical(triple_to_json(triple)))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert "k = 0" in out
        assert "shift-unitary eigenvalues" in out

    def test_non_normal_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(dumps_canonical(triple_to_json(find_non_normal_triple())))
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1
        assert "normal" in err


class TestEquiv:
    def gen_izuchi(self, tmp_path, capsys, name, gamma, cap):
        path = tmp_path / name
        code, _, _ = run(capsys, "gen", "izuchi", "--r", "0.5", "--gamma",
                         gamma, "--N", str(cap), "-o", str(path))
        assert code == 0
        return str(path)

    def test_truncation_levels_are_equivalent(self, tmp_path, capsys):
        a = self.gen_izuchi(tmp_path, capsys, "a.json", "1", 8)
        b = self.gen_izuchi(tmp_path, capsys, "b.json", "1", 11)
        code, out, _ = run(capsys, "equiv", a, b)
        assert code == 0
        assert "equivalent" in out

    def test_twists_differ(self, tmp_path, capsys):
        a = self.gen_izuchi(tmp_path, capsys, "a.json", "1", 8)
        b = self.gen_izuchi(tmp_path, capsys, "b.json", "i", 8)
        code, out, _ = run(capsys, "equiv", a, b)
        assert code == 3
        assert "not equivalent" in out

    def test_scramble_is_equivalent(self, tmp_path, capsys):
        pair = twisted_shift(np.exp(0.4j), 6)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(dumps_canonical(pair_to_json(pair)))
        b.write_text(dumps_canonical(pair_to_json(scramble(pair, seed=5))))
        code, _, _ = run(capsys, "equiv", str(a), str(b))
        assert code == 0

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "equiv", "/nonexistent/a.json",
                         "/nonexistent/b.json")
        assert code == 2


@pytest.mark.parametrize("entry", [
    3.0,
    None,
    [1.0, 0.0, 0.0],
    ["x", "y"],
    [None, 0.0],
    [True, 0.0],
    [float("nan"), 0.0],
    [0.0, float("inf")],
    "missing",
], ids=["number-entry", "null-entry", "triple-entry", "strings", "null",
        "bool", "nan", "inf", "length-mismatch"])
def test_malformed_matrix_data_exits_2(tmp_path, capsys, entry):
    # the unitary's first entry is replaced, or dropped for a short data list
    payload = triple_to_json(two_finite_triple(1j))
    data = payload["unitary"]["data"]
    if entry == "missing":
        del data[0]
    else:
        data[0] = entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    for argv in (["classify", str(path)], ["analyze", str(path)],
                 ["equiv", str(path), str(path)]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:")


def _nested(depth: int) -> list:
    label = [0]
    for _ in range(depth - 1):
        label = [label]
    return label


@pytest.mark.parametrize("spoil", [
    lambda payload: payload["v1"].update(rows=None),
    lambda payload: payload.update(v1=[1, 2]),
    lambda payload: payload.pop("interior"),
    # a spoil that returns text replaces the whole file
    lambda payload: payload["basis_labels"].__setitem__(0, _nested(600)),
    lambda payload: "[" * 100_000,
    *(lambda payload, spoil=spoil: payload.update(spoil)
      for spoil in MALFORMED_PAIR_FIELDS.values()),
], ids=["null-rows", "matrix-as-list", "missing-field", "label-nested-600-deep",
        "nested-100000-deep", *MALFORMED_PAIR_FIELDS])
def test_malformed_object_exits_2(tmp_path, capsys, spoil):
    payload = pair_to_json(twisted_shift(1j, 3))
    text = spoil(payload)
    path = tmp_path / "bad.json"
    path.write_text(text if isinstance(text, str) else json.dumps(payload))
    for argv in (["classify", str(path)],
                 ["gen", "scramble", str(path), "-o", str(tmp_path / "x.json")]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:")


@pytest.mark.parametrize("spoil", [
    {"index": [0, 1.0]},
    {"index": [True, 1]},
    {"index": ["0", 1]},
    {"index": [-1, 1]},
    {"index": [0, 9]},
    {"index": [1, 1]},
    {"index": [1, 0]},
    {"index": [3]},
    {"re": [1.0]},
    {"im": None},
    {"re": [float("nan"), 1.0]},
    {"re": [float("inf"), 1.0]},
    {"im": [0.0, float("-inf")]},
    {"re": [None, 1.0]},
    {"im": [False, 0.0]},
    {"re": ["1", 1.0]},
], ids=["float-index", "bool-index", "string-index", "negative-index",
        "index-past-end", "repeated-index", "decreasing-index", "short-index", "short-re",
        "missing-im", "nan", "inf", "-inf", "null", "bool", "string"])
def test_malformed_coo_matrix_exits_2(tmp_path, capsys, spoil):
    payload = pair_to_json(twisted_shift(1j, 3))
    v1 = payload["v1"]
    assert v1["index"] == [3, 7]  # two stored entries of nine: COO
    v1.update(spoil)
    if v1["im"] is None:  # the field is dropped
        del v1["im"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    for argv in (["classify", str(path)], ["analyze", str(path)],
                 ["equiv", str(path), str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


def test_rank_tol_env_override(tmp_path, capsys, monkeypatch):
    # a huge rank cutoff drops the smaller interior eigenvalue pair from the
    # rank counts and breaks the identities; flags must beat the environment
    from isopair.bcl import random_triple
    triple = random_triple(4, 2, seed=11)
    path = tmp_path / "t.json"
    path.write_text(dumps_canonical(triple_to_json(triple)))

    code, _, _ = run(capsys, "analyze", str(path))
    assert code == 0

    monkeypatch.setenv("ISOPAIR_RANK_TOL", "0.9")
    code_env, _, _ = run(capsys, "analyze", str(path))
    assert code_env == 1

    code_flag, _, _ = run(capsys, "analyze", str(path), "--rank-tol", "1e-12")
    assert code_flag == 0


@pytest.mark.parametrize("command,flags,env", [
    ("classify", ["--band-tol", "inf"], {}),
    ("classify", ["--band-tol", "nan"], {}),
    ("classify", [], {"ISOPAIR_BAND_TOL": "abc"}),
    ("equiv", ["--tol", "-1"], {}),
    ("equiv", [], {"ISOPAIR_EQUIV_TOL": "0"}),
    ("analyze", ["--rank-tol", "nan"], {}),
    ("analyze", [], {"ISOPAIR_CLUSTER_TOL": "inf"}),
], ids=["classify-inf", "classify-nan", "classify-env-text", "equiv-negative",
        "equiv-env-zero", "analyze-nan", "analyze-env-inf"])
def test_bad_tolerance_exits_2(tmp_path, capsys, monkeypatch, command, flags, env):
    # a tolerance must be a finite positive number, from a flag or the environment
    path = tmp_path / "tw.json"
    assert main(["gen", "twisted", "--alpha", "1j", "--N", "8", "-o", str(path)]) == 0
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    inputs = [str(path)] * (2 if command == "equiv" else 1)
    code, _, err = run(capsys, command, *inputs, *flags)
    assert code == 2
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["analyze", "--trials", "-3"],
    ["analyze", "--trials", "2", "--max-dim", "1"],
    ["gen", "scramble"],
    ["gen", "bishift", "-o", "{missing}"],
    ["classify", "{triple}", "-o", "{missing}"],
    ["analyze", "{triple}", "-o", "{missing}"],
], ids=["negative-trials", "max-dim-1", "scramble-no-input", "gen-output-dir",
        "classify-output-dir", "analyze-output-dir"])
def test_bad_parameter_exits_2(tmp_path, capsys, argv):
    # a bad count, a missing input file or an unwritable -o path is the caller's error
    triple = tmp_path / "t.json"
    triple.write_text(dumps_canonical(triple_to_json(two_finite_triple(1j))))
    missing = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run(capsys, *(a.format(triple=triple, missing=missing)
                                   for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("spoil", [
    lambda payload: payload.update(dim=3),
    lambda payload: payload["unitary"].update(rows=-2, cols=-2),
    lambda payload: payload.update(dim=2.5),
    lambda payload: payload["unitary"].update(rows=2.5, cols=2.5),
], ids=["dim-disagrees", "negative-shape", "fractional-dim", "fractional-shape"])
def test_inconsistent_triple_shape_exits_2(tmp_path, capsys, spoil):
    payload = triple_to_json(two_finite_triple(1j))
    spoil(payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    for argv in (["classify", str(path)], ["analyze", str(path)],
                 ["equiv", str(path), str(path)]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("kind", [[[]], {"a": 1}], ids=["nested-list", "object"])
def test_unhashable_kind_exits_2(tmp_path, capsys, kind):
    # a list kind once escaped as TypeError ("unhashable type") with a traceback
    payload = pair_to_json(twisted_shift(1j, 3))
    payload["kind"] = kind
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    for argv in (["classify", str(path)], ["analyze", str(path)],
                 ["equiv", str(path), str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: unknown object kind")


def _coo(rows: int, cols: int) -> dict:
    return {"rows": rows, "cols": cols, "index": [], "re": [], "im": []}



@pytest.mark.parametrize("base,spoil,message", [
    ("pair", lambda payload: payload.update(v1=_coo(10**12, 3)),
     "operator shapes do not match dim"),
    ("pair", lambda payload: payload.update(dim=10**12, v1=_coo(10**12, 10**12),
                                            v2=_coo(10**12, 10**12)),
     "one label per basis vector required"),
    ("triple", lambda payload: payload.update(unitary=_coo(10**6, 10**6)),
     "triple dim 2 disagrees with matrix shapes"),
], ids=["pair-operator-rows", "pair-labels", "triple-unitary"])
def test_declared_shapes_are_checked_before_decoding(tmp_path, capsys, base, spoil, message):
    # decoding allocates the declared shape: 7 TiB of CSR row pointers, or
    # 16 TiB of dense entries, ended in a MemoryError traceback with exit 1
    payload = pair_to_json(twisted_shift(1j, 3)) if base == "pair" \
        else triple_to_json(two_finite_triple(1j))
    spoil(payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert path.stat().st_size < 400
    for argv in (["classify", str(path)], ["analyze", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert len(err.strip().splitlines()) == 1


def test_an_input_too_large_for_memory_exits_2(tmp_path, capsys):
    # a triple whose declared shape agrees with its dim is decoded dense:
    # this 10**6-wide one asks for 14.6 TiB.  The allocation is mocked, so
    # the test does not depend on the machine's overcommit setting
    payload = {"kind": "bcl_triple", "dim": 10**6,
               "unitary": _coo(10**6, 10**6), "projection": _coo(10**6, 10**6)}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    refusal = MemoryError("Unable to allocate 14.6 TiB for an array with shape "
                          "(1000000, 1000000) and data type complex128")
    with mock.patch.object(serialize, "_decode_matrix", side_effect=refusal):
        for argv in (["classify", str(path)], ["analyze", str(path)],
                     ["equiv", str(path), str(path)]):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error: input does not fit in memory: Unable to allocate")
            assert len(err.strip().splitlines()) == 1
