"""Command-line front end: generate, analyze, classify, compare.

Exit codes are a stable contract: 0 success, 1 mathematical-check failure,
2 input/parameter error, 3 not-equivalent.  Tolerances are overridable by
flags and by ISOPAIR_-prefixed environment variables; flags win.
"""

import argparse
import csv
import io
import json
import os
import re
import sys

import numpy as np

from .bcl import random_triple
from .classify import classify, decide_equivalence, working_space
from .izuchi import build_izuchi_model
from .linalg import normality_residual
from .models import (
    StructuredPair,
    bishift_truncated,
    direct_sum,
    scramble,
    twisted_shift,
)
from .serialize import (
    classification_to_json,
    dumps_canonical,
    load_input,
    to_json,
)
from .spectral import rank_formula

DEFAULT_CLUSTER_TOL = 1e-8
DEFAULT_BAND_TOL = 1e-6


def parse_complex(text: str) -> complex:
    """Parse '1+0i', '-i', '0.5i', '2', and the j-suffixed equivalents."""
    t = text.strip().replace(" ", "").lower().replace("i", "j")
    t = re.sub(r"(?<![\d.])j", "1j", t)
    try:
        return complex(t)
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"environment variable {name} is not a number: {raw!r}")


def _resolve_tol(flag_value, env_name: str, default):
    if flag_value is not None:
        return flag_value
    env_value = _env_float(env_name)
    if env_value is not None:
        return env_value
    return default


def _positive(value, name: str):
    if value is not None and value <= 0:
        raise ValueError(f"{name} must be positive")
    return value


def _write_output(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _build_object(args):
    kind = args.model
    if kind == "random-triple":
        return random_triple(args.n, args.rank_p, args.seed)
    if kind == "bishift":
        return bishift_truncated(args.cap)
    if kind == "twisted":
        return twisted_shift(parse_complex(args.alpha), args.cap)
    if kind == "izuchi":
        model = build_izuchi_model(
            args.r, parse_complex(args.gamma),
            monomial_cap=args.cap,
            chain_len=args.chain if args.chain is not None else args.cap,
            series_len=args.series,
        )
        return model.pair
    if kind == "direct-sum":
        parts = [load_input(path) for path in args.inputs]
        if not all(isinstance(p, StructuredPair) for p in parts):
            raise ValueError("direct-sum combines structured pairs only")
        return direct_sum(parts)
    if kind == "scramble":
        pair = load_input(args.inputs[0])
        if not isinstance(pair, StructuredPair):
            raise ValueError("scramble applies to structured pairs only")
        return scramble(pair, args.seed)
    raise ValueError(f"unknown model {kind!r}")


def cmd_gen(args) -> int:
    try:
        obj = _build_object(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_output(dumps_canonical(to_json(obj)), args.output)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def analyze_object(obj, rank_tol, cluster_tol) -> dict:
    """Spectrum, ranks, normality residual, and both rank identities."""
    ws = working_space(obj)
    defect, cross = ws.defect, ws.cross
    ranks, profile = rank_formula(defect, cross, rank_tol, cluster_tol)
    normality = normality_residual(cross)

    values = np.linalg.eigvalsh(defect)[::-1]
    labels = []
    for v in values:
        if v >= 1.0 - cluster_tol:
            labels.append("plus_one")
        elif v <= -1.0 + cluster_tol:
            labels.append("minus_one")
        elif abs(v) <= cluster_tol:
            labels.append("kernel")
        else:
            side = "pos" if v > 0 else "neg"
            idx = min(
                range(len(profile.interior_pairs)),
                key=lambda i: abs(abs(v) - profile.interior_pairs[i].value),
            ) if profile.interior_pairs else 0
            labels.append(f"pair{idx}_{side}")

    return {
        "kind": "analysis",
        "spectrum": [
            {"eigenvalue": [float(v), 0.0], "cluster": lab}
            for v, lab in zip(values, labels)
        ],
        "rank_defect": ranks.rank_defect,
        "rank_cross": ranks.rank_cross,
        "dim_plus1": profile.dim_plus1,
        "dim_minus1": profile.dim_minus1,
        "dim_kplus": profile.dim_kplus,
        "kernel_dim": profile.kernel_dim,
        "normality_residual": normality,
        "symmetric": profile.symmetric,
        "sum_identity_ok": ranks.sum_identity_ok,
        "difference_identity_ok": ranks.difference_identity_ok,
        "pass": bool(ranks.both_identities_hold and profile.symmetric),
    }


def _analysis_text(report: dict) -> str:
    lines = [
        "defect spectrum:",
    ]
    for entry in report["spectrum"]:
        value = entry["eigenvalue"][0]
        lines.append(f"  {value:+.12f}  [{entry['cluster']}]")
    lines += [
        f"rank(defect) = {report['rank_defect']}   "
        f"rank(cross) = {report['rank_cross']}",
        f"dim(+1) = {report['dim_plus1']}   dim(-1) = {report['dim_minus1']}   "
        f"dim(K+) = {report['dim_kplus']}   kernel = {report['kernel_dim']}",
        f"cross normality residual = {report['normality_residual']:.3e}",
        f"identity rankC = rankX + dimE1 + dimK+ : "
        f"{'pass' if report['sum_identity_ok'] else 'FAIL'}",
        f"identity rankC = 2 rankX + dimE1 - dimE-1 : "
        f"{'pass' if report['difference_identity_ok'] else 'FAIL'}",
        f"interior symmetry : {'pass' if report['symmetric'] else 'FAIL'}",
    ]
    return "\n".join(lines) + "\n"


def _analysis_csv(report: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["index", "eigenvalue_re", "eigenvalue_im", "cluster_label"])
    for i, entry in enumerate(report["spectrum"]):
        re_part, im_part = entry["eigenvalue"]
        writer.writerow([i, repr(re_part), repr(im_part), entry["cluster"]])
    return buffer.getvalue()


def cmd_analyze(args) -> int:
    rank_tol = _resolve_tol(args.rank_tol, "ISOPAIR_RANK_TOL", None)
    cluster_tol = _resolve_tol(args.cluster_tol, "ISOPAIR_CLUSTER_TOL",
                               DEFAULT_CLUSTER_TOL)
    try:
        _positive(rank_tol, "rank tolerance")
        _positive(cluster_tol, "cluster tolerance")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trials is not None:
        return _analyze_trials(args, rank_tol, cluster_tol)

    if args.input is None:
        print("error: provide an input file or --trials", file=sys.stderr)
        return 2
    try:
        obj = load_input(args.input)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = analyze_object(obj, rank_tol, cluster_tol)
    except ValueError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1

    if args.format == "json":
        _write_output(dumps_canonical(report), args.output)
    elif args.format == "csv":
        _write_output(_analysis_csv(report), args.output)
    else:
        _write_output(_analysis_text(report), args.output)
    return 0 if report["pass"] else 1


def _analyze_trials(args, rank_tol, cluster_tol) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0
    lines = []
    for i in range(args.trials):
        dim = int(rng.integers(2, args.max_dim + 1))
        rank_p = int(rng.integers(0, dim + 1))
        triple = random_triple(dim, rank_p, int(rng.integers(0, 2 ** 31)))
        report = analyze_object(triple, rank_tol, cluster_tol)
        status = "pass" if report["pass"] else "FAIL"
        if not report["pass"]:
            failures += 1
        lines.append(f"trial {i:4d}  dim {dim:3d}  rankP {rank_p:3d}  {status}")
    lines.append(f"{args.trials - failures}/{args.trials} trials passed")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# classify / equiv
# ---------------------------------------------------------------------------

def _classification_text(payload: dict) -> str:
    lines = [f"k = {payload['k']}"]
    if payload["blocks"]:
        lines.append("blocks:")
        for block in payload["blocks"]:
            re_part, im_part = block["alpha"]
            extra = ""
            if "interior_eigenvalue" in block:
                tw = block["twist"]
                extra = (f"  (interior eigenvalue {block['interior_eigenvalue']:.9f},"
                         f" twist {tw[0]:+.9f}{tw[1]:+.9f}i)")
            lines.append(f"  {block['kind']:>12}  alpha = "
                         f"{re_part:+.9f}{im_part:+.9f}i{extra}")
    else:
        lines.append("blocks: none")
    shift = payload["shift_unitary"]
    if shift is None or not (shift["eigs_on_p"] or shift["eigs_on_pperp"]):
        lines.append("shift-unitary part: empty")
    else:
        def fmt(values):
            return ", ".join(f"{r:+.6f}{i:+.6f}i" for r, i in values) or "-"
        lines.append(f"shift-unitary eigenvalues on P    : {fmt(shift['eigs_on_p'])}")
        lines.append(f"shift-unitary eigenvalues on P^perp: {fmt(shift['eigs_on_pperp'])}")
    return "\n".join(lines) + "\n"


def cmd_classify(args) -> int:
    band_tol = _resolve_tol(args.band_tol, "ISOPAIR_BAND_TOL", DEFAULT_BAND_TOL)
    try:
        _positive(band_tol, "band tolerance")
        obj = load_input(args.input)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = classify(obj, band_tol=band_tol)
    except ValueError as exc:
        print(f"classification failed: {exc}", file=sys.stderr)
        return 1
    payload = classification_to_json(result)
    if args.format == "json":
        _write_output(dumps_canonical(payload), args.output)
    else:
        _write_output(_classification_text(payload), args.output)
    return 0


def cmd_equiv(args) -> int:
    try:
        first = load_input(args.first)
        second = load_input(args.second)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tol = _resolve_tol(args.tol, "ISOPAIR_EQUIV_TOL", DEFAULT_BAND_TOL)
    try:
        verdict = decide_equivalence(first, second, tol=tol)
    except ValueError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    if verdict.equivalent:
        print(f"equivalent  (matching permutation: {list(verdict.matching)})")
        return 0
    print(f"not equivalent: {verdict.report.get('reason', 'invariants differ')}")
    return 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isopair",
        description="Model, analyze, classify, and compare pairs of "
                    "commuting isometries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a model and write it as JSON")
    gen.add_argument("model", choices=["random-triple", "bishift", "twisted",
                                       "izuchi", "direct-sum", "scramble"])
    gen.add_argument("inputs", nargs="*", help="input files (direct-sum, scramble)")
    gen.add_argument("--n", type=int, default=8, help="triple dimension")
    gen.add_argument("--rank-p", "--rankP", dest="rank_p", type=int, default=0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--N", "--cap", dest="cap", type=int, default=8,
                     help="truncation cap")
    gen.add_argument("--alpha", default="1", help="unimodular twist (twisted)")
    gen.add_argument("--r", type=float, default=0.5,
                     help="interior eigenvalue parameter (izuchi)")
    gen.add_argument("--gamma", default="1", help="unimodular twist (izuchi)")
    gen.add_argument("--J", dest="chain", type=int, default=None,
                     help="chain length (izuchi, default: N)")
    gen.add_argument("--K", dest="series", type=int, default=None,
                     help="series length (izuchi, default: automatic)")
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=cmd_gen)

    analyze = sub.add_parser("analyze", help="defect spectrum and rank identities")
    analyze.add_argument("input", nargs="?", default=None)
    analyze.add_argument("--trials", type=int, default=None,
                         help="run a batch of random triples instead")
    analyze.add_argument("--max-dim", type=int, default=12)
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--rank-tol", type=float, default=None)
    analyze.add_argument("--cluster-tol", type=float, default=None)
    analyze.add_argument("--format", choices=["text", "json", "csv"],
                         default="text")
    analyze.add_argument("-o", "--output", default=None)
    analyze.set_defaults(func=cmd_analyze)

    cls = sub.add_parser("classify", help="fundamental sequence and block kinds")
    cls.add_argument("input")
    cls.add_argument("--band-tol", type=float, default=None)
    cls.add_argument("--format", choices=["text", "json"], default="text")
    cls.add_argument("-o", "--output", default=None)
    cls.set_defaults(func=cmd_classify)

    equiv = sub.add_parser("equiv", help="decide joint unitary equivalence")
    equiv.add_argument("first")
    equiv.add_argument("second")
    equiv.add_argument("--tol", type=float, default=None)
    equiv.set_defaults(func=cmd_equiv)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
