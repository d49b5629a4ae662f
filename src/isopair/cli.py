"""Command-line front end: generate, analyze, classify, compare.

Exit codes are a stable contract: 0 success, 1 mathematical-check failure,
2 input/parameter error, 3 not-equivalent.  Tolerances are overridable by
flags and by ISOPAIR_-prefixed environment variables; flags win.  A
tolerance that is not a finite positive number is a parameter error.

Commands raise :class:`InputError` for an unreadable or malformed input
file, an unwritable ``-o`` path or a bad parameter, and let a
``ValueError`` from a mathematical check propagate; :func:`main` alone
turns either into one ``error:`` or ``check failed:`` line on stderr and
exit code 2 or 1.
"""

import argparse
import csv
import functools
import io
import math
import os
import re
import sys
from contextlib import contextmanager

import numpy as np

from .bcl import random_triple
from .classify import BAND_TOL, MATCH_TOL, classify, decide_equivalence, working_space
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
from .spectral import CLUSTER_TOL, rank_formula


class InputError(Exception):
    """A malformed input file or one too large for memory, an unwritable output path or a
    bad parameter (exit 2)."""


@contextmanager
def _input_errors():
    """Re-raise what reading inputs or parameters raises as :class:`InputError`."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise InputError(exc) from exc
    except RecursionError as exc:
        raise InputError(f"input is nested too deeply: {exc}") from exc
    except MemoryError as exc:
        raise InputError(f"input does not fit in memory: {exc}") from exc


def parse_complex(text: str) -> complex:
    """Parse '1+0i', '-i', '0.5i', '2', and the j-suffixed equivalents."""
    t = text.strip().replace(" ", "").lower().replace("i", "j")
    t = re.sub(r"(?<![\d.])j", "1j", t)
    try:
        return complex(t)
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None


def _tolerance(flag_value, env_name: str, default):
    """A tolerance from its flag, else ``env_name``, else ``default``; a set one is finite and > 0."""
    value = flag_value
    if value is None:
        raw = os.environ.get(env_name, "")
        if raw == "":
            return default
        try:
            value = float(raw)
        except ValueError:
            raise InputError(f"environment variable {env_name} is not a number: "
                             f"{raw!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise InputError(f"tolerance must be finite and positive, got {value} "
                         f"(flag or {env_name})")
    return value


def _write_output(text: str, path: str | None) -> None:
    if path:
        with _input_errors(), open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str):
    with _input_errors():
        return load_input(path)


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
        if len(args.inputs) != 1:
            raise ValueError(f"scramble takes exactly one input file, "
                             f"got {len(args.inputs)}")
        pair = load_input(args.inputs[0])
        if not isinstance(pair, StructuredPair):
            raise ValueError("scramble applies to structured pairs only")
        return scramble(pair, args.seed)
    raise ValueError(f"unknown model {kind!r}")


def cmd_gen(args) -> int:
    # every model parameter and input file is the caller's: any failure is exit 2
    with _input_errors():
        obj = _build_object(args)
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
    return {
        "kind": "analysis",
        "spectrum": [
            {"eigenvalue": [float(v), 0.0], "cluster": lab}
            for v, lab in zip(profile.eigenvalues, profile.clusters)
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
    rank_tol = _tolerance(args.rank_tol, "ISOPAIR_RANK_TOL", None)
    cluster_tol = _tolerance(args.cluster_tol, "ISOPAIR_CLUSTER_TOL", CLUSTER_TOL)
    if args.trials is not None:
        return _analyze_trials(args, rank_tol, cluster_tol)
    if args.input is None:
        raise InputError("provide an input file or --trials")
    report = analyze_object(_load(args.input), rank_tol, cluster_tol)
    if args.format == "json":
        _write_output(dumps_canonical(report), args.output)
    elif args.format == "csv":
        _write_output(_analysis_csv(report), args.output)
    else:
        _write_output(_analysis_text(report), args.output)
    return 0 if report["pass"] else 1


def _analyze_trials(args, rank_tol, cluster_tol) -> int:
    if args.trials < 0:
        raise InputError(f"--trials must be at least 0, got {args.trials}")
    if args.max_dim < 2:
        raise InputError(f"--max-dim must be at least 2, got {args.max_dim}")
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
    band_tol = _tolerance(args.band_tol, "ISOPAIR_BAND_TOL", BAND_TOL)
    payload = classification_to_json(classify(_load(args.input), band_tol=band_tol))
    if args.format == "json":
        _write_output(dumps_canonical(payload), args.output)
    else:
        _write_output(_classification_text(payload), args.output)
    return 0


def cmd_equiv(args) -> int:
    tol = _tolerance(args.tol, "ISOPAIR_EQUIV_TOL", MATCH_TOL)
    verdict = decide_equivalence(_load(args.first), _load(args.second), tol=tol)
    if verdict.equivalent:
        print(f"equivalent  (matching permutation: {list(verdict.matching)})")
        return 0
    print(f"not equivalent: {verdict.report.get('reason', 'invariants differ')}")
    return 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
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
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
