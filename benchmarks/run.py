"""isopair benchmark: one workload per run, one caller, answers checked.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload triple_stream --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all            # every workload, one process each
    python3 benchmarks/run.py --self-test               # the gate must catch wrong answers

``isopair`` is imported from the checkout's ``src/``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``.  End-to-end
times are scaled to the reference speed of ``harness.SpeedProbe``.  The
line before it, starting ``detail``, records the environment, sample
counts, tails, per-operation figures and the unscaled times.  See
``benchmarks/README.md``.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: BLAS threads, capped at the CPUs available.  One thread keeps run-to-run
#: spread low on a shared machine; the matrices here are at most a few
#: hundred wide, where more threads gain little.
BLAS_THREADS = 1

#: Set-up is repeated at least this many times per run, and until this many
#: seconds have been spent on it; the median is reported.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0

WORKLOAD_NAMES = ("triple_stream", "dense_scrambled", "structured_sweep")
OP_KINDS = ("verify", "classify", "equiv", "build", "write", "read", "cli")


def fix_blas_threads() -> tuple[int, int]:
    """Pin the BLAS thread count; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(threads)
    # the CLI reads tolerances from ISOPAIR_* variables; use its defaults
    for var in [v for v in os.environ if v.startswith("ISOPAIR_")]:
        del os.environ[var]
    return threads, nproc


def import_isopair():
    """Import ``isopair`` from ``src/`` of this checkout, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import isopair

    location = Path(isopair.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"isopair imported from {location}, not from {src}")
    return isopair


def end_to_end(outcome, probe, setup, sizes) -> dict:
    """End-to-end metrics, every time scaled to reference speed."""
    from harness import median, peak_rss_mb

    latencies, _, walls = outcome.at_speed(probe)
    setup_times = [seconds * probe.factor(at) for at, seconds in setup]
    metrics = {
        "setup_s": (median(setup_times), "s", len(setup_times)),
        "wall_s": (median(walls), "s", len(walls)),
    }
    for kind in OP_KINDS:
        samples = latencies.get(kind, [])
        metrics[f"{kind}_p50_ms"] = (1e3 * median(samples), "ms", len(samples))
    metrics["json_mb"] = (sum(sizes.values()) / 1e6, "MB", len(walls))
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    return metrics


def measured(outcome, setup) -> dict:
    """The same timings as measured, before scaling, for the detail record."""
    from harness import median

    out = {"setup_s": median([seconds for _, seconds in setup]),
           "wall_s": median(outcome.pass_walls)}
    for kind in OP_KINDS:
        if kind in outcome.latencies:
            out[f"{kind}_p50_ms"] = 1e3 * median(outcome.latencies[kind])
    return out


def tails(latencies) -> dict:
    from harness import tail

    out = {}
    for kind in OP_KINDS:
        found = tail(latencies.get(kind, []))
        if found is not None:
            pct, value = found
            out[f"{kind}_tail_ms"] = {"value": 1e3 * value, "unit": "ms",
                                      "percentile": round(pct, 2),
                                      "samples": len(latencies[kind])}
    return out


def per_op(by_label, ops) -> dict:
    from harness import median

    dims = {op.label: op.dims for op in ops}
    return {label: {"samples": len(v), "p50_ms": 1e3 * median(v),
                    "dim": dims[label][0], "interior_dim": dims[label][1]}
            for label, v in sorted(by_label.items())}


def per_layer(tracer, traced_walls, untraced_walls, sizes) -> tuple[dict, dict]:
    """Layer busy times per traced pass, and the full span table."""
    from harness import median

    passes = len(traced_walls)
    busy = {name: sec / passes for name, sec in tracer.durations().items()}
    selfs = {name: sec / passes for name, sec in tracer.self_times().items()}
    calls = tracer.calls()

    def excess(total_name, part_name):
        total, part = tracer.per_op(total_name), tracer.per_op(part_name)
        return sum(t - part.get(op_id, 0.0) for op_id, t in total.items()) / passes

    derived = {
        "classify.equiv_excess": excess("classify.decide_equivalence", "classify.classify"),
        "cli.overhead": excess("cli.main", "cli.library"),
    }
    traced_wall = median(traced_walls)
    overhead = traced_wall - median(untraced_walls)

    def ms(name):
        return 1e3 * (derived[name] if name in derived else busy.get(name, 0.0))

    metrics = {
        "linalg.hermitian_eig_ms": ms("linalg.hermitian_eig"),
        "linalg.numerical_rank_ms": ms("linalg.numerical_rank"),
        "working.defect_cross_ms": ms("bcl.wandering_projections")
        + ms("models.defect_and_cross"),
        "working.validate_ms": ms("bcl.validate_triple") + ms("models.validate_pair"),
        "classify.normality_ms": ms("classify.normality"),
        "classify.e1_ms": ms("classify.e1"),
        "classify.fundamental_sequence_ms": ms("classify.fundamental_sequence"),
        "classify.shift_unitary_ms": ms("classify.shift_unitary"),
        "classify.equiv_excess_ms": ms("classify.equiv_excess"),
        "serialize.encode_ms": ms("serialize.encode"),
        "serialize.decode_ms": ms("serialize.decode"),
        "serialize.bytes": float(sum(sizes.values())),
        "cli.overhead_ms": ms("cli.overhead"),
        "trace.overhead_ms": 1e3 * overhead,
    }
    units = {name: ("bytes" if name == "serialize.bytes" else "ms") for name in metrics}
    layers = {}
    for name in sorted(set(busy) | set(derived)):
        busy_s = derived.get(name, busy.get(name, 0.0))
        layers[name + "_ms"] = {
            "busy_ms": 1e3 * busy_s,
            "self_ms": 1e3 * selfs.get(name, busy_s),
            "calls": calls.get(name, 0) / passes,
            "share_of_wall": busy_s / traced_wall if traced_wall else None,
        }
    table = {
        "traced_passes": passes,
        "untraced_wall_s": median(untraced_walls),
        "traced_wall_s": traced_wall,
        "overhead_s": overhead,
        "overhead_share": overhead / median(untraced_walls),
        "layers": layers,
    }
    return {k: (v, units[k], passes) for k, v in metrics.items()}, table


def run_workload(args, threads, nproc) -> int:
    from harness import (Outcome, SpeedProbe, Tracer, environment, median, run_pass,
                         warm_up)
    from workloads import WORKLOADS

    build = WORKLOADS[args.workload]
    outcome = Outcome()
    probe = SpeedProbe()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        setup = []  # (midpoint, seconds) of each set-up
        while len(setup) < SETUP_REPEATS or sum(t for _, t in setup) < SETUP_SECONDS:
            probe.sample()
            start = time.perf_counter()
            ops, sizes = build(args.seed, Path(tmp))
            warm_up(ops, outcome)
            end = time.perf_counter()
            setup.append((0.5 * (start + end), end - start))
        probe.sample()

        start = time.perf_counter()
        if args.trace:
            tracer = Tracer()
            traced = []
            while not traced or time.perf_counter() - start < args.seconds:
                results: list = []
                run_pass(ops, outcome, results=results)
                traced.append(run_pass(ops, outcome, tracer, results=results))
            metrics, table = per_layer(tracer, traced, outcome.pass_walls, sizes)
            if args.spans:
                tracer.dump(Path(args.spans))
        else:
            while not outcome.pass_walls or time.perf_counter() - start < args.seconds:
                run_pass(ops, outcome, probe=probe)
            metrics, table = end_to_end(outcome, probe, setup, sizes), None

    detail = {
        "workload": args.workload,
        "mode": "traced" if args.trace else "untraced",
        "environment": environment(ROOT, threads, nproc, args.seed),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_frac": outcome.failed / outcome.attempted,
        "failures": outcome.failures,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
    }
    if args.trace:
        detail["trace"] = table
    else:
        latencies, by_label, _ = outcome.at_speed(probe)
        detail["tails"] = tails(latencies)
        detail["per_op"] = per_op(by_label, ops)
        detail["measured"] = measured(outcome, setup)
        detail["probe"] = {"samples": len(probe.seconds),
                           "median_ms": 1e3 * median(probe.seconds),
                           "reference_ms": 1e3 * probe.REFERENCE_S}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"{outcome.attempted} ops, {outcome.failed} failed")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit:6s} (n={samples})")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0


def self_test(args) -> int:
    """Feed one wrong reference per operation kind; the gate must flag each."""
    from harness import Outcome, run_pass
    from workloads import WORKLOADS

    ok = True
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        for name in WORKLOAD_NAMES:
            ops, _ = WORKLOADS[name](args.seed, Path(tmp), wrong=True)
            outcome = Outcome()
            run_pass(ops, outcome)
            kinds = {op.kind for op in ops}
            caught = outcome.failed == len(kinds)
            ok &= caught
            print(f"self-test {name}: {outcome.failed}/{outcome.attempted} ops failed "
                  f"(failed_frac {outcome.failed / outcome.attempted:.4f}), "
                  f"expected {len(kinds)}: {'PASS' if caught else 'FAIL'}")
            for line in outcome.failures:
                print(f"    {line}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per run; whole passes, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, also write the raw spans to this file")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    threads, nproc = fix_blas_threads()
    try:
        import_isopair()
    except ImportError as exc:
        print(f"error: cannot import isopair from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, threads, nproc)


if __name__ == "__main__":
    sys.exit(main())
