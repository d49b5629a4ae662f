"""The three benchmark workloads: seeded inputs, operations, references.

Every input is generated from the workload seed, and every operation is
checked against an answer known by construction (a theorem for the rank
identities and the oracle, the construction parameters for classification
and equivalence, the original object for a JSON round trip).  Tolerances
are the acceptance suite's: 1e-12 for the oracle, 1e-8 for spectra, 1e-6
for fundamental sequences and equivalence matching.

``bad=True`` on an operation maker swaps in a deliberately wrong reference;
the self-test uses it to show that the gate catches a wrong answer.
"""

import contextlib
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from isopair.bcl import BCLTriple, random_triple, validate_triple, wandering_projections
from isopair.classify import (
    ONE_FINITE,
    THREE_FINITE,
    TWO_FINITE,
    check_compact_normal,
    classify,
    decide_equivalence,
    e1_data,
    fundamental_sequence,
    shift_unitary_invariant,
)
from isopair.cli import main as cli_main
from isopair.izuchi import build_izuchi_model, verify_izuchi_invariants
from isopair.linalg import hermitian_eig, numerical_rank, random_unitary
from isopair.models import (
    StructuredPair,
    bishift_truncated,
    defect_and_cross_on_interior,
    direct_sum,
    scramble,
    twisted_shift,
    validate_pair,
)
from isopair.serialize import (
    classification_to_json,
    dumps_canonical,
    from_json,
    load_input,
    to_json,
)
from isopair.spectral import RankFormulaReport, check_rank_formula, spectral_profile
from isopair.toeplitz import build_truncated_pair, degree_zero_block, oracle_cross_and_defect

from harness import Op

ORACLE_TOL = 1e-12
SPECTRUM_TOL = 1e-8
SEQUENCE_TOL = 1e-6

#: Degree cap of the truncated-operator oracle (acceptance 3).
ORACLE_CAP = 4


# ---------------------------------------------------------------------------
# reference checks
# ---------------------------------------------------------------------------

def multiset_gap(got, want) -> float:
    """Largest gap of the best one-to-one matching of two complex multisets."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return float("inf")
    if got.size == 0:
        return 0.0
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def classification_reason(result, kinds, sequence, on_p=(), on_pperp=()) -> str | None:
    if result.k != len(kinds):
        return f"k = {result.k}, expected {len(kinds)}"
    if sorted(b.kind for b in result.blocks) != sorted(kinds):
        return f"block kinds {sorted(b.kind for b in result.blocks)}"
    gap = multiset_gap(result.fundamental_sequence, sequence)
    if gap > SEQUENCE_TOL:
        return f"fundamental sequence off by {gap:.3e}"
    su = result.shift_unitary
    for name, got, want in (("on P", su.eigs_on_p, on_p),
                            ("on P-perp", su.eigs_on_pperp, on_pperp)):
        gap = multiset_gap(got, want)
        if gap > SEQUENCE_TOL:
            return f"shift-unitary spectrum {name} off by {gap:.3e}"
    return None


def same_classification(a, b) -> bool:
    return (a.k == b.k
            and multiset_gap(a.fundamental_sequence, b.fundamental_sequence) <= 1e-10
            and multiset_gap(a.shift_unitary.eigs_on_p, b.shift_unitary.eigs_on_p) <= 1e-10
            and multiset_gap(a.shift_unitary.eigs_on_pperp,
                             b.shift_unitary.eigs_on_pperp) <= 1e-10)


def same_objects(a, b) -> bool:
    """Exact equality of two triples or two structured pairs."""
    if type(a) is not type(b) or a.dim != b.dim:
        return False
    if isinstance(a, BCLTriple):
        return (np.array_equal(a.unitary, b.unitary)
                and np.array_equal(a.projection, b.projection))
    return (np.array_equal(a.v1, b.v1) and np.array_equal(a.v2, b.v2)
            and a.basis_labels == b.basis_labels and a.interior == b.interior
            and a.provenance == b.provenance)


def dims_of(obj) -> tuple[int, int]:
    if isinstance(obj, StructuredPair):
        return obj.dim, obj.interior_dim
    return obj.dim, obj.dim


def perturbed(obj):
    """A copy of ``obj`` with one matrix entry moved, for wrong references."""
    if isinstance(obj, BCLTriple):
        u = obj.unitary.copy()
        u[0, 0] += 1e-3
        return BCLTriple(obj.dim, u, obj.projection)
    v1 = obj.v1.copy()
    v1[0, 0] += 1e-3
    return replace(obj, v1=v1)


# ---------------------------------------------------------------------------
# operations shared by the workloads
# ---------------------------------------------------------------------------

def _rank_formula_traced(tr, triple):
    """``check_rank_formula`` as its public stage calls, one span each.

    Returns the report and the wandering operators it was computed from.
    """
    with tr.span("spectral.check_rank_formula"):
        with tr.span("bcl.wandering_projections"):
            ops = wandering_projections(triple)
        with tr.span("linalg.numerical_rank"):
            rank_defect = numerical_rank(ops.defect)
        with tr.span("linalg.numerical_rank"):
            rank_cross = numerical_rank(ops.cross)
        with tr.span("spectral.spectral_profile"):
            profile = spectral_profile(ops.defect)
        return ops, RankFormulaReport(
            rank_defect=rank_defect,
            rank_cross=rank_cross,
            dim_plus1=profile.dim_plus1,
            dim_minus1=profile.dim_minus1,
            dim_kplus=profile.dim_kplus,
            sum_identity_ok=(
                rank_defect == rank_cross + profile.dim_plus1 + profile.dim_kplus),
            difference_identity_ok=(
                rank_defect == 2 * rank_cross + profile.dim_plus1 - profile.dim_minus1),
        )


def _unit_costs(tr, obj) -> None:
    """Single timed calls giving unit layer costs on the working defect."""
    with tr.span("classify.e1"):
        e1_data(obj)
    if isinstance(obj, BCLTriple):
        with tr.span("bcl.validate_triple"):
            validate_triple(obj)
        with tr.span("bcl.wandering_projections"):
            defect = wandering_projections(obj).defect
    else:
        with tr.span("models.validate_pair"):
            validate_pair(obj)
        with tr.span("models.defect_and_cross"):
            defect, _ = defect_and_cross_on_interior(obj)
    with tr.span("linalg.hermitian_eig"):
        hermitian_eig(defect)
    with tr.span("linalg.numerical_rank"):
        numerical_rank(defect)


def verify_triple_op(triple, label, full: bool, bad: bool = False) -> Op:
    """Rank identities; with ``full`` also interior symmetry and the oracle.

    The reference is the theorem: both identities hold, the interior
    spectrum is symmetric, and the oracle's degree-0 block equals the
    closed forms with nothing outside it.  A wrong reference expects the
    identities to fail.
    """
    expect_hold = not bad
    n = triple.dim

    def run():
        report = check_rank_formula(triple)
        if not full:
            return report, None
        ops = wandering_projections(triple)
        profile = spectral_profile(ops.defect)
        c_full, x_full = oracle_cross_and_defect(build_truncated_pair(triple, ORACLE_CAP))
        return report, (ops, profile, c_full, x_full)

    def traced(tr):
        ops, report = _rank_formula_traced(tr, triple)
        with tr.span("bcl.validate_triple"):
            validate_triple(triple)
        with tr.span("linalg.hermitian_eig"):
            hermitian_eig(ops.defect)
        if not full:
            return report, None
        with tr.span("spectral.symmetry"):
            with tr.span("bcl.wandering_projections"):
                ops = wandering_projections(triple)
            with tr.span("spectral.spectral_profile"):
                profile = spectral_profile(ops.defect)
        with tr.span("toeplitz.oracle"):
            c_full, x_full = oracle_cross_and_defect(
                build_truncated_pair(triple, ORACLE_CAP))
        return report, (ops, profile, c_full, x_full)

    def check(result):
        report, extra = result
        if report.both_identities_hold != expect_hold:
            return f"rank identities hold = {report.both_identities_hold}"
        if extra is None:
            return None
        ops, profile, c_full, x_full = extra
        if not profile.symmetric or any(p.mult_pos != p.mult_neg
                                        for p in profile.interior_pairs):
            return "interior spectrum not symmetric"
        gap = max(float(np.linalg.norm(degree_zero_block(c_full, n) - ops.defect)),
                  float(np.linalg.norm(degree_zero_block(x_full, n) - ops.cross)))
        outside = 0.0
        for full_op in (c_full, x_full):
            rest = full_op.copy()
            rest[:n, :n] = 0.0
            outside = max(outside, float(np.abs(rest).max()))
        if gap > ORACLE_TOL or outside > ORACLE_TOL:
            return f"oracle gap {gap:.2e}, off-block {outside:.2e}"
        return None

    return Op("verify", label, dims_of(triple), run, check, traced,
              same=lambda a, b: a[0] == b[0])


def classify_op(obj, label, kinds, sequence, on_p=(), on_pperp=(),
                bad: bool = False) -> Op:
    if bad:
        sequence = [z + 0.01 for z in sequence]

    def traced(tr):
        with tr.span("classify.normality"):
            report = check_compact_normal(obj)
        if not report.ok:
            raise ValueError("input is not compact normal")
        with tr.span("classify.fundamental_sequence"):
            result = fundamental_sequence(obj)
        with tr.span("classify.shift_unitary"):
            shift = shift_unitary_invariant(obj)
        _unit_costs(tr, obj)
        return replace(result, shift_unitary=shift)

    return Op("classify", label, dims_of(obj), lambda: classify(obj),
              lambda r: classification_reason(r, kinds, sequence, on_p, on_pperp),
              traced, same=same_classification)


def equiv_op(a, b, label, expect: bool, bad: bool = False) -> Op:
    if bad:
        expect = not expect

    def traced(tr):
        with tr.span("classify.decide_equivalence"):
            verdict = decide_equivalence(a, b)
        # the excess of decide_equivalence over these two is its own work
        with tr.span("classify.classify"):
            classify(a)
        with tr.span("classify.classify"):
            classify(b)
        return verdict

    def check(verdict):
        if verdict.equivalent != expect:
            return f"equivalent = {verdict.equivalent}: {verdict.report.get('reason')}"
        return None

    return Op("equiv", label, dims_of(a), lambda: decide_equivalence(a, b), check,
              traced, same=lambda x, y: x.equivalent == y.equivalent)


def io_ops(obj, path: Path, label, sizes: dict, bad: bool = False) -> list[Op]:
    """A write op and the read op that loads the file back."""
    expected = perturbed(obj) if bad else obj
    kind = "bcl_triple" if isinstance(obj, BCLTriple) else "structured_pair"
    expected_kind = "wrong_kind" if bad else kind

    def encode():
        return dumps_canonical(to_json(obj))

    def run_write():
        text = encode()
        path.write_text(text, encoding="ascii")
        sizes[label] = len(text)
        return len(text)

    def traced_write(tr):
        with tr.span("serialize.encode"):
            text = encode()
        with tr.span("io.write"):
            path.write_text(text, encoding="ascii")
        sizes[label] = len(text)
        return len(text)

    def check_write(size):
        if path.stat().st_size != size:
            return "file size differs from the encoded size"
        with path.open(encoding="ascii") as handle:
            head = json.load(handle)
        if head.get("kind") != expected_kind or head.get("dim") != obj.dim:
            return f"file holds kind {head.get('kind')!r}, dim {head.get('dim')}"
        return None

    def traced_read(tr):
        with tr.span("io.read"):
            text = path.read_text(encoding="ascii")
        with tr.span("serialize.decode"):
            return from_json(json.loads(text))

    def check_read(loaded):
        return None if same_objects(loaded, expected) else "round trip changed the object"

    dims = dims_of(obj)
    return [
        Op("write", "write." + label, dims, run_write, check_write, traced_write,
           same=lambda x, y: x == y),
        Op("read", "read." + label, dims, lambda: load_input(str(path)), check_read,
           traced_read, same=same_objects),
    ]


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli_main(argv)


def _cli_traced(argv, library):
    """The command, and the library calls it wraps on the same files.

    The two run in alternating order from call to call, so that neither
    always finds the files and allocator warm from the other.
    """
    calls = [0]

    def traced(tr):
        calls[0] += 1
        if calls[0] % 2 == 0:
            with tr.span("cli.library"):
                library()
        with tr.span("cli.main"):
            code = _quiet_cli(argv)
        if calls[0] % 2 == 1:
            with tr.span("cli.library"):
                library()
        return code

    return traced


def cli_classify_op(path: Path, out: Path, label, dims, kinds, sequence,
                    bad: bool = False) -> Op:
    """``isopair classify FILE --format json -o OUT``, run in-process."""
    if bad:
        sequence = [z + 0.01 for z in sequence]
    argv = ["classify", str(path), "--format", "json", "-o", str(out)]
    library_out = out.with_name(out.stem + ".library.json")

    def library():
        obj = load_input(str(path))
        text = dumps_canonical(classification_to_json(classify(obj)))
        library_out.write_text(text, encoding="ascii")

    def check(code):
        if code != 0:
            return f"exit code {code}, expected 0"
        payload = json.loads(out.read_text(encoding="ascii"))
        got = [complex(re, im) for re, im in payload["fundamental_sequence"]]
        gap = multiset_gap(got, sequence)
        if payload["k"] != len(kinds) or gap > SEQUENCE_TOL:
            return f"k = {payload['k']}, sequence off by {gap:.3e}"
        return None

    return Op("cli", label, dims, lambda: _quiet_cli(argv), check,
              _cli_traced(argv, library), same=lambda x, y: x == y)


def cli_equiv_op(first: Path, second: Path, label, dims, expect: bool,
                 bad: bool = False) -> Op:
    """``isopair equiv A B``: exit code 0 when equivalent, 3 when not."""
    if bad:
        expect = not expect
    argv = ["equiv", str(first), str(second)]
    want = 0 if expect else 3

    def library():
        decide_equivalence(load_input(str(first)), load_input(str(second)))

    def check(code):
        return None if code == want else f"exit code {code}, expected {want}"

    return Op("cli", label, dims, lambda: _quiet_cli(argv), check,
              _cli_traced(argv, library), same=lambda x, y: x == y)


def write_input(obj, path: Path) -> Path:
    path.write_text(dumps_canonical(to_json(obj)), encoding="ascii")
    return path


def interleave(groups: list[list]) -> list[Op]:
    """Spread each group's units evenly over the pass, then flatten.

    A unit is a list of operations that must run back to back, such as a
    write and the read of the same file.
    """
    keyed = []
    for g, units in enumerate(groups):
        for i, unit in enumerate(units):
            keyed.append(((i + 0.5) / len(units), g, unit))
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [op for _, _, unit in keyed for op in unit]


def _seeds(rng, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2 ** 31, size=count)]


# ---------------------------------------------------------------------------
# triple_stream: thousands of small triples, per-call overhead
# ---------------------------------------------------------------------------

TRIPLE_VERIFY = 900
#: Compact-normal triples per pass; each is classified and compared once.
TRIPLE_CASES = 90
TRIPLE_BUILD = 180
TRIPLE_IO = 36
TRIPLE_CLI = 24


def _compact_normal_params(rng, m: int, r: int):
    return (np.exp(2j * np.pi * rng.uniform(size=m)),
            np.exp(2j * np.pi * rng.uniform(size=r)),
            rng.integers(0, 2, size=r))


def compact_normal_triple(alphas, phases, bits, w) -> BCLTriple:
    """Two-finite blocks ``[[0,1],[alpha,0]]`` plus a diagonal commuting part.

    Conjugated by ``w``.  Its invariants are known by construction: one
    two-finite block per alpha with sequence entry ``conj(alpha)``, and the
    residual unitary's eigenvalues split by the projection bits.
    """
    m, r = len(alphas), len(phases)
    n = 2 * m + r
    u = np.zeros((n, n), dtype=complex)
    p = np.zeros((n, n), dtype=complex)
    for j, alpha in enumerate(alphas):
        u[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[0.0, 1.0], [alpha, 0.0]]
        p[2 * j, 2 * j] = 1.0
    u[2 * m:, 2 * m:] = np.diag(phases)
    p[2 * m:, 2 * m:] = np.diag(bits.astype(float))
    wh = w.conj().T
    return BCLTriple(n, w @ u @ wh, w @ p @ wh)


def triple_stream(seed: int, tmp: Path, wrong: bool = False) -> tuple[list[Op], dict]:
    rng = np.random.default_rng(seed)

    verify, build = [], []
    for i, s in enumerate(_seeds(rng, TRIPLE_VERIFY)):
        dim = 2 + i % 15
        rank = int(rng.integers(0, dim + 1))
        triple = random_triple(dim, rank, s)
        label = f"verify.triple.d{dim:02d}"
        verify.append([verify_triple_op(triple, label, full=True, bad=wrong and i == 0)])
        if i < TRIPLE_BUILD:
            build.append([_triple_build_op(dim, rank, s, triple, wrong and i == 0)])

    cases = []
    for i in range(TRIPLE_CASES):
        m, r = 1 + i % 8, i % 9
        alphas, phases, bits = _compact_normal_params(rng, m, r)
        triple = compact_normal_triple(alphas, phases, bits, random_unitary(2 * m + r, rng))
        ref = dict(kinds=[TWO_FINITE] * m, sequence=list(np.conj(alphas)),
                   on_p=list(phases[bits == 1]), on_pperp=list(phases[bits == 0]))
        if i % 2 == 0:
            other = compact_normal_triple(alphas, phases, bits,
                                          random_unitary(2 * m + r, rng))
        else:
            moved = alphas.copy()
            moved[0] *= np.exp(1j * rng.uniform(0.5, 2 * np.pi - 0.5))
            other = compact_normal_triple(moved, phases, bits,
                                          random_unitary(2 * m + r, rng))
        cases.append((triple, other, i % 2 == 0, ref))

    classify_units = [[classify_op(t, f"classify.triple.d{t.dim:02d}", bad=wrong and i == 0,
                                   **ref)]
                      for i, (t, _, _, ref) in enumerate(cases)]
    equiv_units = [[equiv_op(t, o, f"equiv.triple.d{t.dim:02d}", expect,
                             bad=wrong and i == 0)]
                   for i, (t, o, expect, _) in enumerate(cases)]

    sizes: dict = {}
    io_units = [io_ops(t, tmp / f"io{i}.json", f"triple.{i:03d}", sizes,
                       bad=wrong and i == 0)
                for i, (t, _, _, _) in enumerate(cases[:TRIPLE_IO])]

    cli_units = []
    for i, (t, o, expect, ref) in enumerate(cases[:TRIPLE_CLI]):
        a = write_input(t, tmp / f"cli{i}a.json")
        # two equiv runs for each classify run keep the median off the
        # boundary between the two commands' latencies
        if i % 3 == 0:
            op = cli_classify_op(a, tmp / f"cli{i}out.json", f"cli.classify.triple.d{t.dim:02d}",
                                 dims_of(t), ref["kinds"], ref["sequence"],
                                 bad=wrong and i == 0)
        else:
            b = write_input(o, tmp / f"cli{i}b.json")
            op = cli_equiv_op(a, b, f"cli.equiv.triple.d{t.dim:02d}", dims_of(t), expect)
        cli_units.append([op])

    ops = interleave([verify, classify_units, equiv_units, build, io_units, cli_units])
    return ops, sizes


def _triple_build_op(dim, rank, seed, reference, bad) -> Op:
    """``random_triple`` then ``validate_triple``; must rebuild the same triple."""
    expected = perturbed(reference) if bad else reference

    def run():
        triple = random_triple(dim, rank, seed)
        return triple, validate_triple(triple)

    def traced(tr):
        with tr.span("bcl.random_triple"):
            triple = random_triple(dim, rank, seed)
        with tr.span("bcl.validate_triple"):
            return triple, validate_triple(triple)

    def check(result):
        triple, validation = result
        if not validation.ok:
            return f"invalid triple, residuals {validation.residuals}"
        return None if same_objects(triple, expected) else "rebuilt triple differs"

    return Op("build", f"build.triple.d{dim:02d}", (dim, dim), run, check, traced,
              same=lambda a, b: same_objects(a[0], b[0]))


# ---------------------------------------------------------------------------
# dense_scrambled: Haar-scrambled mixed sums, every operator dense
# ---------------------------------------------------------------------------

DENSE_CLASSIFY = 8
DENSE_EQUIV = 6
DENSE_VERIFY_DIMS = (64, 128, 256)
#: Rank of P as a share of the dimension; the cost of the rank check grows
#: with the number of interior eigenvalue pairs, so ranks are fixed shares.
DENSE_VERIFY_RANKS = (0.25, 0.5, 0.75)
DENSE_BUILD = 4
DENSE_IO = 6

#: The acceptance-6 mixed sum: its invariants, and the twist a variant moves.
MIXED_KINDS = [ONE_FINITE, TWO_FINITE, TWO_FINITE, THREE_FINITE]
MIXED_SEQUENCE = [0j, 1 + 0j, np.exp(-1j * np.pi / 3), 0.5j]
MIXED_TWIST = np.exp(1j * np.pi / 3)
VARIANT_TWIST = np.exp(1j * np.pi / 4)


def mixed_sum(twist) -> StructuredPair:
    return direct_sum([
        bishift_truncated(6),
        twisted_shift(1.0, 6),
        twisted_shift(twist, 6),
        build_izuchi_model(0.5, 1j, 8, 8).pair,
    ])


def _dense_build_op(seed, reference, bad) -> Op:
    """Build the mixed sum from its parts and scramble it with ``seed``."""
    expected = perturbed(reference) if bad else reference

    def traced(tr):
        with tr.span("izuchi.build"):
            model = build_izuchi_model(0.5, 1j, 8, 8)
        with tr.span("models.direct_sum"):
            pair = direct_sum([bishift_truncated(6), twisted_shift(1.0, 6),
                               twisted_shift(MIXED_TWIST, 6), model.pair])
        with tr.span("models.scramble"):
            return scramble(pair, seed)

    def check(pair):
        return None if same_objects(pair, expected) else "rebuilt scramble differs"

    return Op("build", "build.mixed_sum", dims_of(reference),
              lambda: scramble(mixed_sum(MIXED_TWIST), seed), check, traced,
              same=same_objects)


def dense_scrambled(seed: int, tmp: Path, wrong: bool = False) -> tuple[list[Op], dict]:
    rng = np.random.default_rng(seed)
    base = mixed_sum(MIXED_TWIST)
    variant = mixed_sum(VARIANT_TWIST)
    scramble_seeds = _seeds(rng, DENSE_CLASSIFY)
    scrambles = [scramble(base, s) for s in scramble_seeds]
    variants = [scramble(variant, s) for s in _seeds(rng, DENSE_EQUIV)]
    ref = dict(kinds=MIXED_KINDS, sequence=MIXED_SEQUENCE)

    classify_units = [[classify_op(p, "classify.mixed_sum", bad=wrong and i == 0, **ref)]
                      for i, p in enumerate(scrambles)]
    equiv_units = []
    for i in range(DENSE_EQUIV):
        a = scrambles[i % len(scrambles)]
        if i % 2 == 0:
            b, expect = scrambles[(i + 1) % len(scrambles)], True
        else:
            b, expect = variants[i], False
        label = "equiv.mixed_sum." + ("same" if expect else "variant")
        equiv_units.append([equiv_op(a, b, label, expect, bad=wrong and i == 0)])

    verify_units = []
    shapes = [(d, int(f * d)) for d in DENSE_VERIFY_DIMS for f in DENSE_VERIFY_RANKS]
    for i, ((dim, rank), s) in enumerate(zip(shapes, _seeds(rng, len(shapes)))):
        triple = random_triple(dim, rank, s)
        verify_units.append([verify_triple_op(triple, f"verify.triple.d{dim}", full=False,
                                              bad=wrong and i == 0)])

    build_units = [[_dense_build_op(scramble_seeds[i], scrambles[i], wrong and i == 0)]
                   for i in range(DENSE_BUILD)]

    sizes: dict = {}
    io_units = [io_ops(scrambles[i], tmp / f"io{i}.json", f"mixed_sum.{i}", sizes,
                       bad=wrong and i == 0)
                for i in range(DENSE_IO)]

    a = write_input(scrambles[0], tmp / "cli_a.json")
    b = write_input(scrambles[1], tmp / "cli_b.json")
    c = write_input(variants[1], tmp / "cli_c.json")
    dims = dims_of(scrambles[0])
    # Only ``equiv`` here: its two verdicts cost the same, so the median sits
    # inside one cluster of samples, not on the edge of a cheaper command's.
    # The other workloads time ``classify`` through the CLI.  Each command
    # twice per pass, for enough samples of these slow runs.
    cli_units = [
        [cli_equiv_op(a, b, "cli.equiv.mixed_sum.same", dims, True, bad=wrong and j == 0),
         cli_equiv_op(a, c, "cli.equiv.mixed_sum.variant", dims, False)]
        for j in range(2)
    ]

    ops = interleave([classify_units, equiv_units, verify_units, build_units,
                      io_units, cli_units])
    return ops, sizes


# ---------------------------------------------------------------------------
# structured_sweep: sparse structured models across truncation caps
# ---------------------------------------------------------------------------

RATIO = 0.5
BUILD_CAP = 50
#: Nine classify inputs.  Cap 15 comes once per twist, so the median falls
#: inside the cluster of cap-15 models and the cap-15 bishift, whose costs
#: are close, and not on the wide gap between two inputs of different cost.
IZUCHI_CLASSIFY_CAPS = (10, 13, 15, 15, 15, 20)
BISHIFT_CLASSIFY_CAPS = (10, 15, 20)
EQUIV_CAPS = (10, 13)
IO_CAP = 13
TWISTS = 3


def _structured_build_ops(twist, slot: dict, bad: bool) -> list[Op]:
    """Build the cap-50 model, then verify its invariants (acceptance 5)."""
    beta = RATIO * twist
    expected_twist = twist * np.exp(0.01j) if bad else twist
    if bad:
        beta += 0.01
    dim = BUILD_CAP * BUILD_CAP + BUILD_CAP
    interior = (BUILD_CAP - 2) ** 2 + BUILD_CAP - 2

    def build():
        slot.clear()
        model = build_izuchi_model(RATIO, twist, BUILD_CAP, BUILD_CAP, BUILD_CAP)
        slot["model"] = model
        return model

    def traced_build(tr):
        slot.clear()
        with tr.span("izuchi.build"):
            model = build_izuchi_model(RATIO, twist, BUILD_CAP, BUILD_CAP, BUILD_CAP)
        slot["model"] = model
        return model

    def check_build(model):
        pair = model.pair
        if (pair.dim, pair.interior_dim) != (dim, interior):
            return f"model has dim {pair.dim}, interior {pair.interior_dim}"
        if model.twist != expected_twist:
            return f"model twist {model.twist}, expected {expected_twist}"
        return None

    def traced_verify(tr):
        with tr.span("izuchi.verify"):
            return verify_izuchi_invariants(slot["model"], tol=SPECTRUM_TOL)

    def check_verify(rep):
        if not rep.ok or rep.cross_rank != 1 or (rep.dim_plus1, rep.dim_minus1) != (1, 0):
            return f"invariants fail: {rep.residuals}"
        if abs(rep.cross_eigenvalue - beta) > SPECTRUM_TOL:
            return f"cross eigenvalue {rep.cross_eigenvalue}, expected {beta}"
        if not np.allclose(rep.defect_nonzero, (1.0, RATIO, -RATIO), atol=SPECTRUM_TOL):
            return f"defect spectrum {rep.defect_nonzero}"
        return None

    dims = (dim, interior)
    return [
        Op("build", f"build.izuchi.cap{BUILD_CAP}", dims, build, check_build,
           traced_build, same=lambda a, b: a.pair.dim == b.pair.dim),
        Op("verify", f"verify.izuchi.cap{BUILD_CAP}", dims,
           lambda: verify_izuchi_invariants(slot["model"], tol=SPECTRUM_TOL),
           check_verify, traced_verify,
           same=lambda a, b: abs(a.cross_eigenvalue - b.cross_eigenvalue) <= 1e-10),
    ]


def structured_sweep(seed: int, tmp: Path, wrong: bool = False) -> tuple[list[Op], dict]:
    rng = np.random.default_rng(seed)
    # evenly spaced twists with a seeded offset, so distinct twists stay
    # far apart compared with the matching tolerance
    offset = rng.uniform(0, 2 * np.pi)
    twists = [complex(np.exp(1j * (offset + 2 * np.pi * k / TWISTS))) for k in range(TWISTS)]

    def model(k, cap):
        return build_izuchi_model(RATIO, twists[k], cap, cap).pair

    slot: dict = {}
    build_units = [_structured_build_ops(twists[k], slot, wrong and k == 0)
                   for k in range(TWISTS)]

    classify_units = []
    for i, cap in enumerate(IZUCHI_CLASSIFY_CAPS):
        k = i % TWISTS
        classify_units.append([classify_op(
            model(k, cap), f"classify.izuchi.cap{cap}", [THREE_FINITE], [RATIO * twists[k]],
            bad=wrong and i == 0)])
    for cap in BISHIFT_CLASSIFY_CAPS:
        classify_units.append([classify_op(
            bishift_truncated(cap), f"classify.bishift.cap{cap}", [ONE_FINITE], [0j])])

    low = [model(k, EQUIV_CAPS[0]) for k in range(TWISTS)]
    high = [model(k, EQUIV_CAPS[1]) for k in range(TWISTS)]
    equiv_units = [[equiv_op(low[i], high[j], f"equiv.izuchi.cap{EQUIV_CAPS[0]}"
                             f"v{EQUIV_CAPS[1]}", i == j,
                             bad=wrong and (i, j) == (0, 0))]
                   for i in range(TWISTS) for j in range(i, TWISTS)]

    sizes: dict = {}
    io_units = [io_ops(model(k, IO_CAP), tmp / f"io{k}.json", f"izuchi.cap{IO_CAP}.{k}",
                       sizes, bad=wrong and k == 0)
                for k in range(TWISTS)]

    a = write_input(low[0], tmp / "cli_a.json")
    b = write_input(high[0], tmp / "cli_b.json")
    c = write_input(low[1], tmp / "cli_c.json")
    dims = dims_of(low[0])
    # each command three times per pass, for enough samples of these slow runs
    cli_units = [
        unit
        for j in range(3)
        for unit in ([cli_classify_op(a, tmp / "cli_out.json", "cli.classify.izuchi", dims,
                                      [THREE_FINITE], [RATIO * twists[0]],
                                      bad=wrong and j == 0)],
                     [cli_equiv_op(a, b, "cli.equiv.izuchi.truncations", dims, True)],
                     [cli_equiv_op(a, c, "cli.equiv.izuchi.twists", dims, False)])
    ]

    ops = interleave([build_units, classify_units, equiv_units, io_units, cli_units])
    return ops, sizes


WORKLOADS = {
    "triple_stream": triple_stream,
    "dense_scrambled": dense_scrambled,
    "structured_sweep": structured_sweep,
}
