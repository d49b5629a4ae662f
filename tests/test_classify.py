import importlib
from dataclasses import replace
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from isopair.bcl import (
    BCLTriple,
    cross_commutator_on_wandering,
    toeplitz_symbols,
    validate_triple,
    wandering_projections,
)
from isopair.classify import (
    ONE_FINITE,
    THREE_FINITE,
    TWO_FINITE,
    _e1_core,
    _match_within,
    check_compact_normal,
    classify,
    decide_equivalence,
    e1_data,
    fundamental_sequence,
    shift_unitary_invariant,
    working_space,
)
from isopair.cli import analyze_object
from isopair.izuchi import build_izuchi_model, canonical_basis_3finite, verify_izuchi_invariants
from isopair.linalg import (
    _normalize_phases,
    as_complex,
    hermitian_eig,
    random_unitary,
    subspace_intersection,
)
from isopair.models import (
    StructuredPair,
    bishift_truncated,
    direct_sum,
    scramble,
    twisted_shift,
    validate_pair,
)
from isopair.spectral import (
    check_rank_formula,
    eigen_symmetry_check,
    rank_formula,
    spectral_profile,
)

from conftest import find_non_normal_triple, random_projection, two_finite_triple

# the package exports the function ``classify`` under the submodule's name
classify_module = importlib.import_module("isopair.classify")


def shift_unitary_pair(angles, cap: int):
    """Truncated pair (M_z x I, I x W) with W = diag(exp(i*angles))."""
    from isopair.models import StructuredPair
    m = len(angles)
    shift = np.zeros((cap, cap), dtype=complex)
    for k in range(cap - 1):
        shift[k + 1, k] = 1.0
    w = np.diag(np.exp(1j * np.asarray(angles)))
    v1 = np.kron(shift, np.eye(m))
    v2 = np.kron(np.eye(cap), w)
    labels = tuple(("mono", k, j) for k in range(cap) for j in range(m))
    interior = tuple(i for i, (_, k, _j) in enumerate(labels) if k < cap - 1)
    return StructuredPair(cap * m, v1, v2, labels, interior, "direct_sum")


class TestCompactNormal:
    def test_doubly_commuting_passes(self, rng):
        p = random_projection(5, 2, rng)
        assert check_compact_normal(BCLTriple(5, np.eye(5), p)).ok

    def test_izuchi_model_passes(self):
        pair = build_izuchi_model(0.5, 1j, 8, 8).pair
        assert check_compact_normal(pair).ok

    def test_generic_triple_fails(self):
        triple = find_non_normal_triple()
        report = check_compact_normal(triple)
        assert not report.ok
        # direct residual: the commutator of X with its adjoint is large
        x = triple.projection @ triple.unitary.conj().T @ \
            (np.eye(5) - triple.projection) @ triple.unitary.conj().T
        direct = np.linalg.norm(x @ x.conj().T - x.conj().T @ x)
        assert abs(direct - report.normality_residual) < 1e-12


@pytest.mark.parametrize("make,partial", [
    (lambda: direct_sum([bishift_truncated(6), twisted_shift(1.0, 6),
                         twisted_shift(np.exp(1j * np.pi / 3), 6),
                         build_izuchi_model(0.5, 1j, 8, 8).pair]), True),
    (lambda: build_izuchi_model(0.5, 1j, 12, 12).pair, True),
    (lambda: bishift_truncated(6), True),
    (lambda: padded_triple(find_non_normal_triple(), 3), True),
    (lambda: find_non_normal_triple(), False),
], ids=["mixed-sum", "model", "bishift", "padded-non-normal", "non-normal"])
def test_normality_residual_on_the_support_matches_the_full_one(make, partial):
    obj = make()
    x = as_complex(working_space(obj).cross)
    touched = x != 0
    assert (touched.any(axis=0) | touched.any(axis=1)).all() != partial
    full = np.linalg.norm(x @ x.conj().T - x.conj().T @ x)
    report = check_compact_normal(obj)
    assert abs(report.normality_residual - full) <= 1e-14 * max(1.0, report.cross_norm ** 2)
    assert report.ok == isinstance(obj, StructuredPair)


@pytest.mark.parametrize("make", [
    lambda: two_finite_triple(np.exp(0.25j)),
    lambda: padded_triple(find_non_normal_triple(), 3),
    lambda: build_izuchi_model(0.5, 1j, 8, 8),
], ids=["two-finite", "padded-non-normal", "model"])
def test_every_caller_takes_one_normality_residual(make):
    # the compact-normal check, `analyze` and the model's invariants share
    # one residual, taken on the support of a dense cross-commutator
    obj = make()
    pair = getattr(obj, "pair", obj)
    residual = check_compact_normal(pair).normality_residual
    assert analyze_object(pair, None, 1e-8)["normality_residual"] == residual
    if pair is not obj:
        assert verify_izuchi_invariants(obj).normality_residual == residual


def padded_triple(triple: BCLTriple, extra: int) -> BCLTriple:
    """The triple plus ``extra`` dimensions where U is the identity and P is zero."""
    dim = triple.dim + extra
    u = np.eye(dim, dtype=complex)
    p = np.zeros((dim, dim), dtype=complex)
    u[:triple.dim, :triple.dim] = triple.unitary
    p[:triple.dim, :triple.dim] = triple.projection
    return BCLTriple(dim, u, p)


class TestE1Data:
    def test_two_finite_block(self):
        alpha = np.exp(0.25j)
        basis, compressed = e1_data(two_finite_triple(alpha))
        assert basis.dim == 1
        assert abs(abs(basis.basis[0, 0]) - 1.0) < 1e-12  # spanned by e_0
        assert compressed.shape == (1, 1)
        assert abs(compressed[0, 0] - np.conj(alpha)) < 1e-12

    def test_bishift_constants(self):
        pair = bishift_truncated(5)
        basis, compressed = e1_data(pair)
        assert basis.dim == 1
        const = list(pair.interior).index(pair.basis_labels.index(("mono", 0, 0)))
        assert abs(abs(basis.basis[const, 0]) - 1.0) < 1e-10
        assert abs(compressed[0, 0]) < 1e-12

    def test_izuchi_dimension_one(self):
        basis, _ = e1_data(build_izuchi_model(0.5, 1.0, 8, 8).pair)
        assert basis.dim == 1

    def test_trivial_for_pure_commuting_triple(self, rng):
        p = random_projection(4, 2, rng)
        basis, compressed = e1_data(BCLTriple(4, np.eye(4), p))
        assert basis.dim == 0
        assert compressed.shape == (0, 0)


E1_INPUTS = pytest.mark.parametrize("make", [
    lambda: two_finite_triple(np.exp(0.25j)),
    lambda: build_izuchi_model(0.5, 1j, 8, 8).pair,
], ids=["triple", "pair"])


class TestE1Check:
    """One eigenvalue-1 check for both input kinds, and both of its raises."""

    @E1_INPUTS
    def test_both_residuals_for_both_kinds(self, make):
        _, _, residuals = _e1_core(working_space(make()), 1e-8)
        assert residuals["e1_membership"] <= 1e-10
        assert residuals["e1_consistency"] == 0.0

    @E1_INPUTS
    def test_swapped_kernel_fails_membership(self, make):
        ws = working_space(make())
        model = ws.wandering_model
        flipped = model._replace(kernel1=np.eye(len(model.kernel1)) - model.kernel1)
        with pytest.raises(ValueError, match="leave the wandering subspaces"):
            _e1_core(replace(ws, build_model=lambda: flipped), 1e-8)

    @E1_INPUTS
    def test_lowered_eigenvalue_fails_consistency(self, make):
        ws = working_space(make())
        values, vectors, _ = ws.defect_eig(1e-8)
        assert values[0] >= 1.0 - 1e-8
        v = vectors[:, :1]
        lowered = as_complex(ws.defect) - 0.5 * (v @ v.conj().T)
        with pytest.raises(ValueError, match="intersection has dimension 1"):
            _e1_core(replace(ws, defect=lowered), 1e-8)

    @pytest.mark.parametrize("make", [
        lambda: build_izuchi_model(0.5, 1j, 8, 8).pair,
        lambda: direct_sum([bishift_truncated(4), twisted_shift(1j, 5)]),
        lambda: scramble(direct_sum([bishift_truncated(4), twisted_shift(1j, 5)]), 3),
    ], ids=["model", "sum", "scrambled-sum"])
    def test_cross_confined_is_the_whole_matrix_residual(self, make):
        ws = working_space(make())
        basis, compressed, residuals = _e1_core(ws, 1e-8)
        b = basis.basis
        whole = float(np.linalg.norm(ws.cross - b @ compressed @ b.conj().T))
        assert abs(residuals["cross_confined"] - whole) <= 1e-15

    @pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix], ids=["dense", "csr"])
    def test_cross_entry_off_the_basis_rows_fails(self, form):
        # both forms of the support block must carry the stray entry
        ws = working_space(build_izuchi_model(0.5, 1j, 8, 8).pair)
        basis, _, _ = _e1_core(ws, 1e-8)
        row = np.flatnonzero(~(basis.basis != 0).any(axis=1))[-1]
        bumped = as_complex(ws.cross).copy()
        assert not bumped[row].any()
        bumped[row, row] = 1e-3
        with pytest.raises(ValueError, match="not confined"):
            _e1_core(replace(ws, cross=form(bumped)), 1e-8)


class TestFundamentalSequence:
    def test_mixed_direct_sum(self):
        parts = [bishift_truncated(6), twisted_shift(1j, 6),
                 build_izuchi_model(0.5, 1.0, 8, 8).pair]
        result = fundamental_sequence(direct_sum(parts))
        assert result.k == 3
        # ordered by descending modulus: conj(i) = -i, then 0.5, then 0
        seq = result.fundamental_sequence
        assert abs(seq[0] - (-1j)) < 1e-8
        assert abs(seq[1] - 0.5) < 1e-8
        assert abs(seq[2]) < 1e-8
        kinds = [b.kind for b in result.blocks]
        assert kinds == [TWO_FINITE, THREE_FINITE, ONE_FINITE]

    def test_twisted_alone(self):
        alpha = np.exp(0.8j)
        result = fundamental_sequence(twisted_shift(alpha, 6))
        assert result.k == 1
        assert result.blocks[0].kind == TWO_FINITE
        assert abs(result.fundamental_sequence[0] - np.conj(alpha)) < 1e-8

    def test_pure_shift_unitary_triple_is_empty(self):
        result = fundamental_sequence(BCLTriple(3, np.eye(3), np.diag([1.0, 0, 0])))
        assert result.k == 0
        assert result.fundamental_sequence == ()

    def test_three_finite_block_parameters(self):
        twist = np.exp(0.5j)
        result = fundamental_sequence(build_izuchi_model(0.5, twist, 8, 8).pair)
        block = result.blocks[0]
        assert block.kind == THREE_FINITE
        assert abs(block.interior_eigenvalue - 0.5) < 1e-8
        assert abs(block.twist - twist) < 1e-8

    def test_rank_of_cross_counts_nonzero_entries(self):
        from isopair.linalg import numerical_rank
        from isopair.models import cross_on_interior
        parts = [bishift_truncated(5), twisted_shift(1.0, 5),
                 build_izuchi_model(0.4, 1j, 8, 8).pair]
        pair = direct_sum(parts)
        result = fundamental_sequence(pair)
        nonzero = sum(1 for a in result.fundamental_sequence if abs(a) > 1e-6)
        assert numerical_rank(cross_on_interior(pair)) == nonzero == 2

    def test_block_kinds_are_always_legal(self):
        parts = [bishift_truncated(4), twisted_shift(np.exp(2.1j), 4),
                 build_izuchi_model(0.7, -1j, 8, 8).pair]
        result = fundamental_sequence(direct_sum(parts))
        assert all(b.kind in {ONE_FINITE, TWO_FINITE, THREE_FINITE}
                   for b in result.blocks)


class TestShiftUnitary:
    def test_diagonal_example(self):
        theta = 1.3
        triple = BCLTriple(2, np.diag([1.0, np.exp(1j * theta)]),
                           np.diag([1.0, 0.0]))
        invariant = shift_unitary_invariant(triple)
        assert len(invariant.eigs_on_p) == 1
        assert abs(invariant.eigs_on_p[0] - 1.0) < 1e-10
        assert len(invariant.eigs_on_pperp) == 1
        assert abs(invariant.eigs_on_pperp[0] - np.exp(1j * theta)) < 1e-10

    def test_identity_unitary_splits_by_rank(self, rng):
        rank = 3
        p = random_projection(7, rank, rng)
        invariant = shift_unitary_invariant(BCLTriple(7, np.eye(7), p))
        assert len(invariant.eigs_on_p) == rank
        assert len(invariant.eigs_on_pperp) == 7 - rank
        assert all(abs(z - 1.0) < 1e-8 for z in invariant.eigs_on_p)
        assert all(abs(z - 1.0) < 1e-8 for z in invariant.eigs_on_pperp)

    def test_block_triple_reads_commuting_block_only(self, rng):
        # 2-finite block plus a commuting block: the residual invariant must
        # come from the commuting block's spectra alone
        alpha = np.exp(0.6j)
        tf = two_finite_triple(alpha)
        phases = np.exp(1j * np.array([0.2, 1.1, 2.5]))
        uc = np.diag(phases)
        pc = np.diag([1.0, 1.0, 0.0])
        u = np.block([[tf.unitary, np.zeros((2, 3))], [np.zeros((3, 2)), uc]])
        p = np.block([[tf.projection, np.zeros((2, 3))], [np.zeros((3, 2)), pc]])
        invariant = shift_unitary_invariant(BCLTriple(5, u, p))
        on_p = sorted(np.angle(z) for z in invariant.eigs_on_p)
        assert np.allclose(on_p, [0.2, 1.1], atol=1e-10)
        off_p = [np.angle(z) for z in invariant.eigs_on_pperp]
        assert np.allclose(off_p, [2.5], atol=1e-10)

    def test_model_pairs_have_empty_residual(self):
        parts = [bishift_truncated(5), twisted_shift(1j, 5),
                 build_izuchi_model(0.5, 1.0, 8, 8).pair]
        for pair in parts + [direct_sum(parts)]:
            assert shift_unitary_invariant(pair).empty

    def test_shift_unitary_pair_reads_unitary_spectrum(self):
        # truncated (shift x I, I x W) pair: zero defect, empty sequence,
        # and the residual invariant carries exactly the spectrum of W
        pair = shift_unitary_pair(np.array([0.4, 2.0]), cap=5)
        result = classify(pair)
        assert result.k == 0
        invariant = result.shift_unitary
        angles = sorted(np.angle(z) for z in invariant.eigs_on_p)
        assert np.allclose(angles, [0.4, 2.0], atol=1e-10)
        assert invariant.eigs_on_pperp == ()


class TestDecideEquivalence:
    def test_izuchi_truncation_independent(self):
        a = build_izuchi_model(0.5, 1j, 10, 10).pair
        b = build_izuchi_model(0.5, 1j, 14, 14).pair
        verdict = decide_equivalence(a, b)
        assert verdict.equivalent
        assert verdict.matching == (0,)

    def test_izuchi_twist_is_an_invariant(self):
        a = build_izuchi_model(0.5, 1.0, 8, 8).pair
        b = build_izuchi_model(0.5, 1j, 8, 8).pair
        assert not decide_equivalence(a, b).equivalent

    def test_twisted_pairs_compare_by_twist(self):
        same = decide_equivalence(twisted_shift(1j, 6), twisted_shift(1j, 8))
        assert same.equivalent
        different = decide_equivalence(twisted_shift(1.0, 6),
                                       twisted_shift(1j, 6))
        assert not different.equivalent

    def test_scramble_invariance(self):
        pair = direct_sum([bishift_truncated(4), twisted_shift(1j, 4)])
        for seed in range(5):
            assert decide_equivalence(pair, scramble(pair, seed)).equivalent

    def test_reflexive_and_symmetric(self):
        a = direct_sum([twisted_shift(np.exp(0.3j), 5), bishift_truncated(4)])
        b = build_izuchi_model(0.5, 1.0, 8, 8).pair
        assert decide_equivalence(a, a).equivalent
        assert decide_equivalence(b, b).equivalent
        assert decide_equivalence(a, b).equivalent == \
            decide_equivalence(b, a).equivalent is False

    def test_non_normal_input_raises(self, monkeypatch):
        triple = find_non_normal_triple()
        with pytest.raises(ValueError, match="^first input: .*not compact normal"):
            decide_equivalence(triple, triple)
        pair = twisted_shift(1j, 6)
        with pytest.raises(ValueError, match="^second input: .*not compact normal"):
            decide_equivalence(pair, triple)
        # a failure after the compact-normal gate names its input too
        stage = classify_module._fundamental_sequence
        calls = []

        def fail_second_call(*args):
            calls.append(args)
            if len(calls) == 2:
                raise ValueError("stage failed")
            return stage(*args)

        monkeypatch.setattr(classify_module, "_fundamental_sequence", fail_second_call)
        with pytest.raises(ValueError, match="^second input: stage failed$"):
            decide_equivalence(pair, pair)

    def test_triple_against_pair(self):
        # the 2x2 triple is the wandering data of the twisted shift with the
        # same cross-commutator eigenvalue
        alpha = np.exp(0.35j)
        verdict = decide_equivalence(two_finite_triple(alpha),
                                     twisted_shift(alpha, 6))
        assert verdict.equivalent
        other = decide_equivalence(two_finite_triple(alpha),
                                   twisted_shift(np.exp(1.0j), 6))
        assert not other.equivalent

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-6])
    def test_rejects_matching_tolerance_before_classifying(self, tol, monkeypatch):
        # a NaN tolerance matched nothing and called identical inputs inequivalent
        def no_work(obj):
            raise AssertionError("classification work began")

        monkeypatch.setattr(classify_module, "working_space", no_work)
        pair = twisted_shift(1j, 6)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            decide_equivalence(pair, pair, tol=tol)

    def test_zero_matching_tolerance_is_exact(self):
        pair = twisted_shift(1j, 6)
        assert decide_equivalence(pair, pair, tol=0.0).equivalent

    def test_shift_unitary_pairs_compare_by_spectrum(self):
        same_a = shift_unitary_pair(np.array([0.3, 1.2]), cap=5)
        same_b = shift_unitary_pair(np.array([1.2, 0.3]), cap=6)
        other = shift_unitary_pair(np.array([0.3, 2.4]), cap=5)
        assert decide_equivalence(same_a, same_b).equivalent
        assert not decide_equivalence(same_a, other).equivalent


class TestMatchWithin:
    def test_finds_matching_missed_by_nearest_first(self):
        # nearest-first pairs 0 with 0.5 and leaves 0.6 against -0.5
        assert _match_within((0, 0.6), (0.5, -0.5), 0.55) == [1, 0]
        assert _match_within((0.5, -0.5), (0, 0.6), 0.55) == [1, 0]

    def test_symmetric_in_its_arguments(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(0, 6))
            left = tuple(rng.normal(size=n) + 1j * rng.normal(size=n))
            right = tuple(np.array(left)[rng.permutation(n)]
                          + 0.3 * rng.normal(size=n))
            tol = float(rng.uniform(0.05, 0.8))
            forward = _match_within(left, right, tol)
            backward = _match_within(right, left, tol)
            assert (forward is None) == (backward is None)

    def test_matching_is_a_permutation_within_tol(self):
        # a matching is returned exactly when some permutation fits
        rng = np.random.default_rng(6)
        found = 0
        for _ in range(200):
            n = int(rng.integers(1, 7))
            left = rng.uniform(-1, 1, size=n)
            right = left[rng.permutation(n)] + rng.uniform(-0.4, 0.4, size=n)
            matching = _match_within(tuple(left), tuple(right), 0.25)
            fits = any(all(abs(left[i] - right[j]) <= 0.25
                           for i, j in enumerate(perm))
                       for perm in permutations(range(n)))
            assert (matching is not None) == fits
            if matching is None:
                continue
            found += 1
            assert sorted(matching) == list(range(n))
            assert all(abs(left[i] - right[j]) <= 0.25
                       for i, j in enumerate(matching))
        assert 20 < found < 200


def test_randomized_block_collections_are_recovered():
    # build random collections of known blocks, scramble, classify, and
    # compare the recovered sequence to the construction parameters
    from isopair.models import bishift_truncated as bishift

    rng = np.random.default_rng(424242)
    for trial in range(12):
        parts, expected = [], []
        for _ in range(int(rng.integers(2, 5))):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                parts.append(bishift(int(rng.integers(4, 6))))
                expected.append(0j)
            elif kind == 1:
                alpha = np.exp(1j * rng.uniform(0, 2 * np.pi))
                parts.append(twisted_shift(alpha, int(rng.integers(4, 7))))
                expected.append(np.conj(alpha))
            else:
                ratio = float(rng.uniform(0.15, 0.85))
                twist = np.exp(1j * rng.uniform(0, 2 * np.pi))
                parts.append(build_izuchi_model(ratio, twist, 8, 8).pair)
                expected.append(twist * ratio)
        pair = scramble(direct_sum(parts), seed=trial)
        result = classify(pair)
        assert result.k == len(expected)
        assert _match_within(result.fundamental_sequence, tuple(expected),
                             1e-6) is not None
        assert result.shift_unitary.empty


class TestClassify:
    def test_interior_modulus_matches_defect_eigenvalue(self):
        for r in (0.25, 0.5, 0.75):
            result = classify(build_izuchi_model(r, 1j, 8, 8).pair)
            block = result.blocks[0]
            assert block.kind == THREE_FINITE
            assert abs(abs(block.alpha) - r) < 1e-8

    def test_classification_includes_shift_part(self):
        theta = 0.9
        triple = BCLTriple(2, np.diag([1.0, np.exp(1j * theta)]),
                           np.diag([1.0, 0.0]))
        result = classify(triple)
        assert result.k == 0
        assert not result.shift_unitary.empty

    def test_rejects_non_normal(self):
        with pytest.raises(ValueError, match="not compact normal"):
            classify(find_non_normal_triple())

    @pytest.mark.parametrize("scale,name", [(1.5, "isometry_v2"), (1.0, None)])
    def test_gate_names_the_first_failing_residual(self, scale, name):
        # a non-isometric V2 once read "normality residual 0.000e+00 exceeds 0.000e+00"
        pair = bishift_truncated(3)
        scaled = StructuredPair(pair.dim, pair.v1, scale * pair.v2, pair.basis_labels,
                                pair.interior, pair.provenance)
        report = check_compact_normal(scaled)
        if name is None:
            assert report.ok and classify(scaled).k == 1
            return
        assert not report.ok
        assert report.structure_residuals[name] == 2.5
        message = f"^input is not compact normal: {name} residual 2.500e\\+00 exceeds 1.000e-08$"
        with pytest.raises(ValueError, match=message):
            classify(scaled)

    def test_gate_names_the_normality_residual_first(self):
        report = check_compact_normal(find_non_normal_triple())
        assert not report.ok and report.structure_residuals == {}
        message = (f"input is not compact normal: cross-commutator normality residual "
                   f"{report.normality_residual:.3e} exceeds {report.normality_bound:.3e}")
        with pytest.raises(ValueError) as raised:
            classify(find_non_normal_triple())
        assert str(raised.value) == message

    def test_unitary_conjugation_of_triple_preserves_invariants(self, rng):
        triple = two_finite_triple(np.exp(1.7j))
        w = random_unitary(2, rng)
        conjugated = BCLTriple(
            2, w @ triple.unitary @ w.conj().T,
            w @ triple.projection @ w.conj().T,
        )
        assert decide_equivalence(triple, conjugated).equivalent


def _reference_angle(alpha) -> float:
    """The argument of one value in [0, 2 pi), as the block order defines it."""
    if abs(alpha) == 0:
        return 0.0
    angle = float(np.angle(alpha)) % (2.0 * np.pi)
    return 0.0 if angle > 2.0 * np.pi - 1e-9 else angle


def _full_key(alphas, vectors, j):
    """The block-order key with every part built: head, then eigenvector."""
    a = alphas[j]
    lex = tuple((round(float(c.real), 12), round(float(c.imag), 12)) for c in vectors[:, j])
    return (-round(abs(a), 9), round(_reference_angle(a), 9), lex)


def _classify_with_schur_data(obj):
    """``classify(obj)``, the Schur data and E1 basis it sorted, and its 12-digit rounds."""
    seen = {"lex_rounds": 0}
    schur, e1_core = classify_module._schur, classify_module._e1_core

    def spy_schur(a):
        t, z = schur(a)
        seen["alphas"], seen["z"] = np.diagonal(t).copy(), z.copy()
        return t, z

    def spy_e1_core(ws, tol):
        found = e1_core(ws, tol)
        seen["basis"] = found[0].basis
        return found

    def counted_round(x, digits=None):
        seen["lex_rounds"] += digits == 12
        return round(x, digits)

    with mock.patch.object(classify_module, "_schur", spy_schur), \
            mock.patch.object(classify_module, "_e1_core", spy_e1_core), \
            mock.patch.object(classify_module, "round", counted_round, create=True):
        result = classify(obj)
    return result, seen


def _compact_normal_triple(alphas, phases, bits, seed) -> BCLTriple:
    """Two-finite blocks ``[[0, 1], [alpha, 0]]`` plus a diagonal commuting part, scrambled."""
    m, r = len(alphas), len(phases)
    n = 2 * m + r
    u = np.zeros((n, n), dtype=complex)
    p = np.zeros((n, n), dtype=complex)
    for j, alpha in enumerate(alphas):
        u[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[0.0, 1.0], [alpha, 0.0]]
        p[2 * j, 2 * j] = 1.0
    u[2 * m:, 2 * m:] = np.diag(phases)
    p[2 * m:, 2 * m:] = np.diag(np.asarray(bits, dtype=float))
    w = random_unitary(n, np.random.default_rng(seed))
    return BCLTriple(n, w @ u @ w.conj().T, w @ p @ w.conj().T)


#: Unimodular values on a grid of sevenths: two are equal or far apart.
sevenths = st.integers(0, 6).map(lambda k: complex(np.exp(2j * np.pi * k / 7)))
order_seeds = st.integers(0, 2**32 - 1)


@st.composite
def triples_for_order(draw, repeated: bool):
    """A compact-normal triple whose sequence repeats a value, or holds distinct ones."""
    if repeated:
        alphas = draw(st.lists(sevenths, min_size=1, max_size=3))
        alphas = [alphas[0]] + alphas
    else:
        alphas = [complex(np.exp(2j * np.pi * k / 7))
                  for k in draw(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True))]
    phases = draw(st.lists(sevenths, max_size=3))
    bits = draw(st.lists(st.integers(0, 1), min_size=len(phases), max_size=len(phases)))
    return _compact_normal_triple(alphas, phases, bits, draw(order_seeds))


@st.composite
def tied_pairs(draw):
    """A direct sum of two blocks with one twist, or a model summed with its own scramble."""
    twist = draw(sevenths)
    kind = draw(st.sampled_from(["twisted", "izuchi", "bishift", "scramble"]))
    if kind == "twisted":
        parts = [twisted_shift(twist, draw(st.integers(3, 6))) for _ in range(2)]
    elif kind == "izuchi":
        parts = [build_izuchi_model(0.5, twist, 6, 6).pair] * 2
    elif kind == "bishift":
        parts = [bishift_truncated(draw(st.integers(3, 5))) for _ in range(2)]
    else:
        model = build_izuchi_model(draw(st.sampled_from([0.5, -0.3])), twist, 6, 6).pair
        parts = [model, scramble(model, draw(order_seeds))]
    return direct_sum(parts)


@settings(max_examples=40, deadline=None)
@given(obj=st.one_of(triples_for_order(repeated=True), triples_for_order(repeated=False),
                     tied_pairs()))
def test_blocks_come_in_the_order_of_the_full_key(obj):
    # the eigenvector part of the key is built only for blocks whose heads
    # tie; sorting by the whole key must give the same order
    result, seen = _classify_with_schur_data(obj)
    assert result.k == len(seen["alphas"]) > 0
    alphas, vectors = seen["alphas"], np.ascontiguousarray(seen["z"])
    _normalize_phases(vectors)
    order = sorted(range(result.k), key=lambda j: _full_key(alphas, vectors, j))
    for block, j in zip(result.blocks, order, strict=True):
        assert np.array_equal(block.f_vector, seen["basis"] @ vectors[:, j])
    # and only tied blocks paid for it: two rounds per eigenvector entry
    heads = [_full_key(alphas, vectors, j)[:2] for j in range(result.k)]
    tied = sum(heads.count(head) > 1 for head in heads)
    assert seen["lex_rounds"] == 2 * tied * vectors.shape[0]


# each entry gets ``None`` for its input, so work begun before the tolerance
# check would raise a different error
TOLERANCE_ENTRIES = {
    "check_compact_normal": lambda tol: check_compact_normal(None, tol),
    "e1_data": lambda tol: e1_data(None, tol),
    "fundamental_sequence-tol": lambda tol: fundamental_sequence(None, tol),
    "fundamental_sequence-band_tol": lambda tol: fundamental_sequence(None, band_tol=tol),
    "shift_unitary_invariant": lambda tol: shift_unitary_invariant(None, tol),
    "classify-tol": lambda tol: classify(None, tol),
    "classify-band_tol": lambda tol: classify(None, band_tol=tol),
    "validate_pair": lambda tol: validate_pair(None, tol),
    "verify_izuchi_invariants": lambda tol: verify_izuchi_invariants(None, tol),
    "canonical_basis_3finite": lambda tol: canonical_basis_3finite(None, tol),
    "hermitian_eig": lambda tol: hermitian_eig(None, tol),
    "subspace_intersection": lambda tol: subspace_intersection(None, None, tol),
    "validate_triple": lambda tol: validate_triple(None, tol),
    "wandering_projections": lambda tol: wandering_projections(None, tol),
    "cross_commutator_on_wandering": lambda tol: cross_commutator_on_wandering(None, tol),
    "toeplitz_symbols": lambda tol: toeplitz_symbols(None, tol),
    "eigen_symmetry_check": lambda tol: eigen_symmetry_check(None, None, None, tol),
    "spectral_profile": lambda tol: spectral_profile(None, tol),
    "rank_formula": lambda tol: rank_formula(None, None, None, tol),
    "check_rank_formula": lambda tol: check_rank_formula(None, None, tol),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1e-6])
@pytest.mark.parametrize("entry", TOLERANCE_ENTRIES.values(), ids=TOLERANCE_ENTRIES.keys())
def test_tolerances_are_checked_before_any_work(entry, tol):
    # a NaN band once sorted a two-finite block as three-finite, and a
    # negative one divided by zero
    with pytest.raises(ValueError, match="must be finite and nonnegative"):
        entry(tol)
