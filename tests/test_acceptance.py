"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from isopair.bcl import random_triple, wandering_projections
from isopair.classify import (
    ONE_FINITE,
    THREE_FINITE,
    TWO_FINITE,
    _match_within,
    classify,
    decide_equivalence,
)
from isopair.cli import main as cli_main
from isopair.izuchi import build_izuchi_model, verify_izuchi_invariants
from isopair.linalg import numerical_rank
from isopair.models import bishift_truncated, direct_sum, scramble, twisted_shift
from isopair.serialize import dumps_canonical, pair_to_json
from isopair.spectral import (
    build_difference_projections,
    check_rank_formula,
    spectral_profile,
)
from isopair.toeplitz import build_truncated_pair, degree_zero_block, \
    oracle_cross_and_defect

from conftest import random_canonical_form


def report(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def corpus_500():
    rng = np.random.default_rng(1234)
    for i in range(500):
        dim = int(rng.integers(2, 17))
        rank_p = int(rng.integers(0, dim + 1))
        yield random_triple(dim, rank_p, seed=10_000 + i)


def test_acceptance_1_rank_formula():
    start = time.monotonic()
    failures = 0
    for triple in corpus_500():
        if not check_rank_formula(triple).both_identities_hold:
            failures += 1
    elapsed = time.monotonic() - start
    report(1, failures == 0 and elapsed <= 10.0,
           f"rank identities on 500 random triples, dims 2..16 "
           f"({failures} failures, {elapsed:.1f}s)")


def test_acceptance_2_eigenvalue_symmetry():
    violations = 0
    for triple in corpus_500():
        ops = wandering_projections(triple)
        profile = spectral_profile(ops.defect)
        if not profile.symmetric:
            violations += 1
        for pair in profile.interior_pairs:
            if pair.mult_pos != pair.mult_neg:
                violations += 1
    report(2, violations == 0,
           f"interior eigenvalue symmetry on the same corpus "
           f"({violations} violations)")


def test_acceptance_3_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst_block = 0.0
    worst_support = 0.0
    for i in range(200):
        dim = int(rng.integers(2, 13))
        rank_p = int(rng.integers(0, dim + 1))
        triple = random_triple(dim, rank_p, seed=20_000 + i)
        ops = wandering_projections(triple)
        pair = build_truncated_pair(triple, 4)
        c_full, x_full = oracle_cross_and_defect(pair)
        worst_block = max(
            worst_block,
            float(np.linalg.norm(degree_zero_block(c_full, dim) - ops.defect)),
            float(np.linalg.norm(degree_zero_block(x_full, dim) - ops.cross)),
        )
        for full in (c_full, x_full):
            rest = full.copy()
            rest[:dim, :dim] = 0.0
            worst_support = max(worst_support, float(np.abs(rest).max()))
    ok = worst_block <= 1e-12 and worst_support <= 1e-12
    report(3, ok,
           f"closed forms match truncated-operator oracle on 200 triples "
           f"(block gap {worst_block:.2e}, off-block {worst_support:.2e})")


def test_acceptance_4_difference_projections():
    worst = 0.0
    rank_failures = 0
    for seed in range(100):
        form = random_canonical_form(seed, max_generic=8)
        a, p, q = build_difference_projections(form)
        for m in (p, q):
            worst = max(worst,
                        float(np.linalg.norm(m @ m - m)),
                        float(np.linalg.norm(m - m.conj().T)))
        worst = max(worst, float(np.linalg.norm(a - (p - q))))
        k = form.generic_dim
        if k:
            if np.linalg.matrix_rank(p[-2 * k:, -2 * k:], tol=1e-10) != k:
                rank_failures += 1
            if np.linalg.matrix_rank(q[-2 * k:, -2 * k:], tol=1e-10) != k:
                rank_failures += 1
    ok = worst <= 1e-10 and rank_failures == 0
    report(4, ok,
           f"canonical difference-of-projections on 100 forms "
           f"(worst residual {worst:.2e}, {rank_failures} rank failures)")


def test_acceptance_5_izuchi_reference():
    start = time.monotonic()
    ok = True
    notes = []
    for gamma in (1.0, 1j):
        model = build_izuchi_model(0.5, gamma, 50, 50, 50)
        rep = verify_izuchi_invariants(model, tol=1e-8)
        ok &= rep.ok and rep.cross_rank == 1
        ok &= abs(rep.cross_eigenvalue - 0.5 * gamma) <= 1e-8
        ok &= np.allclose(rep.defect_nonzero, (1.0, 0.5, -0.5), atol=1e-8)
        ok &= (rep.dim_plus1, rep.dim_minus1) == (1, 0)
        notes.append(f"gamma={gamma}: eig {rep.cross_eigenvalue:.9f}")
    elapsed = time.monotonic() - start
    ok &= elapsed <= 30.0

    for tenths in range(1, 10):
        r = tenths / 10.0
        model = build_izuchi_model(r, 1.0, 8, 8)
        rep = verify_izuchi_invariants(model, tol=1e-6)
        lam = max(v for v in rep.defect_nonzero if v < 1.0 - 1e-6)
        bound = max(1e-8, r ** (model.series_len / 2.0))
        ok &= abs(abs(rep.cross_eigenvalue) - lam) <= bound
    report(5, ok,
           f"invariant-subspace model at cap 50 ({'; '.join(notes)}; "
           f"{elapsed:.1f}s) and modulus identity across the ratio sweep")


def _expected_multiset():
    return (0.0 + 0j, 1.0 + 0j, np.exp(-1j * np.pi / 3), 0.5j)


def _build_roundtrip_pair():
    return direct_sum([
        bishift_truncated(6),
        twisted_shift(1.0, 6),
        twisted_shift(np.exp(1j * np.pi / 3), 6),
        build_izuchi_model(0.5, 1j, 8, 8).pair,
    ])


def test_acceptance_6_classification_roundtrip():
    base = _build_roundtrip_pair()
    expected = _expected_multiset()
    expected_kinds = sorted([ONE_FINITE, TWO_FINITE, TWO_FINITE, THREE_FINITE])
    failures = 0
    for trial in range(51):
        pair = base if trial == 0 else scramble(base, seed=trial)
        result = classify(pair)
        kinds = sorted(b.kind for b in result.blocks)
        matched = _match_within(result.fundamental_sequence, expected, 1e-6)
        if result.k != 4 or kinds != expected_kinds or matched is None:
            failures += 1
    report(6, failures == 0,
           f"classification of the mixed direct sum and 50 scrambles "
           f"({failures} failures)")


def test_acceptance_7_equivalence_decisions(tmp_path, capsys):
    gammas = [1.0, 1j, -1.0, np.exp(1j * np.pi / 4), -1j]
    caps = (10, 13)
    models = {(g, cap): build_izuchi_model(0.5, g, cap, cap).pair
              for g in gammas for cap in caps}
    ok = True
    for i, gi in enumerate(gammas):
        for j, gj in enumerate(gammas):
            if j < i:
                continue
            verdict = decide_equivalence(models[(gi, caps[0])],
                                         models[(gj, caps[1])])
            ok &= verdict.equivalent == (i == j)

    for alpha, beta, expect in ((1.0, 1.0, True), (1j, 1j, True),
                                (1.0, 1j, False), (np.exp(0.2j), np.exp(0.3j), False)):
        verdict = decide_equivalence(twisted_shift(alpha, 6),
                                     twisted_shift(beta, 8))
        ok &= verdict.equivalent == expect

    # exit-code contract through the CLI
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    a.write_text(dumps_canonical(pair_to_json(models[(1.0, 10)])))
    b.write_text(dumps_canonical(pair_to_json(models[(1.0, 13)])))
    c.write_text(dumps_canonical(pair_to_json(models[(1j, 10)])))
    codes = (cli_main(["equiv", str(a), str(b)]),
             cli_main(["equiv", str(a), str(c)]),
             cli_main(["equiv", str(a), "/nonexistent.json"]))
    capsys.readouterr()
    ok &= codes == (0, 3, 2)
    report(7, ok,
           f"equivalence decisions across twists/truncations, exit codes {codes}")


def test_acceptance_8_even_dimension():
    rng = np.random.default_rng(99)
    collected = 0
    failures = 0
    attempts = 0
    while collected < 50 and attempts < 2000:
        attempts += 1
        dim = int(rng.integers(2, 11))
        rank_p = int(rng.integers(0, dim + 1))
        triple = random_triple(dim, rank_p, seed=30_000 + attempts)
        ops = wandering_projections(triple)
        if numerical_rank(ops.defect) != dim:
            continue
        collected += 1
        rank_w1 = numerical_rank(ops.proj_w1)
        rank_w2 = numerical_rank(ops.proj_w2)
        if rank_w1 != rank_w2 or dim % 2 != 0:
            failures += 1
    ok = collected >= 50 and failures == 0
    report(8, ok,
           f"full-rank defect forces equal wandering dimensions "
           f"({collected} cases, {failures} failures)")


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-s", "-q"]))
