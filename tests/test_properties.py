"""Property tests of the classification invariants.

Each property is one the theory guarantees for every input: ``classify`` is
invariant under a basis scramble, the fundamental sequence of a direct sum
is the union of its parts' sequences, ``decide_equivalence`` is symmetric,
the two rank identities hold on every random triple, and a block solved on
its range (``linalg.coupled_eig``'s thin route) answers as the whole block
does, for a whole input and for one block under any threshold.  Inputs are
kept small so that the file runs in a few seconds.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from isopair import linalg
from isopair.bcl import random_triple
from isopair.classify import classify, decide_equivalence
from isopair.izuchi import build_izuchi_model
from isopair.linalg import _thin_eig, coupled_eig, hermitian_eig, random_unitary
from isopair.models import bishift_truncated, direct_sum, scramble, twisted_shift
from isopair.spectral import check_rank_formula

SEQUENCE_TOL = 1e-6

#: Twist angles on a grid of sevenths, so two blocks of one pair either share
#: a twist exactly or keep theirs far apart compared with the tolerances.
angles = st.integers(0, 6).map(lambda k: 2 * np.pi * k / 7)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def blocks(draw):
    """One irreducible-or-simple building block, at most 36-dimensional."""
    kind = draw(st.sampled_from(["bishift", "twisted", "izuchi"]))
    if kind == "bishift":
        return bishift_truncated(draw(st.integers(3, 5)))
    twist = np.exp(1j * draw(angles))
    if kind == "twisted":
        return twisted_shift(twist, draw(st.integers(3, 6)))
    ratio = draw(st.sampled_from([0.3, 0.5, 0.7, -0.5]))
    return build_izuchi_model(ratio, twist, 6, 6).pair


pairs = st.lists(blocks(), min_size=1, max_size=2).map(direct_sum)


def multiset_gap(got, want) -> float:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return float("inf")
    if got.size == 0:
        return 0.0
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def assert_same_invariants(a, b):
    assert a.k == b.k
    assert sorted(block.kind for block in a.blocks) == sorted(block.kind for block in b.blocks)
    assert multiset_gap(a.fundamental_sequence, b.fundamental_sequence) <= SEQUENCE_TOL
    for side in ("eigs_on_p", "eigs_on_pperp"):
        assert multiset_gap(getattr(a.shift_unitary, side),
                            getattr(b.shift_unitary, side)) <= SEQUENCE_TOL


@settings(max_examples=15, deadline=None)
@given(pair=pairs, seed=seeds)
def test_classify_is_scramble_invariant(pair, seed):
    assert_same_invariants(classify(scramble(pair, seed)), classify(pair))


@settings(max_examples=15, deadline=None)
@given(parts=st.lists(blocks(), min_size=2, max_size=3))
def test_fundamental_sequence_adds_over_direct_sums(parts):
    whole = classify(direct_sum(parts))
    pieces = [classify(part) for part in parts]
    assert whole.k == sum(piece.k for piece in pieces)
    union = [alpha for piece in pieces for alpha in piece.fundamental_sequence]
    assert multiset_gap(whole.fundamental_sequence, union) <= SEQUENCE_TOL


@settings(max_examples=15, deadline=None)
@given(first=pairs, second=pairs, scrambled=st.booleans(), seed=seeds)
def test_equivalence_is_symmetric(first, second, scrambled, seed):
    # half the draws compare a pair with a scramble of itself, so both
    # verdicts occur
    if scrambled:
        second = scramble(first, seed)
    forward = decide_equivalence(first, second)
    backward = decide_equivalence(second, first)
    assert forward.equivalent == backward.equivalent
    if scrambled:
        assert forward.equivalent


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 12), share=st.floats(0.0, 1.0), seed=seeds)
def test_rank_identities_hold_on_random_triples(dim, share, seed):
    report = check_rank_formula(random_triple(dim, round(share * dim), seed))
    assert report.sum_identity_ok
    assert report.difference_identity_ok


@st.composite
def thin_generators(draw):
    """One generator whose interior reaches ``linalg.THIN_MIN_ROWS`` (48 to 90 rows)."""
    kind = draw(st.sampled_from(["bishift", "twisted", "izuchi"]))
    if kind == "bishift":
        return bishift_truncated(draw(st.integers(8, 10)))
    twist = np.exp(1j * draw(angles))
    if kind == "twisted":
        return twisted_shift(twist, draw(st.integers(49, 90)))
    ratio = draw(st.sampled_from([0.3, 0.5, 0.7, -0.5]))
    cap = draw(st.integers(9, 10))
    return build_izuchi_model(ratio, twist, cap, cap).pair


#: Generators, and mixed sums of two or three blocks, with at least
#: ``linalg.THIN_MIN_ROWS`` interior rows: their scrambles take the thin route.
thin_pairs = st.one_of(
    thin_generators(),
    st.lists(blocks(), min_size=2, max_size=3).map(direct_sum)
    .filter(lambda pair: len(pair.interior) >= linalg.THIN_MIN_ROWS),
    st.tuples(thin_generators(), blocks()).map(list).map(direct_sum),
)

THIN_TOL = 1e-12


@settings(max_examples=15, deadline=None)
@given(pair=thin_pairs, other=pairs, seed=seeds)
def test_thin_route_answers_as_the_full_route(pair, other, seed):
    scrambled = scramble(pair, seed)
    comparisons = ((pair, scrambled), (scrambled, other))
    thin = classify(scrambled)
    thin_verdicts = [decide_equivalence(a, b).equivalent for a, b in comparisons]
    with mock.patch.object(linalg, "THIN_MIN_ROWS", math.inf):
        full = classify(scrambled)
        full_verdicts = [decide_equivalence(a, b).equivalent for a, b in comparisons]
    assert "defect_thin_residual" in thin.residuals
    assert not any(key.endswith("_thin_residual") for key in full.residuals)
    assert thin.k == full.k
    assert [block.kind for block in thin.blocks] == [block.kind for block in full.blocks]
    assert multiset_gap(thin.fundamental_sequence, full.fundamental_sequence) <= THIN_TOL
    for side in ("eigs_on_p", "eigs_on_pperp"):
        assert multiset_gap(getattr(thin.shift_unitary, side),
                            getattr(full.shift_unitary, side)) <= THIN_TOL
    assert thin_verdicts == full_verdicts
    assert thin_verdicts[0]


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(linalg.THIN_MIN_ROWS, 96), share=st.floats(0.0, 1.0), seed=seeds,
       small=st.sampled_from([1e-14, 3e-14]),
       factor=st.sampled_from([0.02, 0.25, 0.5, 0.9, 1.1, 2.0, 4.0]))
def test_a_thin_solve_keeps_what_the_whole_solve_keeps(dim, share, seed, small, factor):
    # a filled block with up to dim/4 values +-[0.9, 1], which the thin
    # solve's width holds, and +-``small`` on the rest, which it cannot: its
    # residual is several times ``small`` and far above the round-off of
    # either solve.  The threshold lies on either side of that residual, and
    # at 0.02 of it, below ``small``, the whole solve keeps every value
    rng = np.random.default_rng(seed)
    rank = 1 + round(share * (dim // 4 - 1))
    values = rng.choice([-1.0, 1.0], dim) * np.where(
        np.arange(dim) < rank, rng.uniform(0.9, 1.0, dim), small)
    basis = random_unitary(dim, rng)
    a = (basis * values) @ basis.conj().T
    a = (a + a.conj().T) / 2
    threshold = factor * _thin_eig(a)[2]
    got_values, got_vectors, _ = coupled_eig(a, lambda v: np.abs(v) > threshold)
    want_values, want_vectors = hermitian_eig(a)
    kept = np.abs(want_values) > threshold
    want_values, want_vectors = want_values[kept], want_vectors[:, kept]
    assert got_values.shape == want_values.shape
    assert np.max(np.abs(got_values - want_values), initial=0.0) <= 1e-12
    assert np.linalg.norm(got_vectors @ got_vectors.conj().T
                          - want_vectors @ want_vectors.conj().T) <= 1e-12
