import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isopair.bcl import BCLTriple, random_triple, wandering_projections
from isopair.linalg import as_complex, hermitian_eig, numerical_rank, random_unitary
from isopair.spectral import (
    DiffProjCanonicalForm,
    InteriorPair,
    SpectralProfile,
    build_difference_projections,
    check_rank_formula,
    eigen_symmetry_check,
    rank_formula,
    spectral_profile,
)

from conftest import random_canonical_form, random_projection, two_finite_triple


class TestSpectralProfile:
    def test_three_point_spectrum(self):
        profile = spectral_profile(np.diag([1.0, 0.5, -0.5]))
        assert profile.dim_plus1 == 1
        assert profile.dim_minus1 == 0
        assert len(profile.interior_pairs) == 1
        pair = profile.interior_pairs[0]
        assert pair.value == pytest.approx(0.5)
        assert (pair.mult_pos, pair.mult_neg) == (1, 1)
        assert profile.dim_kplus == 1
        assert profile.symmetric

    def test_zero_matrix(self):
        profile = spectral_profile(np.zeros((4, 4)))
        assert profile.kernel_dim == 4
        assert profile.dim_plus1 == profile.dim_minus1 == 0
        assert not profile.interior_pairs

    def test_dimension_bookkeeping(self):
        profile = spectral_profile(np.diag([1.0, 1.0, 0.3, -0.3, 0.0, -1.0]))
        assert profile.counted_dim() == 6
        assert profile.dim_plus1 == 2 and profile.dim_minus1 == 1

    def test_unpaired_interior_flags(self):
        profile = spectral_profile(np.diag([0.4, 0.0]))
        assert not profile.symmetric

    def test_rejects_expansion(self):
        with pytest.raises(ValueError, match="contraction"):
            spectral_profile(np.diag([2.0, 0.0]))

    @pytest.mark.parametrize("tol", [-1e-8, np.nan])
    def test_rejects_a_negative_tolerance(self, tol):
        with pytest.raises(ValueError, match="nonnegative"):
            spectral_profile(np.diag([0.5, -0.5]), tol)
        with pytest.raises(ValueError, match="nonnegative"):
            rank_formula(np.diag([0.5, -0.5]), np.zeros((2, 2)), None, tol)

    def test_random_defects_never_asymmetric(self):
        # eigenvalue symmetry of differences of projections, at scale
        for seed in range(300):
            dim = 2 + seed % 11
            ops = wandering_projections(random_triple(dim, (seed % dim) + 0, seed))
            assert spectral_profile(ops.defect).symmetric


def non_finite_defects():
    """Contractions but for one NaN or inf entry: on the diagonal, or a Hermitian pair off it."""
    for name, bad in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf),
                      ("nan-imag", complex(0.0, np.nan))):
        diagonal = np.diag([0.5, -0.5, 0.0]).astype(complex)
        diagonal[2, 2] = bad
        off = np.diag([0.5, -0.5, 0.0]).astype(complex)
        off[0, 2], off[2, 0] = bad, np.conj(bad)
        yield pytest.param(diagonal, id=f"{name}-diagonal")
        yield pytest.param(off, id=f"{name}-off-diagonal")


@pytest.mark.parametrize("defect", list(non_finite_defects()))
@pytest.mark.parametrize("decompose", [
    hermitian_eig,
    spectral_profile,
    lambda defect: rank_formula(defect, np.zeros_like(defect)),
], ids=["hermitian_eig", "spectral_profile", "rank_formula"])
def test_non_finite_entries_raise(decompose, defect):
    # a NaN once passed the Hermitian check, and the profile of
    # diag(0.5, -0.5, nan) counted 2 of its 3 dimensions
    with pytest.raises(ValueError, match="non-finite"):
        decompose(defect)


def reference_cluster_values(values, tol):
    """The clusters of ``spectral._runs``, as one Python step per value, with ``np.mean`` each."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    order = np.argsort(values)[::-1]
    clusters = [[int(order[0])]]
    for idx in order[1:]:
        idx = int(idx)
        if abs(values[idx] - values[clusters[-1][-1]]) <= tol:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return [(float(np.mean(values[c])), c) for c in clusters]


def reference_profile(defect, cluster_tol):
    """``spectral_profile`` from ``hermitian_eig``, per-value labels and an O(P*N) pairing scan."""
    defect = as_complex(defect)
    values, _ = hermitian_eig(defect)
    if values.size and float(np.max(np.abs(values))) > 1.0 + 1e-8:
        raise ValueError("operator norm exceeds 1 beyond tolerance; not a contraction")
    plus_mask = values >= 1.0 - cluster_tol
    minus_mask = values <= -1.0 + cluster_tol
    kernel_mask = np.abs(values) <= cluster_tol
    interior_mask = ~(plus_mask | minus_mask | kernel_mask)
    clusters = ["plus_one" if plus else "minus_one" if minus else "kernel"
                for plus, minus in zip(plus_mask.tolist(), minus_mask.tolist())]
    interior_idx = np.flatnonzero(interior_mask)
    pos_idx = [int(i) for i in interior_idx if values[i] > 0]
    neg_idx = [int(i) for i in interior_idx if values[i] < 0]
    pos_clusters = [
        (mean, [pos_idx[j] for j in local])
        for mean, local in reference_cluster_values([values[i] for i in pos_idx], cluster_tol)
    ]
    neg_clusters = [
        (mean, [neg_idx[j] for j in local])
        for mean, local in reference_cluster_values([values[i] for i in neg_idx], cluster_tol)
    ]
    pairs = []
    symmetric = True
    used = [False] * len(neg_clusters)

    def add_pair(value, members, neg_members):
        for side, indices in (("pos", members), ("neg", neg_members)):
            for i in indices:
                clusters[i] = f"pair{len(pairs)}_{side}"
        pairs.append(InteriorPair(value, len(members), len(neg_members)))

    for mean, members in pos_clusters:
        match = None
        for j, (neg_mean, _) in enumerate(neg_clusters):
            if not used[j] and abs(mean + neg_mean) <= cluster_tol:
                match = j
                break
        if match is None:
            symmetric = False
            add_pair(mean, members, [])
            continue
        used[match] = True
        neg_members = neg_clusters[match][1]
        if len(neg_members) != len(members):
            symmetric = False
        add_pair(mean, members, neg_members)
    for j, (neg_mean, neg_members) in enumerate(neg_clusters):
        if not used[j]:
            symmetric = False
            add_pair(-neg_mean, [], neg_members)
    return SpectralProfile(
        ambient_dim=defect.shape[0], eigenvalues=values, clusters=tuple(clusters),
        dim_plus1=int(np.count_nonzero(plus_mask)),
        dim_minus1=int(np.count_nonzero(minus_mask)),
        interior_pairs=tuple(pairs), dim_kplus=sum(p.mult_pos for p in pairs),
        kernel_dim=int(np.count_nonzero(kernel_mask)), symmetric=symmetric,
    )


#: Offsets that keep a value in its anchor's cluster at some tolerances
#: (0, 1e-8, 1e-3) and move it out at others.
jitters = st.sampled_from([0.0, 1e-15, 3e-9, 2e-8, 4e-4, 3e-3])
#: Two values at -level - d and -level + d form two clusters, both within
#: tol of -level when d is 0.6 or 0.9 tol, so the pairing has two
#: candidates to choose from.
straddles = st.sampled_from([6e-9, 9e-9, 6e-4, 9e-4])
signs = st.sampled_from([1.0, -1.0])


@st.composite
def spectra(draw):
    """Eigenvalues in [-1, 1]: clusters at +1, -1 and 0, and interior +/- pairs.

    Pairs may be unmatched or of unequal multiplicity, and their sides may
    differ by a jitter or offer two negative clusters to one positive one.
    Values repeat exactly or within a jitter.
    """
    values = []
    for anchor in (1.0, -1.0, 0.0):
        for _ in range(draw(st.integers(0, 3))):
            values.append(anchor - np.sign(anchor) * draw(jitters) if anchor
                          else draw(signs) * draw(jitters))
    for _ in range(draw(st.integers(0, 4))):
        level = draw(st.sampled_from([0.2, 0.5, 0.5 + 2e-9, 0.9]) | st.floats(0.01, 0.99))
        for sign in (1.0, -1.0):
            for _ in range(draw(st.integers(0, 3))):
                values.append(sign * (level + draw(jitters)))
        if draw(st.booleans()):
            d = draw(straddles)
            values += [-level - d, -level + d]
    return np.clip(values, -1.0, 1.0)


def assert_same_profile(got, want):
    """Two profiles agree bit for bit: eigenvalue bytes, labels, pairs and counts."""
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert got.clusters == want.clusters
    assert got.interior_pairs == want.interior_pairs
    assert got.symmetric == want.symmetric
    assert (got.ambient_dim, got.dim_plus1, got.dim_minus1, got.dim_kplus, got.kernel_dim) \
        == (want.ambient_dim, want.dim_plus1, want.dim_minus1, want.dim_kplus, want.kernel_dim)


class TestProfileAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(spectra(), st.sampled_from([0.0, 1e-8, 1e-3]), st.booleans(), st.integers(0, 2**31))
    def test_bit_identical(self, values, cluster_tol, rotate, seed):
        defect = np.diag(values).astype(complex)
        if rotate and values.size:
            w = random_unitary(values.size, np.random.default_rng(seed))
            defect = w @ defect @ w.conj().T
            defect = (defect + defect.conj().T) / 2
        assert_same_profile(spectral_profile(defect, cluster_tol),
                            reference_profile(defect, cluster_tol))

    @pytest.mark.parametrize("tol, labels, counts", [
        (0.6, ["plus_one"] * 2 + ["kernel"] * 3 + ["minus_one"] * 2, (2, 2, 5)),
        (1.5, ["plus_one"] * 6 + ["minus_one"], (6, 6, 7)),
    ])
    def test_overlapping_regions_keep_their_precedence(self, tol, labels, counts):
        # each region counts its own values; a label goes to +1, then -1, then the kernel
        defect = np.diag([1.0, 0.45, 0.2, 0.0, -0.2, -0.45, -1.0])
        got = spectral_profile(defect, tol)
        want = reference_profile(defect, tol)
        assert got.clusters == want.clusters == tuple(labels)
        assert (got.dim_plus1, got.dim_minus1, got.kernel_dim) == counts
        assert (want.dim_plus1, want.dim_minus1, want.kernel_dim) == counts
        assert got.interior_pairs == want.interior_pairs == ()


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 64).flatmap(lambda dim: st.tuples(st.just(dim), st.integers(0, dim))),
       st.integers(0, 2**31 - 1), st.sampled_from([0.0, 1e-8, 1e-3]))
def test_random_defect_profiles_match_the_reference(shape, seed, cluster_tol):
    # random defects have many interior pairs, and at dimension 64 far more
    # levels than spectra() draws; both profile paths must give the same bits
    dim, rank = shape
    ops = wandering_projections(random_triple(dim, rank, seed))
    want = reference_profile(ops.defect, cluster_tol)
    assert_same_profile(spectral_profile(ops.defect, cluster_tol), want)
    assert_same_profile(rank_formula(ops.defect, ops.cross, None, cluster_tol)[1], want)


class TestRankFormula:
    def test_doubly_commuting_trivial(self, rng):
        p = random_projection(4, 2, rng)
        report = check_rank_formula(BCLTriple(4, np.eye(4), p))
        assert report.rank_defect == report.rank_cross == 0
        assert report.dim_plus1 == report.dim_kplus == 0
        assert report.both_identities_hold

    def test_two_finite_numbers(self):
        report = check_rank_formula(two_finite_triple(np.exp(0.9j)))
        assert (report.rank_defect, report.rank_cross) == (2, 1)
        assert (report.dim_plus1, report.dim_minus1) == (1, 1)
        assert report.dim_kplus == 0
        assert report.both_identities_hold

    def test_random_triples(self):
        for seed in range(60):
            dim = 2 + seed % 9
            report = check_rank_formula(random_triple(dim, seed % (dim + 1), seed))
            assert report.both_identities_hold


    def test_defect_rank_matches_svd_rank(self):
        rng = np.random.default_rng(7)
        for dim in [*range(2, 40, 3), 64, 96, 128, 192, 256]:
            ops = wandering_projections(random_triple(dim, int(rng.integers(0, dim + 1)),
                                                      int(rng.integers(0, 2**31))))
            report, _ = rank_formula(ops.defect, ops.cross)
            assert report.rank_defect == numerical_rank(ops.defect)

    def test_one_decomposition_per_matrix(self, monkeypatch):
        calls = {"svd": 0, "eigh": 0}

        def counted(name):
            original = getattr(np.linalg, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return call

        triple = random_triple(64, 20, 3)
        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        assert check_rank_formula(triple).both_identities_hold
        assert calls == {"svd": 1, "eigh": 1}


class TestDifferenceProjections:
    def test_no_generic_part(self):
        form = DiffProjCanonicalForm(
            kernel_dim=1, dim_plus1=1, dim_minus1=0,
            diag=np.zeros((0, 0)), kernel_proj=np.zeros((1, 1)),
            commuting_unitary=np.zeros((0, 0)),
        )
        a, p, q = build_difference_projections(form)
        assert np.allclose(a, np.diag([0.0, 1.0]))
        assert np.allclose(p, np.diag([0.0, 1.0]))
        assert np.allclose(q, np.zeros((2, 2)))

    def test_half_contraction_block(self):
        # 1-dim generic part with D = 0.5 pins the 2x2 blocks exactly
        form = DiffProjCanonicalForm(
            kernel_dim=0, dim_plus1=0, dim_minus1=0,
            diag=np.diag([0.5]).astype(complex),
            kernel_proj=np.zeros((0, 0)),
            commuting_unitary=np.eye(1, dtype=complex),
        )
        a, p, q = build_difference_projections(form)
        root = np.sqrt(0.75)
        assert np.allclose(p, 0.5 * np.array([[1.5, root], [root, 0.5]]))
        assert np.allclose(q, 0.5 * np.array([[0.5, root], [root, 1.5]]))
        assert np.allclose(a, np.diag([0.5, -0.5]))

    @pytest.mark.parametrize("seed", range(25))
    def test_random_forms_contract(self, seed):
        form = random_canonical_form(seed)
        a, p, q = build_difference_projections(form)
        for m in (p, q):
            assert np.linalg.norm(m @ m - m) <= 1e-10
            assert np.linalg.norm(m - m.conj().T) <= 1e-10
        assert np.linalg.norm(a - (p - q)) <= 1e-10
        k = form.generic_dim
        if k:
            generic_p = p[-2 * k:, -2 * k:]
            generic_q = q[-2 * k:, -2 * k:]
            assert np.linalg.matrix_rank(generic_p, tol=1e-10) == k
            assert np.linalg.matrix_rank(generic_q, tol=1e-10) == k

    def test_rejects_noncommuting_unitary(self):
        diag = np.diag([0.3, 0.7]).astype(complex)
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(ValueError, match="commute"):
            DiffProjCanonicalForm(0, 0, 0, diag, np.zeros((0, 0)), swap)

    def test_rejects_non_strict_contraction(self):
        with pytest.raises(ValueError, match="strictly inside"):
            DiffProjCanonicalForm(0, 0, 0, np.diag([1.0]).astype(complex),
                                  np.zeros((0, 0)), np.eye(1, dtype=complex))

    @pytest.mark.parametrize("name", ["diag", "kernel_proj", "commuting_unitary"])
    def test_rejects_a_non_finite_parameter(self, name):
        # each check was a > or <= comparison, which NaN passed
        params = dict(kernel_dim=1, dim_plus1=0, dim_minus1=0, diag=np.diag([0.5]),
                      kernel_proj=np.zeros((1, 1)), commuting_unitary=np.eye(1))
        DiffProjCanonicalForm(**params)
        params[name] = np.full(np.shape(params[name]), np.nan)
        with pytest.raises(ValueError, match=f"{name} has a non-finite entry"):
            DiffProjCanonicalForm(**params)


class TestEigenSymmetry:
    def test_constructed_pair_at_point_three(self):
        form = DiffProjCanonicalForm(
            kernel_dim=0, dim_plus1=0, dim_minus1=0,
            diag=np.diag([0.3]).astype(complex),
            kernel_proj=np.zeros((0, 0)),
            commuting_unitary=np.eye(1, dtype=complex),
        )
        a, p, q = build_difference_projections(form)
        report = eigen_symmetry_check(a, p, q)
        assert report.ok
        assert report.pairs == ((pytest.approx(0.3), 1, 1),)

    def test_no_interior_is_vacuous(self):
        a = np.diag([1.0, -1.0])
        p = np.diag([1.0, 0.0])
        q = np.diag([0.0, 1.0])
        report = eigen_symmetry_check(a, p, q)
        assert report.ok and report.interior_count == 0

    def test_random_projection_pairs(self, rng):
        for _ in range(200):
            p = random_projection(10, int(rng.integers(0, 11)), rng)
            q = random_projection(10, int(rng.integers(0, 11)), rng)
            assert eigen_symmetry_check(p - q, p, q).ok

    def test_rejects_non_difference(self):
        p = np.diag([1.0, 0.0])
        with pytest.raises(ValueError):
            eigen_symmetry_check(np.diag([0.5, 0.0]), p, p)

    @pytest.mark.parametrize("name", ["a", "p", "q"])
    def test_rejects_a_non_finite_input(self, name):
        # NaN projections once passed every "norm > tol" precondition and
        # came back as a symmetric pair (0.5, 1, 1)
        args = dict(a=np.diag([1.0, -1.0]), p=np.diag([1.0, 0.0]), q=np.diag([0.0, 1.0]))
        assert eigen_symmetry_check(**args).ok
        args[name] = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match=f"{name} has a non-finite entry"):
            eigen_symmetry_check(**args)


def test_reconstruction_property():
    # A equals P - Q for every valid canonical form
    for seed in range(40):
        form = random_canonical_form(seed, max_generic=6)
        a, p, q = build_difference_projections(form)
        assert np.linalg.norm(a - (p - q)) <= 1e-10
