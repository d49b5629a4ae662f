import numpy as np
import pytest

from isopair import izuchi, linalg, models
from isopair.classify import classify, working_space
from isopair.izuchi import (
    LaurentSeries,
    _basis_labels,
    _interior_indices,
    _oracle_matrices,
    build_izuchi_model,
    canonical_basis_3finite,
    chain_expansion,
    laurent_inner,
    minimal_series_len,
    verify_izuchi_invariants,
)
from isopair.models import StructuredPair, direct_sum


def laurent_shift(series: LaurentSeries, dz: int, dw: int) -> LaurentSeries:
    """Reference: multiply by ``z^dz w^dw`` by shifting every exponent."""
    return {(ze + dz, we + dw): c for (ze, we), c in series.items()}


def oracle_built_pair(ratio: float, twist: complex, monomial_cap: int,
                      chain_len: int, series_len: int) -> StructuredPair:
    """Reference pair whose matrices come from the inner-product oracle alone.

    Unlike :func:`build_izuchi_model` this performs no series-length
    validation, so the truncation error of the kept geometric tail shows up
    directly in the spectra.  Used to measure convergence in ``series_len``.
    """
    v1, v2, norms = _oracle_matrices(ratio, twist, monomial_cap, chain_len, series_len)
    shape = (norms.size, norms.size)
    return StructuredPair(
        dim=norms.size,
        v1=linalg._sum_csr(shape, v1),
        v2=linalg._sum_csr(shape, v2),
        basis_labels=_basis_labels(monomial_cap, chain_len),
        interior=_interior_indices(monomial_cap, chain_len),
        provenance="izuchi",
    )


class TestLaurentOracle:
    def test_chain_inner_products_are_geometric(self):
        # before normalization <g_i, g_j> = delta_ij / (1 - r^2)
        r = 0.5
        series = minimal_series_len(r)
        norm_sq = 1.0 - r * r
        for i in range(4):
            for j in range(4):
                gi = chain_expansion(r, i, series)
                gj = chain_expansion(r, j, series)
                got = laurent_inner(gi, gj) / norm_sq  # strip both normalizations
                want = (1.0 / (1.0 - r * r)) if i == j else 0.0
                assert abs(got - want) < 1e-13

    def test_w_action_on_chain(self):
        # w g_j = z^j + r g_(j+1), term by term
        r = 0.3
        series = minimal_series_len(r)
        norm = np.sqrt(1.0 - r * r)
        shifted = laurent_shift(chain_expansion(r, 2, series), 0, 1)
        expected = {(2, 0): norm}
        for exp, coeff in chain_expansion(r, 3, series).items():
            expected[exp] = expected.get(exp, 0.0) + r * coeff
        # the shift moves the deepest tail term out of range of the target
        for exp, coeff in expected.items():
            assert abs(shifted.get(exp, 0.0) - coeff) < r ** series + 1e-13

    def test_second_operator_is_isometric_on_chain(self):
        model = build_izuchi_model(0.5, 1.0, 8, 8)
        idx = model.pair.basis_labels.index(("chain", 2))
        column = model.pair.v2[:, idx]
        assert abs(np.linalg.norm(column) - 1.0) < 1e-12


class TestBuildValidation:
    def test_rejects_out_of_range_ratio(self):
        with pytest.raises(ValueError):
            build_izuchi_model(1.5, 1.0)
        with pytest.raises(ValueError):
            build_izuchi_model(0.0, 1.0)

    def test_rejects_non_unimodular_twist(self):
        with pytest.raises(ValueError):
            build_izuchi_model(0.5, 2.0)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="series_len"):
            build_izuchi_model(0.5, 1.0, series_len=5)

    def test_rejects_small_caps(self):
        with pytest.raises(ValueError):
            build_izuchi_model(0.5, 1.0, monomial_cap=3)

    def test_short_series_fails_the_orthonormality_check(self, monkeypatch):
        # with the tail floor lowered, a two-term chain vector has squared
        # norm 1 - r^4 and only the built basis check can refuse it
        monkeypatch.setattr(izuchi, "minimal_series_len", lambda ratio: 2)
        with pytest.raises(ValueError, match="orthonormality residual"):
            build_izuchi_model(0.5, 1.0, 6, 6)

    def test_basis_vectors_sharing_an_exponent_are_refused(self, monkeypatch):
        expansions = izuchi._basis_expansions

        def shared(ratio, monomial_cap, chain_len, series_len):
            z, w, coefficients, column = expansions(ratio, monomial_cap, chain_len,
                                                    series_len)
            # the last chain vector's last term lands on the monomial z^1 w^2
            z[-1], w[-1] = 1, 2
            return z, w, coefficients, column

        monkeypatch.setattr(izuchi, "_basis_expansions", shared)
        with pytest.raises(ValueError, match=r"share the exponent z\^1 w\^2"):
            build_izuchi_model(0.5, 1.0, 6, 6)

    @pytest.mark.parametrize("offset, fires", [(2e-10, True), (5e-11, False)])
    def test_orthonormality_threshold(self, monkeypatch, offset, fires):
        expansions = izuchi._basis_expansions

        def off(ratio, monomial_cap, chain_len, series_len):
            z, w, coefficients, column = expansions(ratio, monomial_cap, chain_len,
                                                    series_len)
            # the monomial z^0 w^0 gets squared norm 1 + offset
            coefficients[0] = np.sqrt(1.0 + offset)
            return z, w, coefficients, column

        monkeypatch.setattr(izuchi, "_basis_expansions", off)
        if fires:
            with pytest.raises(ValueError, match="orthonormality residual"):
                build_izuchi_model(0.5, 1.0, 6, 6)
        else:
            build_izuchi_model(0.5, 1.0, 6, 6)

    @pytest.mark.parametrize("cap", [8, 50])
    def test_a_build_assembles_only_the_pair(self, monkeypatch, cap):
        # the oracle's entries are checked as they come, never as CSR
        calls = []
        assemble = linalg._sum_csr

        def counted(*args):
            calls.append(args[0])
            return assemble(*args)

        for module in (linalg, models, izuchi):
            if getattr(module, "_sum_csr", None) is assemble:
                monkeypatch.setattr(module, "_sum_csr", counted)
        pair = build_izuchi_model(0.5, 1j, cap, cap).pair
        assert calls == [(pair.dim, pair.dim)] * 2


class TestInvariants:
    def test_reference_parameters(self):
        report = verify_izuchi_invariants(build_izuchi_model(0.5, 1.0, 10, 10))
        assert report.ok
        assert report.cross_rank == 1
        assert abs(report.cross_eigenvalue - 0.5) < 1e-8
        assert np.allclose(report.defect_nonzero, (1.0, 0.5, -0.5), atol=1e-8)
        assert (report.dim_plus1, report.dim_minus1) == (1, 0)
        assert report.rank_formula_ok

    def test_imaginary_twist_moves_only_the_cross(self):
        report = verify_izuchi_invariants(build_izuchi_model(0.5, 1j, 10, 10))
        assert report.ok
        assert abs(report.cross_eigenvalue - 0.5j) < 1e-8
        assert np.allclose(report.defect_nonzero, (1.0, 0.5, -0.5), atol=1e-8)

    def test_negative_ratio(self):
        report = verify_izuchi_invariants(build_izuchi_model(-0.3, 1.0, 10, 10))
        assert report.ok
        assert abs(report.cross_eigenvalue - (-0.3)) < 1e-8
        assert np.allclose(report.defect_nonzero, (1.0, 0.3, -0.3), atol=1e-8)

    def test_modulus_matches_interior_eigenvalue(self):
        # |cross eigenvalue| equals the defect eigenvalue in (0, 1)
        for r in (0.2, 0.55, 0.8):
            report = verify_izuchi_invariants(build_izuchi_model(r, 1j, 8, 8))
            interior = [v for v in report.defect_nonzero
                        if 1e-8 < v < 1.0 - 1e-8]
            assert len(interior) == 1
            assert abs(abs(report.cross_eigenvalue) - interior[0]) < 1e-10


class TestSeriesConvergence:
    def test_oracle_built_error_decays_with_series_len(self):
        # matrices built purely from truncated inner products: the kept tail
        # controls the cross eigenvalue error until the float floor
        r, twist = 0.6, 1.0
        errors = []
        for series in (4, 8, 16, 32, 64):
            pair = oracle_built_pair(r, twist, 8, 8, series)
            cross = working_space(pair).cross
            eigs = np.linalg.eigvals(cross.toarray())
            top = eigs[np.argmax(np.abs(eigs))]
            errors.append(abs(top - twist * r))
        floor = 1e-12
        for previous, current in zip(errors, errors[1:]):
            assert current < previous or previous <= floor
        assert errors[-1] <= floor

    def test_error_bounded_by_smallest_cap(self):
        r = 0.5
        model = build_izuchi_model(r, 1.0, 8, 8)
        report = verify_izuchi_invariants(model)
        bound = r ** min(model.monomial_cap, model.chain_len, model.series_len)
        assert report.residuals["cross_eigenvalue"] <= bound + 1e-12


class TestCanonicalBasis:
    def test_reference_construction(self):
        basis = canonical_basis_3finite(build_izuchi_model(0.5, 1.0, 10, 10))
        assert basis.ok
        lam = basis.interior_eigenvalue
        assert abs(lam - 0.5) < 1e-10
        # <f2, f3> = -lambda, frozen from expanding the frame definition
        assert abs(np.vdot(basis.f3, basis.f2) - (-lam)) < 1e-10

    def test_frame_vectors_are_unit_and_split(self):
        basis = canonical_basis_3finite(build_izuchi_model(0.4, 1j, 10, 10))
        for vec in (basis.f1, basis.f2, basis.f3, basis.f4):
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-10
        # {f1, f3} is an orthonormal basis of the interior eigenspace pair
        gram = np.array([
            [np.vdot(basis.f1, basis.f1), np.vdot(basis.f1, basis.f3)],
            [np.vdot(basis.f3, basis.f1), np.vdot(basis.f3, basis.f3)],
        ])
        assert np.linalg.norm(gram - np.eye(2)) < 1e-10
        span = np.column_stack([basis.e_plus, basis.e_minus])
        for vec in (basis.f1, basis.f3):
            residual = vec - span @ (span.conj().T @ vec)
            assert np.linalg.norm(residual) < 1e-10

    def test_membership_residuals_are_small(self):
        basis = canonical_basis_3finite(build_izuchi_model(0.7, np.exp(0.5j), 10, 10))
        assert basis.ok, basis.checks
        assert max(basis.checks.values()) < 1e-8

    def test_cross_eigenvalue_recovered_through_frame(self):
        twist = np.exp(1.2j)
        basis = canonical_basis_3finite(build_izuchi_model(0.5, twist, 10, 10))
        assert abs(basis.cross_eigenvalue - 0.5 * twist) < 1e-8


def test_block_subspaces_of_two_models_are_orthogonal():
    # direct sum of two chain models: the reconstructed block subspaces
    # spanned by forward orbits of the two generating vectors stay orthogonal
    first = build_izuchi_model(0.5, 1.0, 7, 7).pair
    second = build_izuchi_model(0.3, 1j, 7, 7).pair
    combined = direct_sum([first, second])
    result = classify(combined)
    assert result.k == 2
    idx = np.asarray(combined.interior, dtype=int)
    v1 = combined.v1[np.ix_(idx, idx)]
    v2 = combined.v2[np.ix_(idx, idx)]

    def orbit(vec):
        vectors = []
        for m in range(4):
            for n in range(4 - m):
                w = vec.copy()
                for _ in range(m):
                    w = v1 @ w
                for _ in range(n):
                    w = v2 @ w
                vectors.append(w)
        return np.column_stack(vectors)

    blocks = [orbit(b.f_vector) for b in result.blocks]
    overlap = blocks[0].conj().T @ blocks[1]
    assert np.abs(overlap).max() < 1e-9
