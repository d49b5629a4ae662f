"""Truncated model of the rank-one self-adjoint-commutator invariant subspace.

The subspace is spanned, inside the two-variable Laurent monomials, by the
analytic monomials ``z^m w^n`` together with a chain of co-analytic tail
vectors

    g_j = sum_k  r^k  z^(j+k) w^(-(k+1)),        j = 0, 1, 2, ...

for a real tail ratio ``0 < |r| < 1``.  Normalized chain vectors
``sqrt(1 - r^2) g_j`` and the monomials form an orthonormal family, and the
two coordinate multiplications act by the closed forms

    z . g_j = g_(j+1)                (first operator carries a unimodular twist)
    w . g_j = z^j + r g_(j+1)

The truncated model keeps monomials with exponents below ``monomial_cap``,
chain vectors below ``chain_len``, and represents each chain vector by
``series_len`` Laurent terms.  Closed-form matrices are never trusted blind:
at build time every entry is checked against the exponent-matching
inner-product oracle, and the basis orthonormality residual must clear
1e-10 (a larger residual signals ``series_len`` too small).

The resulting pair is the irreducible building block whose defect operator
has the three simple nonzero eigenvalues ``{1, |r|, -|r|}`` and whose
cross-commutator is rank one with sole eigenvalue ``twist * r``.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .classify import working_space
from .linalg import _check_tolerance, _entries, _support, frobenius_norm, lift, normality_residual
from .models import StructuredPair, _csr, _monomial_labels, sparse_operators
from .spectral import rank_formula

LaurentSeries = dict[tuple[int, int], complex]

#: Orthonormality / closed-form agreement threshold at build time.
BUILD_RESIDUAL_CAP = 1e-10

#: Target tail mass for the truncated geometric series.
SERIES_TAIL = 1e-14


def minimal_series_len(ratio: float) -> int:
    """Smallest series length whose dropped geometric tail is below 1e-14."""
    return max(1, math.ceil(math.log(SERIES_TAIL) / math.log(abs(ratio))))


def laurent_inner(a: LaurentSeries, b: LaurentSeries) -> complex:
    """Inner product by exponent matching (monomials are orthonormal)."""
    if len(b) < len(a):
        return complex(laurent_inner(b, a)).conjugate()
    return sum(coeff * b.get(exp, 0.0).conjugate() for exp, coeff in a.items())


def chain_expansion(ratio: float, j: int, series_len: int) -> LaurentSeries:
    """Normalized chain vector ``sqrt(1-r^2) g_j`` as a truncated expansion."""
    norm = math.sqrt(1.0 - ratio * ratio)
    return {(j + k, -(k + 1)): norm * ratio ** k for k in range(series_len)}


@functools.lru_cache(maxsize=8)
def _basis_labels(monomial_cap: int, chain_len: int) -> tuple[tuple, ...]:
    """Basis labels in index order, built once per caps.

    Monomial ``(m, n)`` is index ``m * monomial_cap + n``; chain vector ``j``
    is ``monomial_cap**2 + j``.
    """
    return _monomial_labels(monomial_cap) + tuple(("chain", j) for j in range(chain_len))


def _basis_expansions(ratio: float, monomial_cap: int, chain_len: int,
                      series_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every basis vector's Laurent terms, as ``(z, w, coefficients, column)``.

    Term ``t`` says that basis vector ``column[t]`` has coefficient
    ``coefficients[t]`` at the monomial ``z^z[t] w^w[t]``; columns run over
    the basis in label order, and a chain vector's terms in series order,
    each the float :func:`chain_expansion` gives.
    """
    cap = monomial_cap
    # chain vector j holds r^k z^(j+k) w^-(k+1), k < series_len
    k = np.tile(np.arange(series_len), chain_len)
    shifts = np.repeat(np.arange(chain_len), series_len)
    z = np.concatenate([np.repeat(np.arange(cap), cap), shifts + k])
    w = np.concatenate([np.tile(np.arange(cap), cap), -1 - k])
    norm = math.sqrt(1.0 - ratio * ratio)
    coefficients = np.ones(z.size, dtype=np.complex128)
    coefficients[cap * cap:] = np.tile([norm * ratio ** i for i in range(series_len)], chain_len)
    column = np.concatenate([np.arange(cap * cap), cap * cap + shifts])
    return z, w, coefficients, column


def _summed(dim: int, rows: np.ndarray, cols: np.ndarray, terms: np.ndarray):
    """The sum of the ``terms`` at each position ``(rows, cols)`` of a ``dim x dim`` matrix.

    Each position adds its terms in the order given.  Returns the distinct
    positions, sorted by row and then column, as ``(rows, cols, values)``.
    """
    ids = rows * dim + cols
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    first = np.empty(ids.size, dtype=bool)
    first[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    position = np.cumsum(first) - 1
    terms = terms[order]
    values = np.empty(position[-1] + 1, dtype=np.complex128)
    values.real = np.bincount(position, terms.real, values.size)
    values.imag = np.bincount(position, terms.imag, values.size)
    ids = ids[first]
    rows = ids // dim
    return rows, ids - rows * dim, values


def _difference(dim: int, first, second) -> np.ndarray:
    """``first - second`` at every position either holds, from their entries.

    Each of ``first`` and ``second`` is ``(rows, cols, values)`` with distinct
    positions; a position one of them lacks is zero there.  A position both
    hold gives its difference once and a zero.
    """
    ids = np.concatenate([first[0] * dim + first[1], second[0] * dim + second[1]])
    values = np.concatenate([first[2], -second[2]])
    order = np.argsort(ids, kind="stable")
    ids, values = ids[order], values[order]
    # a position both hold comes twice in a row, first's entry ahead
    both = np.flatnonzero(ids[1:] == ids[:-1])
    values[both] += values[both + 1]
    values[both + 1] = 0.0
    return values


def _oracle_matrices(ratio: float, twist: complex, monomial_cap: int,
                     chain_len: int, series_len: int):
    """Operator entries and basis squared norms from raw inner products.

    Entry ``(a, b)`` of each operator is ``<coordinate . basis_b, basis_a>``,
    computed by exponent matching: multiplying by a coordinate shifts every
    exponent of ``basis_b``, and each shifted term that lands on a term of
    ``basis_a`` adds ``conj(c_a) c_b``.  Each entry adds its terms in
    increasing exponent order.  Returns ``(v1, v2, norms)``: each operator's
    distinct entries as ``(rows, cols, values)`` sorted by row, then column
    (:func:`_summed`), with the twist applied to v1's values, and the squared
    norms of the basis vectors.  No two basis vectors may share an exponent
    (a ``ValueError`` otherwise), so the Gram matrix is diagonal, and those
    norms are all of it; it is never formed.
    """
    z, w, data, cols = _basis_expansions(ratio, monomial_cap, chain_len, series_len)
    # an exponent (z, w) is keyed by an integer that sorts like the pair,
    # with room in the w part for a shift by one
    w_low = w.min()
    span = int(w.max() - w_low) + 2
    keys = (z - z.min()) * span + (w - w_low)
    order = np.argsort(keys, kind="stable")  # a merge sort: the keys come in sorted runs
    keys, data, cols = keys[order], data[order], cols[order]
    shared = np.flatnonzero(keys[1:] == keys[:-1])
    if shared.size:
        t = order[shared[0]]
        raise ValueError(f"two basis terms share the exponent z^{z[t]} w^{w[t]}")
    dim = monomial_cap * monomial_cap + chain_len

    def shifted(delta: int):
        # source terms in increasing exponent order land on targets in
        # increasing exponent order, the order each entry adds its terms in
        landing = keys + delta
        target = np.minimum(np.searchsorted(keys, landing), keys.size - 1)
        source = np.flatnonzero(keys[target] == landing)
        target = target[source]
        terms = data[target].conj() * data[source]
        return _summed(dim, cols[target], cols[source], terms)

    rows, columns, values = shifted(span)
    norms = np.bincount(cols, (data.conj() * data).real, dim)
    return (rows, columns, values * twist), shifted(1), norms


def _closed_form_matrices(ratio: float, twist: complex, monomial_cap: int,
                          chain_len: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    cap = monomial_cap
    mono = np.arange(cap * cap)
    m, n = np.divmod(mono, cap)
    raise_z, raise_w = mono[m + 1 < cap], mono[n + 1 < cap]
    # z . g_j = g_(j+1) and w . g_j = z^j + r g_(j+1), cut at both caps
    step = cap * cap + np.arange(chain_len - 1)
    lead = np.arange(min(chain_len, cap))
    norm = math.sqrt(1.0 - ratio * ratio)
    dim = cap * cap + chain_len
    v1 = _csr(dim, np.concatenate([raise_z + cap, step + 1]),
              np.concatenate([raise_z, step]), twist)
    v2 = _csr(dim, np.concatenate([raise_w + 1, step + 1, lead * cap]),
              np.concatenate([raise_w, step, cap * cap + lead]),
              np.concatenate([np.ones(raise_w.size), np.full(step.size, ratio),
                              np.full(lead.size, norm)]))
    return v1, v2


def _interior_indices(monomial_cap: int, chain_len: int) -> np.ndarray:
    # Two indices of margin from every truncation edge: the operators and
    # their adjoints each move an index by at most one, and the chain/monomial
    # sectors couple, so the margin is taken from the smaller cap.
    keep = min(monomial_cap, chain_len) - 2
    m, n = np.divmod(np.arange(monomial_cap * monomial_cap), monomial_cap)
    mono = np.flatnonzero((m < keep) & (n < keep))
    chain = monomial_cap * monomial_cap + np.arange(keep)
    # an int64 array: ``StructuredPair`` makes its tuple of ints from it
    return np.concatenate([mono, chain])


@dataclass(frozen=True)
class IzuchiModel:
    """Built truncated model plus its construction parameters."""

    ratio: float
    twist: complex
    monomial_cap: int
    chain_len: int
    series_len: int
    pair: StructuredPair


def build_izuchi_model(ratio: float, twist: complex, monomial_cap: int = 12,
                       chain_len: int = 12,
                       series_len: int | None = None) -> IzuchiModel:
    """Build and cross-validate the truncated invariant-subspace model.

    Parameters
    ----------
    ratio : float
        Real, nonzero, ``|ratio| < 1``; the cross-commutator eigenvalue
        before the twist.
    twist : complex
        Unimodular factor applied to the first operator.
    monomial_cap, chain_len : int
        Truncation caps, at least 4 each.
    series_len : int, optional
        Laurent terms kept per chain vector.  Defaults to the smallest count
        whose dropped geometric tail is below 1e-14; smaller values are
        rejected because the basis would fail its orthonormality check.
    """
    ratio = float(ratio)
    twist = complex(twist)
    if not 0.0 < abs(ratio) < 1.0:
        raise ValueError(f"ratio must be real with 0 < |ratio| < 1, got {ratio}")
    # written so that a NaN modulus fails it
    if not abs(abs(twist) - 1.0) <= 1e-12:
        raise ValueError(f"twist must be finite and unimodular, got |twist| = {abs(twist)}")
    if monomial_cap < 4 or chain_len < 4:
        raise ValueError("monomial_cap and chain_len must be at least 4")
    floor = minimal_series_len(ratio)
    if series_len is None:
        series_len = floor
    elif series_len < floor:
        raise ValueError(
            f"series_len {series_len} below the tail requirement {floor} "
            f"for ratio {ratio}"
        )

    v1, v2 = _closed_form_matrices(ratio, twist, monomial_cap, chain_len)
    v1_oracle, v2_oracle, norms = _oracle_matrices(
        ratio, twist, monomial_cap, chain_len, series_len
    )

    dim = v1.shape[0]
    # the Gram matrix is diagonal, so its distance from the identity is that
    # of the squared norms from one
    ortho_residual = frobenius_norm(norms - 1.0)
    if ortho_residual > BUILD_RESIDUAL_CAP:
        raise ValueError(
            f"basis orthonormality residual {ortho_residual:.3e} exceeds "
            f"{BUILD_RESIDUAL_CAP:.0e}; series_len too small"
        )
    for name, closed, oracle in (("v1", v1, v1_oracle), ("v2", v2, v2_oracle)):
        # entries absent from both sides are equal, so the sparse maximum
        # is the dense one
        gap = float(np.abs(_difference(dim, _entries(closed), oracle)).max(initial=0.0))
        if gap > BUILD_RESIDUAL_CAP:
            raise ValueError(
                f"closed-form {name} disagrees with the inner-product oracle "
                f"by {gap:.3e}"
            )

    pair = StructuredPair(
        dim=dim,
        v1=v1,
        v2=v2,
        basis_labels=_basis_labels(monomial_cap, chain_len),
        interior=_interior_indices(monomial_cap, chain_len),
        provenance="izuchi",
    )
    return IzuchiModel(ratio, twist, monomial_cap, chain_len, series_len, pair)


@dataclass(frozen=True)
class IzuchiReport:
    """Interior-window invariants of a built model."""

    ok: bool
    cross_rank: int
    cross_eigenvalue: complex
    normality_residual: float
    defect_nonzero: tuple[float, ...]
    dim_plus1: int
    dim_minus1: int
    rank_formula_ok: bool
    residuals: dict[str, float]


def verify_izuchi_invariants(model: IzuchiModel, tol: float = 1e-8) -> IzuchiReport:
    """Check the five defining invariants of the model on its interior window.

    (i) the cross-commutator is rank one with sole nonzero eigenvalue
    ``twist * ratio``; (ii) it is normal; (iii) the defect's nonzero
    eigenvalues are ``{1, |ratio|, -|ratio|}``, each simple; (iv) the
    eigenvalue-1 space is one-dimensional and the eigenvalue-(-1) space is
    empty; (v) the rank identity ``3 == 2*1 + 1 - 0`` holds.  ``tol`` must
    be finite and nonnegative.
    """
    _check_tolerance("tol", tol)
    ws = working_space(model.pair)

    _, c_block = _support(ws.defect)
    _, x_block = _support(ws.cross)
    ranks, profile = rank_formula(c_block, x_block, None, tol)
    nonzero = [float(v) for v, cluster in zip(profile.eigenvalues, profile.clusters)
               if cluster != "kernel"]

    x_eigs = np.linalg.eigvals(x_block) if x_block.size else np.array([])
    x_nonzero = x_eigs[np.abs(x_eigs) > tol]
    cross_eig = complex(x_nonzero[0]) if x_nonzero.size == 1 else complex(0.0)

    normality = normality_residual(ws.cross)

    lam = abs(model.ratio)
    expected = np.array([1.0, lam, -lam])
    got = np.array(sorted(nonzero, reverse=True))
    if got.size == 3:
        spectrum_residual = float(np.max(np.abs(got - expected)))
    else:
        spectrum_residual = float("inf")

    beta = model.twist * model.ratio
    residuals = {
        "cross_eigenvalue": abs(cross_eig - beta),
        "normality": normality,
        "defect_spectrum": spectrum_residual,
    }
    rank_formula_ok = ranks.difference_identity_ok and ranks.rank_defect == 3
    ok = (
        ranks.rank_cross == 1
        and residuals["cross_eigenvalue"] <= tol
        and normality <= tol
        and spectrum_residual <= tol
        and ranks.dim_plus1 == 1
        and ranks.dim_minus1 == 0
        and rank_formula_ok
    )
    return IzuchiReport(
        ok=ok,
        cross_rank=ranks.rank_cross,
        cross_eigenvalue=cross_eig,
        normality_residual=normality,
        defect_nonzero=tuple(got.tolist()),
        dim_plus1=ranks.dim_plus1,
        dim_minus1=ranks.dim_minus1,
        rank_formula_ok=rank_formula_ok,
        residuals=residuals,
    )


@dataclass(frozen=True)
class CanonicalBasis3:
    """Canonical wandering-space frame of an irreducible rank-3 block.

    ``f`` spans the eigenvalue-1 space of the defect; ``e_plus``/``e_minus``
    span the interior eigenspaces.  The frame ``f1..f4`` rotates
    ``(e_plus, e_minus)`` so that ``f1`` spans the first kernel's slice of
    the interior eigenspace pair, ``f3`` its orthogonal complement, and
    ``<f2, f3> = -lambda``.  ``rotation`` is the unimodular mixing constant
    read off the wandering projection's off-diagonal block.
    """

    ok: bool
    interior_eigenvalue: float
    cross_eigenvalue: complex
    rotation: complex
    f: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    f4: np.ndarray
    checks: dict[str, float]


def canonical_basis_3finite(model: IzuchiModel, tol: float = 1e-8) -> CanonicalBasis3:
    """Construct ``{f, e_plus, e_minus, f1..f4}`` and verify their relations.

    Raises ``ValueError`` when the defect's ``1`` / ``+lambda`` / ``-lambda``
    clusters are not simple, which signals a wrong input or tolerance.  All
    membership relations are reported as residuals in ``checks``:

    * ``f1_in_w1``        : f1 lies in the first wandering subspace,
    * ``f3_perp_w1``      : f3 is orthogonal to it,
    * ``f2_f3_inner``     : deviation of <f2, f3> from -lambda,
    * ``u_f3_along_f``    : U f3 is a multiple of f,
    * ``u_f_along_f2``    : U f  is a multiple of f2,
    * ``u_f1_in_tail``    : U f1 lands in the wandering tail inside W1,
    * ``u_adj_f4_in_tail``: U* f4 lands in the tail's complement.

    ``tol`` must be finite and nonnegative.
    """
    _check_tolerance("tol", tol)
    pair = model.pair
    ws = working_space(pair)
    values, vectors, _ = ws.defect_eig(tol)
    interior = np.asarray(pair.interior, dtype=int)

    lam = abs(model.ratio)

    def simple_vector(target: float) -> np.ndarray:
        hits = np.flatnonzero(np.abs(values - target) <= max(tol, 1e-10))
        if hits.size != 1:
            raise ValueError(
                f"defect eigenvalue {target} is not simple (found {hits.size})"
            )
        return lift(pair.dim, interior, vectors[:, hits[0]])

    f = simple_vector(1.0)
    e_plus = simple_vector(lam)
    e_minus = simple_vector(-lam)

    v1, v2 = sparse_operators(pair)

    def proj_w1(vec: np.ndarray) -> np.ndarray:
        return vec - v1 @ (v1.getH() @ vec)

    def apply_u(vec: np.ndarray) -> np.ndarray:
        inside = proj_w1(vec)
        return v2 @ inside + v1.getH() @ (vec - inside)

    def apply_u_adj(vec: np.ndarray) -> np.ndarray:
        lowered = v2.getH() @ vec
        return proj_w1(lowered) + v1 @ (vec - v2 @ lowered)

    mixing = 2.0 * complex(np.vdot(e_plus, proj_w1(e_minus)))
    mixing /= math.sqrt(1.0 - lam * lam)
    modulus_residual = abs(abs(mixing) - 1.0)
    rotation = mixing / abs(mixing) if abs(mixing) > 0 else 1.0 + 0j

    cp = math.sqrt((1.0 + lam) / 2.0)
    cm = math.sqrt((1.0 - lam) / 2.0)
    rbar = rotation.conjugate()
    f1 = cp * e_plus + rbar * cm * e_minus
    f4 = cp * e_plus - rbar * cm * e_minus
    f2 = cm * e_plus + rbar * cp * e_minus
    f3 = cm * e_plus - rbar * cp * e_minus

    span = np.column_stack([f, f1, f3])

    def off_span(vec: np.ndarray) -> float:
        return float(np.linalg.norm(span.conj().T @ vec, np.inf))

    uf3 = apply_u(f3)
    uf = apply_u(f)
    uf1 = apply_u(f1)
    uaf4 = apply_u_adj(f4)

    checks = {
        "rotation_modulus": modulus_residual,
        "f1_in_w1": float(np.linalg.norm(proj_w1(f1) - f1)),
        "f3_perp_w1": float(np.linalg.norm(proj_w1(f3))),
        "f2_f3_inner": abs(complex(np.vdot(f3, f2)) - (-lam)),
        "u_f3_along_f": float(np.linalg.norm(uf3 - np.vdot(f, uf3) * f)),
        "u_f_along_f2": float(np.linalg.norm(uf - np.vdot(f2, uf) * f2)),
        "u_f1_in_tail": max(float(np.linalg.norm(proj_w1(uf1) - uf1)),
                            off_span(uf1)),
        "u_adj_f4_in_tail": max(float(np.linalg.norm(proj_w1(uaf4))),
                                off_span(uaf4)),
    }
    # f lies in the interior window, so f^H X f is read from X's compression there
    f_interior = f[interior]
    beta = complex(np.vdot(f_interior, ws.cross @ f_interior))
    return CanonicalBasis3(
        ok=all(r <= tol for r in checks.values()),
        interior_eigenvalue=lam,
        cross_eigenvalue=beta,
        rotation=rotation,
        f=f, e_plus=e_plus, e_minus=e_minus,
        f1=f1, f2=f2, f3=f3, f4=f4,
        checks=checks,
    )
