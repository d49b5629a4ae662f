"""Spectral analysis of defect operators.

Defect operators of isometric pairs are Hermitian contractions that arise as
differences of two orthogonal projections.  Their spectrum therefore splits
into the eigenvalue-1 and eigenvalue-(-1) parts, a kernel, and interior
eigenvalues that come in symmetric ``+lambda / -lambda`` pairs of equal
multiplicity.  This module extracts that profile, checks the two rank
identities tying the defect rank to the cross-commutator rank, and builds
the canonical difference-of-two-projections model from its parameters.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import neg

import numpy as np
from scipy.linalg import block_diag

from .bcl import BCLTriple, wandering_projections
from .linalg import (
    _check_tolerance,
    _checked_hermitian,
    _rank_from_moduli,
    _support,
    as_complex,
    numerical_rank,
)

#: Default clustering tolerance of a spectral profile: eigenvalues within it
#: of +1, -1, 0 or of each other share a cluster.
CLUSTER_TOL = 1e-8


def _runs(values: np.ndarray, vals: list[float], lo: int, hi: int,
          tol: float) -> tuple[list[float], list[range]]:
    """Clusters of the descending ``values[lo:hi]`` (``vals`` holds them as floats).

    A cluster ends where the next value is not within ``tol`` of the last
    one.  Returns each cluster's mean and its run of positions.
    """
    means, runs = [], []
    start = lo
    for i in range(lo + 1, hi + 1):
        if i == hi or not abs(vals[i] - vals[i - 1]) <= tol:
            # np.mean of one value is exactly 0.0 + value: its sum starts at
            # +0.0, which turns -0.0 into 0.0 and leaves every other value as is
            means.append(vals[start] + 0.0 if i - start == 1
                         else float(values[start:i].mean()))
            runs.append(range(start, i))
            start = i
    return means, runs


@dataclass(frozen=True)
class InteriorPair:
    """One symmetric interior eigenvalue cluster ``+value / -value``.

    ``mult_pos`` or ``mult_neg`` is zero when the matching side is missing;
    the owning profile then flags the asymmetry.
    """

    value: float
    mult_pos: int
    mult_neg: int


@dataclass(frozen=True)
class SpectralProfile:
    """Eigen-data of a Hermitian contraction (all ``eigenvalues``, descending), split by region.

    ``clusters[i]`` names the cluster of ``eigenvalues[i]``: ``plus_one``,
    ``minus_one``, ``kernel``, or ``pair{j}_pos`` / ``pair{j}_neg`` for the
    two sides of ``interior_pairs[j]``.
    """

    ambient_dim: int
    eigenvalues: np.ndarray
    clusters: tuple[str, ...]
    dim_plus1: int
    dim_minus1: int
    interior_pairs: tuple[InteriorPair, ...]
    dim_kplus: int
    kernel_dim: int
    symmetric: bool

    def counted_dim(self) -> int:
        interior = sum(p.mult_pos + p.mult_neg for p in self.interior_pairs)
        return self.dim_plus1 + self.dim_minus1 + interior + self.kernel_dim


def spectral_profile(defect, cluster_tol: float = CLUSTER_TOL) -> SpectralProfile:
    """Cluster the spectrum of a Hermitian contraction at ``{-1, 0, +1}`` and pairs.

    Eigenvalues within ``cluster_tol`` of +1, -1 or 0 land in the
    corresponding cluster; the rest are interior and are greedily paired,
    largest first, with a negated cluster within ``cluster_tol``.  An
    unpaired interior cluster (or a multiplicity mismatch) clears the
    ``symmetric`` flag instead of raising: genuine defect operators never
    trip it, so a set flag is diagnostic data.

    The eigenvalues come from one ``np.linalg.eigh``, after the Hermitian
    check of :func:`~isopair.linalg.hermitian_eig`; no eigenvector is kept.
    ``eigvalsh`` would skip the vectors, but it takes another LAPACK path
    whose eigenvalues round differently.

    Raises ``ValueError`` for a matrix that is not finite, not Hermitian or
    not a contraction, and for a negative or non-finite ``cluster_tol``.
    """
    _check_tolerance("cluster_tol", cluster_tol)
    # One eigh of the whole matrix, not of its support as in rank_formula:
    # on a zero row eigh can return -0.0 where the support path fills in
    # 0.0, and the eigenvalue bytes of this profile are pinned against a
    # reference implementation (tests/test_spectral.py)
    return _profile(np.linalg.eigh(_checked_hermitian(defect))[0], cluster_tol)


def _profile(values: np.ndarray, cluster_tol: float) -> SpectralProfile:
    """The :class:`SpectralProfile` of a Hermitian contraction with eigenvalues ``values``.

    ``values`` holds every eigenvalue; the profile lists them in descending order.
    """
    values = values[values.argsort()[::-1]]
    vals = values.tolist()
    n = len(vals)
    if n and max(vals[0], -vals[-1]) > 1.0 + 1e-8:
        raise ValueError("operator norm exceeds 1 beyond tolerance; not a contraction")

    # The values descend, so each region is a run of positions, found by
    # bisection on the negated values: bisect_right at -x counts the values
    # >= x and bisect_left those > x.  Each region counts its own values;
    # where a large tolerance overlaps two regions, a value counts in both.
    plus_end = bisect_right(vals, -(1.0 - cluster_tol), key=neg)
    minus_start = bisect_left(vals, -(-1.0 + cluster_tol), key=neg)
    kernel_start = bisect_left(vals, -cluster_tol, key=neg)
    kernel_end = bisect_right(vals, cluster_tol, key=neg)
    # the interior values are the ones outside all three regions
    pos_means, pos_runs = _runs(values, vals, plus_end, min(kernel_start, minus_start),
                                cluster_tol)
    neg_means, neg_runs = _runs(values, vals, max(kernel_end, plus_end), minus_start,
                                cluster_tol)

    # Each positive cluster, largest first, takes the first unused negative
    # cluster (in descending order) with |mean + neg_mean| <= cluster_tol.
    # A plain scan: small inputs have a few clusters, where it costs less
    # than a bisect window or an array of all candidates
    match = [-1] * len(pos_runs)
    pair_of_neg = [-1] * len(neg_runs)
    for i, mean in enumerate(pos_means):
        for j, neg_mean in enumerate(neg_means):
            if pair_of_neg[j] < 0 and abs(mean + neg_mean) <= cluster_tol:
                match[i], pair_of_neg[j] = j, i
                break
    pairs = []
    symmetric = True
    for mean, run, j in zip(pos_means, pos_runs, match):
        neg_size = len(neg_runs[j]) if j >= 0 else 0
        symmetric = symmetric and neg_size == len(run)
        pairs.append(InteriorPair(mean, len(run), neg_size))
    for j, (mean, run) in enumerate(zip(neg_means, neg_runs)):
        if pair_of_neg[j] < 0:
            symmetric = False
            pair_of_neg[j] = len(pairs)
            pairs.append(InteriorPair(-mean, 0, len(run)))

    # +1 wins over -1 and -1 over the kernel when a large tolerance overlaps
    # them; each interior value is labelled by the pair of its cluster
    labels = ["kernel"] * n
    labels[minus_start:] = ["minus_one"] * (n - minus_start)
    labels[:plus_end] = ["plus_one"] * plus_end
    if pos_runs:
        labels[pos_runs[0].start:pos_runs[-1].stop] = [
            f"pair{i}_pos" for i, run in enumerate(pos_runs) for _ in run]
    if neg_runs:
        labels[neg_runs[0].start:neg_runs[-1].stop] = [
            f"pair{k}_neg" for k, run in zip(pair_of_neg, neg_runs) for _ in run]

    return SpectralProfile(
        ambient_dim=n,
        eigenvalues=values,
        clusters=tuple(labels),
        dim_plus1=plus_end,
        dim_minus1=n - minus_start,
        interior_pairs=tuple(pairs),
        dim_kplus=sum(map(len, pos_runs)),
        kernel_dim=kernel_end - kernel_start,
        symmetric=symmetric,
    )


@dataclass(frozen=True)
class RankFormulaReport:
    """Both rank identities for one pair, with the numbers behind them.

    ``sum_identity``:        rankC == rankX + dimE1 + dimK+
    ``difference_identity``: rankC == 2 rankX + dimE1 - dimE-1
    """

    rank_defect: int
    rank_cross: int
    dim_plus1: int
    dim_minus1: int
    dim_kplus: int
    sum_identity_ok: bool
    difference_identity_ok: bool

    @property
    def both_identities_hold(self) -> bool:
        return self.sum_identity_ok and self.difference_identity_ok


def check_rank_formula(
    triple: BCLTriple,
    rank_tol: float | None = None,
    cluster_tol: float = CLUSTER_TOL,
) -> RankFormulaReport:
    """Evaluate both rank identities for a triple; failures are reported, never hidden."""
    _check_tolerance("cluster_tol", cluster_tol)
    ops = wandering_projections(triple)
    return rank_formula(ops.defect, ops.cross, rank_tol, cluster_tol)[0]


def rank_formula(
    defect,
    cross,
    rank_tol: float | None = None,
    cluster_tol: float = CLUSTER_TOL,
) -> tuple[RankFormulaReport, SpectralProfile]:
    """Both rank identities for a defect and cross-commutator, with the defect's profile.

    Each matrix, dense or ``scipy.sparse``, is decomposed once, on the block
    of the indices it touches (:func:`~isopair.linalg._support`).  The
    defect's other rows are zero: each adds one eigenvalue 0 to the
    profile.  The defect is Hermitian, so its singular values are the
    moduli of its eigenvalues: its rank is read from the profile's
    eigenvalues (one ``eigh``), with the cutoff of
    :func:`~isopair.linalg.numerical_rank` for its whole shape.  The
    cross-commutator is not Hermitian and keeps its SVD.  ``cluster_tol``
    must be finite and nonnegative.
    """
    _check_tolerance("cluster_tol", cluster_tol)
    rank_cross = numerical_rank(cross, rank_tol)
    rows, block = _support(defect)
    values = np.linalg.eigh(_checked_hermitian(block))[0]
    if rows.size < np.shape(defect)[0]:
        values = np.concatenate((values, np.zeros(np.shape(defect)[0] - rows.size)))
    profile = _profile(values, cluster_tol)
    rank_defect = _rank_from_moduli(np.abs(values), (profile.ambient_dim,) * 2, rank_tol)
    report = RankFormulaReport(
        rank_defect=rank_defect,
        rank_cross=rank_cross,
        dim_plus1=profile.dim_plus1,
        dim_minus1=profile.dim_minus1,
        dim_kplus=profile.dim_kplus,
        sum_identity_ok=(
            rank_defect == rank_cross + profile.dim_plus1 + profile.dim_kplus
        ),
        difference_identity_ok=(
            rank_defect
            == 2 * rank_cross + profile.dim_plus1 - profile.dim_minus1
        ),
    )
    return report, profile


def _finite(name: str, matrix) -> np.ndarray:
    """``matrix`` as complex128, after checking that every entry is finite."""
    matrix = as_complex(matrix)
    if not np.isfinite(matrix).all():
        raise ValueError(f"{name} has a non-finite entry")
    return matrix


@dataclass(frozen=True)
class DiffProjCanonicalForm:
    """Parameters of the canonical difference-of-two-projections model.

    The model acts on ``kernel + plus1 + minus1 + K + K`` where ``K`` is the
    generic part: ``diag`` is a strictly positive diagonal contraction on K,
    ``kernel_proj`` is an arbitrary projection on the kernel block, and
    ``commuting_unitary`` is a unitary on K that commutes with ``diag``.
    A parameter with a non-finite entry raises ``ValueError``.
    """

    kernel_dim: int
    dim_plus1: int
    dim_minus1: int
    diag: np.ndarray
    kernel_proj: np.ndarray
    commuting_unitary: np.ndarray

    def __post_init__(self):
        diag = _finite("diag", self.diag)
        kernel_proj = _finite("kernel_proj", self.kernel_proj)
        unitary = _finite("commuting_unitary", self.commuting_unitary)
        k = diag.shape[0]
        if diag.shape != (k, k) or np.linalg.norm(diag - np.diag(np.diagonal(diag))) > 1e-12:
            raise ValueError("diag must be a square diagonal matrix")
        d = np.diagonal(diag).real
        if np.linalg.norm(np.diagonal(diag).imag) > 1e-10:
            raise ValueError("diag must be real")
        if k and (np.min(d) <= 1e-10 or np.max(d) >= 1.0 - 1e-10):
            raise ValueError("diag entries must lie strictly inside (0, 1)")
        if kernel_proj.shape != (self.kernel_dim, self.kernel_dim):
            raise ValueError("kernel projection has the wrong shape")
        if np.linalg.norm(kernel_proj @ kernel_proj - kernel_proj) > 1e-10 or \
                np.linalg.norm(kernel_proj - kernel_proj.conj().T) > 1e-10:
            raise ValueError("kernel_proj is not an orthogonal projection")
        if unitary.shape != (k, k):
            raise ValueError("commuting_unitary has the wrong shape")
        if k and np.linalg.norm(unitary.conj().T @ unitary - np.eye(k)) > 1e-10:
            raise ValueError("commuting_unitary is not unitary")
        if np.linalg.norm(unitary @ diag - diag @ unitary) > 1e-10:
            raise ValueError("commuting_unitary does not commute with diag")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "kernel_proj", kernel_proj)
        object.__setattr__(self, "commuting_unitary", unitary)

    @property
    def generic_dim(self) -> int:
        return self.diag.shape[0]


def build_difference_projections(
    form: DiffProjCanonicalForm,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical ``(A, P, Q)`` with ``A = P - Q`` from the form's parameters.

    ``A`` is the block-diagonal contraction ``0 + I + (-I) + D + (-D)``.  The
    two projections agree on the kernel block, split the +1/-1 blocks, and
    mix the doubled generic block::

        P_generic = 1/2 [[I + D,  Uc sqrt(I - D^2)], [sqrt(I - D^2) Uc^H,  I - D]]
        Q_generic = 1/2 [[I - D,  Uc sqrt(I - D^2)], [sqrt(I - D^2) Uc^H,  I + D]]

    Both generic blocks have rank exactly ``dim K``.
    """
    k = form.generic_dim
    d = form.diag
    uc = form.commuting_unitary
    eye_k = np.eye(k)
    root = np.diag(np.sqrt(1.0 - np.diagonal(d).real ** 2)).astype(np.complex128)

    a = block_diag(
        np.zeros((form.kernel_dim, form.kernel_dim), dtype=np.complex128),
        np.eye(form.dim_plus1, dtype=np.complex128),
        -np.eye(form.dim_minus1, dtype=np.complex128),
        d,
        -d,
    )

    off = uc @ root
    p_generic = 0.5 * np.block([[eye_k + d, off], [off.conj().T, eye_k - d]])
    q_generic = 0.5 * np.block([[eye_k - d, off], [off.conj().T, eye_k + d]])

    p = block_diag(
        form.kernel_proj,
        np.eye(form.dim_plus1, dtype=np.complex128),
        np.zeros((form.dim_minus1, form.dim_minus1), dtype=np.complex128),
        p_generic,
    )
    q = block_diag(
        form.kernel_proj,
        np.zeros((form.dim_plus1, form.dim_plus1), dtype=np.complex128),
        np.eye(form.dim_minus1, dtype=np.complex128),
        q_generic,
    )
    return a, p, q


@dataclass(frozen=True)
class SymmetryReport:
    """Interior eigenvalue symmetry of a difference of two projections."""

    ok: bool
    pairs: tuple[tuple[float, int, int], ...]
    interior_count: int


def eigen_symmetry_check(a, p, q, tol: float = 1e-8) -> SymmetryReport:
    """Verify the ``+lambda / -lambda`` multiplicity symmetry of ``a = p - q``.

    Raises ``ValueError`` for a non-finite entry in ``a``, ``p`` or ``q``,
    when the inputs fail the difference-of-projections precondition
    (``p``/``q`` not projections, ``a != p - q``, or ``a`` not a Hermitian
    contraction) and for a ``tol`` that is not finite and nonnegative; the
    symmetry outcome itself is returned, not raised, since it is the
    quantity under test.
    """
    _check_tolerance("tol", tol)
    a, p, q = _finite("a", a), _finite("p", p), _finite("q", q)
    # written so that NaN fails them
    for name, m in (("p", p), ("q", q)):
        if not (np.linalg.norm(m @ m - m) <= tol and np.linalg.norm(m - m.conj().T) <= tol):
            raise ValueError(f"{name} is not an orthogonal projection within tol")
    if not np.linalg.norm(a - (p - q)) <= tol:
        raise ValueError("a is not the difference of the given projections within tol")
    profile = spectral_profile(a, cluster_tol=tol)
    pairs = tuple((pr.value, pr.mult_pos, pr.mult_neg) for pr in profile.interior_pairs)
    interior = sum(pr.mult_pos + pr.mult_neg for pr in profile.interior_pairs)
    return SymmetryReport(ok=profile.symmetric, pairs=pairs, interior_count=interior)
