"""Classification pipeline for pairs with compact normal cross-commutator.

Given either a finite model triple or a truncated structured pair, the
pipeline checks normality of the cross-commutator, extracts the defect
operator's eigenvalue-1 space, diagonalizes the cross-commutator compressed
to it (the *fundamental sequence*), splits the input into irreducible
blocks of defect rank 1, 2 or 3, computes the eigenvalue data of the
residual commuting part, and decides unitary equivalence of two inputs by
comparing the resulting invariants as multisets.
"""

from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla

# the working-space builder calls through these modules, so a test can
# count how often each input's defect and cross-commutator are computed
from . import bcl, models
from .bcl import BCLTriple, WanderingOperators
from .linalg import (
    Subspace,
    _normalize_phases,
    hermitian_eig,
    normality_residual,
    orthonormal_columns,
    subspace_intersection,
)
from .models import StructuredPair, validate_pair

#: Band around 0 and 1 used to sort fundamental-sequence entries into kinds;
#: truncation noise inside the band never flips a block kind.
BAND_TOL = 1e-6

ONE_FINITE = "one_finite"
TWO_FINITE = "two_finite"
THREE_FINITE = "three_finite"

PairInput = BCLTriple | StructuredPair


@dataclass(frozen=True)
class WorkingSpace:
    """Working data of one input, computed once and shared by every stage.

    For a triple the working space is the wandering space itself and
    ``wandering`` holds its operators; for a structured pair it is the
    interior window, whose indices ``interior`` holds.  Exactly one of the
    two is set.  Nothing outlives the call that built the object.
    """

    obj: PairInput
    defect: np.ndarray
    cross: np.ndarray
    wandering: WanderingOperators | None = None
    interior: np.ndarray | None = None

    @cached_property
    def defect_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """``hermitian_eig`` of the defect, computed on first use."""
        return hermitian_eig(self.defect)


def working_space(obj: PairInput) -> WorkingSpace:
    """Build the working space of either input kind.

    This is the one place that dispatches on the input kind.
    """
    if isinstance(obj, BCLTriple):
        ops = bcl.wandering_projections(obj)
        return WorkingSpace(obj, ops.defect, ops.cross, wandering=ops)
    if isinstance(obj, StructuredPair):
        defect, cross = models.defect_and_cross_on_interior(obj)
        return WorkingSpace(obj, defect, cross,
                            interior=np.asarray(obj.interior, dtype=int))
    raise TypeError(f"unsupported input type {type(obj).__name__}")


@dataclass(frozen=True)
class NormalityReport:
    """Outcome of the compact-normal membership check."""

    ok: bool
    cross_norm: float
    normality_residual: float
    normality_bound: float
    structure_residuals: dict[str, float]


def check_compact_normal(obj: PairInput, tol: float = 1e-8) -> NormalityReport:
    """Test whether the input lies in the compact-normal class.

    Normality is checked as ``norm(X X^H - X^H X) <= tol * norm(X)^2``
    (compactness is automatic at finite dimension).  Structured pairs are
    additionally required to be isometric and commuting on their interior
    window at the same tolerance.
    """
    return _compact_normal(working_space(obj), tol)


def _compact_normal(ws: WorkingSpace, tol: float) -> NormalityReport:
    cross = ws.cross
    xnorm = float(np.linalg.norm(cross))
    residual = normality_residual(cross)
    bound = tol * xnorm * xnorm
    # a cross-commutator at round-off scale is the zero operator, which is
    # normal; the relative bound would otherwise reject its own noise
    ok = True if xnorm <= 1e-12 else residual <= bound

    structure: dict[str, float] = {}
    if ws.interior is not None:
        structure = validate_pair(ws.obj, tol).residuals
        ok = ok and all(r <= tol for r in structure.values())
    return NormalityReport(ok, xnorm, residual, bound, structure)


def _kernel_projection_block(rows: np.ndarray) -> np.ndarray:
    """``I - V V^H`` on a set of indices, given the rows of ``V`` at those indices."""
    return np.eye(rows.shape[0]) - rows @ rows.conj().T


def _pair_membership_residual(pair: StructuredPair, idx: np.ndarray,
                              vectors: np.ndarray) -> float:
    """Largest distance of the lifted vectors from both wandering subspaces."""
    if vectors.shape[1] == 0:
        return 0.0
    full = np.zeros((pair.dim, vectors.shape[1]), dtype=np.complex128)
    full[idx] = vectors
    # distance from the kernel of V^H is the length of the part in range(V)
    return max(float(np.max(np.linalg.norm(v @ (v.conj().T @ full), axis=0)))
               for v in (pair.v1, pair.v2))


def _pair_wandering_ranges(pair: StructuredPair,
                           idx: np.ndarray) -> tuple[Subspace, Subspace]:
    """Interior compressions of the two kernel projections, as subspaces.

    The compressed operators are only quasi-projections (boundary-cut
    directions acquire eigenvalues strictly inside (0, 1)); the range is
    read off as the eigenvectors with majority membership.
    """
    out = []
    for v in (pair.v1, pair.v2):
        values, vectors = hermitian_eig(_kernel_projection_block(v[idx, :]))
        out.append(Subspace(len(idx), vectors[:, values > 0.5]))
    return out[0], out[1]


def _e1_core(ws: WorkingSpace, tol: float) -> tuple[Subspace, np.ndarray, dict[str, float]]:
    values, vectors = ws.defect_eig
    eig_basis = Subspace(ws.defect.shape[0], vectors[:, values >= 1.0 - tol])
    residuals: dict[str, float] = {}

    if ws.wandering is not None:
        s1 = Subspace.from_columns(ws.wandering.proj_w1)
        s2 = Subspace.from_columns(ws.wandering.proj_w2)
        basis = subspace_intersection(s1, s2, tol)
        gap = float(np.linalg.norm(basis.projector() - eig_basis.projector()))
        residuals["e1_consistency"] = gap
        if basis.dim != eig_basis.dim or gap > max(tol, 1e-8):
            raise ValueError(
                "wandering-subspace intersection disagrees with the defect's "
                f"eigenvalue-1 space (gap {gap:.3e})"
            )
    else:
        pair, idx = ws.obj, ws.interior
        basis = eig_basis
        membership = _pair_membership_residual(pair, idx, basis.basis)
        residuals["e1_membership"] = membership
        if membership > max(tol, 1e-8):
            raise ValueError(
                "eigenvalue-1 vectors leave the wandering subspaces "
                f"(residual {membership:.3e}); inconsistent pair"
            )
        if len(idx) <= 800:
            s1, s2 = _pair_wandering_ranges(pair, idx)
            inter = subspace_intersection(s1, s2, max(tol, 1e-8))
            residuals["e1_consistency"] = float(abs(inter.dim - basis.dim))
            if inter.dim != basis.dim:
                raise ValueError(
                    "wandering-subspace intersection has dimension "
                    f"{inter.dim}, defect eigenvalue-1 space has {basis.dim}"
                )
        else:
            residuals["e1_consistency_skipped"] = float(len(idx))

    cross = ws.cross
    compressed = basis.basis.conj().T @ cross @ basis.basis
    contract = float(np.linalg.norm(
        cross - basis.projector() @ cross @ basis.projector()
    ))
    residuals["cross_confined"] = contract
    if contract > max(tol, 1e-8):
        raise ValueError(
            f"cross-commutator is not confined to the eigenvalue-1 space "
            f"(residual {contract:.3e})"
        )
    return basis, compressed, residuals


def e1_data(obj: PairInput, tol: float = 1e-8) -> tuple[Subspace, np.ndarray]:
    """Eigenvalue-1 space of the defect and the cross-commutator compressed to it.

    The space is computed twice, as the intersection of the two wandering
    subspaces and as the defect's eigenvalue-1 eigenspace; a mismatch beyond
    ``tol`` raises, since it signals an input outside the modeled class.
    """
    basis, compressed, _ = _e1_core(working_space(obj), tol)
    return basis, compressed


@dataclass(frozen=True)
class BlockDescriptor:
    """One irreducible block recovered from the fundamental sequence.

    ``alpha`` is the block's fundamental-sequence entry: 0 for the doubly
    commuting block, unimodular for the twisted-shift block, and of modulus
    strictly between 0 and 1 for the rank-3 invariant-subspace block (then
    ``interior_eigenvalue`` is ``|alpha|`` and ``twist`` its phase).
    ``f_vector`` is the unit eigenvalue-1 eigenvector generating the block,
    in working-space coordinates.
    """

    kind: str
    alpha: complex
    f_vector: np.ndarray
    interior_eigenvalue: float | None = None
    twist: complex | None = None


@dataclass(frozen=True)
class ShiftUnitaryInvariant:
    """Spectra of the residual commuting unitary, split by the projection."""

    eigs_on_p: tuple[complex, ...]
    eigs_on_pperp: tuple[complex, ...]

    @property
    def empty(self) -> bool:
        return not self.eigs_on_p and not self.eigs_on_pperp


@dataclass(frozen=True)
class ClassificationResult:
    """Complete invariant data of one input."""

    k: int
    blocks: tuple[BlockDescriptor, ...]
    shift_unitary: ShiftUnitaryInvariant | None
    residuals: dict[str, float]

    @property
    def fundamental_sequence(self) -> tuple[complex, ...]:
        return tuple(b.alpha for b in self.blocks)


def _canonical_angle(alpha: complex) -> float:
    if abs(alpha) == 0:
        return 0.0
    angle = float(np.angle(alpha)) % (2.0 * np.pi)
    # snap the wrap-around so arguments a hair below 2*pi sort like 0
    return 0.0 if angle > 2.0 * np.pi - 1e-9 else angle


def fundamental_sequence(obj: PairInput, tol: float = 1e-8,
                         band_tol: float = BAND_TOL) -> ClassificationResult:
    """Diagonalize the cross-commutator on the eigenvalue-1 space.

    Eigenvalues (zeros included) form the fundamental sequence; each
    eigenpair becomes a :class:`BlockDescriptor` whose kind is decided by
    the modulus band.  Blocks are ordered deterministically by descending
    modulus, then ascending argument, then lexicographically by the
    phase-normalized eigenvector.  The shift-unitary part is left unfilled;
    see :func:`classify` for the complete invariant.
    """
    return _fundamental_sequence(working_space(obj), tol, band_tol)


def _fundamental_sequence(ws: WorkingSpace, tol: float,
                          band_tol: float) -> ClassificationResult:
    basis, compressed, residuals = _e1_core(ws, tol)
    k = basis.dim
    if k == 0:
        return ClassificationResult(0, (), None, residuals)

    xnorm = float(np.linalg.norm(compressed))
    normality = normality_residual(compressed)
    residuals["e1_cross_normality"] = normality
    if xnorm > 0 and normality > tol * max(1.0, xnorm * xnorm):
        raise ValueError(
            f"cross-commutator on the eigenvalue-1 space is not normal "
            f"(residual {normality:.3e})"
        )

    t, z = sla.schur(compressed, output="complex")
    offdiag = float(np.linalg.norm(t - np.diag(np.diagonal(t))))
    residuals["schur_offdiagonal"] = offdiag
    alphas = np.diagonal(t).copy()
    vectors = np.ascontiguousarray(z)
    _normalize_phases(vectors)

    def sort_key(j: int):
        # moduli and angles are quantized so float fuzz cannot reorder
        # numerically equal entries across runs or scrambles
        a = alphas[j]
        lex = tuple((round(float(c.real), 12), round(float(c.imag), 12))
                    for c in vectors[:, j])
        return (-round(abs(a), 9), round(_canonical_angle(a), 9), lex)

    order = sorted(range(k), key=sort_key)

    blocks = []
    for j in order:
        alpha = complex(alphas[j])
        f_vec = basis.basis @ vectors[:, j]
        mod = abs(alpha)
        if mod <= band_tol:
            blocks.append(BlockDescriptor(ONE_FINITE, 0j, f_vec))
        elif mod >= 1.0 - band_tol:
            blocks.append(BlockDescriptor(TWO_FINITE, alpha / mod, f_vec))
        else:
            blocks.append(BlockDescriptor(
                THREE_FINITE, alpha, f_vec,
                interior_eigenvalue=mod, twist=alpha / mod,
            ))
    return ClassificationResult(k, tuple(blocks), None, residuals)


def _orbit_closure(ops: Sequence[np.ndarray], seeds: np.ndarray,
                   tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the smallest span of ``seeds`` invariant under ``ops``.

    A block Krylov closure: only the directions added last are mapped again;
    their images are projected off the basis twice, and the remainder is kept
    along its singular directions above ``tol``.  The loop stops when no
    direction is added or the basis spans the space.
    """
    n = seeds.shape[0]
    basis = np.empty((n, n), dtype=np.complex128)
    size = 0
    block = seeds
    while block.shape[1] and size < n:
        kept = basis[:, :size]
        for _ in range(2):
            block = block - kept @ (kept.conj().T @ block)
        # no singular value exceeds the Frobenius norm: nothing would be kept
        if np.linalg.norm(block) <= tol:
            break
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        new = u[:, s > tol]
        basis[:, size:size + new.shape[1]] = new
        size += new.shape[1]
        block = np.hstack([op @ new for op in ops])
    return basis[:, :size].copy()


def _unitary_eigs(matrix: np.ndarray) -> tuple[complex, ...]:
    if matrix.shape[0] == 0:
        return ()
    values = np.linalg.eigvals(matrix)
    ordered = sorted((complex(v) for v in values),
                     key=lambda v: (_canonical_angle(v), v.real, v.imag))
    return tuple(ordered)


def _shift_unitary_from_wandering(unitary: np.ndarray, projection: np.ndarray,
                                  defect_eig: tuple[np.ndarray, np.ndarray],
                                  tol: float) -> ShiftUnitaryInvariant:
    values, vectors = defect_eig
    seeds = vectors[:, np.abs(values) > tol]
    orbit = _orbit_closure((unitary, unitary.conj().T), seeds)
    n = unitary.shape[0]
    complement = orthonormal_columns(np.eye(n) - orbit @ orbit.conj().T)
    if complement.shape[1] == 0:
        return ShiftUnitaryInvariant((), ())

    u_n = complement.conj().T @ unitary @ complement
    p_n = complement.conj().T @ projection @ complement
    commute = float(np.linalg.norm(p_n - u_n @ p_n @ u_n.conj().T))
    if commute > tol:
        raise ValueError(
            f"projection does not commute with the unitary on the residual "
            f"block (residual {commute:.3e})"
        )
    # the residual block must also reduce the projection itself, otherwise
    # the 0/1 eigenvalue split below is meaningless
    idem = float(np.linalg.norm(p_n @ p_n - p_n))
    if idem > max(tol, 1e-8):
        raise ValueError(
            f"residual block does not reduce the projection "
            f"(idempotency residual {idem:.3e})"
        )
    pvals, pvecs = hermitian_eig(p_n)
    on_p = pvecs[:, pvals > 0.5]
    off_p = pvecs[:, pvals <= 0.5]
    return ShiftUnitaryInvariant(
        eigs_on_p=_unitary_eigs(on_p.conj().T @ u_n @ on_p),
        eigs_on_pperp=_unitary_eigs(off_p.conj().T @ u_n @ off_p),
    )


def _pair_wandering_model(pair: StructuredPair,
                          idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense wandering-space data (basis, unitary, projection) of a pair.

    The wandering space of the product isometry is extracted from the
    interior compression of ``I - V V^H``; the model unitary acts as the
    second operator on the first kernel and as the first operator's adjoint
    on the complement.
    """
    if pair.interior_dim > 1200:
        raise ValueError(
            "wandering-space extraction needs a dense eigendecomposition; "
            f"interior dimension {pair.interior_dim} is too large"
        )
    v1, v2 = pair.v1, pair.v2
    wander = _kernel_projection_block(v1[idx, :] @ v2)
    # columns idx of V1 V1^H, then U = V2 (I - V1 V1^H) + V1^H V1 V1^H there
    range_cols = v1 @ v1[idx, :].conj().T
    proj_w1 = np.eye(len(idx)) - range_cols[idx, :]
    u_int = v2[np.ix_(idx, idx)] + (v1[:, idx].conj().T - v2[idx, :]) @ range_cols

    values, vectors = hermitian_eig(wander)
    basis = vectors[:, values > 0.5]
    u_w = basis.conj().T @ u_int @ basis
    p_w = basis.conj().T @ proj_w1 @ basis
    return basis, u_w, p_w


def shift_unitary_invariant(obj: PairInput, tol: float = 1e-8) -> ShiftUnitaryInvariant:
    """Eigenvalue multisets of the residual commuting part.

    The residual is the orthogonal complement, inside the wandering space,
    of the smallest invariant subspace containing the defect's nonzero
    eigenvectors under the model unitary and its adjoint.  There the
    projection commutes with the unitary, and its range/kernel split the
    unitary's spectrum into the two returned multisets.
    """
    return _shift_unitary(working_space(obj), tol)


def _shift_unitary(ws: WorkingSpace, tol: float) -> ShiftUnitaryInvariant:
    if ws.wandering is not None:
        return _shift_unitary_from_wandering(
            ws.obj.unitary, ws.obj.projection, ws.defect_eig, tol
        )

    pair = ws.obj
    values, vectors = ws.defect_eig
    e1 = vectors[:, values >= 1.0 - tol]
    # the forward orbit of the eigenvalue-1 space fills the interior exactly
    # when the shift-unitary part is empty
    orbit = _orbit_closure((pair.compress(pair.v1), pair.compress(pair.v2)), e1, 1e-8)
    if orbit.shape[1] == pair.interior_dim:
        return ShiftUnitaryInvariant((), ())

    basis, u_w, p_w = _pair_wandering_model(pair, ws.interior)
    defect_w = basis.conj().T @ ws.defect @ basis
    return _shift_unitary_from_wandering(u_w, p_w, hermitian_eig(defect_w), tol)


def classify(obj: PairInput, tol: float = 1e-8,
             band_tol: float = BAND_TOL) -> ClassificationResult:
    """Full invariant: fundamental sequence plus shift-unitary data.

    Raises ``ValueError`` when the input fails the compact-normal check; the
    classification theorems only cover that class.
    """
    ws = working_space(obj)
    report = _compact_normal(ws, tol)
    if not report.ok:
        raise ValueError(
            f"input is not compact normal: cross-commutator normality "
            f"residual {report.normality_residual:.3e} exceeds "
            f"{report.normality_bound:.3e}"
        )
    return _classify(ws, report, tol, band_tol)


def _classify(ws: WorkingSpace, report: NormalityReport, tol: float,
              band_tol: float) -> ClassificationResult:
    """Classification of a working space that passed the compact-normal check."""
    result = _fundamental_sequence(ws, tol, band_tol)
    shift = _shift_unitary(ws, tol)
    residuals = dict(result.residuals)
    residuals["cross_normality"] = report.normality_residual
    return replace(result, shift_unitary=shift, residuals=residuals)


def _match_within(left: tuple[complex, ...], right: tuple[complex, ...],
                  tol: float) -> list[int] | None:
    """Match two complex multisets within ``tol``; None when no matching fits.

    Exact: a perfect matching of the graph of pairs with gap at most ``tol``
    is grown by augmenting paths (Kuhn's algorithm, breadth first), so one is
    found whenever one exists.  Each element tries its nearest partners
    first; when the nearest-first greedy choice succeeds, it is the answer.
    """
    if len(left) != len(right):
        return None
    gaps = np.abs(np.subtract.outer(np.asarray(left, dtype=complex),
                                    np.asarray(right, dtype=complex)))
    order = np.argsort(gaps, axis=1, kind="stable")
    near = [row[gap[row] <= tol].tolist() for row, gap in zip(order, gaps)]
    match = [-1] * len(left)    # left index -> right index
    owner = [-1] * len(right)   # right index -> left index
    for start in range(len(left)):
        reached_from: dict[int, int] = {}
        queue, free = [start], -1
        for i in queue:
            for j in near[i]:
                if j not in reached_from:
                    reached_from[j] = i
                    if owner[j] < 0:
                        free = j
                        break
                    queue.append(owner[j])
            if free >= 0:
                break
        if free < 0:
            return None
        j = free
        while j >= 0:
            i = reached_from[j]
            owner[j], match[i], j = i, j, match[i]
    return match


# the name under which the test suite imports the matcher
_greedy_match = _match_within


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of the unitary-equivalence decision."""

    equivalent: bool
    matching: tuple[int, ...] | None
    report: dict[str, object]


def decide_equivalence(a: PairInput, b: PairInput,
                       tol: float = 1e-6) -> EquivalenceVerdict:
    """Decide joint unitary equivalence by comparing complete invariants.

    Two inputs are equivalent exactly when their eigenvalue-1 dimensions
    agree, their fundamental sequences match as multisets within ``tol``
    (the witnessing permutation is returned), and their shift-unitary
    eigenvalue multisets match within ``tol``.
    """
    checked = []
    for name, obj in (("first", a), ("second", b)):
        ws = working_space(obj)
        report = _compact_normal(ws, 1e-8)
        if not report.ok:
            raise ValueError(f"{name} input is not compact normal")
        checked.append((ws, report))
    ca, cb = (_classify(ws, report, 1e-8, BAND_TOL) for ws, report in checked)
    report: dict[str, object] = {"k": (ca.k, cb.k)}
    if ca.k != cb.k:
        report["reason"] = "eigenvalue-1 dimensions differ"
        return EquivalenceVerdict(False, None, report)

    matching = _match_within(ca.fundamental_sequence, cb.fundamental_sequence, tol)
    if matching is None:
        report["reason"] = "fundamental sequences differ as multisets"
        return EquivalenceVerdict(False, None, report)

    sa, sb = ca.shift_unitary, cb.shift_unitary
    for label, xs, ys in (("shift_unitary_on_p", sa.eigs_on_p, sb.eigs_on_p),
                          ("shift_unitary_off_p", sa.eigs_on_pperp, sb.eigs_on_pperp)):
        if _match_within(xs, ys, tol) is None:
            report["reason"] = f"{label} spectra differ as multisets"
            return EquivalenceVerdict(False, None, report)

    report["reason"] = "all invariants match"
    return EquivalenceVerdict(True, tuple(matching), report)
