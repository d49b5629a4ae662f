"""Classification pipeline for pairs with compact normal cross-commutator.

Given either a finite model triple or a truncated structured pair, the
pipeline checks normality of the cross-commutator, extracts the defect
operator's eigenvalue-1 space, diagonalizes the cross-commutator compressed
to it (the *fundamental sequence*), splits the input into irreducible
blocks of defect rank 1, 2 or 3, computes the eigenvalue data of the
residual commuting part, and decides unitary equivalence of two inputs by
comparing the resulting invariants as multisets.

Both input kinds carry one wandering model: the wandering space of the
product ``V1 V2``, the model unitary and the kernels of the two adjoints on
it.  A triple is that model, with the identity as basis; a structured pair
builds it once, with no limit on the interior size.  The eigenvalue-1 check
and the shift-unitary part both read it, with one code path for both kinds:
the defect's eigenvalue-1 space must lie in the wandering space and in both
kernels (``e1_membership``), and have the dimension of the kernels' meet
(``e1_consistency``).
"""

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

# the working-space builder calls through these modules, so a test can
# count how often each input's defect and cross-commutator are computed
from . import bcl, models
from .bcl import BCLTriple
from .linalg import (
    Subspace,
    _normalize_phases,
    as_complex,
    hermitian_eig,
    lift,
    normality_residual,
    orthonormal_columns,
)
from .models import StructuredPair, validate_pair

#: Band around 0 and 1 used to sort fundamental-sequence entries into kinds;
#: truncation noise inside the band never flips a block kind.
BAND_TOL = 1e-6

ONE_FINITE = "one_finite"
TWO_FINITE = "two_finite"
THREE_FINITE = "three_finite"

PairInput = BCLTriple | StructuredPair


class WanderingModel(NamedTuple):
    """The wandering space of an input's product ``V1 V2`` and the operators on it.

    ``basis`` spans the space in working coordinates; in that basis,
    ``unitary`` is the model unitary U and ``kernel1``, ``kernel2`` are the
    kernels P and ``I - U P U^H`` of the two adjoints.  A triple is this
    model with the identity as basis.
    """

    basis: np.ndarray
    unitary: np.ndarray
    kernel1: np.ndarray
    kernel2: np.ndarray


@dataclass(frozen=True)
class WorkingSpace:
    """Working data of one input, computed once and shared by every stage.

    For a triple the working space is the wandering space itself; for a
    structured pair it is the interior window, whose indices ``interior``
    holds (None for a triple).  ``build_model`` makes the
    :attr:`wandering_model`.  Nothing outlives the call that built the
    object.
    """

    obj: PairInput
    defect: np.ndarray
    cross: np.ndarray
    interior: np.ndarray | None
    build_model: Callable[[], WanderingModel]

    @cached_property
    def defect_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """``hermitian_eig`` of the defect, computed on first use."""
        return hermitian_eig(self.defect)

    @cached_property
    def wandering_model(self) -> WanderingModel:
        """The input's wandering model, built on first use."""
        return self.build_model()


def _pair_wandering_model(pair: StructuredPair, interior: np.ndarray) -> WanderingModel:
    """Wandering space ``W = ker V^H`` of a pair's product ``V = V1 V2``.

    ``basis`` spans W in interior coordinates: the majority range of the
    interior compression of ``I - V V^H``, the one interior-size matrix.
    In that basis, ``unitary`` is ``V2 (I - V1 V1^H) + V1^H V1 V1^H`` and
    ``kernel1``, ``kernel2`` compress ``I - V1 V1^H`` and ``I - V2 V2^H``;
    on a truncation they are quasi-projections.  All three come from thin
    products with the lifted basis.
    """
    v1, v2 = models.product_operators(pair)
    rows = v1[interior, :] @ v2
    basis, _ = _majority_split(np.eye(len(interior)) - as_complex(rows @ rows.conj().T))
    lifted = lift(pair.dim, interior, basis)
    adj1 = v1.conj().T @ lifted
    adj2 = v2.conj().T @ lifted
    range1 = v1 @ adj1
    unitary = (lifted.conj().T @ (v2 @ (lifted - range1))
               + (v1 @ lifted).conj().T @ range1)
    eye = np.eye(basis.shape[1])
    return WanderingModel(basis, unitary,
                          eye - adj1.conj().T @ adj1, eye - adj2.conj().T @ adj2)


def working_space(obj: PairInput) -> WorkingSpace:
    """Build the working space of either input kind.

    This is the one place that dispatches on the input kind.
    """
    if isinstance(obj, BCLTriple):
        ops = bcl.wandering_projections(obj)
        model = WanderingModel(np.eye(obj.dim), obj.unitary, ops.proj_w1, ops.proj_w2)
        return WorkingSpace(obj, ops.defect, ops.cross, None, lambda: model)
    if isinstance(obj, StructuredPair):
        defect, cross = models.defect_and_cross_on_interior(obj)
        interior = np.asarray(obj.interior, dtype=int)
        return WorkingSpace(obj, defect, cross, interior,
                            partial(_pair_wandering_model, obj, interior))
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


def _majority_split(quasi_projection: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of a Hermitian quasi-projection with eigenvalue above 1/2, and the rest.

    Callers read only the two spans, so no phase is fixed.
    """
    values, vectors = np.linalg.eigh(quasi_projection)
    above = values > 0.5
    return vectors[:, above], vectors[:, ~above]


def _largest_distance(vectors: np.ndarray, basis: np.ndarray) -> float:
    """Largest distance of the columns of ``vectors`` from the span of the orthonormal ``basis``."""
    if vectors.shape[1] == 0:
        return 0.0
    return float(np.max(np.linalg.norm(vectors - basis @ (basis.conj().T @ vectors), axis=0)))


def _e1_core(ws: WorkingSpace, tol: float) -> tuple[Subspace, np.ndarray, dict[str, float]]:
    floor = max(tol, 1e-8)
    values, vectors = ws.defect_eig
    basis = Subspace(ws.defect.shape[0], vectors[:, values >= 1.0 - tol])
    model = ws.wandering_model
    # inside W, the eigenvalue-1 space is where the two kernels meet
    range1, range2 = (_majority_split(kernel)[0] for kernel in (model.kernel1, model.kernel2))
    coords = model.basis.conj().T @ basis.basis
    membership = max(_largest_distance(basis.basis, model.basis),
                     _largest_distance(coords, range1), _largest_distance(coords, range2))
    residuals = {"e1_membership": membership}
    if membership > floor:
        raise ValueError(
            "eigenvalue-1 vectors leave the wandering subspaces "
            f"(residual {membership:.3e}); inconsistent input"
        )
    meet = np.linalg.eigvalsh(range1 @ range1.conj().T + range2 @ range2.conj().T)
    inter_dim = int(np.count_nonzero(meet >= 2.0 - floor))
    residuals["e1_consistency"] = float(abs(inter_dim - basis.dim))
    if inter_dim != basis.dim:
        raise ValueError(
            "wandering-subspace intersection has dimension "
            f"{inter_dim}, defect eigenvalue-1 space has {basis.dim}"
        )

    cross = ws.cross
    compressed = basis.basis.conj().T @ cross @ basis.basis
    # P X P through the thin basis, with no product of two interior-size matrices
    contract = float(np.linalg.norm(
        cross - basis.basis @ compressed @ basis.basis.conj().T
    ))
    residuals["cross_confined"] = contract
    if contract > floor:
        raise ValueError(
            f"cross-commutator is not confined to the eigenvalue-1 space "
            f"(residual {contract:.3e})"
        )
    return basis, compressed, residuals


def e1_data(obj: PairInput, tol: float = 1e-8) -> tuple[Subspace, np.ndarray]:
    """Eigenvalue-1 space of the defect and the cross-commutator compressed to it.

    The space is the defect's eigenvalue-1 eigenspace.  It is checked
    against the intersection of the two wandering subspaces: each of its
    vectors must lie in both, and its dimension must be theirs.  A mismatch
    beyond ``tol`` raises, since it signals an input outside the modeled
    class.
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
    model = ws.wandering_model
    values, vectors = ws.defect_eig
    # the defect vanishes on range(V1 V2), so its eigenvectors off the kernel
    # lie in W, where the basis restricts them
    seeds = model.basis.conj().T @ vectors[:, np.abs(values) > tol]
    unitary = model.unitary
    orbit = _orbit_closure((unitary, unitary.conj().T), seeds)
    n = unitary.shape[0]
    if orbit.shape[1] == n:
        return ShiftUnitaryInvariant((), ())
    complement = orthonormal_columns(np.eye(n) - orbit @ orbit.conj().T)

    u_n = complement.conj().T @ unitary @ complement
    p_n = complement.conj().T @ model.kernel1 @ complement
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
    on_p, off_p = _majority_split(p_n)
    return ShiftUnitaryInvariant(
        eigs_on_p=_unitary_eigs(on_p.conj().T @ u_n @ on_p),
        eigs_on_pperp=_unitary_eigs(off_p.conj().T @ u_n @ off_p),
    )


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

    ``tol`` (the CLI's ``--tol``, ``ISOPAIR_EQUIV_TOL``) is the matching
    tolerance only: each input is checked and classified at a fixed 1e-8.
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
