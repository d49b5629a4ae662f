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
it.  A triple is that model, with the identity as basis.  A structured pair
builds it once, of any interior size, from the interior slices and products
(``models._InteriorProducts``) that give its defect and cross-commutator.
The eigenvalue-1 check and the shift-unitary part both read it, with one
code path for both kinds: the defect's eigenvalue-1 space must lie in the
wandering space and in both kernels (``e1_membership``), and have the
dimension of the kernels' meet (``e1_consistency``).

A structured pair's eigen-data comes from its exactly coupled rows.  Its
building blocks have defects of finite rank, so on a truncation almost every
interior row of the defect, and of ``V V^H``, is an exact 1x1 block:
``linalg.coupled_eig`` reads those off and decomposes only the block of the
other rows.  A filled (scrambled) input has no such rows, and its whole
interior is that block.  ``coupled_eig`` alone decides when a large block
is solved on its range; each residual of such a solve is reported in
``ClassificationResult.residuals`` (``defect_thin_residual``,
``range_complement_thin_residual``).
"""

import math
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import zgees as _zgees

# the working-space builder calls through these modules, so a test can
# count how often each input's working data are computed
from . import bcl, models
from .bcl import BCLTriple
from .linalg import (
    Subspace,
    _block,
    _check_tolerance,
    _normalize_phases,
    _support,
    coupled_eig,
    frobenius_norm,
    lift,
    normality_residual,
    orthonormal_columns,
)
from .models import StructuredPair

#: Band around 0 and 1 used to sort fundamental-sequence entries into kinds;
#: truncation noise inside the band never flips a block kind.
BAND_TOL = 1e-6

#: Default tolerance of :func:`decide_equivalence` for matching two inputs'
#: invariants as multisets.
MATCH_TOL = 1e-6

ONE_FINITE = "one_finite"
TWO_FINITE = "two_finite"
THREE_FINITE = "three_finite"

PairInput = BCLTriple | StructuredPair


class WanderingModel(NamedTuple):
    """The wandering space of an input's product ``V1 V2`` and the operators on it.

    ``basis`` spans the space in working coordinates; in that basis,
    ``unitary`` is the model unitary U and ``kernel1``, ``kernel2`` are the
    kernels P and ``I - U P U^H`` of the two adjoints.  A triple is this
    model with the identity as basis.  ``thin_residual`` is the completeness
    residual of a basis solved on its block's range (``coupled_eig``), else
    None.
    """

    basis: np.ndarray
    unitary: np.ndarray
    kernel1: np.ndarray
    kernel2: np.ndarray
    thin_residual: float | None = None


def _read_at(tol: float, values: np.ndarray) -> np.ndarray:
    """The defect's eigenvalues that readers at ``tol`` keep.

    The eigenvalue-1 space takes those of at least ``1 - tol``, the
    shift-unitary orbit those above ``tol`` in modulus.
    """
    return (values != 0) & ((np.abs(values) > tol) | (values >= 1.0 - tol))


@dataclass(frozen=True)
class WorkingSpace:
    """Working data of one input, computed once and shared by every stage.

    For a triple the working space is the wandering space itself.  For a
    structured pair it is the interior window, and ``structure_residuals``
    (isometry and commutation; ``{}`` for a triple) and ``build_model`` (the
    :attr:`wandering_model`) read the slices that gave ``defect`` and
    ``cross``: CSR for a sparse pair, dense otherwise.  Both eigen-data,
    :meth:`defect_eig` and the model's basis, diagonalize only the coupled
    block of their matrix, so a sparse pair forms no eigenvector array of
    interior size.  Nothing outlives the call that built the object.
    """

    defect: np.ndarray | sp.csr_matrix
    cross: np.ndarray | sp.csr_matrix
    structure_residuals: Callable[[], dict[str, float]]
    build_model: Callable[[], WanderingModel]
    _defect_eigs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def defect_eig(self, tol: float) -> tuple[np.ndarray, np.ndarray, float | None]:
        """The defect's eigenpairs that readers at ``tol`` keep, computed once per ``tol``.

        They are the nonzero values above ``tol`` in modulus or of at least
        ``1 - tol``, from :func:`~isopair.linalg.coupled_eig`, whose phase
        rule fixes the ``f_vector`` phases.  The third item is the residual
        of a thin solve, else None.
        """
        found = self._defect_eigs.get(tol)
        if found is None:
            found = self._defect_eigs[tol] = coupled_eig(self.defect, partial(_read_at, tol))
        return found

    @cached_property
    def wandering_model(self) -> WanderingModel:
        """The input's wandering model, built on first use."""
        return self.build_model()


def _pair_wandering_model(products: models._InteriorProducts) -> WanderingModel:
    """Wandering space ``W = ker V^H`` of a pair's product ``V = V1 V2``.

    ``basis`` spans W in interior coordinates: the majority range of
    ``I - products.range_v``, in the products' form.  Its decoupled rows
    (``coupled_eig``) with diagonal above 1/2 give unit vectors of W; only
    the coupled block is diagonalized.  In that basis, ``unitary`` is
    ``V2 (I - V1 V1^H) + V1^H V1 V1^H`` and ``kernel1``, ``kernel2``
    compress ``I - V1 V1^H`` and ``I - V2 V2^H``; on a truncation they are
    quasi-projections.  All three are thin products of the basis with the
    operators' interior rows and columns.
    """
    _, basis, residual = coupled_eig(products.range_complement(), lambda values: values > 0.5)
    rows1, rows2 = products.rows
    # a CSR product copies a dense operand that is not C-ordered, as ``basis`` is
    thin = np.ascontiguousarray(basis)
    adj1, adj2 = rows1.conj().T @ thin, rows2.conj().T @ thin
    range1 = products.v1 @ adj1
    lifted = lift(products.v1.shape[0], products.interior, basis)
    unitary = (basis.conj().T @ (rows2 @ (lifted - range1))
               + (products.cols[0] @ thin).conj().T @ range1)
    eye = np.eye(basis.shape[1])
    return WanderingModel(basis, unitary, eye - adj1.conj().T @ adj1,
                          eye - adj2.conj().T @ adj2, residual)


def working_space(obj: PairInput) -> WorkingSpace:
    """Build the working space of either input kind.

    This is the one place that dispatches on the input kind.
    """
    if isinstance(obj, BCLTriple):
        ops = bcl.wandering_projections(obj)
        model = WanderingModel(np.eye(obj.dim), obj.unitary, ops.proj_w1, ops.proj_w2)
        return WorkingSpace(ops.defect, ops.cross, lambda: {}, lambda: model)
    if isinstance(obj, StructuredPair):
        products = models._InteriorProducts(*models.product_operators(obj), obj.interior)
        return WorkingSpace(*products.defect_and_cross, lambda: products.residuals,
                            partial(_pair_wandering_model, products))
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
    window at the same tolerance, which must be finite and nonnegative.
    """
    _check_tolerance("tol", tol)
    return _compact_normal(working_space(obj), tol)[0]


def _compact_normal(ws: WorkingSpace, tol: float) -> tuple[NormalityReport, str | None]:
    """The membership report, and its first failing entry with its bound (None when it passes).

    The cross-commutator's normality is read first, then the structure
    residuals in order, each against ``tol``.
    """
    cross = ws.cross
    xnorm = frobenius_norm(cross)
    residual = normality_residual(cross)
    bound = tol * xnorm * xnorm
    structure = ws.structure_residuals()
    # a cross-commutator at round-off scale is the zero operator, which is
    # normal; the relative bound would otherwise reject its own noise
    failures = [] if xnorm <= 1e-12 or residual <= bound else [
        f"cross-commutator normality residual {residual:.3e} exceeds {bound:.3e}"]
    failures += [f"{name} residual {value:.3e} exceeds {tol:.3e}"
                 for name, value in structure.items() if not value <= tol]
    report = NormalityReport(not failures, xnorm, residual, bound, structure)
    return report, next(iter(failures), None)


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
    off = vectors - basis @ (basis.conj().T @ vectors)
    # the column norms as ``np.linalg.norm(off, axis=0)`` takes them
    return math.sqrt(np.add.reduce((off.conj() * off).real, axis=0).max())


def _e1_core(ws: WorkingSpace, tol: float) -> tuple[Subspace, np.ndarray, dict[str, float]]:
    floor = max(tol, 1e-8)
    values, vectors, defect_residual = ws.defect_eig(tol)
    basis = Subspace(ws.defect.shape[0], vectors[:, values >= 1.0 - tol])
    model = ws.wandering_model
    # inside W, the eigenvalue-1 space is where the two kernels meet
    range1, range2 = (_majority_split(kernel)[0] for kernel in (model.kernel1, model.kernel2))
    coords = model.basis.conj().T @ basis.basis
    membership = max(_largest_distance(basis.basis, model.basis),
                     _largest_distance(coords, range1), _largest_distance(coords, range2))
    thin = {"defect_thin_residual": defect_residual,
            "range_complement_thin_residual": model.thin_residual}
    residuals = {name: value for name, value in thin.items() if value is not None}
    residuals["e1_membership"] = membership
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

    cross, vectors = ws.cross, basis.basis
    compressed = vectors.conj().T @ cross @ vectors
    # P X P through the thin basis, with no product of two interior-size
    # matrices.  Rows and columns where neither X nor the basis has a
    # nonzero entry add only zeros to the residual, so it is taken on the rest
    support = (vectors != 0).any(axis=1)
    if not support.all():
        support[_support(cross)[0]] = True
        if not support.all():
            rows = np.flatnonzero(support)
            cross = _block(cross, rows) if sp.issparse(cross) else cross[np.ix_(rows, rows)]
            vectors = vectors[rows]
    contract = frobenius_norm(cross - vectors @ compressed @ vectors.conj().T)
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
    class.  ``tol`` must be finite and nonnegative.
    """
    _check_tolerance("tol", tol)
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


def _canonical_angles(values: np.ndarray) -> list[float]:
    """The arguments of complex ``values`` in ``[0, 2 pi)``, 0.0 for a zero value.

    ``np.angle`` runs once on the whole array, the same ufunc loop a single
    value takes.
    """
    tau = 2.0 * np.pi
    angles = []
    for zero, angle in zip((values == 0).tolist(), np.angle(values).tolist()):
        angle = 0.0 if zero else angle % tau
        # snap the wrap-around so arguments a hair below 2*pi sort like 0
        angles.append(0.0 if angle > tau - 1e-9 else angle)
    return angles


def _schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form ``(T, Z)`` of a square complex128 matrix with ``k >= 1`` rows.

    The LAPACK call of ``scipy.linalg.schur(a, output="complex")``, with its
    finiteness check and its workspace query, without its argument handling.
    """
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    lwork = int(_zgees(_no_sort, a, lwork=-1)[-2][0].real)
    t, _, _, z, _, info = _zgees(_no_sort, a, lwork=lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"Schur form not found (LAPACK info {info})")
    return t, z


def _no_sort(_):
    return None


def fundamental_sequence(obj: PairInput, tol: float = 1e-8,
                         band_tol: float = BAND_TOL) -> ClassificationResult:
    """Diagonalize the cross-commutator on the eigenvalue-1 space.

    Eigenvalues (zeros included) form the fundamental sequence; each
    eigenpair becomes a :class:`BlockDescriptor` whose kind is decided by
    the modulus band.  Blocks are ordered deterministically by descending
    modulus, then ascending argument, then lexicographically by the
    phase-normalized eigenvector, a key built only where the first two tie.
    The shift-unitary part is left unfilled; see :func:`classify` for the
    complete invariant.  Both tolerances must be finite and nonnegative.
    """
    _check_tolerance("tol", tol)
    _check_tolerance("band_tol", band_tol)
    return _fundamental_sequence(working_space(obj), tol, band_tol)


def _fundamental_sequence(ws: WorkingSpace, tol: float,
                          band_tol: float) -> ClassificationResult:
    basis, compressed, residuals = _e1_core(ws, tol)
    k = basis.dim
    if k == 0:
        return ClassificationResult(0, (), None, residuals)

    xnorm = frobenius_norm(compressed)
    normality = normality_residual(compressed)
    residuals["e1_cross_normality"] = normality
    if xnorm > 0 and normality > tol * max(1.0, xnorm * xnorm):
        raise ValueError(
            f"cross-commutator on the eigenvalue-1 space is not normal "
            f"(residual {normality:.3e})"
        )

    t, z = _schur(compressed)
    alphas = t.diagonal().copy()
    # T less its diagonal, read in row order as the difference would be
    offdiagonal = np.ascontiguousarray(t)
    offdiagonal.flat[::k + 1] = 0
    residuals["schur_offdiagonal"] = frobenius_norm(offdiagonal)
    vectors = np.ascontiguousarray(z)
    _normalize_phases(vectors)

    # moduli and angles are quantized so float fuzz cannot reorder
    # numerically equal entries across runs or scrambles.  Only blocks whose
    # heads tie are told apart by their phase-normalized eigenvectors, so
    # only they pay for that key; every other comparison ends at the head
    moduli = np.hypot(alphas.real, alphas.imag).round(9).tolist()
    heads = [(-modulus, round(angle, 9))
             for modulus, angle in zip(moduli, _canonical_angles(alphas))]
    tied = Counter(heads)

    def sort_key(j: int):
        if tied[heads[j]] == 1:
            return heads[j], ()
        lex = tuple((round(c.real, 12), round(c.imag, 12)) for c in vectors[:, j].tolist())
        return heads[j], lex

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
        # nothing to project off before the first directions are kept
        for _ in range(2 if size else 0):
            block = block - kept @ (kept.conj().T @ block)
        # no singular value exceeds the Frobenius norm: nothing would be kept
        if frobenius_norm(block) <= tol:
            break
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        new = u[:, s > tol]
        basis[:, size:size + new.shape[1]] = new
        size += new.shape[1]
        block = np.concatenate([op @ new for op in ops], axis=1)
    return basis[:, :size].copy()


def _unitary_eigs(matrix: np.ndarray) -> tuple[complex, ...]:
    if matrix.shape[0] == 0:
        return ()
    values = np.linalg.eigvals(matrix)
    keys = zip(_canonical_angles(values), values.tolist())
    return tuple(v for _, v in sorted(keys, key=lambda kv: (kv[0], kv[1].real, kv[1].imag)))


def shift_unitary_invariant(obj: PairInput, tol: float = 1e-8) -> ShiftUnitaryInvariant:
    """Eigenvalue multisets of the residual commuting part.

    The residual is the orthogonal complement, inside the wandering space,
    of the smallest invariant subspace containing the defect's nonzero
    eigenvectors under the model unitary and its adjoint.  There the
    projection commutes with the unitary, and its range/kernel split the
    unitary's spectrum into the two returned multisets.  ``tol`` must be
    finite and nonnegative.
    """
    _check_tolerance("tol", tol)
    return _shift_unitary(working_space(obj), tol)


def _shift_unitary(ws: WorkingSpace, tol: float) -> ShiftUnitaryInvariant:
    model = ws.wandering_model
    values, vectors, _ = ws.defect_eig(tol)
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
    commute = frobenius_norm(p_n - u_n @ p_n @ u_n.conj().T)
    if commute > tol:
        raise ValueError(
            f"projection does not commute with the unitary on the residual "
            f"block (residual {commute:.3e})"
        )
    # the residual block must also reduce the projection itself, otherwise
    # the 0/1 eigenvalue split below is meaningless
    idem = frobenius_norm(p_n @ p_n - p_n)
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
    classification theorems only cover that class.  Both tolerances must be
    finite and nonnegative, else ``ValueError``.
    """
    _check_tolerance("tol", tol)
    _check_tolerance("band_tol", band_tol)
    ws = working_space(obj)
    report, failure = _compact_normal(ws, tol)
    if not report.ok:
        raise ValueError(f"input is not compact normal: {failure}")
    result = _fundamental_sequence(ws, tol, band_tol)
    shift = _shift_unitary(ws, tol)
    return ClassificationResult(result.k, result.blocks, shift, {
        **result.residuals, "cross_normality": report.normality_residual})


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
    if not left:
        return []
    gaps = np.abs(np.subtract.outer(np.asarray(left, dtype=complex),
                                    np.asarray(right, dtype=complex)))
    order = gaps.argsort(axis=1, kind="stable").tolist()
    near = [[j for j in row if close[j]] for row, close in zip(order, (gaps <= tol).tolist())]
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
                       tol: float = MATCH_TOL) -> EquivalenceVerdict:
    """Decide joint unitary equivalence by comparing complete invariants.

    Each input is classified by :func:`classify` at its defaults (a fixed
    1e-8 and ``BAND_TOL``); a ``ValueError`` from it is raised again with the
    input named (``first input`` or ``second input``).  Two inputs are
    equivalent exactly when their eigenvalue-1 dimensions agree and their
    fundamental sequences and both shift-unitary eigenvalue multisets match
    as multisets within ``tol``; the fundamental sequences' matching is the
    returned witness.

    ``tol`` (the CLI's ``--tol``, ``ISOPAIR_EQUIV_TOL``) is the matching
    tolerance only.  It must be finite and nonnegative, else ``ValueError``.
    """
    _check_tolerance("matching tolerance", tol)
    results = []
    for name, obj in (("first", a), ("second", b)):
        try:
            results.append(classify(obj))
        except ValueError as exc:
            raise ValueError(f"{name} input: {exc}") from exc
    ca, cb = results
    report: dict[str, object] = {"k": (ca.k, cb.k)}
    if ca.k != cb.k:
        report["reason"] = "eigenvalue-1 dimensions differ"
        return EquivalenceVerdict(False, None, report)

    sa, sb = ca.shift_unitary, cb.shift_unitary
    matchings = []
    for label, xs, ys in (
            ("fundamental sequences", ca.fundamental_sequence, cb.fundamental_sequence),
            ("shift_unitary_on_p spectra", sa.eigs_on_p, sb.eigs_on_p),
            ("shift_unitary_off_p spectra", sa.eigs_on_pperp, sb.eigs_on_pperp)):
        matching = _match_within(xs, ys, tol)
        if matching is None:
            report["reason"] = f"{label} differ as multisets"
            return EquivalenceVerdict(False, None, report)
        matchings.append(matching)

    report["reason"] = "all invariants match"
    return EquivalenceVerdict(True, tuple(matchings[0]), report)
