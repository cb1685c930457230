"""Per-mode Cauchy-data machinery.

For one tangential mode the operator is an ODE system in the normal
variable; its Cauchy-data space splits into the data of solutions
decaying to the right (side ``plus``) and to the left (side ``minus``).
Two independent constructions of the projector onto the plus space are
implemented: the layer-potential route (boundary values of the decaying
inverse applied to delta layers) and the companion spectral-split
oracle.  They must agree, and tests hold them to that.
"""

import functools
from dataclasses import dataclass

import numpy as np

from ._kernels import eigvals_sweep, orthonormal_range_sweep
from .contour import (
    Contour,
    _enclosing_circles,
    _mode_at,
    _sized_nodes,
    contour_quadrature,
    root_table,
    spectral_split,
)
from .errors import (
    CalderonError,
    ContourNotConverged,
    EigenvalueOnContour,
    IllConditionedFrame,
    SingularBlock,
    SpecError,
)
from .symbols import (  # the stack builders and the defect scan are re-exported
    _companion,
    companion_matrix,
    companion_stack,
    mode_lattice,
    mode_matrix_stack,
    scan_defect_modes,
    symbol_values,
)

__all__ = [
    "CauchyFrame",
    "BlockProjector",
    "SobolevWeight",
    "companion_matrix",
    "cauchy_frame_oracle",
    "jump_operator",
    "invert_jump_operator",
    "layer_potential_blocks",
    "calderon_projector",
    "calderon_projector_stack",
    "sobolev_weights",
    "orthogonal_projector",
    "entry_growth_fit",
    "principal_angles",
    "range_basis",
]

_AGREEMENT_TOL = 1e-8  # residue route against contour quadrature, relative
_QUAD_TOL = 1e-10  # node-doubling agreement of the layer route's circles


@dataclass
class CauchyFrame:
    """Frame whose columns span one side's Cauchy-data subspace.

    Component blocks are ordered ``(u, d_n u, ..., d_n^{k-1} u)``.
    """

    m: tuple
    matrix: np.ndarray  # (rk, d)
    side: str
    normalization: str = "raw"

    def __post_init__(self):
        if self.side not in ("plus", "minus"):
            raise SpecError(f"side must be plus or minus, got {self.side!r}")
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape[1]:
            if not np.abs(self.matrix).max(axis=0).all():
                raise IllConditionedFrame(f"frame at mode {self.m} has a zero column")
            svals = np.linalg.svd(self.matrix / np.abs(self.matrix).max(), compute_uv=False)
            if svals[-1] <= 1e-10:
                raise IllConditionedFrame(f"frame columns at mode {self.m} are dependent")

    @property
    def dim(self):
        return self.matrix.shape[1]


@dataclass
class BlockProjector:
    """rk x rk projector matrix attached to one mode."""

    m: tuple
    matrix: np.ndarray
    kind: str  # Rplus | Rminus | Pplus | Pminus
    weight: "SobolevWeight | None" = None

    @property
    def side(self):
        return "plus" if self.kind.endswith("plus") else "minus"


@dataclass
class SobolevWeight:
    """Per-component Sobolev weights for one mode.

    Component ``j`` of the Cauchy data carries smoothness index
    ``s_j = k - 1 + alpha - j`` and weight ``(1 + |m|^2)^{s_j}``.
    """

    alpha: float
    k: int
    m: tuple
    indices: tuple
    values: np.ndarray

    def full(self, r):
        """Diagonal of the weight on the rk-dimensional data space."""
        return np.repeat(self.values, r)


def mode_weights(modes, k, alpha):
    """Sobolev exponents ``s_j = k - 1 + alpha - j`` and the weights
    ``(1 + |m|^2)^{s_j}`` of a stack of modes, shape ``(N, k)``."""
    if alpha <= 0:
        raise SpecError("alpha must be positive")
    exps = np.array([k - 1 + alpha - j for j in range(k)])
    msq = (np.asarray(modes, dtype=float) ** 2).sum(axis=1)
    return exps, (1.0 + msq)[:, None] ** exps[None, :]


def sobolev_weights(m, k, alpha):
    m = tuple(np.atleast_1d(m))
    exps, values = mode_weights([m], k, alpha)
    return SobolevWeight(alpha=alpha, k=k, m=m, indices=tuple(exps.tolist()), values=values[0])


# ---------------------------------------------------------------------------
# single-mode operations


def cauchy_frame_oracle(sym, side):
    """Cauchy-data frame of one side, straight from the companion split.

    ``plus`` returns the stable invariant subspace (solutions decaying
    as x_n grows), ``minus`` the unstable one; the two dimensions sum to
    rk.  Raises DefectMode when the split does not exist.
    """
    split = spectral_split(companion_matrix(sym))
    frame = split.stable if side == "plus" else split.unstable
    return CauchyFrame(m=sym.m, matrix=frame, side=side, normalization="raw")


def jump_operator(sym):
    """Block anti-Hankel matrix pairing Cauchy data with delta-layer
    densities: block ``(q, p)`` equals ``A_{q+p+1}(m)`` when the index
    stays within the order, zero below the anti-diagonal."""
    return _jump(sym.A)


def _jump(A):
    """Jump operators from an ``A`` stack ``(k+1, ..., r, r)``."""
    k, r = A.shape[0] - 1, A.shape[-1]
    out = np.zeros(A.shape[1:-2] + (r * k, r * k), dtype=complex)
    for q in range(k):
        for p in range(k - q):
            out[..., q * r : (q + 1) * r, p * r : (p + 1) * r] = A[q + p + 1]
    return out


def invert_jump_operator(a_op, block_size):
    """Exact inverse of the anti-triangular block matrix from
    :func:`jump_operator`, by back substitution along block rows.

    The result has the top-order block inverse on the anti-diagonal and
    vanishes above it.  Raises SingularBlock when that block is
    singular.
    """
    a_op = np.asarray(a_op, dtype=complex)
    r = block_size
    d = a_op.shape[0]
    if d % r:
        raise SpecError("matrix size is not a multiple of the block size")
    k = d // r
    blocks = {t: a_op[0:r, (t - 1) * r : t * r] for t in range(1, k + 1)}
    top = a_op[(k - 1) * r :, 0:r]  # A_k, also visible in the last block row
    if abs(np.linalg.det(top)) < 1e-300:
        raise SingularBlock("top-order block is singular")
    top_inv = np.linalg.inv(top)
    X = np.zeros((k, k, r, r), dtype=complex)
    eye = np.eye(r, dtype=complex)
    for p in range(k):
        for j in range(k):
            rhs = eye if j == k - 1 - p else np.zeros((r, r), dtype=complex)
            acc = rhs.astype(complex)
            for pp in range(p):
                acc = acc - blocks[k - p + pp] @ X[pp, j]
            X[p, j] = top_inv @ acc
    out = np.zeros((d, d), dtype=complex)
    for p in range(k):
        for j in range(k):
            out[p * r : (p + 1) * r, j * r : (j + 1) * r] = X[p, j]
    return out


@functools.lru_cache(maxsize=8)
def _cofactor_tables(d):
    """Row/column indices of every (d-1)-minor of a d x d matrix and the
    cofactor signs: ``keep[i, j] = j + (j >= i)`` skips row/column i."""
    j = np.arange(d - 1)
    keep = j[None, :] + (j[None, :] >= np.arange(d)[:, None])  # (d, d-1)
    sign = (-1.0) ** np.add.outer(np.arange(d), np.arange(d))
    for table in (keep, sign):
        table.setflags(write=False)  # shared by every call of this size
    return keep[:, None, :, None], keep[None, :, None, :], sign


def _adjugate(M):
    """Adjugates of a stack ``(..., d, d)`` from all d^2 cofactor
    determinants at once.  Unlike ``det * inv`` this is defined at
    singular matrices, which is where the residues evaluate it."""
    rows, cols, sign = _cofactor_tables(M.shape[-1])
    return np.swapaxes(sign * np.linalg.det(M[..., rows, cols]), -1, -2)


def _blocks(J, k):
    """Layer blocks ``(N, rk, rk)`` from integrals ``J`` of shape
    ``(N, 2k-1, r, r)``, one per power of ``xi``: block ``(q, p)`` is
    ``i^{p+q+1}`` times the integral of power ``p + q``."""
    N, r = J.shape[0], J.shape[-1]
    B = np.empty((N, k * r, k * r), dtype=complex)
    for q in range(k):
        for p in range(k):
            B[:, q * r : (q + 1) * r, p * r : (p + 1) * r] = (1j) ** (p + q + 1) * J[:, p + q]
    return B


def _layer_blocks(A, modes, cross_check):
    """Layer blocks of a mode stack: ``A`` is ``(k+1, N, r, r)`` and
    ``modes`` holds one mode per row; see :func:`layer_potential_blocks`.

    Every failure names its mode: DefectMode, EigenvalueOnContour,
    ContourNotConverged and the residue/quadrature disagreement.
    """
    k = A.shape[0] - 1
    powers = np.arange(2 * k - 1)
    lam = eigvals_sweep(_companion(A))
    roots, mult, half = root_table(lam, modes)
    upper = mult * (half > 0)  # multiplicity of each upper root, 0 elsewhere

    # simple roots: residue adj a(xi_l) / (d/dxi det a)(xi_l), where
    # det a(xi) = det A_k * prod_j (i xi - lam_j), in a table over every
    # root whose sum over the root axis takes the simple upper ones
    simple = upper == 1
    diff = 1j * roots[:, :, None] - lam[:, None, :]
    own = np.abs(diff).argmin(axis=2)[:, :, None] == np.arange(lam.shape[1])
    denom = np.linalg.det(A[k])[:, None] * 1j * np.where(own, 1.0, diff).prod(axis=2)
    denom = np.where(simple, denom, 1.0)[..., None, None]  # 1 where the sum drops the term
    res = _adjugate(symbol_values(A[:, :, None], roots)) / denom
    terms = (roots[:, :, None] ** powers)[..., None, None] * res[:, :, None]
    J = terms.sum(axis=1, where=simple[:, :, None, None, None])

    # circles, integrated on one shared grid: a local one around each
    # multiple upper root, clear of the other roots, and with cross_check
    # one per mode around all its upper roots, clear of the rest
    local, cols = np.nonzero(upper > 1)
    checked = np.nonzero(upper.any(axis=1))[0] if cross_check else local[:0]
    parts = []  # (center, radius, rho) of each circle; local circles first
    if local.size:
        centers = roots[local, cols]
        dist = np.abs(roots[local] - centers[:, None])
        gap = np.where((mult[local] > 0) & (dist > 0), dist, np.inf).min(axis=1)
        radii = np.where(np.isinf(gap), np.maximum(0.5, 0.5 * np.abs(centers)), 0.45 * gap)
        parts.append((centers, radii, radii / gap))
    owner = np.concatenate([local, checked])  # the mode of each circle
    try:
        if checked.size:
            u = upper[checked]
            parts.append(_enclosing_circles(roots[checked], u > 0, mult[checked] > u))
        if parts:
            centers, radii, rho = (np.concatenate(p) for p in zip(*parts))
            Ao = A[:, owner, None]  # the circles' symbols

            def integrand(z, idx):
                inv = np.linalg.inv(symbol_values(Ao[:, idx], z))
                return (z[..., None] ** powers)[..., None, None] * inv[..., None, :, :]

            # one start for the stack, sized from its slowest local circle
            # if it has any, so the cross-check never moves the blocks
            slowest = rho[: local.size].max() if local.size else rho.max()
            stack = Contour.circle(centers, radii, _sized_nodes(slowest))
            values, _ = contour_quadrature(integrand, stack, tol=_QUAD_TOL)
    except (EigenvalueOnContour, ContourNotConverged) as exc:
        i = (checked if isinstance(exc, EigenvalueOnContour) else owner)[exc.index]
        raise type(exc)(f"{exc} at mode {_mode_at(modes, i)}", index=int(i)) from exc
    if local.size:
        np.add.at(J, local, values[: local.size])

    # the blocks scale J by powers of i, exactly, so comparing J compares them
    if checked.size:
        Jc = J[checked]
        err = np.abs(Jc - values[local.size :]).max(axis=(1, 2, 3))
        bad = ~(err <= _AGREEMENT_TOL * (1.0 + np.abs(Jc).max(axis=(1, 2, 3))))  # NaN fails
        if bad.any():
            i = int(bad.argmax())
            raise CalderonError(
                f"layer-potential routes disagree at mode {_mode_at(modes, checked[i])}: "
                f"{err[i]:.3e}"
            )
    return _blocks(J, k)


def layer_potential_blocks(sym, cross_check=True):
    """Boundary blocks of the decaying solution operator.

    Block ``(q, p)`` is ``i^{p+q+1}`` times the counter-clockwise
    integral mean of ``xi^{p+q} a(m, xi)^{-1}`` around the roots in the
    upper half plane (the decaying side).  Two routes compute it:

    * residue algebra at the characteristic roots (local circles take
      over at multiple roots),
    * global contour quadrature around the whole upper root group,

    and with ``cross_check`` both must agree to 1e-8 relative to the
    block scale.  This is the N=1 call of the stacked route behind
    :func:`calderon_projector_stack`.
    """
    return _layer_blocks(sym.A[:, None], [sym.m], cross_check)[0]


def calderon_projector(sym, side="plus", cross_check=True):
    """Projector onto one side's Cauchy-data space along the other.

    The plus projector is the layer-potential block matrix times the
    jump operator; the minus one is its complement, exactly.  The plus
    matrix is kept on ``sym`` per ``cross_check``, so asking for both
    sides of one symbol runs the layer route, and its cross-check, once.
    The returned matrix is the caller's own copy.
    """
    if side not in ("plus", "minus"):
        raise SpecError(f"side must be plus or minus, got {side!r}")
    key = bool(cross_check)
    R = sym._routes.get(key)
    if R is None:
        R = sym._routes[key] = layer_potential_blocks(sym, cross_check=key) @ jump_operator(sym)
    if side == "minus":
        return BlockProjector(m=sym.m, matrix=np.eye(R.shape[0], dtype=complex) - R, kind="Rminus")
    return BlockProjector(m=sym.m, matrix=R.copy(), kind="Rplus")


def calderon_projector_stack(spec, modes, side="plus"):
    """The :func:`calderon_projector` matrices of a stack of modes, one
    mode per row of ``modes``: shape ``(N, rk, rk)``.

    One run of the layer route serves the whole stack, with its
    residue/quadrature cross-check on every mode.  Row ``i`` equals the
    single-mode matrix of ``modes[i]``: bit for bit when that mode's
    upper roots are simple, to rounding at a multiple root, whose local
    circle the stack sums on its own node levels.
    """
    if side not in ("plus", "minus"):
        raise SpecError(f"side must be plus or minus, got {side!r}")
    modes = np.asarray(modes)
    if modes.ndim != 2 or modes.shape[1] != spec.n - 1:
        raise SpecError(f"modes must have shape (N, {spec.n - 1}), got {modes.shape}")
    A = mode_matrix_stack(spec, modes)
    R = _layer_blocks(A, modes, True) @ _jump(A)
    if side == "minus":
        return np.eye(R.shape[-1], dtype=complex) - R
    return R


def orthogonal_projector(frame_or_proj, weight):
    """Weighted-orthogonal projector with the same range as the input.

    Computes ``F (F* W F)^{-1} F* W`` for a frame F of the range, with
    all factorizations done on ``W^{1/2}``-scaled columns for stability.
    A zero-dimensional range returns the zero matrix; a Gram condition
    number above 1e12 raises IllConditionedFrame.
    """
    if isinstance(frame_or_proj, CauchyFrame):
        F = frame_or_proj.matrix
        side = frame_or_proj.side
        m = frame_or_proj.m
    elif isinstance(frame_or_proj, BlockProjector):
        F = range_basis(frame_or_proj.matrix)
        side = frame_or_proj.side
        m = frame_or_proj.m
    else:
        raise SpecError("expected a CauchyFrame or a BlockProjector")

    d = F.shape[0]
    kind = "Pplus" if side == "plus" else "Pminus"
    if (weight.values <= 0).any():
        raise SpecError("weights must be positive")
    if F.shape[1] == 0:
        return BlockProjector(m=m, matrix=np.zeros((d, d), dtype=complex), kind=kind, weight=weight)
    w = weight.full(d // weight.k)
    sqw = np.sqrt(w)
    G = sqw[:, None] * F
    u, s, _ = np.linalg.svd(G, full_matrices=False)
    if (s[0] / s[-1]) ** 2 > 1e12:
        raise IllConditionedFrame(f"weighted Gram matrix at mode {m} is numerically singular")
    Q = u[:, : F.shape[1]]
    P_hat = Q @ Q.conj().T
    P = P_hat * (sqw[None, :] / sqw[:, None])
    return BlockProjector(m=m, matrix=P, kind=kind, weight=weight)


def range_basis(proj_matrix):
    """Orthonormal basis of the range of a (numerical) projector.

    The rank comes from the trace, which is exact for idempotents.
    """
    M = np.asarray(proj_matrix, dtype=complex)
    rank = int(round(float(np.trace(M).real)))
    return orthonormal_range_sweep(M[None], [rank])[0][:, :rank]


def _padded_sines(sines_a, da, db):
    """Principal-angle sines of a stack of subspace pairs, largest first.

    ``sines_a`` is ``(N, d)``: row ``i`` holds the singular values of the
    complement of frame A against frame B, of which the leading
    ``da[i]`` count.  Each row becomes ``(db - da)+`` right-angle sines,
    then A's sines, then -1 padding, which sorts last and clips to angle
    0; ``d`` must be at least ``max(da, db)``.
    """
    d = sines_a.shape[1]
    j = np.arange(d)
    lead = np.maximum(db - da, 0)[:, None]
    shifted = np.take_along_axis(sines_a, np.clip(j - lead, 0, d - 1), axis=1)
    sines = np.where(j < lead, 1.0, np.where(j < lead + da[:, None], shifted, -1.0))
    return np.sort(sines, axis=1)[:, ::-1]


def principal_angles(F, G):
    """Principal angles between two column spaces, largest first.

    Angles near zero are resolved through complement sines rather than
    arccos of Gram singular values, so subspace agreement down to 1e-14
    is measurable.  The first space is the one complemented, and a
    dimension mismatch contributes right angles, as in ``compare_points``;
    the returned list has length max(dim F, dim G).
    """
    F = np.asarray(F, dtype=complex)
    G = np.asarray(G, dtype=complex)
    qf = np.linalg.qr(F)[0] if F.shape[1] else F
    qg = np.linalg.qr(G)[0] if G.shape[1] else G
    df, dg = qf.shape[1], qg.shape[1]
    sines = np.zeros((1, max(df, dg)))
    sines[0, :df] = np.linalg.svd(qf - qg @ (qg.conj().T @ qf), compute_uv=False)
    padded = _padded_sines(sines, np.array([df]), np.array([dg]))[0]
    return np.arcsin(np.clip(padded, 0.0, 1.0))


def entry_growth_fit(spec, side, modes):
    """Log-log slopes of the k x k block norms of the projector over a
    mode range.

    Returns a (k, k) float matrix of fitted exponents; a block that is
    identically zero across the range yields NaN (degenerate fit, not a
    number).  The mode range must span at least a decade.
    """
    modes = np.array([np.atleast_1d(m) for m in modes])
    radii = np.linalg.norm(modes, axis=1)
    if radii.min() <= 0 or radii.max() / radii.min() < 10.0:
        raise SpecError("mode range must span at least one decade away from zero")
    k, r = spec.k, spec.r
    R = calderon_projector_stack(spec, modes, side)
    blocks = R.reshape(-1, k, r, k, r).transpose(1, 3, 0, 2, 4)
    norms = np.linalg.norm(blocks, 2, axis=(-2, -1))  # (k, k, N)
    slopes = np.full((k, k), np.nan)
    scale = norms.max()
    logx = np.log(radii)
    for q in range(k):
        for j in range(k):
            vals = norms[q, j]
            if vals.max() <= 1e-12 * max(scale, 1.0):
                continue  # identically zero block: no exponent
            mask = vals > 0
            slopes[q, j] = np.polyfit(logx[mask], np.log(vals[mask]), 1)[0]
    return slopes
