"""Per-mode Cauchy-data machinery: the layer-potential route.

For one tangential mode the operator is an ODE system in the normal
variable; its Cauchy-data space splits into the data of solutions
decaying to the right (side ``plus``) and to the left (side ``minus``).
The projector onto one side along the other comes from boundary values
of the decaying inverse applied to delta layers.  The companion
spectral split (``contour.spectral_split``) is an independent oracle
for it, and tests hold the route to it.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .contour import (
    _enclosing_circles,
    _root_clusters,
    _sized_nodes,
    _stacked_quadrature,
)
from .errors import ContourNotConverged, EigenvalueOnContour, RoutesDisagree, SpecError
from .symbols import (  # the stack builders and the defect scan are re-exported
    _as_modes,
    _companion,
    companion_matrix,
    companion_stack,
    mode_error,
    mode_lattice,
    mode_matrix_stack,
    scan_defect_modes,
    symbol_values,
)

_AGREEMENT_TOL = 1e-8  # residue route against contour quadrature, relative


@dataclass
class BlockProjector:
    """rk x rk projector matrix of one mode."""

    matrix: np.ndarray


# ---------------------------------------------------------------------------
# single-mode operations


def jump_operator(sym):
    """Block anti-Hankel matrix pairing Cauchy data with delta-layer
    densities: block ``(q, p)`` equals ``A_{q+p+1}(m)`` when the index
    stays within the order, zero below the anti-diagonal."""
    return _jump(sym.A)


def _block_hankel(H):
    """Block Hankel matrices ``(..., rk, rk)`` from ``2k - 1`` stacks
    ``H[s]`` of shape ``(..., r, r)``: block ``(q, p)`` is ``H[q + p]``,
    or zero where that is None.  The anti-diagonal ``H[k-1]`` is given."""
    k = (len(H) + 1) // 2
    h = H[k - 1]
    r = h.shape[-1]
    out = np.zeros(h.shape[:-2] + (r * k, r * k), dtype=complex)
    for q in range(k):
        for p in range(k):
            if H[q + p] is not None:
                out[..., q * r : (q + 1) * r, p * r : (p + 1) * r] = H[q + p]
    return out


def _jump(A):
    """Jump operators from an ``A`` stack ``(k+1, ..., r, r)``."""
    return _block_hankel(list(A[1:]) + [None] * (A.shape[0] - 2))


def _jump_inverse(A):
    """Inverse jump operators ``(..., rk, rk)`` of an ``A`` stack ``(k+1, ..., r, r)``
    (``A_0`` unread).  With ``E`` the block reversal, ``J E`` is upper block-Toeplitz
    with diagonal ``A_k``, so block ``(p, j)`` of ``J^{-1}`` is ``Y_{p+j-k+1}``, zero
    above the anti-diagonal: ``Y_0 = A_k^{-1}``, ``Y_d = -Y_0 sum_{i=1..d} A_{k-i} Y_{d-i}``."""
    k = A.shape[0] - 1
    Y = [np.linalg.inv(A[k])]
    for d in range(1, k):
        Y.append(-Y[0] @ sum(A[k - i] @ Y[d - i] for i in range(1, d + 1)))
    return _block_hankel([None] * (k - 1) + Y)


@functools.lru_cache(maxsize=8)
def _cofactor_tables(d):
    """Index tables and signs of the cofactors of a d x d matrix, transposed:
    entry ``(i, j)`` takes the (d-1)-minor without row ``j`` and column ``i``."""
    j = np.arange(d - 1)
    keep = j[None, :] + (j[None, :] >= np.arange(d)[:, None])  # (d, d-1): row i skips i
    sign = (-1.0) ** np.add.outer(np.arange(d), np.arange(d))
    for table in (keep, sign):
        table.setflags(write=False)  # shared by every call of this size
    return keep[None, :, :, None], keep[:, None, None, :], sign


def _adjugate(M):
    """Adjugates of a stack ``(..., d, d)`` from all d^2 cofactor
    determinants at once.  Unlike ``det * inv`` this is defined at
    singular matrices, which is where the residues evaluate it."""
    if M.shape[-1] == 1:  # the one cofactor is the empty minor's determinant, 1
        return np.ones(M.shape, dtype=complex)
    rows, cols, sign = _cofactor_tables(M.shape[-1])
    return sign * np.linalg.det(M[..., rows, cols])


def _layer_blocks(A, modes, lam, cross_check):
    """Layer blocks of a mode stack: ``A`` is ``(k+1, N, r, r)``,
    ``modes`` holds one mode per row and ``lam`` the eigenvalues of its
    companion matrices; see :func:`layer_potential_blocks`.

    One ``_enclosing_circles`` call over the upper root clusters places
    every circle, local or check, and raises where none holds a cluster
    apart; the check circles add up per mode.  Every failure names its
    mode: DefectMode, EigenvalueOnContour, ContourNotConverged, RoutesDisagree.
    """
    k = A.shape[0] - 1
    powers = np.arange(2 * k - 1)
    xi, reach, mult, half = _root_clusters(lam, modes)
    upper = mult * (half > 0)  # multiplicity of each upper root, 0 elsewhere

    # simple roots: residue adj a(xi_l) / (d/dxi det a)(xi_l), where
    # det a(xi) = det A_k * prod_j (i xi - lam_j), in a table over every
    # root whose sum over the root axis takes the simple upper ones
    simple = upper == 1
    diff = 1j * xi[:, :, None] - lam[:, None, :]
    diff[diff == 0] = 1.0  # a simple root's own factor: i root is its lam, exactly
    detk = np.linalg.det(A[k])
    denom = detk[:, None] * 1j * diff.prod(axis=2)
    denom[~simple] = 1.0  # where the sum drops the term
    res = (_adjugate(symbol_values(A[:, :, None], xi)) / denom[..., None, None])[:, :, None]
    terms = res if k == 1 else (xi[:, :, None] ** powers)[..., None, None] * res  # xi^0 = 1
    J = terms.sum(axis=1, where=simple[:, :, None, None, None])

    # circles on one shared grid, one around each upper root cluster, clear
    # of the mode's other roots, placed around raw roots by
    # enclosing_circle's rule: the local circles of the multiple clusters,
    # and with cross_check one check circle per cluster, the same circle
    # at a simple root and a wider one at a multiple root, so that no
    # local circle is compared with itself
    row, col = np.nonzero(upper)  # each cluster at its first root
    n_local = np.count_nonzero(upper > 1)
    local = row[:0]  # the local circles' rows of the stack, which come first
    owner = row if cross_check else local
    if n_local or owner.size:
        inside = reach[row, col]
        try:
            centers, radii, rates = _enclosing_circles(xi[row], inside, ~inside)
        except EigenvalueOnContour as exc:
            raise mode_error(exc, modes, row) from exc
    if n_local:
        multiple = upper[row, col] > 1
        local = row[multiple]
        circles = centers[multiple], radii[multiple], rates[multiple], local
        if cross_check:
            # with rho a circle's rate, spread <= rho r and gap >= r / rho,
            # so r / s lies between them at a rate <= rho / s for any
            # sqrt(rho) <= s < 1.  Where a root is excluded rho >= 1/8 and
            # s = sqrt(rho); where none is, rho can be 0 (an exact multiple
            # root alone), and s = 1/8
            s = np.where(multiple, np.sqrt(np.maximum(rates, 1 / 64)), 1.0)
            rate = np.where(multiple, np.minimum(s, 8 * rates), rates)
            circles = map(np.concatenate, zip(circles, (centers, radii / s, rate, row)))
        centers, radii, rates, owner = circles
    if owner.size:
        Ao = A[:, owner, None]  # the circles' symbols

        def integrand(z, idx):
            at = Ao if len(idx) == Ao.shape[1] else Ao[:, idx]  # the first call takes every circle
            a = symbol_values(at, z)
            inv = np.linalg.inv(a)
            n = np.count_nonzero(idx < local.size)  # the local circles come first
            if n:
                # det a(z) factored over the computed roots, as the residues
                # take it, not the LU one, which cancels near the roots: the
                # circle sums residues at the poles the simple terms use
                own = local[idx[:n]]  # their rows of the stack
                det = detk[own, None] * (1j * z[:n, :, None] - lam[own, None]).prod(axis=2)
                inv[:n] *= (np.linalg.det(a[:n]) / det)[..., None, None]
            inv = inv[..., None, :, :]
            return inv if k == 1 else (z[..., None] ** powers)[..., None, None] * inv  # z^0 = 1

        # one start for the stack, sized from its slowest local circle
        # if it has any, so the cross-check never moves the blocks
        slowest = rates[: local.size].max() if local.size else rates.max()
        try:
            values, _ = _stacked_quadrature(integrand, centers, radii, _sized_nodes(slowest))
        except ContourNotConverged as exc:
            raise mode_error(exc, modes, owner) from exc
        if local.size:
            np.add.at(J, local, values[: local.size])

    # the blocks scale J by powers of i, exactly, so comparing J compares them
    if cross_check and row.size:
        quad = np.zeros_like(J)  # a mode's check circles add up; no upper root: 0
        np.add.at(quad, row, values[local.size :])
        err = np.abs(J - quad).max(axis=(1, 2, 3))
        agree = err <= _AGREEMENT_TOL * (1.0 + np.abs(J).max(axis=(1, 2, 3)))  # NaN fails
        if np.count_nonzero(agree) < agree.size:
            i = int(agree.argmin())
            msg = f"the layer-potential routes disagree by {err[i]:.3e}"
            raise mode_error(RoutesDisagree(msg, index=i), modes)
    # block (q, p) is i^{p+q+1} times the integral of power p + q
    return _block_hankel([(1j) ** (s + 1) * J[:, s] for s in range(2 * k - 1)])


def layer_potential_blocks(sym, cross_check=True):
    """Boundary blocks of the decaying solution operator.

    Block ``(q, p)`` is ``i^{p+q+1}`` times the counter-clockwise
    integral mean of ``xi^{p+q} a(m, xi)^{-1}`` around the roots in the
    upper half plane (the decaying side).  Two routes compute it:

    * residue algebra at the characteristic roots (local circles take
      over at multiple roots),
    * contour quadrature, summed over one check circle per upper root
      cluster: the residue route's circle at a simple root, and a wider
      one at a multiple root, so that no local circle is compared with
      itself,

    and with ``cross_check`` both must agree to 1e-8 relative to the
    block scale.  This is the N=1 call of the stacked route behind
    :func:`calderon_projector_stack`, on the companion matrix the symbol
    keeps (:func:`companion_matrix`).
    """
    lam = np.linalg.eigvals(sym._comp[None])
    return _layer_blocks(sym.A[:, None], [sym.m], lam, cross_check)[0]


def calderon_projector(sym, side="plus"):
    """Projector onto one side's Cauchy-data space along the other.

    The plus projector is the cross-checked layer-potential block matrix
    times the jump operator; the minus one is its complement, exactly.
    The plus matrix is kept on ``sym``, so asking for both sides of one
    symbol runs the layer route, and its cross-check, once.  The
    unchecked matrix is ``layer_potential_blocks(sym, cross_check=False)
    @ jump_operator(sym)``.  The returned matrix is the caller's own copy.
    """
    if side not in ("plus", "minus"):
        raise SpecError(f"side must be plus or minus, got {side!r}")
    R = sym._routes.get("plus")
    if R is None:
        R = sym._routes["plus"] = layer_potential_blocks(sym) @ jump_operator(sym)
    if side == "minus":
        return BlockProjector(np.eye(R.shape[0], dtype=complex) - R)
    return BlockProjector(R.copy())


def calderon_projector_stack(spec, modes, side="plus"):
    """The :func:`calderon_projector` matrices of a stack of modes, one
    mode per row of ``modes``: shape ``(N, rk, rk)``.

    One run of the layer route serves the whole stack, with its
    residue/quadrature cross-check on every mode.  Row ``i`` equals the
    single-mode matrix of ``modes[i]``: bit for bit when that mode's
    upper roots are simple, to rounding at a multiple root, whose local
    circle the stack sums on its own node levels.  A row that
    ``mode_symbol`` rejects raises its SpecError.
    """
    if side not in ("plus", "minus"):
        raise SpecError(f"side must be plus or minus, got {side!r}")
    modes = _as_modes(spec, modes)
    A = mode_matrix_stack(spec, modes)
    # LAPACK at every N, as the N=1 calls take it, keeps each row bit for bit
    R = _layer_blocks(A, modes, np.linalg.eigvals(_companion(A)), True) @ _jump(A)
    if side == "minus":
        return np.eye(R.shape[-1], dtype=complex) - R
    return R


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
