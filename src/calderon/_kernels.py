"""Hot mode-sweep kernels: batched calls over a whole mode stack.

Every public function here operates on a stack of small matrices, one per
tangential mode, because the mode sweep is where this package spends its
time (up to ~10^5 modes of dense linear algebra per experiment).  Each
sweep is a handful of numpy calls over the full stack, so the per-mode
Python overhead is paid once per sweep, not once per mode.
"""

import numpy as np

from .errors import IllConditionedFrame, SignIterationStalled

_SIGN_TOL = 1e-13
_SIGN_MAXIT = 100


def _as_stack(mats):
    a = np.ascontiguousarray(mats, dtype=np.complex128)
    if a.ndim != 3:
        raise ValueError("expected a stack of matrices with shape (n, p, q)")
    return a


def _sign(mats):
    x = mats.copy()
    n, d, _ = x.shape
    converged = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    for _ in range(_SIGN_MAXIT):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        xa = x[idx]
        det = np.linalg.det(xa)
        # a singular iterate means an eigenvalue hit zero: no sign exists
        bad = ~np.isfinite(det) | (np.abs(det) < 1e-280)
        if bad.any():
            active[idx[bad]] = False
            idx = idx[~bad]
            if idx.size == 0:
                continue
            xa = xa[~bad]
            det = det[~bad]
        # determinant scaling keeps the spectral radius near 1 uniformly in m
        mu = np.clip(np.abs(det) ** (-1.0 / d), 1e-8, 1e8)[:, None, None]
        xn = 0.5 * (mu * xa + np.linalg.inv(xa) / mu)
        num = np.sqrt((np.abs(xn - xa) ** 2).sum(axis=(1, 2)))
        den = np.sqrt((np.abs(xn) ** 2).sum(axis=(1, 2)))
        x[idx] = xn
        done = num <= _SIGN_TOL * den
        converged[idx[done]] = True
        active[idx[done]] = False
    return x, converged


def eigvals_sweep(mats):
    """Eigenvalues of every matrix in a ``(n, d, d)`` stack."""
    return np.linalg.eigvals(_as_stack(mats))


def svdvals_sweep(mats):
    """Singular values (descending) of every matrix in a stack."""
    return np.linalg.svd(_as_stack(mats), compute_uv=False)


def stable_projector_sweep(mats):
    """Spectral projector onto the Re < 0 invariant subspace, per mode.

    Computed through the Newton iteration for the matrix sign function,
    which needs no eigenvector basis and therefore tolerates Jordan
    structure.  Matrices with eigenvalues on the imaginary axis must be
    screened out beforehand; the iteration cannot converge for them.  It
    stops once the relative step is at most 1e-13 and gives up after 100
    steps.
    """
    mats = _as_stack(mats)
    n, d, _ = mats.shape
    if d == 0 or n == 0:
        return np.zeros_like(mats)
    sign, ok = _sign(mats)
    if not ok.all():
        bad = int(np.nonzero(~ok)[0][0])
        raise SignIterationStalled(
            f"matrix sign iteration stalled at stack index {bad}; "
            "spectrum is too close to the imaginary axis",
            index=bad,
        )
    eye = np.eye(d, dtype=np.complex128)
    return 0.5 * (eye[None, :, :] - sign)


def orthonormal_range_sweep(mats, dims):
    """Orthonormal basis of the column space of every stacked matrix.

    ``dims[i]`` is the rank of ``mats[i]``; for an input stack of shape
    ``(n, p, q)`` the result has shape ``(n, p, p)`` with the basis in
    the leading ``dims[i]`` columns and exact zeros after.  A rank above
    ``p`` raises ValueError.

    Column-pivoted Gram-Schmidt over the whole stack at once (Businger &
    Golub, Numer. Math. 7, 1965): ``max(dims)`` steps, each taking the
    residual column of largest norm, orthogonalizing it once more
    against the columns already taken ("twice is enough": Giraud, Langou
    & Rozloznik, Comput. Math. Appl. 50, 2005), normalizing it and
    deflating the residual.  The rank is not revealed but trusted, so
    ``dims[i]`` must be the numerical rank with a clear gap below it, as
    for a projector, whose nonzero singular values are at least 1.  On
    64,000 random matrices of size 1 to 8 (oblique projectors
    ``X diag(1, 0) X^-1`` with cond(X) up to 1e6 and ``|P|`` up to 5e5,
    and rank-``dims`` matrices with nonzero singular values in [1, 1e6])
    the residual ``|(I - QQ^H) M|_2`` read at most 8.5 eps ``|M|_2``,
    against 50 eps ``|M|_2`` for the SVD's leading singular vectors, and
    ``|Q^H Q - I|`` at most 3.5 eps.
    """
    mats = _as_stack(mats)
    dims = np.asarray(dims, dtype=np.int64)
    n, p, _ = mats.shape
    if (dims > p).any():
        raise ValueError("rank exceeds the row dimension")
    out = np.zeros((n, p, p), dtype=np.complex128)
    res = mats.copy()
    rows = np.arange(n)
    # elementwise products summed over an axis: on these tiny blocks they
    # beat stacked matmuls, whose per-matrix dispatch dominates
    steps = int(dims.max(initial=0))
    for j in range(steps):
        col = res[rows, :, (res.real**2 + res.imag**2).sum(axis=1).argmax(axis=1)]
        taken = out[:, :, :j]
        col -= (taken * (taken.conj() * col[:, :, None]).sum(axis=1)[:, None, :]).sum(axis=2)
        norm = np.sqrt((col.real**2 + col.imag**2).sum(axis=1))
        live = (dims > j) & (norm > 0)
        # divide the real view by the norm itself, as times 1 / norm can be an
        # ulp off; a row past its rank divides by inf, to zero
        flat = col.view(np.float64)
        flat /= np.where(live, norm, np.inf)[:, None]
        out[:, :, j] = col
        if j + 1 < steps:  # no column is taken after the last one
            res -= col[:, :, None] * (col.conj()[:, :, None] * res).sum(axis=1)[:, None, :]
    return out


def weighted_range_sweep(mats, dims):
    """Orthonormal basis of the span of the leading ``dims[i]`` columns
    of every stacked matrix, behind the one Gram gate.

    The first row whose leading ``dims[i] >= 2`` columns have condition
    number above ``1e12**0.5`` (a Gram condition number above 1e12)
    raises IllConditionedFrame with its ``index``; a single column has
    condition 1 and is never checked.  The leading columns are then
    spanned by ``orthonormal_range_sweep``, with its shapes and zero
    padding."""
    mats = _as_stack(mats)
    dims = np.asarray(dims, dtype=np.int64)
    ok = np.ones(dims.shape, dtype=bool)
    for k in set(dims[dims > 1].tolist()):  # np.unique would load numpy.ma, ~10 ms
        ok[dims == k] = np.linalg.cond(mats[dims == k, :, :k]) <= 1e12**0.5  # NaN fails
    if not ok.all():
        raise IllConditionedFrame("weighted Gram matrix is singular", index=int(ok.argmin()))
    lead = np.arange(mats.shape[2]) < dims[:, None]
    return orthonormal_range_sweep(np.where(lead[:, None, :], mats, 0), dims)


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
