"""Hot mode-sweep kernels: batched calls over a whole mode stack.

Every public function here operates on a stack of small matrices, one per
tangential mode, because the mode sweep is where this package spends its
time (up to ~10^5 modes of dense linear algebra per experiment).  Each
sweep is a handful of numpy calls over the full stack, so the per-mode
Python overhead is paid once per sweep, not once per mode.

Every gallery companion matrix is 2x2, and on such stacks LAPACK's
per-matrix dispatch costs more than the arithmetic.  So the determinant,
inverse and eigenvalue helpers below take a closed form when the
trailing size is exactly 2 and LAPACK at every other size: Cramer's rule,
forward stable for n = 2, and the quadratic formula without cancellation
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM
2002, sections 14.6 and 1.8).  The Gram gate of two-column frames takes
its condition number in closed form too.  The layer-potential route in
``projector`` and ``contour`` calls LAPACK itself, so it stays
independent of the sign route these sweeps serve.
"""

import numpy as np

from .errors import IllConditionedFrame, SignIterationStalled

_SIGN_TOL = 1e-13
_SIGN_MAXIT = 100
_GATE = 1e12**0.5  # largest condition number of a weighted frame
_COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _as_stack(mats):
    a = np.ascontiguousarray(mats, dtype=np.complex128)
    if a.ndim != 3:
        raise ValueError("expected a stack of matrices with shape (n, p, q)")
    return a


def _row_scale(a):
    """A power of two per row of a stack, above the largest real or
    imaginary part in the row (1 for a zero or NaN row): dividing a row
    by it is exact and brings every part below 1."""
    m = np.abs(a.reshape(a.shape[0], a.shape[1] * a.shape[2]).view(np.float64))
    while m.shape[1] > 1 and m.shape[1] % 2 == 0:  # pairwise, as a short-axis max is slow
        m = np.maximum(m[:, ::2], m[:, 1::2])
    return np.ldexp(1.0, np.frexp(m.max(axis=1, initial=0.0))[1])


def _det(a):
    """Determinants of a stack: ``a00 a11 - a01 a10`` at 2x2, LAPACK
    otherwise."""
    if a.shape[-1] != 2:
        return np.linalg.det(a)
    return a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]


def _inv(a, det):
    """Inverses of a stack whose determinants are ``det``: the adjugate
    over ``det`` (Cramer's rule) at 2x2, LAPACK otherwise."""
    if a.shape[-1] != 2:
        return np.linalg.inv(a)
    return a[:, ::-1, ::-1].swapaxes(1, 2) * _COFACTOR_SIGNS / det[:, None, None]


def _sign(mats):
    x = mats
    n, d, _ = x.shape
    converged = np.zeros(n, dtype=bool)
    idx = np.arange(n)  # the rows still iterating, ascending
    for _ in range(_SIGN_MAXIT):
        # while every row iterates, the stack itself is the active part
        xa = x if idx.size == n else x[idx]
        det = _det(xa)
        # a singular iterate means an eigenvalue hit zero: no sign exists
        ok = np.isfinite(det) & (np.abs(det) >= 1e-280)
        if not ok.all():
            idx, xa, det = idx[ok], xa[ok], det[ok]
        # determinant scaling keeps the spectral radius near 1 uniformly in m
        mu = np.clip(np.abs(det) ** (-1.0 / d), 1e-8, 1e8)[:, None, None]
        xn = 0.5 * (mu * xa + _inv(xa, det) / mu)
        num = np.sqrt((np.abs(xn - xa) ** 2).sum(axis=(1, 2)))
        den = np.sqrt((np.abs(xn) ** 2).sum(axis=(1, 2)))
        if idx.size == n:
            x = xn  # a new array: the caller's stack is never written
        else:
            if x is mats:
                x = x.copy()
            x[idx] = xn
        done = num <= _SIGN_TOL * den
        converged[idx[done]] = True
        idx = idx[~done]
        if idx.size == 0:
            break
    return x, converged


def eigvals_sweep(mats):
    """Eigenvalues of every matrix in a ``(n, d, d)`` stack.

    At ``d = 2`` each row is scaled by ``_row_scale``, so no product can
    overflow or lose a row's scale, and its eigenvalues are the roots
    ``h +- sqrt(g^2 + bc)`` of ``[[a, b], [c, d]]`` with ``h = (a + d)/2``
    and ``g = (a - d)/2``: the larger one on the sign of the root that
    does not cancel against ``h``, first, and the smaller one as
    ``det / larger``.  A zero row gives zeros and a row with a NaN gives
    NaNs, without a warning.  Other sizes go to LAPACK, which orders
    them its own way.  ``symbols.defect_screen`` calls it; the layer
    route takes its eigenvalues from LAPACK at every size.
    """
    a = _as_stack(mats)
    if a.shape[-1] != 2:
        return np.linalg.eigvals(a)
    s = _row_scale(a)
    t = a / s[:, None, None]
    p, q, r, u = t[:, 0, 0], t[:, 0, 1], t[:, 1, 0], t[:, 1, 1]
    with np.errstate(invalid="ignore"):  # a NaN row stays NaN
        h = 0.5 * (p + u)
        g = 0.5 * (p - u)
        root = np.sqrt(g * g + q * r)
        root = np.where(h.real * root.real + h.imag * root.imag < 0, -root, root)
        big = h + root
        zero = big == 0  # then h = root = 0, and both eigenvalues are 0
        small = np.where(zero, 0, (p * u - q * r) / np.where(zero, 1, big))
    return np.stack((big, small), axis=1) * s[:, None]


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
    steps.  Each step takes the determinant and inverse of the active
    rows: in closed form at ``d = 2`` (``_det``, ``_inv``), by LAPACK
    otherwise.  A row whose determinant is not finite or below 1e-280 in
    modulus leaves the iteration unconverged.
    """
    mats = _as_stack(mats)
    n, d, _ = mats.shape
    if d == 0 or n == 0:
        return np.zeros_like(mats)
    sign, ok = _sign(mats)
    if not ok.all():
        bad = int(np.nonzero(~ok)[0][0])
        raise SignIterationStalled(
            "the matrix sign iteration stalled; the spectrum is too close to the imaginary axis",
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


def _frames_pass(cols):
    """Whether each frame of a ``(n, p, k)`` stack has condition number
    at most ``_GATE``; a NaN or rank-deficient frame fails.

    Two columns ``c0, c1`` take it in closed form from
    ``s1 s2 = |c0| |c1 - c0 (c0^H c1) / |c0|^2|`` and
    ``s1^2 + s2^2 = |c0|^2 + |c1|^2``, on rows scaled by ``_row_scale``:
    ``s1^2`` is the larger root of ``t^2 - (s1^2 + s2^2) t + (s1 s2)^2``
    and the condition number is ``s1^2 / (s1 s2)``.  The projected column
    keeps the relative error near ``eps`` times the condition number; the
    Gram matrix's eigenvalues would square it.  Other widths take
    ``np.linalg.cond``, a batched SVD.
    """
    if cols.shape[2] != 2:
        return np.linalg.cond(cols) <= _GATE  # NaN fails
    t = cols / _row_scale(cols)[:, None, None]
    c0, c1 = t[:, :, 0], t[:, :, 1]
    with np.errstate(invalid="ignore"):  # a NaN frame stays NaN, and fails
        n0 = (c0.real**2 + c0.imag**2).sum(axis=1)
        tot = n0 + (c1.real**2 + c1.imag**2).sum(axis=1)
        res = c1 - c0 * ((c0.conj() * c1).sum(axis=1) * (1 / np.where(n0 > 0, n0, 1)))[:, None]
        prod = np.sqrt(n0 * (res.real**2 + res.imag**2).sum(axis=1))
        big = 0.5 * (tot + np.sqrt(np.maximum(tot - 2 * prod, 0) * (tot + 2 * prod)))
        return (big <= _GATE * prod) & (prod > 0)


def weighted_range_sweep(mats, dims):
    """Orthonormal basis of the span of the leading ``dims[i]`` columns
    of every stacked matrix, behind the one Gram gate.

    The first row whose leading ``dims[i] >= 2`` columns have condition
    number above ``1e12**0.5`` (a Gram condition number above 1e12)
    raises IllConditionedFrame with its ``index``; a single column has
    condition 1 and is never checked (``_frames_pass``).  The leading
    columns are then spanned by ``orthonormal_range_sweep``, with its
    shapes and zero padding."""
    mats = _as_stack(mats)
    dims = np.asarray(dims, dtype=np.int64)
    ok = np.ones(dims.shape, dtype=bool)
    for k in set(dims[dims > 1].tolist()):  # np.unique would load numpy.ma, ~10 ms
        ok[dims == k] = _frames_pass(mats[dims == k, :, :k])
    if not ok.all():
        msg = "the weighted Gram matrix is numerically singular"
        raise IllConditionedFrame(msg, index=int(ok.argmin()))
    lead = np.arange(mats.shape[2]) < dims[:, None]
    return orthonormal_range_sweep(np.where(lead[:, None, :], mats, 0), dims)


def _padded_sines(sines_a, da, db):
    """Principal-angle sines of a stack of subspace pairs, largest first.

    ``sines_a`` is ``(N, d)``: row ``i`` holds the singular values of the
    complement of frame A against frame B, of which the leading
    ``da[i]`` count.  Each row keeps A's sines, then right-angle sines
    up to ``max(da, db)``, then -1 padding, which sorts last and clips
    to angle 0; ``d`` must be at least ``max(da, db)``.
    """
    j = np.arange(sines_a.shape[1])
    pad = np.where(j < np.maximum(da, db)[:, None], 1.0, -1.0)
    return np.sort(np.where(j < da[:, None], sines_a, pad), axis=1)[:, ::-1]
