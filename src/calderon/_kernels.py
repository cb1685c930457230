"""Hot mode-sweep kernels: numba fast lane with a batched-numpy fallback.

Every public function here operates on a stack of small matrices, one per
tangential mode, because the mode sweep is where this package spends its
time (up to ~10^4 modes of dense linear algebra per experiment).

Lane selection:
  * ``CALDERON_BACKEND=auto``  (default) use numba when importable,
  * ``CALDERON_BACKEND=numpy`` force the pure-numpy lane,
  * ``CALDERON_BACKEND=numba`` require numba, fail loudly otherwise.
``CALDERON_THREADS`` caps the numba threading layer.  The two lanes are
numerically interchangeable; ``calderon bench`` compares their speed.
"""

import os

import numpy as np

from .errors import CalderonError, SignIterationStalled

_ENV_BACKEND = os.environ.get("CALDERON_BACKEND", "auto").strip().lower()
if _ENV_BACKEND not in ("auto", "numba", "numpy"):
    raise CalderonError(
        f"CALDERON_BACKEND must be auto, numba or numpy, got {_ENV_BACKEND!r}"
    )

_SIGN_TOL = 1e-13
_SIGN_MAXIT = 100

try:
    if _ENV_BACKEND == "numpy":
        raise ImportError("numpy lane forced by CALDERON_BACKEND")
    import numba
    from numba import njit, prange

    # skip the TBB probe; omp falls back to workqueue where unavailable
    numba.config.THREADING_LAYER_PRIORITY = ["omp", "workqueue", "tbb"]
    _threads = os.environ.get("CALDERON_THREADS")
    if _threads:
        numba.set_num_threads(max(1, min(int(_threads), numba.config.NUMBA_NUM_THREADS)))
    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False
    if _ENV_BACKEND == "numba":
        raise CalderonError("CALDERON_BACKEND=numba but numba is not importable")

DEFAULT_BACKEND = "numba" if HAVE_NUMBA else "numpy"


def active_backend(backend=None):
    """Resolve a backend argument against the environment default."""
    lane = backend or DEFAULT_BACKEND
    if lane not in ("numba", "numpy"):
        raise CalderonError(f"unknown backend {lane!r}")
    if lane == "numba" and not HAVE_NUMBA:
        raise CalderonError("numba backend requested but numba is not importable")
    return lane


def _as_stack(mats):
    a = np.ascontiguousarray(mats, dtype=np.complex128)
    if a.ndim != 3:
        raise ValueError("expected a stack of matrices with shape (n, p, q)")
    return a


# ---------------------------------------------------------------------------
# numpy lane: batched LAPACK calls over the whole stack


def _eigvals_numpy(mats):
    return np.linalg.eigvals(mats)


def _svdvals_numpy(mats):
    return np.linalg.svd(mats, compute_uv=False)


def _sign_numpy(mats, tol, maxit):
    x = mats.copy()
    n, d, _ = x.shape
    converged = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    for _ in range(maxit):
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
        done = num <= tol * den
        converged[idx[done]] = True
        active[idx[done]] = False
    return x, converged


def _range_numpy(mats, dims):
    u = np.linalg.svd(mats, compute_uv=True)[0]
    n, p, _ = mats.shape
    mask = np.arange(p)[None, :] < np.asarray(dims)[:, None]
    return u * mask[:, None, :]


# ---------------------------------------------------------------------------
# numba lane: per-mode loops, parallel across the stack

if HAVE_NUMBA:

    @njit(cache=True, parallel=True)
    def _eigvals_numba(mats):
        n, d, _ = mats.shape
        out = np.empty((n, d), dtype=np.complex128)
        for i in prange(n):
            out[i] = np.linalg.eigvals(mats[i])
        return out

    @njit(cache=True, parallel=True)
    def _svdvals_numba(mats):
        n, p, q = mats.shape
        r = min(p, q)
        out = np.empty((n, r), dtype=np.float64)
        for i in prange(n):
            out[i] = np.linalg.svd(mats[i], full_matrices=False)[1]
        return out

    @njit(cache=True)
    def _inv_det_small(x):
        """Gauss-Jordan inverse with partial pivoting; also returns det.

        One fused routine avoids per-matrix LAPACK dispatch, which
        dominates the cost at the 2x2..4x4 sizes seen per mode.
        """
        d = x.shape[0]
        a = x.copy()
        inv = np.eye(d, dtype=np.complex128)
        det = 1.0 + 0.0j
        for col in range(d):
            piv = col
            big = abs(a[col, col])
            for row in range(col + 1, d):
                mag = abs(a[row, col])
                if mag > big:
                    big = mag
                    piv = row
            if big == 0.0:
                return inv, 0.0 + 0.0j
            if piv != col:
                for j in range(d):
                    a[col, j], a[piv, j] = a[piv, j], a[col, j]
                    inv[col, j], inv[piv, j] = inv[piv, j], inv[col, j]
                det = -det
            pivot = a[col, col]
            det *= pivot
            scale = 1.0 / pivot
            for j in range(d):
                a[col, j] *= scale
                inv[col, j] *= scale
            for row in range(d):
                if row == col:
                    continue
                factor = a[row, col]
                if factor != 0.0:
                    for j in range(d):
                        a[row, j] -= factor * a[col, j]
                        inv[row, j] -= factor * inv[col, j]
        return inv, det

    @njit(cache=True, parallel=True)
    def _sign_numba(mats, tol, maxit):
        n, d, _ = mats.shape
        out = np.empty_like(mats)
        ok = np.zeros(n, dtype=np.bool_)
        for i in prange(n):
            x = mats[i].copy()
            for _ in range(maxit):
                xinv, det = _inv_det_small(x)
                if det == 0.0:
                    break
                mu = abs(det) ** (-1.0 / d)
                if mu < 1e-8:
                    mu = 1e-8
                elif mu > 1e8:
                    mu = 1e8
                # inv(mu x) = inv(x) / mu, so one inversion serves both
                xn = 0.5 * (mu * x + xinv / mu)
                num = 0.0
                den = 0.0
                for a in range(d):
                    for b in range(d):
                        num += abs(xn[a, b] - x[a, b]) ** 2
                        den += abs(xn[a, b]) ** 2
                x = xn
                if num <= tol * tol * den:
                    ok[i] = True
                    break
            out[i] = x
        return out, ok

    @njit(cache=True, parallel=True)
    def _range_numba(mats, dims):
        n, p, _ = mats.shape
        out = np.zeros((n, p, p), dtype=np.complex128)
        for i in prange(n):
            u = np.linalg.svd(mats[i], full_matrices=True)[0]
            for j in range(dims[i]):
                out[i, :, j] = u[:, j]
        return out


# ---------------------------------------------------------------------------
# public sweeps


def eigvals_sweep(mats, backend=None):
    """Eigenvalues of every matrix in a ``(n, d, d)`` stack."""
    mats = _as_stack(mats)
    if active_backend(backend) == "numba":
        return _eigvals_numba(mats)
    return _eigvals_numpy(mats)


def svdvals_sweep(mats, backend=None):
    """Singular values (descending) of every matrix in a stack."""
    mats = _as_stack(mats)
    if active_backend(backend) == "numba":
        return _svdvals_numba(mats)
    return _svdvals_numpy(mats)


def stable_projector_sweep(mats, tol=_SIGN_TOL, maxit=_SIGN_MAXIT, backend=None):
    """Spectral projector onto the Re < 0 invariant subspace, per mode.

    Computed through the Newton iteration for the matrix sign function,
    which needs no eigenvector basis and therefore tolerates Jordan
    structure.  Matrices with eigenvalues on the imaginary axis must be
    screened out beforehand; the iteration cannot converge for them.
    """
    mats = _as_stack(mats)
    n, d, _ = mats.shape
    if d == 0 or n == 0:
        return np.zeros_like(mats)
    if active_backend(backend) == "numba":
        sign, ok = _sign_numba(mats, tol, maxit)
    else:
        sign, ok = _sign_numpy(mats, tol, maxit)
    if not ok.all():
        bad = int(np.nonzero(~ok)[0][0])
        raise SignIterationStalled(
            f"matrix sign iteration stalled at stack index {bad}; "
            "spectrum is too close to the imaginary axis",
            index=bad,
        )
    eye = np.eye(d, dtype=np.complex128)
    return 0.5 * (eye[None, :, :] - sign)


def orthonormal_range_sweep(mats, dims, backend=None):
    """Orthonormal basis of the column space of every stacked matrix.

    ``dims[i]`` is the known rank of ``mats[i]``; for an input stack of
    shape ``(n, p, q)`` the result has shape ``(n, p, p)`` with the
    basis in the leading ``dims[i]`` columns and zero padding after.
    """
    mats = _as_stack(mats)
    dims = np.asarray(dims, dtype=np.int64)
    if (dims > mats.shape[1]).any():
        raise ValueError("rank exceeds the row dimension")
    if active_backend(backend) == "numba":
        return _range_numba(mats, dims)
    return _range_numpy(mats, dims)


def warmup(backend=None):
    """Trigger JIT compilation so timed code paths run hot."""
    lane = active_backend(backend)
    z = np.array([[[1.5 + 0j, 0.25], [0.0, -2.0]]], dtype=np.complex128)
    eigvals_sweep(z, backend=lane)
    svdvals_sweep(z, backend=lane)
    stable_projector_sweep(z, backend=lane)
    orthonormal_range_sweep(z, np.array([1]), backend=lane)
    return lane
