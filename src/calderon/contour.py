"""Contour quadrature and holomorphic functional calculus.

The quadrature rule is the trapezoidal rule on circles and ellipses,
which converges exponentially for integrands analytic in a neighborhood
of the contour; node doubling supplies the error estimate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    CalderonError,
    ContourNotConverged,
    DefectMode,
    EigenvalueOnContour,
    EigenvalueOnCut,
    SpecError,
)
from .symbols import companion_matrix, on_real_axis

MAX_NODES = 2**16


@dataclass(frozen=True)
class Contour:
    """Closed circular or elliptic contour, counter-clockwise.

    ``radii`` is ``(a, b)``; the contour is a circle when ``a == b``.
    ``nodes`` is the starting node count for the doubling loop.
    """

    center: complex
    radii: tuple
    nodes: int = 16

    def __post_init__(self):
        a, b = self.radii
        if a <= 0 or b <= 0:
            raise SpecError("contour radii must be positive")
        if self.nodes < 8:
            raise SpecError("contour needs at least 8 nodes")

    @classmethod
    def circle(cls, center, radius, nodes=16):
        return cls(complex(center), (float(radius), float(radius)), nodes)

    @classmethod
    def ellipse(cls, center, a, b, nodes=16):
        return cls(complex(center), (float(a), float(b)), nodes)

    @property
    def shape(self):
        a, b = self.radii
        return "circle" if a == b else "ellipse"

    def boundary(self, n):
        """Nodes z_j and derivatives dz/dtheta at n equispaced angles."""
        return self._at(2 * np.pi * np.arange(n) / n)

    def _at(self, t):
        """Nodes and derivatives dz/dtheta at the angles ``t``."""
        a, b = self.radii
        cos, sin = np.cos(t), np.sin(t)
        z = self.center + a * cos + 1j * b * sin
        dz = -a * sin + 1j * b * cos
        return z, dz

    def distance(self, points):
        """Distance from each point to the contour curve."""
        pts = np.atleast_1d(np.asarray(points, dtype=complex))
        a, b = self.radii
        if a == b:
            return np.abs(np.abs(pts - self.center) - a)
        zb, _ = self.boundary(4096)
        return np.abs(pts[:, None] - zb[None, :]).min(axis=1)


def contour_quadrature(f, contour, tol=1e-10, max_nodes=MAX_NODES):
    """Approximate ``(1 / 2 pi i) * integral of f over the contour``.

    Parameters
    ----------
    f : callable
        Vectorized integrand: ``f(z)`` for an array of nodes ``z`` must
        return an array whose leading axis runs over the nodes.
    contour : Contour
        Its ``nodes`` is the start of the doubling loop.
    tol : float
        Relative agreement required between successive node doublings.

    Returns
    -------
    (value, n) : the converged integral and the node count that achieved
    it.  The first call of ``f`` takes the start grid and its midpoints,
    so the first doubling is compared without a second call; each later
    doubling evaluates only the new midpoints.  ``f`` is evaluated at
    ``n`` nodes in all.

    Raises
    ------
    ContourNotConverged
        When doubling passes ``max_nodes`` without agreement.
    """

    def sums(t, parts):
        # sums of f(z) dz/dtheta over the nodes at the angles t, one per
        # interleaved subgrid; the matrix products need no weighted copy
        # of f's values
        z, dz = contour._at(t)
        vals = np.asarray(f(z), dtype=complex)
        if vals.shape[0] != t.size:
            raise ValueError("integrand must be vectorized over the node axis")
        flat = vals.reshape(t.size, -1)
        return [dz[i::parts] @ flat[i::parts] for i in range(parts)], vals.shape[1:]

    n = max(8, contour.nodes)
    if 2 * n > max_nodes:
        raise ContourNotConverged(f"no convergence with up to {max_nodes} nodes")
    # the first call takes the 2n-node grid, whose even nodes are the
    # n-node grid, so it yields both estimates of the first comparison
    (total, odd), shape = sums(np.pi * np.arange(2 * n) / n, 2)
    prev = total / (1j * n)
    total = total + odd
    n *= 2
    while True:
        value = total / (1j * n)
        err = np.abs(value - prev).max()
        if err <= tol * max(1.0, float(np.abs(value).max())):
            return value.reshape(shape)[()], n  # [()]: a scalar for scalar f
        if 2 * n > max_nodes:
            raise ContourNotConverged(f"no convergence with up to {max_nodes} nodes")
        prev = value
        # the 2n-node grid is the n-node grid plus its midpoints, so each
        # later call evaluates f only at the nodes the previous ones lacked
        (new,), _ = sums(2 * np.pi * (np.arange(n) + 0.5) / n, 1)
        total = total + new
        n *= 2


def _sized_nodes(spread, radius, gap=np.inf):
    """Start node count for a circle of ``radius`` around singularities
    within ``spread`` of its center and clear of those within ``gap``.

    The trapezoidal rule converges like ``rho^n`` with
    ``rho = max(spread / radius, radius / gap)``; the start is the
    smallest power of two >= 16, capped at 256, with ``rho^n <= 1e-10``,
    so the first doubling comparison usually converges.
    """
    rho = max(spread / radius, radius / gap)
    n = 16
    while n < 256 and rho**n > 1e-10:
        n *= 2
    return n


def enclosing_circle(group, excluded=(), nodes=None):
    """Circle around an eigenvalue group, clear of excluded points.

    Centered at the group mean; the radius sits halfway between the
    group spread and the nearest excluded point, which keeps comparable
    margins on both sides of the contour.  ``nodes`` defaults to the
    start sized from that separation (a power of two in [16, 256], see
    :func:`_sized_nodes`): the smallest count at which the trapezoidal
    error bound reaches 1e-10, so :func:`contour_quadrature` usually
    converges in one integrand call.
    """
    group = np.atleast_1d(np.asarray(group, dtype=complex))
    if group.size == 0:
        raise CalderonError("cannot build a contour around an empty group")
    center = complex(group.mean())
    spread = float(np.abs(group - center).max()) if group.size > 1 else 0.0
    excluded = np.atleast_1d(np.asarray(excluded, dtype=complex)) if len(excluded) else None
    gap = np.inf
    if excluded is not None and excluded.size:
        gap = float(np.abs(excluded - center).min())
        if gap <= spread * (1 + 1e-12) + 1e-300:
            raise EigenvalueOnContour(
                "cannot separate the enclosed group from excluded eigenvalues"
            )
        radius = spread + 0.5 * (gap - spread)
    else:
        radius = spread + max(1.0, 0.5 * abs(center), 0.5 * spread)
    if nodes is None:
        nodes = _sized_nodes(spread, radius, gap)
    return Contour.circle(center, radius, nodes)


def characteristic_roots(sym, allow_real=False):
    """All rk roots of ``det a(m, xi_n) = 0`` grouped by multiplicity.

    Roots come from the eigenvalues ``lambda = i xi_n`` of the block
    companion matrix of the mode ODE; clusters within relative 1e-7 are
    merged into one root with a multiplicity.  Each entry is
    ``(root, multiplicity, halfplane)`` with halfplane one of
    ``upper``, ``lower``, ``real``.

    Raises DefectMode on a real-axis root unless ``allow_real``.
    """
    return group_roots(sym, np.linalg.eigvals(companion_matrix(sym)), allow_real)


def group_roots(sym, lam, allow_real=False):
    """Characteristic roots of ``sym`` from its companion eigenvalues
    ``lam``, grouped as in :func:`characteristic_roots`."""
    xi = -1j * lam
    scale = 1.0 + float(np.abs(xi).max()) if xi.size else 1.0
    group_tol = 1e-7 * scale
    order = np.lexsort((xi.imag, xi.real))
    clusters = []
    for idx in order:
        z = xi[idx]
        for c in clusters:
            if abs(z - c[0] / c[1]) <= group_tol:
                c[0] += z
                c[1] += 1
                break
        else:
            clusters.append([z, 1])

    roots = [total / mult for total, mult in clusters]
    real = on_real_axis(np.abs(np.imag(roots)), sym.m)
    out = []
    for root, (_, mult), on_axis in zip(roots, clusters, real):
        if on_axis:
            half = "real"
        elif root.imag > 0:
            half = "upper"
        else:
            half = "lower"
        out.append((root, mult, half))
    if not allow_real and any(h == "real" for _, _, h in out):
        bad = [r for r, _, h in out if h == "real"]
        raise DefectMode(
            f"mode {sym.m} has characteristic roots on the real axis: {bad}",
            mode=sym.m,
            roots=bad,
        )
    return out


def riesz_projector(M, contour, tol=1e-10):
    """Spectral projector onto the eigen-group enclosed by the contour.

    Quadrature of the resolvent ``(lambda - M)^{-1}``; the contour must
    clear the spectrum by a relative margin of 1e-8.
    """
    M = np.asarray(M, dtype=complex)
    eigs = np.linalg.eigvals(M)
    scale = 1.0 + float(np.abs(eigs).max())
    if contour.distance(eigs).min() < 1e-8 * scale:
        raise EigenvalueOnContour("an eigenvalue lies on the integration contour")
    eye = np.eye(M.shape[0], dtype=complex)

    def resolvent(z):
        return np.linalg.inv(z[:, None, None] * eye - M)

    value, _ = contour_quadrature(resolvent, contour, tol=tol)
    return value


def matrix_power(a, t, cut_angle=np.pi, tol=1e-10):
    """Fractional power ``a^t`` with the branch of ``z^t`` cut along
    the ray ``r e^{i cut_angle}``.

    The spectrum must stay off the cut (and off the origin); the
    integration circle is auto-sized between the eigenvalue cloud and
    the cut.  Eigenvalues of the result are the t-th powers, same
    branch, of the eigenvalues of ``a``.
    """
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    eigs = np.linalg.eigvals(a)
    scale = 1.0 + float(np.abs(eigs).max())

    rotated = eigs * np.exp(-1j * cut_angle)
    dist_ray = np.where(rotated.real > 0, np.abs(rotated.imag), np.abs(rotated))
    if dist_ray.min() < 1e-8 * scale or np.abs(eigs).min() < 1e-12 * scale:
        raise EigenvalueOnCut("an eigenvalue lies on the branch cut or at 0")

    center = complex(eigs.mean())
    spread = float(np.abs(eigs - center).max())
    c_rot = center * np.exp(-1j * cut_angle)
    center_ray = abs(c_rot.imag) if c_rot.real > 0 else abs(center)
    if center_ray <= spread * (1 + 1e-12):
        raise EigenvalueOnCut("cannot separate the spectrum from the cut by a circle")
    radius = spread + 0.5 * (center_ray - spread)
    # the start is sized from the poles alone: the branch point is a
    # weaker singularity, and a start sized from it overshoots the count
    # the doubling loop needs on most spectra
    contour = Contour.circle(center, radius, _sized_nodes(spread, radius))

    eye = np.eye(d, dtype=complex)

    def integrand(z):
        # branch: arg(z) in (cut_angle - 2 pi, cut_angle)
        psi = np.angle(z * np.exp(-1j * cut_angle))
        delta = np.where(psi > 0, psi - 2 * np.pi, psi)
        logz = np.log(np.abs(z)) + 1j * (cut_angle + delta)
        powz = np.exp(t * logz)
        return powz[:, None, None] * np.linalg.inv(z[:, None, None] * eye - a)

    value, _ = contour_quadrature(integrand, contour, tol=tol)
    return value


@dataclass
class SpectralSplit:
    """Stable/unstable invariant subspaces of a matrix.

    ``stable`` spans the invariant subspace for Re(lambda) < 0 (data of
    solutions decaying to the right), ``unstable`` the complement, and
    ``projector`` is the spectral projector onto the stable part along
    the unstable one.  ``gap`` is ``min |Re lambda|``.
    """

    stable: np.ndarray
    unstable: np.ndarray
    projector: np.ndarray
    gap: float


def spectral_split(C, validate=False):
    """Split a matrix into stable and unstable invariant subspaces.

    Frames come from ordered Schur decompositions, so they survive
    Jordan structure.  With ``validate=True`` the stable projector is
    recomputed independently through :func:`riesz_projector` on a circle
    in the left half plane and both must agree to 1e-8.  scipy is
    imported on the first call, so only runs that reach this oracle
    pay for loading it.

    Raises DefectMode when an eigenvalue sits within
    ``1e-10 (1 + max |lambda|)`` of the imaginary axis (no splitting
    exists).
    """
    C = np.asarray(C, dtype=complex)
    d = C.shape[0]
    eigs = np.linalg.eigvals(C)
    scale = 1.0 + float(np.abs(eigs).max()) if d else 1.0
    gap_tol = 1e-10 * scale
    gap = float(np.abs(eigs.real).min()) if d else np.inf
    if gap <= gap_tol:
        raise DefectMode(f"eigenvalue within {gap_tol:.2e} of the imaginary axis")

    import scipy.linalg  # deferred: the only scipy use in calderon

    _, zs, ds = scipy.linalg.schur(C, output="complex", sort="lhp")
    _, zu, du = scipy.linalg.schur(C, output="complex", sort="rhp")
    if ds + du != d:
        raise DefectMode("stable and unstable dimensions do not fill the space")
    stable = zs[:, :ds]
    unstable = zu[:, :du]
    if ds == 0:
        proj = np.zeros((d, d), dtype=complex)
    elif ds == d:
        proj = np.eye(d, dtype=complex)
    else:
        basis = np.hstack([stable, unstable])
        proj = basis[:, :ds] @ np.linalg.inv(basis)[:ds, :]

    if validate and 0 < ds < d:
        circle = enclosing_circle(eigs[eigs.real < 0], excluded=eigs[eigs.real >= 0])
        check = riesz_projector(C, circle)
        if np.abs(check - proj).max() > 1e-8 * (1.0 + np.abs(proj).max()):
            raise CalderonError("Schur and contour projectors disagree")
    return SpectralSplit(stable=stable, unstable=unstable, projector=proj, gap=gap)
