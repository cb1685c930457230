"""Contour quadrature and holomorphic functional calculus.

The quadrature rule is the trapezoidal rule on circles and ellipses,
which converges exponentially for integrands analytic in a neighborhood
of the contour; node doubling supplies the error estimate.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import eigvals_sweep
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
_HALVES = ("lower", "real", "upper")  # characteristic_roots' names of half = -1, 0, 1


@dataclass(frozen=True)
class Contour:
    """Closed circular or elliptic contour, counter-clockwise.

    ``radii`` is ``(a, b)``; the contour is a circle when ``a == b``.
    ``nodes`` is the starting node count for the doubling loop.  A stack
    of circles holds one center and radius per circle in arrays and one
    shared start (see :meth:`circle`).
    """

    center: complex
    radii: tuple
    nodes: int = 16

    def __post_init__(self):
        a, b = self.radii
        if np.ndim(a):  # a stack of circles
            a, b = a.min(), b.min()
        if a <= 0 or b <= 0:
            raise SpecError("contour radii must be positive")
        if self.nodes < 8:
            raise SpecError("contour needs at least 8 nodes")

    @classmethod
    def circle(cls, center, radius, nodes=16):
        """One circle, or a stack of circles when ``center`` and
        ``radius`` are arrays."""
        if np.ndim(center):
            radius = np.asarray(radius, dtype=float)
            return cls(np.asarray(center, dtype=complex), (radius, radius), int(nodes))
        return cls(complex(center), (float(radius), float(radius)), nodes)

    @classmethod
    def ellipse(cls, center, a, b, nodes=16):
        return cls(complex(center), (float(a), float(b)), nodes)

    def boundary(self, n):
        """Nodes z_j and derivatives dz/dtheta at n equispaced angles,
        shape ``(n,)``, or ``(N, n)`` for a stack of N circles."""
        center, a, b = (np.asarray(x)[..., None] for x in (self.center, *self.radii))
        return _on_curve(center, a, b, np.exp(2j * np.pi / n * np.arange(n)))

    def distance(self, points):
        """Distance from each point to the contour curve, shape ``(P,)``,
        or ``(N, P)`` for a stack of N circles."""
        pts = np.atleast_1d(np.asarray(points, dtype=complex))
        center, a, b = (np.asarray(x)[..., None] for x in (self.center, *self.radii))
        if np.array_equal(a, b):
            return np.abs(np.abs(pts - center) - a)
        zb, _ = self.boundary(4096)
        return np.abs(pts[:, None] - zb[..., None, :]).min(axis=-1)


def _on_curve(center, a, b, e):
    """Nodes and derivatives dz/dtheta of the curve
    ``center + a cos t + i b sin t`` at the unit points ``e = exp(i t)``;
    the arguments broadcast, so one angle grid serves a stack of curves."""
    ae, s = a * e, b - a  # the circle of radius a, stretched by i s sin t
    return center + ae + 1j * s * e.imag, 1j * ae + 1j * s * e.real


def contour_quadrature(f, contour, tol=1e-10, max_nodes=MAX_NODES):
    """Approximate ``(1 / 2 pi i) * integral of f over the contour``.

    Parameters
    ----------
    f : callable
        Vectorized integrand.  On one contour, ``f(z)`` for an array of
        nodes ``z`` must return an array whose leading axis runs over the
        nodes.  On a stack of circles, ``f(z, rows)`` gets the nodes
        ``z``, shape ``(len(rows), n)``, of the circles ``rows`` and must
        return an array whose two leading axes are those of ``z``.
    contour : Contour
        One contour, or a stack of circles on one shared angle grid.  Its
        ``nodes`` is the start of the doubling loop.
    tol : float
        Relative agreement required between successive node doublings,
        per circle.

    Returns
    -------
    (values, counts) : for a stack, the converged integrals along a
    leading axis and the node count that achieved each; for one contour,
    the N=1 view ``(value, n)``.  The first call of ``f`` takes the
    start grid and its midpoints, so the first doubling is compared
    without a second call; each later doubling evaluates only the new
    midpoints, on the circles that have not converged.  ``f`` is
    evaluated at ``n`` nodes per circle in all.

    Raises
    ------
    ContourNotConverged
        When doubling passes ``max_nodes`` without agreement (a NaN
        integral never agrees); its ``index`` is the first circle of the
        stack that did not converge.
    """
    stacked = np.ndim(contour.center) > 0
    if not stacked:
        single = f

        def f(z, rows):
            return np.asarray(single(z[0]))[None]

    center, a, b = (np.atleast_1d(x)[:, None] for x in (contour.center, *contour.radii))
    rows = np.arange(len(center))  # the circles still doubling

    def sums(e, parts):
        # sums of f(z) dz/dtheta over the nodes at the unit points e, per
        # circle and interleaved subgrid (node j of subgrid i is node
        # j parts + i), as one product that needs no weighted copy of f's values
        z, dz = _on_curve(center, a, b, e)
        vals = np.asarray(f(z, rows), dtype=complex)
        if vals.shape[:2] != z.shape:
            raise ValueError("integrand must be vectorized over the node axis")
        R, m = len(z), e.size // parts
        grid = dz.reshape(R, m, parts).transpose(0, 2, 1)[:, :, None, :]
        out = grid @ vals.reshape(R, m, parts, -1).transpose(0, 2, 1, 3)
        return out[:, :, 0], vals.shape[2:]

    n = max(8, contour.nodes)
    if 2 * n > max_nodes:
        raise ContourNotConverged(f"no convergence with up to {max_nodes} nodes")
    # the first call takes the 2n-node grid, whose even nodes are the
    # n-node grid, so it yields both estimates of the first comparison
    both, shape = sums(np.exp(1j * np.pi / n * np.arange(2 * n)), 2)
    prev = both[:, 0] / (1j * n)
    total = both[:, 0] + both[:, 1]
    n *= 2
    values = value = total / (1j * n)
    counts = np.full(len(rows), n)
    while True:
        err = np.abs(value - prev).max(axis=1)
        going = ~(err <= tol * np.maximum(1.0, np.abs(value).max(axis=1)))  # NaN keeps going
        if not going.any():
            break
        if 2 * n > max_nodes:
            raise ContourNotConverged(
                f"no convergence with up to {max_nodes} nodes", index=int(rows[going.argmax()])
            )
        rows, center, a, b = rows[going], center[going], a[going], b[going]
        prev, total = value[going], total[going]
        # the 2n-node grid is the n-node grid plus its midpoints, so each
        # later call evaluates f only at the nodes the previous ones lacked
        new, _ = sums(np.exp(1j * np.pi / n * np.arange(1, 2 * n, 2)), 1)
        total = total + new[:, 0]
        n *= 2
        values[rows] = value = total / (1j * n)
        counts[rows] = n
    values = values.reshape(values.shape[:1] + shape)
    if stacked:
        return values, counts
    return values[0][()], int(counts[0])  # [()]: a scalar for scalar f


def _sized_nodes(rho):
    """Start node count for a circle on which the trapezoidal rule
    converges like ``rho^n``.

    For a circle of radius ``radius`` around singularities within
    ``spread`` of its center and clear of those within ``gap``,
    ``rho = max(spread / radius, radius / gap)``.  The start is the
    smallest power of two >= 16, capped at 256, with ``rho^n <= 1e-10``,
    so the first doubling comparison usually converges.
    """
    return next((n for n in (16, 32, 64, 128) if rho**n <= 1e-10), 256)


def _enclosing_circles(points, inside, outside):
    """The :func:`enclosing_circle` rule for a stack of groups: row ``i``
    encloses ``points[i][inside[i]]`` clear of ``points[i][outside[i]]``.

    Returns the centers, the radii and each circle's ``rho`` (see
    :func:`_sized_nodes`).  Raises EigenvalueOnContour, with the
    ``index`` of the first row, when a group cannot be separated from
    its excluded points.
    """
    center = points.sum(axis=1, where=inside) / inside.sum(axis=1)
    dist = np.abs(points - center[:, None])
    spread = dist.max(axis=1, where=inside, initial=0.0)
    gap = dist.min(axis=1, where=outside, initial=np.inf)
    stuck = gap <= spread * (1 + 1e-12) + 1e-300
    if stuck.any():
        raise EigenvalueOnContour(
            "cannot separate the enclosed group from excluded eigenvalues",
            index=int(stuck.argmax()),
        )
    # rho = max(spread / r, r / gap) is least at the geometric mean; the
    # floor gap / 8 keeps a lone point or a tight group at rho <= 1/8
    free = np.isinf(gap)  # nothing to exclude: a margin set by the group
    g = np.where(free, 1.0, gap)  # a finite stand-in, so no 0 * inf
    radius = np.maximum(np.sqrt(spread * g), 0.125 * g)
    if free.any():
        margin = np.maximum(1.0, 0.5 * np.maximum(np.abs(center), spread))
        radius = np.where(free, spread + margin, radius)
    return center, radius, np.maximum(spread / radius, radius / gap)


def enclosing_circle(group, excluded=(), nodes=None):
    """Circle around an eigenvalue group, clear of excluded points.

    Centered at the group mean; the radius is the geometric mean of the
    group spread and the distance to the nearest excluded point, where
    the trapezoidal rate ``max(spread / r, r / gap)`` is least, but at
    least ``gap / 8``.  ``nodes`` defaults to the start sized from that
    rate (a power of two in [16, 256], see :func:`_sized_nodes`): the
    smallest count at which the trapezoidal error bound reaches 1e-10,
    so :func:`contour_quadrature` usually converges in one integrand call.
    """
    group = np.atleast_1d(np.asarray(group, dtype=complex))
    if group.size == 0:
        raise CalderonError("cannot build a contour around an empty group")
    points = np.concatenate([group, np.asarray(excluded, dtype=complex).ravel()])[None]
    inside = np.arange(points.shape[1])[None] < group.size
    center, radius, rho = _enclosing_circles(points, inside, ~inside)
    return Contour.circle(center[0], radius[0], _sized_nodes(rho[0]) if nodes is None else nodes)


def _mode_at(modes, i):
    """Row ``i`` of a mode stack as a tuple, for error reports."""
    return tuple(np.atleast_1d(modes[i]).tolist())


def root_table(lam, modes, allow_real=False):
    """Characteristic roots of a mode stack, grouped by multiplicity.

    ``lam`` holds the companion eigenvalues ``lambda = i xi_n``, one row
    per mode of ``modes``.  Returns ``(roots, mult, half)``, each of
    ``lam``'s shape, with the roots of a row in ascending (real, imag)
    order.  A root within relative 1e-7 of an earlier one joins that
    one's cluster: ``mult`` is the cluster size at its first root, which
    holds the cluster mean, and 0 at its other members.  ``half`` is 1
    above the real axis, -1 below and 0 on it (:func:`on_real_axis`).

    Raises DefectMode, naming the first mode with a real-axis root,
    unless ``allow_real``.
    """
    tol = 1e-7 * (1.0 + np.abs(lam).max(axis=1))[:, None, None]
    xi = np.sort(-1j * lam, axis=1)  # complex sorts by (real, imag)
    close = np.abs(xi[:, :, None] - xi[:, None, :]) <= tol
    roots, mult = xi, np.ones(xi.shape, dtype=int)
    if close.sum() > close.shape[0] * close.shape[1]:  # some roots lie within tol
        # each root points at the first root within tol of it; following
        # the pointers, which only go back, ends at its cluster's first root
        rows = np.arange(len(xi))[:, None]
        label = close.argmax(axis=2)
        for _ in range(max(xi.shape[1] - 2, 0).bit_length()):
            label = label[rows, label]
        member = label[:, :, None] == np.arange(xi.shape[1])
        mult = member.sum(axis=1)
        roots = (member * xi[:, :, None]).sum(axis=1) / np.maximum(mult, 1)
    real = on_real_axis(np.abs(roots.imag), np.asarray(modes, dtype=float)[:, None])
    half = np.copysign(~real, roots.imag)
    if not allow_real and real.any():
        bad = real & (mult > 0)  # clusters are judged by their means
        if bad.any():
            i = int(bad.any(axis=1).argmax())
            mode = _mode_at(modes, i)
            roots_bad = list(roots[i][bad[i]])
            raise DefectMode(
                f"mode {mode} has characteristic roots on the real axis: {roots_bad}",
                mode=mode,
                roots=roots_bad,
            )
    return roots, mult, half


def characteristic_roots(sym, allow_real=False):
    """All rk roots of ``det a(m, xi_n) = 0`` grouped by multiplicity.

    Roots come from the eigenvalues ``lambda = i xi_n`` of the block
    companion matrix of the mode ODE; clusters within relative 1e-7 are
    merged into one root with a multiplicity (:func:`root_table`, whose
    N=1 view this is).  Each entry is ``(root, multiplicity, halfplane)``
    with halfplane one of ``upper``, ``lower``, ``real``.

    Raises DefectMode on a real-axis root unless ``allow_real``.
    """
    lam = eigvals_sweep(companion_matrix(sym)[None])
    roots, mult, half = root_table(lam, [sym.m], allow_real)
    return [
        (root, int(m), _HALVES[int(h) + 1]) for root, m, h in zip(roots[0], mult[0], half[0]) if m
    ]


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
    contour = Contour.circle(center, radius, _sized_nodes(spread / radius))

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
