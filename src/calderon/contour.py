"""Contour quadrature and holomorphic functional calculus.

The quadrature rule is the trapezoidal rule on circles, which
converges exponentially for integrands analytic in a neighborhood of
the contour; node doubling supplies the error estimate.
"""

import functools
import numbers
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
from .symbols import defect_error, on_real_axis

MAX_NODES = 2**16
QUAD_TOL = 1e-10  # relative agreement of successive node doublings, per circle
LINK_SHARE = 0.25  # points link within this share of their distance to the excluded set


@dataclass(frozen=True)
class Contour:
    """Closed circle, counter-clockwise.

    ``nodes`` is the starting node count for the doubling loop.  A stack
    of circles is no Contour: it is the arrays of centers and radii that
    :func:`_stacked_quadrature` takes.
    """

    center: complex
    radius: float
    nodes: int = 16

    def __post_init__(self):
        if not (np.isfinite(self.center) and np.isfinite(self.radius) and self.radius > 0):
            raise SpecError("contour center and radius must be finite, the radius positive")
        if not (isinstance(self.nodes, numbers.Real) and float(self.nodes).is_integer()):
            raise SpecError(f"contour node count must be an integer, got {self.nodes!r}")
        if self.nodes < 8:
            raise SpecError("contour needs at least 8 nodes")

    @classmethod
    def circle(cls, center, radius, nodes=16):
        return cls(complex(center), float(radius), nodes)

    def distance(self, points):
        """Distance from each point to the circle, shape ``(P,)``."""
        pts = np.atleast_1d(np.asarray(points, dtype=complex))
        return np.abs(np.abs(pts - self.center) - self.radius)


@functools.lru_cache(maxsize=32)
def _unit_points(n, odd):
    """``exp(i pi j / n)`` for ``j = 0 .. 2n-1``, or for the odd ``j``
    only: the ``2n``-node grid, or the midpoints of the ``n``-node one.
    Read-only, as every call with this ``n`` shares it."""
    e = np.exp(1j * np.pi / n * (np.arange(1, 2 * n, 2) if odd else np.arange(2 * n)))
    e.setflags(write=False)
    return e


def contour_quadrature(f, contour):
    """Approximate ``(1 / 2 pi i) * integral of f over the contour``.

    Parameters
    ----------
    f : callable
        Vectorized integrand: ``f(z)`` for an array of nodes ``z`` must
        return an array whose leading axis runs over the nodes.
    contour : Contour
        Its ``nodes`` is the start of the doubling loop, which ends once
        successive doublings agree to relative ``QUAD_TOL``.

    Returns
    -------
    (value, n) : the converged integral and the node count that achieved
    it.  The first call of ``f`` takes the start grid and its midpoints,
    so the first doubling is compared without a second call; each later
    doubling evaluates only the new midpoints.  ``f`` is evaluated at
    ``n`` nodes in all.  This is the N=1 call of
    :func:`_stacked_quadrature`, which takes a stack of circles as arrays.

    Raises
    ------
    ContourNotConverged
        When doubling passes ``MAX_NODES`` without agreement (a NaN
        integral never agrees).
    """
    values, counts = _stacked_quadrature(
        lambda z, rows: np.asarray(f(z[0]))[None],
        np.array([contour.center]),
        np.array([contour.radius]),
        contour.nodes,
    )
    return values[0][()], int(counts[0])  # [()]: a scalar for scalar f


def _stacked_quadrature(f, center, radius, nodes):
    """The doubling loop of :func:`contour_quadrature` on a stack of
    circles given as 1-D arrays of centers and radii: ``nodes`` is the
    shared start and ``f(z, rows)`` gets the nodes ``z``, shape
    ``(len(rows), n)``, of the circles ``rows`` and returns an array
    whose two leading axes are those of ``z``.  Returns the converged
    integrals along a leading axis and the node count that achieved
    each.  Circles converge one by one: a circle whose successive
    doublings agree to relative ``QUAD_TOL`` leaves the loop, and the
    rest keep doubling.  Raises ContourNotConverged past ``MAX_NODES``,
    its ``index`` the first circle that did not converge.  ``QUAD_TOL``
    and ``MAX_NODES`` are read at each call.
    """
    center, radius = center[:, None], radius[:, None]
    rows = np.arange(len(center))  # the circles still doubling

    def sums(e, parts):
        # sums of f(z) dz/dtheta over the nodes at the unit points e, per
        # circle and interleaved subgrid (node j of subgrid i is node
        # j parts + i), as one product that needs no weighted copy of f's values
        re = radius * e
        z, dz = center + re, 1j * re
        vals = np.asarray(f(z, rows), dtype=complex)
        if vals.shape[:2] != z.shape:
            raise ValueError("integrand must be vectorized over the node axis")
        R, m = len(z), e.size // parts
        grid = dz.reshape(R, m, parts).transpose(0, 2, 1)[:, :, None, :]
        out = grid @ vals.reshape(R, m, parts, -1).transpose(0, 2, 1, 3)
        return out[:, :, 0], vals.shape[2:]

    n = max(8, nodes)
    if 2 * n > MAX_NODES:
        raise ContourNotConverged(f"no convergence with up to {MAX_NODES} nodes")
    # the first call takes the 2n-node grid, whose even nodes are the
    # n-node grid, so it yields both estimates of the first comparison
    both, shape = sums(_unit_points(n, False), 2)
    prev = both[:, 0] / (1j * n)
    total = both[:, 0] + both[:, 1]
    n *= 2
    values = value = total / (1j * n)
    counts = np.full(len(rows), n)
    while True:
        err = np.abs(value - prev).max(axis=1)
        done = err <= QUAD_TOL * np.maximum(1.0, np.abs(value).max(axis=1))  # NaN keeps going
        if np.count_nonzero(done) == len(done):
            break
        going = ~done
        if 2 * n > MAX_NODES:
            raise ContourNotConverged(
                f"no convergence with up to {MAX_NODES} nodes", index=int(rows[going.argmax()])
            )
        rows, center, radius = rows[going], center[going], radius[going]
        prev, total = value[going], total[going]
        # the 2n-node grid is the n-node grid plus its midpoints, so each
        # later call evaluates f only at the nodes the previous ones lacked
        new, _ = sums(_unit_points(n, True), 1)
        total = total + new[:, 0]
        n *= 2
        values[rows] = value = total / (1j * n)
        counts[rows] = n
    return values.reshape(values.shape[:1] + shape), counts


def _sized_nodes(rho):
    """Start node count for a circle on which the trapezoidal rule
    converges like ``rho^n``.

    For a circle of radius ``radius`` around singularities within
    ``spread`` of its center and clear of those within ``gap``,
    ``rho = max(spread / radius, radius / gap)``.  The start is the
    smallest power of two >= 16, capped at 256, with ``rho^n <= QUAD_TOL``,
    so the first doubling comparison usually converges.
    """
    return next((n for n in (16, 32, 64, 128) if rho**n <= QUAD_TOL), 256)


def _enclosing_circles(points, inside, outside):
    """The :func:`enclosing_circle` rule for a stack of groups: row ``i``
    encloses ``points[i][inside[i]]`` clear of ``points[i][outside[i]]``.

    Returns the centers, the radii and each circle's ``rho < 1``
    (:func:`_sized_nodes`).  The one stuck test: an excluded point within
    a group's spread of its mean raises EigenvalueOnContour, ``index`` the
    first such row (a NaN group is not stuck; Contour rejects its circle).
    The layer route makes one call, one row per upper root cluster clear
    of the mode's other roots, for its local and its check circles alike.
    """
    center = points.sum(axis=1, where=inside) / inside.sum(axis=1)
    dist = np.abs(points - center[:, None])
    spread = dist.max(axis=1, where=inside, initial=0.0)
    gap = dist.min(axis=1, where=outside, initial=np.inf)
    stuck = gap <= spread * (1 + 1e-12) + 1e-300
    if np.count_nonzero(stuck):
        msg = "no circle separates the enclosed group from the excluded points"
        raise EigenvalueOnContour(msg, index=int(stuck.argmax()))
    # rho = max(spread / r, r / gap) is least at the geometric mean; the
    # floor gap / 8 keeps a lone point or a tight group at rho <= 1/8
    free = np.isinf(gap)  # nothing to exclude: a margin set by the group
    g = np.where(free, 1.0, gap)  # a finite stand-in, so no 0 * inf
    radius = np.maximum(np.sqrt(spread * g), 0.125 * g)
    if np.count_nonzero(free):
        margin = np.maximum(1.0, 0.5 * np.maximum(np.abs(center), spread))
        radius = np.where(free, spread + margin, radius)
    return center, radius, np.maximum(spread / radius, radius / gap)


def enclosing_circle(group, excluded=()):
    """Circle around an eigenvalue group, clear of excluded points.

    Centered at the group mean; the radius is the geometric mean of the
    group spread and the distance to the nearest excluded point, where
    the trapezoidal rate ``max(spread / r, r / gap)`` is least, but at
    least ``gap / 8``.  Its start ``nodes`` is sized from that rate (a
    power of two in [16, 256], see :func:`_sized_nodes`): the smallest
    count at which the trapezoidal error bound reaches ``QUAD_TOL``, so
    :func:`contour_quadrature` usually converges in one integrand call.
    """
    group = np.atleast_1d(np.asarray(group, dtype=complex))
    if group.size == 0:
        raise CalderonError("cannot build a contour around an empty group")
    points = np.concatenate([group, np.asarray(excluded, dtype=complex).ravel()])[None]
    inside = np.arange(points.shape[1])[None] < group.size
    center, radius, rho = _enclosing_circles(points, inside, ~inside)
    return Contour.circle(center[0], radius[0], _sized_nodes(rho[0]))


def _linkage(gaps, far):
    """Single-linkage clusters of points whose pairwise distances are
    ``gaps`` ``(..., P, P)``, linked within ``LINK_SHARE * far`` (``far``
    broadcasts against ``gaps``): the transitive closure of the links, by
    repeated boolean squaring, True where two points share a cluster."""
    reach = gaps <= LINK_SHARE * far
    for _ in range(max(gaps.shape[-1] - 2, 0).bit_length()):
        reach = reach @ reach
    return reach


def _root_clusters(lam, modes):
    """The root table of a mode stack, ``lam = i xi`` its companion
    eigenvalues: ``(xi, reach, mult, half)``, the roots sorted by (real,
    imag), True where two share a cluster, the cluster size at its first
    root (0 at the rest), and 1 above the real axis, -1 below.  Roots of
    a half-plane link within ``LINK_SHARE`` of its least ``|Im xi|``, so
    a k-fold root that rounding splits ``eps^(1/k)`` apart is one cluster
    (Moro, Burke & Overton, SIAM J. Matrix Anal. Appl. 18, 1997).  Raises
    the DefectMode of ``symbols.defect_error`` for the first mode with a
    root on the real axis."""
    xi = np.sort(-1j * lam, axis=1)  # complex sorts by (real, imag)
    dist = np.abs(xi.imag)
    real = on_real_axis(dist, np.asarray(modes, dtype=float)[:, None])
    if np.count_nonzero(real):
        i = int(real.any(axis=1).argmax())
        raise defect_error(lam[i], modes, i)
    half = np.copysign(1.0, xi.imag)
    gaps = np.abs(xi[:, :, None] - xi[:, None, :])
    # the real axis bounds each half as the cut bounds matrix_power's
    # spectrum.  A root's own |Im xi| is at least its half's least one, so
    # if no root lies within LINK_SHARE of it from another, none links;
    # a pair across the axis, at least both |Im xi| apart, never does
    if np.count_nonzero(gaps <= LINK_SHARE * dist[:, :, None]) == xi.size:
        return xi, gaps == 0, np.ones(xi.shape, dtype=int), half  # no two roots coincide
    up = half > 0
    least = [dist.min(axis=1, where=w, initial=np.inf, keepdims=True) for w in (up, ~up)]
    reach = _linkage(gaps, np.where(up, *least)[:, :, None])
    mult = np.where(reach.argmax(axis=2) == np.arange(xi.shape[1]), reach.sum(axis=2), 0)
    return xi, reach, mult, half


def characteristic_roots(sym):
    """All rk roots of ``det a(m, xi_n) = 0`` grouped by multiplicity.

    Roots come from the eigenvalues ``lambda = i xi_n`` of the block
    companion matrix of the mode ODE; a linked cluster of them is one
    root, the cluster mean, with a multiplicity: the N=1 view of
    :func:`_root_clusters`.  Each entry is ``(root, multiplicity,
    halfplane)`` with halfplane ``upper`` or ``lower``.

    Raises DefectMode on a real-axis root; its ``mode`` and ``roots``
    name the mode and its real roots.
    """
    lam = np.linalg.eigvals(sym._comp[None])
    xi, reach, mult, half = _root_clusters(lam, [sym.m])
    if np.count_nonzero(mult) < mult.size:  # some cluster links: its mean
        xi = (reach * xi[:, None, :]).sum(axis=2) / reach.sum(axis=2)
    return [
        (root, int(m), "upper" if h > 0 else "lower")
        for root, m, h in zip(xi[0], mult[0], half[0])
        if m
    ]


def _cluster_circles(eigs, enclosed, far, ray=None):
    """A stack of circles, one per cluster of the eigenvalues
    ``eigs[enclosed]``, each clear of the other eigenvalues and, given the
    unit vector ``ray``, of the cut along it, which enters
    :func:`_enclosing_circles` as its nearest point to the cluster mean.
    Clusters link (:func:`_linkage`) at ``far``, the distance from the
    enclosed eigenvalues to the excluded ones and the cut, so a split
    Jordan block shares one circle (Hale, Higham & Trefethen, SIAM J.
    Numer. Anal. 46, 2008).  Returns the arrays of centers and radii and
    the shared start that :func:`_stacked_quadrature` takes.  Raises
    EigenvalueOnContour when a cluster cannot be isolated.
    """
    ins = eigs[enclosed]
    reach = _linkage(np.abs(ins[:, None] - ins), far)
    member = reach[reach.argmax(axis=1) == np.arange(len(ins))]  # a row per cluster
    inside = np.zeros((len(member), len(eigs)), dtype=bool)
    inside[:, enclosed] = member
    points = np.broadcast_to(eigs, inside.shape)
    if ray is not None:
        mean = member @ ins / member.sum(axis=1)
        points = np.column_stack([points, np.maximum((mean / ray).real, 0.0) * ray])
        inside = np.column_stack([inside, np.zeros(len(member), dtype=bool)])
    center, radius, rho = _enclosing_circles(points, inside, ~inside)
    return center, radius, _sized_nodes(rho.max())


def riesz_projector(M, contour):
    """Spectral projector onto the eigen-group enclosed by the contour.

    The contour, which must clear the spectrum by a relative margin of
    1e-8, picks the enclosed eigenvalues.  The resolvent is integrated on
    one small circle per cluster of them, in one stacked quadrature
    (:func:`_cluster_circles`), or on the contour, as a stack of one
    circle, if none isolates one.
    """
    M = np.asarray(M, dtype=complex)
    eigs = np.linalg.eigvals(M)
    scale = 1.0 + float(np.abs(eigs).max())
    if contour.distance(eigs).min() < 1e-8 * scale:
        raise EigenvalueOnContour("an eigenvalue lies on the integration contour")
    enclosed = np.abs(eigs - contour.center) < contour.radius
    if not enclosed.any():
        return np.zeros_like(M)
    far = np.abs(eigs[enclosed][:, None] - eigs[~enclosed]).min(initial=np.inf)
    try:
        circles = _cluster_circles(eigs, enclosed, far)
    except EigenvalueOnContour:  # the caller's contour clears the spectrum
        circles = np.array([contour.center]), np.array([contour.radius]), contour.nodes
    eye = np.eye(M.shape[0], dtype=complex)

    def resolvent(z, rows):
        return np.linalg.inv(z[..., None, None] * eye - M)

    return _stacked_quadrature(resolvent, *circles)[0].sum(axis=0)


def matrix_power(a, t):
    """Fractional power ``a^t`` on the principal branch of ``z^t``, cut
    along the negative real axis.

    The spectrum must stay off the cut (and off the origin).  The
    Cauchy integral of ``z^t (z - a)^{-1}`` runs on one small circle per
    eigenvalue cluster, clear of the cut (:func:`_cluster_circles`).
    Eigenvalues of the result are the principal t-th powers of the
    eigenvalues of ``a``.  A non-finite ``t`` raises SpecError.
    """
    if not np.isfinite(t):
        raise SpecError("the power must be finite")
    a = np.asarray(a, dtype=complex)
    eigs = np.linalg.eigvals(a)
    scale = 1.0 + float(np.abs(eigs).max())
    dist_cut = np.where(eigs.real < 0, np.abs(eigs.imag), np.abs(eigs))
    if dist_cut.min() < 1e-8 * scale or np.abs(eigs).min() < 1e-12 * scale:
        raise EigenvalueOnCut("an eigenvalue lies on the branch cut or at 0")
    circles = _cluster_circles(eigs, np.ones(eigs.shape, dtype=bool), dist_cut.min(), -1.0)
    eye = np.eye(a.shape[0], dtype=complex)

    def integrand(z, rows):
        powz = np.exp(t * np.log(z))  # principal branch: arg z in (-pi, pi]
        return powz[..., None, None] * np.linalg.inv(z[..., None, None] * eye - a)

    return _stacked_quadrature(integrand, *circles)[0].sum(axis=0)


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
    gap: float

    @functools.cached_property
    def projector(self):
        """Built on first read: the frames alone need no inverse."""
        d, ds = self.stable.shape
        if ds == 0:
            return np.zeros((d, d), dtype=complex)
        if ds == d:
            return np.eye(d, dtype=complex)
        basis = np.hstack([self.stable, self.unstable])
        return basis[:, :ds] @ np.linalg.inv(basis)[:ds, :]


def spectral_split(C):
    """Split a matrix into stable and unstable invariant subspaces.

    Frames come from ordered Schur decompositions, so they survive
    Jordan structure: one unsorted LAPACK ``zgees``, whose eigenvalues
    also give the gap, reordered by ``ztrsen`` for ``Re lambda < 0`` and
    for ``Re lambda >= 0`` as ``zgees`` sorts (LAPACK Users' Guide, 3rd
    ed., 2.4.8).  It calls no contour code, so :func:`riesz_projector`
    is an independent check of its projector.  scipy is imported on the
    first call, so only runs that reach this oracle pay for loading it.

    Raises LinAlgError on non-finite input, and DefectMode when an
    eigenvalue sits within ``1e-10 (1 + max |lambda|)`` of the imaginary
    axis (no splitting exists).
    """
    from scipy.linalg import lapack  # deferred: the only scipy use in calderon

    C = np.asarray(C, dtype=complex)
    d = C.shape[0]
    if not np.isfinite(C).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    t, _, eigs, q, _, info = lapack.zgees(lambda z: 0, C)  # unsorted: no selection
    if info:
        raise np.linalg.LinAlgError("Schur form not found")
    gap_tol = 1e-10 * (1.0 + float(np.abs(eigs).max()))
    gap = float(np.abs(eigs.real).min())
    if gap <= gap_tol:
        raise DefectMode(f"eigenvalue within {gap_tol:.2e} of the imaginary axis")

    left = eigs.real < 0
    ds = int(left.sum())
    stable = lapack.ztrsen(left, t, q, job="N")[1][:, :ds]
    unstable = lapack.ztrsen(~left, t, q, job="N")[1][:, : d - ds]
    return SpectralSplit(stable=stable, unstable=unstable, gap=gap)
