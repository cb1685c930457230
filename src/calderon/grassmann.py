"""Truncated Grassmannian points and their pairwise comparison.

A point collects, for every tangential mode up to a cutoff, a weighted
orthonormal frame of the decaying-solution Cauchy data.  Comparing two
points mode by mode through principal angles yields the singular values
of the projector difference, whose decay rate and kernel bookkeeping
realize compactness, Schatten-class membership and the Fredholm index
at finite truncation.
"""

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .errors import (
    CutoffMismatch,
    IllConditionedFrame,
    InsufficientData,
    NoChiralStructure,
    SignIterationStalled,
    SpecError,
    ThresholdAmbiguous,
)
from .symbols import (
    agree_up_to_order,
    build_gallery,
    defect_error,
    defect_screen,
    mode_error,
    mode_key,
    mode_lattice,
    mode_weights,
)

DEFAULT_ALPHA = 0.5


@dataclass
class GrassmannPoint:
    """Truncated Cauchy-data space: one weighted frame per retained mode."""

    spec: object
    cutoff: int
    alpha: float
    modes: np.ndarray  # (N, n-1) retained modes
    dims: np.ndarray  # (N,) frame dimensions
    ortho: np.ndarray = field(repr=False)  # (N, d, d) frames in W^(1/2) coordinates
    weights: np.ndarray = field(repr=False)  # (N, d) weight diagonals
    excluded: list = field(default_factory=list)  # defect modes left out
    chiral_side: str | None = None

    @property
    def ambient_dim(self):
        return self.ortho.shape[1]

    def nontrivial_modes(self):
        return [mode_key(m) for m in self.modes[self.dims > 0]]


def _side_frames(spec, modes, side, alpha):
    """Weighted frames of one side's Cauchy-data space over a stack of
    modes, one mode per row: ``(bad, lam, dims, ortho, weights)``, with
    ``bad`` the defect mask of ``modes`` (a real characteristic root:
    no frame exists), ``lam`` the screen's companion eigenvalues of its
    rows, unnegated on either side, and the rest over the modes it leaves.

    ``plus`` spans the stable invariant subspace of each companion
    matrix (solutions decaying as x_n grows), ``minus`` the unstable
    one, which is the stable subspace of the negated matrix.  Frames are
    the ranges of the sign sweep's projectors, rescaled by ``W^{1/2}``
    and re-orthonormalized by ``_kernels.weighted_range_sweep``, whose
    Gram gate raises IllConditionedFrame.  A stalled sign iteration
    raises SignIterationStalled, a DefectMode.  Both name their row of
    ``modes`` (``symbols.mode_error``).  A side other than plus or minus
    raises SpecError before any sweep runs.
    """
    if side not in ("plus", "minus"):
        raise SpecError(f"side must be plus or minus, got {side!r}")
    comp, lam, bad = defect_screen(spec, modes)
    defects = lam[bad]
    if side == "minus":
        comp, lam = -comp, -lam
    keep = ~bad
    comp = comp[keep]
    dims = (lam[keep].real < 0).sum(axis=1).astype(np.int64)
    w = np.repeat(mode_weights(modes[keep], spec.k, alpha)[1], spec.r, axis=1)

    try:
        proj = _kernels.stable_projector_sweep(comp)
        raw = _kernels.orthonormal_range_sweep(proj, dims)
        ortho = _kernels.weighted_range_sweep(np.sqrt(w)[:, :, None] * raw, dims)
    except (SignIterationStalled, IllConditionedFrame) as exc:
        raise mode_error(exc, modes, np.flatnonzero(keep)) from exc
    return bad, defects, dims, ortho, w


def orthogonal_projector(sym, side, alpha):
    """Weighted-orthogonal projector onto one side's Cauchy-data space,
    an ``(rk, rk)`` matrix: ``W^{-1/2} Q Q* W^{1/2}`` for the frame Q
    and weight W of :func:`_side_frames` on the one-row stack of the
    symbol's mode, whose errors it raises.  A defect mode raises the
    layer route's DefectMode (``symbols.defect_error``)."""
    modes = np.array([sym.m])
    _, defects, _, Q, w = _side_frames(sym.spec, modes, side, alpha)
    if len(defects):
        raise defect_error(defects[0], modes, 0)
    sqw = np.sqrt(w[0])
    return (Q[0] @ Q[0].conj().T) * (sqw[None, :] / sqw[:, None])


def assemble_point(spec, cutoff, alpha=DEFAULT_ALPHA):
    """Build the truncated decaying-side point of an operator: the plus
    frames of :func:`_side_frames` over the lattice.

    Defect modes (real-axis roots) are excluded and listed in
    ``excluded``.  A stalled sign iteration raises SignIterationStalled,
    a DefectMode, and an ill-conditioned weighted frame
    IllConditionedFrame, each naming its row of the lattice.
    """
    if cutoff < 1:
        raise SpecError("cutoff must be at least 1")
    modes = mode_lattice(spec.n, cutoff)
    bad, _, dims, ortho, w = _side_frames(spec, modes, "plus", alpha)
    return GrassmannPoint(
        spec=spec,
        cutoff=int(cutoff),
        alpha=float(alpha),
        modes=modes[~bad],
        dims=dims,
        ortho=ortho,
        weights=w,
        excluded=[mode_key(m) for m in modes[bad]],
    )


def krichever_reference(cutoff, alpha=DEFAULT_ALPHA):
    """Hardy-space model point: the dbar(0.5) point, nontrivial exactly
    on modes m <= 0 under the fixed conventions."""
    return assemble_point(build_gallery("dbar", mu=0.5), cutoff, alpha=alpha)


def chiral_point(spec, side, cutoff, alpha=DEFAULT_ALPHA):
    """Project a point's frames onto the declared L or R component block.

    Only available for first-order operators of even rank carrying a
    chiral marking; the projected frames are re-orthonormalized and
    collapsed ranks are recorded in the dimensions.
    """
    if side not in ("L", "R"):
        raise SpecError(f"side must be L or R, got {side!r}")
    if spec.chiral_blocks is None or spec.k != 1 or spec.r % 2:
        raise NoChiralStructure(
            f"{spec.name} has no usable chiral block structure (need k=1, even rank, marking)"
        )
    base = assemble_point(spec, cutoff, alpha=alpha)
    rows = list(spec.chiral_blocks[0 if side == "L" else 1])
    sub = np.ascontiguousarray(base.ortho[:, rows, :])
    svals = _kernels.svdvals_sweep(sub)
    dims = (svals > 1e-10).sum(axis=1).astype(np.int64)
    ortho = _kernels.orthonormal_range_sweep(sub, dims)
    return replace(base, dims=dims, ortho=ortho, weights=base.weights[:, rows], chiral_side=side)


@dataclass
class CompareReport:
    """Mode-by-mode geometry of two points plus the merged spectrum.

    Per-mode values are padded ``(N, d)`` arrays, ``d`` the ambient
    dimension, with the frame dimensions as masks.  Row ``i`` of
    ``angle_rows`` holds the principal angles of mode ``i``, largest
    first, in its leading ``max(dims_a[i], dims_b[i])`` entries
    (dimension jumps count as right angles); row ``i`` of ``cos_rows``
    holds the cross-Gram singular values in its leading
    ``min(dims_a[i], dims_b[i])`` entries.  Both are zero past the mask.
    ``cos_rows`` is built on first read from ``cross``, the cross-Gram
    stack ``QA* QB`` cut to its widest live block; only
    :func:`fredholm_index` reads it, so ``compare`` and ``schatten`` run
    no cosine SVD.  ``angles`` is the per-mode list of the
    ``angle_rows`` prefixes, made as views on first read.  ``diff_norms``
    holds the operator norm of the projector difference per mode, which
    is the sine of its largest angle (0 where both frames are empty), and
    ``q_svals`` the singular values of the one-sided restriction
    ``(I - P_B)|_A``, all from :func:`_complement_sines`, which
    complements A.  The global list ``svals`` repeats the sine of every
    angle twice, the fixed counting convention for projector differences
    used throughout.
    """

    modes: np.ndarray
    dims_a: np.ndarray
    dims_b: np.ndarray
    angle_rows: np.ndarray = field(repr=False)
    cross: np.ndarray = field(repr=False)
    diff_norms: np.ndarray
    svals: np.ndarray
    q_svals: np.ndarray
    agreement: object
    skipped: list
    cutoff: int
    alpha: float

    @functools.cached_property
    def angles(self):
        lengths = np.maximum(self.dims_a, self.dims_b).tolist()
        return [row[:k] for row, k in zip(self.angle_rows, lengths)]

    @functools.cached_property
    def cos_rows(self):
        w = self.cross.shape[1]
        cos = np.zeros(self.angle_rows.shape)
        live = np.arange(w) < np.minimum(self.dims_a, self.dims_b)[:, None]
        cos[:, :w] = np.where(live, _kernels.svdvals_sweep(self.cross), 0.0)
        return cos


def _common_indices(a, b):
    """Row positions ``(ia, ib)`` of the modes retained by both points,
    in the order of ``b.modes``, and those mode rows.

    Each integer row becomes one linear index in base ``2 M + 1``, with
    ``M`` the largest ``|m_i|`` of either point, and ``b``'s rows are
    looked up in a table of ``a``'s positions.
    """
    ma, mb = a.modes, b.modes
    M = max((int(np.abs(x).max()) for x in (ma, mb) if x.size), default=0)
    base = 2 * M + 1
    place = base ** np.arange(mb.shape[1] - 1, -1, -1, dtype=np.int64)
    lookup = np.full(base ** mb.shape[1], -1, dtype=np.intp)
    lookup[(ma + M) @ place] = np.arange(len(ma))
    hits = lookup[(mb + M) @ place]
    ib = np.flatnonzero(hits >= 0)
    return hits[ib], ib, mb[ib]


def _complement_sines(QA, QB, da, db):
    """Principal-angle sines through the complement of A against B (Bjorck
    & Golub, Math. Comp. 27, 1973) for frames with ``da``/``db`` leading
    orthonormal columns: ``cross = QA* QB``, the singular values of
    ``QA - QB cross*`` and those rows padded by ``_padded_sines``."""
    cross = np.einsum("nij,nik->njk", QA.conj(), QB)
    sines_a = _kernels.svdvals_sweep(QA - QB @ np.conj(np.swapaxes(cross, 1, 2)))
    return cross, sines_a, _kernels._padded_sines(sines_a, da, db)


def compare_points(a, b):
    """Principal-angle comparison of two Grassmannian points.

    Requires matching cutoff, weight exponent and ambient conventions.
    Modes excluded from either point (defects) are skipped and listed.
    """
    if a.cutoff != b.cutoff:
        raise CutoffMismatch(f"cutoffs differ: {a.cutoff} vs {b.cutoff}")
    if abs(a.alpha - b.alpha) > 0:
        raise CutoffMismatch(f"weight exponents differ: {a.alpha} vs {b.alpha}")
    if a.ambient_dim != b.ambient_dim or a.spec.n != b.spec.n or a.spec.k != b.spec.k:
        raise CutoffMismatch("points live in incompatible Cauchy-data spaces")

    ia, ib, rows = _common_indices(a, b)
    skipped = sorted(set(a.excluded) | set(b.excluded), key=lambda x: (np.atleast_1d(x).tolist()))
    QA, QB = a.ortho[ia], b.ortho[ib]
    da, db = a.dims[ia], b.dims[ib]

    cross, sines_a, sines = _complement_sines(QA, QB, da, db)
    j = np.arange(a.ambient_dim)
    wide = np.maximum(da, db)
    live = j < wide[:, None]
    w = int(wide.max(initial=0))  # every entry of cross past w is zero
    same_shape = (a.spec.n, a.spec.r, a.spec.k) == (b.spec.n, b.spec.r, b.spec.k)
    return CompareReport(
        modes=rows,
        dims_a=da,
        dims_b=db,
        angle_rows=np.arcsin(np.clip(sines, 0.0, 1.0)),
        cross=cross[:, :w, :w].copy(),
        diff_norms=np.clip(sines[:, 0], 0.0, 1.0),
        svals=np.sort(np.repeat(sines[live], 2))[::-1],
        q_svals=np.sort(sines_a[j < da[:, None]])[::-1],
        agreement=agree_up_to_order(a.spec, b.spec) if same_shape else None,
        skipped=skipped,
        cutoff=a.cutoff,
        alpha=a.alpha,
    )


@dataclass
class SchattenReport:
    """Tail statistics of the comparison spectrum."""

    svals: np.ndarray = field(repr=False)
    count: int
    finite_rank: int | None
    slope: float | None
    slope_halfwidth: float | None
    window: tuple | None
    target_exponent: float
    bound_constant: float | None
    bound_holds: bool | None
    sums: dict
    tail_increase: dict


def schatten_fit(rep, n, q, p_list=(1.0, 2.0)):
    """Fit the decay exponent of the sorted singular values.

    The log-log fit runs over the middle decade of the sorted spectrum
    by default (indices around sqrt(count)), away from both the
    non-asymptotic head and the truncation edge.  Fewer than 50 nonzero
    values short-circuits to an explicit finite-rank report.  The decay
    target for operators agreeing to order ``q`` in dimension ``n`` is
    ``-(q + 1) / (n - 1)``.  ``n`` must be the dimension of the compared
    points, whose mode rows have ``n - 1`` entries, and ``q`` an int that
    is not a bool; SpecError otherwise.
    """
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or q < 0:
        raise SpecError("agreement order q must be a nonnegative integer")
    if n != rep.modes.shape[1] + 1:  # NaN fails
        raise SpecError(f"dimension n must be {rep.modes.shape[1] + 1} for these modes, got {n!r}")
    if not all(0 < p < np.inf for p in p_list):  # NaN fails
        raise SpecError("Schatten orders must be finite and positive")
    svals = np.asarray(rep.svals, dtype=float)
    if svals.size == 0 and len(rep.modes) == 0:
        raise InsufficientData("comparison produced no singular values")
    target = -(q + 1) / (n - 1)
    scale = svals[0] if svals.size else 0.0
    positive = svals[svals > 1e-13 * max(scale, 1.0)]
    J = positive.size

    sums, tail = {}, {}
    for p in p_list:
        powers = positive**p
        total = float(powers.sum())
        half = float(powers[: max(1, J // 2)].sum()) if J else 0.0
        sums[p] = total
        tail[p] = (total - half) / half if half > 0 else 0.0

    slope = halfwidth = window = C = bound_holds = None
    if J >= 50:
        mid = np.sqrt(J)
        lo = max(5, int(round(mid / np.sqrt(10.0))))
        hi = min(J, int(round(mid * np.sqrt(10.0))))
        window = (lo, hi)

        j = np.arange(1, J + 1, dtype=float)
        sel = slice(lo - 1, hi)
        x = np.log(j[sel])
        y = np.log(positive[sel])
        fitted, intercept = np.polyfit(x, y, 1)
        resid = y - (fitted * x + intercept)
        dof = max(1, len(x) - 2)
        se = np.sqrt((resid**2).sum() / dof / ((x - x.mean()) ** 2).sum())
        slope = float(fitted)
        halfwidth = 1.96 * float(se)

        C = float((positive[sel] * j[sel] ** (-target)).max())
        tail_sel = slice(lo - 1, J)
        bound_holds = bool(
            (positive[tail_sel] <= C * j[tail_sel] ** target * (1 + 1e-9)).all()
        )
    return SchattenReport(
        svals=svals,
        count=J,
        finite_rank=J if window is None else None,
        slope=slope,
        slope_halfwidth=halfwidth,
        window=window,
        target_exponent=target,
        bound_constant=C,
        bound_holds=bound_holds,
        sums=sums,
        tail_increase=tail,
    )


@dataclass
class IndexReport:
    """Kernel/cokernel bookkeeping of the cross-restriction map.

    The map goes from the first point's subspace to the second's; its
    kernel collects the directions of the first point that the second
    point's projector annihilates.  ``kernel_dims`` and
    ``cokernel_dims`` are counted on the comparison's padded cosine
    rows, masked by the frame dimensions.  ``tail_safe`` certifies that
    the outermost mode shell is far from producing further kernel
    directions; only then is the index declared converged.
    """

    modes: np.ndarray
    kernel_dims: np.ndarray
    cokernel_dims: np.ndarray
    kernel_total: int
    cokernel_total: int
    index: int
    tail_safe: bool
    min_tail_gap: float
    tol: float


def fredholm_index(a, b, tol=1e-6, rep=None):
    """Index of the restriction of b's projector to a's subspace.

    Per mode, kernel dimensions count cross-Gram singular values below
    ``tol``; any value inside the forbidden decade ``[tol, 10 tol)``
    raises ThresholdAmbiguous.  ``tol`` must lie in ``(0, 0.1]``, so that
    the decade ends at or below 1, the largest a cosine can be; a larger
    ``tol`` would put every live cosine at or above it into the decade,
    and raises SpecError.  Tail safety requires every outermost
    -shell mode to keep its largest principal angle at least 0.5 rad
    away from a right angle; an unsafe tail is reported in ``tail_safe``,
    not raised.
    """
    if not 0 < tol <= 0.1:  # NaN fails
        raise SpecError("tol must be finite and in (0, 0.1]")
    if rep is None:
        rep = compare_points(a, b)
    da, db = rep.dims_a, rep.dims_b
    cos = rep.cos_rows  # zero past the frame dimensions, so below every tol
    ambiguous = ((cos >= tol) & (cos < 10 * tol)).any(axis=1)
    if ambiguous.any():
        i = int(ambiguous.argmax())
        key = mode_key(rep.modes[i])
        msg = f"singular value in [{tol:.1e}, {10 * tol:.1e}) at mode {key}; adjust tol"
        raise ThresholdAmbiguous(msg, index=i, mode=key)
    rank = (cos > tol).sum(axis=1)
    ker = da - rank
    cok = db - rank

    # a shell mode without angles has padding angle 0: a gap of pi/2
    shell = np.abs(rep.modes).max(axis=1) == rep.cutoff
    gaps = np.pi / 2 - rep.angle_rows[shell, 0]
    min_gap = float(gaps.min()) if gaps.size else np.pi / 2
    tail_safe = min_gap > 0.5
    return IndexReport(
        modes=rep.modes,
        kernel_dims=ker,
        cokernel_dims=cok,
        kernel_total=int(ker.sum()),
        cokernel_total=int(cok.sum()),
        index=int(ker.sum() - cok.sum()),
        tail_safe=tail_safe,
        min_tail_gap=float(min_gap),
        tol=tol,
    )
