"""Acceptance suite: closed-form and property checks at desk scale.

Each criterion is a standalone callable returning a result record with
a pass flag, its runtime and the runtime budget; the budget is part of
the criterion.  ``run_acceptance`` executes all ten in order and prints
one line per criterion.
"""

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from ._kernels import stable_projector_sweep
from .contour import enclosing_circle, matrix_power, riesz_projector, spectral_split
from .grassmann import (
    assemble_point,
    compare_points,
    fredholm_index,
    krichever_reference,
    schatten_fit,
)
from .projector import calderon_projector_stack, entry_growth_fit
from .symbols import build_gallery, defect_screen, mode_lattice, selfadjoint_double


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    elapsed: float
    budget: float
    detail: str
    data: dict = field(default_factory=dict)

    @property
    def line(self):
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"[{self.number:2d}] {flag}  {self.title}: {self.detail} "
            f"({self.elapsed:.1f}s < {self.budget:.0f}s)"
        )


def _criterion(number, title, budget):
    """Make a check into a criterion: the check returns ``(ok, detail)``
    or ``(ok, detail, data)``, and the criterion times it and passes when
    ``ok`` holds within ``budget`` seconds."""

    def wrap(check):
        @functools.wraps(check)
        def criterion():
            t0 = time.time()
            ok, detail, *data = check()
            elapsed = time.time() - t0
            return CriterionResult(number, title, ok and elapsed < budget, elapsed, budget,
                                   detail, *data)

        return criterion

    return wrap


def _acceptance_specs():
    return [
        (build_gallery("dbar", mu=0.5), 64),
        (build_gallery("twisted_dbar", mu=0.5, d=3), 64),
        (build_gallery("laplace_mass", mu=1), 64),
        (build_gallery("dirac2", mu=1, v=0.3), 64),
        (build_gallery("dirac3", mu=1, v=0.3), 24),
    ]


@_criterion(1, "projector algebra", 30)
def criterion_1():
    """Projector algebra for every gallery spec and retained mode."""
    worst_idem = worst_gap = worst_schur = 0.0
    checked = 0
    for spec, cutoff in _acceptance_specs():
        lattice = mode_lattice(spec.n, cutoff)
        comp, _, defect = defect_screen(spec, lattice)
        modes, comp = lattice[~defect], comp[~defect]
        rps = calderon_projector_stack(spec, modes, "plus")
        worst_idem = max(worst_idem, float(np.abs(rps @ rps - rps).max()))
        # full matrices, so the complement (kernel) is checked as well as the
        # range: against the batched sign iteration and the Schur split
        worst_gap = max(worst_gap, _relative_gap(rps, stable_projector_sweep(comp)))
        schur = np.array([spectral_split(c).projector for c in comp])
        worst_schur = max(worst_schur, _relative_gap(rps, schur))
        checked += len(modes)
    ok = worst_idem <= 1e-8 and worst_gap <= 1e-10 and worst_schur <= 1e-10
    return ok, (
        f"{checked} modes, idem {worst_idem:.1e}, gap {worst_gap:.1e}, schur {worst_schur:.1e}"
    )


def _relative_gap(R, P):
    """``max|R - P| / (1 + max|P|)`` over two stacks of matrices, at its worst."""
    return float((np.abs(R - P).max(axis=(1, 2)) / (1.0 + np.abs(P).max(axis=(1, 2)))).max())


@_criterion(2, "closed-form projector", 5)
def criterion_2():
    """Closed-form projector for the massive Laplacian."""
    spec = build_gallery("laplace_mass", mu=1)
    m = np.arange(-64, 65)
    s = np.sqrt(m * m + 1.0)
    expected = np.zeros((m.size, 2, 2))
    expected[:, 0, 0] = expected[:, 1, 1] = 0.5
    expected[:, 0, 1] = -1 / (2 * s)
    expected[:, 1, 0] = -s / 2
    got = calderon_projector_stack(spec, m[:, None])
    worst = float(np.abs(got - expected).max())
    return worst <= 1e-10, f"max deviation {worst:.1e}"


@_criterion(3, "symbol orders", 5)
def criterion_3():
    """Block growth exponents of the projector match q - j."""
    spec = build_gallery("laplace_mass", mu=1)
    ms = np.unique(np.geomspace(16, 256, 25).astype(int))
    slopes = entry_growth_fit(spec, "plus", ms)
    target = np.array([[0.0, -1.0], [1.0, 0.0]])
    dev = float(np.abs(slopes - target).max())
    detail = f"slopes {np.round(slopes, 3).tolist()}, max deviation {dev:.3f}"
    return dev <= 0.1, detail, {"growth_slopes": slopes}


@_criterion(4, "Hardy point", 1)
def criterion_4():
    """Hardy half: nontrivial frames exactly at m <= 0."""
    got = set(krichever_reference(8).nontrivial_modes())
    return got == set(range(-8, 1)), f"nontrivial modes {sorted(got)}"


def _no_slope(fit):
    """The detail of a tail fit that found a finite rank, and so no slope
    (its criterion fails); empty when the fit has a slope."""
    return "" if fit.slope is not None else f"finite rank {fit.finite_rank}, no tail slope"


@_criterion(5, "Schatten decay n=2 q=0", 60)
def criterion_5():
    """Hilbert-Schmidt decay for the order-0 planar Dirac pair."""
    pa = assemble_point(build_gallery("dirac2", mu=1, v=0), 512)
    pb = assemble_point(build_gallery("dirac2", mu=1, v=0.3), 512)
    fit = schatten_fit(compare_points(pa, pb), n=2, q=0, p_list=(2.0,))
    ok = (
        fit.slope is not None
        and -1.15 <= fit.slope <= -0.85
        and fit.tail_increase[2.0] < 0.01
    )
    return (
        ok,
        _no_slope(fit) or f"slope {fit.slope:.3f}, HS tail increase {fit.tail_increase[2.0]:.2%}",
        {"schatten": fit},
    )


@_criterion(6, "Schatten decay n=2 q=1", 60)
def criterion_6():
    """Quadratic decay for the mass-shifted Laplacian pair."""
    pa = assemble_point(build_gallery("laplace_mass", mu=1), 512)
    pb = assemble_point(build_gallery("laplace_mass", mu=2), 512)
    fit = schatten_fit(compare_points(pa, pb), n=2, q=1, p_list=(1.0, 2.0))
    ok = fit.slope is not None and -2.2 <= fit.slope <= -1.8 and fit.bound_holds
    return (
        ok,
        _no_slope(fit)
        or f"slope {fit.slope:.3f}, bound C={fit.bound_constant:.3g} holds={fit.bound_holds}",
        {"schatten": fit},
    )


@_criterion(7, "Schatten decay n=3 q=0", 600)
def criterion_7():
    """Square-root decay for the three-dimensional Dirac pair."""
    pa = assemble_point(build_gallery("dirac3", mu=1, v=0), 48)
    pb = assemble_point(build_gallery("dirac3", mu=1, v=0.3), 48)
    fit = schatten_fit(compare_points(pa, pb), n=3, q=0, p_list=(2.0,))
    ok = fit.slope is not None and -0.7 <= fit.slope <= -0.3
    return (
        ok,
        _no_slope(fit) or f"slope {fit.slope:.3f} over {fit.count} values",
        {"schatten": fit},
    )


@_criterion(8, "Fredholm indices", 10)
def criterion_8():
    """Fredholm index of the twist family, doubling, and cocycle laws."""
    cutoff = 16
    db = build_gallery("dbar", mu=0.5)
    twists = {d: build_gallery("twisted_dbar", mu=0.5, d=d) for d in (0, 1, 3)}
    points = {d: assemble_point(s, cutoff) for d, s in twists.items()}
    p_db = assemble_point(db, cutoff)

    idx3 = fredholm_index(points[3], p_db)
    ok = idx3.index == 3 and idx3.tail_safe

    da = assemble_point(selfadjoint_double(twists[3]), cutoff)
    dbl = assemble_point(selfadjoint_double(db), cutoff)
    idx0 = fredholm_index(da, dbl)
    ok = ok and idx0.index == 0

    anti = fredholm_index(p_db, points[3])
    ok = ok and anti.index == -3

    i01 = fredholm_index(points[0], points[1]).index
    i13 = fredholm_index(points[1], points[3]).index
    i03 = fredholm_index(points[0], points[3]).index
    ok = ok and (i01 + i13 == i03)
    return ok, (
        f"twist3 {idx3.index} (safe={idx3.tail_safe}), doubled {idx0.index}, "
        f"antisym {anti.index}, additivity {i01}+{i13}={i03}"
    )


@_criterion(9, "functional calculus", 10)
def criterion_9():
    """Functional calculus: powers and spectral projectors."""
    a = np.diag([4.0, 9.0]).astype(complex)
    err_half = float(np.abs(matrix_power(a, 0.5) - np.diag([2.0, 3.0])).max())
    rng = np.random.default_rng(3)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 6 * np.eye(4)
    err_id = float(np.abs(matrix_power(b, 0.0) - np.eye(4)).max())
    err_one = float(np.abs(matrix_power(b, 1.0) - b).max())

    rng = np.random.default_rng(42)
    worst_idem = worst_comm = 0.0
    count = 0
    while count < 100:
        M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        eigs = np.linalg.eigvals(M)
        group, circle = _separable_group(eigs, seed=count % 6)
        if group is None:
            continue
        P = riesz_projector(M, circle)
        worst_idem = max(worst_idem, float(np.abs(P @ P - P).max()))
        worst_comm = max(worst_comm, float(np.abs(P @ M - M @ P).max()))
        count += 1
    ok = (
        max(err_half, err_id, err_one) <= 1e-10
        and worst_idem <= 1e-9
        and worst_comm <= 1e-9
    )
    return ok, (
        f"powers {max(err_half, err_id, err_one):.1e}, riesz idem {worst_idem:.1e}, "
        f"comm {worst_comm:.1e}"
    )


def _separable_group(eigs, seed):
    """Largest eigen-group around a seed that one circle can separate."""
    order = np.argsort(np.abs(eigs - eigs[seed]))
    best = (None, None)
    for g in range(1, len(eigs)):
        sel = order[:g]
        group, rest = eigs[sel], eigs[order[g:]]
        center = group.mean()
        spread = np.abs(group - center).max()
        gap = np.abs(rest - center).min()
        if gap - spread > 0.05:
            best = (group, enclosing_circle(group, excluded=rest))
    return best


@_criterion(10, "principal-symbol dependence", 10)
def criterion_10():
    """Shared principal parts force 1/|m| decay of the weighted projectors."""
    sa = build_gallery("dirac2", mu=1, v=0)
    sb = build_gallery("dirac2", mu=1, v=0.3)
    ms = np.unique(np.geomspace(16, 256, 25).astype(int))
    rep = compare_points(assemble_point(sa, 256), assemble_point(sb, 256))
    norms = rep.diff_norms[np.isin(rep.modes[:, 0], ms)]
    slope = float(np.polyfit(np.log(ms), np.log(norms), 1)[0])
    bound_c = max(m * v for m, v in zip(ms, norms))
    return slope <= -0.9, f"slope {slope:.3f}, C = max m*norm = {bound_c:.3f}"


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_acceptance():
    """Run every criterion in order, printing each result line and a
    summary; returns the list of results."""
    results = []
    for crit in CRITERIA:
        res = crit()
        results.append(res)
        print(res.line)
    n_pass = sum(r.passed for r in results)
    print(f"acceptance: {n_pass}/{len(results)} criteria passed")
    return results
