"""Acceptance suite: closed-form and property checks at desk scale.

Each criterion is a standalone callable returning a result record with
a pass flag, its runtime and the runtime budget; the budget is part of
the criterion.  ``run_acceptance`` executes all ten in order and prints
one line per criterion.
"""

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


def _acceptance_specs():
    return [
        (build_gallery("dbar", mu=0.5), 64),
        (build_gallery("twisted_dbar", mu=0.5, d=3), 64),
        (build_gallery("laplace_mass", mu=1), 64),
        (build_gallery("dirac2", mu=1, v=0.3), 64),
        (build_gallery("dirac3", mu=1, v=0.3), 24),
    ]


def criterion_1():
    """Projector algebra for every gallery spec and retained mode."""
    t0 = time.time()
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
    elapsed = time.time() - t0
    ok = worst_idem <= 1e-8 and worst_gap <= 1e-10 and worst_schur <= 1e-10
    return CriterionResult(
        1, "projector algebra", ok and elapsed < 30, elapsed, 30,
        f"{checked} modes, idem {worst_idem:.1e}, gap {worst_gap:.1e}, schur {worst_schur:.1e}",
    )


def _relative_gap(R, P):
    """``max|R - P| / (1 + max|P|)`` over two stacks of matrices, at its worst."""
    return float((np.abs(R - P).max(axis=(1, 2)) / (1.0 + np.abs(P).max(axis=(1, 2)))).max())


def criterion_2():
    """Closed-form projector for the massive Laplacian."""
    t0 = time.time()
    spec = build_gallery("laplace_mass", mu=1)
    m = np.arange(-64, 65)
    s = np.sqrt(m * m + 1.0)
    expected = np.zeros((m.size, 2, 2))
    expected[:, 0, 0] = expected[:, 1, 1] = 0.5
    expected[:, 0, 1] = -1 / (2 * s)
    expected[:, 1, 0] = -s / 2
    got = calderon_projector_stack(spec, m[:, None])
    worst = float(np.abs(got - expected).max())
    elapsed = time.time() - t0
    return CriterionResult(
        2, "closed-form projector", worst <= 1e-10 and elapsed < 5, elapsed, 5,
        f"max deviation {worst:.1e}",
    )


def criterion_3():
    """Block growth exponents of the projector match q - j."""
    t0 = time.time()
    spec = build_gallery("laplace_mass", mu=1)
    ms = np.unique(np.geomspace(16, 256, 25).astype(int))
    slopes = entry_growth_fit(spec, "plus", ms)
    target = np.array([[0.0, -1.0], [1.0, 0.0]])
    dev = float(np.abs(slopes - target).max())
    elapsed = time.time() - t0
    return CriterionResult(
        3, "symbol orders", dev <= 0.1 and elapsed < 5, elapsed, 5,
        f"slopes {np.round(slopes, 3).tolist()}, max deviation {dev:.3f}",
        data={"growth_slopes": slopes},
    )


def criterion_4():
    """Hardy half: nontrivial frames exactly at m <= 0."""
    t0 = time.time()
    point = krichever_reference(8)
    got = set(point.nontrivial_modes())
    expected = set(range(-8, 1))
    elapsed = time.time() - t0
    return CriterionResult(
        4, "Hardy point", got == expected and elapsed < 1, elapsed, 1,
        f"nontrivial modes {sorted(got)}",
    )


def _no_slope(fit):
    """The detail of a tail fit that found a finite rank, and so no slope
    (its criterion fails); empty when the fit has a slope."""
    return "" if fit.slope is not None else f"finite rank {fit.finite_rank}, no tail slope"


def criterion_5():
    """Hilbert-Schmidt decay for the order-0 planar Dirac pair."""
    t0 = time.time()
    pa = assemble_point(build_gallery("dirac2", mu=1, v=0), 512)
    pb = assemble_point(build_gallery("dirac2", mu=1, v=0.3), 512)
    fit = schatten_fit(compare_points(pa, pb), n=2, q=0, p_list=(2.0,))
    elapsed = time.time() - t0
    ok = (
        fit.slope is not None
        and -1.15 <= fit.slope <= -0.85
        and fit.tail_increase[2.0] < 0.01
    )
    return CriterionResult(
        5, "Schatten decay n=2 q=0", ok and elapsed < 60, elapsed, 60,
        _no_slope(fit) or f"slope {fit.slope:.3f}, HS tail increase {fit.tail_increase[2.0]:.2%}",
        data={"schatten": fit},
    )


def criterion_6():
    """Quadratic decay for the mass-shifted Laplacian pair."""
    t0 = time.time()
    pa = assemble_point(build_gallery("laplace_mass", mu=1), 512)
    pb = assemble_point(build_gallery("laplace_mass", mu=2), 512)
    fit = schatten_fit(compare_points(pa, pb), n=2, q=1, p_list=(1.0, 2.0))
    elapsed = time.time() - t0
    ok = fit.slope is not None and -2.2 <= fit.slope <= -1.8 and fit.bound_holds
    return CriterionResult(
        6, "Schatten decay n=2 q=1", ok and elapsed < 60, elapsed, 60,
        _no_slope(fit)
        or f"slope {fit.slope:.3f}, bound C={fit.bound_constant:.3g} holds={fit.bound_holds}",
        data={"schatten": fit},
    )


def criterion_7():
    """Square-root decay for the three-dimensional Dirac pair."""
    t0 = time.time()
    pa = assemble_point(build_gallery("dirac3", mu=1, v=0), 48)
    pb = assemble_point(build_gallery("dirac3", mu=1, v=0.3), 48)
    fit = schatten_fit(compare_points(pa, pb), n=3, q=0, p_list=(2.0,))
    elapsed = time.time() - t0
    ok = fit.slope is not None and -0.7 <= fit.slope <= -0.3
    return CriterionResult(
        7, "Schatten decay n=3 q=0", ok and elapsed < 600, elapsed, 600,
        _no_slope(fit) or f"slope {fit.slope:.3f} over {fit.count} values",
        data={"schatten": fit},
    )


def criterion_8():
    """Fredholm index of the twist family, doubling, and cocycle laws."""
    t0 = time.time()
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
    elapsed = time.time() - t0
    return CriterionResult(
        8, "Fredholm indices", ok and elapsed < 10, elapsed, 10,
        f"twist3 {idx3.index} (safe={idx3.tail_safe}), doubled {idx0.index}, "
        f"antisym {anti.index}, additivity {i01}+{i13}={i03}",
    )


def criterion_9():
    """Functional calculus: powers and spectral projectors."""
    t0 = time.time()
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
    elapsed = time.time() - t0
    ok = (
        max(err_half, err_id, err_one) <= 1e-10
        and worst_idem <= 1e-9
        and worst_comm <= 1e-9
    )
    return CriterionResult(
        9, "functional calculus", ok and elapsed < 10, elapsed, 10,
        f"powers {max(err_half, err_id, err_one):.1e}, riesz idem {worst_idem:.1e}, "
        f"comm {worst_comm:.1e}",
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


def criterion_10():
    """Shared principal parts force 1/|m| decay of the weighted projectors."""
    t0 = time.time()
    sa = build_gallery("dirac2", mu=1, v=0)
    sb = build_gallery("dirac2", mu=1, v=0.3)
    ms = np.unique(np.geomspace(16, 256, 25).astype(int))
    rep = compare_points(assemble_point(sa, 256), assemble_point(sb, 256))
    norms = rep.diff_norms[np.isin(rep.modes[:, 0], ms)]
    slope = float(np.polyfit(np.log(ms), np.log(norms), 1)[0])
    bound_c = max(m * v for m, v in zip(ms, norms))
    elapsed = time.time() - t0
    return CriterionResult(
        10, "principal-symbol dependence", slope <= -0.9 and elapsed < 10, elapsed, 10,
        f"slope {slope:.3f}, C = max m*norm = {bound_c:.3f}",
    )


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
