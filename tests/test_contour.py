import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from calderon import contour as contour_module
from calderon.contour import (
    MAX_NODES,
    Contour,
    _enclosing_circles,
    _stacked_quadrature,
    characteristic_roots,
    contour_quadrature,
    enclosing_circle,
    matrix_power,
    riesz_projector,
    spectral_split,
)
from calderon.errors import (
    ContourNotConverged,
    DefectMode,
    EigenvalueOnContour,
    EigenvalueOnCut,
    SpecError,
)
from calderon.projector import companion_matrix, mode_lattice
from calderon.symbols import build_gallery, mode_symbol

from test_symbols import GALLERY, sample_modes


# ---------------------------------------------------------------------------
# quadrature


def test_cauchy_integral_of_reciprocal():
    val, n = contour_quadrature(lambda z: 1 / z, Contour.circle(0, 1.0))
    assert abs(val - 1.0) < 1e-12
    assert n >= 16


def test_pole_outside_contour_integrates_to_zero():
    val, _ = contour_quadrature(lambda z: 1 / (z - 2.0), Contour.circle(0, 1.0))
    assert abs(val) < 1e-12


def test_double_pole_has_no_residue():
    val, _ = contour_quadrature(lambda z: z**-2.0, Contour.circle(0, 1.0))
    assert abs(val) < 1e-12


def test_quadrature_gives_up_on_nonanalytic_data(monkeypatch):
    monkeypatch.setattr(contour_module, "MAX_NODES", 256)
    rng = np.random.default_rng(0)
    evaluated = []

    def noise(z):
        evaluated.append(len(z))
        return rng.normal(size=len(z))

    with pytest.raises(ContourNotConverged):
        contour_quadrature(noise, Contour.circle(0, 1.0))
    assert sum(evaluated) == 256  # every level reuses the nodes before it


def test_stack_of_circles_matches_each_circle_alone():
    # poles ever closer to the contour: the circles leave the doubling
    # loop at different levels, and each keeps its own value and count
    poles = np.array([0.1, 0.7, 0.9, -0.95j])
    centers, radii = np.array([0, 0, 0.5, 0], dtype=complex), np.array([1.0, 1.0, 0.5, 1.0])

    def f(z, rows):
        return 1 / (z - poles[rows, None])

    values, counts = _stacked_quadrature(f, centers, radii, 16)
    assert len(set(counts.tolist())) == 3
    for i, (c, rad) in enumerate(zip(centers, radii)):
        value, n = contour_quadrature(lambda z: 1 / (z - poles[i]), Contour.circle(c, rad))
        assert counts[i] == n
        assert abs(values[i] - value) <= 1e-15
        assert abs(value - 1.0) <= 1e-10


def test_nan_integral_never_converges():
    with pytest.raises(ContourNotConverged):
        contour_quadrature(lambda z: np.full(z.shape, np.nan), Contour.circle(0, 1.0))

    def f(z, rows):  # the stack's second circle integrates NaN
        return np.where(rows[:, None] == 1, np.nan, 1 / z)

    with pytest.raises(ContourNotConverged) as info:
        _stacked_quadrature(f, np.zeros(3, dtype=complex), np.ones(3), 16)
    assert info.value.index == 1


def _full_grid_quadrature(f, contour, tol=1e-10, max_nodes=MAX_NODES):
    """Reference doubling loop that evaluates every node of every level."""
    n = max(8, contour.nodes)
    prev = None
    while n <= max_nodes:
        re = contour.radius * np.exp(2j * np.pi / n * np.arange(n))  # the n-node grid
        z, dz = contour.center + re, 1j * re
        vals = np.asarray(f(z), dtype=complex)
        value = (vals * dz.reshape((n,) + (1,) * (vals.ndim - 1))).sum(axis=0) / (1j * n)
        if prev is not None and np.abs(value - prev).max() <= tol * max(
            1.0, float(np.abs(value).max())
        ):
            return value, n
        prev = value
        n *= 2
    raise ContourNotConverged("reference loop did not converge")


def _resolvent_12(z):
    M = np.array([[0.0, 1.0], [-2.0, 3.0]], dtype=complex)  # eigenvalues 1, 2
    return np.linalg.inv(z[:, None, None] * np.eye(2) - M)


QUADRATURE_CASES = {
    "reciprocal": (lambda z: 1 / z, Contour.circle(0, 1.0)),
    "pole_outside": (lambda z: 1 / (z - 2.0), Contour.circle(0, 1.0)),
    "double_pole": (lambda z: z**-2.0, Contour.circle(0, 1.0)),
    "resolvent": (_resolvent_12, Contour.circle(1.5, 1.2)),
    "near_pole": (lambda z: 1 / (z - 0.9), Contour.circle(0, 1.0, nodes=8)),
}


@pytest.mark.parametrize("case", sorted(QUADRATURE_CASES))
def test_nested_quadrature_matches_full_grid(case):
    f, contour = QUADRATURE_CASES[case]
    evaluated = []

    def counted(z):
        evaluated.append(z)
        return f(z)

    value, n = contour_quadrature(counted, contour)
    ref, n_ref = _full_grid_quadrature(f, contour)
    assert n == n_ref
    assert np.abs(value - ref).max() <= 1e-14
    # the levels together visit the final n-node grid, each node once
    nodes = np.concatenate(evaluated)
    grid = contour.center + contour.radius * np.exp(2j * np.pi / n * np.arange(n))
    assert nodes.size == n
    assert np.abs(nodes[:, None] - grid[None, :]).min(axis=1).max() <= 1e-14


@pytest.mark.parametrize("start", [8, 16, 64])
def test_first_call_covers_two_levels(start, monkeypatch):
    calls = []

    def counted(z):
        calls.append(z.size)
        return 1 / z  # exact on every grid: the first comparison agrees

    value, n = contour_quadrature(counted, Contour.circle(0, 1.0, nodes=start))
    assert abs(value - 1.0) < 1e-12
    assert (n, calls) == (2 * start, [2 * start])
    # with no room for the second level, the loop gives up before calling f
    calls.clear()
    monkeypatch.setattr(contour_module, "MAX_NODES", 2 * start - 1)
    with pytest.raises(ContourNotConverged):
        contour_quadrature(counted, Contour.circle(0, 1.0, nodes=start))
    assert calls == []


def _separable_group(eigs, anchor, margin=0.05):
    """Largest eigenvalue group around ``eigs[anchor]`` that a circle
    separates from the rest with the given margin, or None."""
    order = np.argsort(np.abs(eigs - eigs[anchor]))
    best = None
    for g in range(1, len(eigs)):
        group, rest = eigs[order[:g]], eigs[order[g:]]
        center = group.mean()
        if np.abs(rest - center).min() - np.abs(group - center).max() > margin:
            best = (group, rest)
    return best


def _sized_and_unsized_counts(f, group, rest):
    sized = enclosing_circle(group, excluded=rest)
    assert sized.nodes in (16, 32, 64, 128, 256)
    _, n = contour_quadrature(f, sized)
    _, n16 = contour_quadrature(f, Contour.circle(sized.center, sized.radius, 16))
    return sized, n, n16


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_sized_start_keeps_the_cross_check_node_count(name):
    spec = build_gallery(name, **GALLERY[name])
    powers = np.arange(2 * spec.k - 1)
    checked = 0
    for m in mode_lattice(spec.n, 16):
        sym = mode_symbol(spec, m)
        try:
            roots = characteristic_roots(sym)
        except DefectMode:  # a real root
            continue
        upper = [root for root, _, half in roots if half == "upper"]
        if not upper:
            continue

        def f(z, sym=sym):
            inv = np.linalg.inv(sym(z))
            return (z[:, None] ** powers)[:, :, None, None] * inv[:, None, :, :]

        others = [root for root, _, half in roots if half != "upper"]
        sized, n, n16 = _sized_and_unsized_counts(f, upper, others)
        assert n == n16, (m, sized.nodes)
        checked += 1
    assert checked >= 16


def test_sized_start_keeps_riesz_node_counts_up_to_borderline_separation():
    rng = np.random.default_rng(7)
    problems = []
    while len(problems) < 60:
        M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        split = _separable_group(np.linalg.eigvals(M), len(problems) % 6)
        if split is not None:
            problems.append((M, *split))
    oversized = 0
    for M, group, rest in problems:
        def resolvent(z, M=M):
            return np.linalg.inv(z[:, None, None] * np.eye(6) - M)

        sized, n, n16 = _sized_and_unsized_counts(resolvent, group, rest)
        if n != n16:
            # the bound rho^n leaves out the residue's size relative to the
            # value; when it is small, the doubling loop converged one level
            # below the sized start, which must then have been borderline
            center = group.mean()
            radius = sized.radius
            rho = max(
                np.abs(group - center).max() / radius,
                radius / np.abs(rest - center).min(),
            )
            assert n == 2 * n16 and rho ** (sized.nodes // 2) <= 3e-10
            oversized += 1
    assert oversized <= len(problems) // 10


def test_quadrature_peak_memory_stays_near_one_level():
    d = 8
    inside = np.array([0.0, 0.3, -0.5j, 0.6 + 0.2j, 0.99])
    M = np.diag(np.concatenate([inside, [1.3, -1.4, 2j]])).astype(complex)
    contour = Contour.circle(0, 1.0)

    def resolvent(z):
        return np.linalg.inv(z[:, None, None] * np.eye(d) - M)

    _, n = contour_quadrature(resolvent, contour)
    assert n >= 4096
    tracemalloc.start()
    try:
        P, _ = contour_quadrature(resolvent, contour)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.abs(P - np.diag([1.0] * 5 + [0.0] * 3)).max() < 1e-9
    assert peak <= 3 * (n // 2) * d * d * 16


def test_contour_validation():
    with pytest.raises(SpecError):
        Contour.circle(0, 1.0, nodes=4)
    with pytest.raises(SpecError):
        Contour.circle(0, -1.0)


@pytest.mark.parametrize(
    "center, radius",
    [(4, np.nan), (np.nan, 1.0), (complex(0, np.inf), 1.0), (0, np.inf), (0, np.nan), (0, 0.0)],
)
def test_contour_rejects_non_finite_geometry(center, radius):
    # a NaN passes a test such as radius <= 0; a NaN circle then encloses
    # no eigenvalue, so riesz_projector returned a zero matrix, and the
    # quadrature doubled to MAX_NODES before it gave up
    with pytest.raises(SpecError):
        Contour(center, radius)


_POINTS = st.lists(
    st.complex_numbers(
        max_magnitude=4, allow_nan=False, allow_infinity=False, allow_subnormal=False
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(group=_POINTS, excluded=_POINTS)
def test_enclosing_circle_radius_is_rate_optimal(group, excluded):
    points = np.array([group + excluded], dtype=complex)
    inside = np.arange(points.shape[1])[None] < len(group)
    center = points[inside].mean()
    gap = np.abs(points[~inside] - center).min()
    assume(gap > 1e-6 and gap > (1 + 1e-6) * np.abs(points[inside] - center).max())
    center, radius, rho = _enclosing_circles(points, inside, ~inside)
    spread = np.abs(points[inside] - center[0]).max()
    gap = np.abs(points[~inside] - center[0]).min()
    r, rho = radius[0], rho[0]
    assert spread < r < gap
    assert rho == pytest.approx(max(spread / r, r / gap), rel=1e-12)
    # no worse than the radius halfway between spread and gap, and within
    # the geometric-mean rate, floored at 1/8 for a lone point or a tight group
    half = 0.5 * (spread + gap)
    assert rho <= max(spread / half, half / gap) * (1 + 1e-12)
    assert rho <= max(np.sqrt(spread / gap), 0.125) * (1 + 1e-12)


def test_enclosing_circles_raise_at_the_first_stuck_row():
    # rows 1 and 2 cannot hold their group apart: an excluded point lies
    # within the group's spread of its mean (0.1 from the mean 0.5 of
    # {0, 1}; 0.5 from the mean 0 of {i, -i}); rows 0 and 3 can, row 3
    # around an exact double point
    points = np.array([[0, 0.1, 2], [0, 1, 0.4], [1j, -1j, 0.5], [5, 5, 9]], dtype=complex)
    inside = np.array([[True, True, False]] * 4)
    for rows, first in (([0, 1, 2, 3], 1), ([2, 3, 0], 0), ([0, 3, 2], 2)):
        with pytest.raises(EigenvalueOnContour) as info:
            _enclosing_circles(points[rows], inside[rows], ~inside[rows])
        assert info.value.index == first
    rho = _enclosing_circles(points[[0, 3]], inside[[0, 3]], ~inside[[0, 3]])[2]
    assert (rho < 1).all()
    # a NaN group is not stuck: its circle is NaN, which Contour rejects
    with pytest.raises(SpecError):
        enclosing_circle([np.nan, 1.0], excluded=[3.0])


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_POINTS, _POINTS), min_size=1, max_size=6))
def test_enclosing_circles_name_the_first_stuck_row_or_give_rates_below_one(rows):
    # a stack of groups, each clear of its own excluded points or not;
    # padding points are neither enclosed nor excluded
    width = max(len(group) + len(excluded) for group, excluded in rows)
    points = np.zeros((len(rows), width), dtype=complex)
    inside = np.zeros(points.shape, dtype=bool)
    outside = np.zeros(points.shape, dtype=bool)
    stuck = []
    for i, (group, excluded) in enumerate(rows):
        g = len(group)
        points[i, : g + len(excluded)] = group + excluded
        inside[i, :g] = outside[i, g : g + len(excluded)] = True
        center = np.mean(group)
        spread = np.abs(np.array(group) - center).max()
        gap = np.abs(np.array(excluded) - center).min()
        assume(abs(gap - spread) > 1e-9 * (1.0 + spread))
        stuck.append(bool(gap < spread))
    if any(stuck):
        with pytest.raises(EigenvalueOnContour) as info:
            _enclosing_circles(points, inside, outside)
        assert info.value.index == stuck.index(True)
    else:
        center, radius, rho = _enclosing_circles(points, inside, outside)
        assert (rho < 1).all() and (radius > 0).all()


# ---------------------------------------------------------------------------
# characteristic roots


def test_laplace_roots():
    lap = build_gallery("laplace_mass", mu=1)
    roots = characteristic_roots(mode_symbol(lap, 0))
    vals = sorted(r[0].imag for r in roots)
    assert vals == pytest.approx([-1.0, 1.0])
    assert {r[2] for r in roots} == {"upper", "lower"}
    roots = characteristic_roots(mode_symbol(lap, 2))
    assert sorted(r[0].imag for r in roots) == pytest.approx([-np.sqrt(5), np.sqrt(5)])


def test_dbar_root():
    db = build_gallery("dbar", mu=0.5)
    ((root, mult, half),) = characteristic_roots(mode_symbol(db, 0))
    assert root == pytest.approx(0.5j)
    assert mult == 1 and half == "upper"


def test_real_root_raises_defect():
    db0 = build_gallery("dbar", mu=0.0)
    with pytest.raises(DefectMode) as info:
        characteristic_roots(mode_symbol(db0, 0))
    assert info.value.mode == 0 and info.value.roots == [0.0]


def test_multiplicity_grouping():
    # (d_n + 1)^2: double root at xi = i
    spec = build_gallery(
        "custom",
        n=2, r=1, k=2,
        terms={(2, (0,)): [[1.0]], (1, (0,)): [[2.0]], (0, (0,)): [[1.0]]},
    )
    ((root, mult, half),) = characteristic_roots(mode_symbol(spec, 0))
    assert mult == 2 and half == "upper"
    assert root == pytest.approx(1j, abs=1e-7)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_roots_annihilate_the_determinant(name):
    spec = build_gallery(name, **GALLERY[name])
    for m in sample_modes(spec, 64, count=40, seed=5):
        sym = mode_symbol(spec, m)
        try:
            roots = characteristic_roots(sym)
        except DefectMode:
            continue
        bound = 1e-8 * (1 + np.linalg.norm(m)) ** (spec.k * spec.r)
        for root, _, _ in roots:
            assert abs(np.linalg.det(sym(root))) < bound


# ---------------------------------------------------------------------------
# spectral projectors


def test_riesz_projector_on_diagonal_matrix():
    M = np.diag([1.0, 3.0]).astype(complex)
    P = riesz_projector(M, Contour.circle(1.0, 1.0))
    assert np.abs(P - np.diag([1.0, 0.0])).max() < 1e-11


def test_riesz_projector_fixes_idempotents():
    R = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)  # a projector
    P = riesz_projector(R, Contour.circle(1.0, 0.4))
    assert np.abs(P - R).max() < 1e-10


def test_riesz_projector_jordan_block():
    J = np.array([[5.0, 1.0], [0.0, 5.0]], dtype=complex)
    P = riesz_projector(J, Contour.circle(5.0, 1.0))
    assert np.abs(P - np.eye(2)).max() < 1e-10


def test_riesz_rejects_eigenvalue_on_contour():
    M = np.diag([1.0, 3.0]).astype(complex)
    with pytest.raises(EigenvalueOnContour):
        riesz_projector(M, Contour.circle(0.0, 1.0))


def test_riesz_idempotency_commutation_partition():
    rng = np.random.default_rng(11)
    for _ in range(30):
        M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        eigs = np.linalg.eigvals(M)
        sep = min(
            abs(a - b) for i, a in enumerate(eigs) for b in eigs[i + 1 :]
        )
        if sep < 0.1:
            continue
        total = np.zeros((6, 6), dtype=complex)
        for lam in eigs:
            others = eigs[np.abs(eigs - lam) > 1e-12]
            c = Contour.circle(lam, 0.45 * np.abs(others - lam).min())
            P = riesz_projector(M, c)
            assert np.abs(P @ P - P).max() < 1e-9
            assert np.abs(P @ M - M @ P).max() < 1e-9
            total += P
        assert np.abs(total - np.eye(6)).max() < 1e-9


def _similar(eigs, seed, blocks=()):
    """``V D V^{-1}`` for a seeded complex ``V``, where ``D`` is
    ``diag(eigs)`` plus ones on the superdiagonal positions ``blocks``,
    so that those positions chain eigenvalues into Jordan blocks."""
    rng = np.random.default_rng(seed)
    d = len(eigs)
    V = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    D = np.diag(np.asarray(eigs, dtype=complex))
    for i in blocks:
        D[i, i + 1] = 1.0
    return V @ D @ np.linalg.inv(V), V


def test_riesz_projector_keeps_a_split_jordan_block_on_one_circle():
    lam = 2.0 + 1.0j
    M, V = _similar([lam, lam, lam, -1.0, 0.5 - 2j], seed=21, blocks=(0, 1))
    eigs = np.linalg.eigvals(M)
    block = eigs[np.abs(eigs - lam) < 0.1]
    # rounding splits the triple block about eps^(1/3) apart, far beyond 1e-7
    assert np.abs(block[:, None] - block).max() > 1e-7 * (1 + abs(lam))
    P = riesz_projector(M, Contour.circle(lam, 1.0))
    want = V @ np.diag([1.0, 1.0, 1.0, 0.0, 0.0]) @ np.linalg.inv(V)
    assert np.abs(P - want).max() < 1e-9 * (1 + np.abs(want).max())


def test_riesz_projector_integrates_an_inseparable_cluster_on_the_callers_contour():
    # a chain of enclosed eigenvalues links into one cluster whose mean
    # lies nearer the excluded eigenvalue than its ends do, so no circle
    # around the mean isolates it; the caller's circle does
    chain = np.linspace(0.0, 1.0, 11)
    M = np.diag(np.concatenate([chain, [0.5 + 0.45j]])).astype(complex)
    P = riesz_projector(M, Contour.circle(0.5 - 0.3j, 0.66))
    assert np.abs(P - np.diag([1.0] * 11 + [0.0])).max() < 1e-9


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    center=st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
    radius=st.floats(0.1, 3.0),
)
def test_riesz_projector_is_the_integral_on_the_callers_contour(seed, center, radius):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    contour = Contour.circle(center, radius)
    try:
        want, _ = contour_quadrature(lambda z: np.linalg.inv(z[:, None, None] * np.eye(5) - M), contour)
    except ContourNotConverged:
        assume(False)
    got = riesz_projector(M, contour)
    assert np.abs(got - want).max() <= 1e-9 * (1 + np.abs(want).max())


# ---------------------------------------------------------------------------
# fractional powers


def test_power_endpoints_and_square_root():
    a = np.diag([4.0, 9.0]).astype(complex)
    assert np.abs(matrix_power(a, 0.5) - np.diag([2.0, 3.0])).max() < 1e-10
    rng = np.random.default_rng(1)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 6 * np.eye(4)
    assert np.abs(matrix_power(b, 0.0) - np.eye(4)).max() < 1e-10
    assert np.abs(matrix_power(b, 1.0) - b).max() < 1e-10


def test_power_semigroup_on_hermitian_positive():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a = a @ a.conj().T + 5 * np.eye(5)
    for s, t in [(0.3, 0.4), (0.25, 0.5), (0.1, 0.85)]:
        lhs = matrix_power(a, s + t)
        rhs = matrix_power(a, s) @ matrix_power(a, t)
        assert np.abs(lhs - rhs).max() < 1e-8


def test_power_rejects_spectrum_on_the_cut():
    # the cut runs along the negative real axis
    with pytest.raises(EigenvalueOnCut):
        matrix_power(np.diag([-4.0, -9.0]).astype(complex), 0.5)


def test_power_of_a_wide_spectrum_far_from_the_cut():
    # a spectrum whose spread exceeds its mean's distance to the cut,
    # which no single circle around the mean separates from the cut
    eigs = np.array([0.147 + 2.136j, 7.387 - 1.244j, 3.181 + 0.714j, 6.545 + 1.243j])
    B, V = _similar(eigs, seed=5208)
    S = matrix_power(B, 0.5)
    assert np.abs(S @ S - B).max() <= 1e-12 * (1 + np.abs(B).max())
    want = V @ np.diag(np.sqrt(eigs)) @ np.linalg.inv(V)
    assert np.abs(S - want).max() <= 1e-10 * (1 + np.abs(want).max())


def test_power_of_a_split_jordan_block():
    lam, t = 2.0 + 1.0j, 0.5
    B, V = _similar([lam, lam, lam], seed=22, blocks=(0, 1))
    eigs = np.linalg.eigvals(B)
    assert np.abs(eigs[:, None] - eigs).max() > 1e-7 * (1 + abs(lam))
    # f(J) = f(lam) I + f'(lam) N + f''(lam) / 2 N^2 for f(z) = z^t
    N = np.diag([1.0, 1.0], 1)
    fJ = lam**t * np.eye(3) + t * lam ** (t - 1) * N + t * (t - 1) / 2 * lam ** (t - 2) * N @ N
    want = V @ fJ @ np.linalg.inv(V)
    assert np.abs(matrix_power(B, t) - want).max() <= 1e-9 * (1 + np.abs(want).max())


@settings(max_examples=300, deadline=None)
@given(
    eigs=st.lists(
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        min_size=4,
        max_size=4,
    ),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(-1.0, 2.0),
)
def test_power_matches_schur_pade_off_the_cut(eigs, seed, t):
    from scipy.linalg import fractional_matrix_power

    eigs = np.array(eigs)
    to_cut = np.where(eigs.real < 0, np.abs(eigs.imag), np.abs(eigs))  # the cut is (-inf, 0]
    assume(to_cut.min() >= 1e-3)
    B, _ = _similar(eigs, seed)
    want = fractional_matrix_power(B, t)
    assert np.abs(matrix_power(B, t) - want).max() <= 1e-9 * (1 + np.abs(want).max())


def test_power_rejects_spectrum_at_origin():
    with pytest.raises(EigenvalueOnCut):
        matrix_power(np.diag([0.0, 2.0]).astype(complex), 0.5)


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_power_rejects_non_finite_arguments_before_any_quadrature(t, monkeypatch):
    called = []
    monkeypatch.setattr(contour_module, "_stacked_quadrature", lambda *a: called.append(a))
    with pytest.raises(SpecError):
        matrix_power(np.diag([4.0, 9.0]), t)
    assert called == []


# ---------------------------------------------------------------------------
# stable/unstable splitting


def test_split_diagonal():
    sp = spectral_split(np.diag([-1.0, 1.0]).astype(complex))
    assert sp.stable.shape == (2, 1)
    assert np.abs(sp.projector - np.diag([1.0, 0.0])).max() < 1e-12
    assert sp.gap == pytest.approx(1.0)


def test_split_companion_of_u_double_prime_equals_u():
    C = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sp = spectral_split(C)
    circle = enclosing_circle([-1.0], excluded=[1.0])
    assert np.abs(riesz_projector(C, circle) - sp.projector).max() <= 1e-8 * (
        1.0 + np.abs(sp.projector).max()
    )
    v = sp.stable[:, 0]
    assert abs(v[0] / v[1] + 1.0) < 1e-12  # direction (1, -1)


def test_split_all_stable():
    sp = spectral_split(np.diag([-2.0, -3.0]).astype(complex))
    assert np.abs(sp.projector - np.eye(2)).max() < 1e-12
    assert sp.unstable.shape == (2, 0)


def test_split_builds_its_projector_only_when_read(monkeypatch):
    def inv(a):
        raise AssertionError("projector built")

    monkeypatch.setattr(np.linalg, "inv", inv)
    sp = spectral_split(np.diag([-1.0, 1.0]).astype(complex))
    assert sp.stable.shape == sp.unstable.shape == (2, 1)
    monkeypatch.undo()
    assert np.abs(sp.projector - np.diag([1.0, 0.0])).max() < 1e-12
    assert sp.projector is sp.projector


def test_split_rejects_imaginary_axis():
    with pytest.raises(DefectMode):
        spectral_split(np.diag([1j, -1.0]).astype(complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_split_rejects_non_finite_input(bad):
    C = np.diag([-1.0, 1.0]).astype(complex)
    C[0, 1] = bad
    with pytest.raises(np.linalg.LinAlgError):
        spectral_split(C)


def _sorted_schur_split(C):
    """The split from ``scipy.linalg.schur``'s sorted decompositions and
    ``np.linalg.eigvals``, which spectral_split must reproduce."""
    import scipy.linalg

    eigs = np.linalg.eigvals(C)
    gap = float(np.abs(eigs.real).min())
    if gap <= 1e-10 * (1.0 + np.abs(eigs).max()):
        raise DefectMode("eigenvalue on the imaginary axis")
    _, zs, ds = scipy.linalg.schur(C, output="complex", sort="lhp")
    _, zu, du = scipy.linalg.schur(C, output="complex", sort="rhp")
    d = len(C)
    if ds in (0, d):
        proj = np.eye(d, dtype=complex) * (ds == d)
    else:
        basis = np.hstack([zs[:, :ds], zu[:, :du]])
        proj = basis[:, :ds] @ np.linalg.inv(basis)[:ds, :]
    return zs[:, :ds], zu[:, :du], proj, gap


def _split_cases():
    for name in sorted(GALLERY):
        spec = build_gallery(name, **GALLERY[name])
        for m in mode_lattice(spec.n, 16):
            yield companion_matrix(mode_symbol(spec, m))
    rng = np.random.default_rng(12)
    for _ in range(200):
        yield rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    # real parts at half and twice the defect threshold, and on the axis
    for re in (0.5e-10, 2e-10, 0.0):
        yield _similar([re * 3.0 + 2j, -1.0, 1.0], seed=3)[0]


def test_split_is_that_of_sorted_schur():
    splits = defects = 0
    for C in _split_cases():
        try:
            stable, unstable, proj, gap = _sorted_schur_split(C)
        except DefectMode:
            with pytest.raises(DefectMode):
                spectral_split(C)
            defects += 1
            continue
        sp = spectral_split(C)
        assert np.array_equal(sp.stable, stable)
        assert np.array_equal(sp.unstable, unstable)
        assert np.array_equal(sp.projector, proj)
        # the eigenvalues come from another LAPACK route, so the gap moves
        # by rounding: a few ulps of the matrix, not of a small gap
        assert abs(sp.gap - gap) <= 1e-15 * np.abs(C).max()
        splits += 1
    assert splits > 1000 and defects >= 2


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_split_projector_matches_contour_route(name):
    spec = build_gallery(name, **GALLERY[name])
    for m in sample_modes(spec, 16, count=12, seed=8):
        C = companion_matrix(mode_symbol(spec, m))
        try:
            sp = spectral_split(C)
        except DefectMode:
            continue
        eigs = np.linalg.eigvals(C)
        stable, unstable = eigs[eigs.real < 0], eigs[eigs.real >= 0]
        if len(stable) == 0 or len(unstable) == 0:
            continue
        circle = enclosing_circle(stable, excluded=unstable)
        P = riesz_projector(C, circle)
        assert np.abs(P - sp.projector).max() < 1e-8


def test_split_dimensions_sum_to_matrix_size():
    for name, params in GALLERY.items():
        spec = build_gallery(name, **params)
        for m in sample_modes(spec, 8, count=8, seed=4):
            try:
                sp = spectral_split(companion_matrix(mode_symbol(spec, m)))
            except DefectMode:
                continue
            assert sp.stable.shape[1] + sp.unstable.shape[1] == spec.r * spec.k
