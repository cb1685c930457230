import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from calderon.contour import (
    MAX_NODES,
    Contour,
    _enclosing_circles,
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


def test_matrix_valued_quadrature_and_ellipse():
    M = np.array([[0.0, 1.0], [-2.0, 3.0]], dtype=complex)  # eigenvalues 1, 2
    eye = np.eye(2, dtype=complex)

    def resolvent(z):
        return np.linalg.inv(z[:, None, None] * eye - M)

    val, _ = contour_quadrature(resolvent, Contour.ellipse(1.5, 1.2, 0.7))
    assert np.abs(val - eye).max() < 1e-10  # both eigenvalues enclosed


def test_quadrature_gives_up_on_nonanalytic_data():
    rng = np.random.default_rng(0)
    evaluated = []

    def noise(z):
        evaluated.append(len(z))
        return rng.normal(size=len(z))

    with pytest.raises(ContourNotConverged):
        contour_quadrature(noise, Contour.circle(0, 1.0), max_nodes=256)
    assert sum(evaluated) == 256  # every level reuses the nodes before it


def test_stack_of_circles_matches_each_circle_alone():
    # poles ever closer to the contour: the circles leave the doubling
    # loop at different levels, and each keeps its own value and count
    poles = np.array([0.1, 0.7, 0.9, -0.95j])
    centers, radii = np.array([0, 0, 0.5, 0]), np.array([1.0, 1.0, 0.5, 1.0])

    def f(z, rows):
        return 1 / (z - poles[rows, None])

    values, counts = contour_quadrature(f, Contour.circle(centers, radii))
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

    stack = Contour.circle(np.zeros(3), np.ones(3))
    with pytest.raises(ContourNotConverged) as info:
        contour_quadrature(f, stack)
    assert info.value.index == 1


def _full_grid_quadrature(f, contour, tol=1e-10, max_nodes=MAX_NODES):
    """Reference doubling loop that evaluates every node of every level."""
    n = max(8, contour.nodes)
    prev = None
    while n <= max_nodes:
        z, dz = contour.boundary(n)
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
    "resolvent_ellipse": (_resolvent_12, Contour.ellipse(1.5, 1.2, 0.7)),
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
    grid, _ = contour.boundary(n)
    assert nodes.size == n
    assert np.abs(nodes[:, None] - grid[None, :]).min(axis=1).max() <= 1e-14


@pytest.mark.parametrize("start", [8, 16, 64])
def test_first_call_covers_two_levels(start):
    calls = []

    def counted(z):
        calls.append(z.size)
        return 1 / z  # exact on every grid: the first comparison agrees

    value, n = contour_quadrature(counted, Contour.circle(0, 1.0, nodes=start))
    assert abs(value - 1.0) < 1e-12
    assert (n, calls) == (2 * start, [2 * start])
    # with no room for the second level, the loop gives up before calling f
    calls.clear()
    with pytest.raises(ContourNotConverged):
        contour_quadrature(counted, Contour.circle(0, 1.0, nodes=start), max_nodes=2 * start - 1)
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
    _, n16 = contour_quadrature(f, enclosing_circle(group, excluded=rest, nodes=16))
    return sized, n, n16


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_sized_start_keeps_the_cross_check_node_count(name):
    spec = build_gallery(name, **GALLERY[name])
    powers = np.arange(2 * spec.k - 1)
    checked = 0
    for m in mode_lattice(spec.n, 16):
        sym = mode_symbol(spec, m)
        roots = characteristic_roots(sym, allow_real=True)
        upper = [root for root, _, half in roots if half == "upper"]
        if not upper or any(half == "real" for _, _, half in roots):
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
            radius = sized.radii[0]
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
    _, n = contour_quadrature(lambda z: np.linalg.inv(z[:, None, None] * np.eye(d) - M), contour)
    assert n >= 4096
    tracemalloc.start()
    try:
        P = riesz_projector(M, contour)
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


def test_stack_of_circles_has_one_boundary_and_distance_row_per_circle():
    stack = Contour.circle(np.array([0j, 3j]), np.array([1.0, 0.5]))
    z, dz = stack.boundary(8)
    assert z.shape == dz.shape == (2, 8)
    for row, (c, r) in enumerate([(0j, 1.0), (3j, 0.5)]):
        zc, dzc = Contour.circle(c, r).boundary(8)
        assert np.array_equal(z[row], zc) and np.array_equal(dz[row], dzc)
    dist = stack.distance([0.5, 2j])
    assert dist.shape == (2, 2)
    assert np.allclose(dist, [[0.5, 1.0], [abs(0.5 - 3j) - 0.5, 0.5]], rtol=0, atol=1e-15)
    # one contour keeps its flat shapes
    assert Contour.circle(0, 1.0).boundary(8)[0].shape == (8,)
    assert Contour.circle(0, 1.0).distance([0.5]).shape == (1,)
    assert abs(Contour.ellipse(0, 2.0, 1.0).distance([0])[0] - 1.0) < 1e-12


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
    with pytest.raises(DefectMode):
        characteristic_roots(mode_symbol(db0, 0))
    roots = characteristic_roots(mode_symbol(db0, 0), allow_real=True)
    assert roots[0][2] == "real"


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


def test_power_respects_branch_cut_choice():
    # spectrum on the negative real axis: the default cut is unusable,
    # a cut along the positive imaginary axis is fine
    a = np.diag([-4.0, -9.0]).astype(complex)
    with pytest.raises(EigenvalueOnCut):
        matrix_power(a, 0.5, cut_angle=np.pi)
    val = matrix_power(a, 0.5, cut_angle=np.pi / 2)
    # branch with arguments in (pi/2 - 2 pi, pi/2): arg(-4) = -pi
    assert np.abs(val - np.diag([-2.0j, -3.0j])).max() < 1e-10


def test_power_rejects_spectrum_at_origin():
    with pytest.raises(EigenvalueOnCut):
        matrix_power(np.diag([0.0, 2.0]).astype(complex), 0.5)


# ---------------------------------------------------------------------------
# stable/unstable splitting


def test_split_diagonal():
    sp = spectral_split(np.diag([-1.0, 1.0]).astype(complex))
    assert sp.stable.shape == (2, 1)
    assert np.abs(sp.projector - np.diag([1.0, 0.0])).max() < 1e-12
    assert sp.gap == pytest.approx(1.0)


def test_split_companion_of_u_double_prime_equals_u():
    C = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sp = spectral_split(C, validate=True)
    v = sp.stable[:, 0]
    assert abs(v[0] / v[1] + 1.0) < 1e-12  # direction (1, -1)


def test_split_all_stable():
    sp = spectral_split(np.diag([-2.0, -3.0]).astype(complex))
    assert np.abs(sp.projector - np.eye(2)).max() < 1e-12
    assert sp.unstable.shape == (2, 0)


def test_split_rejects_imaginary_axis():
    with pytest.raises(DefectMode):
        spectral_split(np.diag([1j, -1.0]).astype(complex))


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
        spec = build_gallery(name, params)
        for m in sample_modes(spec, 8, count=8, seed=4):
            try:
                sp = spectral_split(companion_matrix(mode_symbol(spec, m)))
            except DefectMode:
                continue
            assert sp.stable.shape[1] + sp.unstable.shape[1] == spec.r * spec.k
