import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calderon import _kernels, contour, projector, symbols
from calderon._kernels import orthonormal_range_sweep, stable_projector_sweep
from calderon.acceptance import _acceptance_specs
from calderon.errors import (
    CalderonError,
    ContourNotConverged,
    DefectMode,
    EigenvalueOnContour,
    IllConditionedFrame,
    RoutesDisagree,
    SignIterationStalled,
    SpecError,
)
from calderon.projector import (
    _adjugate,
    _jump,
    _jump_inverse,
    calderon_projector,
    calderon_projector_stack,
    companion_matrix,
    companion_stack,
    entry_growth_fit,
    jump_operator,
    layer_potential_blocks,
    mode_lattice,
    mode_matrix_stack,
    orthogonal_projector,
    scan_defect_modes,
)
from calderon.contour import _root_clusters, characteristic_roots, enclosing_circle, spectral_split
from calderon.grassmann import _complement_sines, assemble_point, compare_points
from calderon.symbols import (
    build_gallery,
    defect_screen,
    mode_key,
    mode_symbol,
    mode_weights,
    selfadjoint_double,
)

from test_symbols import GALLERY, sample_modes


def _random_operator(k, seed):
    """A random order-``k`` rank-2 custom operator on the circle."""
    rng = np.random.default_rng(seed)
    terms = {
        (q, (b,)): rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for q in range(k + 1)
        for b in range(k + 1 - q)
    }
    return build_gallery("custom", n=2, r=2, k=k, terms=terms)


def _full_weight(m, spec, alpha):
    """Diagonal of the order-``alpha`` weight on one mode's rk-dimensional data."""
    return np.repeat(mode_weights([m], spec.k, alpha)[1][0], spec.r)


def _weighted_angle_frames(F, w):
    G = np.sqrt(w)[:, None] * F
    return np.linalg.qr(G)[0] if F.shape[1] else G


# ---------------------------------------------------------------------------
# companion and oracle


def test_companion_matrices():
    lap = build_gallery("laplace_mass", mu=1)
    C = companion_matrix(mode_symbol(lap, 0))
    assert np.abs(C - np.array([[0, 1], [1, 0]])).max() < 1e-14
    db = build_gallery("dbar", mu=0.5)
    assert companion_matrix(mode_symbol(db, 0))[0, 0] == pytest.approx(-0.5)
    assert companion_matrix(mode_symbol(db, 3))[0, 0] == pytest.approx(2.5)


def test_companion_spectrum_is_i_times_roots():
    lap = build_gallery("laplace_mass", mu=1)
    sym = mode_symbol(lap, 2)
    lam = np.sort_complex(np.linalg.eigvals(companion_matrix(sym)))
    s = np.sqrt(5.0)
    assert np.abs(lam - np.array([-s, s])).max() < 1e-12


@pytest.mark.parametrize("name", sorted(GALLERY) + ["order_three"])
def test_companion_matrix_matches_companion_stack(name):
    if name == "order_three":
        spec = _random_operator(3, 3)
    else:
        spec = build_gallery(name, **GALLERY[name])
    modes = sample_modes(spec, 9, count=20)
    stacked = companion_stack(spec, np.array(modes))
    for m, row in zip(modes, stacked):
        assert np.array_equal(companion_matrix(mode_symbol(spec, m)), row)
        assert np.array_equal(companion_stack(spec, np.array([m]))[0], row)


def _companion_by_mode(A):
    """Reference companion stack: one ``np.linalg.solve(A_k, A_q)`` per
    mode and block, for an ``A`` stack of shape ``(k+1, N, r, r)``."""
    k, r = A.shape[0] - 1, A.shape[-1]
    C = np.zeros((A.shape[1], r * k, r * k), dtype=complex)
    for i in range(A.shape[1]):
        C[i, : (k - 1) * r, r:] = np.eye((k - 1) * r)
        for q in range(k):
            C[i, (k - 1) * r :, q * r : (q + 1) * r] = -np.linalg.solve(A[k, i], A[q, i])
    return C


# the operators and cutoffs of the command-line benchmark pipelines
CLI_STACKS = {"dirac2": 4096, "laplace_mass": 512, "dirac3": 48, "twisted_dbar": 16, "dbar": 16}


@pytest.mark.parametrize("name", sorted(CLI_STACKS))
def test_companion_stack_solves_each_mode_bit_for_bit(name):
    spec = build_gallery(name, **GALLERY[name])
    A = mode_matrix_stack(spec, mode_lattice(spec.n, CLI_STACKS[name]))
    got = symbols._companion(A)
    assert np.array_equal(got.view(float), _companion_by_mode(A).view(float))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 4),
    k=st.integers(1, 3),
    n=st.integers(0, 40),
    scale=st.integers(-4, 4),
)
def test_companion_of_a_shared_top_coefficient_solves_each_mode_bit_for_bit(seed, r, k, n, scale):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(k + 1, n, r, r)) + 1j * rng.normal(size=(k + 1, n, r, r))
    A *= 10.0 ** (scale * rng.uniform(-1, 1, size=(k + 1, n, 1, 1)))
    A[k] = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    got = symbols._companion(A)
    assert got.shape == (n, r * k, r * k)
    assert np.array_equal(got.view(float), _companion_by_mode(A).view(float))
    if n:  # the unbatched form of one mode gives that mode's row
        assert np.array_equal(symbols._companion(A[:, -1]), got[-1])


def _schur_frame(sym, side):
    """The Schur split's orthonormal frame of one side's Cauchy data."""
    split = spectral_split(companion_matrix(sym))
    return split.stable if side == "plus" else split.unstable


def test_oracle_frames():
    db = build_gallery("dbar", mu=0.5)
    assert _schur_frame(mode_symbol(db, 0), "plus").shape == (1, 1)
    assert _schur_frame(mode_symbol(db, 3), "plus").shape == (1, 0)
    lap = build_gallery("laplace_mass", mu=1)
    fr = _schur_frame(mode_symbol(lap, 2), "plus")
    v = fr[:, 0]
    assert v[1] / v[0] == pytest.approx(-np.sqrt(5.0))
    # plus and minus dimensions fill the Cauchy space, in orthonormal frames
    fm = _schur_frame(mode_symbol(lap, 2), "minus")
    assert fr.shape[1] + fm.shape[1] == 2
    for f in (fr, fm):
        assert np.abs(f.conj().T @ f - np.eye(f.shape[1])).max() < 1e-14


# ---------------------------------------------------------------------------
# jump operator


def test_jump_operator_blocks():
    lap = build_gallery("laplace_mass", mu=1)
    A = jump_operator(mode_symbol(lap, 0))
    assert np.abs(A - np.array([[0, -1], [-1, 0]])).max() < 1e-14
    db = build_gallery("dbar", mu=0.5)
    assert jump_operator(mode_symbol(db, 7))[0, 0] == 1.0
    d2 = build_gallery("dirac2", mu=1, v=0)
    s1 = np.array([[0, 1], [1, 0]])
    assert np.abs(jump_operator(mode_symbol(d2, 1)) - s1).max() < 1e-14


def _one_mode_stack(*blocks):
    """The ``A`` stack ``(k+1, 1, r, r)`` of one mode with the blocks
    ``A_1 .. A_k`` (``A_0``, which the jump operator never reads, is zero)."""
    blocks = [np.atleast_2d(b) for b in blocks]
    return np.array([np.zeros_like(blocks[0])] + blocks, dtype=complex)[:, None]


def test_jump_operator_inverse_pattern():
    # k = 2 scalar with blocks A_1 = c, A_2 = 1
    c = 3.7
    A = _one_mode_stack(c, 1.0)
    J, X = _jump(A)[0], _jump_inverse(A)[0]
    assert np.abs(J - np.array([[c, 1.0], [1.0, 0.0]])).max() == 0
    assert np.abs(X - np.array([[0, 1], [1, -c]])).max() < 1e-14
    assert np.abs(J @ X - np.eye(2)).max() < 1e-13


def test_jump_operator_self_inverse_case():
    A = _one_mode_stack(0.0, -1.0)  # J = [[0, -1], [-1, 0]]
    assert np.abs(_jump_inverse(A)[0] - _jump(A)[0]).max() < 1e-14


def test_jump_operator_inverse_random_order_three():
    rng = np.random.default_rng(2)
    blocks = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for t in (1, 2, 3)]
    A = _one_mode_stack(*blocks)
    J, X = _jump(A)[0], _jump_inverse(A)[0]
    assert np.abs(J @ X - np.eye(6)).max() < 1e-12 * np.linalg.cond(J)
    # anti-triangular: vanishes above the anti-diagonal
    assert np.abs(X[:2, :2]).max() < 1e-14
    assert np.abs(X[:2, 2:4]).max() < 1e-14
    assert np.abs(X[2:4, :2]).max() < 1e-14


def _jump_inverse_specs():
    specs = {name: build_gallery(name, **GALLERY[name]) for name in sorted(GALLERY)}
    specs["laplace_double"] = selfadjoint_double(build_gallery("laplace_mass", mu=1))
    specs["order_four"] = _random_operator(4, 4)
    return specs


@pytest.mark.parametrize("name", sorted(_jump_inverse_specs()))
def test_stacked_jump_inverse(name):
    spec = _jump_inverse_specs()[name]
    k, r = spec.k, spec.r
    modes = mode_lattice(spec.n, 8 if spec.n == 2 else 3)
    A = mode_matrix_stack(spec, modes)
    J, X = _jump(A), _jump_inverse(A)
    err = np.abs(J @ X - np.eye(r * k)).max(axis=(1, 2))
    assert (err <= 1e-12 * np.linalg.cond(J)).all()
    blocks = X.reshape(-1, k, r, k, r)
    for p in range(k):
        for j in range(k - 1 - p):  # above the anti-diagonal
            assert not blocks[:, p, :, j].any()
    for m in modes[::5]:  # a mode's own stack of one gives its row, bit for bit
        want = _jump_inverse(mode_symbol(spec, m).A[:, None])[0]
        assert X[(modes == m).all(axis=1)][0].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# layer-potential blocks


def test_layer_blocks_laplace_closed_form():
    lap = build_gallery("laplace_mass", mu=1)
    B = layer_potential_blocks(mode_symbol(lap, 0))
    assert np.abs(B - np.array([[0.5, -0.5], [-0.5, 0.5]])).max() < 1e-12
    # general mode: ((1/2s, -1/2), (-1/2, s/2))
    B = layer_potential_blocks(mode_symbol(lap, 3))
    s = np.sqrt(10.0)
    expected = np.array([[1 / (2 * s), -0.5], [-0.5, s / 2]])
    assert np.abs(B - expected).max() < 1e-10


def test_layer_blocks_dbar():
    db = build_gallery("dbar", mu=0.5)
    assert layer_potential_blocks(mode_symbol(db, 0))[0, 0] == pytest.approx(1.0)
    assert layer_potential_blocks(mode_symbol(db, 3))[0, 0] == 0.0


def test_layer_blocks_double_root():
    # (d_n + 1)^2 u = 0: every solution decays, so the projector is I
    spec = build_gallery(
        "custom",
        n=2, r=1, k=2,
        terms={(2, (0,)): [[1.0]], (1, (0,)): [[2.0]], (0, (0,)): [[1.0]]},
    )
    sym = mode_symbol(spec, 0)
    B = layer_potential_blocks(sym)
    assert np.abs(B - np.array([[0.0, 1.0], [1.0, -2.0]])).max() < 1e-8
    R = calderon_projector(sym).matrix
    assert np.abs(R - np.eye(2)).max() < 1e-8


def test_layer_blocks_raise_on_defect_mode():
    db0 = build_gallery("dbar", mu=0.0)
    with pytest.raises(DefectMode):
        layer_potential_blocks(mode_symbol(db0, 0))


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_layer_block_routes_agree(name):
    # cross_check=True recomputes every block by global quadrature and
    # raises if the residue route drifts past 1e-8
    spec = build_gallery(name, **GALLERY[name])
    for m in sample_modes(spec, 32, count=10, seed=6):
        try:
            layer_potential_blocks(mode_symbol(spec, m), cross_check=True)
        except DefectMode:
            continue


def test_layer_block_growth_orders():
    lap = build_gallery("laplace_mass", mu=1)
    ms = np.unique(np.geomspace(16, 256, 12).astype(int))
    for (q, p), expected in [((0, 0), -1.0), ((0, 1), 0.0), ((1, 1), 1.0)]:
        vals = [abs(layer_potential_blocks(mode_symbol(lap, int(m)))[q, p]) for m in ms]
        slope = np.polyfit(np.log(ms), np.log(vals), 1)[0]
        assert slope == pytest.approx(expected, abs=0.05)


# ---------------------------------------------------------------------------
# the projector itself


def test_projector_closed_form_all_modes():
    lap = build_gallery("laplace_mass", mu=1)
    for m in range(-64, 65):
        s = np.sqrt(m * m + 1.0)
        expected = np.array([[0.5, -1 / (2 * s)], [-s / 2, 0.5]])
        R = calderon_projector(mode_symbol(lap, m)).matrix
        assert np.abs(R - expected).max() < 1e-10


def test_projector_scalar_rank_cases():
    db = build_gallery("dbar", mu=0.5)
    assert calderon_projector(mode_symbol(db, 0)).matrix[0, 0] == pytest.approx(1.0)
    assert calderon_projector(mode_symbol(db, 3)).matrix[0, 0] == 0.0


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_projector_algebra_and_oracle_range(name):
    spec = build_gallery(name, **GALLERY[name])
    modes = sample_modes(spec, 16, count=10, seed=9)
    for m in modes:
        sym = mode_symbol(spec, m)
        try:
            rp = calderon_projector(sym, "plus").matrix
        except DefectMode:
            continue
        rm = calderon_projector(sym, "minus").matrix
        eye = np.eye(rp.shape[0])
        assert np.abs(rp @ rp - rp).max() < 1e-8
        assert np.abs(rp + rm - eye).max() < 1e-12
        sp = spectral_split(companion_matrix(sym))
        rank = int(round(float(np.trace(rp).real)))  # exact for idempotents
        assert _sweep_angles(rp, sp.stable, rank).max(initial=0.0) < 1e-7
        # R+ is the spectral projector of the companion matrix
        assert np.abs(rp - sp.projector).max() < 1e-8
        assert np.abs(rp - sp.projector).max() / (1.0 + np.abs(sp.projector).max()) <= 1e-10


def _counting(monkeypatch, name):
    """Count calls of a function that the projector module imported."""
    calls = []
    real = getattr(projector, name)

    def wrapped(*args, **kw):
        calls.append(kw)
        return real(*args, **kw)

    monkeypatch.setattr(projector, name, wrapped)
    return calls


def _sweep_angles(F, G, df=None):
    """Principal angles between the range of F (of rank ``df``, by
    default its column count) and the column space of G, largest first,
    as compare_points and acceptance criterion 1 take them: complement
    sines over range-sweep frames, the first frame complemented."""
    da = np.array([F.shape[1] if df is None else df])
    db = np.array([G.shape[1]])
    QF = orthonormal_range_sweep(F[None], da)
    QG = orthonormal_range_sweep(G[None], db)
    sines = _complement_sines(QF, QG, da, db)[2][0, : max(da[0], db[0])]
    return np.arcsin(np.clip(sines, 0.0, 1.0))


def _principal_angles_smaller_side(F, G):
    # reference: QR frames, the smaller-dimensional one complemented, where
    # compare_points complements its first frame
    F = np.asarray(F, dtype=complex)
    G = np.asarray(G, dtype=complex)
    qf = np.linalg.qr(F)[0] if F.shape[1] else F
    qg = np.linalg.qr(G)[0] if G.shape[1] else G
    df, dg = qf.shape[1], qg.shape[1]
    if df == 0 and dg == 0:
        return np.zeros(0)
    if df == 0 or dg == 0:
        return np.full(max(df, dg), np.pi / 2)
    small, big = (qf, qg) if df <= dg else (qg, qf)
    comp = small - big @ (big.conj().T @ small)
    sines = np.linalg.svd(comp, compute_uv=False)
    sines = np.concatenate([np.ones(abs(df - dg)), sines])
    return np.arcsin(np.clip(np.sort(sines)[::-1], 0.0, 1.0))


def test_principal_angles_complement_the_first_frame():
    rng = np.random.default_rng(17)
    counts = {"equal": 0, "unequal": 0}
    for _ in range(300):
        rk = int(rng.integers(1, 7))
        df, dg = (int(x) for x in rng.integers(0, rk + 1, size=2))
        F = rng.normal(size=(rk, df)) + 1j * rng.normal(size=(rk, df))
        G = rng.normal(size=(rk, dg)) + 1j * rng.normal(size=(rk, dg))
        got, ref = _sweep_angles(F, G), _principal_angles_smaller_side(F, G)
        assert got.shape == (max(df, dg),)
        counts["equal" if df == dg else "unequal"] += 1
        # equal dimensions complement the same side: the frames differ by rounding only
        low = ref < 1.5
        assert np.abs(got - ref)[low].max(initial=0.0) <= (1e-14 if df == dg else 1e-12)
        assert np.abs(got - ref)[~low].max(initial=0.0) <= 1e-7
    assert min(counts.values()) >= 50


def test_both_sides_of_one_symbol_share_one_route(monkeypatch):
    routes = _counting(monkeypatch, "layer_potential_blocks")
    sym = mode_symbol(build_gallery("dirac3", mu=1, v=0.3), (2, -1))
    rp = calderon_projector(sym, "plus").matrix
    rm = calderon_projector(sym, "minus").matrix
    assert len(routes) == 1
    assert np.array_equal(rm, np.eye(rp.shape[0]) - rp)


def test_returned_projectors_are_private_copies():
    sym = mode_symbol(build_gallery("laplace_mass", mu=1), 3)
    rp = calderon_projector(sym, "plus").matrix
    rm = calderon_projector(sym, "minus").matrix
    plus, minus = rp.copy(), rm.copy()
    rp[:] = 7.0
    rm[:] = 7.0
    assert np.array_equal(calderon_projector(sym, "plus").matrix, plus)
    assert np.array_equal(calderon_projector(sym, "minus").matrix, minus)
    # the symbol the kept routes were computed from cannot change either
    with pytest.raises(ValueError):
        sym.A[0, 0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        sym.A = np.zeros_like(sym.A)


def _unchecked_projector(sym):
    """The plus projector of the residue route alone."""
    return layer_potential_blocks(sym, cross_check=False) @ jump_operator(sym)


def test_checked_request_never_reuses_an_unchecked_route(monkeypatch):
    quadratures = _counting(monkeypatch, "_stacked_quadrature")
    sym = mode_symbol(build_gallery("laplace_mass", mu=1), 3)  # simple roots only
    unchecked = _unchecked_projector(sym)
    assert len(quadratures) == 0
    checked = calderon_projector(sym, "plus").matrix
    assert len(quadratures) == 1
    calderon_projector(sym, "minus")
    assert len(quadratures) == 1
    assert np.array_equal(checked, unchecked)


def _simple_upper_modes(name, cutoff):
    """Symbols of the lattice modes of a gallery spec whose upper roots
    are all simple (no defect, no multiple upper root)."""
    spec = build_gallery(name, **GALLERY[name])
    for m in mode_lattice(spec.n, cutoff):
        sym = mode_symbol(spec, m)
        try:
            roots = characteristic_roots(sym)
        except DefectMode:  # a real root
            continue
        if all(mult == 1 for _, mult, half in roots if half == "upper"):
            yield sym


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_cross_check_leaves_simple_root_blocks_bitwise_alone(name):
    # at simple roots the blocks are residues only; the cross-check circle
    # is compared against them and never feeds them
    for sym in _simple_upper_modes(name, 8):
        checked = layer_potential_blocks(sym, cross_check=True)
        assert np.array_equal(checked, layer_potential_blocks(sym, cross_check=False)), sym.m


@pytest.mark.parametrize(
    "zeros",
    [
        [-1.0, -1.0, 1.0],  # double root i, excluded root -i
        [-1.0, -1.0, -5.0, 0.5],  # the cross-check circle needs more nodes than the local one
    ],
)
def test_cross_check_leaves_multiple_root_blocks_bitwise_alone(zeros):
    # prod (d_n - c) over the zeros c has the roots xi = -i c; the local
    # circle at the double root i feeds the blocks, and the cross-check
    # circle must not move its node levels
    sym = mode_symbol(_product_spec(zeros), 0)
    assert (2, "upper") in [(mult, half) for _, mult, half in characteristic_roots(sym)]
    checked = layer_potential_blocks(sym, cross_check=True)
    assert np.array_equal(checked, layer_potential_blocks(sym, cross_check=False))


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_cross_check_evaluates_at_most_32_nodes(name, monkeypatch):
    # the rate-optimal circle around a mode's upper roots converges fast
    # enough for a 16-node start, compared with its 16 midpoints
    evaluated = []
    real = projector._stacked_quadrature

    def counted(f, *args, **kw):
        def g(z, rows):
            evaluated.append(z.size)
            return f(z, rows)

        return real(g, *args, **kw)

    monkeypatch.setattr(projector, "_stacked_quadrature", counted)
    checked = 0
    for sym in _simple_upper_modes(name, 16):
        evaluated.clear()
        layer_potential_blocks(sym)
        assert sum(evaluated) <= 32, (sym.m, evaluated)
        checked += bool(evaluated)
    assert checked >= 16


def _stuck_roots_spec(shift=0.0, double=False):
    # at mode 0, a(xi) = prod (i xi - i xi_j) over three simple roots, or
    # with the first one double, and the lower root lies inside every
    # circle around both upper ones; a shift of the order-0 term by
    # shift * i m moves the roots of mode m
    roots = [-3.35 + 5.26j] * (1 + double) + [7.35 + 1.32j, 0.82 - 2.08j]
    coeffs = np.poly([1j * x for x in roots])
    k = len(roots)
    terms = {(k - j, (0,)): [[complex(c)]] for j, c in enumerate(coeffs)}
    if shift:
        terms[(0, (1,))] = [[shift]]
    return build_gallery("custom", n=2, r=1, k=k, terms=terms), roots


def test_cross_check_sums_local_circles_where_no_circle_separates_the_roots(monkeypatch):
    spec, roots = _stuck_roots_spec()
    sym = mode_symbol(spec, 0)
    found = characteristic_roots(sym)
    assert sorted(half for _, _, half in found) == ["lower", "upper", "upper"]
    assert max(min(abs(x - r) for x, _, _ in found) for r in roots) < 1e-12
    upper = [x for x, _, half in found if half == "upper"]
    with pytest.raises(EigenvalueOnContour):
        enclosing_circle(upper, excluded=[x for x, _, half in found if half == "lower"])
    unchecked = _unchecked_projector(sym)
    oracle = spectral_split(companion_matrix(sym)).projector
    assert np.abs(unchecked - oracle).max() <= 1e-12 * (1.0 + np.abs(oracle).max())
    # the check runs one circle per upper root, on one grid, and never
    # moves the residue blocks of these simple roots
    calls = _counting(monkeypatch, "_stacked_quadrature")
    assert np.array_equal(calderon_projector(sym).matrix, unchecked)
    assert len(calls) == 1
    # in a stack, the check circles of every mode share the one
    # quadrature, whether or not a circle separates its upper roots (here
    # at m > 0)
    mixed = _stuck_roots_spec(shift=30.0)[0]
    modes = np.arange(-3, 4)[:, None]
    R = calderon_projector_stack(mixed, modes)
    assert len(calls) == 2
    assert np.array_equal(R[3], unchecked)
    for m, row in zip(modes, R):
        single = mode_symbol(mixed, m)
        assert np.array_equal(_unchecked_projector(single), row)
        oracle = spectral_split(companion_matrix(single)).projector
        assert np.abs(row - oracle).max() <= 1e-12 * (1.0 + np.abs(oracle).max())
    # and the summed circles still catch a wrong residue, naming the mode
    monkeypatch.setattr(projector, "_adjugate", lambda M: 2 * _adjugate(M))
    with pytest.raises(CalderonError, match=r"^at mode -1 the layer-potential routes disagree"):
        calderon_projector(mode_symbol(spec, -1))


@pytest.mark.parametrize("case", ["stuck", "lone", "alone"])
def test_cross_check_integrates_its_own_circle_at_a_double_root(case, monkeypatch):
    # stuck: no circle holds both upper roots apart from the lower one;
    # lone: the double root i is the only upper root, and -i the lower one;
    # alone: (d_n + 1) on two components, whose exact double root i is the
    # only root, so its circle excludes nothing
    if case == "stuck":
        spec = _stuck_roots_spec(double=True)[0]
        want = [("lower", 1), ("upper", 1), ("upper", 2)]
    elif case == "lone":
        spec = _product_spec([-1.0, -1.0, 1.0])
        want = [("lower", 1), ("upper", 2)]
    else:
        eye = np.eye(2)
        spec = build_gallery("custom", n=2, r=2, k=1, terms={(1, (0,)): eye, (0, (0,)): eye})
        want = [("upper", 2)]
    sym = mode_symbol(spec, 0)
    found = characteristic_roots(sym)
    assert sorted((half, mult) for _, mult, half in found) == want
    unchecked = _unchecked_projector(sym)
    oracle = spectral_split(companion_matrix(sym)).projector
    assert np.abs(unchecked - oracle).max() <= 1e-12 * (1.0 + np.abs(oracle).max())
    # one quadrature: the residue route's local circle at the double root,
    # then one check circle per upper cluster, none of which is the
    # residue route's circle
    circles = []
    real = projector._stacked_quadrature

    def spied(f, centers, radii, *args):
        circles.append((centers.copy(), radii.copy()))
        return real(f, centers, radii, *args)

    monkeypatch.setattr(projector, "_stacked_quadrature", spied)
    assert np.array_equal(calderon_projector(sym).matrix, unchecked)
    assert len(circles) == 1
    centers, radii = circles[0]
    assert len(centers) == 1 + sum(half == "upper" for half, _ in want)
    check = list(zip(centers[1:], radii[1:]))
    assert all(
        abs(c - centers[0]) > radii[0] or abs(r - radii[0]) > 1e-3 * radii[0] for c, r in check
    ), (centers, radii)

    # so a wrong value of the residue route's local circle fails the check
    def wrong_local(f, centers, radii, *args):
        values, counts = real(f, centers, radii, *args)
        values[0] *= 1.0 + 1e-6
        return values, counts

    monkeypatch.setattr(projector, "_stacked_quadrature", wrong_local)
    with pytest.raises(RoutesDisagree, match=r"^at mode 0 the layer-potential routes disagree"):
        calderon_projector(mode_symbol(spec, 0))


def test_each_check_circle_fails_the_mode_that_owns_it(monkeypatch):
    # in a selfadjoint_double(dirac3) stack some modes have one upper root
    # cluster and some two, whose check circles add up; a wrong value on
    # one circle fails the mode that owns it, not a neighbour in the stack
    spec = selfadjoint_double(build_gallery("dirac3", mu=1, v=0.3))
    lattice = mode_lattice(3, 4)
    modes = lattice[~defect_screen(spec, lattice)[2]]
    _, _, mult, half = _root_clusters(np.linalg.eigvals(companion_stack(spec, modes)), modes)
    owner = np.nonzero(mult * (half > 0))[0]  # the check circles' modes: the last circles
    two = np.flatnonzero(owner[1:] == owner[:-1])  # the first of a mode's two circles
    assert 0 < two.size < len(modes)
    real = projector._stacked_quadrature
    c = two[two.size // 2]
    assert owner[c - 1] < owner[c] < owner[c + 2]  # a neighbour on each side
    for circle in (0, c - 1, c, c + 1, c + 2, len(owner) - 1):

        def wrong(f, centers, radii, *args, circle=circle):
            values, counts = real(f, centers, radii, *args)
            values[len(values) - len(owner) + circle] *= 1.0 + 1e-6
            return values, counts

        monkeypatch.setattr(projector, "_stacked_quadrature", wrong)
        with pytest.raises(RoutesDisagree) as info:
            calderon_projector_stack(spec, modes)
        assert info.value.index == owner[circle]
        assert str(info.value).startswith(f"at mode {mode_key(modes[owner[circle]])} the layer")


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_one_checked_call_makes_one_linalg_call_per_stage(name, monkeypatch):
    # on a fresh symbol: one solve for its companion, one eigvals, one det
    # of A_k and one of the cofactor minors (none at r = 1, whose one
    # cofactor is 1), and one inv on the cross-check's nodes; the minus
    # side reuses the kept plus matrix and calls none
    spec = build_gallery(name, **GALLERY[name])
    m = next(
        sym.m for sym in _simple_upper_modes(name, 4)
        if any(half == "upper" for _, _, half in characteristic_roots(sym))
    )
    sym = mode_symbol(spec, m)
    calls = dict.fromkeys(("eigvals", "solve", "det", "inv"), 0)
    for fn in calls:

        def counted(*args, _fn=fn, _real=getattr(np.linalg, fn), **kw):
            calls[_fn] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(np.linalg, fn, counted)
    calderon_projector(sym, "plus")
    calderon_projector(sym, "minus")
    assert calls == {"eigvals": 1, "solve": 1, "det": 2 if spec.r > 1 else 1, "inv": 1}


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_the_layer_route_takes_its_eigenvalues_from_lapack(name, monkeypatch):
    # the sign route's closed-form 2x2 eigenvalues never reach the layer
    # route: one checked N=1 call, the unchecked blocks, the root table
    # and the stack each run one LAPACK eigvals and no _kernels sweep
    spec = build_gallery(name, **GALLERY[name])
    m = next(
        sym.m for sym in _simple_upper_modes(name, 4)
        if any(half == "upper" for _, _, half in characteristic_roots(sym))
    )
    calls, real = [], np.linalg.eigvals

    def counted(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    def closed(*args, **kw):
        raise AssertionError("a closed-form eigenvalue sweep ran")

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    monkeypatch.setattr(_kernels, "eigvals_sweep", closed)
    runs = (
        lambda: calderon_projector(mode_symbol(spec, m)),
        lambda: layer_potential_blocks(mode_symbol(spec, m), cross_check=False),
        lambda: characteristic_roots(mode_symbol(spec, m)),
        lambda: calderon_projector_stack(spec, np.atleast_1d(m)[None]),
    )
    for run in runs:
        calls.clear()
        run()
        assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_one_mode_builds_one_companion_and_runs_one_eigvals(name, monkeypatch):
    spec = build_gallery(name, **GALLERY[name])
    m = next(
        sym.m for sym in _simple_upper_modes(name, 4)
        if any(half == "upper" for _, _, half in characteristic_roots(sym))
    )
    sym = mode_symbol(spec, m)
    reference = companion_stack(spec, [m])[0]
    builds, eigvals, evaluated = [], [], []

    def counted(fn, calls):
        def wrapped(*args, **kw):
            calls.append(1)
            return fn(*args, **kw)

        return wrapped

    for module in (symbols, projector):
        monkeypatch.setattr(module, "_companion", counted(symbols._companion, builds))
    monkeypatch.setattr(np.linalg, "eigvals", counted(np.linalg.eigvals, eigvals))
    real = projector._stacked_quadrature

    def quadrature(f, *args, **kw):
        def g(z, rows):
            evaluated.append(z.size)
            return f(z, rows)

        return real(g, *args, **kw)

    monkeypatch.setattr(projector, "_stacked_quadrature", quadrature)
    rp = calderon_projector(sym, "plus").matrix
    calderon_projector(sym, "minus")
    C = companion_matrix(sym)
    assert len(evaluated) == 1 and evaluated[0] <= 32, evaluated
    assert (len(builds), len(eigvals)) == (1, 1)
    # companion_matrix hands out copies of the one the route used
    assert np.array_equal(C, reference)
    C[:] = 0.0
    assert np.array_equal(companion_matrix(sym), reference)
    assert len(builds) == 1
    assert np.array_equal(calderon_projector(sym, "plus").matrix, rp)


def _criterion_one_stacks():
    for spec, cutoff in _acceptance_specs():
        lattice = mode_lattice(spec.n, cutoff)
        yield spec, lattice[~defect_screen(spec, lattice)[2]]


def test_stacked_projector_is_the_sign_projector_and_each_single_mode_row():
    # third route: the batched sign-iteration projector of the companion stack
    for spec, modes in _criterion_one_stacks():
        R = calderon_projector_stack(spec, modes, "plus")
        P = stable_projector_sweep(companion_stack(spec, modes))
        gap = np.abs(R - P).max(axis=(1, 2)) / (1.0 + np.abs(P).max(axis=(1, 2)))
        assert gap.max() <= 1e-10, spec.name
        minus = calderon_projector_stack(spec, modes, "minus")
        assert np.array_equal(minus, np.eye(R.shape[-1]) - R)
        for m, row in zip(modes, R):
            assert np.array_equal(calderon_projector(mode_symbol(spec, m)).matrix, row)


def _double_root_family():
    # (d_n + 1)^2 - d_tau^2: roots i + m and i - m, one double root at m = 0
    terms = {(2, (0,)): [[1.0]], (1, (0,)): [[2.0]], (0, (0,)): [[1.0]], (0, (2,)): [[-1.0]]}
    return build_gallery("custom", n=2, r=1, k=2, terms=terms)


def test_stack_takes_the_local_circle_at_a_double_root(monkeypatch):
    spec = _double_root_family()
    modes = np.arange(-3, 4)[:, None]
    _, _, mult, _ = _root_clusters(np.linalg.eigvals(companion_stack(spec, modes)), modes)
    assert mult.max(axis=1).tolist() == [1, 1, 1, 2, 1, 1, 1]
    R = calderon_projector_stack(spec, modes)
    assert np.abs(R - np.eye(2)).max() < 1e-8  # every solution decays
    # a stack sums the local circle on its own node levels, so the double
    # root's row agrees with the single-mode call to rounding, not bitwise
    for m, row in zip(modes, R):
        single = calderon_projector(mode_symbol(spec, m)).matrix
        assert np.abs(single - row).max() <= 1e-13
        assert np.array_equal(single, row) or m[0] == 0
    # the double root's local circle and every mode's cross-check circle
    # are one stack in one quadrature call
    calls = _counting(monkeypatch, "_stacked_quadrature")
    calderon_projector_stack(spec, modes)
    assert len(calls) == 1


def test_stack_names_its_defect_mode():
    spec = build_gallery("dbar", mu=0.0)  # real root at m = 0 only
    with pytest.raises(DefectMode) as info:
        calderon_projector_stack(spec, np.array([[3], [-2], [0], [1]]))
    assert info.value.mode == 0
    with pytest.raises(SpecError):
        calderon_projector_stack(spec, np.array([3, 1]))


def test_nan_residues_fail_the_cross_check(monkeypatch):
    monkeypatch.setattr(projector, "_adjugate", lambda M: np.full(M.shape, np.nan, dtype=complex))
    sym = mode_symbol(build_gallery("laplace_mass", mu=1), 3)  # simple roots only
    with pytest.raises(CalderonError, match=r"^at mode 3 the layer-potential routes disagree"):
        calderon_projector(sym)


def test_stack_names_the_mode_whose_routes_disagree(monkeypatch):
    # each mode of laplace_mass has one simple upper root and so one check
    # circle; a wrong quadrature value on the third fails that mode alone
    real = projector._stacked_quadrature

    def perturbed(f, centers, radii, *args):
        values, counts = real(f, centers, radii, *args)
        values[2] *= 1.0 + 1e-6
        return values, counts

    monkeypatch.setattr(projector, "_stacked_quadrature", perturbed)
    with pytest.raises(RoutesDisagree, match=r"^at mode 3 the layer-potential routes disagree") as info:
        calderon_projector_stack(build_gallery("laplace_mass", mu=1), np.array([[1], [2], [3]]))
    assert info.value.index == 2 and isinstance(info.value, CalderonError)


def test_stack_names_the_mode_whose_circle_did_not_converge(monkeypatch):
    # dbar's root i (mu - m) is upper for m < mu only, so m = 3 has no
    # circle and the stack's only circle is that of m = -2, its second row
    monkeypatch.setattr(contour, "QUAD_TOL", 1e-30)
    with pytest.raises(ContourNotConverged, match=r"^at mode -2 ") as info:
        calderon_projector_stack(build_gallery("dbar", mu=0.5), np.array([[3], [-2]]))
    assert info.value.index == 1


def _product_spec(zeros, r=1, coupling=None):
    """``prod (d_n - c)`` over the zeros ``c``, whose roots are ``xi = -i c``,
    at every mode.  With ``r = 2`` the symbol is ``V diag(p, q) V^-1``, where
    ``p`` is that product and ``q`` the one over the zeros ``coupling``, of
    the same order; a fixed complex ``V`` couples the two components."""
    k = len(zeros)
    if r == 2:
        V = np.array([[1.0, 0.5 - 1j], [0.3j, 2.0]])
        diag = np.array([np.poly(zeros), np.poly(coupling)])
        coeffs = np.einsum("ij,jq,jk->qik", V, diag, np.linalg.inv(V))
    else:
        coeffs = np.poly(zeros)[:, None, None]  # highest order first
    terms = {(k - j, (0,)): c for j, c in enumerate(coeffs)}
    return build_gallery("custom", n=2, r=r, k=k, terms=terms)


def _roots_of(xi):
    """:func:`_root_clusters` of rows of roots, each row one mode 0."""
    xi = np.array(xi)
    return _root_clusters(1j * xi, np.zeros((len(xi), 1)))


def _means_of(xi):
    """:func:`characteristic_roots` at mode 0 of a stand-in symbol whose
    companion matrix is ``diag(i xi)``, so its eigenvalues are ``i xi``
    exactly."""
    return characteristic_roots(SimpleNamespace(_comp=np.diag(1j * np.array(xi)), m=(0,)))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_a_split_k_fold_root_is_one_cluster(k):
    # rounding splits the k-fold root i about eps^(1/k) apart, wider than
    # 1e-7 for k >= 3, and linkage joins the split roots again
    sym = mode_symbol(_product_spec([-1.0] * k + [2.0]), 0)
    lam = np.linalg.eigvals(sym._comp[None])  # the eigenvalues characteristic_roots sees
    near = -1j * lam[0][np.abs(-1j * lam[0] - 1j) < 0.5]
    assert len(near) == k and (np.abs(near[:, None] - near).max() > 1e-7 or k == 2)
    got = sorted(characteristic_roots(sym), key=lambda t: t[1])
    assert [(m, h) for _, m, h in got] == [(1, "lower"), (k, "upper")]
    assert abs(got[0][0] + 2j) < 1e-12 and abs(got[1][0] - 1j) < 1e-12
    _, reach, mult, half = _root_clusters(lam, np.zeros((1, 1)))
    first = mult[0] > 0
    assert sorted(zip(mult[0][first].tolist(), half[0][first].tolist())) == [(1, -1.0), (k, 1.0)]
    assert reach[0].sum() == k * k + 1  # the k split roots share one cluster


def test_a_chain_linked_only_through_its_middle_root_is_one_cluster():
    # the nearest upper root to the real axis is at distance 1, so roots
    # link within 0.25; the chain's ends lie 0.4 apart and link only
    # through the middle one, which sorts after both
    chain = [-0.2 + 1j, -0.1 + 1.2j, -0.2 + 1.4j]
    _, reach, mult, _ = _roots_of([chain + [-3j]])
    assert mult[0].tolist() == [3, 0, 0, 1]  # sorted: the ends, the middle, then -3i
    assert reach[0, :3, :3].all() and not reach[0, :3, 3].any()  # each root in the cluster
    (mean, three, upper), (lone, one, lower) = _means_of(chain + [-3j])
    assert (three, upper, lone, one, lower) == (3, "upper", -3j, 1, "lower")
    assert abs(mean - sum(chain) / 3) < 1e-15


def test_roots_in_different_half_planes_never_share_a_cluster():
    # 2e-6 apart across the axis, each 1e-6 from it: far beyond 1e-10,
    # so no defect, and a quarter of 1e-6 keeps the pair apart
    xi = [3 + 1e-6j, 3 - 1e-6j, 3 + 1e-6j + 2e-7]
    _, _, mult, half = _roots_of([xi])
    assert mult[0].tolist() == [1, 2, 0]
    assert half[0].tolist() == [-1.0, 1.0, 1.0]
    (lone, one, lower), (mean, two, upper) = _means_of(xi)
    assert (lone, one, lower, two, upper) == (3 - 1e-6j, 1, "lower", 2, "upper")
    assert abs(mean - (3 + 1e-6j + 1e-7)) < 1e-15


def test_same_half_roots_just_beyond_the_link_share_stay_single():
    far = 1.0  # the upper roots' least distance to the real axis
    for dx, want in ((0.25 * (1 + 1e-9), [1, 1, 1]), (0.25 * (1 - 1e-9), [1, 2, 0])):
        _, _, mult, _ = _roots_of([[1j, 1j + dx * far, -2j]])
        assert mult[0].tolist() == want, dx
    # each half links at its own distance to the axis: the lower roots at
    # 0.25 * 4, the upper ones at 0.25 * 1
    _, _, mult, _ = _roots_of([[-4j, -4j + 0.9, 1j, 1j + 0.3]])
    assert mult[0].tolist() == [2, 1, 1, 0]  # sorted: -4i, i, 0.3 + i, 0.9 - 4i


def _route_and_schur(sym):
    """The unchecked residue route's plus projector and the Schur one."""
    return _unchecked_projector(sym), spectral_split(companion_matrix(sym)).projector


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("upper", [True, False])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_roots_of_multiplicity_up_to_five_give_the_schur_projector(k, upper, r):
    # a k-fold root i (or -i) and one simple root in the other half; with
    # r = 2 a coupled component adds simple roots in both halves
    sign = 1.0 if upper else -1.0
    spec = _product_spec([-sign] * k + [2.0 * sign], r, [3.0, -4.0, 5.0, -6.0, 7.0, -8.0][: k + 1])
    sym = mode_symbol(spec, 0)
    found = characteristic_roots(sym)
    assert (k, "upper" if upper else "lower") in [(mult, half) for _, mult, half in found]
    R, P = _route_and_schur(sym)
    assert np.abs(R - P).max() <= 1e-10 * (1.0 + np.abs(P).max())
    checked = calderon_projector(sym).matrix  # the cross-check passes
    assert np.abs(checked - P).max() <= 1e-10 * (1.0 + np.abs(P).max())


def test_a_linked_pair_beside_a_simple_root_gives_the_schur_projector():
    # the upper roots 2i -+ 0.12 link (0.24 < 0.25 * 1, the root i being
    # nearest the axis), and the simple root 2.26i lies 0.26 from their
    # mean: the local circle takes a radius between 0.12 and 0.26
    xi = np.array([1j, 2j - 0.12, 2j + 0.12, 2.26j, -2j])
    sym = mode_symbol(_product_spec(1j * xi), 0)
    assert (2, "upper") in [(m, h) for _, m, h in characteristic_roots(sym)]
    R, P = _route_and_schur(sym)
    assert np.abs(R - P).max() <= 1e-10 * (1.0 + np.abs(P).max())
    assert np.array_equal(calderon_projector(sym).matrix, R)  # the cross-check passes


@pytest.mark.parametrize("size, lower", [(3, -0.5j), (4, -1j)])
def test_a_chain_of_distinct_upper_roots_passes_the_cross_check(size, lower):
    # upper roots 0.24 apart along Im xi = 1 link into one cluster whose
    # ends lie 0.24 (three roots) or 0.36 (four) from its mean, so the
    # check's circle must enclose the roots, not only their mean
    xi = np.append(1j + 0.24 * np.arange(size), lower)
    sym = mode_symbol(_product_spec(1j * xi), 0)
    assert (size, "upper") in [(m, h) for _, m, h in characteristic_roots(sym)]
    R, P = _route_and_schur(sym)
    assert np.abs(R - P).max() <= 1e-10 * (1.0 + np.abs(P).max())
    assert np.array_equal(calderon_projector(sym).matrix, R)


def _ring_spec():
    """Eight upper roots 0.38 apart on a circle of radius 0.5 around 2.25i,
    which link within 0.25 * 1.75 (1.75 is the ring's distance to the
    real axis), the upper root 2.25i + 0.5 m and the lower root -2i: at
    mode m, ``a = q(i xi) (i xi + 2.25 - 0.5 i m)``, with ``q`` the
    product over the ring and the lower root."""
    ring = 2.25j + 0.5 * np.exp(1j * np.pi / 8 * np.arange(1, 16, 2))
    spec = _product_spec(np.append(1j * ring, [-2.25, 2.0]))
    q = np.poly(np.append(1j * ring, 2.0))
    terms = {**spec.terms, **{(9 - j, (1,)): [[-0.5 * c]] for j, c in enumerate(q)}}
    return build_gallery("custom", n=2, r=1, k=10, terms=terms)


def test_a_cluster_around_another_root_raises_naming_its_mode():
    # at m = 0 the ninth upper root sits at the ring's mean, 0.5 from the
    # ring, so no circle around the ring excludes it
    spec = _ring_spec()
    sym = mode_symbol(spec, 0)
    found = sorted((half, mult) for _, mult, half in characteristic_roots(sym))
    assert found == [("lower", 1), ("upper", 1), ("upper", 8)]
    for cross_check in (True, False):
        with pytest.raises(EigenvalueOnContour, match=r"^at mode 0 "):
            layer_potential_blocks(sym, cross_check=cross_check)
    # at m = 1 the ninth root joins the ring's cluster, and at m = 2 it
    # lies 1 from the ring's mean, outside the ring.  These roots are ill
    # conditioned: against 60-digit residues, the routes are off by
    # 7e-8 and 9e-8, the Schur projector by 1e-8 and 7e-9
    modes = np.array([[1], [2]])
    R = calderon_projector_stack(spec, modes)
    P = stable_projector_sweep(companion_stack(spec, modes))
    assert np.abs(R - P).max() <= 1e-6 * (1.0 + np.abs(P).max())
    with pytest.raises(EigenvalueOnContour, match=r"^at mode 0 ") as info:
        calderon_projector_stack(spec, np.array([[1], [0], [2]]))
    assert info.value.index == 1
    # two upper clusters at m = 2 and one at m = 1 come first, so the
    # stuck cluster's row among all clusters is not its mode's row
    with pytest.raises(EigenvalueOnContour, match=r"^at mode 0 ") as info:
        calderon_projector_stack(spec, np.array([[2], [1], [0]]))
    assert info.value.index == 2


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_selfadjoint_doubles_give_the_schur_projector(name):
    spec = selfadjoint_double(build_gallery(name, **GALLERY[name]))
    modes = np.array(sample_modes(spec, 12, count=40, seed=5))
    modes = modes[~defect_screen(spec, modes)[2]]
    for m in modes:
        sym = mode_symbol(spec, m)
        R, P = _route_and_schur(sym)
        assert np.abs(R - P).max() <= 1e-10 * (1.0 + np.abs(P).max()), m
        calderon_projector(sym)  # the cross-check passes
    R = calderon_projector_stack(spec, modes)
    P = stable_projector_sweep(companion_stack(spec, modes))
    assert (np.abs(R - P).max(axis=(1, 2)) <= 1e-10 * (1.0 + np.abs(P).max(axis=(1, 2)))).all()


def test_root_table_flags_the_modes_defect_screen_flags():
    # the same predicate on the same eigenvalues: per mode, the root table
    # (_root_clusters) raises DefectMode exactly where defect_screen marks a defect
    cases = [(spec, mode_lattice(spec.n, cutoff)) for spec, cutoff in _acceptance_specs()]
    cases.append((build_gallery("dbar", mu=0.0), mode_lattice(2, 8)))  # a defect at m = 0
    # a root pair 1e-8 above and below the real axis, one in each coupled
    # component: no defect for either, though their mean is real
    cases.append((_product_spec([2j - 1e-8], 2, [2j + 1e-8]), np.zeros((1, 1), dtype=int)))
    flagged = 0
    for spec, modes in cases:
        _, lam, bad = defect_screen(spec, modes)
        for row, mode, want in zip(lam, modes, bad):
            try:
                _root_clusters(row[None], mode[None])
            except DefectMode as exc:
                assert want and exc.mode == mode_key(mode)
            else:
                assert not want, mode
        flagged += int(bad.sum())
    assert flagged >= 1
    xi = -1j * defect_screen(*cases[-1])[1][0]
    xi = xi[np.argsort(xi.imag)]  # their real parts are 2 to rounding, in either order
    assert np.abs(xi - [2 - 1e-8j, 2 + 1e-8j]).max() < 1e-14


def _cofactor_adjugate(M):
    d = M.shape[0]
    adj = np.empty((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            minor = np.delete(np.delete(M, i, axis=0), j, axis=1)
            adj[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_adjugate_matches_cofactors(d):
    rng = np.random.default_rng(d)
    full = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    u, s, vh = np.linalg.svd(full)
    s[:, -1] = 0.0  # rank d - 1: no inverse, but a rank-one adjugate
    deficient = (u * s[:, None, :]) @ vh
    mats = np.concatenate([full, deficient])
    adj = _adjugate(mats)
    assert adj.shape == mats.shape
    for M, got in zip(mats, adj):
        assert np.abs(got - _cofactor_adjugate(M)).max() <= 1e-12 * (1 + np.abs(M).max()) ** d
        assert np.abs(M @ got - np.linalg.det(M) * np.eye(d)).max() <= 1e-12 * (1 + np.abs(M).max()) ** d
    if d > 1:
        assert all(np.linalg.matrix_rank(a, tol=1e-8) == 1 for a in adj[3:])


@pytest.mark.parametrize("name", ["dbar", "laplace_mass", "dirac2"])
def test_transversality_uniform_in_weighted_metric(name):
    spec = build_gallery(name, **GALLERY[name])
    worst = np.pi
    for m in range(-64, 65):
        sym = mode_symbol(spec, (m,))
        try:
            split = spectral_split(companion_matrix(sym))
        except DefectMode:
            continue
        fp, fm = split.stable, split.unstable
        if fp.shape[1] == 0 or fm.shape[1] == 0:
            continue
        w = _full_weight((m,), spec, 0.5)
        qp = _weighted_angle_frames(fp, w)
        qm = _weighted_angle_frames(fm, w)
        cosmax = np.linalg.svd(qp.conj().T @ qm, compute_uv=False).max()
        worst = min(worst, np.arccos(min(1.0, cosmax)))
    assert worst > 0.2


# ---------------------------------------------------------------------------
# weights and orthogonal projectors


def test_sobolev_weight_values():
    exps, w = mode_weights([(0,)], 1, 0.5)
    assert exps.tolist() == [0.5] and w[0] == pytest.approx([1.0])
    exps, w = mode_weights([(2,)], 2, 0.5)
    assert exps.tolist() == [1.5, 0.5] and w[0] == pytest.approx([5.0**1.5, 5.0**0.5])
    assert mode_weights([(0,)], 2, 1.0)[1][0] == pytest.approx([1.0, 1.0])
    assert mode_weights([(0,), (2,), (-3,)], 2, 1.0)[1].shape == (3, 2)
    with pytest.raises(SpecError):
        mode_weights([(0,)], 1, -1.0)


@pytest.mark.parametrize(
    "name, params, alpha",
    [
        ("dbar", {"mu": 0.5}, 0.5),
        ("laplace_mass", {"mu": 2}, 0.8),
        ("dirac2", {"mu": 1, "v": 0.3}, 1.7),
        ("dirac3", {"mu": 1, "v": 0.3}, 0.5),
        ("dirac3", {"mu": 1, "v": 0.3}, 2.25),
        ("order_three", {}, 0.3),
        ("laplace_double", {}, 1.0),
    ],
)
def test_stacked_weights_match_single_mode_weights(name, params, alpha):
    if name == "order_three":
        spec = _random_operator(3, 3)
    elif name == "laplace_double":
        spec = selfadjoint_double(build_gallery("laplace_mass", mu=1))
    else:
        spec = build_gallery(name, **params)
    pt = assemble_point(spec, 12, alpha=alpha)
    single = np.array([_full_weight(m, spec, alpha) for m in pt.modes])
    assert pt.weights.shape == (len(pt.modes), spec.r * spec.k)
    np.testing.assert_array_max_ulp(pt.weights, single, maxulp=1)


def test_weights_decrease_along_components():
    w = mode_weights([(3,)], 3, 0.7)[1][0]
    assert all(np.diff(w) < 0)


def test_orthogonal_projector_full_and_zero_range():
    db = build_gallery("dbar", mu=0.5)
    P = orthogonal_projector(mode_symbol(db, 0), "plus", 0.5)
    assert P.matrix[0, 0] == pytest.approx(1.0)
    P = orthogonal_projector(mode_symbol(db, 3), "plus", 0.5)
    assert P.matrix[0, 0] == 0.0


def test_orthogonal_projector_equal_weights_match_flat_projector():
    lap = build_gallery("laplace_mass", mu=1)
    sym = mode_symbol(lap, 0)
    P = orthogonal_projector(sym, "plus", 0.5).matrix  # weights (1, 1) at m = 0
    expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.abs(P - expected).max() < 1e-12


def test_orthogonal_projector_gram_formula_oracle():
    lap = build_gallery("laplace_mass", mu=2)
    sym = mode_symbol(lap, 2)
    W = np.diag(_full_weight((2,), lap, 0.5))
    for side, kind in (("plus", "Pplus"), ("minus", "Pminus")):
        P = orthogonal_projector(sym, side, 0.5)
        assert P.kind == kind
        P = P.matrix
        F = _schur_frame(sym, side)
        G = F @ np.linalg.inv(F.conj().T @ W @ F) @ F.conj().T @ W
        assert np.abs(P - G).max() < 1e-12
        # weighted self-adjointness and idempotency
        assert np.abs(W @ P - P.conj().T @ W).max() < 1e-10
        assert np.abs(P @ P - P).max() < 1e-10
        # same range as the parallel projector: P R = R and R P = P
        R = calderon_projector(sym, side).matrix
        assert np.abs(P @ R - R).max() < 1e-8
        assert np.abs(R @ P - P).max() < 1e-8


@pytest.mark.parametrize(
    "name, params, m, side, alpha",
    [
        ("laplace_mass", dict(mu=2), (3,), "plus", 0.5),  # the two golden reports
        ("dirac3", dict(mu=1, v=0.3), (2, -3), "minus", 1.7),
        ("laplace_mass", dict(mu=1), (-40,), "minus", 0.5),  # |P| = 20
    ],
    ids=["laplace2_m3", "dirac3_m2_-3_minus_a1.7", "laplace1_m-40_minus"],
)
def test_orthogonal_projector_matches_the_gram_formula_to_50_digits(name, params, m, side, alpha):
    # the frame F is made of the companion matrix's eigenvectors of the
    # side, at 50 digits, so the reference favors neither the sign nor
    # the Schur route
    mpmath = pytest.importorskip("mpmath")
    spec = build_gallery(name, **params)
    sym = mode_symbol(spec, m)
    with mpmath.workdps(50):
        E, V = mpmath.eig(mpmath.matrix(companion_matrix(sym).tolist()))
        cols = [j for j in range(len(E)) if (mpmath.re(E[j]) < 0) == (side == "plus")]
        Fm = mpmath.matrix([[V[i, j] for j in cols] for i in range(V.rows)])
        W = mpmath.diag([mpmath.mpf(float(x)) for x in _full_weight(m, spec, alpha)])
        ref = np.array((Fm * mpmath.inverse(Fm.H * W * Fm) * Fm.H * W).tolist(), dtype=complex)
    P = orthogonal_projector(sym, side, alpha).matrix
    assert np.abs(P - ref).max() <= 4 * np.finfo(float).eps * np.abs(ref).max()


def test_orthogonal_projector_checks_side_and_alpha_before_the_split(monkeypatch):
    sym = mode_symbol(build_gallery("laplace_mass", mu=2), 2)

    def sweep(mats):
        raise AssertionError("sign sweep ran")

    monkeypatch.setattr(_kernels, "stable_projector_sweep", sweep)
    for side in ("up", "Plus", None):
        with pytest.raises(SpecError, match="side must be plus or minus"):
            orthogonal_projector(sym, side, 0.5)
    for alpha in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(SpecError, match="alpha must be finite and positive"):
            orthogonal_projector(sym, "plus", alpha)
    with pytest.raises(AssertionError, match="sign sweep ran"):
        orthogonal_projector(sym, "plus", 0.5)


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("mu", [1, 0.5])
def test_orthogonal_projector_names_its_defect_mode(mu, side):
    # dbar(mu) has its root on the real axis at mode mu, integer or not
    with pytest.raises(DefectMode, match=f"mode {mu} ") as info:
        orthogonal_projector(mode_symbol(build_gallery("dbar", mu=mu), mu), side, 0.5)
    assert info.value.mode == mu and type(info.value.mode) is type(mu)


@pytest.mark.parametrize("name", [*sorted(GALLERY), "laplace_double"])
def test_schur_and_sign_frames_give_one_weighted_projector(name):
    if name == "laplace_double":
        spec = selfadjoint_double(build_gallery("laplace_mass", mu=1))
    else:
        spec = build_gallery(name, **GALLERY[name])
    # the Gram formula on the Schur frame, an oracle independent of the
    # sign sweep, over every retained mode
    point = assemble_point(spec, 8)
    for m, w in zip(point.modes, point.weights):
        sym = mode_symbol(spec, m)
        F = _schur_frame(sym, "plus")
        W = np.diag(w)
        want = F @ np.linalg.inv(F.conj().T @ W @ F) @ F.conj().T @ W
        got = orthogonal_projector(sym, "plus", 0.5).matrix
        assert np.abs(got - want).max() <= 1e-10 * (1.0 + np.abs(want).max())


def test_mass_one_laplacian_weighted_projector_collapses_to_flat():
    # s^2 = m^2 + 1 matches the weight ratio exactly, so the two sides
    # are weighted-orthogonal and P coincides with R for every mode
    lap = build_gallery("laplace_mass", mu=1)
    for m in (0, 2, 17):
        sym = mode_symbol(lap, m)
        P = orthogonal_projector(sym, "plus", 0.5).matrix
        R = calderon_projector(sym).matrix
        assert np.abs(P - R).max() < 1e-10


def _three_root_spec():
    # companion eigenvalues -1, -2, -3 and +1 at every mode: 3-dimensional
    # frames whose weights spread as (1 + m^2)^3; not elliptic, but accepted
    coeffs = (1.0, 5.0, 5.0, -5.0, -6.0)  # q = 4, ..., 0
    terms = {(q, (0,)): [[c]] for q, c in zip(range(4, -1, -1), coeffs)}
    return build_gallery("custom", n=2, r=1, k=4, terms=terms)


def test_one_gram_gate_on_both_weighted_frame_routes():
    spec = _three_root_spec()
    weighted = lambda m: orthogonal_projector(mode_symbol(spec, m), "plus", 0.5)
    with pytest.raises(IllConditionedFrame, match="at mode -1000 ") as info:
        assemble_point(spec, 1000)
    assert info.value.index == 0
    with pytest.raises(IllConditionedFrame, match="at mode 1000 "):
        weighted(1000)
    assert (assemble_point(spec, 300).dims == 3).all()
    for m in (-300, 300):
        weighted(m)


def test_principal_symbol_dependence_decay():
    sa = build_gallery("dirac2", mu=1, v=0)
    sb = build_gallery("dirac2", mu=1, v=0.3)
    ms = np.unique(np.geomspace(16, 256, 15).astype(int))
    norms = []
    for m in ms:
        pa = orthogonal_projector(mode_symbol(sa, int(m)), "plus", 0.5).matrix
        pb = orthogonal_projector(mode_symbol(sb, int(m)), "plus", 0.5).matrix
        sw = np.sqrt(_full_weight((int(m),), sa, 0.5))
        norms.append(np.linalg.norm((pa - pb) * (sw[:, None] / sw[None, :]), 2))
    assert max(m * v for m, v in zip(ms, norms)) < 1.0  # C/|m| bound
    slope = np.polyfit(np.log(ms), np.log(norms), 1)[0]
    assert slope < -0.9
    # the stacked route of acceptance criterion 10 reads the same norms
    rep = compare_points(assemble_point(sa, 256), assemble_point(sb, 256))
    stacked = rep.diff_norms[np.isin(rep.modes[:, 0], ms)]
    np.testing.assert_allclose(stacked, norms, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# growth fit


def test_growth_fit_laplace_staircase():
    lap = build_gallery("laplace_mass", mu=1)
    ms = np.unique(np.geomspace(16, 256, 25).astype(int))
    slopes = entry_growth_fit(lap, "plus", ms)
    assert np.abs(slopes - np.array([[0.0, -1.0], [1.0, 0.0]])).max() < 0.1


def test_growth_fit_dbar_constant_and_degenerate():
    db = build_gallery("dbar", mu=0.5)
    ms = np.unique(np.geomspace(16, 256, 10).astype(int))
    assert entry_growth_fit(db, "plus", [-int(m) for m in ms])[0, 0] == pytest.approx(0.0, abs=1e-6)
    assert np.isnan(entry_growth_fit(db, "plus", ms)[0, 0])  # zero block: NONE


def test_growth_fit_dirac_is_scalar_slope_zero():
    d2 = build_gallery("dirac2", mu=1, v=0)
    ms = np.unique(np.geomspace(16, 256, 10).astype(int))
    slopes = entry_growth_fit(d2, "plus", ms)
    assert slopes.shape == (1, 1)
    assert slopes[0, 0] == pytest.approx(0.0, abs=0.05)


def test_growth_fit_requires_a_decade():
    lap = build_gallery("laplace_mass", mu=1)
    with pytest.raises(SpecError):
        entry_growth_fit(lap, "plus", [16, 17, 18])


# ---------------------------------------------------------------------------
# defect scanning


def test_scan_defect_modes():
    assert scan_defect_modes(build_gallery("dirac2", mu=1, v=0), 8) == [-1, 0, 1]
    assert scan_defect_modes(build_gallery("dbar", mu=0.5), 8) == []
    assert scan_defect_modes(build_gallery("dirac3", mu=1, v=0), 4) == [(-1, 0), (0, 0), (1, 0)]


@pytest.mark.parametrize(
    "name, params, cutoff, expected",
    [
        ("dbar", {"mu": 2 + 1e-12}, 4, [2]),
        ("dbar", {"mu": 2 + 1e-9}, 4, []),
        ("dirac2", {"mu": 1, "v": 0}, 4, [-1, 0, 1]),
        ("twisted_dbar", {"mu": 0.5 + 1e-11, "d": 1.5}, 4, [2]),
        ("dirac3", {"mu": 1, "v": 0}, 3, [(-1, 0), (0, 0), (1, 0)]),
    ],
)
def test_one_defect_predicate_across_routes(name, params, cutoff, expected):
    spec = build_gallery(name, **params)
    raising = []
    for row in mode_lattice(spec.n, cutoff):
        try:
            characteristic_roots(mode_symbol(spec, row))
        except DefectMode:
            raising.append(mode_key(row))
    assert scan_defect_modes(spec, cutoff) == expected
    assert assemble_point(spec, cutoff).excluded == expected
    assert raising == expected


def test_mode_lattice_order_and_size():
    lat = mode_lattice(2, 3)
    assert lat.tolist() == [[-3], [-2], [-1], [0], [1], [2], [3]]
    lat = mode_lattice(3, 2)
    assert len(lat) == 25
    assert lat[0].tolist() == [-2, -2] and lat[-1].tolist() == [2, 2]


def _lifted(spec, n):
    """``spec`` itself at n = 2; at n = 3 the same symbol on the 2-torus,
    blind to the second tangential mode."""
    if n == 2:
        return spec
    terms = {(q, beta + (0,)): c for (q, beta), c in spec.terms.items()}
    return build_gallery("custom", n=3, r=spec.r, k=spec.k, terms=terms)


def _stack(first, n):
    """Modes with the first tangential components ``first``, and second
    component -1 at n = 3."""
    m = np.array(first)[:, None]
    return m if n == 2 else np.column_stack([m, np.full(len(m), -1)])


def _real_root(n, monkeypatch):
    modes = _stack([3, -2, 0, 1], n)  # dbar(0) has a real root at m = 0
    spec = _lifted(build_gallery("dbar", mu=0.0), n)
    return DefectMode, lambda: calderon_projector_stack(spec, modes), modes, 2


def _stuck_circle(n, monkeypatch):
    modes = _stack([2, 1, 0], n)  # no circle holds the ring apart at m = 0
    spec = _lifted(_ring_spec(), n)
    return EigenvalueOnContour, lambda: calderon_projector_stack(spec, modes), modes, 2


def _unconverged_circle(n, monkeypatch):
    monkeypatch.setattr(contour, "QUAD_TOL", 1e-30)
    modes = _stack([3, -2], n)  # dbar(0.5)'s only circle is that of m = -2
    spec = _lifted(build_gallery("dbar", mu=0.5), n)
    return ContourNotConverged, lambda: calderon_projector_stack(spec, modes), modes, 1


def _disagreeing_routes(n, monkeypatch):
    real = projector._stacked_quadrature

    def perturbed(f, centers, radii, *args):
        values, counts = real(f, centers, radii, *args)
        values[2] *= 1.0 + 1e-6  # laplace_mass: one check circle per mode
        return values, counts

    monkeypatch.setattr(projector, "_stacked_quadrature", perturbed)
    modes = _stack([1, 2, 3], n)
    spec = _lifted(build_gallery("laplace_mass", mu=1), n)
    return RoutesDisagree, lambda: calderon_projector_stack(spec, modes), modes, 2


def _lattice_failure(n, monkeypatch, cls):
    # the double of laplace_mass(0) has 2-dimensional frames and a defect
    # at every mode with m_1 = 0, ahead of the first mode with m_1 = 1,
    # which fails here: its lattice row is not its row among the retained
    spec = _lifted(selfadjoint_double(build_gallery("laplace_mass", mu=0)), n)
    cutoff = 2 if n == 2 else 1
    modes = mode_lattice(n, cutoff)
    i = int(np.argmax(modes[:, 0] == 1))
    j = i - np.count_nonzero(defect_screen(spec, modes)[2][:i])
    assert j < i
    if cls is SignIterationStalled:
        real = _kernels._sign

        def stalled(mats):
            sign, ok = real(mats)
            return sign, ok & (np.arange(len(ok)) != j)

        monkeypatch.setattr(_kernels, "_sign", stalled)
    else:
        monkeypatch.setattr(_kernels, "_frames_pass", lambda mats: np.arange(len(mats)) != j)
    return cls, lambda: assemble_point(spec, cutoff), modes, i


def _stalled_sweep(n, monkeypatch):
    return _lattice_failure(n, monkeypatch, SignIterationStalled)


def _singular_gram(n, monkeypatch):
    return _lattice_failure(n, monkeypatch, IllConditionedFrame)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "case",
    [_real_root, _stuck_circle, _unconverged_circle, _disagreeing_routes, _stalled_sweep,
     _singular_gram],
)
def test_each_per_mode_error_names_its_row_of_the_callers_stack(case, n, monkeypatch):
    cls, call, modes, i = case(n, monkeypatch)
    with pytest.raises(cls) as info:
        call()
    key = mode_key(modes[i])
    assert type(info.value) is cls
    assert info.value.index == i and info.value.mode == key
    assert str(info.value).startswith(f"at mode {key} ")


@pytest.mark.parametrize("n", [2, 3])
def test_one_defect_mode_reads_alike_on_every_projector_route(n):
    spec = _lifted(build_gallery("dbar", mu=1), n)  # a real root at m_1 = 1
    modes = _stack([1], n)
    sym = mode_symbol(spec, modes[0])
    key = mode_key(modes[0])
    routes = [
        lambda: calderon_projector(sym),
        lambda: calderon_projector_stack(spec, modes),
        lambda: orthogonal_projector(sym, "plus", 0.5),
    ]
    for route in routes:
        with pytest.raises(DefectMode) as info:
            route()
        assert info.value.mode == key and info.value.index == 0
        assert str(info.value).startswith(f"at mode {key} ")
