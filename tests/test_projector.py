import dataclasses

import numpy as np
import pytest

from calderon import projector
from calderon._kernels import stable_projector_sweep
from calderon.acceptance import _acceptance_specs
from calderon.errors import (
    CalderonError,
    ContourNotConverged,
    DefectMode,
    IllConditionedFrame,
    SingularBlock,
    SpecError,
)
from calderon.projector import (
    _adjugate,
    calderon_projector,
    calderon_projector_stack,
    cauchy_frame_oracle,
    companion_matrix,
    companion_stack,
    entry_growth_fit,
    invert_jump_operator,
    jump_operator,
    layer_potential_blocks,
    mode_lattice,
    orthogonal_projector,
    principal_angles,
    range_basis,
    scan_defect_modes,
    sobolev_weights,
)
from calderon.contour import characteristic_roots, root_table, spectral_split
from calderon.grassmann import assemble_point
from calderon.symbols import build_gallery, defect_screen, mode_key, mode_symbol, selfadjoint_double

from test_symbols import GALLERY, sample_modes


def _order_three():
    """A random order-3 rank-2 custom operator on the circle."""
    rng = np.random.default_rng(3)
    terms = {
        (q, (b,)): rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for q in range(4)
        for b in range(4 - q)
    }
    return build_gallery("custom", n=2, r=2, k=3, terms=terms)


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
        spec = _order_three()
    else:
        spec = build_gallery(name, **GALLERY[name])
    modes = sample_modes(spec, 9, count=20)
    stacked = companion_stack(spec, np.array(modes))
    for m, row in zip(modes, stacked):
        assert np.array_equal(companion_matrix(mode_symbol(spec, m)), row)
        assert np.array_equal(companion_stack(spec, np.array([m]))[0], row)


def test_oracle_frames():
    db = build_gallery("dbar", mu=0.5)
    assert cauchy_frame_oracle(mode_symbol(db, 0), "plus").dim == 1
    assert cauchy_frame_oracle(mode_symbol(db, 3), "plus").dim == 0
    lap = build_gallery("laplace_mass", mu=1)
    fr = cauchy_frame_oracle(mode_symbol(lap, 2), "plus")
    v = fr.matrix[:, 0]
    assert v[1] / v[0] == pytest.approx(-np.sqrt(5.0))
    # plus and minus dimensions fill the Cauchy space
    fm = cauchy_frame_oracle(mode_symbol(lap, 2), "minus")
    assert fr.dim + fm.dim == 2


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


def test_jump_operator_inverse_pattern():
    # k = 2 scalar with blocks A_1 = c, A_2 = 1
    c = 3.7
    A = np.array([[c, 1.0], [1.0, 0.0]], dtype=complex)
    X = invert_jump_operator(A, 1)
    assert np.abs(X - np.array([[0, 1], [1, -c]])).max() < 1e-14
    assert np.abs(A @ X - np.eye(2)).max() < 1e-13


def test_jump_operator_self_inverse_case():
    A = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
    assert np.abs(invert_jump_operator(A, 1) - A).max() < 1e-14


def test_jump_operator_inverse_random_order_three():
    rng = np.random.default_rng(2)
    blocks = {t: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for t in (1, 2, 3)}
    A = np.zeros((6, 6), dtype=complex)
    for q in range(3):
        for p in range(3 - q):
            A[2 * q : 2 * q + 2, 2 * p : 2 * p + 2] = blocks[q + p + 1]
    X = invert_jump_operator(A, 2)
    cond = np.linalg.cond(A)
    assert np.abs(A @ X - np.eye(6)).max() < 1e-12 * cond
    # anti-triangular: vanishes above the anti-diagonal
    assert np.abs(X[:2, :2]).max() < 1e-14
    assert np.abs(X[:2, 2:4]).max() < 1e-14
    assert np.abs(X[2:4, :2]).max() < 1e-14


def test_singular_top_block_rejected():
    A = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(SingularBlock):
        invert_jump_operator(A, 1)


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
        oracle = cauchy_frame_oracle(sym, "plus")
        ang = principal_angles(range_basis(rp), oracle.matrix)
        if len(ang):
            assert ang[0] < 1e-7
        # R+ is the spectral projector of the companion matrix
        sp = spectral_split(companion_matrix(sym))
        assert np.abs(rp - sp.projector).max() < 1e-8
        assert np.abs(rp - sp.projector).max() / (1.0 + np.abs(sp.projector).max()) <= 1e-10


def _range_basis_by_svd(M):
    # reference: the single-matrix formula range_basis had before it became
    # the N=1 call of orthonormal_range_sweep
    rank = int(round(float(np.trace(M).real)))
    if rank == 0:
        return np.zeros((M.shape[0], 0), dtype=complex)
    return np.linalg.svd(M)[0][:, :rank]


@pytest.mark.parametrize("d", range(1, 7))
def test_range_basis_is_the_stacked_range_sweep(d):
    rng = np.random.default_rng(40 + d)
    for rank in range(d + 1):
        for _ in range(5):
            V = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
            W = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
            P = V @ np.linalg.solve(W.conj().T @ V, W.conj().T)  # oblique projector
            got, ref = range_basis(P), _range_basis_by_svd(P)
            assert got.shape == ref.shape == (d, rank) and got.dtype == ref.dtype
            assert np.array_equal(got, ref)


def _counting(monkeypatch, name):
    """Count calls of a function that the projector module imported."""
    calls = []
    real = getattr(projector, name)

    def wrapped(*args, **kw):
        calls.append(kw)
        return real(*args, **kw)

    monkeypatch.setattr(projector, name, wrapped)
    return calls


def _principal_angles_smaller_side(F, G):
    # reference: principal_angles before it complemented its first frame,
    # as compare_points does; it complemented the smaller-dimensional one
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
        got, ref = principal_angles(F, G), _principal_angles_smaller_side(F, G)
        assert got.shape == (max(df, dg),)
        if df == dg:
            counts["equal"] += 1
            assert np.array_equal(got, ref)
        else:
            counts["unequal"] += 1
            low = ref < 1.5
            assert np.abs(got - ref)[low].max(initial=0.0) <= 1e-12
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


def test_checked_request_never_reuses_an_unchecked_route(monkeypatch):
    quadratures = _counting(monkeypatch, "contour_quadrature")
    sym = mode_symbol(build_gallery("laplace_mass", mu=1), 3)  # simple roots only
    unchecked = calderon_projector(sym, "plus", cross_check=False).matrix
    assert len(quadratures) == 0
    checked = calderon_projector(sym, "plus", cross_check=True).matrix
    assert len(quadratures) == 1
    calderon_projector(sym, "minus", cross_check=True)
    assert len(quadratures) == 1
    assert np.array_equal(checked, unchecked)


def _simple_upper_modes(name, cutoff):
    """Symbols of the lattice modes of a gallery spec whose upper roots
    are all simple (no defect, no multiple upper root)."""
    spec = build_gallery(name, **GALLERY[name])
    for m in mode_lattice(spec.n, cutoff):
        sym = mode_symbol(spec, m)
        roots = characteristic_roots(sym, allow_real=True)
        if all(half != "real" for _, _, half in roots) and all(
            mult == 1 for _, mult, half in roots if half == "upper"
        ):
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
    coeffs = np.poly(zeros)  # highest order first
    k = len(zeros)
    terms = {(k - j, (0,)): [[float(c)]] for j, c in enumerate(coeffs)}
    sym = mode_symbol(build_gallery("custom", n=2, r=1, k=k, terms=terms), 0)
    assert (2, "upper") in [(mult, half) for _, mult, half in characteristic_roots(sym)]
    checked = layer_potential_blocks(sym, cross_check=True)
    assert np.array_equal(checked, layer_potential_blocks(sym, cross_check=False))


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_cross_check_evaluates_at_most_32_nodes(name, monkeypatch):
    # the rate-optimal circle around a mode's upper roots converges fast
    # enough for a 16-node start, compared with its 16 midpoints
    evaluated = []
    real = projector.contour_quadrature

    def counted(f, contour, **kw):
        def g(z, rows):
            evaluated.append(z.size)
            return f(z, rows)

        return real(g, contour, **kw)

    monkeypatch.setattr(projector, "contour_quadrature", counted)
    checked = 0
    for sym in _simple_upper_modes(name, 16):
        evaluated.clear()
        layer_potential_blocks(sym)
        assert sum(evaluated) <= 32, (sym.m, evaluated)
        checked += bool(evaluated)
    assert checked >= 16


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
    _, mult, _ = root_table(np.linalg.eigvals(companion_stack(spec, modes)), modes)
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
    calls = _counting(monkeypatch, "contour_quadrature")
    calderon_projector_stack(spec, modes)
    assert len(calls) == 1


def test_stack_names_its_defect_mode():
    spec = build_gallery("dbar", mu=0.0)  # real root at m = 0 only
    with pytest.raises(DefectMode) as info:
        calderon_projector_stack(spec, np.array([[3], [-2], [0], [1]]))
    assert info.value.mode == (0,)
    with pytest.raises(SpecError):
        calderon_projector_stack(spec, np.array([3, 1]))


def test_nan_residues_fail_the_cross_check(monkeypatch):
    monkeypatch.setattr(projector, "_adjugate", lambda M: np.full(M.shape, np.nan, dtype=complex))
    sym = mode_symbol(build_gallery("laplace_mass", mu=1), 3)  # simple roots only
    with pytest.raises(CalderonError, match=r"disagree at mode \(3,\)"):
        calderon_projector(sym)


def test_stack_names_the_mode_whose_circle_did_not_converge(monkeypatch):
    # dbar's root i (mu - m) is upper for m < mu only, so m = 3 has no
    # circle and the stack's only circle is that of m = -2, its second row
    monkeypatch.setattr(projector, "_QUAD_TOL", 1e-30)
    with pytest.raises(ContourNotConverged, match=r"at mode \(-2,\)") as info:
        calderon_projector_stack(build_gallery("dbar", mu=0.5), np.array([[3], [-2]]))
    assert info.value.index == 1


def _greedy_clusters(xi):
    # reference: the grouping loop the root table replaced, which merges
    # each root, in (real, imag) order, into the first cluster whose mean
    # lies within 1e-7 (1 + max |xi|)
    tol = 1e-7 * (1.0 + np.abs(xi).max())
    clusters = []
    for z in xi[np.lexsort((xi.imag, xi.real))]:
        for c in clusters:
            if abs(z - c[0] / c[1]) <= tol:
                c[0] += z
                c[1] += 1
                break
        else:
            clusters.append([z, 1])
    return [(total / mult, mult) for total, mult in clusters]


def test_root_clusters_keep_the_greedy_grouping_at_its_edges():
    rng = np.random.default_rng(12)
    rows = []
    for offset in (1e-9, 1e-6, 3e-8, 3e-7):
        base = rng.normal(size=4) + 1j * rng.normal(size=4) + 0.5j
        scale = 1.0 + np.abs(base).max()
        rows.append(np.concatenate([base[:3], [base[0] + offset * scale]]))
    rows.append(np.array([1j, 1j + 4e-8, 1j - 4e-8 * 1j, 2 + 1j]))  # a triple root
    xi = np.array(rows)
    roots, mult, half = root_table(1j * xi, np.zeros((len(xi), 1)))
    for r, m, x in zip(roots, mult, xi):
        ref = _greedy_clusters(x)
        assert m[m > 0].tolist() == [c[1] for c in ref]
        assert np.abs(r[m > 0] - [c[0] for c in ref]).max() <= 1e-15 * (1 + np.abs(x).max())
    assert mult[0].max() == 2 and mult[1].max() == 1  # 1e-9 merges, 1e-6 does not
    assert mult[4].max() == 3 and (half[mult > 0] != 0).all()


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
            fp = cauchy_frame_oracle(sym, "plus")
        except DefectMode:
            continue
        fm = cauchy_frame_oracle(sym, "minus")
        if fp.dim == 0 or fm.dim == 0:
            continue
        w = sobolev_weights((m,), spec.k, 0.5).full(spec.r)
        qp = _weighted_angle_frames(fp.matrix, w)
        qm = _weighted_angle_frames(fm.matrix, w)
        cosmax = np.linalg.svd(qp.conj().T @ qm, compute_uv=False).max()
        worst = min(worst, np.arccos(min(1.0, cosmax)))
    assert worst > 0.2


# ---------------------------------------------------------------------------
# weights and orthogonal projectors


def test_sobolev_weight_values():
    w = sobolev_weights((0,), 1, 0.5)
    assert w.values == pytest.approx([1.0])
    w = sobolev_weights((2,), 2, 0.5)
    assert w.values == pytest.approx([5.0**1.5, 5.0**0.5])
    w = sobolev_weights((0,), 2, 1.0)
    assert w.values == pytest.approx([1.0, 1.0])
    assert w.full(2).shape == (4,)
    with pytest.raises(SpecError):
        sobolev_weights((0,), 1, -1.0)


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
        spec = _order_three()
    elif name == "laplace_double":
        spec = selfadjoint_double(build_gallery("laplace_mass", mu=1))
    else:
        spec = build_gallery(name, **params)
    pt = assemble_point(spec, 12, alpha=alpha)
    single = np.array([sobolev_weights(m, spec.k, alpha).full(spec.r) for m in pt.modes])
    assert pt.weights.shape == (len(pt.modes), spec.r * spec.k)
    np.testing.assert_array_max_ulp(pt.weights, single, maxulp=1)


def test_weights_decrease_along_components():
    w = sobolev_weights((3,), 3, 0.7)
    assert all(np.diff(w.values) < 0)


def test_orthogonal_projector_full_and_zero_range():
    db = build_gallery("dbar", mu=0.5)
    w = sobolev_weights((0,), 1, 0.5)
    P = orthogonal_projector(cauchy_frame_oracle(mode_symbol(db, 0), "plus"), w)
    assert P.matrix[0, 0] == pytest.approx(1.0)
    w3 = sobolev_weights((3,), 1, 0.5)
    P = orthogonal_projector(cauchy_frame_oracle(mode_symbol(db, 3), "plus"), w3)
    assert P.matrix[0, 0] == 0.0


def test_orthogonal_projector_equal_weights_match_flat_projector():
    lap = build_gallery("laplace_mass", mu=1)
    sym = mode_symbol(lap, 0)
    w = sobolev_weights((0,), 2, 0.5)  # weights (1, 1) at m = 0
    P = orthogonal_projector(cauchy_frame_oracle(sym, "plus"), w).matrix
    expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.abs(P - expected).max() < 1e-12


def test_orthogonal_projector_gram_formula_oracle():
    lap = build_gallery("laplace_mass", mu=2)
    sym = mode_symbol(lap, 2)
    w = sobolev_weights((2,), 2, 0.5)
    fr = cauchy_frame_oracle(sym, "plus")
    P = orthogonal_projector(fr, w).matrix
    F = fr.matrix
    W = np.diag(w.full(1))
    G = F @ np.linalg.inv(F.conj().T @ W @ F) @ F.conj().T @ W
    assert np.abs(P - G).max() < 1e-12
    # weighted self-adjointness and idempotency
    assert np.abs(W @ P - P.conj().T @ W).max() < 1e-10
    assert np.abs(P @ P - P).max() < 1e-10
    # same range as the parallel projector: P R = R and R P = P
    R = calderon_projector(sym).matrix
    assert np.abs(P @ R - R).max() < 1e-8
    assert np.abs(R @ P - P).max() < 1e-8


def test_orthogonal_projector_accepts_projector_input():
    lap = build_gallery("laplace_mass", mu=2)
    sym = mode_symbol(lap, 2)
    w = sobolev_weights((2,), 2, 0.5)
    from_frame = orthogonal_projector(cauchy_frame_oracle(sym, "plus"), w).matrix
    from_R = orthogonal_projector(calderon_projector(sym, "plus"), w).matrix
    assert np.abs(from_frame - from_R).max() < 1e-9


def test_mass_one_laplacian_weighted_projector_collapses_to_flat():
    # s^2 = m^2 + 1 matches the weight ratio exactly, so the two sides
    # are weighted-orthogonal and P coincides with R for every mode
    lap = build_gallery("laplace_mass", mu=1)
    for m in (0, 2, 17):
        sym = mode_symbol(lap, m)
        w = sobolev_weights((m,), 2, 0.5)
        P = orthogonal_projector(cauchy_frame_oracle(sym, "plus"), w).matrix
        R = calderon_projector(sym).matrix
        assert np.abs(P - R).max() < 1e-10


def test_ill_conditioned_frame_rejected():
    frame_matrix = np.array([[1.0, 1.0], [1e-13, 0.0], [0.0, 1e-13], [0.0, 0.0]])
    from calderon.projector import CauchyFrame

    with pytest.raises(IllConditionedFrame):
        CauchyFrame(m=(0,), matrix=frame_matrix, side="plus")
    for zero_column in (np.zeros((2, 1)), np.array([[1.0, 0.0], [2.0, 0.0]])):
        with pytest.raises(IllConditionedFrame):
            CauchyFrame(m=(0,), matrix=zero_column, side="plus")


def test_principal_symbol_dependence_decay():
    sa = build_gallery("dirac2", mu=1, v=0)
    sb = build_gallery("dirac2", mu=1, v=0.3)
    ms = np.unique(np.geomspace(16, 256, 15).astype(int))
    norms = []
    for m in ms:
        w = sobolev_weights((int(m),), 1, 0.5)
        pa = orthogonal_projector(cauchy_frame_oracle(mode_symbol(sa, int(m)), "plus"), w).matrix
        pb = orthogonal_projector(cauchy_frame_oracle(mode_symbol(sb, int(m)), "plus"), w).matrix
        sw = np.sqrt(w.full(2))
        norms.append(np.linalg.norm((pa - pb) * (sw[:, None] / sw[None, :]), 2))
    assert max(m * v for m, v in zip(ms, norms)) < 1.0  # C/|m| bound
    slope = np.polyfit(np.log(ms), np.log(norms), 1)[0]
    assert slope < -0.9


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
