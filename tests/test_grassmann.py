import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from calderon.errors import (
    CutoffMismatch,
    DefectMode,
    NoChiralStructure,
    SpecError,
    ThresholdAmbiguous,
)
from calderon._kernels import stable_projector_sweep, svdvals_sweep
from calderon.grassmann import (
    _common_indices,
    assemble_point,
    chiral_point,
    compare_points,
    fredholm_index,
    krichever_reference,
    orthogonal_projector,
    schatten_fit,
)
from calderon.symbols import (
    build_gallery,
    companion_stack,
    mode_key,
    mode_lattice,
    mode_symbol,
    mode_weights,
    selfadjoint_double,
)
from test_kernels import svd_range
from test_symbols import GALLERY


def dbar():
    return build_gallery("dbar", mu=0.5)


def twist(d):
    return build_gallery("twisted_dbar", mu=0.5, d=d)


# ---------------------------------------------------------------------------
# assembly


def test_hardy_point_nontrivial_modes():
    pt = krichever_reference(8)
    assert pt.nontrivial_modes() == list(range(-8, 1))
    assert pt.excluded == []


def test_twisted_threshold():
    pt = assemble_point(twist(3), 8)
    assert pt.nontrivial_modes() == list(range(-8, 4))


def test_krichever_vs_single_twist_differs_in_one_mode():
    rep = compare_points(krichever_reference(8), assemble_point(twist(1), 8))
    hot = [int(m[0]) for m, a in zip(rep.modes, rep.angles) if len(a) and a.max() > 1e-8]
    assert hot == [1]


def test_laplace_point_one_dimensional_frames():
    pt = assemble_point(build_gallery("laplace_mass", mu=1), 4)
    assert len(pt.modes) == 9
    assert (pt.dims == 1).all()


def test_frames_are_weight_orthonormal():
    pt = assemble_point(build_gallery("laplace_mass", mu=2), 6, alpha=0.8)
    assert pt.modes[:, 0].tolist() == list(range(-6, 7))
    for m, d, ortho, weights in zip(pt.modes[:, 0].tolist(), pt.dims, pt.ortho, pt.weights):
        w = mode_weights([(m,)], 2, 0.8)[1][0]  # r = 1: one weight per component
        assert np.allclose(weights, w, rtol=1e-14, atol=0)
        frame = ortho[:, :d] / np.sqrt(weights)[:, None]
        gram = frame.conj().T @ (w[:, None] * frame)
        assert np.abs(gram - np.eye(d)).max() < 1e-10


@pytest.mark.parametrize(
    "name, params",
    [(name, GALLERY[name]) for name in sorted(GALLERY)] + [("dirac3", dict(mu=1, v=0.01))],
    ids=sorted(GALLERY) + ["dirac3_v0.01"],  # |P| up to 100 at cutoff 16
)
def test_weighted_frames_span_the_svd_route_subspaces(name, params):
    spec = build_gallery(name, **params)
    point = assemble_point(spec, 16)
    comp = companion_stack(spec, point.modes)
    raw = svd_range(stable_projector_sweep(comp), point.dims)
    svd = svd_range(np.sqrt(point.weights)[:, :, None] * raw, point.dims)
    span = lambda q: q @ np.conj(np.swapaxes(q, 1, 2))
    assert np.abs(span(point.ortho) - span(svd)).max() <= 1e-14


@pytest.mark.parametrize("name", ["dirac2", "dirac3", "dirac2_double", "dirac3_double"])
def test_assemble_point_runs_no_svd(name, monkeypatch):
    # np.linalg.cond runs numpy's own svd, which patching np.linalg.svd
    # does not reach, so it is counted on its own: the Gram gate takes
    # the condition number of two columns in closed form, so no spec here
    # reaches it
    base = name.removesuffix("_double")
    spec, dims = build_gallery(base, **GALLERY[base]), 1
    if name != base:
        spec, dims = selfadjoint_double(spec), 2
    conds, real_cond = [], np.linalg.cond

    def cond(*args, **kwargs):
        conds.append(1)
        return real_cond(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", cond)
    for routine in ("svd", "qr"):

        def ran(*args, routine=routine, **kwargs):
            raise AssertionError(f"np.linalg.{routine} ran")

        monkeypatch.setattr(np.linalg, routine, ran)
    point = assemble_point(spec, 4)
    assert (point.dims == dims).all()
    assert not conds


@pytest.mark.parametrize("name", ["dirac2", "dirac3", "laplace_mass"])
def test_assemble_point_takes_the_closed_forms_on_two_by_two_stacks(name, monkeypatch):
    # every companion matrix of these specs is 2x2: the defect screen's
    # eigenvalues and the sign iteration's determinants and inverses are
    # all closed forms, and no LAPACK eigvals, det or inv runs
    spec = build_gallery(name, **GALLERY[name])
    want = assemble_point(spec, 16)
    for routine in ("eigvals", "det", "inv"):

        def ran(*args, routine=routine, **kwargs):
            raise AssertionError(f"np.linalg.{routine} ran")

        monkeypatch.setattr(np.linalg, routine, ran)
    point = assemble_point(spec, 16)
    assert np.array_equal(point.ortho, want.ortho) and point.excluded == want.excluded


def test_defect_modes_excluded_and_listed():
    pt = assemble_point(build_gallery("dirac2", mu=1, v=0), 8)
    assert pt.excluded == [-1, 0, 1]
    assert len(pt.modes) == 14


def test_sign_iteration_stall_names_the_mode():
    # the spectrum at mode (-1, 0) of the self-adjoint double (4x4
    # companions, inverted by LAPACK) sits close enough to the imaginary
    # axis that the sign iteration stalls, although it passes the defect
    # screen.  The weighted projector takes the same frame steps, so it
    # stalls there alike, and at (1, 0) too
    spec = selfadjoint_double(build_gallery("dirac3", mu=1, v=0.005))
    with pytest.raises(DefectMode) as info:
        assemble_point(spec, 16)
    assert info.value.mode == (-1, 0)
    for m in [(-1, 0), (1, 0)]:
        with pytest.raises(DefectMode) as one:
            orthogonal_projector(mode_symbol(spec, m), "plus", 0.5)
        assert one.value.mode == m
        assert str(one.value) == str(info.value).replace("(-1, 0)", str(m))


@pytest.mark.parametrize("v", [0.005, 0.0133])
def test_near_defect_dirac3_assembles_and_its_sign_projector_is_the_eigenprojector(v):
    # companion eigenvalues +-v at mode (-1, 0): the 2x2 sign iteration,
    # on Cramer's inverse, converges there, and its projector is the
    # stable eigenprojector P of C to first-order perturbation accuracy,
    # |dP|_2 <= eps |P|_2^2 |C|_2 / gap (a perturbation eps |C|_2 of C
    # moves a rank-one spectral projector by at most |P| |I - P| / gap
    # times it, and |I - P|_2 = |P|_2 at 2x2)
    mpmath = pytest.importorskip("mpmath")
    spec = build_gallery("dirac3", mu=1, v=v)
    point = assemble_point(spec, 16)
    assert (-1, 0) in [mode_key(m) for m in point.modes] and point.excluded == [(0, 0)]
    C = companion_stack(spec, np.array([[-1, 0]]))
    P = stable_projector_sweep(C)[0]
    with mpmath.workdps(50):
        E, V = mpmath.eig(mpmath.matrix(C[0].tolist()))
        stable = [i for i in range(2) if mpmath.re(E[i]) < 0]
        Vi = mpmath.inverse(V)
        ref = V[:, stable[0]] * Vi[stable[0], :]
        ref = np.array(ref.tolist(), dtype=complex)
        gap = float(abs(E[0] - E[1]))
    norm_p, norm_c = np.linalg.norm(ref, 2), np.linalg.norm(C[0], 2)
    assert len(stable) == 1
    assert np.linalg.norm(P - ref, 2) <= np.finfo(float).eps * norm_p**2 * norm_c / gap


def test_assembly_validation():
    with pytest.raises(SpecError):
        assemble_point(dbar(), 0)
    with pytest.raises(SpecError, match="cutoff must be at least 1"):
        krichever_reference(0)
    with pytest.raises(SpecError):
        assemble_point(dbar(), 8, alpha=-1)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, 0.0, -1.0])
def test_alpha_must_be_finite_and_positive(alpha):
    with pytest.raises(SpecError, match="alpha must be finite and positive"):
        assemble_point(dbar(), 8, alpha=alpha)
    with pytest.raises(SpecError, match="alpha must be finite and positive"):
        orthogonal_projector(mode_symbol(dbar(), 3), "plus", alpha)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0, 1.5])
def test_index_tol_must_be_finite_and_in_unit_interval(tol):
    pa, pb = assemble_point(twist(3), 8), assemble_point(dbar(), 8)
    with pytest.raises(SpecError, match=r"tol must be finite and in \(0, 0\.1\]"):
        fredholm_index(pa, pb, tol=tol)


def test_index_tol_above_a_tenth_is_a_spec_error():
    # above 0.1 the forbidden decade [tol, 10 tol) reaches past 1 and holds
    # every live cosine at or above tol, so no count could come out of it
    pa, pb = assemble_point(twist(3), 8), assemble_point(dbar(), 8)
    rep = compare_points(pa, pb)
    assert fredholm_index(pa, pb, tol=0.05, rep=rep).index == 3
    assert fredholm_index(pa, pb, tol=0.1, rep=rep).index == 3
    for tol in (0.2, 0.5, 1.0, np.nextafter(0.1, 1)):
        with pytest.raises(SpecError, match=r"tol must be finite and in \(0, 0\.1\]"):
            fredholm_index(pa, pb, tol=tol, rep=rep)


@pytest.mark.parametrize("p_list", [(np.nan,), (1.0, -1.0), (np.inf,), (0.0,)])
def test_schatten_orders_must_be_finite_and_positive(p_list):
    pa = assemble_point(dbar(), 16)
    with pytest.raises(SpecError, match="Schatten orders must be finite and positive"):
        schatten_fit(compare_points(pa, pa), n=2, q=0, p_list=p_list)


# ---------------------------------------------------------------------------
# comparison


def test_identical_points_compare_to_zero():
    pa = assemble_point(dbar(), 16)
    rep = compare_points(pa, pa)
    assert rep.svals.max() == 0.0
    assert rep.agreement == "full"
    assert rep.diff_norms.max() == 0.0


@pytest.mark.parametrize("name", sorted(set(GALLERY) - {"dbar"}))  # dbar: the test above
def test_a_point_compares_to_itself_within_rounding(name):
    # the 1 x 1 frames of twisted_dbar, as of dbar, normalize to exactly 1
    pa = assemble_point(build_gallery(name, **GALLERY[name]), 16)
    rep = compare_points(pa, pa)
    bound = 0.0 if name == "twisted_dbar" else 4 * np.finfo(float).eps
    assert rep.svals.max() <= bound
    assert rep.diff_norms.max() <= bound


def test_twist_comparison_is_finite_rank_six():
    rep = compare_points(assemble_point(dbar(), 16), assemble_point(twist(3), 16))
    assert (rep.svals > 0.5).sum() == 6
    assert (rep.svals > 1e-12).sum() == 6
    jump_angles = [a for a in rep.angles if len(a) and a[0] > 1.0]
    assert len(jump_angles) == 3  # modes 1, 2, 3 jump by a right angle


def test_comparison_requires_matching_conventions():
    with pytest.raises(CutoffMismatch):
        compare_points(assemble_point(dbar(), 8), assemble_point(dbar(), 16))
    with pytest.raises(CutoffMismatch):
        compare_points(
            assemble_point(dbar(), 8, alpha=0.5), assemble_point(dbar(), 8, alpha=0.7)
        )
    with pytest.raises(CutoffMismatch):
        compare_points(
            assemble_point(dbar(), 8),
            assemble_point(build_gallery("laplace_mass", mu=1), 8),
        )


def test_global_svals_merge_per_mode_sines():
    pa = assemble_point(build_gallery("dirac2", mu=1, v=0), 32)
    pb = assemble_point(build_gallery("dirac2", mu=1, v=0.3), 32)
    rep = compare_points(pa, pb)
    merged = np.sort(np.concatenate([np.repeat(np.sin(a), 2) for a in rep.angles]))[::-1]
    assert np.abs(merged - rep.svals).max() < 1e-12
    # defect modes of either operator are skipped and reported
    assert rep.skipped == [-1, 0, 1]


def test_laplace_pair_angles_decay_quadratically():
    pa = assemble_point(build_gallery("laplace_mass", mu=1), 64)
    pb = assemble_point(build_gallery("laplace_mass", mu=2), 64)
    rep = compare_points(pa, pb)
    radii = np.abs(rep.modes).max(axis=1)
    sel = radii >= 8
    ratios = rep.diff_norms[sel] * radii[sel] ** 2
    assert ratios.max() < 1.0 and ratios.min() > 0.05  # ~ c / m^2


def test_q_svals_are_one_sided_sines():
    rep = compare_points(assemble_point(twist(3), 16), assemble_point(dbar(), 16))
    # three unit values (the kernel modes), zeros elsewhere, counted once
    assert (rep.q_svals > 0.5).sum() == 3
    assert len(rep.q_svals) == int(rep.dims_a.sum())


def counted_svdvals(monkeypatch):
    """Patch ``_kernels.svdvals_sweep`` to record the shape of every call."""
    from calderon import _kernels

    calls, real = [], _kernels.svdvals_sweep

    def counted(mats):
        calls.append(np.shape(mats))
        return real(mats)

    monkeypatch.setattr(_kernels, "svdvals_sweep", counted)
    return calls


def test_cosine_svd_runs_on_the_first_read_of_cos_rows(monkeypatch):
    pa, pb = (assemble_point(build_gallery("dirac2", mu=1, v=v), 64) for v in (0.3, 0))
    calls = counted_svdvals(monkeypatch)
    rep = compare_points(pa, pb)
    assert len(calls) == 1  # the complement sines
    cos = rep.cos_rows
    assert len(calls) == 2
    assert rep.cos_rows is cos and len(calls) == 2
    # the stored cross-Gram stack, cut to its widest live block, gives the
    # cosines of the full padded stack bit for bit
    ia, ib, _ = _common_indices(pa, pb)
    full = svdvals_sweep(np.einsum("nij,nik->njk", pa.ortho[ia].conj(), pb.ortho[ib]))
    assert rep.cross.shape[1:] == (1, 1) and full.shape[1] == 2
    live = np.arange(cos.shape[1]) < np.minimum(rep.dims_a, rep.dims_b)[:, None]
    assert np.array_equal(cos, np.where(live, full, 0.0))


def test_compactness_trend_over_doublings():
    shells = []
    for cutoff in (8, 16, 32, 64):
        pa = assemble_point(build_gallery("dirac2", mu=1, v=0), cutoff)
        pb = assemble_point(build_gallery("dirac2", mu=1, v=0.3), cutoff)
        rep = compare_points(pa, pb)
        # the largest projector-difference norm on the outer half of the modes
        shells.append(rep.diff_norms[np.abs(rep.modes).max(axis=1) > cutoff / 2].max())
    assert shells[1] > shells[2] > shells[3]
    assert shells[0] > shells[2]


# ---------------------------------------------------------------------------
# schatten fits


def test_finite_rank_short_circuit():
    rep = compare_points(assemble_point(dbar(), 16), assemble_point(twist(3), 16))
    fit = schatten_fit(rep, n=2, q=0, p_list=(2.0,))
    assert fit.finite_rank == 6
    assert fit.slope is None
    assert fit.sums[2.0] == pytest.approx(6.0)


def test_identical_points_report_rank_zero():
    pa = assemble_point(dbar(), 16)
    fit = schatten_fit(compare_points(pa, pa), n=2, q=0)
    assert fit.finite_rank == 0


def test_schatten_window_and_bound():
    pa = assemble_point(build_gallery("laplace_mass", mu=1), 128)
    pb = assemble_point(build_gallery("laplace_mass", mu=2), 128)
    fit = schatten_fit(compare_points(pa, pb), n=2, q=1, p_list=(1.0, 2.0))
    assert fit.finite_rank is None
    assert -2.3 < fit.slope < -1.7
    assert fit.target_exponent == -2.0
    assert fit.bound_holds
    lo, hi = fit.window
    assert 1 <= lo < hi <= fit.count


def test_schatten_validates_q():
    pa = assemble_point(dbar(), 16)
    for q in (-1, 1.0, True, False):
        with pytest.raises(SpecError, match="agreement order q"):
            schatten_fit(compare_points(pa, pa), n=2, q=q)


@pytest.mark.parametrize("n", [0, 1, 2.5, np.nan, 3, True])
def test_schatten_n_is_the_dimension_of_the_compared_points(n):
    pa = assemble_point(dbar(), 16)
    with pytest.raises(SpecError, match="dimension n must be 2"):
        schatten_fit(compare_points(pa, pa), n=n, q=0)


def test_schatten_n_follows_the_mode_width():
    pa = assemble_point(build_gallery("dirac3", mu=1, v=0.3), 4)
    rep = compare_points(pa, pa)
    with pytest.raises(SpecError, match="dimension n must be 3"):
        schatten_fit(rep, n=2, q=0)
    assert schatten_fit(rep, n=3, q=0).target_exponent == -0.5


# ---------------------------------------------------------------------------
# fredholm index


def test_twist_index_with_kernel_modes():
    idx = fredholm_index(assemble_point(twist(3), 16), assemble_point(dbar(), 16))
    assert idx.index == 3
    assert idx.kernel_total == 3 and idx.cokernel_total == 0
    assert idx.tail_safe
    kernel_modes = [int(m[0]) for m, k in zip(idx.modes, idx.kernel_dims) if k]
    assert kernel_modes == [1, 2, 3]


def test_index_antisymmetry_and_additivity():
    points = {d: assemble_point(twist(d), 16) for d in (0, 1, 3)}
    idx = lambda a, b: fredholm_index(points[a], points[b]).index
    assert idx(3, 0) == -idx(0, 3) == 3
    assert idx(0, 1) + idx(1, 3) == idx(0, 3)


def test_doubling_kills_the_index():
    for sa, sb in [
        (twist(3), dbar()),
        (build_gallery("dirac2", mu=1, v=0), build_gallery("dirac2", mu=1, v=0.3)),
    ]:
        pa = assemble_point(selfadjoint_double(sa), 12)
        pb = assemble_point(selfadjoint_double(sb), 12)
        assert fredholm_index(pa, pb).index == 0


def test_chiral_indices_sum_to_zero():
    da, db_ = selfadjoint_double(twist(1)), selfadjoint_double(dbar())
    left = fredholm_index(chiral_point(da, "L", 16), chiral_point(db_, "L", 16)).index
    right = fredholm_index(chiral_point(da, "R", 16), chiral_point(db_, "R", 16)).index
    assert left == 1 and right == -1
    assert left + right == 0


def test_chiral_left_half_of_double_recovers_the_point():
    base = assemble_point(dbar(), 12)
    half = chiral_point(selfadjoint_double(dbar()), "L", 12)
    assert half.nontrivial_modes() == base.nontrivial_modes()
    rep = compare_points(half, base)
    assert rep.svals.max() < 1e-10


def test_chiral_requires_structure():
    with pytest.raises(NoChiralStructure):
        chiral_point(build_gallery("laplace_mass", mu=1), "L", 8)
    with pytest.raises(SpecError):
        chiral_point(selfadjoint_double(dbar()), "left", 8)


def test_chiral_dirac_frames_at_most_one_dimensional():
    pt = chiral_point(build_gallery("dirac2", mu=1, v=0.3), "L", 8)
    assert pt.ambient_dim == 1
    assert pt.dims.max() <= 1


def test_threshold_ambiguity_detected():
    pa = assemble_point(build_gallery("laplace_mass", mu=1), 16)
    pb = assemble_point(build_gallery("laplace_mass", mu=2), 16)
    rep = compare_points(pa, pb)
    # cross-gram values sit near 1, below it; the largest tolerance, 0.1,
    # lands them inside the forbidden decade [0.1, 1)
    with pytest.raises(ThresholdAmbiguous):
        fredholm_index(pa, pb, tol=0.1, rep=rep)


def test_index_zero_for_equal_operators_with_weights():
    pa = assemble_point(build_gallery("dirac3", mu=1, v=0.3), 6)
    pb = assemble_point(build_gallery("dirac3", mu=1, v=0), 6)
    idx = fredholm_index(pa, pb)
    assert idx.index == 0
    assert idx.tail_safe


# ---------------------------------------------------------------------------
# mode matching


def _common_indices_by_dict(a, b):
    # reference: one Python key per mode row
    keys_a = {tuple(int(x) for x in m): i for i, m in enumerate(a.modes)}
    ia, ib = [], []
    for j, m in enumerate(b.modes):
        key = tuple(int(x) for x in m)
        if key in keys_a:
            ia.append(keys_a[key])
            ib.append(j)
    return np.array(ia, dtype=int), np.array(ib, dtype=int)


def _matching_pairs():
    near = assemble_point(build_gallery("dbar", mu=2 + 1e-12), 8)
    tw = assemble_point(twist(1), 8)
    half = chiral_point(build_gallery("dirac3", mu=1, v=0.1), "L", 6)
    full = assemble_point(build_gallery("dirac3", mu=1, v=1.5), 6)
    assert near.excluded == [2] and tw.excluded == []
    assert half.excluded == [(0, 0)] and full.excluded == []
    rng = np.random.default_rng(5)
    lattice = np.stack(np.meshgrid(np.arange(-9, 10), np.arange(-3, 40), indexing="ij"), -1)
    rows = rng.permutation(lattice.reshape(-1, 2))
    sa = SimpleNamespace(modes=rows[:500])
    sb = SimpleNamespace(modes=rows[300:][rng.permutation(517)])
    return [(near, tw), (tw, near), (half, full), (full, half), (sa, sb)]


@pytest.mark.parametrize("pair", range(5))
def test_common_indices_match_the_dict_lookup(pair):
    a, b = _matching_pairs()[pair]
    ia, ib, rows = _common_indices(a, b)
    ref_a, ref_b = _common_indices_by_dict(a, b)
    assert 0 < len(ref_b) < max(len(a.modes), len(b.modes))
    assert ia.dtype == ref_a.dtype and ib.dtype == ref_b.dtype
    assert np.array_equal(ia, ref_a) and np.array_equal(ib, ref_b)
    assert rows.dtype == b.modes.dtype
    assert np.array_equal(rows, b.modes[ref_b])


# ---------------------------------------------------------------------------
# padded compare and index against the per-mode loops they replaced


def _compare_by_loop(a, b):
    # reference: one Python iteration per common mode
    ia, ib, rows = _common_indices(a, b)
    QA, QB = a.ortho[ia], b.ortho[ib]
    da, db = a.dims[ia], b.dims[ib]
    cross = np.einsum("nij,nik->njk", QA.conj(), QB)
    sines_a = svdvals_sweep(QA - QB @ np.conj(np.swapaxes(cross, 1, 2)))
    cos_sv = svdvals_sweep(cross)
    angles, cosines, q_parts, global_parts = [], [], [], []
    diff_norms = np.zeros(len(ia))
    for i in range(len(ia)):
        na, nb = int(da[i]), int(db[i])
        sines = sines_a[i][:na]
        if nb > na:
            sines = np.concatenate([np.ones(nb - na), sines])
        sines = np.sort(sines)[::-1]
        angles.append(np.arcsin(np.clip(sines, 0.0, 1.0)))
        cosines.append(cos_sv[i][: min(na, nb)])
        q_parts.append(sines_a[i][:na])
        global_parts.append(np.repeat(sines, 2))
        diff_norms[i] = np.clip(sines[0], 0.0, 1.0) if (na or nb) else 0.0
    return SimpleNamespace(
        modes=rows,
        dims_a=da,
        dims_b=db,
        angles=angles,
        cosines=cosines,
        diff_norms=diff_norms,
        svals=np.sort(np.concatenate(global_parts))[::-1] if global_parts else np.zeros(0),
        q_svals=np.sort(np.concatenate(q_parts))[::-1] if q_parts else np.zeros(0),
        cutoff=a.cutoff,
    )


def _index_by_loop(ref, tol):
    # reference: kernel counts, threshold band and tail gap mode by mode
    n = len(ref.modes)
    ker = np.zeros(n, dtype=int)
    cok = np.zeros(n, dtype=int)
    for i in range(n):
        na, nb = int(ref.dims_a[i]), int(ref.dims_b[i])
        cos = np.asarray(ref.cosines[i])
        if ((cos >= tol) & (cos < 10 * tol)).any():
            raise ThresholdAmbiguous(
                f"singular value in [{tol:.1e}, {10 * tol:.1e}) at mode "
                f"{mode_key(ref.modes[i])}; adjust tol"
            )
        rank = int((cos > tol).sum())
        ker[i] = na - rank
        cok[i] = nb - rank
    radius = np.abs(ref.modes).max(axis=1) if n else np.zeros(0)
    gaps = [
        np.pi / 2 - float(ref.angles[i][0]) if len(ref.angles[i]) else np.pi / 2
        for i in np.nonzero(radius == ref.cutoff)[0]
    ]
    return ker, cok, min(gaps) if gaps else np.pi / 2


def _split(point, keep):
    # the same point restricted to a subset of its modes
    return dataclasses.replace(
        point,
        modes=point.modes[keep],
        dims=point.dims[keep],
        ortho=point.ortho[keep],
        weights=point.weights[keep],
    )


def _padded_pairs():
    pairs = {}
    base = assemble_point(dbar(), 12)
    for d in (1, 2, 3):
        tw = assemble_point(twist(d), 12)
        pairs[f"twist{d}-dbar"] = (tw, base)
        pairs[f"dbar-twist{d}"] = (base, tw)
    pairs["double"] = tuple(
        assemble_point(selfadjoint_double(build_gallery("dirac2", mu=1, v=v)), 12) for v in (0, 0.3)
    )
    pairs["laplace"] = tuple(
        assemble_point(build_gallery("laplace_mass", mu=mu), 16) for mu in (1, 2)
    )
    # the dirac3 L half at (mu, v) = (1, 1) collapses to zero dimensions on
    # the modes (1..6, 0), against all-one-dimensional and matching halves
    half = chiral_point(build_gallery("dirac3", mu=1, v=1.0), "L", 6)
    pairs["chiral_full"] = (half, chiral_point(build_gallery("dirac3", mu=1, v=1.5), "L", 6))
    pairs["chiral_zero"] = (half, chiral_point(build_gallery("dirac3", mu=0, v=0), "L", 6))
    lap = pairs["laplace"][0]
    pairs["disjoint"] = (_split(lap, lap.modes[:, 0] < 0), _split(lap, lap.modes[:, 0] >= 0))
    return pairs


@pytest.fixture(scope="module")
def padded_pairs():
    return _padded_pairs()


PADDED_NAMES = [
    "twist1-dbar", "twist2-dbar", "twist3-dbar", "dbar-twist1", "dbar-twist2", "dbar-twist3",
    "double", "laplace", "chiral_full", "chiral_zero", "disjoint",
]


@pytest.mark.parametrize("name", PADDED_NAMES)
def test_padded_compare_and_index_match_the_loops(padded_pairs, name):
    a, b = padded_pairs[name]
    rep = compare_points(a, b)
    ref = _compare_by_loop(a, b)
    assert len(rep.angles) == len(ref.angles) == len(rep.cos_rows) == len(rep.modes)
    assert all(np.array_equal(x, y) for x, y in zip(rep.angles, ref.angles))
    # every live cosine is the loop's, bit for bit, and the padding is zero
    live = np.minimum(rep.dims_a, rep.dims_b)
    assert all(np.array_equal(x[:k], y) for x, k, y in zip(rep.cos_rows, live, ref.cosines))
    assert not rep.cos_rows[np.arange(rep.cos_rows.shape[1]) >= live[:, None]].any()
    for key in ("svals", "q_svals", "diff_norms"):
        assert np.array_equal(getattr(rep, key), getattr(ref, key)), key
    idx = fredholm_index(a, b, rep=rep)
    ker, cok, gap = _index_by_loop(ref, 1e-6)
    assert np.array_equal(idx.kernel_dims, ker) and np.array_equal(idx.cokernel_dims, cok)
    assert idx.min_tail_gap == gap
    # each pair covers the dimension pattern it is named for
    da, db = rep.dims_a, rep.dims_b
    covers = {
        "twist": (da > db).any(),
        "dbar": (da < db).any(),
        "double": (da == 2).all() and (db == 2).all(),
        "laplace": (da == 1).all() and (db == 1).all(),
        "chiral_full": ((da == 0) & (db == 1)).any(),
        "chiral_zero": ((da == 0) & (db == 0)).any(),
        "disjoint": len(rep.modes) == 0 and gap == np.pi / 2,
    }
    assert covers[name.split("-")[0].rstrip("123")]


def test_diff_norms_equal_largest_angle_sines(padded_pairs):
    # oracle: top singular value of the projector difference QA QA^H - QB QB^H
    for a, b in padded_pairs.values():
        rep = compare_points(a, b)
        ia, ib, _ = _common_indices(a, b)
        QA, QB = a.ortho[ia], b.ortho[ib]
        diff = QA @ np.conj(np.swapaxes(QA, 1, 2)) - QB @ np.conj(np.swapaxes(QB, 1, 2))
        oracle = svdvals_sweep(diff)[:, 0]
        assert rep.diff_norms.shape == oracle.shape
        assert np.abs(rep.diff_norms - oracle).max(initial=0.0) <= 1e-14


def _ambiguous_message(fn):
    with pytest.raises(ThresholdAmbiguous) as info:
        fn()
    return str(info.value)


def test_padded_threshold_band_names_the_loops_mode(padded_pairs):
    a, b = padded_pairs["laplace"]
    rep = compare_points(a, b)
    ref = _compare_by_loop(a, b)
    cos = np.sort(np.unique(rep.cos_rows[:, 0]))
    # every cosine lies in (0.98, 1), above any tol <= 0.1, so the band's
    # open upper edge 10 tol decides: between the second and third smallest
    # cosines it takes mode 0 and the two modes +-1, which share one cosine
    tol = (cos[1] + cos[2]) / 20
    assert ((rep.cos_rows[:, 0] >= tol) & (rep.cos_rows[:, 0] < 10 * tol)).sum() == 3
    got = _ambiguous_message(lambda: fredholm_index(a, b, tol=tol, rep=rep))
    assert got == _ambiguous_message(lambda: _index_by_loop(ref, tol))
    assert got.endswith("at mode -1; adjust tol")
    # the cosine of +-1 exactly on the open upper edge 10 tol stays outside
    tol = next(
        t for t in (cos[1] / 10, np.nextafter(cos[1] / 10, 0), np.nextafter(cos[1] / 10, 1))
        if 10 * t == cos[1]
    )
    got = _ambiguous_message(lambda: fredholm_index(a, b, tol=tol, rep=rep))
    assert got == _ambiguous_message(lambda: _index_by_loop(ref, tol))
    assert got.endswith("at mode 0; adjust tol")


def _turned(point, cosines):
    # the point with each mode's one-dimensional frame q turned towards its
    # complement, to the given cosine with q
    q = point.ortho[:, :, 0]
    p = np.stack([-q[:, 1].conj(), q[:, 0].conj()], axis=1)
    ortho = np.zeros_like(point.ortho)
    ortho[:, :, 0] = cosines[:, None] * q + np.sqrt(1.0 - cosines**2)[:, None] * p
    return dataclasses.replace(point, ortho=ortho)


def test_padded_threshold_band_closed_lower_edge_names_the_loops_mode(padded_pairs):
    a = padded_pairs["laplace"][0]
    assert (a.dims == 1).all() and a.ambient_dim == 2
    # cosines rising along the modes through (1e-4, 0.9), so the band's
    # first mode is the one with the smallest cosine at or above tol: the
    # closed lower edge decides which mode the error names
    b = _turned(a, np.geomspace(1e-4, 0.9, len(a.modes)))
    rep = compare_points(a, b)
    ref = _compare_by_loop(a, b)
    cos = rep.cos_rows[:, 0]
    assert (np.diff(cos) > 0).all()
    j = int(np.searchsorted(cos, 0.01))
    cases = [
        (0.5 * (cos[j - 1] + cos[j]), j),  # between two cosines
        (cos[j], j),  # exactly on one, which the closed edge lets in
        (np.nextafter(cos[j], 1), j + 1),  # just above it, which leaves it out
    ]
    for tol, named in cases:
        assert cos[j - 1] < tol <= 0.1
        got = _ambiguous_message(lambda: fredholm_index(a, b, tol=tol, rep=rep))
        assert got == _ambiguous_message(lambda: _index_by_loop(ref, tol))
        assert got.endswith(f"at mode {mode_key(rep.modes[named])}; adjust tol")
        with pytest.raises(ThresholdAmbiguous) as info:
            fredholm_index(a, b, tol=tol, rep=rep)
        assert info.value.index == named and info.value.mode == mode_key(rep.modes[named])


@pytest.mark.parametrize(
    "cutoff", [2.5, float("nan"), float("inf"), -1, 10**20, pytest.param(10**400, id="10**400")]
)
def test_cutoff_must_be_a_nonnegative_integer(cutoff):
    # 2.5 used to repeat mode 0 in the lattice, NaN and 10**20 failed
    # inside np.arange, and 10**400 overflowed float()
    with pytest.raises(SpecError, match="cutoff must be"):
        mode_lattice(2, cutoff)
    with pytest.raises(SpecError, match="cutoff must be"):
        assemble_point(dbar(), cutoff)


def test_integral_cutoff_of_any_type_gives_the_integer_lattice():
    want = mode_lattice(3, 2)
    for cutoff in (2.0, np.int64(2), np.float64(2.0)):
        got = mode_lattice(3, cutoff)
        assert got.dtype == want.dtype and np.array_equal(got, want)
