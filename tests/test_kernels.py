import numpy as np
import pytest

from calderon import _kernels
from calderon.errors import CalderonError, SignIterationStalled

needs_numba = pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba not importable")


def stack(n=300, d=4, seed=0, shift=3.0):
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return mats + shift * np.eye(d) * rng.choice([-1.0, 1.0], size=(n, 1, 1))


def off_axis(mats, margin=0.2):
    ev = np.linalg.eigvals(mats)
    return np.ascontiguousarray(mats[np.abs(ev.real).min(axis=1) > margin])


def test_backend_resolution():
    assert _kernels.active_backend("numpy") == "numpy"
    with pytest.raises(CalderonError):
        _kernels.active_backend("fortran")
    assert _kernels.active_backend() in ("numpy", "numba")


def test_numpy_lane_self_consistency():
    mats = off_axis(stack())
    proj = _kernels.stable_projector_sweep(mats, backend="numpy")
    assert np.abs(proj @ proj - proj).max() < 1e-12
    lam = _kernels.eigvals_sweep(mats, backend="numpy")
    dims = (lam.real < 0).sum(axis=1)
    assert np.allclose(np.einsum("nii->n", proj).real, dims, atol=1e-9)


def test_sign_projector_annihilates_unstable_vectors():
    mats = off_axis(stack(n=50, seed=3))
    proj = _kernels.stable_projector_sweep(mats, backend="numpy")
    for i in range(len(mats)):
        lam, vec = np.linalg.eig(mats[i])
        stable = lam.real < 0
        if stable.any():
            assert np.abs(proj[i] @ vec[:, stable] - vec[:, stable]).max() < 1e-8
        if (~stable).any():
            assert np.abs(proj[i] @ vec[:, ~stable]).max() < 1e-8


def test_sign_projector_handles_jordan_structure():
    # defective stable block: one eigenvector for a double eigenvalue
    J = np.array(
        [[-1.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 2.0]], dtype=complex
    )
    proj = _kernels.stable_projector_sweep(J[None])[0]
    expected = np.diag([1.0, 1.0, 0.0])
    assert np.abs(proj - expected).max() < 1e-10


def test_range_sweep_spans_and_is_orthonormal():
    mats = off_axis(stack(n=40, seed=5))
    proj = _kernels.stable_projector_sweep(mats, backend="numpy")
    dims = np.round(np.einsum("nii->n", proj).real).astype(np.int64)
    frames = _kernels.orthonormal_range_sweep(proj, dims, backend="numpy")
    for i, d in enumerate(dims):
        if d:
            q = frames[i][:, :d]
            assert np.abs(q.conj().T @ q - np.eye(d)).max() < 1e-12
            assert np.abs(proj[i] @ q - q).max() < 1e-9
        if d < frames[i].shape[1]:
            assert np.abs(frames[i][:, d:]).max() == 0.0


def test_sign_iteration_rejects_imaginary_spectrum():
    bad = np.array([[[1.0, 0.0], [0.0, -1.0]], [[1j, 0.0], [0.0, -1.0]]], dtype=complex)
    with pytest.raises(SignIterationStalled) as info:
        _kernels.stable_projector_sweep(bad, backend="numpy")
    assert info.value.index == 1


@needs_numba
def test_lanes_agree():
    mats = stack(n=200, d=3, seed=1)
    ea = _kernels.eigvals_sweep(mats, backend="numba")
    eb = _kernels.eigvals_sweep(mats, backend="numpy")
    for i in range(len(mats)):
        assert np.abs(np.sort_complex(ea[i]) - np.sort_complex(eb[i])).max() < 1e-10

    sa = _kernels.svdvals_sweep(mats, backend="numba")
    sb = _kernels.svdvals_sweep(mats, backend="numpy")
    assert np.abs(sa - sb).max() < 1e-10

    safe = off_axis(mats)
    pa = _kernels.stable_projector_sweep(safe, backend="numba")
    pb = _kernels.stable_projector_sweep(safe, backend="numpy")
    assert np.abs(pa - pb).max() < 1e-10

    dims = np.round(np.einsum("nii->n", pa).real).astype(np.int64)
    fa = _kernels.orthonormal_range_sweep(pa, dims, backend="numba")
    fb = _kernels.orthonormal_range_sweep(pb, dims, backend="numpy")
    ga = fa @ np.conj(np.swapaxes(fa, 1, 2))
    gb = fb @ np.conj(np.swapaxes(fb, 1, 2))
    assert np.abs(ga - gb).max() < 1e-10  # same span, basis may differ


@needs_numba
def test_assembly_identical_across_lanes():
    from calderon.grassmann import assemble_point, compare_points
    from calderon.symbols import build_gallery

    spec = build_gallery("dirac3", mu=1, v=0.3)
    pa = assemble_point(spec, 6, backend="numba")
    pb = assemble_point(spec, 6, backend="numpy")
    assert (pa.dims == pb.dims).all()
    rep = compare_points(pa, pb)
    assert rep.svals.max() < 1e-10


def test_warmup_reports_lane():
    assert _kernels.warmup("numpy") == "numpy"


def test_bench_runs_and_reports_both_lanes():
    from calderon.bench import run_bench

    rows = run_bench(n_modes=64, dim=3, repeat=1, echo=None)
    assert {r["kernel"] for r in rows} >= {"eigvals_sweep", "stable_projector_sweep"}
    lanes = set(rows[0]["times"])
    assert "numpy" in lanes
    if _kernels.HAVE_NUMBA:
        assert "numba" in lanes
