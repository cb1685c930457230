import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calderon import _kernels
from calderon.errors import IllConditionedFrame, SignIterationStalled


def stack(n=300, d=4, seed=0, shift=3.0):
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return mats + shift * np.eye(d) * rng.choice([-1.0, 1.0], size=(n, 1, 1))


def off_axis(mats, margin=0.2):
    ev = np.linalg.eigvals(mats)
    return np.ascontiguousarray(mats[np.abs(ev.real).min(axis=1) > margin])


def test_numpy_lane_self_consistency():
    mats = off_axis(stack())
    proj = _kernels.stable_projector_sweep(mats)
    assert np.abs(proj @ proj - proj).max() < 1e-12
    lam = _kernels.eigvals_sweep(mats)
    dims = (lam.real < 0).sum(axis=1)
    assert np.allclose(np.einsum("nii->n", proj).real, dims, atol=1e-9)


def test_sign_projector_annihilates_unstable_vectors():
    mats = off_axis(stack(n=50, seed=3))
    proj = _kernels.stable_projector_sweep(mats)
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
    proj = _kernels.stable_projector_sweep(mats)
    dims = np.round(np.einsum("nii->n", proj).real).astype(np.int64)
    frames = _kernels.orthonormal_range_sweep(proj, dims)
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
        _kernels.stable_projector_sweep(bad)
    assert info.value.index == 1


def _range_projectors(frames):
    return frames @ np.conj(np.swapaxes(frames, 1, 2))


def svd_range(mats, dims):
    """The SVD reference for a range sweep: the leading ``dims[i]`` left
    singular vectors of every stacked matrix, zero padded."""
    u = np.linalg.svd(mats)[0]
    return u * (np.arange(mats.shape[1]) < np.asarray(dims)[:, None])[:, None, :]


EPS = np.finfo(float).eps


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 8),
    log_cond=st.floats(0.0, 6.0),
    oblique=st.booleans(),
    data=st.data(),
)
def test_range_sweep_matches_the_svd_range(seed, d, log_cond, oblique, data):
    """Oblique projectors ``X diag(1_dims, 0) X^-1`` with cond(X) up to 1e6,
    or rank-``dims`` matrices whose nonzero singular values lie in
    [1, 1e6] (the ``chiral_point`` case): a clear gap below the rank."""
    n = 8
    dims = np.array(data.draw(st.lists(st.integers(0, d), min_size=n, max_size=n)))
    rng = np.random.default_rng(seed)
    u, v = (
        np.linalg.qr(rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d)))[0]
        for _ in range(2)
    )
    s = 10.0 ** (log_cond * rng.uniform(size=(n, d)))
    s[:, 0], s[:, -1] = 1.0, 10.0**log_cond
    lead = np.arange(d) < dims[:, None]
    if oblique:
        x = (u * s[:, None, :]) @ v
        mats = (x * lead[:, None, :]) @ np.linalg.inv(x)
    else:
        mats = (u * (s * lead)[:, None, :]) @ v

    q = _kernels.orthonormal_range_sweep(mats, dims)
    assert q.shape == (n, d, d)
    norm = np.linalg.norm(mats, 2, axis=(1, 2))
    resid = np.linalg.norm(mats - _range_projectors(q) @ mats, 2, axis=(1, 2))
    gap = np.abs(_range_projectors(q) - _range_projectors(svd_range(mats, dims))).max(axis=(1, 2))
    for i, k in enumerate(dims):
        basis = q[i][:, :k]
        assert np.abs(basis.conj().T @ basis - np.eye(k)).max(initial=0.0) <= 16 * EPS
        assert np.all(q[i][:, k:] == 0)  # the whole row where dims[i] = 0
    assert np.all(resid <= 16 * EPS * norm)
    assert np.all(gap <= 64 * EPS * norm)
    with pytest.raises(ValueError, match="rank exceeds"):
        _kernels.orthonormal_range_sweep(mats, np.where(np.arange(n) == n - 1, d + 1, dims))


def test_range_sweep_divides_each_column_by_its_norm():
    # a column times the rounded reciprocal of its norm is an ulp off:
    # 1 - 2**-53 for about one positive 1 x 1 entry in eight
    x = np.random.default_rng(11).uniform(1e-3, 1e3, size=(1000, 1, 1))
    assert np.all(_kernels.orthonormal_range_sweep(x, np.ones(1000, dtype=np.int64)) == 1.0)
    y = np.random.default_rng(12).uniform(0.1, 10.0, size=(1000, 3, 1))
    q = _kernels.orthonormal_range_sweep(y, np.ones(1000, dtype=np.int64))[:, :, 0]
    assert np.array_equal(q, y[:, :, 0] / np.sqrt((y[:, :, 0] ** 2).sum(axis=1))[:, None])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    log_ratio=st.floats(0.0, 6.0),
    data=st.data(),
)
def test_weighted_sweep_spans_the_weighted_frame_as_the_svd_sweep_does(seed, d, log_ratio, data):
    n = 8
    dims = np.array(data.draw(st.lists(st.integers(0, d), min_size=n, max_size=n)))
    rng = np.random.default_rng(seed)
    unitary = np.linalg.qr(rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d)))[0]
    raw = unitary * (np.arange(d) < dims[:, None])[:, None, :]
    ratio = 10.0**log_ratio
    w = ratio ** rng.uniform(size=(n, d))
    w[:, 0], w[:, -1] = 1.0, ratio
    weighted = np.sqrt(w)[:, :, None] * raw

    q = _kernels.weighted_range_sweep(weighted, dims)
    assert q.shape == (n, d, d)
    for i, k in enumerate(dims):
        lead = q[i][:, :k]
        assert np.abs(lead.conj().T @ lead - np.eye(k)).max(initial=0.0) <= 1e-14
        assert np.all(q[i][:, k:] == 0)
    gap = np.abs(_range_projectors(q) - _range_projectors(svd_range(weighted, dims))).max()
    assert gap <= 1e-15 * d * np.sqrt(ratio)


def test_weighted_sweep_gate_names_the_first_ill_conditioned_row():
    rng = np.random.default_rng(5)
    frames = np.linalg.qr(rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4)))[0]
    dims = np.array([2, 1, 3, 2, 0, 2])
    q = _kernels.weighted_range_sweep(frames, dims)
    lead = frames * (np.arange(4) < dims[:, None])[:, None, :]  # the later columns do not count
    assert np.abs(_range_projectors(q) - _range_projectors(lead)).max() <= 1e-14
    bad = frames.copy()
    for i in (3, 5):  # two nearly parallel leading columns: cond^2 about 4e14
        bad[i, :, 1] = bad[i, :, 0] + 1e-7 * bad[i, :, 1]
    with pytest.raises(IllConditionedFrame) as info:
        _kernels.weighted_range_sweep(bad, dims)
    assert info.value.index == 3


def test_weighted_sweep_gate_never_checks_a_single_column():
    rng = np.random.default_rng(6)
    frames = np.linalg.qr(rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4)))[0]
    w = np.array([1.0, 1e5, 1e10, 1e20])  # weight ratio 1e20
    weighted = np.sqrt(w)[None, :, None] * frames
    q = _kernels.weighted_range_sweep(weighted, np.ones(5, dtype=np.int64))
    assert np.all(q[:, :, 1:] == 0)
    with pytest.raises(IllConditionedFrame) as info:
        _kernels.weighted_range_sweep(weighted, np.full(5, 4))
    assert info.value.index == 0
