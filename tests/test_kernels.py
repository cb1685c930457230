import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calderon import _kernels
from calderon.errors import IllConditionedFrame, SignIterationStalled
from calderon.symbols import on_real_axis


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


def test_sign_iteration_never_writes_its_input():
    good = off_axis(stack(n=40, seed=7))
    want = _kernels._sign(good.copy())[0]
    # a singular row stops at the first step, an imaginary-axis row never
    # converges: both leave the rest of the stack to iterate without them
    bad = np.array([np.zeros((4, 4)), np.diag([1j, -1.0, 2.0, -3.0])], dtype=complex)
    for mats in (good, np.concatenate([bad[:1], good, bad[1:]])):
        before = mats.copy()
        sign, ok = _kernels._sign(mats)
        assert np.array_equal(mats, before)
        assert ok.sum() == len(good) and np.array_equal(sign[ok], want)
    before = good.copy()
    _kernels.stable_projector_sweep(good)
    assert np.array_equal(good, before)


@pytest.mark.parametrize("d", [2, 4])  # closed-form 2x2 steps, and LAPACK
def test_a_sign_row_is_its_single_row_run(d):
    # rows leave the iteration at different steps, as they converge or turn
    # singular; no row's result or flag depends on the rows beside it
    rng = np.random.default_rng(29 + d)
    rows = []
    for re in (1e-4, 1e-2, 1.0, 1e3):  # distance of the spectrum from the axis
        for _ in range(6):
            lam = re * rng.uniform(1, 2, size=d) * rng.choice([-1.0, 1.0], size=d)
            X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rows.append(X @ np.diag(lam + 1j * rng.normal(size=d)) @ np.linalg.inv(X))
    singular = rng.normal(size=(3, d, d)) + 0j
    singular[:, -1] = 0  # a zero row: the determinant is exactly 0
    rest = [-1.0, 2.0, -3.0][: d - 1]
    axis = [np.diag([1j, *rest]), np.diag([2.5j, *rest]), np.diag([0.3j, *rest])]
    mats = np.array(rows + list(singular) + axis + [np.zeros((d, d))], dtype=complex)
    mats = mats[rng.permutation(len(mats))]
    before = mats.copy()
    sign, ok = _kernels._sign(mats)
    assert mats.tobytes() == before.tobytes()
    assert ok.sum() == len(rows)
    for i, row in enumerate(mats):
        one, flag = _kernels._sign(row[None].copy())
        assert sign[i].tobytes() == one[0].tobytes() and ok[i] == flag[0]


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


# -- closed-form 2x2 kernels ----------------------------------------------

U = float(EPS) / 2  # unit roundoff, a Python float so that it multiplies mpmath numbers as one

try:
    import mpmath
except ImportError:  # the test extra installs it
    mpmath = None
needs_mpmath = pytest.mark.skipif(mpmath is None, reason="needs mpmath for the 50-digit references")


def _mp_sigma_min(m):
    """Smallest singular value of a 2x2 mpmath matrix, from its Frobenius
    norm and determinant."""
    fro2 = sum(abs(m[i, j]) ** 2 for i in range(2) for j in range(2))
    det = abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    big2 = (fro2 + mpmath.sqrt(max(fro2**2 - 4 * det**2, 0))) / 2
    return det / mpmath.sqrt(big2) if big2 > 0 else mpmath.mpf(0)


def _mp_eigvals(a):
    """The two eigenvalues of a 2x2 float matrix, to 50 digits."""
    p, q, r, u = (mpmath.mpc(complex(x)) for x in a.ravel())
    h, root = (p + u) / 2, mpmath.sqrt(((p - u) / 2) ** 2 + q * r)
    return h + root, h - root


def _two_by_two(kind, rng, n):
    """``n`` complex 2x2 matrices of one kind, entries of order 1."""
    z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    if kind == "general":
        return z
    if kind == "singular":  # rank one
        return z[:, :, :1] * z[:, :1, :].conj()
    x = z @ np.linalg.inv(z[::-1] + 3 * np.eye(2))  # a similarity, mostly well-conditioned
    lam = rng.normal(size=n) + 1j * rng.normal(size=n)
    if kind == "equal":  # a Jordan block
        d = lam[:, None, None] * np.eye(2) + np.array([[0, 1], [0, 0]]) * z[:, :1, :1]
    else:  # eigenvalues 1e-12 to 1e-4 apart, relatively
        d = np.zeros((n, 2, 2), dtype=complex)
        d[:, 0, 0], d[:, 1, 1] = lam, lam * (1 + 10.0 ** rng.uniform(-12, -4, size=n))
    return x @ d @ np.linalg.inv(x)


@needs_mpmath
@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["general", "equal", "near", "singular"]),
    log_scale=st.integers(-150, 150),
    log_spread=st.integers(0, 12),
)
def test_two_by_two_eigenvalues_are_backward_stable(seed, kind, log_scale, log_spread):
    """Every eigenvalue ``z`` the closed form returns is an exact
    eigenvalue of a matrix within ``8 u |A|_F`` of ``A``: the smallest
    singular value of ``A - z I``, to 50 digits, is at most that.  (On
    1,200 unscaled stacks of these kinds LAPACK's eigenvalues read up to 9.2 u |A|_F and
    the closed form's up to 2.7 u |A|_F.)  The pair is a pair: its
    product is ``det A`` to ``8 u (|ad| + |bc|)``.  Rows are scaled over
    1e+-150, and their entries spread over up to 12 decades within a
    row."""
    rng = np.random.default_rng(seed)
    n = 6
    spread = 10.0 ** (log_spread * rng.uniform(-0.5, 0.5, size=(n, 2, 2)))
    a = np.ascontiguousarray(_two_by_two(kind, rng, n) * spread * 10.0**log_scale)
    got = _kernels.eigvals_sweep(a)
    assert got.shape == (n, 2) and np.isfinite(got).all()
    with mpmath.workdps(50):
        for i in range(n):
            m = mpmath.matrix(a[i].tolist())
            norm = mpmath.sqrt(sum(abs(m[j, k]) ** 2 for j in range(2) for k in range(2)))
            for z in got[i]:
                assert _mp_sigma_min(m - complex(z) * mpmath.eye(2)) <= 8 * U * norm
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            cross = abs(m[0, 0] * m[1, 1]) + abs(m[0, 1] * m[1, 0])
            prod = mpmath.mpc(complex(got[i, 0])) * mpmath.mpc(complex(got[i, 1]))
            assert abs(prod - det) <= 8 * U * cross + 8 * U * abs(prod)


def test_two_by_two_eigenvalues_of_equal_singular_zero_and_nan_rows():
    a = np.array(
        [
            [[2.0, 0.0], [0.0, 2.0]],  # a scalar matrix: 2, twice
            [[3.0, 1.0], [0.0, 3.0]],  # a Jordan block
            [[1.0, 2.0], [2.0, 4.0]],  # singular: 5 and 0
            [[3.0, -6.0], [1.0, -2.0]],  # singular: 1 and 0
            [[0.0, 1.0], [0.0, 0.0]],  # nilpotent
            np.zeros((2, 2)),
            [[np.nan, 1.0], [0.0, 1.0]],
            [[1e-300, 0.0], [0.0, 0.0]],  # a row below the float range's square root
            [[0.0, 1e300], [1e300, 0.0]],  # and one above it: +-1e300
        ],
        dtype=complex,
    )
    got = _kernels.eigvals_sweep(a)  # a NaN or zero row warns of nothing
    keep = np.isfinite(a).all(axis=(1, 2))
    want = np.sort_complex(np.array(
        [[2, 2], [3, 3], [5, 0], [1, 0], [0, 0], [0, 0], [1e-300, 0], [1e300, -1e300]], dtype=complex
    ))
    # to a few ulps, and a singular row's zero eigenvalue exactly (LAPACK
    # reads 1.2e-32 for the first one)
    assert (np.abs(np.sort_complex(got[keep]) - want) <= 4 * EPS * np.abs(want)).all()
    assert np.isnan(got[~keep]).all()
    assert _kernels.eigvals_sweep(np.zeros((0, 2, 2))).shape == (0, 2)


def test_sign_iteration_stops_a_singular_two_by_two_row_at_its_determinant():
    # det = 0 exactly: the row leaves at the |det| < 1e-280 test, before
    # Cramer's rule would divide by it (a RuntimeWarning, an error here)
    good = off_axis(stack(n=20, d=2, seed=13))
    mats = np.concatenate([good, [[[1.0, 2.0], [2.0, 4.0]], np.zeros((2, 2))]])
    sign, ok = _kernels._sign(mats)
    assert ok.tolist() == [True] * len(good) + [False, False]
    assert np.array_equal(sign[-2:], mats[-2:])
    with pytest.raises(SignIterationStalled) as info:
        _kernels.stable_projector_sweep(mats)
    assert info.value.index == len(good)


def test_two_by_two_sign_matches_lapack_sign_to_rounding():
    mats = off_axis(stack(n=400, d=2, seed=17), margin=0.05)
    got = _kernels.stable_projector_sweep(mats)
    with_lapack = []
    for x in mats:
        lam, vec = np.linalg.eig(x)
        stable = vec[:, lam.real < 0]
        left = np.linalg.inv(vec)[lam.real < 0]
        with_lapack.append(stable @ left)
    ref = np.array(with_lapack)
    scale = (1 + np.abs(ref).max(axis=(1, 2))) * np.linalg.cond(mats)
    assert (np.abs(got - ref).max(axis=(1, 2)) <= 64 * EPS * scale).all()


@needs_mpmath
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ulps=st.integers(-512, 512),
    mode=st.integers(0, 4096),
    side=st.sampled_from([-1.0, 1.0]),
    normal=st.booleans(),
    log2_scale=st.sampled_from([0, -480, 480]),
)
def test_closed_form_crosses_the_defect_screen_only_where_lapack_may(
    seed, ulps, mode, side, normal, log2_scale
):
    """Matrices ``V diag(near, far) V^-1`` whose eigenvalue nearest the
    imaginary axis has a real part within 512 ulps of ``on_real_axis``'s
    threshold ``t`` and an imaginary part within ``t``; the other
    eigenvalue has modulus in ``[t/2, 2t]``.  Each solver's eigenvalues
    lie within ``8 u |A|_F cond(V)`` of the exact ones (backward
    stability, as the test above pins for the closed form, and
    Bauer-Fike), a band of about ``13 cond(V)`` ulps of ``t``.  Outside
    that band around ``t`` the closed form decides as the exact
    eigenvalues do, and as LAPACK does; inside it no solver can tell.
    Scaling by ``2**+-480`` (about 1e+-144) changes nothing."""
    rng = np.random.default_rng(seed)
    modes = np.array([[mode]])
    t = 1e-10 * (1.0 + np.sqrt(float(mode) ** 2))  # on_real_axis's threshold
    near = side * t * (1.0 + ulps * EPS) + 1j * t * rng.uniform(-1, 1)
    far = t * rng.uniform(0.5, 2) * np.exp(2j * np.pi * rng.uniform())
    if normal:
        v = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    else:
        v = np.eye(2) + 0.5 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    a = (v * [near, far]) @ np.linalg.inv(v)
    scale = 2.0**log2_scale
    with mpmath.workdps(50):
        exact = min(abs(mpmath.re(z)) for z in _mp_eigvals(a))
        certain = abs(exact - t) > 8 * U * np.linalg.norm(a) * np.linalg.cond(v)
        want = bool(exact <= t)
    decide = {
        name: bool(on_real_axis(np.abs(lam.real / scale).min(axis=1), modes)[0])
        for name, lam in (
            ("closed", _kernels.eigvals_sweep(a[None] * scale)),
            ("lapack", np.linalg.eigvals(a[None] * scale)),
        )
    }
    if certain:
        assert decide == {"closed": want, "lapack": want}


def _frames_with_cond(cond, p, rng):
    """Complex ``(p, 2)`` frames ``U diag(1, 1/cond) W^H`` with orthonormal
    ``U`` and unitary ``W``: condition number ``cond``."""
    n = len(cond)
    u = np.linalg.qr(rng.normal(size=(n, p, 2)) + 1j * rng.normal(size=(n, p, 2)))[0]
    w = np.linalg.qr(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))[0]
    s = np.stack([np.ones(n), 1 / cond], axis=1)
    return (u * s[:, None, :]) @ np.conj(np.swapaxes(w, 1, 2))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 5),
    log_scale=st.integers(-150, 150),
)
def test_two_column_gate_decides_as_cond_does(seed, p, log_scale):
    """The closed-form gate against ``np.linalg.cond``, on frames whose
    condition numbers lie in [0.9e6, 1.1e6], most of them within 1e-4 of
    the gate's 1e6, and on Gaussian frames, some with a nearly parallel
    second column, all scaled over 1e+-150.  Both condition numbers carry
    a relative error of a few ``eps`` times the condition number, about
    1e-9 at the gate, so only a frame whose SVD condition number lies
    within 1e-8 of 1e6 may be decided either way."""
    rng = np.random.default_rng(seed)
    # 1e6 (1 +- 10^x), x uniform in [-8, -1]: the Gram route's relative
    # error, near 1e-4 here, would flip some of these decisions
    off = rng.choice([-1.0, 1.0], size=32) * 10.0 ** rng.uniform(-8, -1, size=32)
    near = _frames_with_cond(1e6 * (1 + off), p, rng)
    gauss = rng.normal(size=(32, p, 2)) + 1j * rng.normal(size=(32, p, 2))
    tilt = 10.0 ** rng.uniform(-9, -3, size=16)
    gauss[:16, :, 1] = gauss[:16, :, 0] + tilt[:, None] * gauss[:16, :, 1]
    frames = np.concatenate([near, gauss]) * 10.0**log_scale
    ref = np.linalg.cond(frames)
    decided = np.abs(ref / 1e6 - 1) > 1e-8
    got = _kernels._frames_pass(frames)
    assert np.array_equal(got[decided], ref[decided] <= 1e6)
    assert 0 < got[:32].sum() < 32


def test_two_column_gate_fails_zero_parallel_and_nan_frames():
    rng = np.random.default_rng(21)
    good = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    frames = np.array([good, good, good, good, good])
    frames[1, :, 0] = 0  # a zero first column
    frames[2] = 0  # no column at all
    frames[3, :, 1] = (2 - 1j) * frames[3, :, 0]  # parallel columns
    frames[4, 1, 1] = np.nan
    assert _kernels._frames_pass(frames).tolist() == [True, False, False, False, False]
    with pytest.raises(IllConditionedFrame) as info:
        _kernels.weighted_range_sweep(np.concatenate([frames, frames[:1]], axis=0), np.full(6, 2))
    assert info.value.index == 1
