import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calderon.acceptance import _acceptance_specs
from calderon.errors import SpecError
from calderon.symbols import (
    ModeSymbol,
    _as_mode,
    _cosphere_directions,
    _term_stack,
    agree_up_to_order,
    build_gallery,
    check_ellipticity,
    defect_screen,
    dump_spec,
    load_spec,
    mode_lattice,
    mode_symbol,
    on_real_axis,
    scan_defect_modes,
    selfadjoint_double,
    symbol_values,
)

GALLERY = {
    "dbar": dict(mu=0.5),
    "twisted_dbar": dict(mu=0.5, d=3),
    "laplace_mass": dict(mu=1),
    "dirac2": dict(mu=1, v=0.3),
    "dirac3": dict(mu=1, v=0.3),
}


def gallery_specs():
    return [build_gallery(name, **params) for name, params in GALLERY.items()]


def sample_modes(spec, limit, count=200, seed=0):
    """All modes for a circle boundary, a seeded sample on the torus."""
    if spec.n == 2:
        return [(m,) for m in range(-limit, limit + 1)]
    rng = np.random.default_rng(seed)
    draws = rng.integers(-limit, limit + 1, size=(count, spec.n - 1))
    return [tuple(int(x) for x in row) for row in draws]


# ---------------------------------------------------------------------------
# gallery construction


def test_laplace_mass_coefficients():
    spec = build_gallery("laplace_mass", mu=1)
    assert spec.terms[(2, (0,))][0, 0] == -1
    assert spec.terms[(0, (2,))][0, 0] == -1
    assert spec.terms[(0, (0,))][0, 0] == 1


def test_dbar_coefficients():
    spec = build_gallery("dbar", mu=0.5)
    assert spec.terms[(1, (0,))][0, 0] == 1
    assert spec.terms[(0, (1,))][0, 0] == 1j
    assert spec.terms[(0, (0,))][0, 0] == 0.5


def test_twisted_dbar_shifts_only_the_constant_term():
    base = build_gallery("dbar", mu=0.5)
    twisted = build_gallery("twisted_dbar", mu=0.5, d=3)
    assert twisted.terms[(0, (0,))][0, 0] == 3.5
    for key in ((1, (0,)), (0, (1,))):
        assert np.array_equal(base.terms[key], twisted.terms[key])


def test_unknown_gallery_name_rejected():
    with pytest.raises(SpecError):
        build_gallery("helmholtz", mu=1)
    with pytest.raises(SpecError):
        build_gallery("dbar", mu=1, bogus=2)


def test_singular_top_coefficient_rejected():
    with pytest.raises(SpecError):
        build_gallery("custom", n=2, r=1, k=1, terms={(1, (0,)): [[0.0]]})


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_coefficient_rejected(bad):
    terms = {(1, (0,)): [[1.0]], (0, (1,)): [[1j]], (0, (0,)): [[0.5]]}
    for key in terms:
        with pytest.raises(SpecError, match="not finite"):
            build_gallery("custom", n=2, r=1, k=1, terms={**terms, key: [[bad]]})


def test_term_order_validation():
    with pytest.raises(SpecError):
        build_gallery(
            "custom", n=2, r=1, k=1,
            terms={(1, (0,)): [[1.0]], (1, (1,)): [[1.0]]},
        )


def test_top_symbol_matrix_is_mode_independent():
    lap = build_gallery("laplace_mass", mu=1)
    for m in (0, 5, -17):
        assert np.array_equal(mode_symbol(lap, m).A[2], lap.terms[(2, (0,))])


# ---------------------------------------------------------------------------
# mode symbols and homogeneous components


def test_mode_symbol_values():
    lap = build_gallery("laplace_mass", mu=1)
    sym = mode_symbol(lap, 0)
    assert sym.A[2][0, 0] == -1 and sym.A[1][0, 0] == 0 and sym.A[0][0, 0] == 1
    assert mode_symbol(lap, 2).A[0][0, 0] == 5  # -(2i)^2 + 1
    db = build_gallery("dbar", mu=0.5)
    assert mode_symbol(db, 3).A[0][0, 0] == pytest.approx(-2.5)


def _as_mode_by_loop(m):
    # reference: the element loop _as_mode replaced
    if np.isscalar(m):
        m = (m,)
    return tuple(float(x) if not float(x).is_integer() else int(x) for x in np.atleast_1d(m))


@pytest.mark.parametrize(
    "m",
    [
        3, -2, np.int64(-7), 2.0, 2.5, np.float64(-1.0), True, np.array(4), np.array([5]),
        (3, -2), [0, 1.5], (np.int64(1), np.int64(-1)), np.array([2, -3]),
        np.array([2.0, -0.5]), mode_lattice(3, 2)[7], (float("inf"), 1),
    ],
)
def test_as_mode_is_the_element_loop(m):
    n = 2 + np.atleast_1d(m).size - 1
    spec = build_gallery("custom", n=n, r=1, k=1, terms={(1, (0,) * (n - 1)): [[1.0]]})
    ref = _as_mode_by_loop(m)
    if not np.isfinite(ref).all():  # the loop's tuple, rejected by name
        with pytest.raises(SpecError, match=rf"mode \({ref[0]}, {ref[1]}\) is not finite"):
            _as_mode(spec, m)
        return
    got = _as_mode(spec, m)
    assert got == ref and [type(x) for x in got] == [type(x) for x in ref]


def test_non_finite_mode_is_rejected_before_any_arithmetic():
    dbar, dirac3 = build_gallery("dbar", mu=0.5), build_gallery("dirac3", mu=1, v=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from inf or NaN arithmetic
        with pytest.raises(SpecError, match=r"mode \(nan,\) is not finite"):
            mode_symbol(dbar, float("nan"))
        with pytest.raises(SpecError, match=r"mode \(inf, 0\) is not finite"):
            mode_symbol(dirac3, (np.inf, 0))
        with pytest.raises(SpecError, match=r"mode \(-inf,\) is not finite"):
            mode_symbol(dbar, -np.inf)
        # a square that overflows made the defect predicate count every root as real
        for m in [(1e200, 0), (1e154, 1e154), (10**400, 0)]:
            with pytest.raises(SpecError, match=rf"mode \({int(m[0])}, {int(m[1])}\) is not finite"):
                mode_symbol(dirac3, m)
    assert mode_symbol(dirac3, (1e150, 3)).m == (int(1e150), 3)


def test_mode_symbol_is_read_only_and_copies_a_callers_array():
    spec = build_gallery("dirac3", mu=1, v=0.3)
    sym = mode_symbol(spec, np.array([3, -2]))
    assert sym.m == (3, -2) and sym.A.dtype == complex and not sym.A.flags.writeable
    # a caller's array is copied, so changing it changes no symbol
    A = np.array(sym.A)
    held = ModeSymbol(spec=spec, m=(3, -2), A=A)
    A[0] = 7.0
    assert held.A.tobytes() == sym.A.tobytes() and not held.A.flags.writeable


def homogeneous_component(spec, j, m, xi):
    """Degree ``k - j`` homogeneous part of the symbol at ``(m, xi)``: the
    N=1 mode stack of that degree's terms, evaluated by ``symbol_values``."""
    A = _term_stack(spec, [_as_mode(spec, m)], spec.k - j)
    return symbol_values(A, np.asarray(complex(xi)))[0]


def test_homogeneous_component_values():
    lap = build_gallery("laplace_mass", mu=1)
    assert homogeneous_component(lap, 0, 2, 1.0)[0, 0] == pytest.approx(5.0)
    assert homogeneous_component(lap, 2, 5, 0.3)[0, 0] == pytest.approx(1.0)
    db = build_gallery("dbar", mu=0.5)
    assert homogeneous_component(db, 0, 1, 1.0)[0, 0] == pytest.approx(1j - 1.0)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_homogeneous_components_sum_to_full_symbol(name):
    spec = build_gallery(name, **GALLERY[name])
    rng = np.random.default_rng(1)
    xis = rng.normal(size=10) + 1j * rng.normal(size=10)
    limit = 64 if spec.n == 2 else 64
    for m in sample_modes(spec, limit, count=60):
        sym = mode_symbol(spec, m)
        for xi in xis:
            total = sum(
                homogeneous_component(spec, j, m, xi) for j in range(spec.k + 1)
            )
            full = sym(xi)
            assert np.abs(total - full).max() <= 1e-12 * (1 + np.abs(full).max())


# ---------------------------------------------------------------------------
# agreement order


def test_agreement_orders():
    db = build_gallery("dbar", mu=0.5)
    tw = build_gallery("twisted_dbar", mu=0.5, d=3)
    l1 = build_gallery("laplace_mass", mu=1)
    l2 = build_gallery("laplace_mass", mu=2)
    assert agree_up_to_order(db, db) == "full"
    assert agree_up_to_order(db, tw) == 0
    assert agree_up_to_order(l1, l2) == 1
    with pytest.raises(SpecError):
        agree_up_to_order(db, l1)


def test_agreement_is_symmetric_and_detects_principal_mismatch():
    d0 = build_gallery("dirac2", mu=1, v=0)
    d3 = build_gallery("dirac2", mu=1, v=0.3)
    assert agree_up_to_order(d0, d3) == agree_up_to_order(d3, d0) == 0
    flipped = build_gallery(
        "custom", n=2, r=1, k=1,
        terms={(1, (0,)): [[2.0]], (0, (1,)): [[1j]], (0, (0,)): [[0.5]]},
    )
    assert agree_up_to_order(build_gallery("dbar", mu=0.5), flipped) is None


def test_agreement_full_only_on_equal_tables():
    l1 = build_gallery("laplace_mass", mu=1)
    same = build_gallery("laplace_mass", mu=1)
    assert agree_up_to_order(l1, same) == "full"


# ---------------------------------------------------------------------------
# ellipticity and rays


def test_laplace_ellipticity():
    rep = check_ellipticity(build_gallery("laplace_mass", mu=1), 64)
    assert rep.passed
    assert rep.min_abs_det == pytest.approx(1.0, abs=1e-12)
    assert rep.defect_modes == []


def test_dbar_defect_modes():
    rep = check_ellipticity(build_gallery("dbar", mu=0.5), 64)
    assert rep.passed and rep.defect_modes == []
    rep0 = check_ellipticity(build_gallery("dbar", mu=0.0), 64)
    assert rep0.passed and rep0.defect_modes == [0]


def test_dirac_defect_modes():
    rep = check_ellipticity(build_gallery("dirac2", mu=1, v=0), 64)
    assert rep.defect_modes == [-1, 0, 1]
    assert scan_defect_modes(build_gallery("dirac3", mu=1, v=0.3), 8) == [(0, 0)]


# the lattices acceptance and the CLI pipeline benchmark sweep, with the
# benchmark's parameters at the ends and middle of the ranges it draws
# from, and gallery parameters that put modes on the defect screen
_SCREENED = (
    [(spec, cutoff) for spec, cutoff in _acceptance_specs()]
    + [(build_gallery("dirac2", mu=1, v=v), 4096) for v in (0.0, 0.05, 0.3, 0.5)]
    + [(build_gallery("laplace_mass", mu=mu), 512) for mu in (0.0, 0.5, 1.0, 2.0)]
    + [(build_gallery("dirac3", mu=1, v=v), c) for v in (0.0, 0.05, 0.5) for c in (48, 128)]
    + [(build_gallery("twisted_dbar", mu=mu, d=d), 16) for mu in (0.0, 0.2, 0.8) for d in (1, 2, 3)]
    + [(build_gallery("dbar", mu=mu), 16) for mu in (0.0, 0.2, 0.8)]
)


@pytest.mark.parametrize("case", range(len(_SCREENED)))
def test_defect_screen_excludes_what_lapack_eigenvalues_exclude(case):
    # the closed-form 2x2 eigenvalues move no lattice mode across the
    # defect screen, and give every retained mode its LAPACK dimension
    spec, cutoff = _SCREENED[case]
    modes = mode_lattice(spec.n, cutoff)
    comp, lam, bad = defect_screen(spec, modes)
    ref = np.linalg.eigvals(comp)
    assert np.array_equal(bad, on_real_axis(np.abs(ref.real).min(axis=1), modes))
    assert np.array_equal((lam[~bad].real < 0).sum(axis=1), (ref[~bad].real < 0).sum(axis=1))


def test_sample_count_validation():
    with pytest.raises(SpecError):
        check_ellipticity(build_gallery("dbar", mu=0.5), samples=4)


# ---------------------------------------------------------------------------
# self-adjoint doubling


def test_double_dbar_mode_symbol():
    spec = selfadjoint_double(build_gallery("dbar", mu=0.5))
    assert spec.r == 2
    sym = mode_symbol(spec, 0)
    xi = 0.7
    a = sym(xi)
    assert a[0, 0] == 0 and a[1, 1] == 0
    assert a[0, 1] == pytest.approx(1j * xi + 0.5)
    assert a[1, 0] == pytest.approx(-1j * xi + 0.5)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_double_is_symbol_level_selfadjoint(name):
    spec = selfadjoint_double(build_gallery(name, **GALLERY[name]))
    rng = np.random.default_rng(2)
    xis = rng.normal(size=10)
    for m in sample_modes(spec, 32, count=40, seed=3):
        sym = mode_symbol(spec, m)
        for xi in xis:
            a = sym(xi)
            assert np.abs(a - a.conj().T).max() < 1e-12 * (1 + np.abs(a).max())


def test_double_twice_nests_blocks():
    spec = build_gallery("dirac2", mu=1, v=0.3)
    dd = selfadjoint_double(selfadjoint_double(spec))
    assert dd.r == 4 * spec.r
    sym = mode_symbol(dd, 1)
    a = sym(0.3)
    assert np.abs(a[: dd.r // 2, : dd.r // 2]).max() == 0


def test_double_marks_chirality():
    spec = selfadjoint_double(build_gallery("dbar", mu=0.5))
    assert spec.chiral_blocks == ((1,), (0,))


# ---------------------------------------------------------------------------
# serialization


def test_round_trip_gallery():
    for spec in gallery_specs():
        back = load_spec(dump_spec(spec))
        assert back.name == spec.name
        assert (back.n, back.r, back.k) == (spec.n, spec.r, spec.k)
        assert set(back.terms) == set(spec.terms)
        for key in spec.terms:
            assert np.array_equal(back.terms[key], spec.terms[key])
        assert back.chiral_blocks == spec.chiral_blocks


@settings(max_examples=25, deadline=None)
@given(
    vals=st.lists(
        st.fractions(min_value=-(2**20), max_value=2**20, max_denominator=1024),
        min_size=8,
        max_size=8,
    ),
    k=st.integers(min_value=1, max_value=3),
)
def test_round_trip_is_bit_exact_for_rationals(vals, k):
    f = [float(v) for v in vals]
    terms = {
        (k, (0,)): [[1.0 + f[0] ** 2]],
        (0, (0,)): [[f[2] + 1j * f[3]]],
        (0, (1,)): [[f[4] + 1j * f[5]]],
        (0, (k,)): [[f[6] + 1j * f[7]]],
    }
    spec = build_gallery("custom", name="fuzz", n=2, r=1, k=k, terms=terms)
    back = load_spec(dump_spec(spec))
    for key in spec.terms:
        a, b = spec.terms[key], back.terms[key]
        assert a[0, 0].real == b[0, 0].real and a[0, 0].imag == b[0, 0].imag


# ---------------------------------------------------------------------------
# the per-term formula as a reference for the stacked evaluator


def _phase(m, beta):
    """(i m)^beta for a tangential frequency vector m, one scalar factor
    at a time."""
    out = 1.0 + 0.0j
    for mj, bj in zip(m, beta):
        if bj:
            out *= (1j * mj) ** bj
    return out


def _reference_mode_matrices(spec, m):
    A = np.zeros((spec.k + 1, spec.r, spec.r), dtype=complex)
    for (q, beta), c in spec.terms.items():
        A[q] += _phase(m, beta) * c
    return A


def _reference_component(spec, j, m, xi_n):
    out = np.zeros((spec.r, spec.r), dtype=complex)
    for (q, beta), c in spec.terms.items():
        if q + sum(beta) == spec.k - j:
            out += _phase(m, beta) * (1j * complex(xi_n)) ** q * c
    return out


def _reference_principal(spec, samples):
    """Principal symbols on the cosphere, one direction at a time."""
    dirs = _cosphere_directions(spec.n, samples)
    return [_reference_component(spec, 0, d[:-1], d[-1]) for d in dirs]


def _reference_min_abs_det(spec, samples):
    return float(np.abs([np.linalg.det(a) for a in _reference_principal(spec, samples)]).min())


XI_SAMPLES = (0.7, -1.3, 0.4 + 0.9j, -2.1 - 0.3j)


def _mixed_spec():
    """n=3, order 2, rank 2, with d_n d_t1, d_t1 d_t2 and d_n d_t2 terms."""
    rng = np.random.default_rng(11)
    keys = [(2, (0, 0)), (1, (1, 0)), (1, (0, 1)), (0, (1, 1)), (0, (2, 0)),
            (0, (0, 2)), (1, (0, 0)), (0, (0, 0))]
    terms = {key: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for key in keys}
    return build_gallery("custom", name="mixed", n=3, r=2, k=2, terms=terms)


@pytest.mark.parametrize("name", [*sorted(GALLERY), "laplace_double"])
def test_stacked_evaluator_is_the_per_term_formula_bitwise(name):
    if name == "laplace_double":
        spec = selfadjoint_double(build_gallery("laplace_mass", mu=1))
    else:
        spec = build_gallery(name, **GALLERY[name])
    for m in mode_lattice(spec.n, 6 if spec.n == 2 else 3):
        want = _reference_mode_matrices(spec, m)
        assert mode_symbol(spec, m).A.tobytes() == want.tobytes()
        for j in range(spec.k + 1):
            for xi in XI_SAMPLES:
                got = homogeneous_component(spec, j, m, xi)
                assert got.tobytes() == _reference_component(spec, j, m, xi).tobytes()
    assert check_ellipticity(spec, 64).min_abs_det == _reference_min_abs_det(spec, 64)


def test_stacked_evaluator_rounds_like_the_per_term_formula_on_mixed_terms():
    # (i xi_n)^q multiplies the summed A_q(m), after the sum over beta
    spec = _mixed_spec()
    for m in mode_lattice(3, 3):
        assert np.array_equal(mode_symbol(spec, m).A, _reference_mode_matrices(spec, m))
        for j in range(spec.k + 1):
            for xi in XI_SAMPLES:
                want = _reference_component(spec, j, m, xi)
                got = homogeneous_component(spec, j, m, xi)
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    got = check_ellipticity(spec, 64).min_abs_det
    assert abs(got - _reference_min_abs_det(spec, 64)) <= 1e-15 * got
