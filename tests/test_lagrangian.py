"""Tests for time-dependent Lagrangians/Hamiltonians, energies, the covariant
Legendre map, fiber inversion, and the finite-difference derivative checker."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from diracsim import lagrangian as lagrangian_module
from diracsim.geometry import CotangentP, PhasePoint, PontryaginState, _slots
from diracsim.lagrangian import (
    DerivativeReport,
    HyperregularityError,
    LegendreConvergenceError,
    TimeHamiltonian,
    TimeLagrangian,
    check_derivatives,
    covariant_hamiltonian,
    covariant_legendre,
    dirac_differential,
    lagrangian_energy,
    legendre_dual,
    legendre_invert,
)


def make_mechanical(n=2, mass=1.0, omega=1.3):
    """L = m|v|^2/2 - m omega^2 |x|^2/2 - 0.1 t <x, 1>: hyperregular, with
    explicit time dependence."""

    ones = np.ones(n)
    return TimeLagrangian(
        n=n,
        value=lambda t, x, v: 0.5 * mass * float(v @ v)
        - 0.5 * mass * omega**2 * float(x @ x)
        - 0.1 * t * float(x @ ones),
        d_t=lambda t, x, v: -0.1 * float(x @ ones),
        d_x=lambda t, x, v: -mass * omega**2 * x - 0.1 * t * ones,
        d_v=lambda t, x, v: mass * v,
        d_vv=lambda t, x, v: mass * np.eye(n),
    )


def make_quartic():
    """Scalar L = v^4 / 4: strictly convex for v != 0, p = v^3."""

    return TimeLagrangian(
        n=1,
        value=lambda t, x, v: 0.25 * float(v[0] ** 4),
        d_t=lambda t, x, v: 0.0,
        d_x=lambda t, x, v: np.zeros(1),
        d_v=lambda t, x, v: np.array([v[0] ** 3]),
        d_vv=lambda t, x, v: np.array([[3.0 * v[0] ** 2]]),
    )


def make_degenerate():
    """Two velocities, Hessian regular only on the first block."""

    return TimeLagrangian(
        n=2,
        value=lambda t, x, v: 0.5 * v[0] ** 2 + v[1] * x[0],
        d_t=lambda t, x, v: 0.0,
        d_x=lambda t, x, v: np.array([v[1], 0.0]),
        d_v=lambda t, x, v: np.array([v[0], x[0]]),
        d_vv=lambda t, x, v: np.array([[1.0, 0.0], [0.0, 0.0]]),
        regular_block=(0,),
    )


def rand_state(n, seed=0):
    rng = np.random.default_rng(seed)
    return PontryaginState(
        t=float(rng.uniform(0, 2)),
        x=rng.normal(size=n),
        v=rng.normal(size=n),
        pt=float(rng.normal()),
        p=rng.normal(size=n),
    )


# -- energies -------------------------------------------------------------


def test_energy_identities():
    L = make_mechanical()
    s = rand_state(2, seed=1)
    E_L = lagrangian_energy(L, s.t, s.x, s.v)
    # E_L = <dL/dv, v> - L
    d_v = L.d_v(s.t, s.x, s.v)
    assert E_L == pytest.approx(float(d_v @ s.v) - L.value(s.t, s.x, s.v))


def test_energy_explicit_value():
    L = make_mechanical(n=1, mass=2.0, omega=1.0)
    t, x, v = 0.0, np.array([0.0]), np.array([3.0])
    # E_L = (1/2) m v^2 + (1/2) m w^2 x^2 evaluated at x = 0
    assert lagrangian_energy(L, t, x, v) == pytest.approx(0.5 * 2.0 * 9.0)


def test_covariant_energy_vanishes_on_legendre_image():
    L = make_mechanical()
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = float(rng.uniform(0, 2))
        x = rng.normal(size=2)
        v = rng.normal(size=2)
        z = covariant_legendre(L, t, x, v)
        # The covariant energy pt + <p, v> - L at the image point.
        assert z.pt + float(z.p @ v) - L.value(t, x, v) == pytest.approx(0.0, abs=1e-12)


def test_d_covariant_energy_gamma_is_exactly_one():
    L = make_mechanical()
    s = rand_state(2, seed=4)
    point = (np.asarray(c)[None] for c in (s.t, s.x, s.v, s.p))
    _, _, _, gamma, _ = _slots(lagrangian_module._covariant_differential(L, *point)[0], 2)
    assert gamma == 1.0


def test_d_covariant_energy_against_finite_differences():
    L = make_mechanical()
    s = rand_state(2, seed=5)
    point = (np.asarray(c)[None] for c in (s.t, s.x, s.v, s.p))
    a = CotangentP(*_slots(lagrangian_module._covariant_differential(L, *point)[0], 2))

    def E(t, x, v, pt, p):
        return pt + float(p @ v) - float(L.value(t, x, v))

    h = 1e-6
    fd_pi = (E(s.t + h, s.x, s.v, s.pt, s.p) - E(s.t - h, s.x, s.v, s.pt, s.p)) / (2 * h)
    assert a.pi == pytest.approx(fd_pi, abs=1e-7)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (E(s.t, s.x + e, s.v, s.pt, s.p) - E(s.t, s.x - e, s.v, s.pt, s.p)) / (2 * h)
        assert a.alpha[i] == pytest.approx(fd, abs=1e-7)
        fd = (E(s.t, s.x, s.v + e, s.pt, s.p) - E(s.t, s.x, s.v - e, s.pt, s.p)) / (2 * h)
        assert a.beta[i] == pytest.approx(fd, abs=1e-7)
        fd = (E(s.t, s.x, s.v, s.pt, s.p + e) - E(s.t, s.x, s.v, s.pt, s.p - e)) / (2 * h)
        assert a.w[i] == pytest.approx(fd, abs=1e-7)
    # beta = p - dL/dv componentwise
    npt.assert_allclose(a.beta, s.p - L.d_v(s.t, s.x, s.v), atol=1e-14)


# -- covariant Legendre map and Dirac differential ------------------------


def test_covariant_legendre_components():
    L = make_mechanical(n=2, mass=1.5)
    t, x, v = 0.4, np.array([1.0, -1.0]), np.array([2.0, 0.5])
    z = covariant_legendre(L, t, x, v)
    assert z.t == t
    npt.assert_allclose(z.x, x)
    npt.assert_allclose(z.p, 1.5 * v)
    assert z.pt == pytest.approx(-lagrangian_energy(L, t, x, v))


def test_dirac_differential_matches_direct_formula():
    L = make_mechanical()
    rng = np.random.default_rng(6)
    for _ in range(10):
        t = float(rng.uniform(0, 2))
        x = rng.normal(size=2)
        v = rng.normal(size=2)
        point, cov = dirac_differential(L, t, x, v)
        # Base point is the covariant Legendre image, bit for bit.
        z = covariant_legendre(L, t, x, v)
        assert point.t == z.t
        assert np.array_equal(point.x, z.x)
        assert point.pt == z.pt
        assert np.array_equal(point.p, z.p)
        # Covector is (-dL/dt, -dL/dx, 1, v), bit for bit.
        assert cov.pi == -float(L.d_t(t, x, v))
        assert np.array_equal(cov.alpha, -np.asarray(L.d_x(t, x, v)))
        assert cov.gamma == 1.0
        assert np.array_equal(cov.w, v)


def test_covariant_hamiltonian_value_and_differential():
    L = make_mechanical()
    H = legendre_dual(L)
    z = PhasePoint(
        t=0.3, x=np.array([0.5, -0.2]), pt=0.7, p=np.array([1.0, 2.0])
    )
    value, cov = covariant_hamiltonian(H, z)
    assert value == pytest.approx(z.pt + H.value(z.t, z.x, z.p))
    assert cov.gamma == 1.0
    npt.assert_allclose(cov.w, H.d_p(z.t, z.x, z.p))
    h = 1e-6
    fd_t = (H.value(z.t + h, z.x, z.p) - H.value(z.t - h, z.x, z.p)) / (2 * h)
    assert cov.pi == pytest.approx(fd_t, abs=1e-7)


# -- fiber inversion ------------------------------------------------------


def test_legendre_invert_quartic_against_root_finder():
    L = make_quartic()
    p_target = np.array([8.0])
    # Independent root: solve v^3 = 8 by bisection.
    v_ref = brentq(lambda v: v**3 - 8.0, 0.1, 10.0, xtol=1e-14)
    v = legendre_invert(L, 0.0, np.zeros(1), p_target, v_guess=np.array([1.0]))
    assert v[0] == pytest.approx(v_ref, abs=1e-9)
    assert v[0] == pytest.approx(2.0, abs=1e-9)


def test_legendre_invert_singular_hessian_raises():
    L = make_quartic()
    with pytest.raises(HyperregularityError):
        legendre_invert(
            L, 0.0, np.zeros(1), np.array([8.0]), v_guess=np.array([0.0])
        )


def test_legendre_invert_iteration_budget(monkeypatch):
    monkeypatch.setattr(lagrangian_module, "_LEGENDRE_MAX_ITER", 2)
    L = make_quartic()
    with pytest.raises(LegendreConvergenceError, match="in 2 iterations"):
        legendre_invert(L, 0.0, np.zeros(1), np.array([8.0]), v_guess=np.array([50.0]))


@pytest.mark.parametrize("P", [1e7, 1e8])
def test_legendre_invert_converges_at_any_momentum_scale(P):
    # The stop is relative to max|p|: at these momenta an absolute 1e-10 lies
    # below the rounding of m v - p, and no iterate can meet it.
    L = make_mechanical(n=2, mass=3.0)
    p = np.array([P, -P / 3.0])
    v = legendre_invert(L, 0.0, np.zeros(2), p, v_guess=np.zeros(2))
    assert np.max(np.abs(3.0 * v - p)) <= 1e-12 * (1.0 + P)


def test_legendre_invert_on_a_partial_regular_block_meets_a_singular_hessian():
    with pytest.raises(HyperregularityError, match="velocity Hessian is singular"):
        legendre_invert(make_degenerate(), 0.0, np.zeros(2), np.ones(2), v_guess=np.zeros(2))


def well_conditioned(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + n * np.eye(n), rng.normal(size=n)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("seed", range(20))
def test_mass_solve_equals_numpy_solve_bitwise(n, seed):
    M, r = well_conditioned(n, seed)
    expect = np.linalg.solve(M, r).tobytes()
    assert lagrangian_module._mass_solve(M, r).tobytes() == expect
    assert lagrangian_module._mass_solve(M, r).tobytes() == expect  # from the cache


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("seed", range(5))
def test_legendre_invert_step_is_the_numpy_solve_bitwise(n, seed):
    # d_v = M v + b is affine, so one Newton step from v0 converges; it must
    # be v0 - solve(M, M v0 + b - p) bit for bit, as np.linalg.solve gives it.
    M, b = well_conditioned(n, seed)
    p, v0 = np.random.default_rng(100 + seed).normal(size=(2, n))
    L = TimeLagrangian(
        n=n,
        value=lambda t, x, v: 0.5 * float(v @ M @ v) + float(b @ v),
        d_t=lambda t, x, v: 0.0,
        d_x=lambda t, x, v: np.zeros(n),
        d_v=lambda t, x, v: M @ v + b,
        d_vv=lambda t, x, v: M,
    )
    expect = v0 - np.linalg.solve(M, M @ v0 + b - p)
    got = legendre_invert(L, 0.0, np.zeros(n), p, v_guess=v0)
    assert got.tobytes() == expect.tobytes()


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
    st.floats(0.2, 3, allow_nan=False),
)
def test_legendre_round_trip(v0, v1, mass):
    L = make_mechanical(n=2, mass=mass)
    t, x = 0.2, np.array([0.3, -0.1])
    v = np.array([v0, v1])
    p = np.asarray(L.d_v(t, x, v))
    back = legendre_invert(L, t, x, p, v_guess=np.zeros(2))
    npt.assert_allclose(back, v, atol=1e-9)


def test_legendre_dual_envelope_identities():
    L = make_mechanical(n=2, mass=2.0)
    H = legendre_dual(L)
    t, x, p = 0.5, np.array([0.2, 0.4]), np.array([1.0, -0.6])
    v = p / 2.0
    assert H.value(t, x, p) == pytest.approx(float(p @ v) - L.value(t, x, v))
    npt.assert_allclose(H.d_p(t, x, p), v, atol=1e-10)
    npt.assert_allclose(H.d_x(t, x, p), -np.asarray(L.d_x(t, x, v)), atol=1e-10)
    assert H.d_t(t, x, p) == pytest.approx(-L.d_t(t, x, v), abs=1e-10)


def test_legendre_dual_rejects_partial_block():
    L = make_degenerate()
    assert not L.hyperregular
    with pytest.raises(HyperregularityError):
        legendre_dual(L)


def test_hyperregular_flag():
    assert make_mechanical().hyperregular
    assert not make_degenerate().hyperregular


# -- derivative checker ---------------------------------------------------


def test_check_derivatives_passes_consistent_lagrangian():
    report = check_derivatives(make_mechanical(), n_points=40, seed=1)
    assert isinstance(report, DerivativeReport)
    assert report.passed
    assert report.max_rel_err < 1e-6
    assert report.n_points == 40
    assert report.threshold == 1e-6


def test_check_derivatives_flags_wrong_component():
    L_ok = make_mechanical()
    L_bad = TimeLagrangian(
        n=2,
        value=L_ok.value,
        d_t=L_ok.d_t,
        d_x=lambda t, x, v: np.asarray(L_ok.d_x(t, x, v)) + np.array([0.0, 0.01]),
        d_v=L_ok.d_v,
        d_vv=L_ok.d_vv,
    )
    report = check_derivatives(L_bad, n_points=40, seed=1)
    assert not report.passed
    assert report.worst_component == "d_x[1]"
    assert report.max_rel_err > 1e-4


def test_check_derivatives_flags_wrong_hessian():
    L_ok = make_mechanical()
    L_bad = TimeLagrangian(
        n=2,
        value=L_ok.value,
        d_t=L_ok.d_t,
        d_x=L_ok.d_x,
        d_v=L_ok.d_v,
        d_vv=lambda t, x, v: np.asarray(L_ok.d_vv(t, x, v)) + 0.05,
    )
    report = check_derivatives(L_bad, n_points=40, seed=1)
    assert not report.passed
    assert report.worst_component.startswith("d_vv")


def test_check_derivatives_custom_sampler():
    L = make_quartic()

    def sample(rng):
        # Stay away from the degenerate fiber point v = 0.
        return (
            float(rng.uniform(0, 1)),
            rng.normal(size=1),
            rng.uniform(1.0, 2.0, size=1),
        )

    report = check_derivatives(L, sample=sample, n_points=30, seed=3)
    assert report.passed


def test_check_derivatives_fails_a_nan_partial():
    # A NaN error used to be skipped (NaN > worst is false), so this report
    # passed, naming d_x[1] and its round-off error as the worst.
    L_ok = make_mechanical()
    L_nan = TimeLagrangian(
        n=2,
        value=L_ok.value,
        d_t=L_ok.d_t,
        d_x=lambda t, x, v: np.array([np.nan, L_ok.d_x(t, x, v)[1]]),
        d_v=L_ok.d_v,
        d_vv=L_ok.d_vv,
    )
    report = check_derivatives(L_nan, n_points=20, seed=1)
    assert report.passed is False
    assert report.worst_component == "d_x[0]"
    assert np.isnan(report.max_rel_err)
    assert check_derivatives(L_ok, n_points=20, seed=1).passed is True


def test_check_derivatives_deterministic():
    r1 = check_derivatives(make_mechanical(), n_points=25, seed=7)
    r2 = check_derivatives(make_mechanical(), n_points=25, seed=7)
    assert r1 == r2


def count_inversions(monkeypatch):
    calls = []
    original = lagrangian_module.legendre_invert

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lagrangian_module, "legendre_invert", counted)
    return calls


def test_legendre_dual_inverts_once_per_point(monkeypatch):
    L = make_mechanical(n=2, mass=2.0)
    H = legendre_dual(L)
    calls = count_inversions(monkeypatch)
    t, x, p = 0.5, np.array([0.2, 0.4]), np.array([1.0, -0.6])
    H.d_p(t, x, p)
    H.d_x(t, x, p)
    H.d_t(t, x, p)
    H.value(t, x, p)
    assert len(calls) == 1
    # The step residual pattern: midpoint, new node, midpoint again.
    x1, p1 = x + 0.1, p - 0.2
    H.d_p(t + 0.5, x1, p1)
    H.d_t(t, x, p)
    assert len(calls) == 2


def test_legendre_dual_cache_follows_the_point():
    L = make_mechanical(n=2, mass=2.0)
    H = legendre_dual(L)
    t, x, p = 0.5, np.array([0.2, 0.4]), np.array([1.0, -0.6])
    v = H.d_p(t, x, p)
    npt.assert_allclose(v, p / 2.0, atol=1e-12)
    with pytest.raises(ValueError):
        v[0] = 5.0
    p[0] = 3.0  # mutated in place: a new point
    npt.assert_allclose(H.d_p(t, x, p), p / 2.0, atol=1e-12)
    npt.assert_array_equal(H.d_x(t, x, p), legendre_dual(L).d_x(t, x, p.copy()))


def test_singularity_check_once_per_distinct_matrix(monkeypatch):
    svd_calls = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        svd_calls.append(args)
        return original(*args, **kwargs)

    lagrangian_module._require_nonsingular.cache_clear()
    monkeypatch.setattr(np.linalg, "svd", counted)
    L = make_mechanical(n=2, mass=2.0)
    for p0 in (1.0, 2.0, 3.0):
        legendre_invert(L, 0.0, np.zeros(2), np.array([p0, 0.5]), v_guess=np.zeros(2))
    assert len(svd_calls) == 1
    # A different matrix is checked again, and a singular one still raises.
    legendre_invert(make_mechanical(n=2, mass=3.0), 0.0, np.zeros(2), np.ones(2), np.zeros(2))
    assert len(svd_calls) == 2
    with pytest.raises(HyperregularityError):
        legendre_invert(
            make_quartic(), 0.0, np.zeros(1), np.array([8.0]), v_guess=np.array([0.0])
        )
