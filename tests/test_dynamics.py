"""Tests for the equation residuals, multiplier recovery, the implicit
midpoint stepper, and the invariant monitor.

Reference solutions come from independent solvers: a brute-force collocation
solve of one step via scipy.optimize.least_squares, and a high-order explicit
integration (DOP853 at tolerance 1e-13) of the index-reduced equations of the
affine nonholonomic test system."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import least_squares

from diracsim.dynamics import (
    ImplicitMidpointStepper,
    InconsistentInitialStateError,
    NonSectionError,
    SingularJacobianError,
    StepFailureError,
    Trajectory,
    _chord_solve,
    hamilton_dirac_residual,
    initialize_covariant_momentum,
    lagrange_dirac_residual,
    monitor_invariants,
    pontryagin_dirac_residual,
    recover_multipliers,
)
from diracsim.geometry import (
    ConstraintSet,
    PhasePoint,
    PontryaginState,
    TangentP,
    TangentTstarY,
    _dot,
    unconstrained,
)
from diracsim.lagrangian import ExternalForce, TimeHamiltonian, TimeLagrangian


def free_particle(n=2, mass=1.0):
    return TimeLagrangian(
        n=n,
        value=lambda t, x, v: 0.5 * mass * float(v @ v),
        d_t=lambda t, x, v: 0.0,
        d_x=lambda t, x, v: np.zeros(n),
        d_v=lambda t, x, v: mass * v,
        d_vv=lambda t, x, v: mass * np.eye(n),
    )


def affine_constraint():
    """One affine row: t xdot1 - xdot2 + beta(t) = 0 with beta = 0.3 sin t."""

    return ConstraintSet(
        n=2,
        m=1,
        eval_A=lambda t, x, w: np.array([[t, -1.0]]),
        eval_B=lambda t, x, w: np.array([0.3 * np.sin(t)]),
    )


def nonholonomic_initial():
    L = free_particle()
    x0 = np.array([0.0, 0.0])
    v0 = np.array([1.0, 0.0])
    return PontryaginState(
        t=0.0,
        x=x0,
        v=v0,
        pt=initialize_covariant_momentum(L, 0.0, x0, v0),
        p=v0.copy(),
    )


def index_reduced_reference(t_end, y0=None):
    """DOP853 integration of the index-reduced nonholonomic equations.

    Differentiating the constraint t v1 - v2 + beta(t) = 0 along solutions of
    vdot = lam (t, -1) gives lam = -(v1 + beta'(t)) / (1 + t^2).
    """

    def rhs(t, y):
        x1, x2, v1, v2 = y
        lam = -(v1 + 0.3 * np.cos(t)) / (1.0 + t * t)
        return [v1, v2, lam * t, -lam]

    if y0 is None:
        y0 = [0.0, 0.0, 1.0, 0.0]
    sol = solve_ivp(
        rhs, (0.0, t_end), y0, method="DOP853", rtol=1e-13, atol=1e-13,
        dense_output=True,
    )
    assert sol.success
    return sol


# -- residual row orders (hand-computed case) ------------------------------

HAND_STATE = PontryaginState(
    t=0.3,
    x=np.array([0.1, 0.2]),
    v=np.array([1.0, -1.0]),
    pt=0.4,
    p=np.array([0.6, 0.7]),
)
HAND_RATE = TangentP(
    dt=1.0,
    dx=np.array([0.9, -1.1]),
    dv=np.array([0.2, 0.3]),
    dpt=0.05,
    dp=np.array([0.4, -0.2]),
)
HAND_CONSTRAINT = ConstraintSet(
    n=2,
    m=1,
    eval_A=lambda t, x, w: np.array([[1.0, 2.0]]),
    eval_B=lambda t, x, w: np.array([0.5]),
)


def test_pontryagin_residual_rows():
    L = free_particle()
    r = pontryagin_dirac_residual(
        L, HAND_CONSTRAINT, HAND_STATE, HAND_RATE, np.array([2.0])
    )
    # Rows: xdot - v | p - dL/dv | pdot - dL/dx - lam A | A v + B | pt row.
    expected = [-0.1, -0.1, -0.4, 1.7, -1.6, -4.2, -0.5, -0.95]
    npt.assert_allclose(r, expected, atol=1e-14)


def test_pontryagin_residual_with_force():
    L = free_particle()
    F = ExternalForce(n=2, value=lambda t, x, v: np.array([1.0, 1.0]))
    r = pontryagin_dirac_residual(
        L, HAND_CONSTRAINT, HAND_STATE, HAND_RATE, np.array([2.0]), f_ext=F
    )
    expected = [-0.1, -0.1, -0.4, 1.7, -2.6, -5.2, -0.5, -0.95]
    npt.assert_allclose(r, expected, atol=1e-14)


def test_lagrange_dirac_residual_rows():
    L = free_particle()
    r = lagrange_dirac_residual(
        L, HAND_CONSTRAINT, HAND_STATE, HAND_RATE, np.array([2.0])
    )
    # Rows: xdot - v | pt row | pdot - dL/dx - lam A | A xdot + B |
    # p - dL/dv | pt + E_L.
    expected = [-0.1, -0.1, -0.95, -1.6, -4.2, -0.8, -0.4, 1.7, 1.4]
    npt.assert_allclose(r, expected, atol=1e-14)
    assert r.shape == (3 * 2 + 2 + 1,)


def test_hamilton_dirac_residual_rows():
    H = TimeHamiltonian(
        n=2,
        value=lambda t, x, p: 0.5 * float(p @ p),
        d_t=lambda t, x, p: 0.0,
        d_x=lambda t, x, p: np.zeros(2),
        d_p=lambda t, x, p: p,
    )
    z = PhasePoint(t=0.3, x=np.array([0.1, 0.2]), pt=0.4, p=np.array([0.6, 0.7]))
    rate = TangentTstarY(
        dt=1.0, dx=np.array([0.9, -1.1]), dpt=0.05, dp=np.array([0.4, -0.2])
    )
    r = hamilton_dirac_residual(H, HAND_CONSTRAINT, z, rate, np.array([2.0]))
    # Rows: xdot - dH/dp | pt row | pdot + dH/dx - lam A | A dH/dp + B.
    expected = [0.3, -1.8, -0.95, -1.6, -4.2, 2.5]
    npt.assert_allclose(r, expected, atol=1e-14)
    assert r.shape == (2 * 2 + 1 + 1,)


def test_residuals_reject_non_sections():
    L = free_particle()
    bad = TangentP(
        dt=0.5,
        dx=np.zeros(2),
        dv=np.zeros(2),
        dpt=0.0,
        dp=np.zeros(2),
    )
    with pytest.raises(NonSectionError):
        pontryagin_dirac_residual(L, HAND_CONSTRAINT, HAND_STATE, bad, np.array([0.0]))


def free_hamiltonian(n=2):
    return TimeHamiltonian(
        n=n,
        value=lambda t, x, p: 0.5 * float(p @ p),
        d_t=lambda t, x, p: 0.0,
        d_x=lambda t, x, p: np.zeros(n),
        d_p=lambda t, x, p: p,
    )


@pytest.mark.parametrize("formulation", ["pontryagin", "lagrange-dirac", "hamilton-dirac"])
def test_residual_vanishes_on_exact_flow(formulation):
    # Manufacture an exact solution point of the continuous equations and
    # check every row vanishes: p = dL/dv, pt = -E_L, and H = |p|^2 / 2.
    L = free_particle()
    C = affine_constraint()
    s = nonholonomic_initial()
    lam = -(s.v[0] + 0.3) / 1.0  # lam at t = 0
    dp = np.array([lam * 0.0, -lam])
    dpt = 0.3 * np.sin(0.0) * lam
    if formulation == "hamilton-dirac":
        z = PhasePoint(t=s.t, x=s.x, pt=s.pt, p=s.p)
        rate = TangentTstarY(dt=1.0, dx=s.v.copy(), dpt=dpt, dp=dp)
        r = hamilton_dirac_residual(free_hamiltonian(), C, z, rate, np.array([lam]))
    else:
        rate = TangentP(dt=1.0, dx=s.v.copy(), dv=dp.copy(), dpt=dpt, dp=dp)
        residual = (
            pontryagin_dirac_residual if formulation == "pontryagin" else lagrange_dirac_residual
        )
        r = residual(L, C, s, rate, np.array([lam]))
    assert r.size == {"pontryagin": 8, "lagrange-dirac": 9, "hamilton-dirac": 6}[formulation]
    npt.assert_allclose(r, 0.0, atol=1e-14)


def test_initialize_covariant_momentum():
    L = free_particle()
    x, v = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    assert initialize_covariant_momentum(L, 0.0, x, v) == pytest.approx(-12.5)


# -- multiplier recovery --------------------------------------------------


def test_recover_multipliers_manufactured():
    L = free_particle()
    C = affine_constraint()
    rng = np.random.default_rng(8)
    t = 0.7
    x = rng.normal(size=2)
    v = rng.normal(size=2)
    lam_true = 1.37
    A = C.A(t, x, v)
    rate = TangentP(
        dt=1.0,
        dx=v,
        dv=np.zeros(2),
        dpt=0.0,
        dp=A[0] * lam_true,
    )
    s = PontryaginState(t=t, x=x, v=v, pt=0.0, p=v.copy())
    est = recover_multipliers(L, C, s, rate)
    assert est.lam[0] == pytest.approx(lam_true, rel=1e-12)
    assert est.residual < 1e-12


def test_recover_multipliers_reports_out_of_span_part():
    L = free_particle()
    C = affine_constraint()
    s = nonholonomic_initial()
    # dp orthogonal to the constraint row (1e-2 perpendicular component).
    A = C.A(s.t, s.x, s.v)
    perp = np.array([A[0, 1], -A[0, 0]])
    perp /= np.linalg.norm(perp)
    rate = TangentP(dt=1.0, dx=s.v, dv=np.zeros(2), dpt=0.0, dp=0.01 * perp)
    est = recover_multipliers(L, C, s, rate)
    assert est.residual == pytest.approx(
        np.max(np.abs(0.01 * perp - A[0] * est.lam[0])), rel=1e-10
    )
    assert est.residual > 1e-3


def test_recover_multipliers_unconstrained():
    L = free_particle()
    C = unconstrained(2)
    s = nonholonomic_initial()
    rate = TangentP(
        dt=1.0, dx=s.v, dv=np.zeros(2), dpt=0.0, dp=np.array([0.0, 0.0])
    )
    est = recover_multipliers(L, C, s, rate)
    assert est.lam.shape == (0,)
    assert est.residual == 0.0


# -- one-step oracle -------------------------------------------------------


def test_single_step_matches_collocation_oracle():
    """One pontryagin step against an independently coded collocation solve."""

    L = free_particle()
    C = affine_constraint()
    s0 = nonholonomic_initial()
    h = 1e-2
    tm, t1 = 0.5 * h, h

    def oracle_residual(z):
        x1 = z[0:2]
        v1 = z[2:4]
        lam = z[4]
        vm = 0.5 * (s0.v + v1)
        r_x = (x1 - s0.x) / h - vm
        r_v = (v1 - s0.v) / h - lam * np.array([tm, -1.0])
        r_c = t1 * v1[0] - v1[1] + 0.3 * np.sin(t1)
        return np.concatenate([r_x, r_v, [r_c]])

    guess = np.concatenate([s0.x + h * s0.v, s0.v, [0.0]])
    sol = least_squares(oracle_residual, guess, xtol=1e-15, ftol=1e-15, gtol=1e-15)
    assert np.max(np.abs(oracle_residual(sol.x))) < 1e-12

    result = ImplicitMidpointStepper("pontryagin", lagrangian=L, constraints=C).step(s0, h)
    npt.assert_allclose(result.state.x, sol.x[0:2], atol=1e-9)
    npt.assert_allclose(result.state.v, sol.x[2:4], atol=1e-9)
    npt.assert_allclose(result.state.p, sol.x[2:4], atol=1e-9)
    assert result.lam[0] == pytest.approx(sol.x[4], abs=1e-9)
    # pt advances by the midpoint balance h * lam * B(tm).
    assert result.state.pt == pytest.approx(
        s0.pt + h * result.lam[0] * 0.3 * np.sin(tm), abs=1e-12
    )
    assert result.residual_norm < 1e-11


# -- multi-step oracle -----------------------------------------------------


def test_trajectory_matches_high_order_reference():
    L = free_particle()
    C = affine_constraint()
    s0 = nonholonomic_initial()
    stepper = ImplicitMidpointStepper("pontryagin", lagrangian=L, constraints=C)
    h = 1e-3
    traj = stepper.run(s0, h, 1000)
    ref = index_reduced_reference(1.0)
    y_end = ref.sol(1.0)
    npt.assert_allclose(traj.x[-1], y_end[0:2], atol=5e-7)
    npt.assert_allclose(traj.v[-1], y_end[2:4], atol=5e-7)
    # The recovered multiplier at the last midpoint matches the closed form.
    tm = traj.t[-1] - 0.5 * h
    ym = ref.sol(tm)
    lam_ref = -(ym[2] + 0.3 * np.cos(tm)) / (1.0 + tm * tm)
    assert traj.lam[-1, 0] == pytest.approx(lam_ref, abs=5e-6)


def test_second_order_convergence():
    L = free_particle()
    C = affine_constraint()
    s0 = nonholonomic_initial()
    ref = index_reduced_reference(1.0).sol(1.0)

    def endpoint_error(h, steps):
        stepper = ImplicitMidpointStepper("pontryagin", lagrangian=L, constraints=C)
        traj = stepper.run(s0, h, steps)
        return np.max(
            np.abs(np.concatenate([traj.x[-1], traj.v[-1]]) - ref)
        )

    e1 = endpoint_error(2e-2, 50)
    e2 = endpoint_error(1e-2, 100)
    assert 3.5 < e1 / e2 < 4.5


# -- structure preservation ------------------------------------------------


def test_midpoint_conserves_quadratic_invariant():
    # Unconstrained harmonic oscillator: the implicit midpoint rule conserves
    # the quadratic energy exactly; only Newton round-off remains.
    n = 1
    L = TimeLagrangian(
        n=n,
        value=lambda t, x, v: 0.5 * float(v @ v) - 0.5 * float(x @ x),
        d_t=lambda t, x, v: 0.0,
        d_x=lambda t, x, v: -x,
        d_v=lambda t, x, v: v,
        d_vv=lambda t, x, v: np.eye(n),
    )
    x0, v0 = np.array([1.0]), np.array([0.0])
    s0 = PontryaginState(
        t=0.0, x=x0, v=v0, pt=initialize_covariant_momentum(L, 0.0, x0, v0), p=v0
    )
    stepper = ImplicitMidpointStepper(
        "pontryagin", lagrangian=L, constraints=unconstrained(n)
    )
    traj = stepper.run(s0, 0.05, 1000)
    H = 0.5 * (traj.v[:, 0] ** 2 + traj.x[:, 0] ** 2)
    assert np.max(np.abs(H - H[0])) < 1e-12
    inv = monitor_invariants(L, unconstrained(n), traj)
    assert inv.summary()["max_abs_covariant_energy_drift"] < 1e-12


def test_three_formulations_agree():
    L = free_particle()
    C = affine_constraint()
    H = TimeHamiltonian(
        n=2,
        value=lambda t, x, p: 0.5 * float(p @ p),
        d_t=lambda t, x, p: 0.0,
        d_x=lambda t, x, p: np.zeros(2),
        d_p=lambda t, x, p: p,
    )
    s0 = nonholonomic_initial()
    h, K = 1e-2, 100
    tp = ImplicitMidpointStepper("pontryagin", lagrangian=L, constraints=C).run(s0, h, K)
    tl = ImplicitMidpointStepper("lagrange-dirac", lagrangian=L, constraints=C).run(
        s0, h, K
    )
    z0 = PhasePoint(t=s0.t, x=s0.x, pt=s0.pt, p=s0.p)
    th_ = ImplicitMidpointStepper("hamilton-dirac", hamiltonian=H, constraints=C).run(
        z0, h, K
    )
    for other in (tl, th_):
        assert np.max(np.abs(tp.x - other.x)) < 1e-10
        assert np.max(np.abs(tp.p - other.p)) < 1e-10
        assert np.max(np.abs(tp.pt - other.pt)) < 1e-10


# -- stepper interface and failure modes -----------------------------------


def test_a_second_run_on_one_stepper_repeats_the_first():
    # No Jacobian, refresh count or multiplier guess carries over between runs.
    from diracsim.cli import BUILTINS, build_problem

    problem = build_problem(BUILTINS["two_port_piston"]())
    stepper = ImplicitMidpointStepper(
        "pontryagin",
        lagrangian=problem.L,
        constraints=problem.vel_constraints,
        f_ext=problem.f_ext_force,
    )
    first = stepper.run(problem.initial, problem.h, 300)
    second = stepper.run(problem.initial, problem.h, 300)
    for name in ("x", "v", "p", "pt", "lam", "newton_iters"):
        assert getattr(second, name).tobytes() == getattr(first, name).tobytes(), name


def test_stepper_validates_inputs():
    L = free_particle()
    C = affine_constraint()
    with pytest.raises(ValueError):
        ImplicitMidpointStepper("leapfrog", lagrangian=L, constraints=C)
    with pytest.raises(ValueError):
        ImplicitMidpointStepper("pontryagin", constraints=C)
    with pytest.raises(ValueError):
        ImplicitMidpointStepper("hamilton-dirac", lagrangian=L, constraints=C)
    with pytest.raises(ValueError):
        ImplicitMidpointStepper("pontryagin", lagrangian=L)
    F = ExternalForce(n=2, value=lambda t, x, v: np.zeros(2))
    with pytest.raises(ValueError):
        ImplicitMidpointStepper("lagrange-dirac", lagrangian=L, constraints=C, f_ext=F)


def test_run_rejects_inconsistent_initial_state():
    L = free_particle()
    C = affine_constraint()
    bad = PontryaginState(
        t=0.0,
        x=np.zeros(2),
        v=np.array([1.0, 5.0]),  # violates 0*v1 - v2 + 0 = 0
        pt=0.0,
        p=np.array([1.0, 5.0]),
    )
    stepper = ImplicitMidpointStepper("pontryagin", lagrangian=L, constraints=C)
    with pytest.raises(ValueError, match="kinematic"):
        stepper.run(bad, 1e-2, 10)


def test_run_rejects_a_nan_initial_residual():
    # Every comparison with NaN is false, so a guard written as
    # `residual > tol` would let this state through.
    bad = dataclasses.replace(nonholonomic_initial(), v=np.array([np.nan, 0.0]))
    stepper = ImplicitMidpointStepper(
        "pontryagin", lagrangian=free_particle(), constraints=affine_constraint()
    )
    with pytest.raises(ValueError, match="kinematic .*nan"):
        stepper.run(bad, 1e-2, 10)


def scaled_row_stepper(scale):
    # The row scale * v1 - v2 - scale = 0: its terms are of size `scale`.
    C = ConstraintSet(
        n=2,
        m=1,
        eval_A=lambda t, x, w: np.array([[scale, -1.0]]),
        eval_B=lambda t, x, w: np.array([-scale]),
    )
    return ImplicitMidpointStepper("pontryagin", lagrangian=free_particle(), constraints=C)


def test_initial_guard_is_relative_to_the_row_terms():
    # One ulp of v1 at row terms of 1e12 leaves a residual of 2.4e-4, far
    # above an absolute 1e-8 but round-off relative to the terms.
    v = np.array([np.nextafter(1.0, 2.0), 0.0])
    state = PontryaginState(t=0.0, x=np.zeros(2), v=v, pt=0.0, p=v.copy())
    traj = scaled_row_stepper(1e12).run(state, 1e-3, 1)
    assert traj.n_steps == 1
    v_bad = np.array([1.0 + 1e-6, 0.0])
    bad = dataclasses.replace(state, v=v_bad, p=v_bad.copy())
    with pytest.raises(
        InconsistentInitialStateError,
        match=r"residual 1\.000e\+06, row scale 1\.000e\+12",
    ):
        scaled_row_stepper(1e12).run(bad, 1e-3, 1)


def test_duplicate_constraint_rows_singular_jacobian():
    L = free_particle(n=3)
    C = ConstraintSet(
        n=3,
        m=2,
        eval_A=lambda t, x, w: np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        eval_B=lambda t, x, w: np.zeros(2),
    )
    s0 = PontryaginState(
        t=0.0, x=np.zeros(3), v=np.zeros(3), pt=0.0, p=np.zeros(3)
    )
    stepper = ImplicitMidpointStepper("pontryagin", lagrangian=L, constraints=C)
    with pytest.raises(SingularJacobianError):
        stepper.step(s0, 1e-2)
    # Through run the failure is wrapped with the step index.
    with pytest.raises(StepFailureError, match="step 0"):
        stepper.run(s0, 1e-2, 5)


def test_non_finite_jacobian_is_a_step_failure():
    # The force law overflows once time has started: every step residual is
    # infinite, so the finite-difference Jacobian is not finite.
    n = 2
    L = dataclasses.replace(
        free_particle(n), d_x=lambda t, x, v: np.full(n, np.inf if t > 0 else 0.0)
    )
    stepper = ImplicitMidpointStepper(
        "pontryagin", lagrangian=L, constraints=affine_constraint()
    )
    with pytest.raises(StepFailureError, match="not finite"), np.errstate(invalid="ignore"):
        stepper.step(nonholonomic_initial(), 1e-2)
    with pytest.raises(StepFailureError, match="step 0 .*not finite"):
        stepper.run(nonholonomic_initial(), 1e-2, 5)


# -- chord solve -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 25), st.integers(0, 2**32 - 1))
def test_chord_solve_equals_lu_solve_bitwise(n, seed):
    rng = np.random.default_rng(seed)
    J = rng.standard_normal((n, n)) + n * np.eye(n)
    r = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 3)
    lu = lu_factor(J)
    x = _chord_solve(lu, r)
    expected = lu_solve(lu, r)
    assert x.shape == expected.shape == (n,)
    assert x.tobytes() == expected.tobytes()


# -- trajectory record -----------------------------------------------------


def _short_traj():
    L = free_particle()
    C = affine_constraint()
    stepper = ImplicitMidpointStepper("pontryagin", lagrangian=L, constraints=C)
    return stepper.run(nonholonomic_initial(), 1e-2, 10)


def test_trajectory_arrays_are_immutable():
    traj = _short_traj()
    with pytest.raises(ValueError):
        traj.x[0, 0] = 99.0
    with pytest.raises(ValueError):
        traj.lam[0, 0] = 99.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj.h = 2.0


def test_trajectory_accessors():
    traj = _short_traj()
    assert traj.n_steps == 10
    assert traj.n == 2
    sm = traj.midpoint_state(3)
    assert sm.t == pytest.approx(0.5 * (traj.t[3] + traj.t[4]))
    npt.assert_allclose(sm.x, 0.5 * (traj.x[3] + traj.x[4]))
    samples = list(traj.midpoint_samples())
    assert len(samples) == 10
    rate = samples[3][1]
    assert rate.dt == 1.0
    npt.assert_allclose(rate.dx, (traj.x[4] - traj.x[3]) / traj.h)


def test_midpoint_samples_are_rows_of_the_midpoint_arrays():
    # The arrays are built once; each sample equals the per-step formulas
    # bit for bit.
    traj = _short_traj()
    (t, x, v, pt, p), rates = traj.midpoints()
    assert rates.shape == (10, 3 * traj.n + 2)
    for k, (state, rate, lam) in enumerate(traj.midpoint_samples()):
        h = traj.t[k + 1] - traj.t[k]
        mean = [0.5 * (a[k] + a[k + 1]) for a in (traj.t, traj.x, traj.v, traj.pt, traj.p)]
        diff = [(a[k + 1] - a[k]) / h for a in (traj.x, traj.v, traj.pt, traj.p)]
        assert [state.t, state.pt] == [mean[0], mean[3]]
        for got, want in zip((state.x, state.v, state.p), (mean[1], mean[2], mean[4])):
            assert got.tobytes() == want.tobytes()
        assert rate.as_vector().tobytes() == np.concatenate(
            ([1.0], diff[0], diff[1], [diff[2]], diff[3])
        ).tobytes()
        assert traj.midpoint_state(k).x.tobytes() == state.x.tobytes()
        assert lam.tobytes() == traj.lam[k].tobytes()


def test_mechanical_invariants_are_one_array_pass():
    # A Lagrangian and rows that broadcast are called once over all nodes
    # and once over all step midpoints, and give the columns of the per-node
    # loop bit for bit.
    traj = _short_traj()
    L0 = free_particle()
    C0 = ConstraintSet(
        n=2,
        m=1,
        eval_A=lambda t, x, w: np.array([[t, -1.0]]),
        eval_B=lambda t, x, w: np.array([0.3 * t]),
    )
    calls = []

    def counted(name, fn):
        def wrapper(t, x, w):
            calls.append((name, np.shape(t)))
            return fn(t, x, w)
        return wrapper

    def rows(t, x, w):
        return np.stack((t, np.full(t.shape, -1.0)), axis=-1)[:, None], (0.3 * t)[:, None]

    L = dataclasses.replace(
        L0,
        value=counted("value", lambda t, x, v: 0.5 * _dot(v, v)),
        d_t=counted("d_t", L0.d_t),
        broadcasts=True,
    )
    C = dataclasses.replace(C0, eval_rows=counted("rows", rows))
    inv = monitor_invariants(L, C, traj)
    K = traj.n_steps
    assert calls == [("rows", (K + 1,)), ("value", (K + 1,)), ("d_t", (K,)), ("rows", (K,))]
    ref = monitor_invariants(L0, C0, traj)  # one call per point
    for name in ("energy", "covariant_energy", "kinematic_residual", "energy_balance_residual"):
        assert getattr(inv, name).tobytes() == getattr(ref, name).tobytes(), name
    # The per-node loop the diagnostics were written as.
    for k in range(K + 1):
        t, xk, vk = traj.t[k], traj.x[k], traj.v[k]
        A, B = C0.A(t, xk, vk), C0.B(t, xk, vk)
        assert inv.energy[k] == float(traj.p[k] @ vk) - float(L0.value(t, xk, vk))
        assert inv.kinematic_residual[k] == float(np.abs(A @ vk + B).max(initial=0.0))
    for k in range(K):
        tm, xm, vm = 0.5 * (traj.t[k] + traj.t[k + 1]), *(
            0.5 * (a[k] + a[k + 1]) for a in (traj.x, traj.v)
        )
        rate = (traj.pt[k + 1] - traj.pt[k]) / (traj.t[k + 1] - traj.t[k])
        lam_B = float(C0.B(tm, xm, vm) @ traj.lam[k])
        assert inv.energy_balance_residual[k] == rate - float(L0.d_t(tm, xm, vm)) - lam_B


def test_monitor_invariants_shapes():
    traj = _short_traj()
    L = free_particle()
    C = affine_constraint()
    inv = monitor_invariants(L, C, traj)
    assert inv.covariant_energy.shape == (11,)
    assert inv.energy_balance_residual.shape == (10,)
    assert inv.kinematic_residual.shape == (11,)
    assert inv.entropy_decomposition_residual is None
    assert inv.entropy_production is None
    assert inv.summary()["max_abs_energy_balance_residual"] < 1e-10


def test_jacobian_refresh_reuses_the_residual_at_its_base_point(monkeypatch):
    # 200 steps of the bundled particle refresh the Jacobian 101 times: at the
    # first step and at 100 stall restarts. The residual at the point a
    # Jacobian is built around is its finite-difference base and the first
    # Newton residual at once, and a restart reuses its stalled attempt's
    # residual at the guess: 2182 evaluations, where a second evaluation at
    # each base point would make 2283 and one more per restart 2383.
    from diracsim import dynamics
    from diracsim.cli import BUILTINS, build_problem, run_formulation

    calls = {"residual": 0, "factor": 0}
    residual_fn = dynamics.ImplicitMidpointStepper._residual_fn
    factor = dynamics.ChordNewton._factor

    def counting_residual_fn(self, *args):
        fn = residual_fn(self, *args)

        def residual(y):
            calls["residual"] += 1
            return fn(y)

        return residual

    def counting_factor(self, *args):
        calls["factor"] += 1
        return factor(self, *args)

    monkeypatch.setattr(dynamics.ImplicitMidpointStepper, "_residual_fn", counting_residual_fn)
    monkeypatch.setattr(dynamics.ChordNewton, "_factor", counting_factor)
    cfg = BUILTINS["nonholonomic_particle"]()
    cfg["integrator"]["horizon"] = 0.2
    run_formulation(build_problem(cfg, "pontryagin"), "pontryagin")
    assert calls == {"residual": 2383 - 101 - 100, "factor": 101}


def test_stalled_solve_evaluates_the_guess_residual_once():
    # A stale Jacobian of 20 times the true one makes each chord update cut
    # the error by only 5%, so the first attempt stalls after two updates and
    # the solve restarts from its guess with a fresh Jacobian. The restart
    # reuses the first attempt's residual at the guess: the stalled solve makes
    # exactly the fresh solve's evaluations plus its two stalled updates (a
    # second evaluation at the guess would make one more).
    from diracsim.dynamics import ChordNewton

    M = np.array([[2.0, 0.5], [0.0, 1.0]])
    target = np.array([1.0, -1.0])
    guess = np.zeros(2)

    def solve(solver):
        points = []

        def residual(y):
            points.append(y.copy())
            return M @ (y - target)

        return solver._newton(residual, guess), points

    (y_fresh, rn_fresh, it_fresh), fresh = solve(ChordNewton(1e-11))
    stale = ChordNewton(1e-11)
    stale._lu = lu_factor(20.0 * M)
    (y, rn, iters), stalled = solve(stale)
    assert len(stalled) == len(fresh) + 2
    assert sum(p.tobytes() == guess.tobytes() for p in stalled) == 1
    assert y.tobytes() == y_fresh.tobytes() and rn == rn_fresh and iters == it_fresh


def outside_below_zero(f):
    # f as a residual whose model is defined only for y > 0, as an open
    # system is only for a positive temperature.
    from diracsim.thermo import NonpositiveTemperatureError

    def residual(y):
        if not y[0] > 0.0:
            raise NonpositiveTemperatureError(f"temperature -dL/dS = {float(y[0])!r} is not positive")
        return f(y)

    return residual


def test_trial_iterate_outside_the_domain_stalls_and_refreshes():
    # A stale Jacobian of a tenth of the true slope throws the first chord
    # update from y = 3 to y = -8, outside the domain. That iterate stalls
    # the attempt instead of ending the solve, and the retry with a fresh
    # Jacobian is the fresh solve, bit for bit.
    from diracsim.dynamics import ChordNewton

    residual = outside_below_zero(lambda y: (y - 2.0) + 0.1 * (y - 2.0) ** 2)
    guess = np.array([3.0])
    y_fresh, rn_fresh, it_fresh = ChordNewton(1e-12)._newton(residual, guess)
    stale = ChordNewton(1e-12)
    stale._lu = lu_factor(np.array([[0.1]]))
    y, rn, iters = stale._newton(residual, guess)
    assert abs(y_fresh[0] - 2.0) < 1e-12
    assert y.tobytes() == y_fresh.tobytes() and rn == rn_fresh and iters == it_fresh
    assert stale._lu[0][0, 0] != 0.1  # the Jacobian was refreshed


def test_trial_iterates_outside_the_domain_in_both_attempts_fail_the_step():
    # The root y = -1 lies outside the domain: both attempts leave it, and
    # the solve ends in one StepFailureError that names the domain error.
    from diracsim.dynamics import ChordNewton

    residual = outside_below_zero(lambda y: y + 1.0)
    with pytest.raises(StepFailureError) as info:
        ChordNewton(1e-12)._newton(residual, np.array([1.0]))
    message = str(info.value)
    assert message.startswith("Newton did not converge: residual nan")
    assert "; a trial iterate was outside the domain: temperature -dL/dS = -1.0" in message
    assert message.endswith(" is not positive") and "\n" not in message
