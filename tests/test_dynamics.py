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

from diracsim import dynamics as dynamics_module
from diracsim.dynamics import (
    ImplicitMidpointStepper,
    InconsistentInitialStateError,
    NonSectionError,
    OutsideDomainError,
    StepFailureError,
    Trajectory,
    _chord_solve,
    hamilton_dirac_residual,
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
from diracsim.lagrangian import (
    ExternalForce,
    HyperregularityError,
    TimeHamiltonian,
    TimeLagrangian,
    covariant_legendre,
)


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
        pt=covariant_legendre(L, 0.0, x0, v0).pt,
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
    # A start's pt is the covariant Legendre map's, -E_L.
    L = free_particle()
    x, v = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    assert covariant_legendre(L, 0.0, x, v).pt == pytest.approx(-12.5)


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

    row0 = np.concatenate([s0.x, s0.v, s0.p, [s0.pt], [0.0]])
    stepper = ImplicitMidpointStepper("pontryagin", lagrangian=L, constraints=C)
    result = stepper.step(s0.t, row0, h)
    # The new row is (x, v, p, pt, lam).
    x1, v1, p1, pt1, lam = np.split(result.row, [2, 4, 6, 7])
    npt.assert_allclose(x1, sol.x[0:2], atol=1e-9)
    npt.assert_allclose(v1, sol.x[2:4], atol=1e-9)
    npt.assert_allclose(p1, sol.x[2:4], atol=1e-9)
    assert lam[0] == pytest.approx(sol.x[4], abs=1e-9)
    # pt advances by the midpoint balance h * lam * B(tm).
    assert pt1[0] == pytest.approx(s0.pt + h * lam[0] * 0.3 * np.sin(tm), abs=1e-12)
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
        t=0.0, x=x0, v=v0, pt=covariant_legendre(L, 0.0, x0, v0).pt, p=v0
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
    s0 = nonholonomic_initial()
    h, K = 1e-2, 100
    tp = ImplicitMidpointStepper("pontryagin", lagrangian=L, constraints=C).run(s0, h, K)
    tl = ImplicitMidpointStepper("lagrange-dirac", lagrangian=L, constraints=C).run(
        s0, h, K
    )
    th_ = ImplicitMidpointStepper("hamilton-dirac", lagrangian=L, constraints=C).run(
        s0, h, K
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
    degenerate = dataclasses.replace(L, regular_block=(0,))
    with pytest.raises(HyperregularityError):
        ImplicitMidpointStepper("hamilton-dirac", lagrangian=degenerate, constraints=C)
    with pytest.raises(ValueError):
        ImplicitMidpointStepper("pontryagin", lagrangian=L)


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
    with pytest.raises(StepFailureError, match="numerically singular"):
        # The node row (x, v, p, pt, lam) of s0 is all zeros.
        stepper.step(s0.t, np.zeros(3 * 3 + 1 + 2), 1e-2)
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
    s0 = nonholonomic_initial()
    row0 = np.concatenate([s0.x, s0.v, s0.p, [s0.pt], [0.0]])
    with pytest.raises(StepFailureError, match="not finite"), np.errstate(invalid="ignore"):
        stepper.step(s0.t, row0, 1e-2)
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
    (t, x, v, pt, p), (dx, dv, dpt, dp) = traj.midpoints()
    assert [a.shape for a in (dx, dv, dpt, dp)] == [(10, 2), (10, 2), (10,), (10, 2)]
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


def count_step_calls(monkeypatch, formulation):
    # The point residuals, the stacked residuals with the rows of each, and
    # the factorizations of 200 steps of the bundled particle.
    from diracsim import dynamics
    from diracsim.cli import BUILTINS, build_problem, run_formulation

    calls = {"residual": 0, "stacked": 0, "factor": 0, "rows": set()}
    factor = dynamics.ChordNewton._factor

    def counting(name, build):
        def counting_fn(self, *args):
            fn = build(self, *args)
            if fn is None:  # no stacked residual: the solver maps the point one
                return None

            def residual(y):
                calls[name] += 1
                if name == "stacked":
                    calls["rows"].add(len(y))
                return fn(y)

            return residual

        return counting_fn

    def counting_factor(self, *args):
        calls["factor"] += 1
        return factor(self, *args)

    stepper = dynamics.ImplicitMidpointStepper
    monkeypatch.setattr(stepper, "_residual_fn", counting("residual", stepper._residual_fn))
    monkeypatch.setattr(
        stepper, "_stacked_residual_fn", counting("stacked", stepper._stacked_residual_fn)
    )
    monkeypatch.setattr(dynamics.ChordNewton, "_factor", counting_factor)
    cfg = BUILTINS["nonholonomic_particle"]()
    cfg["integrator"]["horizon"] = 0.2
    traj = run_formulation(build_problem(cfg, formulation), formulation)
    return calls, int(traj.newton_iters.sum())


def test_jacobian_refresh_reuses_the_residual_at_its_base_point(monkeypatch):
    # 200 steps of the bundled particle from extrapolated guesses build the
    # Jacobian 4 times: at the first step and after each 50 converged steps
    # (_JACOBIAN_REFRESH), with no stall restart. The residual at the point a
    # Jacobian is built around is its finite-difference base and the first
    # Newton residual at once: one evaluation per guess and one per Newton
    # update but the final update of the 177 steps that make one,
    # 200 + 848 - 177, where a second evaluation at each base point would
    # make 4 more. The particle
    # broadcasts, so each Jacobian's 8 perturbed iterates are one stacked
    # call. A restart's reuse of its guess residual is
    # test_stalled_solve_evaluates_the_guess_residual_once.
    calls, updates = count_step_calls(monkeypatch, "pontryagin")
    assert updates == 848
    assert calls == {"residual": 200 + 848 - 177, "stacked": 4, "factor": 4, "rows": {8}}


def test_a_hamilton_dirac_refresh_is_one_stacked_call(monkeypatch):
    # On T*Y the particle builds its Jacobian 4 times as well, each in one
    # stacked call over its N = 2n + 1 + m = 6 perturbed iterates, and no
    # point residual is evaluated for them: the point calls and the Newton
    # updates are pontryagin's, 871 and 848.
    calls, updates = count_step_calls(monkeypatch, "hamilton-dirac")
    assert updates == 848
    assert calls == {"residual": 871, "stacked": 4, "factor": 4, "rows": {6}}


@pytest.mark.parametrize(
    "name, trials",
    [("nonholonomic_particle", (177, 0, 23, 848)), ("two_port_piston", (49, 0, 151, 253))],
)
def test_a_converged_stepper_solve_makes_its_polish_trials(monkeypatch, name, trials):
    # The stepper's polish is one final chord update, where the reduced path
    # makes none: over 200 pontryagin steps every step ends on one update
    # after its first residual within tol, unless that residual is already
    # at _POLISH_FLOOR, and evaluates no residual after it. Pinned as (final
    # updates, residuals after the first within tol, steps at the floor,
    # Newton updates); final updates count as Newton updates.
    from diracsim import dynamics
    from diracsim.cli import BUILTINS, build_problem, run_formulation

    steps = []
    stepper = dynamics.ImplicitMidpointStepper
    residual_fn = stepper._residual_fn

    def recording(self, *args):
        fn, norms = residual_fn(self, *args), []
        steps.append(norms)

        def residual(y):
            r = fn(y)
            norms.append(float(np.max(np.abs(r))))
            return r

        return residual

    monkeypatch.setattr(stepper, "_residual_fn", recording)
    cfg = BUILTINS[name]()
    cfg["integrator"]["horizon"] = 200 * cfg["integrator"]["h"]
    traj = run_formulation(build_problem(cfg, "pontryagin"), "pontryagin")
    assert len(steps) == 200
    final = after = floor = 0
    for norms, iters in zip(steps, traj.newton_iters.tolist()):
        first = next(i for i, rn in enumerate(norms) if rn <= dynamics._NEWTON_TOL)
        at_floor = norms[first] <= dynamics._POLISH_FLOOR
        # The step's updates before its first residual within tol are first.
        assert iters - first == (0 if at_floor else 1), (norms, iters)
        final, after = final + iters - first, after + len(norms) - first - 1
        floor += at_floor
    assert (final, after, floor, int(traj.newton_iters.sum())) == trials


def test_a_converged_solve_ends_on_one_unevaluated_update(monkeypatch):
    # 200 pontryagin steps of two_port_piston, as a sequence of point
    # residuals ("r") and chord updates ("u") per step: each step alternates
    # from the residual at its guess, and ends on one update after its last
    # residual, within tol, unless that residual is at _POLISH_FLOOR. No
    # residual is evaluated at the final update's iterate. That makes 2.02
    # point residuals per step; evaluating the final iterate would make 2.26.
    from diracsim import dynamics
    from diracsim.cli import BUILTINS, build_problem, run_formulation

    steps = []
    stepper = dynamics.ImplicitMidpointStepper
    residual_fn, chord_solve = stepper._residual_fn, dynamics._chord_solve

    def recording(self, *args):
        fn, events = residual_fn(self, *args), []
        steps.append(events)

        def residual(y):
            r = fn(y)
            events.append(("r", float(np.max(np.abs(r)))))
            return r

        return residual

    def solve(lu, r):
        steps[-1].append(("u", None))
        return chord_solve(lu, r)

    monkeypatch.setattr(stepper, "_residual_fn", recording)
    monkeypatch.setattr(dynamics, "_chord_solve", solve)
    cfg = BUILTINS["two_port_piston"]()
    cfg["integrator"]["horizon"] = 200 * cfg["integrator"]["h"]
    traj = run_formulation(build_problem(cfg, "pontryagin"), "pontryagin")
    assert len(steps) == 200
    for events, iters in zip(steps, traj.newton_iters.tolist()):
        kinds = "".join(kind for kind, _ in events)
        norms = [rn for kind, rn in events if kind == "r"]
        assert norms[-1] <= dynamics._NEWTON_TOL
        final = "" if norms[-1] <= dynamics._POLISH_FLOOR else "u"
        assert kinds == "ru" * (len(norms) - 1) + "r" + final, kinds
        assert iters == kinds.count("u")
    assert sum(kind == "r" for events in steps for kind, _ in events) == 404


def test_three_solutions_extrapolate_quadratic_increments():
    # Increments quadratic in k, d_k = a + b k + c k^2: from the last three,
    # 3 d_k-1 - 3 d_k-2 + d_k-3 is d_k to round-off, where the line through
    # the last two misses it by 2c. A deque of two, as the reduced path
    # keeps, still gives the line.
    from collections import deque

    from diracsim.dynamics import _extrapolated

    rng = np.random.default_rng(7)
    a, b, c = rng.normal(size=(3, 5))
    d = [a + b * k + c * k**2 for k in range(8)]

    def first():
        raise AssertionError("no solution to extrapolate from is needed")

    for k in range(3, 8):
        guess = _extrapolated(deque(d[k - 3 : k], maxlen=3), first)
        np.testing.assert_allclose(guess, d[k], rtol=0, atol=1e-13 * np.max(np.abs(d[k])))
        line = _extrapolated(deque(d[k - 3 : k], maxlen=2), first)
        np.testing.assert_allclose(line, d[k] - 2.0 * c, rtol=0, atol=1e-13 * np.max(np.abs(d[k])))


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

    (y_fresh, rn_fresh, it_fresh), fresh = solve(ChordNewton(1e-11, polish=True))
    stale = ChordNewton(1e-11, polish=True)
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
    y_fresh, rn_fresh, it_fresh = ChordNewton(1e-12, polish=True)._newton(residual, guess)
    stale = ChordNewton(1e-12, polish=True)
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
        ChordNewton(1e-12, polish=True)._newton(residual, np.array([1.0]))
    message = str(info.value)
    assert message.startswith("Newton did not converge: residual nan")
    assert "; a trial iterate was outside the domain: temperature -dL/dS = -1.0" in message
    assert message.endswith(" is not positive") and "\n" not in message


# -- the stacked step Jacobian ---------------------------------------------


def per_column_jacobian(residual, y):
    # The finite-difference step Jacobian at y from one residual call per
    # column: column j perturbs y_j by 1.49e-8 (1 + |y_j|).
    r0 = residual(y)
    J = np.empty((y.size, y.size))
    for j in range(y.size):
        eps = 1.49e-8 * (1.0 + abs(y[j]))
        yp = y.copy()
        yp[j] += eps
        J[:, j] = (residual(yp) - r0) / eps
    return J


def refreshed_jacobian(monkeypatch, stepper, t, row, h, y):
    # The Jacobian that a fresh factorization at y builds within a step's
    # Newton solve: from the step's stacked residual, or without one from
    # the solver's map of the point residual over the perturbed iterates.
    seen = []
    original = dynamics_module.lu_factor

    def recording(J, **kwargs):
        seen.append(J.copy())
        return original(J, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(dynamics_module, "lu_factor", recording)
        stepper._lu = None
        stepper._newton(stepper._residual_fn(t, row, h), y, stepper._stacked_residual_fn(t, row, h))
    return seen[0]


def node_row(traj, k):
    # The node row (x, v, p, pt, lam) that step k of traj starts from.
    lam = traj.lam[k - 1] if k else np.zeros(traj.lam.shape[1])
    return np.concatenate([traj.x[k], traj.v[k], traj.p[k], [traj.pt[k]], lam])


def assert_stacked_jacobians_are_per_column(monkeypatch, stepper, traj, steps):
    # At each of the steps, at its Newton guess and at an iterate near it.
    rng = np.random.default_rng(3)
    for k in steps:
        t, row = float(traj.t[k]), node_row(traj, k)
        guess = stepper._guess(row, traj.h)
        near = guess + 1e-6 * (1.0 + np.abs(guess)) * rng.standard_normal(guess.size)
        for y in (guess, near):
            got = refreshed_jacobian(monkeypatch, stepper, t, row, traj.h, y)
            want = per_column_jacobian(stepper._residual_fn(t, row, traj.h), y)
            assert got.tobytes() == want.tobytes(), (k, y is near)


STACK_CASES = [
    *((name, f) for name in ("closed_piston", "conduction_piston", "forced_piston",
                             "matched_port_piston", "two_port_piston")
      for f in ("pontryagin", "lagrange-dirac")),
    *(("nonholonomic_particle", f) for f in ("pontryagin", "lagrange-dirac", "hamilton-dirac")),
]


@pytest.mark.parametrize("name, formulation", STACK_CASES)
def test_stacked_step_jacobian_is_the_per_column_jacobian_bitwise(monkeypatch, name, formulation):
    # Every builtin on each DAE formulation, as cli.run_formulation builds
    # their steppers: the open systems read the one-pass point record and
    # the particle its broadcasting callables in one stacked call, on
    # hamilton-dirac too, with its velocities inverted point by point.
    from diracsim import cli

    problem = cli.build_problem(cli.load_config(name), formulation)
    stepper = cli._stepper(problem, formulation)
    traj = stepper.run(problem.initial, problem.h, 12)
    assert stepper._stacked_residual_fn(float(traj.t[0]), node_row(traj, 0), problem.h)
    assert_stacked_jacobians_are_per_column(monkeypatch, stepper, traj, (0, 5, 11))


@pytest.mark.parametrize(
    "name, formulation",
    [("forced_piston", "pontryagin"), ("two_port_piston", "lagrange-dirac")],
)
def test_stacked_jacobian_of_an_open_system_given_as_callables(monkeypatch, name, formulation):
    # The open system's L, constraint set and force handed to the stepper as
    # in the library quickstart: all broadcast, so the adapter of models
    # given as callables stacks them too.
    from diracsim import cli

    problem = cli.build_problem(cli.load_config(name), formulation)
    C = problem.vel_constraints if formulation == "pontryagin" else problem.mom_constraints
    stepper = ImplicitMidpointStepper(
        formulation, lagrangian=problem.L, constraints=C, f_ext=problem.f_ext_force
    )
    traj = stepper.run(problem.initial, problem.h, 6)
    assert stepper._stacked_residual_fn(0.0, node_row(traj, 0), problem.h) is not None
    assert_stacked_jacobians_are_per_column(monkeypatch, stepper, traj, (0, 2, 5))


def two_row_model(broadcasts=True, calls=None, x0_limit=np.inf):
    # A spring in R^3 under two affine rows A(t, x) w + B(t) = 0 whose
    # coefficients move with t and x. calls, if given, records each
    # evaluation of d_x and of the rows with the shape of its x; a row at a
    # point whose x_0 exceeds x0_limit is outside the model's domain.
    calls = [] if calls is None else calls

    def record(name, x):
        calls.append((name, np.shape(x)))

    def d_x(t, x, v):
        record("d_x", x)
        return -x

    def check(x):
        if (np.asarray(x)[..., 0] > x0_limit).any():
            raise OutsideDomainError(f"x_0 is past {x0_limit!r}")

    def eval_A(t, x, w):
        record("A", x)
        check(x)
        return np.array([[1.0, t, x[2]], [0.5 * x[0], -1.0, 1.0]])

    def eval_B(t, x, w):
        record("B", x)
        return np.array([-0.1 * t, 0.2 * t * t])

    def eval_rows(t, x, w):
        record("rows", x)
        check(x)
        A = np.empty((len(t), 2, 3))
        A[:, 0, 0], A[:, 0, 1], A[:, 0, 2] = 1.0, t, x[:, 2]
        A[:, 1, 0], A[:, 1, 1], A[:, 1, 2] = 0.5 * x[:, 0], -1.0, 1.0
        return A, np.stack([-0.1 * t, 0.2 * t * t], axis=-1)

    L = TimeLagrangian(
        n=3,
        value=lambda t, x, v: 0.5 * _dot(v, v) - 0.5 * _dot(x, x),
        d_t=lambda t, x, v: 0.0,
        d_x=d_x,
        d_v=lambda t, x, v: 1.0 * v,
        d_vv=lambda t, x, v: np.eye(3),
        broadcasts=broadcasts,
    )
    C = ConstraintSet(n=3, m=2, eval_A=eval_A, eval_B=eval_B,
                      eval_rows=eval_rows if broadcasts else None)
    # A start on both rows: v0 solves A v0 = -B at t = 0.2.
    x0 = np.array([0.3, -0.2, 0.5])
    v0 = np.linalg.lstsq(eval_A(0.2, x0, None), -eval_B(0.2, x0, None), rcond=None)[0]
    start = PontryaginState(t=0.2, x=x0, v=v0, pt=covariant_legendre(L, 0.2, x0, v0).pt, p=v0)
    del calls[:]
    return L, C, start


@pytest.mark.parametrize("broadcasts", [True, False])
@pytest.mark.parametrize("formulation", ["pontryagin", "lagrange-dirac"])
def test_stacked_jacobian_with_two_rows_and_without_broadcasting(
    monkeypatch, broadcasts, formulation
):
    # m = 2, so the stacked A^T lam, B lam and node row A_1 v_1 run the
    # matrix-vector kernels of a point over each slice; a Lagrangian that
    # does not broadcast goes through the map.
    L, C, start = two_row_model(broadcasts)
    stepper = ImplicitMidpointStepper(formulation, lagrangian=L, constraints=C)
    traj = stepper.run(start, 0.05, 8)
    stacked = stepper._stacked_residual_fn(start.t, node_row(traj, 0), 0.05)
    assert (stacked is not None) == broadcasts
    assert_stacked_jacobians_are_per_column(monkeypatch, stepper, traj, (0, 3, 7))


def test_a_jacobian_refresh_evaluates_the_model_once_per_block(monkeypatch):
    # On a broadcasting model a factorization evaluates the model once per
    # block of at most geometry._BLOCK perturbed iterates: d_x and the rows
    # at the midpoints, the rows at the new nodes, and no point at all.
    from diracsim import geometry

    calls = []
    L, C, start = two_row_model(calls=calls)
    stepper = ImplicitMidpointStepper("pontryagin", lagrangian=L, constraints=C)
    row = np.concatenate([start.x, start.v, start.p, [start.pt], np.zeros(2)])
    y = stepper._guess(row, 0.05)
    r0 = stepper._residual_fn(start.t, row, 0.05)(y)
    stacked = stepper._stacked_residual_fn(start.t, row, 0.05)
    blocks = []

    def counted(Y):
        blocks.append(len(Y))
        return stacked(Y)

    del calls[:]
    lu = stepper._factor(counted, y, r0)
    N = y.size  # 3 n + 1 + m = 12 unknowns
    assert blocks == [N]
    assert calls == [("d_x", (N, 3)), ("rows", (N, 3)), ("rows", (N, 3))]
    monkeypatch.setattr(geometry, "_BLOCK", 5)
    del calls[:], blocks[:]
    lu5 = stepper._factor(counted, y, r0)
    assert blocks == [5, 5, 2]
    assert [name for name, _ in calls] == ["d_x", "rows", "rows"] * 3
    assert all(len(shape) == 2 for _, shape in calls)
    assert lu5[0].tobytes() == lu[0].tobytes() and lu5[1].tobytes() == lu[1].tobytes()


def test_a_wide_stack_runs_in_blocks_and_matches_the_per_column_jacobian(monkeypatch):
    # An ideal gas with n_q = 200 has 617 step unknowns: five blocks of at
    # most 128 perturbed iterates, whose Jacobian is the per-column one.
    from diracsim import thermo

    sys0 = thermo.ideal_gas_fixture(n_q=200, friction=thermo.linear_friction(0.1))
    rng = np.random.default_rng(0)
    ts0 = thermo.ThermoState(
        q=rng.uniform(-0.5, 0.5, 200), v_q=rng.uniform(-0.5, 0.5, 200),
        S=1.0, N=1.0, Gamma=0.0, W=0.0, Sigma=0.0,
    )
    stepper = ImplicitMidpointStepper(
        "pontryagin",
        lagrangian=thermo.build_extended_lagrangian(sys0),
        constraints=thermo.build_constraints(sys0),
        points=thermo._mixed_points(sys0, False),
    )
    traj = stepper.run(thermo.initial_pontryagin_state(sys0, 0.0, ts0), 1e-3, 2)
    blocks = []
    stacked_fn = stepper._stacked_residual_fn

    def counted_fn(t, row, h):
        stacked = stacked_fn(t, row, h)
        return lambda Y: blocks.append(len(Y)) or stacked(Y)

    monkeypatch.setattr(stepper, "_stacked_residual_fn", counted_fn)
    assert_stacked_jacobians_are_per_column(monkeypatch, stepper, traj, (0, 1))
    assert blocks[:5] == [128, 128, 128, 128, 617 - 4 * 128]


def test_a_domain_error_inside_a_stack_fails_the_step_as_the_map_does():
    # The rows leave the domain past the guess's new x_0, the start's plus
    # its increment, which only the first perturbed iterate crosses: through
    # the stack its block reads NaN, and the step fails in the words of the
    # per-point map.
    messages = []
    for broadcasts in (True, False):
        L, C, start = two_row_model(broadcasts)
        stepper = ImplicitMidpointStepper("pontryagin", lagrangian=L, constraints=C)
        row = np.concatenate([start.x, start.v, start.p, [start.pt], np.zeros(2)])
        limit = float(row[0] + stepper._guess(row, 0.05)[0])
        assert start.v[0] > 0.0  # the midpoint's x_0 stays inside
        L, C, start = two_row_model(broadcasts, x0_limit=limit)
        stepper = ImplicitMidpointStepper("pontryagin", lagrangian=L, constraints=C)
        with pytest.raises(StepFailureError) as info:
            stepper.run(start, 0.05, 3)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(
        "step 0 (t = 0.2) failed: the finite-difference step Jacobian is not finite"
    )


def test_stepper_rejects_a_force_beside_points():
    # The point record carries the open system's force; a second one beside
    # it would be ignored.
    from diracsim import cli, thermo

    problem = cli.build_problem(cli.load_config("forced_piston"))
    points = thermo._mixed_points(problem.system, False)
    with pytest.raises(ValueError, match="points carries the force"):
        ImplicitMidpointStepper(
            "pontryagin", lagrangian=problem.L, constraints=problem.vel_constraints,
            f_ext=problem.f_ext_force, points=points,
        )
