"""Tests for the open-system layer: ideal gas closed forms, constraint row
assembly, entropy production and its decomposition, the reduced path, and the
lift back to the mixed bundle.

Hand-computed scenario used in several tests: ideal gas with c = 1, T0 = 300,
s0 = 1 at the reference state (q = 0, v_q = 1, S = 1, N = 1), so T = 300 and
mu = 0; friction gamma = 2 gives F_fr = -2; one matter port with J = 0.1,
J_S = 0.01, mu_port = 4, T_port = 310 and one heat source with J_S = 0.01,
T_source = 320. Then P_M = 0.4 + 3.1 = 3.5, P_H = 3.2, and the production
I = 2/300 + 0.5/300 + 0.2/300 = 0.009."""

import dataclasses
import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import lu_solve

from diracsim import dynamics as dynamics_module, lagrangian as lagrangian_module
from diracsim import thermo as thermo_module
from diracsim.dynamics import (
    ImplicitMidpointStepper,
    StepFailureError,
    _chord_solve,
    hamilton_dirac_residual,
    lagrange_dirac_residual,
    monitor_invariants,
    pontryagin_dirac_residual,
)
from diracsim.geometry import (
    ConstraintSet,
    PhasePoint,
    PontryaginState,
    TangentP,
    TangentTstarY,
    _dot,
)
from diracsim.lagrangian import (
    ExternalForce,
    TimeLagrangian,
    check_derivatives,
    covariant_legendre,
    legendre_dual,
)
from diracsim.thermo import (
    HeatSourceModel,
    MechanicalLagrangian,
    NonpositiveTemperatureError,
    PortModel,
    SimpleOpenSystem,
    ThermoLayout,
    ThermoState,
    build_constraints,
    build_extended_lagrangian,
    build_external_force,
    build_momentum_constraints,
    chemical_potential,
    entropy_production,
    first_law_residual,
    ideal_gas_fixture,
    initial_pontryagin_state,
    lifted_midpoint_samples,
    linear_friction,
    momenta_from_state,
    power_flows,
    random_physical_point,
    reduced_rhs,
    run_reduced,
    state_from_arrays,
    temperature,
)

REF_PORT = PortModel(
    J=lambda t, ts: 0.1,
    J_S=lambda t, ts: 0.01,
    mu=lambda t, ts: 4.0,
    T_port=lambda t, ts: 310.0,
)
REF_SOURCE = HeatSourceModel(
    J_S=lambda t, ts: 0.01,
    T_source=lambda t, ts: 320.0,
)


def ref_system():
    return ideal_gas_fixture(
        c=1.0,
        T0=300.0,
        s0=1.0,
        friction=linear_friction(2.0),
        ports=(REF_PORT,),
        sources=(REF_SOURCE,),
    )


def ref_state():
    return ThermoState(
        q=np.array([0.0]),
        v_q=np.array([1.0]),
        S=1.0,
        N=1.0,
        Gamma=0.0,
        W=0.0,
        Sigma=0.0,
    )


def small_open_system():
    """Order-one open piston used for the integration tests."""

    port = PortModel(
        J=lambda t, ts: 0.01,
        J_S=lambda t, ts: 0.0102,
        mu=lambda t, ts: 0.02,
        T_port=lambda t, ts: 1.05,
    )
    source = HeatSourceModel(
        J_S=lambda t, ts: 0.02 * (1.1 - np.exp(ts.S / ts.N - 1.0)),
        T_source=lambda t, ts: 1.1,
    )
    return ideal_gas_fixture(
        friction=linear_friction(0.05), ports=(port,), sources=(source,)
    )


def small_initial():
    return ThermoState(
        q=np.array([0.2]),
        v_q=np.array([0.0]),
        S=1.0,
        N=1.0,
        Gamma=0.0,
        W=0.0,
        Sigma=0.0,
    )


# -- layout ----------------------------------------------------------------


def test_layout_indices():
    lay = ThermoLayout(n_q=2)
    assert lay.n == 7
    assert lay.q == slice(0, 2)
    assert (lay.S, lay.N, lay.Gamma, lay.W, lay.Sigma) == (2, 3, 4, 5, 6)


@pytest.mark.parametrize("n_q", [1, 2, 3])
def test_layout_fields_are_the_index_formulas(n_q):
    lay = ThermoLayout(n_q=n_q)
    for _ in range(2):  # computed once, then read back
        assert lay.q == slice(0, n_q)
        assert (lay.S, lay.N, lay.Gamma, lay.W, lay.Sigma, lay.n) == tuple(
            n_q + k for k in range(6)
        )
    assert lay == ThermoLayout(n_q=n_q) and hash(lay) == hash(ThermoLayout(n_q=n_q))


@pytest.mark.parametrize(
    "q, scalar",
    [
        ([0.5], 1),
        (0.5, np.float64(1.0)),
        (np.array(0.5), np.array(1.0)),
        (np.array([0.5], dtype=np.float32), np.float32(1.0)),
        ((1, 2), True),
    ],
)
def test_state_coerces_to_float64_arrays_and_floats(q, scalar):
    ts = ThermoState(q=q, v_q=q, S=scalar, N=scalar, Gamma=scalar, W=scalar, Sigma=scalar)
    for a in (ts.q, ts.v_q):
        assert type(a) is np.ndarray and a.dtype == np.float64 and a.ndim == 1
        npt.assert_array_equal(a, np.atleast_1d(np.asarray(q, dtype=float)))
    for name in ("S", "N", "Gamma", "W", "Sigma"):
        assert type(getattr(ts, name)) is float
        assert getattr(ts, name) == float(scalar)


def test_state_keeps_float64_vectors_as_given():
    q = np.array([0.1, 0.2])
    ts = ThermoState(q=q, v_q=q, S=1.0, N=1.0, Gamma=0.0, W=0.0, Sigma=0.0)
    assert ts.q is q and ts.v_q is q


def test_state_round_trip():
    sys0 = ref_system()
    ts = ref_state()
    x = np.zeros(6)
    lay = sys0.layout
    x[lay.q] = ts.q
    x[lay.S], x[lay.N] = ts.S, ts.N
    v = np.zeros(6)
    v[lay.q] = ts.v_q
    back = state_from_arrays(sys0, x, v)
    assert back.S == ts.S and back.N == ts.N
    npt.assert_allclose(back.q, ts.q)
    npt.assert_allclose(back.v_q, ts.v_q)


# -- ideal gas closed forms ------------------------------------------------


def test_temperature_at_reference_entropy():
    sys0 = ideal_gas_fixture(c=1.3, T0=2.5, s0=0.7)
    ts = ThermoState(
        q=np.zeros(1), v_q=np.zeros(1), S=0.7 * 2.0, N=2.0,
        Gamma=0.0, W=0.0, Sigma=0.0,
    )
    # S = N s0 makes the exponent vanish.
    assert temperature(sys0, ts) == pytest.approx(2.5, rel=1e-14)


def test_temperature_is_extensive_invariant():
    sys0 = ideal_gas_fixture(c=0.8, T0=1.7, s0=1.1)

    def at(S, N):
        return temperature(
            sys0,
            ThermoState(
                q=np.zeros(1), v_q=np.zeros(1), S=S, N=N,
                Gamma=0.0, W=0.0, Sigma=0.0,
            ),
        )

    T1 = at(1.4, 0.9)
    T2 = at(2.8, 1.8)
    assert T2 == pytest.approx(T1, rel=1e-14)


def test_chemical_potential_closed_form():
    c, T0, s0 = 1.2, 2.0, 0.9
    sys0 = ideal_gas_fixture(c=c, T0=T0, s0=s0)
    S, N = 1.5, 1.1
    ts = ThermoState(
        q=np.zeros(1), v_q=np.zeros(1), S=S, N=N, Gamma=0.0, W=0.0, Sigma=0.0
    )
    T = temperature(sys0, ts)
    assert chemical_potential(sys0, ts) == pytest.approx(T * (c - S / N), rel=1e-12)


def test_temperature_and_potential_against_finite_differences():
    sys0 = ideal_gas_fixture(c=1.2, T0=2.0, s0=0.9)

    def U(S, N):
        # Internal energy is minus the mechanical Lagrangian at rest at q = 0.
        return -float(
            sys0.mech.value(np.zeros(1), np.zeros(1), S, N)
        )

    S, N, h = 1.5, 1.1, 1e-6
    ts = ThermoState(
        q=np.zeros(1), v_q=np.zeros(1), S=S, N=N, Gamma=0.0, W=0.0, Sigma=0.0
    )
    fd_T = (U(S + h, N) - U(S - h, N)) / (2 * h)
    fd_mu = (U(S, N + h) - U(S, N - h)) / (2 * h)
    assert temperature(sys0, ts) == pytest.approx(fd_T, abs=1e-7)
    assert chemical_potential(sys0, ts) == pytest.approx(fd_mu, abs=1e-7)


def test_maxwell_symmetry():
    sys0 = ideal_gas_fixture(c=1.2, T0=2.0, s0=0.9)
    S, N, h = 1.5, 1.1, 1e-6

    def at(S_, N_):
        return ThermoState(
            q=np.zeros(1), v_q=np.zeros(1), S=S_, N=N_,
            Gamma=0.0, W=0.0, Sigma=0.0,
        )

    dT_dN = (temperature(sys0, at(S, N + h)) - temperature(sys0, at(S, N - h))) / (2 * h)
    dmu_dS = (
        chemical_potential(sys0, at(S + h, N))
        - chemical_potential(sys0, at(S - h, N))
    ) / (2 * h)
    assert dT_dN == pytest.approx(dmu_dS, rel=1e-5)


def test_nonpositive_temperature_raises():
    mech = MechanicalLagrangian(
        n_q=1,
        value=lambda q, v, S, N: 0.5 * float(v @ v) + S,
        d_q=lambda q, v, S, N: np.zeros(1),
        d_v=lambda q, v, S, N: v,
        d_S=lambda q, v, S, N: 1.0,  # T = -d_S = -1 < 0
        d_N=lambda q, v, S, N: 0.0,
        d_vv=lambda q, v, S, N: np.eye(1),
    )
    sys0 = SimpleOpenSystem(mech=mech)
    with pytest.raises(NonpositiveTemperatureError):
        temperature(sys0, ref_state())


def test_ideal_gas_rejects_nonpositive_mole_number():
    sys0 = ideal_gas_fixture()
    ts = ThermoState(
        q=np.zeros(1), v_q=np.zeros(1), S=1.0, N=0.0, Gamma=0.0, W=0.0, Sigma=0.0
    )
    with pytest.raises(NonpositiveTemperatureError):
        temperature(sys0, ts)


# -- constraint row --------------------------------------------------------


def test_constraint_row_hand_values():
    sys0 = ref_system()
    C = build_constraints(sys0)
    assert C.m == 1
    ts = ref_state()
    lay = sys0.layout
    x = np.zeros(6)
    x[lay.S] = x[lay.N] = 1.0
    v = np.zeros(6)
    v[lay.q] = 1.0
    A = C.A(0.0, x, v)
    B = C.B(0.0, x, v)
    npt.assert_allclose(A[0], [-2.0, 0.0, 0.0, 0.02, 0.1, 300.0], atol=1e-12)
    assert B[0] == pytest.approx(-6.7, rel=1e-12)


def test_power_flows_hand_values():
    sys0 = ref_system()
    flows = power_flows(sys0, 0.0, ref_state())
    assert flows.matter == pytest.approx(3.5, rel=1e-12)
    assert flows.heating == pytest.approx(3.2, rel=1e-12)
    assert flows.mechanical == 0.0
    assert flows.mechanical + flows.heating + flows.matter == pytest.approx(6.7, rel=1e-12)


def test_entropy_production_hand_values():
    sys0 = ref_system()
    br = entropy_production(sys0, 0.0, ref_state())
    assert br.friction == pytest.approx(2.0 / 300.0, rel=1e-12)
    assert br.mixing == pytest.approx(0.5 / 300.0, rel=1e-12)
    assert br.heating == pytest.approx(0.2 / 300.0, rel=1e-12)
    assert br.total == pytest.approx(0.009, rel=1e-12)
    assert br.total == pytest.approx(br.friction + br.mixing + br.heating)


def test_reduced_rates_satisfy_kinematic_constraint():
    # The production formula and the velocity constraint row are two encodings
    # of the same balance: reduced rates must satisfy A v + B = 0 identically.
    sys0 = small_open_system()
    C = build_constraints(sys0)
    rng = np.random.default_rng(0)
    around = small_initial()
    for _ in range(25):
        pt_ = random_physical_point(sys0, rng, around)
        ts = state_from_arrays(sys0, pt_.x, pt_.v)
        rates = reduced_rhs(sys0, pt_.t, ts)
        v = np.zeros(sys0.n)
        lay = sys0.layout
        v[lay.q] = ts.v_q
        v[lay.S] = rates[2 * sys0.n_q]
        v[lay.N] = rates[2 * sys0.n_q + 1]
        v[lay.Gamma] = rates[2 * sys0.n_q + 2]
        v[lay.W] = rates[2 * sys0.n_q + 3]
        v[lay.Sigma] = rates[2 * sys0.n_q + 4]
        res = C.A(pt_.t, pt_.x, v) @ v + C.B(pt_.t, pt_.x, v)
        assert np.max(np.abs(res)) < 1e-12


def test_momentum_constraints_match_velocity_side():
    sys0 = small_open_system()
    Cv = build_constraints(sys0)
    Cp = build_momentum_constraints(sys0)
    rng = np.random.default_rng(1)
    around = small_initial()
    for _ in range(10):
        pt_ = random_physical_point(sys0, rng, around)
        ts = state_from_arrays(sys0, pt_.x, pt_.v)
        p = momenta_from_state(sys0, ts)
        npt.assert_allclose(
            Cp.A(pt_.t, pt_.x, p), Cv.A(pt_.t, pt_.x, pt_.v), atol=1e-9
        )
        npt.assert_allclose(
            Cp.B(pt_.t, pt_.x, p), Cv.B(pt_.t, pt_.x, pt_.v), atol=1e-9
        )


# -- extended Lagrangian ---------------------------------------------------


def test_extended_lagrangian_derivatives():
    sys0 = small_open_system()
    L = build_extended_lagrangian(sys0)
    around = small_initial()

    def sample(rng):
        pt_ = random_physical_point(sys0, rng, around)
        return pt_.t, pt_.x, pt_.v

    report = check_derivatives(L, sample=sample, n_points=40, seed=3)
    assert report.passed, report


def test_extended_lagrangian_is_degenerate():
    sys0 = small_open_system()
    L = build_extended_lagrangian(sys0)
    assert not L.hyperregular
    assert tuple(L.regular_block) == (0,)


def test_momenta_from_state():
    sys0 = ref_system()
    ts = dataclasses.replace(ref_state(), Sigma=0.25)
    p = momenta_from_state(sys0, ts)
    lay = sys0.layout
    npt.assert_allclose(p[lay.q], [1.0])  # mass 1, v_q = 1
    assert p[lay.Gamma] == pytest.approx(ts.S - ts.Sigma)
    assert p[lay.W] == pytest.approx(ts.N)
    assert p[lay.S] == p[lay.N] == p[lay.Sigma] == 0.0


def test_initial_state_is_consistent():
    sys0 = small_open_system()
    s0 = initial_pontryagin_state(sys0, 0.0, small_initial())
    L = build_extended_lagrangian(sys0)
    C = build_constraints(sys0)
    # Covariant energy starts at zero and the constraint holds.
    E = float(s0.p @ s0.v) - float(L.value(s0.t, s0.x, s0.v))
    assert s0.pt + E == pytest.approx(0.0, abs=1e-12)
    res = C.A(s0.t, s0.x, s0.v) @ s0.v + C.B(s0.t, s0.x, s0.v)
    assert np.max(np.abs(res)) < 1e-12


# -- friction example ------------------------------------------------------


def test_friction_entropy_rate():
    sys0 = ideal_gas_fixture(c=1.0, T0=300.0, s0=1.0, friction=linear_friction(2.0))
    ts = ref_state()
    Sdot, _, _, _, Sigmadot = reduced_rhs(sys0, 0.0, ts)[2 * sys0.n_q :]
    assert Sdot == pytest.approx(1.0 / 150.0, rel=1e-12)
    assert Sigmadot == pytest.approx(1.0 / 150.0, rel=1e-12)
    br = entropy_production(sys0, 0.0, ts)
    assert br.friction == pytest.approx(1.0 / 150.0, rel=1e-12)
    assert br.mixing == br.heating == 0.0


def test_first_law_pointwise():
    # dE/dt along the reduced field equals the total external power.
    sys0 = ideal_gas_fixture(
        friction=linear_friction(0.05),
        ports=(
            PortModel(
                J=lambda t, ts: 0.01,
                J_S=lambda t, ts: 0.0102,
                mu=lambda t, ts: 0.02,
                T_port=lambda t, ts: 1.05,
            ),
        ),
        sources=(
            HeatSourceModel(J_S=lambda t, ts: 0.01, T_source=lambda t, ts: 1.1),
        ),
    )
    sys0 = dataclasses.replace(sys0, f_ext=lambda t, ts: np.array([0.3]))
    ts = dataclasses.replace(small_initial(), v_q=np.array([0.4]))

    def energy(ts_):
        # Total energy: kinetic plus every potential term of the mechanical
        # Lagrangian (spring and internal), i.e. kinetic minus L at rest.
        at_rest = float(sys0.mech.value(ts_.q, np.zeros(1), ts_.S, ts_.N))
        return 0.5 * float(ts_.v_q @ ts_.v_q) - at_rest

    def advance(eps):
        r, n_q = reduced_rhs(sys0, 0.0, ts), sys0.n_q
        Sdot, Ndot, Gammadot, Wdot, Sigmadot = r[2 * n_q :]
        return ThermoState(
            q=ts.q + eps * r[:n_q],
            v_q=ts.v_q + eps * r[n_q : 2 * n_q],
            S=ts.S + eps * Sdot,
            N=ts.N + eps * Ndot,
            Gamma=ts.Gamma + eps * Gammadot,
            W=ts.W + eps * Wdot,
            Sigma=ts.Sigma + eps * Sigmadot,
        )

    eps = 1e-6
    dE = (energy(advance(eps)) - energy(advance(-eps))) / (2 * eps)
    flows = power_flows(sys0, 0.0, ts)
    assert flows.mechanical == pytest.approx(0.3 * 0.4, rel=1e-12)
    assert dE == pytest.approx(flows.mechanical + flows.heating + flows.matter, abs=1e-6)


# -- entropy production signs ----------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.01, 5.0),
    st.floats(0.2, 5.0),
    st.floats(0.2, 3.0),
    st.floats(0.5, 2.0),
)
def test_conduction_production_is_nonnegative(kappa, T_b, S, N):
    source = HeatSourceModel(
        J_S=lambda t, ts, k=kappa, Tb=T_b: k
        * (Tb - temperature(_CONDUCTION_SYS, ts)),
        T_source=lambda t, ts, Tb=T_b: Tb,
    )
    sys0 = dataclasses.replace(_CONDUCTION_SYS, sources=(source,))
    ts = ThermoState(
        q=np.zeros(1), v_q=np.zeros(1), S=S, N=N, Gamma=0.0, W=0.0, Sigma=0.0
    )
    br = entropy_production(sys0, 0.0, ts)
    assert br.heating >= 0.0
    assert br.total >= 0.0


_CONDUCTION_SYS = ideal_gas_fixture()


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 4.0), st.floats(-3.0, 3.0))
def test_friction_production_is_nonnegative(gamma, v):
    sys0 = ideal_gas_fixture(friction=linear_friction(gamma))
    ts = dataclasses.replace(ref_state(), v_q=np.array([v]), S=1.0, N=1.0)
    br = entropy_production(sys0, 0.0, ts)
    assert br.friction >= 0.0


def test_matched_port_has_no_mixing_production():
    base = ideal_gas_fixture()
    port = PortModel(
        J=lambda t, ts: 0.02,
        J_S=lambda t, ts: 0.02,
        mu=lambda t, ts: chemical_potential(base, ts),
        T_port=lambda t, ts: temperature(base, ts),
    )
    sys0 = dataclasses.replace(base, ports=(port,))
    rng = np.random.default_rng(4)
    for _ in range(10):
        pt_ = random_physical_point(sys0, rng, small_initial())
        ts = state_from_arrays(sys0, pt_.x, pt_.v)
        br = entropy_production(sys0, pt_.t, ts)
        assert abs(br.mixing) < 1e-15


def test_port_from_molar_entropy():
    port = PortModel.from_molar_entropy(
        J=lambda t, ts: 2.0,
        molar_entropy=lambda t, ts: 1.3,
        mu=lambda t, ts: 0.0,
        T_port=lambda t, ts: 1.0,
    )
    assert port.J_S(0.0, ref_state()) == pytest.approx(2.6)


# -- reduced path and lift -------------------------------------------------


def test_reduced_run_multiplier_is_one():
    sys0 = small_open_system()
    traj = run_reduced(sys0, initial_pontryagin_state(sys0, 0.0, small_initial()), 1e-3, 50)
    assert traj.formulation == "reduced"
    npt.assert_array_equal(traj.lam, np.ones((50, 1)))


def test_reduced_entropy_decomposition_is_exact():
    sys0 = small_open_system()
    traj = run_reduced(sys0, initial_pontryagin_state(sys0, 0.0, small_initial()), 1e-3, 200)
    inv = monitor_invariants(
        build_extended_lagrangian(sys0), build_constraints(sys0), traj,
        thermo_system=sys0,
    )
    assert inv.summary()["max_abs_entropy_decomposition_residual"] < 1e-12


def two_port_dae_run(formulation, h):
    # The two-port piston on a DAE formulation at step h over t in [0, 0.2],
    # and its invariants.
    from diracsim import cli

    cfg = cli.BUILTINS["two_port_piston"]()
    cfg["integrator"].update(h=h, horizon=0.2)
    problem = cli.build_problem(cfg, formulation)
    traj = cli.run_formulation(problem, formulation)
    inv = monitor_invariants(problem.L, problem.vel_constraints, traj, problem.system)
    return problem, traj, inv


@pytest.mark.parametrize("h", [1e-3, 1e-4])
@pytest.mark.parametrize("formulation", ["pontryagin", "lagrange-dirac"])
def test_dae_entropy_decomposition_is_the_midpoint_fiber_row(formulation, h):
    # The column is the Gamma slot of the fiber row, p_Gamma - (S - Sigma),
    # at each step's averaged midpoint, where the stepper solves it: it reads
    # Newton's round-off at every h, not that round-off over h.
    problem, traj, inv = two_port_dae_run(formulation, h)
    column = inv.entropy_decomposition_residual
    assert column.shape == (traj.n_steps,)
    assert np.max(np.abs(column)) < 1e-13
    n, gamma = traj.n, problem.system.layout.Gamma
    for k, (state, rate, lam) in enumerate(itertools.islice(traj.midpoint_samples(), 20)):
        r = pontryagin_dirac_residual(problem.L, problem.vel_constraints, state, rate, lam)
        assert column[k] == r[n + gamma], k


def test_dae_entropy_decomposition_shows_a_shifted_entropy():
    # S moved by 1e-8 from node 100 on leaves the fiber row off by that much
    # at every later midpoint, and the run's verdict fails on that line.
    from diracsim import cli

    problem, traj, _ = two_port_dae_run("pontryagin", 1e-3)
    lay = problem.system.layout
    x = traj.x.copy()
    x[100:, lay.S] += 1e-8
    traj = dataclasses.replace(traj, x=x)
    inv = monitor_invariants(problem.L, problem.vel_constraints, traj, problem.system)
    assert np.max(np.abs(inv.entropy_decomposition_residual)) > 1e-9
    passed, lines = cli.evaluate_tolerances(problem, inv, None)
    assert not passed
    assert [ln for ln in lines if ln.endswith("FAIL")] == [
        ln for ln in lines if ln.startswith("max |entropy decomposition residual|")
    ]


def test_lifted_midpoint_residual_vanishes():
    sys0 = small_open_system()
    L = build_extended_lagrangian(sys0)
    C = build_constraints(sys0)
    traj = run_reduced(sys0, initial_pontryagin_state(sys0, 0.0, small_initial()), 1e-3, 100)
    worst = 0.0
    for state, rate, lam in lifted_midpoint_samples(sys0, traj):
        r = pontryagin_dirac_residual(L, C, state, rate, lam)
        worst = max(worst, float(np.max(np.abs(r))))
    assert worst < 1e-11


def test_dae_multiplier_is_one():
    sys0 = small_open_system()
    L = build_extended_lagrangian(sys0)
    C = build_constraints(sys0)
    s0 = initial_pontryagin_state(sys0, 0.0, small_initial())
    stepper = ImplicitMidpointStepper("pontryagin", lagrangian=L, constraints=C)
    traj = stepper.run(s0, 1e-3, 100)
    assert np.max(np.abs(traj.lam - 1.0)) < 1e-12


def test_dae_matches_reduced_path():
    sys0 = small_open_system()
    L = build_extended_lagrangian(sys0)
    C = build_constraints(sys0)
    s0 = initial_pontryagin_state(sys0, 0.0, small_initial())
    stepper = ImplicitMidpointStepper("pontryagin", lagrangian=L, constraints=C)
    dae = stepper.run(s0, 1e-3, 100)
    red = run_reduced(sys0, initial_pontryagin_state(sys0, 0.0, small_initial()), 1e-3, 100)
    assert np.max(np.abs(dae.x - red.x)) < 1e-8
    assert np.max(np.abs(dae.p - red.p)) < 1e-8
    assert np.max(np.abs(dae.pt - red.pt)) < 1e-8


def test_first_law_residual_small_on_reduced_run():
    sys0 = small_open_system()
    traj = run_reduced(sys0, initial_pontryagin_state(sys0, 0.0, small_initial()), 1e-3, 200)
    res = first_law_residual(sys0, traj)
    assert res[0] == 0.0
    assert np.max(np.abs(res)) < 1e-9


def count_factorizations(monkeypatch):
    calls = []
    original = dynamics_module.lu_factor

    def counting(J, **kwargs):
        calls.append(J.shape)
        return original(J, **kwargs)

    monkeypatch.setattr(dynamics_module, "lu_factor", counting)
    return calls


def test_reduced_path_refreshes_its_jacobian_every_50_steps(monkeypatch):
    factors = count_factorizations(monkeypatch)
    sys0 = small_open_system()
    run_reduced(sys0, initial_pontryagin_state(sys0, 0.0, small_initial()), 1e-3, 100)
    # The first step, then the refresh at step 50; no step stalls.
    assert len(factors) == 2


def test_stalled_reduced_step_retries_once_with_a_fresh_jacobian(monkeypatch):
    # From step 2 on, the field carries noise far below the step size but
    # with a slope far above 1/h, so the chord iteration stalls.
    field = thermo_module._reduced_field

    def noisy(sys, t, y):
        f = field(sys, t, y)
        return f + 1e-8 * np.sin(y / 1e-14) if t > 0.002 else f

    monkeypatch.setattr(thermo_module, "_reduced_field", noisy)
    factors = count_factorizations(monkeypatch)
    with pytest.raises(
        StepFailureError,
        match=r"^reduced step 2 \(t = 0\.002\) failed: Newton did not converge",
    ):
        sys0 = small_open_system()
        run_reduced(sys0, initial_pontryagin_state(sys0, 0.0, small_initial()), 1e-3, 5)
    # One factorization at step 0, one for the retry of step 2.
    assert len(factors) == 2


# -- cross Hessians --------------------------------------------------------


def make_varying_mass_system():
    """Piston with configuration-dependent mass M(q) = 1 + 0.3 sin q and the
    ideal gas internal energy; declares the cross second derivatives. Like
    every mechanical Lagrangian, it broadcasts over a leading node axis."""

    base = ideal_gas_fixture(friction=linear_friction(0.05))
    gas = base.mech

    def M(q):
        return 1.0 + 0.3 * np.sin(q[..., :1])

    def Mp(q):
        return 0.3 * np.cos(q[..., :1])

    mech = MechanicalLagrangian(
        n_q=1,
        value=lambda q, v, S, N: 0.5 * M(q)[..., 0] * v[..., 0] ** 2
        + gas.value(q, np.zeros_like(v), S, N),
        d_q=lambda q, v, S, N: 0.5 * Mp(q) * v[..., :1] ** 2
        + np.asarray(gas.d_q(q, np.zeros_like(v), S, N)),
        d_v=lambda q, v, S, N: M(q) * v,
        d_S=gas.d_S,
        d_N=gas.d_N,
        d_vv=lambda q, v, S, N: M(q) * np.eye(1),
        d_vq=lambda q, v, S, N: Mp(q) * v[:, None],
        d_vS=lambda q, v, S, N: np.zeros(1),
        d_vN=lambda q, v, S, N: np.zeros(1),
    )
    return dataclasses.replace(base, mech=mech)


def test_varying_mass_momentum_balance():
    # d/dt (M(q) v_q) along the reduced field must equal the balance
    # d_q L + F_fr; checked by differencing the momentum along the flow.
    sys0 = make_varying_mass_system()
    ts = dataclasses.replace(small_initial(), v_q=np.array([0.7]))

    def flow(eps):
        r, n_q = reduced_rhs(sys0, 0.0, ts), sys0.n_q
        Sdot, Ndot, Gammadot, Wdot, Sigmadot = r[2 * n_q :]
        return ThermoState(
            q=ts.q + eps * r[:n_q],
            v_q=ts.v_q + eps * r[n_q : 2 * n_q],
            S=ts.S + eps * Sdot,
            N=ts.N + eps * Ndot,
            Gamma=ts.Gamma + eps * Gammadot,
            W=ts.W + eps * Wdot,
            Sigma=ts.Sigma + eps * Sigmadot,
        )

    def p_q(ts_):
        return float(sys0.mech.d_v(ts_.q, ts_.v_q, ts_.S, ts_.N)[0])

    eps = 1e-6
    pdot_fd = (p_q(flow(eps)) - p_q(flow(-eps))) / (2 * eps)
    d_q = float(np.asarray(sys0.mech.d_q(ts.q, ts.v_q, ts.S, ts.N))[0])
    F_fr = -0.05 * ts.v_q[0]
    assert pdot_fd == pytest.approx(d_q + F_fr, abs=1e-6)


def test_varying_mass_lift_residual():
    # With a state-dependent mass the lift is no longer exact at round-off,
    # but it stays at the discretization order.
    sys0 = make_varying_mass_system()
    L = build_extended_lagrangian(sys0)
    C = build_constraints(sys0)
    ts0 = dataclasses.replace(small_initial(), v_q=np.array([0.5]))
    traj = run_reduced(sys0, initial_pontryagin_state(sys0, 0.0, ts0), 1e-3, 100)
    worst = 0.0
    for state, rate, lam in lifted_midpoint_samples(sys0, traj):
        r = pontryagin_dirac_residual(L, C, state, rate, lam)
        worst = max(worst, float(np.max(np.abs(r))))
    assert worst < 1e-6


def reference_momentum_row(sys0, t, x, p):
    # The momentum-side row as it was built before the fiber inversion was
    # shared with legendre_invert: a Newton of its own on the mechanical
    # block from v_q = 0, kept here only for comparison. Returns (A, B) and
    # the number of Newton updates.
    lay, mech = sys0.layout, sys0.mech
    q, S, N, p_q = x[lay.q], x[lay.S], x[lay.N], p[lay.q]
    v = np.zeros(sys0.n_q)
    for updates in range(50):
        r = np.asarray(mech.d_v(q, v, S, N), dtype=float).reshape(sys0.n_q) - p_q
        if np.abs(r).max(initial=0.0) <= 1e-12 * (1.0 + np.abs(p_q).max(initial=0.0)):
            ts = thermo_module._with_temperature(
                sys0, thermo_module._new_state(q.copy(), v, x[lay.S :])
            )
            return thermo_module._constraint_row(sys0, t, ts), updates
        M = np.asarray(mech.d_vv(q, v, S, N), dtype=float).reshape(sys0.n_q, sys0.n_q)
        v = v - lagrangian_module._mass_solve(M, r)
    raise AssertionError("reference inversion did not converge")


def make_stiffening_system():
    """Piston whose momentum m (v + v^3) is nonlinear in v, so inverting it
    takes several Newton updates."""

    base = ideal_gas_fixture(friction=linear_friction(0.05))
    gas = base.mech
    m = 1.5
    mech = dataclasses.replace(
        gas,
        value=lambda q, v, S, N: m * (0.5 * v[..., 0] ** 2 + 0.25 * v[..., 0] ** 4)
        + gas.value(q, np.zeros_like(v), S, N),
        d_v=lambda q, v, S, N: m * (v + v**3),
        d_vv=lambda q, v, S, N: m * (1.0 + 3.0 * v**2) * np.eye(1),
    )
    return dataclasses.replace(base, mech=mech)


def momentum_row_case(name):
    # (system, reference state) of a builtin, or of the stiffening piston.
    if name == "stiffening":
        return make_stiffening_system(), dataclasses.replace(small_initial(), v_q=np.array([1.5]))
    problem = cli_problem(name)
    return problem.system, problem.ts0


@pytest.mark.parametrize(
    "name",
    ["closed_piston", "conduction_piston", "matched_port_piston", "two_port_piston", "stiffening"],
)
def test_momentum_row_is_the_reference_inversion_bitwise(name):
    sys0, around = momentum_row_case(name)
    C = build_momentum_constraints(sys0)
    rng = np.random.default_rng(19)
    most_updates = 0
    for _ in range(50):
        pt_ = random_physical_point(sys0, rng, around)
        (A, B), updates = reference_momentum_row(sys0, pt_.t, pt_.x, pt_.p)
        assert C.A(pt_.t, pt_.x, pt_.p).tobytes() == A.tobytes()
        assert C.B(pt_.t, pt_.x, pt_.p).tobytes() == B.tobytes()
        most_updates = max(most_updates, updates)
    assert most_updates >= (3 if name == "stiffening" else 1)


# -- sampling --------------------------------------------------------------


def test_random_physical_point_is_physical():
    sys0 = small_open_system()
    rng = np.random.default_rng(9)
    around = small_initial()
    for _ in range(50):
        pt_ = random_physical_point(sys0, rng, around)
        ts = state_from_arrays(sys0, pt_.x, pt_.v)
        assert ts.N > 0
        assert temperature(sys0, ts) > 0
        assert np.all(np.isfinite(pt_.x))
        assert np.all(np.isfinite(pt_.p))
        assert 0.0 <= pt_.t <= 10.0


# -- shared row builds -----------------------------------------------------


def count_row_builds(monkeypatch):
    calls = []
    original = thermo_module._constraint_row

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(thermo_module, "_constraint_row", counted)
    return calls


def start_row(stepper, s):
    # The node row (x, v, p, pt, lam) that stepper.run starts from at s: a
    # zero multiplier, and on hamilton-dirac v = dH/dp, the fiber velocity.
    w = s.v
    if stepper.formulation == "hamilton-dirac":
        w = legendre_dual(stepper.L).d_p(s.t, s.x, s.p)
    return np.concatenate([s.x, w, s.p, [s.pt], np.zeros(stepper.constraints.m)])


@pytest.mark.parametrize(
    "formulation, builder",
    [("pontryagin", build_constraints), ("lagrange-dirac", build_momentum_constraints)],
)
def test_step_residual_builds_each_row_once(monkeypatch, formulation, builder):
    # A step residual needs the row at the midpoint and at the new node: one
    # build each, at every residual.
    stepper, s0, h = open_system_stepper(formulation, builder)
    row = start_row(stepper, s0)
    residual = stepper._residual_fn(s0.t, row, h)
    guess = stepper._guess(row, h)
    calls = count_row_builds(monkeypatch)
    residual(guess)
    assert len(calls) == 2
    residual(guess + 1e-6)
    assert len(calls) == 4
    # A point asked for again is evaluated again.
    residual(guess + 1e-6)
    assert len(calls) == 6


@pytest.mark.parametrize(
    "formulation, builder",
    [("pontryagin", build_constraints), ("lagrange-dirac", build_momentum_constraints)],
)
def test_chord_solve_on_an_open_system_step_jacobian(formulation, builder):
    sys0 = small_open_system()
    stepper = ImplicitMidpointStepper(
        formulation, lagrangian=build_extended_lagrangian(sys0), constraints=builder(sys0)
    )
    s0 = initial_pontryagin_state(sys0, 0.0, small_initial())
    row = start_row(stepper, s0)
    residual = stepper._residual_fn(s0.t, row, 1e-3)
    guess = stepper._guess(row, 1e-3)
    r = residual(guess)
    lu = stepper._factor(lambda Y: np.array([residual(y) for y in Y]), guess, r)
    assert _chord_solve(lu, r).tobytes() == lu_solve(lu, r).tobytes()


def step_residual_from_public_rows(stepper, s0, h, y, f_ext=None):
    """A step residual assembled from the public instantaneous residual.

    The residual is taken at the averaged midpoint on the difference
    quotients across the step, with the external force f_ext on the
    Pontryagin path; its kinematic rows (and the Lagrange-Dirac base-point
    row) give way to the kinematic row at the new node, and the rows are put
    in the stepper's order.
    """

    n, C = stepper.n, stepper.constraints
    m = C.m
    tm, t1 = s0.t + 0.5 * h, s0.t + h
    lam = y[y.size - m :]
    if stepper.formulation == "hamilton-dirac":
        H = legendre_dual(stepper.L)
        x1, p1, pt1 = y[:n], y[n : 2 * n], y[2 * n]
        zm = PhasePoint(t=tm, x=0.5 * (s0.x + x1), pt=0.5 * (s0.pt + pt1), p=0.5 * (s0.p + p1))
        rate = TangentTstarY(
            dt=1.0, dx=(x1 - s0.x) / h, dpt=(pt1 - s0.pt) / h, dp=(p1 - s0.p) / h
        )
        r = hamilton_dirac_residual(H, C, zm, rate, lam)
        node = C.A(t1, x1, p1) @ H.d_p(t1, x1, p1) + C.B(t1, x1, p1)
        # velocity | pt | momentum | kinematic  ->  velocity | momentum | node | pt
        return np.concatenate([r[:n], r[n + 1 : 2 * n + 1], node, r[n : n + 1]])
    x1, v1, p1, pt1 = y[:n], y[n : 2 * n], y[2 * n : 3 * n], y[3 * n]
    sm = PontryaginState(
        t=tm,
        x=0.5 * (s0.x + x1),
        v=0.5 * (s0.v + v1),
        pt=0.5 * (s0.pt + pt1),
        p=0.5 * (s0.p + p1),
    )
    rate = TangentP(
        dt=1.0,
        dx=(x1 - s0.x) / h,
        dv=(v1 - s0.v) / h,
        dpt=(pt1 - s0.pt) / h,
        dp=(p1 - s0.p) / h,
    )
    if stepper.formulation == "pontryagin":
        r = pontryagin_dirac_residual(stepper.L, C, sm, rate, lam, f_ext)
        node = C.A(t1, x1, v1) @ v1 + C.B(t1, x1, v1)
        # velocity | fiber | momentum | kinematic | pt
        return np.concatenate([r[: 3 * n], node, r[3 * n + m :]])
    r = lagrange_dirac_residual(stepper.L, C, sm, rate, lam)
    node = C.A(t1, x1, p1) @ v1 + C.B(t1, x1, p1)
    # velocity | pt | momentum | kinematic | fiber | pt + E_L
    #   ->  velocity | fiber | momentum | node | pt
    fiber = r[2 * n + 1 + m : 3 * n + 1 + m]
    return np.concatenate([r[:n], fiber, r[n + 1 : 2 * n + 1], node, r[n : n + 1]])


def particle_stepper(formulation):
    from diracsim.cli import BUILTINS, build_problem

    problem = build_problem(BUILTINS["nonholonomic_particle"]())
    C = problem.vel_constraints if formulation == "pontryagin" else problem.mom_constraints
    return ImplicitMidpointStepper(formulation, problem.L, C), problem.initial, problem.h


def time_spring(mass=2.0):
    # L = m|v|^2/2 - k(t)|x|^2/2 with k(t) = 1 + t^2/2, so dL/dx = -k x and
    # dL/dt = -t|x|^2/2 are nonzero, under the particle's affine row
    # t xdot1 - xdot2 + 0.3 sin t = 0; both broadcast over stacked points.
    def k(t):
        return (1.0 + 0.5 * np.square(t))[..., None]

    L = TimeLagrangian(
        n=2,
        value=lambda t, x, v: 0.5 * mass * _dot(v, v) - 0.5 * k(t)[..., 0] * _dot(x, x),
        d_t=lambda t, x, v: -0.5 * t * _dot(x, x),
        d_x=lambda t, x, v: -k(t) * x,
        d_v=lambda t, x, v: mass * v,
        d_vv=lambda t, x, v: mass * np.eye(2),
        broadcasts=True,
    )

    def eval_rows(t, x, w):
        t = np.asarray(t, dtype=float)
        A = np.stack([t, np.full_like(t, -1.0)], axis=-1)[..., None, :]
        return A, (0.3 * np.sin(t))[..., None]

    C = ConstraintSet(
        n=2, m=1, eval_A=lambda t, x, w: eval_rows(t, x, w)[0],
        eval_B=lambda t, x, w: eval_rows(t, x, w)[1], eval_rows=eval_rows,
    )
    return L, C


def spring_stepper(formulation, f_ext=None):
    # The time spring from x = (0.3, -0.2) and v = (1, 0), which lie on its
    # row at t = 0, with the momenta of their covariant Legendre image.
    L, C = time_spring()
    x0, v0 = np.array([0.3, -0.2]), np.array([1.0, 0.0])
    z = covariant_legendre(L, 0.0, x0, v0)
    s0 = PontryaginState(t=0.0, x=x0, v=v0, pt=z.pt, p=z.p)
    return ImplicitMidpointStepper(formulation, L, C, f_ext=f_ext), s0, 1e-2


def open_system_stepper(formulation, builder=None):
    # The small open system's stepper, with the one-pass point record that
    # cli.run_formulation hands an open system's stepper.
    sys0 = small_open_system()
    if builder is None:
        builder = build_constraints if formulation == "pontryagin" else build_momentum_constraints
    stepper = ImplicitMidpointStepper(
        formulation,
        lagrangian=build_extended_lagrangian(sys0),
        constraints=builder(sys0),
        points=thermo_module._mixed_points(sys0, formulation == "lagrange-dirac"),
    )
    return stepper, initial_pontryagin_state(sys0, 0.0, small_initial()), 1e-3


def builtin_stepper(name, formulation):
    # A builtin's stepper as cli.run_formulation builds it, and the
    # problem's external force, which its point record carries.
    from diracsim import cli

    problem = cli.build_problem(cli.load_config(name))
    return cli._stepper(problem, formulation), problem.initial, problem.h, problem.f_ext_force


THERMO_BUILTINS = ["closed_piston", "conduction_piston", "forced_piston", "matched_port_piston",
                   "two_port_piston"]
# Every open-system scenario on each mixed formulation.
THERMO_MIXED_CASES = [
    (name, f) for name in THERMO_BUILTINS for f in ("pontryagin", "lagrange-dirac")
]


@pytest.mark.parametrize(
    "build, formulation",
    [
        (particle_stepper, "pontryagin"),
        (particle_stepper, "lagrange-dirac"),
        (particle_stepper, "hamilton-dirac"),
        (spring_stepper, "pontryagin"),
        (spring_stepper, "lagrange-dirac"),
        (spring_stepper, "hamilton-dirac"),
        (open_system_stepper, "pontryagin"),
        (open_system_stepper, "lagrange-dirac"),
        *(case for case in THERMO_MIXED_CASES if case != ("forced_piston", "lagrange-dirac")),
    ],
)
def test_step_residual_is_the_public_residual_at_the_midpoint(build, formulation):
    # The stepper solves the formulation's own instantaneous equations, bit
    # for bit, at random new nodes around its first Newton guess, on a step
    # that starts away from t = 0. Its unknowns are the increments y - z0
    # from the start's node values z0, then lam. The open systems' steppers
    # read the one-pass point record; the public residuals call the model's
    # L, C and f_ext through the adapter of models given as callables. The
    # forced piston runs on pontryagin only: the public
    # lagrange_dirac_residual takes no force.
    if isinstance(build, str):
        stepper, s0, h, f_ext = builtin_stepper(build, formulation)
    else:
        (stepper, s0, h), f_ext = build(formulation), None
    s0 = dataclasses.replace(s0, t=0.9)
    row = start_row(stepper, s0)
    residual = stepper._residual_fn(s0.t, row, h)
    guess = stepper._guess(row, h)
    z0 = np.r_[row[stepper._increments], np.zeros(stepper.constraints.m)]  # lam is absolute
    rng = np.random.default_rng(5)
    for _ in range(5):
        y = z0 + guess + 1e-3 * (1.0 + np.abs(z0 + guess)) * rng.standard_normal(guess.size)
        got = residual(y - z0)
        want = step_residual_from_public_rows(stepper, s0, h, y, f_ext)
        assert got.shape == want.shape == guess.shape
        assert got.tobytes() == want.tobytes()


def test_hamilton_dirac_rows_of_the_time_spring_by_hand():
    # m = 2 and k(0.5) = 1.125 at x = (0.2, -0.4), p = (0.6, 1.0): the fiber
    # velocity is p/m = (0.3, 0.5), dH/dx = k x = (0.225, -0.45) and
    # dH/dt = t|x|^2/2 = 0.05, the negatives of L's partials there.
    L, C = time_spring()
    z = PhasePoint(t=0.5, x=np.array([0.2, -0.4]), pt=0.1, p=np.array([0.6, 1.0]))
    rate = TangentTstarY(dt=1.0, dx=np.array([0.9, -1.1]), dpt=0.05, dp=np.array([0.4, -0.2]))
    r = hamilton_dirac_residual(legendre_dual(L), C, z, rate, np.array([2.0]))
    B = 0.3 * np.sin(0.5)
    # Rows: xdot - dH/dp | ptdot + dH/dt - lam B | pdot + dH/dx - lam A |
    # A dH/dp + B, with A = (0.5, -1).
    expected = [0.6, -1.6, 0.05 + 0.05 - 2.0 * B, 0.4 + 0.225 - 1.0, -0.2 - 0.45 + 2.0,
                0.15 - 0.5 + B]
    npt.assert_allclose(r, expected, rtol=0.0, atol=1e-14)


def test_three_formulations_follow_the_time_spring_reference():
    # DOP853 on the index-reduced equations m vdot = -k x + lam (t, -1) + F,
    # ptdot = dL/dt + lam B, where differentiating the row along them gives
    # lam = (k (t x1 - x2) - (t F1 - F2) - m (v1 + 0.3 cos t)) / (1 + t^2).
    # Without a force and with F(t) = (cos 2t, sin t) / 2, given as callables
    # that the record carries on all three formulations, each is second
    # order: 0.132 h^2 and 0.122 h^2 from it at h = 1e-2 and at 5e-3. The
    # three agree to round-off, as the free particle's do. The force moves
    # the end state by 0.105, so a formulation that dropped it would miss
    # the bound.
    from scipy.integrate import solve_ivp

    force = ExternalForce(
        n=2, value=lambda t, x, v: 0.5 * np.stack([np.cos(2.0 * t), np.sin(t)], axis=-1),
        broadcasts=True,
    )
    for f_ext in (None, force):

        def rhs(t, y):
            x, v = y[:2], y[2:4]
            F = np.zeros(2) if f_ext is None else f_ext.value(t, x, v)
            k = 1.0 + 0.5 * t * t
            lam = (k * (t * x[0] - x[1]) - (t * F[0] - F[1]) - 2.0 * (v[0] + 0.3 * np.cos(t)))
            lam /= 1.0 + t * t
            a = (-k * x + lam * np.array([t, -1.0]) + F) / 2.0
            return [*v, *a, -0.5 * t * float(x @ x) + lam * 0.3 * np.sin(t)]

        runs = {}
        for formulation in ("pontryagin", "lagrange-dirac", "hamilton-dirac"):
            stepper, s0, h = spring_stepper(formulation, f_ext)
            runs[formulation] = traj = stepper.run(s0, h, 100)
        ref = solve_ivp(rhs, (0.0, traj.t[-1]), [*s0.x, *s0.v, s0.pt], method="DOP853",
                        rtol=1e-13, atol=1e-13, t_eval=traj.t)
        assert ref.success
        want = np.column_stack([ref.y[:4].T, ref.y[4]])
        got = {f: np.column_stack([traj.x, traj.v, traj.pt]) for f, traj in runs.items()}
        for formulation in runs:
            assert np.abs(got[formulation] - want).max() <= 0.2 * h * h, (formulation, f_ext)
            assert np.abs(got[formulation] - got["pontryagin"]).max() <= 1e-10, formulation


def counted_calls(calls, name, fn):
    # fn, recording (name, t) in calls at each call.
    def counted(t, *args):
        calls.append((name, t))
        return fn(t, *args)

    return counted


@pytest.mark.parametrize(
    "name, formulation",
    [
        *THERMO_MIXED_CASES,
        ("nonholonomic_particle", "pontryagin"),
        ("nonholonomic_particle", "lagrange-dirac"),
    ],
)
def test_step_residual_evaluates_the_model_once_per_point(monkeypatch, name, formulation):
    # One fresh step residual, built as cli.run_formulation builds the
    # stepper, evaluates the model once at its midpoint and takes one row at
    # its new node. The open system builds one state per point, and on
    # lagrange-dirac one more for the momentum-side row at the midpoint, each
    # with one temperature. A particle's L and C are called once each.
    from diracsim import cli

    problem = cli_problem(name)
    t0, h = problem.initial.t, problem.h
    tm, t1 = t0 + 0.5 * h, t0 + h
    calls = []
    if problem.system is None:
        L, C = problem.L, problem.vel_constraints
        L = dataclasses.replace(
            L, **{f: counted_calls(calls, f, getattr(L, f)) for f in ("value", "d_t", "d_x", "d_v")}
        )
        C = dataclasses.replace(
            C, **{f: counted_calls(calls, f, getattr(C, f)) for f in ("eval_A", "eval_B")}
        )
        problem = dataclasses.replace(problem, L=L, vel_constraints=C, mom_constraints=C)
        want = [("d_t", tm), ("d_x", tm), ("d_v", tm), ("eval_A", tm), ("eval_B", tm),
                ("eval_A", t1), ("eval_B", t1)]
    else:
        sys0 = problem.system
        states, temperatures = [], []
        new_state, d_S = thermo_module._new_state, sys0.mech.d_S
        monkeypatch.setattr(
            thermo_module, "_new_state", lambda *a: states.append(1) or new_state(*a)
        )
        # The builder's sources and ports hold the same mechanical Lagrangian.
        object.__setattr__(sys0.mech, "d_S", lambda *a: temperatures.append(1) or d_S(*a))
        constraint_row = thermo_module._constraint_row
        monkeypatch.setattr(
            thermo_module, "_constraint_row",
            lambda sys, t, ts: calls.append(("row", t)) or constraint_row(sys, t, ts),
        )
        want = [("row", tm), ("row", t1)]
        if sys0.f_ext is not None:
            object.__setattr__(sys0, "f_ext", counted_calls(calls, "f_ext", sys0.f_ext))
            want.append(("f_ext", tm))
    stepper = cli._stepper(problem, formulation)
    row = start_row(stepper, problem.initial)
    residual = stepper._residual_fn(t0, row, h)
    guess = stepper._guess(row, h)
    del calls[:]
    if problem.system is not None:
        del states[:], temperatures[:]
    residual(guess)
    assert sorted(calls) == sorted(want)
    if problem.system is not None:
        per_residual = 3 if formulation == "lagrange-dirac" else 2
        assert len(states) == len(temperatures) == per_residual


@pytest.mark.parametrize("builder", [build_constraints, build_momentum_constraints])
def test_shared_row_is_never_stale(builder):
    ramp = PortModel(
        J=lambda t, ts: 0.01 * (1.0 + t),
        J_S=lambda t, ts: 0.0102,
        mu=lambda t, ts: 0.02,
        T_port=lambda t, ts: 1.05,
    )
    sys0 = dataclasses.replace(small_open_system(), ports=(ramp,))
    C = builder(sys0)
    s0 = initial_pontryagin_state(sys0, 0.0, small_initial())
    w = s0.v if builder is build_constraints else s0.p
    x = s0.x.copy()

    def fresh(t):
        F = builder(sys0)
        return F.A(t, x.copy(), w.copy()), F.B(t, x.copy(), w.copy())

    A0, B0 = C.A(0.5, x, w), C.B(0.5, x, w)
    npt.assert_array_equal(A0, fresh(0.5)[0])
    npt.assert_array_equal(B0, fresh(0.5)[1])
    # A new time.
    A1, B1 = C.A(2.0, x, w), C.B(2.0, x, w)
    assert not np.array_equal(A1, A0)
    npt.assert_array_equal(A1, fresh(2.0)[0])
    npt.assert_array_equal(B1, fresh(2.0)[1])
    # The same array object, mutated in place, is a new point.
    x[sys0.layout.S] += 0.1
    A2, B2 = C.A(2.0, x, w), C.B(2.0, x, w)
    assert not np.array_equal(A2, A1)
    npt.assert_array_equal(A2, fresh(2.0)[0])
    npt.assert_array_equal(B2, fresh(2.0)[1])


def test_monitor_invariants_builds_one_row_per_point(monkeypatch):
    sys0 = small_open_system()
    L = build_extended_lagrangian(sys0)
    C = build_constraints(sys0)
    traj = run_reduced(sys0, initial_pontryagin_state(sys0, 0.0, small_initial()), 1e-3, 20)
    calls = count_row_builds(monkeypatch)
    monitor_invariants(L, C, traj)
    # The rows broadcast: one build over all nodes (A and B share it) and one
    # over all step midpoints (B only).
    assert [ts.S.shape for _, _, ts in calls] == [(traj.n_steps + 1,), (traj.n_steps,)]


def test_monitor_invariants_reads_the_node_row_from_the_model_point(monkeypatch):
    # With the open system given, the node's kinematic residual comes from
    # the balance that feeds the power flows: one state over all nodes, plus
    # one over all step midpoints for the row offset of the energy balance,
    # and no state per node.
    problem = cli_problem("two_port_piston")
    sys0 = problem.system
    stepper = ImplicitMidpointStepper(
        "pontryagin", lagrangian=problem.L, constraints=problem.vel_constraints
    )
    traj = stepper.run(problem.initial, problem.h, 20)
    by_row = monitor_invariants(problem.L, build_constraints(sys0), traj)
    states = []
    original = thermo_module.state_from_arrays

    def counted(sys, x, v):
        states.append(np.shape(x))
        return original(sys, x, v)

    monkeypatch.setattr(thermo_module, "state_from_arrays", counted)
    inv = monitor_invariants(problem.L, build_constraints(sys0), traj, thermo_system=sys0)
    K, n = traj.n_steps, traj.n
    assert states == [(K + 1, n), (K, n)]
    assert inv.kinematic_residual.tobytes() == by_row.kinematic_residual.tobytes()
    assert inv.energy_balance_residual.tobytes() == by_row.energy_balance_residual.tobytes()


def cli_problem(name):
    from diracsim import cli

    return cli.build_problem(cli.load_config(name))


@pytest.mark.parametrize("name", ["two_port_piston", "matched_port_piston", "conduction_piston"])
def test_step_residual_evaluates_dS_once_per_point(name):
    # The midpoint record (the row, its conduction sources and matched
    # ports, and d_x) reads one temperature; the new node computes its own.
    from diracsim import cli

    problem = cli_problem(name)
    mech = problem.system.mech
    points = []
    d_S = mech.d_S

    def counted(q, v, S, N):
        points.append((q.tobytes(), v.tobytes(), S, N))
        return d_S(q, v, S, N)

    # The builder's sources and ports hold the same mechanical Lagrangian.
    object.__setattr__(mech, "d_S", counted)
    stepper = cli._stepper(problem, "pontryagin")
    row = start_row(stepper, problem.initial)
    residual = stepper._residual_fn(problem.initial.t, row, problem.h)
    guess = stepper._guess(row, problem.h)
    del points[:]  # the start row's
    residual(guess)
    assert len(points) == 2 and len(set(points)) == 2
    residual(guess + 1e-6)
    assert len(points) == 4 and len(set(points)) == 4


def row_based_invariant_columns(problem, traj):
    # The diagnostics column by column from the public functions: the
    # constraint row at each node and step midpoint, power_flows and
    # entropy_production at each node.
    sys0, L, C = problem.system, problem.L, build_constraints(problem.system)
    kin, P, prod, ebr = [], [], [], []
    for k in range(traj.n_steps + 1):
        t, x, v = traj.t[k], traj.x[k], traj.v[k]
        kin.append(float(np.max(np.abs(C.A(t, x, v) @ v + C.B(t, x, v)))))
        flows = power_flows(sys0, t, state_from_arrays(sys0, x, v))
        P.append([flows.mechanical, flows.heating, flows.matter])
        prod.append(entropy_production(sys0, t, state_from_arrays(sys0, x, v)).total)
    for k in range(traj.n_steps):
        sm = traj.midpoint_state(k)
        ptdot = (traj.pt[k + 1] - traj.pt[k]) / (traj.t[k + 1] - traj.t[k])
        B = C.B(sm.t, sm.x, sm.v)
        ebr.append(ptdot - float(L.d_t(sm.t, sm.x, sm.v)) - float(B @ traj.lam[k]))
    return np.array(kin), np.array(P).T, np.array(prod), np.array(ebr)


@pytest.mark.parametrize("name", ["conduction_piston", "matched_port_piston"])
def test_monitor_invariants_builds_no_row_and_one_temperature_per_state(name):
    # The open-system pass reads the midpoint offset B without building a
    # constraint row, and each node and midpoint state carries its
    # temperature, which the conduction sources and matched ports read:
    # -dL/dS runs once over the K + 1 nodes and once over the K midpoints,
    # 2K + 1 distinct states in all, and no eval_A or eval_B is called.
    problem = cli_problem(name)
    sys0, mech = problem.system, problem.system.mech
    stepper = ImplicitMidpointStepper(
        "pontryagin", lagrangian=problem.L, constraints=problem.vel_constraints
    )
    traj = stepper.run(problem.initial, problem.h, 20)
    kin, (P_W, P_H, P_M), prod, ebr = row_based_invariant_columns(problem, traj)
    rows = []
    C = dataclasses.replace(
        problem.vel_constraints,
        eval_A=lambda *a: rows.append("A"),
        eval_B=lambda *a: rows.append("B"),
    )
    temperatures = []
    d_S = mech.d_S

    def counted(q, v, S, N):
        temperatures.append(np.column_stack([q, v, S, N]))
        return d_S(q, v, S, N)

    # The builder's sources and ports hold the same mechanical Lagrangian.
    object.__setattr__(mech, "d_S", counted)
    inv = monitor_invariants(problem.L, C, traj, thermo_system=sys0)
    K = traj.n_steps
    assert rows == []
    assert [len(states) for states in temperatures] == [K + 1, K]
    assert len(np.unique(np.vstack(temperatures), axis=0)) == 2 * K + 1
    assert bits(inv.kinematic_residual) == bits(kin)
    assert bits(inv.energy_balance_residual) == bits(ebr)
    assert bits([inv.power_mechanical, inv.power_heating, inv.power_matter]) == bits(
        [P_W, P_H, P_M]
    )
    assert bits(inv.entropy_production) == bits(prod)


def test_state_from_arrays_copies():
    sys0 = small_open_system()
    s0 = initial_pontryagin_state(sys0, 0.0, small_initial())
    x, v = s0.x.copy(), s0.v.copy()
    ts = state_from_arrays(sys0, x, v)
    lay = sys0.layout
    assert not np.shares_memory(ts.q, x) and not np.shares_memory(ts.v_q, v)
    assert ts.q.flags.writeable and ts.v_q.flags.writeable
    assert [type(getattr(ts, f)) for f in ("S", "N", "Gamma", "W", "Sigma")] == [float] * 5
    want = ThermoState(
        q=x[lay.q].copy(), v_q=v[lay.q].copy(), S=x[lay.S], N=x[lay.N],
        Gamma=x[lay.Gamma], W=x[lay.W], Sigma=x[lay.Sigma],
    )
    # Lists and (1, n) arrays are coerced as before.
    again = state_from_arrays(sys0, x.tolist(), v[None, :])
    assert again.q.tobytes() == want.q.tobytes() and again.v_q.tobytes() == want.v_q.tobytes()
    x += 1.0
    v += 1.0
    for f in ("q", "v_q", "S", "N", "Gamma", "W", "Sigma"):
        assert np.asarray(getattr(ts, f)).tobytes() == np.asarray(getattr(want, f)).tobytes()


def test_shared_point_is_never_stale():
    # L.d_x, L.d_v and the row share the point at (t, x, v); an array
    # mutated in place is a new point for all of them.
    sys0 = small_open_system()
    L, C = build_extended_lagrangian(sys0), build_constraints(sys0)
    s0 = initial_pontryagin_state(sys0, 0.0, small_initial())
    x, v = s0.x.copy(), s0.v.copy()
    lay = sys0.layout

    def fresh():
        F, G = build_extended_lagrangian(sys0), build_constraints(sys0)
        xc, vc = x.copy(), v.copy()
        return [F.d_x(0.5, xc, vc), F.d_v(0.5, xc, vc), G.A(0.5, xc, vc), G.B(0.5, xc, vc)]

    def shared():
        return [L.d_x(0.5, x, v), L.d_v(0.5, x, v), C.A(0.5, x, v), C.B(0.5, x, v)]

    assert bits(shared()) == bits(fresh())
    x[lay.S] += 0.1  # moves T
    assert bits(shared()) == bits(fresh())
    v[lay.q] += 0.3  # moves the friction force
    assert bits(shared()) == bits(fresh())


def test_temperature_reads_a_point_only_under_its_own_mechanics():
    sys0 = small_open_system()
    hot = ideal_gas_fixture(T0=2.0)
    s0 = initial_pontryagin_state(sys0, 0.0, small_initial())
    ts = state_from_arrays(sys0, s0.x, s0.v)  # carries sys0's temperature
    plain = dataclasses.replace(ts)  # built through __init__: no temperature
    assert plain._T is None
    assert temperature(sys0, ts) == temperature(sys0, plain)
    assert temperature(hot, ts) == temperature(hot, plain) == 2.0 * temperature(sys0, plain)


# -- one model evaluation per point ----------------------------------------


def ref_port_sums(sys, t, ts):
    # The separate port loop that fed reduced_rhs and power_flows before the
    # model was evaluated once per point; kept as the bitwise reference.
    J = JS_a = P_M = 0.0
    for port in sys.ports:
        j = float(port.J(t, ts))
        js = float(port.J_S(t, ts))
        J += j
        JS_a += js
        P_M += j * float(port.mu(t, ts)) + js * float(port.T_port(t, ts))
    JS_b = P_H = 0.0
    for src in sys.sources:
        js = float(src.J_S(t, ts))
        JS_b += js
        P_H += js * float(src.T_source(t, ts))
    return J, JS_a, JS_b, P_M, P_H


def ref_entropy_production(sys, t, ts):
    T = temperature(sys, ts)
    mu = chemical_potential(sys, ts)
    fric = -float(thermo_module._force(sys.friction, t, ts) @ ts.v_q) / T
    mixing = 0.0
    for port in sys.ports:
        mixing += (
            float(port.J(t, ts)) * (float(port.mu(t, ts)) - mu)
            + float(port.J_S(t, ts)) * (float(port.T_port(t, ts)) - T)
        ) / T
    heating = 0.0
    for src in sys.sources:
        heating += float(src.J_S(t, ts)) * (float(src.T_source(t, ts)) - T) / T
    return [fric + mixing + heating, fric, mixing, heating]


def ref_power_flows(sys, t, ts):
    _, _, _, P_M, P_H = ref_port_sums(sys, t, ts)
    return [float(thermo_module._force(sys.f_ext, t, ts) @ ts.v_q), P_H, P_M]


def ref_reduced_rhs(sys, t, ts):
    mech = sys.mech
    T = temperature(sys, ts)
    mu = chemical_potential(sys, ts)
    J, JS_a, JS_b, P_M, P_H = ref_port_sums(sys, t, ts)
    total = ref_entropy_production(sys, t, ts)[0]
    Sdot = total + JS_a + JS_b
    q, vq, S, N = ts.q, ts.v_q, ts.S, ts.N
    rhs = (
        np.asarray(mech.d_q(q, vq, S, N), dtype=float).reshape(sys.n_q)
        + thermo_module._force(sys.friction, t, ts)
        + thermo_module._force(sys.f_ext, t, ts)
    )
    M = np.asarray(mech.d_vv(q, vq, S, N), dtype=float).reshape(sys.n_q, sys.n_q)
    vqdot = np.linalg.solve(M, rhs)
    return [vq, vqdot, Sdot, J, T, mu, total, JS_a + JS_b, J, -(P_M + P_H)]


def bits(values):
    # Bytes of every number, so that 0.0 and -0.0 differ too.
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def builtin_systems():
    from diracsim import cli

    problems = [cli.build_problem(cli.load_config(n)) for n in THERMO_BUILTINS]
    return [(p.system, p.ts0) for p in problems]


BUILTIN_SYSTEMS = builtin_systems()


@settings(max_examples=40, deadline=None)
@given(which=st.integers(0, len(BUILTIN_SYSTEMS) - 1), seed=st.integers(0, 2**32 - 1))
def test_model_readers_equal_the_separate_formulas_bitwise(which, seed):
    sys0, ts0 = BUILTIN_SYSTEMS[which]
    pt_ = random_physical_point(sys0, np.random.default_rng(seed), ts0)
    ts = state_from_arrays(sys0, pt_.x, pt_.v)
    r = reduced_rhs(sys0, pt_.t, ts)
    n_q = sys0.n_q
    assert r.dtype == np.float64 and r.shape == (2 * n_q + 5,)
    # The momentum rates of p_Gamma, p_W and pt are the balance's.
    b = thermo_module._balance(sys0, pt_.t, ts)
    got = [
        r[:n_q], r[n_q : 2 * n_q], *r[2 * n_q :],
        b.J_S_ports + b.J_S_sources, b.J, -(b.P_M + b.P_H),
    ]
    assert bits(got) == bits(ref_reduced_rhs(sys0, pt_.t, ts))
    br = entropy_production(sys0, pt_.t, ts)
    got = [br.total, br.friction, br.mixing, br.heating]
    assert bits(got) == bits(ref_entropy_production(sys0, pt_.t, ts))
    flows = power_flows(sys0, pt_.t, ts)
    got = [flows.mechanical, flows.heating, flows.matter]
    assert bits(got) == bits(ref_power_flows(sys0, pt_.t, ts))


def test_builtin_systems_cover_every_model_part():
    # The property above must reach a matched port, a conduction source and
    # an external force.
    assert any(s.f_ext is not None for s, _ in BUILTIN_SYSTEMS)
    assert any(s.sources for s, _ in BUILTIN_SYSTEMS)
    assert sum(len(s.ports) for s, _ in BUILTIN_SYSTEMS) >= 3


def count_field_evaluations(monkeypatch):
    calls = []
    original = thermo_module.reduced_rhs

    def counting(sys, t, ts):
        calls.append(t)
        return original(sys, t, ts)

    monkeypatch.setattr(thermo_module, "reduced_rhs", counting)
    return calls


def test_reduced_run_evaluates_the_field_once_per_node_and_residual(monkeypatch):
    # The start is built before the counter, which sees only the run.
    sys0 = small_open_system()
    start = dataclasses.replace(initial_pontryagin_state(sys0, 0.0, small_initial()), pt=0.0)
    calls = count_field_evaluations(monkeypatch)
    traj = run_reduced(sys0, start, 1e-3, 100)
    # Step 0's Euler guess, then 214 Newton residuals: one at each step's
    # guess (100), one per Newton update (100), and the 7 columns of each of
    # the run's 2 Jacobians. Newton stops at convergence: a polish trial
    # after it, rejected on nearly every step, would add about 100. The lift
    # evaluates no field; a field evaluation at each node, as the Euler guess
    # of every step once took, would add 100.
    assert traj.newton_iters.sum() == 100
    assert len(calls) == 1 + 100 + 100 + 2 * 7


@pytest.mark.parametrize("name", THERMO_BUILTINS)
def test_lifted_node_velocities_are_the_field_at_each_node_bitwise(name):
    # The lift reads the bookkeeping velocities from one balance over all
    # nodes; each equals the field's rates at that node alone.
    problem = cli_problem(name)
    sys0, n_q = problem.system, problem.system.n_q
    traj = run_reduced(sys0, problem.initial, problem.h, 20)
    for k in range(traj.n_steps + 1):
        ts = state_from_arrays(sys0, traj.x[k], traj.v[k])
        want = reduced_rhs(sys0, traj.t[k], ts)[2 * n_q :]
        assert traj.v[k, n_q:].tobytes() == want.tobytes(), k


def test_extrapolated_guess_crosses_a_schedule_kink(monkeypatch):
    # Port 1's inflow holds at -0.006 until t = 0.05, then falls with slope
    # -100 to -5.006 at t = 0.1. The quadratic through the last nodes
    # extrapolates across both kinks, and Newton must still converge without
    # a stall restart.
    from diracsim import cli

    cfg = cli.BUILTINS["two_port_piston"]()
    cfg["system"]["ports"][1]["J"] = [[0.0, -0.006], [0.05, -0.006], [0.1, -5.006]]
    cfg["integrator"].update(h=1e-3, horizon=0.2)
    pontryagin = cli.run_formulation(cli.build_problem(cfg, "pontryagin"), "pontryagin")
    problem = cli.build_problem(cfg, "reduced")
    factors, calls = count_factorizations(monkeypatch), count_field_evaluations(monkeypatch)
    traj = cli.run_formulation(problem, "reduced")
    assert traj.n_steps == 200
    # Steps 0, 50, 100 and 150; a stalled step would add one.
    assert len(factors) == 4
    # An Euler guess at every step took 5.96 field evaluations per step here
    # (1191 in all); the extrapolated guess takes about 4.45.
    assert len(calls) < 5.0 * traj.n_steps
    worst = max(
        np.max(np.abs(traj.x - pontryagin.x)),
        np.max(np.abs(traj.p - pontryagin.p)),
        np.max(np.abs(traj.pt - pontryagin.pt)),
    )
    assert worst <= 1e-6  # diracsim compare's default tolerance


def test_reduced_pt_uses_the_accepted_iterate_midpoint_rate():
    sys0 = small_open_system()
    start = dataclasses.replace(initial_pontryagin_state(sys0, 0.0, small_initial()), pt=0.0)
    traj = run_reduced(sys0, start, 1e-3, 30)
    lay = sys0.layout
    y = np.concatenate([traj.x[:, lay.q], traj.v[:, lay.q], traj.x[:, lay.S :]], axis=1)
    for k in range(traj.n_steps):
        ym = thermo_module._reduced_state_from_vector(sys0, 0.5 * (y[k] + y[k + 1]))
        b = thermo_module._balance(sys0, traj.t[k] + 0.5 * 1e-3, ym)
        ptdot = -(b.P_M + b.P_H)
        assert traj.pt[k + 1] == traj.pt[k] + 1e-3 * ptdot


def count_mass_factorizations(monkeypatch):
    calls = []
    original = lagrangian_module.dgetrf

    def counting(M):
        calls.append(M.copy())
        return original(M)

    lagrangian_module._mass_lu.cache_clear()
    monkeypatch.setattr(lagrangian_module, "dgetrf", counting)
    return calls


def test_constant_mass_matrix_is_factored_once_per_run(monkeypatch):
    calls = count_mass_factorizations(monkeypatch)
    sys0 = small_open_system()
    run_reduced(sys0, initial_pontryagin_state(sys0, 0.0, small_initial()), 1e-3, 100)
    L = build_extended_lagrangian(sys0)
    C = build_momentum_constraints(sys0)
    s0 = initial_pontryagin_state(sys0, 0.0, small_initial())
    ImplicitMidpointStepper("lagrange-dirac", lagrangian=L, constraints=C).run(s0, 1e-3, 20)
    assert len(calls) == 1
    lagrangian_module._mass_lu.cache_clear()


def test_point_dependent_mass_matrix_is_factored_at_each_new_value(monkeypatch):
    sys0 = make_varying_mass_system()
    calls = count_mass_factorizations(monkeypatch)
    rng = np.random.default_rng(3)
    for _ in range(20):
        ts = dataclasses.replace(small_initial(), q=rng.uniform(-1, 1, 1))
        for _ in range(2):  # the same point twice: factored once
            reduced_rhs(sys0, 0.0, ts)
        npt.assert_array_equal(calls[-1], sys0.mech.d_vv(ts.q, ts.v_q, ts.S, ts.N))
    assert len(calls) == 20
    lagrangian_module._mass_lu.cache_clear()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3), mass=st.floats(1e-6, 1e6), seed=st.integers(0, 2**32 - 1))
def test_cached_mass_solve_equals_numpy_solve_bitwise(n, mass, seed):
    M = mass * np.eye(n)
    r = np.random.default_rng(seed).normal(size=n)
    expect = np.linalg.solve(M, r).tobytes()
    assert lagrangian_module._mass_solve(M, r).tobytes() == expect
    assert lagrangian_module._mass_solve(M, r).tobytes() == expect  # from the cache


def test_random_physical_point_halves_offsets_that_overflow_T():
    # At c = 1e-6 an offset of 0.2 in S, or of 20% in N, makes
    # T = T0 exp((S - N s0) / (c N)) overflow. The offsets are halved toward
    # the reference state instead, with the same draws from the generator.
    tiny, stock = ideal_gas_fixture(c=1e-6), ideal_gas_fixture()
    around = small_initial()
    rng, same = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(50):
        pt_ = random_physical_point(tiny, rng, around)
        ref = random_physical_point(stock, same, around)
        assert np.isfinite(temperature(tiny, state_from_arrays(tiny, pt_.x, pt_.v)))
        lay = tiny.layout
        keep = np.ones(lay.n, dtype=bool)
        keep[[lay.S, lay.N]] = False
        assert pt_.x[keep].tobytes() == ref.x[keep].tobytes()
    assert rng.uniform() == same.uniform()


# -- the array pass ---------------------------------------------------------


def array_pass_system(n_q):
    """An open system on n_q coordinates, built by the CLI, with every model
    part the array pass broadcasts: table and constant schedules, a matched
    port, a conduction source, friction and an external force."""

    from diracsim import cli

    force = [[[0.0, 0.0], [0.5, 0.1], [1.0, -0.05]]]
    force += [[[0.0, 0.02 * (i + 1)]] for i in range(n_q - 1)]  # constant components
    cfg = {
        "system": {
            "kind": "ideal_gas", "n_q": n_q, "c": 1.3, "T0": 1.1, "s0": 0.9,
            "mass": 1.7, "stiffness": 0.8, "friction_gamma": 0.05,
            "ports": [
                {
                    "J": [[0.0, 0.01], [0.5, -0.02], [1.0, 0.03]],
                    "molar_entropy": [[0.0, 1.0], [1.0, 1.2]],
                    "mu": [[0.0, 0.02], [1.0, -0.01]],
                    "T": 1.05,
                },
                {"J": 0.02, "molar_entropy": 1.0, "matched": True},
                {"J": -0.01, "J_S": [[0.0, -0.01], [1.0, 0.0]], "mu": 0.1, "T": [[0.0, 1.0], [1.0, 1.1]]},
            ],
            "sources": [
                {"kappa": 0.05, "T": [[0.0, 1.2], [1.0, 1.0]]},
                {"J_S": [[0.0, 0.01], [1.0, -0.01]], "T": 1.3},
            ],
            "external_force": force if n_q > 1 else force[0],
        },
    }
    return cli._build_thermo_system(cfg)[0]


ARRAY_PASS_SYSTEMS = {n_q: array_pass_system(n_q) for n_q in (1, 2, 3)}


@settings(max_examples=40, deadline=None)
@given(n_q=st.sampled_from([1, 2, 3]), K=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_array_pass_equals_the_per_node_formula_bitwise(n_q, K, seed):
    # The balance, the row's sums, the row, the momenta, L, its partials,
    # the external force and <p, v> over K nodes at once are, node by node,
    # the bits of the same formulas at that node alone.
    sys0 = ARRAY_PASS_SYSTEMS[n_q]
    lay = sys0.layout
    rng = np.random.default_rng(seed)
    # Times between and on the schedule knots, and beyond both ends.
    t = np.where(rng.uniform(size=K) < 0.3, rng.choice([0.0, 0.5, 1.0], K), rng.uniform(-0.2, 1.2, K))
    x, v, p = (rng.uniform(-1.0, 1.0, (K, lay.n)) for _ in range(3))
    x[:, lay.S] = rng.uniform(0.7, 1.3, K)
    x[:, lay.N] = rng.uniform(0.5, 1.5, K)
    ts = state_from_arrays(sys0, x, v)
    full = thermo_module._balance(sys0, t, ts)
    flows = thermo_module._flows(sys0, t, ts, full.T)
    A, B = thermo_module._balance_row(
        sys0, full.F_fr, full.J_S_ports + full.J_S_sources, full.J, full.T, full.P_M + full.P_H
    )
    L = build_extended_lagrangian(sys0)
    momenta, energies = momenta_from_state(sys0, ts), L.value(t, x, v)
    pv, P_W = thermo_module._dot(p, v), thermo_module._dot(full.F_ext, ts.v_q)
    force = build_external_force(sys0)
    partials = [L.d_x(t, x, v), L.d_v(t, x, v), L.d_vv(t, x, v), force.value(t, x, v)]
    for k, tk in enumerate(t.tolist()):
        one = state_from_arrays(sys0, x[k], v[k])
        at_k = thermo_module._balance(sys0, tk, one)
        for got, want in zip(full, at_k):
            assert bits([np.broadcast_to(got, (K,) + np.shape(want))[k]]) == bits([want])
        flows_k = thermo_module._flows(sys0, tk, one, at_k.T)
        # A sum of constant schedules stays one float over all nodes.
        assert bits([np.broadcast_to(got, (K,))[k] for got in flows]) == bits(flows_k)
        assert bits([A[k], B[k]]) == bits(thermo_module._constraint_row(sys0, tk, one))
        assert bits([momenta[k]]) == bits([momenta_from_state(sys0, one)])
        assert bits([energies[k]]) == bits([L.value(tk, x[k], v[k])])
        assert bits([pv[k], P_W[k]]) == bits([p[k] @ v[k], power_flows(sys0, tk, one).mechanical])
        at_point = [f(tk, x[k], v[k]) for f in (L.d_x, L.d_v, L.d_vv, force.value)]
        assert bits([got[k] for got in partials]) == bits(at_point)


def test_nonpositive_temperature_at_one_node_names_that_node():
    # T = S - 1 is not positive at nodes 2 and 3; the error names node 2.
    base = ideal_gas_fixture()
    sys0 = dataclasses.replace(
        base, mech=dataclasses.replace(base.mech, d_S=lambda q, v, S, N: 1.0 - S)
    )
    lay = sys0.layout
    x, v = np.zeros((4, lay.n)), np.zeros((4, lay.n))
    x[:, lay.S] = [1.5, 2.0, 0.75, 0.5]
    x[:, lay.N] = [1.0, 1.1, 1.2, 1.3]
    ts = state_from_arrays(sys0, x, v)
    with pytest.raises(NonpositiveTemperatureError) as info:
        temperature(sys0, ts)
    assert str(info.value).startswith("temperature -dL/dS = -0.25 at S = 0.75, N = 1.2 (node 2);")
    with pytest.raises(NonpositiveTemperatureError) as info:
        temperature(sys0, state_from_arrays(sys0, x[2], v[2]))
    assert str(info.value).startswith("temperature -dL/dS = -0.25 at S = 0.75, N = 1.2;")


def count_exp(monkeypatch):
    calls = []
    exp = np.exp

    def counting(z):
        calls.append(np.shape(z))
        return exp(z)

    monkeypatch.setattr(np, "exp", counting)
    return calls


@pytest.mark.parametrize("name", ["matched_port_piston", "conduction_piston"])
def test_ideal_gas_evaluates_exp_once_per_state(monkeypatch, name):
    # At one state, the temperature, the chemical potential, the matched
    # port's or the conduction source's reading of them and the energy share
    # one exp.
    problem = cli_problem(name)
    sys0, L = problem.system, problem.L
    stepper = ImplicitMidpointStepper(
        "pontryagin", lagrangian=L, constraints=problem.vel_constraints
    )
    traj = stepper.run(problem.initial, problem.h, 5)
    x, v = traj.x[3], traj.v[3]
    calls = count_exp(monkeypatch)
    reduced_rhs(sys0, 0.1, state_from_arrays(sys0, x, v))
    energy = L.value(0.1, x, v)
    assert calls == [()]
    # The energy keeps its product order c N T0 exp(z).
    lay, S, N = sys0.layout, x[sys0.layout.S], x[sys0.layout.N]
    z = (S - N * 1.0) / (1.0 * N)
    U = 1.0 * N * 1.0 * np.exp(z)
    want = 0.5 * float(v[lay.q] @ v[lay.q]) - 0.5 * float(x[lay.q] @ x[lay.q]) - U
    assert bits([energy]) == bits([want + v[lay.W] * N + v[lay.Gamma] * (S - x[lay.Sigma])])


@pytest.mark.parametrize("name", ["matched_port_piston", "conduction_piston"])
def test_reduced_states_carry_their_temperature(monkeypatch, name):
    # A reduced-path state carries -dL/dS, which the balance, the matched
    # port and the conduction source read: one evaluation per field
    # evaluation, one over all nodes for the final lift, and one over the
    # step midpoints for pt.
    problem = cli_problem(name)
    mech = problem.system.mech
    fields, temperatures = count_field_evaluations(monkeypatch), []
    d_S = mech.d_S

    def counted(q, v, S, N):
        temperatures.append(np.shape(S))
        return d_S(q, v, S, N)

    # The builder's sources and ports hold the same mechanical Lagrangian.
    object.__setattr__(mech, "d_S", counted)
    run_reduced(problem.system, problem.initial, 1e-3, 20)
    assert len(fields) > 20
    assert temperatures == [()] * len(fields) + [(21,), (20,)]


def test_step_whose_trial_iterates_leave_the_domain_fails_in_one_line(capsys):
    # An outflow J = -0.3 / N drains the gas. Near N = 0 the chord iterates
    # overshoot to N < 0, where the ideal gas raises. Such an iterate stalls
    # its attempt instead of ending the run; when the retry with a fresh
    # Jacobian leaves the domain too, the step fails, and the CLI's mapping
    # ends in exit 3 with one line that names the domain error.
    from diracsim import cli

    port = PortModel(
        J=lambda t, ts: -0.3 / ts.N,
        J_S=lambda t, ts: 0.0,
        mu=lambda t, ts: 0.0,
        T_port=lambda t, ts: 1.0,
    )
    sys0 = ideal_gas_fixture(ports=(port,))
    start = dataclasses.replace(initial_pontryagin_state(sys0, 0.0, small_initial()), pt=0.0)
    with pytest.raises(SystemExit) as info, cli._exit_codes():
        run_reduced(sys0, start, 0.05, 40)
    assert info.value.code == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("reduced step 33 (t = 1.6500000000000001) failed: Newton did not")
    assert "; a trial iterate was outside the domain: mole number N = -" in lines[0]
