"""Simple open thermodynamic systems with matter ports and heat sources.

A system couples a mechanical part (configuration q with Lagrangian
L_mech(q, v_q, S, N)) to a single-entropy thermodynamic part with entropy S,
mole number N, and three accounting coordinates: a thermal displacement Gamma
(whose rate is the temperature), a chemical displacement W (whose rate is the
chemical potential), and an internal entropy accumulator Sigma. The full
state vector is x = (q, S, N, Gamma, W, Sigma) of dimension n_q + 5.

The evolution is encoded as a single nonlinear velocity constraint (the
entropy production balance) plus the variational equations of an extended
Lagrangian on the time-extended bundle. The module assembles both, exposes
the index-reduced closed-form rates ("reduced path"), the entropy production
breakdown, the power flows of the first law, and an ideal gas fixture.

Temperature is defined as -dL_mech/dS and must stay positive; a sign flip is
treated as a modeling error and raises.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import (
    ChordNewton,
    OutsideDomainError,
    Trajectory,
    _extrapolated,
    _march,
    _MixedPoints,
    monitor_invariants,
)
from .geometry import ConstraintSet, PontryaginState, TangentP, _conform, _dot
from .lagrangian import (
    ExternalForce,
    TimeLagrangian,
    _invert_fiber,
    _mass_solve,
    _read_only,
    covariant_legendre,
)

__all__ = [
    "NonpositiveTemperatureError",
    "ThermoLayout",
    "ThermoState",
    "MechanicalLagrangian",
    "PortModel",
    "HeatSourceModel",
    "SimpleOpenSystem",
    "state_from_arrays",
    "temperature",
    "chemical_potential",
    "build_extended_lagrangian",
    "build_constraints",
    "build_momentum_constraints",
    "build_external_force",
    "reduced_rhs",
    "EntropyBreakdown",
    "entropy_production",
    "PowerFlows",
    "power_flows",
    "momenta_from_state",
    "initial_pontryagin_state",
    "run_reduced",
    "lifted_midpoint_samples",
    "first_law_residual",
    "random_physical_point",
    "linear_friction",
    "ideal_gas_fixture",
]


class NonpositiveTemperatureError(OutsideDomainError):
    """Raised when -dL_mech/dS is not positive at an evaluation point."""


@dataclass(frozen=True)
class ThermoLayout:
    """Index layout of the extended state x = (q, S, N, Gamma, W, Sigma).

    The slice q, the indices S, N, Gamma, W, Sigma and the dimension n are
    computed once per layout; the hot path reads them on every constraint
    row.
    """

    n_q: int

    def __post_init__(self):
        n_q = self.n_q
        self.__dict__.update(
            q=slice(0, n_q), S=n_q, N=n_q + 1, Gamma=n_q + 2, W=n_q + 3, Sigma=n_q + 4, n=n_q + 5
        )


@dataclass(frozen=True)
class ThermoState:
    """Core open-system state (q, v_q, S, N, Gamma, W, Sigma).

    Built through __init__ it is one point: q and v_q of shape (n_q,), the
    rest floats. The passes over a whole trajectory build states whose q and
    v_q have shape (K, n_q) and whose other fields are arrays of shape (K,),
    one entry per node.
    """

    q: np.ndarray
    v_q: np.ndarray
    S: float
    N: float
    Gamma: float
    W: float
    Sigma: float

    # (mech, -dL_mech/dS) on a state built by _with_temperature; None on
    # any other state.
    _T = None

    def __post_init__(self):
        # Coerce to 1-d float64 arrays and Python floats, touching only what
        # is not one already (the hot paths build states with _new_state).
        for name in ("q", "v_q"):
            a = getattr(self, name)
            if not (type(a) is np.ndarray and a.dtype == np.float64 and a.ndim == 1):
                object.__setattr__(self, name, np.atleast_1d(np.asarray(a, dtype=float)))
        for name in ("S", "N", "Gamma", "W", "Sigma"):
            if type(getattr(self, name)) is not float:
                object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class MechanicalLagrangian:
    """Mechanical Lagrangian L_mech(q, v, S, N) with analytic partials.

    d_vv is the velocity Hessian (the mass matrix). The optional cross second
    derivatives d_vq (shape (n_q, n_q), entry [i, j] = d2L/dv_i dq_j), d_vS
    and d_vN (shape (n_q,)) are needed by the reduced path only when the mass
    matrix depends on q, S or N; None means identically zero, exact for
    constant mass matrices.

    value, d_q, d_v, d_S and d_N broadcast over a leading node axis: given q
    and v of shape (K, n_q) and S, N of shape (K,), they return shape (K,)
    or (K, n_q), each entry bitwise equal to the call at that node alone (a
    dot product over q uses _dot). d_vv and the cross derivatives are only
    evaluated at single points.
    """

    n_q: int
    value: Callable[[np.ndarray, np.ndarray, float, float], float]
    d_q: Callable[[np.ndarray, np.ndarray, float, float], np.ndarray]
    d_v: Callable[[np.ndarray, np.ndarray, float, float], np.ndarray]
    d_S: Callable[[np.ndarray, np.ndarray, float, float], float]
    d_N: Callable[[np.ndarray, np.ndarray, float, float], float]
    d_vv: Callable[[np.ndarray, np.ndarray, float, float], np.ndarray]
    d_vq: Callable[[np.ndarray, np.ndarray, float, float], np.ndarray] | None = None
    d_vS: Callable[[np.ndarray, np.ndarray, float, float], np.ndarray] | None = None
    d_vN: Callable[[np.ndarray, np.ndarray, float, float], np.ndarray] | None = None


@dataclass(frozen=True)
class PortModel:
    """Matter exchange port with an external reservoir.

    J is the molar flow into the system and J_S the entropy flow carried with
    it, both (t, state) -> float. mu and T_port give the reservoir chemical
    potential and temperature as (t, state) -> float; reservoirs defined by
    pure schedules simply ignore the state argument, while matched ports may
    track the system's own intensive variables. Every callable broadcasts:
    given a state over K nodes and their times t, of shape (K,) or one
    float for all of them (the stacked iterates of a step Jacobian), it
    returns a float or an array of shape (K,), entry by entry the value at
    that node.
    """

    J: Callable[[float, ThermoState], float]
    J_S: Callable[[float, ThermoState], float]
    mu: Callable[[float, ThermoState], float]
    T_port: Callable[[float, ThermoState], float]

    @staticmethod
    def from_molar_entropy(
        J: Callable[[float, ThermoState], float],
        molar_entropy: Callable[[float, ThermoState], float],
        mu: Callable[[float, ThermoState], float],
        T_port: Callable[[float, ThermoState], float],
    ) -> "PortModel":
        """Port whose entropy flow is molar_entropy times the molar flow.

        The transported enthalpy is then mu + T_port * molar_entropy by
        construction.
        """

        return PortModel(
            J=J,
            J_S=lambda t, ts: molar_entropy(t, ts) * J(t, ts),
            mu=mu,
            T_port=T_port,
        )


@dataclass(frozen=True)
class HeatSourceModel:
    """Pure heating port: entropy flow J_S at source temperature T_source.

    Both callables broadcast over node arrays as PortModel's do.
    """

    J_S: Callable[[float, ThermoState], float]
    T_source: Callable[[float, ThermoState], float]


@dataclass(frozen=True)
class SimpleOpenSystem:
    """Open system: mechanics plus entropy/matter bookkeeping and its ports.

    friction gives the friction force covector (t, state) -> (n_q,) acting on
    q (None means zero), f_ext an external force of the same signature; over
    K nodes (t as PortModel's) both return shape (K, n_q), or a shape that
    broadcasts to it.
    ports and sources are the matter and heating connections.
    """

    mech: MechanicalLagrangian
    friction: Callable[[float, ThermoState], np.ndarray] | None = None
    ports: tuple[PortModel, ...] = ()
    sources: tuple[HeatSourceModel, ...] = ()
    f_ext: Callable[[float, ThermoState], np.ndarray] | None = None

    @property
    def n_q(self) -> int:
        return self.mech.n_q

    @property
    def n(self) -> int:
        return self.mech.n_q + 5

    @cached_property
    def layout(self) -> ThermoLayout:
        return ThermoLayout(self.mech.n_q)


def _new_state(q: np.ndarray, v_q: np.ndarray, scalars: np.ndarray) -> ThermoState:
    # A ThermoState holding the float64 arrays q and v_q as given and the
    # slots (S, N, Gamma, W, Sigma) of `scalars`, without __init__'s
    # coercion: floats from one row, or node columns from a (K, 5) array.
    ts = object.__new__(ThermoState)
    S, N, Gamma, W, Sigma = scalars.tolist() if scalars.ndim == 1 else scalars.T
    ts.__dict__.update(q=q, v_q=v_q, S=S, N=N, Gamma=Gamma, W=W, Sigma=Sigma)
    return ts


def _with_temperature(sys: SimpleOpenSystem, ts: ThermoState) -> ThermoState:
    # ts given (mech, -dL_mech/dS), which temperature(), d_x, matched ports
    # and conduction sources read instead of evaluating it again.
    T = -sys.mech.d_S(ts.q, ts.v_q, ts.S, ts.N)
    ts.__dict__["_T"] = (sys.mech, T if isinstance(ts.S, np.ndarray) else float(T))
    return ts


def state_from_arrays(
    sys: SimpleOpenSystem, x: np.ndarray, v: np.ndarray
) -> ThermoState:
    """The state of full state and velocity arrays, carrying its temperature.

    x of shape (n,) gives one point (v is reshaped to it); x and v of shape
    (K, n) give the state over their rows. The state's arrays are copies.
    """

    lay = sys.layout
    x = np.array(x, dtype=float)
    v = np.array(v, dtype=float).reshape(x.shape)
    return _with_temperature(sys, _new_state(x[..., lay.q], v[..., lay.q], x[..., lay.S :]))


def temperature(sys: SimpleOpenSystem, ts: ThermoState):
    """Temperature -dL_mech/dS; raises when it is not positive.

    A float at one point; over K nodes an array, and the error names the
    first node where it is not positive.
    """

    known = ts._T
    if known is not None and known[0] is sys.mech:
        T = known[1]
    elif isinstance(ts.S, np.ndarray):
        T = -sys.mech.d_S(ts.q, ts.v_q, ts.S, ts.N)
    else:
        T = -float(sys.mech.d_S(ts.q, ts.v_q, ts.S, ts.N))
    if isinstance(T, np.ndarray):
        bad = ~(T > 0.0)
        if bad.any():
            k = int(bad.argmax())
            _nonpositive(float(T[k]), float(ts.S[k]), float(ts.N[k]), f" (node {k})")
    elif not T > 0.0:
        _nonpositive(T, ts.S, ts.N, "")
    return T


def _nonpositive(T: float, S: float, N: float, where: str):
    raise NonpositiveTemperatureError(
        f"temperature -dL/dS = {T!r} at S = {S!r}, N = {N!r}{where}; "
        "the thermodynamic part is outside its physical domain"
    )


def chemical_potential(sys: SimpleOpenSystem, ts: ThermoState):
    """Chemical potential -dL_mech/dN (a float, or one entry per node)."""

    mu = -sys.mech.d_N(ts.q, ts.v_q, ts.S, ts.N)
    return mu if isinstance(ts.S, np.ndarray) else float(mu)


def _force(f, t, ts: ThermoState) -> np.ndarray:
    # The covector f(t, ts) on q, shape (n_q,) or (K, n_q); None is zero.
    shape = ts.q.shape
    if f is None:
        return np.zeros(shape)
    if len(shape) == 1:
        return _conform(f(t, ts), shape)
    F = np.asarray(f(t, ts), dtype=float)
    return F if F.shape == shape else np.broadcast_to(F, shape)


class _Balance(NamedTuple):
    # The entropy production balance at (t, state): floats at one point,
    # arrays of one entry per node over K nodes.
    T: float
    mu: float
    F_fr: np.ndarray    # friction force
    F_ext: np.ndarray   # external force
    J: float            # total molar inflow
    J_S_ports: float    # entropy inflow through matter ports
    J_S_sources: float  # entropy inflow through heating ports
    P_M: float          # sum J^a mu^a + J_S^a T^a over matter ports
    P_H: float          # sum J_S^b T^b over heating ports
    friction: float     # the production terms of entropy_production
    mixing: float
    heating: float
    total: float


def _flows(sys: SimpleOpenSystem, t, ts: ThermoState, T, mu=None) -> tuple:
    # J, J_S of the ports, J_S of the sources, P_M and P_H at (t, ts), and,
    # given mu, the mixing and heating production terms: one call of each
    # port and source callable, summed left to right in each formula's
    # operation order, at one point or over all nodes at once. Over nodes a
    # sum of constant schedules stays a float.
    J = JS_a = P_M = mixing = 0.0
    for port in sys.ports:
        j, js = port.J(t, ts), port.J_S(t, ts)
        mu_a, T_a = port.mu(t, ts), port.T_port(t, ts)
        J += j
        JS_a += js
        P_M += j * mu_a + js * T_a
        if mu is not None:
            mixing += (j * (mu_a - mu) + js * (T_a - T)) / T
    JS_b = P_H = heating = 0.0
    for src in sys.sources:
        js, T_b = src.J_S(t, ts), src.T_source(t, ts)
        JS_b += js
        P_H += js * T_b
        if mu is not None:
            heating += js * (T_b - T) / T
    return J, JS_a, JS_b, P_M, P_H, mixing, heating


def _balance(sys: SimpleOpenSystem, t, ts: ThermoState) -> _Balance:
    # The whole balance, for reduced_rhs, entropy_production, power_flows
    # and the diagnostics.
    T = temperature(sys, ts)
    mu = chemical_potential(sys, ts)
    F_fr = _force(sys.friction, t, ts)
    flows = _flows(sys, t, ts, T, mu)
    if isinstance(T, np.ndarray):
        # Every column of the balance has one entry per node.
        flows = np.broadcast_arrays(*flows, T)[:-1]
    J, JS_a, JS_b, P_M, P_H, mixing, heating = flows
    fric = -_dot(F_fr, ts.v_q) / T
    return _Balance(
        T, mu, F_fr, _force(sys.f_ext, t, ts), J, JS_a, JS_b, P_M, P_H,
        fric, mixing, heating, fric + mixing + heating,
    )


def _balance_row(sys: SimpleOpenSystem, F_fr, J_S, J, T, P) -> tuple[np.ndarray, np.ndarray]:
    # Entropy production balance as one affine velocity constraint A v + B = 0:
    #   <F_fr, v_q> + (sum J_S) v_Gamma + (sum J) v_W + T v_Sigma
    #     - sum_a (J mu^a + J_S T^a) - sum_b (J_S T^b) = 0
    # with T = -dL_mech/dS so the Sigma coefficient equals -dL_mech/dS, and
    # P = P_M + P_H. A is (1, n) and B (1,) at a point; over K nodes,
    # (K, 1, n) and (K, 1), where J_S, J and P may be floats.
    lay = sys.layout
    point = F_fr.ndim == 1
    A = np.zeros((1, lay.n) if point else (len(F_fr), 1, lay.n))
    slots = A[0] if point else A[:, 0].T  # slots[i]: slot i, or its node column
    slots[lay.q] = F_fr.T
    slots[lay.Gamma] = J_S
    slots[lay.W] = J
    slots[lay.Sigma] = T
    if point:
        return A, np.array([-P])
    B = np.empty((len(F_fr), 1))
    B[:, 0] = -P
    return A, B


def _constraint_row(
    sys: SimpleOpenSystem, t: float, ts: ThermoState
) -> tuple[np.ndarray, np.ndarray]:
    # The DAE row reads no production terms and no mu.
    T = temperature(sys, ts)
    J, JS_a, JS_b, P_M, P_H, _, _ = _flows(sys, t, ts, T)
    return _balance_row(sys, _force(sys.friction, t, ts), JS_a + JS_b, J, T, P_M + P_H)


def build_extended_lagrangian(sys: SimpleOpenSystem) -> TimeLagrangian:
    """Extended Lagrangian on x = (q, S, N, Gamma, W, Sigma).

    L = L_mech(q, v_q, S, N) + v_W N + v_Gamma (S - Sigma). The velocity
    Hessian is invertible only on the q block, which is declared as the
    regular block; the extension is deliberately degenerate in the
    thermodynamic velocities. The Lagrangian broadcasts: given stacked
    points t (K,), x and v (K, n), each callable returns one value per point
    (d_vv evaluates the mechanical mass matrix point by point). d_x and d_v
    build the state of (x, v) at each call.
    """

    lay = sys.layout
    mech = sys.mech
    n = lay.n

    def split(x, v):
        # x.T[i] is slot i at one point and the node column of a (K, n) x.
        xT = x.T
        return x[..., lay.q], v[..., lay.q], xT[lay.S], xT[lay.N], xT[lay.Sigma]

    def value(t, x, v):
        q, vq, S, N, Sigma = split(x, v)
        vT = v.T
        return mech.value(q, vq, S, N) + vT[lay.W] * N + vT[lay.Gamma] * (S - Sigma)

    def d_vv(t, x, v):
        # The mass matrix is only evaluated at single points.
        q, vq, S, N, _ = split(x, v)
        out = np.zeros(np.shape(x) + (n,))
        for k in np.ndindex(np.shape(x)[:-1]):
            out[k + (lay.q, lay.q)] = mech.d_vv(q[k], vq[k], S[k], N[k])
        return out

    return TimeLagrangian(
        n=n,
        value=value,
        d_t=lambda t, x, v: 0.0,
        d_x=lambda t, x, v: _extended_d_x(sys, state_from_arrays(sys, x, v), v),
        d_v=lambda t, x, v: momenta_from_state(sys, state_from_arrays(sys, x, v)),
        d_vv=d_vv,
        regular_block=tuple(range(sys.n_q)),
        broadcasts=True,
    )


def _extended_d_x(sys: SimpleOpenSystem, ts: ThermoState, v: np.ndarray) -> np.ndarray:
    # dL/dx of the extended Lagrangian at the state ts of (x, v), one point
    # or a node stack, reading the temperature the state carries.
    lay, mech = sys.layout, sys.mech
    q, vq, S, N = ts.q, ts.v_q, ts.S, ts.N
    out = np.zeros(v.shape)
    slots, vT = out.T, v.T  # slots[i]: slot i, or its node column
    slots[lay.q] = mech.d_q(q, vq, S, N).T
    slots[lay.S] = -ts._T[1] + vT[lay.Gamma]  # dL_mech/dS, as the state computed it
    slots[lay.N] = mech.d_N(q, vq, S, N) + vT[lay.W]
    slots[lay.Sigma] = -vT[lay.Gamma]
    return out


def _external_force(sys: SimpleOpenSystem, t, ts: ThermoState) -> np.ndarray:
    # sys.f_ext at the state as a covector on x, one point or a node stack;
    # f_ext may return a shape that broadcasts to (K, n_q).
    out = np.zeros(ts.q.shape[:-1] + (sys.n,))
    out[..., sys.layout.q] = sys.f_ext(t, ts)
    return out


def _momentum_state(sys: SimpleOpenSystem, x: np.ndarray, p: np.ndarray) -> ThermoState:
    # The state at (x, p), one point or the rows of (K, n) arrays, carrying
    # its temperature, whose v_q solves p_q = dL_mech/dv point by point (see
    # build_momentum_constraints).
    lay, mech = sys.layout, sys.mech
    if np.ndim(x) == 1:
        x, p = _conform(x, (lay.n,)), _conform(p, (lay.n,))

    def v_q(x, p):
        q, S, N = x[lay.q], x[lay.S], x[lay.N]
        return _invert_fiber(
            lambda v: mech.d_v(q, v, S, N),
            lambda v: mech.d_vv(q, v, S, N),
            p[lay.q],
            np.zeros(sys.n_q),
        )

    vq = v_q(x, p) if x.ndim == 1 else np.array([v_q(*xp) for xp in zip(x, p)])
    return _with_temperature(sys, _new_state(x[..., lay.q], vq, x[..., lay.S :]))


def _mixed_points(sys: SimpleOpenSystem, momentum_side: bool) -> _MixedPoints:
    # The record the mixed-bundle step reads at a point, or at K stacked
    # points at one time, in one pass: d_x, d_v and the force of sys.f_ext
    # from one state of (x, v) and its one temperature, d_t = 0, and the row
    # at that state (w is v), or on the momentum side at the state of
    # (x, p = w). The row also serves the stacked points of the constraint
    # sets, at node times t (K,).
    def row(t, x, w):
        ts = _momentum_state(sys, x, w) if momentum_side else state_from_arrays(sys, x, w)
        return _constraint_row(sys, t, ts)

    def at(t, x, v, w):
        ts = state_from_arrays(sys, x, v)
        A, B = row(t, x, w) if momentum_side else _constraint_row(sys, t, ts)
        F = None if sys.f_ext is None else _external_force(sys, t, ts)
        return _extended_d_x(sys, ts, v), momenta_from_state(sys, ts), 0.0, A, B, F

    return _MixedPoints(at, row, broadcasts=True)


def _row_constraints(sys: SimpleOpenSystem, momentum_side: bool) -> ConstraintSet:
    # eval_A and eval_B build the row at each call; the rows of stacked
    # points are one array pass (with one fiber inversion per point on the
    # momentum side).
    row = _mixed_points(sys, momentum_side).row
    return ConstraintSet(
        n=sys.n,
        m=1,
        eval_A=lambda t, x, w: row(t, x, w)[0],
        eval_B=lambda t, x, w: row(t, x, w)[1],
        eval_rows=row,
    )


def build_constraints(sys: SimpleOpenSystem) -> ConstraintSet:
    """Velocity-side constraint set (coefficients at (t, x, v)), with the rows
    of stacked points in one array pass."""

    return _row_constraints(sys, False)


def build_momentum_constraints(sys: SimpleOpenSystem) -> ConstraintSet:
    """Momentum-side constraint set (coefficients at (t, x, p)).

    The mechanical velocity v_q solves p_q = dL_mech/dv, inverted by the
    fiber Newton of lagrangian from v_q = 0 on the mechanical block only, so
    the friction force and any velocity-dependent port laws are evaluated at
    v_q(p_q). Thermodynamic momentum slots are ignored by the coefficients.
    The rows of stacked points are one array pass, after one inversion per
    point.
    """

    return _row_constraints(sys, True)


def build_external_force(sys: SimpleOpenSystem) -> ExternalForce:
    """sys.f_ext as a covector on x, read at the state of (t, x, v); it
    broadcasts over stacked points."""

    return ExternalForce(
        n=sys.n,
        value=lambda t, x, v: _external_force(sys, t, state_from_arrays(sys, x, v)),
        broadcasts=True,
    )


@dataclass(frozen=True)
class EntropyBreakdown:
    """Internal entropy production split into its three mechanisms.

    friction: mechanical friction dissipation, nonnegative for dissipative
    friction laws. mixing: matter exchange against finite differences of
    chemical potential and temperature. heating: heat conduction from the
    sources, nonnegative when every source is hotter or the flow reverses
    with the gradient.
    """

    total: float
    friction: float
    mixing: float
    heating: float


def entropy_production(
    sys: SimpleOpenSystem, t: float, ts: ThermoState
) -> EntropyBreakdown:
    """Internal entropy production rate I at a state.

    I = -<F_fr, v_q>/T + (1/T) sum_a [J^a (mu^a - mu) + J_S^a (T^a - T)]
      + (1/T) sum_b J_S^b (T^b - T).
    """

    m = _balance(sys, t, ts)
    return EntropyBreakdown(m.total, m.friction, m.mixing, m.heating)


@dataclass(frozen=True)
class PowerFlows:
    """External power flows of the first law dE/dt = mechanical + heating + matter."""

    mechanical: float  # external force power
    heating: float     # sum J_S^b T^b
    matter: float      # sum J^a mu^a + J_S^a T^a


def power_flows(sys: SimpleOpenSystem, t: float, ts: ThermoState) -> PowerFlows:
    """External power flows at a state."""

    m = _balance(sys, t, ts)
    return PowerFlows(mechanical=_dot(m.F_ext, ts.v_q), heating=m.P_H, matter=m.P_M)


def reduced_rhs(sys: SimpleOpenSystem, t: float, ts: ThermoState) -> np.ndarray:
    """Rate of the reduced state vector (q, v_q, S, N, Gamma, W, Sigma) at a state.

    Returns one float64 array of length 2 n_q + 5, in the layout
    _reduced_state_from_vector reads: qdot = v_q, the mechanical acceleration,
    then Sdot, Ndot, Gammadot, Wdot, Sigmadot. The thermal and chemical
    displacements advance with the system's own temperature and chemical
    potential, N with the total molar inflow, Sigma with the internal
    production I, and S with I plus the total entropy inflow. The mechanical
    acceleration solves the forced mechanical balance; when the mass matrix
    depends on (q, S, N) the declared cross second derivatives feed the chain
    rule (zero when undeclared). The rates of the momenta p_Gamma, p_W and pt
    are the balance's J_S_ports + J_S_sources, J and -(P_M + P_H).
    """

    mech = sys.mech
    m = _balance(sys, t, ts)
    rates = _bookkeeping_rates(m)
    Sdot, Ndot = rates[:2]
    q, vq, S, N = ts.q, ts.v_q, ts.S, ts.N
    n_q = sys.n_q
    rhs = _conform(mech.d_q(q, vq, S, N), (n_q,)) + m.F_fr + m.F_ext
    if mech.d_vq is not None:
        rhs = rhs - _conform(mech.d_vq(q, vq, S, N), (n_q, n_q)) @ vq
    if mech.d_vS is not None:
        rhs = rhs - Sdot * _conform(mech.d_vS(q, vq, S, N), (n_q,))
    if mech.d_vN is not None:
        rhs = rhs - Ndot * _conform(mech.d_vN(q, vq, S, N), (n_q,))
    M = _conform(mech.d_vv(q, vq, S, N), (n_q, n_q))
    return np.concatenate([vq, _mass_solve(M, rhs), rates])


def _bookkeeping_rates(m: _Balance) -> tuple:
    # The rates (Sdot, Ndot, Gammadot, Wdot, Sigmadot) of the reduced path:
    # S gains the production and the entropy inflow, Sigma the production.
    return m.total + m.J_S_ports + m.J_S_sources, m.J, m.T, m.mu, m.total


def momenta_from_state(sys: SimpleOpenSystem, ts: ThermoState) -> np.ndarray:
    """Momenta of the extended Lagrangian along valid states.

    p_q is the mechanical fiber derivative, p_Gamma = S - Sigma, p_W = N, and
    the S, N, Sigma slots vanish. Over K nodes the result has shape (K, n).
    """

    lay = sys.layout
    p = np.zeros(ts.q.shape[:-1] + (lay.n,))
    slots = p.T  # slots[i]: slot i, or its node column
    slots[lay.q] = sys.mech.d_v(ts.q, ts.v_q, ts.S, ts.N).T
    slots[lay.Gamma] = ts.S - ts.Sigma
    slots[lay.W] = ts.N
    return p


def initial_pontryagin_state(
    sys: SimpleOpenSystem, t0: float, ts0: ThermoState
) -> PontryaginState:
    """Consistent initial point on the mixed bundle for the full formulations.

    Velocities of the bookkeeping coordinates come from the reduced rates (so
    the kinematic constraint holds exactly); (pt, p) is the covariant Legendre
    image of (t0, x, v) under the extended Lagrangian, p = dL/dv and
    pt = -E(0), so the covariant energy starts at zero.
    """

    y0 = np.concatenate([ts0.q, ts0.v_q, [ts0.S, ts0.N, ts0.Gamma, ts0.W, ts0.Sigma]])
    x, v = _lift(sys.n_q, y0, _reduced_field(sys, t0, y0)[2 * sys.n_q :])
    z = covariant_legendre(build_extended_lagrangian(sys), t0, x, v)
    return PontryaginState(t=t0, x=x, v=v, pt=z.pt, p=z.p)


def _reduced_state_from_vector(sys: SimpleOpenSystem, y: np.ndarray) -> ThermoState:
    # The state of a reduced vector y, or over the rows of a 2-d y, carrying
    # its temperature.
    n_q = sys.n_q
    ts = _new_state(y[..., :n_q], y[..., n_q : 2 * n_q], y[..., 2 * n_q :])
    return _with_temperature(sys, ts)


def _reduced_field(sys: SimpleOpenSystem, t: float, y: np.ndarray) -> np.ndarray:
    # The rate of the reduced state vector y: reduced_rhs, looked up on the
    # module at each call, at the state y holds.
    return reduced_rhs(sys, t, _reduced_state_from_vector(sys, y))


def _lift(n_q: int, y: np.ndarray, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Bundle arrays x and v of reduced state vectors y (one, or one per row);
    # the bookkeeping velocities are the rates Sdot, Ndot, Gammadot, Wdot, Sigmadot.
    x = np.concatenate([y[..., :n_q], y[..., 2 * n_q :]], axis=-1)
    return x, np.concatenate([y[..., n_q : 2 * n_q], rates], axis=-1)


# Max-norm residual tolerance of the reduced path's Newton iteration.
_REDUCED_NEWTON_TOL = 1e-12


def run_reduced(
    sys: SimpleOpenSystem, start: PontryaginState, h: float, n_steps: int
) -> Trajectory:
    """Integrate the reduced path with the implicit midpoint rule from start.

    start is a mixed-bundle state such as initial_pontryagin_state returns;
    the run reads its t, pt, the q, S, N, Gamma, W and Sigma slots of x and
    the q slots of v, so the trajectory's first node is start. Each step
    solves d/h = f(t + h/2, y0 + d/2) for its increment d = y1 - y0, whose
    quotient d/h is exact, with the stepper's chord Newton solver
    (ChordNewton, tolerance _REDUCED_NEWTON_TOL), and ends on y0 + d. It
    stops at convergence, without the stepper's final update: no output of
    this path amplifies the last round-off, and the update would save no
    field evaluation yet move W by up to 1.1e-12 relative over 10 000
    steps, past the outputs' 1e-12 bound. The steps run in the loop the stepper shares: step
    k starts at t0 + k h, and a failure raises StepFailureError naming
    "reduced step k (t = ...)". h must be positive
    and finite. The momentum conjugate to time advances with the midpoint
    rate -(P_M + P_H). The returned trajectory is lifted to the full bundle
    arrays (velocities of the bookkeeping slots are the reduced rates,
    momenta the fiber derivative, multiplier exactly 1), with formulation
    "reduced". newton_iters counts each step's Newton updates.

    Newton starts from the polynomial through the accepted nodes, extrapolated
    one step (dynamics._extrapolated): step 0 from the explicit Euler
    increment h f(t_0, y_0), the run's one field evaluation outside Newton;
    step 1 from step 0's increment d_0; step k >= 2 from 2 d_k-1 - d_k-2,
    which is the quadratic 3 y_k - 3 y_k-1 + y_k-2. The stepper's
    quadratic in the increments would save nothing here (2.14 field
    evaluations per step either way) and moves W as the final update does.
    A guess outside the model's domain fails its step. The lift
    reads the node rates from one balance over the node states, and pt is
    integrated after the march from one balance over the accepted midpoints
    (y_k + y_k+1)/2 at t_k + h/2, which are the residuals' y_k + d_k/2 to
    round-off, so the sum is a step recursion bit for bit.
    """

    n_q, lay, K = sys.n_q, sys.layout, int(n_steps)
    solver = ChordNewton(_REDUCED_NEWTON_TOL, polish=False)
    solved = deque(maxlen=2)  # the increments of steps k-2 and k-1 before step k

    def advance(k, t, y0):
        guess = _extrapolated(solved, lambda: h * _reduced_field(sys, t, y0))
        tm = t + 0.5 * h

        def residual(d):
            return d / h - _reduced_field(sys, tm, y0 + 0.5 * d)

        d, _, iters = solver._newton(residual, guess)
        solved.append(d)
        return y0 + d, iters

    def times():
        return start.t + h * np.arange(K + 1)

    def lift(ys):
        ts = _reduced_state_from_vector(sys, ys)
        rates = np.stack(_bookkeeping_rates(_balance(sys, times(), ts)), axis=-1)
        x, v = _lift(n_q, ys, rates)
        p = momenta_from_state(sys, ts)
        # pt advances by h times the rate -(P_M + P_H) at each step's accepted
        # midpoint; cumsum adds in sequence, as the step recursion does.
        tm = start.t + h * np.arange(K) + 0.5 * h
        b = _balance(sys, tm, _reduced_state_from_vector(sys, 0.5 * (ys[:-1] + ys[1:])))
        pts = np.cumsum(np.concatenate([[start.pt], h * -(b.P_M + b.P_H)]))
        return x, v, p, pts, np.ones((K, 1))

    y0 = np.concatenate([start.x[lay.q], start.v[lay.q], start.x[lay.S :]])
    return _march("reduced", advance, lift, y0, h, times)


def lifted_midpoint_samples(sys: SimpleOpenSystem, traj: Trajectory):
    """Collocation-point lifts of a reduced trajectory, one per step.

    Yields (state, rate, lam) where the state sits at the midpoint in the
    sense of the integrator (averaged nodes, with bookkeeping velocities and
    momenta evaluated at the averaged point) and the rate is the finite
    difference across the step with dt = 1. Along reduced runs the full
    mixed-bundle residual vanishes at these samples up to round-off for
    constant mass matrices. The samples are rows of the arrays of
    _lifted_midpoints, built in one pass over all steps.
    """

    (t, x, v, pt, p), (dx, dv, dpt, dp) = _lifted_midpoints(sys, traj)
    for k in range(traj.n_steps):
        state = PontryaginState(t=t[k], x=x[k], v=v[k], pt=pt[k], p=p[k])
        yield state, TangentP(1.0, dx[k], dv[k], dpt[k], dp[k]), np.ones(1)


def _lifted_midpoints(sys: SimpleOpenSystem, traj: Trajectory) -> tuple:
    # The lifted midpoint states as arrays (t, x, v, pt, p) over all steps,
    # and the step rates of traj.midpoints(). The bookkeeping velocities come
    # from the balance at the averaged points, so no mass solve is needed.
    lay = sys.layout
    (tm, xm, vm, ptm, _), rates = traj.midpoints()
    ym = np.concatenate([xm[:, lay.q], vm[:, lay.q], xm[:, lay.S :]], axis=1)
    tsm = _reduced_state_from_vector(sys, ym)
    _, vm = _lift(sys.n_q, ym, np.stack(_bookkeeping_rates(_balance(sys, tm, tsm)), axis=-1))
    return (tm, xm, vm, ptm, momenta_from_state(sys, tsm)), rates


def _invariant_columns(sys: SimpleOpenSystem, traj: Trajectory) -> tuple:
    # monitor_invariants' open-system part, from one balance over all nodes:
    # the node rows (A, B) and the power and production columns.
    ts = state_from_arrays(sys, traj.x, traj.v)
    b = _balance(sys, traj.t, ts)
    A, B = _balance_row(sys, b.F_fr, b.J_S_ports + b.J_S_sources, b.J, b.T, b.P_M + b.P_H)
    columns = dict(
        entropy_production=b.total,
        power_mechanical=_dot(b.F_ext, ts.v_q),
        power_heating=b.P_H,
        power_matter=b.P_M,
    )
    return A, B, columns


def first_law_residual(sys: SimpleOpenSystem, traj: Trajectory) -> np.ndarray:
    """Cumulative first-law residual E(t) - E(0) - integral of the power flows.

    The power flows are integrated with the trapezoid rule on the trajectory
    nodes, matching the integrator's order. Returns one residual per node
    (zero at the first): monitor_invariants' column of that name.
    """

    L = build_extended_lagrangian(sys)
    return monitor_invariants(L, build_constraints(sys), traj, sys).first_law_residual


# Half-width of a random physical point's draws around the reference state
# (S and N move by at most 0.4 times it), and random_physical_point's times.
_SPREAD = 0.5
_T_SPAN = (0.0, 10.0)


def random_physical_point(
    sys: SimpleOpenSystem, rng: np.random.Generator, around: ThermoState
) -> PontryaginState:
    """Random point of the mixed bundle inside the physical domain.

    t is drawn from _T_SPAN. Mechanical coordinates, velocities and all
    momenta are drawn around the reference state; S is perturbed additively
    and N multiplicatively so the temperature stays defined. The bookkeeping
    velocities are free fiber coordinates and are drawn unconstrained. The
    point takes _physical_draws(sys) uniforms from rng.
    """

    u = rng.random((1, _physical_draws(sys)))
    t, x, v, pt, p = _physical_points(sys, u, around, _T_SPAN)
    return PontryaginState(t=t[0], x=x[0], v=v[0], pt=pt[0], p=p[0])


def _physical_draws(sys: SimpleOpenSystem) -> int:
    # Uniforms drawn per random physical point: t, q, dS, dN, Gamma, W,
    # Sigma, v, v_q, pt and p, in this order.
    return 2 * sys.n + 2 * sys.n_q + 7


def _physical_points(
    sys: SimpleOpenSystem, u: np.ndarray, around: ThermoState, t_span: tuple[float, float]
) -> tuple:
    # The random physical points of the standard uniforms u, one row of
    # _physical_draws(sys) per point, as arrays (t, x, v, pt, p) over the
    # rows, with t in t_span. rng.uniform(lo, hi) is lo + (hi - lo) *
    # rng.random() bit for bit, so a row gives the point of rng.uniform calls
    # drawing the same numbers.
    lay = sys.layout
    K = len(u)
    cols = iter(np.split(u, np.cumsum([1, sys.n_q, 1, 1, 1, 1, 1, lay.n, sys.n_q, 1]), axis=1))

    def uniform(lo, hi, size=None):
        out = lo + (hi - lo) * next(cols)
        return out[:, 0] if size is None else out

    t = uniform(*t_span)
    x = np.zeros((K, lay.n))
    x[:, lay.q] = around.q + uniform(-_SPREAD, _SPREAD, sys.n_q)
    dS = 0.4 * _SPREAD * uniform(-1.0, 1.0)
    dN = 0.4 * _SPREAD * uniform(-1.0, 1.0)
    x[:, lay.Gamma] = around.Gamma + uniform(-_SPREAD, _SPREAD)
    x[:, lay.W] = around.W + uniform(-_SPREAD, _SPREAD)
    x[:, lay.Sigma] = around.Sigma + uniform(-_SPREAD, _SPREAD)
    v = uniform(-_SPREAD, _SPREAD, lay.n)
    v[:, lay.q] = around.v_q + uniform(-_SPREAD, _SPREAD, sys.n_q)
    pt = uniform(-1.0, 1.0)
    p = uniform(-1.0, 1.0, lay.n)
    # The offsets of S and N can overflow T when the heat capacity is small;
    # halve both at each such point until T is finite and positive.
    q, v_q = x[:, lay.q], v[:, lay.q]
    S, N = around.S + dS, around.N * (1.0 + dN)
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            T = -sys.mech.d_S(q, v_q, S, N)
            bad = ((dS != 0.0) | (dN != 0.0)) & ~((0.0 < T) & (T < np.inf))
            if not bad.any():
                break
            dS, dN = np.where(bad, 0.5 * dS, dS), np.where(bad, 0.5 * dN, dN)
            S, N = around.S + dS, around.N * (1.0 + dN)
    x[:, lay.S], x[:, lay.N] = S, N
    return t, x, v, pt, p


def linear_friction(gamma: float | np.ndarray):
    """Friction force F = -gamma v_q (gamma scalar or per-component array)."""

    minus_g = -np.asarray(gamma, dtype=float)

    def force(t, ts: ThermoState) -> np.ndarray:
        return minus_g * ts.v_q

    return force


def ideal_gas_fixture(
    c: float = 1.0,
    T0: float = 1.0,
    s0: float = 1.0,
    mass: float = 1.0,
    stiffness: float = 1.0,
    n_q: int = 1,
    friction: Callable[[float, ThermoState], np.ndarray] | None = None,
    ports: tuple[PortModel, ...] = (),
    sources: tuple[HeatSourceModel, ...] = (),
) -> SimpleOpenSystem:
    """Piston on a spring coupled to an ideal gas internal energy, with no
    external force (set SimpleOpenSystem.f_ext with dataclasses.replace).

    L_mech = mass |v|^2 / 2 - stiffness |q|^2 / 2 - U(S, N) with
    U = c N T0 exp((S - N s0) / (c N)). The temperature is
    T = T0 exp((S - N s0) / (c N)), so T = T0 exactly at S = N s0, T is
    invariant under joint doubling of S and N, and the chemical potential is
    mu = T (c - S / N).
    """

    if c <= 0 or T0 <= 0:
        raise ValueError("heat capacity and reference temperature must be positive")

    def nonpositive(N):
        raise NonpositiveTemperatureError(
            f"mole number N = {float(N)!r} must be positive for the ideal gas energy"
        )

    # exp(z), z = (S - N s0) / (c N), is evaluated once per point: d_S, d_N
    # and the energy at one (S, N) share it. Node arrays compute it at each
    # call.
    @lru_cache(maxsize=1)
    def point_e(S, N):
        if N <= 0:
            nonpositive(N)
        return np.exp((S - N * s0) / (c * N))

    def e_of(S, N):
        if type(S) is np.ndarray or type(N) is np.ndarray:
            S, N = np.asarray(S), np.asarray(N)
            if (N <= 0).any():
                nonpositive(N[N <= 0][0])
            return np.exp((S - N * s0) / (c * N))
        return point_e(S, N)

    def value(q, v, S, N):
        U = c * N * T0 * e_of(S, N)  # in this product order
        return 0.5 * mass * _dot(v, v) - 0.5 * stiffness * _dot(q, q) - U

    def d_q(q, v, S, N):
        return -stiffness * q

    def d_v(q, v, S, N):
        return mass * v

    def d_S(q, v, S, N):
        return -(T0 * e_of(S, N))

    def d_N(q, v, S, N):
        return -(T0 * e_of(S, N)) * (c - S / N)

    mass_matrix = _read_only(mass * np.eye(n_q))

    def d_vv(q, v, S, N):
        return mass_matrix

    mech = MechanicalLagrangian(
        n_q=n_q,
        value=value,
        d_q=d_q,
        d_v=d_v,
        d_S=d_S,
        d_N=d_N,
        d_vv=d_vv,
    )
    return SimpleOpenSystem(
        mech=mech, friction=friction, ports=tuple(ports), sources=tuple(sources)
    )
