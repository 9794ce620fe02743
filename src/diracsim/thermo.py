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

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import ChordNewton, OutsideDomainError, SingularJacobianError, StepFailureError
from .dynamics import Trajectory, monitor_invariants
from .geometry import ConstraintSet, PontryaginState, TangentP, _conform, _dot, _slots
from .lagrangian import (
    ExternalForce,
    HyperregularityError,
    TimeLagrangian,
    _mass_solve,
    _PointMemo,
    _read_only,
    _require_nonsingular,
    _stacked,
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
    "ReducedRates",
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

    The indices are computed once per layout; the hot path reads them on
    every constraint row.
    """

    n_q: int

    @cached_property
    def q(self) -> slice:
        return slice(0, self.n_q)

    @cached_property
    def S(self) -> int:
        return self.n_q

    @cached_property
    def N(self) -> int:
        return self.n_q + 1

    @cached_property
    def Gamma(self) -> int:
        return self.n_q + 2

    @cached_property
    def W(self) -> int:
        return self.n_q + 3

    @cached_property
    def Sigma(self) -> int:
        return self.n_q + 4

    @cached_property
    def n(self) -> int:
        return self.n_q + 5


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
    given node times t of shape (K,) and a state over K nodes it returns a
    float or an array of shape (K,), entry by entry the value at that node.
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
    K nodes both return shape (K, n_q), or a shape that broadcasts to it.
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

    @cached_property
    def _points(self) -> _PointMemo:
        # The open-system point at (t, x, v), shared by the velocity-side row,
        # the extended Lagrangian's d_x and d_v and the external force.
        return _PointMemo(lambda t, x, v: _Point(self, t, state_from_arrays(self, x, v)), size=2)


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
    """Build a ThermoState from full state and velocity arrays (copied)."""

    lay = sys.layout
    x = _conform(x, (lay.n,))
    return _new_state(x[lay.q].copy(), _conform(v, (lay.n,))[lay.q].copy(), x[lay.S :])


def _node_state(sys: SimpleOpenSystem, x: np.ndarray, v: np.ndarray) -> ThermoState:
    # The state over the rows of (K, n) arrays x and v, carrying its
    # temperature; its fields are views of x and v.
    lay = sys.layout
    return _with_temperature(sys, _new_state(x[:, lay.q], v[:, lay.q], x[:, lay.S :]))


class _Point:
    # The open-system model at one (t, x, w), from a state that owns its
    # arrays. Everything evaluated there shares the state, made read-only and
    # given its temperature, and the constraint row (A, B), built on first use.
    __slots__ = ("t", "ts", "row")

    def __init__(self, sys: SimpleOpenSystem, t: float, ts: ThermoState):
        ts.q.setflags(write=False)
        ts.v_q.setflags(write=False)
        self.t, self.ts, self.row = t, _with_temperature(sys, ts), None


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
    return np.broadcast_to(np.asarray(f(t, ts), dtype=float), shape)


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
    # operation order, at one point or over all nodes at once.
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
    if isinstance(T, np.ndarray):
        # Constant schedules give floats; every sum has one entry per node.
        return np.broadcast_arrays(J, JS_a, JS_b, P_M, P_H, mixing, heating, T)[:-1]
    return J, JS_a, JS_b, P_M, P_H, mixing, heating


def _balance(sys: SimpleOpenSystem, t, ts: ThermoState) -> _Balance:
    # The whole balance, for reduced_rhs, entropy_production, power_flows
    # and the diagnostics.
    T = temperature(sys, ts)
    mu = chemical_potential(sys, ts)
    F_fr = _force(sys.friction, t, ts)
    J, JS_a, JS_b, P_M, P_H, mixing, heating = _flows(sys, t, ts, T, mu)
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
    # (K, 1, n) and (K, 1).
    lay = sys.layout
    point = F_fr.ndim == 1
    A = np.zeros((1, lay.n) if point else (len(F_fr), 1, lay.n))
    slots = A[0] if point else A[:, 0].T  # slots[i]: slot i, or its node column
    slots[lay.q] = F_fr.T
    slots[lay.Gamma] = J_S
    slots[lay.W] = J
    slots[lay.Sigma] = T
    return A, np.array([-P]) if point else -P[:, None]


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
    thermodynamic velocities. At one point d_x and d_v read the system's
    open-system point at (t, x, v), which the velocity-side row shares. The
    Lagrangian broadcasts: given stacked points t (K,), x and v (K, n), each
    callable returns one value per point (d_vv evaluates the mechanical mass
    matrix point by point).
    """

    lay = sys.layout
    mech = sys.mech
    n = lay.n
    points = sys._points

    def split(x, v):
        # x.T[i] is slot i at one point and the node column of a (K, n) x.
        xT = x.T
        return x[..., lay.q], v[..., lay.q], xT[lay.S], xT[lay.N], xT[lay.Sigma]

    def value(t, x, v):
        q, vq, S, N, Sigma = split(x, v)
        vT = v.T
        return mech.value(q, vq, S, N) + vT[lay.W] * N + vT[lay.Gamma] * (S - Sigma)

    def d_t(t, x, v):
        return 0.0

    # d_x and d_v at one point are the lean entries the stepper calls at
    # every residual; stacked points take the array forms below them.
    def d_x(t, x, v):
        if _stacked(x):
            return stacked_d_x(_node_state(sys, x, v), v)
        ts = points(t, x, v).ts
        q, vq, S, N = ts.q, ts.v_q, ts.S, ts.N
        out = np.zeros(n)
        out[lay.q] = np.asarray(mech.d_q(q, vq, S, N), dtype=float)
        out[lay.S] = -ts._T[1] + v[lay.Gamma]  # dL_mech/dS, as the point computed it
        out[lay.N] = float(mech.d_N(q, vq, S, N)) + v[lay.W]
        out[lay.Sigma] = -v[lay.Gamma]
        return out

    def stacked_d_x(ts, v):
        out = np.zeros(v.shape)
        q, vq, S, N = ts.q, ts.v_q, ts.S, ts.N
        out[:, lay.q] = mech.d_q(q, vq, S, N)
        out[:, lay.S] = -ts._T[1] + v[:, lay.Gamma]
        out[:, lay.N] = mech.d_N(q, vq, S, N) + v[:, lay.W]
        out[:, lay.Sigma] = -v[:, lay.Gamma]
        return out

    def d_v(t, x, v):
        if _stacked(x):
            return momenta_from_state(sys, _node_state(sys, x, v))
        ts = points(t, x, v).ts
        out = np.zeros(n)
        out[lay.q] = np.asarray(mech.d_v(ts.q, ts.v_q, ts.S, ts.N), dtype=float)
        out[lay.Gamma] = ts.S - ts.Sigma
        out[lay.W] = ts.N
        return out

    def d_vv(t, x, v):
        q, vq, S, N, _ = split(x, v)
        out = np.zeros(np.shape(x) + (n,))
        if _stacked(x):  # the mass matrix is only evaluated at single points
            for k in range(len(x)):
                out[k, lay.q, lay.q] = mech.d_vv(q[k], vq[k], S[k], N[k])
        else:
            out[lay.q, lay.q] = np.asarray(mech.d_vv(q, vq, S, N), dtype=float)
        return out

    return TimeLagrangian(
        n=n,
        value=value,
        d_t=d_t,
        d_x=d_x,
        d_v=d_v,
        d_vv=d_vv,
        regular_block=tuple(range(sys.n_q)),
        broadcasts=True,
    )


def _row_constraints(sys: SimpleOpenSystem, points: _PointMemo, eval_rows=None) -> ConstraintSet:
    # eval_A and eval_B at the same (t, x, w) share one point and one row
    # build. A step residual asks for the midpoint and the new node; two
    # remembered points let Jacobian columns that move neither (multiplier,
    # pt and the momenta or velocities the row does not read) build no row.
    def row(t, x, w):
        p = points(t, x, w)
        if p.row is None:
            A, B = _constraint_row(sys, p.t, p.ts)
            p.row = (_read_only(A), _read_only(B))
        return p.row

    return ConstraintSet(
        n=sys.n,
        m=1,
        eval_A=lambda t, x, w: row(t, x, w)[0],
        eval_B=lambda t, x, w: row(t, x, w)[1],
        eval_rows=eval_rows,
    )


def build_constraints(sys: SimpleOpenSystem) -> ConstraintSet:
    """Velocity-side constraint set (coefficients at (t, x, v)), with the rows
    of stacked points in one array pass."""

    return _row_constraints(
        sys, sys._points, lambda t, x, v: _constraint_row(sys, t, _node_state(sys, x, v))
    )


# Relative tolerance and iteration budget of _vq_from_pq's Newton loop.
_VQ_TOL = 1e-12
_VQ_MAX_ITER = 50


def _vq_from_pq(
    sys: SimpleOpenSystem, q: np.ndarray, S: float, N: float, p_q: np.ndarray
) -> np.ndarray:
    # Invert p_q = dL_mech/dv on the mechanical block (mass matrix solve).
    mech = sys.mech
    v = np.zeros(sys.n_q)
    for _ in range(_VQ_MAX_ITER):
        r = np.asarray(mech.d_v(q, v, S, N), dtype=float).reshape(sys.n_q) - p_q
        if np.abs(r).max(initial=0.0) <= _VQ_TOL * (1.0 + np.abs(p_q).max(initial=0.0)):
            return v
        M = np.asarray(mech.d_vv(q, v, S, N), dtype=float).reshape(sys.n_q, sys.n_q)
        _require_nonsingular(M, "mechanical mass matrix is singular")
        v = v - _mass_solve(M, r)
    raise HyperregularityError("mass matrix inversion did not converge")


def build_momentum_constraints(sys: SimpleOpenSystem) -> ConstraintSet:
    """Momentum-side constraint set (coefficients at (t, x, p)).

    The mechanical velocity is recovered from p_q through the mass matrix, so
    the friction force and any velocity-dependent port laws are evaluated at
    v_q(p_q). Thermodynamic momentum slots are ignored by the coefficients.
    """

    lay = sys.layout

    def point(t, x, p):
        x, p = _conform(x, (lay.n,)), _conform(p, (lay.n,))
        vq = _vq_from_pq(sys, x[lay.q], x[lay.S], x[lay.N], p[lay.q])
        return _Point(sys, t, _new_state(x[lay.q].copy(), vq, x[lay.S :]))

    return _row_constraints(sys, _PointMemo(point, size=2))


def build_external_force(sys: SimpleOpenSystem) -> ExternalForce:
    """sys.f_ext as a covector on x, read at the point (t, x, v) the row
    shares; it broadcasts over stacked points."""

    lay, points = sys.layout, sys._points

    def value(t, x, v):
        if _stacked(x):
            out = np.zeros(x.shape)
            out[:, lay.q] = sys.f_ext(t, _node_state(sys, x, v))
            return out
        out = np.zeros(lay.n)
        out[lay.q] = sys.f_ext(t, points(t, x, v).ts)
        return out

    return ExternalForce(n=lay.n, value=value, broadcasts=True)


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


@dataclass(frozen=True)
class ReducedRates:
    """Closed-form rates of the index-reduced open-system equations."""

    qdot: np.ndarray
    vqdot: np.ndarray
    Sdot: float
    Ndot: float
    Gammadot: float
    Wdot: float
    Sigmadot: float
    pGammadot: float
    pWdot: float
    ptdot: float


def reduced_rhs(sys: SimpleOpenSystem, t: float, ts: ThermoState) -> ReducedRates:
    """Explicit rates of the reduced path at a state.

    The thermal and chemical displacements advance with the system's own
    temperature and chemical potential, N with the total molar inflow, Sigma
    with the internal production I, and S with I plus the total entropy
    inflow. The mechanical acceleration solves the forced mechanical balance;
    when the mass matrix depends on (q, S, N) the declared cross second
    derivatives feed the chain rule (zero when undeclared).
    """

    mech = sys.mech
    m = _balance(sys, t, ts)
    Sdot, Ndot, Gammadot, Wdot, Sigmadot = _bookkeeping_rates(m)
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

    return ReducedRates(
        qdot=vq.copy(),
        vqdot=_mass_solve(M, rhs),
        Sdot=Sdot,
        Ndot=Ndot,
        Gammadot=Gammadot,
        Wdot=Wdot,
        Sigmadot=Sigmadot,
        pGammadot=m.J_S_ports + m.J_S_sources,
        pWdot=m.J,
        ptdot=-(m.P_M + m.P_H),
    )


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
    p[..., lay.q] = sys.mech.d_v(ts.q, ts.v_q, ts.S, ts.N)
    p[..., lay.Gamma] = ts.S - ts.Sigma
    p[..., lay.W] = ts.N
    return p


def initial_pontryagin_state(
    sys: SimpleOpenSystem, t0: float, ts0: ThermoState
) -> PontryaginState:
    """Consistent initial point on the mixed bundle for the full formulations.

    Velocities of the bookkeeping coordinates come from the reduced rates (so
    the kinematic constraint holds exactly), momenta from the extended fiber
    derivative, and the momentum conjugate to time is initialized to -E(0) so
    the covariant energy starts at zero.
    """

    y0 = _reduced_state_vector(ts0)
    x, v = _lift(sys.n_q, y0, _reduced_field(sys, t0, y0)[0][2 * sys.n_q :])
    p = momenta_from_state(sys, ts0)
    L = build_extended_lagrangian(sys)
    E0 = float(p @ v) - float(L.value(t0, x, v))
    return PontryaginState(t=t0, x=x, v=v, pt=-E0, p=p)


def _reduced_state_vector(ts: ThermoState) -> np.ndarray:
    return np.concatenate(
        [ts.q, ts.v_q, [ts.S, ts.N, ts.Gamma, ts.W, ts.Sigma]]
    )


def _reduced_state_from_vector(sys: SimpleOpenSystem, y: np.ndarray) -> ThermoState:
    # The state of a reduced vector y, or over the rows of a 2-d y, carrying
    # its temperature.
    n_q = sys.n_q
    ts = _new_state(y[..., :n_q], y[..., n_q : 2 * n_q], y[..., 2 * n_q :])
    return _with_temperature(sys, ts)


def _reduced_field(sys: SimpleOpenSystem, t: float, y: np.ndarray) -> tuple:
    # The rate of the reduced state vector y, and the rate of pt, from one
    # evaluation of reduced_rhs (looked up on the module at each call).
    r = reduced_rhs(sys, t, _reduced_state_from_vector(sys, y))
    rates = [r.Sdot, r.Ndot, r.Gammadot, r.Wdot, r.Sigmadot]
    return np.concatenate([r.qdot, r.vqdot, rates]), r.ptdot


def _lift(n_q: int, y: np.ndarray, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Bundle arrays x and v of reduced state vectors y (one, or one per row);
    # the bookkeeping velocities are the rates Sdot, Ndot, Gammadot, Wdot, Sigmadot.
    x = np.concatenate([y[..., :n_q], y[..., 2 * n_q :]], axis=-1)
    return x, np.concatenate([y[..., n_q : 2 * n_q], rates], axis=-1)


# Max-norm residual tolerance of the reduced path's Newton iteration.
_REDUCED_NEWTON_TOL = 1e-12


# Overflow in a trial evaluation shows in the values (a non-finite Jacobian
# or residual ends in StepFailureError); numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_reduced(
    sys: SimpleOpenSystem,
    t0: float,
    ts0: ThermoState,
    h: float,
    n_steps: int,
    pt0: float | None = None,
) -> Trajectory:
    """Integrate the reduced path with the implicit midpoint rule.

    Each step solves y1 - y0 = h f(t + h/2, (y0 + y1)/2) with the stepper's
    chord Newton solver (ChordNewton, tolerance _REDUCED_NEWTON_TOL) from an
    explicit Euler guess; the momentum conjugate to time advances with the
    midpoint rate -(P_M + P_H). The returned trajectory is lifted to the full
    bundle arrays (velocities of the bookkeeping slots are the reduced rates,
    momenta the fiber derivative, multiplier exactly 1), with formulation
    "reduced". newton_iters counts each step's Newton updates, polish
    iterations included.

    A step evaluates the field once per Newton residual plus once at its
    start node, for the Euler guess and the lift alike; the midpoint rate of
    pt is read from the residual evaluated at the accepted iterate.
    """

    if h <= 0:
        raise ValueError("step size must be positive")
    if pt0 is None:
        pt0 = initial_pontryagin_state(sys, t0, ts0).pt

    n_q = sys.n_q
    K = int(n_steps)
    ys = np.empty((K + 1, 2 * n_q + 5))
    rates = np.empty((K + 1, 5))  # each node's (Sdot, Ndot, Gammadot, Wdot, Sigmadot)
    pts = np.empty(K + 1)
    iters = np.zeros(K, dtype=int)
    ys[0] = _reduced_state_vector(ts0)
    pts[0] = float(pt0)

    solver = ChordNewton(_REDUCED_NEWTON_TOL)
    for k in range(K + 1):
        t = t0 + k * h
        y0 = ys[k]
        f0, _ = _reduced_field(sys, t, y0)
        rates[k] = f0[2 * n_q :]
        if k == K:
            break
        tm = t + 0.5 * h
        ptdots = {}  # midpoint ptdot of each iterate evaluated, by its bytes

        def residual(y1):
            f, ptdots[y1.tobytes()] = _reduced_field(sys, tm, 0.5 * (y0 + y1))
            return (y1 - y0) / h - f

        try:
            y, _, iters[k] = solver._newton(residual, y0 + h * f0)
        except (StepFailureError, SingularJacobianError) as exc:
            raise StepFailureError(f"reduced step {k} (t = {t!r}) failed: {exc}") from exc
        ys[k + 1] = y
        # _newton returns an iterate whose residual it evaluated (the last
        # one, or the one before a rejected polish iterate).
        pts[k + 1] = pts[k] + h * ptdots[y.tobytes()]

    x, v = _lift(n_q, ys, rates)
    return Trajectory(
        formulation="reduced",
        h=float(h),
        t=t0 + h * np.arange(K + 1),
        x=x,
        v=v,
        p=momenta_from_state(sys, _reduced_state_from_vector(sys, ys)),
        pt=pts,
        lam=np.ones((K, 1)),
        newton_iters=iters,
    )


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

    (t, x, v, pt, p), rates = _lifted_midpoints(sys, traj)
    for k in range(traj.n_steps):
        state = PontryaginState(t=t[k], x=x[k], v=v[k], pt=pt[k], p=p[k])
        yield state, TangentP(*_slots(rates[k], sys.n)), np.ones(1)


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


def _invariant_columns(sys: SimpleOpenSystem, L: TimeLagrangian, traj: Trajectory, mid):
    # monitor_invariants' open-system columns, each from one array pass: at
    # the nodes <p, v>, L, the kinematic residual of the row, the power flows
    # and the production; at the step midpoints mid = (t, x, v), dL/dt and
    # the row offset B times the multiplier. L follows the node balance, so
    # that the ideal gas reuses the nodes' exp.
    t, x, v = traj.t, traj.x, traj.v
    ts = _node_state(sys, x, v)
    b = _balance(sys, t, ts)
    A, B = _balance_row(sys, b.F_fr, b.J_S_ports + b.J_S_sources, b.J, b.T, b.P_M + b.P_H)
    node_columns = (_dot(traj.p, v), L.value(t, x, v), np.abs(_dot(A[:, 0], v) + B[:, 0]))
    tsm = _node_state(sys, *mid[1:])
    P_M, P_H = _flows(sys, mid[0], tsm, temperature(sys, tsm))[3:5]
    columns = dict(
        entropy_production=b.total,
        power_mechanical=_dot(b.F_ext, ts.v_q),
        power_heating=b.P_H,
        power_matter=b.P_M,
    )
    return (*node_columns, L.d_t(*mid), -(P_M + P_H) * traj.lam[:, 0], columns)


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

    # exp(z), z = (S - N s0) / (c N), is evaluated once per state: d_S, d_N
    # and the energy at one (S, N), or at one pair of node arrays, share it.
    point = [None, None, None]  # S, N and exp(z) of the last point
    nodes = [None, None]  # the key and exp(z) of the last node arrays

    def nonpositive(N):
        raise NonpositiveTemperatureError(
            f"mole number N = {float(N)!r} must be positive for the ideal gas energy"
        )

    def e_of(S, N):
        if type(S) is np.ndarray or type(N) is np.ndarray:
            S, N = np.asarray(S), np.asarray(N)
            key = (S.shape, S.tobytes(), N.shape, N.tobytes())
            if key != nodes[0]:
                if (N <= 0).any():
                    nonpositive(N[N <= 0][0])
                nodes[:] = key, np.exp((S - N * s0) / (c * N))
            return nodes[1]
        if not (S == point[0] and N == point[1]):
            if N <= 0:
                nonpositive(N)
            point[:] = S, N, np.exp((S - N * s0) / (c * N))
        return point[2]

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
