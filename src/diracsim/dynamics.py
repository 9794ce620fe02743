"""Residual stacks and the implicit midpoint integrator for the constrained
dynamics on the extended bundles.

Three equivalent local formulations are supported:

* "pontryagin": unknowns (x, v, p, pt) on the mixed bundle, momentum defined
  by the fiber derivative, velocity-side constraint coefficients.
* "lagrange-dirac": the same unknowns with momentum-side constraint
  coefficients evaluated at (t, x, p).
* "hamilton-dirac": unknowns (x, p, pt) on T*Y for a hyperregular
  Hamiltonian.

Each formulation's rows are written once, in _mixed_rows or _phase_rows.
The integrator is a fixed-step implicit midpoint rule: a step's rows are the
formulation's instantaneous residual at the averaged midpoint, on the
difference quotients across the step, with the kinematic row taken at the new
node instead. The multiplier is a per-step algebraic unknown reported at the
midpoint. The nonlinear system is solved by a chord Newton iteration with a
finite-difference Jacobian that is reused across steps and refreshed when
convergence degrades.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor

from .geometry import (
    ConstraintSet,
    PhasePoint,
    PontryaginState,
    TangentP,
    TangentTstarY,
    _dot,
    _evaluate,
    _least_squares,
    _slots,
)
from .lagrangian import (
    ExternalForce,
    TimeHamiltonian,
    TimeLagrangian,
    _chord_solve,
    lagrangian_energy,
)

__all__ = [
    "NonSectionError",
    "StepFailureError",
    "SingularJacobianError",
    "InconsistentInitialStateError",
    "OutsideDomainError",
    "pontryagin_dirac_residual",
    "lagrange_dirac_residual",
    "hamilton_dirac_residual",
    "initialize_covariant_momentum",
    "MultiplierEstimate",
    "recover_multipliers",
    "StepResult",
    "Trajectory",
    "ImplicitMidpointStepper",
    "InvariantSeries",
    "monitor_invariants",
]

FORMULATIONS = ("pontryagin", "lagrange-dirac", "hamilton-dirac")


class NonSectionError(ValueError):
    """Raised when a rate has dt != 1, so the curve is not a section over time."""


class StepFailureError(RuntimeError):
    """Raised when the Newton iteration for a step does not converge."""


class SingularJacobianError(RuntimeError):
    """Raised when the step Jacobian is numerically singular."""


class InconsistentInitialStateError(ValueError):
    """Raised when a run starts from a state off the kinematic constraint."""


class OutsideDomainError(RuntimeError):
    """Raised by a model evaluated outside its physical domain.

    A Newton trial iterate that raises it counts as a stalled iteration.
    """


def _max_norm(r: np.ndarray) -> float:
    # Convergence measure of the chord iteration; NaN when r holds one.
    return float(np.abs(r).max())


def _check_section(dt: float) -> None:
    if abs(dt - 1.0) > 1e-12:
        raise NonSectionError(
            f"rate has dt = {dt!r}; trajectories must be sections over time (dt = 1)"
        )


def _mixed_rows(L, C, t, x, v, p, w, dx, dp, dpt, lam, f_ext):
    # The mixed-bundle rows at (t, x, v, p) on the rate (dx, dp, dpt): velocity
    # match, fiber derivative, momentum balance and pt balance; A, B at (t, x, w).
    n = L.n
    A = C.A(t, x, w)
    B = C.B(t, x, w)
    r_vel = dx - v
    r_fib = p - np.asarray(L.d_v(t, x, v), dtype=float).reshape(n)
    r_mom = dp - np.asarray(L.d_x(t, x, v), dtype=float).reshape(n) - A.T @ lam
    if f_ext is not None:
        r_mom = r_mom - np.asarray(f_ext.value(t, x, v), dtype=float).reshape(n)
    r_pt = dpt - float(L.d_t(t, x, v)) - float(B @ lam)
    return r_vel, r_fib, r_mom, r_pt, A, B


def _phase_rows(H, C, t, x, p, dx, dp, dpt, lam):
    # The T*Y rows at (t, x, p) on the rate (dx, dp, dpt): velocity match,
    # momentum balance and pt balance; then A and B at (t, x, p) and w = dH/dp.
    n = H.n
    A = C.A(t, x, p)
    B = C.B(t, x, p)
    w = np.asarray(H.d_p(t, x, p), dtype=float).reshape(n)
    r_vel = dx - w
    r_mom = dp + np.asarray(H.d_x(t, x, p), dtype=float).reshape(n) - A.T @ lam
    r_pt = dpt + float(H.d_t(t, x, p)) - float(B @ lam)
    return r_vel, r_mom, r_pt, A, B, w


def pontryagin_dirac_residual(
    L: TimeLagrangian,
    constraints: ConstraintSet,
    state: PontryaginState,
    rate: TangentP,
    lam: np.ndarray,
    f_ext: ExternalForce | None = None,
) -> np.ndarray:
    """Instantaneous residual of the mixed-bundle equations of motion.

    Rows, in order: velocity match (xdot - v), fiber derivative (p - dL/dv),
    momentum balance (pdot - dL/dx - lam A - F_ext), kinematic constraint
    (A v + B), and the balance for the momentum conjugate to time
    (ptdot - dL/dt - lam B). Coefficients are velocity-side, evaluated at
    (t, x, v). Returns 3n + 1 + m entries; zero along exact solutions.
    """

    _check_section(rate.dt)
    lam = np.asarray(lam, dtype=float).reshape(constraints.m)
    r_vel, r_fib, r_mom, r_pt, A, B = _mixed_rows(
        L, constraints, state.t, state.x, state.v, state.p, state.v,
        rate.dx, rate.dp, rate.dpt, lam, f_ext,
    )
    return np.concatenate([r_vel, r_fib, r_mom, A @ state.v + B, [r_pt]])


def lagrange_dirac_residual(
    L: TimeLagrangian,
    momentum_constraints: ConstraintSet,
    state: PontryaginState,
    rate: TangentP,
    lam: np.ndarray,
) -> np.ndarray:
    """Instantaneous residual of the velocity-side equations with momentum-side
    constraint coefficients.

    momentum_constraints must evaluate its coefficients at (t, x, p). Rows, in
    order: velocity match, balance of the momentum conjugate to time, momentum
    balance, kinematic constraint on xdot, fiber derivative, and the base
    point condition pt + E_L = 0. Returns 3n + 2 + m entries.
    """

    _check_section(rate.dt)
    lam = np.asarray(lam, dtype=float).reshape(momentum_constraints.m)
    r_vel, r_fib, r_mom, r_pt, A, B = _mixed_rows(
        L, momentum_constraints, state.t, state.x, state.v, state.p, state.p,
        rate.dx, rate.dp, rate.dpt, lam, None,
    )
    r_base = state.pt + lagrangian_energy(L, state.t, state.x, state.v)
    return np.concatenate([r_vel, [r_pt], r_mom, A @ rate.dx + B, r_fib, [r_base]])


def hamilton_dirac_residual(
    H: TimeHamiltonian,
    momentum_constraints: ConstraintSet,
    z: PhasePoint,
    rate: TangentTstarY,
    lam: np.ndarray,
) -> np.ndarray:
    """Instantaneous residual of the phase-space equations on T*Y.

    Rows, in order: velocity match (xdot - dH/dp), balance of the momentum
    conjugate to time (ptdot + dH/dt - lam B), momentum balance
    (pdot + dH/dx - lam A), kinematic constraint (A dH/dp + B). Coefficients
    are evaluated at (t, x, p). Returns 2n + 1 + m entries.
    """

    _check_section(rate.dt)
    lam = np.asarray(lam, dtype=float).reshape(momentum_constraints.m)
    r_vel, r_mom, r_pt, A, B, w = _phase_rows(
        H, momentum_constraints, z.t, z.x, z.p, rate.dx, rate.dp, rate.dpt, lam
    )
    return np.concatenate([r_vel, [r_pt], r_mom, A @ w + B])


def initialize_covariant_momentum(
    L: TimeLagrangian, t: float, x: np.ndarray, v: np.ndarray
) -> float:
    """Natural initial value of the momentum conjugate to time.

    Returns -E_L(t, x, v). Together with p = dL/dv this makes the covariant
    energy vanish at the initial point, and it stays zero along solutions
    without external forcing.
    """

    return -lagrangian_energy(L, t, x, v)


@dataclass(frozen=True)
class MultiplierEstimate:
    """Least squares multiplier recovery and its orthogonal residual."""

    lam: np.ndarray
    residual: float


def recover_multipliers(
    L: TimeLagrangian,
    constraints: ConstraintSet,
    state: PontryaginState,
    rate: TangentP,
    f_ext: ExternalForce | None = None,
) -> MultiplierEstimate:
    """Recover constraint multipliers from the momentum balance rows.

    Solves pdot - dL/dx - F_ext = lam A in the least squares sense over the n
    momentum rows. With m < n the system is overdetermined; the reported
    residual is the part of the left side outside the row span of A and
    vanishes along exact solutions.
    """

    t, x, v, dp = (np.asarray(a)[None] for a in (state.t, state.x, state.v, rate.dp))
    A = constraints.A(state.t, state.x, state.v)[None]
    lam, residual = _recovered_multipliers(L, A, t, x, v, dp, f_ext)
    return MultiplierEstimate(lam=lam[0], residual=float(residual[0]))


def _recovered_multipliers(L, A, t, x, v, dp, f_ext) -> tuple[np.ndarray, np.ndarray]:
    # recover_multipliers at K stacked points t (K,), x, v with their rows A
    # (K, m, n) and rates dp (K, n): the multipliers (K, m) and the
    # residuals (K,).
    n = L.n
    rhs = dp - _evaluate(L.d_x, L.broadcasts, (n,), t, x, v)
    if f_ext is not None:
        rhs = rhs - _evaluate(f_ext.value, f_ext.broadcasts, (n,), t, x, v)
    return _least_squares(A.transpose(0, 2, 1), rhs)


@dataclass(frozen=True)
class StepResult:
    """Outcome of one implicit step."""

    state: PontryaginState | PhasePoint
    lam: np.ndarray
    newton_iters: int
    residual_norm: float


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step trajectory record. Immutable after a run.

    Node arrays have K + 1 rows for K steps; lam holds the per-step midpoint
    multiplier (K rows). For the hamilton-dirac formulation the v column is
    the reconstruction dH/dp at the nodes.
    """

    formulation: str
    h: float
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    p: np.ndarray
    pt: np.ndarray
    lam: np.ndarray
    newton_iters: np.ndarray

    def __post_init__(self):
        for name in ("t", "x", "v", "p", "pt", "lam", "newton_iters"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def n_steps(self) -> int:
        return self.x.shape[0] - 1

    def midpoints(self, steps: slice = slice(None)) -> tuple[tuple, np.ndarray]:
        """Averaged states and finite-difference rates of the given steps.

        Returns ((t, x, v, pt, p), rates): the fields of the averaged state at
        each step's midpoint, one row per step, and each step's rate as a row
        (dt, dx, dv, dpt, dp) on P with dt = 1 (a section rate).
        """

        k0, k1, _ = steps.indices(self.n_steps)
        nodes = [a[k0 : k1 + 1] for a in (self.t, self.x, self.v, self.pt, self.p)]
        h = nodes[0][1:] - nodes[0][:-1]
        states = tuple(0.5 * (a[:-1] + a[1:]) for a in nodes)
        diffs = [((a[1:] - a[:-1]).T / h).T for a in nodes[1:]]
        return states, np.column_stack([np.ones(len(h)), *diffs])

    def midpoint_state(self, k: int) -> PontryaginState:
        """Averaged state at the midpoint of step k."""

        return PontryaginState(*(a[0] for a in self.midpoints(slice(k, k + 1))[0]))

    def midpoint_samples(self) -> Iterator[tuple[PontryaginState, TangentP, np.ndarray]]:
        (t, x, v, pt, p), rates = self.midpoints()
        for k in range(self.n_steps):
            state = PontryaginState(t=t[k], x=x[k], v=v[k], pt=pt[k], p=p[k])
            yield state, TangentP(*_slots(rates[k], self.n)), self.lam[k]


# Residual floor for the polish iterations after the main tolerance is met.
_POLISH_FLOOR = 1e-15
# Converged steps after which the cached Jacobian is rebuilt even if the
# chord iteration has not stalled.
_JACOBIAN_REFRESH = 50
# Chord iterations per attempt before the attempt counts as stalled.
_MAX_ITER = 50
# Max-norm residual tolerance of the stepper's Newton iteration.
_NEWTON_TOL = 1e-11


class ChordNewton:
    """Simplified (chord) Newton solver for the implicit midpoint equations.

    Holds the LU factorization of a finite-difference Jacobian and reuses it
    across solves (Hairer-Wanner, Solving ODEs II, IV.8). The Jacobian is
    rebuilt after _JACOBIAN_REFRESH converged solves, and a solve that stalls
    restarts once from its guess with a fresh one. A trial iterate outside
    the model's domain (OutsideDomainError) stalls its attempt the same way;
    the guess itself must lie inside. A converged solve is polished toward
    _POLISH_FLOOR. The convergence test is the max-norm of the residual
    against tol. An instance must not be shared across threads.
    """

    def __init__(self, tol: float):
        self.tol = float(tol)
        self._lu = None
        self._steps_since_refresh = 0

    def _factor(self, residual, y: np.ndarray, r0: np.ndarray):
        # r0 is residual(y), which the caller has already evaluated.
        K = y.size
        J = np.empty((K, K))
        for j in range(K):
            eps = 1.49e-8 * (1.0 + abs(y[j]))
            yp = y.copy()
            yp[j] += eps
            J[:, j] = (residual(yp) - r0) / eps
        if not np.isfinite(J).all():
            raise StepFailureError(
                "the finite-difference step Jacobian is not finite; the residual "
                "overflows or is undefined near this state"
            )
        try:
            with warnings.catch_warnings():
                # The diagonal inspection below turns exact singularity into a
                # typed error; scipy's advance warning would be redundant.
                warnings.simplefilter("ignore", LinAlgWarning)
                lu = lu_factor(J)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(str(exc)) from exc
        d = np.abs(np.diag(lu[0]))
        if d.min() <= 1e-14 * max(d.max(), 1e-300):
            raise SingularJacobianError(
                "step Jacobian is numerically singular; the equations are "
                "degenerate at this state"
            )
        self._lu = lu
        self._steps_since_refresh = 0
        return lu

    def _newton(self, residual, guess: np.ndarray) -> tuple[np.ndarray, float, int]:
        tol = self.tol
        # Both attempts start from the guess; its residual is evaluated once.
        y0 = guess.copy()
        r0 = residual(y0)
        outside = []  # the last OutsideDomainError of a trial iterate

        def trial(y):
            # Outside the domain the residual reads NaN, which ends the
            # attempt like a stall and rejects a polish iterate.
            try:
                return residual(y)
            except OutsideDomainError as exc:
                outside[:] = [exc]
                return np.full(y.size, np.nan)

        for attempt in (0, 1):
            y, r = y0, r0
            if attempt == 1 or self._lu is None or (
                self._steps_since_refresh >= _JACOBIAN_REFRESH
            ):
                self._factor(trial, y, r)
            lu = self._lu
            rn = _max_norm(r)
            iters = 0
            converged = rn <= tol
            # A non-finite residual is never solved against: it ends the
            # attempt like a stall.
            while not converged and iters < _MAX_ITER and math.isfinite(rn):
                y = y - _chord_solve(lu, r)
                r = trial(y)
                prev, rn = rn, _max_norm(r)
                iters += 1
                if rn <= tol:
                    converged = True
                    break
                if iters >= 2 and rn > 0.9 * prev:
                    # Chord iteration stalled; retry once with a fresh Jacobian.
                    break
            if converged:
                # Free polish iterations push the residual toward round-off so
                # per-step errors stay far below the monitoring tolerances.
                for _ in range(3):
                    if rn <= _POLISH_FLOOR:
                        break
                    y2 = y - _chord_solve(lu, r)
                    r2 = trial(y2)
                    rn2 = _max_norm(r2)
                    if not rn2 < rn:
                        break
                    y, r, rn = y2, r2, rn2
                    iters += 1
                self._steps_since_refresh += 1
                return y, rn, iters
            if attempt == 1:
                why = f"; a trial iterate was outside the domain: {outside[0]}" if outside else ""
                raise StepFailureError(
                    f"Newton did not converge: residual {rn:.3e} after "
                    f"{iters} iterations (tol {tol:.1e}){why}"
                )
            self._lu = None
        raise AssertionError("unreachable")


class ImplicitMidpointStepper(ChordNewton):
    """Fixed-step implicit midpoint integrator for one formulation.

    Each step is one ChordNewton solve to tolerance _NEWTON_TOL, so a stepper
    instance owns its Newton workspace and must not be shared across threads.
    The momentum conjugate to time is one of the Newton unknowns.
    """

    def __init__(
        self,
        formulation: str,
        lagrangian: TimeLagrangian | None = None,
        hamiltonian: TimeHamiltonian | None = None,
        constraints: ConstraintSet | None = None,
        f_ext: ExternalForce | None = None,
    ):
        if formulation not in FORMULATIONS:
            raise ValueError(
                f"unknown formulation {formulation!r}; choose from {FORMULATIONS}"
            )
        if formulation == "hamilton-dirac":
            if hamiltonian is None:
                raise ValueError("hamilton-dirac needs a TimeHamiltonian")
            self.n = hamiltonian.n
        else:
            if lagrangian is None:
                raise ValueError(f"{formulation} needs a TimeLagrangian")
            self.n = lagrangian.n
        if constraints is None:
            raise ValueError("a ConstraintSet is required (use unconstrained(n))")
        if constraints.n != self.n:
            raise ValueError("constraint dimension does not match the system")
        if f_ext is not None and formulation != "pontryagin":
            raise ValueError("external forces are only supported on the pontryagin path")

        super().__init__(_NEWTON_TOL)
        self.formulation = formulation
        self.L = lagrangian
        self.H = hamiltonian
        self.constraints = constraints
        self.f_ext = f_ext
        # Multiplier of the last accepted step, the next step's guess.
        self._last_lam = np.zeros(constraints.m)

    # -- residual assembly ------------------------------------------------

    def _node_row(self) -> Callable:
        # (t, x, v, p) -> (A, B, w) of the kinematic row A w + B at a node,
        # with the formulation's coefficient point and w chosen here, once.
        C = self.constraints
        if self.formulation == "hamilton-dirac":
            H, n = self.H, self.n
            return lambda t, x, v, p: (
                C.A(t, x, p), C.B(t, x, p), np.asarray(H.d_p(t, x, p), dtype=float).reshape(n)
            )
        if self.formulation == "lagrange-dirac":
            return lambda t, x, v, p: (C.A(t, x, p), C.B(t, x, p), v)
        return lambda t, x, v, p: (C.A(t, x, v), C.B(t, x, v), v)

    def _residual_fn(self, state, h: float) -> Callable[[np.ndarray], np.ndarray]:
        # The formulation's rows at the averaged midpoint, on the difference
        # quotients across the step, closed by the kinematic row at the new
        # node. y = (x1, [v1,] p1, pt1, lam); z stacks the node values.
        n, C, node = self.n, self.constraints, self._node_row()
        t1, tm = state.t + h, state.t + 0.5 * h

        if self.formulation == "hamilton-dirac":
            H = self.H
            z0 = np.concatenate([state.x, state.p, [state.pt]])

            def residual(y: np.ndarray) -> np.ndarray:
                z1 = y[: 2 * n + 1]
                zm = 0.5 * (z0 + z1)
                dz = (z1 - z0) / h
                r_vel, r_mom, r_pt, *_ = _phase_rows(
                    H, C, tm, zm[:n], zm[n:-1], dz[:n], dz[n:-1], dz[-1], y[2 * n + 1 :]
                )
                A1, B1, w1 = node(t1, y[:n], None, y[n : 2 * n])
                return np.concatenate([r_vel, r_mom, A1 @ w1 + B1, [r_pt]])

            return residual

        L, f_ext = self.L, self.f_ext
        z0 = np.concatenate([state.x, state.v, state.p, [state.pt]])
        # The midpoint the constraint coefficients are taken at: v or p.
        w = slice(2 * n, 3 * n) if self.formulation == "lagrange-dirac" else slice(n, 2 * n)

        def residual(y: np.ndarray) -> np.ndarray:
            z1 = y[: 3 * n + 1]
            zm = 0.5 * (z0 + z1)
            dz = (z1 - z0) / h
            r_vel, r_fib, r_mom, r_pt, *_ = _mixed_rows(
                L, C, tm, zm[:n], zm[n : 2 * n], zm[2 * n : -1], zm[w],
                dz[:n], dz[2 * n : -1], dz[-1], y[3 * n + 1 :], f_ext,
            )
            A1, B1, w1 = node(t1, y[:n], y[n : 2 * n], y[2 * n : 3 * n])
            return np.concatenate([r_vel, r_fib, r_mom, A1 @ w1 + B1, [r_pt]])

        return residual

    # -- stepping ---------------------------------------------------------

    def _guess(self, state, h: float) -> np.ndarray:
        n, lam0 = self.n, self._last_lam
        if self.formulation == "hamilton-dirac":
            w0 = np.asarray(self.H.d_p(state.t, state.x, state.p), dtype=float).reshape(n)
            return np.concatenate([state.x + h * w0, state.p, [state.pt], lam0])
        return np.concatenate([state.x + h * state.v, state.v, state.p, [state.pt], lam0])

    def step(self, state, h: float) -> StepResult:
        """Advance one step of size h from the given state."""

        residual = self._residual_fn(state, h)
        y, rn, iters = self._newton(residual, self._guess(state, h))
        n, lam = self.n, y[y.size - self.constraints.m :]
        if self.formulation == "hamilton-dirac":
            new = PhasePoint(t=state.t + h, x=y[:n], pt=y[2 * n], p=y[n : 2 * n])
        else:
            new = PontryaginState(
                t=state.t + h, x=y[:n], v=y[n : 2 * n], pt=y[3 * n], p=y[2 * n : 3 * n]
            )
        self._last_lam = lam.copy()
        return StepResult(state=new, lam=lam.copy(), newton_iters=iters, residual_norm=rn)

    def _initial_kinematic_residual(self, state) -> tuple[float, float]:
        # max |A w + B| and the row's term scale max(1, |A_ij w_j|, |B_i|):
        # a consistent state at a large physical scale leaves round-off of
        # the size of its largest term. A NaN anywhere gives a NaN scale.
        A, B, w = self._node_row()(state.t, state.x, getattr(state, "v", None), state.p)
        terms = np.abs(np.concatenate([(A * w).ravel(), np.ravel(B), [1.0]]))
        return float(np.max(np.abs(A @ w + B), initial=0.0)), float(np.max(terms))

    # Overflow in a trial evaluation shows in the values, which the Newton
    # iteration turns into a StepFailureError; numpy's warnings would only
    # repeat it.
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def run(self, state, h: float, n_steps: int) -> Trajectory:
        """Integrate n_steps fixed steps from the given state."""

        if h <= 0:
            raise ValueError("step size must be positive")
        res0, scale = self._initial_kinematic_residual(state)
        if not res0 <= 1e-8 * scale:
            raise InconsistentInitialStateError(
                f"initial state violates the kinematic constraint (residual {res0:.3e}, "
                f"row scale {scale:.3e})"
            )
        n, m = self.n, self.constraints.m
        # A fresh workspace: no Jacobian or guess carries over from an earlier run.
        self._lu, self._steps_since_refresh, self._last_lam = None, 0, np.zeros(m)
        K = int(n_steps)
        t = np.empty(K + 1)
        x = np.empty((K + 1, n))
        v = np.empty((K + 1, n))
        p = np.empty((K + 1, n))
        pt = np.empty(K + 1)
        lam = np.empty((K, m))
        iters = np.zeros(K, dtype=int)

        def record(k, s):
            t[k] = s.t
            x[k] = s.x
            p[k] = s.p
            pt[k] = s.pt
            if self.formulation == "hamilton-dirac":
                v[k] = np.asarray(self.H.d_p(s.t, s.x, s.p), dtype=float).reshape(n)
            else:
                v[k] = s.v

        record(0, state)
        current = state
        for k in range(K):
            try:
                result = self.step(current, h)
            except (StepFailureError, SingularJacobianError) as exc:
                raise StepFailureError(f"step {k} (t = {current.t!r}) failed: {exc}") from exc
            current = result.state
            lam[k] = result.lam
            iters[k] = result.newton_iters
            record(k + 1, current)
        return Trajectory(
            formulation=self.formulation,
            h=float(h),
            t=t,
            x=x,
            v=v,
            p=p,
            pt=pt,
            lam=lam,
            newton_iters=iters,
        )


def _cumulative_trapezoid(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Trapezoid integral of node values y from t[0] to each node (0 at t[0]).
    return np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (y[:-1] + y[1:]))])


@dataclass(frozen=True)
class InvariantSeries:
    """Per-node and per-step diagnostic series for a trajectory.

    Node arrays (length K + 1): t, energy (E = <p, v> - L), covariant_energy
    (pt + <p, v> - L), covariant_energy_drift (relative to the initial node),
    kinematic_residual, and for open thermodynamic systems the external power
    flows power_mechanical (P_W), power_heating (P_H) and power_matter (P_M),
    entropy_production (I), and first_law_residual (E(t) - E(0) minus the
    trapezoid integral of P_W + P_H + P_M, zero at the first node).
    Step arrays (length K): t_mid, energy_balance_residual (discrete balance
    of the momentum conjugate to time), entropy_decomposition_residual. The
    thermodynamic fields are None for purely mechanical systems.
    """

    t: np.ndarray
    t_mid: np.ndarray
    energy: np.ndarray
    covariant_energy: np.ndarray
    covariant_energy_drift: np.ndarray
    energy_balance_residual: np.ndarray
    kinematic_residual: np.ndarray
    entropy_decomposition_residual: np.ndarray | None = None
    entropy_production: np.ndarray | None = None
    power_mechanical: np.ndarray | None = None
    power_heating: np.ndarray | None = None
    power_matter: np.ndarray | None = None
    first_law_residual: np.ndarray | None = None

    def summary(self) -> dict[str, float]:
        out = {
            "max_abs_covariant_energy_drift": float(
                np.max(np.abs(self.covariant_energy_drift))
            ),
            "max_abs_energy_balance_residual": float(
                np.max(np.abs(self.energy_balance_residual), initial=0.0)
            ),
            "max_kinematic_residual": float(np.max(self.kinematic_residual)),
        }
        if self.entropy_decomposition_residual is not None:
            out["max_abs_entropy_decomposition_residual"] = float(
                np.max(np.abs(self.entropy_decomposition_residual), initial=0.0)
            )
        if self.entropy_production is not None:
            out["min_entropy_production"] = float(np.min(self.entropy_production))
        return out


def monitor_invariants(
    L: TimeLagrangian,
    constraints: ConstraintSet,
    traj: Trajectory,
    thermo_system=None,
) -> InvariantSeries:
    """Evaluate conservation and consistency diagnostics along a trajectory.

    <p, v> and L give the energy and the covariant energy at each node, and
    the constraint row the kinematic residual. The energy balance residual
    is the discrete rate of the momentum conjugate to time minus its law,
    with coefficients at the step midpoint, using the stored midpoint
    multipliers. Each column is one array pass over all nodes or all step
    midpoints (L and constraints that do not broadcast are called per point).
    When thermo_system is given (a SimpleOpenSystem, whose extended
    Lagrangian L must be), the open-system balance gives the row, the power
    flows and the internal entropy production. The first-law residual and
    the entropy decomposition residual (Sdot - Sigmadot - p_Gamma_dot)
    follow from those columns and the state arrays.
    """

    # The step midpoints and pt rates, each the same bits as per step.
    mid = (
        0.5 * (traj.t[:-1] + traj.t[1:]),
        *(0.5 * (a[:-1] + a[1:]) for a in (traj.x, traj.v)),
    )
    ptdot = (traj.pt[1:] - traj.pt[:-1]) / (traj.t[1:] - traj.t[:-1])
    thermo = {}
    if thermo_system is None:
        nodes = (traj.t, traj.x, traj.v)
        A, B = constraints.rows(*nodes)
        pv = _dot(traj.p, traj.v)
        Lv = _evaluate(L.value, L.broadcasts, (), *nodes)
        kin = np.abs(np.matmul(A, traj.v[..., None])[..., 0] + B).max(axis=-1, initial=0.0)
        d_t = _evaluate(L.d_t, L.broadcasts, (), *mid)
        lam_B = _dot(constraints.rows(*mid)[1], traj.lam)
    else:
        from .thermo import _invariant_columns

        pv, Lv, kin, d_t, lam_B, thermo = _invariant_columns(thermo_system, L, traj, mid)
    E = pv - Lv
    ce = traj.pt + pv - Lv

    if thermo_system is not None:
        lay = thermo_system.layout
        S = traj.x[:, lay.S]
        Sg = traj.x[:, lay.Sigma]
        pG = traj.p[:, lay.Gamma]
        P = thermo["power_mechanical"] + thermo["power_heating"] + thermo["power_matter"]
        thermo.update(
            entropy_decomposition_residual=(
                (S[1:] - S[:-1]) - (Sg[1:] - Sg[:-1]) - (pG[1:] - pG[:-1])
            ) / traj.h,
            first_law_residual=(E - E[0]) - _cumulative_trapezoid(traj.t, P),
        )
    return InvariantSeries(
        t=traj.t.copy(),
        t_mid=mid[0],
        energy=E,
        covariant_energy=ce,
        covariant_energy_drift=ce - ce[0],
        energy_balance_residual=ptdot - d_t - lam_B,
        kinematic_residual=kin,
        **thermo,
    )
