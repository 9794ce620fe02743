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
from typing import Callable, Iterator, NamedTuple

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
    "InconsistentInitialStateError",
    "OutsideDomainError",
    "pontryagin_dirac_residual",
    "lagrange_dirac_residual",
    "hamilton_dirac_residual",
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
    """Raised when a step fails: its Newton iteration does not converge, its
    Jacobian is not finite or is numerically singular, or its model is
    evaluated outside its domain."""


class InconsistentInitialStateError(ValueError):
    """Raised when a run starts from a state off the kinematic constraint."""


class OutsideDomainError(RuntimeError):
    """Raised by a model evaluated outside its physical domain.

    A Newton trial iterate that raises it counts as a stalled iteration.
    """


def _require_on_constraint(A: np.ndarray, B: np.ndarray, w: np.ndarray) -> None:
    # The one consistency test of a start: its kinematic row A w + B. A
    # consistent start leaves round-off of the size of the row's largest
    # term, max(1, |A_ij w_j|, |B_i|); a NaN anywhere gives a NaN scale.
    res0 = float(np.max(np.abs(A @ w + B), initial=0.0))
    scale = float(np.max(np.abs(np.concatenate([(A * w).ravel(), np.ravel(B), [1.0]]))))
    if not res0 <= 1e-8 * scale:
        raise InconsistentInitialStateError(
            f"initial state violates the kinematic constraint (residual {res0:.3e}, "
            f"row scale {scale:.3e})"
        )


def _max_norm(r: np.ndarray) -> float:
    # Convergence measure of the chord iteration; NaN when r holds one.
    return float(np.abs(r).max())


def _check_section(dt: float) -> None:
    if abs(dt - 1.0) > 1e-12:
        raise NonSectionError(
            f"rate has dt = {dt!r}; trajectories must be sections over time (dt = 1)"
        )


class _MixedPoints(NamedTuple):
    # A model as the mixed-bundle rows read it, one evaluation per point:
    # at(t, x, v, w) is the record (d_x, d_v, d_t, A, B, F), with L's partials
    # and the force F (None without one) at (t, x, v) and the row at (t, x, w);
    # row(t, x, w) is (A, B) alone.
    at: Callable
    row: Callable


def _callable_points(L: TimeLagrangian, C: ConstraintSet, f_ext=None) -> _MixedPoints:
    # The record of a model given as callables: one call of each per point.
    n = L.n

    def at(t, x, v, w):
        d_x = np.asarray(L.d_x(t, x, v), dtype=float).reshape(n)
        d_v = np.asarray(L.d_v(t, x, v), dtype=float).reshape(n)
        F = None if f_ext is None else np.asarray(f_ext.value(t, x, v), dtype=float).reshape(n)
        return d_x, d_v, float(L.d_t(t, x, v)), C.A(t, x, w), C.B(t, x, w), F

    return _MixedPoints(at, lambda t, x, w: (C.A(t, x, w), C.B(t, x, w)))


def _mixed_rows(at, t, x, v, p, w, dx, dp, dpt, lam):
    # The mixed-bundle rows at (t, x, v, p) on the rate (dx, dp, dpt), from the
    # record at(t, x, v, w): velocity match, fiber derivative, momentum
    # balance and pt balance, then A and B.
    d_x, d_v, d_t, A, B, F = at(t, x, v, w)
    r_vel = dx - v
    r_fib = p - d_v
    r_mom = dp - d_x - A.T @ lam
    if F is not None:
        r_mom = r_mom - F
    r_pt = dpt - d_t - float(B @ lam)
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
        _callable_points(L, constraints, f_ext).at, state.t, state.x, state.v, state.p,
        state.v, rate.dx, rate.dp, rate.dpt, lam,
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
        _callable_points(L, momentum_constraints).at, state.t, state.x, state.v, state.p,
        state.p, rate.dx, rate.dp, rate.dpt, lam,
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
    """Outcome of one implicit step: the node row (x, v, p, pt, lam) it ends
    on, lam being the step's midpoint multiplier, and its Newton solve."""

    row: np.ndarray
    newton_iters: int
    residual_norm: float


def _mean(a: np.ndarray) -> np.ndarray:
    # The average of each pair of consecutive nodes: a step's midpoint value.
    return 0.5 * (a[:-1] + a[1:])


def _rate(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    # Each step's difference quotient of node values a at node times t.
    return ((a[1:] - a[:-1]).T / (t[1:] - t[:-1])).T


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

    def midpoints(self, steps: slice = slice(None)) -> tuple[tuple, tuple]:
        """Averaged states and finite-difference rates of the given steps.

        Returns ((t, x, v, pt, p), (dx, dv, dpt, dp)): the fields of the
        averaged state at each step's midpoint and of each step's rate on P,
        one row per step. The rate is a section rate, dt = 1.
        """

        k0, k1, _ = steps.indices(self.n_steps)
        t, *nodes = (a[k0 : k1 + 1] for a in (self.t, self.x, self.v, self.pt, self.p))
        return tuple(map(_mean, (t, *nodes))), tuple(_rate(t, a) for a in nodes)

    def midpoint_state(self, k: int) -> PontryaginState:
        """Averaged state at the midpoint of step k."""

        return PontryaginState(*(a[0] for a in self.midpoints(slice(k, k + 1))[0]))

    def midpoint_samples(self) -> Iterator[tuple[PontryaginState, TangentP, np.ndarray]]:
        (t, x, v, pt, p), (dx, dv, dpt, dp) = self.midpoints()
        for k in range(self.n_steps):
            state = PontryaginState(t=t[k], x=x[k], v=v[k], pt=pt[k], p=p[k])
            yield state, TangentP(1.0, dx[k], dv[k], dpt[k], dp[k]), self.lam[k]


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
    the guess itself must lie inside, or its error ends the solve. A
    converged solve is polished toward _POLISH_FLOOR. The convergence test is
    the max-norm of the residual against tol. An instance must not be shared
    across threads.
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
            raise StepFailureError(str(exc)) from exc
        d = np.abs(np.diag(lu[0]))
        if d.min() <= 1e-14 * max(d.max(), 1e-300):
            raise StepFailureError(
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

    A step advances a node row (x, v, p, pt, lam): the state at a node and
    the multiplier of the step that ends there (zero at the start). Its
    Newton unknowns are the new row itself on the mixed bundle, and the row
    without v on T*Y, where v is dH/dp at the node. Each step is one
    ChordNewton solve to tolerance _NEWTON_TOL, so a stepper instance owns
    its Newton workspace and must not be shared across threads.

    On the mixed bundle a step residual evaluates the model once at its
    midpoint and its row once at its new node: through points, the open
    system's one-pass record of the same model (thermo._mixed_points), or
    else one call of each of the lagrangian's, constraints' and f_ext's.
    Given points, the stepper reads no f_ext: the record carries the force.
    """

    def __init__(
        self,
        formulation: str,
        lagrangian: TimeLagrangian | None = None,
        hamiltonian: TimeHamiltonian | None = None,
        constraints: ConstraintSet | None = None,
        f_ext: ExternalForce | None = None,
        points: _MixedPoints | None = None,
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
        # The slots of a row that are Newton unknowns: all but v on T*Y.
        n, hd = self.n, formulation == "hamilton-dirac"
        self._unknowns = np.r_[:n, 2 * n : 3 * n + 1 + constraints.m] if hd else slice(None)
        if not hd and points is None:
            points = _callable_points(lagrangian, constraints, f_ext)
        self._points = points

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
        row, momentum_side = self._points.row, self.formulation == "lagrange-dirac"
        return lambda t, x, v, p: (*row(t, x, p if momentum_side else v), v)

    def _residual_fn(self, t: float, row: np.ndarray, h: float) -> Callable:
        # The formulation's rows at the averaged midpoint, on the difference
        # quotients across the step from the node row at t, closed by the kinematic
        # row at the new node. y = (x1, [v1,] p1, pt1, lam); z stacks node values.
        n = self.n
        t1, tm = t + h, t + 0.5 * h

        if self.formulation == "hamilton-dirac":
            H, C, node = self.H, self.constraints, self._node_row()
            z0 = row[self._unknowns[: 2 * n + 1]]

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

        at, node_row = self._points
        z0 = row[: 3 * n + 1]
        # The slots the constraint coefficients are taken at: v or p.
        w = slice(2 * n, 3 * n) if self.formulation == "lagrange-dirac" else slice(n, 2 * n)

        def residual(y: np.ndarray) -> np.ndarray:
            z1 = y[: 3 * n + 1]
            zm = 0.5 * (z0 + z1)
            dz = (z1 - z0) / h
            r_vel, r_fib, r_mom, r_pt, *_ = _mixed_rows(
                at, tm, zm[:n], zm[n : 2 * n], zm[2 * n : -1], zm[w],
                dz[:n], dz[2 * n : -1], dz[-1], y[3 * n + 1 :],
            )
            A1, B1 = node_row(t1, y[:n], y[w])
            return np.concatenate([r_vel, r_fib, r_mom, A1 @ y[n : 2 * n] + B1, [r_pt]])

        return residual

    # -- stepping ---------------------------------------------------------

    def _guess(self, row: np.ndarray, h: float) -> np.ndarray:
        # The unknowns of the row with x advanced by h v; lam is the last
        # step's multiplier.
        guess = row.copy()
        guess[: self.n] += h * row[self.n : 2 * self.n]
        return guess[self._unknowns]

    def step(self, t: float, row: np.ndarray, h: float) -> StepResult:
        """Advance the node row at time t by one step of size h.

        The returned row is the node at t + h, with the step's midpoint
        multiplier as its lam. On T*Y its v is dH/dp at the new node.
        """

        y, rn, iters = self._newton(self._residual_fn(t, row, h), self._guess(row, h))
        if self.formulation == "hamilton-dirac":
            n = self.n
            w = np.asarray(self.H.d_p(t + h, y[:n], y[n : 2 * n]), dtype=float).reshape(n)
            y = np.concatenate([y[:n], w, y[n:]])
        return StepResult(y, iters, rn)

    def run(self, start: PontryaginState, h: float, n_steps: int) -> Trajectory:
        """Integrate n_steps fixed steps from start.

        start is a mixed-bundle state on every formulation; the first node
        row is start with a zero multiplier, and on hamilton-dirac with
        v = dH/dp in place of start.v. A start off the kinematic constraint
        raises InconsistentInitialStateError. One call of step per step, in
        the loop the reduced path shares: step k starts at t0 + h added k
        times, h must be positive and finite, and a failed step k, or one
        whose model meets an OutsideDomainError, raises StepFailureError
        naming "step k (t = ...)".
        """

        n, m, K = self.n, self.constraints.m, int(n_steps)
        # The start's kinematic row A w + B; w is the start row's v (on T*Y
        # dH/dp, and the row ignores start.v).
        A, B, w = self._node_row()(start.t, start.x, start.v, start.p)
        _require_on_constraint(A, B, w)
        row = np.concatenate([start.x, w, start.p, [start.pt], np.zeros(m)])
        # A fresh workspace: no Jacobian carries over from an earlier run.
        self._lu, self._steps_since_refresh = None, 0

        def advance(k, t, row):
            result = self.step(t, row, h)
            return result.row, result.newton_iters

        def lift(ys):
            x, v, p = (ys[:, i * n : (i + 1) * n].copy() for i in range(3))
            return x, v, p, ys[:, 3 * n].copy(), ys[1:, 3 * n + 1 :].copy()

        return _march(
            self.formulation, advance, lift, row, h,
            # cumsum adds in sequence, t0 + h + h + ..., as the steps do.
            lambda: np.cumsum(np.concatenate([[start.t], np.full(K, h)])),
        )


# Overflow in a trial evaluation shows in the values, which the Newton
# iteration turns into a StepFailureError; numpy's warnings would only
# repeat it.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _march(formulation, advance, lift, y0, h, times) -> Trajectory:
    # The step loop of every path. times() gives the node times (the path's
    # time rule), and row k of the node array is the path's state vector at
    # node k, y0 first. advance(k, t, y) solves step k from its start time t
    # and row y, and returns row k + 1 and its Newton update count; lift turns
    # the node array into the trajectory's (x, v, p, pt, lam). A step that
    # fails or leaves the model's domain raises one StepFailureError naming it.
    if not 0.0 < h < math.inf:
        raise ValueError("step size must be positive and finite")
    t = times()
    K = t.size - 1
    ys = np.empty((K + 1, y0.size))
    ys[0] = y0
    iters = np.zeros(K, dtype=int)
    what = "reduced step" if formulation == "reduced" else "step"
    for k, t_k in enumerate(t[:-1].tolist()):
        try:
            ys[k + 1], iters[k] = advance(k, t_k, ys[k])
        except (StepFailureError, OutsideDomainError) as exc:
            raise StepFailureError(f"{what} {k} (t = {t_k!r}) failed: {exc}") from exc
    return Trajectory(formulation, float(h), t, *lift(ys), iters)


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

    constraints must be the system's velocity-side set. <p, v> and L give
    the energy and the covariant energy at each node, and the rows A v + B
    the kinematic residual. The energy balance residual is the discrete rate
    of pt minus dL/dt + B lam at the step midpoints of traj.midpoints(), with
    the stored multipliers. Each column is one array pass over all nodes or
    all midpoints (L and constraints that do not broadcast are called per
    point). When thermo_system is given (a SimpleOpenSystem, whose extended
    Lagrangian L must be), one open-system balance over all nodes gives the
    node rows, the power flows and the internal entropy production. The
    first-law residual and the entropy decomposition residual
    (Sdot - Sigmadot - p_Gamma_dot) follow from those columns and the state
    arrays.
    """

    nodes = (traj.t, traj.x, traj.v)
    thermo = {}
    if thermo_system is None:
        A, B = constraints.rows(*nodes)
    else:
        from .thermo import _invariant_columns

        A, B, thermo = _invariant_columns(thermo_system, traj)
    # L follows the node rows, so that a model may reuse what they computed.
    pv, Lv = _dot(traj.p, traj.v), _evaluate(L.value, L.broadcasts, (), *nodes)
    E = pv - Lv
    ce = traj.pt + pv - Lv
    kin = np.abs(np.matmul(A, traj.v[..., None])[..., 0] + B).max(axis=-1, initial=0.0)
    # The midpoints and rate that Trajectory.midpoints() gives, only those read.
    mid, ptdot = [_mean(a) for a in nodes], _rate(traj.t, traj.pt)
    d_t = _evaluate(L.d_t, L.broadcasts, (), *mid)
    lam_B = _dot(constraints.rows(*mid)[1], traj.lam)

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
