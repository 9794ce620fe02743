"""Residual stacks and the implicit midpoint integrator for the constrained
dynamics on the extended bundles.

Three equivalent local formulations are supported:

* "pontryagin": unknowns (x, v, p, pt) on the mixed bundle, momentum defined
  by the fiber derivative, velocity-side constraint coefficients.
* "lagrange-dirac": the same unknowns with momentum-side constraint
  coefficients evaluated at (t, x, p).
* "hamilton-dirac": unknowns (x, p, pt) on T*Y for a hyperregular
  Lagrangian, whose velocity is the fiber velocity v(t, x, p) of L.

Every formulation's rows are written once, in _mixed_rows: on T*Y they are
the mixed-bundle rows at v(t, x, p) without the fiber row, and the public
hamilton_dirac_residual reads them through a record of H.
The integrator is a fixed-step implicit midpoint rule: a step's rows are the
formulation's instantaneous residual at the averaged midpoint, on the
difference quotients across the step, with the kinematic row taken at the new
node instead. Its unknowns are the step's increments, so the quotients are
the increments over h, and its multiplier is a per-step algebraic unknown
reported at the midpoint. The nonlinear system is solved by a chord Newton
iteration with a finite-difference Jacobian that is reused across steps and
refreshed when convergence degrades, from a guess extrapolated from the last
two steps.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
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
    _blocks,
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
    legendre_dual,
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
    # row(t, x, w) is (A, B) alone. With broadcasts set, both also take K
    # stacked points at one time t, x, v and w of shape (K, n), and give each
    # entry of the record over them (shapes that broadcast to (K, n),
    # (K, m, n) and so on), entry by entry the bits of the point's.
    at: Callable
    row: Callable
    broadcasts: bool = False


def _callable_points(L: TimeLagrangian, C: ConstraintSet, f_ext=None) -> _MixedPoints:
    # The record of a model given as callables: one call of each per point,
    # and per stack of points when L, C and f_ext broadcast.
    n = L.n

    def at(t, x, v, w):
        if x.ndim == 2:
            ts = np.full(len(x), t)
            F = None if f_ext is None else np.asarray(f_ext.value(ts, x, v), dtype=float)
            d_x, d_v, d_t = (np.asarray(d(ts, x, v), dtype=float) for d in (L.d_x, L.d_v, L.d_t))
            return d_x, d_v, d_t, *row(t, x, w), F
        d_x = np.asarray(L.d_x(t, x, v), dtype=float).reshape(n)
        d_v = np.asarray(L.d_v(t, x, v), dtype=float).reshape(n)
        F = None if f_ext is None else np.asarray(f_ext.value(t, x, v), dtype=float).reshape(n)
        return d_x, d_v, float(L.d_t(t, x, v)), C.A(t, x, w), C.B(t, x, w), F

    def row(t, x, w):
        if x.ndim == 2:
            A, B = C.eval_rows(np.full(len(x), t), x, w)
            return np.asarray(A, dtype=float), np.asarray(B, dtype=float)
        return C.A(t, x, w), C.B(t, x, w)

    broadcasts = L.broadcasts and C.eval_rows is not None and (
        f_ext is None or f_ext.broadcasts
    )
    return _MixedPoints(at, row, broadcasts)


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


def _matvecs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a[k] @ b[k] at each of K stacked points, b of shape (K, c) and a of
    # (K, r, c) or a shape that broadcasts to it: the stacked matmul runs the
    # kernel of a matrix-vector product at one point on each slice (gemv,
    # or a dot product for one row), so the bits match.
    return np.matmul(a, b[..., None])[..., 0]


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
    n, C = H.n, momentum_constraints
    lam = np.asarray(lam, dtype=float).reshape(C.m)

    def at(t, x, v, p):
        # H as a mixed-bundle record at v = dH/dp: -dH/dx and -dH/dt are L's
        # partials there, dL/dv is p, and the rows are taken at p.
        d_x = -np.asarray(H.d_x(t, x, p), dtype=float).reshape(n)
        return d_x, p, -float(H.d_t(t, x, p)), C.A(t, x, p), C.B(t, x, p), None

    w = np.asarray(H.d_p(z.t, z.x, z.p), dtype=float).reshape(n)
    r_vel, _, r_mom, r_pt, A, B = _mixed_rows(
        at, z.t, z.x, w, z.p, z.p, rate.dx, rate.dp, rate.dpt, lam
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
    on, lam being the step's midpoint multiplier, and its Newton solve, whose
    solution holds the step's increments of the unknown slots (x, v, p, pt,
    without v on T*Y) and then lam. newton_iters counts the solve's chord
    updates, the final one included; residual_norm is the max-norm of the
    residual at the last iterate the solve evaluated, the one before the
    final update, whose own residual is not evaluated."""

    row: np.ndarray
    newton_iters: int
    residual_norm: float
    solution: np.ndarray


def _mean(a: np.ndarray) -> np.ndarray:
    # The average of each pair of consecutive nodes: a step's midpoint value.
    # Halved before the sum, which then cannot overflow; for normal numbers
    # the bits are those of 0.5 (a0 + a1), both rounded once.
    return 0.5 * a[:-1] + 0.5 * a[1:]


def _rate(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    # Each step's difference quotient of node values a at node times t.
    return ((a[1:] - a[:-1]).T / (t[1:] - t[:-1])).T


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step trajectory record. Immutable after a run.

    Node arrays have K + 1 rows for K steps; lam holds the per-step midpoint
    multiplier (K rows). For the hamilton-dirac formulation the v column is
    the fiber velocity v(t, x, p) of L at the nodes, which is dH/dp.
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


# Residual at or below which a converged solve makes no final update.
_POLISH_FLOOR = 1e-15
# Converged steps after which the cached Jacobian is rebuilt even if the
# chord iteration has not stalled.
_JACOBIAN_REFRESH = 50
# Chord iterations per attempt before the attempt counts as stalled.
_MAX_ITER = 50
# Max-norm residual tolerance of the stepper's Newton iteration. From an
# extrapolated guess the particle converges on a Jacobian it refreshes only
# every _JACOBIAN_REFRESH steps; at 1e-11 its lam would then move 5e-10
# relative, past the outputs' 1e-12 bound, where at 1e-13 it moves 5e-13.
_NEWTON_TOL = 1e-13


class ChordNewton:
    """Simplified (chord) Newton solver for the implicit midpoint equations.

    Holds the LU factorization of a finite-difference Jacobian and reuses it
    across solves (Hairer-Wanner, Solving ODEs II, IV.8). The Jacobian is
    rebuilt after _JACOBIAN_REFRESH converged solves, and a solve that stalls
    restarts once from its guess with a fresh one. A trial iterate outside
    the model's domain (OutsideDomainError) stalls its attempt the same way;
    the guess itself must lie inside, or its error ends the solve. A rebuild
    evaluates the residual at its perturbed iterates through one stacked
    residual per block of them, which the caller may give and which is
    otherwise a map of the point residual; a perturbed iterate outside the
    domain fails the rebuild as a non-finite Jacobian. The convergence test is
    the max-norm of the residual against tol. With polish, a solve that
    converges with a residual above _POLISH_FLOOR ends on one more chord
    update, y - J^-1 r, and evaluates no residual at it, as Hairer-Wanner's
    simplified Newton takes its last iterate; the solve's residual norm is
    then that of the iterate before it. Without polish it stops at
    convergence. An instance must not be shared across threads.
    """

    def __init__(self, tol: float, polish: bool):
        self.tol = float(tol)
        self.polish = bool(polish)
        self._lu = None
        self._steps_since_refresh = 0

    def _factor(self, stacked, y: np.ndarray, r0: np.ndarray):
        # The finite-difference Jacobian at y, whose residual r0 the caller
        # has already evaluated: column j is the residual at y with y_j moved
        # by eps_j, less r0, over eps_j. stacked(Y) gives the residual at each
        # row of Y (K, N); the perturbed iterates go through it _BLOCK at a
        # time, and a block that leaves the model's domain reads NaN.
        N = y.size
        eps = 1.49e-8 * (1.0 + np.abs(y))
        Jt = np.empty((N, N))  # row j is column j of J
        for cols in _blocks(N):
            k = np.arange(cols.stop - cols.start)
            Y = np.repeat(y[None], k.size, axis=0)
            Y[k, cols.start + k] += eps[cols]
            try:
                R = stacked(Y)
            except OutsideDomainError:
                R = np.nan
            Jt[cols] = (R - r0) / eps[cols, None]
        J = Jt.T
        if not np.isfinite(J).all():
            raise StepFailureError(
                "the finite-difference step Jacobian is not finite; the residual "
                "overflows or is undefined near this state"
            )
        try:
            with warnings.catch_warnings():
                # The diagonal inspection below turns exact singularity into a
                # typed error; scipy's advance warning would be redundant, and
                # so would its finiteness check, since J was tested above.
                warnings.simplefilter("ignore", LinAlgWarning)
                lu = lu_factor(J, check_finite=False)
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

    def _newton(self, residual, guess: np.ndarray, stacked=None) -> tuple[np.ndarray, float, int]:
        # stacked(Y) is residual at each row of Y (K, N) as a (K, N) array,
        # by default one call of residual per row; the Jacobian reads it.
        stacked = stacked or (lambda Y: np.array([residual(y) for y in Y]))
        tol = self.tol
        # Both attempts start from the guess; its residual is evaluated once.
        y0 = guess.copy()
        r0 = residual(y0)
        outside = []  # the last OutsideDomainError of a trial iterate

        def trial(y):
            # Outside the domain the residual reads NaN, which ends the
            # attempt like a stall.
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
                self._factor(stacked, y, r)
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
                if self.polish and rn > _POLISH_FLOOR:
                    # The final update, taken without evaluating its residual.
                    y = y - _chord_solve(lu, r)
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
    Newton unknowns are the step's increments d = z1 - z0 of x, v, p and pt,
    then the new lam; on T*Y there is no v slot, and v is the lagrangian's
    fiber velocity v(t, x, p) at the node: legendre_dual's inversion, so a
    lagrangian that is not hyperregular raises HyperregularityError here.
    The quotients d/h are exact, so Newton's floor is the round-off of the
    rates, not ulp(z0)/h (Hairer-Wanner, Solving ODEs II, IV.8). Each step
    is one ChordNewton solve to tolerance _NEWTON_TOL, then one final chord
    update whose residual is not evaluated, none when the residual is
    already at _POLISH_FLOOR, so a stepper instance owns its Newton
    workspace and must not be shared across threads.

    Every formulation reads one model record: a step residual evaluates the
    model once at its midpoint and its row once at its new node, through
    points, the open system's one-pass record of the same model
    (thermo._mixed_points), or else one call of each of the lagrangian's,
    constraints' and f_ext's. On T*Y the record is read at v(t, x, p).
    The record's momentum row subtracts the external force, so a force acts
    on all three formulations. Given points, f_ext must be None: the record
    carries the force. A Jacobian refresh evaluates the step residual at its
    perturbed iterates in one stacked call of points (per block of columns)
    when it broadcasts, and one call per iterate otherwise.
    """

    def __init__(
        self,
        formulation: str,
        lagrangian: TimeLagrangian | None = None,
        constraints: ConstraintSet | None = None,
        f_ext: ExternalForce | None = None,
        points: _MixedPoints | None = None,
    ):
        if formulation not in FORMULATIONS:
            raise ValueError(
                f"unknown formulation {formulation!r}; choose from {FORMULATIONS}"
            )
        if lagrangian is None:
            raise ValueError(f"{formulation} needs a TimeLagrangian")
        if constraints is None:
            raise ValueError("a ConstraintSet is required (use unconstrained(n))")
        if constraints.n != lagrangian.n:
            raise ValueError("constraint dimension does not match the system")
        if f_ext is not None and points is not None:
            raise ValueError("give f_ext or points, not both: points carries the force")

        # The final update: stopping at convergence would move the particle's
        # lam by 1.2e-11 relative over its 1000 steps, past the outputs'
        # 1e-12 bound (scripts/output_bounds.json).
        super().__init__(_NEWTON_TOL, polish=True)
        self.formulation = formulation
        self.n = n = lagrangian.n
        self.L = lagrangian
        self.constraints = constraints
        self.f_ext = f_ext
        self._points = points or _callable_points(lagrangian, constraints, f_ext)
        # The slots of a row the constraint coefficients are taken at: v or p.
        self._side = slice(n, 2 * n) if formulation == "pontryagin" else slice(2 * n, 3 * n)
        # On T*Y, v(t, x, p), and the slots of a row whose increments are
        # Newton unknowns, before lam: x, v, p and pt, without v on T*Y.
        hd = formulation == "hamilton-dirac"
        self._velocity = legendre_dual(lagrangian).d_p if hd else None
        self._increments = np.r_[:n, 2 * n : 3 * n + 1] if hd else np.r_[: 3 * n + 1]

    # -- residual assembly ------------------------------------------------

    def _residual_fn(self, t: float, row: np.ndarray, h: float) -> Callable:
        # The formulation's rows at the midpoint zm = z0 + d/2, on the
        # quotients dz = d/h, closed by the kinematic row at the new node
        # z1 = z0 + d. y = (d, lam), d the increments of (x, [v,] p, pt) from
        # the node row at t; z stacks node values.
        n, side, v = self.n, self._side, self._velocity
        at, node_row, _ = self._points
        t1, tm = t + h, t + 0.5 * h
        z0 = row[self._increments]
        k = z0.size

        if v is not None:
            # T*Y: the record at the midpoint's v(tm, xm, pm), less its fiber
            # row, and the node row on v(t1, x1, p1).
            def residual(y: np.ndarray) -> np.ndarray:
                d = y[:k]
                zm, z1, dz = z0 + 0.5 * d, z0 + d, d / h
                xm, pm, x1, p1 = zm[:n], zm[n:-1], z1[:n], z1[n:-1]
                r_vel, _, r_mom, r_pt, *_ = _mixed_rows(
                    at, tm, xm, v(tm, xm, pm), pm, pm, dz[:n], dz[n:-1], dz[-1], y[k:]
                )
                A1, B1 = node_row(t1, x1, p1)
                return np.concatenate([r_vel, r_mom, A1 @ v(t1, x1, p1) + B1, [r_pt]])

            return residual

        def residual(y: np.ndarray) -> np.ndarray:
            d = y[:k]
            zm, z1, dz = z0 + 0.5 * d, z0 + d, d / h
            r_vel, r_fib, r_mom, r_pt, *_ = _mixed_rows(
                at, tm, zm[:n], zm[n : 2 * n], zm[2 * n : -1], zm[side],
                dz[:n], dz[2 * n : -1], dz[-1], y[k:],
            )
            A1, B1 = node_row(t1, z1[:n], z1[side])
            return np.concatenate([r_vel, r_fib, r_mom, A1 @ z1[n : 2 * n] + B1, [r_pt]])

        return residual

    def _stacked_residual_fn(self, t: float, row: np.ndarray, h: float) -> Callable | None:
        # _residual_fn's residual at K stacked iterates, the rows of Y (K, N),
        # from one evaluation of the model over them: row k of the result is
        # the residual at Y[k], bit for bit, since numpy's stacked matmul runs
        # the point's kernel on each slice. On T*Y each iterate's v is
        # inverted point by point, at its new node into its row and at its
        # midpoint in place of the average, and the fiber row is left out.
        # None unless the model broadcasts.
        at, node_row, broadcasts = self._points
        if not broadcasts:
            return None
        n, side, v = self.n, self._side, self._velocity
        t1, tm = t + h, t + 0.5 * h
        z0 = row[: 3 * n + 1]

        def stacked(Y: np.ndarray) -> np.ndarray:
            if v is not None:
                # A zero increment in the v slots, which v(t, x, p) fills.
                Y = np.concatenate([Y[:, :n], np.zeros((len(Y), n)), Y[:, n:]], axis=1)
            D, lam = Y[:, : 3 * n + 1], Y[:, 3 * n + 1 :]
            Zm, Z1, dZ = z0 + 0.5 * D, z0 + D, D / h
            if v is not None:
                Z1[:, n : 2 * n] = [v(t1, z[:n], z[2 * n : 3 * n]) for z in Z1]
                Zm[:, n : 2 * n] = [v(tm, z[:n], z[2 * n : 3 * n]) for z in Zm]
            d_x, d_v, d_t, A, B, F = at(tm, Zm[:, :n], Zm[:, n : 2 * n], Zm[:, side])
            r_mom = dZ[:, 2 * n : -1] - d_x - _matvecs(np.swapaxes(A, -1, -2), lam)
            if F is not None:
                r_mom = r_mom - F
            r_pt = dZ[:, -1] - d_t - _matvecs(B[..., None, :], lam)[..., 0]
            A1, B1 = node_row(t1, Z1[:, :n], Z1[:, side])
            rows = [dZ[:, :n] - Zm[:, n : 2 * n], Zm[:, 2 * n : -1] - d_v, r_mom,
                    _matvecs(A1, Z1[:, n : 2 * n]) + B1, r_pt[:, None]]
            if v is not None:
                del rows[1]
            return np.concatenate(rows, axis=1)

        return stacked

    # -- stepping ---------------------------------------------------------

    def _guess(self, row: np.ndarray, h: float) -> np.ndarray:
        # The unknowns from the row alone: the increment h v in x, none
        # elsewhere, and the row's lam, the last step's multiplier.
        n, k = self.n, self._increments.size
        guess = np.zeros(k + self.constraints.m)
        guess[:n] = h * row[n : 2 * n]
        guess[k:] = row[3 * n + 1 :]
        return guess

    def step(
        self, t: float, row: np.ndarray, h: float, guess: np.ndarray | None = None
    ) -> StepResult:
        """Advance the node row at time t by one step of size h.

        The returned row is the node at t + h, with the step's midpoint
        multiplier as its lam. On T*Y its v is v(t, x, p) at the new node.
        Newton starts from guess, in the layout of StepResult.solution, or
        by default from the row: an increment of h v in x, none elsewhere,
        and the row's lam.
        """

        if guess is None:
            guess = self._guess(row, h)
        y, rn, iters = self._newton(
            self._residual_fn(t, row, h), guess, self._stacked_residual_fn(t, row, h)
        )
        n, k, new = self.n, self._increments.size, row.copy()
        new[self._increments] += y[:k]
        new[3 * n + 1 :] = y[k:]
        if self._velocity is not None:
            new[n : 2 * n] = self._velocity(t + h, new[:n], new[2 * n : 3 * n])
        return StepResult(new, iters, rn, y)

    def run(self, start: PontryaginState, h: float, n_steps: int) -> Trajectory:
        """Integrate n_steps fixed steps from start.

        start is a mixed-bundle state on every formulation; the first node
        row is start with a zero multiplier, and on hamilton-dirac with the
        fiber velocity v(t, x, p) in place of start.v. A start off the
        kinematic constraint raises InconsistentInitialStateError. One call
        of step per step, in the loop the reduced path shares: step k starts
        at t0 + h added k times, h must be positive and finite, and a failed
        step k, or one whose model meets an OutsideDomainError, raises
        StepFailureError naming "step k (t = ...)". Newton starts from the
        last three solutions extrapolated (_extrapolated): step 0 from
        step's own guess, step 1 from step 0's solution, step 2 from
        2 y_1 - y_0, and step k >= 3 from 3 y_k-1 - 3 y_k-2 + y_k-3, which
        extrapolates the increments and lam quadratically. The reduced path
        keeps the line through its last two.
        """

        n, m, K = self.n, self.constraints.m, int(n_steps)
        # The start row and its kinematic row A v + B; on T*Y start.v is
        # not read.
        v = start.v if self._velocity is None else self._velocity(start.t, start.x, start.p)
        row = np.concatenate([start.x, v, start.p, [start.pt], np.zeros(m)])
        _require_on_constraint(*self._points.row(start.t, start.x, row[self._side]), v)
        # A fresh workspace: no Jacobian carries over from an earlier run.
        self._lu, self._steps_since_refresh = None, 0
        solved = deque(maxlen=3)  # the solutions of steps k-3 to k-1 before step k

        def advance(k, t, row):
            result = self.step(t, row, h, _extrapolated(solved, lambda: self._guess(row, h)))
            solved.append(result.solution)
            return result.row, result.newton_iters

        def lift(ys):
            x, v, p = (ys[:, i * n : (i + 1) * n].copy() for i in range(3))
            return x, v, p, ys[:, 3 * n].copy(), ys[1:, 3 * n + 1 :].copy()

        return _march(
            self.formulation, advance, lift, row, h,
            # cumsum adds in sequence, t0 + h + h + ..., as the steps do.
            lambda: np.cumsum(np.concatenate([[start.t], np.full(K, h)])),
        )


def _extrapolated(solved: deque, first: Callable[[], np.ndarray]) -> np.ndarray:
    # Newton's start for a step from the solutions of the last steps, solved
    # (oldest first; its maxlen sets the order): first() with none, the last
    # one with one, the line through two, 2 y_k-1 - y_k-2, and the quadratic
    # through three, 3 y_k-1 - 3 y_k-2 + y_k-3. Increments extrapolated with
    # degree j are nodes extrapolated with degree j + 1 (Hairer-Wanner,
    # Solving ODEs II, IV.8): the reduced path keeps two, the stepper three.
    if not solved:
        return first()
    if len(solved) == 1:
        return solved[-1]
    if len(solved) == 2:
        return 2.0 * solved[-1] - solved[-2]
    return 3.0 * solved[-1] - 3.0 * solved[-2] + solved[-3]


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
    of the momentum conjugate to time), entropy_decomposition_residual
    (p_Gamma - (S - Sigma) at the step midpoint). The
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
    first-law residual follows from those columns. The entropy decomposition
    residual is the Gamma slot of the fiber row, p_Gamma - (S - Sigma), at
    each step's averaged midpoint, read from the state arrays: on a DAE path
    it is the stepper's own row, so it holds to Newton's round-off at any h,
    and S, Sigma and p_Gamma that break p_Gamma = S - Sigma show in it.
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
            entropy_decomposition_residual=_mean(pG) - (_mean(S) - _mean(Sg)),
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
