"""Time-dependent Lagrangians and Hamiltonians on the extended bundles.

A TimeLagrangian L(t, x, v) carries analytic first partials and the velocity
Hessian. The module provides the energies built from it (the fiber energy
E_L, the generalized energy E depending on an independent momentum, and the
covariant energy including the momentum conjugate to time), the covariant
Legendre map into T*Y, the differential of a Hamiltonian on T*Y, partial
inversion of the fiber derivative, and a finite-difference validator for
user-declared partials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .geometry import CotangentP, CotangentTstarY, PhasePoint, PontryaginState

__all__ = [
    "HyperregularityError",
    "LegendreConvergenceError",
    "TimeLagrangian",
    "TimeHamiltonian",
    "ExternalForce",
    "lift_external_force",
    "lagrangian_energy",
    "generalized_energy",
    "covariant_energy",
    "d_covariant_energy",
    "covariant_legendre",
    "dirac_differential",
    "covariant_hamiltonian",
    "legendre_invert",
    "legendre_dual",
    "DerivativeReport",
    "check_derivatives",
]


class HyperregularityError(RuntimeError):
    """Raised when an operation needs an invertible velocity Hessian and
    the Lagrangian does not provide one."""


class LegendreConvergenceError(RuntimeError):
    """Raised when the fiber derivative inversion fails to converge."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _PointMemo:
    """fn(t, x, w) remembered at the last `size` distinct points.

    t is compared by value, x and w by their bytes, kept as copies, so an
    array mutated in place after a call is a new point. fn must return
    results that callers cannot write to; they are handed out as stored.
    The newest point is looked at first.
    """

    def __init__(self, fn: Callable, size: int = 1):
        self._fn = fn
        self._size = size
        self._entries: list[tuple[tuple, object]] = []

    def __call__(self, t, x, w):
        key = (t, np.asarray(x, dtype=float).tobytes(), np.asarray(w, dtype=float).tobytes())
        for k, result in self._entries:
            if k == key:
                return result
        result = self._fn(t, x, w)
        self._entries.insert(0, (key, result))
        del self._entries[self._size :]
        return result


def _chord_solve(lu_piv: tuple[np.ndarray, np.ndarray], r: np.ndarray) -> np.ndarray:
    """Solve J x = r for a float64 r on the (lu, piv) of scipy's lu_factor.

    The getrs call of scipy.linalg.lu_solve without its input checks: the
    same result bit for bit at a tenth of the call cost. r is not checked for
    finite entries; the callers test the residual norm first.
    """

    x, info = dgetrs(lu_piv[0], lu_piv[1], r)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


@lru_cache(maxsize=1)
def _mass_lu(shape: tuple, data: bytes) -> tuple[np.ndarray, np.ndarray]:
    # LU of a mass matrix, keyed on its shape and bytes: a constant matrix is
    # factored once, and a point-dependent one is factored at each new value.
    lu, piv, info = dgetrf(np.frombuffer(data).reshape(shape))
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return _read_only(lu), _read_only(piv)


def _mass_solve(M: np.ndarray, r: np.ndarray) -> np.ndarray:
    # getrs on the LU of M: np.linalg.solve's result bit for bit on the small
    # mass and velocity Hessian blocks (tested up to 5 x 5).
    return _chord_solve(_mass_lu(M.shape, M.tobytes()), r)


# Shape and bytes of the last matrix that passed _require_nonsingular. It
# memoizes a pure test, so sharing it between callers changes how often the
# SVD runs, never an outcome.
_last_nonsingular: tuple | None = None


def _require_nonsingular(M: np.ndarray, message: str) -> None:
    # Singular-value test of a Hessian block before a solve. The SVD runs once
    # per distinct matrix: one bitwise equal to the last that passed is not
    # checked again, which makes constant mass matrices cost one SVD.
    global _last_nonsingular
    key = (M.shape, M.tobytes())
    if key == _last_nonsingular:
        return
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= 1e-12 * s[0]:
        raise HyperregularityError(message)
    _last_nonsingular = key


@dataclass(frozen=True)
class TimeLagrangian:
    """Lagrangian L(t, x, v) with analytic partials.

    value returns a scalar, d_t a scalar, d_x and d_v arrays of shape (n,),
    d_vv the velocity Hessian of shape (n, n). regular_block optionally names
    the velocity indices on which the Hessian is invertible; None means all of
    them. Fiber inversion only ever touches the declared block.
    """

    n: int
    value: Callable[[float, np.ndarray, np.ndarray], float]
    d_t: Callable[[float, np.ndarray, np.ndarray], float]
    d_x: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    d_v: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    d_vv: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    regular_block: tuple[int, ...] | None = None

    @property
    def hyperregular(self) -> bool:
        return self.regular_block is None


@dataclass(frozen=True)
class TimeHamiltonian:
    """Hamiltonian H(t, x, p) with analytic partials."""

    n: int
    value: Callable[[float, np.ndarray, np.ndarray], float]
    d_t: Callable[[float, np.ndarray, np.ndarray], float]
    d_x: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    d_p: Callable[[float, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ExternalForce:
    """External force covector F(t, x, v) acting on the x slots only."""

    n: int
    value: Callable[[float, np.ndarray, np.ndarray], np.ndarray]


def lift_external_force(
    force: ExternalForce, t: float, x: np.ndarray, v: np.ndarray
) -> CotangentP:
    """Lift a force on Y to a covector on the bundle P (alpha slot only)."""

    f = np.asarray(force.value(t, x, v), dtype=float).reshape(force.n)
    n = force.n
    return CotangentP(pi=0.0, alpha=f, beta=np.zeros(n), gamma=0.0, w=np.zeros(n))


def lagrangian_energy(
    L: TimeLagrangian, t: float, x: np.ndarray, v: np.ndarray
) -> float:
    """Fiber energy E_L = <dL/dv, v> - L."""

    return float(L.d_v(t, x, v) @ v) - float(L.value(t, x, v))


def generalized_energy(
    L: TimeLagrangian, t: float, x: np.ndarray, v: np.ndarray, p: np.ndarray
) -> float:
    """Generalized energy E = <p, v> - L with an independent momentum p."""

    return float(np.asarray(p, dtype=float) @ v) - float(L.value(t, x, v))


def covariant_energy(L: TimeLagrangian, state: PontryaginState) -> float:
    """Covariant energy pt + <p, v> - L on the bundle P.

    Conserved along the constrained dynamics even when L depends on time,
    because the momentum conjugate to time absorbs the drift.
    """

    return state.pt + generalized_energy(L, state.t, state.x, state.v, state.p)


def d_covariant_energy(L: TimeLagrangian, state: PontryaginState) -> CotangentP:
    """Differential of the covariant energy at a point of P.

    The dpt component is exactly 1 and the dv component is p - dL/dv, which
    vanishes on the Legendre submanifold.
    """

    t, x, v = state.t, state.x, state.v
    return CotangentP(
        pi=-float(L.d_t(t, x, v)),
        alpha=-np.asarray(L.d_x(t, x, v), dtype=float).reshape(L.n),
        beta=state.p - np.asarray(L.d_v(t, x, v), dtype=float).reshape(L.n),
        gamma=1.0,
        w=state.v.copy(),
    )


def covariant_legendre(
    L: TimeLagrangian, t: float, x: np.ndarray, v: np.ndarray
) -> PhasePoint:
    """Covariant Legendre map into T*Y.

    Sends (t, x, v) to (t, x, pt, p) with p = dL/dv and pt = -E_L, so the
    covariant energy vanishes identically on the image.
    """

    p = np.asarray(L.d_v(t, x, v), dtype=float).reshape(L.n)
    return PhasePoint(t=t, x=x, pt=-lagrangian_energy(L, t, x, v), p=p)


def _tangent_prolongation(L: TimeLagrangian, t: float, x: np.ndarray, v: np.ndarray):
    # Element of T*TY attached to the lifted curve direction (dt, dx) = (1, v):
    # base point (t, x, 1, v), fiber components paired with (dt, dx, d(dt), d(dx)).
    x = np.asarray(x, dtype=float).reshape(L.n)
    v = np.asarray(v, dtype=float).reshape(L.n)
    base = (t, x, 1.0, v)
    fiber = (
        float(L.d_t(t, x, v)),
        np.asarray(L.d_x(t, x, v), dtype=float).reshape(L.n),
        -lagrangian_energy(L, t, x, v),
        np.asarray(L.d_v(t, x, v), dtype=float).reshape(L.n),
    )
    return base, fiber


def _flip_to_TstarTstarY(base, fiber) -> tuple[PhasePoint, CotangentTstarY]:
    # Canonical flip T*TY -> T*T*Y: (t, x, dt, dx, dpt, dp, pt, p) goes to the
    # point (t, x, pt, p) with covector (-dpt, -dp, dt, dx).
    t, x, dt, dx = base
    dpt, dp, pt, p = fiber
    point = PhasePoint(t=t, x=x, pt=pt, p=p)
    cov = CotangentTstarY(pi=-dpt, alpha=-dp, gamma=dt, w=dx)
    return point, cov


def dirac_differential(
    L: TimeLagrangian, t: float, x: np.ndarray, v: np.ndarray
) -> tuple[PhasePoint, CotangentTstarY]:
    """Dirac differential of L as a covector on T*Y.

    Computed by composing the tangent-bundle prolongation of dL with the
    canonical flip between T*TY and T*T*Y. The base point is the covariant
    Legendre image and the covector reads (-dL/dt, -dL/dx, 1, v).
    """

    return _flip_to_TstarTstarY(*_tangent_prolongation(L, t, x, v))


def covariant_hamiltonian(
    H: TimeHamiltonian, z: PhasePoint
) -> tuple[float, CotangentTstarY]:
    """Covariant Hamiltonian pt + H and its differential on T*Y.

    The dpt component of the differential is exactly 1.
    """

    t, x, p = z.t, z.x, z.p
    value = z.pt + float(H.value(t, x, p))
    cov = CotangentTstarY(
        pi=float(H.d_t(t, x, p)),
        alpha=np.asarray(H.d_x(t, x, p), dtype=float).reshape(H.n),
        gamma=1.0,
        w=np.asarray(H.d_p(t, x, p), dtype=float).reshape(H.n),
    )
    return value, cov


def legendre_invert(
    L: TimeLagrangian,
    t: float,
    x: np.ndarray,
    p_target: np.ndarray,
    v_guess: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> np.ndarray:
    """Invert p = dL/dv for v on the declared regular velocity block.

    Newton iteration on the block components only; the remaining components
    pass through unchanged from v_guess. Converges when the block residual
    satisfies max|dL/dv - p_target| <= tol.

    Raises HyperregularityError when the block Hessian is singular and
    LegendreConvergenceError after max_iter iterations without convergence.
    """

    # The whole velocity, as a view, when every component is regular.
    idx = slice(None) if L.regular_block is None else np.asarray(L.regular_block, dtype=int)
    x = np.asarray(x, dtype=float).reshape(L.n)
    p_target = np.asarray(p_target, dtype=float).reshape(L.n)
    v = np.array(v_guess, dtype=float).reshape(L.n).copy()

    for it in range(max_iter + 1):
        r = np.asarray(L.d_v(t, x, v), dtype=float).reshape(L.n)[idx] - p_target[idx]
        if np.max(np.abs(r), initial=0.0) <= tol:
            return v
        if it == max_iter:
            break
        J = np.asarray(L.d_vv(t, x, v), dtype=float).reshape(L.n, L.n)
        if L.regular_block is not None:
            J = J[np.ix_(idx, idx)]
        _require_nonsingular(
            J,
            "velocity Hessian is singular on the declared regular block; "
            "the fiber derivative cannot be inverted there",
        )
        v[idx] -= _mass_solve(J, r)
    raise LegendreConvergenceError(
        f"fiber inversion did not reach tol={tol} in {max_iter} iterations "
        f"(residual {np.max(np.abs(r)):.3e})"
    )


def legendre_dual(
    L: TimeLagrangian,
    v_guess_fn: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> TimeHamiltonian:
    """Hamiltonian obtained from a hyperregular Lagrangian by fiber inversion.

    H(t, x, p) = <p, v(p)> - L(t, x, v(p)) with v(p) solving dL/dv = p. The
    partials follow from the envelope identities: dH/dp = v(p) and the t, x
    partials are the negatives of those of L at the inverted velocity. value,
    d_t, d_x and d_p at one (t, x, p) share one inversion; d_p returns an
    array that callers must not write to.

    Raises HyperregularityError for a Lagrangian with a declared partial
    regular block, since the transform then does not exist globally. In that
    case use the mixed or velocity-side formulations, or the reduced
    thermodynamic path.
    """

    if not L.hyperregular:
        raise HyperregularityError(
            "the Lagrangian is degenerate (velocity Hessian invertible only on "
            "a partial block), so no Hamiltonian exists on the extended phase "
            "space; use the pontryagin or lagrange-dirac formulation, or the "
            "reduced thermodynamic path"
        )

    def fiber_velocity(t: float, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        guess = (
            np.asarray(v_guess_fn(t, x, p), dtype=float).reshape(L.n)
            if v_guess_fn is not None
            else np.asarray(p, dtype=float).reshape(L.n).copy()
        )
        return _read_only(legendre_invert(L, t, x, p, guess))

    # A step residual asks for the midpoint, then the new node; two
    # remembered points make that two inversions.
    invert = _PointMemo(fiber_velocity, size=2)

    def value(t, x, p):
        v = invert(t, x, p)
        return float(np.asarray(p, dtype=float) @ v) - float(L.value(t, x, v))

    def d_t(t, x, p):
        return -float(L.d_t(t, x, invert(t, x, p)))

    def d_x(t, x, p):
        return -np.asarray(L.d_x(t, x, invert(t, x, p)), dtype=float).reshape(L.n)

    def d_p(t, x, p):
        return invert(t, x, p)

    return TimeHamiltonian(n=L.n, value=value, d_t=d_t, d_x=d_x, d_p=d_p)


@dataclass(frozen=True)
class DerivativeReport:
    """Result of a finite-difference validation of declared partials."""

    passed: bool
    max_rel_err: float
    worst_component: str
    threshold: float
    n_points: int


def _rel_err(analytic: float, fd: float) -> float:
    return abs(analytic - fd) / max(1.0, abs(analytic), abs(fd))


def _central(f, c: float, h: float) -> float:
    return (f(c + h) - f(c - h)) / (2.0 * h)


def check_derivatives(
    obj: TimeLagrangian | TimeHamiltonian,
    sample: Callable[[np.random.Generator], tuple] | None = None,
    n_points: int = 100,
    threshold: float = 1e-6,
    seed: int = 0,
) -> DerivativeReport:
    """Validate declared partials against central finite differences.

    Evaluates d_t, d_x and the fiber partial (d_v or d_p), plus the velocity
    Hessian when present, at n_points random points. The step per coordinate
    is 1e-6 (1 + |coordinate|). sample(rng) must return (t, x, fiber) points
    in the object's domain; the default draws each coordinate uniformly from
    [-1, 1], which assumes the object is defined there.

    Relative errors are measured against max(1, |analytic|, |fd|) so that
    components of very different physical scale are compared fairly.
    """

    n = obj.n
    is_lagrangian = isinstance(obj, TimeLagrangian)
    rng = np.random.default_rng(seed)
    if sample is None:
        def sample(r):
            return r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0, n), r.uniform(-1.0, 1.0, n)

    worst = 0.0
    worst_name = "none"

    def consider(err: float, name: str):
        nonlocal worst, worst_name
        if err > worst:
            worst = err
            worst_name = name

    for _ in range(n_points):
        t, x, w = sample(rng)
        t = float(t)
        x = np.asarray(x, dtype=float).reshape(n)
        w = np.asarray(w, dtype=float).reshape(n)

        ht = 1e-6 * (1.0 + abs(t))
        fd_t = _central(lambda s: float(obj.value(s, x, w)), t, ht)
        consider(_rel_err(float(obj.d_t(t, x, w)), fd_t), "d_t")

        dx_an = np.asarray(obj.d_x(t, x, w), dtype=float).reshape(n)
        for i in range(n):
            hi = 1e-6 * (1.0 + abs(x[i]))

            def fx(s, i=i):
                xs = x.copy()
                xs[i] = s
                return float(obj.value(t, xs, w))

            consider(_rel_err(dx_an[i], _central(fx, x[i], hi)), f"d_x[{i}]")

        fiber_name = "d_v" if is_lagrangian else "d_p"
        dw_an = np.asarray(
            (obj.d_v if is_lagrangian else obj.d_p)(t, x, w), dtype=float
        ).reshape(n)
        for i in range(n):
            hi = 1e-6 * (1.0 + abs(w[i]))

            def fw(s, i=i):
                ws = w.copy()
                ws[i] = s
                return float(obj.value(t, x, ws))

            consider(_rel_err(dw_an[i], _central(fw, w[i], hi)), f"{fiber_name}[{i}]")

        if is_lagrangian:
            H_an = np.asarray(obj.d_vv(t, x, w), dtype=float).reshape(n, n)
            for j in range(n):
                hj = 1e-6 * (1.0 + abs(w[j]))

                def gv(s, j=j):
                    ws = w.copy()
                    ws[j] = s
                    return np.asarray(obj.d_v(t, x, ws), dtype=float).reshape(n)

                col = (gv(w[j] + hj) - gv(w[j] - hj)) / (2.0 * hj)
                for i in range(n):
                    consider(_rel_err(H_an[i, j], col[i]), f"d_vv[{i},{j}]")

    return DerivativeReport(
        passed=worst <= threshold,
        max_rel_err=worst,
        worst_component=worst_name,
        threshold=threshold,
        n_points=n_points,
    )
