"""Time-dependent Lagrangians and Hamiltonians on the extended bundles.

A TimeLagrangian L(t, x, v) carries analytic first partials and the velocity
Hessian. The module provides the fiber energy E_L built from it and the
differential of the covariant energy pt + <p, v> - L (its values E and
pt + E along a trajectory are columns of dynamics.monitor_invariants), the
covariant Legendre map into T*Y, the differential of a Hamiltonian on T*Y,
partial inversion of the fiber derivative, and a finite-difference validator
for user-declared partials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .geometry import CotangentTstarY, PhasePoint, _evaluate, _slots

__all__ = [
    "HyperregularityError",
    "LegendreConvergenceError",
    "TimeLagrangian",
    "TimeHamiltonian",
    "ExternalForce",
    "lagrangian_energy",
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


def _stacked(x) -> bool:
    # Whether x holds K stacked points (K, n) rather than one point.
    return type(x) is np.ndarray and x.ndim == 2


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

    With broadcasts set, the five callables also take K stacked points, t of
    shape (K,) and x, v of shape (K, n), and return shapes (K,), (K, n) or
    (K, n, n) (or shapes that broadcast to them), entry by entry the bits of
    the call at that point. The array passes of `check` and of the
    diagnostics then make one call per pass instead of one per point.
    """

    n: int
    value: Callable[[float, np.ndarray, np.ndarray], float]
    d_t: Callable[[float, np.ndarray, np.ndarray], float]
    d_x: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    d_v: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    d_vv: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    regular_block: tuple[int, ...] | None = None
    broadcasts: bool = False

    @property
    def hyperregular(self) -> bool:
        return self.regular_block is None


@dataclass(frozen=True)
class TimeHamiltonian:
    """Hamiltonian H(t, x, p) with analytic partials, at one point at a time."""

    n: int
    value: Callable[[float, np.ndarray, np.ndarray], float]
    d_t: Callable[[float, np.ndarray, np.ndarray], float]
    d_x: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    d_p: Callable[[float, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ExternalForce:
    """External force covector F(t, x, v) acting on the x slots only;
    broadcasts as on TimeLagrangian."""

    n: int
    value: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    broadcasts: bool = False


def lagrangian_energy(
    L: TimeLagrangian, t: float, x: np.ndarray, v: np.ndarray
) -> float:
    """Fiber energy E_L = <dL/dv, v> - L."""

    return float(L.d_v(t, x, v) @ v) - float(L.value(t, x, v))


def _covariant_differential(L: TimeLagrangian, t, x, v, p) -> np.ndarray:
    # Differential of the covariant energy at K stacked points, as covectors
    # on P (K, 3n + 2): (-dL/dt, -dL/dx, p - dL/dv, 1, v). Its dpt component
    # is exactly 1 and its dv component vanishes on the Legendre image.
    n = L.n
    return np.concatenate(
        (
            -_evaluate(L.d_t, L.broadcasts, (), t, x, v)[:, None],
            -_evaluate(L.d_x, L.broadcasts, (n,), t, x, v),
            p - _evaluate(L.d_v, L.broadcasts, (n,), t, x, v),
            np.ones((len(t), 1)),
            v,
        ),
        axis=-1,
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


def dirac_differential(
    L: TimeLagrangian, t: float, x: np.ndarray, v: np.ndarray
) -> tuple[PhasePoint, CotangentTstarY]:
    """Dirac differential of L as a covector on T*Y.

    The canonical flip T*TY -> T*T*Y of dL along the lifted curve direction
    (dt, dx) = (1, v). The base point is the covariant Legendre image and the
    covector reads (-dL/dt, -dL/dx, 1, v): the differential of the covariant
    energy there, whose dv component vanishes.
    """

    z = covariant_legendre(L, t, x, v)
    v = np.asarray(v, dtype=float).reshape(1, L.n)
    a = _covariant_differential(L, np.array([float(t)]), z.x[None], v, z.p[None])[0]
    pi, alpha, _, gamma, w = _slots(a, L.n)
    return z, CotangentTstarY(pi=pi, alpha=alpha, gamma=gamma, w=w)


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


# Max-norm tolerance and iteration budget of legendre_invert's Newton loop.
_LEGENDRE_TOL = 1e-10
_LEGENDRE_MAX_ITER = 50


def legendre_invert(
    L: TimeLagrangian,
    t: float,
    x: np.ndarray,
    p_target: np.ndarray,
    v_guess: np.ndarray,
) -> np.ndarray:
    """Invert p = dL/dv for v on the declared regular velocity block.

    Newton iteration on the block components only; the remaining components
    pass through unchanged from v_guess. Converges when the block residual
    satisfies max|dL/dv - p_target| <= _LEGENDRE_TOL.

    Raises HyperregularityError when the block Hessian is singular and
    LegendreConvergenceError after _LEGENDRE_MAX_ITER iterations without
    convergence.
    """

    # The whole velocity, as a view, when every component is regular.
    idx = slice(None) if L.regular_block is None else np.asarray(L.regular_block, dtype=int)
    x = np.asarray(x, dtype=float).reshape(L.n)
    p_target = np.asarray(p_target, dtype=float).reshape(L.n)
    v = np.array(v_guess, dtype=float).reshape(L.n).copy()

    for it in range(_LEGENDRE_MAX_ITER + 1):
        r = np.asarray(L.d_v(t, x, v), dtype=float).reshape(L.n)[idx] - p_target[idx]
        if np.max(np.abs(r), initial=0.0) <= _LEGENDRE_TOL:
            return v
        if it == _LEGENDRE_MAX_ITER:
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
        f"fiber inversion did not reach tol={_LEGENDRE_TOL} in {_LEGENDRE_MAX_ITER} iterations "
        f"(residual {np.max(np.abs(r)):.3e})"
    )


def legendre_dual(L: TimeLagrangian) -> TimeHamiltonian:
    """Hamiltonian obtained from a hyperregular Lagrangian by fiber inversion.

    H(t, x, p) = <p, v(p)> - L(t, x, v(p)) with v(p) solving dL/dv = p,
    inverted by Newton from v = p. The partials follow from the envelope
    identities: dH/dp = v(p) and the t, x partials are the negatives of those
    of L at the inverted velocity. value, d_t, d_x and d_p at one (t, x, p)
    share one inversion; d_p returns an array that callers must not write to.

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
        return _read_only(legendre_invert(L, t, x, p, np.asarray(p, dtype=float).reshape(L.n)))

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

    return TimeHamiltonian(n=L.n, value=value, d_t=d_t, d_x=d_x, d_p=invert)


# Largest relative error check_derivatives accepts.
_DERIVATIVE_THRESHOLD = 1e-6


@dataclass(frozen=True)
class DerivativeReport:
    """Result of check_derivatives; threshold is _DERIVATIVE_THRESHOLD."""

    passed: bool
    max_rel_err: float
    worst_component: str
    threshold: float
    n_points: int


def check_derivatives(
    L: TimeLagrangian,
    sample: Callable[[np.random.Generator], tuple] | None = None,
    n_points: int = 100,
    seed: int = 0,
    points: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> DerivativeReport:
    """Validate a Lagrangian's declared partials against central finite
    differences.

    Evaluates d_t, d_x, d_v and the velocity Hessian d_vv at n_points random
    points. The step per coordinate is 1e-6 (1 + |coordinate|). sample(rng)
    must return (t, x, v) points in L's domain; the default draws each
    coordinate uniformly from [-1, 1], which assumes L is defined there.
    points, if given, are the (t, x, v) points themselves, stacked as arrays
    of shape (K,), (K, n) and (K, n); sample, n_points and seed are then
    unused.

    Relative errors are measured against max(1, |analytic|, |fd|) so that
    components of very different physical scale are compared fairly. The
    check passes when the worst is at most _DERIVATIVE_THRESHOLD. The worst
    component is the first with the largest error; a NaN error counts as the
    largest and fails the check.

    All points are validated in one array pass: value is called once on
    every shifted point, d_v once on the points and their velocity shifts,
    and d_t, d_x and d_vv once each (once per point each when L does not
    broadcast).
    """

    n = L.n
    if points is None:
        rng = np.random.default_rng(seed)
        if sample is None:
            def sample(r):
                return r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0, n), r.uniform(-1.0, 1.0, n)

        drawn = [sample(rng) for _ in range(n_points)]
        t = np.array([float(p[0]) for p in drawn])
        x, w = (np.reshape([np.asarray(p[i], dtype=float).reshape(n) for p in drawn], (-1, n))
                for i in (1, 2))
        points = (t, x, w)
    errors, names = _derivative_errors(L, *points)
    flat = errors.ravel()
    worst, worst_name = 0.0, "none"
    if flat.size:
        i = int(flat.argmax())  # the first NaN, else the first largest error
        if not flat[i] <= 0.0:
            worst, worst_name = float(flat[i]), names[i % len(names)]
    return DerivativeReport(
        passed=bool(worst <= _DERIVATIVE_THRESHOLD),
        max_rel_err=worst,
        worst_component=worst_name,
        threshold=_DERIVATIVE_THRESHOLD,
        n_points=len(points[0]),
    )


def _derivative_errors(L: TimeLagrangian, t: np.ndarray, x: np.ndarray, v: np.ndarray) -> tuple:
    # Relative errors (K, C) of L's declared partials against central
    # differences at K stacked points, and the names of the C components in
    # order: d_t, d_x[i], d_v[i], then d_vv[i,j] by columns j.
    K, n = x.shape
    idx = np.arange(n)

    def shifted(a: np.ndarray, h: np.ndarray, first: int, count: int) -> np.ndarray:
        # count copies of each point of a (K, n), with a[:, i] + h[:, i] in
        # copy first + i and a[:, i] - h[:, i] in copy first + n + i.
        out = np.repeat(a[:, None, :], count, axis=1)
        out[:, first + idx, idx] = a + h
        out[:, first + n + idx, idx] = a - h
        return out

    def central(f_plus, f_minus, h):
        return (f_plus - f_minus) / (2.0 * h)

    def at_points(fn, shape):
        return _evaluate(fn, L.broadcasts, shape, t, x, v)

    # value at t -+ ht, at each x[i] -+ h and at each v[i] -+ h (copies 0-1,
    # 2 to 2n + 1 and 2n + 2 to 4n + 1 of each point), in one call.
    ht = 1e-6 * (1.0 + np.abs(t))
    hx = 1e-6 * (1.0 + np.abs(x))
    hv = 1e-6 * (1.0 + np.abs(v))
    P = 2 + 4 * n
    T = np.repeat(t[:, None], P, axis=1)
    T[:, 0], T[:, 1] = t + ht, t - ht
    X = shifted(x, hx, 2, P)
    V = shifted(v, hv, 2 + 2 * n, P)
    f = _evaluate(L.value, L.broadcasts, (), T.ravel(), X.reshape(-1, n), V.reshape(-1, n))
    f = f.reshape(K, P)
    # d_v at each point and at each v[j] -+ h, in one call; cols[k, j, i]
    # is the difference quotient of d_v[i] in v[j].
    Q = 1 + 2 * n
    g = _evaluate(
        L.d_v, L.broadcasts, (n,),
        np.repeat(t, Q), np.repeat(x, Q, axis=0), shifted(v, hv, 1, Q).reshape(-1, n),
    ).reshape(K, Q, n)
    cols = central(g[:, 1 : 1 + n], g[:, 1 + n :], hv[:, :, None])
    H = at_points(L.d_vv, (n, n)).transpose(0, 2, 1).reshape(K, n * n)
    analytic = [at_points(L.d_t, ())[:, None], at_points(L.d_x, (n,)), g[:, 0], H]
    fd = [
        central(f[:, 0], f[:, 1], ht)[:, None],
        central(f[:, 2 : 2 + n], f[:, 2 + n : 2 + 2 * n], hx),
        central(f[:, 2 + 2 * n : 2 + 3 * n], f[:, 2 + 3 * n :], hv),
        cols.reshape(K, n * n),
    ]
    names = ["d_t"] + [f"d_{s}[{i}]" for s in "xv" for i in range(n)]
    names += [f"d_vv[{i},{j}]" for j in range(n) for i in range(n)]
    an, fd = np.concatenate(analytic, axis=1), np.concatenate(fd, axis=1)
    return np.abs(an - fd) / np.maximum(np.maximum(1.0, np.abs(an)), np.abs(fd)), names
