"""Geometry of the time-extended phase bundles.

The base space is Y = R x Q with coordinates (t, x), x of dimension n. On top
of it sit the extended cotangent bundle T*Y with coordinates (t, x, pt, p) and
the mixed bundle P = (R x TQ) x_Y T*Y with coordinates (t, x, v, pt, p). Here
`pt` is the scalar momentum conjugate to time and `p` the momentum conjugate
to x.

A constraint set holds m covector rows A(t, x, v) and offsets B(t, x, v), m < n,
defining the affine velocity constraint A(t,x,v) v + B(t,x,v) = 0 and the linear
variational constraint A dx + B dt = 0. From these the module builds the induced
Dirac structure on P: the distribution lifted to P, the presymplectic flat map,
the annihilator, and membership tests for candidate (tangent, cotangent) pairs.
All checks are numerical with explicit tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import null_space

__all__ = [
    "DegenerateConstraintError",
    "ExtendedPoint",
    "TangentY",
    "CotangentY",
    "PhasePoint",
    "PontryaginState",
    "TangentP",
    "CotangentP",
    "TangentTstarY",
    "CotangentTstarY",
    "ConstraintSet",
    "unconstrained",
    "pair_Y",
    "pair_P",
    "pair_TstarY",
    "variational_constraint_residual",
    "kinematic_constraint_residual",
    "annihilator_basis",
    "presymplectic_apply",
    "presymplectic_flat",
    "lift_annihilator",
    "dirac_pairing",
    "MembershipReport",
    "dirac_membership_P",
    "dirac_membership_TstarY",
    "distribution_basis",
    "random_dirac_element",
    "dirac_generators",
    "dirac_rank",
]

# Relative singular value threshold for all rank decisions in this module.
RANK_RTOL = 1e-10

_F64 = np.dtype(np.float64)


def _conform(a, shape: tuple) -> np.ndarray:
    # a as a float64 array of the given shape: a itself when it is one
    # already, else a coerced copy or view.
    if type(a) is np.ndarray and a.dtype is _F64 and a.shape == shape:
        return a
    return np.asarray(a, dtype=float).reshape(shape)


class DegenerateConstraintError(RuntimeError):
    """Raised when the constraint rows A(t, x, v) are rank deficient or not finite."""


def _vec(a, n: int | None = None) -> np.ndarray:
    out = np.atleast_1d(np.asarray(a, dtype=float))
    if out.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {out.shape}")
    if n is not None and out.shape[0] != n:
        raise ValueError(f"expected length {n}, got {out.shape[0]}")
    return out


@dataclass(frozen=True)
class ExtendedPoint:
    """Point (t, x) of the time-extended configuration space Y."""

    t: float
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", _vec(self.x))

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class TangentY:
    """Tangent vector (dt, dx) to Y."""

    dt: float
    dx: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "dx", _vec(self.dx))


@dataclass(frozen=True)
class CotangentY:
    """Covector (pt, p) on Y; pt pairs with dt, p with dx."""

    pt: float
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pt", float(self.pt))
        object.__setattr__(self, "p", _vec(self.p))


@dataclass(frozen=True)
class PhasePoint:
    """Point (t, x, pt, p) of the extended cotangent bundle T*Y."""

    t: float
    x: np.ndarray
    pt: float
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", _vec(self.x))
        object.__setattr__(self, "pt", float(self.pt))
        object.__setattr__(self, "p", _vec(self.p, self.x.shape[0]))

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class PontryaginState:
    """Point (t, x, v, pt, p) of the bundle P carrying velocity and momenta."""

    t: float
    x: np.ndarray
    v: np.ndarray
    pt: float
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", _vec(self.x))
        n = self.x.shape[0]
        object.__setattr__(self, "v", _vec(self.v, n))
        object.__setattr__(self, "pt", float(self.pt))
        object.__setattr__(self, "p", _vec(self.p, n))

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class TangentP:
    """Tangent vector (dt, dx, dv, dpt, dp) to the bundle P."""

    dt: float
    dx: np.ndarray
    dv: np.ndarray
    dpt: float
    dp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "dx", _vec(self.dx))
        n = self.dx.shape[0]
        object.__setattr__(self, "dv", _vec(self.dv, n))
        object.__setattr__(self, "dpt", float(self.dpt))
        object.__setattr__(self, "dp", _vec(self.dp, n))

    @property
    def n(self) -> int:
        return self.dx.shape[0]

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.dt], self.dx, self.dv, [self.dpt], self.dp))


@dataclass(frozen=True)
class CotangentP:
    """Covector (pi, alpha, beta, gamma, w) on the bundle P.

    pi pairs with dt, alpha with dx, beta with dv, gamma with dpt, w with dp.
    """

    pi: float
    alpha: np.ndarray
    beta: np.ndarray
    gamma: float
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pi", float(self.pi))
        object.__setattr__(self, "alpha", _vec(self.alpha))
        n = self.alpha.shape[0]
        object.__setattr__(self, "beta", _vec(self.beta, n))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "w", _vec(self.w, n))

    @property
    def n(self) -> int:
        return self.alpha.shape[0]

    def as_vector(self) -> np.ndarray:
        return np.concatenate(
            ([self.pi], self.alpha, self.beta, [self.gamma], self.w)
        )


@dataclass(frozen=True)
class TangentTstarY:
    """Tangent vector (dt, dx, dpt, dp) to T*Y."""

    dt: float
    dx: np.ndarray
    dpt: float
    dp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "dx", _vec(self.dx))
        object.__setattr__(self, "dpt", float(self.dpt))
        object.__setattr__(self, "dp", _vec(self.dp, self.dx.shape[0]))


@dataclass(frozen=True)
class CotangentTstarY:
    """Covector (pi, alpha, gamma, w) on T*Y.

    pi pairs with dt, alpha with dx, gamma with dpt, w with dp.
    """

    pi: float
    alpha: np.ndarray
    gamma: float
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pi", float(self.pi))
        object.__setattr__(self, "alpha", _vec(self.alpha))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "w", _vec(self.w, self.alpha.shape[0]))


@dataclass(frozen=True)
class ConstraintSet:
    """Affine velocity constraints on Y given by rows A and offsets B.

    eval_A(t, x, w) returns an (m, n) array and eval_B(t, x, w) an (m,) array,
    where the third argument is the velocity (or, for momentum-side constraint
    sets, the momentum) the coefficients may depend on. The kinematic condition
    is A w + B = 0 and the variational one is A dx + B dt = 0.

    eval_A and eval_B depend on (t, x, w) alone: at a point asked for again they
    may share one evaluation of the row, so callers must not write to the
    arrays they return.
    """

    n: int
    m: int
    eval_A: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    eval_B: Callable[[float, np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state dimension n must be at least 1")
        if not 0 <= self.m < self.n:
            raise ValueError(f"need 0 <= m < n, got m={self.m}, n={self.n}")

    def A(self, t: float, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return _conform(self.eval_A(t, x, w), (self.m, self.n))

    def B(self, t: float, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return _conform(self.eval_B(t, x, w), (self.m,))


def unconstrained(n: int) -> ConstraintSet:
    """Constraint set with no rows (free dynamics on an n-dimensional Q)."""

    return ConstraintSet(
        n=n,
        m=0,
        eval_A=lambda t, x, w: np.zeros((0, n)),
        eval_B=lambda t, x, w: np.zeros(0),
    )


def pair_Y(a: CotangentY, u: TangentY) -> float:
    """Canonical pairing of a covector and a tangent vector on Y."""

    return a.pt * u.dt + float(a.p @ u.dx)


def pair_P(a: CotangentP, u: TangentP) -> float:
    """Canonical pairing of a covector and a tangent vector on the bundle P."""

    return (
        a.pi * u.dt
        + float(a.alpha @ u.dx)
        + float(a.beta @ u.dv)
        + a.gamma * u.dpt
        + float(a.w @ u.dp)
    )


def pair_TstarY(a: CotangentTstarY, u: TangentTstarY) -> float:
    """Canonical pairing on T*Y."""

    return (
        a.pi * u.dt + float(a.alpha @ u.dx) + a.gamma * u.dpt + float(a.w @ u.dp)
    )


def variational_constraint_residual(
    constraints: ConstraintSet, t: float, x: np.ndarray, v: np.ndarray,
    dt: float, dx: np.ndarray,
) -> np.ndarray:
    """Residual A(t,x,v) dx + B(t,x,v) dt of the variational constraint.

    The coefficients are frozen at the state velocity v while (dt, dx) is the
    displacement being tested. Returns an (m,) array.
    """

    x = _vec(x, constraints.n)
    dx = _vec(dx, constraints.n)
    A = constraints.A(t, x, v)
    B = constraints.B(t, x, v)
    return A @ dx + B * float(dt)


def kinematic_constraint_residual(
    constraints: ConstraintSet, t: float, x: np.ndarray,
    tdot: float, xdot: np.ndarray,
) -> np.ndarray:
    """Residual A(t,x,xdot) xdot + B(t,x,xdot) tdot of the kinematic constraint.

    This is the variational residual evaluated along an actual velocity, with
    the coefficients depending on that same velocity.
    """

    x = _vec(x, constraints.n)
    xdot = _vec(xdot, constraints.n)
    A = constraints.A(t, x, xdot)
    B = constraints.B(t, x, xdot)
    return A @ xdot + B * float(tdot)


class _DiracPoint:
    """The induced Dirac structure at one point, from one row evaluation.

    A, B and M = [B | A] are private copies that passed the full-rank test.
    The distribution basis costs a null space SVD and is built on first use.
    No array of the record is handed out; callers get copies or new arrays.
    """

    __slots__ = ("A", "B", "M", "_basis")

    def __init__(self, A: np.ndarray, B: np.ndarray):
        # Rank decision on the combined rows M; a dependent combination of
        # rows means the annihilator loses a dimension and lstsq multipliers
        # stop being well defined.
        M = np.hstack([B[:, None], A])
        if not np.isfinite(M).all():
            raise DegenerateConstraintError(
                "constraint rows are not finite; the model overflows at this point"
            )
        s = np.linalg.svd(M, compute_uv=False) if M.shape[0] else None
        if s is not None and (s[0] == 0.0 or s[-1] <= RANK_RTOL * s[0]):
            raise DegenerateConstraintError(
                f"constraint rows are rank deficient: singular values {s}"
            )
        self.A, self.B, self.M, self._basis = A.copy(), B.copy(), M, None

    def basis(self) -> np.ndarray:
        """Distribution basis as rows (dt, dx, dv, dpt, dp): the kernel of M
        in the (dt, dx) slots, then the identity on (dv, dpt, dp)."""

        if self._basis is None:
            m, n1 = self.M.shape
            kernel = null_space(self.M) if m else np.eye(n1)
            k = kernel.shape[1]
            D = np.zeros((k + 2 * n1 - 1, 3 * n1 - 1))
            D[:k, :n1] = kernel.T
            D[k:, n1:] = np.eye(2 * n1 - 1)
            self._basis = D
        return self._basis


# (constraints, (t, x bytes, w bytes), record) of the last point that passed
# the rank test; holding the set keeps its identity from being reused. x must
# be a 1-d float array already, as `_vec` or a point record makes it.
_last_point: tuple | None = None


def _dirac_point(constraints: ConstraintSet, t, x: np.ndarray, w) -> _DiracPoint:
    global _last_point
    key = (t, x.tobytes(), np.asarray(w, dtype=float).tobytes())
    last = _last_point
    if last is not None and last[0] is constraints and last[1] == key:
        return last[2]
    point = _DiracPoint(constraints.A(t, x, w), constraints.B(t, x, w))
    _last_point = (constraints, key, point)
    return point


def _slots(vec: np.ndarray, n: int) -> tuple:
    # (dt, dx, dv, dpt, dp) of a stacked vector on P, as views.
    return vec[0], vec[1 : n + 1], vec[n + 1 : 2 * n + 1], vec[2 * n + 1], vec[2 * n + 2 :]


def _flat(u: np.ndarray, n: int) -> np.ndarray:
    # Omega-flat along the last axis: the signed column permutation
    # (dt, dx, dv, dpt, dp) -> (-dpt, -dp, 0, dt, dx).
    zero = np.zeros(u.shape[:-1] + (n,))
    return np.concatenate((-u[..., 2 * n + 1 :], zero, u[..., : n + 1]), axis=-1)


def annihilator_basis(
    constraints: ConstraintSet, t: float, x: np.ndarray, v: np.ndarray
) -> list[CotangentY]:
    """Basis of the annihilator of the variational distribution on Y.

    The distribution at (t, x) consists of displacements (dt, dx) with
    A dx + B dt = 0, so its annihilator is spanned by the raw covector rows
    (pt, p) = (B_r, A_r). Rows are returned unnormalized, one per constraint.

    Raises DegenerateConstraintError when the rows are dependent.
    """

    structure = _dirac_point(constraints, t, _vec(x, constraints.n), v)
    return [CotangentY(pt=b, p=a.copy()) for b, a in zip(structure.B, structure.A)]


def presymplectic_apply(u: TangentP, w: TangentP) -> float:
    """Canonical presymplectic 2-form on P applied to two tangent vectors.

    The form pairs dx with dp and dt with dpt; the dv directions are in its
    kernel.
    """

    return (
        float(u.dx @ w.dp)
        - float(w.dx @ u.dp)
        + u.dt * w.dpt
        - w.dt * u.dpt
    )


def presymplectic_flat(u: TangentP) -> CotangentP:
    """Covector Omega-flat(u), so that pair_P(flat(u), w) = Omega(u, w)."""

    return CotangentP(*_slots(_flat(u.as_vector(), u.n), u.n))


def lift_annihilator(row: CotangentY, n: int) -> CotangentP:
    """Pull an annihilator covector on Y back to the bundle P.

    Only the dt and dx slots are populated; the covector ignores the fiber
    directions (dv, dpt, dp).
    """

    return CotangentP(
        pi=row.pt,
        alpha=row.p.copy(),
        beta=np.zeros(n),
        gamma=0.0,
        w=np.zeros(n),
    )


def dirac_pairing(
    e1: tuple[TangentP, CotangentP], e2: tuple[TangentP, CotangentP]
) -> float:
    """Symmetrized pairing of two (tangent, cotangent) pairs on P.

    The pairing is <a2, u1> + <a1, u2>; it vanishes pairwise on any isotropic
    family, in particular on the Dirac structure itself.
    """

    u1, a1 = e1
    u2, a2 = e2
    return pair_P(a2, u1) + pair_P(a1, u2)


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a Dirac membership test.

    residuals maps condition names to their violation magnitudes, multiplier
    is the least squares estimate of the constraint multipliers, and violated
    lists the condition names exceeding the tolerance.
    """

    member: bool
    multiplier: np.ndarray
    residuals: dict[str, float]
    tol: float
    violated: tuple[str, ...] = field(default_factory=tuple)

    def worst(self) -> tuple[str, float]:
        name = max(self.residuals, key=lambda k: self.residuals[k])
        return name, self.residuals[name]


def _membership(
    structure: _DiracPoint, u, a, residuals: dict[str, float], tol: float
) -> MembershipReport:
    # The conditions shared by P and T*Y, after the bundle's own. The span
    # multipliers solve target = M lam by least squares; M has one column per
    # constraint row, so with m < n + 1 the system is overdetermined and the
    # residual measures distance from the span.
    A, B = structure.A, structure.B
    residuals["variational_constraint"] = float(np.abs(A @ u.dx + B * u.dt).max(initial=0.0))
    M = np.ascontiguousarray(structure.M.T)
    target = np.concatenate(([u.dpt + a.pi], u.dp + a.alpha))
    if M.shape[1] == 0:
        lam, res = np.zeros(0), float(np.abs(target).max(initial=0.0))
    else:
        lam, *_ = np.linalg.lstsq(M, target, rcond=None)
        res = float(np.abs(M @ lam - target).max(initial=0.0))
    residuals["momentum_in_annihilator_span"] = res
    violated = tuple(k for k, r in residuals.items() if r > tol)
    return MembershipReport(
        member=not violated,
        multiplier=lam,
        residuals=residuals,
        tol=tol,
        violated=violated,
    )


def dirac_membership_P(
    point: PontryaginState,
    constraints: ConstraintSet,
    u: TangentP,
    a: CotangentP,
    tol: float = 1e-9,
) -> MembershipReport:
    """Test whether (u, a) belongs to the induced Dirac structure on P.

    Membership at the given point requires, with A, B evaluated at
    (t, x, v) of the point:

    * velocity_matches_dx: w = dx
    * time_matches_dt:     gamma = dt
    * beta_vanishes:       beta = 0
    * variational_constraint: A dx + B dt = 0
    * momentum_in_annihilator_span: (dpt + pi, dp + alpha) = sum_r lam_r (B_r, A_r)

    The multiplier is estimated by least squares; each condition's violation is
    reported under the names above.
    """

    n = point.n
    if u.n != n or a.n != n or constraints.n != n:
        raise ValueError("dimension mismatch between point, element and constraints")
    residuals = {
        "velocity_matches_dx": float(np.abs(a.w - u.dx).max(initial=0.0)),
        "time_matches_dt": abs(a.gamma - u.dt),
        "beta_vanishes": float(np.abs(a.beta).max(initial=0.0)),
    }
    structure = _dirac_point(constraints, point.t, point.x, point.v)
    return _membership(structure, u, a, residuals, tol)


def dirac_membership_TstarY(
    point: PhasePoint,
    constraints: ConstraintSet,
    u: TangentTstarY,
    a: CotangentTstarY,
    tol: float = 1e-9,
) -> MembershipReport:
    """Test whether (u, a) belongs to the induced Dirac structure on T*Y.

    The constraint set here must evaluate its coefficients as functions of
    (t, x, p), with the momentum as the third argument. Membership requires

    * velocity_matches_dx: w = dx
    * time_matches_dt:     gamma = dt
    * variational_constraint: A dx + B dt = 0
    * momentum_in_annihilator_span: (dpt + pi, dp + alpha) = sum_r lam_r (B_r, A_r)

    There is no beta condition on this bundle.
    """

    n = point.n
    if constraints.n != n:
        raise ValueError("dimension mismatch between point and constraints")
    residuals = {
        "velocity_matches_dx": float(np.abs(a.w - u.dx).max(initial=0.0)),
        "time_matches_dt": abs(a.gamma - u.dt),
    }
    structure = _dirac_point(constraints, point.t, point.x, point.p)
    return _membership(structure, u, a, residuals, tol)


def distribution_basis(
    constraints: ConstraintSet, t: float, x: np.ndarray, v: np.ndarray
) -> list[TangentP]:
    """Basis of the lifted distribution on P at the given (t, x, v).

    The distribution constrains only (dt, dx) through A dx + B dt = 0; the
    (dv, dpt, dp) directions are free. Returns 3n + 2 - m vectors.
    """

    D = _dirac_point(constraints, t, _vec(x, constraints.n), v).basis().copy()
    return [TangentP(*_slots(row, constraints.n)) for row in D]


def random_dirac_element(
    point: PontryaginState,
    constraints: ConstraintSet,
    rng: np.random.Generator,
    scale: float = 1.0,
) -> tuple[TangentP, CotangentP]:
    """Draw a random element of the induced Dirac structure at the point.

    The tangent part is a random combination of the distribution basis and the
    cotangent part is Omega-flat of it plus a random combination of lifted
    annihilator rows, which parametrizes the whole fiber.
    """

    n = point.n
    structure = _dirac_point(constraints, point.t, point.x, point.v)
    D = structure.basis()
    coeffs = rng.normal(scale=scale, size=D.shape[0])
    k = D.shape[0] - (2 * n + 1)
    # Kernel rows are summed one by one in basis order, so the element is
    # bitwise the sum over the whole basis; the identity rows add coeffs[k:].
    vec = np.zeros(n + 1)
    for c, row in zip(coeffs[:k], D[:k, : n + 1]):
        vec += c * row
    u_vec = np.concatenate((vec, coeffs[k:]))
    a_vec = _flat(u_vec, n)
    for lam, row in zip(rng.normal(scale=scale, size=constraints.m), structure.M):
        a_vec[: n + 1] += lam * row
    return TangentP(*_slots(u_vec, n)), CotangentP(*_slots(a_vec, n))


def dirac_generators(
    point: PontryaginState, constraints: ConstraintSet
) -> np.ndarray:
    """Spanning set of the induced Dirac structure as stacked row vectors.

    Each row is the concatenation of a tangent part (3n + 2 coordinates) and a
    cotangent part (3n + 2 coordinates). The rows are (u, flat(u)) for u in the
    distribution basis together with (0, lifted annihilator row) for each
    constraint row, which together span the structure.
    """

    n = point.n
    structure = _dirac_point(constraints, point.t, point.x, point.v)
    D = structure.basis()
    k = D.shape[0]
    G = np.zeros((k + constraints.m, 6 * n + 4))
    G[:k, : 3 * n + 2] = D
    G[:k, 3 * n + 2 :] = _flat(D, n)
    G[k:, 3 * n + 2 : 4 * n + 3] = structure.M
    return G


def dirac_rank(point: PontryaginState, constraints: ConstraintSet) -> int:
    """Numerical rank of the induced Dirac structure at the point.

    For a Dirac structure on a bundle of fiber dimension 3n + 2 the rank must
    equal 3n + 2 (maximal isotropy). Rank is counted by singular values above
    RANK_RTOL times the largest one.
    """

    G = dirac_generators(point, constraints)
    s = np.linalg.svd(G, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))
