"""Geometry of the time-extended phase bundles.

The base space is Y = R x Q with coordinates (t, x), x of dimension n. On top
of it sit the extended cotangent bundle T*Y with coordinates (t, x, pt, p) and
the mixed bundle P = (R x TQ) x_Y T*Y with coordinates (t, x, v, pt, p). Here
`pt` is the scalar momentum conjugate to time and `p` the momentum conjugate
to x. The point, vector and covector types share one slot rule: scalar slots
are floats and vector slots 1-d float arrays of one length n.

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
from numpy.linalg import _umath_linalg

__all__ = [
    "DegenerateConstraintError",
    "PhasePoint",
    "PontryaginState",
    "TangentP",
    "CotangentP",
    "TangentTstarY",
    "CotangentTstarY",
    "ConstraintSet",
    "unconstrained",
    "dirac_pairing",
    "MembershipReport",
    "dirac_membership_P",
    "dirac_membership_TstarY",
    "random_dirac_element",
    "dirac_rank",
]

# Relative singular value threshold for all rank decisions in this module.
RANK_RTOL = 1e-10
# Membership tolerance of dirac_membership_P (dirac_membership_TstarY's default).
_MEMBERSHIP_TOL = 1e-9
# Points per stacked SVD of the generators in _DiracStack.rank.
_RANK_CHUNK = 16

_F64 = np.dtype(np.float64)


def _conform(a, shape: tuple) -> np.ndarray:
    # a as a float64 array of the given shape: a itself when it is one
    # already, else a coerced copy or view.
    if type(a) is np.ndarray and a.dtype is _F64 and a.shape == shape:
        return a
    return np.asarray(a, dtype=float).reshape(shape)


def _dot(a: np.ndarray, b: np.ndarray):
    # a @ b over the last axis: a float at one point, one entry per point over
    # stacked (K, n) arrays. The stacked matmul runs the same dot kernel per
    # row as a @ b does, so the bits match; einsum and (a * b).sum(-1) round
    # differently.
    if a.ndim == 1:
        return float(a @ b)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _evaluate(fn: Callable, broadcasts: bool, shape: tuple, t, x, w) -> np.ndarray:
    # fn over K points t (K,), x and w (K, n), as a float array of shape
    # (K, *shape) that callers must not write to: one call when fn
    # broadcasts, else one call per point.
    K = len(t)
    if broadcasts:
        return np.broadcast_to(np.asarray(fn(t, x, w), dtype=float), (K, *shape))
    out = np.empty((K, *shape))
    for k, tk in enumerate(t.tolist()):
        out[k] = np.asarray(fn(tk, x[k], w[k]), dtype=float).reshape(shape)
    return out


# Points per array pass: the stacked step residual of a Jacobian and the
# structure samples and flow midpoints of `check` are evaluated this many
# at a time, which bounds the working memory of any system size, --samples
# and --steps.
_BLOCK = 128


def _blocks(count: int):
    # Consecutive slices of at most _BLOCK points covering range(count).
    return (slice(k, min(k + _BLOCK, count)) for k in range(0, count, _BLOCK))


class DegenerateConstraintError(RuntimeError):
    """Raised when the constraint rows A(t, x, v) are rank deficient or not finite."""


class _Fields:
    """The slot rule of the point types below: a slot annotated float is a
    float, and every other slot a 1-d float array, all of one length n."""

    def __init_subclass__(cls):
        # The slot names in coordinate order, each with whether it is scalar.
        names = cls.__dict__.get("__annotations__", {})
        cls._kinds = tuple((k, a in ("float", float)) for k, a in names.items())

    def __post_init__(self):
        n = None
        for name, scalar in self._kinds:
            if scalar:
                object.__setattr__(self, name, float(getattr(self, name)))
                continue
            a = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            n = len(a) if n is None else n
            if a.shape != (n,):
                raise ValueError(f"{name}: expected shape ({n},), got {a.shape}")
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        # The second slot (x, dx or alpha) is a vector in every point type.
        return getattr(self, self._kinds[1][0]).shape[0]

    def as_vector(self) -> np.ndarray:
        """The slots concatenated in coordinate order."""

        return np.concatenate([np.atleast_1d(getattr(self, k)) for k, _ in self._kinds])


@dataclass(frozen=True)
class PhasePoint(_Fields):
    """Point (t, x, pt, p) of the extended cotangent bundle T*Y."""

    t: float
    x: np.ndarray
    pt: float
    p: np.ndarray


@dataclass(frozen=True)
class PontryaginState(_Fields):
    """Point (t, x, v, pt, p) of the bundle P carrying velocity and momenta."""

    t: float
    x: np.ndarray
    v: np.ndarray
    pt: float
    p: np.ndarray


@dataclass(frozen=True)
class TangentP(_Fields):
    """Tangent vector (dt, dx, dv, dpt, dp) to the bundle P."""

    dt: float
    dx: np.ndarray
    dv: np.ndarray
    dpt: float
    dp: np.ndarray


@dataclass(frozen=True)
class CotangentP(_Fields):
    """Covector (pi, alpha, beta, gamma, w) on the bundle P.

    pi pairs with dt, alpha with dx, beta with dv, gamma with dpt, w with dp.
    """

    pi: float
    alpha: np.ndarray
    beta: np.ndarray
    gamma: float
    w: np.ndarray


@dataclass(frozen=True)
class TangentTstarY(_Fields):
    """Tangent vector (dt, dx, dpt, dp) to T*Y."""

    dt: float
    dx: np.ndarray
    dpt: float
    dp: np.ndarray


@dataclass(frozen=True)
class CotangentTstarY(_Fields):
    """Covector (pi, alpha, gamma, w) on T*Y.

    pi pairs with dt, alpha with dx, gamma with dpt, w with dp.
    """

    pi: float
    alpha: np.ndarray
    gamma: float
    w: np.ndarray


@dataclass(frozen=True)
class ConstraintSet:
    """Affine velocity constraints on Y given by rows A and offsets B.

    eval_A(t, x, w) returns an (m, n) array and eval_B(t, x, w) an (m,) array,
    where the third argument is the velocity (or, for momentum-side constraint
    sets, the momentum) the coefficients may depend on. The kinematic condition
    is A w + B = 0 and the variational one is A dx + B dt = 0.

    eval_A and eval_B depend on (t, x, w) alone. eval_rows, if given,
    evaluates both at K stacked points, t of shape (K,) and x, w of shape
    (K, n): it returns A and B as (K, m, n) and (K, m) arrays (or arrays that
    broadcast to those shapes), entry by entry the bits of eval_A and eval_B
    at that point. Without it, the array passes call eval_A and eval_B point
    by point.
    """

    n: int
    m: int
    eval_A: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    eval_B: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    eval_rows: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state dimension n must be at least 1")
        if not 0 <= self.m < self.n:
            raise ValueError(f"need 0 <= m < n, got m={self.m}, n={self.n}")

    def A(self, t: float, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return _conform(self.eval_A(t, x, w), (self.m, self.n))

    def B(self, t: float, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return _conform(self.eval_B(t, x, w), (self.m,))

    def rows(self, t: np.ndarray, x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A (K, m, n) and B (K, m) at K points t (K,), x and w (K, n);
        callers must not write to them."""

        if self.eval_rows is None:
            return (
                _evaluate(self.eval_A, False, (self.m, self.n), t, x, w),
                _evaluate(self.eval_B, False, (self.m,), t, x, w),
            )
        A, B = self.eval_rows(t, x, w)
        K = len(t)
        return (
            np.broadcast_to(np.asarray(A, dtype=float), (K, self.m, self.n)),
            np.broadcast_to(np.asarray(B, dtype=float), (K, self.m)),
        )


def unconstrained(n: int) -> ConstraintSet:
    """Constraint set with no rows (free dynamics on an n-dimensional Q)."""

    return ConstraintSet(
        n=n,
        m=0,
        eval_A=lambda t, x, w: np.zeros((0, n)),
        eval_B=lambda t, x, w: np.zeros(0),
    )


class _DiracStack:
    """The induced Dirac structure at K points, from one row evaluation each.

    A (K, m, n), B (K, m) and M = [B | A] (K, m, n + 1) are private copies
    that passed the full-rank test at every point. The distribution bases
    cost one null space SVD per point and are built on first use. No array
    of the record is handed out; callers get copies or new arrays.
    """

    __slots__ = ("A", "B", "M", "_basis")

    def __init__(self, A: np.ndarray, B: np.ndarray):
        # Rank decision on the combined rows M; a dependent combination of
        # rows means the annihilator loses a dimension and lstsq multipliers
        # stop being well defined. The first point that fails raises.
        M = np.concatenate((B[..., None], A), axis=-1)
        finite = np.isfinite(M).all(axis=(1, 2))
        ok, s = finite, None
        if M.shape[1]:
            s = np.linalg.svd(M if finite.all() else np.where(finite[:, None, None], M, 0.0),
                              compute_uv=False)
            ok = finite & (s[:, 0] != 0.0) & (s[:, -1] > RANK_RTOL * s[:, 0])
        if not ok.all():
            k = int(ok.argmin())
            if not finite[k]:
                raise DegenerateConstraintError(
                    "constraint rows are not finite; the model overflows at this point"
                )
            raise DegenerateConstraintError(
                f"constraint rows are rank deficient: singular values {s[k]}"
            )
        self.A, self.B, self.M, self._basis = A.copy(), B.copy(), M, None

    def basis(self) -> np.ndarray:
        """Distribution bases as rows (dt, dx, dv, dpt, dp), one block of
        k + 2n + 1 rows per point: the kernel of M in the (dt, dx) slots,
        then the identity on (dv, dpt, dp)."""

        if self._basis is None:
            K, m, n1 = self.M.shape
            k = n1 - m
            D = np.zeros((K, k + 2 * n1 - 1, 3 * n1 - 1))
            # The kernel rows are the right singular vectors past the rank m,
            # as scipy.linalg.null_space takes them: the full-rank test keeps
            # the smallest singular value far above null_space's cut.
            D[:, :k, :n1] = np.linalg.svd(self.M, full_matrices=True)[2][:, m:] if m else np.eye(n1)
            D[:, k:, n1:] = np.eye(2 * n1 - 1)
            self._basis = D
        return self._basis

    def generators(self, points: slice = slice(None)) -> np.ndarray:
        """Spanning sets of the structure at the given points, one block of
        k + 2n + 1 + m rows of width 6n + 4 per point: the rows (u, flat(u))
        for u in the basis, then (0, lifted row of M)."""

        M, D = self.M[points], self.basis()[points]
        K, m, n1 = M.shape
        n = n1 - 1
        k = D.shape[1]
        G = np.zeros((K, k + m, 6 * n + 4))
        G[:, :k, : 3 * n + 2] = D
        G[:, :k, 3 * n + 2 :] = _flat(D, n)
        G[:, k:, 3 * n + 2 : 4 * n + 3] = M
        return G

    def rank(self) -> np.ndarray:
        """Numerical rank of the structure at each point (K,)."""

        # The generators are the largest arrays of a structure pass; taking
        # their singular values _RANK_CHUNK points at a time keeps each stack
        # small (about 100 kB for an open system with one q).
        s = np.concatenate([
            np.linalg.svd(self.generators(slice(k, k + _RANK_CHUNK)), compute_uv=False)
            for k in range(0, len(self.M), _RANK_CHUNK)
        ])
        return np.where(s[:, 0] == 0.0, 0, (s > RANK_RTOL * s[:, :1]).sum(axis=-1))


def _dirac_points(constraints: ConstraintSet, t, x, w) -> _DiracStack:
    # The structure at K stacked points, from one row evaluation.
    return _DiracStack(*constraints.rows(t, x, w))


def _dirac_point(constraints: ConstraintSet, t, x: np.ndarray, w) -> _DiracStack:
    # The structure at one point, as a stack of one.
    return _DiracStack(constraints.A(t, x, w)[None], constraints.B(t, x, w)[None])


def _slots(vec: np.ndarray, n: int) -> tuple:
    # (dt, dx, dv, dpt, dp) of a vector on P, or of stacked vectors along
    # the last axis, as views.
    return (
        vec[..., 0],
        vec[..., 1 : n + 1],
        vec[..., n + 1 : 2 * n + 1],
        vec[..., 2 * n + 1],
        vec[..., 2 * n + 2 :],
    )


def _flat(u: np.ndarray, n: int) -> np.ndarray:
    # Omega-flat along the last axis: the signed column permutation
    # (dt, dx, dv, dpt, dp) -> (-dpt, -dp, 0, dt, dx).
    zero = np.zeros(u.shape[:-1] + (n,))
    return np.concatenate((-u[..., 2 * n + 1 :], zero, u[..., : n + 1]), axis=-1)


def _pair(a: np.ndarray, u: np.ndarray, n: int):
    # <a, u> of a covector and a vector on P (or of stacked ones along the
    # last axis), summed slot by slot in the order of the coordinates.
    pi, alpha, beta, gamma, w = _slots(a, n)
    dt, dx, dv, dpt, dp = _slots(u, n)
    return pi * dt + _dot(alpha, dx) + _dot(beta, dv) + gamma * dpt + _dot(w, dp)


def _dirac_pairing(e1: tuple, e2: tuple, n: int):
    # dirac_pairing of (u, a) vectors on P, one entry per stacked pair.
    (u1, a1), (u2, a2) = e1, e2
    return _pair(a2, u1, n) + _pair(a1, u2, n)


def dirac_pairing(
    e1: tuple[TangentP, CotangentP], e2: tuple[TangentP, CotangentP]
) -> float:
    """Symmetrized pairing of two (tangent, cotangent) pairs on P.

    The pairing is <a2, u1> + <a1, u2>; it vanishes pairwise on any isotropic
    family, in particular on the Dirac structure itself.
    """

    vectors = [tuple(part.as_vector() for part in e) for e in (e1, e2)]
    return float(_dirac_pairing(*vectors, e1[0].n))


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


_LSTSQ = getattr(_umath_linalg, "lstsq", None)


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.linalg.lstsq(a[k], b[k], rcond=None)[0] for each k, bit for bit:
    # numpy's lstsq is a gufunc that runs LAPACK gelsd on one matrix at a
    # time, and it takes a stack; a point that gelsd cannot solve gives NaN
    # there, not an error. Without that gufunc (numpy < 2), one call per
    # point.
    K, rows, cols = a.shape
    if _LSTSQ is None:
        return np.array([np.linalg.lstsq(ak, bk, rcond=None)[0] for ak, bk in zip(a, b)]).reshape(
            K, cols
        )
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        x = _LSTSQ(a, b[..., None], np.finfo(float).eps * max(rows, cols), signature="ddd->ddid")[0]
    return x[..., 0]


def _least_squares(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The least squares solution x of a x = b at each stacked point, a of
    # shape (K, r, c) and b (K, r), and the max-norm residual |a x - b| of
    # each: the distance of b from the span of a's columns. With no columns
    # x is empty and the residual is |b|.
    if a.shape[2] == 0:
        return np.zeros(a.shape[:1] + (0,)), np.abs(b).max(axis=-1, initial=0.0)
    x = _lstsq(a, b)
    return x, np.abs(np.matmul(a, x[..., None])[..., 0] - b).max(axis=-1, initial=0.0)


def _membership(structure: _DiracStack, u: np.ndarray, a: np.ndarray) -> tuple[dict, np.ndarray]:
    # The violation of each membership condition on P at each point, for
    # stacked vectors u and covectors a (K, 3n + 2), and the span
    # multipliers (K, m). They solve target = M lam by least squares; M has
    # one column per constraint row, so with m < n + 1 the system is
    # overdetermined and the residual measures distance from the span.
    n = structure.A.shape[2]
    dt, dx, _, dpt, dp = _slots(u, n)
    pi, alpha, beta, gamma, w = _slots(a, n)
    A, B = structure.A, structure.B
    residuals = {
        "velocity_matches_dx": np.abs(w - dx).max(axis=-1, initial=0.0),
        "time_matches_dt": np.abs(gamma - dt),
        "beta_vanishes": np.abs(beta).max(axis=-1, initial=0.0),
        "variational_constraint": np.abs(
            np.matmul(A, dx[..., None])[..., 0] + B * dt[..., None]
        ).max(axis=-1, initial=0.0),
    }
    target = np.concatenate(((dpt + pi)[..., None], dp + alpha), axis=-1)
    M = np.ascontiguousarray(structure.M.transpose(0, 2, 1))
    lam, residuals["momentum_in_annihilator_span"] = _least_squares(M, target)
    return residuals, lam


def _report(residuals: dict, lam: np.ndarray, tol: float) -> MembershipReport:
    # The report of the first point of a membership pass.
    residuals = {k: float(r[0]) for k, r in residuals.items()}
    violated = tuple(k for k, r in residuals.items() if not r <= tol)
    return MembershipReport(
        member=not violated,
        multiplier=lam[0],
        residuals=residuals,
        tol=tol,
        violated=violated,
    )


def dirac_membership_P(
    point: PontryaginState,
    constraints: ConstraintSet,
    u: TangentP,
    a: CotangentP,
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
    reported under the names above and compared with _MEMBERSHIP_TOL.
    """

    n = point.n
    if u.n != n or a.n != n or constraints.n != n:
        raise ValueError("dimension mismatch between point, element and constraints")
    structure = _dirac_point(constraints, point.t, point.x, point.v)
    u_a = u.as_vector()[None], a.as_vector()[None]
    return _report(*_membership(structure, *u_a), _MEMBERSHIP_TOL)


def dirac_membership_TstarY(
    point: PhasePoint,
    constraints: ConstraintSet,
    u: TangentTstarY,
    a: CotangentTstarY,
    tol: float = _MEMBERSHIP_TOL,
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
    # The same conditions on P, with the dv and beta slots zero.
    z = np.zeros(n)
    u_P = np.concatenate(([u.dt], u.dx, z, [u.dpt], u.dp))
    a_P = np.concatenate(([a.pi], a.alpha, z, [a.gamma], a.w))
    structure = _dirac_point(constraints, point.t, point.x, point.p)
    residuals, lam = _membership(structure, u_P[None], a_P[None])
    del residuals["beta_vanishes"]
    return _report(residuals, lam, tol)


def _random_elements(
    structure: _DiracStack, coeffs: np.ndarray, lams: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # Elements (u, a) of the structure at each point, as stacked vectors on
    # P: u combines the basis with coeffs (K, k + 2n + 1) and a is flat(u)
    # plus the rows of M times lams (K, m). Kernel rows are summed one by one
    # in basis order, so u is bitwise the sum over the whole basis; the
    # identity rows add coeffs[:, k:].
    D = structure.basis()
    K, rows, width = D.shape
    n = (width - 2) // 3
    k = rows - (2 * n + 1)
    vec = np.zeros((K, n + 1))
    for i in range(k):
        vec += coeffs[:, i, None] * D[:, i, : n + 1]
    u = np.concatenate((vec, coeffs[:, k:]), axis=-1)
    a = _flat(u, n)
    for r in range(lams.shape[1]):
        a[:, : n + 1] += lams[:, r, None] * structure.M[:, r]
    return u, a


def random_dirac_element(
    point: PontryaginState,
    constraints: ConstraintSet,
    rng: np.random.Generator,
) -> tuple[TangentP, CotangentP]:
    """Draw a random element of the induced Dirac structure at the point.

    The tangent part is a random combination of the distribution basis and the
    cotangent part is Omega-flat of it plus a random combination of lifted
    annihilator rows, which parametrizes the whole fiber. The generator gives
    the 3n + 2 - m standard normal basis coefficients, then the m row
    coefficients.
    """

    n = point.n
    structure = _dirac_point(constraints, point.t, point.x, point.v)
    coeffs = rng.normal(size=structure.basis().shape[1])
    lams = rng.normal(size=constraints.m)
    u, a = _random_elements(structure, coeffs[None], lams[None])
    return TangentP(*_slots(u[0], n)), CotangentP(*_slots(a[0], n))


def dirac_rank(point: PontryaginState, constraints: ConstraintSet) -> int:
    """Numerical rank of the induced Dirac structure at the point.

    For a Dirac structure on a bundle of fiber dimension 3n + 2 the rank must
    equal 3n + 2 (maximal isotropy). Rank is counted by singular values above
    RANK_RTOL times the largest one.
    """

    return int(_dirac_point(constraints, point.t, point.x, point.v).rank()[0])
