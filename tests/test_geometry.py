"""Tests for the bundle records, pairings, constraint sets, and the induced
Dirac structure on the mixed bundle."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import null_space

from diracsim.geometry import (
    RANK_RTOL,
    ConstraintSet,
    CotangentP,
    CotangentTstarY,
    DegenerateConstraintError,
    PhasePoint,
    PontryaginState,
    TangentP,
    TangentTstarY,
    _dirac_point,
    _dirac_points,
    _flat,
    _membership,
    _pair,
    _slots,
    dirac_membership_P,
    dirac_membership_TstarY,
    dirac_pairing,
    dirac_rank,
    random_dirac_element,
    unconstrained,
)


def _affine_constraint(n, m, seed=0):
    rng = np.random.default_rng(seed)
    A0 = rng.normal(size=(m, n))
    B0 = rng.normal(size=m)
    return ConstraintSet(
        n=n,
        m=m,
        eval_A=lambda t, x, w: A0,
        eval_B=lambda t, x, w: B0,
    )


def _random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    return PontryaginState(
        t=float(rng.uniform(0, 2)),
        x=rng.normal(size=n),
        v=rng.normal(size=n),
        pt=float(rng.normal()),
        p=rng.normal(size=n),
    )


# -- pairings -------------------------------------------------------------


def test_pair_P_explicit():
    n = 2
    u = TangentP(
        dt=1.0,
        dx=np.array([1.0, 2.0]),
        dv=np.array([3.0, 4.0]),
        dpt=5.0,
        dp=np.array([6.0, 7.0]),
    )
    a = CotangentP(
        pi=0.5,
        alpha=np.array([1.0, -1.0]),
        beta=np.array([2.0, 2.0]),
        gamma=-1.0,
        w=np.array([0.0, 1.0]),
    )
    expected = 0.5 * 1 + (1 * 1 - 1 * 2) + (2 * 3 + 2 * 4) + (-1) * 5 + (0 * 6 + 1 * 7)
    assert _pair(a.as_vector(), u.as_vector(), n) == pytest.approx(expected)


def test_as_vector_round_trip():
    n = 3
    rng = np.random.default_rng(5)
    u = TangentP(
        dt=1.5,
        dx=rng.normal(size=n),
        dv=rng.normal(size=n),
        dpt=-0.5,
        dp=rng.normal(size=n),
    )
    vec = u.as_vector()
    assert vec.shape == (3 * n + 2,)
    npt.assert_allclose(vec[0], u.dt)
    npt.assert_allclose(vec[1 : n + 1], u.dx)
    npt.assert_allclose(vec[n + 1 : 2 * n + 1], u.dv)
    npt.assert_allclose(vec[2 * n + 1], u.dpt)
    npt.assert_allclose(vec[2 * n + 2 :], u.dp)


# -- presymplectic structure ----------------------------------------------


def test_presymplectic_flat_components():
    n = 2
    u = TangentP(
        dt=1.0,
        dx=np.array([1.0, 2.0]),
        dv=np.array([9.0, 9.0]),
        dpt=5.0,
        dp=np.array([6.0, 7.0]),
    )
    a = CotangentP(*_slots(_flat(u.as_vector(), n), n))
    assert a.pi == pytest.approx(-5.0)
    npt.assert_allclose(a.alpha, [-6.0, -7.0])
    npt.assert_allclose(a.beta, [0.0, 0.0])
    assert a.gamma == pytest.approx(1.0)
    npt.assert_allclose(a.w, [1.0, 2.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10))
def test_presymplectic_antisymmetry(n, seed):
    rng = np.random.default_rng(seed)

    def draw():
        return TangentP(
            dt=float(rng.normal()),
            dx=rng.normal(size=n),
            dv=rng.normal(size=n),
            dpt=float(rng.normal()),
            dp=rng.normal(size=n),
        )

    # Omega(u, w) = <flat(u), w>.
    u, w = draw().as_vector(), draw().as_vector()
    assert _pair(_flat(u, n), w, n) == pytest.approx(-_pair(_flat(w, n), u, n))
    assert _pair(_flat(u, n), u, n) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10))
def test_flat_reproduces_apply(n, seed):
    rng = np.random.default_rng(seed)

    def draw():
        return TangentP(
            dt=float(rng.normal()),
            dx=rng.normal(size=n),
            dv=rng.normal(size=n),
            dpt=float(rng.normal()),
            dp=rng.normal(size=n),
        )

    # The canonical two-form pairs dx with dp and dt with dpt.
    u, w = draw(), draw()
    omega = float(u.dx @ w.dp) - float(w.dx @ u.dp) + u.dt * w.dpt - w.dt * u.dpt
    assert _pair(_flat(u.as_vector(), n), w.as_vector(), n) == pytest.approx(omega, abs=1e-10)


def test_flat_kernel_is_dv():
    # dv directions are in the kernel of the two-form: flat of a pure dv
    # vector pairs to zero with everything.
    n = 3
    u = TangentP(
        dt=0.0,
        dx=np.zeros(n),
        dv=np.array([1.0, -2.0, 3.0]),
        dpt=0.0,
        dp=np.zeros(n),
    )
    npt.assert_allclose(_flat(u.as_vector(), n), np.zeros(3 * n + 2))


# -- constraint sets ------------------------------------------------------


def test_constraint_set_validates_dimensions():
    with pytest.raises(ValueError):
        ConstraintSet(
            n=2,
            m=2,
            eval_A=lambda t, x, w: np.eye(2),
            eval_B=lambda t, x, w: np.zeros(2),
        )
    with pytest.raises(ValueError):
        ConstraintSet(
            n=0,
            m=0,
            eval_A=lambda t, x, w: np.zeros((0, 0)),
            eval_B=lambda t, x, w: np.zeros(0),
        )


def test_unconstrained_has_no_rows():
    c = unconstrained(3)
    assert c.m == 0
    assert c.A(0.0, np.zeros(3), np.zeros(3)).shape == (0, 3)
    # No annihilator rows: the structure's generators are (u, flat(u)) for u
    # in the whole of TP.
    G = _dirac_point(c, 0.0, np.zeros(3), np.zeros(3)).generators()[0]
    assert G.shape == (3 * 3 + 2, 2 * (3 * 3 + 2))


def test_variational_and_kinematic_residuals_agree_on_sections():
    # The variational_constraint condition of membership, A dx + B dt, is
    # the kinematic residual A v + B along the section (dt, dx) = (1, v).
    c = _affine_constraint(3, 1, seed=2)
    t, x, v = 0.7, np.ones(3), np.array([0.3, -0.2, 0.5])
    u = np.concatenate(([1.0], v, np.zeros(7)))
    residuals, _ = _membership(_dirac_point(c, t, x, v), u[None], np.zeros((1, 11)))
    kin = np.abs(c.A(t, x, v) @ v + c.B(t, x, v)).max()
    assert residuals["variational_constraint"][0] == pytest.approx(kin, rel=1e-14)


def test_variational_residual_scales_with_dt():
    c = _affine_constraint(2, 1, seed=3)
    t, x, v = 0.2, np.zeros(2), np.zeros(2)
    u = np.concatenate(([2.0], [1.0, 1.0], np.zeros(5)))
    residuals, _ = _membership(_dirac_point(c, t, x, v), u[None], np.zeros((1, 8)))
    A = c.A(t, x, v)
    B = c.B(t, x, v)
    expected = np.abs(A @ np.array([1.0, 1.0]) + 2.0 * B).max()
    assert residuals["variational_constraint"][0] == pytest.approx(expected, rel=1e-14)


def test_degenerate_row_raises():
    c = ConstraintSet(
        n=2,
        m=1,
        eval_A=lambda t, x, w: np.zeros((1, 2)),
        eval_B=lambda t, x, w: np.zeros(1),
    )
    with pytest.raises(DegenerateConstraintError):
        _dirac_point(c, 0.0, np.zeros(2), np.zeros(2))
    with pytest.raises(DegenerateConstraintError):
        _dirac_points(c, np.zeros(3), np.zeros((3, 2)), np.zeros((3, 2)))


def test_near_degenerate_pair_raises():
    # Two rows that differ by far less than the rank tolerance collapse.
    eps = RANK_RTOL * 1e-3
    c = ConstraintSet(
        n=3,
        m=2,
        eval_A=lambda t, x, w: np.array(
            [[1.0, 0.0, 0.0], [1.0, eps, 0.0]]
        ),
        eval_B=lambda t, x, w: np.zeros(2),
    )
    with pytest.raises(DegenerateConstraintError):
        _dirac_point(c, 0.0, np.zeros(3), np.zeros(3))


# -- annihilator ----------------------------------------------------------
#
# The last m generators of the structure are (0, lifted annihilator row).


def test_annihilator_rows_are_raw_coefficients():
    n = 4
    c = _affine_constraint(n, 2, seed=7)
    t, x, v = 0.3, np.zeros(n), np.zeros(n)
    rows = _dirac_point(c, t, x, v).generators()[0][-2:, 3 * n + 2 :]
    A = c.A(t, x, v)
    B = c.B(t, x, v)
    for r, row in enumerate(rows):
        assert row[0] == pytest.approx(B[r])
        npt.assert_allclose(row[1 : n + 1], A[r])


def test_annihilator_thermo_example():
    # One-row thermodynamic-shaped constraint with coordinates
    # (q, S, N, Gamma, W, Sigma): A = (F_fr, 0, 0, sum J_S, sum J, T),
    # B = -(P_M + P_H). With F_fr = -2, sum J_S = 0.02, sum J = 0.1, T = 300
    # and P_M + P_H = 6.7, normalizing the annihilator row by its Sigma
    # component gives the expected covector below. The derived values are
    # cross-checked against random kernel elements of the distribution.
    A_row = np.array([-2.0, 0.0, 0.0, 0.02, 0.1, 300.0])
    B_val = -6.7
    c = ConstraintSet(
        n=6,
        m=1,
        eval_A=lambda t, x, w: A_row[None, :],
        eval_B=lambda t, x, w: np.array([B_val]),
    )
    G = _dirac_point(c, 0.0, np.zeros(6), np.zeros(6)).generators()[0]
    assert G.shape[0] == 3 * 6 + 2
    raw_pt, raw_p = G[-1, 20], G[-1, 21:27]
    scaled_pt = raw_pt / raw_p[5]
    scaled_p = raw_p / raw_p[5]
    assert scaled_pt == pytest.approx(-6.7 / 300.0, rel=1e-14)
    npt.assert_allclose(
        scaled_p,
        [-2.0 / 300.0, 0.0, 0.0, 0.02 / 300.0, 0.1 / 300.0, 1.0],
        rtol=1e-14,
        atol=1e-18,
    )

    # Independent check: the row annihilates every element of the kernel of
    # [B | A] acting on (dt, dx).
    kernel = null_space(np.hstack([[B_val], A_row])[None, :])
    rng = np.random.default_rng(11)
    for _ in range(20):
        coeff = rng.normal(size=kernel.shape[1])
        vec = kernel @ coeff
        dt, dx = vec[0], vec[1:]
        pairing = scaled_pt * dt + scaled_p @ dx
        assert abs(pairing) < 1e-12


def test_lift_annihilator_slots():
    # A lifted row has no tangent part and fills only the (pi, alpha) slots.
    c = ConstraintSet(
        n=2, m=1, eval_A=lambda t, x, w: np.array([[1.0, -1.0]]),
        eval_B=lambda t, x, w: np.array([2.0]),
    )
    row = _dirac_point(c, 0.0, np.zeros(2), np.zeros(2)).generators()[0][-1]
    npt.assert_allclose(row[:8], 0.0)
    lifted = CotangentP(*_slots(row[8:], 2))
    assert lifted.pi == pytest.approx(2.0)
    npt.assert_allclose(lifted.alpha, [1.0, -1.0])
    npt.assert_allclose(lifted.beta, 0.0)
    assert lifted.gamma == pytest.approx(0.0)
    npt.assert_allclose(lifted.w, 0.0)


# -- induced Dirac structure ----------------------------------------------


@pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (3, 2), (6, 1)])
def test_dirac_rank(n, m):
    c = _affine_constraint(n, m, seed=n + 10 * m)
    point = _random_state(n, seed=n)
    assert dirac_rank(point, c) == 3 * n + 2


def test_distribution_basis_count_and_kernel():
    n, m = 4, 2
    c = _affine_constraint(n, m, seed=1)
    point = _random_state(n, seed=1)
    basis = _dirac_point(c, point.t, point.x, point.v).basis()[0]
    assert len(basis) == 3 * n + 2 - m
    A = c.A(point.t, point.x, point.v)
    B = c.B(point.t, point.x, point.v)
    for b in basis:
        npt.assert_allclose(A @ b[1 : n + 1] + B * b[0], 0.0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(0, 30))
def test_structure_is_isotropic(n, seed):
    m = min(n - 1, seed % 3)
    c = _affine_constraint(n, m, seed=seed)
    point = _random_state(n, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    e1 = random_dirac_element(point, c, rng)
    e2 = random_dirac_element(point, c, rng)
    assert abs(dirac_pairing(e1, e2)) < 1e-10
    assert abs(dirac_pairing(e1, e1)) < 1e-10


def test_generators_shape():
    n, m = 3, 1
    c = _affine_constraint(n, m, seed=4)
    point = _random_state(n, seed=4)
    G = _dirac_point(c, point.t, point.x, point.v).generators()[0]
    assert G.shape == (3 * n + 2 - m + m, 2 * (3 * n + 2))
    # Every generator row is itself a structure element: zero pairing with
    # any other generator under the symmetrized pairing.
    d = 3 * n + 2
    for i in range(G.shape[0]):
        for j in range(G.shape[0]):
            u_i = G[i, :d]
            a_i = G[i, d:]
            u_j = G[j, :d]
            a_j = G[j, d:]
            val = a_j @ u_i + a_i @ u_j
            assert abs(val) < 1e-10


# -- membership -----------------------------------------------------------


def test_membership_accepts_constructed_elements():
    n, m = 3, 1
    c = _affine_constraint(n, m, seed=9)
    point = _random_state(n, seed=9)
    rng = np.random.default_rng(2)
    u, a = random_dirac_element(point, c, rng)
    rep = dirac_membership_P(point, c, u, a)
    assert rep.member and rep.tol == 1e-9
    assert rep.violated == ()
    assert set(rep.residuals) == {
        "velocity_matches_dx",
        "time_matches_dt",
        "beta_vanishes",
        "variational_constraint",
        "momentum_in_annihilator_span",
    }
    assert rep.multiplier.shape == (m,)


@pytest.mark.parametrize(
    "slot,condition",
    [
        ("w", "velocity_matches_dx"),
        ("gamma", "time_matches_dt"),
        ("beta", "beta_vanishes"),
        ("alpha", "momentum_in_annihilator_span"),
    ],
)
def test_membership_names_violated_condition(slot, condition):
    n, m = 3, 1
    c = _affine_constraint(n, m, seed=9)
    point = _random_state(n, seed=9)
    rng = np.random.default_rng(3)
    u, a = random_dirac_element(point, c, rng)
    kw = {
        "pi": a.pi,
        "alpha": a.alpha.copy(),
        "beta": a.beta.copy(),
        "gamma": a.gamma,
        "w": a.w.copy(),
    }
    if slot in ("w", "beta", "alpha"):
        kw[slot] = kw[slot] + np.array([0.5, 0.0, 0.0])
    else:
        kw[slot] = kw[slot] + 0.5
    bad = CotangentP(**kw)
    rep = dirac_membership_P(point, c, u, bad)
    assert not rep.member
    assert condition in rep.violated
    worst = rep.residuals[condition]
    assert worst == max(rep.residuals.values())
    if condition == "momentum_in_annihilator_span":
        # The least squares multiplier absorbs the in-span part of the
        # perturbation; only its component outside the row span remains.
        assert 0.0 < worst <= 0.5 + 1e-9
    else:
        assert worst == pytest.approx(0.5, rel=1e-6)


def test_membership_corrupted_tangent_constraint():
    n, m = 3, 1
    c = _affine_constraint(n, m, seed=9)
    point = _random_state(n, seed=9)
    rng = np.random.default_rng(4)
    u, a = random_dirac_element(point, c, rng)
    A = c.A(point.t, point.x, point.v)
    bad_dx = u.dx + A[0] / np.linalg.norm(A[0])
    bad_u = TangentP(dt=u.dt, dx=bad_dx, dv=u.dv, dpt=u.dpt, dp=u.dp)
    rep = dirac_membership_P(point, c, bad_u, a)
    assert not rep.member
    assert "variational_constraint" in rep.violated


def test_membership_dimension_mismatch():
    c = _affine_constraint(3, 1)
    point = _random_state(2)
    u = TangentP(
        dt=1.0, dx=np.zeros(2), dv=np.zeros(2), dpt=0.0, dp=np.zeros(2)
    )
    a = CotangentP(
        pi=0.0, alpha=np.zeros(2), beta=np.zeros(2), gamma=1.0, w=np.zeros(2)
    )
    with pytest.raises(ValueError):
        dirac_membership_P(point, c, u, a)


def test_membership_TstarY_has_no_beta_condition():
    n, m = 2, 1
    A_row = np.array([[1.0, 2.0]])
    c = ConstraintSet(
        n=n,
        m=m,
        eval_A=lambda t, x, w: A_row,
        eval_B=lambda t, x, w: np.array([0.5]),
    )
    z = PhasePoint(t=0.1, x=np.array([1.0, -1.0]), pt=0.3, p=np.array([0.2, 0.0]))
    # Build a member: dx in the kernel of [B | A] with dt, then the covector
    # from the canonical flat plus a multiple of the annihilator row.
    kernel = null_space(np.array([[0.5, 1.0, 2.0]]))
    vec = kernel @ np.array([0.7, -0.3])
    dt, dx = vec[0], vec[1:]
    dpt, dp = 0.4, np.array([0.3, -0.6])
    lam = 1.3
    a = CotangentTstarY(
        pi=-dpt + lam * 0.5,
        alpha=-dp + lam * A_row[0],
        gamma=dt,
        w=dx,
    )
    u = TangentTstarY(dt=dt, dx=dx, dpt=dpt, dp=dp)
    rep = dirac_membership_TstarY(z, c, u, a, tol=1e-9)
    assert rep.member
    assert "beta_vanishes" not in rep.residuals
    assert rep.multiplier[0] == pytest.approx(lam, rel=1e-9)


def test_phase_point_and_state_shapes():
    z = PhasePoint(t=0.0, x=np.zeros(3), pt=1.0, p=np.ones(3))
    assert z.n == 3
    s = PontryaginState(
        t=0.0, x=np.zeros(2), v=np.ones(2), pt=0.0, p=np.zeros(2)
    )
    assert s.n == 2


# -- one structure per point ----------------------------------------------
#
# The reference below builds the structure from one TangentP or CotangentP
# record per vector and evaluates the rows on every call. The array code must
# equal it bitwise, apart from the sign of an exact zero.


def _ref_rows(c, t, x, v):
    return c.A(t, x, v), c.B(t, x, v)


def _ref_basis(c, t, x, v):
    n = c.n
    A, B = _ref_rows(c, t, x, v)
    kernel = null_space(np.hstack([B[:, None], A])) if c.m else np.eye(n + 1)
    z = np.zeros(n)
    out = [TangentP(dt=k[0], dx=k[1:], dv=z, dpt=0.0, dp=z) for k in kernel.T]
    out += [TangentP(dt=0.0, dx=z, dv=e, dpt=0.0, dp=z) for e in np.eye(n)]
    out.append(TangentP(dt=0.0, dx=z, dv=z, dpt=1.0, dp=z))
    out += [TangentP(dt=0.0, dx=z, dv=z, dpt=0.0, dp=e) for e in np.eye(n)]
    return out


def _ref_flat(u):
    return CotangentP(pi=-u.dpt, alpha=-u.dp, beta=np.zeros(u.n), gamma=u.dt, w=u.dx)


def _ref_element(point, c, rng):
    n = point.n
    basis = _ref_basis(c, point.t, point.x, point.v)
    coeffs = rng.normal(size=len(basis))
    vec = sum((k * b.as_vector() for k, b in zip(coeffs, basis)), start=np.zeros(3 * n + 2))
    u = TangentP(vec[0], vec[1 : n + 1], vec[n + 1 : 2 * n + 1], vec[2 * n + 1], vec[2 * n + 2 :])
    a_vec = _ref_flat(u).as_vector()
    A, B = _ref_rows(c, point.t, point.x, point.v)
    for r, lam in enumerate(rng.normal(size=c.m)):
        lift = CotangentP(pi=B[r], alpha=A[r], beta=np.zeros(n), gamma=0.0, w=np.zeros(n))
        a_vec = a_vec + lam * lift.as_vector()
    return u.as_vector(), a_vec


def _ref_generators(point, c):
    n = point.n
    A, B = _ref_rows(c, point.t, point.x, point.v)
    basis = _ref_basis(c, point.t, point.x, point.v)
    rows = [np.concatenate([u.as_vector(), _ref_flat(u).as_vector()]) for u in basis]
    rows += [
        np.concatenate([np.zeros(3 * n + 2), [B[r]], A[r], np.zeros(2 * n + 1)])
        for r in range(c.m)
    ]
    return np.vstack(rows)


def _bits(a):
    # Bytes with -0.0 folded into 0.0.
    return (np.asarray(a, dtype=float) + 0.0).tobytes()


def _point_dependent_constraint(n, m, seed):
    # Rows that move with (t, x, v), so a stale structure would show.
    rng = np.random.default_rng(seed)
    A0, B0, C0 = rng.normal(size=(m, n)), rng.normal(size=m), rng.normal(size=(m, n))
    return ConstraintSet(
        n=n,
        m=m,
        eval_A=lambda t, x, w: A0 + np.sin(t) * C0 * x * w,
        eval_B=lambda t, x, w: B0 * np.cos(t + x.sum()),
    )


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
)
def test_structure_equals_the_list_based_reference_bitwise(n, m, seed):
    m %= n
    c = _point_dependent_constraint(n, m, seed)
    for k in range(2):
        point = _random_state(n, seed=seed + k)
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        # The order of check: rank, two elements, membership, then the rest.
        rank = dirac_rank(point, c)
        G_ref = _ref_generators(point, c)
        s = np.linalg.svd(G_ref, compute_uv=False)
        assert rank == int(np.sum(s > RANK_RTOL * s[0])) == 3 * n + 2
        for _ in range(2):
            u, a = random_dirac_element(point, c, rng)
            u_ref, a_ref = _ref_element(point, c, ref_rng)
            assert _bits(u.as_vector()) == _bits(u_ref)
            assert _bits(a.as_vector()) == _bits(a_ref)
        assert rng.normal() == ref_rng.normal()
        assert dirac_membership_P(point, c, u, a).member
        structure = _dirac_point(c, point.t, point.x, point.v)
        assert _bits(structure.generators()[0]) == _bits(G_ref)
        ref = _ref_basis(c, point.t, point.x, point.v)
        assert list(map(_bits, structure.basis()[0])) == [_bits(b.as_vector()) for b in ref]


def test_each_structure_call_evaluates_its_rows_once(monkeypatch):
    n, m = 4, 2
    calls = {"A": 0, "B": 0, "rank_svd": 0, "null_space": 0}
    A0, B0 = np.random.default_rng(3).normal(size=(m, n)), np.ones(m)

    def eval_A(t, x, w):
        calls["A"] += 1
        return A0

    def eval_B(t, x, w):
        calls["B"] += 1
        return B0

    svd = np.linalg.svd

    def counting_svd(M, *args, **kwargs):
        # SVDs of the rows [B | A] (a stack of one point), not of the
        # generators: the rank test takes singular values only, the null
        # space the singular vectors.
        if M.shape[-2:] == (m, n + 1):
            calls["null_space" if kwargs.get("compute_uv", True) else "rank_svd"] += 1
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    c = ConstraintSet(n=n, m=m, eval_A=eval_A, eval_B=eval_B)
    point = _random_state(n, seed=5)
    rng = np.random.default_rng(0)

    def sample():
        assert dirac_rank(point, c) == 3 * n + 2
        e1 = random_dirac_element(point, c, rng)
        random_dirac_element(point, c, rng)
        assert dirac_membership_P(point, c, *e1).member

    sample()
    # Four calls: one row evaluation and one rank test each, and a null space
    # for the three that need the distribution basis (not the membership).
    assert calls == {"A": 4, "B": 4, "rank_svd": 4, "null_space": 3}


@pytest.mark.parametrize(
    "row, message",
    [(0.0, "rank deficient"), (np.inf, "not finite"), (np.nan, "not finite")],
)
def test_a_failing_point_raises_on_every_call(row, message):
    calls = []

    def eval_A(t, x, w):
        calls.append(t)
        return np.full((1, 2), row)

    c = ConstraintSet(n=2, m=1, eval_A=eval_A, eval_B=lambda t, x, w: np.zeros(1))
    point = _random_state(2)
    rng = np.random.default_rng(0)
    z = np.zeros(2)
    u, a = TangentP(0.0, z, z, 0.0, z), CotangentP(0.0, z, z, 0.0, z)
    for call in (
        lambda: dirac_rank(point, c),
        lambda: random_dirac_element(point, c, rng),
        lambda: dirac_membership_P(point, c, u, a),
    ):
        with pytest.raises(DegenerateConstraintError, match=message):
            call()
    assert len(calls) == 3


def test_returned_arrays_do_not_alias_the_structure():
    c = _affine_constraint(3, 1, seed=2)
    point = _random_state(3, seed=2)
    G = _dirac_point(c, point.t, point.x, point.v).generators()
    u, a = random_dirac_element(point, c, np.random.default_rng(0))
    expected = _bits(u.as_vector()), _bits(a.as_vector())
    for part in (u.dx, u.dv, u.dp, a.alpha, a.beta, a.w):
        part[:] = 7.0
    dirac_membership_P(point, c, u, a).multiplier[:] = 7.0
    u, a = random_dirac_element(point, c, np.random.default_rng(0))
    assert (_bits(u.as_vector()), _bits(a.as_vector())) == expected
    assert _bits(_dirac_point(c, point.t, point.x, point.v).generators()) == _bits(G)
