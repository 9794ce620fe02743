"""The array passes of `diracsim check` against the per-point loops they replace.

The reference below is the check command as it was written point by point,
kept here only as the oracle: per random sample one structure (rows, rank
SVD, scipy null space), two random elements, two pairings and one
membership test (np.linalg.lstsq); one derivative report from per-point
central differences; per flow midpoint one membership test and one
multiplier recovery. It evaluates the model at single points, through the
lean entries the stepper uses, and draws from the generator one call at a
time. The command must print the same lines, byte for byte.
"""

import ast
import functools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.linalg import null_space

from diracsim import cli, geometry, thermo as th
from diracsim.cli import BUILTINS, main
from diracsim.geometry import RANK_RTOL, ConstraintSet, DegenerateConstraintError
from diracsim.lagrangian import TimeLagrangian, check_derivatives

ROOT = Path(__file__).resolve().parents[1]


# -- the per-point reference ---------------------------------------------------


def ref_structure(C, t, x, w):
    # Rows, full-rank test and distribution basis of one point.
    A, B = C.A(t, x, w), C.B(t, x, w)
    M = np.hstack([B[:, None], A])
    if not np.isfinite(M).all():
        raise DegenerateConstraintError(
            "constraint rows are not finite; the model overflows at this point"
        )
    s = np.linalg.svd(M, compute_uv=False) if M.shape[0] else None
    if s is not None and (s[0] == 0.0 or s[-1] <= RANK_RTOL * s[0]):
        raise DegenerateConstraintError(f"constraint rows are rank deficient: singular values {s}")
    m, n1 = M.shape
    kernel = null_space(M) if m else np.eye(n1)
    k = kernel.shape[1]
    D = np.zeros((k + 2 * n1 - 1, 3 * n1 - 1))
    D[:k, :n1] = kernel.T
    D[k:, n1:] = np.eye(2 * n1 - 1)
    return A, B, M, D


def ref_flat(u, n):
    return np.concatenate((-u[2 * n + 1 :], np.zeros(n), u[: n + 1]))


def ref_rank(structure, n):
    _, _, M, D = structure
    k = D.shape[0]
    G = np.zeros((k + M.shape[0], 6 * n + 4))
    G[:k, : 3 * n + 2] = D
    for i, row in enumerate(D):
        G[i, 3 * n + 2 :] = ref_flat(row, n)
    G[k:, 3 * n + 2 : 4 * n + 3] = M
    s = np.linalg.svd(G, compute_uv=False)
    return 0 if s.size == 0 or s[0] == 0.0 else int(np.sum(s > RANK_RTOL * s[0]))


def ref_element(structure, rng, n):
    _, _, M, D = structure
    coeffs = rng.normal(scale=1.0, size=D.shape[0])
    k = D.shape[0] - (2 * n + 1)
    vec = np.zeros(n + 1)
    for c, row in zip(coeffs[:k], D[:k, : n + 1]):
        vec += c * row
    u = np.concatenate((vec, coeffs[k:]))
    a = ref_flat(u, n)
    for lam, row in zip(rng.normal(scale=1.0, size=M.shape[0]), M):
        a[: n + 1] += lam * row
    return u, a


def ref_pair(a, u, n):
    return (
        a[0] * u[0]
        + float(a[1 : n + 1] @ u[1 : n + 1])
        + float(a[n + 1 : 2 * n + 1] @ u[n + 1 : 2 * n + 1])
        + a[2 * n + 1] * u[2 * n + 1]
        + float(a[2 * n + 2 :] @ u[2 * n + 2 :])
    )


def ref_membership(structure, u, a, n):
    A, B, M, _ = structure
    dt, dx, dpt, dp = u[0], u[1 : n + 1], u[2 * n + 1], u[2 * n + 2 :]
    pi, alpha, beta = a[0], a[1 : n + 1], a[n + 1 : 2 * n + 1]
    gamma, w = a[2 * n + 1], a[2 * n + 2 :]
    res = {
        "velocity_matches_dx": float(np.abs(w - dx).max(initial=0.0)),
        "time_matches_dt": abs(float(gamma) - float(dt)),
        "beta_vanishes": float(np.abs(beta).max(initial=0.0)),
        "variational_constraint": float(np.abs(A @ dx + B * float(dt)).max(initial=0.0)),
    }
    Mt = np.ascontiguousarray(M.T)
    target = np.concatenate(([float(dpt) + float(pi)], dp + alpha))
    if Mt.shape[1] == 0:
        res["momentum_in_annihilator_span"] = float(np.abs(target).max(initial=0.0))
    else:
        lam, *_ = np.linalg.lstsq(Mt, target, rcond=None)
        res["momentum_in_annihilator_span"] = float(np.abs(Mt @ lam - target).max(initial=0.0))
    return res


def ref_recover(L, C, t, x, v, dp, force):
    rhs = dp - np.asarray(L.d_x(t, x, v), dtype=float).reshape(L.n)
    rhs = rhs - (np.zeros(L.n) if force is None else np.asarray(force.value(t, x, v), dtype=float))
    A = C.A(t, x, v)
    lam, *_ = np.linalg.lstsq(A.T, rhs, rcond=None)
    return float(np.max(np.abs(A.T @ lam - rhs), initial=0.0))


def ref_physical_point(sys, rng, around, t_span, spread=0.5):
    lay = sys.layout
    t = float(rng.uniform(*t_span))
    x = np.zeros(lay.n)
    x[lay.q] = around.q + rng.uniform(-spread, spread, sys.n_q)
    dS = 0.4 * spread * rng.uniform(-1.0, 1.0)
    dN = 0.4 * spread * rng.uniform(-1.0, 1.0)
    x[lay.Gamma] = around.Gamma + rng.uniform(-spread, spread)
    x[lay.W] = around.W + rng.uniform(-spread, spread)
    x[lay.Sigma] = around.Sigma + rng.uniform(-spread, spread)
    v = rng.uniform(-spread, spread, lay.n)
    v[lay.q] = around.v_q + rng.uniform(-spread, spread, sys.n_q)
    q, v_q = x[lay.q], v[lay.q]
    S, N = around.S + dS, around.N * (1.0 + dN)
    with np.errstate(over="ignore", invalid="ignore"):
        while (dS or dN) and not 0.0 < -float(sys.mech.d_S(q, v_q, S, N)) < np.inf:
            dS, dN = 0.5 * dS, 0.5 * dN
            S, N = around.S + dS, around.N * (1.0 + dN)
    x[lay.S], x[lay.N] = S, N
    pt = float(rng.uniform(-1.0, 1.0))
    return t, x, v, pt, rng.uniform(-1.0, 1.0, lay.n)


def ref_check_derivatives(L, sample=None, n_points=100, seed=0):
    # Returns (passed, max_rel_err, worst_component) as the per-point loop
    # computed them (its NaN handling aside).
    n = L.n
    rng = np.random.default_rng(seed)
    if sample is None:
        def sample(r):
            return r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0, n), r.uniform(-1.0, 1.0, n)

    worst, worst_name = 0.0, "none"

    def consider(err, name):
        nonlocal worst, worst_name
        if err > worst:
            worst, worst_name = err, name

    def rel(an, fd):
        return abs(an - fd) / max(1.0, abs(an), abs(fd))

    def central(f, c, h):
        return (f(c + h) - f(c - h)) / (2.0 * h)

    for _ in range(n_points):
        t, x, w = sample(rng)
        t = float(t)
        x = np.asarray(x, dtype=float).reshape(n)
        w = np.asarray(w, dtype=float).reshape(n)
        ht = 1e-6 * (1.0 + abs(t))
        fd_t = central(lambda s: float(L.value(s, x, w)), t, ht)
        consider(rel(float(L.d_t(t, x, w)), fd_t), "d_t")
        dx = np.asarray(L.d_x(t, x, w), dtype=float).reshape(n)
        for i in range(n):
            def fx(s, i=i):
                xs = x.copy()
                xs[i] = s
                return float(L.value(t, xs, w))

            consider(rel(dx[i], central(fx, x[i], 1e-6 * (1.0 + abs(x[i])))), f"d_x[{i}]")
        dw = np.asarray(L.d_v(t, x, w), dtype=float).reshape(n)
        for i in range(n):
            def fw(s, i=i):
                ws = w.copy()
                ws[i] = s
                return float(L.value(t, x, ws))

            consider(rel(dw[i], central(fw, w[i], 1e-6 * (1.0 + abs(w[i])))), f"d_v[{i}]")
        H = np.asarray(L.d_vv(t, x, w), dtype=float).reshape(n, n)
        for j in range(n):
            hj = 1e-6 * (1.0 + abs(w[j]))

            def gv(s, j=j):
                ws = w.copy()
                ws[j] = s
                return np.asarray(L.d_v(t, x, ws), dtype=float).reshape(n)

            col = (gv(w[j] + hj) - gv(w[j] - hj)) / (2.0 * hj)
            for i in range(n):
                consider(rel(H[i, j], col[i]), f"d_vv[{i},{j}]")
    return worst <= 1e-6, worst, worst_name


def ref_midpoints(traj):
    # Per step: the averaged state (t, x, v, pt, p) and the rate on P.
    out = []
    for k in range(traj.n_steps):
        h = traj.t[k + 1] - traj.t[k]
        mean = [0.5 * (a[k] + a[k + 1]) for a in (traj.t, traj.x, traj.v, traj.pt, traj.p)]
        d = [(a[k + 1] - a[k]) / h for a in (traj.x, traj.v, traj.pt, traj.p)]
        out.append((mean, np.concatenate(([1.0], d[0], d[1], [d[2]], d[3]))))
    return out


def ref_lifted(sys, traj):
    # The lifted midpoint states of a reduced run, each step on its own.
    lay, out = sys.layout, []
    for (t, x, v, pt, _), rate in ref_midpoints(traj):
        y = np.concatenate([x[lay.q], v[lay.q], x[lay.S :]])
        ts = th._reduced_state_from_vector(sys, y)
        rates = np.array(th._bookkeeping_rates(th._balance(sys, t, ts)), dtype=float)
        _, vm = th._lift(sys.n_q, y, rates)
        out.append(((t, x, vm, pt, th.momenta_from_state(sys, ts)), rate))
    return out


def fmt(x):
    return repr(float(x))


def reference_check(config, seed=0, samples=30, steps=200, tol=1e-8, corrupt=0.0):
    """The lines and exit code of the per-point `check`."""

    import dataclasses

    problem = cli.build_problem(cli.load_config(config), None)
    rng = np.random.default_rng(seed)
    lines = [f"check seed: {seed}  samples: {samples}"]
    failures = []
    thermo = problem.kind == "ideal_gas"
    C, L, n = problem.vel_constraints, problem.L, problem.L.n
    horizon = problem.n_steps * problem.h
    span = (0.0, horizon)

    rank_defect, pairing, member = 0, 0.0, 0.0
    for _ in range(samples):
        if thermo:
            t, x, v, _, _ = ref_physical_point(problem.system, rng, problem.ts0, span)
        else:
            t = float(rng.uniform(0.0, horizon))
            x, v = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
            rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0, n)
        structure = ref_structure(C, t, x, v)
        rank_defect = max(rank_defect, abs(ref_rank(structure, n) - (3 * n + 2)))
        u1, a1 = ref_element(structure, rng, n)
        u2, a2 = ref_element(structure, rng, n)
        pairing = max(
            pairing,
            abs(ref_pair(a2, u1, n) + ref_pair(a1, u2, n)),
            abs(ref_pair(a1, u1, n) + ref_pair(a1, u1, n)),
        )
        member = max(member, max(ref_membership(structure, u1, a1, n).values()))
    lines += [
        f"rank defect: {rank_defect} (expect 0)",
        f"max |pairing| on structure elements: {fmt(pairing)}",
        f"max membership residual (constructed): {fmt(member)}",
    ]
    for failed, name in [(rank_defect, "rank"), (pairing > 1e-9, "isotropy"),
                         (member > tol, "membership-construction")]:
        if failed:
            failures.append(name)

    if thermo:
        def dom(r):
            return ref_physical_point(problem.system, r, problem.ts0, span)[:3]

        passed, err, name = ref_check_derivatives(L, sample=dom, n_points=50, seed=seed)
    else:
        passed, err, name = ref_check_derivatives(L, n_points=50, seed=seed)
    verdict = "OK" if passed else "FAIL"
    lines.append(f"derivative check: max rel err {fmt(err)} at {name} ({verdict})")
    if not passed:
        failures.append("derivatives")

    n_run = min(steps, problem.n_steps)
    if thermo:
        traj = th.run_reduced(problem.system, problem.initial, problem.h, n_run)
        samples_ = ref_lifted(problem.system, traj)
    else:
        run = dataclasses.replace(problem, h=min(problem.h, 2e-4), n_steps=n_run)
        samples_ = ref_midpoints(cli.run_formulation(run, "pontryagin"))
    slot = problem.system.layout.S if thermo else 0
    force = problem.f_ext_force
    flow, recover = {}, 0.0
    for (t, x, v, _, p), rate in samples_:
        t, p = float(t), p.copy()
        p[slot] += corrupt
        alpha = -np.asarray(L.d_x(t, x, v), dtype=float)
        if force is not None:
            alpha = alpha - force.value(t, x, v)
        beta = p - np.asarray(L.d_v(t, x, v), dtype=float)
        a = np.concatenate(([-float(L.d_t(t, x, v))], alpha, beta, [1.0], v))
        for key, val in ref_membership(ref_structure(C, t, x, v), rate, a, n).items():
            flow[key] = max(flow.get(key, 0.0), val)
        recover = max(recover, ref_recover(L, C, t, x, v, rate[2 * n + 2 :], force))
    if corrupt:
        slot_name = "p_S" if thermo else "p_0"
        lines.append(f"note: {slot_name} offset by {fmt(corrupt)} before the checks")
    for key in sorted(flow):
        ok = flow[key] <= tol
        extra = " (p = dL/dv)" if key == "beta_vanishes" else ""
        lines.append(f"flow membership {key}{extra}: {fmt(flow[key])} {'OK' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"flow-{key}")
    ok = recover <= tol
    lines.append(f"multiplier recovery residual: {fmt(recover)} {'OK' if ok else 'FAIL'}")
    if not ok:
        failures.append("multiplier-recovery")
    lines.append(f"check FAILED: {', '.join(failures)}" if failures else "check PASSED")
    return lines, 1 if failures else 0


@functools.lru_cache(maxsize=None)
def cached_reference(*args):
    return reference_check(*args)


def run_check(config, seed, samples, steps, corrupt=0.0):
    args = ["check", config, "--seed", str(seed), "--samples", str(samples), "--steps", str(steps)]
    if corrupt:
        args += ["--corrupt", str(corrupt)]
    result = CliRunner().invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(
        result.exception
    )
    return result.stdout.splitlines(), result.exit_code


# -- the command against the reference ----------------------------------------------


CONFIGS = sorted(BUILTINS)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("block", [7, None])
def test_check_prints_the_lines_of_the_per_point_loops(monkeypatch, config, seed, block):
    # 20 samples and 30 flow steps: in blocks of 7, every pass crosses
    # block boundaries; at the default size each is one block.
    if block is not None:
        monkeypatch.setattr(geometry, "_BLOCK", block)
    assert run_check(config, seed, 20, 30) == cached_reference(config, seed, 20, 30)


@pytest.mark.parametrize("config", ["two_port_piston", "nonholonomic_particle"])
def test_check_crosses_the_default_block_size(config):
    n = geometry._BLOCK + 3
    assert run_check(config, 3, n, n) == reference_check(config, 3, n, n)


@pytest.mark.parametrize("config", ["matched_port_piston", "nonholonomic_particle"])
def test_corrupted_check_fails_with_the_lines_of_the_per_point_loops(config):
    lines, code = run_check(config, 2, 10, 20, corrupt=0.5)
    assert (lines, code) == reference_check(config, 2, 10, 20, corrupt=0.5)
    assert code == 1 and lines[-1].startswith("check FAILED: ")
    assert "flow-beta_vanishes" in lines[-1]


def test_check_with_a_tiny_heat_capacity_prints_the_per_point_lines(tmp_path):
    # At c = 1e-6 the random offsets are halved and the rank and derivative
    # checks fail; the array passes report that as the loops did.
    cfg = BUILTINS["closed_piston"]()
    cfg["system"]["c"] = 1e-6
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expect = reference_check(str(path), 0, 8, 8)
    assert run_check(str(path), 0, 8, 8) == expect


def test_the_structure_pass_works_in_blocks(monkeypatch):
    sizes = []
    original = cli._dirac_points

    def counted(C, t, x, w):
        sizes.append(len(t))
        return original(C, t, x, w)

    monkeypatch.setattr(cli, "_dirac_points", counted)
    monkeypatch.setattr(geometry, "_BLOCK", 16)
    lines, code = run_check("nonholonomic_particle", 0, 37, 20)
    assert code == 0
    # The structure samples, then the flow midpoints.
    assert sizes == [16, 16, 5, 16, 4]


def test_a_degenerate_structure_sample_exits_3_in_one_line(monkeypatch):
    # The first sample whose rows are degenerate ends the command.
    def degenerate(C, t, x, w):
        raise DegenerateConstraintError("constraint rows are rank deficient: singular values [0.]")

    monkeypatch.setattr(cli, "_dirac_points", degenerate)
    result = CliRunner().invoke(main, ["check", "closed_piston", "--samples", "3"])
    assert result.exit_code == 3
    assert result.stdout.splitlines() == ["check seed: 0  samples: 3"]
    assert result.stderr.splitlines() == [
        "constraint rows are rank deficient: singular values [0.]"
    ]


# -- the kernels against the reference --------------------------------------------


def stacked_rows_constraint():
    # Rows that move with (t, x, w); rank deficient where x[0] = 0 and w[0]
    # = 0, and not finite where t is infinite.
    def A(t, x, w):
        return np.array([[x[0] * t, w[0]]])

    def B(t, x, w):
        return np.array([x[0] * w[0]])

    return ConstraintSet(n=2, m=1, eval_A=A, eval_B=B)


@pytest.mark.parametrize(
    "bad, message",
    [({2: "zero", 4: "inf"}, "rank deficient: singular values [0.]"),
     ({1: "inf", 3: "zero"}, "not finite")],
)
def test_a_stack_raises_for_its_first_degenerate_point(bad, message):
    C = stacked_rows_constraint()
    rng = np.random.default_rng(0)
    t, x, w = rng.uniform(1, 2, 6), rng.uniform(1, 2, (6, 2)), rng.uniform(1, 2, (6, 2))
    for k, kind in bad.items():
        if kind == "zero":
            x[k, 0] = w[k, 0] = 0.0
        else:
            t[k] = np.inf
    first = min(bad)
    with pytest.raises(DegenerateConstraintError) as stacked:
        geometry._dirac_points(C, t, x, w)
    with pytest.raises(DegenerateConstraintError) as single:
        ref_structure(C, t[first], x[first], w[first])
    assert str(stacked.value) == str(single.value)
    assert message in str(stacked.value)
    # The points before it pass.
    geometry._dirac_points(C, t[:first], x[:first], w[:first])


def s3(a):
    # The sum over the last axis of length 3, in one fixed order.
    return a[..., 0] + a[..., 1] + a[..., 2]


def mechanical_lagrangian(broadcasts):
    # A Lagrangian with every partial nonzero, written once for one point and
    # for stacked points.
    def value(t, x, v):
        return np.sin(t) * s3(x * x) + np.cos(x[..., 0]) * s3(v * v * v) / 3.0

    def d_t(t, x, v):
        return np.cos(t) * s3(x * x)

    def d_x(t, x, v):
        out = 2.0 * np.sin(t)[..., None] * x
        out[..., 0] -= np.sin(x[..., 0]) * s3(v * v * v) / 3.0
        return out

    def d_v(t, x, v):
        return np.cos(x[..., 0])[..., None] * v * v

    def d_vv(t, x, v):
        return (2.0 * np.cos(x[..., 0])[..., None] * v)[..., None] * np.eye(3)

    return TimeLagrangian(3, value, d_t, d_x, d_v, d_vv, broadcasts=broadcasts)


def quadratic_lagrangian():
    # L = (1 + x0^2) |v|^2 / 2 + t x1, one point at a time.
    def value(t, x, v):
        return 0.5 * (1.0 + x[0] * x[0]) * float(v @ v) + t * x[1]

    return TimeLagrangian(
        2,
        value=value,
        d_t=lambda t, x, v: float(x[1]),
        d_x=lambda t, x, v: np.array([x[0] * float(v @ v), t]),
        d_v=lambda t, x, v: (1.0 + x[0] * x[0]) * v,
        d_vv=lambda t, x, v: (1.0 + x[0] * x[0]) * np.eye(2),
    )


def derivative_cases():
    two_port = cli.build_problem(cli.load_config("two_port_piston"))
    particle = cli.build_problem(cli.load_config("nonholonomic_particle"))

    def physical(r):
        return ref_physical_point(two_port.system, r, two_port.ts0, (0.0, 10.0))[:3]

    return {
        "thermo": (two_port.L, physical),
        "particle": (particle.L, None),
        "mechanical": (mechanical_lagrangian(True), None),
        "mechanical, not broadcasting": (mechanical_lagrangian(False), None),
        "quadratic, not broadcasting": (quadratic_lagrangian(), None),
    }


@pytest.mark.parametrize("case", list(derivative_cases()))
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_derivative_pass_equals_the_per_point_loop(case, seed):
    L, sample = derivative_cases()[case]
    report = check_derivatives(L, sample=sample, n_points=12, seed=seed)
    passed, err, name = ref_check_derivatives(L, sample=sample, n_points=12, seed=seed)
    assert (report.passed, report.max_rel_err, report.worst_component) == (passed, err, name)
    assert type(report.passed) is bool and report.n_points == 12


@pytest.mark.parametrize("cols", [0, 1, 3])
def test_stacked_least_squares_equals_one_lstsq_per_point(monkeypatch, cols):
    rng = np.random.default_rng(cols)
    a, b = rng.normal(size=(9, 5, cols)), rng.normal(size=(9, 5))
    stacked = geometry._least_squares(a, b)
    for k in range(9):
        ref = np.linalg.lstsq(a[k], b[k], rcond=None)[0] if cols else np.zeros(0)
        assert stacked[0][k].tobytes() == ref.tobytes()
        assert stacked[1][k] == np.abs(a[k] @ ref - b[k]).max(initial=0.0)
    # numpy < 2 has no stacked lstsq; the fallback calls it point by point.
    monkeypatch.setattr(geometry, "_LSTSQ", None)
    fallback = geometry._least_squares(a, b)
    assert [x.tobytes() for x in fallback] == [x.tobytes() for x in stacked]


def test_physical_points_equal_the_per_point_draws():
    problem = cli.build_problem(cli.load_config("conduction_piston"))
    sys0, around = problem.system, problem.ts0
    rng = np.random.default_rng(5)
    u = rng.random((40, th._physical_draws(sys0)))
    stacked = th._physical_points(sys0, u, around, (0.0, 3.0))
    ref_rng = np.random.default_rng(5)
    for k in range(40):
        ref = ref_physical_point(sys0, ref_rng, around, (0.0, 3.0))
        for a, b in zip(stacked, ref):
            assert np.asarray(a[k]).tobytes() == np.asarray(b).tobytes()
    assert rng.uniform() == ref_rng.uniform()


# -- tooling ------------------------------------------------------------------------------


def test_every_benchmark_patch_target_exists():
    # perfbench/tracing.py replaces attributes by name. A refactor that drops
    # one fails the benchmark's self-test; this test finds it in seconds.
    import scipy.linalg

    from diracsim import dynamics

    source = (ROOT / "perfbench" / "tracing.py").read_text()
    install = next(
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    names = {"cli": cli, "dynamics": dynamics, "thermo": th, "scipy": scipy}
    targets = []
    for node in ast.walk(install):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            names[node.targets[0].id] = eval(ast.unparse(node.value), {}, names)
    for node in ast.walk(install):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("_patch", "_patch_result")
        ):
            owner = eval(ast.unparse(node.args[0]), {}, names)
            targets.append((ast.unparse(node.args[0]), node.args[1].value, owner))
    assert len(targets) >= 20, targets
    missing = [f"{name}.{attr}" for name, attr, owner in targets if not hasattr(owner, attr)]
    assert not missing
