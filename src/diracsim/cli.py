"""Command line interface: run, compare, and check simulations from JSON
configurations.

A configuration is either a path to a JSON file or the name of a bundled
builtin scenario. Schedules (time-dependent inputs) are written as a plain
number for a constant or as a list of [time, value] pairs interpolated
piecewise-linearly and clamped at the ends.

Exit codes: 0 all monitored tolerances met, 1 a tolerance was violated,
2 configuration or formulation error, 3 solver failure.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import functools
import json
import math
from pathlib import Path

import click
import numpy as np

from .dynamics import (
    ImplicitMidpointStepper,
    InconsistentInitialStateError,
    StepFailureError,
    Trajectory,
    _cumulative_trapezoid,
    initialize_covariant_momentum,
    monitor_invariants,
    recover_multipliers,
)
from .geometry import (
    ConstraintSet,
    DegenerateConstraintError,
    PhasePoint,
    PontryaginState,
    dirac_membership_P,
    dirac_pairing,
    dirac_rank,
    random_dirac_element,
)
from .lagrangian import (
    ExternalForce,
    TimeLagrangian,
    check_derivatives,
    d_covariant_energy,
    legendre_dual,
    lift_external_force,
)
from . import thermo as th

FORMULATIONS_THERMO = ("pontryagin", "lagrange-dirac", "reduced")
FORMULATIONS_MECH = ("pontryagin", "lagrange-dirac", "hamilton-dirac")

HAMILTON_DIRAC_THERMO_MESSAGE = (
    "hamilton-dirac is unavailable for open thermodynamic systems: the "
    "extended Lagrangian is degenerate in the bookkeeping velocities, so no "
    "Hamiltonian exists on the extended phase space. Use pontryagin, "
    "lagrange-dirac, or reduced."
)


class ConfigError(Exception):
    def __init__(self, field: str, msg: str):
        super().__init__(f"config error at {field}: {msg}")
        self.field = field
        self.msg = msg


class FormulationUnavailable(Exception):
    pass


def _fmt(x: float) -> str:
    # repr of a Python float is the shortest string that round-trips.
    return repr(float(x))


# -- schedules and config loading ----------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_number(raw, field: str) -> float:
    try:
        val = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(field, f"expected a number, got {raw!r}") from None
    # Python's json reads NaN, Infinity and overflowing literals like 1e999.
    if not math.isfinite(val):
        raise ConfigError(field, f"must be a finite number, got {val!r}")
    return val


def _interp(ts: list[float], vs: list[float]):
    # Scalar np.interp(t, ts, vs) in pure Python, bit for bit: the same knot
    # search and the same slope formula, including numpy's fallbacks, without
    # the per-call array dispatch. Two values are remembered: a step residual
    # reads a schedule several times at its midpoint and at its new node. The
    # state argument of a port or source callable is ignored.
    first, last = ts[0], ts[-1]

    @functools.lru_cache(maxsize=2)
    def value(t):
        t = float(t)
        if t != t:
            return t
        if t > last:
            return vs[-1]
        if t < first:
            return vs[0]
        j = bisect.bisect_right(ts, t) - 1
        if ts[j] == t:
            return vs[j]
        slope = (vs[j + 1] - vs[j]) / (ts[j + 1] - ts[j])
        out = slope * (t - ts[j]) + vs[j]
        if out != out:
            out = slope * (t - ts[j + 1]) + vs[j + 1]
            if out != out and vs[j] == vs[j + 1]:
                out = vs[j]
        return out

    return lambda t, _state=None: value(t)


def _schedule(folded):
    # The callable (t, state=None) -> float of a folded schedule.
    return (lambda t, _state=None: folded) if isinstance(folded, float) else folded


def make_schedule(spec, field: str):
    """Constant or piecewise-linear schedule t -> float from a config entry.

    The callable also takes a second, ignored argument, so a schedule serves
    as a port or source callable (t, state) -> float as it is.
    """

    return _schedule(_fold_schedule(spec, field))


def _fold_schedule(spec, field: str):
    # A constant schedule folded to its float, or a piecewise-linear one.
    if _is_number(spec):
        return _as_number(spec, field)
    if isinstance(spec, list):
        if not spec or not all(
            isinstance(p, list) and len(p) == 2 and all(_is_number(c) for c in p)
            for p in spec
        ):
            raise ConfigError(field, "schedule must be a number or a list of [t, value] pairs")
        ts = [_as_number(p[0], f"{field}[{i}][0]") for i, p in enumerate(spec)]
        vs = [_as_number(p[1], f"{field}[{i}][1]") for i, p in enumerate(spec)]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ConfigError(field, "schedule times must be strictly increasing")
        return vs[0] if len(ts) == 1 else _interp(ts, vs)
    raise ConfigError(field, "schedule must be a number or a list of [t, value] pairs")


def _get(cfg: dict, field: str, default=None, required: bool = False):
    parts = field.split(".")
    node = cfg
    for i, part in enumerate(parts):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(".".join(parts[: i + 1]), "missing required entry")
            return default
        node = node[part]
    return node


def _number(cfg: dict, field: str, default=None) -> float:
    return _as_number(_get(cfg, field, default, required=default is None), field)


def _positive(cfg: dict, field: str, default=None) -> float:
    val = _number(cfg, field, default)
    if not val > 0:
        raise ConfigError(field, f"must be positive, got {val!r}")
    return val


def _vector(cfg: dict, field: str, n: int, default=None) -> np.ndarray:
    raw = _get(cfg, field, default, required=default is None)
    try:
        vec = np.asarray(raw, dtype=float).reshape(n)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(field, f"expected {n} numbers") from None
    for i, val in enumerate(vec):
        _as_number(val, f"{field}[{i}]")
    return vec


# -- builtin scenarios ----------------------------------------------------


def _two_port_piston() -> dict:
    return {
        "system": {
            "kind": "ideal_gas",
            "n_q": 1,
            "c": 1.0,
            "T0": 1.0,
            "s0": 1.0,
            "mass": 1.0,
            "stiffness": 1.0,
            "friction_gamma": 0.05,
            "ports": [
                {"J": 0.01, "molar_entropy": 1.02, "mu": 0.02, "T": 1.05},
                {
                    "J": [[0.0, -0.006], [10.0, -0.01]],
                    "molar_entropy": 0.98,
                    "mu": -0.01,
                    "T": 0.97,
                },
            ],
            "sources": [{"kappa": 0.02, "T": [[0.0, 1.1], [10.0, 1.05]]}],
        },
        "initial": {"q": [0.2], "v_q": [0.0], "S": 1.0, "N": 1.0},
        "integrator": {"formulation": "pontryagin", "h": 0.001, "horizon": 10.0},
        "output": {"prefix": "two_port_piston"},
    }


def _conduction_piston() -> dict:
    return {
        "system": {
            "kind": "ideal_gas",
            "n_q": 1,
            "c": 1.0,
            "T0": 1.0,
            "s0": 1.0,
            "mass": 1.0,
            "stiffness": 1.0,
            "friction_gamma": 0.05,
            "sources": [{"kappa": 0.05, "T": [[0.0, 1.2], [10.0, 1.05]]}],
        },
        "initial": {"q": [0.2], "v_q": [0.0], "S": 1.0, "N": 1.0},
        "integrator": {"formulation": "pontryagin", "h": 0.001, "horizon": 10.0},
        "tolerances": {"entropy_production_min": -1e-12},
        "output": {"prefix": "conduction_piston"},
    }


def _matched_port_piston() -> dict:
    return {
        "system": {
            "kind": "ideal_gas",
            "n_q": 1,
            "c": 1.0,
            "T0": 1.0,
            "s0": 1.0,
            "mass": 1.0,
            "stiffness": 1.0,
            "ports": [{"J": 0.02, "molar_entropy": 1.0, "matched": True}],
        },
        "initial": {"q": [0.2], "v_q": [0.0], "S": 1.0, "N": 1.0},
        "integrator": {"formulation": "pontryagin", "h": 0.001, "horizon": 10.0},
        "output": {"prefix": "matched_port_piston"},
    }


def _closed_piston() -> dict:
    return {
        "system": {
            "kind": "ideal_gas",
            "n_q": 1,
            "c": 1.0,
            "T0": 1.0,
            "s0": 1.0,
            "mass": 1.0,
            "stiffness": 1.0,
        },
        "initial": {"q": [0.3], "v_q": [0.0], "S": 1.0, "N": 1.0},
        "integrator": {"formulation": "pontryagin", "h": 0.001, "horizon": 10.0},
        "output": {"prefix": "closed_piston"},
    }


def _nonholonomic_particle() -> dict:
    return {
        "system": {
            "kind": "nonholonomic_particle",
            "mass": 1.0,
            "beta": [[0.0, 0.0], [10.0, 3.0]],
        },
        "initial": {"x": [0.0, 0.0], "v": [1.0, 0.0]},
        "integrator": {"formulation": "pontryagin", "h": 0.001, "horizon": 1.0},
        "output": {"prefix": "nonholonomic_particle"},
    }


BUILTINS = {
    "two_port_piston": _two_port_piston,
    "conduction_piston": _conduction_piston,
    "matched_port_piston": _matched_port_piston,
    "closed_piston": _closed_piston,
    "nonholonomic_particle": _nonholonomic_particle,
}


def load_config(source: str) -> dict:
    path = Path(source)
    if path.exists():
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"invalid JSON ({exc})") from None
        if not isinstance(cfg, dict):
            raise ConfigError(str(path), "top level must be an object")
        return cfg
    if source in BUILTINS:
        return BUILTINS[source]()
    raise ConfigError(
        "config",
        f"{source!r} is neither a file nor a builtin; "
        f"builtins: {', '.join(sorted(BUILTINS))}",
    )


# -- problem assembly -----------------------------------------------------


@dataclasses.dataclass
class Problem:
    kind: str
    cfg: dict
    L: TimeLagrangian
    vel_constraints: ConstraintSet
    mom_constraints: ConstraintSet
    initial: PontryaginState
    h: float
    n_steps: int
    formulation: str
    tolerances: dict
    prefix: str
    system: th.SimpleOpenSystem | None = None
    ts0: th.ThermoState | None = None
    f_ext_force: ExternalForce | None = None


def _build_thermo_system(cfg: dict) -> tuple[th.SimpleOpenSystem, int]:
    scfg = _get(cfg, "system", required=True)
    n_q = int(_positive(cfg, "system.n_q", 1))
    base = th.ideal_gas_fixture(
        c=_positive(cfg, "system.c", 1.0),
        T0=_positive(cfg, "system.T0", 1.0),
        s0=_number(cfg, "system.s0", 1.0),
        mass=_positive(cfg, "system.mass", 1.0),
        stiffness=_positive(cfg, "system.stiffness", 1.0),
        n_q=n_q,
    )

    gamma = _number(cfg, "system.friction_gamma", 0.0)
    if gamma < 0:
        raise ConfigError("system.friction_gamma", "must be nonnegative")
    friction = th.linear_friction(gamma) if gamma > 0 else None

    # Port and source callables are the schedules themselves, and a product
    # of two constant schedules is folded to one constant.
    ports = []
    for i, pcfg in enumerate(scfg.get("ports", [])):
        fld = f"system.ports[{i}]"
        if not isinstance(pcfg, dict):
            raise ConfigError(fld, "must be an object")
        J = _fold_schedule(pcfg.get("J", 0.0), fld + ".J")
        if "J_S" in pcfg and "molar_entropy" in pcfg:
            raise ConfigError(fld, "give J_S or molar_entropy, not both")
        if "molar_entropy" in pcfg:
            s = _fold_schedule(pcfg["molar_entropy"], fld + ".molar_entropy")
            if isinstance(s, float) and isinstance(J, float):
                J_S = _schedule(s * J)
            else:
                J_S = lambda t, ts, s=_schedule(s), J=_schedule(J): s(t) * J(t)
        else:
            J_S = make_schedule(pcfg.get("J_S", 0.0), fld + ".J_S")
        if pcfg.get("matched", False):
            mu = lambda t, ts: th.chemical_potential(base, ts)
            T_port = lambda t, ts: th.temperature(base, ts)
        else:
            if "mu" not in pcfg or "T" not in pcfg:
                raise ConfigError(fld, "needs mu and T schedules (or matched: true)")
            mu = make_schedule(pcfg["mu"], fld + ".mu")
            T_port = make_schedule(pcfg["T"], fld + ".T")
        ports.append(th.PortModel(J=_schedule(J), J_S=J_S, mu=mu, T_port=T_port))

    sources = []
    for i, hcfg in enumerate(scfg.get("sources", [])):
        fld = f"system.sources[{i}]"
        if not isinstance(hcfg, dict):
            raise ConfigError(fld, "must be an object")
        if "T" not in hcfg:
            raise ConfigError(fld, "needs a T schedule")
        T_b = make_schedule(hcfg["T"], fld + ".T")
        if "kappa" in hcfg:
            kappa = _as_number(hcfg["kappa"], fld + ".kappa")
            if kappa < 0:
                raise ConfigError(fld + ".kappa", "must be nonnegative")
            J_S = lambda t, ts, k=kappa, f=T_b: k * (f(t) - th.temperature(base, ts))
        else:
            J_S = make_schedule(hcfg.get("J_S", 0.0), fld + ".J_S")
        sources.append(th.HeatSourceModel(J_S=J_S, T_source=T_b))

    f_ext = None
    if "external_force" in scfg:
        raw = scfg["external_force"]
        # One schedule per configuration coordinate; a single schedule (number
        # or [[t, value], ...] table) is accepted when n_q == 1.
        if isinstance(raw, list) and all(isinstance(c, list) for c in raw) and raw and not (
            raw[0] and isinstance(raw[0][0], (int, float))
        ):
            scheds = [
                make_schedule(comp, f"system.external_force[{i}]")
                for i, comp in enumerate(raw)
            ]
        else:
            scheds = [make_schedule(raw, "system.external_force")]
        if len(scheds) != n_q:
            raise ConfigError(
                "system.external_force", f"needs {n_q} component schedules"
            )
        f_ext = lambda t, ts: np.array([f(t) for f in scheds])

    return (
        dataclasses.replace(
            base,
            friction=friction,
            ports=tuple(ports),
            sources=tuple(sources),
            f_ext=f_ext,
        ),
        n_q,
    )


def _nonholonomic_setup(cfg: dict) -> tuple[TimeLagrangian, ConstraintSet]:
    mass = _positive(cfg, "system.mass", 1.0)
    beta = make_schedule(_get(cfg, "system.beta", 0.0), "system.beta")
    n = 2

    L = TimeLagrangian(
        n=n,
        value=lambda t, x, v: 0.5 * mass * float(v @ v),
        d_t=lambda t, x, v: 0.0,
        d_x=lambda t, x, v: np.zeros(n),
        d_v=lambda t, x, v: mass * v,
        d_vv=lambda t, x, v: mass * np.eye(n),
    )
    constraints = ConstraintSet(
        n=n,
        m=1,
        eval_A=lambda t, x, w: np.array([[t, -1.0]]),
        eval_B=lambda t, x, w: np.array([beta(t)]),
    )
    return L, constraints


def _finite_initial(state: PontryaginState) -> PontryaginState:
    # An initial point whose energy overflows would only fail later, inside
    # the first Newton step or the structure checks.
    if not all(np.isfinite(a).all() for a in (state.x, state.v, state.p, state.pt)):
        raise ConfigError(
            "initial", "the initial state is not finite (its energy or rates overflow)"
        )
    return state


def build_problem(cfg: dict, formulation_override: str | None = None) -> Problem:
    kind = _get(cfg, "system.kind", required=True)
    h = _positive(cfg, "integrator.h")
    horizon = _positive(cfg, "integrator.horizon")
    steps = horizon / h
    n_steps = int(round(steps))
    if n_steps < 1:
        raise ConfigError("integrator.horizon", "must cover at least one step")
    if abs(steps - n_steps) > 1e-9 * steps:
        raise ConfigError(
            "integrator.horizon",
            f"{horizon!r} is not a whole number of steps of h = {h!r}",
        )
    formulation = formulation_override or _get(
        cfg, "integrator.formulation", "pontryagin"
    )
    t0 = _number(cfg, "initial.t0", 0.0)
    tolerances = dict(_get(cfg, "tolerances", {}) or {})
    for name, val in tolerances.items():
        if val is not None:
            _as_number(val, f"tolerances.{name}")
    common = dict(
        kind=kind, cfg=cfg, h=h, n_steps=n_steps, formulation=formulation,
        tolerances=tolerances, prefix=str(_get(cfg, "output.prefix", "run")),
    )

    if kind == "ideal_gas":
        system, n_q = _build_thermo_system(cfg)
        if formulation not in FORMULATIONS_THERMO:
            if formulation == "hamilton-dirac":
                raise FormulationUnavailable(HAMILTON_DIRAC_THERMO_MESSAGE)
            raise ConfigError(
                "integrator.formulation",
                f"{formulation!r} not in {FORMULATIONS_THERMO}",
            )
        ts0 = th.ThermoState(
            q=_vector(cfg, "initial.q", n_q),
            v_q=_vector(cfg, "initial.v_q", n_q),
            S=_number(cfg, "initial.S"),
            N=_number(cfg, "initial.N"),
            Gamma=_number(cfg, "initial.Gamma", 0.0),
            W=_number(cfg, "initial.W", 0.0),
            Sigma=_number(cfg, "initial.Sigma", 0.0),
        )
        L = th.build_extended_lagrangian(system)
        force = None
        if system.f_ext is not None:
            if formulation == "lagrange-dirac":
                raise ConfigError(
                    "system.external_force",
                    "external forces run on the pontryagin or reduced path",
                )
            force = th.build_external_force(system)
        # Overflow shows in the values, which _finite_initial rejects; numpy's
        # warnings would only repeat it.
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                initial = th.initial_pontryagin_state(system, t0, ts0)
        except th.NonpositiveTemperatureError as exc:
            raise ConfigError("initial", str(exc)) from exc
        return Problem(
            **common,
            L=L,
            vel_constraints=th.build_constraints(system),
            mom_constraints=th.build_momentum_constraints(system),
            initial=_finite_initial(initial),
            system=system,
            ts0=ts0,
            f_ext_force=force,
        )

    if kind == "nonholonomic_particle":
        if formulation not in FORMULATIONS_MECH:
            raise ConfigError(
                "integrator.formulation",
                f"{formulation!r} not valid for a mechanical system "
                f"(choose from {FORMULATIONS_MECH})",
            )
        L, constraints = _nonholonomic_setup(cfg)
        x0 = _vector(cfg, "initial.x", 2)
        v0 = _vector(cfg, "initial.v", 2)
        res = constraints.A(t0, x0, v0) @ v0 + constraints.B(t0, x0, v0)
        if np.max(np.abs(res)) > 1e-8:
            raise ConfigError(
                "initial.v", f"violates the kinematic constraint (residual {res})"
            )
        p0 = np.asarray(L.d_v(t0, x0, v0), dtype=float)
        state0 = PontryaginState(
            t=t0, x=x0, v=v0, pt=initialize_covariant_momentum(L, t0, x0, v0), p=p0
        )
        return Problem(
            **common,
            L=L,
            vel_constraints=constraints,
            mom_constraints=constraints,
            initial=_finite_initial(state0),
        )

    raise ConfigError("system.kind", f"unknown kind {kind!r}")


# -- running --------------------------------------------------------------


def run_formulation(problem: Problem, formulation: str) -> Trajectory:
    if formulation == "reduced":
        if problem.kind != "ideal_gas":
            raise ConfigError(
                "integrator.formulation",
                "the reduced path applies to thermodynamic systems only",
            )
        return th.run_reduced(
            problem.system,
            problem.initial.t,
            problem.ts0,
            problem.h,
            problem.n_steps,
            pt0=problem.initial.pt,
        )
    start = problem.initial
    model = {"lagrangian": problem.L}
    if formulation == "hamilton-dirac":
        if problem.kind == "ideal_gas":
            raise FormulationUnavailable(HAMILTON_DIRAC_THERMO_MESSAGE)
        model = {"hamiltonian": legendre_dual(problem.L)}
        start = PhasePoint(t=start.t, x=start.x, pt=start.pt, p=start.p)
    elif formulation == "pontryagin":
        model["f_ext"] = problem.f_ext_force
    stepper = ImplicitMidpointStepper(
        formulation,
        constraints=(
            problem.vel_constraints if formulation == "pontryagin" else problem.mom_constraints
        ),
        **model,
    )
    return stepper.run(start, problem.h, problem.n_steps)


# -- output ---------------------------------------------------------------


def _lam_column(traj: Trajectory) -> np.ndarray:
    # One multiplier value per node row; each step's multiplier goes to the
    # row the step ends on, and the first row repeats the first step's value.
    if traj.lam.shape[1] == 0:
        return np.zeros(traj.n_steps + 1)
    lam = traj.lam[:, 0]
    return np.concatenate([[lam[0]], lam])


def write_trajectory_csv(path: Path, problem: Problem, traj: Trajectory, inv) -> None:
    """Write one row per node: the state, then the node columns of inv."""

    if problem.kind == "ideal_gas":
        lay = problem.system.layout
        n_q = problem.system.n_q
        # x and p hold (q, S, N, Gamma, W, Sigma) in this order.
        header = (
            ["t"]
            + [f"q_{i}" for i in range(n_q)]
            + [f"v_q_{i}" for i in range(n_q)]
            + ["S", "N", "Gamma", "W", "Sigma"]
            + [f"p_q_{i}" for i in range(n_q)]
            + ["p_S", "p_N", "p_Gamma", "p_W", "p_Sigma", "pt", "lam"]
            + ["E", "cov_E", "P_W", "P_H", "P_M", "I", "kinematic_res", "first_law_res"]
        )
        state = [traj.x[:, lay.q], traj.v[:, lay.q], traj.x[:, lay.S :], traj.p]
        diagnostics = [
            inv.power_mechanical,
            inv.power_heating,
            inv.power_matter,
            inv.entropy_production,
            inv.kinematic_residual,
            inv.first_law_residual,
        ]
    else:
        n = traj.n
        header = (
            ["t"]
            + [f"x_{i}" for i in range(n)]
            + [f"v_{i}" for i in range(n)]
            + [f"p_{i}" for i in range(n)]
            + ["pt", "lam", "E", "cov_E", "kinematic_res"]
        )
        state = [traj.x, traj.v, traj.p]
        diagnostics = [inv.kinematic_residual]
    # cov_E is pt + E, which can round differently from inv.covariant_energy.
    columns = [traj.t, *state, traj.pt, _lam_column(traj), inv.energy, traj.pt + inv.energy]
    _write_table(path, header, np.column_stack(columns + diagnostics))


def write_invariants_csv(path: Path, inv) -> None:
    """Write one row per step: t_mid, then the step columns of inv."""

    header = ["t_mid", "covariant_energy_drift", "energy_balance_residual"]
    columns = [inv.t_mid, inv.covariant_energy_drift[1:], inv.energy_balance_residual]
    if inv.entropy_decomposition_residual is not None:
        header.append("entropy_decomposition_residual")
        columns.append(inv.entropy_decomposition_residual)
    _write_table(path, header, np.column_stack(columns))


def _write_table(path: Path, header: list[str], table: np.ndarray) -> None:
    # The bytes of csv.writer with _fmt cells: neither a header here nor the
    # repr of a float needs quoting, and the excel dialect ends rows in \r\n.
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in table.tolist())


def evaluate_tolerances(
    problem: Problem,
    formulation: str,
    inv,
    tol_override,
    cov_drift: np.ndarray | None = None,
) -> tuple[bool, list[str]]:
    tols = problem.tolerances
    is_thermo = problem.kind == "ideal_gas"

    def tol_of(name, default):
        if tol_override is not None:
            return tol_override
        val = tols.get(name)
        return default if val is None else float(val)

    forced = cov_drift is not None
    if cov_drift is None:
        cov_drift = inv.covariant_energy_drift

    # (name, value, tolerance key, default tolerance)
    drift = "max |covariant energy drift|" + (" net of external work" if forced else "")
    ebr = np.max(np.abs(inv.energy_balance_residual), initial=0.0)
    checks = [
        (drift, np.max(np.abs(cov_drift)), "covariant_energy", 1e-6),
        ("max |energy balance residual|", ebr, "energy_balance", 1e-8),
        ("max kinematic residual", np.max(inv.kinematic_residual), "kinematic", 1e-9),
    ]
    if is_thermo:
        edr = np.max(np.abs(inv.entropy_decomposition_residual), initial=0.0)
        checks += [
            ("max |first law residual|", np.max(np.abs(inv.first_law_residual)), "first_law", 1e-6),
            ("max |entropy decomposition residual|", edr, "entropy_decomposition",
             1e-10 if formulation == "reduced" else 1e-9),
        ]

    lines = []
    passed = True
    for name, value, key, default in checks:
        value, tol = float(value), tol_of(key, default)
        ok = value <= tol
        passed &= ok
        lines.append(f"{name}: {_fmt(value)} (tol {_fmt(tol)}) {'OK' if ok else 'FAIL'}")

    if is_thermo:
        floor = tols.get("entropy_production_min")
        min_I = float(np.min(inv.entropy_production))
        if floor is None:
            lines.append(f"min entropy production: {_fmt(min_I)} (no floor configured)")
        else:
            ok = min_I >= float(floor)
            passed &= ok
            lines.append(
                f"min entropy production: {_fmt(min_I)} "
                f"(floor {_fmt(float(floor))}) {'OK' if ok else 'FAIL'}"
            )
    return passed, lines


def _run_and_report(problem: Problem, formulation: str, outdir: Path, tol_override):
    traj = run_formulation(problem, formulation)
    inv = monitor_invariants(
        problem.L, problem.vel_constraints, traj, thermo_system=problem.system
    )
    cov_drift = None
    if problem.kind == "ideal_gas" and problem.system.f_ext is not None:
        # External forces do work on the mechanics, which the covariant energy
        # legitimately accumulates; the conserved quantity is the drift net of
        # the external work integral (trapezoid on the nodes, matching the
        # first-law quadrature).
        work = _cumulative_trapezoid(inv.t, inv.power_mechanical)
        cov_drift = inv.covariant_energy_drift - work
    outdir.mkdir(parents=True, exist_ok=True)
    prefix = problem.prefix
    write_trajectory_csv(outdir / f"{prefix}_trajectory.csv", problem, traj, inv)
    write_invariants_csv(outdir / f"{prefix}_invariants.csv", inv)
    passed, lines = evaluate_tolerances(
        problem, formulation, inv, tol_override, cov_drift=cov_drift
    )
    head = [
        f"system: {problem.kind}",
        f"formulation: {formulation}",
        f"steps: {problem.n_steps}  h: {_fmt(problem.h)}",
    ]
    summary = head + lines + [f"overall: {'PASS' if passed else 'FAIL'}"]
    with open(outdir / f"{prefix}_summary.txt", "w") as fh:
        fh.write("\n".join(summary) + "\n")
    return passed, summary, traj


# -- commands -------------------------------------------------------------


@click.group()
def main():
    """Simulate and verify open thermodynamic and nonholonomic systems."""


def _fail(exc: Exception, code: int):
    click.echo(str(exc), err=True)
    raise SystemExit(code)


@contextlib.contextmanager
def _exit_codes():
    # A config or formulation error exits 2, a solver failure 3, in one line.
    try:
        yield
    except (ConfigError, FormulationUnavailable, InconsistentInitialStateError) as exc:
        _fail(exc, 2)
    except (StepFailureError, th.NonpositiveTemperatureError) as exc:
        _fail(exc, 3)


def _min(lo):
    # Option callback: a value below lo, NaN or infinity is a usage error,
    # reported in one line with exit code 2.
    def callback(ctx, param, value):
        if value is not None and not lo <= value < math.inf:
            _fail(ConfigError(param.opts[0], f"must be finite and >= {lo}, got {value}"), 2)
        return value

    return callback


@main.command()
@click.argument("config")
@click.option("--formulation", default=None, help="Override integrator.formulation.")
@click.option("--out", default=".", help="Output directory.")
@click.option(
    "--tol", type=float, default=None, callback=_min(0), help="Override all residual tolerances."
)
def run(config, formulation, out, tol):
    """Integrate a scenario, write CSVs and a summary, check tolerances."""

    with _exit_codes():
        cfg = load_config(config)
        problem = build_problem(cfg, formulation)
        passed, summary, _ = _run_and_report(
            problem, problem.formulation, Path(out), tol
        )
    for line in summary:
        click.echo(line)
    raise SystemExit(0 if passed else 1)


@main.command()
@click.argument("config")
@click.option(
    "--formulations",
    default="pontryagin,lagrange-dirac,reduced",
    help="Comma-separated formulations to run and compare.",
)
@click.option("--out", default=None, help="Optional output directory for a report.")
@click.option(
    "--tol", type=float, default=None, callback=_min(0), help="Agreement tolerance (default 1e-6)."
)
def compare(config, formulations, out, tol):
    """Run several formulations of one scenario and compare pointwise."""

    tol = 1e-6 if tol is None else tol
    names = [f.strip() for f in formulations.split(",") if f.strip()]
    if not names:
        _fail(ConfigError("--formulations", "need at least one formulation"), 2)
    with _exit_codes():
        cfg = load_config(config)
        # One problem per name validates every name before anything runs.
        problems = {name: build_problem(cfg, name) for name in names}
        trajs = {name: run_formulation(problems[name], name) for name in names}
        problem = problems[names[0]]

    lines = [f"compare: {', '.join(names)} over {problem.n_steps} steps at h = {_fmt(problem.h)}"]
    worst = 0.0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = trajs[names[i]], trajs[names[j]]
            dx = float(np.max(np.abs(a.x - b.x)))
            dp = float(np.max(np.abs(a.p - b.p)))
            dpt = float(np.max(np.abs(a.pt - b.pt)))
            div = max(dx, dp, dpt)
            worst = max(worst, div)
            lines.append(
                f"{names[i]} vs {names[j]}: max|x| {_fmt(dx)} max|p| {_fmt(dp)} "
                f"max|pt| {_fmt(dpt)} overall {_fmt(div)}"
            )
    ok = worst <= tol
    lines.append(
        f"max pointwise divergence: {_fmt(worst)} (tol {_fmt(tol)}) "
        f"{'PASS' if ok else 'FAIL'}"
    )
    for line in lines:
        click.echo(line)
    if out is not None:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / f"{problem.prefix}_compare.txt", "w") as fh:
            fh.write("\n".join(lines) + "\n")
    raise SystemExit(0 if ok else 1)


@main.command()
@click.argument("config")
@click.option(
    "--seed", type=int, default=0, callback=_min(0), help="Seed for the randomized checks."
)
@click.option("--samples", type=int, default=30, callback=_min(1), help="Random points per check.")
@click.option(
    "--steps", type=int, default=200, callback=_min(1), help="Trajectory steps for the flow checks."
)
@click.option("--tol", type=float, default=1e-8, callback=_min(0), help="Membership tolerance.")
@click.option(
    "--corrupt",
    type=float,
    default=0.0,
    help="Offset added to one momentum slot before the membership checks, to "
    "demonstrate the failure diagnostics.",
)
def check(config, seed, samples, steps, tol, corrupt):
    """Verify structure: ranks, pairings, memberships, declared derivatives."""

    with _exit_codes():
        problem = build_problem(load_config(config), None)

    rng = np.random.default_rng(seed)
    click.echo(f"check seed: {seed}  samples: {samples}")
    failures = []
    is_thermo = problem.kind == "ideal_gas"
    n = problem.L.n
    horizon = problem.n_steps * problem.h

    def sample_point():
        if is_thermo:
            return th.random_physical_point(
                problem.system, rng, problem.ts0, t_span=(0.0, horizon)
            )
        return PontryaginState(
            t=float(rng.uniform(0.0, horizon)),
            x=rng.uniform(-1.0, 1.0, n),
            v=rng.uniform(-1.0, 1.0, n),
            pt=float(rng.uniform(-1.0, 1.0)),
            p=rng.uniform(-1.0, 1.0, n),
        )

    # Structure at random points: rank, isotropy, membership of construction.
    expected_rank = 3 * n + 2
    worst_rank_defect = 0
    worst_pairing = 0.0
    worst_member = 0.0
    for _ in range(samples):
        pt_ = sample_point()
        try:
            r = dirac_rank(pt_, problem.vel_constraints)
        except DegenerateConstraintError as exc:
            _fail(exc, 3)
        worst_rank_defect = max(worst_rank_defect, abs(r - expected_rank))
        e1 = random_dirac_element(pt_, problem.vel_constraints, rng)
        e2 = random_dirac_element(pt_, problem.vel_constraints, rng)
        worst_pairing = max(
            worst_pairing,
            abs(dirac_pairing(e1, e2)),
            abs(dirac_pairing(e1, e1)),
        )
        rep = dirac_membership_P(pt_, problem.vel_constraints, *e1, tol=tol)
        worst_member = max(worst_member, max(rep.residuals.values()))
    click.echo(f"rank defect: {worst_rank_defect} (expect 0)")
    click.echo(f"max |pairing| on structure elements: {_fmt(worst_pairing)}")
    click.echo(f"max membership residual (constructed): {_fmt(worst_member)}")
    if worst_rank_defect:
        failures.append("rank")
    if worst_pairing > 1e-9:
        failures.append("isotropy")
    if worst_member > tol:
        failures.append("membership-construction")

    # Declared derivatives of the Lagrangian.
    if is_thermo:
        ts0 = problem.ts0

        def dom(r):
            p = th.random_physical_point(
                problem.system, r, ts0, t_span=(0.0, horizon)
            )
            return p.t, p.x, p.v

        report = check_derivatives(problem.L, sample=dom, n_points=50, seed=seed)
    else:
        report = check_derivatives(problem.L, n_points=50, seed=seed)
    click.echo(
        f"derivative check: max rel err {_fmt(report.max_rel_err)} "
        f"at {report.worst_component} "
        f"({'OK' if report.passed else 'FAIL'})"
    )
    if not report.passed:
        failures.append("derivatives")

    # Flow-level membership: the discrete rate paired with the differential of
    # the covariant energy must sit in the structure at every midpoint. The
    # constraint row is imposed at the new node, so its midpoint value carries
    # an O(h^2) placement term; cap the check step so that term sits below the
    # membership tolerance.
    with _exit_codes():
        n_run = min(steps, problem.n_steps)
        if is_thermo:
            traj = th.run_reduced(
                problem.system, problem.initial.t, problem.ts0, problem.h, n_run
            )
            samples_iter = th.lifted_midpoint_samples(problem.system, traj)
        else:
            h_check = min(problem.h, 2e-4)
            traj = run_formulation(
                dataclasses.replace(problem, h=h_check, n_steps=n_run), "pontryagin"
            )
            samples_iter = traj.midpoint_samples()

    slot = problem.system.layout.S if is_thermo else 0
    slot_name = "p_S" if is_thermo else "p_0"
    worst_flow: dict[str, float] = {}
    worst_recover = 0.0
    for state, rate, lam in samples_iter:
        if corrupt:
            p_bad = state.p.copy()
            p_bad[slot] += corrupt
            state = PontryaginState(
                t=state.t, x=state.x, v=state.v, pt=state.pt, p=p_bad
            )
        a = d_covariant_energy(problem.L, state)
        if problem.f_ext_force is not None:
            lift = lift_external_force(problem.f_ext_force, state.t, state.x, state.v)
            a = dataclasses.replace(a, alpha=a.alpha - lift.alpha)
        rep = dirac_membership_P(state, problem.vel_constraints, rate, a, tol=tol)
        for name, val in rep.residuals.items():
            worst_flow[name] = max(worst_flow.get(name, 0.0), val)
        est = recover_multipliers(
            problem.L,
            problem.vel_constraints,
            state,
            rate,
            f_ext=problem.f_ext_force,
        )
        worst_recover = max(worst_recover, est.residual)
    if corrupt:
        click.echo(f"note: {slot_name} offset by {_fmt(corrupt)} before the checks")
    for name in sorted(worst_flow):
        val = worst_flow[name]
        ok = val <= tol
        extra = " (p = dL/dv)" if name == "beta_vanishes" else ""
        click.echo(f"flow membership {name}{extra}: {_fmt(val)} {'OK' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"flow-{name}")
    ok = worst_recover <= tol
    click.echo(f"multiplier recovery residual: {_fmt(worst_recover)} {'OK' if ok else 'FAIL'}")
    if not ok:
        failures.append("multiplier-recovery")

    if failures:
        click.echo(f"check FAILED: {', '.join(failures)}")
        raise SystemExit(1)
    click.echo("check PASSED")
    raise SystemExit(0)


if __name__ == "__main__":
    main()
