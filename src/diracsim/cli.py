"""Command line interface: run, compare, and check simulations from JSON
configurations.

A configuration is either a path to a JSON file or the name of a bundled
builtin scenario. Schedules (time-dependent inputs) are written as a plain
number for a constant or as a list of [time, value] pairs interpolated
piecewise-linearly and clamped at the ends. Every config object takes
only the keys its reader reads; any other key is a configuration error.

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
    FORMULATIONS,
    ImplicitMidpointStepper,
    InconsistentInitialStateError,
    StepFailureError,
    Trajectory,
    _cumulative_trapezoid,
    _recovered_multipliers,
    _require_on_constraint,
    monitor_invariants,
    recover_multipliers,  # noqa: F401 (the benchmark tracer patches it here)
)
from .geometry import (
    ConstraintSet,
    DegenerateConstraintError,
    PontryaginState,
    _blocks,
    _dirac_pairing,
    _dirac_points,
    _dot,
    _evaluate,
    _membership,
    _random_elements,
    dirac_membership_P,  # noqa: F401 (the benchmark tracer patches these three here)
    dirac_rank,  # noqa: F401
    random_dirac_element,  # noqa: F401
)
from .lagrangian import (
    ExternalForce,
    TimeLagrangian,
    _covariant_differential,
    check_derivatives,
    covariant_legendre,
    legendre_dual,  # noqa: F401 (the benchmark tracer patches it here)
)
from . import thermo as th

# The formulations each system kind runs on, in the order `compare` runs them
# by default: build_problem accepts these and no others.
FORMULATIONS_BY_KIND = {
    "ideal_gas": ("pontryagin", "lagrange-dirac", "reduced"),
    "nonholonomic_particle": FORMULATIONS,
}

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


def _fmt(x: float) -> str:
    # repr of a Python float is the shortest string that round-trips.
    return repr(float(x))


# -- schedules and config loading ----------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_number(raw, field: str) -> float:
    # A JSON number only: a string or a boolean is not read as one.
    if not _is_number(raw):
        raise ConfigError(field, f"expected a number, got {raw!r}")
    try:
        val = float(raw)
    except OverflowError:
        raise ConfigError(field, f"expected a number, got {raw!r}") from None
    # Python's json reads NaN, Infinity and overflowing literals like 1e999.
    if not math.isfinite(val):
        raise ConfigError(field, f"must be a finite number, got {val!r}")
    return val


def _interp(ts: list[float], vs: list[float]):
    # Scalar np.interp(t, ts, vs) in pure Python, bit for bit: the same knot
    # search and the same slope formula, including numpy's fallbacks, without
    # the per-call array dispatch. Two values are remembered: a step residual
    # reads a schedule several times at its midpoint and at its new node. An
    # array of times goes to np.interp itself. The state argument of a port
    # or source callable is ignored.
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

    def schedule(t, _state=None):
        try:
            return value(t)
        except TypeError:  # an array of times is unhashable
            return np.interp(t, ts, vs)

    return schedule


def _schedule(folded):
    # The callable (t, state=None) -> float of a folded schedule.
    return (lambda t, _state=None: folded) if isinstance(folded, float) else folded


def make_schedule(spec, field: str):
    """Constant or piecewise-linear schedule t -> float from a config entry.

    The callable also takes a second, ignored argument, so a schedule serves
    as a port or source callable (t, state) -> float as it is. Given an array
    of times, a piecewise-linear schedule returns one value per time.
    """

    return _schedule(_fold_schedule(spec, field))


def _is_knot(item) -> bool:
    # A [t, value] pair of a schedule table.
    return isinstance(item, list) and len(item) == 2 and all(_is_number(c) for c in item)


def _fold_schedule(spec, field: str):
    # A constant schedule folded to its float, or a piecewise-linear one.
    if _is_number(spec):
        return _as_number(spec, field)
    if isinstance(spec, list):
        if not spec or not all(_is_knot(p) for p in spec):
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
        if not isinstance(node, dict):
            raise ConfigError(".".join(parts[:i]) or "config", f"must be an object, got {node!r}")
        if part not in node:
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


def _vector(cfg: dict, field: str, n: int) -> np.ndarray:
    # A list of n numbers; a single number stands for a list of one.
    raw = _get(cfg, field, required=True)
    items = raw if isinstance(raw, list) else [raw]
    if len(items) != n:
        raise ConfigError(field, f"expected {n} numbers")
    return np.array([_as_number(val, f"{field}[{i}]") for i, val in enumerate(items)])


def _list(cfg: dict, field: str) -> list:
    raw = _get(cfg, field, [])
    if not isinstance(raw, list):
        raise ConfigError(field, f"must be a list, got {raw!r}")
    return raw


# The tolerance keys evaluate_tolerances reads: five bounds on residuals,
# which must be >= 0, and a signed floor on the entropy production.
TOLERANCE_KEYS = ("covariant_energy", "energy_balance", "kinematic", "first_law",
                  "entropy_decomposition", "entropy_production_min")

# The keys each config object's reader reads: the top level, the integrator
# and output objects, and, by system kind, the system and initial objects.
_KEYS = {
    "": ("system", "initial", "integrator", "tolerances", "output"),
    "integrator": ("h", "horizon", "formulation"),
    "output": ("prefix",),
}
_KIND_KEYS = {
    "ideal_gas": {"system": ("kind", "n_q", "c", "T0", "s0", "mass", "stiffness", "friction_gamma",
                             "ports", "sources", "external_force"),
                  "initial": ("t0", "q", "v_q", "S", "N", "Gamma", "W", "Sigma")},
    "nonholonomic_particle": {"system": ("kind", "mass", "beta"), "initial": ("t0", "x", "v")},
}
_PORT_KEYS = ("J", "J_S", "molar_entropy", "matched", "mu", "T")
_SOURCE_KEYS = ("T", "kappa", "J_S")


def _known(obj, field: str, keys: tuple) -> dict:
    # The config object at field (a path, "" for the top level), which must
    # hold no key outside those its reader reads.
    if not isinstance(obj, dict):
        raise ConfigError(field, f"must be an object, got {obj!r}")
    for key in obj:
        if key not in keys:
            raise ConfigError(
                f"{field}.{key}" if field else key, f"unknown key; known: {', '.join(keys)}"
            )
    return obj


def _tolerances(cfg: dict) -> dict:
    tols = _get(cfg, "tolerances")  # absent or null: every default
    for name, val in _known({} if tols is None else tols, "tolerances", TOLERANCE_KEYS).items():
        if val is None:
            continue
        if _as_number(val, f"tolerances.{name}") < 0 and name != "entropy_production_min":
            raise ConfigError(f"tolerances.{name}", f"must be >= 0, got {val!r}")
    return dict(tols or {})


def _prefix(cfg: dict) -> str:
    # Outputs are written to <--out>/<prefix>_<name>: the prefix is a file name.
    prefix = _get(cfg, "output.prefix", "run")
    if not isinstance(prefix, str) or not prefix or any(c in prefix for c in "/\\\0"):
        raise ConfigError(
            "output.prefix", f"must be a file name without a path separator, got {prefix!r}"
        )
    return prefix


# -- builtin scenarios ----------------------------------------------------


def _read_config(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON ({exc})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"not UTF-8 text ({exc})") from None
    except OSError as exc:
        raise ConfigError(str(path), f"cannot be read ({exc.strerror or exc})") from None
    if not isinstance(cfg, dict):
        raise ConfigError(str(path), "top level must be an object")
    return cfg


# The bundled scenarios, package data under scenarios/: name -> a function
# returning a fresh copy of the scenario's config.
BUILTINS = {
    name: functools.partial(_read_config, Path(__file__).parent / "scenarios" / f"{name}.json")
    for name in (
        "two_port_piston",
        "conduction_piston",
        "matched_port_piston",
        "closed_piston",
        "forced_piston",
        "nonholonomic_particle",
    )
}


def load_config(source: str) -> dict:
    path = Path(source)
    if path.exists():
        return _read_config(path)
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


# The most configuration coordinates an ideal gas takes: the step Jacobian of
# n_q = 1000 has about 3017**2 entries (73 MB).
_MAX_N_Q = 1000
# The most steps a run takes: the node array of 10**7 steps is 1.6 GB at
# n_q = 1 (about 3 GB with the trajectory's copies).
_MAX_STEPS = 10**7


def _build_thermo_system(cfg: dict) -> tuple[th.SimpleOpenSystem, int]:
    scfg = _get(cfg, "system", required=True)
    n_q = _positive(cfg, "system.n_q", 1)
    if n_q != int(n_q):
        raise ConfigError("system.n_q", f"must be a whole number, got {n_q!r}")
    if n_q > _MAX_N_Q:
        raise ConfigError("system.n_q", f"must be at most {_MAX_N_Q}, got {n_q!r}")
    n_q = int(n_q)
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
    # of two constant schedules is folded to one constant. Each callable
    # broadcasts over node arrays, as the open-system model requires.
    ports = []
    for i, pcfg in enumerate(_list(cfg, "system.ports")):
        fld = f"system.ports[{i}]"
        _known(pcfg, fld, _PORT_KEYS)
        J = _fold_schedule(pcfg.get("J", 0.0), fld + ".J")
        if "J_S" in pcfg and "molar_entropy" in pcfg:
            raise ConfigError(fld, "give J_S or molar_entropy, not both")
        molar_entropy = None
        if "molar_entropy" in pcfg:
            s = _fold_schedule(pcfg["molar_entropy"], fld + ".molar_entropy")
            if isinstance(s, float) and isinstance(J, float):
                J_S = _schedule(s * J)
            else:
                molar_entropy = _schedule(s)
        else:
            J_S = make_schedule(pcfg.get("J_S", 0.0), fld + ".J_S")
        matched = pcfg.get("matched", False)
        if not isinstance(matched, bool):
            raise ConfigError(fld + ".matched", f"must be true or false, got {matched!r}")
        if matched:
            for key in ("mu", "T"):
                if key in pcfg:
                    raise ConfigError(f"{fld}.{key}", "a matched port reads no mu or T")
            mu = lambda t, ts: th.chemical_potential(base, ts)
            T_port = lambda t, ts: th.temperature(base, ts)
        else:
            if "mu" not in pcfg or "T" not in pcfg:
                raise ConfigError(fld, "needs mu and T schedules (or matched: true)")
            mu = make_schedule(pcfg["mu"], fld + ".mu")
            T_port = make_schedule(pcfg["T"], fld + ".T")
        if molar_entropy is None:
            ports.append(th.PortModel(J=_schedule(J), J_S=J_S, mu=mu, T_port=T_port))
        else:
            ports.append(th.PortModel.from_molar_entropy(_schedule(J), molar_entropy, mu, T_port))

    sources = []
    for i, hcfg in enumerate(_list(cfg, "system.sources")):
        fld = f"system.sources[{i}]"
        _known(hcfg, fld, _SOURCE_KEYS)
        if "T" not in hcfg:
            raise ConfigError(fld, "needs a T schedule")
        T_b = make_schedule(hcfg["T"], fld + ".T")
        if "kappa" in hcfg:
            if "J_S" in hcfg:
                raise ConfigError(fld, "give J_S or kappa, not both")
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
        # One schedule per configuration coordinate, in a list; when n_q == 1
        # the one schedule may also stand alone (a list whose one item is a
        # [t, value] pair is a table).
        if n_q == 1 and not (isinstance(raw, list) and len(raw) == 1 and not _is_knot(raw[0])):
            scheds = [make_schedule(raw, "system.external_force")]
        elif isinstance(raw, list) and len(raw) == n_q:
            scheds = [
                make_schedule(comp, f"system.external_force[{i}]") for i, comp in enumerate(raw)
            ]
        else:
            raise ConfigError(
                "system.external_force", f"needs a list of {n_q} schedules, one per coordinate"
            )
        def f_ext(t, ts):
            if isinstance(t, np.ndarray):  # node times: one row per node
                return np.stack([np.broadcast_to(f(t), t.shape) for f in scheds], axis=-1)
            return np.array([f(t) for f in scheds])

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

    # L broadcasts over stacked points, and eval_rows gives the constraint
    # rows of stacked points.
    def rows(t, x, w):
        A, B = np.empty((len(t), 1, n)), np.empty((len(t), 1))
        A[:, 0, 0], A[:, 0, 1], B[:, 0] = t, -1.0, beta(t)
        return A, B

    L = TimeLagrangian(
        n=n,
        value=lambda t, x, v: 0.5 * mass * _dot(v, v),
        d_t=lambda t, x, v: 0.0,
        d_x=lambda t, x, v: np.zeros(n),
        d_v=lambda t, x, v: mass * v,
        d_vv=lambda t, x, v: mass * np.eye(n),
        broadcasts=True,
    )

    constraints = ConstraintSet(
        n=n,
        m=1,
        eval_A=lambda t, x, w: np.array([[t, -1.0]]),
        eval_B=lambda t, x, w: np.array([beta(t)]),
        eval_rows=rows,
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


def _kind(cfg: dict) -> str:
    kind = _get(cfg, "system.kind", required=True)
    if not isinstance(kind, str) or kind not in _KIND_KEYS:
        raise ConfigError("system.kind", f"unknown kind {kind!r}")
    return kind


# A start whose energy or rates overflow shows it in its values, which
# _finite_initial rejects; numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def build_problem(cfg: dict, formulation_override: str | None = None) -> Problem:
    kind = _kind(cfg)
    for field, keys in {**_KEYS, **_KIND_KEYS[kind]}.items():
        _known(cfg.get(field, {}) if field else cfg, field, keys)
    h = _positive(cfg, "integrator.h")
    horizon = _positive(cfg, "integrator.horizon")
    steps = horizon / h
    if not steps < _MAX_STEPS + 0.5:
        raise ConfigError("integrator.horizon",
                          f"covers {steps:.6g} steps of h = {h!r}; at most {_MAX_STEPS} are allowed")
    n_steps = int(round(steps))
    if n_steps < 1:
        raise ConfigError("integrator.horizon", "must cover at least one step")
    if abs(steps - n_steps) > 1e-9 * steps:
        raise ConfigError(
            "integrator.horizon",
            f"{horizon!r} is not a whole number of steps of h = {h!r}",
        )
    formulation = formulation_override or _get(cfg, "integrator.formulation", "pontryagin")
    t0 = _number(cfg, "initial.t0", 0.0)
    # The end time is finite, and a step of h, at least the float spacing of
    # the grid's largest time, moves every time.
    t_end = t0 + horizon
    if not h >= math.ulp(max(abs(t0), abs(t_end))):
        raise ConfigError("initial.t0", f"the grid from {t0!r} to {t_end!r} must end at a finite "
                                        f"time, and each step of h = {h!r} must advance t")
    common = dict(
        kind=kind, h=h, n_steps=n_steps, formulation=formulation,
        tolerances=_tolerances(cfg), prefix=_prefix(cfg),
    )
    formulations = FORMULATIONS_BY_KIND[kind]
    if formulation not in formulations:
        if kind == "nonholonomic_particle":
            msg = f"{formulation!r} not valid for a mechanical system (choose from {formulations})"
        elif formulation == "hamilton-dirac":
            msg = HAMILTON_DIRAC_THERMO_MESSAGE
        else:
            msg = f"{formulation!r} not in {formulations}"
        raise ConfigError("integrator.formulation", msg)

    if kind == "ideal_gas":
        system, n_q = _build_thermo_system(cfg)
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
        force = None if system.f_ext is None else th.build_external_force(system)
        try:
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

    # kind == "nonholonomic_particle"
    L, constraints = _nonholonomic_setup(cfg)
    x0 = _vector(cfg, "initial.x", 2)
    v0 = _vector(cfg, "initial.v", 2)
    try:
        _require_on_constraint(constraints.A(t0, x0, v0), constraints.B(t0, x0, v0), v0)
    except InconsistentInitialStateError as exc:
        raise ConfigError("initial.v", str(exc)) from exc
    z = covariant_legendre(L, t0, x0, v0)
    state0 = PontryaginState(t=t0, x=x0, v=v0, pt=z.pt, p=z.p)
    return Problem(
        **common,
        L=L,
        vel_constraints=constraints,
        mom_constraints=constraints,
        initial=_finite_initial(state0),
    )


# -- running --------------------------------------------------------------


def run_formulation(problem: Problem, formulation: str) -> Trajectory:
    # formulation is one that build_problem accepts for the problem's kind.
    if formulation == "reduced":
        return th.run_reduced(problem.system, problem.initial, problem.h, problem.n_steps)
    return _stepper(problem, formulation).run(problem.initial, problem.h, problem.n_steps)


def _stepper(problem: Problem, formulation: str) -> ImplicitMidpointStepper:
    # The stepper of a DAE formulation; on the open system it reads the
    # system's one-pass point record.
    system = problem.system
    points = None if system is None else th._mixed_points(system, formulation == "lagrange-dirac")
    C = problem.vel_constraints if formulation == "pontryagin" else problem.mom_constraints
    return ImplicitMidpointStepper(formulation, problem.L, C, points=points)


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


def evaluate_tolerances(problem: Problem, inv, tol_override) -> tuple[bool, list[str]]:
    tols = problem.tolerances
    is_thermo = problem.kind == "ideal_gas"

    def tol_of(name, default):
        if tol_override is not None:
            return tol_override
        val = tols.get(name)
        return default if val is None else float(val)

    summary = inv.summary()
    drift = ("max |covariant energy drift|", summary["max_abs_covariant_energy_drift"])
    if is_thermo and problem.system.f_ext is not None:
        # External forces do work on the mechanics, which the covariant energy
        # legitimately accumulates; the conserved quantity is the drift net of
        # the external work integral (trapezoid on the nodes, matching the
        # first-law quadrature).
        work = _cumulative_trapezoid(inv.t, inv.power_mechanical)
        drift = (drift[0] + " net of external work",
                 np.max(np.abs(inv.covariant_energy_drift - work)))

    # (name, value, tolerance key, default tolerance)
    checks = [
        (*drift, "covariant_energy", 1e-6),
        ("max |energy balance residual|", summary["max_abs_energy_balance_residual"],
         "energy_balance", 1e-8),
        ("max kinematic residual", summary["max_kinematic_residual"], "kinematic", 1e-9),
    ]
    if is_thermo:
        checks += [
            ("max |first law residual|", np.max(np.abs(inv.first_law_residual)), "first_law", 1e-6),
            ("max |entropy decomposition residual|",
             summary["max_abs_entropy_decomposition_residual"], "entropy_decomposition",
             1e-10 if problem.formulation == "reduced" else 1e-9),
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
        min_I = summary["min_entropy_production"]
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


def _make_outdir(outdir: Path) -> None:
    # Called before anything is integrated, so a path that cannot be a
    # directory fails at once.
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            "--out", f"cannot create directory {str(outdir)!r} ({exc.strerror or exc})"
        ) from None


def _write(path: Path, writer, *args) -> None:
    # writer(path, *args); an output that cannot be written (a directory in
    # its place, say) is an error of --out, found after the run.
    try:
        writer(path, *args)
    except OSError as exc:
        raise ConfigError("--out", f"cannot write {str(path)!r} ({exc.strerror or exc})") from None


def _run_and_report(problem: Problem, outdir: Path, tol_override):
    _make_outdir(outdir)
    traj = run_formulation(problem, problem.formulation)
    inv = monitor_invariants(
        problem.L, problem.vel_constraints, traj, thermo_system=problem.system
    )
    prefix = problem.prefix
    _write(outdir / f"{prefix}_trajectory.csv", write_trajectory_csv, problem, traj, inv)
    _write(outdir / f"{prefix}_invariants.csv", write_invariants_csv, inv)
    passed, lines = evaluate_tolerances(problem, inv, tol_override)
    head = [
        f"system: {problem.kind}",
        f"formulation: {problem.formulation}",
        f"steps: {problem.n_steps}  h: {_fmt(problem.h)}",
    ]
    summary = head + lines + [f"overall: {'PASS' if passed else 'FAIL'}"]
    _write(outdir / f"{prefix}_summary.txt", Path.write_text, "\n".join(summary) + "\n")
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
    # A config error or an inconsistent start exits 2, a solver failure 3.
    try:
        yield
    except (ConfigError, InconsistentInitialStateError) as exc:
        _fail(exc, 2)
    except (StepFailureError, th.NonpositiveTemperatureError, DegenerateConstraintError) as exc:
        _fail(exc, 3)


def _finite(lo=-math.inf):
    # Option callback: a value below lo, NaN or an infinity is a usage error,
    # reported in one line with exit code 2.
    def callback(ctx, param, value):
        if value is not None and not (lo <= value and math.isfinite(value)):
            bound = "" if lo == -math.inf else f" and >= {lo}"
            _fail(ConfigError(param.opts[0], f"must be finite{bound}, got {value}"), 2)
        return value

    return callback


@main.command()
@click.argument("config")
@click.option("--formulation", default=None, help="Override integrator.formulation.")
@click.option("--out", default=".", help="Output directory.")
@click.option(
    "--tol", type=float, default=None, callback=_finite(0), help="Override all residual tolerances."
)
def run(config, formulation, out, tol):
    """Integrate a scenario, write CSVs and a summary, check tolerances."""

    with _exit_codes():
        cfg = load_config(config)
        problem = build_problem(cfg, formulation)
        passed, summary, _ = _run_and_report(problem, Path(out), tol)
    for line in summary:
        click.echo(line)
    raise SystemExit(0 if passed else 1)


@main.command()
@click.argument("config")
@click.option(
    "--formulations",
    default=None,
    help="Comma-separated formulations to run and compare (default: all of the config's kind).",
)
@click.option("--out", default=None, help="Optional output directory for a report.")
@click.option(
    "--tol", type=float, default=None, callback=_finite(0),
    help="Agreement tolerance (default 1e-6).",
)
def compare(config, formulations, out, tol):
    """Run several formulations of one scenario and compare pointwise."""

    tol = 1e-6 if tol is None else tol
    names = [f.strip() for f in (formulations or "").split(",") if f.strip()]
    if formulations is not None and not names:
        _fail(ConfigError("--formulations", "need at least one formulation"), 2)
    with _exit_codes():
        cfg = load_config(config)
        names = names or list(FORMULATIONS_BY_KIND[_kind(cfg)])
        # One problem per name validates every name before anything runs.
        problems = {name: build_problem(cfg, name) for name in names}
        if out is not None:
            _make_outdir(Path(out))
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
    if out is not None:
        with _exit_codes():
            report = "\n".join(lines) + "\n"
            _write(Path(out) / f"{problem.prefix}_compare.txt", Path.write_text, report)
    for line in lines:
        click.echo(line)
    raise SystemExit(0 if ok else 1)


@main.command()
@click.argument("config")
@click.option(
    "--seed", type=int, default=0, callback=_finite(0), help="Seed for the randomized checks."
)
@click.option(
    "--samples", type=int, default=30, callback=_finite(1), help="Random points per check."
)
@click.option(
    "--steps", type=int, default=200, callback=_finite(1),
    help="Trajectory steps for the flow checks.",
)
@click.option("--tol", type=float, default=1e-8, callback=_finite(0), help="Membership tolerance.")
@click.option(
    "--corrupt",
    type=float,
    default=0.0,
    callback=_finite(),
    help="Offset added to one momentum slot before the membership checks, to "
    "demonstrate the failure diagnostics.",
)
@_exit_codes()
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def check(config, seed, samples, steps, tol, corrupt):
    """Verify structure: ranks, pairings, memberships, declared derivatives."""

    # A failure in any pass ends in one line with its exit code, after the
    # lines already printed. Floating-point warnings are off: a non-finite
    # value fails its check.
    problem = build_problem(load_config(config), None)

    rng = np.random.default_rng(seed)
    click.echo(f"check seed: {seed}  samples: {samples}")
    failures = []
    is_thermo = problem.kind == "ideal_gas"
    horizon = problem.n_steps * problem.h

    # Structure at random points: rank, isotropy, membership of construction.
    worst_rank_defect, worst_pairing, worst_member = _structure_pass(
        problem, rng, samples, horizon
    )
    click.echo(f"rank defect: {worst_rank_defect} (expect 0)")
    click.echo(f"max |pairing| on structure elements: {_fmt(worst_pairing)}")
    click.echo(f"max membership residual (constructed): {_fmt(worst_member)}")
    if worst_rank_defect:
        failures.append("rank")
    if not worst_pairing <= 1e-9:
        failures.append("isotropy")
    if not worst_member <= tol:
        failures.append("membership-construction")

    # Declared derivatives of the Lagrangian.
    if is_thermo:
        sys_ = problem.system
        u = np.random.default_rng(seed).random((50, th._physical_draws(sys_)))
        points = th._physical_points(sys_, u, problem.ts0, (0.0, horizon))[:3]
        report = check_derivatives(problem.L, points=points)
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
    n_run = min(steps, problem.n_steps)
    if is_thermo:
        traj = th.run_reduced(problem.system, problem.initial, problem.h, n_run)
        states, rates = th._lifted_midpoints(problem.system, traj)
    else:
        h_check = min(problem.h, 2e-4)
        traj = run_formulation(dataclasses.replace(problem, h=h_check, n_steps=n_run), "pontryagin")
        states, rates = traj.midpoints()
    if corrupt:
        p_bad = states[4].copy()
        p_bad[:, problem.system.layout.S if is_thermo else 0] += corrupt
        states = (*states[:4], p_bad)
    worst_flow, worst_recover = _flow_pass(problem, states, rates)

    if corrupt:
        slot_name = "p_S" if is_thermo else "p_0"
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


def _worst(values) -> float:
    # The largest entry of the numbers and arrays in values, NaN if any is.
    return float(np.max(np.concatenate([np.ravel(v) for v in values])))


def _structure_pass(problem: Problem, rng, samples: int, horizon: float) -> tuple:
    # Worst rank defect, |pairing| and membership residual of constructed
    # elements over `samples` random points. rng gives each point's uniforms,
    # then the normals of its two random elements, in the order of drawing
    # one point and its elements at a time. The first point whose rows are
    # degenerate raises DegenerateConstraintError.
    C = problem.vel_constraints
    n, m = C.n, C.m
    n_basis = 3 * n + 2 - m  # basis coefficients per element, then m row ones
    n_normal = n_basis + m
    if problem.kind == "ideal_gas":
        n_uniform = th._physical_draws(problem.system)

        def points(u):
            return th._physical_points(problem.system, u, problem.ts0, (0.0, horizon))[:3]
    else:
        n_uniform = 3 * n + 2  # t, x, v, pt, p; rng.uniform(lo, hi) is lo + (hi - lo) u

        def points(u):
            x, v = (-1.0 + 2.0 * u[:, 1 + i * n : 1 + (i + 1) * n] for i in (0, 1))
            return 0.0 + horizon * u[:, 0], x, v

    rank_defect, pairing, member = 0, [0.0], [0.0]
    for block in _blocks(samples):
        K = block.stop - block.start
        u, g = np.empty((K, n_uniform)), np.empty((K, 2 * n_normal))
        for k in range(K):
            rng.random(out=u[k])
            g[k] = rng.normal(size=2 * n_normal)
        structure = _dirac_points(C, *points(u))
        rank_defect = max(rank_defect, int(np.abs(structure.rank() - (3 * n + 2)).max()))
        g1, g2 = g[:, :n_normal], g[:, n_normal:]
        e1 = _random_elements(structure, g1[:, :n_basis], g1[:, n_basis:])
        e2 = _random_elements(structure, g2[:, :n_basis], g2[:, n_basis:])
        pairing.append(
            _worst([np.abs(_dirac_pairing(e1, e2, n)), np.abs(_dirac_pairing(e1, e1, n))])
        )
        member.append(_worst(list(_membership(structure, *e1)[0].values())))
    return rank_defect, _worst(pairing), _worst(member)


def _flow_pass(problem: Problem, states: tuple, rates: tuple) -> tuple[dict, float]:
    # Worst residual of each flow membership condition, and the worst
    # multiplier recovery residual, over the midpoint states (t, x, v, pt, p)
    # with their rates (dx, dv, dpt, dp), stacked a block at a time into rows
    # on P: the rate paired with the differential of the covariant energy,
    # net of the external force.
    L, C, force = problem.L, problem.vel_constraints, problem.f_ext_force
    n = L.n
    flow, recover = [], [0.0]
    for block in _blocks(len(states[0])):
        t, x, v, _, p = (a[block] for a in states)
        dx, dv, dpt, dp = (r[block] for r in rates)
        rate = np.column_stack([np.ones(len(t)), dx, dv, dpt, dp])
        a = _covariant_differential(L, t, x, v, p)
        if force is not None:
            a[:, 1 : n + 1] -= _evaluate(force.value, force.broadcasts, (n,), t, x, v)
        structure = _dirac_points(C, t, x, v)
        flow.append(_membership(structure, rate, a)[0])
        recover.append(_worst(_recovered_multipliers(L, structure.A, t, x, v, dp, force)[1]))
    worst = {name: _worst([0.0] + [r[name] for r in flow]) for name in flow[0]}
    return worst, _worst(recover)


if __name__ == "__main__":
    main()
