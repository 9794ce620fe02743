"""End-to-end tests of the command line interface: config parsing, the three
commands, their exit codes (0 pass, 1 tolerance violation, 2 config error,
3 solver failure), and the output files."""

import csv
import dataclasses
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from diracsim import cli, thermo as th
from diracsim.cli import BUILTINS, ConfigError, build_problem, load_config, main, make_schedule
from diracsim.dynamics import InconsistentInitialStateError, StepFailureError, monitor_invariants
from diracsim.lagrangian import covariant_legendre


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def all_text(result):
    out = result.output
    try:
        out += result.stderr
    except (ValueError, AttributeError):
        pass
    return out


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def thermo_cfg():
    """Five-step open piston: one port, one conduction source, friction."""

    return {
        "system": {
            "kind": "ideal_gas",
            "friction_gamma": 0.05,
            "ports": [{"J": 0.01, "molar_entropy": 1.02, "mu": 0.02, "T": 1.05}],
            "sources": [{"kappa": 0.02, "T": 1.1}],
        },
        "initial": {"q": [0.2], "v_q": [0.0], "S": 1.0, "N": 1.0},
        "integrator": {"formulation": "pontryagin", "h": 0.01, "horizon": 0.05},
        "output": {"prefix": "tiny"},
    }


def mech_cfg():
    return {
        "system": {"kind": "nonholonomic_particle", "mass": 1.0, "beta": [[0.0, 0.0], [10.0, 3.0]]},
        "initial": {"x": [0.0, 0.0], "v": [1.0, 0.0]},
        "integrator": {"formulation": "pontryagin", "h": 0.01, "horizon": 0.05},
        "output": {"prefix": "mech"},
    }


# -- schedules -------------------------------------------------------------


def test_schedule_constant():
    f = make_schedule(2.5, "x")
    assert f(0.0) == 2.5 and f(17.3) == 2.5
    g = make_schedule(3, "x")
    assert g(1.0) == 3.0


def test_schedule_interpolates_and_clamps():
    f = make_schedule([[0.0, 0.0], [1.0, 2.0]], "x")
    assert f(0.5) == pytest.approx(1.0)
    assert f(-1.0) == 0.0
    assert f(5.0) == 2.0


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def schedule_and_time(draw):
    ts = sorted(draw(st.lists(finite, min_size=1, max_size=6, unique=True)))
    vs = draw(st.lists(finite, min_size=len(ts), max_size=len(ts)))
    i = draw(st.integers(0, len(ts) - 1))
    frac = draw(st.floats(0.0, 1.0))
    between = ts[i] + frac * (ts[min(i + 1, len(ts) - 1)] - ts[i])
    t = draw(
        st.sampled_from(ts)                                 # at a knot
        | st.just(between)                                  # between knots
        | st.floats(max_value=ts[0], allow_nan=False)       # before
        | st.floats(min_value=ts[-1], allow_nan=False)      # after
        | finite
    )
    return ts, vs, t


@settings(max_examples=500, deadline=None)
@given(schedule_and_time())
def test_schedule_matches_np_interp_bitwise(case):
    ts, vs, t = case
    f = make_schedule([[a, b] for a, b in zip(ts, vs)], "x")
    got = f(t)
    want = float(np.interp(t, ts, vs))
    assert type(got) is float
    assert struct.pack("<d", got) == struct.pack("<d", want), (got, want)


def bits(value):
    return struct.pack("<d", value)


@pytest.mark.parametrize("spec", [2.5, 3, -0.0, 1e-300, -7, [[0.0, 4.25]], [[3.0, -1.5]]])
def test_folded_constant_schedule_is_the_float_make_schedule_gives(spec):
    folded = cli._fold_schedule(spec, "x")
    want = float(spec) if not isinstance(spec, list) else spec[0][1]
    assert type(folded) is float and bits(folded) == bits(want)
    f = make_schedule(spec, "x")
    for t in (-1.0, 0.0, 2.5, 1e9):
        got = f(t)
        assert type(got) is float and bits(got) == bits(want)
        assert bits(f(t, "ignored state")) == bits(want)


def test_port_callables_fold_constant_products():
    cfg = thermo_cfg()
    cfg["system"]["ports"].append(
        {"J": [[0.0, -0.006], [1.0, -0.01]], "molar_entropy": 0.98, "mu": -0.01, "T": 0.97}
    )
    problem = build_problem(cfg)
    ts = problem.ts0
    const, table = problem.system.ports
    for t in (0.0, 0.25, 0.25, 0.5, 0.25, 2.0):
        # The formulas of the per-call schedules, evaluated anew.
        J = float(np.interp(t, [0.0, 1.0], [-0.006, -0.01]))
        assert bits(const.J_S(t, ts)) == bits(1.02 * 0.01)
        assert bits(const.J(t, ts)) == bits(0.01)
        assert bits(table.J(t, ts)) == bits(J)
        assert bits(table.J_S(t, ts)) == bits(0.98 * J)
        assert bits(problem.system.sources[0].T_source(t, ts)) == bits(1.1)


def test_table_schedule_remembers_only_equal_times():
    f = make_schedule([[0.0, 1.0], [1.0, 3.0]], "x")
    for t in (0.5, 0.25, 0.5, -0.0, 0.0, 0.75, 0.25, 2.0, 0.5):
        assert bits(f(t)) == bits(float(np.interp(t, [0.0, 1.0], [1.0, 3.0])))


@pytest.mark.parametrize(
    "bad",
    [
        [[0.0, 1.0], [0.0, 2.0]],  # non-increasing times
        [[1.0, 1.0], [0.5, 2.0]],
        [[0.0], [1.0]],            # malformed pairs
        [],
        "fast",
        True,
        [[0.0, "a"]],
    ],
)
def test_schedule_rejects_malformed(bad):
    with pytest.raises(ConfigError, match="schedule"):
        make_schedule(bad, "field")


# -- config loading --------------------------------------------------------


def test_load_builtin():
    cfg = load_config("two_port_piston")
    assert cfg["system"]["kind"] == "ideal_gas"
    assert len(cfg["system"]["ports"]) == 2


def test_load_unknown_name_lists_builtins():
    with pytest.raises(ConfigError) as err:
        load_config("no_such_scenario")
    assert "closed_piston" in str(err.value)
    assert "nonholonomic_particle" in str(err.value)


def test_load_file(tmp_path):
    path = write_cfg(tmp_path, thermo_cfg())
    assert load_config(path)["system"]["kind"] == "ideal_gas"


def test_load_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path))


# -- run -------------------------------------------------------------------


def test_run_writes_outputs_and_passes(tmp_path):
    path = write_cfg(tmp_path, thermo_cfg())
    result = invoke("run", path, "--out", str(tmp_path))
    assert result.exit_code == 0, all_text(result)
    assert "overall: PASS" in result.output
    assert "min entropy production" in result.output
    for suffix in ("_trajectory.csv", "_invariants.csv", "_summary.txt"):
        assert (tmp_path / f"tiny{suffix}").exists()
    assert "overall: PASS" in (tmp_path / "tiny_summary.txt").read_text()


def test_run_trajectory_csv_format(tmp_path):
    path = write_cfg(tmp_path, thermo_cfg())
    invoke("run", path, "--out", str(tmp_path))
    with open(tmp_path / "tiny_trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "t", "q_0", "v_q_0", "S", "N", "Gamma", "W", "Sigma",
        "p_q_0", "p_S", "p_N", "p_Gamma", "p_W", "p_Sigma", "pt", "lam",
        "E", "cov_E", "P_W", "P_H", "P_M", "I", "kinematic_res", "first_law_res",
    ]
    assert len(rows) == 1 + 6  # header plus one row per node
    first = dict(zip(rows[0], rows[1]))
    assert float(first["t"]) == 0.0
    assert float(first["S"]) == 1.0
    assert float(first["lam"]) == pytest.approx(1.0, abs=1e-12)
    with open(tmp_path / "tiny_invariants.csv") as fh:
        inv_rows = list(csv.reader(fh))
    assert inv_rows[0] == [
        "t_mid", "covariant_energy_drift", "energy_balance_residual",
        "entropy_decomposition_residual",
    ]
    assert len(inv_rows) == 1 + 5  # header plus one row per step


def test_run_mechanical_csv_format(tmp_path):
    path = write_cfg(tmp_path, mech_cfg())
    result = invoke("run", path, "--out", str(tmp_path))
    assert result.exit_code == 0, all_text(result)
    with open(tmp_path / "mech_trajectory.csv") as fh:
        header = next(csv.reader(fh))
    assert header == [
        "t", "x_0", "x_1", "v_0", "v_1", "p_0", "p_1",
        "pt", "lam", "E", "cov_E", "kinematic_res",
    ]
    assert "first law" not in result.output  # mechanical runs have no flows


def test_run_is_deterministic(tmp_path):
    path = write_cfg(tmp_path, thermo_cfg())
    invoke("run", path, "--out", str(tmp_path / "a"))
    invoke("run", path, "--out", str(tmp_path / "b"))
    assert (tmp_path / "a/tiny_trajectory.csv").read_bytes() == (
        tmp_path / "b/tiny_trajectory.csv"
    ).read_bytes()


def test_run_formulation_override(tmp_path):
    path = write_cfg(tmp_path, thermo_cfg())
    result = invoke("run", path, "--formulation", "reduced", "--out", str(tmp_path))
    assert result.exit_code == 0, all_text(result)
    assert "formulation: reduced" in result.output


def test_run_entropy_floor_line(tmp_path):
    cfg = thermo_cfg()
    del cfg["system"]["ports"]  # conduction only: production is nonnegative
    cfg["tolerances"] = {"entropy_production_min": -1e-12}
    path = write_cfg(tmp_path, cfg)
    result = invoke("run", path, "--out", str(tmp_path))
    assert result.exit_code == 0, all_text(result)
    assert "floor" in result.output


def test_run_external_force(tmp_path):
    cfg = thermo_cfg()
    cfg["system"]["external_force"] = [[0.0, 0.0], [1.0, 0.1]]
    path = write_cfg(tmp_path, cfg)
    result = invoke("run", path, "--out", str(tmp_path))
    assert result.exit_code == 0, all_text(result)
    # A forced run conserves the covariant energy only net of the work done.
    assert "net of external work" in result.output


def test_a_force_on_two_coordinates_is_a_list_of_two_schedules(tmp_path):
    # With n_q = 2 each item is one coordinate's schedule, a number or a
    # table, whatever the JSON shape of the list.
    def trajectory(force):
        cfg = thermo_cfg()
        cfg["system"].update(n_q=2, external_force=force)
        cfg["initial"].update(q=[0.2, -0.1], v_q=[0.0, 0.1])
        out = tmp_path / f"out{len(list(tmp_path.glob('out*')))}"
        result = invoke("run", write_cfg(tmp_path, cfg), "--out", str(out))
        assert result.exit_code == 0, all_text(result)
        return (out / "tiny_trajectory.csv").read_bytes()

    assert trajectory([0.1, 0.2]) == trajectory([[[0.0, 0.1]], [[0.0, 0.2]]])
    trajectory([[[0.0, 1.0], [1.0, 2.0]], 3.0])


def test_a_consistent_particle_start_loads_at_any_scale():
    # v2 = t0 v1 + beta(t0) holds to a relative 1e-17 at v1 = 1e10.
    cfg = mech_cfg()
    cfg["initial"].update(t0=0.3, v=[1e10, 0.3 * 1e10 + 0.09])
    assert build_problem(cfg).initial.v[0] == 1e10


@pytest.mark.parametrize("warnings", [None, "error"])
def test_an_overflowing_particle_start_is_one_config_error_line(tmp_path, warnings):
    # Its energy overflows: one line at `initial`, exit 2, and no numpy
    # warning, also when warnings are errors.
    cfg = mech_cfg()
    cfg["initial"].update(t0=0.0, v=[1e200, 0.0])
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONWARNINGS", None)
    if warnings is not None:
        env["PYTHONWARNINGS"] = warnings
    result = subprocess.run(
        [sys.executable, "-m", "diracsim.cli", "run", write_cfg(tmp_path, cfg),
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("config error at initial: "), result.stderr
    assert len(result.stderr.strip().splitlines()) == 1, result.stderr
    assert "Warning" not in result.stderr and result.stdout == ""


@pytest.mark.parametrize("source", list(BUILTINS))
def test_every_start_is_the_covariant_legendre_image(source):
    problem = build_problem(load_config(source))
    s = problem.initial
    z = covariant_legendre(problem.L, s.t, s.x, s.v)
    assert z.p.tobytes() == s.p.tobytes()
    assert struct.pack("d", z.pt) == struct.pack("d", s.pt)


def test_run_isolated_piston_produces_nothing(tmp_path):
    # No ports, sources, or friction: S stays constant and production is zero.
    cfg = thermo_cfg()
    del cfg["system"]["ports"]
    del cfg["system"]["sources"]
    del cfg["system"]["friction_gamma"]
    cfg["initial"]["v_q"] = [0.1]
    path = write_cfg(tmp_path, cfg)
    result = invoke("run", path, "--out", str(tmp_path))
    assert result.exit_code == 0, all_text(result)
    assert "min entropy production: 0.0" in result.output
    with open(tmp_path / "tiny_trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["S"] for row in rows} == {"1.0"}
    assert {row["I"] for row in rows} == {"0.0"}


def test_run_mole_number_rate_equals_port_flows(tmp_path):
    # The N column advances by the total molar inflow evaluated at the step
    # midpoint, recomputable from the CSV alone.
    cfg = thermo_cfg()
    cfg["system"]["ports"] = [
        {"J": 0.01, "molar_entropy": 1.02, "mu": 0.02, "T": 1.05},
        {"J": [[0.0, -0.006], [10.0, -0.01]], "molar_entropy": 0.98, "mu": -0.01, "T": 0.97},
    ]
    path = write_cfg(tmp_path, cfg)
    result = invoke("run", path, "--out", str(tmp_path))
    assert result.exit_code == 0, all_text(result)
    with open(tmp_path / "tiny_trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    t = [float(r["t"]) for r in rows]
    N = [float(r["N"]) for r in rows]
    h = t[1] - t[0]
    for k in range(len(rows) - 1):
        tm = 0.5 * (t[k] + t[k + 1])
        J_total = 0.01 + (-0.006 + (-0.01 - -0.006) * tm / 10.0)
        assert (N[k + 1] - N[k]) / h == pytest.approx(J_total, abs=1e-11)


# -- convergence order -----------------------------------------------------

# Every (builtin, formulation) pair the formulation table accepts.
SUPPORTED = [
    (name, f)
    for name in BUILTINS
    for f in cli.FORMULATIONS_BY_KIND[load_config(name)["system"]["kind"]]
]
# A component whose difference between the two coarsest levels is below
# _ROUND_OFF * max(1, max |value|) sits at round-off and shows no order.
_ROUND_OFF = 1e-12


def order_components(traj):
    # The final node's x, p and pt, and every step's midpoint multiplier.
    return {"x": traj.x[-1], "p": traj.p[-1], "pt": traj.pt[-1:], "lam": traj.lam.ravel()}


def level_difference(name, coarse, fine):
    # max |coarse - fine| of one component; a coarse midpoint multiplier is
    # compared with the mean of the two fine midpoints inside its step.
    if name == "lam":
        fine = 0.5 * (fine[0::2] + fine[1::2])
    return float(np.max(np.abs(coarse - fine), initial=0.0))


@pytest.mark.parametrize("source, formulation", SUPPORTED)
def test_every_scenario_and_formulation_is_second_order(source, formulation):
    # Four levels h = 0.02 / 2^k to t = 0.2: the differences of successive
    # levels shrink by 4 per halving on x, p and pt at the final node and on
    # the midpoint multiplier, unless they sit at round-off.
    base = build_problem(load_config(source), formulation)
    levels = [
        order_components(cli.run_formulation(
            dataclasses.replace(base, h=0.02 / 2**k, n_steps=10 * 2**k), formulation
        ))
        for k in range(4)
    ]
    checked = []
    for name, coarsest in levels[0].items():
        diffs = [level_difference(name, a[name], b[name]) for a, b in zip(levels, levels[1:])]
        if diffs[0] < _ROUND_OFF * max(1.0, float(np.max(np.abs(coarsest)))):
            continue
        ratios = [d0 / d1 for d0, d1 in zip(diffs, diffs[1:])]
        assert all(3.5 <= r <= 4.5 for r in ratios), (name, ratios)
        checked.append(name)
    assert {"x", "p"} <= set(checked), checked


# -- exit code 2: configuration errors ------------------------------------


def _set(cfg, path, value):
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def config_error_cases(tmp_path):
    missing_kind = thermo_cfg()
    del missing_kind["system"]["kind"]
    negative_h = thermo_cfg()
    negative_h["integrator"]["h"] = -0.01
    no_horizon = thermo_cfg()
    del no_horizon["integrator"]["horizon"]
    bad_formulation = thermo_cfg()
    bad_formulation["integrator"]["formulation"] = "leapfrog"
    bad_schedule = thermo_cfg()
    bad_schedule["system"]["ports"][0]["J"] = [[0.0, 1.0], [0.0, 2.0]]
    both_entropy_forms = thermo_cfg()
    both_entropy_forms["system"]["ports"][0]["J_S"] = 0.01
    port_without_reservoir = thermo_cfg()
    del port_without_reservoir["system"]["ports"][0]["mu"]
    reduced_mechanical = mech_cfg()
    reduced_mechanical["integrator"]["formulation"] = "reduced"
    inconsistent_velocity = mech_cfg()
    inconsistent_velocity["initial"]["v"] = [1.0, 0.5]
    fractional_n_q = thermo_cfg()
    fractional_n_q["system"]["n_q"] = 1.5
    short_force = thermo_cfg()
    short_force["system"].update(n_q=2, external_force=[0.1])

    def changed(make, path, value):
        return _set(make(), path, value)

    return {
        "missing_kind": (missing_kind, "system.kind"),
        "negative_h": (negative_h, "must be positive"),
        "no_horizon": (no_horizon, "integrator.horizon"),
        "bad_formulation": (bad_formulation, "leapfrog"),
        "bad_schedule": (bad_schedule, "strictly increasing"),
        "both_entropy_forms": (both_entropy_forms, "not both"),
        "port_without_reservoir": (port_without_reservoir, "mu and T"),
        "reduced_mechanical": (reduced_mechanical, "not valid for a mechanical system"),
        "inconsistent_velocity": (inconsistent_velocity, "kinematic constraint"),
        "fractional_n_q": (fractional_n_q, "config error at system.n_q: must be a whole number"),
        # Rejected before anything of that size is allocated.
        "n_q_a_billion": (
            changed(thermo_cfg, ("system", "n_q"), 1e9),
            "config error at system.n_q: must be at most 1000, got 1000000000.0",
        ),
        "n_q_past_the_bound": (
            changed(thermo_cfg, ("system", "n_q"), 1001),
            "config error at system.n_q: must be at most 1000, got 1001.0",
        ),
        "force_short_of_n_q": (
            short_force,
            "config error at system.external_force: needs a list of 2 schedules, one per coordinate",
        ),
        # Inputs that ended in a traceback.
        "ports_not_a_list": (
            changed(thermo_cfg, ("system", "ports"), 5), "config error at system.ports: must be a list"
        ),
        "sources_not_a_list": (
            changed(thermo_cfg, ("system", "sources"), {"T": 1.1}),
            "config error at system.sources: must be a list",
        ),
        "tolerances_a_list": (
            changed(thermo_cfg, ("tolerances",), [1, 2]), "config error at tolerances: must be an object"
        ),
        "tolerances_a_string": (
            changed(thermo_cfg, ("tolerances",), "abc"), "config error at tolerances: must be an object"
        ),
        "prefix_in_a_subdirectory": (
            changed(mech_cfg, ("output", "prefix"), "sub/x"),
            "config error at output.prefix: must be a file name without a path separator",
        ),
        "prefix_outside_out": (
            changed(mech_cfg, ("output", "prefix"), "../x"),
            "config error at output.prefix: must be a file name without a path separator",
        ),
        # Values that were silently misread.
        "c_a_string": (
            changed(thermo_cfg, ("system", "c"), "2.0"),
            "config error at system.c: expected a number, got '2.0'",
        ),
        "q_a_string": (
            changed(thermo_cfg, ("initial", "q"), "0.3"),
            "config error at initial.q[0]: expected a number, got '0.3'",
        ),
        "h_a_boolean": (
            changed(mech_cfg, ("integrator", "h"), True),
            "config error at integrator.h: expected a number, got True",
        ),
        "matched_a_string": (
            changed(thermo_cfg, ("system", "ports", 0, "matched"), "no"),
            "config error at system.ports[0].matched: must be true or false, got 'no'",
        ),
        "misspelled_tolerance": (
            changed(thermo_cfg, ("tolerances",), {"kinematc": 1e-30}),
            "config error at tolerances.kinematc: unknown key",
        ),
        # Keys that were silently ignored, one per config object.
        "misspelled_top_level_key": (
            changed(thermo_cfg, ("outptu",), {"prefix": "x"}), "config error at outptu: unknown key"
        ),
        "misspelled_system_key": (
            changed(thermo_cfg, ("system", "frction_gamma"), 0.5),
            "config error at system.frction_gamma: unknown key",
        ),
        "misspelled_initial_key": (
            changed(thermo_cfg, ("initial", "Sgima"), 0.1),
            "config error at initial.Sgima: unknown key",
        ),
        "misspelled_particle_system_key": (
            changed(mech_cfg, ("system", "mas"), 2.0), "config error at system.mas: unknown key"
        ),
        "thermo_key_on_the_particle": (
            changed(mech_cfg, ("initial", "q"), [0.1]), "config error at initial.q: unknown key"
        ),
        "misspelled_integrator_key": (
            changed(thermo_cfg, ("integrator", "formulaton"), "reduced"),
            "config error at integrator.formulaton: unknown key",
        ),
        "misspelled_output_key": (
            changed(mech_cfg, ("output", "prefx"), "x"), "config error at output.prefx: unknown key"
        ),
        "output_not_an_object": (
            changed(mech_cfg, ("output",), "x"), "config error at output: must be an object"
        ),
        "misspelled_port_key": (
            changed(thermo_cfg, ("system", "ports", 0, "Js"), 0.01),
            "config error at system.ports[0].Js: unknown key",
        ),
        "matched_port_with_a_reservoir": (
            changed(thermo_cfg, ("system", "ports", 0, "matched"), True),
            "config error at system.ports[0].mu: a matched port reads no mu or T",
        ),
        "misspelled_source_key": (
            changed(thermo_cfg, ("system", "sources", 0, "kapa"), 0.02),
            "config error at system.sources[0].kapa: unknown key",
        ),
        "source_with_kappa_and_J_S": (
            changed(thermo_cfg, ("system", "sources", 0, "J_S"), 0.01),
            "config error at system.sources[0]: give J_S or kappa, not both",
        ),
        # Step grids that ended in a traceback or in warnings, rejected before
        # anything of their size is allocated.
        "steps_past_the_bound": (
            changed(thermo_cfg, ("integrator", "h"), 1e-300),
            "config error at integrator.horizon: covers 5e+298 steps of h = 1e-300; "
            "at most 10000000 are allowed",
        ),
        "infinitely_many_steps": (
            changed(mech_cfg, ("integrator", "horizon"), 1e308),
            "config error at integrator.horizon: covers inf steps of h = 0.01;",
        ),
        "end_time_overflows": (
            _set(
                changed(thermo_cfg, ("initial", "t0"), 1e308),
                ("integrator",), {"formulation": "pontryagin", "h": 1e306, "horizon": 1e308},
            ),
            "config error at initial.t0: the grid from 1e+308 to inf must end at a finite time",
        ),
        "step_does_not_move_t0": (
            changed(thermo_cfg, ("initial", "t0"), 1e308),
            "config error at initial.t0: the grid from 1e+308 to 1e+308 must end at a finite "
            "time, and each step of h = 0.01 must advance t",
        ),
        "step_does_not_move_a_negative_t0": (
            changed(mech_cfg, ("initial", "t0"), -1e308),
            "config error at initial.t0: the grid from -1e+308 to -1e+308 must end at a finite "
            "time, and each step of h = 0.01 must advance t",
        ),
        # Values that ended every run in FAIL, or were reported at the wrong
        # field.
        "negative_tolerance": (
            changed(thermo_cfg, ("tolerances",), {"kinematic": -1}),
            "config error at tolerances.kinematic: must be >= 0, got -1",
        ),
        "system_not_an_object": (
            changed(thermo_cfg, ("system",), 5), "config error at system: must be an object, got 5"
        ),
    }


@pytest.mark.parametrize(
    "case",
    [
        "missing_kind", "negative_h", "no_horizon", "bad_formulation",
        "bad_schedule", "both_entropy_forms", "port_without_reservoir",
        "reduced_mechanical", "inconsistent_velocity", "fractional_n_q",
        "n_q_a_billion", "n_q_past_the_bound", "force_short_of_n_q",
        "ports_not_a_list", "sources_not_a_list", "tolerances_a_list",
        "tolerances_a_string", "prefix_in_a_subdirectory", "prefix_outside_out",
        "c_a_string", "q_a_string", "h_a_boolean", "matched_a_string",
        "misspelled_tolerance", "misspelled_top_level_key", "misspelled_system_key",
        "misspelled_initial_key", "misspelled_particle_system_key", "thermo_key_on_the_particle",
        "misspelled_integrator_key", "misspelled_output_key", "output_not_an_object",
        "misspelled_port_key", "matched_port_with_a_reservoir", "misspelled_source_key",
        "source_with_kappa_and_J_S", "steps_past_the_bound", "infinitely_many_steps",
        "end_time_overflows", "step_does_not_move_t0", "step_does_not_move_a_negative_t0",
        "negative_tolerance", "system_not_an_object",
    ],
)
def test_run_config_errors_exit_2(tmp_path, monkeypatch, case):
    def integrate(problem, formulation):
        raise AssertionError("integrated before the config was rejected")

    monkeypatch.setattr(cli, "run_formulation", integrate)
    cfg, needle = config_error_cases(tmp_path)[case]
    path = write_cfg(tmp_path, cfg)
    result = invoke("run", path, "--out", str(tmp_path))
    assert result.exit_code == 2, all_text(result)
    assert needle in all_text(result)
    assert len(result.stderr.strip().splitlines()) == 1, all_text(result)


# Every config field of a kind is set in turn to each of these values.
ODD_VALUES = ("x", True, None, [], {}, 0, -1, 1e-300, 1e308, -1e308, [[0, 1], [0, 2]])
ALL_TOLERANCES = {
    "covariant_energy": 1e-6, "energy_balance": 1e-8, "kinematic": 1e-9, "first_law": 1e-6,
    "entropy_decomposition": 1e-9, "entropy_production_min": -1e-12,
}


def maximal_configs():
    # Per kind, a config that gives every field its reader reads: a builtin's
    # fields plus the optional ones, a matched port and a J_S source.
    gas = load_config("two_port_piston")
    gas["system"]["external_force"] = [[0.0, 0.0], [1.0, 0.05]]
    gas["system"]["ports"][1] = {"J": [[0.0, -0.006], [10.0, -0.01]], "J_S": 0.0, "matched": True}
    gas["system"]["sources"].append({"J_S": 0.01, "T": 1.1})
    gas["initial"].update(t0=0.0, Gamma=0.1, W=0.2, Sigma=0.3)
    particle = load_config("nonholonomic_particle")
    particle["initial"]["t0"] = 0.0
    for cfg in (gas, particle):
        cfg["integrator"].update(h=0.01, horizon=0.02)
        cfg["tolerances"] = dict(ALL_TOLERANCES)
    return {"ideal_gas": gas, "nonholonomic_particle": particle}


def config_leaves(node, path=()):
    # The path of every value in a config below the top level: each number,
    # string and list, and each item of a list, but no object (a port or a
    # source is reached through its fields).
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if not isinstance(value, dict):
            yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from config_leaves(value, path + (key,))


@pytest.mark.parametrize("kind", ["ideal_gas", "nonholonomic_particle"])
def test_every_field_with_every_odd_value_ends_in_a_result_or_a_known_error(tmp_path, kind):
    # Whatever a field holds, build_problem, the run (2 steps, unless the
    # field is on the step grid) and the diagnostics end normally or in an
    # error the CLI maps to one line, and `check` ends in one of its exit
    # codes: never a traceback, and never a numpy warning.
    known = (ConfigError, InconsistentInitialStateError, StepFailureError,
             th.NonpositiveTemperatureError)
    base = maximal_configs()[kind]
    count = 0
    for path in config_leaves(base):
        for value in ODD_VALUES:
            cfg = _set(json.loads(json.dumps(base)), path, value)
            count += 1
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    problem = build_problem(cfg)
                    traj = cli.run_formulation(problem, problem.formulation)
                    inv = monitor_invariants(
                        problem.L, problem.vel_constraints, traj, thermo_system=problem.system
                    )
                    cli.evaluate_tolerances(problem, inv, None)
                except known:
                    pass
                except Exception as exc:
                    raise AssertionError(f"{path} = {value!r}: {exc!r}") from exc
                code = None
                try:
                    main(["check", write_cfg(tmp_path, cfg), "--samples", "3", "--steps", "3"])
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:
                    raise AssertionError(f"check with {path} = {value!r}: {exc!r}") from exc
                assert code in (0, 1, 2, 3), f"check with {path} = {value!r}: exit {code!r}"
    assert count == {"ideal_gas": 660, "nonholonomic_particle": 286}[kind]


@pytest.mark.parametrize("name, amount", [("two_port_piston", 1e-6), ("closed_piston", 1e-7)])
def test_check_on_a_tiny_mole_number_fails_in_one_line(tmp_path, name, amount):
    # The derivative pass differences N by 1e-6 (1 + |N|), past zero here:
    # `check` exits 3 in one line, as `run` does, after the lines it printed.
    cfg = load_config(name)
    cfg["initial"].update(S=amount, N=amount)
    result = invoke("check", write_cfg(tmp_path, cfg))
    assert result.exit_code == 3, all_text(result)
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and "mole number N" in lines[0], all_text(result)
    assert result.output.startswith("check seed: 0"), all_text(result)


@pytest.mark.parametrize("command", ["run", "compare", "check"])
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda tmp_path: tmp_path, "cannot be read"),
        (lambda tmp_path: tmp_path / "cfg.json", "not UTF-8 text"),
    ],
    ids=["directory", "not-utf-8"],
)
def test_an_unreadable_config_is_a_config_error(tmp_path, command, make, message):
    (tmp_path / "cfg.json").write_bytes(b'{"system": "\xff"}')
    path = make(tmp_path)
    result = invoke(command, str(path))
    assert result.exit_code == 2, all_text(result)
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error at {path}: {message}"), lines


@pytest.mark.parametrize(
    "command", [["run"], ["compare", "--formulations", "pontryagin"]], ids=["run", "compare"]
)
def test_an_out_path_that_is_a_file_fails_before_integrating(tmp_path, monkeypatch, command):
    def integrate(problem, formulation):
        raise AssertionError("integrated before the output directory was made")

    monkeypatch.setattr(cli, "run_formulation", integrate)
    out = tmp_path / "taken"
    out.write_text("")
    result = invoke(command[0], "nonholonomic_particle", *command[1:], "--out", str(out))
    assert result.exit_code == 2, all_text(result)
    assert result.stderr.strip().splitlines() == [
        f"config error at --out: cannot create directory {str(out)!r} (File exists)"
    ]


@pytest.mark.parametrize(
    "command, name",
    [(["run"], "nonholonomic_particle_trajectory.csv"),
     (["compare", "--formulations", "pontryagin"], "nonholonomic_particle_compare.txt")],
    ids=["run", "compare"],
)
def test_an_output_that_cannot_be_written_is_a_config_error(tmp_path, command, name):
    # A directory where an output file goes is found only when the file is
    # written, after the run: exit 2 in one line, not a traceback.
    (tmp_path / name).mkdir()
    result = invoke(command[0], "nonholonomic_particle", *command[1:], "--out", str(tmp_path))
    assert result.exit_code == 2, all_text(result)
    assert result.stderr.strip().splitlines() == [
        f"config error at --out: cannot write {str(tmp_path / name)!r} (Is a directory)"
    ]


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "make, path, value, field",
    [
        (thermo_cfg, ("initial", "S"), INF, "initial.S"),
        (thermo_cfg, ("initial", "N"), NAN, "initial.N"),
        (thermo_cfg, ("initial", "q"), [NAN], "initial.q[0]"),
        (thermo_cfg, ("initial", "Sigma"), -INF, "initial.Sigma"),
        (thermo_cfg, ("integrator", "h"), INF, "integrator.h"),
        (thermo_cfg, ("system", "friction_gamma"), NAN, "system.friction_gamma"),
        (thermo_cfg, ("system", "ports", 0, "T"), NAN, "system.ports[0].T"),
        (thermo_cfg, ("system", "ports", 0, "J"), [[0.0, 0.01], [1.0, INF]], "system.ports[0].J[1][1]"),
        (thermo_cfg, ("system", "sources", 0, "kappa"), NAN, "system.sources[0].kappa"),
        (thermo_cfg, ("system", "sources", 0, "T"), [[NAN, 1.1]], "system.sources[0].T[0][0]"),
        (thermo_cfg, ("system", "external_force"), -INF, "system.external_force"),
        (thermo_cfg, ("tolerances",), {"first_law": NAN}, "tolerances.first_law"),
        (mech_cfg, ("system", "mass"), NAN, "system.mass"),
        (mech_cfg, ("system", "beta"), [[0.0, 0.0], [INF, 3.0]], "system.beta[1][0]"),
        (mech_cfg, ("initial", "x"), [0.0, INF], "initial.x[1]"),
    ],
)
def test_run_rejects_non_finite_numbers(tmp_path, make, path, value, field):
    # json.dumps writes NaN and Infinity, which Python's json reads back.
    cfg_path = write_cfg(tmp_path, _set(make(), path, value))
    result = invoke("run", cfg_path, "--out", str(tmp_path))
    assert result.exit_code == 2, all_text(result)
    assert f"config error at {field}:" in all_text(result)
    assert "Traceback" not in all_text(result)


def test_run_rejects_overflowing_literal(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(thermo_cfg()).replace('"S": 1.0', '"S": 1e999'))
    result = invoke("run", str(path), "--out", str(tmp_path))
    assert result.exit_code == 2, all_text(result)
    assert "config error at initial.S:" in all_text(result)


def test_run_rejects_partial_last_step(tmp_path):
    cfg = _set(_set(thermo_cfg(), ("integrator", "h"), 0.3), ("integrator", "horizon"), 0.5)
    result = invoke("run", write_cfg(tmp_path, cfg), "--out", str(tmp_path))
    assert result.exit_code == 2, all_text(result)
    assert "config error at integrator.horizon:" in all_text(result)


def test_whole_step_horizons_still_load():
    for name in BUILTINS:
        build_problem(load_config(name))
    # Horizons written as steps * h, as scripts generate them.
    for h in (1e-3, 2e-3, 5e-4, 0.01, 0.3):
        for steps in range(1, 3000, 37):
            cfg = mech_cfg()
            cfg["integrator"].update(h=h, horizon=steps * h)
            assert build_problem(cfg).n_steps == steps


def forced_thermo_cfg():
    cfg = thermo_cfg()
    cfg["system"]["external_force"] = [[0.0, 0.0], [0.05, 0.1]]
    return cfg


def test_run_evaluates_each_node_diagnostic_once(tmp_path, monkeypatch):
    problem = build_problem(forced_thermo_cfg())
    traj = cli.run_formulation(problem, "pontryagin")
    calls = {
        "L.value": 0,
        "_balance": 0,
        "_flows": 0,
        "power_flows": 0,
        "entropy_production": 0,
        "first_law_residual": 0,
    }

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    problem = dataclasses.replace(
        problem, L=dataclasses.replace(problem.L, value=counted("L.value", problem.L.value))
    )
    for name in ("_balance", "_flows", "power_flows", "entropy_production", "first_law_residual"):
        monkeypatch.setattr(th, name, counted(name, getattr(th, name)))
    monkeypatch.setattr(cli, "run_formulation", lambda problem, formulation: traj)
    passed, summary, _ = cli._run_and_report(problem, tmp_path, None)
    assert passed, summary
    # One balance over all K + 1 nodes feeds the power flows and the
    # production, the port and source sums over all K step midpoints the
    # energy balance, and L is evaluated once over all nodes.
    assert calls == {
        "L.value": 1,
        "_balance": 1,
        "_flows": 2,
        "power_flows": 0,
        "entropy_production": 0,
        "first_law_residual": 0,
    }


def test_invariant_columns_equal_node_functions_bitwise(tmp_path):
    problem = build_problem(forced_thermo_cfg(), "reduced")
    sys0 = problem.system
    traj = cli.run_formulation(problem, "reduced")
    inv = monitor_invariants(problem.L, problem.vel_constraints, traj, thermo_system=sys0)
    # The CSV writes these columns as they are; cov_E is pt + E, which may
    # round differently from inv.covariant_energy.
    cli.write_trajectory_csv(tmp_path / "traj.csv", problem, traj, inv)
    with open(tmp_path / "traj.csv") as fh:
        rows = list(csv.reader(fh))
    col = {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(rows[0])}
    for name, want in (
        ("E", inv.energy),
        ("cov_E", traj.pt + inv.energy),
        ("P_W", inv.power_mechanical),
        ("P_H", inv.power_heating),
        ("P_M", inv.power_matter),
        ("I", inv.entropy_production),
        ("kinematic_res", inv.kinematic_residual),
        ("first_law_res", inv.first_law_residual),
    ):
        np.testing.assert_array_equal(col[name], want, err_msg=name)
    nodes = range(traj.n_steps + 1)
    states = [th.state_from_arrays(sys0, traj.x[k], traj.v[k]) for k in nodes]
    flows = [th.power_flows(sys0, traj.t[k], states[k]) for k in nodes]
    assert any(f.mechanical != 0.0 for f in flows)
    # E = <p, v> - L at each node, one node at a time.
    np.testing.assert_array_equal(
        inv.energy,
        [float(traj.p[k] @ traj.v[k]) - float(problem.L.value(traj.t[k], traj.x[k], traj.v[k]))
         for k in nodes],
    )
    np.testing.assert_array_equal(inv.power_mechanical, [f.mechanical for f in flows])
    np.testing.assert_array_equal(inv.power_heating, [f.heating for f in flows])
    np.testing.assert_array_equal(inv.power_matter, [f.matter for f in flows])
    np.testing.assert_array_equal(
        inv.entropy_production,
        [th.entropy_production(sys0, traj.t[k], states[k]).total for k in nodes],
    )
    np.testing.assert_array_equal(inv.first_law_residual, th.first_law_residual(sys0, traj))

    cfg = load_config("nonholonomic_particle")
    cfg["integrator"]["horizon"] = 0.05
    mech = build_problem(cfg, "pontryagin")
    traj = cli.run_formulation(mech, "pontryagin")
    inv = monitor_invariants(mech.L, mech.vel_constraints, traj)
    np.testing.assert_array_equal(
        inv.energy,
        [
            float(traj.p[k] @ traj.v[k]) - float(mech.L.value(traj.t[k], traj.x[k], traj.v[k]))
            for k in range(traj.n_steps + 1)
        ],
    )
    assert inv.power_mechanical is None and inv.first_law_residual is None


def test_reduced_run_records_newton_iterations():
    problem = build_problem(load_config("two_port_piston"), "reduced")
    traj = th.run_reduced(problem.system, problem.initial, problem.h, 50)
    assert traj.newton_iters.shape == (50,)
    assert np.all(traj.newton_iters >= 1)


@pytest.mark.parametrize("name, formulation", SUPPORTED)
def test_every_path_starts_at_its_start_point(name, formulation):
    # The first node of every path is problem.initial, bit for bit; the
    # reduced path reads its whole start from it too.
    problem = dataclasses.replace(build_problem(load_config(name), formulation), n_steps=2)
    traj = cli.run_formulation(problem, formulation)
    start = problem.initial
    assert [traj.t[0], traj.pt[0]] == [start.t, start.pt]
    for got, want in ((traj.x[0], start.x), (traj.v[0], start.v), (traj.p[0], start.p)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "name, formulation",
    [("nonholonomic_particle", f) for f in cli.FORMULATIONS]
    + [("two_port_piston", "lagrange-dirac")],
)
def test_the_stepper_builds_no_point_object_per_step(monkeypatch, name, formulation):
    # A DAE step advances the node row itself: 100 steps build no
    # PontryaginState or PhasePoint (a step that built its new state would
    # make 100, or 101 with the start's conversion to T*Y).
    from diracsim import geometry

    problem = dataclasses.replace(build_problem(load_config(name), formulation), n_steps=100)
    built = []
    for point in (geometry.PontryaginState, geometry.PhasePoint):

        def counted(self, post_init=point.__post_init__):
            built.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(point, "__post_init__", counted)
    cli.run_formulation(problem, formulation)
    assert built == []


def test_hamilton_dirac_does_not_read_the_start_velocity():
    # On T*Y the start row's v is dH/dp, so a NaN v in the start state
    # changes no bit of the trajectory.
    problem = build_problem(load_config("nonholonomic_particle"), "hamilton-dirac")
    problem = dataclasses.replace(problem, n_steps=100)
    nan_v = dataclasses.replace(problem.initial, v=np.full(2, np.nan))
    want = cli.run_formulation(problem, "hamilton-dirac")
    got = cli.run_formulation(dataclasses.replace(problem, initial=nan_v), "hamilton-dirac")
    for field in ("t", "x", "v", "p", "pt", "lam", "newton_iters"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert np.isfinite(got.v).all()


@pytest.mark.parametrize("entry", ["run_reduced", "stepper"])
@pytest.mark.parametrize("h", [0.0, -1e-3, float("nan"), float("inf")])
def test_a_step_size_that_is_not_positive_and_finite_is_a_value_error(entry, h):
    # A NaN or infinite step would otherwise reach the model and fail there
    # as a domain error.
    problem = dataclasses.replace(build_problem(load_config("two_port_piston")), h=h, n_steps=3)
    with pytest.raises(ValueError, match="step size must be positive and finite"):
        if entry == "run_reduced":
            th.run_reduced(problem.system, problem.initial, h, 3)
        else:
            cli.run_formulation(problem, "pontryagin")


def test_run_hamilton_dirac_unavailable_for_thermo(tmp_path):
    path = write_cfg(tmp_path, thermo_cfg())
    result = invoke("run", path, "--formulation", "hamilton-dirac")
    assert result.exit_code == 2
    assert "hamilton-dirac is unavailable" in all_text(result)
    assert "degenerate" in all_text(result)
    assert result.stderr.startswith("config error at integrator.formulation")


def test_run_unknown_config_name():
    result = invoke("run", "no_such_scenario")
    assert result.exit_code == 2
    assert "builtins" in all_text(result)


# -- exit code 1: tolerance violations ------------------------------------


def test_run_tolerance_violation_exits_1(tmp_path):
    cfg = thermo_cfg()
    cfg["tolerances"] = {"covariant_energy": 1e-30}
    path = write_cfg(tmp_path, cfg)
    result = invoke("run", path, "--out", str(tmp_path))
    assert result.exit_code == 1
    assert "FAIL" in result.output
    assert "overall: FAIL" in result.output


def test_run_tol_override_exits_1(tmp_path):
    path = write_cfg(tmp_path, thermo_cfg())
    result = invoke("run", path, "--out", str(tmp_path), "--tol", "1e-30")
    assert result.exit_code == 1


# -- exit code 3: solver failures ------------------------------------------


def test_run_draining_port_exits_3(tmp_path):
    cfg = thermo_cfg()
    cfg["system"]["ports"] = [{"J": -30.0, "mu": 0.0, "T": 1.0}]
    cfg["integrator"] = {"formulation": "reduced", "h": 0.01, "horizon": 0.1}
    path = write_cfg(tmp_path, cfg)
    result = invoke("run", path, "--out", str(tmp_path))
    assert result.exit_code == 3, all_text(result)
    assert "mole number" in all_text(result)


@pytest.mark.parametrize(
    "formulation, line",
    [
        ("pontryagin", "step 0 (t = 0.0) failed: mole number N = -5.99"),
        ("lagrange-dirac", "step 0 (t = 0.0) failed: mole number N = -5.99"),
        ("reduced", "reduced step 1 (t = 0.01) failed: mole number N = -0.5000"),
    ],
    ids=["pontryagin", "lagrange-dirac", "reduced"],
)
def test_a_domain_error_in_the_step_loop_names_its_step(tmp_path, formulation, line):
    # A port draining 100 moles per unit time: the guess of the DAE step 0,
    # and the midpoint of reduced step 1's guess 2 y_1 - y_0, already hold
    # N < 0.
    cfg = BUILTINS["two_port_piston"]()
    cfg["system"]["ports"][0]["J"] = -100
    cfg["integrator"].update(h=0.01, horizon=0.05)
    path = write_cfg(tmp_path, cfg)
    result = invoke("run", path, "--formulation", formulation, "--out", str(tmp_path))
    assert result.exit_code == 3, all_text(result)
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(line), lines


@pytest.mark.parametrize("formulation", ["pontryagin", "lagrange-dirac", "reduced"])
def test_run_non_finite_jacobian_exits_3(tmp_path, formulation):
    # At S = 700 the initial state is finite, but the exponential in the
    # ideal gas energy overflows within one finite-difference step of it.
    cfg = BUILTINS["closed_piston"]()
    cfg["initial"]["S"] = 700
    path = write_cfg(tmp_path, cfg)
    with warnings.catch_warnings():
        # A numpy warning would be a second line on the terminal.
        warnings.simplefilter("error")
        result = invoke("run", path, "--formulation", formulation, "--out", str(tmp_path))
    assert result.exit_code == 3, all_text(result)
    text = all_text(result).strip()
    assert "Traceback" not in text
    assert len(result.stderr.strip().splitlines()) == 1
    assert "step 0" in text and "Jacobian is not finite" in text


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--formulation", "pontryagin"],
        ["run", "--formulation", "lagrange-dirac"],
        ["run", "--formulation", "reduced"],
        ["compare"],
        ["check"],
    ],
    ids=["run-pontryagin", "run-lagrange-dirac", "run-reduced", "compare", "check"],
)
def test_overflowing_initial_state_is_a_config_error(tmp_path, command):
    # At S = 720 the ideal gas energy of the initial state itself overflows.
    cfg = BUILTINS["closed_piston"]()
    cfg["initial"]["S"] = 720
    path = write_cfg(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = invoke(command[0], path, *command[1:])
    assert result.exit_code == 2, all_text(result)
    assert result.stderr.strip().splitlines() == [
        "config error at initial: the initial state is not finite "
        "(its energy or rates overflow)"
    ]


@pytest.mark.parametrize("command", ["run", "compare", "check"])
@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("initial", "N", 0, "mole number N = 0.0 must be positive"),
        # T = T0 exp(S - 1000 N) underflows to 0.
        ("system", "s0", 1000, "temperature -dL/dS = 0.0 at S = 1.0, N = 1.0"),
    ],
    ids=["N=0", "s0=1000"],
)
def test_nonphysical_initial_state_is_a_config_error(
    tmp_path, command, section, key, value, message
):
    cfg = BUILTINS["closed_piston"]()
    cfg[section][key] = value
    path = write_cfg(tmp_path, cfg)
    out = ["--out", str(tmp_path)] if command == "run" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = invoke(command, path, *out)
    assert result.exit_code == 2, all_text(result)
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1, all_text(result)
    assert lines[0].startswith(f"config error at initial: {message}")


@pytest.mark.parametrize("formulation", ["pontryagin", "lagrange-dirac"])
def test_large_temperature_scale_passes_the_initial_guard(tmp_path, formulation):
    # At T0 = 1e8 the row terms sum J_S T are about 1e14, so the consistent
    # initial state's residual of ~6e-2 is round-off and must not be taken
    # for a kinematic violation. The Newton tolerance is absolute, so the
    # run may still fail as a solver error, with one line.
    cfg = BUILTINS["two_port_piston"]()
    cfg["system"]["T0"] = 1e8
    path = write_cfg(tmp_path, cfg)
    result = invoke("run", path, "--formulation", formulation, "--out", str(tmp_path))
    text = all_text(result)
    # Anything but the CLI's own exit would be a traceback outside the runner.
    assert isinstance(result.exception, (SystemExit, type(None))), repr(result.exception)
    assert result.exit_code in (0, 1, 3) and "kinematic" not in text, text
    if result.exit_code == 3:
        assert len(result.stderr.strip().splitlines()) == 1, text


# -- compare ---------------------------------------------------------------


def test_compare_thermo_formulations(tmp_path):
    path = write_cfg(tmp_path, thermo_cfg())
    result = invoke("compare", path, "--out", str(tmp_path))
    assert result.exit_code == 0, all_text(result)
    assert "pontryagin vs lagrange-dirac" in result.output
    assert "max pointwise divergence" in result.output
    assert "PASS" in result.output
    assert (tmp_path / "tiny_compare.txt").exists()


def test_compare_single_formulation_has_zero_divergence(tmp_path):
    path = write_cfg(tmp_path, thermo_cfg())
    result = invoke("compare", path, "--formulations", "pontryagin")
    assert result.exit_code == 0, all_text(result)
    assert "max pointwise divergence: 0.0" in result.output


def test_compare_needs_a_formulation(tmp_path):
    path = write_cfg(tmp_path, thermo_cfg())
    result = invoke("compare", path, "--formulations", " , ")
    assert result.exit_code == 2
    assert "at least one" in all_text(result)


@pytest.mark.parametrize(
    "config, formulations, field",
    [("closed_piston", "reduced,foo", "integrator.formulation")],
)
def test_compare_validates_every_formulation(config, formulations, field):
    # Each name is checked against the scenario before anything runs, not only
    # the first.
    result = invoke("compare", config, "--formulations", formulations)
    assert result.exit_code == 2, all_text(result)
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error at {field}:")
    assert result.stdout == ""


def test_compare_impossible_tolerance_exits_1(tmp_path):
    path = write_cfg(tmp_path, thermo_cfg())
    result = invoke(
        "compare", path, "--formulations", "pontryagin,reduced", "--tol", "1e-30"
    )
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_compare_mechanical(tmp_path):
    path = write_cfg(tmp_path, mech_cfg())
    result = invoke(
        "compare", path, "--formulations", "pontryagin,lagrange-dirac,hamilton-dirac"
    )
    assert result.exit_code == 0, all_text(result)


@pytest.mark.parametrize(
    "name, formulations",
    [
        ("nonholonomic_particle", "pontryagin, lagrange-dirac, hamilton-dirac"),
        ("forced_piston", "pontryagin, lagrange-dirac, reduced"),
    ],
)
def test_compare_defaults_to_the_formulations_of_the_system_kind(tmp_path, name, formulations):
    # Each builtin to t = 1. The model record carries the forced piston's
    # force on both DAE formulations, so they agree to round-off.
    cfg = BUILTINS[name]()
    cfg["integrator"]["horizon"] = 1.0
    result = invoke("compare", write_cfg(tmp_path, cfg))
    assert result.exit_code == 0, all_text(result)
    lines = result.output.splitlines()
    assert lines[0].startswith(f"compare: {formulations} over 1000 steps")
    assert lines[1].startswith("pontryagin vs lagrange-dirac:")
    assert float(lines[1].rsplit(" ", 1)[1]) <= 1e-12


def test_compare_holds_the_dae_formulations_to_one_flow(tmp_path, monkeypatch):
    # With two or more DAE formulations compare prints one more verdict: the
    # worst |a - b| / (1 + |a|) over the state columns against 1e-12, which
    # counts in the exit code. reduced is left out of it. lagrange-dirac's
    # momentum row moved by 1e-10 passes the 1e-6 line and fails this one.
    from diracsim import dynamics

    cfg = BUILTINS["nonholonomic_particle"]()
    cfg["integrator"]["horizon"] = 0.2
    path = write_cfg(tmp_path, cfg)
    result = invoke("compare", path)
    assert result.exit_code == 0, all_text(result)
    last = result.output.splitlines()[-1]
    assert last.startswith("one DAE flow, max |a - b|/(1 + |a|) over x, v, p, pt: ")
    assert last.endswith(" (tol 1e-12) PASS")
    assert float(last.split(": ")[1].split(" ")[0]) <= 1e-12

    thermo = write_cfg(tmp_path, thermo_cfg(), "thermo.json")
    result = invoke("compare", thermo, "--formulations", "pontryagin,reduced")
    assert result.exit_code == 0 and "one DAE flow" not in result.output, all_text(result)

    residual_fn = dynamics.ImplicitMidpointStepper._residual_fn

    def moved(self, *args):
        residual = residual_fn(self, *args)
        if self.formulation != "lagrange-dirac":
            return residual
        return lambda y: residual(y) + np.r_[np.zeros(2 * self.n), np.full(self.n, 1e-10),
                                             np.zeros(y.size - 3 * self.n)]

    monkeypatch.setattr(dynamics.ImplicitMidpointStepper, "_residual_fn", moved)
    result = invoke("compare", path)
    assert result.exit_code == 1, all_text(result)
    *_, divergence, last = result.output.splitlines()
    assert divergence.endswith(" PASS") and last.endswith(" (tol 1e-12) FAIL")


# -- check -----------------------------------------------------------------


def test_check_thermo_passes(tmp_path):
    path = write_cfg(tmp_path, thermo_cfg())
    result = invoke("check", path, "--samples", "5", "--steps", "5")
    assert result.exit_code == 0, all_text(result)
    assert "rank defect: 0" in result.output
    assert "derivative check" in result.output
    assert "check PASSED" in result.output


def test_check_mechanical_passes(tmp_path):
    path = write_cfg(tmp_path, mech_cfg())
    result = invoke("check", path, "--samples", "5", "--steps", "20")
    assert result.exit_code == 0, all_text(result)
    assert "check PASSED" in result.output


def test_check_corrupted_momentum_is_diagnosed(tmp_path):
    path = write_cfg(tmp_path, thermo_cfg())
    result = invoke("check", path, "--samples", "5", "--steps", "5", "--corrupt", "0.5")
    assert result.exit_code == 1
    assert "p_S offset by 0.5" in result.output
    assert "flow membership beta_vanishes (p = dL/dv)" in result.output
    assert "FAIL" in result.output
    assert "check FAILED" in result.output


def test_check_reports_seed(tmp_path):
    path = write_cfg(tmp_path, thermo_cfg())
    result = invoke("check", path, "--samples", "3", "--steps", "3", "--seed", "7")
    assert "check seed: 7" in result.output


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("run", "--tol", "nan"),
        ("run", "--tol", "-1"),
        ("compare", "--tol", "nan"),
        ("compare", "--tol", "-1"),
        ("check", "--tol", "nan"),
        ("check", "--tol", "-1"),
        ("check", "--tol", "inf"),
        ("check", "--seed", "-1"),
        ("check", "--samples", "0"),
        ("check", "--samples", "-3"),
        ("check", "--steps", "0"),
        ("check", "--corrupt", "nan"),
        ("check", "--corrupt", "inf"),
    ],
)
def test_option_out_of_range_is_a_usage_error(tmp_path, command, option, value):
    # Each of these used to verify nothing (exit 0), report FAIL (exit 1) or
    # end in a numpy traceback.
    out = ["--out", str(tmp_path)] if command == "run" else []
    result = invoke(command, "closed_piston", *out, option, value)
    assert result.exit_code == 2, all_text(result)
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error at {option}: "), lines


def test_check_with_a_tiny_heat_capacity_ends_without_a_traceback(tmp_path):
    # At c = 1e-6 the old sample offsets in S and N overflowed T and the rows
    # of the structure check, which ended in a numpy traceback.
    cfg = BUILTINS["closed_piston"]()
    cfg["system"]["c"] = 1e-6
    path = write_cfg(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = invoke("check", path, "--samples", "5", "--steps", "5")
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.exit_code in (0, 1, 3), all_text(result)
    if result.exit_code == 3:
        assert len(result.stderr.strip().splitlines()) == 1, all_text(result)


SPECIAL_VALUES = [
    float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -5e-324, 1e16, 0.1,
    -2.5e-300, 1.0 / 3.0, 123456789.0,
]


def special_columns(rows, width, shift):
    # A (rows, width) table cycling through SPECIAL_VALUES from an offset.
    vals = [SPECIAL_VALUES[(shift + i) % len(SPECIAL_VALUES)] for i in range(rows * width)]
    return np.array(vals).reshape(rows, width)


def csv_writer_bytes(header, table):
    # The rendering the writers must reproduce: csv.writer with _fmt cells.
    import io

    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(header)
    for row in table:
        wr.writerow([cli._fmt(v) for v in row.tolist()])
    return buf.getvalue().encode()


def special_run(problem, K):
    # A trajectory and its invariants whose every column holds special values.
    from diracsim.dynamics import InvariantSeries, Trajectory

    n = problem.L.n
    col = lambda rows, shift: special_columns(rows, 1, shift)[:, 0]
    traj = Trajectory(
        formulation="pontryagin", h=0.1, t=np.arange(K + 1) * 0.1,
        x=special_columns(K + 1, n, 1), v=special_columns(K + 1, n, 2),
        p=special_columns(K + 1, n, 3), pt=np.full(K + 1, 0.25),
        lam=special_columns(K, 1, 4), newton_iters=np.ones(K, dtype=int),
    )
    thermo = problem.kind == "ideal_gas"
    extra = lambda shift: col(K + 1, shift) if thermo else None
    inv = InvariantSeries(
        t=traj.t, t_mid=col(K, 5), energy=col(K + 1, 6), covariant_energy=col(K + 1, 7),
        covariant_energy_drift=col(K + 1, 8), energy_balance_residual=col(K, 9),
        kinematic_residual=col(K + 1, 10),
        entropy_decomposition_residual=col(K, 11) if thermo else None,
        entropy_production=extra(0), power_mechanical=extra(1), power_heating=extra(2),
        power_matter=extra(3), first_law_residual=extra(4),
    )
    return traj, inv


@pytest.mark.parametrize("name", ["two_port_piston", "nonholonomic_particle"])
def test_csv_writers_give_the_csv_writer_bytes(tmp_path, name):
    problem = build_problem(load_config(name))
    traj, inv = special_run(problem, 12)
    lam = np.concatenate([traj.lam[:1, 0], traj.lam[:, 0]])
    E, cov_E = inv.energy, traj.pt + inv.energy
    if problem.kind == "ideal_gas":
        header = (
            ["t", "q_0", "v_q_0", "S", "N", "Gamma", "W", "Sigma", "p_q_0"]
            + ["p_S", "p_N", "p_Gamma", "p_W", "p_Sigma", "pt", "lam", "E", "cov_E"]
            + ["P_W", "P_H", "P_M", "I", "kinematic_res", "first_law_res"]
        )
        columns = [traj.t, traj.x[:, :1], traj.v[:, :1], traj.x[:, 1:], traj.p, traj.pt,
                   lam, E, cov_E, inv.power_mechanical, inv.power_heating,
                   inv.power_matter, inv.entropy_production, inv.kinematic_residual,
                   inv.first_law_residual]
        inv_header = ["t_mid", "covariant_energy_drift", "energy_balance_residual",
                      "entropy_decomposition_residual"]
        inv_columns = [inv.t_mid, inv.covariant_energy_drift[1:],
                       inv.energy_balance_residual, inv.entropy_decomposition_residual]
    else:
        header = ["t", "x_0", "x_1", "v_0", "v_1", "p_0", "p_1", "pt", "lam", "E", "cov_E",
                  "kinematic_res"]
        columns = [traj.t, traj.x, traj.v, traj.p, traj.pt, lam, E, cov_E,
                   inv.kinematic_residual]
        inv_header = ["t_mid", "covariant_energy_drift", "energy_balance_residual"]
        inv_columns = [inv.t_mid, inv.covariant_energy_drift[1:],
                       inv.energy_balance_residual]
    cli.write_trajectory_csv(tmp_path / "traj.csv", problem, traj, inv)
    cli.write_invariants_csv(tmp_path / "inv.csv", inv)
    table = np.column_stack(columns)
    # Every special value reaches the file.
    for v in SPECIAL_VALUES:
        assert any(repr(v) in row for row in map(repr, table.tolist()))
    assert (tmp_path / "traj.csv").read_bytes() == csv_writer_bytes(header, table)
    inv_table = np.column_stack(inv_columns)
    assert (tmp_path / "inv.csv").read_bytes() == csv_writer_bytes(inv_header, inv_table)


def test_invariants_csv_of_a_run_without_steps_is_its_header(tmp_path):
    problem = build_problem(load_config("two_port_piston"))
    _, inv = special_run(problem, 0)
    cli.write_invariants_csv(tmp_path / "inv.csv", inv)
    header = ["t_mid", "covariant_energy_drift", "energy_balance_residual",
              "entropy_decomposition_residual"]
    assert (tmp_path / "inv.csv").read_bytes() == csv_writer_bytes(header, np.empty((0, 4)))


# -- exit codes over random configs ----------------------------------------


def schedules(lo, hi):
    # A constant or a two-knot table between lo and hi.
    value = st.floats(lo, hi, allow_nan=False)
    return value | st.tuples(value, value).map(lambda ab: [[0.0, ab[0]], [1.0, ab[1]]])


@st.composite
def valid_configs(draw):
    """Configs that load, from calm to stiff: short horizons, order-one to
    large flows and steps, so that runs pass, miss a tolerance or fail to
    solve."""

    h = draw(st.sampled_from([0.01, 0.05, 0.2]))
    integrator = {"h": h, "horizon": h * draw(st.integers(1, 6))}
    if draw(st.integers(0, 3)) == 0:
        beta = draw(schedules(-3.0, 3.0))
        return {
            "system": {
                "kind": "nonholonomic_particle",
                "mass": draw(st.floats(0.2, 5.0)),
                "beta": beta,
            },
            # On the constraint t v1 - v2 + beta(t) = 0 at t = 0.
            "initial": {
                "x": [0.0, 0.0],
                "v": [draw(st.floats(-2.0, 2.0)), beta if isinstance(beta, float) else beta[0][1]],
            },
            "integrator": integrator,
        }
    n_q = draw(st.integers(1, 2))
    ports = []
    for _ in range(draw(st.integers(0, 2))):
        port = {"J": draw(schedules(-3.0, 3.0)), "molar_entropy": draw(schedules(0.0, 2.0))}
        if draw(st.booleans()):
            port["matched"] = True
        else:
            port.update(mu=draw(schedules(-1.0, 1.0)), T=draw(schedules(0.5, 2.0)))
        ports.append(port)
    system = {
        "kind": "ideal_gas",
        "n_q": n_q,
        "c": draw(st.floats(0.3, 3.0)),
        "T0": draw(st.floats(0.3, 3.0)),
        "s0": draw(st.floats(0.0, 2.0)),
        "mass": draw(st.floats(0.2, 5.0)),
        "stiffness": draw(st.floats(0.2, 5.0)),
        "friction_gamma": draw(st.floats(0.0, 1.0)),
        "ports": ports,
        "sources": [
            {"kappa": draw(st.floats(0.0, 2.0)), "T": draw(schedules(0.5, 2.0))}
            for _ in range(draw(st.integers(0, 1)))
        ],
    }
    if draw(st.booleans()):
        system["external_force"] = [draw(schedules(-1.0, 1.0)) for _ in range(n_q)]
        if n_q == 1:
            system["external_force"] = system["external_force"][0]
    return {
        "system": system,
        "initial": {
            "q": [draw(st.floats(-1.0, 1.0)) for _ in range(n_q)],
            "v_q": [draw(st.floats(-1.0, 1.0)) for _ in range(n_q)],
            "S": draw(st.floats(0.2, 2.0)),
            "N": draw(st.floats(0.2, 2.0)),
        },
        "integrator": integrator,
    }


@settings(max_examples=30, deadline=None)
@given(cfg=valid_configs(), command=st.sampled_from(["run", "compare", "check"]))
def test_commands_end_in_a_documented_exit_code_in_one_line(tmp_path_factory, cfg, command):
    # run, compare and check end in exit 0, 1 or 3, never in a traceback; a
    # solver error is one line on stderr, with no numpy warning. The configs
    # load, so no command exits 2.
    out = tmp_path_factory.mktemp("out")
    path = write_cfg(out, cfg)
    args = {
        "run": ["--out", str(out)],
        "compare": [],
        "check": ["--samples", "3", "--steps", "3"],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = invoke(command, path, *args)
    assert isinstance(result.exception, (SystemExit, type(None))), repr(result.exception)
    assert result.exit_code in (0, 1, 3), all_text(result)
    if result.exit_code == 3:
        assert len(result.stderr.strip().splitlines()) == 1, all_text(result)
