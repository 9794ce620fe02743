"""Invariance gates: a correct run stays correct under a gauge shift, a long
horizon and a far start, and the three DAE formulations are one discrete
flow.

Each run goes through `diracsim run` and must exit 0 with `overall: PASS`.
Columns are compared as scripts/compare_outputs.py compares them under
scripts/output_bounds.json: a difference counts against max(1, max |value|)
of its column over both runs, and the bound is the gate's 1e-12.
"""

import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from diracsim import dynamics
from diracsim.cli import FORMULATIONS_BY_KIND, build_problem, load_config, main, run_formulation

THERMO = ["closed_piston", "conduction_piston", "forced_piston", "matched_port_piston",
          "two_port_piston"]
# The gate's bound for every column (scripts/output_bounds.json).
GATE_BOUND = 1e-12


def run_columns(tmp_path, cfg, formulation, tag):
    """Every CSV column of one `diracsim run`, which must pass."""

    out = tmp_path / tag
    out.mkdir()
    path = out / "cfg.json"
    path.write_text(json.dumps(cfg))
    result = CliRunner().invoke(main, ["run", str(path), "--formulation", formulation,
                                       "--out", str(out)])
    assert result.exit_code == 0 and "overall: PASS" in result.output.splitlines(), (
        f"{tag}: exit {result.exit_code}\n{result.output}"
    )
    columns = {}
    for table in sorted(out.glob("*.csv")):
        with open(table) as fh:
            header, *rows = csv.reader(fh)
        data = np.array(rows, dtype=float)
        columns.update({f"{table.stem.split('_')[-1]}:{h}": data[:, i] for i, h in enumerate(header)})
    return columns


def over_gate(a, b):
    # A column's difference against its scale, as the gate measures it.
    scale = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return float(np.abs(a - b).max(initial=0.0)) / scale


def steps(cfg, k):
    cfg["integrator"]["horizon"] = k * cfg["integrator"]["h"]
    return cfg


# Gamma and W shifted by +-2^k, both signs of each.
SHIFTS = [(s * 2.0**k, -s * 2.0**k) for k in (4, 8, 30) for s in (1, -1)]


@pytest.mark.parametrize("formulation", FORMULATIONS_BY_KIND["ideal_gas"])
@pytest.mark.parametrize("name", THERMO)
def test_a_gauge_shift_of_gamma_and_w_moves_no_other_column(tmp_path, name, formulation):
    # Gamma and W are cyclic: L and the rows read only their rates, so a
    # step solved for its increments does not see a shift of them, and
    # every other column of 50 steps must match the unshifted run within
    # the gate.
    base = run_columns(tmp_path, steps(load_config(name), 50), formulation, "base")
    for d_gamma, d_w in SHIFTS:
        cfg = steps(load_config(name), 50)
        initial = cfg["initial"]
        initial["Gamma"] = initial.get("Gamma", 0.0) + d_gamma
        initial["W"] = initial.get("W", 0.0) + d_w
        shifted = run_columns(tmp_path, cfg, formulation, f"shift_{d_gamma}_{d_w}")
        for column, values in base.items():
            if column.endswith((":Gamma", ":W")):
                continue
            assert over_gate(values, shifted[column]) <= GATE_BOUND, (d_gamma, d_w, column)


def horizon_30(cfg):
    cfg["integrator"]["horizon"] = 30.0
    return cfg


def far_piston(cfg):
    cfg["initial"]["q"] = [1e4]
    return cfg


def far_particle(cfg):
    cfg["initial"]["x"] = [1e6, 1e6]
    return cfg


def far_piston_50_steps(cfg):
    return steps(far_piston(cfg), 50)


@pytest.mark.parametrize(
    "name, formulation, config",
    [
        # A long horizon: 30 000 reduced steps, about 3 s.
        ("two_port_piston", "reduced", horizon_30),
        # A far piston over 50 steps on the DAE paths, and over its default
        # horizon on reduced.
        ("closed_piston", "pontryagin", far_piston_50_steps),
        ("closed_piston", "lagrange-dirac", far_piston_50_steps),
        ("closed_piston", "reduced", far_piston),
        # A far particle over its default horizon, on all three formulations.
        *(("nonholonomic_particle", f, far_particle)
          for f in FORMULATIONS_BY_KIND["nonholonomic_particle"]),
        # The far piston's speed passes 1e3 by its 100th DAE step. From there
        # the round-off of the velocity row alone, ulp(|v|) = 1.1e-13, is
        # above the stepper's absolute Newton stop of 1e-13, and the run
        # fails at step 100 until that stop is scaled to its rows (ROADMAP K).
        *(pytest.param("closed_piston", f, far_piston,
                       marks=pytest.mark.xfail(strict=True, reason="absolute Newton stop"))
          for f in ("pontryagin", "lagrange-dirac")),
    ],
)
def test_a_long_or_far_run_passes(tmp_path, name, formulation, config):
    run_columns(tmp_path, config(load_config(name)), formulation, "run")


# -- one discrete flow ------------------------------------------------------


def state_columns(problem, traj):
    # The state columns of the trajectory CSV: x, v, p and pt, where the
    # open system's v is v_q alone. Its bookkeeping velocities are in no
    # output; each step's velocity row sets them as 2 d/h - v0, which
    # carries every step's round-off on, and the formulations' differ by up
    # to 1e-9 relative there over 200 steps.
    v = traj.v if problem.system is None else traj.v[:, problem.system.layout.q]
    return traj.x, v, traj.p, traj.pt


def worst_formulation_gap(name):
    # 200 steps of a builtin on every DAE formulation of its kind: the worst
    # |a - b| / (1 + |a|) over the state columns, against pontryagin's a.
    cfg = steps(load_config(name), 200)
    problems = [build_problem(cfg, f)
                for f in FORMULATIONS_BY_KIND[cfg["system"]["kind"]] if f != "reduced"]
    columns = [state_columns(p, run_formulation(p, p.formulation)) for p in problems]
    return max(
        float(np.max(np.abs(b - a) / (1.0 + np.abs(a))))
        for other in columns[1:] for a, b in zip(columns[0], other)
    )


BUILTINS = [*THERMO, "nonholonomic_particle"]


@pytest.mark.parametrize("name", BUILTINS)
def test_the_dae_formulations_are_one_discrete_flow(name):
    # pontryagin and lagrange-dirac solve the same midpoint rows for the
    # same increments, and read the constraint coefficients at v or at p,
    # which the step's own fiber row ties; hamilton-dirac takes v from p
    # through that row. So they agree to round-off: 6.7e-16 at most here.
    assert worst_formulation_gap(name) <= GATE_BOUND


@pytest.mark.parametrize("name", ["two_port_piston", "nonholonomic_particle"])
def test_a_momentum_row_moved_by_1e_10_breaks_the_one_flow(monkeypatch, name):
    # lagrange-dirac's momentum balance, moved by 1e-10 at every residual,
    # moves its flow by far more than round-off.
    residual_fn = dynamics.ImplicitMidpointStepper._residual_fn

    def moved(self, *args):
        residual = residual_fn(self, *args)
        if self.formulation != "lagrange-dirac":
            return residual
        return lambda y: residual(y) + np.r_[np.zeros(2 * self.n), np.full(self.n, 1e-10),
                                             np.zeros(y.size - 3 * self.n)]

    monkeypatch.setattr(dynamics.ImplicitMidpointStepper, "_residual_fn", moved)
    assert worst_formulation_gap(name) > GATE_BOUND
