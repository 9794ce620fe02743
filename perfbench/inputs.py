"""Seeded inputs, reference results and per-op correctness checks.

The seed perturbs copies of the bundled scenarios (initial state and schedule
magnitudes, within order-one ranges around the builtin values) and writes
them as JSON configs. The program under test only ever sees the paths of
those files; `check` ops also take a `--seed` drawn from the same stream.
"""

from __future__ import annotations

import copy
import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from diracsim import cli

THERMO = (
    "two_port_piston",
    "conduction_piston",
    "matched_port_piston",
    "closed_piston",
    "forced_piston",
)
PARTICLE = "nonholonomic_particle"
WORKLOADS = ("run-dae", "run-reduced", "check")

# Integrator steps per op (h = 1e-3 in every builtin). Each formulation gets
# the step count that makes one op cost about the same (~0.15-0.25 s) at the
# commit that defined the benchmark, so the op-time distribution of a
# workload is unimodal and its percentiles are stable.
STEPS = {
    ("thermo", "pontryagin"): 100,
    ("thermo", "lagrange-dirac"): 50,
    ("thermo", "reduced"): 100,
    ("thermo", "check"): 100,
    ("particle", "pontryagin"): 150,
    ("particle", "lagrange-dirac"): 150,
    ("particle", "hamilton-dirac"): 40,
    ("particle", "check"): 100,
}
CHECK_SAMPLES = 50
# Perturbed copies of each scenario per run. A round runs one cycle of every
# variant, and runs are whole rounds, so every variant weighs the same.
VARIANTS = {"run-dae": 4, "run-reduced": 4, "check": 4}
# Final-node agreement with the reference run (the `compare` default).
AGREE_TOL = 1e-6


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must satisfy."""

    kind: str  # "run" or "check"
    label: str  # scenario/formulation, the same across variants
    config: Path
    steps: int  # integrator steps the op completes
    samples: int  # random structure points the op checks (check only)
    args: tuple[str, ...]
    prefix: str
    thermo: bool
    reference: str | None  # independent formulation for the final-node check


def _scale(spec, factor: float):
    """Scale a schedule (number or [[t, value], ...]) by a constant factor."""

    if isinstance(spec, list):
        return [[t, v * factor] for t, v in spec]
    return spec * factor


def _base_config(name: str, root: Path) -> dict:
    if name == "forced_piston":
        path = root / "configs" / "forced_piston.json"
        return cli.load_config(str(path) if path.exists() else name)
    return cli.load_config(name)


def _perturb_thermo(cfg: dict, rng: random.Random) -> dict:
    cfg = copy.deepcopy(cfg)
    init = cfg["initial"]
    init["q"] = [q + rng.uniform(-0.15, 0.15) for q in init["q"]]
    init["v_q"] = [v + rng.uniform(-0.2, 0.2) for v in init["v_q"]]
    init["S"] *= rng.uniform(0.9, 1.1)
    init["N"] *= rng.uniform(0.9, 1.1)
    system = cfg["system"]
    if "friction_gamma" in system:
        system["friction_gamma"] *= rng.uniform(0.5, 1.5)
    for port in system.get("ports", []):
        for key in ("J", "J_S", "molar_entropy", "mu", "T"):
            if key in port:
                port[key] = _scale(port[key], rng.uniform(0.5, 1.5))
    for source in system.get("sources", []):
        for key in ("kappa", "J_S", "T"):
            if key in source:
                source[key] = _scale(source[key], rng.uniform(0.5, 1.5))
    if "external_force" in system:
        system["external_force"] = _scale(system["external_force"], rng.uniform(0.5, 1.5))
    return cfg


def _perturb_particle(cfg: dict, rng: random.Random) -> dict:
    cfg = copy.deepcopy(cfg)
    system = cfg["system"]
    system["mass"] *= rng.uniform(0.5, 1.5)
    system["beta"] = _scale(system["beta"], rng.uniform(0.5, 1.5))
    beta0 = cli.make_schedule(system["beta"], "system.beta")(0.0)
    # The initial velocity must satisfy t v_1 - v_2 + beta(t) = 0 at t = 0.
    cfg["initial"] = {
        "x": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
        "v": [rng.uniform(0.5, 1.5), beta0],
    }
    return cfg


def make_cycles(workload: str, seed: int, root: Path, workdir: Path) -> list[list[Op]]:
    """Write the seeded configs and return one cycle (op list) per variant.

    A cycle runs every op label of the workload once, on one variant.
    """

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    bases = {name: _base_config(name, root) for name in THERMO + (PARTICLE,)}
    outdir = workdir / "out"
    cycles = []
    for variant in range(VARIANTS[workload]):
        perturbed = {
            name: _perturb_thermo(base, rng) if name != PARTICLE else _perturb_particle(base, rng)
            for name, base in bases.items()
        }
        check_seed = rng.randrange(2**31)

        def op(name, formulation, reference=None):
            thermo = name != PARTICLE
            steps = STEPS[("thermo" if thermo else "particle", formulation)]
            cfg = copy.deepcopy(perturbed[name])
            prefix = f"{name}_{formulation}_v{variant}"
            cfg["integrator"]["horizon"] = steps * cfg["integrator"]["h"]
            cfg["output"] = {"prefix": prefix}
            path = workdir / f"{prefix}.json"
            path.write_text(json.dumps(cfg, indent=1))
            if formulation == "check":
                args = ("check", str(path), "--seed", str(check_seed), "--samples", str(CHECK_SAMPLES))
                # check integrates min(--steps, n_steps) flow steps; --steps
                # keeps its default of 200.
                steps = min(200, steps)
            else:
                args = ("run", str(path), "--formulation", formulation, "--out", str(outdir))
            return Op(
                kind="check" if formulation == "check" else "run",
                label=f"{name}/{formulation}",
                config=path,
                steps=steps,
                samples=CHECK_SAMPLES if formulation == "check" else 0,
                args=args,
                prefix=prefix,
                thermo=thermo,
                reference=reference,
            )

        if workload == "run-dae":
            ops = [op(n, "pontryagin", "reduced") for n in THERMO]
            ops += [
                op(n, "lagrange-dirac", "reduced")
                for n in THERMO
                if "external_force" not in perturbed[n]["system"]
            ]
            ops += [
                op(PARTICLE, "pontryagin", "lagrange-dirac"),
                op(PARTICLE, "lagrange-dirac", "pontryagin"),
                op(PARTICLE, "hamilton-dirac", "pontryagin"),
            ]
        elif workload == "run-reduced":
            ops = [op(n, "reduced", "pontryagin") for n in THERMO]
        else:
            ops = [op(n, "check") for n in THERMO + (PARTICLE,)]
        cycles.append(ops)
    return cycles


@dataclass(frozen=True)
class Node:
    x: np.ndarray
    p: np.ndarray
    pt: float


def reference_nodes(cycles: list[list[Op]]) -> dict[tuple[Path, str], Node]:
    """Final node of an untimed library run of each op's reference formulation."""

    refs = {}
    for ops in cycles:
        for op in ops:
            key = (op.config, op.reference)
            if op.reference is None or key in refs:
                continue
            problem = cli.build_problem(cli.load_config(str(op.config)), op.reference)
            traj = cli.run_formulation(problem, op.reference)
            refs[key] = Node(x=traj.x[-1].copy(), p=traj.p[-1].copy(), pt=float(traj.pt[-1]))
    return refs


def output_files(op: Op, outdir: Path) -> list[Path]:
    if op.kind != "run":
        return []
    return [outdir / f"{op.prefix}_{part}" for part in ("trajectory.csv", "invariants.csv", "summary.txt")]


def check_output(op: Op, code, stdout: str, outdir: Path, refs: dict) -> str | None:
    """Return why the op's output is wrong, or None when it is correct."""

    if code != 0:
        return f"exit {code!r}"
    lines = stdout.splitlines()
    if op.kind == "check":
        return None if "check PASSED" in lines else "no 'check PASSED' line"
    if "overall: PASS" not in lines:
        return "no 'overall: PASS' line"
    path = outdir / f"{op.prefix}_trajectory.csv"
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return f"trajectory CSV unreadable: {exc}"
    if len(rows) - 1 != op.steps + 1:
        return f"trajectory CSV has {len(rows) - 1} rows, expected {op.steps + 1}"
    header, last = rows[0], dict(zip(rows[0], rows[-1]))
    if op.thermo:
        x_cols = [c for c in header if c.startswith("q_")] + ["S", "N", "Gamma", "W", "Sigma"]
    else:
        x_cols = [c for c in header if c.startswith("x_")]
    p_cols = [c for c in header if c.startswith("p_")]
    try:
        x = np.array([float(last[c]) for c in x_cols])
        p = np.array([float(last[c]) for c in p_cols])
        pt = float(last["pt"])
    except (KeyError, ValueError) as exc:
        return f"final CSV row unparsable: {exc}"
    ref = refs[(op.config, op.reference)]
    if x.shape != ref.x.shape or p.shape != ref.p.shape:
        return "final CSV row has the wrong number of state columns"
    diff = max(np.max(np.abs(x - ref.x)), np.max(np.abs(p - ref.p)), abs(pt - ref.pt))
    if not diff <= AGREE_TOL:
        return f"final node differs from {op.reference} by {diff:.3e} (tol {AGREE_TOL:.0e})"
    return None
