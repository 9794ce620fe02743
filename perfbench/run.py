#!/usr/bin/env python3
"""diracsim benchmark: CLI ops through `diracsim.cli.main`, in one process.

    python3 perfbench/run.py --workload run-dae --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
Workloads (closed loop, one op at a time, single-threaded):

  run-dae      `diracsim run` on the DAE formulations (the stepper hot path)
  run-reduced  `diracsim run --formulation reduced` (stepper bypassed)
  check        `diracsim check --seed S --samples N` (verification layers)

`--trace 0` times untraced ops and prints the end-to-end metrics, in reference
seconds that factor out the machine's drifting speed (calibrate.py); `--trace 1`
alternates untraced and traced cycles of the same ops and prints the
per-layer metrics. Every metric is printed as `name = value unit`, and the
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import os
import sys

# BLAS/OpenMP pools are sized when numpy loads, so pin them before any import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Fixed per workload, so that a faster program (more ops per run) does not
# move the metric to another percentile. Each leaves >= 10 ops beyond it at
# the default run length.
TAIL_PERCENTILE = {"run-dae": 75, "run-reduced": 90, "check": 75}
SETUP_REPEATS = 5
# Kernel repeats after the set-up in each child; their median scales it.
SETUP_KERNEL_REPEATS = 5

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
import diracsim.cli as cli
cli.build_problem(cli.load_config(sys.argv[1]))
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import calibrate
print(repr(setup), repr(calibrate.median_kernel_s(int(sys.argv[3]))))
"""


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    if not (SRC / "diracsim" / "cli.py").is_file():
        fail(f"no diracsim sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import diracsim

    if Path(diracsim.__file__).resolve().parent != SRC / "diracsim":
        fail(f"imported diracsim from {diracsim.__file__}, not from {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(config: Path) -> list[tuple[float, float]]:
    """Wall seconds for import + load_config + build_problem in fresh
    interpreters, each with the median calibration kernel time after it."""

    times = []
    for i in range(SETUP_REPEATS + 1):  # the first run only warms the file cache
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(config), str(HERE), str(SETUP_KERNEL_REPEATS)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
        if i:
            setup, kernel = proc.stdout.strip().splitlines()[-1].split()
            times.append((float(setup), float(kernel)))
    return times


def call_cli(args) -> tuple[float, object, str]:
    """Run one CLI op in-process; return wall seconds, exit code and output."""

    from diracsim import cli

    out = io.StringIO()
    code = 0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            cli.main.main(args=list(args), prog_name="diracsim", standalone_mode=False)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    except Exception as exc:  # a traceback is a failed op, not a failed benchmark
        code = f"exception {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


class Runner:
    """Runs cycles of ops, checks each op's output and keeps the samples."""

    def __init__(self, cycles, refs, outdir: Path, corrupt=None):
        self.cycles = cycles
        self.refs = refs
        self.outdir = outdir
        self.corrupt = corrupt  # test hook: corrupt(op, outdir) after an op
        self.attempted = 0
        self.failures: list[str] = []
        self.kernel_s: list[float] | None = None  # calibration samples, once started

    def start_calibration(self) -> None:
        """From now on, time the calibration kernel once now and after every op."""

        self.kernel_s = [calibrate.kernel_s()]

    def run_op(self, op, tracer=None) -> float:
        import inputs

        for path in inputs.output_files(op, self.outdir):
            path.unlink(missing_ok=True)
        if tracer is None:
            seconds, code, out = call_cli(op.args)
        else:
            tracer.op_id += 1
            seconds, code, out = tracer.wrap("cli.main", call_cli)(op.args)
        if self.corrupt is not None:
            self.corrupt(op, self.outdir)
        self.attempted += 1
        why = inputs.check_output(op, code, out, self.outdir, self.refs)
        if why is not None:
            self.failures.append(f"{op.label} ({op.config.name}): {why}")
        if self.kernel_s is not None:
            self.kernel_s.append(calibrate.kernel_s())
        return seconds

    def run_cycle(self, index: int, tracer=None) -> list[tuple[object, float]]:
        ops = self.cycles[index % len(self.cycles)]
        if tracer is not None:
            tracer.install()
        try:
            return [(op, self.run_op(op, tracer)) for op in ops]
        finally:
            if tracer is not None:
                tracer.uninstall()


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of values at or below it."""

    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, runner, seconds, setup_times):
    runner.run_cycle(0)  # warm-up
    runner.start_calibration()
    rounds = []  # a round runs one cycle of every variant
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append([s for k in range(len(runner.cycles)) for s in runner.run_cycle(k)])
    samples = [s for r in rounds for s in r]
    wall = [s for _, s in samples]
    times = calibrate.reference_times(wall, runner.kernel_s)
    busy = sum(times)
    p = TAIL_PERCENTILE[workload]
    tail = percentile(times, p)
    metrics = {
        "setup_s": (statistics.median(calibrate.to_reference(s, k) for s, k in setup_times), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail, "s"),
        "steps_per_s": (sum(op.steps for op, _ in samples) / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = [
        f"samples: {len(times)} ops in {len(rounds)} rounds of {len(runner.cycles)} variants "
        f"x {len(runner.cycles[0])} ops; setup_s from {len(setup_times)} fresh interpreters",
        f"op_s.tail is p{p} ({sum(1 for s in times if s > tail)} ops beyond it)",
        f"times are reference seconds (calibrate.py): unscaled op wall p50 "
        f"{statistics.median(wall):.4f} s, unscaled setup p50 {statistics.median(s for s, _ in setup_times):.4f} s, "
        f"calibration kernel p50 {statistics.median(runner.kernel_s):.4f} s in ops, "
        f"{statistics.median(k for _, k in setup_times):.4f} s in set-up (reference {calibrate.REFERENCE_S} s)",
    ]
    extra = {}
    if workload == "check":
        extra["samples_per_s"] = (sum(op.samples for op, _ in samples) / busy, "1/s")
    return metrics, extra, info


def per_layer(runner, seconds, trace_file: Path):
    from tracing import SpanTable, Tracer

    tracer = Tracer()
    runner.run_cycle(0)  # warm-up
    untraced, traced = [], []  # per cycle: list of (op, seconds)
    first_ops = []
    start = time.perf_counter()
    k = 0
    while not traced or time.perf_counter() - start < seconds or k % len(runner.cycles):
        k += 1
        untraced.append(runner.run_cycle(k))
        first_ops.append(tracer.op_id + 1)
        traced.append(runner.run_cycle(k, tracer))
    tracer.write(trace_file)

    spans = SpanTable(tracer, [(first, len(c)) for first, c in zip(first_ops, traced)])
    traced_ops = [op for c in traced for op, _ in c]
    dae_steps = spans.calls("dynamics.step")
    steps = dae_steps + spans.counter("reduced_steps")
    thermo_runs = sum(1 for op in traced_ops if op.kind == "run" and op.thermo)
    vel = ("thermo.vel_row.A", "thermo.vel_row.B")
    mom = ("thermo.mom_row.A", "thermo.mom_row.B")
    rows = vel + mom + ("cli.particle_row.A", "cli.particle_row.B")
    lag = ("lagrangian.L", "lagrangian.H")

    def ratio(a, b):
        return a / b if b else 0.0

    def per_step(*names):
        return (ratio(spans.calls(*names), steps), "count/step")

    def per_dae_step(amount):
        return (ratio(amount, dae_steps), "count/step")

    def self_s(*names):
        return (spans.self_s(*names), "s/op")

    def incl_s(name):
        return (spans.incl_s(name), "s/op")

    p50_untraced = statistics.median(s for c in untraced for _, s in c)
    p50_traced = statistics.median(s for c in traced for _, s in c)
    metrics = {
        "dynamics.step.s": self_s("dynamics.step"),
        "dynamics.step.incl_s": incl_s("dynamics.step"),
        "dynamics.step.calls": (dae_steps / len(traced_ops), "count/op"),
        "dynamics.residual.s": self_s("dynamics.residual"),
        "dynamics.residual_evals_per_step": per_dae_step(spans.calls("dynamics.residual")),
        "dynamics.jacobian.incl_s": incl_s("dynamics.jacobian"),
        "dynamics.jacobian_factors_per_step": per_dae_step(spans.calls("dynamics.lu_factor")),
        "dynamics.lu_factor.s": self_s("dynamics.lu_factor"),
        "dynamics.newton_iters_per_step": per_dae_step(spans.counter("newton_iters")),
        "thermo.vel_row.calls_per_step": per_step(*vel),
        "thermo.vel_row.A.calls_per_step": per_step(vel[0]),
        "thermo.vel_row.B.calls_per_step": per_step(vel[1]),
        "thermo.vel_row.s": self_s(*vel),
        "thermo.mom_row.calls_per_step": per_step(*mom),
        "thermo.mom_row.s": self_s(*mom),
        "thermo.row_builds_per_residual": (
            ratio(spans.calls_under("dynamics.residual", *rows), spans.calls("dynamics.residual")),
            "count",
        ),
        "thermo.run_reduced.s": self_s("thermo.run_reduced"),
        "thermo.run_reduced.incl_s": incl_s("thermo.run_reduced"),
        "thermo.reduced_rhs.calls_per_step": per_step("thermo.reduced_rhs"),
        "thermo.reduced_rhs.s": self_s("thermo.reduced_rhs"),
        "thermo.lu_factor.s": self_s("thermo.lu_factor"),
        "dynamics.monitor_invariants.s": self_s("dynamics.monitor_invariants"),
        "dynamics.monitor_invariants.incl_s": incl_s("dynamics.monitor_invariants"),
        "thermo.first_law_residual.s": self_s("thermo.first_law_residual"),
        "thermo.first_law_residual.incl_s": incl_s("thermo.first_law_residual"),
        "thermo.first_law_residual.calls": (
            ratio(spans.calls("thermo.first_law_residual"), thermo_runs), "count/op"
        ),
        "cli.write_trajectory_csv.s": self_s("cli.write_trajectory_csv"),
        "cli.write_trajectory_csv.incl_s": incl_s("cli.write_trajectory_csv"),
        "cli.write_trajectory_csv.bytes": (spans.counter("csv_bytes") / len(traced_ops), "B/op"),
        "cli.write_invariants_csv.s": self_s("cli.write_invariants_csv"),
        "cli.build_problem.s": self_s("cli.build_problem"),
        "cli.load_config.s": self_s("cli.load_config"),
        "cli.main.s": self_s("cli.main"),
        "lagrangian.calls_per_step": per_step(*lag),
        "lagrangian.s": self_s(*lag),
        "geometry.dirac_rank.s": self_s("geometry.dirac_rank"),
        "geometry.random_dirac_element.s": self_s("geometry.random_dirac_element"),
        "geometry.dirac_membership_P.s": self_s("geometry.dirac_membership_P"),
        "dynamics.recover_multipliers.s": self_s("dynamics.recover_multipliers"),
        "lagrangian.check_derivatives.s": self_s("lagrangian.check_derivatives"),
        "trace.overhead": (p50_traced / p50_untraced - 1.0, "ratio"),
    }
    info = [
        f"samples: {len(traced_ops)} traced and {sum(len(c) for c in untraced)} untraced ops "
        f"in {len(traced)} cycle pairs; {len(tracer.t0)} spans written to {trace_file}",
        f"integrator steps traced: {steps:.0f} ({dae_steps:.0f} by the stepper)",
    ]
    return metrics, info


def main(argv=None, corrupt=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("run-dae", "run-reduced", "check"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import inputs

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        t_start = time.perf_counter()
        cycles = inputs.make_cycles(args.workload, args.seed, ROOT, workdir)
        setup_times = measure_setup(cycles[0][0].config) if args.trace == 0 else None
        t_setup = time.perf_counter()
        refs = inputs.reference_nodes(cycles)
        t_refs = time.perf_counter()
        runner = Runner(cycles, refs, workdir / "out", corrupt=corrupt)
        (workdir / "out").mkdir()
        if args.trace == 0:
            metrics, extra, info = end_to_end(args.workload, runner, args.seconds, setup_times)
        else:
            trace_file = WORK / f"spans-{args.workload}.npz"
            metrics, info = per_layer(runner, args.seconds, trace_file)
            extra = {}
        info.append(
            f"phases: set-up timing {t_setup - t_start:.1f} s, reference runs "
            f"{t_refs - t_setup:.1f} s, warm-up and measurement {time.perf_counter() - t_refs:.1f} s"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print(f"FAILED op: {line}")
    for line in info:
        print(f"# {line}")
    extra["fail_ratio"] = (failed / runner.attempted, "ratio")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
