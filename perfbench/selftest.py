#!/usr/bin/env python3
"""Self-test of the benchmark itself (a few minutes).

    python3 perfbench/selftest.py

1. A one-second run of every workload, traced and untraced, prints every
   metric that BENCHMARK.json names, with its unit, and no op fails.
2. An op whose trajectory CSV is corrupted after it ran is counted as
   failed, so `correct` is false and `fail_ratio` is above zero.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the BLAS thread variables first)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def check_short_runs() -> None:
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            expect(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            res = result_of(proc.stdout)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(res)}")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{workload}: {res}")
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{workload} trace {trace}: metrics {got} != {want}")
            printed = proc.stdout.splitlines()
            for name, unit in want.items():
                expect(
                    any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in printed),
                    f"{workload} trace {trace}: no printed line for {name}",
                )
            print(f"ok: {workload} trace {trace}: {len(want)} metrics, {res['attempted']} ops")


def corrupt_first_run_op():
    done = []

    def corrupt(op, outdir):
        if done or op.kind != "run":
            return
        done.append(op)
        path = outdir / f"{op.prefix}_trajectory.csv"
        rows = list(csv.reader(path.open(newline="")))
        rows[-1][1] = repr(float(rows[-1][1]) + 1e-3)  # first state column
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    return corrupt


def check_corruption_counted() -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(
            ["--workload", "run-dae", "--seed", "7", "--seconds", "1", "--trace", "0"],
            corrupt=corrupt_first_run_op(),
        )
    res = result_of(out.getvalue())
    expect(res["failed"] == 1 and not res["correct"], f"corrupted op not counted: {res}")
    ratio = [line for line in out.getvalue().splitlines() if line.startswith("fail_ratio = ")]
    expect(ratio and float(ratio[0].split()[2]) > 0, "fail_ratio not above zero")
    expect("final node differs" in out.getvalue(), "failure reason not reported")
    print(f"ok: corrupted output counted ({ratio[0]})")


def check_bare_directory() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        cmd = SPEC["command"] + ["--workload", "run-dae", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "bare directory run exited 0")
    expect('"metrics"' not in proc.stdout, "bare directory run printed a result")
    print(f"ok: bare directory exits {proc.returncode}: {proc.stderr.strip()}")


if __name__ == "__main__":
    check_bare_directory()
    check_corruption_counted()
    check_short_runs()
    print("selftest passed")
