#!/usr/bin/env python3
"""Fingerprint every output of the bundled scenarios, for bit-identity checks.

Runs `diracsim run` on every builtin scenario with each formulation its
system kind runs on (`cli.FORMULATIONS_BY_KIND`), at its default horizon, then
`diracsim check <builtin> --seed 0`: 18 runs and 6 checks. Each run writes
into OUTDIR/<builtin>__<formulation>/ (its CSVs, its summary, and its
standard output as stdout.txt), each check into OUTDIR/check/<builtin>.txt:
78 files. Prints `sha256  relpath` for every file under OUTDIR, sorted by
path, so the listings of two source trees can be compared with diff.

The package is imported from the src/ directory next to this script, so a
copy of the script in another checkout fingerprints that checkout:

    python3 scripts/output_hashes.py /tmp/out > hashes.txt

Exits 1 if any run or check exits nonzero, after printing the listing.
Takes under a minute (45-47 s on 2 vCPUs, Python 3.11): the thermodynamic
runs are 10 000 steps each.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(ROOT / "src"))
from diracsim.cli import BUILTINS, FORMULATIONS_BY_KIND, load_config  # noqa: E402

RUNS = [
    (name, f)
    for name in sorted(BUILTINS)
    for f in FORMULATIONS_BY_KIND[load_config(name)["system"]["kind"]]
]
CHECKS = sorted(BUILTINS)


def _cli(args: list[str], stdout_path: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(stdout_path, "w") as fh:
        return subprocess.run(
            [sys.executable, "-m", "diracsim.cli", *args], stdout=fh, env=env
        ).returncode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path, help="Directory for the outputs (created).")
    args = ap.parse_args()
    out = args.outdir

    failed = []
    for name, formulation in RUNS:
        rundir = out / f"{name}__{formulation}"
        rundir.mkdir(parents=True, exist_ok=True)
        cmd = ["run", name, "--formulation", formulation, "--out", str(rundir)]
        if _cli(cmd, rundir / "stdout.txt") != 0:
            failed.append(f"{name} {formulation}")
    (out / "check").mkdir(parents=True, exist_ok=True)
    for name in CHECKS:
        if _cli(["check", name, "--seed", "0"], out / "check" / f"{name}.txt") != 0:
            failed.append(f"check {name}")

    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    for what in failed:
        print(f"nonzero exit: {what}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
