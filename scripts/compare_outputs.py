#!/usr/bin/env python3
"""Report how far two output trees of scripts/output_hashes.py differ.

For every file present in both directories, prints nothing if the bytes are
equal. Otherwise it prints the file's max |delta| over all numbers; for a
CSV the max |delta| of each column that differs follows, and for a text file
(summary, stdout, check report) each line that differs, as an A line and a
B line. Files present in only one tree are listed. The last line counts the
identical files.

    python3 scripts/compare_outputs.py /tmp/out_before /tmp/out_after

Exits 0 when both trees hold the same files and differ at most in the value
of numbers (same CSV headers and row counts, same words on every text line,
so every OK/FAIL/PASS verdict is unchanged); exits 1 otherwise.
"""

import argparse
import csv
import math
from pathlib import Path


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _delta(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b)


def _compare_csv(a: Path, b: Path) -> tuple[bool, float, list[str]]:
    with open(a, newline="") as fa, open(b, newline="") as fb:
        ra, rb = list(csv.reader(fa)), list(csv.reader(fb))
    if not ra or not rb or ra[0] != rb[0] or len(ra) != len(rb):
        return False, math.nan, ["  header or row count differs"]
    header = ra[0]
    col = [0.0] * len(header)
    for row_a, row_b in zip(ra[1:], rb[1:]):
        if len(row_a) != len(row_b):
            return False, math.nan, ["  a row has a different number of fields"]
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            if x != y:
                col[j] = max(col[j], _delta(float(x), float(y)))
    lines = [f"  {name:<32} {d:.3g}" for name, d in zip(header, col) if d]
    lines.append(f"  equal columns: {col.count(0.0)} of {len(col)}")
    return True, max(col, default=0.0), lines


def _compare_text(a: Path, b: Path) -> tuple[bool, float, list[str]]:
    la, lb = a.read_text().splitlines(), b.read_text().splitlines()
    same_shape = len(la) == len(lb)
    worst = 0.0
    lines = []
    for i, (x, y) in enumerate(zip(la, lb), start=1):
        if x == y:
            continue
        lines += [f"  line {i} A: {x}", f"  line {i} B: {y}"]
        ta, tb = x.split(), y.split()
        if len(ta) != len(tb):
            same_shape = False
            continue
        for u, v in zip(ta, tb):
            nu, nv = _number(u), _number(v)
            if nu is None or nv is None:
                same_shape &= u == v
            else:
                worst = max(worst, _delta(nu, nv))
    if len(la) != len(lb):
        lines.append(f"  {len(la)} lines in A, {len(lb)} in B")
    return same_shape, worst, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="Output directory A (the reference).")
    ap.add_argument("b", type=Path, help="Output directory B.")
    args = ap.parse_args()

    def files(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    fa, fb = files(args.a), files(args.b)
    ok = fa == fb
    for rel in sorted(fa ^ fb):
        print(f"only in {'A' if rel in fa else 'B'}: {rel}")
    identical = 0
    for rel in sorted(fa & fb):
        pa, pb = args.a / rel, args.b / rel
        if pa.read_bytes() == pb.read_bytes():
            identical += 1
            continue
        compare = _compare_csv if rel.endswith(".csv") else _compare_text
        same_shape, worst, lines = compare(pa, pb)
        ok &= same_shape
        note = "" if same_shape else "  (not only numbers differ)"
        print(f"{rel}: max |delta| {worst:.3g}{note}")
        for line in lines:
            print(line)
    print(f"identical: {identical} of {len(fa & fb)} files in both trees")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
