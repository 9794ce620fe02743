#!/usr/bin/env python3
"""Report how far two output trees of scripts/output_hashes.py differ.

For every file present in both directories, prints nothing if the bytes are
equal. Otherwise it prints the file's max |delta| over all numbers; for a
CSV the max |delta| of each column that differs follows, and for a text file
(summary, stdout, check report) each line that differs, as an A line and a
B line. Files present in only one tree are listed. The last line counts the
identical files.

    python3 scripts/compare_outputs.py /tmp/out_before /tmp/out_after
    python3 scripts/compare_outputs.py --bounds scripts/output_bounds.json A B

Exits 0 when both trees hold the same files and differ at most in the value
of numbers (same CSV headers and row counts, same words on every text line,
so every OK/FAIL/PASS verdict is unchanged); exits 1 otherwise.

With --bounds FILE (JSON), every difference must also stay inside its bound,
relative to max(1, max |value|) over both trees: for a CSV column the bound
of the first entry of "columns" whose "names" (fnmatch patterns) match the
column's header, for a number on a text line the "text_numbers" bound. Each
difference over its bound is printed, and the run exits 1 if there is one.
A "columns" entry that matches no CSV header of either tree (identical files
included) is printed as unused, and the run exits 1 for it too, so the file
holds no rule that bounds nothing.
"""

import argparse
import csv
import fnmatch
import functools
import json
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


def _max(a: float, b: float) -> float:
    # The larger of a and b, NaN if either is: max(0.0, nan) is 0.0, which
    # would drop a NaN delta from the report and from the bounds.
    return b if math.isnan(b) or b > a else a


def _scale(*values: float) -> float:
    # max(1, max |value|) over the values that are not NaN. A NaN on one side
    # only makes the delta NaN, which no bound admits.
    return max([1.0] + [abs(v) for v in values if not math.isnan(v)])


class Bounds:
    """The bounds of a --bounds file, and the differences found over them."""

    def __init__(self, path: Path):
        spec = json.loads(path.read_text())
        self.columns = [(rule["names"], float(rule["bound"])) for rule in spec["columns"]]
        self.text_numbers = float(spec["text_numbers"])
        self.over: list[str] = []
        self.headers: set[str] = set()  # every CSV column name of both trees

    def unused(self) -> list[list[str]]:
        """The patterns of each "columns" entry that matches no header seen."""

        return [
            patterns for patterns, _ in self.columns
            if not any(fnmatch.fnmatchcase(h, p) for h in self.headers for p in patterns)
        ]

    def column(self, name: str) -> float:
        for patterns, bound in self.columns:
            if any(fnmatch.fnmatchcase(name, p) for p in patterns):
                return bound
        raise SystemExit(f"no bound in the bounds file matches column {name!r}")

    def check(self, where: str, delta: float, scale: float, bound: float) -> None:
        rel = delta / scale
        if not rel <= bound:
            self.over.append(f"{where}: relative |delta| {rel:.3g} over bound {bound:.3g}")


def _compare_csv(a: Path, b: Path, rel: str, bounds: Bounds | None):
    with open(a, newline="") as fa, open(b, newline="") as fb:
        ra, rb = list(csv.reader(fa)), list(csv.reader(fb))
    if not ra or not rb or ra[0] != rb[0] or len(ra) != len(rb):
        return False, math.nan, ["  header or row count differs"]
    header = ra[0]
    col = [0.0] * len(header)
    scale = [1.0] * len(header)
    for row_a, row_b in zip(ra[1:], rb[1:]):
        if len(row_a) != len(row_b):
            return False, math.nan, ["  a row has a different number of fields"]
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            fx, fy = float(x), float(y)
            scale[j] = max(scale[j], _scale(fx, fy))
            if x != y:
                col[j] = _max(col[j], _delta(fx, fy))
    lines = [f"  {name:<32} {d:.3g}" for name, d in zip(header, col) if d]
    lines.append(f"  equal columns: {col.count(0.0)} of {len(col)}")
    if bounds is not None:
        for name, d, s in zip(header, col, scale):
            bounds.check(f"{rel} column {name}", d, s, bounds.column(name))
    return True, functools.reduce(_max, col, 0.0), lines


def _compare_text(a: Path, b: Path, rel: str, bounds: Bounds | None):
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
                worst = _max(worst, _delta(nu, nv))
                if bounds is not None:
                    where = f"{rel} line {i} number {u}"
                    bounds.check(where, _delta(nu, nv), _scale(nu, nv), bounds.text_numbers)
    if len(la) != len(lb):
        lines.append(f"  {len(la)} lines in A, {len(lb)} in B")
    return same_shape, worst, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="Output directory A (the reference).")
    ap.add_argument("b", type=Path, help="Output directory B.")
    ap.add_argument(
        "--bounds", type=Path, default=None,
        help="JSON file of relative bounds per CSV column and for text numbers.",
    )
    args = ap.parse_args()
    bounds = Bounds(args.bounds) if args.bounds is not None else None

    def files(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    fa, fb = files(args.a), files(args.b)
    ok = fa == fb
    for rel in sorted(fa ^ fb):
        print(f"only in {'A' if rel in fa else 'B'}: {rel}")
    identical = 0
    for rel in sorted(fa & fb):
        pa, pb = args.a / rel, args.b / rel
        if bounds is not None and rel.endswith(".csv"):
            for p in (pa, pb):
                with open(p, newline="") as fh:
                    bounds.headers.update(next(csv.reader(fh), []))
        if pa.read_bytes() == pb.read_bytes():
            identical += 1
            continue
        compare = _compare_csv if rel.endswith(".csv") else _compare_text
        same_shape, worst, lines = compare(pa, pb, rel, bounds)
        ok &= same_shape
        note = "" if same_shape else "  (not only numbers differ)"
        print(f"{rel}: max |delta| {worst:.3g}{note}")
        for line in lines:
            print(line)
    print(f"identical: {identical} of {len(fa & fb)} files in both trees")
    if bounds is not None:
        for line in bounds.over:
            print(f"over bound: {line}")
        print(f"bounds ({args.bounds}): {len(bounds.over)} differences over their bound")
        unused = bounds.unused()
        for patterns in unused:
            print(f"unused bound: columns {patterns} match no CSV column in either tree")
        ok &= not bounds.over and not unused
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
