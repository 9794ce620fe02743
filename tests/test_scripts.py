"""Tests of the scripts under scripts/: the bounds gate of compare_outputs.py
on small output trees, and the scenario list of output_hashes.py against
what the command line accepts."""

import importlib.util
import json
from pathlib import Path

import pytest

from diracsim.cli import BUILTINS, ConfigError, build_problem
from diracsim.dynamics import FORMULATIONS

ROOT = Path(__file__).resolve().parents[1]
BOUNDS = ROOT / "scripts" / "output_bounds.json"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = load_script("compare_outputs")
output_hashes = load_script("output_hashes")


def tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def compare(monkeypatch, capsys, a, b, bounds=BOUNDS):
    monkeypatch.setattr("sys.argv", ["compare_outputs.py", str(a), str(b), "--bounds", str(bounds)])
    code = compare_outputs.main()
    return code, capsys.readouterr().out


def csv_trees(tmp_path, cell_a, cell_b):
    a = tree(tmp_path / "a", {"run/traj.csv": f"t,x\n0.0,1.0\n0.1,{cell_a}\n"})
    b = tree(tmp_path / "b", {"run/traj.csv": f"t,x\n0.0,1.0\n0.1,{cell_b}\n"})
    return a, b


def test_identical_trees_pass(tmp_path, monkeypatch, capsys):
    a, b = csv_trees(tmp_path, "2.0", "2.0")
    code, out = compare(monkeypatch, capsys, a, b)
    assert code == 0, out
    assert "identical: 1 of 1 files in both trees" in out
    assert "0 differences over their bound" in out


def test_a_delta_within_its_bound_passes(tmp_path, monkeypatch, capsys):
    a, b = csv_trees(tmp_path, "2.0", "2.000000000001")
    code, out = compare(monkeypatch, capsys, a, b)
    assert code == 0, out
    assert "equal columns: 1 of 2" in out
    assert "0 differences over their bound" in out


def test_a_delta_over_its_bound_fails(tmp_path, monkeypatch, capsys):
    a, b = csv_trees(tmp_path, "2.0", "2.001")
    code, out = compare(monkeypatch, capsys, a, b)
    assert code == 1, out
    assert "over bound: run/traj.csv column x: relative |delta| 0.0005 over bound 1e-12" in out


@pytest.mark.parametrize("files", [
    {"run/traj.csv": "t,x\n0.0,1.0\n0.1,{}\n"},
    {"run/traj.csv": "t,x\n0.0,1.0\n", "run/stdout.txt": "max |first law residual|: {}  OK\n"},
], ids=["csv", "text"])
def test_a_number_that_turns_into_nan_fails(tmp_path, monkeypatch, capsys, files):
    # max(0.0, nan) is 0.0: a NaN delta must still reach the report and the
    # bounds, whose docstring says no bound admits it.
    a = tree(tmp_path / "a", {rel: text.format("2.0") for rel, text in files.items()})
    b = tree(tmp_path / "b", {rel: text.format("nan") for rel, text in files.items()})
    code, out = compare(monkeypatch, capsys, a, b)
    assert code == 1, out
    assert "max |delta| nan" in out
    assert "relative |delta| nan over bound 1e-12" in out
    assert "1 differences over their bound" in out


def test_a_file_only_in_b_fails(tmp_path, monkeypatch, capsys):
    a, b = csv_trees(tmp_path, "2.0", "2.0")
    tree(b, {"check/extra.txt": "overall: PASS\n"})
    code, out = compare(monkeypatch, capsys, a, b)
    assert code == 1, out
    assert "only in B: check/extra.txt" in out


def test_a_columns_rule_that_matches_no_header_fails(tmp_path, monkeypatch, capsys):
    a, b = csv_trees(tmp_path, "2.0", "2.0")
    bounds = tmp_path / "bounds.json"
    bounds.write_text(json.dumps({
        "columns": [{"names": ["lam*"], "bound": 1e-6}, {"names": ["*"], "bound": 1e-12}],
        "text_numbers": 1e-12,
    }))
    code, out = compare(monkeypatch, capsys, a, b, bounds)
    assert code == 1, out
    assert "unused bound: columns ['lam*'] match no CSV column in either tree" in out


def accepted_formulations(cfg):
    accepted = []
    for formulation in sorted({*FORMULATIONS, "reduced"}):
        try:
            build_problem(cfg, formulation)
        except ConfigError:
            continue
        accepted.append(formulation)
    return accepted


def test_output_hashes_runs_every_scenario_and_formulation_the_cli_accepts():
    # output_hashes.py is the one runner of the bundled scenarios, for the
    # bounds gate and for CI's smoke step: a scenario or formulation missing
    # from its lists would go unchecked by both.
    expected = [(name, f) for name in BUILTINS for f in accepted_formulations(BUILTINS[name]())]
    assert sorted(output_hashes.RUNS) == sorted(expected)
    assert len(set(output_hashes.RUNS)) == len(output_hashes.RUNS)
    assert list(output_hashes.CHECKS) == sorted(BUILTINS)
