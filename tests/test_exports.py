"""Guard on the package's export surface.

Every name `diracsim/__init__.py` exports must have a caller outside its own
definition and the package's `__init__.py`: in the package's other modules,
the scripts, the benchmark, or the acceptance tests. Names that only other
tests use do not count, so an export nothing runs fails here. The exceptions
are the paper's T*Y and Lagrange-Dirac definitions that `diracsim check` is
still to call (ROADMAP item I), listed in HOLDOVERS. Every module's
`__all__` must name only attributes the module has.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diracsim"

# The T*Y and Lagrange-Dirac definitions with no caller yet; each leaves this
# tuple once `check` calls it. covariant_legendre is not listed: only
# dirac_differential calls it.
HOLDOVERS = (
    "dirac_membership_TstarY",
    "dirac_differential",
    "covariant_hamiltonian",
    "lagrange_dirac_residual",
    "hamilton_dirac_residual",
)


def _exports() -> dict[str, str]:
    # name -> defining module, from the relative imports of __init__.py.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _caller_files() -> list[Path]:
    return [
        *(p for p in sorted(PACKAGE.rglob("*.py")) if p.name != "__init__.py"),
        *sorted((ROOT / "scripts").rglob("*.py")),
        *sorted((ROOT / "perfbench").rglob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _names_used(tree: ast.Module, skip: ast.AST | None, strings: bool) -> set[str]:
    # Names read and attributes taken anywhere in the tree except inside
    # `skip` and `__all__`, and with `strings` the strings written: the
    # benchmark tracer patches functions by name. An import alone is no use.
    used: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip or _is_all(node):
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _definition(tree: ast.Module, name: str) -> ast.AST | None:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
    return None


def _callers(name: str, module: str, trees: dict) -> list[str]:
    # The files that use the name, its own definition aside.
    home, bench = PACKAGE / f"{module}.py", ROOT / "perfbench"
    return [
        path.relative_to(ROOT).as_posix()
        for path, tree in trees.items()
        if name in _names_used(
            tree, _definition(tree, name) if path == home else None, bench in path.parents
        )
    ]


def test_every_export_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in _caller_files()}
    uncalled = [
        f"{module}.{name}"
        for name, module in _exports().items()
        if name not in HOLDOVERS and not _callers(name, module, trees)
    ]
    assert not uncalled, f"exported but called only by tests or not at all: {uncalled}"


def test_holdovers_are_exported_and_still_uncalled():
    # A holdover that gains a caller leaves HOLDOVERS, so the guard covers it.
    exports = _exports()
    trees = {path: ast.parse(path.read_text()) for path in _caller_files()}
    for name in HOLDOVERS:
        assert name in exports, name
        assert _callers(name, exports[name], trees) == [], name


@pytest.mark.parametrize(
    "module",
    ["diracsim"] + [f"diracsim.{p.stem}" for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"],
)
def test_all_names_only_existing_attributes(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, missing
