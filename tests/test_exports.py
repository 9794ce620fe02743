"""Guard on the package's export and option surface.

Every name a module's `__all__` lists, which the package root re-exports, must
have a caller outside its own definition and the package's `__init__.py`: in
the package's other modules, the scripts, the benchmark, or the acceptance
tests. A caller reads the name, or takes it as an attribute of a package
module (`th.run_reduced`); a variable, field or attribute of another object
with the same name is no caller. Names that only other tests use do not
count, so an export nothing runs fails here. The exceptions are the paper's T*Y and Lagrange-Dirac
definitions that `diracsim check` is still to call (ROADMAP item I), listed
in HOLDOVERS. Every defaulted parameter of an exported function, or of the
`__init__` an exported class defines, must be passed by some call in those
files, bar the ones in KEPT_DEFAULTS, so an option nothing sets fails here
too. Every module's `__all__` must name only
attributes the module has.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diracsim"

# The T*Y and Lagrange-Dirac definitions with no caller yet; each leaves this
# tuple once `check` calls it. covariant_legendre is not listed: every start
# state is its image (cli.build_problem, thermo.initial_pontryagin_state).
HOLDOVERS = (
    "dirac_membership_TstarY",
    "dirac_differential",
    "covariant_hamiltonian",
    "lagrange_dirac_residual",
    "hamilton_dirac_residual",
)


# Defaulted parameters of exported functions and classes that no program
# caller passes, kept because the public function is wrong without them: the
# external force of the residual, of the multiplier recovery and of the
# stepper on forced systems given as callables (the CLI hands the stepper the
# open system's point record, which carries the force).
KEPT_DEFAULTS = (
    "pontryagin_dirac_residual.f_ext",
    "recover_multipliers.f_ext",
    "ImplicitMidpointStepper.f_ext",
)

MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def _exports() -> dict[str, str]:
    # name -> defining module, from each module's __all__.
    return {
        name: module
        for module in sorted(MODULES)
        for name in getattr(importlib.import_module(f"diracsim.{module}"), "__all__", ())
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


@functools.cache
def _module_aliases(tree: ast.Module) -> set[str]:
    # The names the file's imports bind to the package or one of its modules.
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(
                a.asname or a.name.split(".")[0]
                for a in node.names
                if a.name.split(".")[0] == "diracsim"
            )
        elif isinstance(node, ast.ImportFrom) and (
            node.module == "diracsim" or (node.level == 1 and node.module is None)
        ):
            aliases.update(a.asname or a.name for a in node.names if a.name in MODULES)
    return aliases


def _on_module(node: ast.AST, aliases: set[str]) -> bool:
    # Whether node is a package module: an alias, or `diracsim.<module>`.
    if isinstance(node, ast.Name):
        return node.id in aliases
    return isinstance(node, ast.Attribute) and node.attr in MODULES and _on_module(
        node.value, aliases
    )


@functools.cache
def _names_used(tree: ast.Module, skip: ast.AST | None, strings: bool) -> set[str]:
    # Names read and attributes taken on package modules anywhere in the
    # tree except inside `skip` and `__all__`, and with `strings` the strings
    # written: the benchmark tracer patches functions by name. An import
    # alone is no use.
    aliases = _module_aliases(tree)
    used: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip or _is_all(node):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and _on_module(node.value, aliases)
        ):
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


def _calls(tree: ast.Module) -> dict[str, list[ast.Call]]:
    # The calls in the tree by the name of the callee, read directly or
    # taken on a package module.
    aliases = _module_aliases(tree)
    out: dict[str, list[ast.Call]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            out.setdefault(func.id, []).append(node)
        elif isinstance(func, ast.Attribute) and _on_module(func.value, aliases):
            out.setdefault(func.attr, []).append(node)
    return out


def _passes(call: ast.Call, index: int | None, param: str) -> bool:
    # Whether the call gives the parameter a value: by keyword, by position
    # index (None for a keyword-only one), or through * or ** unpacking.
    positional = call.args
    if index is not None and (
        len(positional) > index or any(isinstance(a, ast.Starred) for a in positional)
    ):
        return True
    return any(k.arg in (param, None) for k in call.keywords)


def _unpassed_defaults() -> set[str]:
    # "function.parameter" for each defaulted parameter of an exported
    # function, or of an exported class's own __init__ (whose self no call
    # passes), holdovers aside, that no call in the caller files passes.
    trees = {path: ast.parse(path.read_text()) for path in _caller_files()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for name, found in _calls(tree).items():
            calls.setdefault(name, []).extend(found)
    out = set()
    for name, module in _exports().items():
        definition = _definition(trees[PACKAGE / f"{module}.py"], name)
        bound = isinstance(definition, ast.ClassDef)
        if bound:
            definition = _definition(definition, "__init__")
        if name in HOLDOVERS or not isinstance(definition, ast.FunctionDef):
            continue
        args = definition.args
        positional = (args.posonlyargs + args.args)[bound:]
        first = len(positional) - len(args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first] + [
            (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ]
        out.update(
            f"{name}.{param}"
            for index, param in defaulted
            if not any(_passes(call, index, param) for call in calls.get(name, []))
        )
    return out


def test_every_option_of_an_export_is_set_by_a_caller():
    unpassed = _unpassed_defaults()
    unset = sorted(unpassed - set(KEPT_DEFAULTS))
    assert not unset, f"defaulted parameters no program caller passes: {unset}"
    # A kept default that gains a caller leaves KEPT_DEFAULTS.
    assert sorted(set(KEPT_DEFAULTS) - unpassed) == []


@pytest.mark.parametrize(
    "module",
    ["diracsim"] + [f"diracsim.{p.stem}" for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"],
)
def test_all_names_only_existing_attributes(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, missing
