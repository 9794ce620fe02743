"""Spans around calls into diracsim's layers, installed from outside.

`Tracer.install()` replaces module attributes, class methods and the
callables held by freshly built `ConstraintSet`/`TimeLagrangian` objects
with timing wrappers; `uninstall()` puts the originals back. Nothing under
`src/` is edited. Each span records its name, start, end, parent span and
op id in flat in-memory arrays; `write()` saves them when the run ends.

A span is named after the layer (module) that owns the callable. The
stepper's own methods are wrapped at class level because the step residual
is a closure built inside `ImplicitMidpointStepper._residual_fn`.
"""

from __future__ import annotations

import dataclasses
import os
from array import array
from time import perf_counter

import numpy as np
import scipy.linalg

from diracsim import cli, dynamics, thermo


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.op_id = -1
        # Amounts recorded at span boundaries that spans cannot express,
        # such as Newton iterations or bytes written: key -> total.
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; after(args, result) runs on success."""

        nid = self._name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.t0)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            self.t1.append(0.0)
            stack.append(idx)
            self.t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t1[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def _replace(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        """Put a span around owner.attr."""

        self._replace(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def _patch_result(self, owner, attr: str, hook) -> None:
        """Pass what owner.attr returns through hook, without a span of its own."""

        original = getattr(owner, attr)
        self._replace(owner, attr, lambda *args, **kwargs: hook(original(*args, **kwargs)))

    def _lagrangian(self, L):
        return dataclasses.replace(
            L, **{f: self.wrap("lagrangian.L", getattr(L, f)) for f in ("value", "d_t", "d_x", "d_v")}
        )

    def _hamiltonian(self, H):
        # Every call of a Hamiltonian from legendre_dual inverts the fiber
        # derivative, so these spans count the inversions.
        return dataclasses.replace(
            H, **{f: self.wrap("lagrangian.H", getattr(H, f)) for f in ("value", "d_t", "d_x", "d_p")}
        )

    def _constraints(self, C, row: str):
        return dataclasses.replace(
            C,
            eval_A=self.wrap(f"{row}.A", C.eval_A),
            eval_B=self.wrap(f"{row}.B", C.eval_B),
        )

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        # diracsim.cli attributes that run, _run_and_report and check call.
        self._patch(cli, "load_config", "cli.load_config")
        self._patch(cli, "build_problem", "cli.build_problem")
        self._patch(cli, "run_formulation", "cli.run_formulation")
        self._patch(cli, "monitor_invariants", "dynamics.monitor_invariants")
        self._patch(
            cli, "write_trajectory_csv", "cli.write_trajectory_csv",
            after=lambda a, r: self.count("csv_bytes", os.path.getsize(a[0])),
        )
        self._patch(cli, "write_invariants_csv", "cli.write_invariants_csv")
        self._patch(cli, "dirac_rank", "geometry.dirac_rank")
        self._patch(cli, "random_dirac_element", "geometry.random_dirac_element")
        self._patch(cli, "dirac_membership_P", "geometry.dirac_membership_P")
        self._patch(cli, "recover_multipliers", "dynamics.recover_multipliers")
        self._patch(cli, "check_derivatives", "lagrangian.check_derivatives")
        # Builders: spans go around the callables of what they return, and
        # building itself stays in the caller's self time.
        self._patch_result(cli, "legendre_dual", self._hamiltonian)
        self._patch_result(
            cli, "_nonholonomic_setup",
            lambda r: (self._lagrangian(r[0]), self._constraints(r[1], "cli.particle_row")),
        )
        self._patch_result(thermo, "build_extended_lagrangian", self._lagrangian)
        self._patch_result(thermo, "build_constraints", lambda C: self._constraints(C, "thermo.vel_row"))
        self._patch_result(
            thermo, "build_momentum_constraints", lambda C: self._constraints(C, "thermo.mom_row")
        )
        self._patch(thermo, "first_law_residual", "thermo.first_law_residual")
        self._patch(
            thermo, "run_reduced", "thermo.run_reduced",
            after=lambda a, r: self.count("reduced_steps", r.n_steps),
        )
        self._patch(thermo, "reduced_rhs", "thermo.reduced_rhs")
        # LU factorizations: the stepper's module-level import, and scipy's
        # own attribute, which run_reduced imports at call time.
        self._patch(dynamics, "lu_factor", "dynamics.lu_factor")
        self._patch(scipy.linalg, "lu_factor", "thermo.lu_factor")
        # The stepper.
        stepper = dynamics.ImplicitMidpointStepper
        self._patch(
            stepper, "step", "dynamics.step",
            after=lambda a, r: self.count("newton_iters", r.newton_iters),
        )
        self._patch(stepper, "_factor", "dynamics.jacobian")
        self._patch_result(stepper, "_residual_fn", lambda fn: self.wrap("dynamics.residual", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def write(self, path) -> None:
        """Save the spans as compressed numpy arrays (load with numpy.load)."""

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name),
            op=np.asarray(self.op),
            parent=np.asarray(self.parent),
            start_s=np.asarray(self.t0),
            end_s=np.asarray(self.t1),
        )


class SpanTable:
    """Per-name aggregates of a tracer's spans.

    cycles lists (first op id, number of ops) for each traced cycle; times
    are reported per op as the median over cycles of the cycle's total
    divided by its ops.
    """

    def __init__(self, tracer: Tracer, cycles: list[tuple[int, int]]):
        n_spans = len(tracer.t0)
        self.name = np.frombuffer(tracer.name, dtype=np.int32, count=n_spans)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64, count=n_spans)
        op = np.frombuffer(tracer.op, dtype=np.int64, count=n_spans)
        incl = np.asarray(tracer.t1) - np.asarray(tracer.t0)
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=incl[has_parent], minlength=n_spans)
        self.ids = {n: i for i, n in enumerate(tracer.names)}
        self.counters = tracer.counters

        n_names = len(tracer.names)
        cycle_of_op = np.empty(tracer.op_id + 1, dtype=np.int64)
        for c, (first, count) in enumerate(cycles):
            cycle_of_op[first : first + count] = c
        self.ops_per_cycle = np.array([count for _, count in cycles], dtype=float)
        key = cycle_of_op[op] * n_names + self.name
        size = len(cycles) * n_names
        shape = (len(cycles), n_names)
        self._self = np.bincount(key, weights=incl - covered, minlength=size).reshape(shape)
        self._incl = np.bincount(key, weights=incl, minlength=size).reshape(shape)
        self._calls = np.bincount(self.name, minlength=n_names)

    def _cols(self, names) -> list[int]:
        return [self.ids[n] for n in names if n in self.ids]

    def _per_op(self, table, names) -> float:
        cols = self._cols(names)
        if not cols:
            return 0.0
        return float(np.median(table[:, cols].sum(axis=1) / self.ops_per_cycle))

    def self_s(self, *names: str) -> float:
        """Self seconds per op spent in spans with any of these names."""

        return self._per_op(self._self, names)

    def incl_s(self, name: str) -> float:
        """Inclusive seconds per op spent in spans with this name."""

        return self._per_op(self._incl, (name,))

    def calls(self, *names: str) -> float:
        return float(sum(self._calls[c] for c in self._cols(names)))

    def calls_under(self, parent: str, *names: str) -> float:
        """Calls of spans named `names` whose parent span is named `parent`."""

        if parent not in self.ids:
            return 0.0
        has_parent = self.parent >= 0
        under = np.zeros_like(has_parent)
        under[has_parent] = self.name[self.parent[has_parent]] == self.ids[parent]
        return float(np.isin(self.name[under], self._cols(names)).sum())

    def counter(self, key: str) -> float:
        return self.counters.get(key, 0.0)
