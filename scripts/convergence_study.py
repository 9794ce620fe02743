#!/usr/bin/env python3
"""Step-size refinement study of the covariant energy drift.

Integrates the two-port piston at a sequence of halved step sizes and prints
the maximal covariant energy magnitude per level together with the ratio to
the previous level. The integrator is second order, so with the momentum
conjugate to time initialized to minus the initial energy the ratio should
approach 4 until the Newton tolerance floor takes over.
"""

import argparse
import dataclasses
import math

import numpy as np

from diracsim.cli import BUILTINS, ConfigError, _exit_codes, build_problem, run_formulation
from diracsim.dynamics import monitor_invariants


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default="two_port_piston", choices=sorted(BUILTINS))
    ap.add_argument("--formulation", default="pontryagin")
    ap.add_argument("--h0", type=float, default=4e-3, help="Coarsest step size")
    ap.add_argument("--levels", type=int, default=4, help="Number of halvings")
    ap.add_argument("--horizon", type=float, default=2.0)
    args = ap.parse_args()

    # A bad range or a formulation the scenario does not support exits 2
    # with one line, and a failed step 3, as `diracsim run` does.
    with _exit_codes():
        for option, value in (("--h0", args.h0), ("--horizon", args.horizon)):
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(option, f"must be finite and > 0, got {value}")
        if args.levels < 1:
            raise ConfigError("--levels", f"must be >= 1, got {args.levels}")
        base = build_problem(BUILTINS[args.scenario](), args.formulation)
        print(
            f"scenario: {args.scenario}  formulation: {args.formulation}  horizon: {args.horizon}"
        )
        print(f"{'h':>12}  {'steps':>7}  {'max |cov E|':>12}  {'ratio':>7}")
        prev = None
        h = args.h0
        for _ in range(args.levels):
            n_steps = max(1, round(args.horizon / h))
            prob = dataclasses.replace(base, h=h, n_steps=n_steps)
            traj = run_formulation(prob, args.formulation)
            cov_e = monitor_invariants(prob.L, prob.vel_constraints, traj).covariant_energy
            drift = float(np.max(np.abs(cov_e)))
            ratio = "" if prev is None else f"{prev / drift:7.2f}"
            print(f"{h:12.2e}  {n_steps:7d}  {drift:12.3e}  {ratio:>7}")
            prev = drift
            h *= 0.5
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
