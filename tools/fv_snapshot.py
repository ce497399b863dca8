#!/usr/bin/env python3
"""Freeze finite-volume answers that later kernel changes are held to.

Runs `run_simulation` on a fixed set of cases at 128 cells and writes
each final primitive array and step count to an npz file:

* RP1, RP5 and RP6 under muscl-rusanov and muscl-pathcons-bn with the
  minmod and superbee limiters, and under force-godunov;
* RP6 with stiff relaxation (theta1 = 1e-3, theta2 = 1e-8) under
  muscl-rusanov and muscl-pathcons-bn.

tests/test_fv.py::test_run_simulation_matches_snapshot reruns the same
cases and asserts equal step counts and primitives within 1e-12 of each
field's scale.  Regenerate the file only from a commit whose answers are
the reference, from the repository root:

    PYTHONPATH=src python3 tools/fv_snapshot.py [tests/data/fv_snapshot.npz]
"""

import sys
from pathlib import Path

import numpy as np

from twophase.fv import Grid, SolverConfig, run_simulation
from twophase.problems import get_problem

CELLS = 128
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "fv_snapshot.npz"


def cases():
    """(key, problem name, SolverConfig keyword arguments) per case."""
    for name in ("RP1", "RP5", "RP6"):
        for scheme in ("muscl-rusanov", "muscl-pathcons-bn"):
            for limiter in ("minmod", "superbee"):
                yield f"{name}|{scheme}|{limiter}", name, {"scheme": scheme, "limiter": limiter}
        yield f"{name}|force-godunov", name, {"scheme": "force-godunov"}
    for scheme in ("muscl-rusanov", "muscl-pathcons-bn"):
        yield f"RP6|{scheme}|relaxed", "RP6", {"scheme": scheme, "theta1": 1e-3, "theta2": 1e-8}


def run_case(name, options):
    problem = get_problem(name)
    left, right = problem.riemann_data()
    grid = Grid(problem.x_min, problem.x_max, CELLS)
    config = SolverConfig(t_end=problem.t_end, cfl=problem.cfl, **options)
    return run_simulation(left, right, grid, config, problem.eos_pair, x0=problem.x0)


def main(argv):
    out = Path(argv[0]) if argv else DEFAULT_OUT
    arrays = {}
    for key, name, options in cases():
        result = run_case(name, options)
        arrays[key + "|prim"] = result.prim
        arrays[key + "|steps"] = np.array(result.steps)
        print(f"{key}: {result.steps} steps")
    out.parent.mkdir(parents=True, exist_ok=True)
    np.savez(out, **arrays)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
