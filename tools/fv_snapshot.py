#!/usr/bin/env python3
"""Freeze finite-volume and exact-sampling answers that later changes are held to.

Runs `run_simulation` on a fixed set of cases at 128 cells and writes
each final primitive array and step count to an npz file:

* RP1, RP5 and RP6 under muscl-rusanov and muscl-pathcons-bn with the
  minmod and superbee limiters, and under force-godunov;
* RP6 with stiff relaxation (theta1 = 1e-3, theta2 = 1e-8) under
  muscl-rusanov and muscl-pathcons-bn.

For every preset it also writes the exact solution's `sample_many` on
`exact_points`: a fixed grid spanning the breakpoints, every
`wave_speeds()` breakpoint and both its float neighbours.

tests/test_fv.py::test_run_simulation_matches_snapshot reruns the FV
cases and asserts equal step counts and primitives within 1e-12 of each
field's scale; tests/test_exact.py::test_sample_many_matches_snapshot
does the same for the sampling points and samples.  Regenerate the file
only from a commit whose answers are the reference, from the repository
root:

    PYTHONPATH=src python3 tools/fv_snapshot.py [tests/data/fv_snapshot.npz]
"""

import sys
from pathlib import Path

import numpy as np

from twophase.fv import Grid, SolverConfig, run_simulation
from twophase.problems import PRESETS, get_problem

CELLS = 128
GRID_POINTS = 401
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


def exact_points(solution):
    """Sorted xi: a fixed grid over the breakpoints, each breakpoint and
    both its float neighbours."""
    speeds = np.array(solution.wave_speeds())
    pad = 0.25 * max(speeds[-1] - speeds[0], 1.0)
    grid = np.linspace(speeds[0] - pad, speeds[-1] + pad, GRID_POINTS)
    near = [speeds, np.nextafter(speeds, -np.inf), np.nextafter(speeds, np.inf)]
    return np.unique(np.concatenate([grid, *near]))


def main(argv):
    out = Path(argv[0]) if argv else DEFAULT_OUT
    arrays = {}
    for key, name, options in cases():
        result = run_case(name, options)
        arrays[key + "|prim"] = result.prim
        arrays[key + "|steps"] = np.array(result.steps)
        print(f"{key}: {result.steps} steps")
    for name in sorted(PRESETS):
        solution = get_problem(name).build_exact()
        xi = exact_points(solution)
        arrays[f"exact|{name}|xi"] = xi
        arrays[f"exact|{name}|sample"] = solution.sample_many(xi)
        print(f"exact {name}: {len(xi)} points")
    out.parent.mkdir(parents=True, exist_ok=True)
    np.savez(out, **arrays)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
