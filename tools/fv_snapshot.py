#!/usr/bin/env python3
"""Freeze finite-volume and exact answers that later changes are held to.

Runs `run_simulation` on a fixed set of cases at 128 cells and writes
each final primitive array, step count and ledger figures (`LEDGER_KEYS`)
to an npz file:

* RP1, RP5 and RP6 under muscl-rusanov and muscl-pathcons-bn with the
  minmod and superbee limiters, and under force-godunov;
* RP4 (the stiff liquid/gas EOS) under force-godunov and muscl-rusanov;
* relaxed runs under muscl-rusanov and muscl-pathcons-bn: RP6 with
  theta1 = 1e-3 and theta2 = 1e-8 together (`relaxed`), with theta1 =
  1e-3 alone (`theta1`) and with theta2 = 1e-8 alone (`theta2`), and RP4
  with both (`relaxed`);
* a near-pure material interface on RP5's gases (`INTERFACE`) under
  muscl-rusanov in floor mode, which drops cells to first order in
  reconstruction and in the half step on most steps (strict mode aborts).

For every preset it also writes the exact solution's `sample_many` on
`exact_points`: a fixed grid spanning the breakpoints, every
`wave_speeds()` breakpoint and both its float neighbours.

tests/test_fv.py::test_run_simulation_matches_snapshot reruns the FV
cases and asserts equal step counts, primitives within 1e-12 of each
field's scale and the ledger figures; tests/test_exact.py::
test_sample_many_matches_snapshot does the same for the sampling points
and samples.  Regenerate the file only from a commit whose answers are
the reference, from the repository root:

    PYTHONPATH=src python3 tools/fv_snapshot.py [tests/data/fv_snapshot.npz]

With `--case KEY` (which may be given more than once) it reruns only the
named FV cases and rewrites their step counts, primitives and ledger
figures in an existing file, whose other arrays it writes back as they
were:

    PYTHONPATH=src python3 tools/fv_snapshot.py --case 'RP5|muscl-rusanov|floor|interface'

With `--ledger` it reruns the FV cases (all, or those named by `--case`)
and rewrites only their ledger figures in the same way:

    PYTHONPATH=src python3 tools/fv_snapshot.py --ledger [--case KEY ...] [tests/data/fv_snapshot.npz]

With `--exact` it writes the exact constructions instead, to
tests/data/exact_snapshot.npz by default: for every preset the element
states, head and tail speeds, and the floats and flags of
`validate_solution(...).as_dict()` (see `exact_arrays`).
tests/test_exact.py::test_exact_construction_matches_snapshot asserts
that they are equal bit for bit:

    PYTHONPATH=src python3 tools/fv_snapshot.py --exact [tests/data/exact_snapshot.npz]
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from twophase.exact import validate_solution
from twophase.fv import Grid, SolverConfig, run_simulation
from twophase.problems import PRESETS, get_problem
from twophase.state import PrimitiveState

CELLS = 128
GRID_POINTS = 401
# left and right primitive states (alpha1, rho1, rho2, u1, u2)
INTERFACE = ((1.0 - 1e-6, 10.0, 1.0, 0.0, 0.0), (1e-6, 1.0, 10.0, 0.0, 0.0))
DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
DEFAULT_OUT = DATA / "fv_snapshot.npz"
EXACT_OUT = DATA / "exact_snapshot.npz"
# ledger entries frozen per FV case, as float arrays
LEDGER_KEYS = ("worst_step_closure", "boundary_flux_integrals", "totals")


def cases():
    """(key, problem name, SolverConfig keyword arguments) per case."""
    for name in ("RP1", "RP5", "RP6"):
        for scheme in ("muscl-rusanov", "muscl-pathcons-bn"):
            for limiter in ("minmod", "superbee"):
                yield f"{name}|{scheme}|{limiter}", name, {"scheme": scheme, "limiter": limiter}
        yield f"{name}|force-godunov", name, {"scheme": "force-godunov"}
    yield "RP4|force-godunov", "RP4", {"scheme": "force-godunov"}
    yield "RP4|muscl-rusanov|minmod", "RP4", {"scheme": "muscl-rusanov"}
    relaxations = (
        ("RP6", "relaxed", {"theta1": 1e-3, "theta2": 1e-8}),
        ("RP6", "theta1", {"theta1": 1e-3}),
        ("RP6", "theta2", {"theta2": 1e-8}),
        ("RP4", "relaxed", {"theta1": 1e-3, "theta2": 1e-8}),
    )
    for scheme in ("muscl-rusanov", "muscl-pathcons-bn"):
        for name, tag, thetas in relaxations:
            yield f"{name}|{scheme}|{tag}", name, {"scheme": scheme, **thetas}
    yield "RP5|muscl-rusanov|floor|interface", "RP5", {"positivity": "floor", "states": INTERFACE}


def run_case(name, options):
    """Run a case on preset `name`'s EOS, grid and t_end, from its Riemann
    data or from the primitive pair in the option `states`."""
    problem = get_problem(name)
    options = dict(options)
    states = options.pop("states", None)
    if states is None:
        left, right = problem.riemann_data()
    else:
        left, right = (PrimitiveState(*s) for s in states)
    grid = Grid(problem.x_min, problem.x_max, CELLS)
    config = SolverConfig(t_end=problem.t_end, cfl=problem.cfl, **options)
    return run_simulation(left, right, grid, config, problem.eos_pair, x0=problem.x0)


def ledger_arrays(key, result):
    """The LEDGER_KEYS entries of a run's ledger, keyed `key|entry`."""
    return {f"{key}|{entry}": np.array(result.ledger[entry]) for entry in LEDGER_KEYS}


def case_arrays(key, result):
    """A run's primitives, step count and ledger figures, keyed `key|...`."""
    return {key + "|prim": result.prim, key + "|steps": np.array(result.steps),
            **ledger_arrays(key, result)}


def exact_points(solution):
    """Sorted xi: a fixed grid over the breakpoints, each breakpoint and
    both its float neighbours."""
    speeds = np.array(solution.wave_speeds())
    pad = 0.25 * max(speeds[-1] - speeds[0], 1.0)
    grid = np.linspace(speeds[0] - pad, speeds[-1] + pad, GRID_POINTS)
    near = [speeds, np.nextafter(speeds, -np.inf), np.nextafter(speeds, np.inf)]
    return np.unique(np.concatenate([grid, *near]))


def _split_floats(node, floats):
    """`node` with every float leaf moved, in walk order, to `floats` and
    replaced by None; bools, strings and the structure stay."""
    if isinstance(node, dict):
        return {k: _split_floats(node[k], floats) for k in sorted(node)}
    if isinstance(node, (list, tuple)):
        return [_split_floats(v, floats) for v in node]
    if isinstance(node, float):
        floats.append(node)
        return None
    return node


def exact_arrays(solution):
    """Arrays that pin an exact construction bit for bit: `states`
    (elements, left/right, 5), `speeds` (elements, head/tail), the
    report's float leaves `report_floats` and the rest of the report as
    JSON, `report_flags`."""
    floats = []
    flags = _split_floats(validate_solution(solution).as_dict(), floats)
    return {
        "states": np.array([[el.left.as_array(), el.right.as_array()] for el in solution.elements]),
        "speeds": np.array([[el.xi_head, el.xi_tail] for el in solution.elements]),
        "report_floats": np.array(floats),
        "report_flags": np.array(json.dumps(flags, sort_keys=True).encode()),
    }


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", type=Path, default=None)
    ap.add_argument("--exact", action="store_true", help="write the exact constructions")
    ap.add_argument("--ledger", action="store_true", help="rewrite only ledger figures")
    ap.add_argument("--case", action="append", metavar="KEY", help="rewrite only this FV case")
    args = ap.parse_args(argv)
    if args.exact:
        out = args.out or EXACT_OUT
        arrays = {
            f"{name}|{key}": value
            for name in sorted(PRESETS)
            for key, value in exact_arrays(get_problem(name).build_exact()).items()
        }
        np.savez(out, **arrays)
        print(f"wrote {out}")
        return 0
    out = args.out or DEFAULT_OUT
    if args.ledger or args.case:
        keys = [key for key, _, _ in cases()]
        if unknown := set(args.case or ()) - set(keys):
            ap.error(f"unknown case {sorted(unknown)}; cases: {keys}")
        with np.load(out) as old:
            arrays = {k: old[k] for k in old.files}
        for key, name, options in cases():
            if args.case is None or key in args.case:
                result = run_case(name, options)
                arrays.update((ledger_arrays if args.ledger else case_arrays)(key, result))
                print(f"{key}: {result.steps} steps" + (", ledger" if args.ledger else ""))
        np.savez(out, **arrays)
        print(f"wrote {out}")
        return 0
    arrays = {}
    for key, name, options in cases():
        result = run_case(name, options)
        arrays.update(case_arrays(key, result))
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
