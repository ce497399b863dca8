#!/usr/bin/env python3
"""Per-stage cost of a finite-volume step: microseconds and Python-level calls.

    PYTHONPATH=src python3 tools/step_profile.py PRESET [--scheme S] [--cells N] [--repeats R]
        [--theta1 T1] [--theta2 T2]
    PYTHONPATH=src python3 tools/step_profile.py PRESET --exact [--repeats R]

Runs `run_simulation` on a preset's Riemann data, at the preset's t_end
and cfl, with the scheme (default: the preset's), cell count (default
300) and relaxation times (default: none) given, three ways:

1. plain, R times (default 5): the median wall time per step of the
   code as it is;
2. once with every stage function below rebound, at module level, to a
   timing wrapper.  The kernels, the driver and the `_System` entries look
   these names up at call time, so every call is seen.  Gives each
   stage's calls and self time per step.  A wrapper costs a few tenths of
   a microsecond per call, which lands in its caller's self time;
3. once under `sys.setprofile`, unwrapped: the Python-level calls per
   step, each charged to the innermost stage on the stack.  These are
   Python functions and builtins such as `np.concatenate` or `ndarray.sum`.
   Numpy's operators and ufunc calls (`a + b`, `np.sqrt`) raise no
   profile event and are not counted.

A stage that the run does not reach, or that this version of the code
does not have, is left out; the rest of the run is `driver`.  A run
given --theta1 or --theta2 also prints the relaxation counters of its
ledger (`ledger["telemetry"]["relax"]`): the pressure solves, their
iterations per solve and the most in one solve.  Nothing is
changed on disk, and every rebound name is restored before the tool
returns.

With --exact the preset's exact solution is probed instead, phase by
phase: its construction (`build_solution` with validate=False), its
validation, `sample_many` on 600 points and `eigen_curves` on 150, the
counts of the exact-sample workload, spread over the sampling window of
`twophase exact`.  Each phase gets its
median µs over R passes and its Python-level calls under
`sys.setprofile`, counted as above.
"""

import argparse
import statistics
import sys
import time

from twophase import fv, state
from twophase.cli import _xi_grid
from twophase.exact import build_solution, validate_solution
from twophase.fv import Grid, SolverConfig, run_simulation
from twophase.problems import get_problem

# (module, name) of every stage, in the order of the report; a helper that
# two modules look up (`_phase_terms`: state's flux rows, fv's BN flux) is
# listed under both, and its calls from either count as one stage
STAGES = (
    (fv, "_force_prepare"), (fv, "_decode_prepare"), (fv, "_advance"),
    (fv, "_force_godunov"), (fv, "_force"), (fv, "_muscl_hancock"), (fv, "limited_slope"),
    (fv, "_rusanov"), (fv, "_cons_flux_rows"), (state, "_phase_terms"), (fv, "_phase_terms"),
    (fv, "_bn_flux"), (fv, "_bn_nonconservative"), (fv, "interface_closure"),
    (fv, "_prim_rows"), (fv, "_bn_prim_rows"), (fv, "_max_wavespeed_rows"),
    (fv, "_invalid_cons"), (fv, "_invalid_bn"), (fv, "_fallback"),
    (fv, "_relax_cons"), (fv, "_relax_bn"), (fv, "_equilibrium_alpha"),
)


def _run(preset, scheme, cells, thetas):
    p = get_problem(preset)
    config = SolverConfig(t_end=p.t_end, cfl=p.cfl, scheme=scheme or p.default_scheme, **thetas)
    grid = Grid(p.x_min, p.x_max, cells)
    return run_simulation(*p.riemann_data(), grid, config, p.eos_pair, x0=p.x0)


def _stages():
    return [(mod, name, vars(mod)[name]) for mod, name in STAGES if name in vars(mod)]


def _timed_pass(preset, scheme, cells, thetas):
    """(steps, wall seconds, {stage: [calls, self seconds]}) of one run
    with every stage rebound to a timing wrapper."""
    stats, stack = {}, []

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            stack.append(0.0)  # seconds spent in wrapped callees
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - t0
                inner = stack.pop()
                entry = stats.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += total - inner
                if stack:
                    stack[-1] += total
        return wrapper

    stages = _stages()
    try:
        for mod, name, fn in stages:
            setattr(mod, name, timed(name, fn))
        t0 = time.perf_counter()
        res = _run(preset, scheme, cells, thetas)
        wall = time.perf_counter() - t0
    finally:
        for mod, name, fn in stages:
            setattr(mod, name, fn)
    return res.steps, wall, stats


def _counted_pass(preset, scheme, cells, thetas):
    """{stage: Python-level calls} of one unwrapped run under sys.setprofile;
    calls made by the driver itself count under `driver`."""
    owner = {fn.__code__: name for _, name, fn in _stages()}
    owner[run_simulation.__code__] = "driver"
    return _py_calls(lambda: _run(preset, scheme, cells, thetas), owner)


def _py_calls(run, owner):
    """{name: Python-level calls made while run() runs}, each call charged to
    the innermost frame on the stack whose code `owner` maps to a name."""
    counts = {}

    def profile(frame, event, arg):
        if event not in ("call", "c_call"):
            return
        f = frame.f_back if event == "call" else frame  # the frame that made the call
        while f is not None and f.f_code not in owner:
            f = f.f_back
        if f is not None:
            name = owner[f.f_code]
            counts[name] = counts.get(name, 0) + 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def profile(preset, scheme=None, cells=300, repeats=5, theta1=None, theta2=None):
    """Per-step figures of one preset run: steps, plain µs per step (median
    of `repeats` runs), Python-level calls per step, per stage (driver
    last) its calls, self µs and Python-level calls per step, and the
    run's relaxation counters (`ledger["telemetry"]["relax"]`)."""
    thetas = {"theta1": theta1, "theta2": theta2}
    plain = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = _run(preset, scheme, cells, thetas)
        plain.append((time.perf_counter() - t0) / res.steps)
    timed_steps, wall, stats = _timed_pass(preset, scheme, cells, thetas)
    counts = _counted_pass(preset, scheme, cells, thetas)
    stats["driver"] = [0, wall - sum(s for _, s in stats.values())]
    rows = {
        name: {
            "calls": stats[name][0] / timed_steps,
            "self_us": 1e6 * stats[name][1] / timed_steps,
            "py_calls": counts.get(name, 0) / timed_steps,
        }
        for name in [n for _, n in STAGES] + ["driver"] if name in stats
    }
    return {
        "steps": res.steps,
        "us_per_step": 1e6 * statistics.median(plain),
        "py_calls_per_step": sum(counts.values()) / timed_steps,
        "stages": rows,
        "relax": res.ledger["telemetry"]["relax"],
    }


def _exact_phases(problem, xis, eigen_xis):
    """(phase, thunk) of each exact phase, in order; the later thunks work
    on the solution that the build thunk left."""
    spec, built = problem.exact_spec, []

    def build():
        built[:] = [build_solution(spec.contact_left, spec.alpha1_right, list(spec.left_waves),
                                   list(spec.right_waves), problem.eos_pair, validate=False)]

    return (("build", build), ("validate", lambda: validate_solution(built[0])),
            ("sample_many", lambda: built[0].sample_many(xis)),
            ("eigen_curves", lambda: built[0].eigen_curves(eigen_xis)))


def exact_profile(preset, repeats=5, points=600, eigen_points=150):
    """Per exact phase of a preset (build, validate, sample_many on
    `points`, eigen_curves on `eigen_points`): the median µs of `repeats`
    passes and the Python-level calls of one more."""
    problem = get_problem(preset)
    solution = problem.build_exact()
    grids = (_xi_grid(solution, points), _xi_grid(solution, eigen_points))
    times = {}
    for _ in range(repeats):
        for name, thunk in _exact_phases(problem, *grids):
            t0 = time.perf_counter()
            thunk()
            times.setdefault(name, []).append(time.perf_counter() - t0)
    return {name: {"us": 1e6 * statistics.median(times[name]),
                   "py_calls": _py_calls(thunk, {thunk.__code__: name}).get(name, 0)}
            for name, thunk in _exact_phases(problem, *grids)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("preset")
    ap.add_argument("--scheme", default=None, choices=fv.SCHEMES)
    ap.add_argument("--cells", type=int, default=300)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--theta1", type=float, default=None)
    ap.add_argument("--theta2", type=float, default=None)
    ap.add_argument("--exact", action="store_true", help="probe the exact solution instead")
    args = ap.parse_args(argv)
    if args.repeats < 1 or args.cells < 4:
        ap.error("--repeats must be at least 1 and --cells at least 4")
    if args.exact:
        out = exact_profile(args.preset, args.repeats)
        print(f"{args.preset} exact, 600 sample and 150 eigen points (median of {args.repeats})")
        print(f"{'phase':<22}{'us':>12}{'py calls':>12}")
        for name, row in out.items():
            print(f"{name:<22}{row['us']:>12.1f}{row['py_calls']:>12d}")
        return 0
    out = profile(args.preset, args.scheme, args.cells, args.repeats, args.theta1, args.theta2)
    scheme = args.scheme or get_problem(args.preset).default_scheme
    print(f"{args.preset} {scheme}, {args.cells} cells: {out['steps']} steps, "
          f"{out['us_per_step']:.1f} us per step (median of {args.repeats}), "
          f"{out['py_calls_per_step']:.1f} Python-level calls per step")
    if args.theta1 is not None or args.theta2 is not None:
        relax = out["relax"]
        print(f"relaxation: {relax['solves']} pressure solves, "
              f"{relax['newton_iterations'] / max(relax['solves'], 1):.2f} iterations per solve, "
              f"at most {relax['max_iterations']} in one solve")
    print(f"{'stage':<22}{'calls/step':>12}{'self us/step':>14}{'py calls/step':>15}")
    for name, row in out["stages"].items():
        print(f"{name:<22}{row['calls']:>12.2f}{row['self_us']:>14.1f}{row['py_calls']:>15.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
