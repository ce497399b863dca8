"""Command-line surface: exact solutions, simulations, model comparison.

Commands

  exact PROBLEM      sample the exact solution, dump CSV + wave summary
                     + validation report
  simulate PROBLEM   run a finite-volume scheme, dump snapshot CSV +
                     conservation ledger with the run's relaxation
                     counters (+ Kapila diagnostics when relaxation is on)
  compare PROBLEM    run the shtc and bn backends in the order --models
                     names them, the first in this process while the
                     other runs in a forked worker process, and report
                     aligned L1/Linf differences against each other and
                     the exact solution, with each backend's counters
  eigen PROBLEM      five eigenvalue curves along xi (wave-structure
                     figures)
  validate PROBLEM   build the exact solution and print the
                     admissibility report

Outputs are plain CSV/JSON plus a generated gnuplot script; no
graphics dependency.  Exit codes: 0 success, 2 validation/config
failure, 3 numerics failure.  TPR_OUTPUT_DIR overrides the default
output directory.
"""

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError, ConstructionError, NumericsError, PositivityError, RelaxationError, TwoPhaseError,
)
from .exact import SOLUTION_COLUMNS, solution_table, validate_solution
from .fv import LIMITERS, SCHEMES, Grid, SolverConfig, run_simulation, run_simulations
from .models import kapila_limit_diagnostics
from .problems import get_problem
from .state import mixture_table

MODELS = ("shtc", "bn")  # the SHTC and Baer-Nunziato backends
SNAPSHOT_COLUMNS = ["x", "alpha1", "rho1", "rho2", "u1", "u2", "rho", "u", "w", "p"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICS = 3


def _out_dir(args, problem, command):
    base = args.out or os.environ.get("TPR_OUTPUT_DIR")
    if base is None:
        base = Path("out") / f"{problem.name.lower()}-{command}"
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_csv(path, columns, rows):
    template = ",".join(["%.17g"] * np.shape(rows)[-1]) + "\n"  # the bytes of f"{v:.17g}" each
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(template % tuple(row) for row in np.asarray(rows).tolist())


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_plot_script(path, csv_name, xlabel):
    lines = [
        "# gnuplot script generated alongside the data",
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set xlabel '{xlabel}'",
        "set terminal pngcairo size 1200,800",
        "set output 'profiles.png'",
        "set multiplot layout 2,2",
        f"plot '{csv_name}' using 1:3 with lines title 'rho1', '' using 1:4 with lines title 'rho2'",
        f"plot '{csv_name}' using 1:7 with lines title 'rho', '' using 1:2 with lines title 'alpha1'",
        f"plot '{csv_name}' using 1:5 with lines title 'u1', '' using 1:6 with lines title 'u2'",
        f"plot '{csv_name}' using 1:8 with lines title 'u', '' using 1:9 with lines title 'w'",
        "unset multiplot",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def _print_header(problem):
    print(f"problem {problem.name}: {problem.description}")
    for tag, eos in (("phase1", problem.eos_pair.phase1), ("phase2", problem.eos_pair.phase2)):
        print(
            f"  {tag}: p(rho) = {eos.A:g}*(rho/{eos.rho_ref:g})^{eos.gamma:g} "
            f"+ {eos.B:g}  [{'isothermal' if eos.gamma == 1.0 else 'isentropic'}]"
        )
    if problem.notes:
        print(f"  note: {problem.notes}")


def _xi_grid(solution, n):
    speeds = solution.wave_speeds()
    lo, hi = min(speeds), max(speeds)
    span = max(hi - lo, 1.0)
    return np.linspace(lo - 0.2 * span, hi + 0.2 * span, n)


def cmd_exact(args):
    problem = get_problem(args.problem)
    _print_header(problem)
    solution = problem.build_exact()
    out = _out_dir(args, problem, "exact")
    xis = _xi_grid(solution, args.samples)
    write_csv(out / "solution.csv", SOLUTION_COLUMNS, solution_table(solution, xis))
    write_json(out / "validation.json", validate_solution(solution).as_dict())
    write_json(out / "waves.json", solution.summary())
    lines = [f"contact speed: {solution.contact_speed:.17g}"]
    lines += [el.label() for el in solution.elements]
    (out / "waves.txt").write_text("\n".join(lines) + "\n")
    _write_plot_script(out / "plots.gp", "solution.csv", "x/t")
    print(f"wrote {out}/solution.csv ({len(xis)} samples), waves.txt/json, validation.json")
    print("validation passed")
    return EXIT_OK


def _solver_config(problem, args, scheme):
    config = SolverConfig(
        t_end=args.t_end if args.t_end is not None else problem.t_end,
        cfl=args.cfl if args.cfl is not None else problem.cfl,
        scheme=scheme,
        limiter=args.limiter,
        theta1=args.theta1,
        theta2=args.theta2,
        positivity="floor" if args.floor else "strict",
    )
    # a run of no step has no x/t profile to write or compare
    if config.t_end == 0.0:
        raise ConfigError("t_end must be positive for a run, got 0")
    return config


def _scheme_for(problem, args, model):
    return "muscl-pathcons-bn" if model == "bn" else args.scheme or problem.default_scheme


def _cells_for(problem, args):
    if args.cells is not None:
        return args.cells
    return problem.paper_cells if args.paper_scale else problem.desk_cells


def cmd_simulate(args):
    if args.model == "bn" and args.scheme:
        raise ConfigError("--scheme picks the shtc scheme; --model bn runs muscl-pathcons-bn")
    problem = get_problem(args.problem)
    _print_header(problem)
    scheme = _scheme_for(problem, args, args.model)
    cells = _cells_for(problem, args)
    grid = Grid(problem.x_min, problem.x_max, cells)
    config = _solver_config(problem, args, scheme)
    left, right = problem.riemann_data()
    print(f"  scheme {scheme}, {cells} cells, t_end {config.t_end:g}, cfl {config.cfl:g}")
    if config.relaxing:
        print(f"  relaxation: theta1={config.theta1}, theta2={config.theta2}")
    result = run_simulation(left, right, grid, config, problem.eos_pair, x0=problem.x0)
    out = _out_dir(args, problem, "simulate")
    rows = mixture_table(result.x, result.prim, problem.eos_pair)
    write_csv(out / "snapshot.csv", SNAPSHOT_COLUMNS, rows)
    write_json(out / "ledger.json", result.ledger)
    if config.relaxing:
        relax = result.ledger["telemetry"]["relax"]
        print(
            f"  relaxation: {relax['solves']} pressure solves, {relax['newton_iterations']} "
            f"Halley updates (at most {relax['max_iterations']} in one solve), "
            f"{relax['roundoff_stops']} cells stopped at round-off"
        )
        diag = kapila_limit_diagnostics(result.prim, problem.eos_pair)
        write_json(out / "kapila.json", diag)
        print(
            "  kapila diagnostics: |p1-p2| max "
            f"{diag['pressure_disequilibrium_max']:.3e}, |w| max "
            f"{diag['velocity_disequilibrium_max']:.3e}"
        )
    _write_plot_script(out / "plots.gp", "snapshot.csv", "x")
    print(
        f"wrote {out}/snapshot.csv: {result.steps} steps to t={result.t:g}, "
        f"worst step closure {result.ledger['worst_step_closure']:.3e}"
    )
    return EXIT_OK


def _l1(a, b, dx):
    return float(np.sum(np.abs(np.asarray(a) - np.asarray(b))) * dx)


def _linf(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def cmd_compare(args):
    problem = get_problem(args.problem)
    _print_header(problem)
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    if sorted(models) != sorted(MODELS):
        raise ConfigError(
            f"--models names shtc and bn once each, in either order; got {args.models!r}"
        )
    cells = _cells_for(problem, args)
    grid = Grid(problem.x_min, problem.x_max, cells)
    left, right = problem.riemann_data()
    configs = [_solver_config(problem, args, _scheme_for(problem, args, m)) for m in models]
    results = run_simulations(left, right, grid, configs, problem.eos_pair, x0=problem.x0)
    runs = dict(zip(models, results))
    for model, config, result in zip(models, configs, results):
        print(f"  ran {model} ({config.scheme}): {result.steps} steps")

    columns = SNAPSHOT_COLUMNS[1:]
    tables = {m: mixture_table(r.x, r.prim, problem.eos_pair)[:, 1:] for m, r in runs.items()}
    report = {"problem": problem.name, "cells": cells, "pairs": {}, "verdicts": [],
              "telemetry": {m: r.ledger["telemetry"] for m, r in runs.items()},
              "wall_seconds": {m: r.ledger["wall_seconds"] for m, r in runs.items()}}

    exact_ref = None
    if problem.exact_spec is not None and not configs[0].relaxing:
        solution = problem.build_exact()
        xs = grid.centers()
        xi = (xs - problem.x0) / runs[models[0]].t
        exact_tab = mixture_table(xs, solution.sample_many(xi), problem.eos_pair)[:, 1:]
        for m in models:
            err = _l1(tables[m][:, 5], exact_tab[:, 5], grid.dx)
            report.setdefault("exact_errors_rho", {})[m] = err
        exact_ref = report["exact_errors_rho"]["shtc"]
        report["reference_l1_rho"] = exact_ref

    a, b = models
    pair = {}
    for j, col in enumerate(columns):
        pair[col] = {
            "l1": _l1(tables[a][:, j], tables[b][:, j], grid.dx),
            "linf": _linf(tables[a][:, j], tables[b][:, j]),
        }
    report["pairs"][f"{a}|{b}"] = pair
    d = pair["rho"]["l1"]
    if exact_ref:
        if d < 3.0 * exact_ref:
            verdict = (
                f"{a} and {b} agree on rho within discretization error "
                f"(L1 {d:.3e} < 3 x {exact_ref:.3e})"
            )
        elif d > 10.0 * exact_ref:
            verdict = (
                f"{a} and {b} disagree on rho "
                f"(L1 {d:.3e} > 10 x {exact_ref:.3e}; differing jump conditions)"
            )
        else:
            verdict = f"{a} and {b} differ marginally on rho (L1 {d:.3e})"
        report["verdicts"].append(verdict)
        print("  " + verdict)
    else:
        print(f"  L1(rho) {a}|{b}: {d:.3e}")
    if configs[0].relaxing:
        for m in models:
            diag = kapila_limit_diagnostics(runs[m].prim, problem.eos_pair)
            report.setdefault("kapila", {})[m] = diag
    out = _out_dir(args, problem, "compare")
    write_json(out / "compare.json", report)
    print(f"wrote {out}/compare.json")
    return EXIT_OK


def cmd_eigen(args):
    problem = get_problem(args.problem)
    _print_header(problem)
    solution = problem.build_exact()
    xis = _xi_grid(solution, args.samples)
    curves = solution.eigen_curves(xis)
    out = _out_dir(args, problem, "eigen")
    rows = np.column_stack([xis, curves])
    write_csv(out / "eigen.csv", ["xi", "lam1m", "lam2m", "lamC", "lam1p", "lam2p"], rows)
    print(f"wrote {out}/eigen.csv ({len(xis)} samples)")
    return EXIT_OK


def cmd_validate(args):
    problem = get_problem(args.problem)
    _print_header(problem)
    solution = problem.build_exact()
    # build_exact raises ConstructionError naming the wave unless every check passes
    report = validate_solution(solution)
    for er in report.elements:
        extra = f" resid={er['max_jump_residual']:.2e}" if er["kind"] != "rarefaction" else ""
        print(f"  [ok] {er['label']}{extra}")
    out = _out_dir(args, problem, "validate")
    write_json(out / "validation.json", report.as_dict())
    print("all admissibility checks passed")
    return EXIT_OK


def _common_run_flags(p):
    scale = p.add_mutually_exclusive_group()
    scale.add_argument("--cells", type=int, default=None, help="cell count (default desk scale)")
    scale.add_argument("--paper-scale", action="store_true", help="use the published resolution")
    # muscl-pathcons-bn is the scheme of --model bn
    p.add_argument("--scheme", choices=[s for s in SCHEMES if s != "muscl-pathcons-bn"])
    p.add_argument("--limiter", default="minmod", choices=LIMITERS)
    p.add_argument("--cfl", type=float, default=None)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--theta1", type=float, default=None, help="pressure relaxation time")
    p.add_argument("--theta2", type=float, default=None, help="velocity relaxation time")
    p.add_argument("--floor", action="store_true", help="lower the order where positivity breaks, instead of aborting")


@functools.cache  # once per process; main looks each command up by name at call time
def build_parser():
    parser = argparse.ArgumentParser(
        prog="twophase",
        description="Exact and finite-volume solutions of two-phase Riemann problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="sample an exact solution")
    p.add_argument("problem")
    p.add_argument("--samples", type=int, default=2001)

    p = sub.add_parser("simulate", help="run a finite-volume solver")
    p.add_argument("problem")
    p.add_argument("--model", default="shtc", choices=MODELS)
    _common_run_flags(p)

    p = sub.add_parser("compare", help="compare solver backends")
    p.add_argument("problem")
    p.add_argument("--models", default="shtc,bn")
    _common_run_flags(p)

    p = sub.add_parser("eigen", help="eigenvalue curves of the exact solution")
    p.add_argument("problem")
    p.add_argument("--samples", type=int, default=2001)

    p = sub.add_parser("validate", help="admissibility report of the exact solution")
    p.add_argument("problem")
    for p in sub.choices.values():  # every command's last flag
        p.add_argument("--out", default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "samples", 2) < 2:  # exact and eigen: a grid needs both outer points
            raise ConfigError(f"--samples must be at least 2, got {args.samples}")
        return globals()["cmd_" + args.command](args)
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericsError, PositivityError, RelaxationError) as exc:
        print(f"numerics failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except TwoPhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
