"""The four benchmark workloads, their answer checks and layer read-outs.

FV workloads drive the user path `twophase.cli.main([...])` in-process on
fixed preset inputs.  `exact-sample` drives the public `exact` API on
sample points drawn from the seed.  Every workload exposes

  prepare()        untimed: inputs, warm-up (fills lazy caches)
  repeat(tracer)   one timed unit of work; returns its wall time
  checks()         (name, passed, detail) answer checks after the runs
  l1_rho           the answer-guard value behind the `l1_rho` metric
"""

import contextlib
import io
import json
import re
import time
from pathlib import Path

import numpy as np

from twophase import cli
from twophase.exact import build_solution, validate_solution
from twophase.problems import get_problem

PRESETS = ("RP1", "RP2", "RP3", "RP4", "RP5", "RP6")
WARM_CELLS = 32


def run_cli(argv):
    """Run the CLI in-process; returns (exit code, captured output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a raw traceback is a failed command
            print(f"{type(exc).__name__}: {exc}")
            rc = -1
    return rc, buf.getvalue()


def mixture_rho(prim):
    prim = np.asarray(prim, dtype=float)
    return prim[:, 0] * prim[:, 1] + (1.0 - prim[:, 0]) * prim[:, 2]


class Workload:
    name = ""
    why = ""
    setup_problem = ""
    cells = 0  # 0: no grid
    work_unit = ""
    rate_name = ""  # the reader's name for work_per_s on this workload

    def __init__(self, out_dir, seed):
        self.out = Path(out_dir)
        self.seed = seed
        self.failures = []  # failed commands: (repeat, detail)
        self.attempted = 0
        self.work = 0  # work units of one repeat (cell-steps or points)
        self.l1_rho = float("nan")

    def state_bytes(self):
        """Computed size of one (n, 5) float64 state array."""
        return self.cells * 5 * 8


class FvWorkload(Workload):
    argv = ()
    work_unit = "cell-steps"
    rate_name = "cell_steps_per_s"

    def __init__(self, out_dir, seed):
        super().__init__(out_dir, seed)
        self.steps = []  # per repeat: total steps of all backends

    def command(self, cells):
        return [*self.argv, "--cells", str(cells), "--out", str(self.out)]

    def prepare(self):
        self.attempted += 1
        rc, text = run_cli(self.command(WARM_CELLS))
        if rc != 0:
            self.failures.append(("warm-up", f"exit {rc}: {text[-300:]}"))

    def repeat(self, tracer=None):
        self.attempted += 1
        t0 = time.perf_counter()
        rc, text = run_cli(self.command(self.cells))
        wall = time.perf_counter() - t0
        if rc != 0:
            self.failures.append((len(self.steps), f"exit {rc}: {text[-300:]}"))
        steps = sum(int(n) for n in re.findall(r"(\d+) steps", text))
        self.steps.append(steps)
        self.work = self.cells * steps
        return wall

    def checks(self):
        return [
            ("every command exits 0", not self.failures, "; ".join(map(str, self.failures))),
            (
                "step counts repeat exactly",
                len(set(self.steps)) == 1 and self.steps[0] > 0,
                f"steps per repeat {sorted(set(self.steps))}",
            ),
        ]

    def _json(self, name):
        return json.loads((self.out / name).read_text())


class Rp6Compare(FvWorkload):
    name = "rp6-compare"
    why = "MUSCL-Rusanov SHTC and path-conservative BN on the RP6 shock benchmark; step kernels, state decode and EOS do the work"
    setup_problem = "RP6"
    cells = 300
    argv = ("compare", "RP6", "--models", "shtc,bn")

    def checks(self):
        out = super().checks()
        errs = self._json("compare.json").get("exact_errors_rho", {})
        ok = set(errs) == {"shtc", "bn"} and all(np.isfinite(v) for v in errs.values())
        out.append(("exact_errors_rho present and finite", ok, str(errs)))
        self.l1_rho = float(errs.get("shtc", float("nan")))
        return out


class Rp6Kapila(FvWorkload):
    name = "rp6-kapila"
    why = "same RP6 kernels with stiff relaxation (theta1=1e-3, theta2=1e-8); isolates the relaxation solve"
    setup_problem = "RP6"
    cells = 64
    argv = ("compare", "RP6", "--models", "shtc,bn", "--theta1", "1e-3", "--theta2", "1e-8")

    def checks(self):
        out = super().checks()
        report = self._json("compare.json")
        kap = report.get("kapila", {})
        regime = {m: kap.get(m, {}).get("in_kapila_regime") for m in ("shtc", "bn")}
        out.append(("in_kapila_regime for both models", all(regime.values()), str(regime)))
        gap = float(report["pairs"]["shtc|bn"]["rho"]["l1"])
        self.l1_rho = gap
        # the non-stiff exact reference at the same resolution (untimed)
        ref_out = self.out / "reference"
        rc, text = run_cli(
            ["compare", "RP6", "--models", "shtc,bn", "--cells", str(self.cells), "--out", str(ref_out)]
        )
        ref = float("nan")
        if rc == 0:
            ref = float(json.loads((ref_out / "compare.json").read_text())["reference_l1_rho"])
        out.append(
            (
                "SHTC|BN L1(rho) gap < 3x non-stiff exact reference",
                bool(gap < 3.0 * ref),
                f"gap {gap:.6e}, reference {ref:.6e} (exit {rc})",
            )
        )
        return out


class Rp4Godunov(FvWorkload):
    name = "rp4-godunov"
    why = "first-order FORCE on the stiff liquid/gas EOS; the only path through force_godunov_step and force_flux"
    setup_problem = "RP4"
    cells = 300
    argv = ("simulate", "RP4")

    def checks(self):
        out = super().checks()
        ledger = self._json("ledger.json")
        closure = float(ledger["worst_step_closure"])
        out.append(("worst_step_closure <= 1e-12", closure <= 1e-12, f"{closure:.3e}"))
        snap = np.loadtxt(self.out / "snapshot.csv", delimiter=",", skiprows=1, ndmin=2)
        problem = get_problem("RP4")
        exact = problem.build_exact().sample_many((snap[:, 0] - problem.x0) / ledger["time"])
        dx = (problem.x_max - problem.x_min) / self.cells
        self.l1_rho = float(np.sum(np.abs(snap[:, 6] - mixture_rho(exact))) * dx)
        out.append(("L1(rho) against exact is finite", np.isfinite(self.l1_rho), f"{self.l1_rho:.6e}"))
        return out


class ExactSample(Workload):
    name = "exact-sample"
    why = "exact construction, validation, sampling and eigen curves of RP1-RP6 on seeded points; no FV work"
    setup_problem = "RP1"
    work_unit = "points"
    rate_name = "samples_per_s"
    points = 600  # sample_many points per problem
    eigen_points = 150  # eigen_curves points per problem

    def __init__(self, out_dir, seed):
        super().__init__(out_dir, seed)
        self.xis = {}
        self.eigen_xis = {}
        self.last = {}  # name -> (solution, samples, curves)
        self.reports_ok = []
        self.traced = []  # per traced repeat: what _solve returned

    def state_bytes(self):
        return self.points * 5 * 8

    def prepare(self):
        # points are stratified over the sampling window of `twophase exact`:
        # one uniform draw per stratum, so the share of points inside fans
        # barely depends on the seed
        rng = np.random.default_rng(self.seed)
        for name in PRESETS:
            speeds = get_problem(name).build_exact().wave_speeds()
            span = max(max(speeds) - min(speeds), 1.0)
            lo, hi = min(speeds) - 0.2 * span, max(speeds) + 0.2 * span
            for store, n in ((self.xis, self.points), (self.eigen_xis, self.eigen_points)):
                store[name] = lo + (np.arange(n) + rng.random(n)) / n * (hi - lo)
        self.work = len(PRESETS) * (self.points + self.eigen_points)
        self._solve(n=16)

    def _solve(self, n=None, tracer=None):
        """Build, validate and sample every preset; with `tracer`, returns
        per problem (points, tracer snapshots around sample_many)."""
        per = {}
        for name in PRESETS:
            problem = get_problem(name)
            spec = problem.exact_spec
            self.attempted += 1
            try:
                sol = build_solution(
                    spec.contact_left, spec.alpha1_right, list(spec.left_waves),
                    list(spec.right_waves), problem.eos_pair,
                )
                report = validate_solution(sol)
                before = tracer.snapshot() if tracer else None
                samples = sol.sample_many(self.xis[name][:n])
                if tracer:
                    per[name] = (len(samples), before, tracer.snapshot())
                curves = sol.eigen_curves(self.eigen_xis[name][:n])
            except Exception as exc:  # the program failed this problem
                self.failures.append((name, f"{type(exc).__name__}: {exc}"))
                continue
            self.reports_ok.append(report.passed)
            self.last[name] = (sol, samples, curves)
        return per

    def repeat(self, tracer=None):
        t0 = time.perf_counter()
        per = self._solve(tracer=tracer)
        wall = time.perf_counter() - t0
        if tracer:
            self.traced.append(per)
        return wall

    def fan_share(self, name):
        """Share of the sample points inside a fan of either phase (the
        phase track's own lo <= xi <= hi test)."""
        sol, xis = self.last[name][0], self.xis[name]
        inside = np.zeros(len(xis), bool)
        for el in sol.elements:
            if el.kind == "rarefaction":
                inside |= (xis >= el.xi_head) & (xis <= el.xi_tail)
        return float(np.mean(inside))

    def checks(self):
        out = [
            ("every problem builds and samples", not self.failures, "; ".join(map(str, self.failures))),
            ("validate_solution passes", bool(self.reports_ok) and all(self.reports_ok), ""),
        ]
        plateau_bad, fan_bad, finite_bad = [], [], []
        l1 = 0.0
        for name, (sol, samples, curves) in self.last.items():
            xis = self.xis[name]
            if not (np.all(np.isfinite(samples)) and np.all(np.isfinite(curves))):
                finite_bad.append(name)
            plateau_bad += [f"{name}: {m}" for m in self._plateau_mismatches(sol)]
            fan_bad += [f"{name}: {m}" for m in self._fan_mismatches(sol, xis, samples)]
            data = np.where(
                (xis < 0.0)[:, None], sol.left_state.as_array(), sol.right_state.as_array()
            )
            scale = 0.5 * (sol.left_state.rho + sol.right_state.rho)
            l1 += float(np.mean(np.abs(mixture_rho(samples) - mixture_rho(data)))) / scale
        out.append(("sampled plateaus equal the element states", not plateau_bad, "; ".join(plateau_bad[:5])))
        out.append(("in-fan samples sit on their characteristic (lambda = xi)", not fan_bad, "; ".join(fan_bad[:5])))
        out.append(("samples and eigen curves are finite", not finite_bad, ", ".join(finite_bad)))
        self.l1_rho = l1
        return out

    @staticmethod
    def _plateau_mismatches(sol):
        """Sample the middle of every constant region next to a
        discontinuity (and the two outer states) and compare with the
        states the construction recorded there."""
        fans = [(el.xi_head, el.xi_tail) for el in sol.elements if el.kind == "rarefaction"]
        cuts = sol.wave_speeds()
        in_fan = lambda x: any(lo <= x <= hi for lo, hi in fans)  # noqa: E731
        expected = [(cuts[0] - 1.0, sol.left_state), (cuts[-1] + 1.0, sol.right_state)]
        for el in sol.elements:
            if not el.is_discontinuity:
                continue
            i = cuts.index(el.speed)
            if i > 0:
                expected.append((0.5 * (cuts[i - 1] + el.speed), el.left))
            if i + 1 < len(cuts):
                expected.append((0.5 * (el.speed + cuts[i + 1]), el.right))
        bad = []
        for xi, state in expected:
            if in_fan(xi):
                continue
            got = sol.sample(xi).as_array()
            want = state.as_array()
            if np.any(np.abs(got - want) > 1e-9 * np.maximum(1.0, np.abs(want))):
                bad.append(f"xi={xi:.6g} got {got} want {want}")
        return bad

    @staticmethod
    def _fan_mismatches(sol, xis, samples):
        bad = []
        for el in sol.elements:
            if el.kind != "rarefaction":
                continue
            fam = el.family
            mask = (xis >= el.xi_head) & (xis <= el.xi_tail)
            if not np.any(mask):
                continue
            v = samples[mask]
            rho, u = (v[:, 1], v[:, 3]) if fam.phase == 1 else (v[:, 2], v[:, 4])
            lam = u + fam.sign * fam.eos_of(sol.eos_pair).sound_speed(rho)
            err = np.abs(lam - xis[mask]) / np.maximum(1.0, np.abs(xis[mask]))
            if np.max(err) > 1e-8:
                bad.append(f"{el.label()}: max |lambda - xi| {np.max(err):.2e}")
        return bad


WORKLOADS = {w.name: w for w in (Rp6Compare, Rp6Kapila, ExactSample, Rp4Godunov)}
