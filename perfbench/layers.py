"""Per-layer metrics of a traced run.

Layers are the twophase modules.  Work is counted where it happens, by
probes that the tracer runs on entry to a wrapped call; times are the
tracer's span aggregates with the calibrated wrapper cost removed.  The
program is single-threaded numpy without queues, so no layer waits: the
metrics are counts, busy (self or inclusive) time and failures.
"""

import numpy as np

from workloads import PRESETS

ERRORS = (
    "EosDomainError", "StateDecodeError", "InadmissibleWaveError", "OutOfFanError",
    "DegenerateShockError", "NumericsError", "ConstructionError", "PositivityError",
    "RelaxationError", "ConfigError",
)

KERNELS = {
    "muscl_rusanov": "fv.muscl_hancock_step",
    "pathcons_bn": "fv.path_conservative_step",
    "force_godunov": "fv.force_godunov_step",
}
FLUX = tuple(
    "fv." + f for f in (
        "rusanov_flux", "force_flux", "force_combine", "_cons_flux", "_interface_smax",
        "_bn_flux", "_bn_nonconservative",
    )
)
PER_CELL = {
    "cons_to_prim": "state.cons_to_prim_array",
    "flux": "state.flux_primitive_array",
    "max_wavespeed": "state.max_wavespeed_array",
}
SETUP_MS = {
    "exact.build.ms": "exact.build_solution",
    "exact.validate.ms": "exact.validate_solution",
    "waves.shock_connect.ms": "waves.shock_connect",
    "waves.contact_connect.ms": "waves.contact_connect",
    "problems.build_exact.ms": "problems.Problem.build_exact",
}
RELAX_SOLVE = "fv._equilibrium_alpha"
SAMPLE = "exact.ExactSolution.sample"
RAREFACTION = "waves.rarefaction_sample"
EIGEN = "exact.ExactSolution.eigen_curves"
KAPILA = "models.kapila_limit_diagnostics"

PER_LAYER = (
    [(f"fv.{k}.us_per_cell_step", "us", "lower") for k in KERNELS]
    + [
        ("fv.flux.self_share", "1", "lower"),
        ("fv.driver.self_share", "1", "lower"),
        ("fv.relax.us_per_cell_step", "us", "lower"),
        ("fv.relax.solves", "count", "lower"),
        ("fv.relax.newton_iters_per_solve", "count", "lower"),
        ("state.cons_to_prim.calls_per_step", "count", "lower"),
    ]
    + [(f"state.{k}.us_per_cell", "us", "lower") for k in PER_CELL]
    + [
        ("eos.calls_per_cell_step", "count", "lower"),
        ("eos.self_share", "1", "lower"),
        ("waves.rarefaction_sample.calls_per_point", "count", "lower"),
        ("waves.rarefaction_sample.us_per_call", "us", "lower"),
        ("waves.rarefaction_sample.useful_ratio", "1", "higher"),
    ]
    + [(f"exact.sample.us_per_point.{p}", "us", "lower") for p in PRESETS]
    + [(f"exact.fan_point_share.{p}", "1", "lower") for p in PRESETS]
    + [("exact.eigen.us_per_point", "us", "lower")]
    + [(name, "ms", "lower") for name in SETUP_MS]
    + [
        ("models.kapila_diagnostics.ms", "ms", "lower"),
        ("cli.self_share", "1", "lower"),
    ]
    + [(f"errors.{e}", "count", "lower") for e in ERRORS]
    + [
        ("trace.overhead_share", "1", "lower"),
        ("trace.span_cost_us", "us", "lower"),
    ]
)

# every traced name a metric reads; a later refactor may remove some
REQUIRED = sorted(
    {*KERNELS.values(), *FLUX, *PER_CELL.values(), *SETUP_MS.values(), RELAX_SOLVE,
     SAMPLE, SAMPLE + "_many", RAREFACTION, EIGEN, KAPILA, "fv.run_simulation",
     "fv.relax_primitive", "eos.BarotropicEos.sound_speed_sq"}
)


def _rows(x):
    return int(np.shape(x)[0]) if np.ndim(x) >= 2 else 1


def install_probes(tracer):
    """Counters measured at the call boundary; must run before patch()."""
    tracer.sample_xi = None

    def count_rows(key, index):
        def probe(tr, args, kwargs):
            tr.counters[key] += _rows(args[index]) if index == 0 else len(args[index])
        return probe

    for name in (*KERNELS.values(), *PER_CELL.values()):
        tracer.probes[name] = count_rows("rows:" + name, 0)
    tracer.probes[EIGEN] = count_rows("rows:" + EIGEN, 1)

    def sound_speed_sq(tr, args, kwargs):
        # the relaxation Newton loop evaluates two sound speeds per iteration
        if tr.active[RELAX_SOLVE]:
            tr.counters["ssq_in_relax"] += 1

    def sample(tr, args, kwargs):
        tr.sample_xi = args[1]

    def rarefaction_sample(tr, args, kwargs):
        if tr.active[SAMPLE]:
            tr.counters["raref_under_sample"] += 1
            xi = args[2] if len(args) > 2 else kwargs.get("xi")
            # a fan that merely lies left of the point is evaluated at its edge
            if xi == tr.sample_xi:
                tr.counters["raref_useful"] += 1

    tracer.probes["eos.BarotropicEos.sound_speed_sq"] = sound_speed_sq
    tracer.probes[SAMPLE] = sample
    tracer.probes[RAREFACTION] = rarefaction_sample


def _ratio(a, b):
    return float(a) / float(b) if b else 0.0


class Window:
    """Tracer read-out between a snapshot and now."""

    def __init__(self, tracer, since):
        self.tr = tracer
        self.since = since

    def calls(self, name):
        return self.tr.corrected(name, self.since)[0]

    def incl(self, name):
        return self.tr.corrected(name, self.since)[1]

    def self_time(self, names):
        return sum(self.tr.corrected(n, self.since)[2] for n in names)

    def count(self, key):
        return self.tr.counter(key, self.since)

    def names(self, prefix):
        return [n for n in self.tr.stats if n.startswith(prefix)]

    def spans(self):
        return sum(self.calls(n) for n in self.tr.stats)


def exact_counters(w):
    """Counters that must repeat exactly between repeats and between runs."""
    cons_steps = w.calls(KERNELS["muscl_rusanov"]) + w.calls(KERNELS["force_godunov"])
    return {
        "state.cons_to_prim.calls_per_step": _ratio(w.calls(PER_CELL["cons_to_prim"]), cons_steps),
        "fv.relax.newton_iters_per_solve": _ratio(w.count("ssq_in_relax"), 2 * w.calls(RELAX_SOLVE)),
        "waves.rarefaction_sample.calls_per_point": _ratio(w.count("raref_under_sample"), w.calls(SAMPLE)),
    }


def layer_metrics(w, repeats, traced_wall):
    """Per-layer values over `repeats` traced repeats that took
    `traced_wall` seconds; counts are per repeat."""
    busy = max(traced_wall - w.spans() * w.tr.span_cost, 1e-12)  # untraced-equivalent wall
    cell_steps = sum(w.count("rows:" + k) for k in KERNELS.values())
    m = {}
    for key, name in KERNELS.items():
        m[f"fv.{key}.us_per_cell_step"] = 1e6 * _ratio(w.incl(name), w.count("rows:" + name))
    m["fv.flux.self_share"] = w.self_time(FLUX) / busy
    m["fv.driver.self_share"] = w.self_time(["fv.run_simulation"]) / busy
    m["fv.relax.us_per_cell_step"] = 1e6 * _ratio(w.incl("fv.relax_primitive"), cell_steps)
    m["fv.relax.solves"] = w.calls(RELAX_SOLVE) / repeats
    m.update(exact_counters(w))
    for key, name in PER_CELL.items():
        m[f"state.{key}.us_per_cell"] = 1e6 * _ratio(w.incl(name), w.count("rows:" + name))
    eos = w.names("eos.")
    m["eos.calls_per_cell_step"] = _ratio(sum(w.calls(n) for n in eos), cell_steps)
    m["eos.self_share"] = w.self_time(eos) / busy
    m["waves.rarefaction_sample.us_per_call"] = 1e6 * _ratio(w.incl(RAREFACTION), w.calls(RAREFACTION))
    m["waves.rarefaction_sample.useful_ratio"] = _ratio(
        w.count("raref_useful"), w.count("raref_under_sample")
    )
    m["exact.eigen.us_per_point"] = 1e6 * _ratio(w.incl(EIGEN), w.count("rows:" + EIGEN))
    m["models.kapila_diagnostics.ms"] = 1e3 * _ratio(w.incl(KAPILA), w.calls(KAPILA))
    m["cli.self_share"] = w.self_time(w.names("cli.")) / busy
    for err in ERRORS:
        m[f"errors.{err}"] = w.count("error:" + err) / repeats
    return m


def setup_metrics(w):
    return {key: 1e3 * _ratio(w.incl(name), w.calls(name)) for key, name in SETUP_MS.items()}


def exact_sample_metrics(tracer, workload):
    """Per preset: sample_many time per point and the share of points inside
    fans, from the snapshots `ExactSample` takes around each sample_many
    call.  Also returns whether points and rarefaction evaluations per
    preset repeated exactly across traced repeats."""
    rows = {}
    for per in getattr(workload, "traced", []):
        for name, (points, before, after) in per.items():
            incl = tracer.corrected(SAMPLE + "_many", before, after)[1]
            raref = after[1]["raref_under_sample"] - before[1]["raref_under_sample"]
            rows.setdefault(name, []).append((points, incl, raref))
    m = {}
    for name in PRESETS:
        got = rows.get(name, [])
        points = sum(r[0] for r in got)
        m[f"exact.sample.us_per_point.{name}"] = 1e6 * _ratio(sum(r[1] for r in got), points)
        m[f"exact.fan_point_share.{name}"] = workload.fan_share(name) if got else 0.0
    same = all(len({(r[0], r[2]) for r in got}) == 1 for got in rows.values())
    return m, same
