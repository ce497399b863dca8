#!/usr/bin/env python3
"""Alternated parent/change pairs of the benchmark, with the evidence rule.

    python3 tools/bench_pairs.py PARENT CHANGE [--workload W ...] --pairs N --seed0 S
        [--seconds 20] [--json OUT]

PARENT and CHANGE are two checkouts of the repository.  `--workload` may
be given more than once and defaults to every workload of the parent's
BENCHMARK.json; the workloads run one after the other, in that order.
Pair i of a workload W runs `perfbench/run.py --workload W --seed S+i
--seconds ... --trace 0` once in each checkout, one run at a time; the
side that runs first alternates from pair to pair (the parent first on
even i), so that a drift of the machine does not fall on one side only.

Per workload it prints every pair, then per end-to-end metric of the parent's
BENCHMARK.json each side's median and quartiles, the pairs the change won
(better in the metric's direction; readings within TIE_TOL = 1e-9 of each
other, relative, are a tie and win nothing), and whether the change's
median is better than the parent's by more than the parent's
interquartile range and by more than TIE_TOL of the medians.
A claim of a gain holds when the change wins at least nine tenths of
the pairs (9 of 10) and that gap holds; the metric's `gain` field reads
`shown` then and `not shown` otherwise.  Each metric also gets the
verdict a change that claims no gain is judged by: `regressed` when the
change's median is worse than
the parent's by more than the metric's relative `bound`, `unresolved`
when the parent's interquartile range exceeds that bound of its median
(unless every change run beats every parent run), and `holds` otherwise.
With --json it also writes one record, {"checkouts", "workloads": {W:
{"summary", "pairs", "failed_runs"}}}, the layout of the BENCH_*.json
records, with each checkout's `git rev-parse HEAD` and whether its tree
differs from that commit.  A run that reports `correct:
false` or `failed > 0` is named in the summary, and the tool then exits
1.  The benchmark itself is only run, never changed.

The tool refuses checkouts whose absolute paths differ in length:
`peak_rss_mb` follows the heap layout, and one more character in the
path of an unchanged checkout reads about 0.4 MB higher on exact-sample.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# readings within this relative distance tie: a deterministic answer that
# moves by round-off neither wins a pair nor opens a gap
TIE_TOL = 1e-9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", action="append", dest="workloads", default=None)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--json", type=Path, default=None)
    return p.parse_args(argv)


def declared(checkout):
    """The workload names and the (name, better, bound) of every end-to-end
    metric the checkout's BENCHMARK.json declares."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]], [
        (m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ]


def run_once(checkout, workload, seed, seconds):
    """One benchmark run in `checkout`; its final JSON line as a dict."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    row = {"correct": result["correct"], "failed": result["failed"], "attempted": result["attempted"]}
    row.update({k: v["value"] for k, v in result["metrics"].items()})
    return row


def revision(checkout):
    """The checkout's HEAD commit and whether `git status` lists any change
    in its tree; both None where the checkout is not the top of a git
    work tree."""
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    if git("rev-parse", "--show-toplevel") != str(checkout):
        return {"head": None, "dirty": None}
    return {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def failed_runs(pairs):
    """(pair number, seed, side, correct, failed) of every run whose answer
    checks failed or that failed an operation."""
    return [
        (i + 1, pair["seed"], side, pair[side]["correct"], pair[side]["failed"])
        for i, pair in enumerate(pairs) for side in ("parent", "change")
        if not pair[side]["correct"] or pair[side]["failed"] > 0
    ]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def regression(par, chg, sign, bound):
    """`regressed`, `unresolved` or `holds` (see the module docstring);
    sign is +1 where higher is better and -1 where lower is."""
    pq1, pmed, pq3 = quartiles(par)
    scale = bound * abs(pmed)
    if -sign * (statistics.median(chg) - pmed) > scale:
        return "regressed"
    beats_all = min(chg) > max(par) if sign > 0 else max(chg) < min(par)
    if pq3 - pq1 > scale and not beats_all:
        return "unresolved"
    return "holds"


def _tied(a, b):
    """Whether two readings differ by round-off only (TIE_TOL relative)."""
    return abs(b - a) <= TIE_TOL * max(abs(a), abs(b))


def summarize(pairs, metrics):
    """Per metric: medians, quartiles, wins and the evidence verdicts."""
    out = {}
    for name, better, bound in metrics:
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        sign = -1.0 if better == "lower" else 1.0
        ties = sum(1 for a, b in zip(par, chg) if _tied(a, b))
        wins = sum(1 for a, b in zip(par, chg) if sign * (b - a) > 0.0 and not _tied(a, b))
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        gap = sign * (cmed - pmed) > max(pq3 - pq1, TIE_TOL * max(abs(cmed), abs(pmed)))
        out[name] = {
            "parent_median": pmed, "parent_q1": pq1, "parent_q3": pq3,
            "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
            "change_over_parent": cmed / pmed if pmed else float("nan"),
            "change_wins": wins, "ties": ties, "pairs": len(pairs),
            "gap_exceeds_parent_iqr": gap,
            "gain": "shown" if gap and 10 * wins >= 9 * len(pairs) else "not shown",
            "regression": regression(par, chg, sign, bound),
        }
    return out


def run_pairs(args, workload, metrics):
    """The alternated pairs of one workload, each printed as it ends."""
    pairs = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), workload, seed, args.seconds)
        pairs.append(pair)
        cells = "  ".join(
            f"{name} {pair['parent'][name]:.6g} -> {pair['change'][name]:.6g}" for name, _, _ in metrics
        )
        checks = " ".join(f"{side} correct={pair[side]['correct']} failed={pair[side]['failed']}" for side in order)
        print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): {cells}  [{checks}]",
              flush=True)
    return pairs


def main(argv):
    args = parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        raise SystemExit(
            f"checkout paths differ in length ({parent}: {len(str(parent))}, {change}: "
            f"{len(str(change))}); peak_rss_mb moves with the path length, so copy the "
            "checkouts to paths of equal length"
        )
    workloads, metrics = declared(args.parent)
    record = {"checkouts": {"parent": revision(parent), "change": revision(change)}, "workloads": {}}
    for workload in args.workloads or workloads:
        pairs = run_pairs(args, workload, metrics)
        summary = summarize(pairs, metrics)
        print(f"\n{workload}: {len(pairs)} alternated pairs")
        for name, s in summary.items():
            print(
                f"  {name:12s} parent {s['parent_median']:.6g} [{s['parent_q1']:.6g}, {s['parent_q3']:.6g}]"
                f"  change {s['change_median']:.6g} [{s['change_q1']:.6g}, {s['change_q3']:.6g}]"
                f"  x{s['change_over_parent']:.3f}  won {s['change_wins']}/{s['pairs']}"
                f" (ties {s['ties']})  gap > parent IQR: {'yes' if s['gap_exceeds_parent_iqr'] else 'no'}"
                f"  gain: {s['gain']}  regression: {s['regression']}"
            )
        bad = failed_runs(pairs)
        for number, seed, side, correct, failed in bad:
            print(f"  FAILED: {workload} pair {number} seed {seed} {side}: correct={correct} failed={failed}")
        record["workloads"][workload] = {
            "summary": summary, "pairs": pairs,
            "failed_runs": [dict(zip(("pair", "seed", "side", "correct", "failed"), run)) for run in bad],
        }
        if args.json:  # written after every workload, so a cut run keeps what it measured
            args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if any(entry["failed_runs"] for entry in record["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
