#!/usr/bin/env python3
"""Compare the benchmark of a base commit with the working tree, in pairs.

    python3 tools/bench_pairs.py --base HEAD --workloads pushdown server \
        --seeds 1 2 3 4 5 6 7 8 9 10 --pairs 10

Run from the repository root. The base commit is exported with `git archive`
into a scratch directory (no worktree is registered in the repository); the
working tree is benchmarked as it is, uncommitted changes included. For each
workload, pair i runs `perfbench/run.py` once on each side with seed
`seeds[i % len(seeds)]`; the side that runs first alternates from pair to
pair, so a slow drift of the host does not favour one side. The report gives,
per workload and metric, each side's median and quartiles, how many pairs the
working tree won, and every failed operation or run. After the table, each
end-to-end metric of BENCHMARK.json gets a verdict against its bound:
`worse` if the working tree's median is worse than the base's by more than
the bound, else `ok` if every working-tree run is better than every base
run, else `unresolved` if the base's interquartile range is wider than the
bound (relative to its median), else `ok`.

With `--claim METRIC WORKLOAD`, the script also prints whether a claimed gain
on that metric and workload is `met`: the working tree wins at least nine
tenths of all pairs run (ties and failed runs count for neither side), and
its median is better than the base's by more than the base's interquartile
range.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(commit, dest):
    """Write the files of `commit` to `dest`, unless an earlier call did."""
    if os.path.isdir(dest):
        return
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run; the parsed result line, or None if the run failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def load_spec():
    """(metric name -> True if higher is better, end-to-end metric name ->
    bound), from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    higher = {m["name"]: m["better"] == "higher"
              for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    return higher, bounds


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def relative(x, ref):
    """(x - ref) / |ref|; 0 when both are 0, infinite when only ref is."""
    if ref:
        return (x - ref) / abs(ref)
    return 0.0 if x == ref else math.copysign(math.inf, x - ref)


def verdict(b, w, up, bound):
    """`ok`, `worse` or `unresolved` for one metric's base and work runs."""
    bq, wq = quartiles(b), quartiles(w)
    worse_by = relative(wq[1], bq[1]) * (-1 if up else 1)
    if worse_by > bound:
        return "worse"
    # runs that do not overlap, all in the better direction, resolve the
    # metric however wide the base's spread
    if (min(w) > max(b)) if up else (max(w) < min(b)):
        return "ok"
    if relative(bq[2], bq[1]) - relative(bq[0], bq[1]) > bound:
        return "unresolved"
    return "ok"


def claim_met(b, w, up, pairs_run):
    """Whether the working tree's runs `w` beat the base's runs `b` by the
    claim rule, and the line that says why."""
    wins = sum(1 for x, y in zip(b, w) if (y > x if up else y < x))
    bq, wq = quartiles(b), quartiles(w)
    gain = (wq[1] - bq[1]) * (1 if up else -1)
    met = wins * 10 >= 9 * pairs_run and gain > bq[2] - bq[0]
    why = (f"{wins}/{pairs_run} pairs won, median {bq[1]:.4g} -> {wq[1]:.4g}"
           f" (gain {gain:.4g}), base IQR {bq[2] - bq[0]:.4g}")
    return met, why


def report(workload, pairs, higher, bounds):
    """Print one workload's table and verdicts, and return each metric's
    (base runs, work runs) over the pairs where both runs succeeded. `pairs`
    is a list of (seed, base, work)."""
    print(f"\n== {workload}: {len(pairs)} pairs")
    for seed, b, w in pairs:
        for side, r in (("base", b), ("work", w)):
            if r is None:
                print(f"   {side} seed {seed}: run failed")
            elif r["failed"] or not r["correct"]:
                print(f"   {side} seed {seed}: {r['failed']} of {r['attempted']} ops failed,"
                      f" correct={r['correct']}")
    done = [(b, w) for _, b, w in pairs if b is not None and w is not None]
    if not done:
        return {}
    names = sorted(set(done[0][0]["metrics"]) & set(done[0][1]["metrics"]))
    print(f"   {'metric':34} {'base q1 / median / q3':>30} {'work q1 / median / q3':>30}"
          f" {'change':>8} {'won':>6}")
    values = {}
    for name in names:
        b = [p[0]["metrics"][name]["value"] for p in done if name in p[0]["metrics"]]
        w = [p[1]["metrics"][name]["value"] for p in done if name in p[1]["metrics"]]
        if len(b) != len(done) or len(w) != len(done):
            continue
        values[name] = b, w
        up = higher.get(name, False)
        won = sum(1 for x, y in zip(b, w) if (y > x if up else y < x))
        bq, wq = quartiles(b), quartiles(w)
        change = relative(wq[1], bq[1]) * 100
        fmt = lambda q: f"{q[0]:.4g} / {q[1]:.4g} / {q[2]:.4g}"
        print(f"   {name:34} {fmt(bq):>30} {fmt(wq):>30} {change:+7.1f}% {won:>3}/{len(done)}")
    print("   verdicts against the BENCHMARK.json bounds:")
    for name, bound in bounds.items():
        v = verdict(*values[name], higher[name], bound) if name in values else "missing"
        print(f"   {name:34} bound {bound:<5} {v}")
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    ap.add_argument("--workloads", nargs="+", default=["pushdown", "server"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--pairs", type=int, default=3, help="pairs per workload")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scratch", help="directory for the base checkout, kept for later calls"
                                      " (default: a temp dir, removed at the end)")
    ap.add_argument("--json", help="also write every run's result line to this file")
    ap.add_argument("--claim", nargs=2, metavar=("METRIC", "WORKLOAD"),
                    help="print whether a claimed gain on METRIC for WORKLOAD is met")
    a = ap.parse_args()
    if a.claim and a.claim[1] not in a.workloads:
        ap.error(f"--claim workload {a.claim[1]} is not among --workloads")
    sys.stdout.reconfigure(line_buffering=True)  # each report shows as soon as it is done

    scratch = a.scratch or tempfile.mkdtemp(prefix="bench_pairs_")
    sha = subprocess.run(["git", "rev-parse", a.base], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    base = os.path.join(scratch, f"base-{sha[:12]}")  # kept with --scratch: its build is cached
    export(sha, base)
    higher, bounds = load_spec()
    if a.claim and a.claim[0] not in higher:
        sys.exit(f"--claim metric {a.claim[0]} is not in BENCHMARK.json")
    runs = {}
    try:
        for workload in a.workloads:
            pairs = []
            for i in range(a.pairs):
                seed = a.seeds[i % len(a.seeds)]
                order = [("base", base), ("work", ROOT)]
                if i % 2:
                    order.reverse()
                got = {}
                for side, checkout in order:
                    got[side] = run_once(checkout, workload, seed, a.seconds, a.trace)
                    print(f"{workload} pair {i + 1} seed {seed} {side}: "
                          f"{'failed' if got[side] is None else 'done'}", file=sys.stderr)
                pairs.append((seed, got["base"], got["work"]))
            runs[workload] = pairs
            values = report(workload, pairs, higher, bounds)
            if a.claim and a.claim[1] == workload:
                metric = a.claim[0]
                if metric in values:
                    met, why = claim_met(*values[metric], higher[metric], len(pairs))
                    print(f"   claim {metric} on {workload}: {'met' if met else 'not met'} ({why})")
                else:
                    print(f"   claim {metric} on {workload}: not met (no complete pair)")
    finally:
        if not a.scratch:
            shutil.rmtree(scratch, ignore_errors=True)
    if a.json:
        with open(a.json, "w") as f:
            json.dump({w: [{"seed": s, "base": b, "work": r} for s, b, r in ps]
                       for w, ps in runs.items()}, f, indent=1)


if __name__ == "__main__":
    main()
