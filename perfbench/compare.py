#!/usr/bin/env python3
"""Collect and compare run sets of the repository benchmark.

Run from the root of a checkout:

  python3 perfbench/compare.py collect OUT [--seeds 1-10] [--workloads a,b] [--trace 0|1]
      Runs BENCHMARK.json's command once per workload and seed and appends
      one line per run to OUT.
  python3 perfbench/compare.py spread RUNS
      The steadiness check: per workload and end-to-end metric, the
      distance between the quartiles of the runs as a share of their
      median, against the metric's bound.
  python3 perfbench/compare.py diff RUNS_A RUNS_B
      Per metric and workload: medians, quartiles, the share of same-seed
      pairs B wins, and a verdict against the BENCHMARK.json bound.
      Exits 1 when a metric regressed or a clock-free field differs.
  python3 perfbench/compare.py profile SPANS [--out FILE]
      Folds a --spans file into the "where the time goes" table, and
      writes its run and summary lines to FILE.

A run set is a JSON Lines file; each line holds "workload", "seed",
"trace" and "result", the benchmark's own last line of output.
"""

import json
import statistics
import subprocess
import sys

# Workloads whose operations run concurrently: their per-layer counts
# depend on how many passes fit in a run, so they are compared as
# measurements, not as exact counts.
CONCURRENT = {"service"}

# Units of counts and of ratios of counts, which repeat exactly when the
# program is deterministic.
CLOCK_FREE_UNITS = {"count", "ratio"}


def load_benchmark(path="BENCHMARK.json"):
    with open(path) as f:
        bench = json.load(f)
    metrics = {}
    for m in bench["end_to_end"]:
        metrics[m["name"]] = dict(m, level="end_to_end")
    for m in bench["per_layer"]:
        metrics[m["name"]] = dict(m, level="per_layer", bound=None)
    return bench, metrics


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def better_than(x, y, better):
    return x < y if better == "lower" else x > y


def verdict(a, b, better, bound, exact, pairs=None):
    """Verdict of run set B against run set A for one metric.

    exact: the metric is a clock-free count, which must not vary within a
    set or differ between them.  bound: the share by which B's median may
    be worse than A's (None for per-layer metrics, which have none).
    pairs: (a, b) values of same-seed runs, for the win share.
    """
    if exact:
        if len(set(a)) > 1 or len(set(b)) > 1:
            return "varies"
        return "same" if a[0] == b[0] else "changed"
    ma, mb = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    pairs = pairs if pairs is not None else list(zip(a, b))
    decided = [p for p in pairs if p[0] != p[1]]
    wins = sum(better_than(y, x, better) for x, y in decided) / len(decided) if decided else 0.0
    all_better = all(better_than(y, x, better) for x in a for y in b)
    if wins >= 0.9 and abs(mb - ma) > q3 - q1 and better_than(mb, ma, better):
        return "win"
    if bound is None:
        return "-"
    worse = (mb - ma) / abs(ma) if ma else 0.0
    if better == "higher":
        worse = -worse
    if spread(a) > bound and not all_better:
        return "unresolved"
    return "regressed" if worse > bound else "same"


def values_by(runs, workload, metric):
    return {
        r["seed"]: r["result"]["metrics"][metric]["value"]
        for r in runs
        if r["workload"] == workload and metric in r["result"]["metrics"]
    }


def cmd_collect(args):
    out = args[0]
    seeds, workloads, trace = parse_seeds("1-10"), None, "0"
    rest = args[1:]
    while rest:
        flag, value, rest = rest[0], rest[1], rest[2:]
        if flag == "--seeds":
            seeds = parse_seeds(value)
        elif flag == "--workloads":
            workloads = value.split(",")
        elif flag == "--trace":
            trace = value
        else:
            sys.exit("unknown option " + flag)
    bench, _ = load_benchmark()
    workloads = workloads or [w["name"] for w in bench["workloads"]]
    with open(out, "a") as f:
        for workload in workloads:
            for seed in seeds:
                cmd = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", trace,
                ]
                p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    sys.exit(f"{workload} seed {seed}: exit {p.returncode}")
                result = json.loads(lines[-1])
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": int(trace), "result": result}) + "\n")
                f.flush()
                print(f"{workload} seed {seed}: failed {result['failed']}", file=sys.stderr)


def cmd_spread(args):
    runs = load_runs(args[0])
    bench, _ = load_benchmark()
    bad = False
    print(f"{'workload':10} {'metric':18} {'runs':>4} {'median':>12} {'spread':>8} "
          f"{'bound':>6}  check")
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            vals = list(values_by(runs, w["name"], m["name"]).values())
            if not vals:
                continue
            s = spread(vals)
            if m["name"] == "setup_s":
                check = "(not checked)"
            elif s <= m["bound"] / 3:
                check = "ok"
            elif s <= m["bound"]:
                check = "within bound, above a third"
            else:
                check, bad = "TOO WIDE", True
            print(f"{w['name']:10} {m['name']:18} {len(vals):4d} {statistics.median(vals):12.6g} "
                  f"{s:8.4f} {m['bound']:6.3f}  {check}")
    failed = [r for r in runs if not r["result"]["correct"]]
    if failed:
        print(f"{len(failed)} runs reported incorrect outputs")
    return 1 if bad or failed else 0


def cmd_diff(args):
    a_runs, b_runs = load_runs(args[0]), load_runs(args[1])
    bench, metrics = load_benchmark()
    failing = []
    print(f"{'workload':10} {'metric':34} {'median A':>12} {'median B':>12} {'IQR A':>21} "
          f"{'IQR B':>21} {'wins':>5}  verdict")
    for w in [w["name"] for w in bench["workloads"]]:
        for name, m in metrics.items():
            a, b = values_by(a_runs, w, name), values_by(b_runs, w, name)
            if not a or not b:
                continue
            exact = m["unit"] in CLOCK_FREE_UNITS and not (
                m["level"] == "per_layer" and w in CONCURRENT)
            pairs = [(a[s], b[s]) for s in a if s in b]
            av, bv = list(a.values()), list(b.values())
            v = verdict(av, bv, m["better"], m["bound"], exact, pairs)
            decided = [p for p in pairs if p[0] != p[1]]
            wins = sum(better_than(y, x, m["better"]) for x, y in decided)
            qa, qb = quartiles(av), quartiles(bv)
            print(f"{w:10} {name:34} {statistics.median(av):12.6g} {statistics.median(bv):12.6g} "
                  f"{qa[0]:10.4g}-{qa[1]:<10.4g} {qb[0]:10.4g}-{qb[1]:<10.4g} "
                  f"{wins:2d}/{len(decided):<2d}  {v}")
            if v in ("regressed", "changed", "varies"):
                failing.append(f"{w} {name}: {v}")
    for f in failing:
        print("FAIL " + f)
    return 1 if failing else 0


def cmd_profile(args):
    with open(args[0]) as f:
        lines = [d for d in map(json.loads, f) if d["kind"] in ("run", "summary")]
    run, summary = lines[0], lines[-1]
    ops_s = summary["ops_s"]
    print(f"{run['workload']} (seed {run['seed']}): traced operations take {ops_s:.3f} s a pass")
    print()
    print("| phase | calls/pass | self s/pass | share of op time | SAT props/pass |")
    print("|---|---:|---:|---:|---:|")
    accounted = 0.0
    for p in sorted(summary["phases"], key=lambda p: -p["self_s"]):
        accounted += p["self_s"]
        if p["self_s"] >= 0.001 * ops_s:
            print(f"| {p['path']} | {p['calls']:g} | {p['self_s']:.3f} | "
                  f"{100 * p['self_s'] / ops_s:.1f}% | {p['sat_props']:.0f} |")
    print(f"| (outside any phase) | | {ops_s - accounted:.3f} | "
          f"{100 * (ops_s - accounted) / ops_s:.1f}% | |")
    print()
    print("| timed call | calls/pass | s/pass | share of op time |")
    print("|---|---:|---:|---:|")
    for c in summary["calls"]:
        print(f"| {c['name']} | {c['calls']:g} | {c['seconds']:.3f} | "
              f"{100 * c['seconds'] / ops_s:.1f}% |")
    if "--out" in args:
        with open(args[args.index("--out") + 1], "w") as f:
            for line in (run, summary):
                f.write(json.dumps(line) + "\n")
    return 0


def main(argv):
    commands = {"collect": cmd_collect, "spread": cmd_spread, "diff": cmd_diff,
                "profile": cmd_profile}
    if len(argv) < 2 or argv[0] not in commands:
        sys.exit(__doc__)
    return commands[argv[0]](argv[1:]) or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
