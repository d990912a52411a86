#!/usr/bin/env python3
"""Counter-regression gate for the Table 1 telemetry JSON.

Compares a freshly generated BENCH_table1 JSON against the committed
baseline, joining rows on (unit, method).  Units present in only one file
are skipped (the CI smoke run covers a subset of the full baseline sweep).

Checked per row:
  - status ("solved") must match exactly;
  - cost, gates and depth must not increase;
  - the solver-effort counters in GATED_COUNTERS must not regress
    (increase) beyond the tolerance: a row fails when
        fresh > baseline * (1 + tol) + slack.
    Decreases are improvements: they are reported so the baseline can be
    refreshed, but never fail the gate;
  - the counters in STRICT_COUNTERS must not increase at all (no
    tolerance, no slack);
  - the set of counter *names* across the common rows must match — an
    added or removed counter means the instrumentation changed and the
    baseline must be regenerated, so the gate fails with the name diff
    rather than comparing a renamed counter against 0.  Counters under
    the prefixes in INFO_PREFIXES are exempt: they only appear in some
    run modes (e.g. server.* behind a live server), so their presence
    tracks the run configuration rather than the instrumentation, and
    they do not measure solver effort — they are never gated and never
    trip the name-set check.

Counters are deterministic (conflict counts, propagations, SAT calls — no
wall-clock anywhere), so the tolerance only absorbs deliberate small
drifts; the default is 5% plus an absolute slack of 16 for tiny rows.

Re-baselining (after a change that intentionally shifts counters):
    dune exec bench/main.exe -- table1 --json BENCH_table1.json
and commit the result; see EXPERIMENTS.md.

With --exact the gate checks that a change left the search untouched:
both files must hold the same (unit, method) rows, and any difference,
in either direction, in status, verified, cost, gates, depth or the
counters in GATED_COUNTERS and STRICT_COUNTERS fails.  Wall-clock
fields (time) are not compared.  A solver change meant to be a pure
speed-up must pass:
    dune exec bench/main.exe -- table1 -j 1 --json fresh.json
    scripts/check_counters.py fresh.json BENCH_table1.json --exact

Usage: check_counters.py FRESH.json BASELINE.json [--tolerance 0.05 | --exact]
Exit status: 0 clean, 1 regression (or, with --exact, any difference)
found, 2 usage/IO error.
"""

import argparse
import json
import sys

GATED_COUNTERS = [
    "eco.sat_calls",
    "sat.conflicts",
    "sat.propagations",
    "sat.decisions",
    "sat.solves",
]

# Counters where any increase is a regression, with no tolerance or slack.
# eco.discarded_targets counts per-target patches that were computed and
# then thrown away by a Failed path; the baseline sweep solves every unit,
# so this should stay at zero.
STRICT_COUNTERS = [
    "eco.discarded_targets",
]

# Informational counter families: present only under the matching mode
# flag or bench mode, so a baseline and a fresh run may legitimately
# disagree on their presence.  Ignored by the name-set check and never
# gated.  When re-baselining with such a flag enabled, no special handling
# is needed — these names are filtered on both sides.
INFO_PREFIXES = [
    # The ECO service books its request/response traffic and cache hit
    # rates under these; they exist only when a sweep runs through a live
    # server (the serve-stress CI step) and measure service behaviour,
    # not solver effort.
    "server.",
    "cache.",
    # Target discovery books its anchoring/search effort under diff.*;
    # it only runs in the discovery bench, which gates outcome quality
    # (status parity, cost delta vs oracle) itself.  gen.* counters
    # (e.g. gen.targets_clamped) track suite-generation anomalies, not
    # solver effort.
    "diff.",
    "gen.",
    # Patch-sweeping effort (FRAIG classes/proofs, nodes removed) books
    # only on runs that reach the structural path with sweeping enabled;
    # informational for the same reason.
    "eco.sweep.",
]

ABS_SLACK = 16


def informational(name):
    return any(name.startswith(p) for p in INFO_PREFIXES)


def load_rows(path):
    with open(path) as f:
        data = json.load(f)
    rows = {}
    for r in data["rows"]:
        rows[(r["unit"], r["method"])] = r
    return rows


def check_exact(fresh, base, baseline_path):
    """Every row present on both sides, every compared value identical."""
    differences = []
    for key in sorted(set(fresh) ^ set(base)):
        side = "baseline" if key in base else "fresh run"
        differences.append(f"{key[0]}/{key[1]}: only in the {side}")
    for key in sorted(set(fresh) & set(base)):
        f, b = fresh[key], base[key]
        label = f"{key[0]}/{key[1]}"
        for field in ("solved", "verified", "cost", "gates", "depth"):
            if f.get(field) != b.get(field):
                differences.append(f"{label}: {field} {b.get(field)} -> {f.get(field)}")
        fc, bc = f.get("counters", {}), b.get("counters", {})
        for name in GATED_COUNTERS + STRICT_COUNTERS:
            if fc.get(name, 0) != bc.get(name, 0):
                differences.append(f"{label}: {name} {bc.get(name, 0)} -> {fc.get(name, 0)}")
    print(f"compared {len(set(fresh) | set(base))} rows against {baseline_path} (exact)")
    if differences:
        print(f"\n{len(differences)} difference(s):", file=sys.stderr)
        for line in differences:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("identical on status, verified, cost, gates, depth and gated counters")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh")
    ap.add_argument("baseline")
    ap.add_argument("--tolerance", type=float, default=0.05)
    ap.add_argument("--exact", action="store_true",
                    help="fail on any difference in outcome or gated counters")
    args = ap.parse_args()

    try:
        fresh = load_rows(args.fresh)
        base = load_rows(args.baseline)
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.exact:
        return check_exact(fresh, base, args.baseline)

    keys = sorted(set(fresh) & set(base))
    if not keys:
        print("error: no (unit, method) rows in common", file=sys.stderr)
        return 2
    skipped = sorted(set(base) - set(fresh))
    if skipped:
        units = sorted({u for u, _ in skipped})
        print(f"note: baseline units not in this run (skipped): {', '.join(units)}")

    failures = []
    improvements = []

    # A changed counter *name set* means the instrumentation itself moved
    # (counters added or removed), which makes per-name comparisons
    # meaningless: a renamed counter would silently compare against 0.
    # Fail with the explicit name diff instead of a confusing per-row
    # mismatch, and point at the re-baselining recipe.
    fresh_names = set()
    base_names = set()
    for key in keys:
        fresh_names |= {n for n in fresh[key].get("counters", {}) if not informational(n)}
        base_names |= {n for n in base[key].get("counters", {}) if not informational(n)}
    added = sorted(fresh_names - base_names)
    removed = sorted(base_names - fresh_names)
    if added or removed:
        print("error: counter name set changed between baseline and fresh run",
              file=sys.stderr)
        if added:
            print(f"  added (in fresh, not in baseline): {', '.join(added)}",
                  file=sys.stderr)
        if removed:
            print(f"  removed (in baseline, not in fresh): {', '.join(removed)}",
                  file=sys.stderr)
        print("  if the change is intentional, re-baseline with:\n"
              "    dune exec bench/main.exe -- table1 --json BENCH_table1.json\n"
              "  and commit the result (see EXPERIMENTS.md).", file=sys.stderr)
        return 1

    for key in keys:
        f, b = fresh[key], base[key]
        label = f"{key[0]}/{key[1]}"

        if f.get("solved") != b.get("solved"):
            failures.append(f"{label}: status changed {b.get('solved')} -> {f.get('solved')}")
            continue
        for field in ("cost", "gates", "depth"):
            fv, bv = f.get(field), b.get(field)
            if fv is None or bv is None:
                continue
            if fv > bv:
                failures.append(f"{label}: {field} regressed {bv} -> {fv}")
            elif fv < bv:
                improvements.append(f"{label}: {field} improved {bv} -> {fv}")

        fc = f.get("counters", {})
        bc = b.get("counters", {})
        for name in GATED_COUNTERS:
            fv, bv = fc.get(name, 0), bc.get(name, 0)
            limit = bv * (1 + args.tolerance) + ABS_SLACK
            if fv > limit:
                failures.append(
                    f"{label}: {name} regressed {bv} -> {fv} (limit {limit:.0f})"
                )
            elif fv < bv * (1 - args.tolerance) - ABS_SLACK:
                improvements.append(f"{label}: {name} improved {bv} -> {fv}")
        for name in STRICT_COUNTERS:
            fv, bv = fc.get(name, 0), bc.get(name, 0)
            if fv > bv:
                failures.append(
                    f"{label}: {name} increased {bv} -> {fv} (strict: no increase allowed)"
                )
            elif fv < bv:
                improvements.append(f"{label}: {name} improved {bv} -> {fv}")

    print(f"checked {len(keys)} rows against {args.baseline}")
    if improvements:
        print(f"\n{len(improvements)} improvement(s) — consider re-baselining:")
        for line in improvements:
            print(f"  {line}")
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("no counter regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
