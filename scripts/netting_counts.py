#!/usr/bin/env python3
"""Checks the exact counts of `corpus/netting.dmtl --horizon 0..20`.

    scripts/netting_counts.py STATS.json [STATS.json ...]

Each STATS.json is the `--stats-json` report of one run of it (CI and
`just exact-counts` pass the runs at `--threads 1` and `--threads 2`). Every
run must add 7 200 interval components, its plans must produce 250 020
bindings (`planner.actual_rows`), and the head rows the fixpoint merges (the
sum of the rules' `derivations`) must be fewer than those bindings. Its
lookups must split between the access paths exactly as pinned below: a
missing index or a drift in the access-path decision changes these. Exits 1
with the first failing count otherwise.
"""
import json
import sys

# `totals` of every run: how the lookups reached the relations.
ACCESS_PATHS = {
    "index_probes": 10831,
    "full_scans": 2,
    "scanned_tuples": 0,
    "probed_tuples": 260820,
    "time_index_probes": 31,
}


def check(path):
    with open(path) as f:
        stats = json.load(f)
    added = sum(r["components_added"] for r in stats["rules"])
    bindings = stats["planner"]["actual_rows"]
    rows = sum(r["derivations"] for r in stats["rules"])
    print(f"{path}: {added} components added, {bindings} bindings, {rows} head rows")
    if added != 7200:
        sys.exit(f"{path}: components_added is {added}, expected 7200")
    if bindings != 250020:
        sys.exit(f"{path}: planner.actual_rows is {bindings}, expected 250020")
    if rows >= bindings:
        sys.exit(f"{path}: derivations ({rows}) not below planner.actual_rows ({bindings})")
    totals = stats["totals"]
    for name, want in ACCESS_PATHS.items():
        if totals[name] != want:
            sys.exit(f"{path}: totals.{name} is {totals[name]}, expected {want}")
    print(f"{path}: access paths " + ", ".join(f"{k} {v}" for k, v in ACCESS_PATHS.items()))


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    for path in sys.argv[1:]:
        check(path)


if __name__ == "__main__":
    main()
