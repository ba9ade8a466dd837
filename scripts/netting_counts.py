#!/usr/bin/env python3
"""Checks the exact counts of `corpus/netting.dmtl --horizon 0..20`.

    scripts/netting_counts.py STATS.json

STATS.json is the run's `--stats-json` report. The run must add 7 200
interval components, its plans must produce 250 020 bindings
(`planner.actual_rows`), and the head rows the fixpoint merges (the sum of
the rules' `derivations`) must be fewer than those bindings. Exits 1 with
the failing count otherwise.
"""
import json
import sys


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        stats = json.load(f)
    added = sum(r["components_added"] for r in stats["rules"])
    bindings = stats["planner"]["actual_rows"]
    rows = sum(r["derivations"] for r in stats["rules"])
    print(f"netting: {added} components added, {bindings} bindings, {rows} head rows")
    if added != 7200:
        sys.exit(f"components_added is {added}, expected 7200")
    if bindings != 250020:
        sys.exit(f"planner.actual_rows is {bindings}, expected 250020")
    if rows >= bindings:
        sys.exit(f"derivations ({rows}) not below planner.actual_rows ({bindings})")


if __name__ == "__main__":
    main()
