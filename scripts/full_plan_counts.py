#!/usr/bin/env python3
"""Checks that every rule runs semi-naive: a full plan runs once per stratum run.

    scripts/full_plan_counts.py BATCH.json SESSION.json

BATCH.json and SESSION.json are the `--stats-json` reports of one program run
in batch and with `--session`. A rule's full plan (`delta_literal` -1) is
round 0 of its stratum; every later round runs the semi-naive variants. So in
the batch report each full plan executed exactly once, and in the session
report, where every advance runs every stratum once, all full plans executed
equally often. Exits 1 with the first failing plan otherwise.
"""
import json
import sys


def full_plans(path):
    with open(path) as f:
        plans = json.load(f)["planner"]["plans"]
    full = [(p["label"], p["executions"]) for p in plans if p["delta_literal"] == -1]
    if not full:
        sys.exit(f"{path}: no full plan ran")
    print(f"{path}: full plan executions " + ", ".join(f"{l} {n}" for l, n in full))
    return full


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    batch, session = sys.argv[1:]
    for label, n in full_plans(batch):
        if n != 1:
            sys.exit(f"{batch}: full plan {label} executed {n} times, expected 1")
    runs = {n for _, n in full_plans(session)}
    if len(runs) != 1:
        sys.exit(f"{session}: full plans executed {sorted(runs)} times, expected one count")


if __name__ == "__main__":
    main()
