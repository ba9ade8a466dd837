#!/usr/bin/env python3
"""Checks the exact counts of `corpus/margin.dmtl --horizon 0..2000`.

    scripts/margin_counts.py BATCH.json SESSION.json

BATCH.json and SESSION.json are the `--stats-json` reports of the run in
batch and with `--session` (their facts are diffed beside this check). The
batch run's rule evaluations and rounds per stratum are pinned; so are the
session's. An advance that only continues the margin runs extends them in
round 0's frame phase and ends the stratum after that round. A rule that
re-reads the continued runs as a delta adds rounds and evaluations to the
session counts. Exits 1 with the first failing count otherwise.
"""
import json
import sys

# `totals.rule_evaluations` and `totals.iterations` (rounds per stratum).
PINNED = {
    "batch": (13, [2, 3, 4]),
    "session": (40, [8, 6, 7]),
}


def check(path, mode):
    with open(path) as f:
        totals = json.load(f)["totals"]
    evaluations, iterations = totals["rule_evaluations"], totals["iterations"]
    print(f"{path}: {evaluations} rule evaluations, rounds per stratum {iterations}")
    want_evaluations, want_iterations = PINNED[mode]
    if evaluations != want_evaluations:
        sys.exit(f"{path}: rule_evaluations is {evaluations}, expected {want_evaluations}")
    if iterations != want_iterations:
        sys.exit(f"{path}: iterations is {iterations}, expected {want_iterations}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    check(sys.argv[1], "batch")
    check(sys.argv[2], "session")


if __name__ == "__main__":
    main()
