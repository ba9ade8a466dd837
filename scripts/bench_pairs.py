#!/usr/bin/env python3
"""Alternating driver-style benchmark pairs: a baseline revision against the
working tree.

    scripts/bench_pairs.py REV WORKLOAD [PAIRS]

Checks REV out into a temporary directory (`git archive`, removed on exit;
set TMPDIR to choose where), builds the benchmark of both trees, then runs
PAIRS pairs of the BENCHMARK.json command — seed i for pair i, the side that
goes first alternating — and prints, per end-to-end metric, each side's
median and quartiles and how many pairs the working tree won. The rule for
claiming a gain (docs/PERFORMANCE.md): at least nine wins in ten, and a
median difference larger than the baseline's own interquartile range.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def run_once(tree, command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, check=True, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3


def main():
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    rev, workload = sys.argv[1], sys.argv[2]
    pairs = int(sys.argv[3]) if len(sys.argv) == 4 else 10
    if pairs < 2:
        sys.exit("need at least two pairs for quartiles")
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    command, seconds = spec["command"], spec["run_seconds"]
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]

    base = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        archive = subprocess.Popen(["git", "archive", rev], cwd=root,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", base], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"git archive {rev} failed")
        trees = {"base": base, "tree": root}
        for tree in trees.values():
            subprocess.run(["cargo", "build", "--release", "--quiet", "--offline",
                            "--manifest-path", "benchmark/Cargo.toml"],
                           cwd=tree, check=True)
        results = {"base": [], "tree": []}
        for i in range(pairs):
            order = ("base", "tree") if i % 2 == 0 else ("tree", "base")
            for side in order:
                results[side].append(run_once(trees[side], command, workload, i, seconds))
            row = "  ".join(
                f"{name} {results['base'][-1]['metrics'][name]['value']:.4g}"
                f" -> {results['tree'][-1]['metrics'][name]['value']:.4g}"
                for name, _ in metrics)
            print(f"pair {i + 1} (seed {i}, {order[0]} first): {row}", flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    print(f"\n{workload}: {rev} (base) vs working tree, {pairs} alternating pairs")
    for name, better in metrics:
        b = [r["metrics"][name]["value"] for r in results["base"]]
        t = [r["metrics"][name]["value"] for r in results["tree"]]
        sign = -1 if better == "lower" else 1
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, t))
        ties = sum(x == y for x, y in zip(b, t))
        (bm, bq1, bq3), (tm, tq1, tq3) = spread(b), spread(t)
        print(f"  {name:<10} base {bm:.6g} [{bq1:.6g}, {bq3:.6g}]"
              f"  tree {tm:.6g} [{tq1:.6g}, {tq3:.6g}]"
              f"  tree/base {tm / bm:.3f}  wins {wins}/{pairs} ties {ties}"
              f"  base IQR {bq3 - bq1:.3g}")
    for side in ("base", "tree"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print(f"  {side} failed {failed} of {attempted} operations")


if __name__ == "__main__":
    main()
