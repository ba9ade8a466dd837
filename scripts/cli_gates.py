#!/usr/bin/env python3
"""The deterministic CLI gates: exact counts and explanations.

    scripts/cli_gates.py exact-counts [--bin CHRONOLOG]
    scripts/cli_gates.py explain-modes [--bin CHRONOLOG]

Without `--bin`, builds the release CLI (`cargo build --release -p
chronolog-cli`) and runs `target/release/chronolog` (or the one under
`$CARGO_TARGET_DIR`). Every run is deterministic and independent of the
machine; each check prints what it read, and the first failing one exits 1.

exact-counts:
  * margin: `corpus/margin.dmtl --horizon 0..2000` derives the same facts in
    batch and with `--session`; both reports store the persistence runs as
    progressions (under 1 KiB of interval arena) and carry none of the
    retired planner feedback fields; the session builds no plan the batch
    run did not (an advance is a batch run over its window); and both
    reports' rule evaluations and rounds per stratum are those in PINNED.
    An advance that only continues the margin runs ends its stratum after
    round 0's frame phase, and a round with no task is not run.
  * netting: `corpus/netting.dmtl --horizon 0..20` at `--threads 1` and `2`
    prints the same facts and the same `--explain-plans` report (every
    plan's executions and rows). Both reports add the pinned number of
    components, their plans produce the pinned number of bindings
    (`planner.actual_rows`), the head rows the fixpoint merges (the sum of
    the rules' `derivations`) are the pinned number, fewer than those
    bindings, and the lookups
    split between the access paths exactly as pinned: an index the plans
    fail to declare, or a drift in the access-path decision, fails here.
  * past recursion: `crates/cli/tests/fixtures/past_recursion.dmtl
    --horizon 0..40` (recursion through `boxminus[1, 2]` and `since[0, 3]`)
    derives the same facts in batch and with `--session`, and every rule
    runs semi-naive: each full plan (`delta_literal` -1) runs once in batch,
    and all of them equally often in the session.

explain-modes: a derivation tree is computed from the model, so a session
explains a fact byte for byte as the batch run does, also after a
correction stream that leaves the surviving facts as they were. The margin
tree jumps a persistence run in one step.
"""
import json
import os
import subprocess
import sys
import tempfile

# The pinned counts of `exact-counts`.
PINNED = {
    # `totals.rule_evaluations` and `totals.iterations` (rounds per stratum).
    "margin": {
        "batch": (13, [1, 2, 4]),
        "session": (40, [5, 6, 7]),
    },
    "margin_interval_bytes_below": 1024,
    # Per netting run: Σ rules.components_added, planner.actual_rows, the
    # head rows (Σ rules.derivations), and how the lookups reached the
    # relations (`totals`).
    "netting": {
        "components_added": 7200,
        "actual_rows": 226980,
        "head_rows": 9660,
        "access_paths": {
            "index_probes": 7212,
            "full_scans": 1,
            "scanned_tuples": 0,
            "probed_tuples": 234180,
            "time_index_probes": 12,
        },
    },
}

PAST = "crates/cli/tests/fixtures/past_recursion.dmtl"
MARGIN_TREE_ROOT = "margin(acc123, 100.0)@14   [by rule #5, held since @11]"


def fail(message):
    sys.exit(f"FAILED: {message}")


class Cli:
    """Runs `chronolog run …`, writing reports into a temporary directory."""

    def __init__(self, binary, out):
        self.binary, self.out = binary, out

    def path(self, name):
        return os.path.join(self.out, name)

    def run(self, *args):
        done = subprocess.run([self.binary, "run", *args], capture_output=True, text=True)
        if done.returncode != 0:
            fail(f"chronolog run {' '.join(args)} exited {done.returncode}: {done.stderr}")
        return done.stdout

    def report(self, name, *args):
        """Runs with `--stats-json`; returns (stdout, report text, report)."""
        path = self.path(name)
        stdout = self.run(*args, "--stats-json", path)
        with open(path) as f:
            text = f.read()
        return stdout, text, json.loads(text)


def same(what, a, b):
    if a != b:
        fail(f"{what} differ")
    print(f"{what}: identical")


def check_margin(cli):
    base = ("corpus/margin.dmtl", "--horizon", "0..2000", "--facts")
    runs = {
        "batch": cli.report("margin-batch.json", *base),
        "session": cli.report("margin-session.json", *base, "--session"),
    }
    same("margin facts, batch and session", runs["batch"][0], runs["session"][0])
    for mode, (_, text, report) in runs.items():
        arena, bound = report["storage"]["interval_bytes"], PINNED["margin_interval_bytes_below"]
        print(f"margin {mode}: {arena} interval bytes")
        if arena >= bound:
            fail(f"margin {mode}: {arena} interval bytes, expected fewer than {bound}")
        for retired in ("replans_triggered", "misestimates"):
            if f'"{retired}"' in text:
                fail(f"margin {mode}: the report has the retired field {retired}")
        totals = report["totals"]
        got = (totals["rule_evaluations"], totals["iterations"])
        print(f"margin {mode}: {got[0]} rule evaluations, rounds per stratum {got[1]}")
        if got != PINNED["margin"][mode]:
            fail(f"margin {mode}: expected {PINNED['margin'][mode]}")
    plans = {mode: run[2]["planner"]["plans_built"] for mode, run in runs.items()}
    print(f"margin plans built: batch {plans['batch']}, session {plans['session']}")
    if plans["session"] > plans["batch"]:
        fail("the margin session built a plan the batch run did not")


def check_netting(cli):
    want = PINNED["netting"]
    facts, explained = {}, {}
    for threads in ("1", "2"):
        base = ("corpus/netting.dmtl", "--horizon", "0..20", "--threads", threads)
        facts[threads], _, report = cli.report(f"netting-{threads}.json", *base, "--facts")
        explained[threads] = cli.run(*base, "--explain-plans")
        added = sum(r["components_added"] for r in report["rules"])
        bindings = report["planner"]["actual_rows"]
        rows = sum(r["derivations"] for r in report["rules"])
        print(f"netting --threads {threads}: {added} components added, "
              f"{bindings} bindings, {rows} head rows")
        if added != want["components_added"]:
            fail(f"netting: components_added is {added}, expected {want['components_added']}")
        if bindings != want["actual_rows"]:
            fail(f"netting: planner.actual_rows is {bindings}, expected {want['actual_rows']}")
        if rows != want["head_rows"]:
            fail(f"netting: derivations sum to {rows}, expected {want['head_rows']}")
        if rows >= bindings:
            fail(f"netting: derivations ({rows}) not below planner.actual_rows ({bindings})")
        totals = report["totals"]
        for name, pinned in want["access_paths"].items():
            if totals[name] != pinned:
                fail(f"netting: totals.{name} is {totals[name]}, expected {pinned}")
        print("netting access paths: "
              + ", ".join(f"{k} {v}" for k, v in want["access_paths"].items()))
    same("netting facts at 1 and 2 threads", facts["1"], facts["2"])
    same("netting --explain-plans at 1 and 2 threads", explained["1"], explained["2"])


def full_plan_runs(name, report):
    full = [(p["label"], p["executions"])
            for p in report["planner"]["plans"] if p["delta_literal"] == -1]
    if not full:
        fail(f"{name}: no full plan ran")
    print(f"{name}: full plan executions " + ", ".join(f"{l} {n}" for l, n in full))
    return full


def check_past_recursion(cli):
    base = (PAST, "--horizon", "0..40", "--facts")
    batch, _, batch_report = cli.report("past-batch.json", *base)
    session, _, session_report = cli.report("past-session.json", *base, "--session")
    same("past-recursion facts, batch and session", batch, session)
    for label, n in full_plan_runs("past-recursion batch", batch_report):
        if n != 1:
            fail(f"past-recursion batch: full plan {label} executed {n} times, expected 1")
    runs = {n for _, n in full_plan_runs("past-recursion session", session_report)}
    if len(runs) != 1:
        fail(f"past-recursion session: full plans executed {sorted(runs)} times, "
             "expected one count")


def exact_counts(cli):
    check_margin(cli)
    check_netting(cli)
    check_past_recursion(cli)


def explain_modes(cli):
    margin = ("corpus/margin.dmtl", "--horizon", "0..20",
              "--explain", "margin(acc123, 100.0)@14")
    batch = cli.run(*margin)
    same("margin explanation, batch and session", batch, cli.run(*margin, "--session"))
    if MARGIN_TREE_ROOT not in batch:
        fail(f"the margin explanation does not start with `{MARGIN_TREE_ROOT}`")
    netting = ("corpus/netting.dmtl", "--horizon", "0..20",
               "--explain", "exposure(cp0, cp2)@10")
    streamed = cli.run(*netting, "--session", "--stream", "corpus/netting.stream")
    same("netting explanation, batch and corrected session", cli.run(*netting), streamed)


GATES = {"exact-counts": exact_counts, "explain-modes": explain_modes}


def release_cli():
    subprocess.run(["cargo", "build", "--release", "-q", "-p", "chronolog-cli"], check=True)
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    return os.path.abspath(os.path.join(target, "release", "chronolog"))


def main():
    args = sys.argv[1:]
    if len(args) not in (1, 3) or args[0] not in GATES or (len(args) == 3 and args[1] != "--bin"):
        sys.exit(__doc__)
    binary = os.path.abspath(args[2]) if len(args) == 3 else None
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    binary = binary or release_cli()
    with tempfile.TemporaryDirectory() as out:
        GATES[args[0]](Cli(binary, out))
    print(f"{args[0]}: ok")


if __name__ == "__main__":
    main()
