# Developer entry points. Everything here is also what CI runs — keep the
# two in sync (.github/workflows/ci.yml).

# Run the full gate: format, lints, build, tests, docs.
check: fmt-check clippy test doc

# Build the workspace (debug).
build:
    cargo build --workspace

# Build optimized binaries (the repro numbers are only meaningful here).
release:
    cargo build --release --workspace

# Run every test in the workspace.
test:
    cargo test --workspace

# Release-profile slow suite: the netting churn replays in
# crates/cli/tests/repair_corpus.rs, the release-gated ETH-PERP
# equivalence tests (cfg_attr(debug_assertions, ignore)) and netting
# against the oracle over its whole [0, 20] span (a debug build checks
# [0, 1]). CI mirrors this in the "Slow release suite" step.
test-slow:
    cargo test --release -p chronolog-cli --test repair_corpus
    cargo test --release -p chronolog-perp
    cargo test --release -p chronolog-core --test plan_equivalence

# Rustdoc with warnings as errors: a doc link to a private or deleted item
# fails the gate. CI mirrors this in the "Docs" step.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# The end-to-end benchmark's own tests plus a tenth-size run of every
# workload with all output oracles on (non-zero exit on any failed
# operation). CI mirrors this; `benchmark/README.md` has the full runs.
bench-e2e-smoke:
    cargo test --manifest-path benchmark/Cargo.toml
    cargo run --release --manifest-path benchmark/Cargo.toml -- run --smoke

# The exact-count gate CI runs: the margin corpus over a 2 000 s horizon
# derives the same facts batch and streamed, stores its persistence runs as
# progressions (under 1 KiB of interval arena), and plans each rule variant
# once: an advance is a batch run over its window, so the session uses at
# most the batch run's plans, however many advances it makes, and neither
# report has the retired feedback fields.
# The netting leg pins both counts of a rule evaluation: 250 020 bindings
# out of the plans' last joins (`planner.actual_rows`) become fewer head
# rows (Σ `derivations`), adding 7 200 components, and the facts and the
# `--explain-plans` report (every plan's executions and rows) at two threads
# are those at one. At both thread counts the lookups split
# between the access paths exactly as the script pins them.
# The past-recursion leg recurses through `boxminus[1, 2]` and
# `since[0, 3]`: batch and streamed facts are equal, and every rule runs
# semi-naive, so each full plan runs once in batch and all of them equally
# often in the session.
exact-counts:
    #!/usr/bin/env bash
    set -euo pipefail
    out=$(mktemp -d)
    cargo run --release -q -p chronolog-cli -- run corpus/margin.dmtl \
        --horizon 0..2000 --facts --stats-json "$out/batch.json" > "$out/batch.txt"
    cargo run --release -q -p chronolog-cli -- run corpus/margin.dmtl \
        --horizon 0..2000 --facts --session --stats-json "$out/session.json" > "$out/session.txt"
    diff "$out/batch.txt" "$out/session.txt"
    for report in "$out/batch.json" "$out/session.json"; do
        bytes=$(grep -o '"interval_bytes": [0-9]*' "$report" | grep -o '[0-9]*$')
        echo "$report: $bytes interval bytes"
        test "$bytes" -lt 1024
        if grep -q '"replans_triggered"\|"misestimates"' "$report"; then exit 1; fi
    done
    plans() { grep -o '"plans_built": [0-9]*' "$1" | grep -o '[0-9]*$'; }
    echo "plans built: batch $(plans "$out/batch.json"), session $(plans "$out/session.json")"
    test "$(plans "$out/session.json")" -le "$(plans "$out/batch.json")"
    python3 scripts/margin_counts.py "$out/batch.json" "$out/session.json"
    for threads in 1 2; do
        cargo run --release -q -p chronolog-cli -- run corpus/netting.dmtl --horizon 0..20 \
            --threads "$threads" --facts --stats-json "$out/netting-$threads.json" \
            > "$out/netting-$threads.txt"
        cargo run --release -q -p chronolog-cli -- run corpus/netting.dmtl --horizon 0..20 \
            --threads "$threads" --explain-plans > "$out/netting-plans-$threads.txt"
    done
    diff "$out/netting-1.txt" "$out/netting-2.txt"
    diff "$out/netting-plans-1.txt" "$out/netting-plans-2.txt"
    python3 scripts/netting_counts.py "$out/netting-1.json" "$out/netting-2.json"
    past=crates/cli/tests/fixtures/past_recursion.dmtl
    cargo run --release -q -p chronolog-cli -- run "$past" --horizon 0..40 \
        --facts --stats-json "$out/past-batch.json" > "$out/past-batch.txt"
    cargo run --release -q -p chronolog-cli -- run "$past" --horizon 0..40 \
        --facts --session --stats-json "$out/past-session.json" > "$out/past-session.txt"
    diff "$out/past-batch.txt" "$out/past-session.txt"
    python3 scripts/full_plan_counts.py "$out/past-batch.json" "$out/past-session.json"

# The explanation gate CI runs: a derivation tree is computed from the
# model, so a session explains a fact byte for byte as the batch run does —
# also after a correction stream that leaves the surviving facts as they
# were. The margin tree jumps a persistence run in one step.
explain-modes:
    #!/usr/bin/env bash
    set -euo pipefail
    out=$(mktemp -d)
    run() { cargo run --release -q -p chronolog-cli -- run "$@"; }
    margin=(corpus/margin.dmtl --horizon 0..20 --explain 'margin(acc123, 100.0)@14')
    run "${margin[@]}" > "$out/margin-batch.txt"
    run "${margin[@]}" --session > "$out/margin-session.txt"
    diff "$out/margin-batch.txt" "$out/margin-session.txt"
    grep -q 'margin(acc123, 100.0)@14   \[by rule #5, held since @11\]' "$out/margin-batch.txt"
    netting=(corpus/netting.dmtl --horizon 0..20 --explain 'exposure(cp0, cp2)@10')
    run "${netting[@]}" > "$out/netting-batch.txt"
    run "${netting[@]}" --session --stream corpus/netting.stream > "$out/netting-session.txt"
    diff "$out/netting-batch.txt" "$out/netting-session.txt"

# Alternating driver-style pairs of the BENCHMARK.json command: REV (checked
# out and built in a temporary directory) against the working tree, seed i
# for pair i. Prints each side's median and quartiles and the working
# tree's wins per end-to-end metric — the evidence a perf PR has to show.
bench-pairs REV WORKLOAD PAIRS="10":
    python3 scripts/bench_pairs.py {{REV}} {{WORKLOAD}} {{PAIRS}}

# The day soak: Figure-3 window 1 stretched ×1 and ×4 (pass `12` for a
# day), replayed through a live session and checked byte for byte against a
# batch run; writes docs/bench/soak-<rev>.json.
soak *FACTORS:
    cargo run --release -p chronolog-bench --example soak -- {{FACTORS}} \
        --out docs/bench/soak-$(git rev-parse --short HEAD).json

# Lints are errors.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

fmt:
    cargo fmt

fmt-check:
    cargo fmt --check

# Regenerate every paper table/figure.
repro:
    cargo run --release -p chronolog-bench --bin repro -- --table all

# Machine-readable §4.2 perf report.
repro-json out="perf.json":
    cargo run --release -p chronolog-bench --bin repro -- --table perf --json {{out}}

# Micro-benchmarks (in-tree harness; pass a substring filter after --).
bench *ARGS:
    cargo bench --workspace {{ARGS}}
