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

# The exact-count gate CI runs (`scripts/cli_gates.py` documents every
# check and holds the one table of pinned counts): the margin corpus batch
# and streamed, netting at one and two threads, and the past-recursion
# fixture batch and streamed.
exact-counts:
    python3 scripts/cli_gates.py exact-counts

# The explanation gate CI runs: a session explains a fact byte for byte as
# the batch run does, also after a correction stream.
explain-modes:
    python3 scripts/cli_gates.py explain-modes

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
