//! Repair-vs-cold equivalence over the real corpus: each program gets a
//! churn stream — a poison fact submitted late and retracted again, plus
//! a real fact retracted and re-delivered late — that leaves the
//! surviving base facts identical to the shipped file. The streamed
//! session must therefore be byte-identical to the plain batch run.

use chronolog_cli::run_cli;

fn disk(path: &str) -> std::io::Result<String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path);
    std::fs::read_to_string(root)
}

fn args(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// Runs the corpus file cold (batch) and churned (session + stream) and
/// asserts the two outputs agree.
fn assert_churn_equivalent(corpus: &str, horizon: &str, stream: &str) {
    let stream = stream.to_string();
    let fs = move |path: &str| {
        if path == "churn.stream" {
            Ok(stream.clone())
        } else {
            disk(path)
        }
    };
    let batch = run_cli(
        &args(&["run", corpus, "--horizon", horizon, "--facts"]),
        &fs,
    )
    .unwrap();
    let repaired = run_cli(
        &args(&[
            "run",
            corpus,
            "--horizon",
            horizon,
            "--facts",
            "--session",
            "--stream",
            "churn.stream",
        ]),
        &fs,
    )
    .unwrap();
    assert_eq!(batch, repaired, "{corpus}: repaired session diverged");
}

#[test]
fn margin_corpus_survives_churn() {
    assert_churn_equivalent(
        "corpus/margin.dmtl",
        "0..20",
        "advance 20\n\
         tranM(acc999, 1.0)@4.\n\
         retract tranM(acc999, 1.0)@4.\n\
         retract tranM(acc123, 3.0)@10.\n\
         tranM(acc123, 3.0)@10.\n",
    );
}

#[test]
fn sla_corpus_is_rejected_with_a_typed_error() {
    // sla.dmtl uses `since` (a head-operator rewrite), which sessions do
    // not support — streaming it must fail with the typed eligibility
    // error, not a panic or a wrong answer.
    let err = run_cli(
        &args(&["run", "corpus/sla.dmtl", "--horizon", "0..20", "--session"]),
        disk,
    )
    .unwrap_err();
    assert_eq!(err.code, 1);
    assert!(err.message.contains("session mode"), "{}", err.message);
}

#[test]
fn fibonacci_corpus_survives_churn() {
    // The poison seed corrupts the whole downstream sequence until its
    // retraction repairs it — the deepest derived cone in the corpus.
    assert_churn_equivalent(
        "corpus/fibonacci.dmtl",
        "0..10",
        "advance 10\n\
         fib(99)@2.\n\
         retract fib(99)@2.\n\
         retract fib(1)@1.\n\
         fib(1)@1.\n",
    );
}

#[test]
fn funding_corpus_survives_churn() {
    // modPos feeds a sum aggregate: the churn must re-run the aggregate
    // stratum, not just patch intervals.
    assert_churn_equivalent(
        "corpus/funding.dmtl",
        "0..3",
        "advance 3\n\
         modPos(mallory, 9.9)@1.\n\
         retract modPos(mallory, 9.9)@1.\n\
         retract modPos(alice, 2.5)@1.\n\
         modPos(alice, 2.5)@1.\n",
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "every [0,20] correction repairs the full 60-counterparty \
              closure (~6 min unoptimized); run with --release \
              (`just test-slow`, mirrored by the CI slow-suite step)"
)]
fn netting_corpus_survives_the_committed_stream() {
    let stream = disk("corpus/netting.stream").unwrap();
    assert_churn_equivalent("corpus/netting.dmtl", "0..20", &stream);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "replays the full netting repair closure (~5 min unoptimized); \
              run with --release (`just test-slow`, mirrored by the CI \
              slow-suite step)"
)]
fn netting_stream_churn_reuses_arena_slabs() {
    // Regression for Relation::remove leaking arena space: replaying
    // corpus/netting.stream retracts and re-books trades, which empties
    // interval slabs and refills them. Every emptied slab must be
    // released and the re-bookings must reuse released slabs rather
    // than extend the arena.
    let stats_path = std::env::temp_dir().join("chronolog-netting-arena.json");
    let stats_arg = stats_path.to_str().unwrap().to_string();
    run_cli(
        &args(&[
            "run",
            "corpus/netting.dmtl",
            "--horizon",
            "0..20",
            "--session",
            "--stream",
            "corpus/netting.stream",
            "--stats-json",
            &stats_arg,
        ]),
        disk,
    )
    .unwrap();
    let stats = std::fs::read_to_string(&stats_path).unwrap();
    let field = |key: &str| -> u64 {
        let at = stats.find(key).unwrap_or_else(|| panic!("{key} in stats"));
        stats[at + key.len()..]
            .trim_start_matches("\": ")
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap()
    };
    let freed = field("arena_slabs_freed");
    let reused = field("arena_slabs_reused");
    assert!(freed > 0, "retractions released no slabs");
    assert!(reused > 0, "re-bookings reused no slabs");
}
