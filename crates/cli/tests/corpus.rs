//! Golden tests: the CLI over the real corpus files shipped in `corpus/`.

use chronolog_cli::run_cli;

fn fs(path: &str) -> std::io::Result<String> {
    // Tests run from the crate directory; corpus sits at the workspace root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path);
    std::fs::read_to_string(root)
}

fn args(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

#[test]
fn margin_corpus_reproduces_example_3_1() {
    let out = run_cli(
        &args(&[
            "run",
            "corpus/margin.dmtl",
            "--horizon",
            "0..20",
            "--query",
            "margin(acc123, M)",
        ]),
        fs,
    )
    .unwrap();
    // 97$ on day 9, 100$ from day 10, gone at the withdrawal (day 15).
    assert!(out.contains("margin(acc123, 97.0)@[9]"), "{out}");
    assert!(out.contains("margin(acc123, 100.0)@[10]"), "{out}");
    assert!(out.contains("margin(acc123, 100.0)@[14]"), "{out}");
    assert!(!out.contains("@[15]"), "{out}");
}

#[test]
fn sla_corpus_checks_and_runs() {
    let out = run_cli(&args(&["check", "corpus/sla.dmtl"]), fs).unwrap();
    assert!(out.contains("ok: 6 rules, 8 facts"), "{out}");
    let out = run_cli(
        &args(&[
            "run",
            "corpus/sla.dmtl",
            "--horizon",
            "0..20",
            "--query",
            "fleetUp(N)",
        ]),
        fs,
    )
    .unwrap();
    assert!(out.contains("fleetUp(2)"), "{out}");
    assert!(out.contains("fleetUp(1)"), "{out}");
}

#[test]
fn fibonacci_corpus_computes_the_sequence() {
    let out = run_cli(
        &args(&[
            "run",
            "corpus/fibonacci.dmtl",
            "--horizon",
            "0..10",
            "--query",
            "fib(F)",
        ]),
        fs,
    )
    .unwrap();
    for (t, f) in [
        (2, 2),
        (3, 3),
        (4, 5),
        (5, 8),
        (6, 13),
        (7, 21),
        (8, 34),
        (9, 55),
        (10, 89),
    ] {
        assert!(
            out.contains(&format!("fib({f})@[{t}]")),
            "fib({f})@{t} missing:\n{out}"
        );
    }
}

#[test]
fn funding_corpus_accrues_funding() {
    let out = run_cli(
        &args(&[
            "run",
            "corpus/funding.dmtl",
            "--horizon",
            "0..3",
            "--query",
            "frs(F)",
            "--query",
            "skew(K)",
        ]),
        fs,
    )
    .unwrap();
    // Skew: 1000 -> 1002.5 -> 1001.5.
    assert!(out.contains("skew(1000.0)@[0]"), "{out}");
    assert!(out.contains("skew(1002.5)@[1]"), "{out}");
    assert!(out.contains("skew(1001.5)@[2]"), "{out}");
    // The FRS moves away from zero once the skewed market accrues funding
    // (positive skew -> negative funding flow).
    assert!(out.contains("frs(0.0)@[0]"), "{out}");
    assert!(out.contains("frs(-0."), "{out}");
}

#[test]
fn graph_on_corpus_mentions_all_predicates() {
    let out = run_cli(&args(&["graph", "corpus/funding.dmtl"]), fs).unwrap();
    for pred in ["skew", "frs", "unrFund", "tdiff", "event"] {
        assert!(
            out.contains(&format!("\"{pred}\"")),
            "missing {pred} in DOT"
        );
    }
}

#[test]
fn explain_on_corpus_traces_to_inputs() {
    let out = run_cli(
        &args(&[
            "run",
            "corpus/margin.dmtl",
            "--horizon",
            "0..20",
            "--explain",
            "margin(acc123, 100.0)@13",
        ]),
        fs,
    )
    .unwrap();
    assert!(out.contains("tranM(acc123, 97.0)"), "{out}");
    assert!(out.contains("[input]"), "{out}");
}

/// A margin several days into the run is explained from where its run
/// starts, and a session explains every fact byte for byte as the batch run
/// does — also after a correction stream that leaves the surviving facts as
/// they were.
#[test]
fn explain_on_corpus_is_the_same_in_batch_and_session() {
    let run = |program: &str, fact: &str, extra: &[&str]| {
        let mut argv = vec!["run", program, "--horizon", "0..20", "--explain", fact];
        argv.extend_from_slice(extra);
        run_cli(&args(&argv), fs).unwrap()
    };
    let netting = |extra: &[&str]| run("corpus/netting.dmtl", "exposure(cp0, cp2)@10", extra);
    let stream = ["--session", "--stream", "corpus/netting.stream"];
    assert!(netting(&[]).contains("trade(cp1, cp2)@10   [input]"));
    assert_eq!(netting(&stream), netting(&[]));
    let margin = |extra: &[&str]| run("corpus/margin.dmtl", "margin(acc123, 100.0)@14", extra);
    let batch = margin(&[]);
    assert_eq!(
        batch,
        "-- explain margin(acc123, 100.0)@14 --\n\
         margin(acc123, 100.0)@14   [by rule #5, held since @11]\n  \
         margin(acc123, 100.0)@10   [by rule #6]\n    \
         isOpen(acc123)@9   [by rule #0]\n      \
         tranM(acc123, 97.0)@9   [input]\n    \
         margin(acc123, 97.0)@9   [by rule #2]\n      \
         tranM(acc123, 97.0)@9   [input]\n    \
         tranM(acc123, 3.0)@10   [input]\n"
    );
    assert_eq!(margin(&["--session"]), batch);
}
