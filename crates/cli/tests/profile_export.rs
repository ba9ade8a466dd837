//! Shape and validity of the `--profile` / `--profile-folded` exports.
//!
//! The Chrome trace must be loadable by Perfetto / `chrome://tracing`:
//! a `traceEvents` envelope of `"M"` thread-name metadata plus `"X"`
//! complete events carrying `ts`/`dur` in microseconds and a lane `tid`.
//! The folded export must be `lane;frame;... <self-us>` lines. Both are
//! also pushed through `chronolog validate-trace`, the same check CI runs.

use chronolog_cli::run_cli;
use chronolog_obs::Json;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Reads `main.dmtl` from memory and everything else from disk, so the
/// profile files written by one `run_cli` call can be validated by the
/// next.
fn fs_with_program(text: String) -> impl Fn(&str) -> std::io::Result<String> {
    move |p: &str| {
        if p == "main.dmtl" {
            Ok(text.clone())
        } else {
            std::fs::read_to_string(p)
        }
    }
}

const DEMO: &str = "isOpen(A) :- tranM(A, M).\n\
                    isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
                    tranM(acc1, 20.0)@3.\n\
                    withdraw(acc1)@8.";

#[test]
fn chrome_trace_export_has_perfetto_shape() {
    let dir = std::env::temp_dir().join("chronolog-profile-shape-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let folded_path = dir.join("profile.folded");
    run_cli(
        &args(&[
            "run",
            "main.dmtl",
            "--horizon",
            "0..20",
            "--profile",
            trace_path.to_str().unwrap(),
            "--profile-folded",
            folded_path.to_str().unwrap(),
        ]),
        fs_with_program(DEMO.to_string()),
    )
    .unwrap();

    let trace = Json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    assert_eq!(
        trace.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
    assert!(!events.is_empty(), "empty trace");
    let mut metas = 0usize;
    let mut completes = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap();
        assert_eq!(ev.get("pid").and_then(Json::as_u64), Some(1));
        assert!(ev.get("tid").and_then(Json::as_u64).is_some());
        match ph {
            "M" => {
                assert_eq!(
                    ev.get("name").and_then(Json::as_str),
                    Some("thread_name"),
                    "metadata event must name the thread"
                );
                assert!(ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .is_some());
                metas += 1;
            }
            "X" => {
                assert!(ev.get("name").and_then(Json::as_str).is_some());
                assert!(ev.get("ts").and_then(Json::as_u64).is_some());
                assert!(ev.get("dur").and_then(Json::as_u64).is_some());
                assert!(ev
                    .get("args")
                    .and_then(|a| a.get("depth"))
                    .and_then(Json::as_u64)
                    .is_some());
                completes += 1;
            }
            other => panic!("unexpected event phase {other}"),
        }
    }
    assert!(metas >= 1, "at least one lane must be named");
    assert!(completes >= 3, "expect materialize/stratum/rule spans");
    assert!(
        events
            .iter()
            .any(|ev| { ev.get("name").and_then(Json::as_str) == Some("materialize") }),
        "missing materialize span"
    );

    // The checked-in validator (what CI runs) must accept the file.
    let report = run_cli(
        &args(&["validate-trace", trace_path.to_str().unwrap()]),
        |p: &str| std::fs::read_to_string(p),
    )
    .unwrap();
    assert!(report.starts_with("ok:"), "{report}");

    // Folded lines: `lane;frame;... <self-us>`, flamegraph.pl's input.
    let folded = std::fs::read_to_string(&folded_path).unwrap();
    assert!(!folded.trim().is_empty(), "empty folded profile");
    for line in folded.lines() {
        let (stack, weight) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("folded line without weight: {line}"));
        weight
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("non-integer weight in: {line}"));
        assert!(stack.contains(';'), "stack must start with a lane: {line}");
    }
    assert!(
        folded.lines().any(|l| l.contains(";materialize")),
        "materialize frame missing from folded output:\n{folded}"
    );
}

/// Scoped workers are new threads on every dispatch; two sequential
/// threads named `worker-1` share one lane, each nesting from depth 0, and
/// the merged lane still validates.
#[test]
fn sequential_workers_of_one_slot_share_a_valid_lane() {
    let rec = chronolog_obs::SpanRecorder::new();
    for _ in 0..2 {
        let rec = rec.clone();
        std::thread::Builder::new()
            .name("worker-1".into())
            .spawn(move || {
                let _rule = rec.span("rule");
                drop(rec.span("join"));
            })
            .unwrap()
            .join()
            .unwrap();
    }
    let lanes = rec.lanes();
    assert_eq!(lanes.len(), 1);
    assert_eq!(lanes[0].0, "worker-1");
    let depths: Vec<usize> = lanes[0].1.iter().map(|r| r.depth).collect();
    assert_eq!(depths, [1, 0, 1, 0]);

    let dir = std::env::temp_dir().join("chronolog-profile-slot-lane-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    std::fs::write(&trace_path, rec.to_chrome_trace().to_pretty()).unwrap();
    let report = run_cli(
        &args(&["validate-trace", trace_path.to_str().unwrap()]),
        |p: &str| std::fs::read_to_string(p),
    )
    .unwrap();
    assert!(report.starts_with("ok: 4 spans across 1 lanes"), "{report}");
}

#[test]
fn validate_trace_rejects_malformed_input() {
    let dir = std::env::temp_dir().join("chronolog-profile-reject-test");
    std::fs::create_dir_all(&dir).unwrap();
    let read = |p: &str| std::fs::read_to_string(p);

    let no_envelope = dir.join("no-envelope.json");
    std::fs::write(&no_envelope, "{\"events\": []}").unwrap();
    let err = run_cli(
        &args(&["validate-trace", no_envelope.to_str().unwrap()]),
        read,
    )
    .unwrap_err();
    assert!(err.message.contains("traceEvents"), "{}", err.message);

    let bad_depth = dir.join("bad-depth.json");
    std::fs::write(
        &bad_depth,
        "{\"traceEvents\": [\
           {\"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"name\": \"s\", \
            \"ts\": 5, \"dur\": 1, \"args\": {\"depth\": 3}}]}",
    )
    .unwrap();
    let err = run_cli(
        &args(&["validate-trace", bad_depth.to_str().unwrap()]),
        read,
    )
    .unwrap_err();
    assert!(err.message.contains("no parent"), "{}", err.message);

    let escaping = dir.join("escaping.json");
    std::fs::write(
        &escaping,
        "{\"traceEvents\": [\
           {\"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"name\": \"parent\", \
            \"ts\": 0, \"dur\": 10, \"args\": {\"depth\": 0}}, \
           {\"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"name\": \"child\", \
            \"ts\": 0, \"dur\": 50, \"args\": {\"depth\": 1}}]}",
    )
    .unwrap();
    let err = run_cli(&args(&["validate-trace", escaping.to_str().unwrap()]), read).unwrap_err();
    assert!(err.message.contains("escapes"), "{}", err.message);
}

/// Netting's trades under the non-linear closure at `--threads 4` must
/// light up at least two worker lanes in the exported trace: every round
/// after round 0 runs both delta variants of the closure rule, and the
/// rule fan-out opens once a round's lookups visited thousands of tuples,
/// which the closure is sized well past; scheduling still decides which
/// workers pull tasks, hence the retry loop.
#[test]
fn threaded_profile_shows_multiple_worker_lanes() {
    let path = format!("{}/../../corpus/netting.dmtl", env!("CARGO_MANIFEST_DIR"));
    let corpus = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let mut scenario = String::from(
        "exposure(X, Y) :- trade(X, Y).\n\
         exposure(X, Z) :- exposure(X, Y), exposure(Y, Z).\n",
    );
    for line in corpus.lines().filter(|l| l.starts_with("trade(")) {
        scenario.push_str(line);
        scenario.push('\n');
    }

    let dir = std::env::temp_dir().join("chronolog-profile-lanes-test");
    std::fs::create_dir_all(&dir).unwrap();
    let mut worker_lanes = 0usize;
    for attempt in 0..3 {
        let trace_path = dir.join(format!("trace-{attempt}.json"));
        run_cli(
            &args(&[
                "run",
                "main.dmtl",
                "--horizon",
                "0..20",
                "--threads",
                "4",
                "--profile",
                trace_path.to_str().unwrap(),
            ]),
            fs_with_program(scenario.clone()),
        )
        .unwrap();
        let trace = Json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
        let mut lane_names: std::collections::HashMap<u64, String> =
            std::collections::HashMap::new();
        for ev in events {
            if ev.get("ph").and_then(Json::as_str) == Some("M") {
                let tid = ev.get("tid").and_then(Json::as_u64).unwrap();
                let name = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap();
                lane_names.insert(tid, name.to_string());
            }
        }
        let mut active: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for ev in events {
            if ev.get("ph").and_then(Json::as_str) == Some("X") {
                active.insert(ev.get("tid").and_then(Json::as_u64).unwrap());
            }
        }
        worker_lanes = active
            .iter()
            .filter(|tid| {
                lane_names
                    .get(tid)
                    .is_some_and(|n| n.starts_with("worker-"))
            })
            .count();
        if worker_lanes >= 2 {
            break;
        }
    }
    assert!(
        worker_lanes >= 2,
        "expected spans on >=2 worker lanes after 3 attempts, saw {worker_lanes}"
    );
}
