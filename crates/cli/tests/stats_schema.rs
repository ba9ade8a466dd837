//! Golden test pinning the `--stats-json` report schema.
//!
//! The report is a public, machine-readable interface: downstream tooling
//! (dashboards, the bench harness, CI trend tracking) parses it by field
//! name. This test renders the report's *type signature* — field names and
//! value types, recursively — and compares it against a checked-in
//! fixture. A mismatch means the schema changed: either revert, or bump
//! `REPORT_SCHEMA_VERSION` and regenerate the fixture with the printed
//! signature.

use chronolog_cli::run_cli;
use chronolog_obs::Json;

const FIXTURE: &str = include_str!("fixtures/stats_schema.txt");

const DEMO: &str = "isOpen(A) :- tranM(A, M).\n\
                    isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
                    tranM(acc1, 20.0)@3.\n\
                    withdraw(acc1)@8.";

fn fake_fs(path: &'static str, text: &'static str) -> impl Fn(&str) -> std::io::Result<String> {
    move |p: &str| {
        if p == path {
            Ok(text.to_string())
        } else {
            Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "no such test file",
            ))
        }
    }
}

#[test]
fn stats_json_schema_is_stable() {
    let dir = std::env::temp_dir().join("chronolog-schema-test");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("report.json");
    run_cli(
        &[
            "run".to_string(),
            "demo.dmtl".to_string(),
            "--horizon".to_string(),
            "0..20".to_string(),
            "--stats-json".to_string(),
            out.to_str().unwrap().to_string(),
        ],
        fake_fs("demo.dmtl", DEMO),
    )
    .unwrap();
    let report = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    std::fs::remove_file(&out).ok();

    let signature = report.type_signature();
    assert_eq!(
        signature.trim(),
        FIXTURE.trim(),
        "\n--- actual signature (paste into tests/fixtures/stats_schema.txt \
         if the change is intentional) ---\n{signature}\n"
    );
}
