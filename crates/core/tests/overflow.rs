//! Temporal-overflow surfacing: window shifts that leave the `i64`
//! rational timeline must come back as `Error::TimeOverflow`, never as a
//! panic. Before the checked arithmetic landed, `Rational::from_i128`
//! panicked deep inside the `⊟`/`⊞` transforms.

use chronolog_core::{parse_source, Database, Error, Reasoner, ReasonerConfig};

/// `since` one step below `i64::MAX`: the witness `p(a)` reaches `t` up to
/// five seconds later, past the end of the timeline.
const SINCE: &str = "q(X) :- since[0, 5](r(X), p(X)).\n\
     p(a)@9223372036854775806.\n\
     r(a)@[9223372036854775800, 9223372036854775806].";

/// The mirror of [`SINCE`] at the start of the timeline.
const UNTIL: &str = "q(X) :- until[0, 5](r(X), p(X)).\n\
     p(a)@-9223372036854775807.\n\
     r(a)@[-9223372036854775807, -9223372036854775800].";

/// Just under `i64::MAX`, so a four-digit shift overflows.
const HUGE: &str = "9223372036854775000";

fn run(src: &str) -> Result<(), Error> {
    let (program, facts) = parse_source(src).unwrap();
    let mut db = Database::new();
    db.extend_facts(&facts).unwrap();
    Reasoner::new(program, ReasonerConfig::default())?
        .materialize(&db)
        .map(|_| ())
}

#[test]
fn body_window_shift_overflow_is_an_error_not_a_panic() {
    let window = format!("h(X) :- diamondminus[0, 10000] p(X).\np(a)@{HUGE}.");
    for src in [window.as_str(), SINCE, UNTIL] {
        match run(src) {
            Err(Error::TimeOverflow(_)) => {}
            other => panic!("expected TimeOverflow, got {other:?}"),
        }
    }
}

#[test]
fn head_operator_overflow_is_an_error_not_a_panic() {
    let src = format!("boxplus[0, 10000] h(X) :- p(X).\np(a)@{HUGE}.");
    match run(&src) {
        Err(Error::TimeOverflow(_)) => {}
        other => panic!("expected TimeOverflow, got {other:?}"),
    }
}

#[test]
fn in_range_windows_still_work_near_the_extremes() {
    let src = format!("h(X) :- diamondminus[0, 5] p(X).\np(a)@{HUGE}.");
    let (program, facts) = parse_source(&src).unwrap();
    let mut db = Database::new();
    db.extend_facts(&facts).unwrap();
    let m = Reasoner::new(program, ReasonerConfig::default())
        .unwrap()
        .materialize(&db)
        .unwrap();
    assert!(m.database.to_facts_text().contains("h(a)"));
}
