//! Encoding a market [`Trace`] as the temporal database `D` the DatalogMTL
//! program runs over (§3.1: "the user inserts the input facts to call the
//! methods"), on the unix-second timeline: every fact holds at the second
//! its event happened. [`encode`] builds the whole window for a batch run;
//! [`genesis`] and [`event_facts`] are the same encoding one piece at a
//! time, for a live session.

use crate::program::TimelineMode;
use crate::types::{Event, Method, Trace};
use chronolog_core::{Database, Fact, Value};

/// A trace encoded on the program timeline.
pub struct EncodedTrace {
    /// The input database: method calls, prices, and initial conditions.
    pub database: Database,
    /// Reasoning horizon: the trace window.
    pub horizon: (i64, i64),
    /// Timeline coordinate of each event (index-aligned with
    /// `trace.events`): its Unix second.
    pub event_coords: Vec<i64>,
}

/// The account symbol used in facts for an account id.
pub fn account_value(account: crate::types::AccountId) -> Value {
    Value::sym(&account.to_string())
}

/// The predicate of a method call and, for the two methods that carry
/// one, the amount that follows the account.
pub(crate) fn method_call(method: Method) -> (&'static str, Option<f64>) {
    match method {
        Method::TransferMargin { amount } => ("tranM", Some(amount)),
        Method::Withdraw => ("withdraw", None),
        Method::ModifyPosition { size } => ("modPos", Some(size)),
        Method::ClosePosition => ("closePos", None),
    }
}

/// The initial conditions at the window start: what a live session boots
/// from.
pub fn genesis(trace: &Trace) -> Database {
    let mut db = Database::new();
    db.assert_at("start", &[], trace.start_time);
    db.assert_at(
        "startSkew",
        &[Value::num(trace.initial_skew)],
        trace.start_time,
    );
    db.assert_at("startFrs", &[Value::num(0.0)], trace.start_time);
    db
}

/// The two facts of one interaction, both at `event.time`: the method call
/// and the oracle price observed with it.
pub fn event_facts(event: &Event) -> [Fact; 2] {
    let acc = account_value(event.account);
    let (pred, amount) = method_call(event.method);
    let args = match amount {
        Some(x) => vec![acc, Value::num(x)],
        None => vec![acc],
    };
    [
        Fact::at(pred, args, event.time),
        Fact::at("price", vec![Value::num(event.price)], event.time),
    ]
}

/// Encodes a (validated) trace.
pub fn encode(trace: &Trace) -> EncodedTrace {
    let mut db = genesis(trace);
    for event in &trace.events {
        let acc = account_value(event.account);
        match method_call(event.method) {
            (pred, Some(x)) => db.assert_at(pred, &[acc, Value::num(x)], event.time),
            (pred, None) => db.assert_at(pred, &[acc], event.time),
        };
        db.assert_at("price", &[Value::num(event.price)], event.time);
    }
    EncodedTrace {
        database: db,
        horizon: (trace.start_time, trace.end_time),
        event_coords: trace.events.iter().map(|e| e.time).collect(),
    }
}

/// [`encode`]. Kept for `benchmark/src/perp.rs`; goes with the next
/// `benchmark` PR.
pub fn encode_trace(trace: &Trace, _: TimelineMode) -> EncodedTrace {
    encode(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AccountId;

    fn trace() -> Trace {
        Trace {
            start_time: 1_000,
            end_time: 8_200,
            initial_skew: -2445.98,
            initial_price: 1362.5,
            events: vec![
                Event {
                    time: 1_010,
                    account: AccountId(1),
                    method: Method::TransferMargin { amount: 100.0 },
                    price: 1362.5,
                },
                Event {
                    time: 1_025,
                    account: AccountId(1),
                    method: Method::ModifyPosition { size: 0.5 },
                    price: 1363.0,
                },
                Event {
                    time: 1_100,
                    account: AccountId(1),
                    method: Method::ClosePosition,
                    price: 1361.0,
                },
                Event {
                    time: 1_130,
                    account: AccountId(1),
                    method: Method::Withdraw,
                    price: 1361.5,
                },
            ],
        }
    }

    #[test]
    fn dense_mode_uses_unix_seconds() {
        let e = encode(&trace());
        assert_eq!(e.horizon, (1_000, 8_200));
        assert_eq!(e.event_coords, vec![1_010, 1_025, 1_100, 1_130]);
        assert!(e.database.holds_at("start", &[], 1_000));
        assert!(e
            .database
            .holds_at("tranM", &[Value::sym("acc0001"), Value::num(100.0)], 1_010));
        assert!(e.database.holds_at("price", &[Value::num(1363.0)], 1_025));
        assert!(e
            .database
            .holds_at("closePos", &[Value::sym("acc0001")], 1_100));
        assert!(e
            .database
            .holds_at("withdraw", &[Value::sym("acc0001")], 1_130));
        // Event times are read off the timeline, never passed as facts.
        assert!(e
            .database
            .relation(chronolog_core::Symbol::new("ts"))
            .is_none());
    }

    #[test]
    fn initial_conditions_present() {
        let e = encode(&trace());
        let t0 = e.horizon.0;
        assert!(e
            .database
            .holds_at("startSkew", &[Value::num(-2445.98)], t0));
        assert!(e.database.holds_at("startFrs", &[Value::num(0.0)], t0));
    }

    #[test]
    fn genesis_plus_event_facts_is_the_batch_encoding() {
        let trace = trace();
        let mut live = genesis(&trace);
        for event in &trace.events {
            live.extend_facts(&event_facts(event)).unwrap();
        }
        assert_eq!(
            live.to_facts_text(),
            encode(&trace).database.to_facts_text()
        );
    }
}
