//! The ETH-PERP smart contract as a DatalogMTL program — the paper's
//! contribution (rules 1–48 of §3), organized in the modules of Figure 1:
//! MARGIN, POSITION, RETURNS, F-RATE (events/skew/tdiff/rate/frs/indF),
//! and FEES.
//!
//! The timeline is Unix seconds, exactly as the paper runs it: `[1,1]`
//! operators step one second and rules 23/25 read the event times with the
//! `@T` time capture (the Vadalog `unix(t)` promotion).
//!
//! Deviations from the paper's printed rules are deliberate and documented
//! in DESIGN.md: the rule-36 typo fix, fee-rate naming per the §3.7 table,
//! a `live()` liveness predicate in rules 21/24/32 (the paper's `isOpen()`
//! leaves the skew un-propagated before the first deposit), and `K = 0`
//! folded into the non-negative skew branch of the fee rules.

use crate::params::MarketParams;
use chronolog_core::{parse_program, Program, Result};

/// Renders the full DatalogMTL source with the market parameters inlined.
pub fn source(params: &MarketParams) -> String {
    let taker = fmt_f64(params.taker_fee);
    let maker = fmt_f64(params.maker_fee);
    let imax = fmt_f64(params.max_funding_rate);
    let scale = fmt_f64(params.skew_scale_notional);
    let period = fmt_f64(params.funding_period_secs);

    format!(
        "% ============================================================\n\
         % ETH-PERP perpetual future in DatalogMTL\n\
         % (rules 1-48 of 'Smart Derivative Contracts in DatalogMTL')\n\
         % ============================================================\n\
         \n\
         % ----- MARKET liveness (DESIGN.md erratum #3) -----\n\
         live() :- start().\n\
         live() :- boxminus live().\n\
         \n\
         % ----- MARGIN (rules 1-9) -----\n\
         isOpen(A) :- tranM(A, M).\n\
         isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
         margin(A, M) :- tranM(A, M), not boxminus isOpen(A).\n\
         changeM(A) :- withdraw(A).\n\
         changeM(A) :- tranM(A, M).\n\
         changeM(A) :- closePos(A).\n\
         margin(A, M) :- diamondminus margin(A, M), not changeM(A).\n\
         margin(A, M) :- boxminus isOpen(A), diamondminus margin(A, X), tranM(A, Y), M = X + Y.\n\
         margin(A, M) :- diamondminus margin(A, X), pnl(A, PL), finalFee(A, C), funding(A, IF), M = X + PL - C + IF.\n\
         \n\
         % ----- POSITION (rules 10-15) -----\n\
         position(A, S, N) :- tranM(A, M), not boxminus isOpen(A), S = 0.0, N = 0.0.\n\
         order(A, S) :- modPos(A, S).\n\
         order(A, S) :- closePos(A), S = 0.0.\n\
         position(A, S, N) :- diamondminus position(A, S, N), not order(A, _), isOpen(A).\n\
         position(A, S, N) :- diamondminus position(A, Y, Z), price(P), modPos(A, X), S = X + Y, N = Z + X * P.\n\
         position(A, S, N) :- closePos(A), S = 0.0, N = 0.0.\n\
         \n\
         % ----- RETURNS (rule 16) -----\n\
         pnl(A, PL) :- closePos(A), boxminus position(A, S, N), price(P), PL = S * P - N.\n\
         \n\
         % ----- F-RATE: interaction events (rules 17-20) -----\n\
         event(sum(S)) :- tranM(A, M), S = 0.0.\n\
         event(sum(S)) :- withdraw(A), S = 0.0.\n\
         event(sum(S)) :- modPos(A, S).\n\
         event(sum(S)) :- closePos(A), boxminus position(A, X, N), S = -X.\n\
         \n\
         % ----- SKEW (rules 21-22) -----\n\
         skew(K) :- startSkew(K).\n\
         skew(K) :- diamondminus skew(K), not event(_), live().\n\
         skew(K) :- diamondminus skew(X), event(S), K = X + S.\n\
         \n\
         % ----- TDIFF (rules 23-26): seconds between events, via @T capture -----\n\
         tdiff(T, T) :- start()@T.\n\
         tdiff(T1, T2) :- diamondminus tdiff(T1, T2), not event(_), live().\n\
         tdiff(T2, T) :- diamondminus tdiff(T1, T2), event(S)@T.\n\
         diff(D) :- tdiff(T1, T2), event(S), D = T2 - T1.\n\
         \n\
         % ----- RATE (rules 27-30): instantaneous funding rate -----\n\
         rate(I) :- event(S), boxminus skew(K), price(P), I = -K * P / {scale}.\n\
         clampR(C) :- rate(I), I > 1.0, C = 1.0.\n\
         clampR(C) :- rate(I), I < -1.0, C = -1.0.\n\
         clampR(I) :- rate(I), I >= -1.0, I <= 1.0.\n\
         \n\
         % ----- FRS (rules 31-33): the funding rate sequence -----\n\
         unrFund(UF) :- clampR(I), price(P), diff(T), UF = I * P * T * {imax} / {period}.\n\
         frs(F) :- startFrs(F).\n\
         frs(F) :- diamondminus frs(F), not unrFund(_), live().\n\
         frs(F) :- diamondminus frs(X), unrFund(UF), F = X + UF.\n\
         \n\
         % ----- INDF (rules 34-37): individual funding -----\n\
         indF(A, F, AF) :- boxminus position(A, S, N), frs(F), modPos(A, C), S = 0.0, AF = 0.0.\n\
         indF(A, F, AF) :- diamondminus indF(A, F, AF), not order(A, _).\n\
         indF(A, F, AF) :- diamondminus indF(A, PF, PAF), frs(F), modPos(A, C), boxminus position(A, S, N), AF = PAF + S * (F - PF).\n\
         funding(A, IF) :- diamondminus indF(A, PF, AF), closePos(A), frs(F), boxminus position(A, S, N), IF = AF + S * (F - PF).\n\
         \n\
         % ----- FEES (rules 38-48) -----\n\
         fee(A, C) :- tranM(A, M), not boxminus isOpen(A), C = 0.0.\n\
         fee(A, C) :- diamondminus fee(A, C), not order(A, _), isOpen(A).\n\
         fee(A, C) :- modPos(A, S), price(P), diamondminus fee(A, OldC), skew(K), K >= 0.0, S > 0.0, C = OldC + abs(S * P * {taker}).\n\
         fee(A, C) :- modPos(A, S), price(P), diamondminus fee(A, OldC), skew(K), K < 0.0, S > 0.0, C = OldC + abs(S * P * {maker}).\n\
         fee(A, C) :- modPos(A, S), price(P), diamondminus fee(A, OldC), skew(K), K >= 0.0, S < 0.0, C = OldC + abs(S * P * {maker}).\n\
         fee(A, C) :- modPos(A, S), price(P), diamondminus fee(A, OldC), skew(K), K < 0.0, S < 0.0, C = OldC + abs(S * P * {taker}).\n\
         finalFee(A, C) :- closePos(A), boxminus position(A, S, N), skew(K), price(P), diamondminus fee(A, OldC), K >= 0.0, S < 0.0, C = OldC + abs(S * P * {taker}).\n\
         finalFee(A, C) :- closePos(A), boxminus position(A, S, N), skew(K), price(P), diamondminus fee(A, OldC), K < 0.0, S < 0.0, C = OldC + abs(S * P * {maker}).\n\
         finalFee(A, C) :- closePos(A), boxminus position(A, S, N), skew(K), price(P), diamondminus fee(A, OldC), K >= 0.0, S > 0.0, C = OldC + abs(S * P * {maker}).\n\
         finalFee(A, C) :- closePos(A), boxminus position(A, S, N), skew(K), price(P), diamondminus fee(A, OldC), K < 0.0, S > 0.0, C = OldC + abs(S * P * {taker}).\n\
         fee(A, C) :- closePos(A), C = 0.0.\n"
    )
}

/// Formats an `f64` so it reparses to the identical value and always looks
/// like a decimal literal to the lexer.
fn fmt_f64(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Human-readable labels for the generated rules, aligned with the paper's
/// rule numbering (plus the auxiliary rules we added).
const RULE_LABELS: &[&str] = &[
    "live-init",
    "live-propagate",
    "rule 1 (isOpen init)",
    "rule 2 (isOpen propagate)",
    "rule 3 (margin init)",
    "rule 4 (changeM withdraw)",
    "rule 5 (changeM deposit)",
    "rule 6 (changeM close)",
    "rule 7 (margin propagate)",
    "rule 8 (margin deposit)",
    "rule 9 (margin settle)",
    "rule 10 (position init)",
    "rule 11 (order modPos)",
    "rule 12 (order closePos)",
    "rule 13 (position propagate)",
    "rule 14 (position modify)",
    "rule 15 (position close)",
    "rule 16 (PNL)",
    "rule 17 (event tranM)",
    "rule 18 (event withdraw)",
    "rule 19 (event modPos)",
    "rule 20 (event closePos)",
    "skew-init",
    "rule 21 (skew propagate)",
    "rule 22 (skew update)",
    "rule 23 (tdiff init)",
    "rule 24 (tdiff propagate)",
    "rule 25 (tdiff update)",
    "rule 26 (diff)",
    "rule 27 (rate)",
    "rule 28 (clamp high)",
    "rule 29 (clamp low)",
    "rule 30 (clamp pass)",
    "rule 31 (unrecorded funding)",
    "frs-init",
    "rule 32 (FRS propagate)",
    "rule 33 (FRS update)",
    "rule 34 (indF init)",
    "rule 35 (indF propagate)",
    "rule 36 (indF update)",
    "rule 37 (funding settle)",
    "rule 38 (fee init)",
    "rule 39 (fee propagate)",
    "rule 40 (fee K>=0 long: taker)",
    "rule 41 (fee K<0 long: maker)",
    "rule 42 (fee K>=0 short: maker)",
    "rule 43 (fee K<0 short: taker)",
    "rule 44 (finalFee K>=0 short: taker)",
    "rule 45 (finalFee K<0 short: maker)",
    "rule 46 (finalFee K>=0 long: maker)",
    "rule 47 (finalFee K<0 long: taker)",
    "rule 48 (fee reset)",
];

/// Parses the generated source into a labeled [`Program`].
pub fn build(params: &MarketParams) -> Result<Program> {
    let mut program = parse_program(&source(params))?;
    assert_eq!(
        program.rules.len(),
        RULE_LABELS.len(),
        "rule labels out of sync with the program source"
    );
    for (rule, label) in program.rules.iter_mut().zip(RULE_LABELS) {
        rule.label = Some((*label).to_string());
    }
    Ok(program)
}

/// The one timeline. Kept for `benchmark/src/perp.rs`, which names it;
/// goes with the next `benchmark` PR.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimelineMode {
    /// Unix-second timeline; `[1,1]` operators step one second.
    DenseSeconds,
}

/// [`source`]. Kept for `benchmark/src/perp.rs`; goes with the next
/// `benchmark` PR.
pub fn program_source(params: &MarketParams, _: TimelineMode) -> String {
    source(params)
}

/// [`build`]. Kept for `benchmark/src/perp.rs`; goes with the next
/// `benchmark` PR.
pub fn build_program(params: &MarketParams, _: TimelineMode) -> Result<Program> {
    build(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronolog_core::{Reasoner, ReasonerConfig, Stratification, Symbol};

    #[test]
    fn program_parses_and_stratifies() {
        let program = build(&MarketParams::default()).unwrap();
        assert_eq!(program.rules.len(), RULE_LABELS.len());
        Reasoner::new(program, ReasonerConfig::default().with_horizon(0, 100)).unwrap();
    }

    #[test]
    fn stratification_orders_the_modules() {
        let program = build(&MarketParams::default()).unwrap();
        let s = Stratification::compute(&program).unwrap();
        let stratum = |p: &str| s.strata[&Symbol::new(p)];
        // event aggregates over position, skew negates event, rate reads skew,
        // frs negates unrFund, funding reads frs, margin reads funding.
        assert!(stratum("position") < stratum("event"));
        assert!(stratum("event") < stratum("skew"));
        assert!(stratum("skew") <= stratum("rate"));
        assert!(stratum("unrFund") < stratum("frs"));
        assert!(stratum("frs") <= stratum("funding"));
        assert!(stratum("funding") <= stratum("margin"));
        assert!(stratum("changeM") < stratum("margin"));
    }

    #[test]
    fn params_are_inlined_and_roundtrip() {
        let params = MarketParams {
            taker_fee: 0.00345,
            maker_fee: 0.00121,
            max_funding_rate: 0.125,
            ..MarketParams::default()
        };
        let src = source(&params);
        assert!(src.contains("0.00345"));
        assert!(src.contains("0.00121"));
        assert!(src.contains("0.125"));
        assert!(src.contains("300000000.0"));
        parse_program(&src).unwrap();
    }

    #[test]
    fn fmt_f64_always_reparses_exactly() {
        for v in [0.1, 0.0035, 300_000_000.0, 86_400.0, 1.0, 0.002] {
            let s = fmt_f64(v);
            assert_eq!(s.parse::<f64>().unwrap(), v, "{s}");
        }
    }

    #[test]
    fn event_times_come_from_time_capture_not_ts_facts() {
        let src = source(&MarketParams::default());
        assert!(src.contains("start()@T"));
        assert!(src.contains("event(S)@T"));
        assert!(!src.contains("ts("));
    }
}
