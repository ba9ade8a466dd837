//! The procedural reference implementation of the ETH-PERP business logic —
//! our stand-in for the 3k-line Solidity contract and the Mainnet Subgraph
//! the paper validates against.
//!
//! The engine is generic over an arithmetic backend:
//! * [`f64`] — IEEE doubles with *exactly* the operation order of our
//!   DatalogMTL rules, so the declarative run must match it bit-for-bit
//!   (used to unit-prove the encoding);
//! * [`Fixed18`] — truncating 18-decimal fixed point,
//!   the EVM's arithmetic, whose results differ from the float run by
//!   ~1e-12 — the error shape reported in Figures 4 and 5.

use crate::fixed::Fixed18;
use crate::params::MarketParams;
use crate::types::{AccountId, Event, MarketRun, Method, Trace, TradeSettlement};
use std::collections::HashMap;

/// Arithmetic backend abstraction.
pub trait Arith: Copy + std::fmt::Debug {
    /// Injects a decimal constant.
    fn of(v: f64) -> Self;
    /// Projects back to a float for reporting.
    fn to_f64(self) -> f64;
    /// Addition.
    fn add(self, o: Self) -> Self;
    /// Subtraction.
    fn sub(self, o: Self) -> Self;
    /// Multiplication.
    fn mul(self, o: Self) -> Self;
    /// Division.
    fn div(self, o: Self) -> Self;
    /// Negation.
    fn neg(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Clamp into `[-1, 1]` (rules 28–30).
    fn clamp_unit(self) -> Self;
    /// Exactly zero?
    fn is_zero(self) -> bool;
    /// `self >= 0`?
    fn is_non_negative(self) -> bool;
}

impl Arith for f64 {
    fn of(v: f64) -> f64 {
        v
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn add(self, o: f64) -> f64 {
        self + o
    }
    fn sub(self, o: f64) -> f64 {
        self - o
    }
    fn mul(self, o: f64) -> f64 {
        self * o
    }
    fn div(self, o: f64) -> f64 {
        self / o
    }
    fn neg(self) -> f64 {
        -self
    }
    fn abs(self) -> f64 {
        f64::abs(self)
    }
    #[allow(clippy::manual_clamp)] // mirrors rules 28-30 literally; NaN-free
    fn clamp_unit(self) -> f64 {
        if self > 1.0 {
            1.0
        } else if self < -1.0 {
            -1.0
        } else {
            self
        }
    }
    fn is_zero(self) -> bool {
        self == 0.0
    }
    fn is_non_negative(self) -> bool {
        self >= 0.0
    }
}

impl Arith for Fixed18 {
    fn of(v: f64) -> Fixed18 {
        Fixed18::from_f64(v)
    }
    fn to_f64(self) -> f64 {
        Fixed18::to_f64(self)
    }
    fn add(self, o: Fixed18) -> Fixed18 {
        self + o
    }
    fn sub(self, o: Fixed18) -> Fixed18 {
        self - o
    }
    fn mul(self, o: Fixed18) -> Fixed18 {
        Fixed18::mul(self, o)
    }
    fn div(self, o: Fixed18) -> Fixed18 {
        Fixed18::div(self, o)
    }
    fn neg(self) -> Fixed18 {
        -self
    }
    fn abs(self) -> Fixed18 {
        Fixed18::abs(self)
    }
    fn clamp_unit(self) -> Fixed18 {
        Fixed18::clamp(self, -Fixed18::ONE, Fixed18::ONE)
    }
    fn is_zero(self) -> bool {
        Fixed18::is_zero(self)
    }
    fn is_non_negative(self) -> bool {
        self.signum() >= 0
    }
}

/// Per-account state (the `margin`, `position`, `fee`, `indF` predicates).
#[derive(Clone, Copy, Debug)]
struct AccountState<A: Arith> {
    margin: A,
    size: A,
    notional: A,
    fees: A,
    /// `(PF, AF)` of the `indF` predicate: the funding-sequence value at the
    /// last position change and the funding accrued up to it.
    ind_f: Option<(A, A)>,
}

/// The reference ETH-PERP market engine.
pub struct ReferenceEngine<A: Arith> {
    params: MarketParams,
    skew: A,
    frs: A,
    last_event_time: i64,
    accounts: HashMap<AccountId, AccountState<A>>,
    run: MarketRun,
}

impl<A: Arith> ReferenceEngine<A> {
    /// Opens the market window with the given initial skew at `start_time`.
    pub fn new(params: MarketParams, initial_skew: f64, start_time: i64) -> Self {
        ReferenceEngine {
            params,
            skew: A::of(initial_skew),
            frs: A::of(0.0),
            last_event_time: start_time,
            accounts: HashMap::new(),
            run: MarketRun::default(),
        }
    }

    /// Current skew.
    pub fn skew(&self) -> f64 {
        self.skew.to_f64()
    }

    /// Current funding-rate-sequence value `F(t)`.
    pub fn frs(&self) -> f64 {
        self.frs.to_f64()
    }

    /// Margin of an account, if open.
    pub fn margin(&self, account: AccountId) -> Option<f64> {
        self.accounts.get(&account).map(|a| a.margin.to_f64())
    }

    /// Position `(size, notional)` of an account, if open.
    pub fn position(&self, account: AccountId) -> Option<(f64, f64)> {
        self.accounts
            .get(&account)
            .map(|a| (a.size.to_f64(), a.notional.to_f64()))
    }

    /// Applies one event; returns the settlement when it closes a trade.
    ///
    /// The update order per timestamp matches the stratification of the
    /// DatalogMTL program: funding (rules 23–33, using the *previous* skew —
    /// `⊟skew` in rule 27), then the skew update (rule 22), then fees with
    /// the *post-event* skew (rules 40–47), then positions and margins.
    pub fn apply(&mut self, event: &Event) -> Option<TradeSettlement> {
        let p = A::of(event.price);
        let t = event.time;

        // --- F-RATE: accrue unrecorded funding since the last event. ---
        // Rule 27: I = -K * P / skew_scale  (K = skew at t-1, P = price at t)
        let i_raw = self
            .skew
            .neg()
            .mul(p)
            .div(A::of(self.params.skew_scale_notional));
        // Rules 28-30: clamp.
        let i = i_raw.clamp_unit();
        // Rule 26: Diff = seconds since last event.
        let dt = A::of((t - self.last_event_time) as f64);
        // Rule 31: UF = I * P * T * i_max / 86400 (left-associated).
        let uf = i
            .mul(p)
            .mul(dt)
            .mul(A::of(self.params.max_funding_rate))
            .div(A::of(self.params.funding_period_secs));
        // Rule 33: F = F_prev + UF.
        self.frs = self.frs.add(uf);
        self.last_event_time = t;

        // --- Skew update (rules 17-22). ---
        let order_size: Option<A> = match event.method {
            Method::ModifyPosition { size } => Some(A::of(size)),
            Method::ClosePosition => {
                let acc = self.accounts.get(&event.account);
                Some(acc.map(|a| a.size.neg()).unwrap_or_else(|| A::of(0.0)))
            }
            Method::TransferMargin { .. } | Method::Withdraw => None,
        };
        if let Some(s) = order_size {
            // Rule 22: K = X + S.
            self.skew = self.skew.add(s);
        }

        // --- Per-method state updates. ---
        let settlement = match event.method {
            Method::TransferMargin { amount } => {
                let amount = A::of(amount);
                match self.accounts.get_mut(&event.account) {
                    // Rule 8: later deposit.
                    Some(acc) => acc.margin = acc.margin.add(amount),
                    // Rules 3, 10, 38: first deposit initializes everything.
                    None => {
                        self.accounts.insert(
                            event.account,
                            AccountState {
                                margin: amount,
                                size: A::of(0.0),
                                notional: A::of(0.0),
                                fees: A::of(0.0),
                                ind_f: None,
                            },
                        );
                    }
                }
                None
            }
            Method::Withdraw => {
                // Rules 2/4: the account ceases to exist.
                self.accounts.remove(&event.account);
                None
            }
            Method::ModifyPosition { size } => {
                let s = A::of(size);
                let acc = self
                    .accounts
                    .get_mut(&event.account)
                    .expect("validated trace: margin before modPos");
                // Rules 40-43: fee with post-event skew, increasing pays taker.
                let phi = A::of(fee_rate_for(
                    &self.params,
                    self.skew.is_non_negative(),
                    size > 0.0,
                ));
                acc.fees = acc.fees.add(s.mul(p).mul(phi).abs());
                // Rules 34/36: individual funding checkpoint on the
                // pre-order size (⊟position).
                acc.ind_f = Some(match acc.ind_f {
                    None => (self.frs, A::of(0.0)),
                    Some(_) if acc.size.is_zero() => (self.frs, A::of(0.0)),
                    Some((pf, paf)) => (self.frs, paf.add(acc.size.mul(self.frs.sub(pf)))),
                });
                // Rule 14: S = X + Y, N = Z + X * P.
                acc.size = acc.size.add(s);
                acc.notional = acc.notional.add(s.mul(p));
                None
            }
            Method::ClosePosition => {
                let frs = self.frs;
                let skew_non_negative = self.skew.is_non_negative();
                let acc = self
                    .accounts
                    .get_mut(&event.account)
                    .expect("validated trace: margin before closePos");
                let size = acc.size;
                // Rule 16: PL = S * P - N.
                let pnl = size.mul(p).sub(acc.notional);
                // Rules 44-47: closing reverses the position (Δq = -S).
                let phi = A::of(fee_rate_for(
                    &self.params,
                    skew_non_negative,
                    size.neg().to_f64() > 0.0,
                ));
                let final_fee = acc.fees.add(size.mul(p).mul(phi).abs());
                // Rule 37: IF = AF + S * (F - PF).
                let (pf, af) = acc.ind_f.expect("validated trace: position was opened");
                let funding = af.add(size.mul(frs.sub(pf)));
                // Rule 9: M = X + PL - C + IF.
                acc.margin = acc.margin.add(pnl).sub(final_fee).add(funding);
                // Rules 15/48: reset position and fee accumulator.
                acc.size = A::of(0.0);
                acc.notional = A::of(0.0);
                acc.fees = A::of(0.0);
                acc.ind_f = None;
                Some(TradeSettlement {
                    account: event.account,
                    time: t,
                    pnl: pnl.to_f64(),
                    fee: final_fee.to_f64(),
                    funding: funding.to_f64(),
                })
            }
        };

        self.run.frs.push((t, self.frs.to_f64()));
        if let Some(s) = settlement {
            self.run.trades.push(s);
        }
        self.run.final_skew = self.skew.to_f64();
        settlement
    }

    /// Replays a whole trace, returning the observable run.
    pub fn run_trace(params: MarketParams, trace: &Trace) -> MarketRun {
        let mut engine = Self::new(params, trace.initial_skew, trace.start_time);
        for event in &trace.events {
            engine.apply(event);
        }
        engine.run
    }
}

/// Rate choice shared by modPos and closePos: skew-increasing pays taker.
fn fee_rate_for(params: &MarketParams, skew_non_negative: bool, dq_positive: bool) -> f64 {
    if skew_non_negative == dq_positive {
        params.taker_fee
    } else {
        params.maker_fee
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: i64, acc: u32, m: Method, price: f64) -> Event {
        Event {
            time: t,
            account: AccountId(acc),
            method: m,
            price,
        }
    }

    fn params() -> MarketParams {
        MarketParams::default()
    }

    #[test]
    fn example_3_1_margin_deposit() {
        // margin(123abc, 97)@d1, tranM(123abc, 3)@d2 -> margin 100.
        let mut e = ReferenceEngine::<f64>::new(params(), 0.0, 0);
        e.apply(&ev(10, 1, Method::TransferMargin { amount: 97.0 }, 1500.0));
        e.apply(&ev(20, 1, Method::TransferMargin { amount: 3.0 }, 1500.0));
        assert_eq!(e.margin(AccountId(1)), Some(100.0));
    }

    #[test]
    fn example_3_2_position_initialization() {
        let mut e = ReferenceEngine::<f64>::new(params(), 0.0, 0);
        e.apply(&ev(10, 1, Method::TransferMargin { amount: 60.0 }, 70.0));
        assert_eq!(e.position(AccountId(1)), Some((0.0, 0.0)));
        e.apply(&ev(30, 1, Method::ModifyPosition { size: 0.4 }, 70.0));
        let (s, n) = e.position(AccountId(1)).unwrap();
        assert_eq!(s, 0.4);
        assert!((n - 28.0).abs() < 1e-12); // notional = 0.4 * 70$
    }

    #[test]
    fn example_3_3_pnl() {
        // position(0.7, 39$), price 47$, close -> PNL = 0.7*47 - 39 = -6.1.
        let mut e = ReferenceEngine::<f64>::new(params(), 0.0, 0);
        e.apply(&ev(
            10,
            1,
            Method::TransferMargin { amount: 100.0 },
            55.714285714285715,
        )); // 39/0.7
        e.apply(&ev(
            20,
            1,
            Method::ModifyPosition { size: 0.7 },
            55.714285714285715,
        ));
        let s = e
            .apply(&ev(30, 1, Method::ClosePosition, 47.0))
            .expect("settlement");
        assert!(
            (s.pnl - (0.7 * 47.0 - 39.0)).abs() < 1e-12,
            "pnl = {}",
            s.pnl
        );
    }

    #[test]
    fn example_3_6_fee_on_long_order_with_positive_skew() {
        // skew 1342.2, price 1200, modPos +0.02: rate 0.0035 -> fee 0.084.
        let mut e = ReferenceEngine::<f64>::new(params(), 1342.2, 0);
        e.apply(&ev(
            10,
            1,
            Method::TransferMargin { amount: 1000.0 },
            1200.0,
        ));
        e.apply(&ev(20, 1, Method::ModifyPosition { size: 0.02 }, 1200.0));
        let acc = e.accounts[&AccountId(1)];
        assert!(
            (acc.fees.to_f64() - 0.084).abs() < 1e-12,
            "fee = {:?}",
            acc.fees
        );
    }

    #[test]
    fn example_3_4_funding_rate_sequence() {
        // Market opens at t0; A opens q_a at t1, B interacts at t2, A closes
        // at t4. FRS updated at t1, t2, t4.
        let p = 1500.0;
        let mut e = ReferenceEngine::<f64>::new(params(), 0.0, 0);
        e.apply(&ev(100, 1, Method::TransferMargin { amount: 1e6 }, p)); // F(t1)
        e.apply(&ev(200, 1, Method::ModifyPosition { size: 10.0 }, p));
        e.apply(&ev(300, 2, Method::TransferMargin { amount: 1e6 }, p)); // B interacts
        let s = e
            .apply(&ev(500, 1, Method::ClosePosition, p))
            .expect("settlement");
        // Before t=200 the skew is 0 -> zero funding. After the long opens,
        // skew>0 -> longs pay -> funding negative for the long.
        assert!(s.funding < 0.0, "funding = {}", s.funding);
        assert_eq!(e.run.frs.len(), 4);
        // Manual recomputation of the cumulative FRS:
        let params = params();
        let i1 = params.instantaneous_funding_rate(10.0, p);
        // Zero-skew before t=200 contributes nothing; from t=200 the skew is
        // 10, so F accrues i1*p per second over [200, 300] and [300, 500].
        let expected_f_t4 = i1 * p * (300.0 - 200.0) + i1 * p * (500.0 - 300.0);
        let f_t4 = e.run.frs.last().unwrap().1;
        assert!(
            (f_t4 - expected_f_t4).abs() < 1e-15,
            "{f_t4} vs {expected_f_t4}"
        );
        // Example 3.4: IF_A = q_a (F(t4) - F(t1)); F(t1) = 0 here.
        assert!((s.funding - 10.0 * f_t4).abs() < 1e-12);
    }

    #[test]
    fn example_3_5_funding_with_midway_modification() {
        let p = 1500.0;
        let par = params();
        let mut e = ReferenceEngine::<f64>::new(par, 0.0, 0);
        e.apply(&ev(100, 1, Method::TransferMargin { amount: 1e6 }, p));
        e.apply(&ev(200, 1, Method::ModifyPosition { size: 10.0 }, p)); // open q_a
        e.apply(&ev(400, 1, Method::ModifyPosition { size: 5.0 }, p)); // +s at t3
        let s = e
            .apply(&ev(700, 1, Method::ClosePosition, p))
            .expect("settlement");
        // IF = q_a (F(t3) - F(t1)) + (q_a + s)(F(t4) - F(t3)).
        let f = &e.run.frs;
        let f_t1 = f[1].1;
        let f_t3 = f[2].1;
        let f_t4 = f[3].1;
        let expected = 10.0 * (f_t3 - f_t1) + 15.0 * (f_t4 - f_t3);
        assert!(
            (s.funding - expected).abs() < 1e-12,
            "{} vs {expected}",
            s.funding
        );
    }

    #[test]
    fn close_fee_uses_reversed_side() {
        // Long position, skew positive after close-order applied:
        // closing a long reduces the skew -> maker rate.
        let par = params();
        let mut e = ReferenceEngine::<f64>::new(par, 100.0, 0);
        e.apply(&ev(10, 1, Method::TransferMargin { amount: 1e6 }, 1000.0));
        e.apply(&ev(20, 1, Method::ModifyPosition { size: 2.0 }, 1000.0));
        let s = e.apply(&ev(30, 1, Method::ClosePosition, 1000.0)).unwrap();
        let open_fee = (2.0f64 * 1000.0 * par.taker_fee).abs(); // increased skew
        let close_fee = (2.0f64 * 1000.0 * par.maker_fee).abs(); // reduced skew
        assert!(
            (s.fee - (open_fee + close_fee)).abs() < 1e-12,
            "fee = {}",
            s.fee
        );
    }

    #[test]
    fn margin_settles_pnl_fee_funding() {
        let par = params();
        let mut e = ReferenceEngine::<f64>::new(par, 0.0, 0);
        e.apply(&ev(10, 1, Method::TransferMargin { amount: 1000.0 }, 100.0));
        e.apply(&ev(20, 1, Method::ModifyPosition { size: 1.0 }, 100.0));
        let s = e.apply(&ev(30, 1, Method::ClosePosition, 110.0)).unwrap();
        let m = e.margin(AccountId(1)).unwrap();
        assert!((m - (1000.0 + s.pnl - s.fee + s.funding)).abs() < 1e-12);
        assert!(s.pnl > 9.99 && s.pnl < 10.01); // 1.0 * (110 - 100)
    }

    #[test]
    fn withdraw_removes_account() {
        let mut e = ReferenceEngine::<f64>::new(params(), 0.0, 0);
        e.apply(&ev(10, 1, Method::TransferMargin { amount: 50.0 }, 100.0));
        e.apply(&ev(20, 1, Method::Withdraw, 100.0));
        assert_eq!(e.margin(AccountId(1)), None);
        // Re-opening initializes from scratch.
        e.apply(&ev(30, 1, Method::TransferMargin { amount: 7.0 }, 100.0));
        assert_eq!(e.margin(AccountId(1)), Some(7.0));
    }

    #[test]
    fn fixed18_backend_differs_from_f64_by_dust() {
        let par = params();
        let trace = Trace {
            start_time: 0,
            end_time: 7200,
            initial_skew: -2445.98,
            initial_price: 1362.5,
            events: vec![
                ev(10, 1, Method::TransferMargin { amount: 5000.0 }, 1362.5),
                ev(25, 1, Method::ModifyPosition { size: 1.5 }, 1363.0),
                ev(80, 2, Method::TransferMargin { amount: 9000.0 }, 1364.0),
                ev(120, 2, Method::ModifyPosition { size: -2.25 }, 1361.0),
                ev(600, 1, Method::ClosePosition, 1359.5),
                ev(900, 2, Method::ClosePosition, 1365.25),
            ],
        };
        trace.validate().unwrap();
        let float_run = ReferenceEngine::<f64>::run_trace(par, &trace);
        let fixed_run = ReferenceEngine::<Fixed18>::run_trace(par, &trace);
        assert_eq!(float_run.trades.len(), 2);
        assert_eq!(fixed_run.trades.len(), 2);
        for (a, b) in float_run.trades.iter().zip(&fixed_run.trades) {
            // Same trade, both non-trivial...
            assert_eq!(a.account, b.account);
            // ...agreeing to ~1e-9 relative (the paper's "errors of order
            // 1e-12" on per-trade magnitudes).
            assert!((a.pnl - b.pnl).abs() < 1e-6, "pnl {} vs {}", a.pnl, b.pnl);
            assert!((a.fee - b.fee).abs() < 1e-6);
            assert!((a.funding - b.funding).abs() < 1e-6);
        }
        // The FRS sequences agree closely but not exactly.
        for ((_, x), (_, y)) in float_run.frs.iter().zip(&fixed_run.frs) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }
}
