//! Scenario generation: synthesizes trader activity with prescribed
//! aggregate statistics — the stand-in for the real Optimism-Mainnet event
//! stream behind Figure 3.
//!
//! Each scenario fixes the window, the number of interactions, the number
//! of completed trades, and the initial skew; the generator fabricates a
//! *valid* event stream (per-account lifecycles, strictly increasing
//! timestamps) matching those numbers exactly, with GBM oracle prices.

use crate::price::GbmPrice;
use chronolog_obs::SmallRng;
use chronolog_perp::{AccountId, Event, Method, Trace};

/// Configuration of one market window (a row of Figure 3).
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Label, e.g. `2022-09-27 10.30-12.30`.
    pub name: String,
    /// RNG seed (scenarios are fully deterministic).
    pub seed: u64,
    /// Window start (Unix seconds).
    pub start_time: i64,
    /// Window length in seconds (the paper uses 2-hour windows).
    pub duration_secs: i64,
    /// Total interactions with the contract (*# events*).
    pub n_events: usize,
    /// Completed trades, i.e. `closePos` calls (*# trades*).
    pub n_trades: usize,
    /// Market skew at the window start (*Skew*).
    pub initial_skew: f64,
    /// Oracle price at the window start.
    pub initial_price: f64,
    /// Annualized price volatility.
    pub volatility: f64,
    /// Annualized price drift.
    pub drift: f64,
}

impl ScenarioConfig {
    /// A 2-hour window with crypto-typical volatility.
    pub fn new(
        name: &str,
        seed: u64,
        start_time: i64,
        n_events: usize,
        n_trades: usize,
        initial_skew: f64,
        initial_price: f64,
    ) -> ScenarioConfig {
        ScenarioConfig {
            name: name.to_string(),
            seed,
            start_time,
            duration_secs: 7_200,
            n_events,
            n_trades,
            initial_skew,
            initial_price,
            volatility: 0.9,
            drift: 0.0,
        }
    }
}

/// The three intervals of Figure 3, with their published event counts,
/// trade counts, and initial skews (prices are the approximate ETH quotes
/// of those dates).
pub fn paper_intervals() -> Vec<ScenarioConfig> {
    vec![
        // 2022-09-27 10:30–12:30 GMT.
        ScenarioConfig::new(
            "2022-09-27 10.30-12.30",
            20220927,
            1_664_274_600,
            267,
            59,
            -2445.98,
            1330.0,
        ),
        // 2022-10-07 18:00–20:00 GMT.
        ScenarioConfig::new(
            "2022-10-07 18.00-20.00",
            20221007,
            1_665_165_600,
            108,
            16,
            1302.88,
            1350.0,
        ),
        // 2022-10-12 14:00–16:00 GMT.
        ScenarioConfig::new(
            "2022-10-12 14.00-16.00",
            20221012,
            1_665_583_200,
            128,
            29,
            2502.85,
            1290.0,
        ),
    ]
}

/// One account's scripted lifecycle (methods in per-account order; global
/// timestamps assigned later).
struct AccountScript {
    account: AccountId,
    methods: Vec<PlannedMethod>,
}

enum PlannedMethod {
    Deposit,
    Open,
    Modify,
    Close,
    Withdraw,
}

/// Generates a trace matching the scenario's aggregate statistics exactly.
///
/// # Panics
/// Panics when the statistics are infeasible (fewer than `2*n_trades + 1`
/// events, or zero events with nonzero trades).
pub fn generate(config: &ScenarioConfig) -> Trace {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let e = config.n_events;
    let c = config.n_trades;
    assert!(
        e >= 2 * c + usize::from(c > 0),
        "infeasible scenario: {e} events cannot contain {c} trades"
    );

    // --- Event budget: E = deposits + opens + modifies + closes + withdraws.
    let budget = e - c; // non-close events
                        // Every trade needs an open; every account needs a first deposit.
    let n_accounts = if c == 0 {
        budget.clamp(1, 8)
    } else {
        ((2 * c).div_ceil(3)).clamp(1, budget - c)
    };
    let spare = budget - c - n_accounts;
    let n_withdraw = (n_accounts / 4).min(spare);
    let spare = spare - n_withdraw;
    // Position modifications only exist for accounts that trade; with no
    // trades the whole spare budget becomes later deposits.
    let (n_extra_deposits, n_modifies) = if c == 0 {
        (spare, 0)
    } else {
        (spare / 5, spare - spare / 5)
    };

    // --- Distribute trades / modifies / deposits over accounts.
    let mut scripts: Vec<AccountScript> = (0..n_accounts)
        .map(|i| AccountScript {
            account: AccountId(i as u32 + 1),
            methods: vec![PlannedMethod::Deposit],
        })
        .collect();
    let mut trades_of = vec![0usize; n_accounts];
    for _ in 0..c {
        trades_of[rng.gen_range_usize(0, n_accounts)] += 1;
    }
    let mut modifies_of = vec![0usize; n_accounts.max(1)];
    for _ in 0..n_modifies {
        // Modifications only make sense for accounts that trade.
        let candidates: Vec<usize> = (0..n_accounts).filter(|&i| trades_of[i] > 0).collect();
        let i = *rng
            .choose(&candidates)
            .expect("n_modifies > 0 implies trading accounts exist");
        modifies_of[i] += 1;
    }
    for (i, script) in scripts.iter_mut().enumerate() {
        let mut mods_left = modifies_of[i];
        for session in 0..trades_of[i] {
            script.methods.push(PlannedMethod::Open);
            // Spread this account's modifications over its sessions.
            let sessions_left = trades_of[i] - session;
            let take = if sessions_left == 1 {
                mods_left
            } else {
                rng.gen_range_usize(0, mods_left / sessions_left.max(1) + 1)
            };
            for _ in 0..take {
                script.methods.push(PlannedMethod::Modify);
            }
            mods_left -= take;
            script.methods.push(PlannedMethod::Close);
        }
    }
    for _ in 0..n_extra_deposits {
        let i = rng.gen_range_usize(0, n_accounts);
        // A later deposit can land anywhere after the first one; append and
        // let interleaving randomize relative order with other accounts.
        let pos = rng.gen_range_usize(1, scripts[i].methods.len() + 1);
        scripts[i].methods.insert(pos, PlannedMethod::Deposit);
    }
    let mut withdrawn: Vec<usize> = (0..n_accounts).collect();
    rng.shuffle(&mut withdrawn);
    for &i in withdrawn.iter().take(n_withdraw) {
        scripts[i].methods.push(PlannedMethod::Withdraw);
    }

    // --- Strictly increasing global timestamps. ---
    assert_eq!(
        scripts.iter().map(|s| s.methods.len()).sum::<usize>(),
        e,
        "event budget accounting"
    );
    let span = config.duration_secs - 2;
    let mut times: Vec<i64> = rng
        .sample_indices(span as usize, e)
        .into_iter()
        .map(|k| config.start_time + 1 + k as i64)
        .collect();
    times.sort_unstable();

    // --- Interleave account scripts, preserving per-account order. ---
    let mut cursors = vec![0usize; n_accounts];
    let mut price = GbmPrice::new(
        config.initial_price,
        config.start_time,
        config.drift,
        config.volatility,
    );
    let mut events: Vec<Event> = Vec::with_capacity(e);
    let mut positions = vec![0.0f64; n_accounts]; // running sizes
    for t in times {
        let pending: Vec<usize> = (0..n_accounts)
            .filter(|&i| cursors[i] < scripts[i].methods.len())
            .collect();
        // Weight by remaining script length so long scripts finish in time.
        let i = *pending
            .iter()
            .max_by_key(|&&i| {
                let remaining = scripts[i].methods.len() - cursors[i];
                (remaining, rng.gen_range_i64(0, 1_000_000))
            })
            .expect("timestamps equal total events");
        let p = price.advance(t, &mut rng);
        let method = match scripts[i].methods[cursors[i]] {
            PlannedMethod::Deposit => Method::TransferMargin {
                amount: round2(rng.gen_range_f64(500.0, 50_000.0)),
            },
            PlannedMethod::Open => {
                let size = random_size(&mut rng);
                positions[i] = size;
                Method::ModifyPosition { size }
            }
            PlannedMethod::Modify => {
                let mut size = random_size(&mut rng) * 0.4;
                // Never let the running position hit exactly zero: a
                // zero-size open position has no side, and the real
                // contract rejects such orders.
                if (positions[i] + size).abs() < 1e-6 {
                    size += 0.25;
                }
                positions[i] += size;
                Method::ModifyPosition { size }
            }
            PlannedMethod::Close => {
                positions[i] = 0.0;
                Method::ClosePosition
            }
            PlannedMethod::Withdraw => Method::Withdraw,
        };
        cursors[i] += 1;
        events.push(Event {
            time: t,
            account: scripts[i].account,
            method,
            price: p,
        });
    }

    let trace = Trace {
        start_time: config.start_time,
        end_time: config.start_time + config.duration_secs,
        initial_skew: config.initial_skew,
        initial_price: config.initial_price,
        events,
    };
    trace
        .validate()
        .unwrap_or_else(|e| panic!("generator produced an invalid trace: {e}"));
    trace
}

/// Signed lognormal-ish position size (median ≈ 4.5 ETH, heavy tail).
fn random_size(rng: &mut SmallRng) -> f64 {
    let magnitude = rng.gen_range_f64(-0.5, 2.5).exp() * 2.5;
    let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    round4(sign * magnitude)
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn round4(v: f64) -> f64 {
    (v * 10_000.0).round() / 10_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_intervals_match_figure_3_exactly() {
        let expected = [(267, 59, -2445.98), (108, 16, 1302.88), (128, 29, 2502.85)];
        for (config, (e, c, skew)) in paper_intervals().iter().zip(expected) {
            let trace = generate(config);
            assert_eq!(trace.event_count(), e, "{}", config.name);
            assert_eq!(trace.trade_count(), c, "{}", config.name);
            assert_eq!(trace.initial_skew, skew);
            assert_eq!(trace.span_secs(), 7_200);
            trace.validate().unwrap();
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let config = &paper_intervals()[0];
        assert_eq!(generate(config), generate(config));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = paper_intervals()[1].clone();
        let b = a.clone();
        a.seed += 1;
        assert_ne!(generate(&a), generate(&b));
    }

    #[test]
    fn small_scenarios_are_feasible() {
        for (e, c) in [(3, 1), (5, 2), (10, 4), (50, 20), (1, 0)] {
            let config = ScenarioConfig::new("tiny", 7, 0, e, c, 0.0, 1500.0);
            let trace = generate(&config);
            assert_eq!(trace.event_count(), e);
            assert_eq!(trace.trade_count(), c);
        }
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_scenario_panics() {
        generate(&ScenarioConfig::new("bad", 7, 0, 2, 1, 0.0, 1500.0));
    }

    #[test]
    fn timestamps_strictly_increase_and_stay_in_window() {
        let trace = generate(&paper_intervals()[2]);
        let mut last = trace.start_time;
        for e in &trace.events {
            assert!(e.time > last);
            assert!(e.time < trace.end_time);
            last = e.time;
        }
    }

    #[test]
    fn scaled_scenarios_for_benchmarks() {
        for n in [32usize, 128, 512] {
            let config = ScenarioConfig::new("scale", 11, 0, n, n / 3, 100.0, 1400.0);
            let trace = generate(&config);
            assert_eq!(trace.event_count(), n);
        }
    }
}
