//! Input generation. Everything the engine sees is made here from the
//! benchmark seed; the engine receives only the generated inputs.
//!
//! Seed 0 reproduces the paper's Figure-3 traces exactly. Any other seed
//! re-draws the *values* of every workload — oracle prices, deposit
//! amounts, which events are corrected, counterparty labels, query targets
//! — and leaves its *structure* alone: event times, accounts, method
//! sequences and the trade ring. The work of these programs follows the
//! structure (who holds what over which seconds), so runs at different
//! seeds measure the same amount of work on different numbers. XOR-ing the
//! seed into `ScenarioConfig::seed`, which re-draws the structure too,
//! moved `batch_s` by ±10 % and `state_mb` by ±8 % from seed to seed: ten
//! seeds would have measured the draw, not the engine.

use chronolog_core::{Database, Fact, Value};
use chronolog_market::{generate, paper_intervals, GbmPrice, ScenarioConfig, TraceStats};
use chronolog_obs::SmallRng;
use chronolog_perp::encode::account_value;
use chronolog_perp::{Event, Method, Trace};

/// The three Figure-3 scenarios; in smoke mode a tenth of the events,
/// trades and window.
pub fn fig3_configs(smoke: bool) -> Vec<ScenarioConfig> {
    paper_intervals()
        .into_iter()
        .map(|mut c| {
            if smoke {
                c.n_events /= 10;
                c.n_trades /= 10;
                c.duration_secs /= 10;
            }
            c
        })
        .collect()
}

/// The busy market of `burst_ops`: an event every ≈ 2 s.
pub fn burst_config(smoke: bool) -> ScenarioConfig {
    let (events, trades) = if smoke { (26, 8) } else { (256, 85) };
    let mut c = ScenarioConfig::new(
        "burst",
        0xB0057,
        1_665_583_200,
        events,
        trades,
        2502.85,
        1290.0,
    );
    c.duration_secs = 2 * events as i64 + 2;
    c
}

/// Generates a scenario's trace, re-draws its values from the benchmark
/// seed (0 keeps the generator's own), and checks it has exactly the row
/// statistics the scenario prescribes (the Figure-3 columns).
pub fn trace_of(config: &ScenarioConfig, seed: u64) -> Result<Trace, String> {
    let mut trace = generate(config);
    if seed != 0 {
        redraw_values(&mut trace, config, seed);
        trace.validate()?;
    }
    let s = TraceStats::of(&trace);
    if s.events != config.n_events
        || s.trades != config.n_trades
        || s.initial_skew.to_bits() != config.initial_skew.to_bits()
        || s.span_secs != config.duration_secs
    {
        return Err(format!(
            "{}: generated {}/{}/{}/{}s, scenario prescribes {}/{}/{}/{}s",
            config.name,
            s.events,
            s.trades,
            s.initial_skew,
            s.span_secs,
            config.n_events,
            config.n_trades,
            config.initial_skew,
            config.duration_secs
        ));
    }
    Ok(trace)
}

/// Replaces the oracle price path and the deposit amounts of a trace by
/// draws from `seed`, with the generator's own distributions.
fn redraw_values(trace: &mut Trace, config: &ScenarioConfig, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(config.seed ^ seed);
    let mut price = GbmPrice::new(
        config.initial_price,
        config.start_time,
        config.drift,
        config.volatility,
    );
    for event in &mut trace.events {
        event.price = price.advance(event.time, &mut rng);
        if let Method::TransferMargin { amount } = &mut event.method {
            *amount = (rng.gen_range_f64(500.0, 50_000.0) * 100.0).round() / 100.0;
        }
    }
}

/// The genesis facts a live session boots from (the initial conditions
/// `encode_trace` asserts at the window start on the dense timeline).
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

/// The method-call fact of an event on the dense timeline.
pub fn method_fact(event: &Event) -> Fact {
    let acc = account_value(event.account);
    match event.method {
        Method::TransferMargin { amount } => {
            Fact::at("tranM", vec![acc, Value::num(amount)], event.time)
        }
        Method::Withdraw => Fact::at("withdraw", vec![acc], event.time),
        Method::ModifyPosition { size } => {
            Fact::at("modPos", vec![acc, Value::num(size)], event.time)
        }
        Method::ClosePosition => Fact::at("closePos", vec![acc], event.time),
    }
}

/// The oracle-price fact observed with an event.
pub fn price_fact(time: i64, price: f64) -> Fact {
    Fact::at("price", vec![Value::num(price)], time)
}

/// Indices of the events `burst_ops` corrects: `count` distinct events of
/// the trace's second half, in seeded order. The draw is stratified — one
/// event from each of `count` equal slices — because a correction's cost
/// grows with its distance from the watermark, and an unstratified draw
/// moves the summed cost by several percent from seed to seed.
pub fn correction_targets(seed: u64, n_events: usize, count: usize) -> Vec<usize> {
    let half = n_events / 2;
    let count = count.min(n_events - half);
    let mut rng = SmallRng::seed_from_u64(0x0C02_2EC7 ^ seed);
    let edge = |k: usize| half + k * (n_events - half) / count;
    let mut picks: Vec<usize> = (0..count)
        .map(|k| rng.gen_range_usize(edge(k), edge(k + 1)))
        .collect();
    rng.shuffle(&mut picks);
    picks
}

/// The rules of `corpus/netting.dmtl` (its inline facts are replaced by
/// the generated trade ring).
fn netting_rules() -> String {
    include_str!("../../corpus/netting.dmtl")
        .lines()
        .filter(|l| !l.starts_with("trade(") && !l.starts_with('%') && !l.trim().is_empty())
        .collect::<Vec<_>>()
        .join("\n")
}

/// The scaled netting input: a ring of counterparties with three trades
/// each.
pub struct Netting {
    /// Counterparties in the ring.
    pub parties: usize,
    /// Ring strides of each party's three trades.
    pub strides: [usize; 3],
    /// Program text: the corpus rules followed by the generated facts.
    /// The party at ring position `x` is labelled `cp{x}` at seed 0 and by
    /// a seeded permutation of the labels otherwise.
    pub source: String,
    /// Counterparty index `K` of each `exposure(cpK, X)` point query.
    pub query_targets: Vec<usize>,
}

/// Validity of every generated trade, and the reasoning horizon.
pub const NETTING_WINDOW: (i64, i64) = (0, 20);

/// Builds the netting input; `queries` seeded query targets.
pub fn netting(seed: u64, smoke: bool, queries: usize) -> Netting {
    let parties = if smoke { 40 } else { 120 };
    let mut rng = SmallRng::seed_from_u64(0x004E_7713 ^ seed);
    let strides = [1, 3, 7];
    let mut labels: Vec<usize> = (0..parties).collect();
    if seed != 0 {
        rng.shuffle(&mut labels);
    }
    let mut source = netting_rules();
    source.push('\n');
    let (lo, hi) = NETTING_WINDOW;
    for x in 0..parties {
        for stride in strides {
            let (from, to) = (labels[x], labels[(x + stride) % parties]);
            source.push_str(&format!("trade(cp{from}, cp{to})@[{lo}, {hi}].\n"));
        }
    }
    let query_targets = (0..queries)
        .map(|_| rng.gen_range_usize(0, parties))
        .collect();
    Netting {
        parties,
        strides,
        source,
        query_targets,
    }
}

impl Netting {
    /// Result tuples of the full model, computed independently of the
    /// engine by breadth-first reachability over the ring: `trade` +
    /// `exposure` (pairs joined by a path) + `nettable` (pairs joined by
    /// a path of at least two trades).
    pub fn expected_tuples(&self) -> usize {
        let n = self.parties;
        let next = |x: usize| self.strides.map(|s| (x + s) % n);
        let mut total = n * self.strides.len();
        for x in 0..n {
            // dist[y] = fewest trades from x to y, counting a return to x.
            let mut reach1 = vec![false; n];
            let mut frontier: Vec<usize> = next(x).to_vec();
            for &y in &frontier {
                reach1[y] = true;
            }
            let mut exposure = reach1.clone();
            let mut nettable = vec![false; n];
            while let Some(y) = frontier.pop() {
                for z in next(y) {
                    nettable[z] = true;
                    if !exposure[z] {
                        exposure[z] = true;
                        frontier.push(z);
                    }
                }
            }
            total += exposure.iter().filter(|&&b| b).count();
            total += nettable.iter().filter(|&&b| b).count();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_paper_input() {
        let traces: Vec<Trace> = fig3_configs(false)
            .iter()
            .map(|c| trace_of(c, 0).unwrap())
            .collect();
        let paper: Vec<Trace> = paper_intervals().iter().map(generate).collect();
        assert_eq!(traces, paper);
    }

    #[test]
    fn other_seeds_redraw_values_and_keep_the_structure() {
        let paper = generate(&paper_intervals()[0]);
        for seed in [1, 7, 12345] {
            let traces: Vec<Trace> = fig3_configs(false)
                .iter()
                .map(|c| trace_of(c, seed).unwrap())
                .collect();
            let shape: Vec<(usize, usize)> = traces
                .iter()
                .map(|t| (t.event_count(), t.trade_count()))
                .collect();
            assert_eq!(shape, [(267, 59), (108, 16), (128, 29)]);
            assert_ne!(traces[0], paper);
            for (a, b) in traces[0].events.iter().zip(&paper.events) {
                assert_eq!((a.time, a.account), (b.time, b.account));
                assert_eq!(
                    std::mem::discriminant(&a.method),
                    std::mem::discriminant(&b.method)
                );
            }
            assert_eq!(trace_of(&paper_intervals()[0], seed).unwrap(), traces[0]);
        }
    }

    #[test]
    fn default_netting_model_has_29160_tuples() {
        let n = netting(0, false, 4);
        assert_eq!(n.strides, [1, 3, 7]);
        assert_eq!(n.expected_tuples(), 29_160);
        assert_eq!(n.source.matches("trade(").count(), 360 + 2);
        // Other seeds relabel the parties, nothing else.
        let m = netting(9, false, 4);
        assert_ne!(m.source, n.source);
        assert_ne!(m.query_targets, n.query_targets);
        assert_eq!(m.expected_tuples(), 29_160);
        assert_eq!(m.source.len(), n.source.len());
    }

    #[test]
    fn correction_targets_are_distinct_and_in_the_second_half() {
        let picks = correction_targets(3, 256, 40);
        assert_ne!(picks, correction_targets(4, 256, 40));
        assert_eq!(picks.len(), 40);
        assert!(picks.iter().all(|&i| (128..256).contains(&i)));
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 40);
    }
}
