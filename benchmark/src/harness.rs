//! How a workload is driven and how what it timed becomes the named
//! metrics.
//!
//! Load shape: one generator thread, one client, closed loop — the next
//! call is issued when the previous one returns — run to completion over a
//! fixed input size. That is an *episode*: set-up on fresh state, one
//! measured phase, the output checks. Every timing of an episode is taken
//! once, as it happened: phases are sums of their calls, latencies are the
//! median (and, for the traced run, the 99th percentile) of all the
//! episode's samples.
//!
//! A run holds about `--seconds` of whole episodes (another one is started
//! while most of it still fits) and reports, metric by metric, the best
//! one. The 2-core build box shares its cores with neighbours that take up
//! to a third of them away for seconds at a time (README, "Noise and
//! bounds"); that only ever adds time, so the best episode is the one the
//! machine disturbed least, while whatever the program itself does unevenly
//! — fan-out jitter, lock contention, a flush — is inside every episode's
//! own sums and tails.
#![forbid(unsafe_code)]

use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the span that encloses the measured phase; its direct children
/// are the top-level spans.
pub const MEASURED_SPAN: &str = "run.measured";

/// Share of the measured phase the top-level spans must account for.
const MIN_COVERAGE: f64 = 0.95;
/// Latency samples below which a run reports the maximum as its tail: the
/// 99th percentile needs ten samples beyond it. Only `--smoke` runs are
/// that small.
const P99_MIN_SAMPLES: usize = 1_000;

/// Size divisor: 1 for a full run, 50 for `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub usize);

impl Scale {
    /// `full / divisor`, never below `floor`.
    pub fn of(self, full: usize, floor: usize) -> usize {
        (full / self.0).max(floor)
    }
}

/// Operations attempted and failed over the whole run: calls into the
/// program plus output checks.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Calls that returned `Err`, refused batches, failed checks.
    pub failed: u64,
    /// First few failure descriptions, for the operator.
    pub failures: Vec<String>,
}

impl Ops {
    /// Record one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failed operation that was already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Record the outcome of one call into the program; `None` on `Err`.
    pub fn call<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// What one episode timed and counted. Every figure is wall clock or an
/// exact count; modeled (virtual-clock) figures only ever appear in `layer`
/// under a name containing `modeled`.
#[derive(Debug, Default)]
pub struct Run {
    /// Everything before the measured phase, s; `None` in an episode that
    /// reused the state of the one before.
    pub setup_s: Option<f64>,
    /// Wall time of the whole measured phase, s.
    pub wall_s: f64,
    /// Wall time spent inside write calls, s.
    pub write_s: f64,
    /// Field values the program acknowledged with `Ok` inside `write_s`.
    pub values_acked: u64,
    /// Wall time spent inside read calls, s.
    pub read_s: f64,
    /// Queries (or served requests) completed inside `read_s`.
    pub queries: u64,
    /// One query each, µs.
    pub query_us: Vec<f64>,
    /// One operator-visible dashboard refresh each, ms.
    pub refresh_ms: Vec<f64>,
    /// One crash → `Database::open` cycle each, s.
    pub recover_s: Vec<f64>,
    /// `MemDisk::durable_bytes()` after the final flush.
    pub durable_bytes: u64,
    /// Field values on that disk.
    pub values_stored: u64,
    /// Per-layer values the run observed directly (counts, maxima).
    pub layer: BTreeMap<&'static str, f64>,
    /// Further measurements taken on this episode's final state, outside
    /// its measured phase; each counts as an episode of its own for the
    /// metrics it has samples for.
    pub extras: Vec<Run>,
}

/// One of the four workloads: inputs generated from the seed once, then
/// any number of episodes.
pub trait Workload {
    /// Name as declared in `BENCHMARK.json`.
    fn name(&self) -> &'static str;

    /// Bring fresh state up to where the measured phase starts, replacing
    /// any earlier state, and return the seconds spent in calls into the
    /// program (generating inputs is the benchmark's own cost) — or leave
    /// the state as it is and return `None`, where the measured phase does
    /// not change it. For a traced episode (`observed`) the state also gets
    /// a metrics registry, to read the program's own exact counters
    /// afterwards.
    fn setup(&mut self, observed: bool, run: &mut Run, ops: &mut Ops) -> Option<f64>;

    /// The measured phase on the state `setup` left, then the output
    /// checks, then — outside the measured phase — whatever this workload
    /// was not chosen for but every run has to report. With a recording
    /// tracer, also wrap every call into a layer in a span under
    /// [`MEASURED_SPAN`].
    fn measure(&mut self, tr: &mut Tracer, run: &mut Run, ops: &mut Ops);

    /// Traced run only: replay the generated inputs through each layer's
    /// public entry point and add what that yields to `out`, next to what
    /// the traced episodes' spans show.
    fn layers(&mut self, tr: &Tracer, traced: &[Run], out: &mut BTreeMap<&'static str, f64>);
}

/// Result of a run of one workload.
pub struct RunResult {
    /// Metric name → value, for the declared table in use.
    pub metrics: BTreeMap<&'static str, f64>,
    /// What was attempted and what failed.
    pub ops: Ops,
    /// Episodes run.
    pub episodes: usize,
    /// Samples per episode behind `query_p50_us` (and the traced run's
    /// `tsdb.exec.query_p99_us`), `refresh_p50_ms` and `recover_s`.
    pub samples: [usize; 3],
    /// The span file, when traced.
    pub trace: Option<Value>,
}

/// One episode.
fn episode(w: &mut dyn Workload, tr: &mut Tracer, observed: bool, ops: &mut Ops) -> Run {
    let mut run = Run::default();
    run.setup_s = w.setup(observed, &mut run, ops);
    w.measure(tr, &mut run, ops);
    run
}

/// About `seconds` of wall time in whole episodes, at least one: another
/// one is started while three quarters of it still fit, so a workload
/// whose episode takes 11–17 s, depending on the hour, gets two of them out
/// of 30 s in any hour, and not one in a slow hour and three in a quick one.
/// A smoke run is one episode, whatever the clock says. `tracers` are used in turn, so a traced
/// run alternates untraced and traced episodes.
fn episodes(
    w: &mut dyn Workload,
    tracers: &mut [&mut Tracer],
    seconds: f64,
    smoke: bool,
    ops: &mut Ops,
) -> Vec<Vec<Run>> {
    let start = Instant::now();
    let mut runs: Vec<Vec<Run>> = tracers.iter().map(|_| Vec::new()).collect();
    loop {
        let round = Instant::now();
        for (tr, runs) in tracers.iter_mut().zip(&mut runs) {
            let observed = tr.is_on();
            runs.push(episode(w, tr, observed, ops));
        }
        let most_of_next = (start.elapsed() + round.elapsed() * 3 / 4).as_secs_f64();
        if smoke || most_of_next > seconds {
            break;
        }
    }
    // Same seed, same inputs, same flush policy: the episodes that count
    // a thing must agree on it.
    let mut agree = |what: &str, count: fn(&Run) -> u64| {
        let mut seen = runs
            .iter()
            .flatten()
            .flat_map(|run| std::iter::once(run).chain(&run.extras))
            .map(count)
            .filter(|n| *n > 0);
        let first = seen.next();
        ops.check(seen.all(|n| Some(n) == first), || {
            format!("episodes of one run differ in {what}")
        });
    };
    agree("values acknowledged", |r| r.values_acked);
    agree("queries served", |r| r.queries);
    agree("values stored", |r| r.values_stored);
    agree("bytes stored", |r| r.durable_bytes);
    runs
}

/// The 99th percentile, or the maximum of a sample too small to have one.
fn tail(latencies: &[f64]) -> f64 {
    let p = if latencies.len() >= P99_MIN_SAMPLES {
        99.0
    } else {
        100.0
    };
    stats::percentile(latencies, p)
}

/// The end-to-end metrics of one episode, by the definitions of the README;
/// a metric the episode has no samples for is left out.
fn end_to_end(run: &Run) -> BTreeMap<&'static str, f64> {
    let ratio = |n: u64, d: f64| (n > 0 && d > 0.0).then(|| n as f64 / d);
    let of = |v: &[f64], f: fn(&[f64]) -> f64| (!v.is_empty()).then(|| f(v));
    [
        ("setup_s", run.setup_s),
        ("run_wall_s", (run.wall_s > 0.0).then_some(run.wall_s)),
        ("ingest_values_per_s", ratio(run.values_acked, run.write_s)),
        ("queries_per_s", ratio(run.queries, run.read_s)),
        ("query_p50_us", of(&run.query_us, stats::median)),
        ("refresh_p50_ms", of(&run.refresh_ms, stats::median)),
        ("recover_s", of(&run.recover_s, stats::median)),
        (
            "stored_bytes_per_value",
            ratio(run.durable_bytes, run.values_stored as f64),
        ),
    ]
    .into_iter()
    .filter_map(|(name, value)| Some((name, value?)))
    .collect()
}

/// Metric by metric, the best episode's value.
fn best(episodes: &[Run]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let with_extras = episodes
        .iter()
        .flat_map(|run| std::iter::once(run).chain(&run.extras));
    for (name, value) in with_extras.flat_map(end_to_end) {
        let better = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map_or(Better::Lower, |m| m.better);
        out.entry(name)
            .and_modify(|best| {
                *best = match better {
                    Better::Lower => best.min(value),
                    Better::Higher => best.max(value),
                }
            })
            .or_insert(value);
    }
    out
}

/// `tsdb.exec.query_p99_us`: the 99th percentile of an episode's per-query
/// latencies, at the best episode. A per-layer figure, reported and not
/// judged: on a box with neighbours the tail of a 140 µs query that fans
/// out to two threads measures how often the scheduler was late, and ten
/// runs of unchanged code spread by 13–40% (README, "Noise and bounds").
fn best_tail_us(episodes: &[Run]) -> f64 {
    episodes
        .iter()
        .flat_map(|run| std::iter::once(run).chain(&run.extras))
        .filter(|run| !run.query_us.is_empty())
        .map(|run| tail(&run.query_us))
        .fold(f64::INFINITY, f64::min)
}

/// Samples behind the latency, refresh and recovery figures of the first
/// episode that has any.
fn sample_counts(episodes: &[Run]) -> [usize; 3] {
    let lists: [fn(&Run) -> &Vec<f64>; 3] = [|r| &r.query_us, |r| &r.refresh_ms, |r| &r.recover_s];
    lists.map(|list| {
        episodes
            .iter()
            .flat_map(|run| std::iter::once(run).chain(&run.extras))
            .map(|run| list(run).len())
            .find(|n| *n > 0)
            .unwrap_or(0)
    })
}

/// The untraced run: end-to-end metrics only, no spans recorded.
pub fn run_end_to_end(w: &mut dyn Workload, seconds: f64, smoke: bool) -> RunResult {
    let mut ops = Ops::default();
    let mut tr = Tracer::off();
    let runs = episodes(w, &mut [&mut tr], seconds, smoke, &mut ops).remove(0);
    assert!(tr.spans().is_empty(), "the untraced run records no spans");

    let mut metrics = best(&runs);
    metrics.insert("peak_rss_mb", stats::peak_rss_mib());
    for m in &END_TO_END {
        ops.check(metrics.contains_key(m.name), || {
            format!("no episode had a sample for {}", m.name)
        });
    }
    RunResult {
        metrics,
        ops,
        episodes: runs.len(),
        samples: sample_counts(&runs),
        trace: None,
    }
}

/// The traced run: episodes alternate untraced and traced, so the cost of
/// tracing is itself measured (`trace_overhead_pct`, base = untraced, each
/// side at its best episode); then the workload replays its inputs layer
/// by layer.
pub fn run_traced(w: &mut dyn Workload, seconds: f64, smoke: bool) -> RunResult {
    let mut ops = Ops::default();
    let mut off = Tracer::off();
    let mut on = Tracer::on();
    let mut runs = episodes(w, &mut [&mut off, &mut on], seconds, smoke, &mut ops);
    let traced = runs.pop().expect("one list per tracer");
    let plain = runs.pop().expect("one list per tracer");

    let mut metrics: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    // Counts and maxima the traced episodes saw directly; exact ones are
    // identical in every episode, so the first one's value stands.
    metrics.extend(traced[0].layer.iter().map(|(k, v)| (*k, *v)));
    metrics.insert("tsdb.exec.query_p99_us", best_tail_us(&traced));
    metrics.insert(
        "trace_overhead_pct",
        (best(&traced)["run_wall_s"] / best(&plain)["run_wall_s"] - 1.0) * 100.0,
    );
    w.layers(&on, &traced, &mut metrics);
    for name in metrics.keys() {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "undeclared per-layer metric {name}"
        );
    }
    let coverage = on.coverage(MEASURED_SPAN);
    ops.check(coverage >= MIN_COVERAGE, || {
        format!("top-level spans cover only {coverage:.3} of the measured phase")
    });
    RunResult {
        metrics,
        ops,
        episodes: plain.len() + traced.len(),
        samples: sample_counts(&traced),
        trace: Some(on.to_json(w.name(), MEASURED_SPAN)),
    }
}

/// The result line the acceptance driver reads: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(r: &RunResult, units: &dyn Fn(&str) -> &'static str) -> Value {
    let metrics: serde_json::Map<String, Value> = r
        .metrics
        .iter()
        .map(|(name, value)| {
            (
                name.to_string(),
                json!({"value": *value, "unit": units(name)}),
            )
        })
        .collect();
    json!({
        "correct": r.ops.failed == 0,
        "attempted": r.ops.attempted,
        "failed": r.ops.failed,
        "metrics": metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(wall_s: f64, query_us: &[f64], queries: u64, read_s: f64) -> Run {
        Run {
            wall_s,
            query_us: query_us.to_vec(),
            queries,
            read_s,
            ..Run::default()
        }
    }

    #[test]
    fn the_best_episode_is_taken_metric_by_metric_in_its_own_direction() {
        let metrics = best(&[
            run(2.0, &[9.0, 7.0, 8.0], 30, 1.5),
            run(1.0, &[5.0, 9.0, 9.0], 30, 2.0),
        ]);
        assert_eq!(metrics["run_wall_s"], 1.0);
        assert_eq!(metrics["query_p50_us"], 8.0);
        assert_eq!(metrics["queries_per_s"], 20.0);
        // Nothing was written, recovered or set up: no such metric.
        assert!(!metrics.contains_key("ingest_values_per_s"));
        assert!(!metrics.contains_key("recover_s"));
        assert!(!metrics.contains_key("setup_s"));
    }

    #[test]
    fn tail_is_p99_from_a_thousand_samples_up() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v), 1980.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), 3.0);
    }

    #[test]
    fn a_failed_call_counts_as_attempted_and_failed() {
        let mut ops = Ops::default();
        assert_eq!(ops.call("ok", Ok::<_, String>(7)), Some(7));
        assert_eq!(ops.call("bad", Err::<u8, _>("boom".to_string())), None);
        ops.check(false, || "wrong answer".into());
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert_eq!(ops.failures, ["bad: boom", "wrong answer"]);
    }
}
