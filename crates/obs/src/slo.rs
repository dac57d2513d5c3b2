//! Declarative SLOs with multi-window error-budget burn-rate alerting.
//!
//! An [`SloSpec`] names an objective over metrics that already exist in a
//! [`crate::Registry`] (a latency histogram, a conservation equation, a
//! quorum-health gauge) plus a target (e.g. 0.999 = 99.9% of events
//! good). The [`SloEngine`] is fed snapshots on the *virtual* clock and,
//! per window of the objective's burn ladder, computes the burn rate
//!
//! ```text
//! burn = (bad events in window / total events in window) / (1 - target)
//! ```
//!
//! so `burn == 1.0` means "spending budget exactly at the rate that
//! exhausts it at the window's end". Every objective has the same two
//! windows — a fast 10 s window that pages on sudden regressions and a
//! slow 60 s window that warns on smoulder — and its thresholds follow
//! from its kind ([`Objective`]): heartbeat staleness pages at 2x and
//! warns at 1x, everything else pages at 8x and warns at 2x. The alert
//! state machine is `ok → warning → page` with deterministic hysteresis:
//! upgrades are immediate, downgrades require two consecutive quiet
//! evaluations. Everything derives from
//! the snapshot and `now_ns`, so two same-seed runs produce identical
//! alert timelines — the timeline is golden-testable.
//!
//! Meta-metrics are published back into the registry under `pmove.slo.*`
//! (the self-exporter treats names already starting with `pmove.` as
//! fully qualified).

use std::collections::VecDeque;
use std::sync::Arc;

use crate::metrics::Registry;
use crate::snapshot::Snapshot;

/// What an SLO measures, over metrics already in the registry.
#[derive(Debug, Clone)]
pub enum Objective {
    /// Good events are histogram samples at or below `threshold_ns`.
    /// Counts are summed across every label set of `histogram`.
    LatencyBelow {
        /// Histogram metric name (e.g. `tsdb.ingest_ns`).
        histogram: String,
        /// Samples above this are budget burn.
        threshold_ns: u64,
    },
    /// Conservation: `offered` must equal the accounted counters plus
    /// in-flight gauges; any imbalance is budget burn.
    Conservation {
        /// Counter of offered values.
        offered: String,
        /// Counters of terminal dispositions.
        accounted: Vec<String>,
        /// Gauges of values still in flight (spill queue, hints).
        pending_gauges: Vec<String>,
    },
    /// The gauge must be at least `min` at evaluation time; each
    /// evaluation contributes one event (good or bad).
    GaugeAtLeast {
        /// Gauge metric name (e.g. `tsdb.repl.replicas_healthy`).
        gauge: String,
        /// Minimum healthy value.
        min: f64,
    },
    /// The gauge holds a virtual-clock timestamp in nanoseconds (e.g.
    /// `store.scrub.last_full_pass`) that must be no older than
    /// `max_age_ns` at evaluation time; each evaluation contributes one
    /// event. A gauge that has never been published is vacuously good —
    /// the objective watches staleness of a heartbeat that exists, not
    /// absence of the subsystem (a store without scrubbing enabled must
    /// not page).
    GaugeMaxAge {
        /// Gauge metric name holding the last-completion timestamp (ns).
        gauge: String,
        /// Oldest acceptable age at evaluation time.
        max_age_ns: u64,
    },
}

/// Alert severity ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertState {
    /// Within budget.
    Ok,
    /// Slow-window burn exceeded.
    Warning,
    /// Fast-window burn exceeded; a human would be paged.
    Page,
}

impl std::fmt::Display for AlertState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AlertState::Ok => "ok",
            AlertState::Warning => "warning",
            AlertState::Page => "page",
        })
    }
}

/// Length of the fast (paging) burn window on the virtual clock.
const FAST_WINDOW_NS: u64 = 10_000_000_000;
/// Length of the slow (warning) burn window on the virtual clock.
const SLOW_WINDOW_NS: u64 = 60_000_000_000;
/// Consecutive quiet evaluations required before downgrading.
const CLEAR_EVALS: u32 = 2;

/// One burn-rate evaluation window of an objective's ladder.
#[derive(Debug, Clone, Copy)]
struct BurnWindow {
    /// Label for timelines and meta-metrics (`fast`, `slow`).
    name: &'static str,
    /// Window length on the virtual clock.
    window_ns: u64,
    /// Fire when the windowed burn rate reaches this multiple.
    burn_threshold: f64,
    /// Severity this window escalates to.
    severity: AlertState,
}

impl Objective {
    /// The burn ladder: the fast window pages and the slow one warns. A
    /// heartbeat-staleness objective counts one event per evaluation, so
    /// a stale heartbeat pages at 2x budget and warns at 1x; every other
    /// objective pages at 8x and warns at 2x.
    fn ladder(&self) -> [BurnWindow; 2] {
        let (page, warn) = match self {
            Objective::GaugeMaxAge { .. } => (2.0, 1.0),
            _ => (8.0, 2.0),
        };
        [
            BurnWindow {
                name: "fast",
                window_ns: FAST_WINDOW_NS,
                burn_threshold: page,
                severity: AlertState::Page,
            },
            BurnWindow {
                name: "slow",
                window_ns: SLOW_WINDOW_NS,
                burn_threshold: warn,
                severity: AlertState::Warning,
            },
        ]
    }
}

/// A declarative service-level objective; its burn ladder follows from
/// the objective.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// SLO name (`ingest_latency`, `quorum_availability`, ...).
    pub name: String,
    /// What is measured.
    pub objective: Objective,
    /// Fraction of events that must be good (0 < target < 1).
    pub target: f64,
}

impl SloSpec {
    /// The default serving-latency objective: 99% of requests through the
    /// multi-tenant serving layer complete below `threshold_ns`
    /// (submit → completion, measured over the `pmove.serve.latency_ns`
    /// histogram). `threshold_ns` must be one of the registry's latency
    /// bucket bounds so budget accounting is exact.
    pub fn serving_p99(threshold_ns: u64) -> SloSpec {
        SloSpec {
            name: "serving_p99".into(),
            objective: Objective::LatencyBelow {
                histogram: "pmove.serve.latency_ns".into(),
                threshold_ns,
            },
            target: 0.99,
        }
    }

    /// The default scrub-staleness objective: the background scrubber's
    /// `store.scrub.last_full_pass` heartbeat must be no older than
    /// `max_age_ns` (normally a small multiple of the configured full-pass
    /// period). Silent scrubber death is exactly the failure mode that
    /// lets latent corruption accumulate unnoticed, so the fast window
    /// pages; stores that never enabled scrubbing never publish the gauge
    /// and are vacuously healthy.
    pub fn scrub_staleness(max_age_ns: u64) -> SloSpec {
        SloSpec {
            name: "scrub_staleness".into(),
            objective: Objective::GaugeMaxAge {
                gauge: "store.scrub.last_full_pass".into(),
                max_age_ns,
            },
            target: 0.9,
        }
    }
}

/// One alert state transition, timestamped on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// When the transition happened.
    pub t_ns: u64,
    /// Which SLO.
    pub slo: String,
    /// Previous state.
    pub from: AlertState,
    /// New state.
    pub to: AlertState,
    /// Window that drove the change (empty on hysteresis downgrade).
    pub window: String,
    /// Burn rate of the driving window at transition time.
    pub burn: f64,
}

struct Tracker {
    spec: SloSpec,
    ladder: [BurnWindow; 2],
    /// Cumulative (t_ns, bad, total) samples, pruned to the slow window.
    history: VecDeque<(u64, f64, f64)>,
    state: AlertState,
    quiet_streak: u32,
    /// Internal accumulators for point-in-time objectives.
    eval_bad: f64,
    eval_total: f64,
}

impl Tracker {
    fn measure(&mut self, snap: &Snapshot, now_ns: u64) -> (f64, f64) {
        match &self.spec.objective {
            Objective::LatencyBelow {
                histogram,
                threshold_ns,
            } => {
                let (mut bad, mut total) = (0.0, 0.0);
                for (key, h) in &snap.histograms {
                    if key.name != *histogram {
                        continue;
                    }
                    total += h.count as f64;
                    let mut below = 0u64;
                    for (i, c) in h.buckets.iter().enumerate() {
                        if i < h.bounds.len() && h.bounds[i] <= *threshold_ns {
                            below += c;
                        }
                    }
                    bad += (h.count - below.min(h.count)) as f64;
                }
                (bad, total)
            }
            Objective::Conservation {
                offered,
                accounted,
                pending_gauges,
            } => {
                let off = snap.counter_total(offered) as f64;
                let acc: f64 = accounted.iter().map(|n| snap.counter_total(n) as f64).sum();
                let pending: f64 = pending_gauges
                    .iter()
                    .map(|n| {
                        snap.gauges
                            .iter()
                            .filter(|(k, _)| k.name == *n)
                            .map(|(_, v)| *v)
                            .sum::<f64>()
                    })
                    .sum();
                ((off - acc - pending).abs(), off)
            }
            Objective::GaugeAtLeast { gauge, min } => {
                let healthy = snap
                    .gauges
                    .iter()
                    .filter(|(k, _)| k.name == *gauge)
                    .map(|(_, v)| *v)
                    .fold(f64::INFINITY, f64::min);
                self.eval_total += 1.0;
                if healthy.is_finite() && healthy < *min {
                    self.eval_bad += 1.0;
                }
                (self.eval_bad, self.eval_total)
            }
            Objective::GaugeMaxAge { gauge, max_age_ns } => {
                // Oldest matching label set is the laggard that matters.
                let oldest = snap
                    .gauges
                    .iter()
                    .filter(|(k, _)| k.name == *gauge)
                    .map(|(_, v)| *v)
                    .fold(f64::INFINITY, f64::min);
                self.eval_total += 1.0;
                if oldest.is_finite() && now_ns.saturating_sub(oldest as u64) > *max_age_ns {
                    self.eval_bad += 1.0;
                }
                (self.eval_bad, self.eval_total)
            }
        }
    }

    /// Burn rate over the trailing `window_ns` ending at the newest
    /// history entry. Uses the oldest sample inside the window as the
    /// baseline (or zero activity when only one sample exists).
    fn burn(&self, window_ns: u64) -> f64 {
        let Some(&(now, bad_now, tot_now)) = self.history.back() else {
            return 0.0;
        };
        let cutoff = now.saturating_sub(window_ns);
        // Baseline: the newest sample at or before the cutoff; if none,
        // the window covers the whole history and the baseline is zero.
        let (bad_0, tot_0) = self
            .history
            .iter()
            .rev()
            .find(|(t, _, _)| *t <= cutoff)
            .map(|&(_, b, t)| (b, t))
            .unwrap_or((0.0, 0.0));
        let d_tot = tot_now - tot_0;
        if d_tot <= 0.0 {
            return 0.0;
        }
        let err_ratio = ((bad_now - bad_0) / d_tot).clamp(0.0, 1.0);
        let budget = (1.0 - self.spec.target).max(f64::EPSILON);
        err_ratio / budget
    }
}

/// Evaluates a set of SLOs against registry snapshots on the virtual
/// clock, maintaining alert state and a transition timeline.
pub struct SloEngine {
    trackers: Vec<Tracker>,
    timeline: Vec<Transition>,
    meta: Arc<Registry>,
}

impl SloEngine {
    /// Engine with no objectives (add them with [`SloEngine::add`]) that
    /// publishes `pmove.slo.*` meta-metrics into `registry` on every
    /// evaluation; `Registry::disabled()` publishes nothing.
    pub fn new(registry: Arc<Registry>) -> SloEngine {
        SloEngine {
            trackers: Vec::new(),
            timeline: Vec::new(),
            meta: registry,
        }
    }

    /// Register an objective.
    pub fn add(&mut self, spec: SloSpec) {
        self.trackers.push(Tracker {
            ladder: spec.objective.ladder(),
            spec,
            history: VecDeque::new(),
            state: AlertState::Ok,
            quiet_streak: 0,
            eval_bad: 0.0,
            eval_total: 0.0,
        });
    }

    /// Number of registered SLOs.
    pub fn len(&self) -> usize {
        self.trackers.len()
    }

    /// True when no SLOs are registered.
    pub fn is_empty(&self) -> bool {
        self.trackers.is_empty()
    }

    /// Evaluate every SLO against `snap` at virtual time `now_ns`.
    /// Returns the transitions that fired during this evaluation.
    pub fn evaluate(&mut self, snap: &Snapshot, now_ns: u64) -> Vec<Transition> {
        let mut fired = Vec::new();
        for tr in self.trackers.iter_mut() {
            let (bad, total) = tr.measure(snap, now_ns);
            tr.history.push_back((now_ns, bad, total));
            // Keep one sample at or before the horizon as the baseline.
            let horizon = now_ns.saturating_sub(SLOW_WINDOW_NS);
            while tr.history.len() > 2 && tr.history[1].0 <= horizon {
                tr.history.pop_front();
            }

            let mut desired = AlertState::Ok;
            let mut driver: Option<(BurnWindow, f64)> = None;
            for w in tr.ladder {
                let burn = tr.burn(w.window_ns);
                let labels = [("slo", tr.spec.name.as_str()), ("window", w.name)];
                self.meta.gauge("pmove.slo.burn_rate", &labels).set(burn);
                if burn >= w.burn_threshold && w.severity > desired {
                    desired = w.severity;
                    driver = Some((w, burn));
                }
            }

            let prev = tr.state;
            let mut next = prev;
            if desired > prev {
                next = desired;
                tr.quiet_streak = 0;
            } else if desired < prev {
                tr.quiet_streak += 1;
                if tr.quiet_streak >= CLEAR_EVALS {
                    next = desired;
                    tr.quiet_streak = 0;
                }
            } else {
                tr.quiet_streak = 0;
            }

            if next != prev {
                let (window, burn) = driver
                    .map(|(w, b)| (w.name.to_string(), b))
                    .unwrap_or_default();
                let t = Transition {
                    t_ns: now_ns,
                    slo: tr.spec.name.clone(),
                    from: prev,
                    to: next,
                    window,
                    burn,
                };
                fired.push(t.clone());
                self.timeline.push(t);
                self.meta
                    .counter("pmove.slo.transitions", &[("slo", tr.spec.name.as_str())])
                    .inc();
            }
            tr.state = next;
            self.meta
                .gauge("pmove.slo.state", &[("slo", tr.spec.name.as_str())])
                .set(match next {
                    AlertState::Ok => 0.0,
                    AlertState::Warning => 1.0,
                    AlertState::Page => 2.0,
                });
        }
        fired
    }

    /// Current state of the named SLO.
    pub fn state(&self, name: &str) -> Option<AlertState> {
        self.trackers
            .iter()
            .find(|t| t.spec.name == name)
            .map(|t| t.state)
    }

    /// Deterministic text rendering of the alert timeline, suitable for
    /// goldens.
    pub fn render_timeline(&self) -> String {
        if self.timeline.is_empty() {
            return "alert timeline: (no transitions)\n".to_string();
        }
        let mut out = String::from("alert timeline:\n");
        for t in &self.timeline {
            out.push_str(&format!(
                "  t={}ns {} {} -> {}",
                t.t_ns, t.slo, t.from, t.to
            ));
            if !t.window.is_empty() {
                out.push_str(&format!(" window={} burn={:.2}", t.window, t.burn));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::latency_buckets;

    fn latency_spec() -> SloSpec {
        SloSpec {
            name: "ingest_latency".into(),
            objective: Objective::LatencyBelow {
                histogram: "tsdb.ingest_ns".into(),
                threshold_ns: 100_000,
            },
            target: 0.99,
        }
    }

    #[test]
    fn ladder_follows_the_objective() {
        let latency = latency_spec().objective.ladder();
        let staleness = SloSpec::scrub_staleness(1).objective.ladder();
        for (ladder, page, warn) in [(latency, 8.0, 2.0), (staleness, 2.0, 1.0)] {
            let [fast, slow] = ladder;
            assert_eq!((fast.name, fast.window_ns), ("fast", 10_000_000_000));
            assert_eq!(
                (fast.burn_threshold, fast.severity),
                (page, AlertState::Page)
            );
            assert_eq!((slow.name, slow.window_ns), ("slow", 60_000_000_000));
            assert_eq!(
                (slow.burn_threshold, slow.severity),
                (warn, AlertState::Warning)
            );
        }
    }

    #[test]
    fn healthy_traffic_stays_ok() {
        let reg = Registry::new();
        let h = reg.histogram("tsdb.ingest_ns", &[], latency_buckets());
        let mut eng = SloEngine::new(Registry::disabled());
        eng.add(latency_spec());
        for tick in 1..=20u64 {
            for _ in 0..50 {
                h.record(5_000);
            }
            let fired = eng.evaluate(&reg.snapshot(), tick * 1_000_000_000);
            assert!(fired.is_empty());
        }
        assert_eq!(eng.state("ingest_latency"), Some(AlertState::Ok));
    }

    #[test]
    fn p99_regression_pages_then_hysteresis_clears() {
        let reg = Registry::new();
        let h = reg.histogram("tsdb.ingest_ns", &[], latency_buckets());
        let mut eng = SloEngine::new(Registry::disabled());
        eng.add(latency_spec());
        // 5 healthy ticks, then 3 regressed ticks (half the samples slow),
        // then healthy again.
        let mut page_at = None;
        for tick in 1..=20u64 {
            let slow = (6..=8).contains(&tick);
            for i in 0..50 {
                h.record(if slow && i % 2 == 0 { 900_000 } else { 5_000 });
            }
            let fired = eng.evaluate(&reg.snapshot(), tick * 1_000_000_000);
            for t in fired {
                if t.to == AlertState::Page && page_at.is_none() {
                    page_at = Some(t.t_ns);
                }
            }
        }
        // Fast window sees ~8% errors against a 1% budget: burn ~8.3
        // fires the page threshold on the first regressed tick.
        assert_eq!(page_at, Some(6_000_000_000));
        // The fast window drained and hysteresis downgraded, but the slow
        // window still remembers the burn: warning, not ok.
        assert_eq!(eng.state("ingest_latency"), Some(AlertState::Warning));
        let tl = eng.render_timeline();
        assert!(tl.contains("ingest_latency ok -> page window=fast"), "{tl}");
        assert!(tl.contains("ingest_latency page -> warning"), "{tl}");
    }

    #[test]
    fn alert_timeline_is_deterministic() {
        let run = || {
            let reg = Registry::new();
            let h = reg.histogram("tsdb.ingest_ns", &[], latency_buckets());
            let mut eng = SloEngine::new(Registry::disabled());
            eng.add(latency_spec());
            for tick in 1..=12u64 {
                for i in 0..20 {
                    h.record(if tick == 4 && i < 10 {
                        2_000_000
                    } else {
                        2_000
                    });
                }
                eng.evaluate(&reg.snapshot(), tick * 1_000_000_000);
            }
            eng.render_timeline()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn gauge_objective_counts_eval_ticks() {
        let reg = Registry::new();
        let g = reg.gauge("tsdb.repl.replicas_healthy", &[]);
        g.set(3.0);
        let mut eng = SloEngine::new(Registry::disabled());
        eng.add(SloSpec {
            name: "quorum_availability".into(),
            objective: Objective::GaugeAtLeast {
                gauge: "tsdb.repl.replicas_healthy".into(),
                min: 2.0,
            },
            target: 0.9,
        });
        for tick in 1..=3u64 {
            assert!(eng
                .evaluate(&reg.snapshot(), tick * 1_000_000_000)
                .is_empty());
        }
        // Quorum lost. One bad evaluation in four: burn 2.5 crosses the
        // slow window's 2x and warns at once...
        g.set(1.0);
        let fired = eng.evaluate(&reg.snapshot(), 4_000_000_000);
        assert_eq!(fired.len(), 1);
        assert_eq!(
            (fired[0].to, fired[0].window.as_str()),
            (AlertState::Warning, "slow")
        );
        // ...and a lasting loss fills the fast window until it pages.
        let paged = (5..=20u64).find(|tick| {
            let fired = eng.evaluate(&reg.snapshot(), tick * 1_000_000_000);
            fired.iter().any(|t| t.to == AlertState::Page)
        });
        assert_eq!(paged, Some(11));
        assert_eq!(eng.state("quorum_availability"), Some(AlertState::Page));
    }

    #[test]
    fn gauge_max_age_pages_on_stale_heartbeat_only() {
        let reg = Registry::new();
        let mut eng = SloEngine::new(Registry::disabled());
        eng.add(SloSpec::scrub_staleness(5_000_000_000));
        // The gauge does not exist yet: vacuously good, never fires.
        for tick in 1..=4u64 {
            assert!(eng
                .evaluate(&reg.snapshot(), tick * 1_000_000_000)
                .is_empty());
        }
        // A fresh full pass keeps the objective quiet...
        let g = reg.gauge("store.scrub.last_full_pass", &[("db", "pmove")]);
        g.set(5.0e9);
        assert!(eng.evaluate(&reg.snapshot(), 6_000_000_000).is_empty());
        assert_eq!(eng.state("scrub_staleness"), Some(AlertState::Ok));
        // ...but a scrubber that silently stops pages once the heartbeat
        // exceeds the allowed age.
        let mut paged = false;
        for tick in 7..=20u64 {
            for t in eng.evaluate(&reg.snapshot(), tick * 1_000_000_000) {
                if t.to == AlertState::Page {
                    paged = true;
                }
            }
        }
        assert!(paged, "stale scrub heartbeat must page");
        // Scrubbing resumes: heartbeat fresh again, hysteresis clears.
        let mut cleared = false;
        for tick in 21..=90u64 {
            g.set(tick as f64 * 1e9);
            for t in eng.evaluate(&reg.snapshot(), tick * 1_000_000_000) {
                if t.to == AlertState::Ok {
                    cleared = true;
                }
            }
        }
        assert!(cleared, "fresh heartbeat must clear the alert");
    }

    #[test]
    fn conservation_objective_flags_imbalance() {
        let reg = Registry::new();
        reg.counter("pcp.transport.values_offered", &[]).add(100);
        reg.counter("pcp.transport.values_inserted", &[]).add(90);
        let mut eng = SloEngine::new(Registry::shared());
        eng.add(SloSpec {
            name: "conservation".into(),
            objective: Objective::Conservation {
                offered: "pcp.transport.values_offered".into(),
                accounted: vec!["pcp.transport.values_inserted".into()],
                pending_gauges: vec!["pcp.resilience.spill_pending".into()],
            },
            target: 0.999,
        });
        let fired = eng.evaluate(&reg.snapshot(), 1_000_000_000);
        assert_eq!(fired.len(), 1, "10% imbalance must fire");
        // Balance the books via the pending gauge: imbalance stops
        // growing, the window drains, hysteresis clears.
        reg.gauge("pcp.resilience.spill_pending", &[]).set(10.0);
        let mut cleared = false;
        for tick in 2..=30u64 {
            for t in eng.evaluate(&reg.snapshot(), tick * 1_000_000_000) {
                if t.to == AlertState::Ok {
                    cleared = true;
                }
            }
        }
        assert!(cleared);
    }

    #[test]
    fn serving_p99_spec_watches_the_serving_histogram() {
        let spec = SloSpec::serving_p99(5_000_000);
        assert_eq!(spec.name, "serving_p99");
        match &spec.objective {
            Objective::LatencyBelow {
                histogram,
                threshold_ns,
            } => {
                assert_eq!(histogram, "pmove.serve.latency_ns");
                assert_eq!(*threshold_ns, 5_000_000);
                // Threshold must be an exact bucket bound so the budget
                // accounting has no rounding error.
                assert!(latency_buckets().contains(threshold_ns));
            }
            other => panic!("unexpected objective {other:?}"),
        }
        // Fast pages at 8x, slow warns at 2x.
        let [fast, slow] = spec.objective.ladder();
        assert_eq!(
            (fast.severity, fast.burn_threshold),
            (AlertState::Page, 8.0)
        );
        assert_eq!(
            (slow.severity, slow.burn_threshold),
            (AlertState::Warning, 2.0)
        );
    }

    #[test]
    fn serving_tail_regression_pages() {
        let reg = Registry::new();
        let h = reg.histogram(
            "pmove.serve.latency_ns",
            &[("class", "interactive")],
            latency_buckets(),
        );
        let mut eng = SloEngine::new(Registry::disabled());
        eng.add(SloSpec::serving_p99(5_000_000));
        // Healthy serving latencies: no alert.
        for tick in 1..=5u64 {
            for _ in 0..100 {
                h.record(400_000);
            }
            assert!(eng
                .evaluate(&reg.snapshot(), tick * 1_000_000_000)
                .is_empty());
        }
        // Queueing collapse: most requests land over the objective.
        let mut paged = false;
        for tick in 6..=12u64 {
            for i in 0..100 {
                h.record(if i % 4 != 0 { 40_000_000 } else { 400_000 });
            }
            for t in eng.evaluate(&reg.snapshot(), tick * 1_000_000_000) {
                if t.to == AlertState::Page {
                    paged = true;
                }
            }
        }
        assert!(paged, "sustained serving-tail regression must page");
    }
}
