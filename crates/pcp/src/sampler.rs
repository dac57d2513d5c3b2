//! The unbuffered sampling loop.
//!
//! Ticks at a fixed frequency over a span of virtual time; on each tick it
//! fetches the configured metrics from pmcd and ships them immediately.
//! There is no queue: whatever the shipper cannot take in that window is
//! gone. This is the experiment driver for Table III and the telemetry
//! engine for Scenarios A and B.
//!
//! When the shipper runs in resilient mode the loop additionally drives
//! agent heartbeats (supervised PMDA restarts) and honours the shipper's
//! adaptive tick stride: under sustained loss some ticks are skipped —
//! traded for spill-drain opportunities — and counted in
//! [`SamplingReport::ticks_skipped`].

use crate::error::{require_finite, require_non_negative, require_positive, PcpError};
use crate::pmcd::Pmcd;
use crate::transport::{Shipper, ShipperStats, SAMPLE_ROOT};
use pmove_obs::{Registry, Span};
use pmove_tsdb::Point;
use std::sync::Arc;

/// Configuration of one sampling run.
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Metrics to fetch each tick.
    pub metrics: Vec<String>,
    /// Samples per second.
    pub freq_hz: f64,
    /// Virtual start time (seconds).
    pub start_s: f64,
    /// Run length (seconds).
    pub duration_s: f64,
}

impl SamplingConfig {
    /// Build a config; panics on invalid numbers (see
    /// [`SamplingConfig::try_new`] for the typed-error path).
    pub fn new(metrics: Vec<String>, freq_hz: f64, start_s: f64, duration_s: f64) -> Self {
        Self::try_new(metrics, freq_hz, start_s, duration_s).expect("bad sampling config")
    }

    /// Build a config, rejecting non-finite or non-positive frequency and
    /// non-finite or negative start/duration with a typed error.
    pub fn try_new(
        metrics: Vec<String>,
        freq_hz: f64,
        start_s: f64,
        duration_s: f64,
    ) -> Result<Self, PcpError> {
        require_positive("freq_hz", freq_hz)?;
        require_finite("start_s", start_s)?;
        require_non_negative("duration_s", duration_s)?;
        Ok(SamplingConfig {
            metrics,
            freq_hz,
            start_s,
            duration_s,
        })
    }

    /// Number of ticks in the run. PCP "stops the sampling as the kernel
    /// is halted": a trailing partial period still gets its final read, so
    /// the tick count rounds up.
    pub fn ticks(&self) -> u64 {
        (self.duration_s * self.freq_hz).ceil() as u64
    }

    /// Data points (field values) expected at the DB if nothing were lost:
    /// ticks × Σ(instance-domain sizes). Needs the per-metric domain sizes.
    pub fn expected_values(&self, domain_sizes: &[usize]) -> u64 {
        self.ticks() * domain_sizes.iter().map(|s| *s as u64).sum::<u64>()
    }
}

/// Result of one sampling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingReport {
    /// Ticks scheduled.
    pub ticks: u64,
    /// Ticks skipped by adaptive frequency degradation (0 in default mode).
    pub ticks_skipped: u64,
    /// Field values expected (ticks × total domain size).
    pub expected_values: u64,
    /// Transport statistics.
    pub transport: ShipperStats,
}

impl SamplingReport {
    /// Inserted values per second of sampled time (Tput of Table III).
    pub fn throughput(&self, duration_s: f64) -> f64 {
        (self.transport.values_inserted + self.transport.values_zeroed) as f64 / duration_s
    }
}

/// Where one run's samples go: the single-node [`Shipper`] or the
/// replication coordinator. Lets [`run_ticks`] be the only tick loop.
pub(crate) trait SampleSink {
    /// The attached observability registry, possibly disabled.
    fn registry(&self) -> Arc<Registry>;
    /// True when [`SampleSink::begin_tick`] may skip ticks, which
    /// registers the `pcp.resilience.ticks_skipped` counter up front.
    fn skips_ticks(&self) -> bool;
    /// Per-tick supervision before the fetch (agent and replica
    /// heartbeats, spill drain). Returns false to skip this tick's fetch.
    fn begin_tick(&mut self, pmcd: &mut Pmcd, tick: u64, t_now: f64) -> bool;
    /// Ship one fetched report under its root span.
    fn ship(&mut self, t_now: f64, point: Point, freq_hz: f64, span: Span);
    /// Last drain/replay opportunity at the end of the run, then seal the
    /// trace of every report still parked.
    fn end_run(&mut self, t_end: f64);
}

impl SampleSink for Shipper<'_> {
    fn registry(&self) -> Arc<Registry> {
        self.obs.registry.clone()
    }

    fn skips_ticks(&self) -> bool {
        self.is_resilient()
    }

    fn begin_tick(&mut self, pmcd: &mut Pmcd, tick: u64, t_now: f64) -> bool {
        if !self.is_resilient() {
            return true;
        }
        // Supervise the agents: detect crashed PMDAs, restart them after
        // their backoff elapses.
        pmcd.heartbeat_all(t_now);
        // Adaptive frequency degradation: under sustained loss the
        // shipper suggests sampling every n-th tick only; the freed ticks
        // still drain the spill buffer.
        let stride = self.suggested_stride();
        if stride > 1 && !tick.is_multiple_of(stride) {
            self.idle_tick(t_now);
            return false;
        }
        true
    }

    fn ship(&mut self, t_now: f64, point: Point, freq_hz: f64, span: Span) {
        self.ship_span(t_now, point, freq_hz, span);
    }

    fn end_run(&mut self, t_end: f64) {
        // Spill left over from a fault that ended near the end can still
        // land (no-op in default mode); what stays parked terminates its
        // trace as `spill_pending` — the trace-side twin of the
        // conservation ledger's pending term.
        self.idle_tick(t_end);
        self.seal_pending_traces(t_end);
    }
}

/// The unbuffered tick loop. Returns `(ticks skipped, field values per
/// tick)`; the sink holds the transport statistics.
pub(crate) fn run_ticks(
    config: &SamplingConfig,
    pmcd: &mut Pmcd,
    sink: &mut impl SampleSink,
) -> (u64, u64) {
    let period = 1.0 / config.freq_hz;
    let mut t_prev = config.start_s;
    let mut total_domain = None;
    let mut ticks_skipped = 0u64;
    // Hoisted self-observability handles (shared with the sink's
    // registry, so one snapshot covers the whole pipeline).
    let obs = sink.registry();
    // Causal tracing: when the registry carries a tracer, every shipped
    // report gets a `pcp.sample` root trace the transport then threads
    // through retries, spill and hints to a terminal status.
    let tracer = obs.tracer();
    let tick_counter = obs.counter("pcp.sampler.ticks", &[]);
    let point_counter = obs.counter("pcp.sampler.points_fetched", &[]);
    let skip_counter = sink
        .skips_ticks()
        .then(|| obs.counter("pcp.resilience.ticks_skipped", &[]));

    for tick in 0..config.ticks() {
        let t_now = config.start_s + (tick + 1) as f64 * period;
        if !sink.begin_tick(pmcd, tick, t_now) {
            // `t_prev` is *not* advanced, so the next real fetch covers
            // the whole skipped window (PCP counter semantics).
            ticks_skipped += 1;
            if let Some(c) = &skip_counter {
                c.inc();
            }
            continue;
        }
        let points = pmcd.fetch_all(&config.metrics, t_prev, t_now);
        if total_domain.is_none() && !points.is_empty() {
            total_domain = Some(points.iter().map(|p| p.field_count() as u64).sum());
        }
        tick_counter.inc();
        point_counter.add(points.len() as u64);
        for point in points {
            let span = Span::root(tracer.as_ref(), SAMPLE_ROOT, (t_now * 1e9) as u64);
            sink.ship(t_now, point, config.freq_hz, span);
        }
        t_prev = t_now;
    }
    sink.end_run(config.start_s + config.duration_s);

    // The loop ran from start_s to the last tick's timestamp on the
    // virtual clock; stamp the span with those endpoints.
    let start_ns = (config.start_s * 1e9).round().max(0.0) as u64;
    let end_ns = (t_prev * 1e9).round().max(0.0) as u64;
    obs.record_span("pcp.sampling", start_ns, end_ns);
    (ticks_skipped, total_domain.unwrap_or(0))
}

/// The loop itself.
pub struct SamplingLoop;

impl SamplingLoop {
    /// Run the configured sampling against a coordinator and shipper.
    /// Returns the report; the shipper's DB receives the points.
    pub fn run(
        config: &SamplingConfig,
        pmcd: &mut Pmcd,
        shipper: &mut Shipper<'_>,
    ) -> SamplingReport {
        let (ticks_skipped, total_domain) = run_ticks(config, pmcd, shipper);
        SamplingReport {
            ticks: config.ticks(),
            ticks_skipped,
            expected_values: config.ticks() * total_domain,
            transport: shipper.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmda_linux::LinuxAgent;
    use crate::resilience::ResilienceConfig;
    use pmove_hwsim::network::{FaultKind, FaultSchedule, LinkSpec};
    use pmove_hwsim::MachineSpec;
    use pmove_tsdb::Database;

    fn run(freq: f64, metrics: &[&str]) -> (SamplingReport, u64) {
        let mut pmcd = Pmcd::new();
        pmcd.register(Box::new(LinuxAgent::new(MachineSpec::icl())));
        let db = Database::new("host");
        let mut shipper = Shipper::new(&db, LinkSpec::mbit_100(), 1.0 / freq, &["test", "s"]);
        let cfg = SamplingConfig::new(
            metrics.iter().map(|s| s.to_string()).collect(),
            freq,
            0.0,
            10.0,
        );
        let report = SamplingLoop::run(&cfg, &mut pmcd, &mut shipper);
        (report, db.stats().values_inserted)
    }

    #[test]
    fn tick_count_and_expected_values() {
        let cfg = SamplingConfig::new(vec!["m".into()], 2.0, 0.0, 10.0);
        assert_eq!(cfg.ticks(), 20);
        assert_eq!(cfg.expected_values(&[16, 2]), 360);
    }

    #[test]
    fn low_frequency_run_is_lossless() {
        let (report, db_values) = run(2.0, &["kernel.percpu.cpu.idle", "kernel.all.load"]);
        assert_eq!(report.ticks, 20);
        // 20 ticks × (16 + 1) fields
        assert_eq!(report.expected_values, 340);
        assert_eq!(report.transport.values_lost, 0);
        assert_eq!(
            report.transport.values_inserted + report.transport.values_zeroed,
            340
        );
        assert_eq!(db_values, 340);
    }

    #[test]
    fn throughput_accounting() {
        let (report, _) = run(2.0, &["kernel.percpu.cpu.idle"]);
        // 16 fields × 2 Hz = 32 values/s.
        assert!((report.throughput(10.0) - 32.0).abs() < 0.5);
    }

    #[test]
    fn high_frequency_produces_zeros() {
        let (report, _) = run(32.0, &["kernel.percpu.cpu.idle"]);
        assert!(report.transport.values_zeroed > 0);
        assert!(report.transport.loss_plus_zero_pct() > 10.0);
    }

    #[test]
    #[should_panic(expected = "bad sampling config")]
    fn zero_frequency_rejected() {
        SamplingConfig::new(vec![], 0.0, 0.0, 1.0);
    }

    #[test]
    fn try_new_rejects_bad_numbers_with_typed_errors() {
        assert!(SamplingConfig::try_new(vec![], 0.0, 0.0, 1.0).is_err());
        assert!(SamplingConfig::try_new(vec![], f64::NAN, 0.0, 1.0).is_err());
        assert!(SamplingConfig::try_new(vec![], 2.0, f64::INFINITY, 1.0).is_err());
        assert!(SamplingConfig::try_new(vec![], 2.0, 0.0, -1.0).is_err());
        assert!(SamplingConfig::try_new(vec![], 2.0, 0.0, 0.0).is_ok());
    }

    #[test]
    fn observed_run_records_span_and_tick_counters() {
        let mut pmcd = Pmcd::new();
        pmcd.register(Box::new(LinuxAgent::new(MachineSpec::icl())));
        let db = Database::new("host");
        let reg = pmove_obs::Registry::shared();
        let mut shipper =
            Shipper::new(&db, LinkSpec::mbit_100(), 0.5, &["obs", "s"]).with_obs(reg.clone());
        let cfg = SamplingConfig::new(vec!["kernel.percpu.cpu.idle".into()], 2.0, 1.0, 10.0);
        let report = SamplingLoop::run(&cfg, &mut pmcd, &mut shipper);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("pcp.sampler.ticks", &[]), Some(report.ticks));
        assert_eq!(
            snap.counter("pcp.sampler.points_fetched", &[]),
            Some(report.ticks)
        );
        // The sampling span covers start_s..last tick on the virtual clock.
        let span = snap.span("pcp.sampling").expect("span recorded");
        assert_eq!(span.count, 1);
        assert_eq!(span.last_start_ns, 1_000_000_000);
        assert_eq!(span.last_end_ns, 11_000_000_000);
        // Transport counters share the registry and conserve.
        assert_eq!(
            snap.counter("pcp.transport.values_offered", &[]),
            Some(report.transport.values_offered)
        );
        // Default mode never skips ticks.
        assert_eq!(report.ticks_skipped, 0);
    }

    #[test]
    fn resilient_run_skips_ticks_under_crushed_bandwidth_and_conserves() {
        let mut pmcd = Pmcd::new();
        pmcd.register(Box::new(LinuxAgent::new(MachineSpec::icl())));
        let db = Database::new("host");
        // Bandwidth crushed below a single report for the first 30 s.
        let schedule =
            FaultSchedule::none().with_window(0.0, 30.0, FaultKind::BandwidthDegraded(0.0001));
        let mut shipper = Shipper::new(&db, LinkSpec::mbit_100(), 0.5, &["resloop", "s"])
            .with_fault_schedule(schedule)
            .with_resilience(ResilienceConfig::default());
        let cfg = SamplingConfig::new(vec!["kernel.percpu.cpu.idle".into()], 2.0, 0.0, 60.0);
        let report = SamplingLoop::run(&cfg, &mut pmcd, &mut shipper);
        assert!(report.ticks_skipped > 0, "stride engaged: {report:?}");
        assert!(report.transport.values_recovered > 0);
        assert!(report.transport.conserved(), "{:?}", report.transport);
    }
}
