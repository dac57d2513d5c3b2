//! The unbuffered sampling loop.
//!
//! Ticks at a fixed frequency over a span of virtual time; on each tick it
//! fetches the configured metrics from pmcd and ships them immediately.
//! There is no queue: whatever the shipper cannot take in that window is
//! gone. This is the experiment driver for Table III and the telemetry
//! engine for Scenarios A and B.

use crate::error::{require_finite, require_non_negative, require_positive, PcpError};
use crate::pmcd::Pmcd;
use crate::transport::{Shipper, ShipperStats};
use pmove_obs::{Registry, Span};
use pmove_tsdb::Point;
use std::sync::Arc;

/// Root span name of one report's trace.
const SAMPLE_ROOT: &str = "pcp.sample";

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
    pub(crate) fn ticks(&self) -> u64 {
        (self.duration_s * self.freq_hz).ceil() as u64
    }
}

/// Result of one sampling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingReport {
    /// Ticks scheduled.
    pub ticks: u64,
    /// Field values expected (ticks × total domain size).
    pub expected_values: u64,
    /// Transport statistics.
    pub transport: ShipperStats,
}

/// Where one run's samples go: the single-node [`Shipper`] or the
/// replication coordinator. Lets [`run_ticks`] be the only tick loop.
pub(crate) trait SampleSink {
    /// The attached observability registry, possibly disabled.
    fn registry(&self) -> Arc<Registry>;
    /// Per-tick supervision before the fetch (agent and replica
    /// heartbeats). The unbuffered shipper supervises nothing.
    fn begin_tick(&mut self, _pmcd: &mut Pmcd, _t_now: f64) {}
    /// Ship one fetched report under its root span.
    fn ship(&mut self, t_now: f64, point: Point, freq_hz: f64, span: Span);
    /// Last replay opportunity at the end of the run, then seal the trace
    /// of every report still parked. The unbuffered shipper parks nothing.
    fn end_run(&mut self, _t_end: f64) {}
}

impl SampleSink for Shipper<'_> {
    fn registry(&self) -> Arc<Registry> {
        self.obs.registry.clone()
    }

    fn ship(&mut self, t_now: f64, point: Point, freq_hz: f64, span: Span) {
        self.ship_span(t_now, point, freq_hz, span);
    }
}

/// The unbuffered tick loop. Returns the field values per tick; the sink
/// holds the transport statistics.
pub(crate) fn run_ticks(
    config: &SamplingConfig,
    pmcd: &mut Pmcd,
    sink: &mut impl SampleSink,
) -> u64 {
    let period = 1.0 / config.freq_hz;
    let mut t_prev = config.start_s;
    let mut total_domain = None;
    // Hoisted self-observability handles (shared with the sink's
    // registry, so one snapshot covers the whole pipeline).
    let obs = sink.registry();
    // Causal tracing: when the registry carries a tracer, every shipped
    // report gets a `pcp.sample` root trace the transport then threads
    // through its ship attempt (and hints, when replicated) to a terminal
    // status.
    let tracer = obs.tracer();
    let tick_counter = obs.counter("pcp.sampler.ticks", &[]);
    let point_counter = obs.counter("pcp.sampler.points_fetched", &[]);

    for tick in 0..config.ticks() {
        let t_now = config.start_s + (tick + 1) as f64 * period;
        sink.begin_tick(pmcd, t_now);
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
    total_domain.unwrap_or(0)
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
        let total_domain = run_ticks(config, pmcd, shipper);
        SamplingReport {
            ticks: config.ticks(),
            expected_values: config.ticks() * total_domain,
            transport: shipper.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmda_linux::LinuxAgent;
    use pmove_hwsim::network::LinkSpec;
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
        (report, db.cell_count())
    }

    #[test]
    fn tick_count_and_expected_values() {
        let cfg = SamplingConfig::new(vec!["m".into()], 2.0, 0.0, 10.0);
        assert_eq!(cfg.ticks(), 20);
        let (report, _) = run(2.0, &["kernel.percpu.cpu.idle", "kernel.all.load"]);
        // 20 ticks × (16 + 1) fields
        assert_eq!(report.expected_values, 340);
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
    fn high_frequency_produces_zeros() {
        let (report, _) = run(32.0, &["kernel.percpu.cpu.idle"]);
        assert!(report.transport.values_zeroed > 0);
        let t = report.transport;
        assert!(10 * (t.values_lost + t.values_zeroed) > t.values_offered);
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
    }
}
