//! Shipping sampled reports from the target to the host database.
//!
//! PCP performs *sampling*: there is no buffer or queue holding data points
//! until insertion (paper §V-A). Each sampling tick produces one report per
//! metric; the report must traverse the network and be inserted into the
//! time-series DB before the flow moves on. The shipping path has a finite
//! per-window service capacity in *field values*; offers beyond it are
//! lost, and offers that land close to the edge are delivered late and read
//! as batched zeros. Calibrated so Table III's shapes reproduce: losses
//! grow with sampling frequency × instance-domain size, zeros appear only
//! at high frequency.
//!
//! An optional [`FaultSchedule`] injects link/backend faults on the
//! virtual clock; an empty schedule is bit-identical to none. A report
//! the faulted path cannot carry is lost, exactly like one over capacity.
//!
//! Conservation invariant, audited by tests under arbitrary fault
//! schedules: `values_offered == values_inserted + values_zeroed +
//! values_lost`.

use crate::error::{require_positive, PcpError};
use pmove_hwsim::network::{FaultSchedule, FaultState, LinkSpec};
use pmove_hwsim::noise::NoiseSource;
use pmove_obs::{Counter, Gauge, Registry, Span};
use pmove_tsdb::{Database, Origin, Point};
use std::sync::Arc;

/// Relative jitter (standard deviation) of each window's capacity.
const CAPACITY_JITTER: f64 = 0.25;

/// Modeled PDU fetch time preceding each ship attempt (ns).
pub(crate) const FETCH_NS: u64 = 8_000;
/// Modeled fixed cost of one delivery attempt (ns).
pub(crate) const ATTEMPT_BASE_NS: u64 = 12_000;
/// Modeled per-field-value cost of one delivery attempt (ns).
const ATTEMPT_PER_VALUE_NS: u64 = 120;
/// Modeled cost of one hint-replay attempt (ns).
pub(crate) const RETRY_NS: u64 = 15_000;

/// Outcome of shipping one report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipOutcome {
    /// Stored with true values.
    Inserted,
    /// Stored, but as batched zeros (stale read at high frequency).
    InsertedZero,
    /// Lost in transmission.
    Lost,
}

/// Cumulative shipping statistics — the raw material of Table III.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShipperStats {
    /// Reports offered.
    pub reports_offered: u64,
    /// Field values offered.
    pub values_offered: u64,
    /// Field values inserted with true readings.
    pub values_inserted: u64,
    /// Field values inserted as zeros.
    pub values_zeroed: u64,
    /// Field values lost.
    pub values_lost: u64,
    /// Payload bytes that crossed the network.
    pub bytes_shipped: u64,
}

impl ShipperStats {
    /// Field values accounted for by every terminal state. The
    /// conservation invariant is `accounted() == values_offered`.
    pub fn accounted(&self) -> u64 {
        self.values_inserted
            .saturating_add(self.values_zeroed)
            .saturating_add(self.values_lost)
    }

    /// True when no offered value is unaccounted for.
    pub fn conserved(&self) -> bool {
        self.accounted() == self.values_offered
    }

    /// Loss ratio (%L of Table III). Saturating: returns 0 for zero
    /// offered and stays finite at u64 extremes.
    pub fn loss_pct(&self) -> f64 {
        if self.values_offered == 0 {
            return 0.0;
        }
        100.0 * self.values_lost as f64 / self.values_offered as f64
    }
}

/// Hoisted `pcp.transport.*` metric handles, resolved once when a
/// registry is attached so the per-ship cost is a handful of atomic adds.
pub(crate) struct TransportObs {
    pub(crate) registry: Arc<Registry>,
    reports_offered: Counter,
    values_offered: Counter,
    values_inserted: Counter,
    values_zeroed: Counter,
    values_lost: Counter,
    bytes_shipped: Counter,
    window_fill: Gauge,
    loss_pct: Gauge,
}

impl TransportObs {
    fn new(registry: Arc<Registry>) -> TransportObs {
        let c = |name: &str| registry.counter(name, &[]);
        TransportObs {
            reports_offered: c("pcp.transport.reports_offered"),
            values_offered: c("pcp.transport.values_offered"),
            values_inserted: c("pcp.transport.values_inserted"),
            values_zeroed: c("pcp.transport.values_zeroed"),
            values_lost: c("pcp.transport.values_lost"),
            bytes_shipped: c("pcp.transport.bytes_shipped"),
            window_fill: registry.gauge("pcp.transport.window_fill", &[]),
            loss_pct: registry.gauge("pcp.transport.loss_pct", &[]),
            registry,
        }
    }
}

/// The unbuffered shipping path: target sampler → network → host DB.
pub struct Shipper<'a> {
    db: &'a Database,
    link: LinkSpec,
    /// Mean end-to-end service capacity, in field values per second.
    pub capacity_values_per_s: f64,
    window_s: f64,
    current_window: i64,
    values_in_window: f64,
    window_capacity: f64,
    noise: NoiseSource,
    stats: ShipperStats,
    pub(crate) obs: TransportObs,
    fault: Option<FaultSchedule>,
}

impl<'a> Shipper<'a> {
    /// Default end-to-end service capacity (values/s) of the paper's host
    /// stack (PCP PDU handling + InfluxDB insert over the 100 Mbit link).
    /// Table III's skx rows saturate around 7–12 k inserted values/s.
    pub(crate) const DEFAULT_CAPACITY: f64 = 11_000.0;

    /// New shipper writing into `db` over `link`, with windowed capacity.
    pub fn new(db: &'a Database, link: LinkSpec, window_s: f64, seed_labels: &[&str]) -> Self {
        Self::try_new(db, link, window_s, seed_labels).expect("window must be positive")
    }

    /// Like [`Shipper::new`] but returns a typed error for a non-finite
    /// or non-positive window instead of panicking.
    pub fn try_new(
        db: &'a Database,
        link: LinkSpec,
        window_s: f64,
        seed_labels: &[&str],
    ) -> Result<Self, PcpError> {
        require_positive("window_s", window_s)?;
        Ok(Shipper {
            db,
            link,
            capacity_values_per_s: Self::DEFAULT_CAPACITY,
            window_s,
            current_window: i64::MIN,
            values_in_window: 0.0,
            window_capacity: 0.0,
            noise: NoiseSource::from_labels(seed_labels),
            stats: ShipperStats::default(),
            obs: TransportObs::new(Registry::disabled()),
            fault: None,
        })
    }

    /// Attach an observability registry; every subsequent [`Shipper::ship`]
    /// updates the `pcp.transport.*` counters and gauges in it.
    pub fn with_obs(mut self, registry: Arc<Registry>) -> Self {
        self.obs = TransportObs::new(registry);
        self
    }

    /// Attach a fault schedule evaluated against the virtual clock on
    /// every ship. An empty schedule is behaviour-identical to none.
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.fault = Some(schedule);
        self
    }

    /// Probability that an on-time report still reads as batched zeros at
    /// this sampling frequency: 0 at ≤6 Hz, rising toward ~0.4 at 32 Hz
    /// (the stale-read artefact of §V-A).
    pub(crate) fn zero_probability(freq_hz: f64) -> f64 {
        if freq_hz <= 6.0 {
            0.0
        } else {
            0.42 * (1.0 - (-(freq_hz - 6.0) / 20.0).exp())
        }
    }

    /// Ship one report (a [`Point`] carrying one field per instance) sampled
    /// at `t` with sampling frequency `freq_hz`.
    pub fn ship(&mut self, t: f64, point: Point, freq_hz: f64) -> ShipOutcome {
        self.ship_span(t, point, freq_hz, Span::none())
    }

    /// [`Shipper::ship`] under the report's root span. The shipper owns
    /// the trace from here on: its one terminal fate — inserted, zeroed
    /// or lost — finishes it with a matching status, and fault paths flag
    /// the trace.
    pub fn ship_span(&mut self, t: f64, point: Point, freq_hz: f64, span: Span) -> ShipOutcome {
        let before = self.stats;
        let outcome = self.ship_inner(t, point, freq_hz, span);
        self.export_obs(before);
        outcome
    }

    fn export_obs(&mut self, before: ShipperStats) {
        let (s, o) = (self.stats, &self.obs);
        o.reports_offered
            .add(s.reports_offered - before.reports_offered);
        o.values_offered
            .add(s.values_offered - before.values_offered);
        o.values_inserted
            .add(s.values_inserted - before.values_inserted);
        o.values_zeroed.add(s.values_zeroed - before.values_zeroed);
        o.values_lost.add(s.values_lost - before.values_lost);
        o.bytes_shipped.add(s.bytes_shipped - before.bytes_shipped);
        let fill = if self.window_capacity > 0.0 {
            self.values_in_window / self.window_capacity
        } else {
            0.0
        };
        o.window_fill.set(fill);
        o.loss_pct.set(s.loss_pct());
    }

    fn fault_state_at(&self, t: f64) -> FaultState {
        self.fault
            .as_ref()
            .map(|f| f.state_at(t))
            .unwrap_or_else(FaultState::healthy)
    }

    fn roll_window(&mut self, t: f64) {
        let w = (t / self.window_s).floor() as i64;
        if w != self.current_window {
            self.current_window = w;
            self.values_in_window = 0.0;
            self.window_capacity = self.capacity_values_per_s
                * self.window_s
                * (1.0 + self.noise.normal(0.0, CAPACITY_JITTER)).max(0.1);
        }
    }

    fn ship_inner(&mut self, t: f64, point: Point, freq_hz: f64, tr: Span) -> ShipOutcome {
        let values = point.field_count() as u64;
        self.stats.reports_offered += 1;
        self.stats.values_offered += values;
        let t_ns = (t * 1e9) as u64;

        let fault = self.fault_state_at(t);
        self.roll_window(t);
        self.values_in_window += values as f64;

        // Link down (partition / flap): nothing crosses.
        if !fault.link_up {
            return self.fail(t_ns, values, tr, "link_down");
        }

        // Windowed service capacity, degraded by active faults.
        if self.values_in_window > self.window_capacity * fault.capacity_factor {
            return self.fail(t_ns, values, tr, "over_capacity");
        }

        self.stats.bytes_shipped += point.wire_size() as u64 + self.link.overhead_bytes as u64;

        // Stale-read zeros at high frequency. (Drawn here so the noise
        // stream is bit-identical to the pre-fault-injection code.)
        let read_zero = self.noise.happens(Self::zero_probability(freq_hz));

        // DB path: backend brown-out.
        if fault.backend_availability < 1.0 && !self.noise.happens(fault.backend_availability) {
            return self.fail(t_ns, values, tr, "backend_down");
        }

        let mut point = point;
        if read_zero {
            for v in point.fields.values_mut() {
                *v = pmove_tsdb::FieldValue::Float(0.0);
            }
        }
        let (ok, end_ns) = self.deliver(t_ns, point, values, &tr);
        if !ok {
            self.stats.values_lost += values;
            tr.fault();
            tr.finish(end_ns, "lost");
            ShipOutcome::Lost
        } else if read_zero {
            self.stats.values_zeroed += values;
            tr.finish(end_ns, "zeroed");
            ShipOutcome::InsertedZero
        } else {
            self.stats.values_inserted += values;
            tr.finish(end_ns, "inserted");
            ShipOutcome::Inserted
        }
    }

    /// Write `point` to the DB, laying out the modeled fetch + attempt +
    /// ingest spans under `tr`. Returns whether the write landed plus the
    /// modeled end timestamp.
    fn deliver(&self, t_ns: u64, point: Point, values: u64, tr: &Span) -> (bool, u64) {
        tr.child("pcp.fetch", t_ns).end(t_ns + FETCH_NS);
        let att_start = t_ns + FETCH_NS;
        let att = tr.child("pcp.ship_attempt", att_start);
        let wire_end = att_start + ATTEMPT_BASE_NS + ATTEMPT_PER_VALUE_NS * values;
        let (res, end_ns) = self.db.write(point, Origin::Client, &att, wire_end);
        let status = if res.is_ok() { "ok" } else { "db_rejected" };
        att.end_status(end_ns, status);
        (res.is_ok(), end_ns)
    }

    /// A report could not be delivered at `t_ns`: it is lost, as the paper
    /// measures. The failed attempt is a fault site on the trace.
    fn fail(&mut self, t_ns: u64, values: u64, tr: Span, reason: &str) -> ShipOutcome {
        tr.fault();
        tr.child("pcp.ship_attempt", t_ns)
            .end_status(t_ns + ATTEMPT_BASE_NS, reason);
        self.stats.values_lost += values;
        tr.finish(t_ns + ATTEMPT_BASE_NS, "lost");
        ShipOutcome::Lost
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ShipperStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmove_hwsim::network::FaultKind;

    fn report(ts: i64, fields: usize) -> Point {
        let mut p = Point::new("perfevent_hwcounters_test")
            .tag("tag", "o1")
            .timestamp(ts);
        for i in 0..fields {
            p = p.field(format!("_cpu{i}"), 5.0 + i as f64);
        }
        p
    }

    #[test]
    fn low_rate_everything_inserted() {
        let db = Database::new("host");
        let mut s = Shipper::new(&db, LinkSpec::mbit_100(), 0.5, &["t1"]);
        for i in 0..20 {
            let out = s.ship(i as f64 * 0.5, report(i, 16), 2.0);
            assert_eq!(out, ShipOutcome::Inserted);
        }
        assert_eq!(s.stats().values_inserted, 320);
        assert_eq!(s.stats().loss_pct(), 0.0);
        assert_eq!(db.total_rows(), 20);
    }

    #[test]
    fn overload_loses_values() {
        let db = Database::new("host");
        let mut s = Shipper::new(&db, LinkSpec::mbit_100(), 1.0 / 32.0, &["t2"]);
        // 88-field reports at 32 Hz × 6 metrics: offered ≈ 16.9k values/s,
        // well over the ~11k capacity.
        let mut t = 0.0;
        for _ in 0..(32 * 10) {
            for m in 0..6 {
                s.ship(t, report((t * 1e9) as i64 + m, 88), 32.0);
            }
            t += 1.0 / 32.0;
        }
        let st = s.stats();
        assert!(st.loss_pct() > 15.0, "loss {}", st.loss_pct());
        assert!(st.values_zeroed > 0);
    }

    #[test]
    fn small_domain_low_loss_but_zeros_at_high_freq() {
        let db = Database::new("host");
        let mut s = Shipper::new(&db, LinkSpec::mbit_100(), 1.0 / 32.0, &["t3"]);
        // icl-like: 16-field reports at 32 Hz × 6 metrics ≈ 3k values/s.
        let mut t = 0.0;
        for _ in 0..(32 * 10) {
            for m in 0..6 {
                s.ship(t, report((t * 1e9) as i64 + m, 16), 32.0);
            }
            t += 1.0 / 32.0;
        }
        let st = s.stats();
        assert!(st.loss_pct() < 8.0, "loss {}", st.loss_pct());
        let zero_frac = 100.0 * st.values_zeroed as f64 / st.values_offered as f64;
        assert!(zero_frac > 20.0, "zeros {zero_frac}");
    }

    #[test]
    fn no_zeros_at_low_frequency() {
        assert_eq!(Shipper::zero_probability(2.0), 0.0);
        assert_eq!(Shipper::zero_probability(6.0), 0.0);
        assert!(Shipper::zero_probability(8.0) > 0.0);
        assert!(Shipper::zero_probability(32.0) > Shipper::zero_probability(8.0));
    }

    #[test]
    fn zeroed_points_store_zero_fields() {
        let reg = Registry::shared();
        let db = Database::with_obs("host", reg.clone());
        let mut s = Shipper::new(&db, LinkSpec::mbit_100(), 1.0 / 64.0, &["t4"]);
        // Force many ships at very high frequency; some will be zeroed.
        for i in 0..200 {
            s.ship(i as f64 / 64.0, report(i, 4), 64.0);
        }
        assert!(s.stats().values_zeroed > 0);
        let zeros = reg.snapshot().counter("tsdb.zero_values_inserted", &[]);
        assert_eq!(zeros, Some(s.stats().values_zeroed));
        let r = db
            .query("SELECT \"_cpu0\" FROM \"perfevent_hwcounters_test\"")
            .unwrap();
        assert!(r.rows.iter().any(|row| row.values["_cpu0"] == Some(0.0)));
    }

    #[test]
    fn obs_counters_mirror_stats_and_conserve() {
        let db = Database::new("host");
        let reg = Registry::shared();
        let mut s =
            Shipper::new(&db, LinkSpec::mbit_100(), 1.0 / 32.0, &["t5"]).with_obs(reg.clone());
        let mut t = 0.0;
        for _ in 0..(32 * 5) {
            for m in 0..6 {
                s.ship(t, report((t * 1e9) as i64 + m, 88), 32.0);
            }
            t += 1.0 / 32.0;
        }
        let st = s.stats();
        let snap = reg.snapshot();
        for (name, want) in [
            ("pcp.transport.reports_offered", st.reports_offered),
            ("pcp.transport.values_offered", st.values_offered),
            ("pcp.transport.values_inserted", st.values_inserted),
            ("pcp.transport.values_zeroed", st.values_zeroed),
            ("pcp.transport.values_lost", st.values_lost),
            ("pcp.transport.bytes_shipped", st.bytes_shipped),
        ] {
            assert_eq!(snap.counter(name, &[]), Some(want), "{name}");
        }
        // Conservation holds in the exported counters, not just the stats.
        assert_eq!(
            snap.counter("pcp.transport.values_offered", &[]).unwrap(),
            st.values_inserted + st.values_zeroed + st.values_lost
        );
        assert_eq!(
            snap.gauge("pcp.transport.loss_pct", &[]),
            Some(st.loss_pct())
        );
    }

    #[test]
    fn stats_ratios() {
        let st = ShipperStats {
            reports_offered: 10,
            values_offered: 100,
            values_inserted: 60,
            values_zeroed: 15,
            values_lost: 25,
            bytes_shipped: 1000,
        };
        assert_eq!(st.loss_pct(), 25.0);
        assert_eq!(ShipperStats::default().loss_pct(), 0.0);
    }

    #[test]
    fn stats_ratios_zero_offered_and_overflow_edges() {
        // Zero offered: the ratio must be 0, not NaN.
        let empty = ShipperStats::default();
        assert_eq!(empty.loss_pct(), 0.0);
        assert!(empty.conserved());
        // u64 extremes: the sum lost+zeroed would overflow with plain `+`.
        let extreme = ShipperStats {
            values_offered: u64::MAX,
            values_lost: u64::MAX,
            values_zeroed: u64::MAX,
            ..ShipperStats::default()
        };
        assert!(extreme.loss_pct().is_finite());
        // accounted() saturates instead of wrapping.
        assert_eq!(extreme.accounted(), u64::MAX);
    }

    #[test]
    fn invalid_inputs_rejected_with_typed_errors() {
        let db = Database::new("host");
        assert!(Shipper::try_new(&db, LinkSpec::mbit_100(), 0.0, &["v"]).is_err());
        assert!(Shipper::try_new(&db, LinkSpec::mbit_100(), f64::NAN, &["v"]).is_err());
        assert!(Shipper::try_new(&db, LinkSpec::mbit_100(), 0.5, &["v"]).is_ok());
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical_to_none() {
        let run = |with_schedule: bool| {
            let db = Database::new("host");
            let mut s = Shipper::new(&db, LinkSpec::mbit_100(), 1.0 / 32.0, &["ident"]);
            if with_schedule {
                s = s.with_fault_schedule(FaultSchedule::none());
            }
            let mut t = 0.0;
            for _ in 0..(32 * 5) {
                for m in 0..6 {
                    s.ship(t, report((t * 1e9) as i64 + m, 88), 32.0);
                }
                t += 1.0 / 32.0;
            }
            s.stats()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn link_down_loses_everything() {
        let db = Database::new("host");
        let schedule = FaultSchedule::none().with_window(0.0, 100.0, FaultKind::LinkDown);
        let mut s =
            Shipper::new(&db, LinkSpec::mbit_100(), 0.5, &["down"]).with_fault_schedule(schedule);
        for i in 0..10 {
            assert_eq!(s.ship(i as f64 * 0.5, report(i, 8), 2.0), ShipOutcome::Lost);
        }
        let st = s.stats();
        assert_eq!(st.values_lost, 80);
        assert_eq!(st.values_inserted, 0);
        assert!(st.conserved());
        assert_eq!(db.total_rows(), 0);
    }
}
