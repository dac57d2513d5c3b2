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
//! Two opt-in extensions leave that default behaviour bit-identical:
//!
//! * a [`FaultSchedule`] injects link/backend faults on the virtual clock;
//! * a [`ResilienceConfig`] turns the unbuffered path into a self-healing
//!   one (spill buffer, retry/backoff, circuit breaker, gap markers).
//!
//! Conservation invariant, audited by tests under arbitrary fault
//! schedules: `values_offered == values_inserted + values_zeroed +
//! values_lost + values_spill_pending + values_evicted`.

use crate::error::{require_non_negative, require_positive, PcpError};
use crate::resilience::{self, BreakerState, CircuitBreaker, ResilienceConfig};
use pmove_hwsim::network::{FaultSchedule, FaultState, LinkSpec};
use pmove_hwsim::noise::NoiseSource;
use pmove_obs::{Counter, Gauge, Registry, Span};
use pmove_tsdb::{Database, Origin, Point};
use std::collections::VecDeque;
use std::sync::Arc;

/// Measurement name of the gap-marker points written on recovery.
pub const GAP_MEASUREMENT: &str = "pmove_gap";

/// Modeled PDU fetch time preceding each ship attempt (ns).
pub(crate) const FETCH_NS: u64 = 8_000;
/// Modeled fixed cost of one delivery attempt (ns).
pub(crate) const ATTEMPT_BASE_NS: u64 = 12_000;
/// Modeled per-field-value cost of one delivery attempt (ns).
const ATTEMPT_PER_VALUE_NS: u64 = 120;
/// Modeled cost of one spill-replay attempt (ns).
pub(crate) const RETRY_NS: u64 = 15_000;

/// Root span name of one report's trace; fault sites that upgrade an
/// unsampled trace re-create the root under it.
pub(crate) const SAMPLE_ROOT: &str = "pcp.sample";

/// Outcome of shipping one report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipOutcome {
    /// Stored with true values.
    Inserted,
    /// Stored, but as batched zeros (stale read at high frequency).
    InsertedZero,
    /// Lost in transmission.
    Lost,
    /// Parked in the resilient spill buffer for later retry.
    Spilled,
}

/// Cumulative shipping statistics — the raw material of Table III, plus
/// the resilient-mode ledger.
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
    /// Field values that entered the spill buffer (cumulative).
    pub values_spilled: u64,
    /// Field values currently parked in the spill buffer.
    pub values_spill_pending: u64,
    /// Field values evicted from a full spill buffer (drop-oldest).
    pub values_evicted: u64,
    /// Field values recovered from the spill buffer into the DB.
    pub values_recovered: u64,
    /// Re-send attempts of spilled reports.
    pub retries: u64,
    /// Gap-marker points written on recovery.
    pub gap_markers: u64,
    /// Circuit-breaker open transitions.
    pub breaker_opens: u64,
}

impl ShipperStats {
    /// Field values accounted for by every terminal or parked state. The
    /// conservation invariant is `accounted() == values_offered`.
    pub fn accounted(&self) -> u64 {
        self.values_inserted
            .saturating_add(self.values_zeroed)
            .saturating_add(self.values_lost)
            .saturating_add(self.values_spill_pending)
            .saturating_add(self.values_evicted)
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

    /// Combined loss+zero ratio (L+Z% of Table III). Uses saturating
    /// addition so adversarial counter values cannot overflow in debug
    /// builds.
    pub fn loss_plus_zero_pct(&self) -> f64 {
        if self.values_offered == 0 {
            return 0.0;
        }
        100.0 * self.values_lost.saturating_add(self.values_zeroed) as f64
            / self.values_offered as f64
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

/// Hoisted `pcp.resilience.*` handles, registered only when both a
/// registry and a [`ResilienceConfig`] are attached — so default-mode
/// snapshots carry no resilience series at all.
struct ResilienceObs {
    retries: Counter,
    spilled: Counter,
    evicted: Counter,
    recovered: Counter,
    gap_markers: Counter,
    breaker_opens: Counter,
    spill_pending: Gauge,
    breaker_state: Gauge,
}

impl ResilienceObs {
    fn new(registry: &Registry) -> ResilienceObs {
        let c = |name: &str| registry.counter(name, &[]);
        ResilienceObs {
            retries: c("pcp.resilience.retries"),
            spilled: c("pcp.resilience.values_spilled"),
            evicted: c("pcp.resilience.values_evicted"),
            recovered: c("pcp.resilience.values_recovered"),
            gap_markers: c("pcp.resilience.gap_markers"),
            breaker_opens: c("pcp.resilience.breaker_opens"),
            spill_pending: registry.gauge("pcp.resilience.spill_pending", &[]),
            breaker_state: registry.gauge("pcp.resilience.breaker_state", &[]),
        }
    }
}

/// One report parked in the spill buffer.
struct SpilledReport {
    point: Point,
    values: u64,
    attempts: u32,
    /// The report's trace, kept open while parked: it terminates when
    /// the entry is recovered, evicted, lost, or sealed at run end.
    trace: Span,
}

/// The unbuffered shipping path: target sampler → network → host DB.
pub struct Shipper<'a> {
    db: &'a Database,
    link: LinkSpec,
    /// Mean end-to-end service capacity, in field values per second.
    pub capacity_values_per_s: f64,
    /// Relative jitter of the per-window capacity.
    pub capacity_jitter: f64,
    window_s: f64,
    current_window: i64,
    values_in_window: f64,
    window_capacity: f64,
    noise: NoiseSource,
    stats: ShipperStats,
    pub(crate) obs: TransportObs,
    // --- fault injection + resilience (inert by default) ---
    fault: Option<FaultSchedule>,
    rescfg: Option<ResilienceConfig>,
    robs: ResilienceObs,
    spill: VecDeque<SpilledReport>,
    breaker: CircuitBreaker,
    backoff_s: f64,
    next_retry_s: f64,
    outage_since: Option<f64>,
    window_offered: u64,
    window_failed: u64,
    lossy_windows: u32,
    clean_windows: u32,
    stride: u64,
}

impl<'a> Shipper<'a> {
    /// Default end-to-end service capacity (values/s) of the paper's host
    /// stack (PCP PDU handling + InfluxDB insert over the 100 Mbit link).
    /// Table III's skx rows saturate around 7–12 k inserted values/s.
    pub const DEFAULT_CAPACITY: f64 = 11_000.0;

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
            capacity_jitter: 0.25,
            window_s,
            current_window: i64::MIN,
            values_in_window: 0.0,
            window_capacity: 0.0,
            noise: NoiseSource::from_labels(seed_labels),
            stats: ShipperStats::default(),
            obs: TransportObs::new(Registry::disabled()),
            fault: None,
            rescfg: None,
            robs: ResilienceObs::new(&Registry::disabled()),
            spill: VecDeque::new(),
            breaker: CircuitBreaker::new(
                resilience::BREAKER_THRESHOLD,
                resilience::BREAKER_COOLDOWN_S,
            ),
            backoff_s: 0.0,
            next_retry_s: f64::NEG_INFINITY,
            outage_since: None,
            window_offered: 0,
            window_failed: 0,
            lossy_windows: 0,
            clean_windows: 0,
            stride: 1,
        })
    }

    /// Validate and set the capacity model (the fields are public for
    /// ablation sweeps; this is the checked path).
    pub fn set_capacity(&mut self, values_per_s: f64, jitter: f64) -> Result<(), PcpError> {
        require_positive("capacity_values_per_s", values_per_s)?;
        require_non_negative("capacity_jitter", jitter)?;
        self.capacity_values_per_s = values_per_s;
        self.capacity_jitter = jitter;
        Ok(())
    }

    /// Attach an observability registry; every subsequent [`Shipper::ship`]
    /// updates the `pcp.transport.*` counters and gauges in it.
    pub fn with_obs(mut self, registry: Arc<Registry>) -> Self {
        self.obs = TransportObs::new(registry);
        self.ensure_resilience_obs();
        self
    }

    /// Attach a fault schedule evaluated against the virtual clock on
    /// every ship. An empty schedule is behaviour-identical to none.
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.fault = Some(schedule);
        self
    }

    /// Enable the resilient transport mode.
    pub fn with_resilience(mut self, cfg: ResilienceConfig) -> Self {
        self.rescfg = Some(cfg);
        self.ensure_resilience_obs();
        self
    }

    fn ensure_resilience_obs(&mut self) {
        if self.rescfg.is_some() {
            self.robs = ResilienceObs::new(&self.obs.registry);
        }
    }

    /// True when a [`ResilienceConfig`] is attached.
    pub fn is_resilient(&self) -> bool {
        self.rescfg.is_some()
    }

    /// Current circuit-breaker state (always `Closed` in default mode).
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Tick stride the adaptive degradation currently suggests: sample
    /// every `n`-th tick. Always 1 in default mode.
    pub fn suggested_stride(&self) -> u64 {
        self.stride
    }

    /// Probability that an on-time report still reads as batched zeros at
    /// this sampling frequency: 0 at ≤6 Hz, rising toward ~0.4 at 32 Hz
    /// (the stale-read artefact of §V-A).
    pub fn zero_probability(freq_hz: f64) -> f64 {
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
    /// the trace from here on: every terminal fate — inserted, zeroed,
    /// lost, evicted, recovered, spill_pending — finishes it with a
    /// matching status, and fault paths upgrade unsampled traces when
    /// the tracer's `sample_on_fault` policy is set. The span survives
    /// spill parking and replays, so one tree shows the report's whole
    /// journey.
    pub fn ship_span(&mut self, t: f64, point: Point, freq_hz: f64, span: Span) -> ShipOutcome {
        let before = self.stats;
        let outcome = self.ship_inner(t, point, freq_hz, span);
        self.stats.breaker_opens = self.breaker.opens;
        self.export_obs(before);
        outcome
    }

    /// A sampling tick passed without a ship (adaptive degradation is
    /// skipping ticks): give the resilient path a chance to drain its
    /// spill buffer. No-op in default mode.
    pub fn idle_tick(&mut self, t: f64) {
        if self.rescfg.is_none() {
            return;
        }
        let before = self.stats;
        self.drain_spill(t);
        self.stats.breaker_opens = self.breaker.opens;
        self.export_obs(before);
    }

    fn export_obs(&mut self, before: ShipperStats) {
        let (s, o, r) = (self.stats, &self.obs, &self.robs);
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
        r.retries.add(s.retries - before.retries);
        r.spilled.add(s.values_spilled - before.values_spilled);
        r.evicted.add(s.values_evicted - before.values_evicted);
        r.recovered
            .add(s.values_recovered - before.values_recovered);
        r.gap_markers.add(s.gap_markers - before.gap_markers);
        r.breaker_opens.add(s.breaker_opens - before.breaker_opens);
        r.spill_pending.set(s.values_spill_pending as f64);
        r.breaker_state.set(match self.breaker.state() {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        });
    }

    fn fault_state_at(&self, t: f64) -> FaultState {
        self.fault
            .as_ref()
            .map(|f| f.state_at(t))
            .unwrap_or_else(FaultState::healthy)
    }

    /// Roll the capacity window; in resilient mode also close the books
    /// on the previous window for adaptive degradation.
    fn roll_window(&mut self, t: f64) {
        let w = (t / self.window_s).floor() as i64;
        if w != self.current_window {
            self.evaluate_window();
            self.current_window = w;
            self.values_in_window = 0.0;
            self.window_capacity = self.capacity_values_per_s
                * self.window_s
                * (1.0 + self.noise.normal(0.0, self.capacity_jitter)).max(0.1);
        }
    }

    /// Adaptive frequency degradation: after
    /// [`resilience::DEGRADE_WINDOWS`] consecutive lossy windows the
    /// suggested tick stride doubles (capped); after as many clean
    /// windows it halves back toward 1.
    fn evaluate_window(&mut self) {
        if self.rescfg.is_none() || self.window_offered == 0 {
            return;
        }
        let loss = 100.0 * self.window_failed as f64 / self.window_offered as f64;
        if loss >= resilience::DEGRADE_LOSS_PCT {
            self.clean_windows = 0;
            self.lossy_windows += 1;
            if self.lossy_windows >= resilience::DEGRADE_WINDOWS {
                self.lossy_windows = 0;
                self.stride = (self.stride * 2).min(resilience::MAX_STRIDE);
            }
        } else {
            self.lossy_windows = 0;
            self.clean_windows += 1;
            if self.clean_windows >= resilience::DEGRADE_WINDOWS {
                self.clean_windows = 0;
                self.stride = (self.stride / 2).max(1);
            }
        }
        self.window_offered = 0;
        self.window_failed = 0;
    }

    fn ship_inner(&mut self, t: f64, point: Point, freq_hz: f64, mut tr: Span) -> ShipOutcome {
        let values = point.field_count() as u64;
        self.stats.reports_offered += 1;
        self.stats.values_offered += values;
        let t_ns = (t * 1e9) as u64;

        let fault = self.fault_state_at(t);
        if self.rescfg.is_some() {
            self.drain_spill(t);
        }

        // Roll the capacity window.
        self.roll_window(t);
        self.window_offered += values;
        self.values_in_window += values as f64;

        // Link down (partition / flap): nothing crosses.
        if !fault.link_up {
            return self.fail_or_spill(t, point, values, tr, "link_down");
        }

        // Windowed service capacity, degraded by active faults.
        if self.values_in_window > self.window_capacity * fault.capacity_factor {
            return self.fail_or_spill(t, point, values, tr, "over_capacity");
        }

        self.stats.bytes_shipped += point.wire_size() as u64 + self.link.overhead_bytes as u64;

        // Stale-read zeros at high frequency. (Drawn here so the noise
        // stream is bit-identical to the pre-fault-injection code.)
        let read_zero = self.noise.happens(Self::zero_probability(freq_hz));

        // DB path: circuit breaker, then backend brown-out.
        if self.rescfg.is_some() && !self.breaker.allow(t) {
            return self.fail_or_spill(t, point, values, tr, "breaker_open");
        }
        if fault.backend_availability < 1.0 && !self.noise.happens(fault.backend_availability) {
            if self.rescfg.is_some() {
                self.breaker.record_failure(t);
            }
            return self.fail_or_spill(t, point, values, tr, "backend_down");
        }
        if self.rescfg.is_some() {
            self.breaker.record_success();
        }

        if read_zero {
            let mut zeroed = point.clone();
            for v in zeroed.fields.values_mut() {
                *v = pmove_tsdb::FieldValue::Float(0.0);
            }
            let (ok, end_ns) = self.deliver(t_ns, zeroed, values, &tr);
            if ok {
                self.stats.values_zeroed += values;
                self.note_success(t);
                tr.finish(end_ns, "zeroed");
                return ShipOutcome::InsertedZero;
            }
            self.stats.values_lost += values;
            tr.fault(SAMPLE_ROOT, t_ns);
            tr.finish(end_ns, "lost");
            return ShipOutcome::Lost;
        }

        let (ok, end_ns) = self.deliver(t_ns, point, values, &tr);
        if ok {
            self.stats.values_inserted += values;
            self.note_success(t);
            tr.finish(end_ns, "inserted");
            ShipOutcome::Inserted
        } else {
            self.stats.values_lost += values;
            tr.fault(SAMPLE_ROOT, t_ns);
            tr.finish(end_ns, "lost");
            ShipOutcome::Lost
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

    /// A report could not be delivered at `t`. Default mode: lost, as the
    /// paper measures. Resilient mode: park it in the bounded spill
    /// buffer, evicting the oldest entries when full.
    fn fail_or_spill(
        &mut self,
        t: f64,
        point: Point,
        values: u64,
        mut tr: Span,
        reason: &str,
    ) -> ShipOutcome {
        let t_ns = (t * 1e9) as u64;
        // A failed delivery is a fault site: upgrade unsampled traces so
        // the flight recorder always holds the interesting journeys.
        tr.fault(SAMPLE_ROOT, t_ns);
        tr.child("pcp.ship_attempt", t_ns)
            .end_status(t_ns + ATTEMPT_BASE_NS, reason);
        let Some(cfg) = self.rescfg else {
            self.stats.values_lost += values;
            tr.finish(t_ns + ATTEMPT_BASE_NS, "lost");
            return ShipOutcome::Lost;
        };
        self.window_failed += values;
        if self.outage_since.is_none() {
            self.outage_since = Some(t);
        }
        if values > cfg.spill_capacity_values {
            // Could never fit; count it lost rather than churn the buffer.
            self.stats.values_lost += values;
            tr.finish(t_ns + ATTEMPT_BASE_NS, "lost");
            return ShipOutcome::Lost;
        }
        while self.stats.values_spill_pending + values > cfg.spill_capacity_values {
            let old = self.spill.pop_front().expect("pending implies entries");
            self.stats.values_spill_pending -= old.values;
            self.stats.values_evicted += old.values;
            old.trace.finish(t_ns, "evicted");
        }
        tr.child("pcp.spill_park", t_ns + ATTEMPT_BASE_NS)
            .end(t_ns + ATTEMPT_BASE_NS);
        self.spill.push_back(SpilledReport {
            point,
            values,
            attempts: 0,
            trace: tr,
        });
        self.stats.values_spilled += values;
        self.stats.values_spill_pending += values;
        ShipOutcome::Spilled
    }

    /// Try to replay spilled reports, oldest first, respecting the retry
    /// backoff, the circuit breaker, link state, and window capacity.
    fn drain_spill(&mut self, t: f64) {
        if self.rescfg.is_none() || self.spill.is_empty() || t < self.next_retry_s {
            return;
        }
        let fault = self.fault_state_at(t);
        if !fault.link_up || !self.breaker.allow(t) {
            return;
        }
        self.roll_window(t);
        let t_ns = (t * 1e9) as u64;
        while let Some(front) = self.spill.front() {
            if self.values_in_window + front.values as f64
                > self.window_capacity * fault.capacity_factor
            {
                break;
            }
            self.stats.retries += 1;
            let backend_ok =
                fault.backend_availability >= 1.0 || self.noise.happens(fault.backend_availability);
            if !backend_ok {
                self.breaker.record_failure(t);
                let front = self.spill.front_mut().expect("checked non-empty");
                front.attempts += 1;
                front
                    .trace
                    .child("pcp.retry", t_ns)
                    .end_status(t_ns + RETRY_NS, "backend_down");
                if front.attempts >= resilience::MAX_RETRIES {
                    let dead = self.spill.pop_front().expect("checked non-empty");
                    self.stats.values_spill_pending -= dead.values;
                    self.stats.values_lost += dead.values;
                    dead.trace.finish(t_ns + RETRY_NS, "lost");
                }
                // Capped exponential backoff with deterministic jitter.
                self.backoff_s = (self.backoff_s * 2.0)
                    .clamp(resilience::BACKOFF_BASE_S, resilience::BACKOFF_CAP_S);
                let jitter = 1.0 + resilience::BACKOFF_JITTER * (self.noise.uniform() - 0.5);
                self.next_retry_s = t + self.backoff_s * jitter;
                return;
            }
            self.breaker.record_success();
            let entry = self.spill.pop_front().expect("checked non-empty");
            self.values_in_window += entry.values as f64;
            self.stats.values_spill_pending -= entry.values;
            self.stats.bytes_shipped +=
                entry.point.wire_size() as u64 + self.link.overhead_bytes as u64;
            let retry = entry.trace.child("pcp.retry", t_ns);
            let (res, end_ns) = self
                .db
                .write(entry.point, Origin::Client, &retry, t_ns + RETRY_NS);
            retry.end(end_ns);
            if res.is_ok() {
                self.stats.values_inserted += entry.values;
                self.stats.values_recovered += entry.values;
                entry.trace.finish(end_ns, "recovered");
            } else {
                self.stats.values_lost += entry.values;
                entry.trace.finish(end_ns, "lost");
            }
            self.backoff_s = 0.0;
            self.next_retry_s = t;
            self.note_success(t);
        }
    }

    /// Close the trace of every report still parked in the spill buffer
    /// with status `spill_pending` — called at the end of a run so no
    /// trace is left open when the flight recorder is read.
    pub fn seal_pending_traces(&mut self, t: f64) {
        let t_ns = (t * 1e9) as u64;
        for entry in &mut self.spill {
            std::mem::take(&mut entry.trace).finish(t_ns, "spill_pending");
        }
    }

    /// First successful insert after an outage: write one gap-marker
    /// point covering `[outage_start, t)` so queries can distinguish
    /// "lost" from "not sampled".
    fn note_success(&mut self, t: f64) {
        if self.rescfg.is_none() {
            return;
        }
        if let Some(start) = self.outage_since.take() {
            let gap = Point::new(GAP_MEASUREMENT)
                .timestamp((t * 1e9) as i64)
                .field("gap_start_s", start)
                .field("gap_end_s", t);
            if self.db.write_point(gap).is_ok() {
                self.stats.gap_markers += 1;
            }
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ShipperStats {
        self.stats
    }

    /// The link used.
    pub fn link(&self) -> LinkSpec {
        self.link
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
        assert_eq!(db.stats().points_inserted, 20);
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
        assert!(st.loss_plus_zero_pct() > st.loss_pct());
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
        let db = Database::new("host");
        let mut s = Shipper::new(&db, LinkSpec::mbit_100(), 1.0 / 64.0, &["t4"]);
        // Force many ships at very high frequency; some will be zeroed.
        for i in 0..200 {
            s.ship(i as f64 / 64.0, report(i, 4), 64.0);
        }
        assert!(s.stats().values_zeroed > 0);
        let zeros = db.stats().zero_values_inserted;
        assert_eq!(zeros, s.stats().values_zeroed);
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
        // Default mode registers no resilience series at all.
        assert!(snap.counter("pcp.resilience.retries", &[]).is_none());
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
            ..ShipperStats::default()
        };
        assert_eq!(st.loss_pct(), 25.0);
        assert_eq!(st.loss_plus_zero_pct(), 40.0);
        assert_eq!(ShipperStats::default().loss_pct(), 0.0);
    }

    #[test]
    fn stats_ratios_zero_offered_and_overflow_edges() {
        // Zero offered: both ratios must be 0, not NaN.
        let empty = ShipperStats::default();
        assert_eq!(empty.loss_pct(), 0.0);
        assert_eq!(empty.loss_plus_zero_pct(), 0.0);
        assert!(empty.conserved());
        // u64 extremes: the sum lost+zeroed would overflow with plain `+`;
        // the saturating path must stay finite and ≤ ~200 %.
        let extreme = ShipperStats {
            values_offered: u64::MAX,
            values_lost: u64::MAX,
            values_zeroed: u64::MAX,
            ..ShipperStats::default()
        };
        let pct = extreme.loss_plus_zero_pct();
        assert!(pct.is_finite());
        assert!((99.0..=101.0).contains(&pct), "saturated pct {pct}");
        assert!(extreme.loss_pct().is_finite());
        // accounted() saturates instead of wrapping.
        assert_eq!(extreme.accounted(), u64::MAX);
    }

    #[test]
    fn invalid_inputs_rejected_with_typed_errors() {
        let db = Database::new("host");
        assert!(Shipper::try_new(&db, LinkSpec::mbit_100(), 0.0, &["v"]).is_err());
        assert!(Shipper::try_new(&db, LinkSpec::mbit_100(), f64::NAN, &["v"]).is_err());
        let mut s = Shipper::try_new(&db, LinkSpec::mbit_100(), 0.5, &["v"]).unwrap();
        assert!(s.set_capacity(f64::INFINITY, 0.1).is_err());
        assert!(s.set_capacity(-5.0, 0.1).is_err());
        assert!(s.set_capacity(1000.0, f64::NAN).is_err());
        assert!(s.set_capacity(1000.0, 0.1).is_ok());
        assert_eq!(s.capacity_values_per_s, 1000.0);
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
    fn link_down_without_resilience_loses_everything() {
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
        assert_eq!(db.stats().points_inserted, 0);
    }

    #[test]
    fn resilient_mode_spills_during_outage_and_recovers_after() {
        let db = Database::new("host");
        // Link down for the first 5 s, healthy afterwards.
        let schedule = FaultSchedule::none().with_window(0.0, 5.0, FaultKind::LinkDown);
        let mut s = Shipper::new(&db, LinkSpec::mbit_100(), 0.5, &["res1"])
            .with_fault_schedule(schedule)
            .with_resilience(ResilienceConfig::default());
        let mut t = 0.25;
        let mut i = 0;
        while t < 10.0 {
            let out = s.ship(t, report(i, 8), 2.0);
            if t < 5.0 {
                assert_eq!(out, ShipOutcome::Spilled, "t={t}");
            }
            i += 1;
            t += 0.5;
        }
        let st = s.stats();
        assert!(st.values_spilled > 0);
        assert!(st.values_recovered > 0, "spill drained after recovery");
        assert_eq!(st.values_spill_pending, 0, "fully drained");
        assert_eq!(st.values_lost, 0);
        assert!(st.conserved(), "{st:?}");
        // Exactly one outage → exactly one gap marker, stored in the DB.
        assert_eq!(st.gap_markers, 1);
        let gaps = db
            .query(&format!("SELECT \"gap_end_s\" FROM \"{GAP_MEASUREMENT}\""))
            .unwrap();
        assert_eq!(gaps.rows.len(), 1);
    }

    #[test]
    fn spill_buffer_evicts_oldest_when_full() {
        let db = Database::new("host");
        let schedule = FaultSchedule::none().with_window(0.0, 1000.0, FaultKind::LinkDown);
        let cfg = ResilienceConfig {
            spill_capacity_values: 32, // room for 4 reports of 8 values
        };
        let mut s = Shipper::new(&db, LinkSpec::mbit_100(), 0.5, &["res2"])
            .with_fault_schedule(schedule)
            .with_resilience(cfg);
        for i in 0..10 {
            s.ship(i as f64 * 0.5, report(i, 8), 2.0);
        }
        let st = s.stats();
        assert_eq!(st.values_spilled, 80);
        assert_eq!(st.values_spill_pending, 32);
        assert_eq!(st.values_evicted, 48);
        assert!(st.conserved(), "{st:?}");
    }

    #[test]
    fn brownout_opens_breaker_and_resilient_mode_conserves() {
        let db = Database::new("host");
        // Hard brown-out: backend rejects every write for 20 s.
        let schedule =
            FaultSchedule::none().with_window(0.0, 20.0, FaultKind::BackendBrownout(0.0));
        let mut s = Shipper::new(&db, LinkSpec::mbit_100(), 0.5, &["res3"])
            .with_fault_schedule(schedule)
            .with_resilience(ResilienceConfig::default());
        let mut t = 0.25;
        let mut i = 0;
        while t < 30.0 {
            s.ship(t, report(i, 8), 2.0);
            i += 1;
            t += 0.5;
        }
        let st = s.stats();
        assert!(st.breaker_opens >= 1, "breaker tripped: {st:?}");
        assert!(st.retries > 0);
        assert!(st.values_recovered > 0, "drained after the brown-out");
        assert!(st.conserved(), "{st:?}");
        assert_eq!(s.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn sustained_loss_degrades_stride_and_recovery_restores_it() {
        let db = Database::new("host");
        // Bandwidth crushed to 0.1 % for 60 s (per-window capacity below a
        // single 16-value report), then healthy.
        let schedule =
            FaultSchedule::none().with_window(0.0, 60.0, FaultKind::BandwidthDegraded(0.001));
        let cfg = ResilienceConfig {
            spill_capacity_values: 64,
        };
        let mut s = Shipper::new(&db, LinkSpec::mbit_100(), 0.5, &["res4"])
            .with_fault_schedule(schedule)
            .with_resilience(cfg);
        assert_eq!(s.suggested_stride(), 1);
        let mut t = 0.25;
        let mut i = 0;
        while t < 60.0 {
            s.ship(t, report(i, 16), 2.0);
            i += 1;
            t += 0.5;
        }
        assert!(s.suggested_stride() > 1, "stride degraded under loss");
        while t < 140.0 {
            s.ship(t, report(i, 16), 2.0);
            i += 1;
            t += 0.5;
        }
        assert_eq!(s.suggested_stride(), 1, "stride recovered");
        assert!(s.stats().conserved(), "{:?}", s.stats());
    }

    #[test]
    fn resilience_obs_exports_counters_and_gauges() {
        let db = Database::new("host");
        let reg = Registry::shared();
        let schedule = FaultSchedule::none().with_window(0.0, 5.0, FaultKind::LinkDown);
        let mut s = Shipper::new(&db, LinkSpec::mbit_100(), 0.5, &["res5"])
            .with_obs(reg.clone())
            .with_fault_schedule(schedule)
            .with_resilience(ResilienceConfig::default());
        let mut t = 0.25;
        let mut i = 0;
        while t < 10.0 {
            s.ship(t, report(i, 8), 2.0);
            i += 1;
            t += 0.5;
        }
        let st = s.stats();
        let snap = reg.snapshot();
        for (name, want) in [
            ("pcp.resilience.values_spilled", st.values_spilled),
            ("pcp.resilience.values_evicted", st.values_evicted),
            ("pcp.resilience.values_recovered", st.values_recovered),
            ("pcp.resilience.retries", st.retries),
            ("pcp.resilience.gap_markers", st.gap_markers),
            ("pcp.resilience.breaker_opens", st.breaker_opens),
        ] {
            assert_eq!(snap.counter(name, &[]), Some(want), "{name}");
        }
        assert_eq!(
            snap.gauge("pcp.resilience.spill_pending", &[]),
            Some(st.values_spill_pending as f64)
        );
        assert_eq!(snap.gauge("pcp.resilience.breaker_state", &[]), Some(0.0));
        // Conservation holds across transport + resilience counters.
        let offered = snap.counter("pcp.transport.values_offered", &[]).unwrap();
        let inserted = snap.counter("pcp.transport.values_inserted", &[]).unwrap();
        let zeroed = snap.counter("pcp.transport.values_zeroed", &[]).unwrap();
        let lost = snap.counter("pcp.transport.values_lost", &[]).unwrap();
        let evicted = snap.counter("pcp.resilience.values_evicted", &[]).unwrap();
        assert_eq!(
            offered,
            inserted + zeroed + lost + evicted + st.values_spill_pending
        );
    }
}
