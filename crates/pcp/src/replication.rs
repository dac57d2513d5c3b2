//! Replication-aware transport coordinator: quorum writes, hinted
//! handoff, heartbeat-driven hint replay, and primary failover.
//!
//! The coordinator is the routing half of the replication layer (the
//! storage half — replicas, Merkle trees, anti-entropy — lives in
//! `pmove_tsdb::repl`). Each shipped report is written to every replica
//! whose fault schedule currently lets writes through; the write counts
//! as **inserted** once `W` replicas acknowledge. Replicas that missed a
//! quorum-successful write get a *non-ledger* hint (repair bookkeeping:
//! the value is already safely counted as inserted). When fewer than `W`
//! replicas acknowledge, the report itself is parked as a *ledger* hint
//! on the first failed replica, counted in the `hinted` conservation
//! term; it graduates to `inserted` when the replica's heartbeat returns
//! and the hint replays, or to `evicted` if the bounded drop-oldest queue
//! pushes it out first.
//!
//! ## The widened conservation equation
//!
//! ```text
//! offered + corrupted ==
//!     inserted + zeroed + lost + pending + evicted + hinted
//!     + repaired + corrupt_pending
//! ```
//!
//! `pending` is PR 3's spill term — always 0 in coordinator mode, kept so
//! the equation is uniform across transports. `hinted` is the *currently
//! parked* ledger values; a finished run can legitimately end with
//! `hinted > 0` when a replica never came back.
//!
//! `corrupted` / `repaired` / `corrupt_pending` are the integrity terms:
//! a cell destroyed by latent disk rot (its chunk quarantined) re-enters
//! the ledger on the left as `corrupted`, and exits on the right either
//! as `repaired` (read-repair restored it from the surviving R-quorum)
//! or as `corrupt_pending` (the hole is still open, annotated with
//! `pmove_gap` markers). With no corruption all three are 0 and the
//! equation collapses to PR 5's six-term identity.

use crate::error::PcpError;
use crate::pmcd::Pmcd;
use crate::sampler::{run_ticks, SampleSink, SamplingConfig};
use crate::transport::{Shipper, FETCH_NS, RETRY_NS, SAMPLE_ROOT};
use pmove_hwsim::network::FaultSchedule;
use pmove_hwsim::noise::NoiseSource;
use pmove_obs::{Counter, Gauge, Histogram, Registry, Span};
use pmove_tsdb::repl::{IntegrityReport, ReplicaSet};
use pmove_tsdb::store::Scrubber;
use pmove_tsdb::{ExecMode, FieldValue, Origin, Point, Query, TsdbError};
use std::collections::VecDeque;
use std::sync::Arc;

/// Outcome of offering one report to the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplShipOutcome {
    /// W or more replicas acknowledged the true values.
    Inserted,
    /// Stale-read artefact: the report landed as batched zeros.
    InsertedZero,
    /// Quorum missed; the report is parked as a ledger hint.
    Hinted,
    /// Quorum missed and the hint queue could not hold the report.
    Lost,
}

/// Conservation-audited coordinator statistics. Field names mirror
/// [`crate::transport::ShipperStats`] so audits read uniformly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplStats {
    /// Reports offered to the coordinator.
    pub reports_offered: u64,
    /// Field values offered.
    pub values_offered: u64,
    /// Values acknowledged by a W-quorum (true values).
    pub values_inserted: u64,
    /// Values that arrived as batched zeros (stale-read artefact).
    pub values_zeroed: u64,
    /// Values lost outright (quorum missed and hint queue unable to hold).
    pub values_lost: u64,
    /// PR 3 spill term; always 0 in coordinator mode.
    pub values_spill_pending: u64,
    /// Ledger values evicted from a hint queue by drop-oldest overflow.
    pub values_evicted: u64,
    /// Ledger values currently parked as hints (not yet replayed).
    pub values_hinted: u64,
    /// Cells destroyed by latent disk rot: removed from a replica's
    /// durable state when its chunk was quarantined.
    pub values_corrupted: u64,
    /// Corrupted cells restored onto the damaged replicas by read-repair
    /// from the surviving quorum.
    pub values_repaired: u64,
    /// Corrupted cells not yet repaired (open, gap-annotated holes).
    pub values_corrupt_pending: u64,
    /// Hint entries queued (ledger and non-ledger).
    pub hints_queued: u64,
    /// Hint entries successfully replayed.
    pub hints_replayed: u64,
    /// Hint entries dropped by overflow or oversize.
    pub hints_dropped: u64,
    /// Writes that reached a W-quorum.
    pub quorum_writes: u64,
    /// Writes that missed the W-quorum.
    pub quorum_write_failures: u64,
    /// Individual replica acknowledgements across all writes.
    pub replica_acks: u64,
    /// Primary promotions after quarantine.
    pub failovers: u64,
}

impl ReplStats {
    /// Sum of the accounted fates: the six transport fates plus the two
    /// integrity exits (`repaired`, `corrupt_pending`).
    pub fn accounted(&self) -> u64 {
        self.values_inserted
            + self.values_zeroed
            + self.values_lost
            + self.values_spill_pending
            + self.values_evicted
            + self.values_hinted
            + self.values_repaired
            + self.values_corrupt_pending
    }

    /// The widened conservation equation: every offered value has exactly
    /// one fate, and every corrupted cell is either repaired or still an
    /// open (annotated) hole.
    pub fn conserved(&self) -> bool {
        self.accounted() == self.values_offered + self.values_corrupted
    }

    /// Values that never became quorum-durable: lost outright, evicted
    /// from a hint queue, parked when the run ended, or destroyed by rot
    /// and not (yet) repaired.
    pub fn unrecovered(&self) -> u64 {
        self.values_lost + self.values_evicted + self.values_hinted + self.values_corrupt_pending
    }

    /// Unrecovered values as a percentage of offered (the replication
    /// bench's loss metric).
    pub fn loss_pct(&self) -> f64 {
        if self.values_offered == 0 {
            0.0
        } else {
            100.0 * self.unrecovered() as f64 / self.values_offered as f64
        }
    }
}

/// One parked report. `ledger` marks the single hint that carries the
/// report's conservation accounting (a quorum-missed write); non-ledger
/// hints exist purely so a returning replica converges faster.
#[derive(Debug, Clone)]
struct HintEntry {
    point: Point,
    values: u64,
    ledger: bool,
    /// The report's trace, kept open while parked (ledger entries only:
    /// non-ledger hints belong to reports already terminated at offer
    /// time). Terminates on replay, eviction, or end-of-run seal.
    trace: Span,
}

/// Per-replica health as the coordinator sees it through heartbeats.
#[derive(Debug, Clone, Copy, Default)]
struct ReplicaHealth {
    down: bool,
    misses: u32,
    quarantined: bool,
}

/// Hoisted `tsdb.repl.*` metric handles.
struct ReplObs {
    registry: Arc<Registry>,
    quorum_writes: Counter,
    quorum_write_failures: Counter,
    hints_queued: Counter,
    hints_replayed: Counter,
    hints_dropped: Counter,
    failovers: Counter,
    values_corrupted: Counter,
    values_repaired: Counter,
    corrupt_pending: Gauge,
    hints_pending: Gauge,
    replicas_healthy: Gauge,
    primary: Gauge,
    quorum_write_ns: Histogram,
}

impl ReplObs {
    fn new(registry: Arc<Registry>) -> ReplObs {
        let c = |name: &str| registry.counter(name, &[]);
        let g = |name: &str| registry.gauge(name, &[]);
        let buckets = pmove_obs::latency_buckets();
        ReplObs {
            quorum_writes: c("tsdb.repl.quorum_writes"),
            quorum_write_failures: c("tsdb.repl.quorum_write_failures"),
            hints_queued: c("tsdb.repl.hints_queued"),
            hints_replayed: c("tsdb.repl.hints_replayed"),
            hints_dropped: c("tsdb.repl.hints_dropped"),
            failovers: c("tsdb.repl.failovers"),
            values_corrupted: c("tsdb.repl.values_corrupted"),
            values_repaired: c("tsdb.repl.values_repaired"),
            corrupt_pending: g("tsdb.repl.corrupt_pending"),
            hints_pending: g("tsdb.repl.hints_pending"),
            replicas_healthy: g("tsdb.repl.replicas_healthy"),
            primary: g("tsdb.repl.primary"),
            quorum_write_ns: registry.histogram("tsdb.repl.quorum_write_ns", &[], buckets),
            registry,
        }
    }
}

/// The replication-aware coordinator. Borrows the [`ReplicaSet`]
/// (replicas use interior mutability) and owns one fault schedule and one
/// hint queue per replica.
pub struct ReplShipper<'a> {
    set: &'a ReplicaSet,
    schedules: Vec<FaultSchedule>,
    hints: Vec<VecDeque<HintEntry>>,
    queued_values: Vec<u64>,
    health: Vec<ReplicaHealth>,
    primary: usize,
    stats: ReplStats,
    noise: NoiseSource,
    obs: ReplObs,
}

impl<'a> ReplShipper<'a> {
    /// Modelled fixed cost of a quorum fan-out (ns).
    const QUORUM_BASE_NS: u64 = 9_000;
    /// Modelled per-acknowledgement cost (ns).
    const QUORUM_PER_ACK_NS: u64 = 2_500;
    /// Modelled per-field-value serialization cost (ns).
    const QUORUM_PER_VALUE_NS: u64 = 450;

    /// New coordinator over `set`, one fault schedule per replica.
    pub fn new(
        set: &'a ReplicaSet,
        schedules: Vec<FaultSchedule>,
        seed_labels: &[&str],
    ) -> Result<ReplShipper<'a>, PcpError> {
        if schedules.len() != set.len() {
            return Err(PcpError::InvalidConfig {
                field: "schedules",
                value: schedules.len() as f64,
                reason: "one fault schedule per replica required",
            });
        }
        let n = set.len();
        Ok(ReplShipper {
            set,
            schedules,
            hints: vec![VecDeque::new(); n],
            queued_values: vec![0; n],
            health: vec![ReplicaHealth::default(); n],
            primary: 0,
            stats: ReplStats::default(),
            noise: NoiseSource::from_labels(seed_labels),
            obs: ReplObs::new(Registry::disabled()),
        })
    }

    /// Attach an observability registry: every ship/heartbeat updates the
    /// `tsdb.repl.*` counters, gauges, and the modelled quorum latency.
    pub fn with_obs(mut self, registry: Arc<Registry>) -> ReplShipper<'a> {
        self.obs = ReplObs::new(registry);
        self
    }

    /// Index of the current primary (query routing preference).
    pub fn primary(&self) -> usize {
        self.primary
    }

    /// Replicas currently believed up (last heartbeat saw the link).
    pub fn healthy_count(&self) -> usize {
        self.health.iter().filter(|h| !h.down).count()
    }

    /// True when fewer than W replicas are reachable — the daemon drops
    /// to monitor-only mode exactly while this holds.
    pub fn is_degraded(&self) -> bool {
        self.healthy_count() < self.set.config().write_quorum
    }

    /// Ledger and non-ledger values currently parked across all queues.
    fn hints_pending_values(&self) -> u64 {
        self.queued_values.iter().sum()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ReplStats {
        self.stats
    }

    /// Reachability vector for quorum reads: replicas not currently down.
    pub fn reachable(&self) -> Vec<bool> {
        self.health.iter().map(|h| !h.down).collect()
    }

    /// R-quorum read routed through the coordinator's reachability view,
    /// returning the shared frame plus the chosen replica's cache verdict
    /// — the serving front-end's entry point when it fronts a replicated
    /// store.
    pub fn quorum_read_cached(
        &self,
        q: &Query,
        mode: ExecMode,
    ) -> Result<(std::sync::Arc<pmove_tsdb::Frame>, bool), TsdbError> {
        self.set.quorum_read_cached(q, &self.reachable(), mode)
    }

    /// Can a write reach replica `i` at time `t`? Link partitions are
    /// absolute; degraded bandwidth and backend brown-outs reject
    /// probabilistically from the coordinator's seeded noise stream.
    fn replica_write_ok(&mut self, t: f64, i: usize) -> bool {
        let st = self.schedules[i].state_at(t);
        if !st.link_up {
            return false;
        }
        if st.capacity_factor < 1.0 && !self.noise.happens(st.capacity_factor) {
            return false;
        }
        if st.backend_availability < 1.0 && !self.noise.happens(st.backend_availability) {
            return false;
        }
        true
    }

    /// Ship one report through a quorum write at time `t`.
    pub fn ship(&mut self, t: f64, point: Point, freq_hz: f64) -> ReplShipOutcome {
        self.ship_span(t, point, freq_hz, Span::none())
    }

    /// [`ReplShipper::ship`] under the report's root span: the quorum
    /// fan-out records one `repl.replica_write` child per replica (acked
    /// writes nest the replica's WAL group commit and shard ingest),
    /// quorum misses upgrade the trace, park it with the ledger hint, and
    /// heartbeat replay continues the same tree (`repl.hint_replay`) to a
    /// terminal status.
    pub fn ship_span(
        &mut self,
        t: f64,
        point: Point,
        freq_hz: f64,
        mut tr: Span,
    ) -> ReplShipOutcome {
        let n = point.field_count() as u64;
        self.stats.reports_offered += 1;
        self.stats.values_offered += n;

        // Stale-read zeros at high frequency — same artefact model as the
        // single-node shipper.
        let read_zero = self.noise.happens(Shipper::zero_probability(freq_hz));
        let point = if read_zero {
            let mut zeroed = point;
            for v in zeroed.fields.values_mut() {
                *v = FieldValue::Float(0.0);
            }
            zeroed
        } else {
            point
        };

        let w = self.set.config().write_quorum;
        let rf = self.set.len();
        let t_ns = (t * 1e9) as u64;
        let quorum_start = t_ns + FETCH_NS;
        let mut cursor = quorum_start + Self::QUORUM_BASE_NS;
        // Replica writes are laid out sequentially on the virtual clock
        // so the critical-path analyzer attributes the fan-out exactly.
        // The clock advances only while the fan-out is recorded: a report
        // that starts recording at a quorum miss is stamped at its start.
        tr.child("pcp.fetch", t_ns).end(t_ns + FETCH_NS);
        let qspan = tr.child("repl.quorum_write", quorum_start);
        let mut acks = vec![false; rf];
        let mut ack_count = 0usize;
        for (i, ack) in acks.iter_mut().enumerate() {
            let reachable = self.replica_write_ok(t, i);
            let rspan = qspan.child("repl.replica_write", cursor);
            let mut end_ns = cursor + Self::QUORUM_PER_ACK_NS;
            let status = if !reachable {
                "unreachable"
            } else {
                let (res, ingest_end) =
                    self.set
                        .replica(i)
                        .write(point.clone(), Origin::Client, &rspan, end_ns);
                end_ns = ingest_end;
                if res.is_ok() {
                    *ack = true;
                    ack_count += 1;
                    "acked"
                } else {
                    "rejected"
                }
            };
            rspan.end_status(end_ns, status);
            if rspan.is_recording() {
                cursor = end_ns;
            }
        }
        qspan.end(cursor);
        self.stats.replica_acks += ack_count as u64;
        let modeled_ns = Self::QUORUM_BASE_NS
            + Self::QUORUM_PER_ACK_NS * ack_count as u64
            + Self::QUORUM_PER_VALUE_NS * n;
        tr.observe(&self.obs.quorum_write_ns, modeled_ns);

        let quorum = ack_count >= w;
        if quorum {
            self.stats.quorum_writes += 1;
            self.obs.quorum_writes.inc();
        } else {
            self.stats.quorum_write_failures += 1;
            self.obs.quorum_write_failures.inc();
        }

        if read_zero {
            // Zeros are terminal at offer time: the ledger counts them
            // zeroed whether or not the quorum landed; misses still get
            // non-ledger hints so replicas converge on the zero rows.
            self.stats.values_zeroed += n;
            for (i, &acked) in acks.iter().enumerate() {
                if !acked {
                    self.park(i, point.clone(), n, false, Span::none(), cursor);
                }
            }
            tr.finish(cursor, "zeroed");
            self.export_gauges();
            return ReplShipOutcome::InsertedZero;
        }

        let outcome = if quorum {
            self.stats.values_inserted += n;
            for (i, &acked) in acks.iter().enumerate() {
                if !acked {
                    self.park(i, point.clone(), n, false, Span::none(), cursor);
                }
            }
            tr.finish(cursor, "inserted");
            ReplShipOutcome::Inserted
        } else {
            // Quorum missed: the first failed replica's hint carries the
            // ledger; the rest are repair bookkeeping. A miss is a fault
            // site — unsampled traces upgrade here.
            tr.fault(SAMPLE_ROOT, cursor);
            tr.child("repl.hint_park", cursor)
                .end_status(cursor, "hinted");
            let mut ledger_parked = false;
            let mut ledger_pending = true;
            for (i, &acked) in acks.iter().enumerate() {
                if acked {
                    continue;
                }
                if ledger_pending {
                    ledger_pending = false;
                    let trace = std::mem::take(&mut tr);
                    ledger_parked = self.park(i, point.clone(), n, true, trace, cursor);
                } else {
                    self.park(i, point.clone(), n, false, Span::none(), cursor);
                }
            }
            if ledger_parked {
                ReplShipOutcome::Hinted
            } else {
                ReplShipOutcome::Lost
            }
        };
        self.export_gauges();
        outcome
    }

    /// Park a report on replica `i`'s bounded hint queue (drop-oldest).
    /// Returns whether the entry was parked; a ledger entry that cannot
    /// be parked is counted lost here. `trace` rides on ledger entries
    /// and terminates with the entry's fate.
    fn park(
        &mut self,
        i: usize,
        point: Point,
        values: u64,
        ledger: bool,
        trace: Span,
        now_ns: u64,
    ) -> bool {
        let cap = self.set.config().hint_capacity_values;
        if values > cap {
            self.stats.hints_dropped += 1;
            self.obs.hints_dropped.inc();
            if ledger {
                self.stats.values_lost += values;
            }
            trace.finish(now_ns, "lost");
            return false;
        }
        while self.queued_values[i] + values > cap {
            let old = self.hints[i].pop_front().expect("capacity implies entries");
            self.queued_values[i] -= old.values;
            self.stats.hints_dropped += 1;
            self.obs.hints_dropped.inc();
            if old.ledger {
                self.stats.values_hinted -= old.values;
                self.stats.values_evicted += old.values;
            }
            old.trace.finish(now_ns, "evicted");
        }
        self.hints[i].push_back(HintEntry {
            point,
            values,
            ledger,
            trace,
        });
        self.queued_values[i] += values;
        self.stats.hints_queued += 1;
        self.obs.hints_queued.inc();
        if ledger {
            self.stats.values_hinted += values;
        }
        true
    }

    /// Heartbeat every replica at time `t`: a link that answers clears
    /// the miss counter, lifts quarantine, and triggers hint replay; a
    /// link that misses `heartbeat_miss_limit` beats in a row is
    /// quarantined, promoting a new primary if it held the role.
    pub fn heartbeat(&mut self, t: f64) {
        for i in 0..self.set.len() {
            let up = self.schedules[i].state_at(t).link_up;
            if up {
                self.health[i].down = false;
                self.health[i].misses = 0;
                if self.health[i].quarantined {
                    // The replica rejoined; hint replay below brings it
                    // back toward convergence before anti-entropy runs.
                    self.health[i].quarantined = false;
                }
                if !self.hints[i].is_empty() {
                    self.replay_hints(t, i);
                }
            } else {
                self.health[i].down = true;
                self.health[i].misses += 1;
                if self.health[i].misses >= self.set.config().heartbeat_miss_limit
                    && !self.health[i].quarantined
                {
                    self.health[i].quarantined = true;
                    if i == self.primary {
                        self.promote();
                    }
                }
            }
        }
        self.export_gauges();
    }

    /// Replay replica `i`'s hints, oldest first, stopping at the first
    /// write the replica rejects (retried on the next heartbeat). A
    /// parked trace gains one `repl.hint_replay` child per attempt and
    /// terminates `recovered` when the replay lands.
    fn replay_hints(&mut self, t: f64, i: usize) {
        let t_ns = (t * 1e9) as u64;
        while let Some(front) = self.hints[i].front() {
            let values = front.values;
            if !self.replica_write_ok(t, i) {
                break;
            }
            let entry = self.hints[i].pop_front().expect("checked non-empty");
            let replay = entry.trace.child("repl.hint_replay", t_ns);
            let (res, end_ns) = self.set.replica(i).write(
                entry.point.clone(),
                Origin::Remote,
                &replay,
                t_ns + RETRY_NS,
            );
            let status = if res.is_ok() { "ok" } else { "rejected" };
            replay.end_status(end_ns, status);
            if res.is_err() {
                self.hints[i].push_front(entry);
                break;
            }
            self.queued_values[i] -= values;
            self.stats.hints_replayed += 1;
            self.obs.hints_replayed.inc();
            if entry.ledger {
                // The report is now durable on one replica; anti-entropy
                // spreads it to the rest, so it graduates to inserted.
                self.stats.values_hinted -= values;
                self.stats.values_inserted += values;
            }
            entry.trace.finish(t_ns + RETRY_NS, "recovered");
        }
    }

    /// Close the trace of every report still parked in a hint queue with
    /// terminal status `hinted`. Called once at the end of a run so the
    /// flight recorder never holds open trees for parked reports.
    pub fn seal_pending_traces(&mut self, t: f64) {
        let t_ns = (t * 1e9) as u64;
        for queue in &mut self.hints {
            for entry in queue.iter_mut() {
                std::mem::take(&mut entry.trace).finish(t_ns, "hinted");
            }
        }
    }

    /// Promote the lowest-indexed unquarantined replica to primary.
    fn promote(&mut self) {
        let next = (0..self.set.len()).find(|&i| !self.health[i].quarantined);
        if let Some(next) = next {
            if next != self.primary {
                self.primary = next;
                self.stats.failovers += 1;
                self.obs.failovers.inc();
            }
        }
    }

    /// Run one scrub sweep over every replica at time `t` and repair any
    /// quarantined chunks from the surviving replicas via anti-entropy
    /// (see [`ReplicaSet::scrub_and_repair`]), folding the outcome into
    /// the coordinator's conservation ledger.
    pub fn scrub_and_repair(
        &mut self,
        scrubbers: &mut [Scrubber],
        t: f64,
        max_rounds: u64,
    ) -> Result<IntegrityReport, TsdbError> {
        let report = self.set.scrub_and_repair(scrubbers, t, max_rounds)?;
        self.record_integrity(&report);
        Ok(report)
    }

    /// Fold an integrity sweep into the conservation ledger: corrupted
    /// cells widen the left-hand side of the equation, repaired cells
    /// balance them on the right, and the cumulative shortfall between
    /// the two is carried as `values_corrupt_pending`.
    fn record_integrity(&mut self, report: &IntegrityReport) {
        self.stats.values_corrupted += report.cells_corrupted;
        self.stats.values_repaired += report.cells_repaired;
        self.stats.values_corrupt_pending = self
            .stats
            .values_corrupted
            .saturating_sub(self.stats.values_repaired);
        self.obs.values_corrupted.add(report.cells_corrupted);
        self.obs.values_repaired.add(report.cells_repaired);
        self.obs
            .corrupt_pending
            .set(self.stats.values_corrupt_pending as f64);
    }

    fn export_gauges(&self) {
        let o = &self.obs;
        o.hints_pending.set(self.hints_pending_values() as f64);
        o.replicas_healthy.set(self.healthy_count() as f64);
        o.primary.set(self.primary as f64);
    }
}

impl pmove_serve::QueryBackend for &ReplShipper<'_> {
    /// Serve queries through the coordinator's reachability-aware quorum
    /// read: down replicas are skipped, the freshest reachable replica
    /// answers, and its result cache provides the hit verdict. Lets a
    /// [`pmove_serve::QueryServer`] front the replicated store with the
    /// same failure semantics the shipper itself sees.
    fn execute(&self, q: &Query) -> Result<pmove_serve::BackendExec, TsdbError> {
        let (frame, cache_hit) = self.quorum_read_cached(q, ExecMode::default())?;
        Ok(pmove_serve::BackendExec {
            rows: frame.len() as u64,
            cache_hit,
        })
    }
}

/// Result of one replicated sampling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplSamplingReport {
    /// Ticks scheduled.
    pub ticks: u64,
    /// Field values expected (ticks × total domain size).
    pub expected_values: u64,
    /// Coordinator statistics.
    pub transport: ReplStats,
}

impl SampleSink for ReplShipper<'_> {
    fn registry(&self) -> Arc<Registry> {
        self.obs.registry.clone()
    }

    fn skips_ticks(&self) -> bool {
        false
    }

    fn begin_tick(&mut self, pmcd: &mut Pmcd, _tick: u64, t_now: f64) -> bool {
        pmcd.heartbeat_all(t_now);
        self.heartbeat(t_now);
        true
    }

    fn ship(&mut self, t_now: f64, point: Point, freq_hz: f64, span: Span) {
        self.ship_span(t_now, point, freq_hz, span);
    }

    fn end_run(&mut self, t_end: f64) {
        // A final heartbeat so hints whose replica recovered near the end
        // still replay; any trace still parked after that seals `hinted`.
        self.heartbeat(t_end);
        self.seal_pending_traces(t_end);
    }
}

/// Drive one sampling run through the replication coordinator: the same
/// unbuffered tick loop as [`crate::sampler::SamplingLoop::run`], with a
/// coordinator heartbeat (hint replay, quarantine, failover) every tick.
pub fn run_replicated(
    config: &SamplingConfig,
    pmcd: &mut Pmcd,
    coord: &mut ReplShipper<'_>,
) -> ReplSamplingReport {
    let (_, total_domain) = run_ticks(config, pmcd, coord);
    ReplSamplingReport {
        ticks: config.ticks(),
        expected_values: config.ticks() * total_domain,
        transport: coord.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmove_hwsim::network::FaultKind;
    use pmove_tsdb::repl::ReplConfig;

    fn report(ts: i64, fields: usize) -> Point {
        let mut p = Point::new("m").tag("tag", "o1").timestamp(ts);
        for i in 0..fields {
            p = p.field(format!("_cpu{i}"), 5.0 + i as f64);
        }
        p
    }

    fn healthy_schedules(n: usize) -> Vec<FaultSchedule> {
        vec![FaultSchedule::none(); n]
    }

    #[test]
    fn healthy_quorum_writes_land_everywhere() {
        let set = ReplicaSet::in_memory("s", ReplConfig::default()).unwrap();
        let mut coord = ReplShipper::new(&set, healthy_schedules(3), &["t1"]).unwrap();
        for t in 0..10 {
            let out = coord.ship(t as f64, report(t, 4), 2.0);
            assert_eq!(out, ReplShipOutcome::Inserted);
        }
        let s = coord.stats();
        assert_eq!(s.values_inserted, 40);
        assert_eq!(s.quorum_writes, 10);
        assert_eq!(s.replica_acks, 30);
        assert!(s.conserved(), "{s:?}");
        assert!(set.converged());
    }

    #[test]
    fn single_replica_outage_keeps_quorum_and_hints() {
        let set = ReplicaSet::in_memory("s", ReplConfig::default()).unwrap();
        let mut schedules = healthy_schedules(3);
        schedules[1] = FaultSchedule::none().with_window(2.0, 6.0, FaultKind::LinkDown);
        let mut coord = ReplShipper::new(&set, schedules, &["t2"]).unwrap();
        for t in 0..10 {
            let out = coord.ship(t as f64, report(t, 4), 2.0);
            assert_eq!(out, ReplShipOutcome::Inserted, "t={t}");
            coord.heartbeat(t as f64);
        }
        coord.heartbeat(10.0); // replica 1 is back: hints replay
        let s = coord.stats();
        assert_eq!(s.values_inserted, 40);
        assert_eq!(s.values_lost, 0);
        assert!(s.hints_queued > 0);
        assert_eq!(s.hints_replayed, s.hints_queued);
        assert!(s.conserved(), "{s:?}");
        assert!(set.converged(), "hint replay restored convergence");
    }

    #[test]
    fn quorum_miss_parks_ledger_hint_and_replays() {
        let set = ReplicaSet::in_memory("s", ReplConfig::default()).unwrap();
        // Replicas 1 and 2 partitioned: acks = 1 < W = 2.
        let mut schedules = healthy_schedules(3);
        schedules[1] = FaultSchedule::none().with_window(0.0, 5.0, FaultKind::LinkDown);
        schedules[2] = FaultSchedule::none().with_window(0.0, 5.0, FaultKind::LinkDown);
        let mut coord = ReplShipper::new(&set, schedules, &["t3"]).unwrap();
        let out = coord.ship(1.0, report(1, 4), 2.0);
        assert_eq!(out, ReplShipOutcome::Hinted);
        let s = coord.stats();
        assert_eq!(s.values_hinted, 4);
        assert_eq!(s.quorum_write_failures, 1);
        assert!(s.conserved(), "{s:?}");
        assert!(coord.is_degraded() || coord.healthy_count() == 3); // pre-heartbeat view
        coord.heartbeat(6.0); // both back: ledger hint graduates
        let s = coord.stats();
        assert_eq!(s.values_hinted, 0);
        assert_eq!(s.values_inserted, 4);
        assert!(s.conserved(), "{s:?}");
    }

    #[test]
    fn hint_overflow_evicts_oldest_and_conserves() {
        let cfg = ReplConfig {
            hint_capacity_values: 8, // two 4-field reports
            ..ReplConfig::default()
        };
        let set = ReplicaSet::in_memory("s", cfg).unwrap();
        let mut schedules = healthy_schedules(3);
        schedules[1] = FaultSchedule::none().with_window(0.0, 100.0, FaultKind::LinkDown);
        schedules[2] = FaultSchedule::none().with_window(0.0, 100.0, FaultKind::LinkDown);
        let mut coord = ReplShipper::new(&set, schedules, &["t4"]).unwrap();
        for t in 0..10 {
            coord.ship(t as f64, report(t, 4), 2.0);
        }
        let s = coord.stats();
        assert!(s.values_evicted > 0, "{s:?}");
        assert_eq!(s.values_hinted, 8);
        assert!(s.conserved(), "{s:?}");
    }

    #[test]
    fn primary_failover_after_quarantine() {
        let set = ReplicaSet::in_memory("s", ReplConfig::default()).unwrap();
        let mut schedules = healthy_schedules(3);
        schedules[0] = FaultSchedule::none().with_window(0.0, 50.0, FaultKind::LinkDown);
        let mut coord = ReplShipper::new(&set, schedules, &["t5"]).unwrap();
        assert_eq!(coord.primary(), 0);
        for t in 0..4 {
            coord.heartbeat(t as f64);
        }
        assert_eq!(coord.primary(), 1, "promoted past the quarantined node");
        assert_eq!(coord.stats().failovers, 1);
        // Two of three replicas are still up: not degraded.
        assert!(!coord.is_degraded());
    }

    #[test]
    fn degraded_only_when_quorum_unreachable() {
        let set = ReplicaSet::in_memory("s", ReplConfig::default()).unwrap();
        let mut schedules = healthy_schedules(3);
        schedules[0] = FaultSchedule::none().with_window(0.0, 50.0, FaultKind::LinkDown);
        schedules[1] = FaultSchedule::none().with_window(0.0, 50.0, FaultKind::LinkDown);
        let mut coord = ReplShipper::new(&set, schedules, &["t6"]).unwrap();
        coord.heartbeat(1.0);
        assert!(coord.is_degraded(), "1 of 3 up < W = 2");
        coord.heartbeat(51.0);
        assert!(!coord.is_degraded());
    }

    #[test]
    fn schedule_count_must_match_replicas() {
        let set = ReplicaSet::in_memory("s", ReplConfig::default()).unwrap();
        assert!(ReplShipper::new(&set, healthy_schedules(2), &["t7"]).is_err());
    }

    #[test]
    fn shipper_backs_the_serving_layer_with_a_replica_down() {
        use pmove_serve::{Priority, QueryServer, ServeRequest, ServingConfig};
        let set = ReplicaSet::in_memory("s", ReplConfig::default()).unwrap();
        let mut schedules = healthy_schedules(3);
        schedules[2] = FaultSchedule::none().with_window(0.0, 100.0, FaultKind::LinkDown);
        let mut coord = ReplShipper::new(&set, schedules, &["t8"]).unwrap();
        for t in 0..10 {
            coord.ship(t as f64, report(t, 4), 2.0);
        }
        coord.heartbeat(5.0);
        // Two of three reachable: quorum reads still work, so the serving
        // layer keeps answering with the same failure semantics.
        let mut srv = QueryServer::new(&coord, ServingConfig::default()).unwrap();
        let q = "SELECT mean(\"_cpu0\") FROM \"m\"".to_string();
        let schedule = vec![
            ServeRequest {
                tenant: 0,
                priority: Priority::Interactive,
                query: q.clone(),
                at_ns: 0,
            },
            ServeRequest {
                tenant: 1,
                priority: Priority::Background,
                query: q,
                at_ns: 80_000_000,
            },
        ];
        let rep = srv.run(&schedule).unwrap();
        assert!(rep.conserved());
        assert_eq!(rep.served, 2);
        // Second, widely-spaced request hits the replica's result cache.
        assert_eq!(rep.cache_hits, 1);
    }

    #[test]
    fn scrub_and_repair_widens_and_balances_the_ledger() {
        use pmove_tsdb::store::{RotSchedule, ScrubConfig, StoreOptions};
        let (set, _) = ReplicaSet::durable(
            "s",
            ReplConfig::default(),
            23,
            StoreOptions {
                flush_threshold_rows: 1_000_000,
                compact_min_chunks: 1_000_000,
            },
        )
        .unwrap();
        let mut coord = ReplShipper::new(&set, healthy_schedules(3), &["t9"]).unwrap();
        for t in 0..20 {
            let out = coord.ship(t as f64, report(t, 4), 2.0);
            assert_eq!(out, ReplShipOutcome::Inserted);
        }
        for r in set.replicas() {
            r.flush().unwrap().unwrap();
        }
        // Latent rot lands on replica 1's chunk namespace after flush.
        set.disks()[1].schedule_rot(RotSchedule::none().at(1.0, 1).with_prefix("chunk-"));
        set.disks()[1].advance_rot(1.0);
        let mut scrubbers = set.scrubbers(ScrubConfig {
            full_pass_period_s: 5.0,
            ..ScrubConfig::default()
        });
        let mut now = 21.0;
        while coord.stats().values_corrupted == 0 {
            let r = coord.scrub_and_repair(&mut scrubbers, now, 4).unwrap();
            assert!(r.converged, "sweep at t={now} left the set diverged");
            now += 1.0;
            assert!(now < 120.0, "scrub never found the rotted chunk");
        }
        let s = coord.stats();
        // The widened identity balances: every corrupted value was
        // recovered from the R-quorum, so nothing stays pending.
        assert!(s.values_corrupted > 0, "{s:?}");
        assert_eq!(s.values_repaired, s.values_corrupted, "{s:?}");
        assert_eq!(s.values_corrupt_pending, 0, "{s:?}");
        assert!(s.conserved(), "{s:?}");
        assert!(set.converged());
    }
}
