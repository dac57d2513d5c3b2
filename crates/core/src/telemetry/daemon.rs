//! The P-MoVE daemon: the host-side process owning the databases, the
//! abstraction layer, the KB, and the virtual clock.
//!
//! Construction runs the paper's steps ⓪–③: read the environment
//! (database parameters), probe the target, generate the KB, insert it
//! into the document database. Afterwards "the framework becomes fully
//! functional using only this data structure".

use crate::abstraction::presets::builtin_layer;
use crate::abstraction::AbstractionLayer;
use crate::error::PmoveError;
use crate::ids::IdFactory;
use crate::kb::observation::{BenchmarkInterface, BenchmarkResult};
use crate::kb::{builder, store, DbParams, KnowledgeBase};
use crate::probe::ProbeReport;
use crate::telemetry::scenario_a::{self, ReplicatedOutcome};
use crate::telemetry::scenario_b::{self, ProfileOutcome, ProfileRequest};
use pmove_hwsim::kernel_profile::{KernelProfile, Precision};
use pmove_hwsim::network::LinkSpec;
use pmove_hwsim::{ExecModel, FaultSchedule, Machine};
use pmove_kernels::hpcg;
use pmove_obs::{
    AlertState, BurnWindow, Objective, Registry, SloEngine, SloSpec, TraceConfig, Tracer,
    Transition,
};
use pmove_pcp::{
    run_replicated, Pmcd, ReplShipper, ResilienceConfig, SamplingConfig, SamplingLoop,
    SamplingReport, Shipper,
};
use pmove_serve::{QueryServer, ServeReport, ServeRequest, ServingConfig};
use pmove_tsdb::query::{Projection, Query};
use pmove_tsdb::repl::{RepairReport, ReplConfig, ReplicaSet};
use pmove_tsdb::store::{MemDisk, ScrubConfig, Scrubber, StoreOptions, Vfs};
use std::fmt;
use std::sync::Arc;

/// Convert virtual-clock seconds to integer nanoseconds for span stamps.
fn s_to_ns(s: f64) -> u64 {
    (s * 1e9).round().max(0.0) as u64
}

/// `schedule`, written relative to a window start, moved onto the daemon
/// clock: a window `[a, b)` fires at `start_s + a`.
fn on_clock(schedule: FaultSchedule, start_s: f64) -> FaultSchedule {
    schedule
        .windows()
        .iter()
        .fold(FaultSchedule::none(), |shifted, w| {
            shifted.with_window(start_s + w.start_s, start_s + w.end_s, w.kind)
        })
}

/// What boot step ④ recovered from the durable stores.
#[derive(Debug, Clone, Copy)]
pub struct BootRecovery {
    /// Time-series store recovery (chunk load + WAL replay).
    pub ts: pmove_tsdb::store::RecoveryReport,
    /// Document-database journal replay.
    pub doc: pmove_docdb::JournalReport,
    /// Modeled recovery time in nanoseconds (the step ④ span length).
    pub modeled_ns: u64,
}

/// How much of the stack the daemon is running, and why not all of it.
/// Every mode but `Normal` is monitor-only: monitoring keeps running, but
/// KB-mutating operations (profiling, benchmarks) are refused with the
/// mode's `Display` text as the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DaemonMode {
    /// Full stack: every scenario available.
    Normal,
    /// Supervised fallback after a failed durable boot (the boot error's
    /// text): in-memory stores until the operator intervenes.
    BootFallback(String),
    /// A replicated window ended with fewer than W replicas reachable;
    /// lifts by itself once a later window ends with the quorum back.
    QuorumLost {
        /// Replicas reachable at the end of the window.
        healthy: usize,
        /// Replicas in the set.
        replicas: usize,
    },
}

impl fmt::Display for DaemonMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonMode::Normal => f.write_str("normal"),
            DaemonMode::BootFallback(reason) => f.write_str(reason),
            DaemonMode::QuorumLost { healthy, replicas } => write!(
                f,
                "replication write quorum unreachable: {healthy} of {replicas} replicas reachable"
            ),
        }
    }
}

/// Backup scheduler state, present once [`PMoveDaemon::enable_backups`]
/// attached a destination.
#[derive(Clone, Copy)]
struct BackupSchedule {
    /// Capture cadence in virtual seconds.
    period_s: f64,
    /// Virtual time of the last completed generation.
    last_s: f64,
    /// Completed generations since the last restore drill.
    since_drill: u64,
    /// Restore drills run so far; seeds each drill's scratch disk.
    drills: u64,
}

/// The daemon.
pub struct PMoveDaemon {
    /// The target machine (host ≠ target in the paper; the daemon holds a
    /// handle to the simulated target).
    pub machine: Machine,
    /// The knowledge base (given to every function as a parameter).
    pub kb: KnowledgeBase,
    /// The abstraction layer (builtin presets + user registrations).
    pub layer: AbstractionLayer,
    /// Host time-series database.
    pub ts: pmove_tsdb::Database,
    /// Host document database.
    pub doc: Arc<pmove_docdb::Database>,
    /// Journal wrapper around `doc` when the daemon is durable; KB
    /// mutations route through it so they survive restarts.
    pub doc_journal: Option<pmove_docdb::DurableDatabase>,
    /// Step ④ recovery outcome; `None` on memory-only daemons.
    pub recovery: Option<BootRecovery>,
    /// Replicated telemetry store (RF durable replicas behind a quorum
    /// coordinator); `None` unless booted via
    /// [`PMoveDaemon::for_preset_replicated`].
    pub repl: Option<ReplicaSet>,
    /// Per-replica recovery reports from the replicated boot (empty
    /// otherwise).
    pub repl_recovery: Vec<pmove_tsdb::store::RecoveryReport>,
    /// Observation-id factory.
    pub ids: IdFactory,
    /// Virtual clock (seconds since daemon start).
    pub now_s: f64,
    /// Pinned background load — `(os thread, busy fraction)` pairs of
    /// long-running processes, reflected in Scenario A's SW telemetry
    /// (see [`PMoveDaemon::set_background_load`]).
    background_busy: Vec<(u32, f64)>,
    /// Self-observability registry: every subsystem the daemon owns
    /// (transport, pmcd, tsdb, docdb, KB builder) reports into it.
    pub obs: Arc<Registry>,
    /// SLO engine over the registry's metrics; objectives install via
    /// [`PMoveDaemon::install_default_slos`] or [`SloEngine::add`] and
    /// evaluate on the daemon's virtual clock.
    pub slo: SloEngine,
    /// Which stack the daemon is running (see [`DaemonMode`]).
    pub mode: DaemonMode,
    /// Background integrity scrubber over the durable time-series store;
    /// `None` until [`PMoveDaemon::enable_scrubbing`]. Its config is the
    /// cadence the `scrub_staleness` SLO holds it to.
    scrubber: Option<Scrubber>,
    /// `None` until [`PMoveDaemon::enable_backups`].
    backup: Option<BackupSchedule>,
}

/// Modeled boot-step durations (virtual ns, deterministic): reading the
/// environment is a fixed cost; probing scales with components found; KB
/// generation with interfaces built; KB insertion with documents written.
const STEP0_ENV_NS: u64 = 150_000;
const STEP1_PER_COMPONENT_NS: u64 = 2_500;
const STEP2_PER_INTERFACE_NS: u64 = 8_000;
const STEP3_PER_DOC_NS: u64 = 12_000;
/// Supervisor decision step (⑤): checking the boot outcome and wiring
/// the chosen mode is a fixed cost.
const STEP5_SUPERVISE_NS: u64 = 40_000;
/// Modeled fixed cost of one anti-entropy repair pass.
const REPAIR_BASE_NS: u64 = 60_000;
/// Modeled per-cell cost of streaming a divergent range during repair.
const REPAIR_PER_CELL_NS: u64 = 700;
/// Run an automated restore drill after every this many completed backup
/// generations.
const DRILL_EVERY_BACKUPS: u64 = 3;
/// Modeled fixed cost of fencing + committing one backup generation.
const BACKUP_BASE_NS: u64 = 80_000;
/// Modeled per-byte cost of copying chunk bytes to the backup disk.
const BACKUP_PER_BYTE_NS: u64 = 2;
/// Modeled fixed cost of one restore drill (scratch restore + diff).
const DRILL_BASE_NS: u64 = 250_000;

/// FNV-1a over `bytes`: the deterministic seed/fingerprint hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Flatten a database's cell space into a diffable map: `(canonical
/// series, timestamp, field) -> value fingerprint`, floats fingerprinted
/// by `f64::to_bits` so the drill comparison is bit-exact (NaN payloads
/// and signed zeros included). Gap-marker annotations are skipped — they
/// are in-memory derivations, deliberately never persisted, so a restored
/// store cannot be expected to reproduce them.
fn drill_cell_map(
    db: &pmove_tsdb::Database,
) -> std::collections::BTreeMap<(String, i64, String), (u8, u64)> {
    use pmove_tsdb::FieldValue as F;
    let mut map = std::collections::BTreeMap::new();
    db.for_each_cell(&mut |key, ts, field, value| {
        let canonical = key.canonical();
        if canonical.starts_with(pmove_tsdb::GAP_MEASUREMENT) {
            return;
        }
        let fp = match value {
            F::Float(x) => (0u8, x.to_bits()),
            F::Int(x) => (1, *x as u64),
            F::Bool(x) => (2, u64::from(*x)),
            F::Str(s) => (3, fnv1a(s.as_bytes())),
        };
        map.insert((canonical, ts, field.to_string()), fp);
    });
    map
}

/// Steps ⓪–②: environment, probe, KB generation. Returns the KB and the
/// boot-timeline position after step ②.
fn boot_steps_0_to_2(
    machine: &Machine,
    env: &DbParams,
    obs: &Registry,
) -> Result<(KnowledgeBase, u64), PmoveError> {
    let mut boot_ns = 0u64; // ⓪ environment
    obs.record_span("daemon.step0.environment", boot_ns, boot_ns + STEP0_ENV_NS);
    boot_ns += STEP0_ENV_NS;

    let report = ProbeReport::collect(machine); // ①
    let probe_ns = report.components().len() as u64 * STEP1_PER_COMPONENT_NS;
    obs.record_span("daemon.step1.probe", boot_ns, boot_ns + probe_ns);
    boot_ns += probe_ns;

    let mut kb = builder::build_kb_observed(&report, obs)?; // ②
    kb.db = env.clone();
    let gen_ns = kb.len() as u64 * STEP2_PER_INTERFACE_NS;
    obs.record_span("daemon.step2.kb_generation", boot_ns, boot_ns + gen_ns);
    boot_ns += gen_ns;
    Ok((kb, boot_ns))
}

/// The preset machine behind the `for_preset*` constructors.
fn preset(key: &str) -> Result<Machine, PmoveError> {
    Machine::preset(key).ok_or_else(|| PmoveError::BadProbeReport(format!("unknown preset {key}")))
}

impl PMoveDaemon {
    /// The one boot sequence — steps ⓪–③: environment, probe, KB
    /// generation, KB insertion.
    ///
    /// Each step is stamped as a `daemon.stepN.*` span on a synthetic boot
    /// timeline starting at 0 ns with modeled durations, so the span
    /// record is bit-identical across same-configuration runs. The boot
    /// timeline does not advance the daemon clock (`now_s` stays 0).
    ///
    /// `vfs` selects durable storage: the time-series database opens its
    /// WAL/chunk store and the document database replays its journal from
    /// it, then steps ⓪–③ run as usual (step ③ mutations are journaled).
    /// The replay is stamped as a fourth boot step,
    /// `daemon.step4.recovery`, whose modeled duration is the disk time to
    /// re-read the persisted state.
    ///
    /// Returns the daemon and the boot-timeline position it reached (the
    /// end of step ④, or ③ when nothing was replayed), where the
    /// supervised and replicated constructors stamp their own steps.
    fn boot(
        machine: Machine,
        env: DbParams,
        vfs: Option<Arc<dyn Vfs>>,
    ) -> Result<(Self, u64), PmoveError> {
        let obs = Registry::shared();
        let (kb, boot_ns) = boot_steps_0_to_2(&machine, &env, &obs)?;

        let (ts, doc, doc_journal, recovered) = match vfs {
            None => {
                let ts = pmove_tsdb::Database::with_obs(&env.influx_db, obs.clone());
                let doc = pmove_docdb::Database::with_obs(&env.mongo_db, obs.clone());
                (ts, Arc::new(doc), None, None)
            }
            Some(vfs) => {
                let (ts, ts_rec) = pmove_tsdb::Database::open_with_obs(
                    &env.influx_db,
                    vfs.clone(),
                    StoreOptions::default(),
                    obs.clone(),
                )?;
                let (journal, doc_rec) =
                    pmove_docdb::DurableDatabase::open_with_obs(&env.mongo_db, vfs, obs.clone())?;
                (ts, journal.shared(), Some(journal), Some((ts_rec, doc_rec)))
            }
        };
        // Indexes are rebuilt on every boot, so they are not journaled.
        doc.collection(store::KB_COLLECTION).create_index("@type");

        let ids = IdFactory::new(machine.key());
        let mut daemon = PMoveDaemon {
            machine,
            kb,
            layer: builtin_layer(),
            ts,
            doc,
            doc_journal,
            recovery: None,
            repl: None,
            repl_recovery: Vec::new(),
            ids,
            now_s: 0.0,
            background_busy: Vec::new(),
            slo: SloEngine::new().with_meta(obs.clone()),
            obs,
            mode: DaemonMode::Normal,
            scrubber: None,
            backup: None,
        };
        let insert_ns = daemon.sync_kb()? as u64 * STEP3_PER_DOC_NS; // ③
        daemon
            .obs
            .record_span("daemon.step3.kb_insert", boot_ns, boot_ns + insert_ns);
        let mut boot_ns = boot_ns + insert_ns;

        // ④ recovery: replaying WAL + journal over the chunk set.
        if let Some((ts_rec, doc_rec)) = recovered {
            let modeled_ns = ts_rec.modeled_ns + doc_rec.modeled_ns;
            daemon
                .obs
                .record_span("daemon.step4.recovery", boot_ns, boot_ns + modeled_ns);
            daemon.recovery = Some(BootRecovery {
                ts: ts_rec,
                doc: doc_rec,
                modeled_ns,
            });
            boot_ns += modeled_ns;
        }
        Ok((daemon, boot_ns))
    }

    /// Convenience: daemon for a preset machine with default env.
    pub fn for_preset(key: &str) -> Result<Self, PmoveError> {
        Ok(Self::boot(preset(key)?, DbParams::default(), None)?.0)
    }

    /// Convenience: durable daemon for a preset machine with default env.
    pub fn for_preset_durable(key: &str, vfs: Arc<dyn Vfs>) -> Result<Self, PmoveError> {
        Ok(Self::boot(preset(key)?, DbParams::default(), Some(vfs))?.0)
    }

    /// Supervised boot (step ⑤) for a preset machine with default env:
    /// try the full durable stack first; when recovery of the tsdb/docdb
    /// fails (crashed disk, torn files), fall back to a memory-only daemon
    /// in [`DaemonMode::BootFallback`] instead of refusing to start —
    /// monitoring availability beats durability when the two conflict.
    /// The decision is stamped as a `daemon.step5.supervise` span right
    /// after the last boot step, the chosen mode as the `daemon.mode`
    /// gauge, and each fallback bumps the `daemon.supervisor.fallbacks`
    /// counter.
    pub fn for_preset_supervised(key: &str, vfs: Arc<dyn Vfs>) -> Result<Self, PmoveError> {
        let (mut daemon, boot_ns, mode) =
            match Self::boot(preset(key)?, DbParams::default(), Some(vfs)) {
                Ok((d, boot_ns)) => (d, boot_ns, DaemonMode::Normal),
                Err(e) => {
                    let (d, boot_ns) = Self::boot(preset(key)?, DbParams::default(), None)?;
                    d.obs.counter("daemon.supervisor.fallbacks", &[]).inc();
                    (d, boot_ns, DaemonMode::BootFallback(e.to_string()))
                }
            };
        daemon.obs.record_span(
            "daemon.step5.supervise",
            boot_ns,
            boot_ns + STEP5_SUPERVISE_NS,
        );
        daemon.set_mode(mode);
        Ok(daemon)
    }

    /// Replicated daemon for a preset machine, default env and quorum
    /// config (RF=3, W=2, R=2): steps ⓪–③ as usual, then the telemetry
    /// store comes up as RF durable replicas (each on its own seeded disk)
    /// behind a quorum coordinator. Replica recovery is stamped as the
    /// step ④ span (the sum of the per-replica modeled replay times) and
    /// RF/W/R are published as `daemon.replication.*` gauges.
    ///
    /// Monitoring then routes through [`PMoveDaemon::monitor_replicated`];
    /// the plain `ts` database stays available for self-telemetry and
    /// non-replicated scenarios.
    pub fn for_preset_replicated(key: &str, seed: u64) -> Result<Self, PmoveError> {
        let env = DbParams::default();
        let cfg = ReplConfig::default();
        let (mut daemon, boot_ns) = Self::boot(preset(key)?, env.clone(), None)?;
        let (set, reports) =
            ReplicaSet::durable(&env.influx_db, cfg, seed, StoreOptions::default())?;
        let set = set.with_obs(&daemon.obs);
        let recovery_ns: u64 = reports.iter().map(|r| r.modeled_ns).sum();
        daemon
            .obs
            .record_span("daemon.step4.recovery", boot_ns, boot_ns + recovery_ns);
        let gauge = |name: &str, v: usize| daemon.obs.gauge(name, &[]).set(v as f64);
        gauge("daemon.replication.rf", cfg.replication_factor);
        gauge("daemon.replication.write_quorum", cfg.write_quorum);
        gauge("daemon.replication.read_quorum", cfg.read_quorum);
        daemon.repl = Some(set);
        daemon.repl_recovery = reports;
        Ok(daemon)
    }

    /// Enter `mode` and publish it as the `daemon.mode` gauge (0 = normal,
    /// 1 = monitor-only).
    fn set_mode(&mut self, mode: DaemonMode) {
        let value = if mode == DaemonMode::Normal { 0.0 } else { 1.0 };
        self.obs.gauge("daemon.mode", &[]).set(value);
        self.mode = mode;
    }

    /// The replica set, or the error every replicated-only call returns on
    /// a plain daemon.
    fn replicas(&self) -> Result<&ReplicaSet, PmoveError> {
        self.repl
            .as_ref()
            .ok_or_else(|| PmoveError::Collector("daemon is not replicated".into()))
    }

    /// Scenario A through the replication coordinator: quorum writes,
    /// hinted handoff, heartbeat-driven failover. `schedules` carries one
    /// fault schedule per replica (relative to the current daemon clock,
    /// like [`PMoveDaemon::monitor_resilient`]); `None` means no faults.
    ///
    /// Failure handling is graduated: a quarantined primary is *failed
    /// over* (the coordinator promotes the lowest healthy replica) and
    /// the daemon stays fully operational; the daemon drops to
    /// [`DaemonMode::QuorumLost`] only when the window ends with fewer
    /// than W replicas reachable — and that lifts by itself once a later
    /// window ends with the quorum restored.
    pub fn monitor_replicated(
        &mut self,
        duration_s: f64,
        freq_hz: f64,
        schedules: Option<Vec<FaultSchedule>>,
    ) -> Result<ReplicatedOutcome, PmoveError> {
        let start_s = self.now_s;
        let schedules: Option<Vec<_>> =
            schedules.map(|list| list.into_iter().map(|s| on_clock(s, start_s)).collect());
        let outcome = self.monitor_window(duration_s, freq_hz, |d, config, pmcd| {
            let set = d.replicas()?;
            let schedules = schedules.unwrap_or_else(|| vec![FaultSchedule::none(); set.len()]);
            let labels = [d.machine.key(), "scenario_a", set.name()];
            let mut coord = ReplShipper::new(set, schedules, &labels)?.with_obs(d.obs.clone());
            let report = run_replicated(config, pmcd, &mut coord);
            Ok(ReplicatedOutcome {
                report,
                healthy: coord.healthy_count(),
                primary: coord.primary(),
                degraded: coord.is_degraded(),
            })
        })?;
        self.apply_replication_health(&outcome);
        Ok(outcome)
    }

    /// One monitoring window — the only place Scenario A configures the
    /// collectors from the KB, advances the daemon clock, stamps
    /// `daemon.monitor` and runs the periodic duties (scrub, rollup,
    /// backup), so every monitoring mode gets all of them. `sample` ships
    /// the window through the mode's transport. An invalid frequency or
    /// duration, or a failed `sample`, leaves the clock untouched.
    fn monitor_window<R>(
        &mut self,
        duration_s: f64,
        freq_hz: f64,
        sample: impl FnOnce(&Self, &SamplingConfig, &mut Pmcd) -> Result<R, PmoveError>,
    ) -> Result<R, PmoveError> {
        let start_s = self.now_s;
        let (mut pmcd, metrics) = scenario_a::configure_collectors(
            &self.machine,
            &self.kb,
            &self.background_busy,
            &self.obs,
        );
        let config = SamplingConfig::try_new(metrics, freq_hz, start_s, duration_s)?;
        let out = sample(self, &config, &mut pmcd)?;
        self.now_s += duration_s;
        self.obs
            .record_span("daemon.monitor", s_to_ns(start_s), s_to_ns(self.now_s));
        self.scrub_tick();
        self.rollup_tick();
        self.backup_tick();
        Ok(out)
    }

    /// Translate the coordinator's end-of-window health into the daemon
    /// mode: [`DaemonMode::QuorumLost`] exactly while the write quorum is
    /// unreachable — each such window re-enters it with its own count and
    /// ticks `daemon.replication.degraded_windows` — and back to normal
    /// when the quorum returns. A boot fallback is never overwritten.
    fn apply_replication_health(&mut self, outcome: &ReplicatedOutcome) {
        match (&self.mode, outcome.degraded) {
            (DaemonMode::BootFallback(_), _) | (DaemonMode::Normal, false) => {}
            (_, true) => {
                let replicas = self.replicas().map_or(0, ReplicaSet::len);
                self.set_mode(DaemonMode::QuorumLost {
                    healthy: outcome.healthy,
                    replicas,
                });
                self.obs
                    .counter("daemon.replication.degraded_windows", &[])
                    .inc();
            }
            (DaemonMode::QuorumLost { .. }, false) => self.set_mode(DaemonMode::Normal),
        }
    }

    /// Run anti-entropy until the replicas converge bit-identically (or
    /// `max_rounds` is hit), stamped as a `daemon.repair` span whose
    /// modeled length scales with the cells streamed.
    pub fn repair_replicas(&mut self, max_rounds: u64) -> Result<RepairReport, PmoveError> {
        let report = self.replicas()?.repair_until_converged(max_rounds)?;
        let start_ns = s_to_ns(self.now_s);
        let repair_ns =
            REPAIR_BASE_NS * report.rounds.max(1) + REPAIR_PER_CELL_NS * report.cells_streamed;
        self.obs
            .record_span("daemon.repair", start_ns, start_ns + repair_ns);
        self.now_s += repair_ns as f64 / 1e9;
        Ok(report)
    }

    /// R-quorum read over the replica set (every replica assumed
    /// reachable — post-run analytics path).
    pub fn quorum_query(&self, text: &str) -> Result<pmove_tsdb::QueryResult, PmoveError> {
        Ok(self.replicas()?.quorum_read(text)?)
    }

    /// Run a multi-tenant serving schedule against the daemon's telemetry
    /// store: the replicated set when the daemon booted replicated (every
    /// replica assumed reachable), the host database otherwise.
    ///
    /// The schedule's `at_ns` values are serving-relative (0 = first
    /// possible arrival); the whole run is stamped as one `daemon.serve`
    /// span on the daemon timeline and advances the virtual clock by the
    /// serving run's length. The daemon's registry is threaded through,
    /// so `pmove.serve.*` metrics (and serve-span trace trees, when
    /// tracing is enabled) land in self-observability, where the
    /// `serving_p99` SLO watches the latency histogram.
    pub fn serve_queries(
        &mut self,
        cfg: ServingConfig,
        schedule: &[ServeRequest],
    ) -> Result<ServeReport, PmoveError> {
        let to_err = |e: pmove_serve::ServeError| PmoveError::Collector(e.to_string());
        let report = match &self.repl {
            Some(set) => QueryServer::new(set, cfg)
                .map_err(to_err)?
                .with_obs(self.obs.clone())
                .run(schedule)
                .map_err(to_err)?,
            None => QueryServer::new(&self.ts, cfg)
                .map_err(to_err)?
                .with_obs(self.obs.clone())
                .run(schedule)
                .map_err(to_err)?,
        };
        let start_ns = s_to_ns(self.now_s);
        self.obs
            .record_span("daemon.serve", start_ns, start_ns + report.end_ns);
        self.now_s += report.end_ns as f64 / 1e9;
        Ok(report)
    }

    /// Guard for operations that mutate the KB: refused while degraded.
    pub fn ensure_writable(&self) -> Result<(), PmoveError> {
        match &self.mode {
            DaemonMode::Normal => Ok(()),
            mode => Err(PmoveError::DegradedMode(mode.to_string())),
        }
    }

    /// Register pinned background load (a long-running process bound to
    /// specific threads); subsequent Scenario A windows reflect it.
    pub fn set_background_load(&mut self, busy: &[(u32, f64)]) {
        self.background_busy = busy.to_vec();
    }

    /// True when both databases persist to a VFS.
    pub fn is_durable(&self) -> bool {
        self.doc_journal.is_some() && self.ts.is_durable()
    }

    /// Re-insert the KB (step ③ re-occurs whenever the KB changes).
    pub fn sync_kb(&self) -> Result<usize, PmoveError> {
        match &self.doc_journal {
            Some(journal) => store::insert_kb_durable(journal, &self.kb),
            None => store::insert_kb(&self.doc, &self.kb),
        }
    }

    /// Enable background integrity scrubbing over the durable
    /// time-series store: subsequent monitoring windows each end with one
    /// scrubber tick, so the whole store is CRC-verified within
    /// `cfg.full_pass_period_s` of monitored virtual time. Returns
    /// `false` (and enables nothing) on a memory-only daemon — there are
    /// no on-disk chunks to verify — and `false` plus a
    /// `daemon.scrub.errors` tick when `cfg` cannot keep that promise: a
    /// period that is not a positive finite number (a zero staleness
    /// bound, or a pass that never finishes) or a negative or NaN burst
    /// (nothing ever verifies).
    pub fn enable_scrubbing(&mut self, cfg: ScrubConfig) -> bool {
        if !self.ts.is_durable() {
            return false;
        }
        let period_s = cfg.full_pass_period_s;
        if !(period_s > 0.0 && period_s.is_finite() && cfg.burst_bytes >= 0.0) {
            self.obs.counter("daemon.scrub.errors", &[]).inc();
            return false;
        }
        self.scrubber = Some(Scrubber::new(cfg));
        true
    }

    /// Enable scheduled backups of the durable time-series store:
    /// committed WAL frames stream continuously into a generation-
    /// addressed archive on a dedicated seeded backup disk, and every
    /// `period_s` of monitored virtual time the monitor loop captures a
    /// complete snapshot generation there ([`PMoveDaemon::backup_tick`]).
    /// Every third generation an automated restore drill restores the
    /// newest backup into a scratch store and diffs it bit-exactly
    /// against the live database. Call before
    /// [`PMoveDaemon::install_default_slos`] so the `backup_staleness`
    /// objective (pages when the `store.backup.last_success` heartbeat
    /// falls three periods behind) picks up this cadence. Returns
    /// `false` (and enables nothing) on a memory-only daemon, and `false`
    /// plus a `daemon.backup.errors` tick when `period_s` is not a
    /// positive finite number or the destination cannot be attached.
    pub fn enable_backups(&mut self, period_s: f64) -> bool {
        let Some(mut store) = self.ts.store() else {
            return false;
        };
        let seed = Self::trace_seed(self.machine.key()) ^ 0xBACC_BACC_BACC_BACC;
        let dest: Arc<dyn Vfs> = Arc::new(MemDisk::new(seed | 1));
        let attached = period_s > 0.0 && period_s.is_finite() && {
            // Stamp the clock first so catch-up archival of any already-
            // committed WAL tail carries the current time, not 0.
            store.note_time((self.now_s * 1e9).round() as i64);
            store.enable_backup(dest).is_ok()
        };
        if !attached {
            self.obs.counter("daemon.backup.errors", &[]).inc();
            return false;
        }
        // Group archival: the commit fast path stages the payload and the
        // destination write happens every 32 records (or at any flush or
        // snapshot fence), keeping archiver ingest overhead negligible.
        store.set_archive_group(32);
        self.backup = Some(BackupSchedule {
            period_s,
            last_s: self.now_s,
            since_drill: 0,
            drills: 0,
        });
        true
    }

    /// One backup-scheduler tick at the current virtual time: stamp the
    /// store's virtual clock (archived records carry it; it is what
    /// point-in-time restore targets), and when a full period has elapsed
    /// capture a snapshot generation, stamped as a `daemon.backup` span.
    /// Every [`DRILL_EVERY_BACKUPS`] completed generations the tick also
    /// runs [`PMoveDaemon::restore_drill`]. No-op until
    /// [`PMoveDaemon::enable_backups`].
    fn backup_tick(&mut self) {
        let Some(schedule) = self.backup.as_mut() else {
            return;
        };
        let Some(mut store) = self.ts.store() else {
            return;
        };
        store.note_time((self.now_s * 1e9).round() as i64);
        if self.now_s - schedule.last_s + 1e-9 < schedule.period_s {
            return;
        }
        let start = s_to_ns(self.now_s);
        let backup = store.backup_now();
        drop(store); // the drill below takes the store lock itself
        let Ok(report) = backup else {
            self.obs.counter("daemon.backup.errors", &[]).inc();
            return;
        };
        schedule.last_s = self.now_s;
        schedule.since_drill += 1;
        let drill_due = schedule.since_drill >= DRILL_EVERY_BACKUPS;
        if drill_due {
            schedule.since_drill = 0;
        }
        let modeled = BACKUP_BASE_NS + report.bytes * BACKUP_PER_BYTE_NS;
        self.obs
            .record_span("daemon.backup", start, start + modeled.max(1));
        if drill_due {
            self.restore_drill();
        }
    }

    /// Disaster-recovery drill: restore the newest backup generation (plus
    /// the archived WAL tail) into a scratch store and diff every restored
    /// cell bit-exactly (`f64::to_bits`) against the live database.
    /// Publishes `daemon.drill.*` metrics — `bit_exact` is the pass/fail
    /// gauge an operator alerts on — and stamps a `daemon.restore_drill`
    /// span. Returns `Some(true)` when the restored state matched,
    /// `Some(false)` on any mismatch or restore refusal, `None` when
    /// backups are not enabled.
    pub fn restore_drill(&mut self) -> Option<bool> {
        let schedule = self.backup.as_mut()?;
        let src = self.ts.store()?.backup_dest()?;
        let start = s_to_ns(self.now_s);
        schedule.drills += 1;
        self.obs.counter("daemon.drill.runs", &[]).inc();
        let seed = Self::trace_seed(self.machine.key()) ^ 0xD1A1_0000_0000_0000 ^ schedule.drills;
        let scratch: Arc<dyn Vfs> = Arc::new(MemDisk::new(seed | 1));
        let mut scratch_db =
            pmove_tsdb::Database::with_obs(format!("{}-drill", self.ts.name()), self.obs.clone());
        let restored =
            scratch_db.restore_at(src.as_ref(), scratch, StoreOptions::default(), i64::MAX);
        let ok = match restored {
            Ok(report) => {
                let live = drill_cell_map(&self.ts);
                let rest = drill_cell_map(&scratch_db);
                let mismatches = live
                    .iter()
                    .filter(|(k, v)| rest.get(*k) != Some(*v))
                    .count()
                    + rest.iter().filter(|(k, _)| !live.contains_key(*k)).count();
                let c = |name: &str, v: u64| self.obs.counter(name, &[]).add(v);
                c("daemon.drill.cells_compared", live.len() as u64);
                c("daemon.drill.mismatches", mismatches as u64);
                mismatches == 0 && report.conserved()
            }
            Err(_) => {
                self.obs.counter("daemon.drill.restore_errors", &[]).inc();
                false
            }
        };
        self.obs
            .gauge("daemon.drill.bit_exact", &[])
            .set(if ok { 1.0 } else { 0.0 });
        self.obs
            .record_span("daemon.restore_drill", start, start + DRILL_BASE_NS.max(1));
        Some(ok)
    }

    /// Enable continuous-query rollup tiers on the daemon's time-series
    /// store: subsequent monitoring windows each end with one rollup tick
    /// folding freshly written buckets into the configured tiers, so
    /// long-window aggregate queries over monitored history are served
    /// from downsampled cells instead of raw scans.
    pub fn enable_rollups(&mut self, cfg: pmove_tsdb::RollupConfig) {
        self.ts.enable_rollups(cfg);
    }

    /// One rollup materialization tick at the current virtual time,
    /// stamped as a `daemon.rollup` span. No-op until
    /// [`PMoveDaemon::enable_rollups`].
    fn rollup_tick(&mut self) {
        let Some(report) = self.ts.rollup_tick() else {
            return;
        };
        let start = s_to_ns(self.now_s);
        self.obs
            .record_span("daemon.rollup", start, start + report.modeled_ns().max(1));
    }

    /// One scrubber tick at the current virtual time, stamped as a
    /// `daemon.scrub` span. A single-node daemon has no replica to
    /// read-repair from, so a quarantined chunk is handled by rebuilding
    /// the in-memory view from the surviving chunks and annotating the
    /// lost range with `pmove_gap` markers — queries then say "data
    /// missing here" instead of silently returning a hole.
    fn scrub_tick(&mut self) {
        let Some(scrubber) = self.scrubber.as_mut() else {
            return;
        };
        let now_s = self.now_s;
        let Some(ticked) = self.ts.store().map(|mut s| scrubber.tick(&mut s, now_s)) else {
            return;
        };
        let report = match ticked {
            Ok(report) => report,
            Err(_) => {
                self.obs.counter("daemon.scrub.errors", &[]).inc();
                return;
            }
        };
        let start = s_to_ns(self.now_s);
        self.obs
            .record_span("daemon.scrub", start, start + report.modeled_ns.max(1));
        if !report.quarantined.is_empty() && self.ts.rebuild_from_store().is_ok() {
            self.ts.annotate_quarantine_gaps();
        }
    }

    /// Scenario A: monitor system state for `duration_s` at `freq_hz` into
    /// the host database over the paper's plain unbuffered transport.
    ///
    /// # Panics
    ///
    /// When `freq_hz` is not a positive finite number or `duration_s` is
    /// negative or not finite ([`SamplingConfig::try_new`] refuses them).
    pub fn monitor(&mut self, duration_s: f64, freq_hz: f64) -> SamplingReport {
        self.monitor_resilient(duration_s, freq_hz, None, None)
    }

    /// [`PMoveDaemon::monitor`] with the self-healing transport when
    /// `resilience` is given (spill instead of drop, retry with backoff
    /// behind a circuit breaker, recovery gap markers) and an optional
    /// injected fault schedule (virtual-clock relative to the current
    /// daemon time: a window `[a, b)` in the schedule fires at `now_s +
    /// a`). Monitoring is allowed in every [`DaemonMode`].
    ///
    /// # Panics
    ///
    /// On the sampling numbers [`PMoveDaemon::monitor`] panics on.
    pub fn monitor_resilient(
        &mut self,
        duration_s: f64,
        freq_hz: f64,
        resilience: Option<ResilienceConfig>,
        fault: Option<FaultSchedule>,
    ) -> SamplingReport {
        let fault = fault.map(|f| on_clock(f, self.now_s));
        self.monitor_window(duration_s, freq_hz, |d, config, pmcd| {
            let labels = [d.machine.key(), "scenario_a"];
            let mut shipper =
                Shipper::try_new(&d.ts, LinkSpec::mbit_100(), 1.0 / freq_hz, &labels)?
                    .with_obs(d.obs.clone());
            if let Some(schedule) = fault {
                shipper = shipper.with_fault_schedule(schedule);
            }
            if let Some(cfg) = resilience {
                shipper = shipper.with_resilience(cfg);
            }
            Ok(SamplingLoop::run(config, pmcd, &mut shipper))
        })
        .expect("a positive finite frequency and a non-negative finite duration")
    }

    /// Scenario B: profile a kernel; appends the observation and syncs
    /// the KB.
    pub fn profile(&mut self, request: &ProfileRequest) -> Result<ProfileOutcome, PmoveError> {
        self.ensure_writable()?;
        let start_s = self.now_s;
        let outcome = scenario_b::profile_kernel(
            &self.machine,
            &mut self.kb,
            &self.layer,
            &self.ts,
            &mut self.ids,
            request,
            self.now_s,
            &self.obs,
        )?;
        self.now_s = outcome.execution.end_s() + 0.1;
        self.sync_kb()?;
        self.obs
            .record_span("daemon.profile", s_to_ns(start_s), s_to_ns(self.now_s));
        Ok(outcome)
    }

    /// Flush the self-observability registry into the daemon's own
    /// time-series database as `pmove.self.*` series stamped at the
    /// current virtual time. Returns the number of points written.
    pub fn export_self_telemetry(&self) -> usize {
        self.publish_trace_meta();
        let snap = self.obs.snapshot();
        pmove_tsdb::export_snapshot(&self.ts, &snap, (self.now_s * 1e9).round() as i64)
    }

    /// Deterministic tracer seed: FNV-1a of the machine key, so two
    /// daemons on the same preset mint identical trace ids.
    fn trace_seed(key: &str) -> u64 {
        fnv1a(key.as_bytes())
    }

    /// Attach a deterministic tracer to the registry so every pipeline
    /// stage (transport, replication, tsdb, WAL) records causal trace
    /// trees, and synthesize the boot trace from the already-stamped
    /// `daemon.stepN.*` spans. Returns the tracer for direct inspection;
    /// it is also reachable via `obs.tracer()`.
    pub fn enable_tracing(&mut self, config: TraceConfig) -> Arc<Tracer> {
        let tracer = Arc::new(Tracer::new(Self::trace_seed(self.machine.key()), config));
        self.obs.set_tracer(tracer.clone());
        self.record_boot_trace(&tracer);
        tracer
    }

    /// Replay the boot timeline (steps ⓪–⑤ plus recovery, whichever ran)
    /// into one `daemon.boot` trace so the flight recorder holds the boot
    /// alongside request traces.
    fn record_boot_trace(&self, tracer: &Tracer) {
        let snap = self.obs.snapshot();
        let steps = [
            "daemon.step0.environment",
            "daemon.step1.probe",
            "daemon.step2.kb_generation",
            "daemon.step3.kb_insert",
            "daemon.step4.recovery",
            "daemon.step5.supervise",
        ];
        let present: Vec<(&str, u64, u64)> = steps
            .iter()
            .filter_map(|name| {
                snap.span(name)
                    .map(|s| (*name, s.last_start_ns, s.last_end_ns))
            })
            .collect();
        let Some(&(_, root_start, _)) = present.first() else {
            return;
        };
        let root_end = present
            .iter()
            .map(|&(_, _, e)| e)
            .max()
            .unwrap_or(root_start);
        let ctx = tracer.start_trace("daemon.boot", root_start);
        for (name, start_ns, end_ns) in present {
            let child = tracer.child(ctx, name, start_ns);
            tracer.end_span(child, end_ns);
        }
        tracer.finish_trace(ctx, root_end, "booted");
    }

    /// Publish tracer lifetime counters as `pmove.trace.*` gauges so the
    /// self-dashboard and self-telemetry exports can show them.
    fn publish_trace_meta(&self) {
        if let Some(tracer) = self.obs.tracer() {
            let s = tracer.stats();
            let g = |name: &str, v: u64| self.obs.gauge(name, &[]).set(v as f64);
            g("pmove.trace.started", s.started);
            g("pmove.trace.finished", s.finished);
            g("pmove.trace.retained", s.retained);
            g("pmove.trace.ring_evicted", s.ring_evicted);
            g("pmove.trace.fault_upgrades", s.fault_upgrades);
            g("pmove.trace.spans_recorded", s.spans_recorded);
        }
    }

    /// Human-readable tracing report: the most recently finished trace
    /// tree, its critical path + stage attribution, and the tracer's
    /// lifetime counters. Deterministic for same-seed runs.
    pub fn trace_report(&self) -> String {
        let Some(tracer) = self.obs.tracer() else {
            return "tracing disabled (call enable_tracing first)\n".to_string();
        };
        let mut out = String::new();
        match tracer.last_finished() {
            None => out.push_str("no finished traces recorded\n"),
            Some(tree) => {
                out.push_str(&tree.render());
                out.push_str(&tree.render_critical_path());
            }
        }
        let s = tracer.stats();
        out.push_str(&format!(
            "tracer: started={} finished={} retained={} ring_evicted={} \
             fault_upgrades={} spans_recorded={}\n",
            s.started, s.finished, s.retained, s.ring_evicted, s.fault_upgrades, s.spans_recorded
        ));
        out
    }

    /// Install the default SLO set over metrics the pipeline already
    /// publishes: ingest p99 latency, query p99 latency, serving p99
    /// latency, transport conservation, scrub-pass staleness, and
    /// (meaningful only when replicated) quorum availability. Idempotent:
    /// a non-empty engine is left untouched.
    pub fn install_default_slos(&mut self) {
        if !self.slo.is_empty() {
            return;
        }
        let windows = || {
            vec![
                BurnWindow {
                    name: "fast".into(),
                    window_ns: 10_000_000_000, // 10 s
                    burn_threshold: 8.0,
                    severity: AlertState::Page,
                },
                BurnWindow {
                    name: "slow".into(),
                    window_ns: 60_000_000_000, // 60 s
                    burn_threshold: 2.0,
                    severity: AlertState::Warning,
                },
            ]
        };
        self.slo.add(SloSpec {
            name: "ingest_p99".into(),
            objective: Objective::LatencyBelow {
                histogram: "tsdb.ingest_ns".into(),
                threshold_ns: 100_000,
            },
            target: 0.99,
            windows: windows(),
            clear_evals: 2,
        });
        self.slo.add(SloSpec {
            name: "query_p99".into(),
            objective: Objective::LatencyBelow {
                histogram: "tsdb.query_ns".into(),
                threshold_ns: 2_500_000,
            },
            target: 0.99,
            windows: windows(),
            clear_evals: 2,
        });
        // Serving-latency objective over the multi-tenant query layer;
        // threshold from the default serving config, pinned to a latency
        // bucket bound so budget accounting is exact.
        self.slo
            .add(SloSpec::serving_p99(ServingConfig::default().slo_p99_ns));
        self.slo.add(SloSpec {
            name: "conservation".into(),
            objective: Objective::Conservation {
                offered: "pcp.transport.values_offered".into(),
                accounted: vec![
                    "pcp.transport.values_inserted".into(),
                    "pcp.transport.values_zeroed".into(),
                    "pcp.transport.values_lost".into(),
                    "pcp.resilience.values_evicted".into(),
                ],
                pending_gauges: vec!["pcp.resilience.spill_pending".into()],
            },
            target: 0.999,
            windows: windows(),
            clear_evals: 2,
        });
        self.slo.add(SloSpec {
            name: "quorum_availability".into(),
            objective: Objective::GaugeAtLeast {
                gauge: "tsdb.repl.replicas_healthy".into(),
                min: self
                    .repl
                    .as_ref()
                    .map(|s| s.config().write_quorum as f64)
                    .unwrap_or(2.0),
            },
            target: 0.99,
            windows: windows(),
            clear_evals: 2,
        });
        // Scrub staleness: page when the background scrubber's full-pass
        // heartbeat falls three periods behind. Daemons that never enable
        // scrubbing never publish the gauge and stay vacuously Ok.
        let scrub = self.scrubber.as_ref().map(Scrubber::config);
        let period_s = scrub.unwrap_or_default().full_pass_period_s;
        self.slo
            .add(SloSpec::scrub_staleness((period_s * 3.0 * 1e9) as u64));
        // Backup staleness: page when the newest complete generation's
        // fence falls three backup periods behind. Daemons that never
        // enable backups never publish the gauge and stay vacuously Ok.
        let period_s = self.backup.map_or(60.0, |b| b.period_s);
        self.slo
            .add(SloSpec::backup_staleness((period_s * 3.0 * 1e9) as u64));
    }

    /// Evaluate every installed SLO against the current registry state at
    /// the daemon's virtual time; publishes `pmove.slo.*` meta-metrics
    /// and returns the transitions that fired.
    pub fn evaluate_slos(&mut self) -> Vec<Transition> {
        self.publish_trace_meta();
        let snap = self.obs.snapshot();
        self.slo.evaluate(&snap, s_to_ns(self.now_s))
    }

    /// Deterministic text rendering of the alert timeline.
    pub fn slo_timeline_report(&self) -> String {
        self.slo.render_timeline()
    }

    /// Generate the self-observability dashboard (pipeline loss, ingest
    /// latency, per-step span timings) from the current registry state.
    pub fn self_dashboard(&self) -> crate::dashboard::model::Dashboard {
        crate::dashboard::gen::self_dashboard(&self.kb, &self.obs.snapshot())
    }

    /// Summarize one observation's series into an
    /// `AGGObservationInterface` (the SUPERDB volume-control path of
    /// §III-E) straight from the local time-series DB.
    pub fn aggregate_observation(
        &self,
        obs_id: &str,
    ) -> Result<crate::kb::AggObservation, PmoveError> {
        let obs = self
            .kb
            .observation(obs_id)
            .ok_or_else(|| PmoveError::NotInKb(format!("observation {obs_id}")))?;
        let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
        for m in &obs.metrics {
            let fields = m.fields.iter().cloned().map(Projection::Field);
            let frame = self.ts.query_frame(&Query {
                projections: fields.collect(),
                measurement: m.db_name.clone(),
                tag_filters: vec![("tag".into(), obs_id.into())],
                time_start: None,
                time_end: None,
                group_by_time: None,
            })?;
            for (field, col) in m.fields.iter().zip(&frame.cols) {
                let values = col.iter().flatten().copied().collect();
                series.push((m.db_name.clone(), field.clone(), values));
            }
        }
        Ok(crate::kb::superdb::SuperDb::aggregate(obs, &series))
    }

    /// Run the STREAM benchmark *on the target* (simulated) and record a
    /// `BenchmarkInterface`. Bandwidths derive from the machine's memory
    /// system via the execution model.
    pub fn run_stream_benchmark(&mut self, n: u64) -> Result<BenchmarkInterface, PmoveError> {
        self.ensure_writable()?;
        let threads = self.machine.spec.total_cores();
        let model = ExecModel::new(self.machine.spec.clone());
        let mut results = Vec::new();
        // (name, flops/elem, loads/elem, stores/elem, vectors)
        let kernels: [(&str, u64, u64, u64, u64); 4] = [
            ("copy", 0, 1, 1, 2),
            ("scale", 1, 1, 1, 2),
            ("add", 1, 2, 1, 3),
            ("triad", 2, 2, 1, 3),
        ];
        for (name, fl, ld, st, vecs) in kernels {
            let profile = KernelProfile::named(format!("stream_{name}"))
                .with_threads(threads)
                .with_flops(self.machine.spec.arch.widest_isa(), Precision::F64, fl * n)
                .with_mem(ld * n, st * n, self.machine.spec.arch.widest_isa())
                .with_working_set(vecs * n * 8)
                // STREAM is built to defeat caching: no reuse at all.
                .with_locality(pmove_hwsim::kernel_profile::LocalityProfile::streaming());
            let exec = model.run(&profile, self.now_s);
            let bw = (ld + st) as f64 * n as f64 * 8.0 / exec.duration_s;
            self.now_s = exec.end_s();
            results.push(BenchmarkResult {
                name: format!("{name}_bandwidth"),
                value: bw,
                unit: "B/s".into(),
            });
        }
        let bench = BenchmarkInterface {
            id: self.ids.next_id(),
            machine: self.machine.key().to_string(),
            benchmark: "stream".into(),
            compiler: "gcc".into(),
            results,
        };
        self.kb.append_benchmark(bench.clone());
        self.sync_kb()?;
        Ok(bench)
    }

    /// Profile a GPU kernel (§III-D): P-MoVE "creates a wrapper script for
    /// initiating the kernel launch and configuring ncu to record runtime
    /// HW performance events. Following these executions, it analyzes the
    /// output from ncu, integrating these comprehensive performance
    /// metrics into the KB through the ObservationInterface."
    pub fn profile_gpu_kernel(
        &mut self,
        device_index: usize,
        kernel: &pmove_hwsim::gpu::GpuKernelProfile,
    ) -> Result<crate::kb::ObservationInterface, PmoveError> {
        self.ensure_writable()?;
        let gpu = self
            .machine
            .spec
            .gpus
            .get(device_index)
            .ok_or_else(|| PmoveError::BadKernelRequest(format!("no GPU at index {device_index}")))?
            .clone();
        let report = pmove_hwsim::gpu::profile_kernel(&gpu, kernel);
        let obs_id = self.ids.next_id();
        let start_s = self.now_s;
        let end_s = start_s + report.duration_us / 1e6;

        // Ingest the ncu metrics as time-series points tagged with the
        // observation (one point per metric, _gpuN field).
        let mut metric_refs = Vec::with_capacity(report.metrics.len());
        for (name, value) in &report.metrics {
            let db_name = format!("ncu_{name}");
            let point = pmove_tsdb::Point::new(&db_name)
                .tag("tag", obs_id.clone())
                .field(format!("_gpu{device_index}"), *value)
                .timestamp((end_s * 1e9) as i64);
            self.ts.write_point(point)?;
            metric_refs.push(crate::kb::observation::MetricRef {
                db_name,
                fields: vec![format!("_gpu{device_index}")],
            });
        }

        let observation = crate::kb::ObservationInterface {
            id: obs_id,
            machine: self.machine.key().to_string(),
            command: format!("ncu --target-processes all ./{}", report.kernel),
            pinning: "gpu".into(),
            affinity: Vec::new(),
            start_s,
            end_s,
            freq_hz: 0.0, // ncu wraps the launch; no periodic sampling
            metrics: metric_refs,
            report: serde_json::json!({
                "device": gpu.model,
                "duration_us": report.duration_us,
                "threads_launched": kernel.threads_launched,
            }),
        };
        self.now_s = end_s + 0.01;
        self.kb.append_observation(observation.clone());
        self.sync_kb()?;
        Ok(observation)
    }

    /// Run HPCG: the real solver provides iterations/residual (numeric
    /// truth), the execution model provides the target-calibrated rate.
    pub fn run_hpcg_benchmark(
        &mut self,
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> Result<BenchmarkInterface, PmoveError> {
        self.ensure_writable()?;
        let solve = hpcg::run_hpcg(nx, ny, nz, 50, 1e-9);
        // HPCG is memory-bound (AI ≈ 0.2 with scalar-ish access patterns);
        // simulate the same FLOP volume on the target.
        let n = (nx * ny * nz) as u64;
        let profile = KernelProfile::named("hpcg")
            .with_threads(self.machine.spec.total_cores())
            .with_flops(
                pmove_hwsim::vendor::IsaExt::Scalar,
                Precision::F64,
                solve.flops,
            )
            .with_mem(
                solve.flops / 2 * 3,
                n * solve.iterations as u64,
                pmove_hwsim::vendor::IsaExt::Scalar,
            )
            .with_working_set(n * 8 * 6);
        let exec = ExecModel::new(self.machine.spec.clone()).run(&profile, self.now_s);
        self.now_s = exec.end_s();
        let bench = BenchmarkInterface {
            id: self.ids.next_id(),
            machine: self.machine.key().to_string(),
            benchmark: "hpcg".into(),
            compiler: "gcc".into(),
            results: vec![
                BenchmarkResult {
                    name: "hpcg_gflops".into(),
                    value: solve.flops as f64 / exec.duration_s / 1e9,
                    unit: "GF/s".into(),
                },
                BenchmarkResult {
                    name: "iterations".into(),
                    value: solve.iterations as f64,
                    unit: "count".into(),
                },
                BenchmarkResult {
                    name: "final_rel_residual".into(),
                    value: solve.final_rel_residual,
                    unit: "ratio".into(),
                },
            ],
        };
        self.kb.append_benchmark(bench.clone());
        self.sync_kb()?;
        Ok(bench)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_runs_steps_0_to_3() {
        let d = PMoveDaemon::for_preset("icl").unwrap();
        assert_eq!(d.kb.machine_key, "icl");
        assert!(!d.kb.is_empty());
        // Step ③: KB documents in the doc DB.
        assert_eq!(d.doc.collection(store::KB_COLLECTION).len(), d.kb.len());
        // The abstraction layer knows this PMU.
        assert!(d.layer.pmu("icl").is_some());
        assert!(PMoveDaemon::for_preset("vax").is_err());
    }

    #[test]
    fn durable_daemon_recovers_state_across_restarts() {
        use pmove_tsdb::store::{MemDisk, Vfs};
        let disk = Arc::new(MemDisk::new(11));
        let vfs: Arc<dyn Vfs> = disk.clone();

        let mut d = PMoveDaemon::for_preset_durable("icl", vfs.clone()).unwrap();
        assert!(d.is_durable());
        let rec = d.recovery.expect("durable boot reports recovery");
        assert_eq!(rec.ts.chunks_loaded, 0);
        assert_eq!(rec.ts.wal_rows, 0);
        assert_eq!(rec.doc.records_replayed, 0);
        d.monitor(5.0, 2.0);
        let rows = d.ts.total_rows();
        let kb_len = d.kb.len();
        assert!(rows > 0);
        drop(d);

        // Power-cycle: volatile state is gone, the daemon reboots from
        // the WAL/journal alone.
        disk.restart();
        let d2 = PMoveDaemon::for_preset_durable("icl", vfs).unwrap();
        let rec2 = d2.recovery.unwrap();
        assert!(rec2.ts.wal_rows > 0 || rec2.ts.chunks_loaded > 0);
        assert!(rec2.doc.records_replayed > 0);
        assert!(rec2.modeled_ns > 0);
        assert_eq!(d2.ts.total_rows(), rows, "telemetry survives the restart");
        assert_eq!(d2.doc.collection(store::KB_COLLECTION).len(), kb_len);
        // Step ④ is stamped right after step ③ on the boot timeline.
        let snap = d2.obs.snapshot();
        let s3 = snap.span("daemon.step3.kb_insert").unwrap();
        let s4 = snap.span("daemon.step4.recovery").unwrap();
        assert_eq!(s3.last_end_ns, s4.last_start_ns);
        assert!(s4.last_end_ns > s4.last_start_ns);
        // Recovered series answer queries like before the crash.
        let r = d2
            .ts
            .query("SELECT mean(\"value\") FROM \"kernel_all_load\"")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn scrubbing_daemon_quarantines_rot_and_annotates_gaps() {
        use pmove_tsdb::store::{MemDisk, RotSchedule, ScrubConfig, Vfs};
        let disk = Arc::new(MemDisk::new(41));
        let vfs: Arc<dyn Vfs> = disk.clone();
        let mut d = PMoveDaemon::for_preset_durable("icl", vfs).unwrap();
        // A config whose pass never finishes, never verifies anything or
        // gives the staleness SLO a zero bound is refused, not installed.
        let period = |full_pass_period_s| ScrubConfig {
            full_pass_period_s,
            ..ScrubConfig::default()
        };
        let refused = [0.0, -4.0, f64::NAN, f64::INFINITY].map(period);
        let negative_burst = ScrubConfig {
            burst_bytes: -1.0,
            ..period(4.0)
        };
        assert!(!refused
            .into_iter()
            .chain([negative_burst])
            .any(|cfg| d.enable_scrubbing(cfg)));
        let errors = d.obs.snapshot().counter("daemon.scrub.errors", &[]);
        assert_eq!((errors, d.scrubber.is_none()), (Some(5), true));
        assert!(d.enable_scrubbing(period(4.0)));
        d.install_default_slos();
        // Memory-only daemons have nothing to scrub and refuse to enable.
        let mut plain = PMoveDaemon::for_preset("icl").unwrap();
        assert!(!plain.enable_scrubbing(ScrubConfig::default()));

        d.monitor(5.0, 2.0);
        d.ts.flush().unwrap();
        // Latent rot: flip a bit inside a durable chunk while running.
        disk.schedule_rot(RotSchedule::none().at(6.0, 1).with_prefix("chunk-"));
        disk.advance_rot(6.0);
        // Every monitor window ends with a scrub tick; within a few
        // windows the pass reaches the damaged chunk and quarantines it.
        let mut quarantined = false;
        for _ in 0..6 {
            d.monitor(5.0, 2.0);
            if !d.ts.store().unwrap().quarantined().is_empty() {
                quarantined = true;
                break;
            }
        }
        assert!(quarantined, "scrub never found the rotted chunk");
        // The daemon rebuilt from the surviving chunks and marked the
        // lost range, so queries can see where data is missing.
        let gaps =
            d.ts.query(&format!(
                "SELECT \"gap_end_s\" FROM \"{}\"",
                pmove_tsdb::GAP_MEASUREMENT
            ))
            .unwrap();
        assert!(!gaps.rows.is_empty(), "quarantine left no gap markers");
        let snap = d.obs.snapshot();
        assert!(snap.span("daemon.scrub").is_some());
        assert!(
            snap.gauges
                .iter()
                .any(|(k, _)| k.name == "store.scrub.last_full_pass"),
            "full-pass heartbeat gauge missing"
        );
        // The heartbeat is fresh, so the staleness SLO stays quiet.
        d.evaluate_slos();
        assert_eq!(d.slo.state("scrub_staleness"), Some(AlertState::Ok));
    }

    #[test]
    fn backup_daemon_archives_snapshots_and_drills_bit_exactly() {
        use pmove_tsdb::store::{MemDisk, Vfs};
        let disk = Arc::new(MemDisk::new(51));
        let vfs: Arc<dyn Vfs> = disk;
        let mut d = PMoveDaemon::for_preset_durable("icl", vfs).unwrap();
        // A period that is not a positive finite number is refused, not a
        // panic (an infinite one would never capture a generation).
        assert!(![0.0, -10.0, f64::NAN, f64::INFINITY]
            .into_iter()
            .any(|p| d.enable_backups(p)));
        let errors = d.obs.snapshot().counter("daemon.backup.errors", &[]);
        assert_eq!((errors, d.backup.is_none()), (Some(4), true));
        assert!(d.enable_backups(10.0));
        d.install_default_slos();
        // Memory-only daemons have nothing durable to back up.
        let mut plain = PMoveDaemon::for_preset("icl").unwrap();
        assert!(!plain.enable_backups(10.0));

        // Each monitoring window ends with a backup tick; after 40 s of
        // monitored time at a 10 s period four generations exist and the
        // scheduled drill (every third) has run once.
        for _ in 0..8 {
            d.monitor(5.0, 2.0);
        }
        let stats = d.ts.store().unwrap().backup_stats();
        let stats = stats.expect("backups enabled");
        assert!(
            stats.generations_completed >= 3,
            "40 s / 10 s period produced {} generations",
            stats.generations_completed
        );
        assert!(stats.records_archived > 0, "archiver saw no commits");
        assert_eq!(stats.backup_errors, 0);
        let snap = d.obs.snapshot();
        assert!(snap.span("daemon.backup").is_some());
        assert_eq!(snap.counter("daemon.drill.runs", &[]), Some(1));
        assert_eq!(
            snap.gauge("daemon.drill.bit_exact", &[]),
            Some(1.0),
            "scheduled drill restore diverged from the live store"
        );
        assert!(
            snap.gauges
                .iter()
                .any(|(k, _)| k.name == "store.backup.last_success"),
            "backup heartbeat gauge missing"
        );
        // An explicit drill also passes and counts its cells.
        assert_eq!(d.restore_drill(), Some(true));
        let snap = d.obs.snapshot();
        assert!(
            snap.counter("daemon.drill.cells_compared", &[])
                .unwrap_or(0)
                > 0
        );
        assert_eq!(snap.counter("daemon.drill.mismatches", &[]), Some(0));
        // The heartbeat is fresh, so the staleness SLO stays quiet.
        d.evaluate_slos();
        assert_eq!(d.slo.state("backup_staleness"), Some(AlertState::Ok));
        // The self-dashboard grew the backup & DR panel.
        let dash = d.self_dashboard();
        assert!(
            dash.panels.iter().any(|p| p.title == "backup & DR"),
            "dashboard panels: {:?}",
            dash.panels.iter().map(|p| &p.title).collect::<Vec<_>>()
        );
    }

    #[test]
    fn supervised_boot_uses_full_stack_when_storage_is_healthy() {
        use pmove_tsdb::store::{MemDisk, Vfs};
        let disk = Arc::new(MemDisk::new(21));
        let vfs: Arc<dyn Vfs> = disk;
        let d = PMoveDaemon::for_preset_supervised("icl", vfs).unwrap();
        assert_eq!(d.mode, DaemonMode::Normal);
        assert!(d.is_durable());
        assert!(d.ensure_writable().is_ok());
        let snap = d.obs.snapshot();
        // Step ⑤ starts where step ④ ended.
        let s4 = snap.span("daemon.step4.recovery").unwrap();
        let s5 = snap.span("daemon.step5.supervise").unwrap();
        assert_eq!(s4.last_end_ns, s5.last_start_ns);
        assert_eq!(s5.last_end_ns - s5.last_start_ns, STEP5_SUPERVISE_NS);
        assert_eq!(snap.gauge("daemon.mode", &[]), Some(0.0));
        assert_eq!(snap.counter("daemon.supervisor.fallbacks", &[]), None);
    }

    #[test]
    fn supervised_boot_degrades_to_monitor_only_when_recovery_fails() {
        use pmove_tsdb::store::{FaultMode, FaultPlan, MemDisk, Vfs};
        let disk = Arc::new(MemDisk::new(31));
        // The very first write/sync during the durable boot crashes the
        // disk, so WAL/journal recovery cannot complete.
        disk.schedule_fault(FaultPlan {
            crash_at_op: 1,
            mode: FaultMode::CleanStop,
        });
        let vfs: Arc<dyn Vfs> = disk;
        let mut d = PMoveDaemon::for_preset_supervised("icl", vfs).unwrap();
        // The mode carries the boot error, and is the refusal's reason.
        let DaemonMode::BootFallback(reason) = d.mode.clone() else {
            panic!("{:?}", d.mode);
        };
        assert!(reason.contains("virtual disk crashed"), "{reason}");
        assert_eq!(d.ensure_writable(), Err(PmoveError::DegradedMode(reason)));
        assert!(!d.is_durable());
        // Monitoring still runs end to end...
        let r = d.monitor(5.0, 2.0);
        assert_eq!(r.ticks, 10);
        assert!(d.ts.total_rows() > 0);
        // ...while KB-mutating operations are refused with a typed error.
        assert!(matches!(
            d.run_stream_benchmark(1 << 20),
            Err(PmoveError::DegradedMode(_))
        ));
        assert!(matches!(
            d.run_hpcg_benchmark(8, 8, 8),
            Err(PmoveError::DegradedMode(_))
        ));
        let snap = d.obs.snapshot();
        assert_eq!(snap.gauge("daemon.mode", &[]), Some(1.0));
        assert_eq!(snap.counter("daemon.supervisor.fallbacks", &[]), Some(1));
        // The degraded boot has no step ④, so step ⑤ chains off step ③.
        assert!(snap.span("daemon.step4.recovery").is_none());
        let s3 = snap.span("daemon.step3.kb_insert").unwrap();
        let s5 = snap.span("daemon.step5.supervise").unwrap();
        assert_eq!(s3.last_end_ns, s5.last_start_ns);
    }

    #[test]
    fn monitor_resilient_survives_injected_link_outage() {
        use pmove_hwsim::{FaultKind, FaultSchedule};
        let mut d = PMoveDaemon::for_preset("icl").unwrap();
        // Warm the clock so the schedule shift is exercised.
        d.monitor(5.0, 1.0);
        let fault = FaultSchedule::none().with_window(10.0, 20.0, FaultKind::LinkDown);
        let r = d.monitor_resilient(40.0, 1.0, Some(ResilienceConfig::default()), Some(fault));
        assert_eq!(r.ticks, 40);
        assert!(r.transport.conserved(), "{:?}", r.transport);
        assert!(r.transport.values_spilled > 0, "outage forced spills");
        assert!(r.transport.values_recovered > 0, "drain recovered spills");
        assert_eq!(r.transport.values_lost, 0, "nothing dropped for good");
        assert!(r.transport.gap_markers >= 1);
        assert_eq!(d.now_s, 45.0);
    }

    #[test]
    fn monitor_advances_clock_and_stores_data() {
        let mut d = PMoveDaemon::for_preset("icl").unwrap();
        let r = d.monitor(5.0, 2.0);
        assert_eq!(r.ticks, 10);
        assert_eq!(d.now_s, 5.0);
        assert!(d.ts.total_rows() > 0);
    }

    #[test]
    fn construction_records_contiguous_boot_spans() {
        let d = PMoveDaemon::for_preset("icl").unwrap();
        assert_eq!(d.now_s, 0.0); // boot timeline is synthetic
        let snap = d.obs.snapshot();
        let s0 = snap.span("daemon.step0.environment").unwrap();
        let s1 = snap.span("daemon.step1.probe").unwrap();
        let s2 = snap.span("daemon.step2.kb_generation").unwrap();
        let s3 = snap.span("daemon.step3.kb_insert").unwrap();
        assert_eq!(s0.last_start_ns, 0);
        assert_eq!(s0.last_end_ns, s1.last_start_ns);
        assert_eq!(s1.last_end_ns, s2.last_start_ns);
        assert_eq!(s2.last_end_ns, s3.last_start_ns);
        assert!(s3.last_end_ns > s3.last_start_ns);
        // KB builder counters rode along.
        assert_eq!(
            snap.counter_total("kb.builder.interfaces_built"),
            d.kb.len() as u64
        );
    }

    #[test]
    fn monitor_feeds_self_telemetry_and_conservation_holds() {
        let mut d = PMoveDaemon::for_preset("icl").unwrap();
        let r = d.monitor(5.0, 2.0);
        let snap = d.obs.snapshot();
        // Transport counters mirror the report exactly.
        let offered = snap.counter("pcp.transport.values_offered", &[]).unwrap();
        assert_eq!(offered, r.transport.values_offered);
        let inserted = snap.counter("pcp.transport.values_inserted", &[]).unwrap();
        let zeroed = snap.counter("pcp.transport.values_zeroed", &[]).unwrap();
        let lost = snap.counter("pcp.transport.values_lost", &[]).unwrap();
        assert_eq!(offered, inserted + zeroed + lost);
        // The tsdb saw the same inserts the transport claims.
        assert_eq!(snap.counter_total("tsdb.values_inserted"), inserted);
        // Monitor window span on the virtual clock.
        let span = snap.span("daemon.monitor").unwrap();
        assert_eq!(span.last_start_ns, 0);
        assert_eq!(span.last_end_ns, 5_000_000_000);
    }

    #[test]
    fn export_self_telemetry_writes_deterministic_series() {
        let run = || {
            let mut d = PMoveDaemon::for_preset("csl").unwrap();
            d.monitor(5.0, 2.0);
            let n = d.export_self_telemetry();
            assert!(n > 0, "no self points written");
            d
        };
        let a = run();
        let b = run();
        let self_ms: Vec<String> =
            a.ts.measurements()
                .into_iter()
                .filter(|m| m.starts_with(pmove_tsdb::self_export::SELF_PREFIX))
                .collect();
        assert!(self_ms.contains(&"pmove.self.pcp.transport.values_offered".to_string()));
        assert!(self_ms.contains(&"pmove.self.span.daemon.monitor".to_string()));
        // Two same-seed runs produce identical pmove.self.* series.
        for m in &self_ms {
            let q = format!("SELECT * FROM \"{m}\"");
            let ra = a.ts.query(&q).unwrap();
            let rb = b.ts.query(&q).unwrap();
            assert_eq!(ra.rows, rb.rows, "series {m} differs between runs");
        }
    }

    #[test]
    fn stream_benchmark_records_interface() {
        let mut d = PMoveDaemon::for_preset("csl").unwrap();
        let b = d.run_stream_benchmark(1 << 24).unwrap();
        assert_eq!(b.benchmark, "stream");
        let triad = b.result("triad_bandwidth").unwrap();
        // A DRAM-resident STREAM triad should land near (≤) the machine's
        // sustainable DRAM bandwidth and within 2x below it.
        let dram = d.machine.spec.dram_bw_total();
        assert!(triad <= dram * 1.05, "triad {triad} dram {dram}");
        assert!(triad >= dram * 0.4, "triad {triad} dram {dram}");
        assert_eq!(d.kb.benchmarks.len(), 1);
        assert_eq!(d.doc.collection(store::BENCH_COLLECTION).len(), 1);
    }

    #[test]
    fn observation_aggregation_summarizes_series() {
        use crate::profiles::stream_kernel_profile;
        use crate::telemetry::pinning::PinningStrategy;
        use crate::telemetry::scenario_b::ProfileRequest;
        use pmove_hwsim::vendor::IsaExt;
        use pmove_kernels::StreamKernel;

        let mut d = PMoveDaemon::for_preset("csl").unwrap();
        let request = ProfileRequest {
            profile: stream_kernel_profile(StreamKernel::Triad, 1 << 36, 28, IsaExt::Avx512),
            command: "triad".into(),
            generic_events: vec!["TOTAL_DP_FLOPS".into()],
            freq_hz: 4.0,
            pinning: PinningStrategy::Balanced,
        };
        let outcome = d.profile(&request).unwrap();
        let agg = d.aggregate_observation(&outcome.observation.id).unwrap();
        assert!(!agg.summaries.is_empty());
        // The per-field sums of means × counts ≈ the recalled FLOP total
        // (÷8 for the 512-bit packed instruction counting).
        let total: f64 = agg
            .summaries
            .iter()
            .filter(|(m, _, _)| m.contains("512B_PACKED"))
            .map(|(_, _, s)| s.sum)
            .sum();
        let truth = (2u64 << 36) as f64 / 8.0;
        assert!((total - truth).abs() / truth < 0.1, "{total} vs {truth}");
        assert!(d.aggregate_observation("no-such").is_err());
    }

    #[test]
    fn gpu_profiling_lands_in_kb_and_tsdb() {
        use pmove_hwsim::gpu::{GpuKernelProfile, GpuSpec};
        let mut spec = pmove_hwsim::MachineSpec::csl();
        spec.gpus.push(GpuSpec::gv100());
        let (mut d, _) =
            PMoveDaemon::boot(pmove_hwsim::Machine::new(spec), DbParams::default(), None).unwrap();
        let kernel = GpuKernelProfile {
            name: "spmv_csr_kernel".into(),
            flops_f64: 1 << 28,
            dram_read_bytes: 1 << 32,
            dram_write_bytes: 1 << 28,
            threads_launched: 1 << 20,
        };
        let obs = d.profile_gpu_kernel(0, &kernel).unwrap();
        assert_eq!(obs.pinning, "gpu");
        assert!(obs.end_s > obs.start_s);
        // The ncu throughput metric is queryable via the Listing-3 query.
        let q = obs
            .queries()
            .into_iter()
            .find(|q| q.contains("ncu_gpu__compute_memory_access_throughput"))
            .expect("ncu metric referenced");
        let r = d.ts.query(&q).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert!(r.rows[0].values["_gpu0"].unwrap() > 50.0); // memory-bound
                                                            // No GPU at index 7.
        assert!(d.profile_gpu_kernel(7, &kernel).is_err());
        // Observation persisted.
        assert_eq!(d.kb.observations.len(), 1);
    }

    #[test]
    fn hpcg_benchmark_converges_and_records() {
        let mut d = PMoveDaemon::for_preset("zen3").unwrap();
        let b = d.run_hpcg_benchmark(8, 8, 8).unwrap();
        assert!(b.result("final_rel_residual").unwrap() < 1e-9);
        assert!(b.result("hpcg_gflops").unwrap() > 0.0);
        assert!(b.result("iterations").unwrap() >= 1.0);
    }

    #[test]
    fn tracing_records_boot_and_monitor_traces() {
        let mut d = PMoveDaemon::for_preset("icl").unwrap();
        let tracer = d.enable_tracing(TraceConfig::default());
        // The boot trace is synthesized from the recorded step spans.
        let boot = tracer
            .flight_recorder()
            .into_iter()
            .find(|t| t.root().name == "daemon.boot")
            .expect("boot trace recorded");
        assert_eq!(boot.terminal_status(), "booted");
        assert!(boot.spans.len() >= 5, "{}", boot.render());

        d.monitor(5.0, 2.0);
        assert_eq!(tracer.active_count(), 0, "no orphaned traces");
        let s = tracer.stats();
        assert_eq!(s.started, s.finished);
        assert!(s.started > 1);
        let report = d.trace_report();
        assert!(report.contains("pcp.sample"), "{report}");
        assert!(report.contains("critical path"), "{report}");
        assert!(report.contains("tracer: started="), "{report}");

        // Same-seed determinism: the last finished tree renders
        // identically across runs.
        let mut d2 = PMoveDaemon::for_preset("icl").unwrap();
        let t2 = d2.enable_tracing(TraceConfig::default());
        d2.monitor(5.0, 2.0);
        assert_eq!(
            tracer.last_finished().unwrap().render(),
            t2.last_finished().unwrap().render()
        );
    }

    #[test]
    fn traced_monitor_matches_untraced_goldens() {
        // Tracing must not perturb what the pipeline actually does: same
        // report, same rows, same series with and without a tracer.
        let mut plain = PMoveDaemon::for_preset("icl").unwrap();
        let r_plain = plain.monitor(5.0, 2.0);
        let mut traced = PMoveDaemon::for_preset("icl").unwrap();
        traced.enable_tracing(TraceConfig::default());
        let r_traced = traced.monitor(5.0, 2.0);
        assert_eq!(r_plain.transport, r_traced.transport);
        assert_eq!(plain.ts.total_rows(), traced.ts.total_rows());
        let q = "SELECT \"value\" FROM \"kernel_all_load\"";
        assert_eq!(
            plain.ts.query(q).unwrap().rows,
            traced.ts.query(q).unwrap().rows
        );
    }

    #[test]
    fn default_slos_stay_quiet_on_healthy_runs() {
        let mut d = PMoveDaemon::for_preset("icl").unwrap();
        d.install_default_slos();
        assert_eq!(d.slo.len(), 7);
        d.install_default_slos(); // idempotent
        assert_eq!(d.slo.len(), 7);
        d.monitor(5.0, 2.0);
        let fired = d.evaluate_slos();
        assert!(fired.is_empty(), "{fired:?}");
        assert_eq!(d.slo.state("ingest_p99"), Some(AlertState::Ok));
        assert_eq!(d.slo.state("conservation"), Some(AlertState::Ok));
        // No serving traffic yet: the serving SLO idles at Ok.
        assert_eq!(d.slo.state("serving_p99"), Some(AlertState::Ok));
        // No backups configured: the staleness SLO is vacuously healthy.
        assert_eq!(d.slo.state("backup_staleness"), Some(AlertState::Ok));
        // Meta-gauges are published under the pmove.slo.* namespace.
        let snap = d.obs.snapshot();
        assert!(snap.gauges.iter().any(|(k, _)| k.name == "pmove.slo.state"));
        assert!(snap
            .gauges
            .iter()
            .any(|(k, _)| k.name == "pmove.slo.burn_rate"));
    }

    #[test]
    fn induced_ingest_regression_pages_at_the_same_virtual_time() {
        let run = || {
            let mut d = PMoveDaemon::for_preset("icl").unwrap();
            d.install_default_slos();
            d.monitor(2.0, 2.0);
            d.evaluate_slos();
            // Regress the ingest path: a burst of samples far above the
            // objective threshold.
            let h = d
                .obs
                .histogram("tsdb.ingest_ns", &[], pmove_obs::latency_buckets());
            for _ in 0..500 {
                h.record(2_000_000);
            }
            d.now_s += 1.0;
            let fired = d.evaluate_slos();
            (fired, d.slo_timeline_report())
        };
        let (fired_a, timeline_a) = run();
        let (fired_b, timeline_b) = run();
        assert!(
            fired_a
                .iter()
                .any(|t| t.slo == "ingest_p99" && t.to == AlertState::Page),
            "{fired_a:?}"
        );
        assert_eq!(fired_a, fired_b, "fired transitions are deterministic");
        assert_eq!(timeline_a, timeline_b, "alert timeline is deterministic");
        assert!(timeline_a.contains("ingest_p99 ok -> page"), "{timeline_a}");
        assert!(timeline_a.contains("t=3000000000ns"), "{timeline_a}");
    }

    #[test]
    fn replicated_boot_brings_up_a_quorum_set() {
        let mut d = PMoveDaemon::for_preset_replicated("icl", 7).unwrap();
        let set = d.repl.as_ref().unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(d.repl_recovery.len(), 3);
        // Fresh disks: nothing to replay on any replica.
        assert!(d.repl_recovery.iter().all(|r| r.wal_rows == 0));
        let snap = d.obs.snapshot();
        assert_eq!(snap.gauge("daemon.replication.rf", &[]), Some(3.0));
        assert_eq!(
            snap.gauge("daemon.replication.write_quorum", &[]),
            Some(2.0)
        );
        assert_eq!(snap.gauge("daemon.replication.read_quorum", &[]), Some(2.0));
        // Replica recovery is stamped as the step ④ span off step ③.
        let s3 = snap.span("daemon.step3.kb_insert").unwrap();
        let s4 = snap.span("daemon.step4.recovery").unwrap();
        assert_eq!(s3.last_end_ns, s4.last_start_ns);

        // A fault-free window quorum-writes everywhere: replicas converge
        // with no repair, and the quorum read answers like a local one.
        let out = d.monitor_replicated(10.0, 1.0, None).unwrap();
        assert_eq!(out.report.ticks, 10);
        assert!(!out.degraded);
        assert_eq!(out.primary, 0);
        assert_eq!(out.healthy, 3);
        assert!(
            out.report.transport.conserved(),
            "{:?}",
            out.report.transport
        );
        assert_eq!(out.report.transport.values_lost, 0);
        assert_eq!(d.now_s, 10.0);
        assert!(d.repl.as_ref().unwrap().converged());
        let r = d
            .quorum_query("SELECT mean(\"value\") FROM \"kernel_all_load\"")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        // Plain (non-replicated) daemons refuse the quorum paths.
        let plain = PMoveDaemon::for_preset("icl").unwrap();
        assert!(plain.quorum_query("SELECT 1").is_err());
    }

    #[test]
    fn replicated_window_runs_the_periodic_duties() {
        // Every monitoring mode closes its window through the same duty
        // list: a duty enabled on a replicated daemon must actually run.
        let mut d = PMoveDaemon::for_preset_replicated("icl", 7).unwrap();
        d.monitor_replicated(5.0, 1.0, None).unwrap();
        assert!(d.obs.snapshot().span("daemon.rollup").is_none());
        d.enable_rollups(pmove_tsdb::RollupConfig::default());
        d.monitor_replicated(5.0, 1.0, None).unwrap();
        let snap = d.obs.snapshot();
        let span = snap.span("daemon.rollup").expect("rollup ran");
        assert_eq!(span.count, 1);
        assert_eq!(span.last_start_ns, s_to_ns(d.now_s));
    }

    #[test]
    fn replicated_monitor_fails_over_and_repairs_to_convergence() {
        use pmove_hwsim::{FaultKind, FaultSchedule};
        let mut d = PMoveDaemon::for_preset_replicated("icl", 13).unwrap();
        // Warm the clock so the per-replica schedule shift is exercised.
        d.monitor_replicated(5.0, 1.0, None).unwrap();
        // Primary down for the whole second window: the coordinator must
        // promote a healthy replica and keep the quorum writable.
        let mut schedules = vec![FaultSchedule::none(); 3];
        schedules[0] = FaultSchedule::none().with_window(0.0, 100.0, FaultKind::LinkDown);
        let out = d.monitor_replicated(20.0, 1.0, Some(schedules)).unwrap();
        assert_ne!(out.primary, 0, "primary was not failed over");
        assert!(!out.degraded, "W=2 of 3 reachable is not degraded");
        assert_eq!(out.healthy, 2);
        assert_eq!(d.mode, DaemonMode::Normal);
        assert!(
            out.report.transport.conserved(),
            "{:?}",
            out.report.transport
        );
        // The downed replica missed writes; anti-entropy converges the set
        // bit-identically and stamps a repair span.
        let set = d.repl.as_ref().unwrap();
        assert!(!set.converged());
        let before_s = d.now_s;
        let rep = d.repair_replicas(8).unwrap();
        assert!(rep.converged, "{rep:?}");
        assert!(rep.cells_streamed > 0);
        assert!(d.now_s > before_s, "repair consumed modeled time");
        let snap = d.obs.snapshot();
        let span = snap.span("daemon.repair").unwrap();
        assert!(span.last_end_ns > span.last_start_ns);
        assert!(d.repl.as_ref().unwrap().converged());
        // Post-repair quorum reads see the whole window.
        let r = d
            .quorum_query("SELECT \"value\" FROM \"kernel_all_load\"")
            .unwrap();
        assert_eq!(r.rows.len(), 25);
    }

    #[test]
    fn daemon_serves_multi_tenant_queries_over_the_quorum() {
        use pmove_serve::Priority;
        let mut d = PMoveDaemon::for_preset_replicated("icl", 7).unwrap();
        d.monitor_replicated(10.0, 1.0, None).unwrap();
        let before_s = d.now_s;
        let panel = "SELECT mean(\"value\") FROM \"kernel_all_load\"";
        // Eight tenants dashboard the same panel at once: the serving
        // layer coalesces them onto one quorum-read execution each wave.
        let schedule: Vec<ServeRequest> = (0..8u64)
            .map(|i| ServeRequest {
                tenant: (i % 4) as u32,
                priority: Priority::Interactive,
                query: panel.to_string(),
                at_ns: i * 1_000,
            })
            .collect();
        let report = d
            .serve_queries(ServingConfig::default(), &schedule)
            .unwrap();
        assert!(report.conserved(), "{report:?}");
        assert_eq!(report.served, 8);
        assert_eq!(report.errors, 0);
        assert!(
            report.executions < report.served,
            "identical panels must coalesce: {report:?}"
        );
        assert!(d.now_s > before_s, "serving consumed modeled time");
        let snap = d.obs.snapshot();
        assert_eq!(snap.counter("pmove.serve.submitted_total", &[]), Some(8));
        let span = snap.span("daemon.serve").unwrap();
        assert_eq!(span.last_end_ns - span.last_start_ns, report.end_ns);
        // The default SLO set watches the histogram this run just fed; a
        // healthy run evaluates to Ok, not a page.
        d.install_default_slos();
        d.evaluate_slos();
        assert_eq!(d.slo.state("serving_p99"), Some(AlertState::Ok));

        // A plain (non-replicated) daemon serves off its host database.
        let mut plain = PMoveDaemon::for_preset("icl").unwrap();
        plain.monitor(5.0, 1.0);
        let r2 = plain
            .serve_queries(ServingConfig::default(), &schedule)
            .unwrap();
        assert!(r2.conserved(), "{r2:?}");
        assert_eq!(r2.served, 8);
        assert_eq!(r2.errors, 0);
    }

    #[test]
    fn replication_degrades_only_without_quorum_and_lifts_itself() {
        use pmove_hwsim::{FaultKind, FaultSchedule};
        let mut d = PMoveDaemon::for_preset_replicated("icl", 29).unwrap();
        // Two of three replicas unreachable through the end of the window:
        // the write quorum (W=2) is gone, so the daemon degrades.
        let mut schedules = vec![FaultSchedule::none(); 3];
        schedules[1] = FaultSchedule::none().with_window(0.0, 100.0, FaultKind::LinkDown);
        schedules[2] = FaultSchedule::none().with_window(0.0, 100.0, FaultKind::LinkDown);
        let out = d.monitor_replicated(10.0, 1.0, Some(schedules)).unwrap();
        assert!(out.degraded);
        assert_eq!(out.healthy, 1);
        let lost = DaemonMode::QuorumLost {
            healthy: 1,
            replicas: 3,
        };
        assert_eq!(d.mode, lost);
        // Monitor-only: KB mutation is refused while the quorum is gone.
        assert!(matches!(
            d.run_stream_benchmark(1 << 20),
            Err(PmoveError::DegradedMode(_))
        ));
        let snap = d.obs.snapshot();
        assert_eq!(snap.gauge("daemon.mode", &[]), Some(1.0));
        assert_eq!(
            snap.counter("daemon.replication.degraded_windows", &[]),
            Some(1)
        );
        // The replicas come back: the next healthy window lifts the
        // replication degradation on its own.
        let out2 = d.monitor_replicated(10.0, 1.0, None).unwrap();
        assert!(!out2.degraded);
        assert_eq!(d.mode, DaemonMode::Normal);
        assert_eq!(d.obs.snapshot().gauge("daemon.mode", &[]), Some(0.0));
        // Hints replayed during recovery + one repair pass reconverge.
        let rep = d.repair_replicas(8).unwrap();
        assert!(rep.converged);
    }

    #[test]
    fn replicated_mode_table_follows_the_quorum_window_by_window() {
        use pmove_hwsim::{FaultKind, FaultSchedule};
        let up = FaultSchedule::none;
        let down = || FaultSchedule::none().with_window(0.0, 100.0, FaultKind::LinkDown);
        let lost = |healthy| DaemonMode::QuorumLost {
            healthy,
            replicas: 3,
        };
        let reason =
            |n| format!("replication write quorum unreachable: {n} of 3 replicas reachable");
        // (links, mode, `daemon.mode` gauge, degraded windows, refusal)
        let table = [
            (None, DaemonMode::Normal, None, None, None),
            (
                Some([up(), down(), down()]),
                lost(1),
                Some(1.0),
                Some(1),
                Some(reason(1)),
            ),
            // Re-degrading while degraded ticks the counter again and the
            // reason takes the new healthy count.
            (
                Some([down(), down(), down()]),
                lost(0),
                Some(1.0),
                Some(2),
                Some(reason(0)),
            ),
            (None, DaemonMode::Normal, Some(0.0), Some(2), None),
            // The primary alone down fails over; W=2 holds, nothing degrades.
            (
                Some([down(), up(), up()]),
                DaemonMode::Normal,
                Some(0.0),
                Some(2),
                None,
            ),
        ];
        let mut d = PMoveDaemon::for_preset_replicated("icl", 29).unwrap();
        for (i, (links, mode, gauge, windows, refusal)) in table.into_iter().enumerate() {
            d.monitor_replicated(10.0, 1.0, links.map(Vec::from))
                .unwrap();
            let snap = d.obs.snapshot();
            let counter = snap.counter("daemon.replication.degraded_windows", &[]);
            let got = (&d.mode, snap.gauge("daemon.mode", &[]), counter);
            assert_eq!(got, (&mode, gauge, windows), "window {i}");
            let refused = refusal.map(PmoveError::DegradedMode);
            assert_eq!(d.ensure_writable().err(), refused, "window {i}");
        }
    }

    #[test]
    fn bad_sampling_numbers_are_errors_that_leave_the_clock_alone() {
        let mut d = PMoveDaemon::for_preset_replicated("icl", 7).unwrap();
        let bad = [
            (10.0, 0.0),
            (10.0, -1.0),
            (10.0, f64::NAN),
            (f64::NAN, 1.0),
            (-1.0, 1.0),
            (f64::INFINITY, 1.0),
        ];
        for (duration_s, freq_hz) in bad {
            let err = d.monitor_replicated(duration_s, freq_hz, None).unwrap_err();
            assert!(matches!(err, PmoveError::Collector(_)), "{err}");
        }
        assert_eq!(d.now_s, 0.0);
        assert!(d.obs.snapshot().span("daemon.monitor").is_none());
        assert_eq!(
            d.monitor_replicated(1.0, 1.0, None).unwrap().report.ticks,
            1
        );
    }

    #[test]
    fn monitoring_populates_the_tsdb() {
        let mut d = PMoveDaemon::for_preset("icl").unwrap();
        let report = d.monitor(10.0, 1.0);
        assert_eq!(report.ticks, 10);
        assert_eq!(report.transport.values_lost, 0);
        // Measurements exist with KB-declared names.
        let ms = d.ts.measurements();
        assert!(ms.contains(&"kernel_percpu_cpu_idle".to_string()));
        assert!(ms.contains(&"mem_numa_alloc_hit".to_string()));
        // Per-cpu measurement carries 16 fields.
        assert_eq!(d.ts.field_keys("kernel_percpu_cpu_idle").len(), 16);
        // Queryable through the normal query path.
        let r =
            d.ts.query("SELECT \"_cpu3\" FROM \"kernel_percpu_cpu_idle\"")
                .unwrap();
        assert_eq!(r.rows.len(), 10);
    }

    #[test]
    fn gpu_telemetry_joins_scenario_a_when_devices_attached() {
        let mut spec = pmove_hwsim::MachineSpec::csl();
        spec.gpus.push(pmove_hwsim::gpu::GpuSpec::gv100());
        let (mut d, _) = PMoveDaemon::boot(Machine::new(spec), DbParams::default(), None).unwrap();
        d.monitor(10.0, 1.0);
        let ms = d.ts.measurements();
        assert!(ms.contains(&"nvidia_memused".to_string()), "{ms:?}");
        assert!(ms.contains(&"nvidia_power".to_string()));
        let r =
            d.ts.query("SELECT \"_gpu0\" FROM \"nvidia_power\"")
                .unwrap();
        assert_eq!(r.rows.len(), 10);
        // Idle device: power in the idle band.
        assert!(r.rows.iter().all(|row| {
            let v = row.values["_gpu0"].unwrap();
            (30.0..80.0).contains(&v)
        }));
    }

    #[test]
    fn replicated_monitoring_matches_the_plain_path_bit_for_bit() {
        // The replicated coordinator with no faults must ingest exactly
        // the series the single-node shipper does: same collector stack,
        // same tick grid, bit-identical values on every replica.
        let mut plain = PMoveDaemon::for_preset("icl").unwrap();
        let report = plain.monitor(10.0, 1.0);
        let mut d = PMoveDaemon::for_preset_replicated("icl", 7).unwrap();
        let out = d.monitor_replicated(10.0, 1.0, None).unwrap();
        assert_eq!(out.report.ticks, report.ticks);
        assert_eq!(out.report.transport.values_lost, 0);
        assert!(!out.degraded);
        let set = d.repl.as_ref().unwrap();
        assert!(set.converged());
        for m in plain.ts.measurements() {
            let q = format!("SELECT * FROM \"{m}\"");
            let want = plain.ts.query(&q).unwrap();
            for i in 0..set.len() {
                let got = set.replica(i).query(&q).unwrap();
                assert_eq!(got.rows, want.rows, "series {m} differs on replica {i}");
            }
        }
    }

    #[test]
    fn low_frequency_always_sampled_semantics() {
        // SWTelemetry is "always sampled with a low frequency": a 1 Hz run
        // over 60 s yields 60 ticks, no losses, no zeros.
        let mut d = PMoveDaemon::for_preset("csl").unwrap();
        d.now_s = 100.0;
        let report = d.monitor(60.0, 1.0);
        assert_eq!(report.ticks, 60);
        assert_eq!(report.transport.loss_plus_zero_pct(), 0.0);
    }
}
