//! The database engine: writes, queries, retention enforcement, live
//! subscriptions, and the ingest limiter that models database-side
//! backpressure.
//!
//! Every write runs one body, `Database::ingest`: admit per point →
//! group per series → one WAL frame and commit → ledger → modeled spans →
//! publish → storage → rollup marks → version bumps.
//! [`Database::write_point`], [`Database::apply_remote`] and
//! [`Database::write`] hand it a batch of one, [`Database::write_batch`]
//! any number and alone ticks the `tsdb.batch.*` counters.

use crate::batch::{BatchOutcome, ColumnarBatch};
use crate::cache::{CacheLookup, QueryCache};
use crate::error::TsdbError;
use crate::exec::{self, ExecMode, ExecStats};
use crate::line_protocol::{parse_series_key, render_series_key};
use crate::point::Point;
use crate::query::{Frame, Query, QueryResult};
use crate::retention::RetentionPolicy;
use crate::rollup::{RollupAudit, RollupConfig, RollupStore, RollupTickReport};
use crate::series::SeriesKey;
use crate::storage::Storage;
use crate::subscribe::{Subscription, SubscriptionHub};
use crate::value::FieldValue;
use crossbeam::channel::Receiver;
use parking_lot::{Mutex, MutexGuard, RwLock};
use pmove_obs::{Counter, Histogram, Registry, Span};
use pmove_store::{
    Block, ChunkInfo, ColumnValue, RecoveryReport, RestoreReport, StoreObs, StoreOptions, TsStore,
    Vfs,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Measurement holding gap-marker annotation points for time ranges the
/// durable store lost to quarantined chunks. Matches the marker
/// measurement the PCP shipper writes for transport outages
/// (`pmove_pcp::GAP_MEASUREMENT`), so one dashboard query surfaces both
/// kinds of hole.
pub const GAP_MEASUREMENT: &str = "pmove_gap";

/// Translate a stored field value into its durable column form.
pub(crate) fn column_of_field(v: &FieldValue) -> ColumnValue {
    match v {
        FieldValue::Float(x) => ColumnValue::F64(*x),
        FieldValue::Int(x) => ColumnValue::I64(*x),
        FieldValue::Bool(x) => ColumnValue::Bool(*x),
        FieldValue::Str(x) => ColumnValue::Str(x.clone()),
    }
}

/// Translate a recovered column value back into a field value.
fn field_of_column(v: ColumnValue) -> FieldValue {
    match v {
        ColumnValue::F64(x) => FieldValue::Float(x),
        ColumnValue::I64(x) => FieldValue::Int(x),
        ColumnValue::Bool(x) => FieldValue::Bool(x),
        ColumnValue::Str(x) => FieldValue::Str(x),
    }
}

/// Mark every stored row's rollup bucket dirty — used when tiers are
/// first enabled or after storage is rebuilt wholesale from the durable
/// store, so the next tick folds the full history.
fn mark_all_rows(rs: &mut RollupStore, storage: &Storage) {
    for name in storage.measurement_names() {
        let Some(view) = storage.measurement(&name) else {
            continue;
        };
        for series in view.series_iter() {
            for &ts in series.timestamps() {
                rs.note_write(&name, ts);
            }
        }
    }
}

/// Models the maximum sustained point-insertion rate of the database.
///
/// InfluxDB 1.8 on the paper's host sustains a finite number of inserted
/// field values per second; once PCP's unbuffered samplers exceed that,
/// points are lost in transmission (Table III). The limiter is windowed:
/// at most `max_per_window` field values are accepted per `window` of
/// (virtual) time; further writes in the same window fail with
/// [`TsdbError::IngestOverloaded`].
#[derive(Debug, Clone)]
pub struct IngestLimiter {
    /// Window width in timestamp units.
    pub window: i64,
    /// Field values accepted per window.
    pub max_per_window: u64,
    current_window: i64,
    accepted_in_window: u64,
}

impl IngestLimiter {
    /// Unlimited ingest (no backpressure).
    pub fn unlimited() -> Self {
        IngestLimiter {
            window: i64::MAX,
            max_per_window: u64::MAX,
            current_window: 0,
            accepted_in_window: 0,
        }
    }

    /// Limit to `max_per_window` field values per `window` time units.
    pub fn per_window(window: i64, max_per_window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        IngestLimiter {
            window,
            max_per_window,
            current_window: i64::MIN,
            accepted_in_window: 0,
        }
    }

    /// Try to admit `n` field values at time `ts`.
    fn admit(&mut self, ts: i64, n: u64) -> Result<(), TsdbError> {
        if self.max_per_window == u64::MAX {
            return Ok(());
        }
        let w = ts.div_euclid(self.window);
        if w != self.current_window {
            self.current_window = w;
            self.accepted_in_window = 0;
        }
        if self.accepted_in_window + n > self.max_per_window {
            return Err(TsdbError::IngestOverloaded {
                accepted_in_window: self.accepted_in_window,
            });
        }
        self.accepted_in_window += n;
        Ok(())
    }
}

/// Who a row write comes from: a client (admission control and the
/// [`IngestStats`] ledger apply) or the replication layer (hint replay,
/// anti-entropy repair — already accounted where it was first accepted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// A client write: admitted by the limiter, counted in the ledger.
    Client,
    /// A replicated row: neither admitted nor counted here.
    Remote,
}

/// Counters describing the life of the database, used directly by the
/// Table III reproduction (`Inserted`, `Zeros`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Points offered to the engine.
    pub points_offered: u64,
    /// Points accepted and stored.
    pub points_inserted: u64,
    /// Field values accepted and stored (a point can carry several).
    pub values_inserted: u64,
    /// Field values that were numerically zero (the "batched zeros" the
    /// paper counts separately at high frequency).
    pub zero_values_inserted: u64,
    /// Points rejected by the ingest limiter.
    pub points_rejected: u64,
}

/// Hoisted `tsdb.*` metric handles for the hot write/query paths.
///
/// The ingest/query latency histograms are *modelled*: the engine is an
/// embedded deterministic stand-in, so instead of sampling the wall clock
/// (which would break bit-reproducibility), each operation records a
/// deterministic cost derived from the work it performed. The shapes —
/// per-field ingest cost, per-row scan cost — mirror the real database's
/// cost model, and two same-seed runs produce identical histograms.
struct EngineObs {
    registry: Arc<Registry>,
    points_offered: Counter,
    points_inserted: Counter,
    values_inserted: Counter,
    zero_values_inserted: Counter,
    points_rejected: Counter,
    queries: Counter,
    ingest_ns: Histogram,
    query_ns: Histogram,
    // Query engine accounting.
    query_executions: Counter,
    query_rows_scanned: Counter,
    query_series_pruned: Counter,
    // Query-result cache accounting.
    cache_hits: Counter,
    cache_misses: Counter,
    cache_insertions: Counter,
    cache_evictions: Counter,
    cache_invalidations: Counter,
    // Columnar batch ingest accounting.
    batch_batches: Counter,
    batch_points: Counter,
    batch_rejected: Counter,
    batch_wal_frames: Counter,
    // Rollup tier accounting.
    rollup_ticks: Counter,
    rollup_buckets_materialized: Counter,
    rollup_rows_folded: Counter,
    rollup_cells_written: Counter,
    rollup_queries_routed: Counter,
    rollup_buckets_tier: Counter,
    rollup_buckets_raw: Counter,
    // Point-in-time restore accounting.
    restore_runs: Counter,
    restore_rows: Counter,
    restore_replayed_records: Counter,
    restore_dedup_rows: Counter,
}

impl EngineObs {
    /// Modelled fixed cost of admitting one point (ns).
    const INGEST_BASE_NS: u64 = 4_000;
    /// Modelled per-field-value ingest cost (ns).
    const INGEST_PER_VALUE_NS: u64 = 450;
    /// Modelled fixed query planning/parse cost (ns).
    const QUERY_BASE_NS: u64 = 25_000;
    /// Modelled per-returned-row scan cost (ns).
    const QUERY_PER_ROW_NS: u64 = 900;

    fn new(registry: Arc<Registry>) -> EngineObs {
        let c = |name: &str| registry.counter(name, &[]);
        let buckets = pmove_obs::latency_buckets();
        EngineObs {
            points_offered: c("tsdb.points_offered"),
            points_inserted: c("tsdb.points_inserted"),
            values_inserted: c("tsdb.values_inserted"),
            zero_values_inserted: c("tsdb.zero_values_inserted"),
            points_rejected: c("tsdb.points_rejected"),
            queries: c("tsdb.queries"),
            ingest_ns: registry.histogram("tsdb.ingest_ns", &[], buckets.clone()),
            query_ns: registry.histogram("tsdb.query_ns", &[], buckets),
            query_executions: c("tsdb.query.executions"),
            query_rows_scanned: c("tsdb.query.rows_scanned"),
            query_series_pruned: c("tsdb.query.series_pruned"),
            cache_hits: c("tsdb.cache.hits"),
            cache_misses: c("tsdb.cache.misses"),
            cache_insertions: c("tsdb.cache.insertions"),
            cache_evictions: c("tsdb.cache.evictions"),
            cache_invalidations: c("tsdb.cache.invalidations"),
            batch_batches: c("tsdb.batch.batches"),
            batch_points: c("tsdb.batch.points"),
            batch_rejected: c("tsdb.batch.points_rejected"),
            batch_wal_frames: c("tsdb.batch.wal_frames"),
            rollup_ticks: c("tsdb.rollup.ticks"),
            rollup_buckets_materialized: c("tsdb.rollup.buckets_materialized"),
            rollup_rows_folded: c("tsdb.rollup.rows_folded"),
            rollup_cells_written: c("tsdb.rollup.cells_written"),
            rollup_queries_routed: c("tsdb.rollup.queries_routed"),
            rollup_buckets_tier: c("tsdb.rollup.buckets_tier"),
            rollup_buckets_raw: c("tsdb.rollup.buckets_raw"),
            restore_runs: c("tsdb.restore.runs"),
            restore_rows: c("tsdb.restore.rows_restored"),
            restore_replayed_records: c("tsdb.restore.records_replayed"),
            restore_dedup_rows: c("tsdb.restore.rows_deduped"),
            registry,
        }
    }
}

/// The embedded time-series database.
pub struct Database {
    name: String,
    storage: RwLock<Storage>,
    limiter: Mutex<IngestLimiter>,
    stats: Mutex<IngestStats>,
    retention: Mutex<Vec<RetentionPolicy>>,
    hub: SubscriptionHub,
    obs: EngineObs,
    /// Durable storage engine; `None` for a memory-only database.
    store: Option<Mutex<TsStore>>,
    /// Execution mode used by `query`/`query_parsed`.
    exec_mode: Mutex<ExecMode>,
    /// Normalized-text query-result cache.
    cache: Mutex<QueryCache>,
    /// Per-measurement write version: bumped on every accepted write and
    /// on retention/recovery, validating cache entries lazily.
    versions: Mutex<HashMap<String, u64>>,
    /// Continuous-query rollup tiers; `None` until
    /// [`Database::enable_rollups`]. Lock order: `storage` is always
    /// acquired before `rollups`, never the other way around.
    rollups: RwLock<Option<RollupStore>>,
}

impl Database {
    /// Create a database with unlimited ingest and the default infinite
    /// `autogen` retention policy.
    pub fn new(name: impl Into<String>) -> Self {
        Database::with_obs(name, Registry::disabled())
    }

    /// [`Database::new`] with an observability registry attached: the
    /// write and query paths update `tsdb.*` counters and the modelled
    /// ingest/query latency histograms.
    pub fn with_obs(name: impl Into<String>, registry: Arc<Registry>) -> Self {
        Database {
            name: name.into(),
            storage: RwLock::new(Storage::new()),
            limiter: Mutex::new(IngestLimiter::unlimited()),
            stats: Mutex::new(IngestStats::default()),
            retention: Mutex::new(vec![RetentionPolicy::infinite("autogen")]),
            hub: SubscriptionHub::new(),
            obs: EngineObs::new(registry),
            store: None,
            exec_mode: Mutex::new(ExecMode::default()),
            cache: Mutex::new(QueryCache::default()),
            versions: Mutex::new(HashMap::new()),
            rollups: RwLock::new(None),
        }
    }

    /// Open a durable database over `vfs`: persisted chunks and surviving
    /// WAL records are replayed into memory, and every subsequent write is
    /// acknowledged only after its WAL group commit. Returns the database
    /// plus what recovery found.
    pub fn open(
        name: impl Into<String>,
        vfs: Arc<dyn Vfs>,
        opts: StoreOptions,
    ) -> Result<(Self, RecoveryReport), TsdbError> {
        Database::open_with_obs(name, vfs, opts, Registry::disabled())
    }

    /// [`Database::open`] with observability: `tsdb.*` engine metrics plus
    /// the store's `wal.*` / `compaction.*` series (exported under
    /// `pmove.self.`).
    pub fn open_with_obs(
        name: impl Into<String>,
        vfs: Arc<dyn Vfs>,
        opts: StoreOptions,
        registry: Arc<Registry>,
    ) -> Result<(Self, RecoveryReport), TsdbError> {
        let name = name.into();
        let store_obs = StoreObs::new(&registry, &name);
        let mut db = Database::with_obs(name, registry);
        let (store, report) = TsStore::open_with_obs(vfs, opts, store_obs)?;
        db.adopt_store(store)?;
        Ok((db, report))
    }

    /// Attach `store` for subsequent writes and replay its merged durable
    /// view into in-memory storage.
    fn adopt_store(&mut self, store: TsStore) -> Result<(), TsdbError> {
        self.store = Some(Mutex::new(store));
        self.rebuild_from_store()?;
        // Chunks quarantined during recovery left holes in the durable
        // view; annotate each lost range so queries surface an explicit
        // gap marker instead of a silently shorter series.
        self.annotate_quarantine_gaps();
        Ok(())
    }

    /// Insert the store's merged blocks — ascending (series, field,
    /// type), timestamps ascending within each — into storage. A series'
    /// blocks are adjacent, so its key is parsed and its field names
    /// interned once; its rows are appended in timestamp order by walking
    /// the blocks' columns side by side, each row taking the cells of the
    /// blocks whose next timestamp it is.
    fn load_blocks(&self, blocks: Vec<Block>) -> Result<(), TsdbError> {
        let mut storage = self.storage.write();
        let mut blocks = blocks.into_iter().peekable();
        while let Some(first) = blocks.next() {
            let (measurement, tags) = parse_series_key(&first.series)?;
            let mut series = storage.append(&SeriesKey { measurement, tags });
            let mut columns = Vec::new();
            let mut next = Some(first);
            while let Some(b) = next {
                let cells = b.ts.into_iter().zip(b.values).peekable();
                columns.push((series.field(&b.field), cells));
                next = blocks.next_if(|n| n.series == b.series);
            }
            loop {
                let heads = columns.iter_mut().filter_map(|(_, cells)| cells.peek());
                let Some(timestamp) = heads.map(|cell| cell.0).min() else {
                    break;
                };
                let row = columns.iter_mut().filter_map(|(field, cells)| {
                    let (_, value) = cells.next_if(|cell| cell.0 == timestamp)?;
                    Some((*field, field_of_column(value)))
                });
                series.row(timestamp, row);
            }
        }
        Ok(())
    }

    /// Rebuild the in-memory view from the durable store: the store is
    /// re-scanned (CRC-verifying every chunk, quarantining damage as it
    /// goes) and storage is replaced with exactly what survived. Every
    /// known measurement's write version is bumped — including
    /// measurements that vanished entirely — so the query cache can never
    /// serve pre-rebuild rows. Returns `false` for a memory-only database.
    ///
    /// No gap markers are written here: this is the step that turns a
    /// quarantine into visible Merkle divergence so anti-entropy can
    /// repair the hole from replica peers, and a repaired range is not a
    /// gap. Callers with no repair path (standalone nodes, unreachable
    /// quorums) follow up with
    /// [`Database::annotate_quarantine_gaps`].
    pub fn rebuild_from_store(&self) -> Result<bool, TsdbError> {
        let Some(store) = &self.store else {
            return Ok(false);
        };
        let blocks = store.lock().scan_blocks()?;
        *self.storage.write() = Storage::new();
        self.load_blocks(blocks)?;
        {
            let names = self.storage.read().measurement_names();
            let mut versions = self.versions.lock();
            for v in versions.values_mut() {
                *v += 1;
            }
            for name in names {
                versions.entry(name).or_insert(1);
            }
        }
        // The in-memory view was replaced wholesale: drop every
        // materialized tier and re-mark what now exists, so the next tick
        // refolds the rebuilt truth (storage lock before rollups lock).
        {
            let storage = self.storage.read();
            let mut guard = self.rollups.write();
            if let Some(rs) = guard.as_mut() {
                rs.clear();
                mark_all_rows(rs, &storage);
            }
        }
        Ok(true)
    }

    /// Insert one in-memory [`GAP_MEASUREMENT`] marker point for every
    /// chunk the attached store has quarantined with a recoverable time
    /// range. The markers are deliberately not persisted: they are
    /// re-derived from the store's quarantine record on every boot/rebuild,
    /// so they can never be lost to the very corruption they describe.
    /// Idempotent — each chunk's marker lands on a fixed (series,
    /// timestamp) cell, so re-annotation overwrites rather than
    /// duplicates. No-op for a memory-only database.
    pub fn annotate_quarantine_gaps(&self) {
        let quarantined = self
            .store()
            .map_or(Vec::new(), |s| s.quarantined().to_vec());
        let mut marked = Vec::new();
        {
            let mut storage = self.storage.write();
            for q in &quarantined {
                let Some((lo, hi)) = q.time_range else {
                    continue;
                };
                storage.insert(
                    Point::new(GAP_MEASUREMENT)
                        .tag("source", "store")
                        .tag("seq", format!("{:08}", q.seq))
                        .field("gap_start_s", lo as f64 / 1e9)
                        .field("gap_end_s", hi as f64 / 1e9)
                        .field("rows_lost", q.rows as f64)
                        .timestamp(hi),
                );
                marked.push(hi);
            }
        }
        if marked.is_empty() {
            return;
        }
        if let Some(rs) = self.rollups.write().as_mut() {
            for ts in marked {
                rs.note_write(GAP_MEASUREMENT, ts);
            }
        }
        self.bump_version(GAP_MEASUREMENT);
    }

    /// The durable store behind this database, locked — scrubbing,
    /// backups, compaction and the quarantine record are called on it
    /// directly (`db.store()?.backup_now()`). `None` when memory-only.
    /// Hold the guard for one statement only: every `Database` method
    /// that touches the store takes the same lock.
    pub fn store(&self) -> Option<MutexGuard<'_, TsStore>> {
        self.store.as_ref().map(|s| s.lock())
    }

    /// Point-in-time restore: rebuild this database from the backup at
    /// `src`. The newest snapshot generation with `fence_vts <= t_vts` is
    /// loaded into `target` and archived WAL records up to `t_vts` are
    /// replayed on top, every CRC verified — a typed
    /// [`TsdbError::Backup`] refusal on any gap or corruption, never a
    /// silently-wrong restore. On success the attached store is replaced,
    /// series and rollup tiers are rebuilt from the restored bytes, and
    /// every measurement's write version is bumped so the query cache can
    /// never serve pre-restore rows.
    pub fn restore_at(
        &mut self,
        src: &dyn Vfs,
        target: Arc<dyn Vfs>,
        opts: StoreOptions,
        t_vts: i64,
    ) -> Result<RestoreReport, TsdbError> {
        let report = pmove_store::restore_at(src, Arc::clone(&target), t_vts)?;
        // The restored store deliberately gets no per-store `store.*`
        // metrics: registering a StoreObs would publish zero-valued
        // `store.scrub.last_full_pass` / `store.backup.last_success`
        // heartbeat gauges under this database's label, and the staleness
        // SLOs alert on the *oldest* matching label set — a restore drill
        // would page the very objectives it exists to protect. The
        // restore itself is accounted by the `tsdb.restore.*` counters.
        let store = TsStore::open(target, opts)?.0;
        self.store = Some(Mutex::new(store));
        self.rebuild_from_store()?;
        let obs = &self.obs;
        obs.restore_runs.inc();
        obs.restore_rows.add(report.restored_rows);
        obs.restore_replayed_records.add(report.replayed_records);
        obs.restore_dedup_rows.add(report.dedup_rows);
        Ok(report)
    }

    /// Number of stored cells (series × timestamp × field triples) — the
    /// unit the integrity audit counts corruption and repair in.
    pub fn cell_count(&self) -> u64 {
        let mut n = 0u64;
        self.for_each_cell(&mut |_, _, _, _| n += 1);
        n
    }

    /// True when writes are backed by the durable storage engine.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// Flush the store's memtable into a compressed immutable chunk and
    /// truncate the WAL. `Ok(None)` when memory-only or nothing to flush.
    pub fn flush(&self) -> Result<Option<ChunkInfo>, TsdbError> {
        match &self.store {
            Some(store) => Ok(store.lock().flush()?),
            None => Ok(None),
        }
    }

    /// Database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Install an ingest limiter (replacing the current one).
    pub fn set_ingest_limiter(&self, limiter: IngestLimiter) {
        *self.limiter.lock() = limiter;
    }

    /// Write one point. Fails on empty fields or limiter rejection; on
    /// success the point is stored, counted, and published to subscribers.
    pub fn write_point(&self, point: Point) -> Result<(), TsdbError> {
        self.write(point, Origin::Client, &Span::none(), 0).0
    }

    /// Apply a point replicated from another node (hinted-handoff replay
    /// or anti-entropy repair). Unlike [`Database::write_point`] this
    /// bypasses the ingest limiter and the client-facing [`IngestStats`]
    /// ledger — the replication coordinator owns value accounting and a
    /// repaired cell was already counted when it was first accepted — but
    /// it keeps the WAL durability barrier, the live-subscription publish,
    /// and the per-measurement write-version bump, so the LRU query cache
    /// can never serve pre-repair rows.
    pub fn apply_remote(&self, point: Point) -> Result<(), TsdbError> {
        self.write(point, Origin::Remote, &Span::none(), 0).0
    }

    /// One point from either origin under the caller's span: a batch of
    /// one through the write body. Returns the write result plus
    /// the modeled end timestamp (`start_ns` for a refused write) so the
    /// caller can close its own span after the ingest.
    pub fn write(
        &self,
        point: Point,
        origin: Origin,
        span: &Span,
        start_ns: u64,
    ) -> (Result<(), TsdbError>, u64) {
        match self.ingest([point], origin, span, start_ns) {
            Ok((mut out, end_ns)) => (out.results.pop().expect("one result a point"), end_ns),
            Err(e) => (Err(e), start_ns),
        }
    }

    /// Write many points as one batch: admitted per point in arrival
    /// order, grouped per series, framed into **one** WAL record and
    /// group-committed once — a crash mid-frame replays or drops the
    /// whole batch, never a prefix (see `store::wal` framing). However a
    /// stream is cut into batches, the accepted set, the ledger and the
    /// stored rows are the same bit for bit.
    ///
    /// A WAL commit error fails the entire call before anything is counted
    /// inserted or published; the caller may retry the same batch (last
    /// write wins makes the retry idempotent).
    pub fn write_batch(&self, points: Vec<Point>) -> Result<BatchOutcome, TsdbError> {
        let (out, _) = self.ingest(points, Origin::Client, &Span::none(), 0)?;
        self.obs.batch_batches.inc();
        self.obs.batch_points.add(out.accepted as u64);
        self.obs.batch_rejected.add(out.rejected as u64);
        if out.accepted > 0 && self.store.is_some() {
            self.obs.batch_wal_frames.inc();
        }
        Ok(out)
    }

    /// The write body under every entry point. Admission — the
    /// `points_offered` tick, the empty-field check, the ingest limiter
    /// keyed on point timestamps — runs per point in arrival order, and
    /// with the [`IngestStats`] ledger applies to [`Origin::Client`]
    /// only; the WAL barrier, the subscriber publish, the rollup marks
    /// and the write-version bumps apply to every accepted point. The
    /// modeled spans nest under `span` from `start_ns` on the virtual
    /// clock: `tsdb.ingest` around `store.wal.group_commit` (durable
    /// only) and then one `tsdb.shard_ingest` a point, its status the
    /// Merkle shard of the point's series (a label the trace goldens
    /// pin). Returns the outcome plus the modeled end timestamp
    /// (`start_ns` when nothing was accepted).
    fn ingest(
        &self,
        points: impl IntoIterator<Item = Point>,
        origin: Origin,
        span: &Span,
        start_ns: u64,
    ) -> Result<(BatchOutcome, u64), TsdbError> {
        let client = origin == Origin::Client;
        let points = points.into_iter();
        let mut results = Vec::with_capacity(points.size_hint().0);
        let mut batch = ColumnarBatch::default();
        let mut rejected = 0usize;
        // Subscribers get a copy of each point admitted while they listen,
        // in arrival order, once the batch is durable.
        let listening = !self.hub.is_empty();
        let mut heard = Vec::new();
        {
            // Stats and limiter move together so a concurrent writer
            // can't interleave between the offered tick and the admission
            // decision.
            let mut gate = client.then(|| (self.stats.lock(), self.limiter.lock()));
            for point in points {
                if let Some((stats, _)) = &mut gate {
                    stats.points_offered += 1;
                }
                let verdict = match &mut gate {
                    _ if point.fields.is_empty() => Err(TsdbError::EmptyFields),
                    Some((stats, limiter)) => limiter
                        .admit(point.timestamp, point.field_count() as u64)
                        .inspect_err(|_| {
                            stats.points_rejected += 1;
                            rejected += 1;
                        }),
                    None => Ok(()),
                };
                if verdict.is_ok() {
                    if listening {
                        heard.push(point.clone());
                    }
                    batch.push(point);
                }
                results.push(verdict);
            }
        }
        if client {
            self.obs.points_offered.add(results.len() as u64);
            self.obs.points_rejected.add(rejected as u64);
        }
        let mut outcome = BatchOutcome {
            results,
            accepted: batch.points,
            rejected,
            series: batch.series().len(),
            commit_ns: 0,
        };
        if outcome.accepted == 0 {
            return Ok((outcome, start_ns));
        }
        // Durability barrier: when a store is attached, the batch rides
        // one WAL frame and one group commit before it is counted,
        // published, or made queryable: an acknowledged write is a
        // durable write.
        if let Some(store) = &self.store {
            let blocks = batch.blocks();
            let mut st = store.lock();
            st.append_batch(blocks);
            let info = st.commit()?;
            outcome.commit_ns = st.modeled_commit_ns(info.bytes).max(1);
        }
        let ingest = span.child("tsdb.ingest", start_ns);
        let mut end_ns = start_ns + outcome.commit_ns;
        if outcome.commit_ns > 0 {
            ingest.child("store.wal.group_commit", start_ns).end(end_ns);
        }
        let (mut values, mut zeros) = (0u64, 0u64);
        for sc in batch.series() {
            let status = span.is_recording().then(|| {
                let series = render_series_key(&sc.key.measurement, &sc.key.tags);
                format!("shard-{:02}", crate::repl::merkle_shard(&series))
            });
            for (_, fields) in &sc.rows {
                let n = fields.len() as u64;
                let modeled_ns = EngineObs::INGEST_BASE_NS + EngineObs::INGEST_PER_VALUE_NS * n;
                if client {
                    values += n;
                    zeros += fields.values().filter(|v| v.is_zero()).count() as u64;
                    span.observe(&self.obs.ingest_ns, modeled_ns);
                }
                if let Some(status) = &status {
                    ingest
                        .child("tsdb.shard_ingest", end_ns)
                        .end_status(end_ns + modeled_ns, status);
                }
                end_ns += modeled_ns;
            }
        }
        ingest.end(end_ns);
        if client {
            {
                let mut stats = self.stats.lock();
                stats.points_inserted += outcome.accepted as u64;
                stats.values_inserted += values;
                stats.zero_values_inserted += zeros;
            }
            self.obs.points_inserted.add(outcome.accepted as u64);
            self.obs.values_inserted.add(values);
            self.obs.zero_values_inserted.add(zeros);
        } else {
            let applied = self.obs.registry.counter("tsdb.repl.remote_applied", &[]);
            applied.add(outcome.accepted as u64);
        }
        for point in &heard {
            self.hub.publish(point);
        }
        batch.apply(&mut self.storage.write());
        // Queries hold `rollups` shared for as long as they run: wait for
        // them only when there are tiers to mark.
        if self.rollups.read().is_some() {
            if let Some(rs) = self.rollups.write().as_mut() {
                for sc in batch.series() {
                    for &(ts, _) in &sc.rows {
                        rs.note_write(&sc.key.measurement, ts);
                    }
                }
            }
        }
        for measurement in batch.measurements() {
            self.bump_version(&measurement);
        }
        Ok((outcome, end_ns))
    }

    /// Current write version of one measurement: bumped on every accepted
    /// local or remote write (and on retention/recovery). Exposed so the
    /// replication tests can audit cache freshness.
    pub fn write_version(&self, measurement: &str) -> u64 {
        self.versions.lock().get(measurement).copied().unwrap_or(0)
    }

    /// Visit every stored cell in a deterministic order: measurements
    /// sorted by name, series ascending by id, rows ascending by
    /// timestamp, fields sorted by name. This is the walk the replication
    /// layer's Merkle trees are built over.
    pub fn for_each_cell(&self, f: &mut dyn FnMut(&SeriesKey, i64, &str, &FieldValue)) {
        self.storage.read().for_each_cell(f);
    }

    /// Enable continuous-query rollup tiers with the given configuration.
    /// Every row already stored is marked dirty so the first
    /// [`Database::rollup_tick`] materializes the existing history; rows
    /// written afterwards mark their buckets incrementally.
    pub fn enable_rollups(&self, cfg: RollupConfig) {
        let mut rs = RollupStore::new(cfg);
        {
            let storage = self.storage.read();
            mark_all_rows(&mut rs, &storage);
        }
        *self.rollups.write() = Some(rs);
    }

    /// Run one rollup materialization pass: every bucket marked dirty since
    /// the last tick is re-folded from raw storage into each tier. Bumps
    /// the write version of every measurement whose tiers changed so the
    /// query cache can never serve pre-rollup routing decisions. Returns
    /// `None` when rollups are not enabled.
    pub fn rollup_tick(&self) -> Option<RollupTickReport> {
        let (report, touched) = {
            // Lock order: storage before rollups. Readers of `rollups`
            // never wait on `storage` while holding it, so no cycle.
            let storage = self.storage.read();
            let mut guard = self.rollups.write();
            let rs = guard.as_mut()?;
            rs.tick(&storage)
        };
        for name in &touched {
            self.bump_version(name);
        }
        self.obs.rollup_ticks.inc();
        self.obs
            .rollup_buckets_materialized
            .add(report.buckets_materialized);
        self.obs.rollup_rows_folded.add(report.rows_folded);
        self.obs.rollup_cells_written.add(report.cells_written);
        Some(report)
    }

    /// Conservation audit across the rollup path: every raw row must be
    /// accounted for by each materialized tier (tiers may hold **more**
    /// rows than raw after retention — tiers outlive raw deliberately —
    /// but never fewer once dirty buckets are drained). `None` when
    /// rollups are not enabled.
    pub fn rollup_audit(&self) -> Option<RollupAudit> {
        let storage = self.storage.read();
        let raw = storage.total_rows() as u64;
        self.rollups.read().as_ref().map(|rs| rs.audit(raw))
    }

    /// Materialized tier cells currently held across all measurements
    /// and tiers (0 when rollups are disabled).
    pub fn rollup_cell_count(&self) -> u64 {
        self.rollups.read().as_ref().map_or(0, |rs| rs.cell_count())
    }

    /// Run a textual query.
    pub fn query(&self, text: &str) -> Result<QueryResult, TsdbError> {
        let q = Query::parse(text)?;
        self.query_parsed(&q)
    }

    /// Run a pre-parsed query in the database's current execution mode.
    pub fn query_parsed(&self, q: &Query) -> Result<QueryResult, TsdbError> {
        self.query_with_mode(q, *self.exec_mode.lock())
    }

    /// Run a pre-parsed query in an explicit execution mode.
    pub fn query_with_mode(&self, q: &Query, mode: ExecMode) -> Result<QueryResult, TsdbError> {
        let (frame, _) = self.query_arc_cached(q, mode)?;
        Ok(frame.into_rows())
    }

    /// Run a pre-parsed query in the database's current execution mode
    /// and return its columns, shared with the result cache: what
    /// in-tree readers call.
    pub fn query_frame(&self, q: &Query) -> Result<Arc<Frame>, TsdbError> {
        let (frame, _) = self.query_arc_cached(q, *self.exec_mode.lock())?;
        Ok(frame)
    }

    /// Like [`Database::query_with_mode`] but returns the shared frame
    /// (nothing copied on cache hits) plus whether the result cache
    /// served it. The serving layer uses the flag for per-tenant hit/miss
    /// accounting without double-running the query.
    pub fn query_arc_cached(
        &self,
        q: &Query,
        mode: ExecMode,
    ) -> Result<(Arc<Frame>, bool), TsdbError> {
        // Capture the measurement's write version BEFORE executing: if a
        // write lands mid-query the entry is recorded under the older
        // version and fails validation on its next lookup — conservative,
        // never stale.
        let cache_enabled = self.cache.lock().capacity() > 0;
        let (cache_key, version) = if cache_enabled {
            let version = self.write_version(&q.measurement);
            let key = q.normalized();
            if let Some(hit) = self.cache_lookup(&key, version) {
                self.record_query_served(hit.len() as u64);
                return Ok((hit, true));
            }
            (Some(key), version)
        } else {
            (None, 0)
        };

        let run = {
            // Lock order: storage before rollups, matching every writer.
            let storage = self.storage.read();
            let rollups = self.rollups.read();
            exec::run_frame(&storage, q, mode, rollups.as_ref())
        };
        self.obs.query_executions.inc();
        let (result, stats) = run.inspect_err(|_| self.record_query_served(0))?;
        self.record_query_served(result.len() as u64);
        self.record_exec_stats(&stats);
        let result = Arc::new(result);
        if let Some(key) = cache_key {
            let evicted = self.cache.lock().insert(key, version, result.clone());
            self.obs.cache_insertions.inc();
            self.obs.cache_evictions.add(evicted as u64);
        }
        Ok((result, false))
    }

    /// Served-query accounting: one `tsdb.queries` tick plus the modelled
    /// latency — identical for executed and cache-served queries, so
    /// enabling the cache never changes the exported histograms.
    fn record_query_served(&self, rows: u64) {
        self.obs.queries.inc();
        self.obs
            .query_ns
            .record(EngineObs::QUERY_BASE_NS + EngineObs::QUERY_PER_ROW_NS * rows);
    }

    fn record_exec_stats(&self, stats: &ExecStats) {
        self.obs.query_rows_scanned.add(stats.rows_scanned);
        self.obs.query_series_pruned.add(stats.series_pruned);
        if stats.rollup_routed {
            self.obs.rollup_queries_routed.inc();
        }
        self.obs.rollup_buckets_tier.add(stats.rollup_buckets_tier);
        self.obs.rollup_buckets_raw.add(stats.rollup_buckets_raw);
    }

    fn cache_lookup(&self, key: &str, version: u64) -> Option<Arc<Frame>> {
        let lookup = self.cache.lock().get(key, version);
        match lookup {
            CacheLookup::Hit(r) => {
                self.obs.cache_hits.inc();
                Some(r)
            }
            CacheLookup::Stale => {
                self.obs.cache_invalidations.inc();
                self.obs.cache_misses.inc();
                None
            }
            CacheLookup::Miss => {
                self.obs.cache_misses.inc();
                None
            }
        }
    }

    /// The name is copied at the measurement's first bump only.
    fn bump_version(&self, measurement: &str) {
        let mut versions = self.versions.lock();
        match versions.get_mut(measurement) {
            Some(v) => *v += 1,
            None => drop(versions.insert(measurement.to_string(), 1)),
        }
    }

    /// Bump every measurement's version. Iterates storage's measurement
    /// names (not the version map) so measurements populated outside
    /// `write_point` — e.g. recovered from the durable store — are covered.
    fn bump_all_versions(&self) {
        let names = self.storage.read().measurement_names();
        let mut versions = self.versions.lock();
        for name in names {
            *versions.entry(name).or_insert(0) += 1;
        }
    }

    /// Set the execution mode used by `query`/`query_parsed`.
    pub fn set_exec_mode(&self, mode: ExecMode) {
        *self.exec_mode.lock() = mode;
    }

    /// The current execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        *self.exec_mode.lock()
    }

    /// Resize the query-result cache (0 disables and clears it).
    pub fn set_query_cache_capacity(&self, capacity: usize) {
        self.cache.lock().set_capacity(capacity);
    }

    /// Number of currently cached query results.
    pub fn query_cache_len(&self) -> usize {
        self.cache.lock().len()
    }

    /// Current ingest statistics snapshot.
    pub fn stats(&self) -> IngestStats {
        *self.stats.lock()
    }

    /// Reset the ingest statistics (between experiment runs).
    pub fn reset_stats(&self) {
        *self.stats.lock() = IngestStats::default();
    }

    /// Register a retention policy.
    pub fn add_retention_policy(&self, policy: RetentionPolicy) {
        self.retention.lock().push(policy);
    }

    /// Enforce the tightest retention policy at virtual time `now`:
    /// expired rows are dropped from in-memory storage AND, when a store
    /// is attached, expired cells are compacted out of the on-disk chunk
    /// set. Returns rows removed from memory.
    pub fn enforce_retention(&self, now: i64) -> Result<usize, TsdbError> {
        let cutoff = self
            .retention
            .lock()
            .iter()
            .filter_map(|p| p.cutoff(now))
            .max();
        let Some(cutoff) = cutoff else {
            return Ok(0);
        };
        let removed = self.storage.write().drop_before(cutoff);
        if removed > 0 {
            self.bump_all_versions();
        }
        if let Some(store) = &self.store {
            store.lock().enforce_retention(cutoff)?;
        }
        Ok(removed)
    }

    /// Subscribe to live points.
    pub fn subscribe(&self, sub: Subscription) -> Receiver<Point> {
        self.hub.subscribe(sub)
    }

    /// Sorted list of measurement names.
    pub fn measurements(&self) -> Vec<String> {
        self.storage.read().measurement_names()
    }

    /// Field keys of one measurement.
    pub fn field_keys(&self, measurement: &str) -> Vec<String> {
        self.storage
            .read()
            .measurement(measurement)
            .map(|m| m.field_keys())
            .unwrap_or_default()
    }

    /// Distinct values of one tag key within a measurement.
    pub fn tag_values(&self, measurement: &str, tag_key: &str) -> Vec<String> {
        self.storage
            .read()
            .measurement(measurement)
            .map(|m| m.tag_values(tag_key))
            .unwrap_or_default()
    }

    /// Total number of stored rows (all measurements).
    pub fn total_rows(&self) -> usize {
        self.storage.read().total_rows()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("name", &self.name)
            .field("rows", &self.total_rows())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::FieldValue;

    fn pt(ts: i64, v: f64) -> Point {
        Point::new("m").tag("tag", "o1").field("v", v).timestamp(ts)
    }

    #[test]
    fn write_and_query_roundtrip() {
        let db = Database::new("test");
        for t in 0..5 {
            db.write_point(pt(t, t as f64)).unwrap();
        }
        let r = db.query("SELECT \"v\" FROM \"m\" WHERE tag='o1'").unwrap();
        assert_eq!(r.rows.len(), 5);
        assert_eq!(db.stats().points_inserted, 5);
    }

    #[test]
    fn empty_fields_rejected() {
        let db = Database::new("test");
        assert_eq!(db.write_point(Point::new("m")), Err(TsdbError::EmptyFields));
        assert_eq!(db.stats().points_offered, 1);
        assert_eq!(db.stats().points_inserted, 0);
    }

    #[test]
    fn limiter_drops_excess_within_window() {
        let db = Database::new("test");
        db.set_ingest_limiter(IngestLimiter::per_window(10, 3));
        // 5 single-field points in window [0, 10): only 3 admitted.
        let accepted = (0..5).filter(|&i| db.write_point(pt(i, 1.0)).is_ok());
        assert_eq!(accepted.count(), 3);
        assert_eq!(db.stats().points_rejected, 2);
        // next window admits again
        assert!(db.write_point(pt(10, 1.0)).is_ok());
    }

    #[test]
    fn zero_values_counted() {
        let db = Database::new("test");
        db.write_point(Point::new("m").field("a", 0.0).field("b", 1.0).timestamp(1))
            .unwrap();
        assert_eq!(db.stats().zero_values_inserted, 1);
        assert_eq!(db.stats().values_inserted, 2);
    }

    #[test]
    fn retention_enforcement() {
        let db = Database::new("test");
        db.add_retention_policy(RetentionPolicy::keep("short", 10));
        for t in 0..20 {
            db.write_point(pt(t, 1.0)).unwrap();
        }
        let removed = db.enforce_retention(20).unwrap();
        assert_eq!(removed, 10);
        assert_eq!(db.total_rows(), 10);
    }

    #[test]
    fn line_protocol_ingest() {
        let db = Database::new("test");
        let points = crate::line_protocol::parse_batch("m,tag=o1 v=1 1\nm,tag=o1 v=2 2\n");
        assert_eq!(db.write_batch(points.unwrap()).unwrap().accepted, 2);
        let r = db.query("SELECT \"v\" FROM \"m\"").unwrap();
        assert_eq!(r.rows[1].values["v"], Some(2.0));
    }

    #[test]
    fn subscription_sees_writes() {
        let db = Database::new("test");
        let rx = db.subscribe(Subscription::measurement("m"));
        db.write_point(pt(1, 5.0)).unwrap();
        let got = crate::subscribe::drain(&rx);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].fields["v"], FieldValue::Float(5.0));
    }

    #[test]
    fn reset_stats_zeroes() {
        let db = Database::new("test");
        db.write_point(pt(1, 1.0)).unwrap();
        db.reset_stats();
        assert_eq!(db.stats(), IngestStats::default());
    }

    #[test]
    fn obs_counters_mirror_ingest_stats() {
        let reg = Registry::shared();
        let db = Database::with_obs("test", reg.clone());
        db.set_ingest_limiter(IngestLimiter::per_window(10, 3));
        for i in 0..5 {
            let _ = db.write_point(pt(i, (i % 2) as f64));
        }
        db.query("SELECT \"v\" FROM \"m\"").unwrap();
        let st = db.stats();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("tsdb.points_offered", &[]),
            Some(st.points_offered)
        );
        assert_eq!(
            snap.counter("tsdb.points_inserted", &[]),
            Some(st.points_inserted)
        );
        assert_eq!(
            snap.counter("tsdb.points_rejected", &[]),
            Some(st.points_rejected)
        );
        assert_eq!(
            snap.counter("tsdb.zero_values_inserted", &[]),
            Some(st.zero_values_inserted)
        );
        assert_eq!(snap.counter("tsdb.queries", &[]), Some(1));
        // Modelled latencies: one histogram sample per insert / per query,
        // deterministic across runs.
        let ingest = snap.histogram("tsdb.ingest_ns", &[]).unwrap();
        assert_eq!(ingest.count, st.points_inserted);
        assert_eq!(ingest.max, 4_450);
        let query = snap.histogram("tsdb.query_ns", &[]).unwrap();
        assert_eq!(query.count, 1);
        assert_eq!(query.sum, 25_000 + 900 * 3);
    }

    #[test]
    fn durable_write_survives_reopen() {
        let vfs: Arc<dyn Vfs> = Arc::new(pmove_store::MemDisk::new(1));
        let opts = StoreOptions::default();
        let (db, report) = Database::open("test", vfs.clone(), opts).unwrap();
        assert!(db.is_durable());
        assert_eq!(report, RecoveryReport::default());
        for t in 0..5 {
            db.write_point(pt(t, t as f64)).unwrap();
        }
        drop(db);
        let (db, report) = Database::open("test", vfs, opts).unwrap();
        assert_eq!(report.wal_rows, 5);
        let r = db.query("SELECT \"v\" FROM \"m\" WHERE tag='o1'").unwrap();
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.rows[4].values["v"], Some(4.0));
    }

    #[test]
    fn flush_and_compact_roundtrip_through_engine() {
        let vfs: Arc<dyn Vfs> = Arc::new(pmove_store::MemDisk::new(2));
        let opts = StoreOptions {
            flush_threshold_rows: 1_000_000, // manual flushes only
            compact_min_chunks: 1_000_000,
        };
        let (db, _) = Database::open("test", vfs.clone(), opts).unwrap();
        for t in 0..4 {
            db.write_point(pt(t, t as f64)).unwrap();
        }
        let chunk = db.flush().unwrap().unwrap();
        assert_eq!(chunk.rows, 4);
        for t in 4..8 {
            db.write_point(pt(t, t as f64)).unwrap();
        }
        db.flush().unwrap().unwrap();
        let report = db.store().unwrap().compact(None).unwrap().unwrap();
        assert_eq!(report.chunks_in, 2);
        assert_eq!(report.rows_out, 8);
        // Chunks only — the WAL is empty — and a reopen sees all rows.
        drop(db);
        let (db, report) = Database::open("test", vfs, opts).unwrap();
        assert_eq!(report.chunks_loaded, 1);
        assert_eq!(report.wal_rows, 0);
        assert_eq!(db.query("SELECT \"v\" FROM \"m\"").unwrap().rows.len(), 8);
    }

    #[test]
    fn retention_enforcement_reaches_disk() {
        let vfs: Arc<dyn Vfs> = Arc::new(pmove_store::MemDisk::new(3));
        let opts = StoreOptions {
            flush_threshold_rows: 1_000_000,
            compact_min_chunks: 1_000_000,
        };
        let (db, _) = Database::open("test", vfs.clone(), opts).unwrap();
        db.add_retention_policy(RetentionPolicy::keep("short", 10));
        for t in 0..20 {
            db.write_point(pt(t, t as f64)).unwrap();
        }
        db.flush().unwrap();
        let removed = db.enforce_retention(20).unwrap();
        assert_eq!(removed, 10);
        // Queries after enforcement see only in-window points...
        let r = db.query("SELECT \"v\" FROM \"m\"").unwrap();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.rows[0].values["v"], Some(10.0));
        // ...and so does a cold reopen: the expired cells are gone from
        // the chunk set, not just from memory.
        drop(db);
        let (db, _) = Database::open("test", vfs, opts).unwrap();
        let r = db.query("SELECT \"v\" FROM \"m\"").unwrap();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.rows[0].values["v"], Some(10.0));
    }

    #[test]
    fn durable_obs_exports_wal_metrics() {
        let reg = Registry::shared();
        let vfs: Arc<dyn Vfs> = Arc::new(pmove_store::MemDisk::new(4));
        let (db, _) =
            Database::open_with_obs("influx", vfs, StoreOptions::default(), reg.clone()).unwrap();
        for t in 0..3 {
            db.write_point(pt(t, 1.0)).unwrap();
        }
        db.flush().unwrap();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("wal.records_appended", &[("db", "influx")]),
            Some(3)
        );
        assert_eq!(snap.counter("wal.commits", &[("db", "influx")]), Some(3));
        assert_eq!(
            snap.counter("compaction.snapshots", &[("db", "influx")]),
            Some(1)
        );
        assert!(
            snap.histogram("wal.commit_ns", &[("db", "influx")])
                .unwrap()
                .sum
                > 0
        );
    }

    /// Flip one bit near the tail of the store's first chunk on `disk` —
    /// in the value payload, so the structural probe can still recover
    /// the lost time range while the CRC proves the damage.
    fn rot_chunk0(disk: &pmove_store::MemDisk) {
        let name = pmove_store::chunk_name(0);
        let mut data = disk.read(&name).unwrap();
        let n = data.len();
        data[n - 2] ^= 0x01;
        let mut f = disk.create(&name).unwrap();
        f.append(&data).unwrap();
        f.sync().unwrap();
    }

    fn manual_opts() -> StoreOptions {
        StoreOptions {
            flush_threshold_rows: 1_000_000,
            compact_min_chunks: 1_000_000,
        }
    }

    #[test]
    fn boot_quarantine_annotates_gap_marker() {
        let disk = pmove_store::MemDisk::new(40);
        let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
        let (db, _) = Database::open("test", vfs.clone(), manual_opts()).unwrap();
        for t in 0..4i64 {
            db.write_point(pt(t * 1_000_000_000, t as f64)).unwrap();
        }
        db.flush().unwrap().unwrap();
        drop(db);
        rot_chunk0(&disk);
        let (db, report) = Database::open("test", vfs, manual_opts()).unwrap();
        assert_eq!(report.chunks_skipped, 1);
        // The lost rows are gone (the measurement vanished with them) and
        // the hole is annotated, not silent.
        assert!(matches!(
            db.query("SELECT \"v\" FROM \"m\""),
            Err(TsdbError::UnknownMeasurement(_))
        ));
        let gaps = db
            .query(&format!("SELECT \"gap_end_s\" FROM \"{GAP_MEASUREMENT}\""))
            .unwrap();
        assert_eq!(gaps.rows.len(), 1);
        assert_eq!(gaps.rows[0].values["gap_end_s"], Some(3.0));
        assert_eq!(db.store().unwrap().quarantined().len(), 1);
    }

    #[test]
    fn rebuild_after_quarantine_drops_rows_and_invalidates_cache() {
        let disk = pmove_store::MemDisk::new(41);
        let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
        let (db, _) = Database::open("test", vfs, manual_opts()).unwrap();
        for t in 0..4i64 {
            db.write_point(pt(t, t as f64)).unwrap();
        }
        db.flush().unwrap().unwrap();
        db.set_query_cache_capacity(8);
        let q = "SELECT \"v\" FROM \"m\"";
        assert_eq!(db.query(q).unwrap().rows.len(), 4);
        let v_before = db.write_version("m");
        rot_chunk0(&disk);
        // Scrub detects the rot and quarantines the chunk...
        let mut scrubber = pmove_store::Scrubber::new(pmove_store::ScrubConfig::default());
        let mut now = 0.0;
        while db.store().unwrap().quarantined().is_empty() {
            scrubber.tick(&mut db.store().unwrap(), now).unwrap();
            now += 1.0;
            assert!(now < 200.0, "scrub never found the rotted chunk");
        }
        // ...but the in-memory view (and the cache) still serve the old
        // rows until the rebuild makes the durable loss visible.
        assert_eq!(db.query(q).unwrap().rows.len(), 4);
        assert!(db.rebuild_from_store().unwrap());
        assert!(
            db.write_version("m") > v_before,
            "rebuild must bump versions"
        );
        // The measurement vanished with its only chunk; a stale cache hit
        // would have answered 4 rows here instead of erroring.
        assert!(matches!(db.query(q), Err(TsdbError::UnknownMeasurement(_))));
        // Standalone node: no repair path, so the gap gets annotated.
        db.annotate_quarantine_gaps();
        let gaps = db
            .query(&format!("SELECT \"rows_lost\" FROM \"{GAP_MEASUREMENT}\""))
            .unwrap();
        assert_eq!(gaps.rows.len(), 1);
        assert_eq!(gaps.rows[0].values["rows_lost"], Some(4.0));
    }

    /// One write body, two origins: admission and the client ledger are
    /// the only things an origin may change, and a single point never
    /// ticks a `tsdb.batch.*` counter.
    #[test]
    fn both_origins_share_the_write_body_and_differ_only_in_admission() {
        for remote in [false, true] {
            let reg = Registry::shared();
            let vfs: Arc<dyn Vfs> = Arc::new(pmove_store::MemDisk::new(9));
            let (db, _) =
                Database::open_with_obs("o", vfs.clone(), manual_opts(), reg.clone()).unwrap();
            db.enable_rollups(RollupConfig::with_tiers(&[10]));
            db.set_ingest_limiter(IngestLimiter::per_window(10, 1));
            let rx = db.subscribe(Subscription::all());
            let v0 = db.write_version("m");
            let write = |p: Point| match remote {
                true => db.apply_remote(p),
                false => db.write_point(p),
            };
            // Two single-field points in one limiter window of capacity 1.
            assert!(write(pt(1, 1.0)).is_ok());
            assert_eq!(write(pt(2, 2.0)).is_ok(), remote, "limiter is client-only");
            assert_eq!(write(Point::new("m")), Err(TsdbError::EmptyFields));
            let stored = if remote { 2 } else { 1 };

            // Differs: the IngestStats ledger counts client rows only, and
            // remote rows tick their own counter.
            let client_ledger = IngestStats {
                points_offered: 3,
                points_inserted: 1,
                values_inserted: 1,
                zero_values_inserted: 0,
                points_rejected: 1,
            };
            let want = if remote {
                IngestStats::default()
            } else {
                client_ledger
            };
            assert_eq!(db.stats(), want);
            let snap = reg.snapshot();
            assert_eq!(
                snap.counter("tsdb.repl.remote_applied", &[]),
                remote.then_some(2)
            );
            for (name, ledger) in [
                ("tsdb.points_offered", want.points_offered),
                ("tsdb.points_inserted", want.points_inserted),
                ("tsdb.values_inserted", want.values_inserted),
                ("tsdb.zero_values_inserted", want.zero_values_inserted),
                ("tsdb.points_rejected", want.points_rejected),
                ("tsdb.batch.batches", 0),
                ("tsdb.batch.points", 0),
                ("tsdb.batch.points_rejected", 0),
                ("tsdb.batch.wal_frames", 0),
            ] {
                assert_eq!(snap.counter(name, &[]), Some(ledger), "{name}");
            }

            // Same for both: subscriber publish, rollup mark, write-version
            // bump, and the WAL barrier (the rows survive a reopen).
            assert_eq!(crate::subscribe::drain(&rx).len(), stored);
            assert_eq!(db.rollup_audit().unwrap().dirty_buckets, 1);
            assert_eq!(db.write_version("m"), v0 + stored as u64);
            drop(db);
            let (reopened, _) = Database::open("o", vfs, manual_opts()).unwrap();
            assert_eq!(reopened.total_rows(), stored);
        }
    }

    #[test]
    fn cell_count_counts_field_values() {
        let db = Database::new("test");
        db.write_point(Point::new("m").field("a", 1.0).field("b", 2.0).timestamp(1))
            .unwrap();
        db.write_point(pt(2, 3.0)).unwrap();
        assert_eq!(db.cell_count(), 3);
    }

    #[test]
    fn metadata_introspection() {
        let db = Database::new("test");
        db.write_point(pt(1, 1.0)).unwrap();
        assert_eq!(db.measurements(), vec!["m".to_string()]);
        assert_eq!(db.field_keys("m"), vec!["v".to_string()]);
        assert_eq!(db.tag_values("m", "tag"), vec!["o1".to_string()]);
        assert!(db.field_keys("nosuch").is_empty());
    }
}
