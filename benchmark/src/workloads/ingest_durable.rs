//! `ingest_durable` — write-dominated.
//!
//! A 64-host × 8-measurement × 16-field fleet reporting at 1 Hz for 125 s
//! (about 1.03 M values) arrives as line-protocol text in 4,096-point
//! batches (10% of points up to 30 s late, 1% sent twice so last-write-wins
//! runs) and goes through `line_protocol::parse_batch` →
//! `Database::write_batch` on a store opened over `MemDisk::new(seed)` with
//! `StoreOptions::default()`. Flush policy: one WAL group commit per batch,
//! the default 4,096-row memtable threshold (so every batch of 65,536
//! values flushes a chunk) and the default compaction trigger at four
//! chunks: the 16 batches cross five compactions, the last of them on the
//! final batch, and bytes per value goes 8.9 → 8.4 → 8.2 → 8.0 → 8.0 over
//! them. Then `flush()`, and five times over `MemDisk::restart()` (which
//! discards everything not made durable) and reopen. That is the measured
//! phase. Afterwards every acknowledged cell is compared with what the
//! generator sent.
//!
//! Chosen because `tsdb.line_protocol`, `tsdb.batch`, `store.wal`,
//! `store.chunk`, `store.compaction` and `store.recovery` do most of the
//! work here, while the sampler, transport, executor, cache, rollups and
//! serving layer do none.
//!
//! Every run has to report every end-to-end metric, so every one of the five
//! recovered stores serves two times five dashboard passes — the last 30 s of
//! two fields of every series, 1,024 panels — for the query and refresh
//! figures, after twenty untimed ones: a freshly recovered store answers its
//! first passes a fifth slower. These passes sit between the measured
//! phase's calls, as `benchmark.panels` spans, and their time is taken out
//! of `run_wall_s`.
#![forbid(unsafe_code)]

use super::{open_db, RECOVER_CYCLES};
use crate::gen::{self, FleetShape, FleetStream, NS};
use crate::harness::{Ops, Run, Scale, Workload, MEASURED_SPAN};
use crate::layers::{self, Layers};
use crate::stats;
use crate::trace::{Tracer, NO_SPAN};
use pmove_obs::Registry;
use pmove_store::{restore_at, MemDisk, StoreOptions, TsStore, Vfs};
use pmove_tsdb::query::Projection;
use pmove_tsdb::{line_protocol, ColumnarBatch, Database, Query};
use std::sync::Arc;
use std::time::Instant;

/// Seconds of fleet data: 16 batches, so that the last one compacts.
const FLEET_SECONDS: usize = 125;
/// Dashboard passes on each recovered store: twenty to warm up, then two
/// groups of five, each group an extra measurement of its own.
const WARM_UP_PASSES: usize = 20;
const PASS_GROUPS: usize = 2;
const PASSES_PER_GROUP: usize = 5;
/// Empty disks opened during set-up; `setup_s` is the median open. One
/// open is 13 µs of work (150 µs the first time in a process), too little
/// to time once.
const SETUP_OPENS: usize = 101;
/// Seconds each dashboard panel looks back.
const PANEL_WINDOW_S: i64 = 30;
const DB_NAME: &str = "fleet";

/// The workload: generated inputs plus the panels of the dashboard passes.
pub struct IngestDurable {
    seed: u64,
    shape: FleetShape,
    stream: FleetStream,
    panels: Vec<Query>,
    disk: Arc<MemDisk>,
    db: Option<Database>,
    registry: Option<Arc<Registry>>,
}

impl IngestDurable {
    /// Generate the fleet stream for `seed`.
    pub fn new(seed: u64, scale: Scale) -> IngestDurable {
        let shape = FleetShape {
            hosts: scale.of(64, 4),
            measurements: 8,
            fields: 16,
            batch_points: scale.of(4_096, 128),
            seconds: scale.of(FLEET_SECONDS, 32),
        };
        let stream = gen::fleet_stream(seed, shape);
        let end = shape.seconds as i64 * NS;
        let panels = (0..shape.hosts)
            .flat_map(|h| (0..shape.measurements).map(move |m| (h, m)))
            .flat_map(|(h, m)| {
                // Two panels per series, on two different fields.
                let first = (h + m) % shape.fields;
                [first, (first + shape.fields / 2) % shape.fields].map(|f| Query {
                    projections: vec![Projection::Field(format!("f{f:02}"))],
                    measurement: format!("m{m}"),
                    tag_filters: vec![("host".into(), format!("h{h:02}"))],
                    time_start: Some(end - PANEL_WINDOW_S * NS),
                    time_end: Some(end),
                    group_by_time: None,
                })
            })
            .collect();
        IngestDurable {
            seed,
            shape,
            stream,
            panels,
            disk: Arc::new(MemDisk::new(seed)),
            db: None,
            registry: None,
        }
    }

    fn open(&self) -> Result<Database, pmove_tsdb::TsdbError> {
        let vfs: Arc<dyn Vfs> = self.disk.clone();
        open_db(
            DB_NAME,
            &vfs,
            StoreOptions::default(),
            self.registry.as_ref(),
        )
    }

    /// Every acknowledged cell must equal the generator's value bit for
    /// bit, last-write-wins winners included, and none may be missing.
    fn verify_cells(&self, db: &Database, ops: &mut Ops) {
        let mut seen = 0u64;
        let mut wrong = 0u64;
        db.for_each_cell(&mut |key, ts, field, value| {
            seen += 1;
            let cell = key
                .tags
                .get("host")
                .and_then(|host| self.stream.names.series(&key.measurement, host))
                .zip(self.stream.names.fields.get(field))
                .map(|(s, f)| (s, *f, (ts / NS) as u32));
            let want = cell.and_then(|c| self.stream.expected.get(&c));
            if want != value.as_f64().map(f64::to_bits).as_ref() {
                wrong += 1;
            }
        });
        let expected = self.stream.expected.len() as u64;
        ops.attempted += expected;
        let missing = expected.saturating_sub(seen);
        if wrong + missing > 0 {
            ops.failed += wrong + missing;
            ops.failures.push(format!(
                "after recovery: {wrong} cells differ from the generator, {missing} of {expected} missing"
            ));
        }
    }
}

impl IngestDurable {
    /// The dashboard passes on one recovered store: warm-up, then
    /// [`PASS_GROUPS`] extra measurements of [`PASSES_PER_GROUP`] passes.
    fn panel_passes(&self, db: &Database, run: &mut Run, ops: &mut Ops) {
        for q in self
            .panels
            .iter()
            .cycle()
            .take(WARM_UP_PASSES * self.panels.len())
        {
            ops.call("panel query", db.query_parsed(q));
        }
        for _ in 0..PASS_GROUPS {
            let mut group = Run::default();
            for _ in 0..PASSES_PER_GROUP {
                let pass = Instant::now();
                for (qi, q) in self.panels.iter().enumerate() {
                    let t = Instant::now();
                    let r = db.query_parsed(q);
                    let s = t.elapsed().as_secs_f64();
                    group.read_s += s;
                    group.query_us.push(s * 1e6);
                    if let Some(r) = ops.call("panel query", r) {
                        ops.check(r.rows.len() == PANEL_WINDOW_S as usize, || {
                            format!("panel {qi}: {} rows, want {PANEL_WINDOW_S}", r.rows.len())
                        });
                    }
                }
                group.refresh_ms.push(pass.elapsed().as_secs_f64() * 1e3);
            }
            group.queries = (PASSES_PER_GROUP * self.panels.len()) as u64;
            run.extras.push(group);
        }
    }
}

impl Workload for IngestDurable {
    fn name(&self) -> &'static str {
        "ingest_durable"
    }

    fn setup(&mut self, observed: bool, _run: &mut Run, ops: &mut Ops) -> Option<f64> {
        self.registry = observed.then(Registry::shared);
        let mut opens = Vec::with_capacity(SETUP_OPENS);
        for _ in 0..SETUP_OPENS {
            self.db = None;
            self.disk = Arc::new(MemDisk::new(self.seed));
            let t = Instant::now();
            let opened = self.open();
            opens.push(t.elapsed().as_secs_f64());
            self.db = ops.call("open", opened);
        }
        Some(stats::median(&opens))
    }

    fn measure(&mut self, tr: &mut Tracer, run: &mut Run, ops: &mut Ops) {
        let Some(mut db) = self.db.take() else {
            return;
        };
        let fields = self.shape.fields as u64;

        let root = tr.open(MEASURED_SPAN, NO_SPAN, 0);
        let mut modeled_commit_ns = 0u64;
        for (i, text) in self.stream.batches.iter().enumerate() {
            let (parsed, s) = tr.time(
                "tsdb.line_protocol.parse_batch",
                root.id(),
                i as u64,
                || line_protocol::parse_batch(text),
            );
            run.write_s += s;
            let points = ops.call("parse_batch", parsed).unwrap_or_default();
            let (out, s) = tr.time("tsdb.engine.write_batch", root.id(), i as u64, || {
                db.write_batch(points)
            });
            run.write_s += s;
            if let Some(out) = ops.call("write_batch", out) {
                ops.check(
                    out.accepted == self.stream.batch_points[i] && out.rejected == 0,
                    || {
                        format!(
                            "batch {i}: {} accepted, {} rejected",
                            out.accepted, out.rejected
                        )
                    },
                );
                run.values_acked += out.accepted as u64 * fields;
                modeled_commit_ns += out.commit_ns;
            }
        }
        let (flushed, s) = tr.time("store.flush", root.id(), 0, || db.flush());
        run.write_s += s;
        ops.call("flush", flushed);
        run.values_stored = run.values_acked;
        run.durable_bytes = self.disk.durable_bytes();
        let usage = self.disk.usage();

        // Time the benchmark itself spends between the program's calls on
        // the panel passes below; not part of the measured phase.
        let mut panels_s = 0.0;
        for cycle in 0..RECOVER_CYCLES as u64 {
            // Crash: the process is gone, and the disk forgets what was
            // never synced. Dropping the old handle stands for the former.
            tr.time("benchmark.crash", root.id(), cycle, || {
                drop(db);
                self.disk.restart();
            });
            let (reopened, s) = tr.time("store.recovery.open", root.id(), cycle, || self.open());
            run.recover_s.push(s);
            match ops.call("reopen", reopened) {
                Some(reopened) => db = reopened,
                None => {
                    run.wall_s = tr.close(root) - panels_s;
                    return;
                }
            }
            // Not what this workload is for: the query and refresh figures.
            // Taken here, on every recovered store, and not once after the
            // phase, so that a run samples them at ten moments and not two.
            let ((), s) = tr.time("benchmark.panels", root.id(), cycle, || {
                self.panel_passes(&db, run, ops)
            });
            panels_s += s;
        }
        run.wall_s = tr.close(root) - panels_s;

        self.verify_cells(&db, ops);

        if let Some(r) = &self.registry {
            let snap = r.snapshot();
            run.layer.insert(
                "store.wal.commits",
                snap.counter_total("wal.commits") as f64,
            );
            run.layer
                .insert("store.wal.modeled_commit_ns", modeled_commit_ns as f64);
            run.layer.insert(
                "store.compaction.runs",
                snap.counter_total("compaction.runs") as f64,
            );
            run.layer.insert(
                "store.compaction.bytes_rewritten",
                (snap.counter_total("compaction.bytes_before")
                    + snap.counter_total("compaction.bytes_after")) as f64,
            );
            layers::device(&usage, run.values_stored, &mut run.layer);
        }
    }

    fn layers(&mut self, tr: &Tracer, traced: &[Run], out: &mut Layers) {
        let batches = &self.stream.batches;
        let points: usize = self.stream.batch_points.iter().sum();

        let (parse_s, _, _) = tr.total("tsdb.line_protocol.parse_batch");
        let bytes: usize = batches.iter().map(String::len).sum();
        let episodes = traced.len() as f64;
        out.insert(
            "tsdb.line_protocol.parse_ns_per_point",
            parse_s * 1e9 / (points as f64 * episodes),
        );
        out.insert(
            "tsdb.line_protocol.parse_mb_per_s",
            bytes as f64 * episodes / parse_s / 1e6,
        );
        let (_, _, longest) = tr.total("tsdb.engine.write_batch");
        out.insert("tsdb.engine.write_batch_max_ms", longest * 1e3);

        let parse =
            |i: usize| line_protocol::parse_batch(&batches[i]).expect("generated text parses");
        layers::write_path(self.seed, batches.len(), &parse, out);

        // store.compaction: the bare store under the default policy, minus
        // the same appends with compaction switched off, leaves the time
        // compaction kept the writer waiting.
        let replay = |opts: StoreOptions| {
            let disk = Arc::new(MemDisk::new(self.seed));
            let vfs: Arc<dyn Vfs> = disk.clone();
            let (mut store, _) = TsStore::open(vfs, opts).expect("fresh in-memory disk opens");
            let mut busy = 0.0;
            for text in &self.stream.batches {
                let rows = ColumnarBatch::build(
                    line_protocol::parse_batch(text).expect("generated text parses"),
                )
                .wal_rows();
                let t = Instant::now();
                store.append_owned(rows);
                store.commit().expect("in-memory commit");
                busy += t.elapsed().as_secs_f64();
            }
            store.flush().expect("in-memory flush");
            (disk, busy)
        };
        let (disk, with_compaction_s) = replay(StoreOptions::default());
        let (_, without_s) = replay(StoreOptions {
            compact_min_chunks: usize::MAX,
            ..StoreOptions::default()
        });
        out.insert("store.compaction.busy_s", with_compaction_s - without_s);

        // store.recovery: the store alone on the post-crash image.
        disk.restart();
        let vfs: Arc<dyn Vfs> = disk;
        let t = Instant::now();
        let (mut store, _) =
            TsStore::open(vfs, StoreOptions::default()).expect("post-crash image opens");
        let open_s = t.elapsed().as_secs_f64();
        let rows = store.scan().expect("recovered store scans").len();
        out.insert("store.recovery.open_ns_per_row", open_s * 1e9 / rows as f64);
        out.insert("store.recovery.rows_recovered", rows as f64);

        // store.backup: one snapshot generation of that store, then a
        // restore of it into an empty disk. No end-to-end metric moves
        // with these today; they are the baseline for later.
        let dest: Arc<dyn Vfs> = Arc::new(MemDisk::new(self.seed ^ 0xBAC));
        store.enable_backup(dest.clone()).expect("backup attaches");
        let t = Instant::now();
        store.backup_now().expect("backup completes");
        out.insert(
            "store.backup.backup_now_ms",
            t.elapsed().as_secs_f64() * 1e3,
        );
        let target: Arc<dyn Vfs> = Arc::new(MemDisk::new(self.seed ^ 0x7A6));
        let t = Instant::now();
        restore_at(dest.as_ref(), target, i64::MAX).expect("restore completes");
        out.insert(
            "store.backup.restore_at_ms",
            t.elapsed().as_secs_f64() * 1e3,
        );
    }
}
