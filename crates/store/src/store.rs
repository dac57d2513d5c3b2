//! The storage engine: WAL + memtable + immutable chunks + compaction.
//!
//! Write path: [`TsStore::commit_prepared`] stages a shared [`WriteBatch`],
//! framed once however many stores commit it, and group-commits it
//! behind anything staged (one append, one sync); only then do the staged
//! cells enter the memtable ([`crate::batch`]) — a cell is
//! *acknowledged* exactly when its commit returns `Ok`. A batch prepared
//! once is so committed to any number of stores; a failed commit leaves
//! it staged for the next commit to land. Row callers stage with
//! [`TsStore::append_owned`] and commit with [`TsStore::commit`]. When
//! the memtable crosses `flush_threshold_rows` cells it is frozen into a
//! compressed chunk ([`crate::chunk`]) and the WAL is truncated.
//! Compaction merges
//! every live chunk last-write-wins and drops rows older than the
//! retention cutoff, which is how the database's retention keep reaches
//! disk.
//! Flush, compaction and scan are the same block merge
//! ([`crate::merge`]) with a different sink.
//!
//! Crash recovery ([`TsStore::open`]) replays newest chunks first, then
//! overlays the WAL rows. The ordering of flush (chunk synced *before*
//! WAL reset) means a crash between the two leaves rows in both places;
//! the last-write-wins merge in [`TsStore::scan`] makes that harmless.
//!
//! All modeled latencies come from the [`Vfs`]'s [`DiskSpec`] — never the
//! wall clock — so the `pmove.self.wal.*` / `pmove.self.compaction.*`
//! telemetry is bit-reproducible across runs and hosts.

use crate::backup::Generation;
use crate::batch::{Memtable, WriteBatch};
use crate::chunk::{
    check_chunk, chunk_name, index_chunk, parse_chunk_name, probe_chunk, write_blocks, Block,
    ChunkInfo, ChunkSummary, ChunkWriter,
};
use crate::error::{StoreError, StoreResult};
use crate::merge::{merge_blocks, Layer, MergeError};
use crate::row::RowRecord;
use crate::vfs::Vfs;
use crate::wal::{frames, scan_frames, CommitInfo, Wal};
use pmove_hwsim::disk::DiskSpec;
use pmove_obs::{latency_buckets, Counter, Gauge, Histogram, Registry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// WAL file name inside the store's [`Vfs`] namespace.
pub(crate) const WAL_FILE: &str = "wal.log";

/// Namespace prefix for quarantined chunk files. A chunk that fails its
/// CRC is *moved* here — never deleted — so the damaged bytes stay
/// available as evidence while the live namespace only ever holds files
/// that verified.
pub(crate) const QUARANTINE_PREFIX: &str = "quarantine/";

/// Quarantine file name for a chunk sequence number.
pub(crate) fn quarantine_name(seq: u64) -> String {
    format!("{QUARANTINE_PREFIX}{}", chunk_name(seq))
}

/// Block size assumed for modeled I/O latency (the group-commit write).
const IO_BLOCK_SIZE: usize = 8192;

/// Tuning knobs for the engine.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Memtable rows that trigger an automatic flush on commit.
    pub flush_threshold_rows: usize,
    /// Chunk-file count that triggers an automatic compaction on flush.
    pub compact_min_chunks: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            flush_threshold_rows: 4096,
            compact_min_chunks: 4,
        }
    }
}

/// What [`TsStore::open`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Valid chunk files loaded.
    pub chunks_loaded: usize,
    /// Chunk files skipped for structural corruption.
    pub chunks_skipped: usize,
    /// Rows replayed from the WAL into the memtable.
    pub wal_rows: u64,
    /// WAL tail bytes discarded as torn/corrupt.
    pub wal_bytes_dropped: u64,
    /// WAL frames rejected as provably corrupt (CRC mismatch on a fully
    /// present frame, or an absurd length header) — torn tails excluded.
    pub wal_corrupt_frames: u64,
    /// Modeled time to re-read the persisted state, in nanoseconds.
    pub modeled_ns: u64,
}

/// Which read path caught a corrupt chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionSite {
    /// Recovery at [`TsStore::open`].
    Boot,
    /// A query-driven [`TsStore::scan`].
    Scan,
    /// A compaction read.
    Compact,
    /// The background scrubber.
    Scrub,
    /// A backup verifying a chunk before copying it out.
    Backup,
}

/// One chunk moved to the quarantine namespace. `rows` and `time_range`
/// size the hole the loss leaves: exact when the chunk had been read
/// healthy before (its manifest entry survives), otherwise a best-effort
/// structural probe of the damaged bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedChunk {
    /// Sequence number of the damaged chunk (stays reserved forever).
    pub seq: u64,
    /// Rows the chunk held (or claimed to hold).
    pub rows: u64,
    /// `[min_ts, max_ts]` of the lost rows, if recoverable.
    pub time_range: Option<(i64, i64)>,
    /// Size of the quarantined file in bytes.
    pub bytes: u64,
    /// Which read path caught it.
    pub site: DetectionSite,
}

/// Result of CRC-verifying one live chunk ([`TsStore::verify_chunk`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum VerifyOutcome {
    /// The chunk's CRC checked out.
    Clean {
        /// File size verified.
        bytes: u64,
    },
    /// The chunk was damaged and has been quarantined.
    Quarantined(QuarantinedChunk),
}

/// Outcome of one WAL integrity scan ([`TsStore::scrub_wal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalScrub {
    /// Bytes of log scanned.
    pub bytes_scanned: u64,
    /// Frames that failed their CRC (provable corruption, torn excluded).
    pub corrupt_frames: u64,
    /// Rows re-framed from the memtable when the log was rewritten.
    pub rows_rewritten: u64,
}

/// Move chunk `seq`'s bytes `raw` out of the live namespace — copied
/// under `quarantine/`, then the live file removed — and size the loss
/// from `held`.
fn quarantine_file(
    vfs: &dyn Vfs,
    seq: u64,
    raw: &[u8],
    held: Option<ChunkSummary>,
    site: DetectionSite,
) -> StoreResult<QuarantinedChunk> {
    let mut f = vfs.create(&quarantine_name(seq))?;
    f.append(raw)?;
    f.sync()?;
    vfs.remove(&chunk_name(seq))?;
    Ok(QuarantinedChunk {
        seq,
        rows: held.map_or(0, |h| h.rows),
        time_range: held.and_then(|h| h.time_range),
        bytes: raw.len() as u64,
        site,
    })
}

/// Outcome of one compaction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Chunk files merged.
    pub chunks_in: usize,
    /// Rows read from those chunks.
    pub rows_in: u64,
    /// Rows surviving into the output chunk.
    pub rows_out: u64,
    /// Rows dropped because a newer chunk rewrote the same cell.
    pub rows_dropped_lww: u64,
    /// Rows dropped by the retention cutoff.
    pub rows_dropped_retention: u64,
    /// Total bytes of the input chunks.
    pub bytes_before: u64,
    /// Bytes of the output chunk (0 when everything was dropped).
    pub bytes_after: u64,
    /// Modeled wall time of the run, in nanoseconds.
    pub modeled_ns: u64,
}

/// Metric handles for the engine, exported under `pmove.self.wal.*` and
/// `pmove.self.compaction.*` by the tsdb self-telemetry exporter.
pub struct StoreObs {
    wal_records_appended: Counter,
    wal_commits: Counter,
    wal_bytes_committed: Counter,
    wal_records_replayed: Counter,
    wal_corrupt_frames: Counter,
    wal_resets: Counter,
    wal_commit_ns: Histogram,
    compaction_snapshots: Counter,
    compaction_runs: Counter,
    compaction_rows_in: Counter,
    compaction_rows_out: Counter,
    compaction_rows_dropped_lww: Counter,
    compaction_rows_dropped_retention: Counter,
    compaction_bytes_before: Counter,
    compaction_bytes_after: Counter,
    compaction_flush_ns: Histogram,
    compaction_compact_ns: Histogram,
    scrub_chunks_verified: Counter,
    scrub_bytes_verified: Counter,
    scrub_corruptions: Counter,
    scrub_chunks_quarantined: Counter,
    scrub_rows_quarantined: Counter,
    scrub_wal_rewrites: Counter,
    scrub_full_passes: Counter,
    scrub_last_full_pass: Gauge,
}

impl StoreObs {
    /// Create the handle set against `registry` for database `db`.
    pub fn new(registry: &Registry, db: &str) -> StoreObs {
        let l: &[(&str, &str)] = &[("db", db)];
        StoreObs {
            wal_records_appended: registry.counter("wal.records_appended", l),
            wal_commits: registry.counter("wal.commits", l),
            wal_bytes_committed: registry.counter("wal.bytes_committed", l),
            wal_records_replayed: registry.counter("wal.records_replayed", l),
            wal_corrupt_frames: registry.counter("store.wal.corrupt_frames", l),
            wal_resets: registry.counter("wal.resets", l),
            wal_commit_ns: registry.histogram("wal.commit_ns", l, latency_buckets()),
            compaction_snapshots: registry.counter("compaction.snapshots", l),
            compaction_runs: registry.counter("compaction.runs", l),
            compaction_rows_in: registry.counter("compaction.rows_in", l),
            compaction_rows_out: registry.counter("compaction.rows_out", l),
            compaction_rows_dropped_lww: registry.counter("compaction.rows_dropped_lww", l),
            compaction_rows_dropped_retention: registry
                .counter("compaction.rows_dropped_retention", l),
            compaction_bytes_before: registry.counter("compaction.bytes_before", l),
            compaction_bytes_after: registry.counter("compaction.bytes_after", l),
            compaction_flush_ns: registry.histogram("compaction.flush_ns", l, latency_buckets()),
            compaction_compact_ns: registry.histogram(
                "compaction.compact_ns",
                l,
                latency_buckets(),
            ),
            scrub_chunks_verified: registry.counter("store.scrub.chunks_verified", l),
            scrub_bytes_verified: registry.counter("store.scrub.bytes_verified", l),
            scrub_corruptions: registry.counter("store.scrub.corruptions_detected", l),
            scrub_chunks_quarantined: registry.counter("store.scrub.chunks_quarantined", l),
            scrub_rows_quarantined: registry.counter("store.scrub.rows_quarantined", l),
            scrub_wal_rewrites: registry.counter("store.scrub.wal_rewrites", l),
            scrub_full_passes: registry.counter("store.scrub.full_passes", l),
            scrub_last_full_pass: registry.gauge("store.scrub.last_full_pass", l),
        }
    }
}

// ----------------------------------------------------------------- store

/// The durable time-series store.
pub struct TsStore {
    vfs: Arc<dyn Vfs>,
    opts: StoreOptions,
    spec: DiskSpec,
    wal: Wal,
    /// Batches framed into the WAL buffer but not yet acknowledged.
    staged: Vec<Arc<WriteBatch>>,
    /// Acknowledged cells awaiting a flush.
    memtable: Memtable,
    /// Manifest of live (valid) chunk files by sequence number, kept so
    /// quarantine can report the exact loss without trusting damaged bytes.
    chunks: BTreeMap<u64, ChunkSummary>,
    next_seq: u64,
    /// Every chunk quarantined over this store's lifetime (boot included).
    quarantined: Vec<QuarantinedChunk>,
    /// The backup disk, once [`TsStore::enable_backup`] named one.
    backup: Option<Arc<dyn Vfs>>,
    obs: StoreObs,
}

impl TsStore {
    /// Open the store in `vfs`, recovering persisted state: valid chunks
    /// are indexed, corrupt ones skipped, and surviving WAL records are
    /// replayed into the memtable.
    pub fn open(vfs: Arc<dyn Vfs>, opts: StoreOptions) -> StoreResult<(TsStore, RecoveryReport)> {
        Self::open_with_obs(vfs, opts, StoreObs::new(&Registry::disabled(), ""))
    }

    /// [`TsStore::open`] with metric handles attached.
    pub fn open_with_obs(
        vfs: Arc<dyn Vfs>,
        opts: StoreOptions,
        obs: StoreObs,
    ) -> StoreResult<(TsStore, RecoveryReport)> {
        let spec = vfs.disk_spec();
        let mut report = RecoveryReport::default();
        let mut chunks = BTreeMap::new();
        let mut quarantined = Vec::new();
        let mut next_seq = 0u64;
        let mut bytes_read = 0u64;
        for name in vfs.list()? {
            if let Some(seq) = name
                .strip_prefix(QUARANTINE_PREFIX)
                .and_then(parse_chunk_name)
            {
                // A previously quarantined chunk keeps its sequence number
                // reserved across reopens.
                next_seq = next_seq.max(seq + 1);
                continue;
            }
            let Some(seq) = parse_chunk_name(&name) else {
                continue;
            };
            // Even a corrupt chunk reserves its sequence number, so a new
            // chunk never collides with a damaged file.
            next_seq = next_seq.max(seq + 1);
            let data = vfs.read(&name)?;
            match check_chunk(&name, &data) {
                Ok(summary) => {
                    bytes_read += summary.bytes;
                    chunks.insert(seq, summary);
                    report.chunks_loaded += 1;
                }
                Err(_) => {
                    // Move the damaged file out of the live namespace but
                    // keep the bytes as evidence; queries over its range
                    // must surface a gap, not silently shorter series.
                    report.chunks_skipped += 1;
                    let held = probe_chunk(&data);
                    let site = DetectionSite::Boot;
                    quarantined.push(quarantine_file(vfs.as_ref(), seq, &data, held, site)?);
                }
            }
        }
        let (mut wal, payloads, mut replay) = Wal::open(vfs.clone(), WAL_FILE)?;
        let mut memtable = Memtable::default();
        for (i, payload) in payloads.iter().enumerate() {
            bytes_read += payload.len() as u64 + 8;
            match WriteBatch::decode(payload) {
                Ok(batch) => memtable.absorb(Arc::new(batch)),
                Err(_) => {
                    // A payload that deframes but does not decode (a frame
                    // version newer than this build, or damage sealed under
                    // a matching CRC) is a corrupt frame: the log is cut
                    // back to the frames before it, as for a torn tail, so
                    // commits acknowledged from here on are not appended
                    // behind a frame every later replay stops at.
                    wal.rewrite(&payloads[..i])?;
                    let cut = payloads[i..].iter().map(|p| p.len() as u64 + 8);
                    replay.bytes_dropped += cut.sum::<u64>();
                    replay.corrupt_frames += 1;
                    replay.records = i as u64;
                    break;
                }
            }
        }
        report.wal_rows = memtable.cells() as u64;
        report.wal_bytes_dropped = replay.bytes_dropped;
        report.wal_corrupt_frames = replay.corrupt_frames;
        report.modeled_ns = (spec.write_time(bytes_read, IO_BLOCK_SIZE) * 1e9) as u64;
        obs.wal_records_replayed.add(replay.records);
        obs.wal_corrupt_frames.add(replay.corrupt_frames);
        for q in &quarantined {
            obs.scrub_corruptions.inc();
            obs.scrub_chunks_quarantined.inc();
            obs.scrub_rows_quarantined.add(q.rows);
        }
        Ok((
            TsStore {
                vfs,
                opts,
                spec,
                wal,
                staged: Vec::new(),
                memtable,
                chunks,
                next_seq,
                quarantined,
                backup: None,
                obs,
            },
            report,
        ))
    }

    /// Stage `rows` as one batch, framed as one WAL record. Not durable
    /// — and not visible to [`TsStore::scan_blocks`] — until
    /// [`TsStore::commit`].
    pub fn append_owned(&mut self, rows: Vec<RowRecord>) {
        self.stage(Arc::new(WriteBatch::from_rows(rows)));
    }

    /// Frame `batch` into the WAL buffer and stage it for the next
    /// commit. A frame no other store shares is dropped once buffered.
    fn stage(&mut self, mut batch: Arc<WriteBatch>) {
        if batch.cells() == 0 {
            return;
        }
        self.wal.buffer(batch.frame());
        WriteBatch::drop_frame(&mut batch);
        self.obs.wal_records_appended.add(batch.cells() as u64);
        self.staged.push(batch);
    }

    /// Modeled group-commit latency for a payload of `bytes` on this
    /// store's device spec — the same figure `commit` records into the
    /// `wal.commit_ns` histogram, exposed so tracing callers can stamp a
    /// `store.wal.group_commit` span with a consistent duration.
    ///
    /// The sync is modeled at block granularity: a commit persists whole
    /// `IO_BLOCK_SIZE` device blocks, so a one-row frame pays the same
    /// device time as a block-full frame. This rounding is exactly what
    /// group commit amortizes — many rows riding one synced block
    /// instead of one padded block per row.
    pub fn modeled_commit_ns(&self, bytes: u64) -> u64 {
        let blocks = bytes.div_ceil(IO_BLOCK_SIZE as u64).max(1);
        (self
            .spec
            .write_time(blocks * IO_BLOCK_SIZE as u64, IO_BLOCK_SIZE)
            * 1e9) as u64
    }

    /// Stage `batch` and group-commit it behind everything staged: one
    /// append, one sync. The batch is shared, not rebuilt, and framed
    /// once ([`WriteBatch`] keeps its frame), so a report prepared once
    /// commits so to every replica, each memtable copying its cells; a
    /// batch this call holds the last handle of is moved in. On error it
    /// stays staged and unacknowledged, and the next commit lands it once.
    pub fn commit_prepared(&mut self, batch: Arc<WriteBatch>) -> StoreResult<CommitInfo> {
        self.stage(batch);
        self.commit()
    }

    /// Group-commit every staged record; on success the cells are
    /// acknowledged and enter the memtable (flushing if over threshold).
    pub fn commit(&mut self) -> StoreResult<CommitInfo> {
        let info = self.wal.commit()?;
        for batch in self.staged.drain(..) {
            self.memtable.absorb(batch);
        }
        if info.records > 0 {
            let obs = &self.obs;
            obs.wal_commits.inc();
            obs.wal_bytes_committed.add(info.bytes);
            obs.wal_commit_ns.record(self.modeled_commit_ns(info.bytes));
        }
        if self.memtable.cells() >= self.opts.flush_threshold_rows {
            self.flush()?;
        }
        Ok(info)
    }

    /// Freeze the memtable into a new immutable chunk and truncate the
    /// WAL, then compact when the chunk count reaches
    /// `compact_min_chunks`.
    pub fn flush(&mut self) -> StoreResult<Option<ChunkInfo>> {
        let info = self.flush_memtable()?;
        if info.is_some() && self.chunks.len() >= self.opts.compact_min_chunks {
            self.compact(None)?;
        }
        Ok(info)
    }

    /// [`TsStore::flush`] without the compaction. The chunk is written
    /// and synced *before* the WAL reset, so a crash in between
    /// duplicates rows instead of losing them.
    fn flush_memtable(&mut self) -> StoreResult<Option<ChunkInfo>> {
        if self.memtable.cells() == 0 {
            return Ok(None);
        }
        let seq = self.next_seq;
        // The memtable's pairs go to the writer borrowed: a failed write
        // leaves every acknowledged cell where it was.
        let info = write_blocks(self.vfs.as_ref(), seq, self.memtable.pairs())?
            .expect("non-empty memtable produces a chunk");
        self.chunks.insert(seq, ChunkSummary::from(&info));
        self.wal.reset()?;
        self.memtable = Memtable::default();
        self.next_seq += 1;
        self.obs.compaction_snapshots.inc();
        self.obs.wal_resets.inc();
        self.obs
            .compaction_flush_ns
            .record((self.spec.write_time(info.bytes, IO_BLOCK_SIZE) * 1e9) as u64);
        Ok(Some(info))
    }

    /// Merge every live chunk into one, newest write winning duplicate
    /// cells, dropping rows with `ts < retention_cutoff` when a cutoff is
    /// given. No-op (`None`) when fewer than two chunks exist and no
    /// cutoff was requested.
    pub fn compact(
        &mut self,
        retention_cutoff: Option<i64>,
    ) -> StoreResult<Option<CompactionReport>> {
        if self.chunks.is_empty() || (self.chunks.len() < 2 && retention_cutoff.is_none()) {
            return Ok(None);
        }
        let seq = self.next_seq;
        let ((stats, writer), chunks_in, bytes_before) =
            self.merge_live(DetectionSite::Compact, |chunks| {
                let mut writer = ChunkWriter::new(seq);
                let stats =
                    merge_blocks(chunks, std::iter::empty(), retention_cutoff, &mut writer)?;
                Ok((stats, writer))
            })?;
        let written = writer.finish(self.vfs.as_ref(), stats.rows_in)?;
        // Only after the merged chunk is durable do the inputs go away.
        for old in std::mem::take(&mut self.chunks).into_keys() {
            self.vfs.remove(&chunk_name(old))?;
        }
        let bytes_after = written.as_ref().map_or(0, |info| info.bytes);
        if let Some(info) = &written {
            self.chunks.insert(seq, ChunkSummary::from(info));
            self.next_seq += 1;
        }
        let report = CompactionReport {
            chunks_in,
            rows_in: stats.rows_in,
            rows_out: stats.rows_out,
            rows_dropped_lww: stats.rows_in - stats.rows_out - stats.dropped_retention,
            rows_dropped_retention: stats.dropped_retention,
            bytes_before,
            bytes_after,
            modeled_ns: (self
                .spec
                .write_time(bytes_before + bytes_after, IO_BLOCK_SIZE)
                * 1e9) as u64,
        };
        let obs = &self.obs;
        obs.compaction_runs.inc();
        obs.compaction_rows_in.add(report.rows_in);
        obs.compaction_rows_out.add(report.rows_out);
        obs.compaction_rows_dropped_lww.add(report.rows_dropped_lww);
        obs.compaction_rows_dropped_retention
            .add(report.rows_dropped_retention);
        obs.compaction_bytes_before.add(report.bytes_before);
        obs.compaction_bytes_after.add(report.bytes_after);
        obs.compaction_compact_ns.record(report.modeled_ns);
        Ok(Some(report))
    }

    /// Drop every acknowledged row older than `cutoff` (used by
    /// retention enforcement): the memtable is flushed first, so the
    /// expired cells leave the WAL too and a reopen cannot replay them,
    /// then every chunk is compacted under the cutoff.
    pub fn enforce_retention(&mut self, cutoff: i64) -> StoreResult<Option<CompactionReport>> {
        self.flush_memtable()?;
        self.compact(Some(cutoff))
    }

    /// Read every live chunk and run `attempt` — one merge-kernel pass —
    /// over their block indexes, oldest first. A chunk counts as this
    /// store's own output while its trailer is the CRC the store sealed
    /// it with. A chunk that fails its checksum, its header walk or (as
    /// the kernel reports) a column decode is quarantined at `site` and
    /// the pass repeated over the survivors. Returns the pass's result
    /// with the count and total bytes of the chunks that went into it.
    fn merge_live<T>(
        &mut self,
        site: DetectionSite,
        mut attempt: impl FnMut(&[Layer<'_>]) -> Result<T, MergeError>,
    ) -> StoreResult<(T, usize, u64)> {
        let mut live = Vec::with_capacity(self.chunks.len());
        for (&seq, summary) in &self.chunks {
            live.push((seq, summary.crc, self.vfs.read(&chunk_name(seq))?));
        }
        loop {
            let layers: Result<Vec<_>, _> = live
                .iter()
                .enumerate()
                .map(|(i, (seq, crc, data))| {
                    let own = crc.is_some_and(|crc| data.ends_with(&crc.to_le_bytes()));
                    index_chunk(&chunk_name(*seq), data)
                        .map(|(_, blocks)| Layer { blocks, own })
                        .map_err(|e| (i, e))
                })
                .collect();
            let (bad, _) = match layers.and_then(|layers| attempt(&layers)) {
                Ok(out) => {
                    let bytes = live.iter().map(|(_, _, d)| d.len() as u64).sum();
                    return Ok((out, live.len(), bytes));
                }
                Err(bad) => bad,
            };
            let (seq, _, data) = live.remove(bad);
            self.quarantine(seq, &data, site)?;
        }
    }

    /// Merged, deduplicated view of every *acknowledged* cell as blocks
    /// in ascending (series, field, type) order: chunks in sequence
    /// order, memtable on top, last write winning each
    /// (series, field, timestamp) cell. Staged-but-uncommitted rows are
    /// invisible, matching the acknowledgement contract.
    ///
    /// Every chunk is CRC-verified and validated as it is read; a chunk
    /// that fails is quarantined (visible via [`TsStore::quarantined`])
    /// and the scan continues over the survivors — callers see an
    /// explicit loss record, never a silent error or silently shorter
    /// data.
    pub fn scan_blocks(&mut self) -> StoreResult<Vec<Block>> {
        // Moved out for the pass: quarantining needs `&mut self`.
        let mut memtable = std::mem::take(&mut self.memtable);
        let merged = self.merge_live(DetectionSite::Scan, |chunks| {
            let mut blocks = Vec::new();
            merge_blocks(chunks, memtable.pairs(), None, &mut blocks)?;
            Ok(blocks)
        });
        self.memtable = memtable;
        Ok(merged?.0)
    }

    /// [`TsStore::scan_blocks`] flattened to rows in (series, field,
    /// timestamp) order, for callers whose unit is the row.
    pub fn scan(&mut self) -> StoreResult<Vec<RowRecord>> {
        let mut rows: Vec<RowRecord> = Vec::new();
        for b in self.scan_blocks()? {
            rows.extend(b.ts.iter().zip(b.values).map(|(&ts, value)| RowRecord {
                series: b.series.clone(),
                field: b.field.clone(),
                ts,
                value,
            }));
        }
        // Blocks order a field's cells by type before timestamp; the sort
        // is one pass unless some field's cells changed type.
        rows.sort_by(|a, b| (&a.series, &a.field, a.ts).cmp(&(&b.series, &b.field, b.ts)));
        Ok(rows)
    }

    /// Quarantine live chunk `seq` ([`quarantine_file`]) and drop it from
    /// the manifest; its sequence number stays reserved via `next_seq`
    /// and the quarantine file itself. The loss is exact when the
    /// manifest knew the chunk, else a probe of the damaged bytes.
    fn quarantine(
        &mut self,
        seq: u64,
        raw: &[u8],
        site: DetectionSite,
    ) -> StoreResult<QuarantinedChunk> {
        let held = self.chunks.get(&seq).copied().or_else(|| probe_chunk(raw));
        let q = quarantine_file(self.vfs.as_ref(), seq, raw, held, site)?;
        self.chunks.remove(&seq);
        self.obs.scrub_corruptions.inc();
        self.obs.scrub_chunks_quarantined.inc();
        self.obs.scrub_rows_quarantined.add(q.rows);
        self.quarantined.push(q.clone());
        Ok(q)
    }

    /// CRC-verify one live chunk for the scrubber. A clean chunk reports
    /// its byte size; a damaged one is quarantined. `Ok(None)` means the
    /// chunk was flushed away (compacted) between snapshot and visit.
    pub(crate) fn verify_chunk(&mut self, seq: u64) -> StoreResult<Option<VerifyOutcome>> {
        if !self.chunks.contains_key(&seq) {
            return Ok(None);
        }
        let name = chunk_name(seq);
        let data = self.vfs.read(&name)?;
        self.obs.scrub_chunks_verified.inc();
        self.obs.scrub_bytes_verified.add(data.len() as u64);
        match check_chunk(&name, &data) {
            Ok(_) => Ok(Some(VerifyOutcome::Clean {
                bytes: data.len() as u64,
            })),
            Err(_) => {
                let q = self.quarantine(seq, &data, DetectionSite::Scrub)?;
                Ok(Some(VerifyOutcome::Quarantined(q)))
            }
        }
    }

    /// Integrity-scan the WAL. Latent rot inside an already-durable frame
    /// is repairable without any replica: the memtable holds exactly the
    /// acknowledged cells of the current log (the WAL resets precisely
    /// when the memtable flushes), so the log is rewritten losslessly
    /// from memory, as one frame.
    pub(crate) fn scrub_wal(&mut self) -> StoreResult<WalScrub> {
        let raw = self.wal.raw_bytes()?;
        let (_, _, corrupt_frames) = scan_frames(&raw);
        let mut out = WalScrub {
            bytes_scanned: raw.len() as u64,
            corrupt_frames,
            rows_rewritten: 0,
        };
        self.obs.scrub_bytes_verified.add(raw.len() as u64);
        if corrupt_frames > 0 {
            self.wal.rewrite(&self.memtable_payloads())?;
            out.rows_rewritten = self.memtable.cells() as u64;
            self.obs.scrub_corruptions.inc();
            self.obs.scrub_wal_rewrites.inc();
        }
        Ok(out)
    }

    /// The memtable's acknowledged cells as WAL payloads: one frame's
    /// worth, or none when it is empty.
    fn memtable_payloads(&self) -> Vec<Vec<u8>> {
        match self.memtable.cells() {
            0 => Vec::new(),
            _ => vec![self.memtable.to_batch().encode()],
        }
    }

    // ------------------------------------------------------------ backup

    /// Send backups to `dest`, its own [`Vfs`]: a separate disk, so a
    /// primary disaster never takes the backups with it.
    pub fn enable_backup(&mut self, dest: Arc<dyn Vfs>) -> StoreResult<()> {
        self.backup = Some(dest);
        Ok(())
    }

    /// Copy the store into a new generation on the backup disk, which
    /// [`crate::restore_at`] restores, and return its id. Every live
    /// chunk is verified on the way out; a damaged one is quarantined at
    /// `DetectionSite::Backup` and the generation goes on without it.
    /// The memtable's acknowledged cells go as one WAL frame and the
    /// manifest last, so on any error the generation stays torn and
    /// restore never sees it.
    pub fn backup_now(&mut self) -> StoreResult<u64> {
        let dest = self
            .backup
            .clone()
            .ok_or_else(|| StoreError::Io("backups not enabled".into()))?;
        let mut gen = Generation::begin(dest.as_ref())?;
        for seq in self.chunk_seqs() {
            let name = chunk_name(seq);
            let data = self.vfs.read(&name)?;
            match check_chunk(&name, &data) {
                Ok(_) => gen.copy(&name, &data)?,
                Err(_) => {
                    self.quarantine(seq, &data, DetectionSite::Backup)?;
                }
            }
        }
        let payloads = self.memtable_payloads();
        if !payloads.is_empty() {
            gen.copy(WAL_FILE, &frames(&payloads))?;
        }
        gen.finish()
    }

    /// Record a completed full-store scrub pass at virtual time `now_s`
    /// (drives the `store.scrub.last_full_pass` staleness gauge).
    pub(crate) fn note_full_scrub_pass(&mut self, now_s: f64) {
        self.obs.scrub_full_passes.inc();
        self.obs.scrub_last_full_pass.set(now_s * 1e9);
    }

    /// Every chunk quarantined over this store's lifetime, boot included.
    pub fn quarantined(&self) -> &[QuarantinedChunk] {
        &self.quarantined
    }

    /// Byte size of a live chunk from the manifest.
    pub(crate) fn chunk_bytes(&self, seq: u64) -> Option<u64> {
        self.chunks.get(&seq).map(|m| m.bytes)
    }

    /// Acknowledged rows not yet flushed to a chunk.
    pub(crate) fn memtable_rows(&self) -> usize {
        self.memtable.cells()
    }

    /// Rows staged for the next commit.
    pub(crate) fn staged_rows(&self) -> usize {
        self.staged.iter().map(|batch| batch.cells()).sum()
    }

    /// Sequence numbers of the live chunks, ascending.
    pub(crate) fn chunk_seqs(&self) -> Vec<u64> {
        self.chunks.keys().copied().collect()
    }

    /// Bytes currently occupied by the WAL file.
    pub fn wal_size(&self) -> StoreResult<u64> {
        self.wal.size()
    }
}

impl std::fmt::Debug for TsStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TsStore")
            .field("chunks", &self.chunk_seqs())
            .field("memtable_rows", &self.memtable_rows())
            .field("staged_rows", &self.staged_rows())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32;
    use crate::encode::{encode_timestamps, put_bytes, put_ivarint, put_uvarint};
    use crate::memdisk::{FaultMode, FaultPlan, MemDisk};
    use crate::row::ColumnValue;

    fn row(series: &str, field: &str, ts: i64, v: f64) -> RowRecord {
        RowRecord::new(series, field, ts, ColumnValue::F64(v))
    }

    fn small_opts() -> StoreOptions {
        StoreOptions {
            flush_threshold_rows: 8,
            compact_min_chunks: 100, // keep compaction manual in tests
        }
    }

    /// Write `payloads` to file `name` of `disk`, each framed as
    /// [`Wal::append`] frames it.
    fn put_frames(disk: &MemDisk, name: &str, payloads: &[&[u8]]) {
        let mut f = disk.create(name).unwrap();
        for p in payloads {
            f.append(&(p.len() as u32).to_le_bytes()).unwrap();
            f.append(&crc32(p).to_le_bytes()).unwrap();
            f.append(p).unwrap();
        }
        f.sync().unwrap();
    }

    #[test]
    fn frame_that_does_not_decode_is_cut_and_later_commits_survive() {
        let good = WriteBatch::from_rows([row("s", "f", 1, 1.0)]).encode();
        // Sealed under a valid CRC: a frame version this build does not
        // know, and what a pre-v2 build logged for one cell (count, then
        // `series | field | ts | type | value`; bytes pinned, nothing in
        // the tree writes that layout).
        let newer: &[u8] = &[0, 9, 1, 2, 3];
        let v1: &[u8] = b"\x01\x0acpu,host=a\x05_cpu0\x14\x00\x00\x00\x00\x00\x00\x00\xf8\x3f";
        for (seed, bad) in [(120, newer), (121, v1)] {
            let disk = MemDisk::new(seed);
            let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
            // Then a frame that would decode.
            put_frames(&disk, WAL_FILE, &[&good, bad, &good]);
            let dropped = (8 + bad.len() + 8 + good.len()) as u64;
            let (mut store, report) = TsStore::open(vfs.clone(), small_opts()).unwrap();
            assert_eq!((report.wal_rows, report.wal_corrupt_frames), (1, 1));
            assert_eq!(report.wal_bytes_dropped, dropped);
            assert_eq!(store.wal_size().unwrap(), (8 + good.len()) as u64);
            store.append_owned(vec![row("s", "f", 2, 2.0)]);
            store.commit().unwrap();
            drop(store);
            disk.restart();
            let (mut store, report) = TsStore::open(vfs, small_opts()).unwrap();
            assert_eq!((report.wal_rows, report.wal_corrupt_frames), (2, 0));
            assert_eq!(report.wal_bytes_dropped, 0);
            assert_eq!(
                store.scan().unwrap(),
                vec![row("s", "f", 1, 1.0), row("s", "f", 2, 2.0)]
            );
        }
    }

    #[test]
    fn one_cell_commits_flush_the_chunk_of_one_commit() {
        let cells: Vec<RowRecord> = (0..4096i64)
            .map(|i| {
                row(
                    ["a", "b", "c"][i as usize % 3],
                    "f",
                    (i * 7919) % 1000,
                    i as f64,
                )
            })
            .collect();
        let opts = StoreOptions {
            flush_threshold_rows: usize::MAX,
            ..small_opts()
        };
        let chunk = |one_by_one: bool| {
            let disk = MemDisk::new(122);
            let (mut store, _) = TsStore::open(Arc::new(disk.clone()), opts).unwrap();
            for commit in cells.chunks(if one_by_one { 1 } else { cells.len() }) {
                store.append_owned(commit.to_vec());
                store.commit().unwrap();
            }
            assert_eq!(store.memtable_rows(), 4096);
            store.flush().unwrap().unwrap();
            disk.read(&chunk_name(0)).unwrap()
        };
        assert!(chunk(true) == chunk(false));
    }

    #[test]
    fn append_commit_scan_reopen() {
        let vfs: Arc<dyn Vfs> = Arc::new(MemDisk::new(100));
        let (mut store, report) = TsStore::open(vfs.clone(), small_opts()).unwrap();
        assert_eq!(report, RecoveryReport::default());
        store.append_owned(vec![row("s", "f", 1, 1.0), row("s", "f", 2, 2.0)]);
        // Staged rows are invisible until commit.
        assert!(store.scan().unwrap().is_empty());
        store.commit().unwrap();
        assert_eq!(store.scan().unwrap().len(), 2);
        drop(store);
        let (mut store, report) = TsStore::open(vfs, small_opts()).unwrap();
        assert_eq!(report.wal_rows, 2);
        assert_eq!(
            store.scan().unwrap(),
            vec![row("s", "f", 1, 1.0), row("s", "f", 2, 2.0)]
        );
    }

    #[test]
    fn threshold_flush_truncates_wal_and_keeps_rows() {
        let vfs: Arc<dyn Vfs> = Arc::new(MemDisk::new(101));
        let (mut store, _) = TsStore::open(vfs.clone(), small_opts()).unwrap();
        let rows: Vec<RowRecord> = (0..10).map(|i| row("s", "f", i, i as f64)).collect();
        store.append_owned(rows);
        store.commit().unwrap();
        assert_eq!(store.chunk_seqs().len(), 1);
        assert_eq!(store.memtable_rows(), 0);
        assert_eq!(store.wal_size().unwrap(), 0);
        assert_eq!(store.scan().unwrap().len(), 10);
        // Reopen sees only the chunk.
        drop(store);
        let (mut store, report) = TsStore::open(vfs, small_opts()).unwrap();
        assert_eq!(report.chunks_loaded, 1);
        assert_eq!(report.wal_rows, 0);
        assert_eq!(store.scan().unwrap().len(), 10);
    }

    #[test]
    fn compaction_merges_lww_and_enforces_retention() {
        let vfs: Arc<dyn Vfs> = Arc::new(MemDisk::new(102));
        let (mut store, _) = TsStore::open(vfs.clone(), small_opts()).unwrap();
        store.append_owned(vec![row("s", "f", 1, 1.0), row("s", "f", 5, 5.0)]);
        store.commit().unwrap();
        store.flush().unwrap();
        store.append_owned(vec![row("s", "f", 5, 50.0), row("s", "f", 9, 9.0)]);
        store.commit().unwrap();
        store.flush().unwrap();
        assert_eq!(store.chunk_seqs().len(), 2);
        let report = store.compact(Some(2)).unwrap().unwrap();
        assert_eq!(report.rows_in, 4);
        assert_eq!(report.rows_dropped_retention, 1); // ts=1
        assert_eq!(report.rows_dropped_lww, 1); // older ts=5
        assert_eq!(report.rows_out, 2);
        assert_eq!(store.chunk_seqs().len(), 1);
        assert_eq!(
            store.scan().unwrap(),
            vec![row("s", "f", 5, 50.0), row("s", "f", 9, 9.0)]
        );
        // Old chunk files are gone from disk.
        let names = vfs.list().unwrap();
        assert_eq!(names.iter().filter(|n| n.starts_with("chunk-")).count(), 1);
    }

    #[test]
    fn retention_prunes_memtable_and_disk() {
        let vfs: Arc<dyn Vfs> = Arc::new(MemDisk::new(103));
        let (mut store, _) = TsStore::open(vfs, small_opts()).unwrap();
        store.append_owned(vec![row("s", "old", 1, 1.0), row("s", "new", 100, 2.0)]);
        store.commit().unwrap();
        store.flush().unwrap();
        store.append_owned(vec![
            row("s", "mem_old", 2, 3.0),
            row("s", "mem_new", 200, 4.0),
        ]);
        store.commit().unwrap();
        store.enforce_retention(50).unwrap();
        let left = store.scan().unwrap();
        let fields: Vec<&str> = left.iter().map(|r| r.field.as_str()).collect();
        assert_eq!(fields, vec!["mem_new", "new"]);
    }

    #[test]
    fn compact_drop_everything_leaves_no_chunks() {
        let vfs: Arc<dyn Vfs> = Arc::new(MemDisk::new(104));
        let (mut store, _) = TsStore::open(vfs, small_opts()).unwrap();
        store.append_owned(vec![row("s", "f", 1, 1.0)]);
        store.commit().unwrap();
        store.flush().unwrap();
        let report = store.enforce_retention(10).unwrap().unwrap();
        assert_eq!(report.rows_out, 0);
        assert_eq!(report.bytes_after, 0);
        assert_eq!(store.chunk_seqs().len(), 0);
        assert!(store.scan().unwrap().is_empty());
    }

    #[test]
    fn failed_commit_keeps_rows_staged_and_unacked() {
        let disk = MemDisk::new(105);
        let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
        let (mut store, _) = TsStore::open(vfs, small_opts()).unwrap();
        store.append_owned(vec![row("s", "f", 1, 1.0)]);
        disk.schedule_fault(FaultPlan {
            crash_at_op: disk.ops_done() + 1,
            mode: FaultMode::CleanStop,
        });
        assert!(store.commit().is_err());
        assert_eq!(store.staged_rows(), 1);
        assert!(store.scan().is_err() || store.scan().unwrap().is_empty());
    }

    /// A batch framed once commits to the log exactly what staging its
    /// rows and committing them writes: the same bytes, in as many disk
    /// operations, read back as the same cells.
    #[test]
    fn a_prepared_commit_writes_what_append_and_commit_write() {
        let rows = || {
            let (f, i) = (ColumnValue::F64, ColumnValue::I64);
            vec![
                RowRecord::new("s", "a", 1, f(1.0)),
                RowRecord::new("s", "b", 1, i(2)),
                RowRecord::new("t", "a", 3, f(3.0)),
                RowRecord::new("s", "a", 0, f(4.0)),
            ]
        };
        let run = |prepared: bool| {
            let disk = MemDisk::new(108);
            let (mut store, _) = TsStore::open(Arc::new(disk.clone()), small_opts()).unwrap();
            if prepared {
                let batch = WriteBatch::from_rows(rows());
                store.commit_prepared(Arc::new(batch)).unwrap();
            } else {
                store.append_owned(rows());
                store.commit().unwrap();
            }
            let log = disk.read(WAL_FILE).unwrap();
            (log, disk.ops_done(), store.scan().unwrap())
        };
        assert_eq!(run(true), run(false));
    }

    /// The replicated write path's failure contract, store side: a
    /// prepared batch whose group commit fails, at its append or at its
    /// sync, stays staged and unacknowledged, and the next commit lands
    /// it once, ahead of the batch that commit carries.
    #[test]
    fn failed_prepared_commit_keeps_the_batch_staged_and_lands_it_once() {
        for op in [1, 2] {
            let disk = MemDisk::new(107);
            let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
            let (mut store, _) = TsStore::open(vfs.clone(), small_opts()).unwrap();
            let first = Arc::new(WriteBatch::from_rows([row("s", "f", 1, 1.0)]));
            let second = Arc::new(WriteBatch::from_rows([row("s", "f", 2, 2.0)]));
            let log = [first.frame(), second.frame()].concat();
            disk.schedule_fault(FaultPlan {
                crash_at_op: disk.ops_done() + op,
                mode: FaultMode::CleanStop,
            });
            assert!(store.commit_prepared(first).is_err());
            assert_eq!((store.staged_rows(), store.memtable_rows()), (1, 0));
            disk.restart();
            store.commit_prepared(second).unwrap();
            assert_eq!((store.staged_rows(), store.memtable_rows()), (0, 2));
            assert_eq!(disk.read(WAL_FILE).unwrap(), log, "crash at op {op}");
            let (mut reopened, report) = TsStore::open(vfs, small_opts()).unwrap();
            assert_eq!(report.wal_rows, 2);
            let want = vec![row("s", "f", 1, 1.0), row("s", "f", 2, 2.0)];
            assert_eq!(reopened.scan().unwrap(), want);
        }
    }

    #[test]
    fn flush_crash_between_chunk_and_reset_duplicates_safely() {
        let disk = MemDisk::new(106);
        let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
        let (mut store, _) = TsStore::open(vfs.clone(), small_opts()).unwrap();
        store.append_owned(vec![row("s", "f", 1, 1.0), row("s", "f", 2, 2.0)]);
        store.commit().unwrap();
        // Chunk write is create+append+sync (3 ops); crash on the WAL
        // reset right after, leaving rows in both chunk and WAL.
        disk.schedule_fault(FaultPlan {
            crash_at_op: disk.ops_done() + 4,
            mode: FaultMode::CleanStop,
        });
        assert!(store.flush().is_err());
        assert!(disk.crashed());
        disk.restart();
        let (mut store, report) = TsStore::open(vfs, small_opts()).unwrap();
        assert_eq!(report.chunks_loaded, 1);
        assert_eq!(report.wal_rows, 2);
        // Scan dedups the double-stored rows.
        assert_eq!(
            store.scan().unwrap(),
            vec![row("s", "f", 1, 1.0), row("s", "f", 2, 2.0)]
        );
    }

    #[test]
    fn corrupt_chunk_is_skipped_and_seq_reserved() {
        let disk = MemDisk::new(107);
        let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
        let (mut store, _) = TsStore::open(vfs.clone(), small_opts()).unwrap();
        store.append_owned(vec![row("s", "f", 1, 1.0)]);
        store.commit().unwrap();
        store.flush().unwrap();
        // Smash the chunk.
        let name = chunk_name(0);
        let mut data = disk.read(&name).unwrap();
        let n = data.len();
        data[n / 2] ^= 0xFF;
        let mut f = disk.create(&name).unwrap();
        f.append(&data).unwrap();
        f.sync().unwrap();
        let (mut store, report) = TsStore::open(vfs, small_opts()).unwrap();
        assert_eq!(report.chunks_skipped, 1);
        assert_eq!(report.chunks_loaded, 0);
        assert!(store.scan().unwrap().is_empty());
        // New flushes never reuse the damaged file's sequence number.
        store.append_owned(vec![row("s", "f", 2, 2.0)]);
        store.commit().unwrap();
        store.flush().unwrap();
        assert_eq!(store.chunk_seqs(), &[1]);
    }

    #[test]
    fn scan_quarantines_corrupt_chunk_and_serves_survivors() {
        let disk = MemDisk::new(109);
        let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
        let (mut store, _) = TsStore::open(vfs, small_opts()).unwrap();
        store.append_owned(vec![row("s", "f", 1, 1.0), row("s", "f", 2, 2.0)]);
        store.commit().unwrap();
        store.flush().unwrap();
        store.append_owned(vec![row("s", "f", 3, 3.0)]);
        store.commit().unwrap();
        store.flush().unwrap();
        // Rot one payload byte of chunk 0 (keep the magic intact).
        let name = chunk_name(0);
        let mut data = disk.read(&name).unwrap();
        let n = data.len();
        data[n / 2] ^= 0x01;
        let mut f = disk.create(&name).unwrap();
        f.append(&data).unwrap();
        f.sync().unwrap();
        // The read path detects, quarantines, and keeps serving.
        let rows = store.scan().unwrap();
        assert_eq!(rows, vec![row("s", "f", 3, 3.0)]);
        let q = store.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].seq, 0);
        assert_eq!(q[0].site, DetectionSite::Scan);
        // The manifest knew the healthy chunk: exact loss accounting.
        assert_eq!(q[0].rows, 2);
        assert_eq!(q[0].time_range, Some((1, 2)));
        // Evidence moved, not deleted.
        assert!(disk.exists(&quarantine_name(0)).unwrap());
        assert!(!disk.exists(&name).unwrap());
        assert_eq!(store.chunk_seqs(), &[1]);
    }

    /// Rewrite chunk 0 of `disk` — one block, series "s", field "f" — so
    /// its header claims `min_ts = 0` (the column starts at 1), and reseal
    /// it: a structurally invalid chunk whose CRC matches.
    fn forge_lying_header(disk: &MemDisk) {
        let name = chunk_name(0);
        let mut data = disk.read(&name).unwrap();
        // 20-byte file header, "s" and "f" length-prefixed, tag, count.
        let min_ts_at = 20 + 2 + 2 + 1 + 1;
        assert_eq!(data[min_ts_at], 2, "zigzag varint of min_ts = 1");
        data[min_ts_at] = 0;
        let body = data.len() - 4;
        let crc = crate::crc::crc32(&data[..body]);
        data[body..].copy_from_slice(&crc.to_le_bytes());
        let mut f = disk.create(&name).unwrap();
        f.append(&data).unwrap();
        f.sync().unwrap();
    }

    /// Rewrite chunk 0 of `disk` as one float block of "s"/"f" at
    /// timestamps 1 and 2 whose second value reuses a Gorilla window none
    /// opened (`1.0` raw, then control bits `10`), and seal it: a stream
    /// no encoder writes, under a matching CRC.
    fn forge_window_reuse(disk: &MemDisk) {
        let mut body = crate::chunk::CHUNK_MAGIC.to_vec();
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        put_bytes(&mut body, b"s");
        put_bytes(&mut body, b"f");
        body.push(0);
        put_uvarint(&mut body, 2);
        put_ivarint(&mut body, 1);
        put_ivarint(&mut body, 2);
        put_bytes(&mut body, &encode_timestamps(&[1, 2]));
        let mut values = 1.0f64.to_bits().to_be_bytes().to_vec();
        values.push(0x80);
        put_bytes(&mut body, &values);
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let mut f = disk.create(&chunk_name(0)).unwrap();
        f.append(&body).unwrap();
        f.sync().unwrap();
    }

    #[test]
    fn crc_valid_but_invalid_chunk_is_quarantined_at_every_read_site() {
        let forgers: [fn(&MemDisk); 2] = [forge_lying_header, forge_window_reuse];
        let sites = [
            DetectionSite::Boot,
            DetectionSite::Scan,
            DetectionSite::Compact,
            DetectionSite::Scrub,
            DetectionSite::Backup,
        ];
        for (forge, site) in forgers.iter().flat_map(|f| sites.map(|s| (f, s))) {
            let disk = MemDisk::new(111);
            let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
            let (mut store, _) = TsStore::open(vfs.clone(), small_opts()).unwrap();
            store.append_owned(vec![row("s", "f", 1, 1.0), row("s", "f", 2, 2.0)]);
            store.commit().unwrap();
            store.flush().unwrap();
            store.append_owned(vec![row("s", "f", 3, 3.0)]);
            store.commit().unwrap();
            store.flush().unwrap();
            forge(&disk);
            match site {
                DetectionSite::Boot => {
                    let (reopened, report) = TsStore::open(vfs, small_opts()).unwrap();
                    assert_eq!((report.chunks_loaded, report.chunks_skipped), (1, 1));
                    store = reopened;
                }
                DetectionSite::Scan => {}
                DetectionSite::Compact => {
                    let report = store.compact(None).unwrap().unwrap();
                    assert_eq!((report.chunks_in, report.rows_in), (1, 1));
                }
                DetectionSite::Scrub => {
                    let out = store.verify_chunk(0).unwrap().unwrap();
                    assert!(matches!(out, VerifyOutcome::Quarantined(_)));
                }
                DetectionSite::Backup => {
                    let dest = MemDisk::new(112);
                    store.enable_backup(Arc::new(dest.clone())).unwrap();
                    assert_eq!(store.backup_now().unwrap(), 0);
                    // The generation holds the survivor alone.
                    let copied = dest.list().unwrap();
                    assert_eq!(
                        copied,
                        ["gen-00000000/chunk-00000001.tsm", "gen-00000000/manifest"]
                    );
                }
            }
            assert_eq!(
                store.scan().unwrap(),
                vec![row("s", "f", 3, 3.0)],
                "{site:?}"
            );
            let q = store.quarantined();
            assert_eq!(q.len(), 1, "{site:?}");
            assert_eq!((q[0].seq, q[0].site, q[0].rows), (0, site, 2), "{site:?}");
            assert!(disk.exists(&quarantine_name(0)).unwrap());
            assert!(!disk.exists(&chunk_name(0)).unwrap());
        }
    }

    #[test]
    fn quarantine_reserves_seq_across_reopens() {
        let disk = MemDisk::new(110);
        let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
        let (mut store, _) = TsStore::open(vfs.clone(), small_opts()).unwrap();
        store.append_owned(vec![row("s", "f", 1, 1.0)]);
        store.commit().unwrap();
        store.flush().unwrap();
        let name = chunk_name(0);
        let mut data = disk.read(&name).unwrap();
        let n = data.len();
        data[n - 1] ^= 0x02;
        let mut f = disk.create(&name).unwrap();
        f.append(&data).unwrap();
        f.sync().unwrap();
        // Boot moves the damaged chunk to quarantine.
        let (store, report) = TsStore::open(vfs.clone(), small_opts()).unwrap();
        assert_eq!(report.chunks_skipped, 1);
        assert_eq!(store.quarantined().len(), 1);
        assert_eq!(store.quarantined()[0].site, DetectionSite::Boot);
        assert!(disk.exists(&quarantine_name(0)).unwrap());
        drop(store);
        // Even with no live chunk left, a later reopen still reserves the
        // quarantined sequence number via the evidence file.
        let (mut store, report) = TsStore::open(vfs, small_opts()).unwrap();
        assert_eq!(report.chunks_skipped, 0);
        store.append_owned(vec![row("s", "f", 9, 9.0)]);
        store.commit().unwrap();
        store.flush().unwrap();
        assert_eq!(store.chunk_seqs(), &[1]);
    }

    #[test]
    fn observability_counts_commits_and_compactions() {
        let registry = Registry::new();
        let vfs: Arc<dyn Vfs> = Arc::new(MemDisk::new(108));
        let obs = StoreObs::new(&registry, "influx");
        let (mut store, _) = TsStore::open_with_obs(vfs, small_opts(), obs).unwrap();
        store.append_owned(vec![row("s", "f", 1, 1.0), row("s", "f", 2, 2.0)]);
        store.commit().unwrap();
        store.flush().unwrap();
        store.append_owned(vec![row("s", "f", 3, 3.0)]);
        store.commit().unwrap();
        store.flush().unwrap();
        store.compact(None).unwrap().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("wal.records_appended"), 3);
        assert_eq!(snap.counter_total("wal.commits"), 2);
        assert_eq!(snap.counter_total("compaction.snapshots"), 2);
        assert_eq!(snap.counter_total("compaction.runs"), 1);
        assert_eq!(snap.counter_total("compaction.rows_in"), 3);
        assert_eq!(snap.counter_total("compaction.rows_out"), 3);
        let h = snap
            .histogram("wal.commit_ns", &[("db", "influx")])
            .unwrap();
        assert_eq!(h.count, 2);
        assert!(h.sum > 0, "modeled commit latency must be non-zero");
    }

    #[test]
    fn same_seed_runs_produce_byte_identical_state() {
        let run = |seed: u64| -> Vec<(String, Vec<u8>)> {
            let disk = MemDisk::new(seed);
            let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
            let (mut store, _) = TsStore::open(vfs, small_opts()).unwrap();
            for i in 0..20i64 {
                store.append_owned(vec![row("cpu,host=a", "_cpu0", i * 500, 20.0 + i as f64)]);
                store.commit().unwrap();
            }
            store.flush().unwrap();
            disk.list()
                .unwrap()
                .into_iter()
                .map(|n| {
                    let d = disk.read(&n).unwrap();
                    (n, d)
                })
                .collect()
        };
        assert_eq!(run(1), run(2));
    }
}
