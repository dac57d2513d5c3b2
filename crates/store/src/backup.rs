//! Online backups, continuous WAL archival, and point-in-time restore.
//!
//! The backup destination is its own [`Vfs`] — a second (virtual) disk,
//! so a disaster on the primary never takes the backups with it, and so
//! `MemDisk` rot/torn-write schedules apply to backup bytes exactly like
//! live bytes. Two kinds of state live there:
//!
//!   * **Archive segments** (`archive/seg-NNNNNNNN.log`): every WAL
//!     record the store group-commits is re-framed — prefixed with a
//!     monotonically increasing archive sequence number and the store's
//!     virtual timestamp — and appended to the current segment in the
//!     same `[len][crc32][payload]` framing as the WAL itself. Segments
//!     seal at each memtable flush, aligning segment boundaries with the
//!     chunk fence they were flushed behind.
//!   * **Snapshot generations** (`gen-NNNNNNNN/…`): a consistent online
//!     copy of the live chunk set, captured at an archive-sequence fence
//!     without stopping writes. Each chunk file is CRC-verified on the
//!     way out, and the generation's `manifest` — which names every
//!     chunk with its checksum and records the fence — is written
//!     **last**, so a backup interrupted by a crash simply has no valid
//!     manifest and is never mistaken for a complete one.
//!
//! Restore ([`restore_at`]) is the inverse: pick the newest generation
//! whose fence lies at or before the target virtual timestamp, verify
//! and copy its chunks into a fresh store namespace, then replay
//! archived records past the generation's flush fence up to the target.
//! Every checksum is re-verified; a gap or corruption in bytes the
//! restore still needs is a typed [`BackupError`] — the restore refuses
//! rather than materialize silently-wrong data. The [`RestoreReport`]
//! carries its own conservation ledger: every row that entered from the
//! snapshot or the replay is either in the restored store or accounted
//! as a last-write-wins duplicate, exactly.

use crate::batch::{Memtable, WriteBatch};
use crate::chunk::chunk_name;
use crate::crc::{crc32, crc32_finish, crc32_init, crc32_update};
use crate::error::{StoreError, StoreResult};
use crate::store::WAL_FILE;
use crate::vfs::{Vfs, VirtualFile};
use crate::wal::{scan_frames, Wal};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Namespace prefix for archive segments on the backup destination.
pub const ARCHIVE_PREFIX: &str = "archive/";

/// Magic bytes opening every generation manifest.
const MANIFEST_MAGIC: &[u8; 8] = b"PMBKUP1\0";

/// Archive segment file name for segment `id`.
pub fn segment_name(id: u64) -> String {
    format!("{ARCHIVE_PREFIX}seg-{id:08}.log")
}

/// Inverse of [`segment_name`].
pub fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix(ARCHIVE_PREFIX)?
        .strip_prefix("seg-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Directory-style prefix for generation `gen` on the destination.
pub fn generation_prefix(gen: u64) -> String {
    format!("gen-{gen:08}/")
}

/// Manifest file name for generation `gen`.
pub fn manifest_name(gen: u64) -> String {
    format!("gen-{gen:08}/manifest")
}

fn parse_generation(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("gen-")?;
    let (digits, _) = rest.split_once('/')?;
    digits.parse().ok()
}

// ------------------------------------------------------------------ errors

/// Why a backup or restore was refused. Every variant is a *detected*
/// problem: restore never falls back to silently-wrong data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackupError {
    /// An underlying storage operation failed.
    Store(StoreError),
    /// The destination holds neither a snapshot generation nor archive
    /// data — there is nothing to restore.
    NoBackup,
    /// A generation manifest exists but fails its magic or CRC.
    ManifestCorrupt {
        /// Generation whose manifest was damaged.
        gen: u64,
    },
    /// A backed-up chunk is missing or does not match the checksum its
    /// manifest recorded for it.
    ChunkCorrupt {
        /// Generation the chunk belongs to.
        gen: u64,
        /// Chunk file name inside the generation.
        name: String,
    },
    /// An archive segment contains a provably corrupt frame before the
    /// restore target was reached.
    ArchiveCorrupt {
        /// Segment id holding the damaged frame.
        segment: u64,
    },
    /// Archive sequence numbers are not contiguous where the restore
    /// still needs them.
    ArchiveGap {
        /// Sequence number the replay expected next.
        expected: u64,
        /// Sequence number actually found.
        found: u64,
    },
    /// An archived record deframed but did not decode.
    ArchiveDecode {
        /// Archive sequence number of the undecodable record.
        seq: u64,
    },
}

impl fmt::Display for BackupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackupError::Store(e) => write!(f, "backup storage error: {e}"),
            BackupError::NoBackup => write!(f, "no backup data at the destination"),
            BackupError::ManifestCorrupt { gen } => {
                write!(f, "generation {gen} manifest is corrupt")
            }
            BackupError::ChunkCorrupt { gen, name } => {
                write!(f, "generation {gen} chunk {name} is corrupt or missing")
            }
            BackupError::ArchiveCorrupt { segment } => {
                write!(f, "archive segment {segment} has a corrupt frame")
            }
            BackupError::ArchiveGap { expected, found } => {
                write!(f, "archive gap: expected seq {expected}, found {found}")
            }
            BackupError::ArchiveDecode { seq } => {
                write!(f, "archived record {seq} does not decode")
            }
        }
    }
}

impl std::error::Error for BackupError {}

impl From<StoreError> for BackupError {
    fn from(e: StoreError) -> Self {
        BackupError::Store(e)
    }
}

// ---------------------------------------------------------------- manifest

/// One chunk recorded by a generation manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestChunk {
    /// Original chunk file name (restore recreates it verbatim).
    pub name: String,
    /// CRC32 of the chunk file bytes at backup time.
    pub crc: u32,
    /// Size of the chunk file in bytes.
    pub bytes: u64,
    /// Rows the chunk held when it was verified for the copy.
    pub rows: u64,
}

/// A generation manifest: what the snapshot captured and where the
/// archive replay must pick up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Generation id (monotonic, never reused even across aborts).
    pub gen: u64,
    /// Last archive sequence number committed when the snapshot began.
    pub fence_seq: u64,
    /// Archive records with `seq <= flushed_seq` are already reflected
    /// in the chunk set; replay starts after this.
    pub flushed_seq: u64,
    /// Store virtual timestamp (ns) at the snapshot fence.
    pub fence_vts: i64,
    /// Chunks captured by this generation.
    pub chunks: Vec<ManifestChunk>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&self.gen.to_le_bytes());
        out.extend_from_slice(&self.fence_seq.to_le_bytes());
        out.extend_from_slice(&self.flushed_seq.to_le_bytes());
        out.extend_from_slice(&self.fence_vts.to_le_bytes());
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for c in &self.chunks {
            out.extend_from_slice(&(c.name.len() as u16).to_le_bytes());
            out.extend_from_slice(c.name.as_bytes());
            out.extend_from_slice(&c.crc.to_le_bytes());
            out.extend_from_slice(&c.bytes.to_le_bytes());
            out.extend_from_slice(&c.rows.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(data: &[u8]) -> Option<Manifest> {
        if data.len() < MANIFEST_MAGIC.len() + 36 + 4 || &data[..8] != MANIFEST_MAGIC {
            return None;
        }
        let body = &data[..data.len() - 4];
        let crc = u32::from_le_bytes(data[data.len() - 4..].try_into().ok()?);
        if crc32(body) != crc {
            return None;
        }
        let mut pos = 8usize;
        let mut take = |n: usize| -> Option<&[u8]> {
            let end = pos.checked_add(n).filter(|&e| e <= body.len())?;
            let s = &body[pos..end];
            pos = end;
            Some(s)
        };
        let gen = u64::from_le_bytes(take(8)?.try_into().ok()?);
        let fence_seq = u64::from_le_bytes(take(8)?.try_into().ok()?);
        let flushed_seq = u64::from_le_bytes(take(8)?.try_into().ok()?);
        let fence_vts = i64::from_le_bytes(take(8)?.try_into().ok()?);
        let count = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
        let mut chunks = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let name_len = u16::from_le_bytes(take(2)?.try_into().ok()?) as usize;
            let name = std::str::from_utf8(take(name_len)?).ok()?.to_string();
            let crc = u32::from_le_bytes(take(4)?.try_into().ok()?);
            let bytes = u64::from_le_bytes(take(8)?.try_into().ok()?);
            let rows = u64::from_le_bytes(take(8)?.try_into().ok()?);
            chunks.push(ManifestChunk {
                name,
                crc,
                bytes,
                rows,
            });
        }
        if pos != body.len() {
            return None;
        }
        Some(Manifest {
            gen,
            fence_seq,
            flushed_seq,
            fence_vts,
            chunks,
        })
    }
}

/// Every generation on `src` with a structurally valid manifest,
/// ascending by generation id. Torn generations (crash before the
/// manifest landed) and rotted manifests are skipped — they can never be
/// mistaken for restorable state.
pub fn list_generations(src: &dyn Vfs) -> StoreResult<Vec<Manifest>> {
    let mut out = Vec::new();
    for name in src.list()? {
        let Some(gen) = parse_generation(&name) else {
            continue;
        };
        if name != manifest_name(gen) {
            continue;
        }
        let data = src.read(&name)?;
        if let Some(m) = Manifest::decode(&data) {
            out.push(m);
        }
    }
    out.sort_by_key(|m| m.gen);
    Ok(out)
}

// ---------------------------------------------------------------- archiver

/// Frame one archive record (`seq || vts || payload` inside a
/// `[len][crc]` WAL-style frame) directly into `out`. The CRC streams
/// over the header and payload so no intermediate record buffer is
/// allocated — this runs once per committed record on the ingest path.
fn frame_archive_record(out: &mut Vec<u8>, seq: u64, vts: i64, payload: &[u8]) {
    let mut header = [0u8; 16];
    header[..8].copy_from_slice(&seq.to_le_bytes());
    header[8..].copy_from_slice(&vts.to_le_bytes());
    let crc = crc32_finish(crc32_update(crc32_update(crc32_init(), &header), payload));
    out.reserve(8 + 16 + payload.len());
    out.extend_from_slice(&((16 + payload.len()) as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&header);
    out.extend_from_slice(payload);
}

fn decode_archive_record(data: &[u8]) -> Option<(u64, i64, &[u8])> {
    if data.len() < 16 {
        return None;
    }
    let seq = u64::from_le_bytes(data[..8].try_into().ok()?);
    let vts = i64::from_le_bytes(data[8..16].try_into().ok()?);
    Some((seq, vts, &data[16..]))
}

/// Running totals for the backup subsystem, mirrored into the
/// `store.backup.*` metrics when the store carries observation handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackupStats {
    /// WAL records re-framed into the archive.
    pub records_archived: u64,
    /// Frame bytes appended to archive segments.
    pub bytes_archived: u64,
    /// Archive writes that failed (retried on later commits).
    pub archive_errors: u64,
    /// Snapshot generations completed (manifest durable).
    pub generations_completed: u64,
    /// Chunk files copied into generations.
    pub chunks_copied: u64,
    /// Chunk bytes copied into generations.
    pub bytes_copied: u64,
    /// Chunks a backup job had to skip (quarantined mid-job).
    pub chunks_skipped: u64,
    /// Backup jobs that failed before their manifest landed.
    pub backup_errors: u64,
    /// Virtual timestamp (ns) of the last completed generation.
    pub last_success_vts: i64,
}

/// What [`BackupState::attach`] found at the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackupAttach {
    /// Highest archive sequence number already durable at the
    /// destination; archival resumes at the next one.
    pub resumed_seq: u64,
    /// WAL records re-archived as catch-up (rows that were in the live
    /// WAL when backups were (re-)enabled).
    pub catchup_records: u64,
}

/// An in-progress snapshot generation.
#[derive(Debug)]
pub(crate) struct BackupJob {
    pub(crate) gen: u64,
    fence_seq: u64,
    flushed_seq: u64,
    fence_vts: i64,
    /// Chunk seqs not yet copied.
    pub(crate) todo: Vec<u64>,
    done: Vec<ManifestChunk>,
    rows: u64,
    skipped: u64,
}

/// Outcome of one completed snapshot generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackupReport {
    /// Generation id the manifest landed under.
    pub gen: u64,
    /// Chunks captured.
    pub chunks: u64,
    /// Chunk bytes copied.
    pub bytes: u64,
    /// Rows the captured chunks held.
    pub rows: u64,
    /// Chunks skipped because they were quarantined mid-job.
    pub chunks_skipped: u64,
    /// Archive fence recorded in the manifest.
    pub fence_seq: u64,
    /// Virtual timestamp of the fence.
    pub fence_vts: i64,
}

/// The store-side backup state: archive cursor, pinned chunks, and the
/// active snapshot job. Owned by `TsStore` when backups are enabled.
pub struct BackupState {
    dest: Arc<dyn Vfs>,
    /// Segment currently receiving archive frames.
    seg: u64,
    /// Next archive sequence number to assign.
    next_seq: u64,
    /// Records `<= flushed_seq` are reflected in the live chunk set.
    flushed_seq: u64,
    /// Records written into the current segment (seal only non-empty).
    seg_records: u64,
    /// Open handle on the current segment, reused across drains so each
    /// group archival pays one append + sync, not an open as well. Seals
    /// and write errors drop it; the next drain reopens.
    writer: Option<Box<dyn VirtualFile>>,
    /// Store virtual timestamp, stamped onto archived records.
    pub(crate) vts: i64,
    /// Committed-but-not-yet-archived payloads (retained across archive
    /// write failures, retried on later commits).
    pending: Vec<Vec<u8>>,
    /// The last archive write failed; resynchronize before writing.
    dirty: bool,
    /// Group-archival threshold: staged payloads are written to the
    /// destination once at least this many are pending (1 = archive on
    /// every commit). Flushes, snapshot fences, and re-attachment always
    /// drain regardless, so the archive lag is bounded by `group - 1`
    /// commits — and the WAL still holds those rows, so nothing is lost
    /// short of losing the primary disk itself.
    group: u64,
    /// Next generation id (never reused, aborted jobs included).
    next_gen: u64,
    job: Option<BackupJob>,
    /// Chunk seqs an in-progress job still needs: compaction must not
    /// delete their files until the job releases them.
    pinned: BTreeSet<u64>,
    /// Files compaction wanted to delete but couldn't (pinned); removed
    /// when the pin set drains.
    deferred: Vec<String>,
    stats: BackupStats,
}

impl BackupState {
    /// Attach to `dest`, resuming archive sequence numbering from
    /// whatever is already durable there and re-archiving `wal_payloads`
    /// (the live WAL contents) so rows committed before enablement — or
    /// recovered across a crash — are covered by the archive.
    pub fn attach(
        dest: Arc<dyn Vfs>,
        vts: i64,
        wal_payloads: &[Vec<u8>],
    ) -> StoreResult<(BackupState, BackupAttach)> {
        let mut max_seg = None;
        let mut max_gen = None;
        let mut max_seq = 0u64;
        for name in dest.list()? {
            if let Some(id) = parse_segment_name(&name) {
                max_seg = Some(max_seg.map_or(id, |m: u64| m.max(id)));
                let data = dest.read(&name)?;
                let (frames, _, _) = scan_frames(&data);
                for f in &frames {
                    if let Some((seq, _, _)) = decode_archive_record(f) {
                        max_seq = max_seq.max(seq);
                    }
                }
            } else if let Some(gen) = parse_generation(&name) {
                max_gen = Some(max_gen.map_or(gen, |m: u64| m.max(gen)));
            }
        }
        let mut state = BackupState {
            dest,
            // Always open a fresh segment: the tail of an old one may be
            // torn, and frames must never land after damaged bytes.
            seg: max_seg.map_or(0, |m| m + 1),
            next_seq: max_seq + 1,
            flushed_seq: 0,
            seg_records: 0,
            writer: None,
            vts,
            pending: wal_payloads.to_vec(),
            dirty: false,
            group: 1,
            next_gen: max_gen.map_or(0, |m| m + 1),
            job: None,
            pinned: BTreeSet::new(),
            deferred: Vec::new(),
            stats: BackupStats::default(),
        };
        let catchup = state.pending.len() as u64;
        if !state.pending.is_empty() {
            // Catch-up archival is best-effort like any other archive
            // write: a failure leaves the payloads pending for retry.
            state.archive_pending();
        }
        Ok((
            state,
            BackupAttach {
                resumed_seq: max_seq,
                catchup_records: catchup,
            },
        ))
    }

    /// Advance the virtual clock (monotonic).
    pub fn note_time(&mut self, vts: i64) {
        self.vts = self.vts.max(vts);
    }

    /// Queue one committed WAL payload for archival.
    pub fn stage(&mut self, payload: Vec<u8>) {
        self.pending.push(payload);
    }

    /// Set the group-archival threshold (clamped to at least 1).
    pub fn set_group(&mut self, group: u64) {
        self.group = group.max(1);
    }

    /// Archive pending payloads if the group threshold is met (the
    /// per-commit fast path: below the threshold this is a no-op, so a
    /// commit pays only one `Vec` push for archival).
    pub fn archive_maybe(&mut self) -> u64 {
        if (self.pending.len() as u64) < self.group {
            return 0;
        }
        self.archive_pending()
    }

    /// Running totals.
    pub fn stats(&self) -> BackupStats {
        self.stats
    }

    /// The backup destination.
    pub fn dest(&self) -> Arc<dyn Vfs> {
        self.dest.clone()
    }

    /// Is `seq` pinned by an in-progress snapshot job?
    pub fn is_pinned(&self, seq: u64) -> bool {
        self.pinned.contains(&seq)
    }

    /// Remember `name` for deletion once the pin set drains.
    pub fn defer_delete(&mut self, name: String) {
        self.deferred.push(name);
    }

    /// Pop the next chunk seq the active job still has to copy.
    pub(crate) fn job_todo_pop(&mut self) -> Option<u64> {
        self.job.as_mut()?.todo.pop()
    }

    /// Has the active job copied (or skipped) every chunk?
    pub(crate) fn job_todo_is_empty(&self) -> bool {
        self.job.as_ref().is_some_and(|j| j.todo.is_empty())
    }

    /// After an archive write error the durable tail of the current
    /// segment is unknown: read it back, drop pending payloads that made
    /// it to the platter, and seal the segment so new frames never land
    /// after torn bytes.
    fn resync_after_error(&mut self) -> bool {
        let Ok(data) = self.dest.read(&segment_name(self.seg)) else {
            return false; // still unreachable; stay dirty
        };
        let (frames, _, _) = scan_frames(&data);
        let mut survived = 0usize;
        for f in &frames {
            if let Some((seq, _, _)) = decode_archive_record(f) {
                if seq >= self.next_seq {
                    survived += 1;
                }
            }
        }
        self.pending.drain(..survived.min(self.pending.len()));
        self.next_seq += survived as u64;
        self.seg += 1;
        self.seg_records = 0;
        self.writer = None;
        self.dirty = false;
        true
    }

    /// Write every pending payload to the current archive segment: one
    /// append, one sync, sequence numbers assigned in order. Failures
    /// leave the payloads pending and mark the archiver dirty — the
    /// primary commit that carried the rows has already succeeded, so
    /// archival lag must never fail the write path.
    pub fn archive_pending(&mut self) -> u64 {
        if self.pending.is_empty() {
            return 0;
        }
        if self.dirty && !self.resync_after_error() {
            self.stats.archive_errors += 1;
            return 0;
        }
        if self.pending.is_empty() {
            return 0;
        }
        let mut framed = Vec::new();
        for (i, payload) in self.pending.iter().enumerate() {
            frame_archive_record(&mut framed, self.next_seq + i as u64, self.vts, payload);
        }
        let res = (|| -> StoreResult<()> {
            if self.writer.is_none() {
                let name = segment_name(self.seg);
                self.writer = Some(if self.seg_records == 0 {
                    self.dest.create(&name)?
                } else {
                    self.dest.open_append(&name)?
                });
            }
            let f = self.writer.as_mut().expect("writer just ensured");
            f.append(&framed)?;
            f.sync()?;
            Ok(())
        })();
        match res {
            Ok(()) => {
                let n = self.pending.len() as u64;
                self.next_seq += n;
                self.seg_records += n;
                self.pending.clear();
                self.stats.records_archived += n;
                self.stats.bytes_archived += framed.len() as u64;
                n
            }
            Err(_) => {
                self.stats.archive_errors += 1;
                self.dirty = true;
                self.writer = None;
                0
            }
        }
    }

    /// The memtable just flushed into a chunk and the WAL reset: advance
    /// the flush fence (only when nothing is awaiting archival — the
    /// fence must never claim coverage the archive doesn't have) and
    /// seal the current segment.
    pub fn on_flush(&mut self) {
        // Drain any group-archival backlog first: the fence below may
        // only advance over records the archive actually holds.
        self.archive_pending();
        if self.pending.is_empty() && !self.dirty {
            self.flushed_seq = self.next_seq - 1;
        }
        if self.seg_records > 0 {
            self.seg += 1;
            self.seg_records = 0;
            self.writer = None;
        }
    }

    /// Begin a snapshot generation over `chunk_seqs`, pinning them
    /// against compaction. Returns the generation id.
    pub fn begin_job(&mut self, chunk_seqs: &[u64]) -> StoreResult<u64> {
        if self.job.is_some() {
            return Err(StoreError::Io("backup already in progress".into()));
        }
        // A completed generation advertises coverage up to its fence:
        // drain the group-archival backlog so the advertisement is true.
        self.archive_pending();
        let gen = self.next_gen;
        self.next_gen += 1;
        self.pinned.extend(chunk_seqs.iter().copied());
        self.job = Some(BackupJob {
            gen,
            fence_seq: self.next_seq - 1,
            flushed_seq: self.flushed_seq,
            fence_vts: self.vts,
            todo: chunk_seqs.to_vec(),
            done: Vec::new(),
            rows: 0,
            skipped: 0,
        });
        Ok(gen)
    }

    /// Copy one verified chunk into the active generation.
    pub fn job_copy_chunk(&mut self, seq: u64, data: &[u8], rows: u64) -> StoreResult<()> {
        let job = self
            .job
            .as_mut()
            .ok_or_else(|| StoreError::Io("no backup in progress".into()))?;
        let name = chunk_name(seq);
        let mut f = self
            .dest
            .create(&format!("{}{name}", generation_prefix(job.gen)))?;
        f.append(data)?;
        f.sync()?;
        job.done.push(ManifestChunk {
            name,
            crc: crc32(data),
            bytes: data.len() as u64,
            rows,
        });
        job.rows += rows;
        self.stats.chunks_copied += 1;
        self.stats.bytes_copied += data.len() as u64;
        Ok(())
    }

    /// Note a chunk the job could not capture (quarantined mid-job).
    pub fn job_skip_chunk(&mut self) {
        if let Some(job) = self.job.as_mut() {
            job.skipped += 1;
            self.stats.chunks_skipped += 1;
        }
    }

    /// Write the manifest — the commit point of the whole generation —
    /// and release the pins. Deferred deletions are returned for the
    /// store to apply to its own namespace.
    pub fn finish_job(&mut self) -> StoreResult<(BackupReport, Vec<String>)> {
        let job = self
            .job
            .as_mut()
            .ok_or_else(|| StoreError::Io("no backup in progress".into()))?;
        if !job.todo.is_empty() {
            return Err(StoreError::Io("backup job has chunks left to copy".into()));
        }
        let manifest = Manifest {
            gen: job.gen,
            fence_seq: job.fence_seq,
            flushed_seq: job.flushed_seq,
            fence_vts: job.fence_vts,
            chunks: job.done.clone(),
        };
        let mut f = self.dest.create(&manifest_name(job.gen))?;
        f.append(&manifest.encode())?;
        f.sync()?;
        let job = self.job.take().expect("job checked above");
        let report = BackupReport {
            gen: job.gen,
            chunks: job.done.len() as u64,
            bytes: job.done.iter().map(|c| c.bytes).sum(),
            rows: job.rows,
            chunks_skipped: job.skipped,
            fence_seq: job.fence_seq,
            fence_vts: job.fence_vts,
        };
        self.stats.generations_completed += 1;
        self.stats.last_success_vts = job.fence_vts;
        self.pinned.clear();
        Ok((report, std::mem::take(&mut self.deferred)))
    }

    /// Abandon the active job: release pins, count the failure, and
    /// return the deferred deletions. The torn generation keeps its id
    /// (never reused) and, having no valid manifest, is invisible to
    /// restore.
    pub fn abort_job(&mut self) -> Vec<String> {
        if self.job.take().is_some() {
            self.stats.backup_errors += 1;
        }
        self.pinned.clear();
        std::mem::take(&mut self.deferred)
    }
}

impl fmt::Debug for BackupState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackupState")
            .field("seg", &self.seg)
            .field("next_seq", &self.next_seq)
            .field("flushed_seq", &self.flushed_seq)
            .field("pending", &self.pending.len())
            .field("job", &self.job.is_some())
            .finish()
    }
}

// ----------------------------------------------------------------- restore

/// Conservation-ledgered outcome of a restore. Every row that entered
/// from the snapshot or the replay is either in the restored store or
/// accounted as a last-write-wins duplicate:
/// `snapshot_rows + replayed_rows == restored_rows + dedup_rows`.
///
/// The snapshot's chunks are adopted verbatim (CRC-verified, never
/// re-decoded — they were verified row-by-row when the backup captured
/// them), so `restored_rows` counts the chunk rows as materialized plus
/// the distinct cells the replay added, and `dedup_rows` counts
/// collisions among replayed records. LWW resolution of any duplicate
/// across the chunk/replay boundary happens at read time in the restored
/// store, exactly as it would have on the primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreReport {
    /// Generation the snapshot came from (`None` = archive-only replay).
    pub gen: Option<u64>,
    /// Chunk files copied from the snapshot.
    pub snapshot_chunks: u64,
    /// Rows those chunks held (from the verified manifest).
    pub snapshot_rows: u64,
    /// Archive records replayed past the flush fence.
    pub replayed_records: u64,
    /// Rows those records carried.
    pub replayed_rows: u64,
    /// Rows materialized in the restored namespace: adopted chunk rows
    /// plus distinct replayed cells.
    pub restored_rows: u64,
    /// Replayed rows superseded by a later replayed write of the same
    /// cell.
    pub dedup_rows: u64,
    /// Snapshot bytes copied.
    pub bytes_copied: u64,
    /// Archive bytes scanned during the replay.
    pub bytes_replayed: u64,
}

impl RestoreReport {
    /// Does the restore ledger balance exactly?
    pub fn conserved(&self) -> bool {
        self.snapshot_rows + self.replayed_rows == self.restored_rows + self.dedup_rows
    }
}

/// Restore the newest state at or before virtual timestamp `t_vts` from
/// backup source `src` into the (empty) store namespace `target`.
///
/// Picks the newest generation whose fence lies at or before `t_vts`
/// (or no snapshot at all, replaying the archive from the beginning),
/// verifies and copies its chunks, then replays archived records past
/// the generation's flush fence whose stamp is `<= t_vts`. After a
/// successful restore, `TsStore::open(target, …)` yields the restored
/// store. Any gap or corruption in bytes the restore needs is a typed
/// refusal; `target` must then be considered garbage.
pub fn restore_at(
    src: &dyn Vfs,
    target: Arc<dyn Vfs>,
    t_vts: i64,
) -> Result<RestoreReport, BackupError> {
    restore_inner(src, target, t_vts, true)
}

/// [`restore_at`] that ignores every snapshot generation and rebuilds
/// purely by replaying the archive from record 1 — the slow-path
/// baseline the snapshot fast path is benchmarked against.
pub fn restore_replay_all(
    src: &dyn Vfs,
    target: Arc<dyn Vfs>,
    t_vts: i64,
) -> Result<RestoreReport, BackupError> {
    restore_inner(src, target, t_vts, false)
}

fn restore_inner(
    src: &dyn Vfs,
    target: Arc<dyn Vfs>,
    t_vts: i64,
    use_snapshot: bool,
) -> Result<RestoreReport, BackupError> {
    let generations = list_generations(src)?;
    let segment_ids: Vec<u64> = {
        let mut ids: Vec<u64> = src
            .list()?
            .iter()
            .filter_map(|n| parse_segment_name(n))
            .collect();
        ids.sort_unstable();
        ids
    };
    if generations.is_empty() && segment_ids.is_empty() {
        return Err(BackupError::NoBackup);
    }
    let chosen = if use_snapshot {
        generations.iter().rev().find(|m| m.fence_vts <= t_vts)
    } else {
        None
    };

    let mut report = RestoreReport {
        gen: chosen.map(|m| m.gen),
        ..RestoreReport::default()
    };
    // Every replayed cell; duplicate cells are counted, never dropped
    // silently — the restore ledger has to balance.
    let mut replayed = Memtable::default();

    // 1. Snapshot chunks: verify against the manifest *and* the chunk's
    //    own internal CRC, then copy verbatim into the target.
    let mut flushed_seq = 0u64;
    if let Some(m) = chosen {
        flushed_seq = m.flushed_seq;
        for entry in &m.chunks {
            let src_name = format!("{}{}", generation_prefix(m.gen), entry.name);
            let data = match src.read(&src_name) {
                Ok(d) => d,
                Err(StoreError::DiskCrashed) => return Err(StoreError::DiskCrashed.into()),
                Err(_) => {
                    return Err(BackupError::ChunkCorrupt {
                        gen: m.gen,
                        name: entry.name.clone(),
                    })
                }
            };
            if data.len() as u64 != entry.bytes || crc32(&data) != entry.crc {
                return Err(BackupError::ChunkCorrupt {
                    gen: m.gen,
                    name: entry.name.clone(),
                });
            }
            // Verbatim adoption: the CRC just proved these are the exact
            // bytes the backup job verified row-by-row at capture time
            // (the manifest's row count comes from that decode), so the
            // restore skips re-decoding them entirely — this is what
            // makes the snapshot path beat replaying the archive.
            let mut f = target.create(&entry.name)?;
            f.append(&data)?;
            f.sync()?;
            report.snapshot_chunks += 1;
            report.snapshot_rows += entry.rows;
            report.bytes_copied += data.len() as u64;
        }
    }

    // 2. Archive replay: records past the flush fence, up to the target
    //    timestamp, in strictly contiguous sequence order. The replayed
    //    payloads are re-framed into the target's WAL, so the restored
    //    namespace is exactly a store that crashed after those commits.
    //
    //    With a snapshot in hand, segments wholly at or below the flush
    //    fence are *skipped without being read*: sequence numbers grow
    //    strictly across segment ids, so a reverse walk stops at the
    //    first segment whose records could straddle the fence. This is
    //    what makes snapshot restore cheap when the archive is long — and
    //    it means pre-fence archive damage (or pruned early segments)
    //    cannot block a restore that never needs those bytes.
    let mut replay: Vec<(u64, Vec<u8>)> = Vec::new();
    for &id in segment_ids.iter().rev() {
        let data = src.read(&segment_name(id))?;
        let first_seq = scan_frames(&data)
            .0
            .first()
            .and_then(|f| decode_archive_record(f))
            .map(|(seq, _, _)| seq);
        replay.push((id, data));
        // Without a fence every segment is needed; otherwise stop at the
        // first segment reaching back to covered records — everything
        // older is covered too.
        if flushed_seq > 0 && first_seq.is_some_and(|s| s <= flushed_seq) {
            break;
        }
    }
    replay.reverse();
    // The needed range must be contiguous from the fence onward; for an
    // archive-only replay, from the very first record.
    let mut expected = if flushed_seq == 0 { Some(1u64) } else { None };
    let (mut wal, _, _) = Wal::open(target.clone(), WAL_FILE)?;
    'segments: for (id, data) in &replay {
        let id = *id;
        report.bytes_replayed += data.len() as u64;
        let (frames, _, corrupt) = scan_frames(data);
        for frame in &frames {
            let Some((seq, vts, payload)) = decode_archive_record(frame) else {
                return Err(BackupError::ArchiveCorrupt { segment: id });
            };
            if vts > t_vts {
                // The archive is stamped monotonically: everything past
                // this record lies beyond the restore target, so tail
                // damage out there cannot matter.
                break 'segments;
            }
            match expected {
                Some(e) if seq != e => {
                    return Err(BackupError::ArchiveGap {
                        expected: e,
                        found: seq,
                    })
                }
                None if seq > flushed_seq + 1 => {
                    // The oldest segment we kept starts beyond the
                    // fence: records the snapshot does not cover are
                    // missing from the archive.
                    return Err(BackupError::ArchiveGap {
                        expected: flushed_seq + 1,
                        found: seq,
                    });
                }
                _ => {}
            }
            expected = Some(seq + 1);
            if seq > flushed_seq {
                let batch =
                    WriteBatch::decode(payload).map_err(|_| BackupError::ArchiveDecode { seq })?;
                report.replayed_records += 1;
                report.replayed_rows += batch.cells() as u64;
                replayed.absorb(batch);
                wal.append(payload);
            }
        }
        if corrupt > 0 {
            // A provably damaged frame before the target was reached:
            // records the restore may still need are unreadable.
            return Err(BackupError::ArchiveCorrupt { segment: id });
        }
    }
    wal.commit()?;

    let cells = replayed.distinct_cells() as u64;
    report.dedup_rows = report.replayed_rows - cells;
    report.restored_rows = report.snapshot_rows + cells;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memdisk::{FaultMode, FaultPlan, MemDisk};
    use crate::row::{ColumnValue, RowRecord};
    use crate::store::{StoreOptions, TsStore};

    fn row(series: &str, field: &str, ts: i64, v: f64) -> RowRecord {
        RowRecord::new(series, field, ts, ColumnValue::F64(v))
    }

    fn manual_opts() -> StoreOptions {
        StoreOptions {
            flush_threshold_rows: 1_000_000,
            compact_min_chunks: 1_000_000,
        }
    }

    /// Fresh store on its own seeded disk with backups to a second disk.
    fn store_with_backup(seed: u64) -> (TsStore, MemDisk, MemDisk) {
        let primary = MemDisk::new(seed);
        let dest = MemDisk::new(seed ^ 0xBAC4_B4C4);
        let (mut store, _) = TsStore::open(Arc::new(primary.clone()), manual_opts()).unwrap();
        store.enable_backup(Arc::new(dest.clone())).unwrap();
        (store, primary, dest)
    }

    fn restore_rows(src: &MemDisk, t_vts: i64) -> (Vec<RowRecord>, RestoreReport) {
        let scratch = MemDisk::new(0x05C4_A7C4);
        let report = restore_at(src, Arc::new(scratch.clone()), t_vts).unwrap();
        let (mut restored, _) = TsStore::open(Arc::new(scratch), manual_opts()).unwrap();
        (restored.scan().unwrap(), report)
    }

    #[test]
    fn backup_restore_roundtrip_snapshot_plus_replay() {
        let (mut store, _, dest) = store_with_backup(40);
        store.note_time(1_000);
        store.append(&[row("s", "f", 1, 1.0), row("s", "f", 2, -0.0)]);
        store.commit().unwrap();
        store.flush().unwrap(); // chunk 0, archive fence advances
        store.note_time(2_000);
        store.append(&[row("s", "f", 3, f64::NAN)]);
        store.commit().unwrap();
        let report = store.backup_now().unwrap();
        assert_eq!(report.chunks, 1);
        assert_eq!(report.fence_vts, 2_000);
        // Rows committed after the snapshot ride the archive alone.
        store.note_time(3_000);
        store.append(&[row("s", "f", 4, 4.0), row("s", "f", 2, 20.0)]);
        store.commit().unwrap();

        let want: Vec<RowRecord> = store.scan().unwrap();
        let (got, rr) = restore_rows(&dest, 3_000);
        assert_eq!(got.len(), want.len());
        for (a, b) in want.iter().zip(&got) {
            assert_eq!((&a.series, &a.field, a.ts), (&b.series, &b.field, b.ts));
            match (&a.value, &b.value) {
                (ColumnValue::F64(x), ColumnValue::F64(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
                (x, y) => assert_eq!(x, y),
            }
        }
        assert!(rr.conserved(), "restore ledger must balance: {rr:?}");
        assert_eq!(rr.gen, Some(0));
        assert!(rr.replayed_rows >= 3, "post-snapshot rows replay");

        // PITR: restoring at the first fence excludes later commits.
        let (early, rr1) = restore_rows(&dest, 1_000);
        assert_eq!(early.len(), 2);
        assert!(rr1.conserved());
    }

    #[test]
    fn compaction_defers_deleting_pinned_chunks_until_backup_finishes() {
        let (mut store, primary, dest) = store_with_backup(41);
        store.note_time(1_000);
        for i in 0..3i64 {
            store.append(&[row("s", "f", i, i as f64)]);
            store.commit().unwrap();
            store.flush().unwrap();
        }
        assert_eq!(store.chunk_seqs(), &[0, 1, 2]);
        store.backup_begin().unwrap();
        // Backup races compaction: the merge happens mid-job.
        store.compact(None).unwrap().unwrap();
        // The inputs are merged away from the live set but their files
        // must survive for the pinned snapshot.
        assert_eq!(store.chunk_count(), 1);
        for seq in 0..3 {
            assert!(
                primary.exists(&chunk_name(seq)).unwrap(),
                "pinned chunk {seq} deleted under the backup job"
            );
        }
        while !store.backup_step(1).unwrap() {}
        store.backup_finish().unwrap();
        // Pins released: the deferred deletions have been applied.
        for seq in 0..3 {
            assert!(!primary.exists(&chunk_name(seq)).unwrap());
        }
        // And the generation restores the fenced state faithfully.
        let (got, rr) = restore_rows(&dest, i64::MAX);
        assert_eq!(got.len(), 3);
        assert!(rr.conserved());
    }

    #[test]
    fn torn_backup_is_invisible_and_next_tick_completes() {
        let (mut store, _, dest) = store_with_backup(42);
        store.note_time(1_000);
        store.append(&[row("s", "f", 1, 1.0)]);
        store.commit().unwrap();
        store.flush().unwrap();
        // Crash the backup disk mid-job: the chunk copy (or the
        // manifest) never lands.
        dest.schedule_fault(FaultPlan {
            crash_at_op: dest.ops_done() + 2,
            mode: FaultMode::TornTail,
        });
        assert!(store.backup_now().is_err());
        dest.restart();
        // No valid manifest: the torn generation cannot be restored.
        assert!(list_generations(&dest).unwrap().is_empty());
        // Restore falls back to archive-only replay, which must either
        // succeed on the surviving prefix or refuse with a typed error —
        // never fabricate the snapshot that was torn away.
        let _ = restore_at(&dest, Arc::new(MemDisk::new(9)) as Arc<dyn Vfs>, i64::MAX);
        // The live store is untouched.
        assert_eq!(store.scan().unwrap().len(), 1);
        // The next tick produces a complete generation with a fresh id.
        let report = store.backup_now().unwrap();
        assert_eq!(report.gen, 1, "aborted generation id is never reused");
        let gens = list_generations(&dest).unwrap();
        assert_eq!(gens.len(), 1);
        let (got, rr) = restore_rows(&dest, i64::MAX);
        assert_eq!(got.len(), 1);
        assert!(rr.conserved());
        assert_eq!(store.backup_stats().unwrap().backup_errors, 1);
    }

    #[test]
    fn corrupt_backed_up_chunk_is_refused_not_restored() {
        let (mut store, _, dest) = store_with_backup(43);
        store.note_time(1_000);
        store.append(&[row("s", "f", 1, 1.0), row("s", "f", 2, 2.0)]);
        store.commit().unwrap();
        store.flush().unwrap();
        store.backup_now().unwrap();
        // Rot one byte of the backed-up chunk copy.
        let name = format!("{}{}", generation_prefix(0), chunk_name(0));
        let mut data = dest.read(&name).unwrap();
        let n = data.len();
        data[n / 2] ^= 0x10;
        let mut f = dest.create(&name).unwrap();
        f.append(&data).unwrap();
        f.sync().unwrap();
        let err =
            restore_at(&dest, Arc::new(MemDisk::new(9)) as Arc<dyn Vfs>, i64::MAX).unwrap_err();
        assert!(
            matches!(err, BackupError::ChunkCorrupt { gen: 0, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn archive_corruption_before_target_is_refused() {
        let (mut store, _, dest) = store_with_backup(44);
        store.note_time(1_000);
        store.append(&[row("s", "f", 1, 1.0)]);
        store.commit().unwrap();
        store.note_time(2_000);
        store.append(&[row("s", "f", 2, 2.0)]);
        store.commit().unwrap();
        // Rot the first archive segment's first frame payload.
        let name = segment_name(0);
        let mut data = dest.read(&name).unwrap();
        data[30] ^= 0x01;
        let mut f = dest.create(&name).unwrap();
        f.append(&data).unwrap();
        f.sync().unwrap();
        let err =
            restore_at(&dest, Arc::new(MemDisk::new(9)) as Arc<dyn Vfs>, i64::MAX).unwrap_err();
        assert!(
            matches!(err, BackupError::ArchiveCorrupt { segment: 0 }),
            "got {err:?}"
        );
    }

    #[test]
    fn archiver_rides_through_destination_crash() {
        let (mut store, _, dest) = store_with_backup(45);
        store.note_time(1_000);
        store.append(&[row("s", "f", 1, 1.0)]);
        store.commit().unwrap();
        // Crash the backup disk; the primary commit must still succeed.
        dest.schedule_fault(FaultPlan {
            crash_at_op: dest.ops_done() + 1,
            mode: FaultMode::TornTail,
        });
        store.note_time(2_000);
        store.append(&[row("s", "f", 2, 2.0)]);
        store.commit().unwrap(); // archive write fails silently
        assert!(store.backup_stats().unwrap().archive_errors >= 1);
        dest.restart();
        // The retry resyncs, seals past any torn bytes, and catches up.
        store.note_time(3_000);
        store.append(&[row("s", "f", 3, 3.0)]);
        store.commit().unwrap();
        let (got, rr) = restore_rows(&dest, i64::MAX);
        assert_eq!(got.len(), 3, "archive lag repaired after dest restart");
        assert!(rr.conserved());
    }

    #[test]
    fn reattach_after_primary_crash_covers_recovered_rows() {
        let primary = MemDisk::new(46);
        let dest = MemDisk::new(47);
        let (mut store, _) = TsStore::open(Arc::new(primary.clone()), manual_opts()).unwrap();
        store.enable_backup(Arc::new(dest.clone())).unwrap();
        store.note_time(1_000);
        store.append(&[row("s", "f", 1, 1.0)]);
        store.commit().unwrap();
        // Primary dies; reopen and re-enable backups.
        primary.schedule_fault(FaultPlan {
            crash_at_op: primary.ops_done() + 1,
            mode: FaultMode::CleanStop,
        });
        store.append(&[row("s", "f", 2, 2.0)]);
        assert!(store.commit().is_err());
        primary.restart();
        drop(store);
        let (mut store, rec) = TsStore::open(Arc::new(primary.clone()), manual_opts()).unwrap();
        assert_eq!(rec.wal_rows, 1);
        let attach = store.enable_backup(Arc::new(dest.clone())).unwrap();
        assert_eq!(attach.resumed_seq, 1, "archive cursor resumes");
        assert_eq!(attach.catchup_records, 1, "live WAL re-archived");
        store.note_time(5_000);
        store.append(&[row("s", "f", 9, 9.0)]);
        store.commit().unwrap();
        let (got, rr) = restore_rows(&dest, i64::MAX);
        assert_eq!(got.len(), 2);
        assert!(rr.conserved());
        assert!(rr.dedup_rows >= 1, "catch-up duplicates are deduped");
    }

    #[test]
    fn manifest_roundtrip_and_crc_rejection() {
        let m = Manifest {
            gen: 3,
            fence_seq: 41,
            flushed_seq: 17,
            fence_vts: 9_000_000_000,
            chunks: vec![ManifestChunk {
                name: chunk_name(5),
                crc: 0xDEAD_BEEF,
                bytes: 123,
                rows: 7,
            }],
        };
        let enc = m.encode();
        assert_eq!(Manifest::decode(&enc), Some(m));
        let mut bad = enc.clone();
        bad[10] ^= 0x04;
        assert_eq!(Manifest::decode(&bad), None);
        assert_eq!(Manifest::decode(&enc[..enc.len() - 1]), None);
    }

    #[test]
    fn segment_and_generation_names_parse() {
        assert_eq!(parse_segment_name(&segment_name(7)), Some(7));
        assert_eq!(parse_segment_name("archive/other"), None);
        assert_eq!(parse_generation(&manifest_name(12)), Some(12));
        assert_eq!(parse_generation("chunk-00000001.tsm"), None);
    }

    #[test]
    fn empty_destination_refuses_restore() {
        let src = MemDisk::new(1);
        let target: Arc<dyn Vfs> = Arc::new(MemDisk::new(2));
        assert_eq!(
            restore_at(&src, target, i64::MAX).unwrap_err(),
            BackupError::NoBackup
        );
    }
}
