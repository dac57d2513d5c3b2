//! # pmove-store — durable storage engine
//!
//! The persistence layer under the P-MoVE stand-in databases: an
//! append-only write-ahead log with CRC-framed records and group commit,
//! immutable TSM-style chunks (delta-of-delta timestamps, Gorilla XOR
//! floats), compaction with last-write-wins dedup and retention-cutoff
//! drops, and crash recovery that tolerates torn tails and bit flips.
//!
//! Every byte goes through the [`vfs::Vfs`] abstraction, with two
//! implementations: [`vfs::StdFs`] over the real filesystem, and
//! [`memdisk::MemDisk`], a seeded fault-injecting in-memory disk layered
//! on the `hwsim` block-device model. The latter is what makes the
//! crash-recovery property (`tests/crash_recovery.rs`) deterministic:
//! for any seeded fault schedule, reopening the store recovers exactly a
//! prefix of the offered writes that covers every acknowledged one.
//!
//! Layering, bottom to top:
//!
//! - [`crc`] / [`encode`] — checksums, varints, bit-level codecs
//! - [`vfs`] / [`memdisk`] — where bytes live and how they fail
//! - [`wal`] — durability of recent writes
//! - [`batch`] — the write path's block-shaped unit: WAL frame and memtable
//! - [`chunk`] — compressed immutable storage of old writes, as blocks
//! - `merge` — the block-merge kernel under flush, compaction and scan
//! - [`store`] — the engine tying them together ([`store::TsStore`])
//! - [`scrub`] — background integrity verification over the engine
#![forbid(unsafe_code)]

pub mod backup;
pub mod batch;
pub mod chunk;
pub mod crc;
pub mod encode;
pub mod error;
pub mod memdisk;
mod merge;
pub mod row;
pub mod scrub;
pub mod store;
pub mod vfs;
pub mod wal;

pub use backup::{
    list_generations, restore_at, restore_replay_all, BackupAttach, BackupError, BackupReport,
    BackupStats, Manifest, ManifestChunk, RestoreReport,
};
pub use batch::WriteBatch;
pub use chunk::{chunk_name, parse_chunk_name, probe_chunk, Block, ChunkInfo, ChunkSummary};
pub use error::{StoreError, StoreResult};
pub use memdisk::{FaultMode, FaultPlan, MemDisk, RotEvent, RotRecord, RotSchedule};
pub use row::{ColumnValue, RowRecord};
pub use scrub::{ScrubConfig, ScrubReport, Scrubber};
pub use store::{
    quarantine_name, CompactionReport, DetectionSite, QuarantinedChunk, RecoveryReport, StoreObs,
    StoreOptions, TsStore, VerifyOutcome, WalScrub, QUARANTINE_PREFIX,
};
pub use vfs::{StdFs, Vfs, VirtualFile};
pub use wal::{CommitInfo, Wal, WalReplay};
