//! # pmove-store — durable storage engine
//!
//! The persistence layer under the P-MoVE stand-in databases: an
//! append-only write-ahead log with CRC-framed records and group commit,
//! immutable TSM-style chunks (delta-of-delta timestamps, Gorilla XOR
//! floats), compaction with last-write-wins dedup and retention-cutoff
//! drops, crash recovery that tolerates torn tails and bit flips,
//! background scrubbing, and online backups with point-in-time restore.
//!
//! Every byte goes through the [`Vfs`] trait. Its implementation is
//! [`MemDisk`], a seeded fault-injecting in-memory disk layered on the
//! `hwsim` block-device model. It is what makes the crash-recovery
//! property (`tests/crash_recovery.rs`) deterministic: for any seeded
//! fault schedule, reopening the store recovers exactly a prefix of the
//! offered writes that covers every acknowledged one.
//!
//! Layering, bottom to top:
//!
//! - [`crc`] / [`encode`] — checksums, varints, bit-level codecs
//! - `vfs` / `memdisk` — where bytes live and how they fail
//! - `wal` — durability of recent writes ([`Wal`])
//! - `batch` — the write path's block-shaped unit: the WAL frame
//!   ([`WriteBatch`]) and the memtable
//! - [`chunk`] — compressed immutable storage of old writes, as blocks
//! - `merge` — the block-merge kernel under flush, compaction and scan
//! - `store` — the engine tying them together ([`TsStore`])
//! - `scrub` / `backup` — background integrity verification
//!   ([`Scrubber`]) and backups with point-in-time restore ([`restore_at`])
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod backup;
mod batch;
pub mod chunk;
pub mod crc;
pub mod encode;
mod error;
mod memdisk;
mod merge;
mod row;
mod scrub;
mod store;
mod vfs;
mod wal;

pub use backup::{list_generations, restore_at, restore_replay_all, BackupError, RestoreReport};
pub use batch::WriteBatch;
pub use chunk::{chunk_name, Block, ChunkInfo};
pub use error::StoreError;
pub use memdisk::{FaultMode, FaultPlan, MemDisk, RotSchedule};
pub use row::{ColumnValue, RowRecord};
pub use scrub::Scrubber;
pub use store::{CompactionReport, RecoveryReport, StoreObs, StoreOptions, TsStore};
pub use vfs::Vfs;
pub use wal::Wal;
