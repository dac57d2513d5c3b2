//! Virtual filesystem abstraction: every byte the engine persists goes
//! through [`Vfs`] / [`VirtualFile`]. The implementation in the tree is
//! the deterministic fault-injecting disk (`MemDisk`), so the same
//! WAL/chunk/compaction code runs under every seeded fault schedule the
//! crash-recovery property tests draw.

use crate::error::StoreResult;
use pmove_hwsim::disk::DiskSpec;

/// An open, append-only file handle.
pub trait VirtualFile: Send {
    /// Append bytes to the end of the file. Appended data is *not*
    /// durable until [`VirtualFile::sync`] returns `Ok`.
    fn append(&mut self, data: &[u8]) -> StoreResult<()>;

    /// Make all previously appended bytes durable (the acknowledgement
    /// barrier of the group commit).
    fn sync(&mut self) -> StoreResult<()>;

    /// Current file length in bytes (durable + pending).
    fn len(&self) -> StoreResult<u64>;

    /// True when no bytes have been written.
    fn is_empty(&self) -> StoreResult<bool> {
        Ok(self.len()? == 0)
    }
}

/// A flat directory of named files.
pub trait Vfs: Send + Sync {
    /// Open `name` for appending, creating it when absent.
    fn open_append(&self, name: &str) -> StoreResult<Box<dyn VirtualFile>>;

    /// Create (or truncate) `name` and open it for appending.
    fn create(&self, name: &str) -> StoreResult<Box<dyn VirtualFile>>;

    /// Read the whole durable content of `name`.
    fn read(&self, name: &str) -> StoreResult<Vec<u8>>;

    /// Sorted list of file names present.
    fn list(&self) -> StoreResult<Vec<String>>;

    /// Delete `name`; succeeds when absent.
    fn remove(&self, name: &str) -> StoreResult<()>;

    /// Does `name` exist?
    fn exists(&self, name: &str) -> StoreResult<bool>;

    /// The block-device model used to derive deterministic modeled
    /// latencies for the `pmove.self.wal.*` histograms.
    fn disk_spec(&self) -> DiskSpec;
}
