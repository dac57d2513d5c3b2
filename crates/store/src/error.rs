//! Error type shared by every storage-engine operation.

use std::fmt;

/// Result alias used throughout the crate.
pub(crate) type StoreResult<T> = Result<T, StoreError>;

/// Errors produced by the durable storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Underlying I/O failure (message from the real or virtual disk).
    Io(String),
    /// The virtual disk has crashed; operations fail until it is
    /// restarted (see `MemDisk::restart`).
    DiskCrashed,
    /// A file was present but structurally invalid beyond the point of
    /// tolerated tail damage (e.g. a chunk with a bad magic number).
    Corrupt(String),
    /// A decoder ran out of bytes or met an impossible value.
    Decode(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "storage I/O error: {m}"),
            StoreError::DiskCrashed => write!(f, "virtual disk crashed"),
            StoreError::Corrupt(m) => write!(f, "corrupt file: {m}"),
            StoreError::Decode(m) => write!(f, "decode error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(StoreError::Io("boom".into()).to_string().contains("boom"));
        assert!(StoreError::Corrupt("bad magic".into())
            .to_string()
            .contains("bad magic"));
        assert!(StoreError::DiskCrashed.to_string().contains("crashed"));
    }
}
