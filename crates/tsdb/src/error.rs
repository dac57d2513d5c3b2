//! Error type shared by every tsdb operation.

use std::fmt;

/// Errors produced by the time-series database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsdbError {
    /// The point carried no fields; InfluxDB rejects such writes too.
    EmptyFields,
    /// Line-protocol text failed to parse.
    LineProtocol(String),
    /// Query text failed to parse.
    QueryParse(String),
    /// The query referenced a measurement that does not exist.
    UnknownMeasurement(String),
    /// The durable storage engine failed (WAL commit, chunk flush,
    /// compaction, or recovery).
    Storage(String),
    /// The replication layer failed: invalid quorum configuration or a
    /// quorum that cannot currently be assembled.
    Replication(String),
    /// A backup or point-in-time restore was refused: missing generation,
    /// manifest/chunk/archive corruption, or an archive sequence gap. The
    /// typed cause is preserved so callers can distinguish "nothing to
    /// restore" from "backup bytes are damaged".
    Backup(pmove_store::BackupError),
    /// A retention keep duration that is not positive.
    InvalidRetention(i64),
}

impl From<pmove_store::StoreError> for TsdbError {
    fn from(e: pmove_store::StoreError) -> Self {
        TsdbError::Storage(e.to_string())
    }
}

impl From<pmove_store::BackupError> for TsdbError {
    fn from(e: pmove_store::BackupError) -> Self {
        TsdbError::Backup(e)
    }
}

impl fmt::Display for TsdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsdbError::EmptyFields => write!(f, "point has no fields"),
            TsdbError::LineProtocol(msg) => write!(f, "line protocol error: {msg}"),
            TsdbError::QueryParse(msg) => write!(f, "query parse error: {msg}"),
            TsdbError::UnknownMeasurement(m) => write!(f, "unknown measurement: {m}"),
            TsdbError::Storage(msg) => write!(f, "storage engine error: {msg}"),
            TsdbError::Replication(msg) => write!(f, "replication error: {msg}"),
            TsdbError::Backup(e) => write!(f, "backup error: {e}"),
            TsdbError::InvalidRetention(keep) => {
                write!(f, "retention keep must be positive, got {keep}")
            }
        }
    }
}

impl std::error::Error for TsdbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TsdbError::UnknownMeasurement("cpu".into());
        assert!(e.to_string().contains("cpu"));
        let e = TsdbError::Replication("quorum of 7".into());
        assert!(e.to_string().contains('7'));
    }
}
