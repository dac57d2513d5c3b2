//! Error type for document-database operations.

use std::fmt;

/// Errors produced by the document database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocDbError {
    /// Documents must be JSON objects.
    NotAnObject,
    /// A filter expression was malformed.
    BadFilter(String),
    /// `_id` collision on insert.
    DuplicateId(String),
    /// The durable journal failed (disk error, crash, corruption).
    Storage(String),
}

impl From<pmove_store::StoreError> for DocDbError {
    fn from(e: pmove_store::StoreError) -> Self {
        DocDbError::Storage(e.to_string())
    }
}

impl fmt::Display for DocDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocDbError::NotAnObject => write!(f, "document is not a JSON object"),
            DocDbError::BadFilter(m) => write!(f, "bad filter: {m}"),
            DocDbError::DuplicateId(id) => write!(f, "duplicate _id: {id}"),
            DocDbError::Storage(m) => write!(f, "journal storage error: {m}"),
        }
    }
}

impl std::error::Error for DocDbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(DocDbError::DuplicateId("x".into())
            .to_string()
            .contains('x'));
        assert!(DocDbError::BadFilter("f".into())
            .to_string()
            .contains("filter"));
    }
}
