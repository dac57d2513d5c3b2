//! Error type for linked-data operations.

use std::fmt;

/// Errors produced while parsing or validating linked-data documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonLdError {
    /// A DTMI string violated the `dtmi:<path>;<version>` grammar.
    BadDtmi(String),
    /// A JSON-LD document was structurally invalid.
    BadDocument(String),
    /// DTDL validation failed.
    Validation(String),
}

impl fmt::Display for JsonLdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonLdError::BadDtmi(s) => write!(f, "invalid DTMI: {s}"),
            JsonLdError::BadDocument(s) => write!(f, "invalid JSON-LD document: {s}"),
            JsonLdError::Validation(s) => write!(f, "DTDL validation error: {s}"),
        }
    }
}

impl std::error::Error for JsonLdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_cause() {
        assert!(JsonLdError::BadDtmi("x".into())
            .to_string()
            .contains("DTMI"));
        assert!(JsonLdError::Validation("v".into())
            .to_string()
            .contains('v'));
    }
}
