//! Framework-level error type.

use std::fmt;

/// Errors surfaced by the P-MoVE framework.
#[derive(Debug, Clone, PartialEq)]
pub enum PmoveError {
    /// A probe report was missing a required section.
    BadProbeReport(String),
    /// The KB has no entity with the requested id/name.
    NotInKb(String),
    /// Abstraction-layer configuration failed to parse.
    BadEventConfig(String),
    /// A generic event has no mapping for the requested PMU.
    UnmappedEvent {
        /// PMU name requested.
        pmu: String,
        /// Generic event name.
        event: String,
    },
    /// A kernel launch request could not be resolved.
    BadKernelRequest(String),
    /// Database-layer failure.
    Db(String),
    /// Ontology-layer failure.
    Ontology(String),
    /// Collector-layer failure (invalid sampling config).
    Collector(String),
    /// The daemon booted in degraded monitor-only mode; the requested
    /// operation needs the full (durable) stack.
    DegradedMode(String),
}

impl fmt::Display for PmoveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmoveError::BadProbeReport(s) => write!(f, "bad probe report: {s}"),
            PmoveError::NotInKb(s) => write!(f, "not in knowledge base: {s}"),
            PmoveError::BadEventConfig(s) => write!(f, "bad event config: {s}"),
            PmoveError::UnmappedEvent { pmu, event } => {
                write!(f, "event {event} has no mapping for PMU {pmu}")
            }
            PmoveError::BadKernelRequest(s) => write!(f, "bad kernel request: {s}"),
            PmoveError::Db(s) => write!(f, "database error: {s}"),
            PmoveError::Ontology(s) => write!(f, "ontology error: {s}"),
            PmoveError::Collector(s) => write!(f, "collector error: {s}"),
            PmoveError::DegradedMode(s) => {
                write!(f, "unavailable in degraded monitor-only mode: {s}")
            }
        }
    }
}

impl std::error::Error for PmoveError {}

impl From<pmove_docdb::DocDbError> for PmoveError {
    fn from(e: pmove_docdb::DocDbError) -> Self {
        PmoveError::Db(e.to_string())
    }
}

impl From<pmove_tsdb::TsdbError> for PmoveError {
    fn from(e: pmove_tsdb::TsdbError) -> Self {
        PmoveError::Db(e.to_string())
    }
}

impl From<pmove_jsonld::JsonLdError> for PmoveError {
    fn from(e: pmove_jsonld::JsonLdError) -> Self {
        PmoveError::Ontology(e.to_string())
    }
}

impl From<pmove_pcp::PcpError> for PmoveError {
    fn from(e: pmove_pcp::PcpError) -> Self {
        PmoveError::Collector(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e = PmoveError::UnmappedEvent {
            pmu: "zen3".into(),
            event: "X".into(),
        };
        assert!(e.to_string().contains("zen3"));
        let e: PmoveError = pmove_docdb::DocDbError::NotAnObject.into();
        assert!(matches!(e, PmoveError::Db(_)));
        let e: PmoveError = pmove_tsdb::TsdbError::EmptyFields.into();
        assert!(matches!(e, PmoveError::Db(_)));
        let e: PmoveError = pmove_jsonld::JsonLdError::BadDtmi("x".into()).into();
        assert!(matches!(e, PmoveError::Ontology(_)));
        let e: PmoveError = pmove_pcp::PcpError::InvalidConfig {
            field: "freq_hz",
            value: f64::NAN,
            reason: "must be finite",
        }
        .into();
        assert!(matches!(e, PmoveError::Collector(_)));
        assert!(e.to_string().contains("freq_hz"));
        let e = PmoveError::DegradedMode("tsdb recovery failed".into());
        assert!(e.to_string().contains("monitor-only"));
    }
}
