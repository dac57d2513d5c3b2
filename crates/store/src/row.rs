//! The row model the engine persists: one scalar value of one field of
//! one series at one timestamp.
//!
//! The store is deliberately ignorant of the databases above it: a series
//! is an opaque canonical string (the tsdb renders `measurement,tag=...`
//! line-protocol heads into it), a field is a name, and a value is one of
//! the four InfluxDB 1.x scalar types.

use crate::error::{StoreError, StoreResult};

/// One persisted scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnValue {
    /// 64-bit float (compressed with Gorilla XOR).
    F64(f64),
    /// Signed integer (compressed with zigzag deltas).
    I64(i64),
    /// Boolean flag (bit-packed).
    Bool(bool),
    /// String value (length-prefixed, uncompressed).
    Str(String),
}

impl ColumnValue {
    /// Stable type tag used in WAL records and chunk block headers.
    pub fn type_tag(&self) -> u8 {
        match self {
            ColumnValue::F64(_) => 0,
            ColumnValue::I64(_) => 1,
            ColumnValue::Bool(_) => 2,
            ColumnValue::Str(_) => 3,
        }
    }

    /// Validate a tag read from disk.
    pub fn check_tag(tag: u8) -> StoreResult<u8> {
        if tag <= 3 {
            Ok(tag)
        } else {
            Err(StoreError::Decode(format!("bad value type tag {tag}")))
        }
    }

    /// The raw footprint one cell occupies in the uncompressed in-memory
    /// engine, which holds each cell as a timestamp plus an enum value
    /// slot in the row's field map (string payloads add their heap
    /// bytes). Key strings and map-node overhead are shared per series
    /// and excluded, keeping the baseline conservative.
    pub fn raw_footprint(&self) -> usize {
        8 + std::mem::size_of::<ColumnValue>()
            + match self {
                ColumnValue::Str(s) => s.len(),
                _ => 0,
            }
    }
}

/// One row offered to (and recovered from) the store.
#[derive(Debug, Clone, PartialEq)]
pub struct RowRecord {
    /// Canonical series key (opaque to the store).
    pub series: String,
    /// Field name within the series.
    pub field: String,
    /// Timestamp in the database's time unit.
    pub ts: i64,
    /// The scalar value.
    pub value: ColumnValue,
}

impl RowRecord {
    /// Convenience constructor.
    pub fn new(
        series: impl Into<String>,
        field: impl Into<String>,
        ts: i64,
        value: ColumnValue,
    ) -> RowRecord {
        RowRecord {
            series: series.into(),
            field: field.into(),
            ts,
            value,
        }
    }

    /// [`ColumnValue::raw_footprint`] of this row's cell.
    pub fn raw_footprint(&self) -> usize {
        self.value.raw_footprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_tags_are_stable() {
        assert_eq!(ColumnValue::F64(1.0).type_tag(), 0);
        assert_eq!(ColumnValue::I64(1).type_tag(), 1);
        assert_eq!(ColumnValue::Bool(true).type_tag(), 2);
        assert_eq!(ColumnValue::Str("x".into()).type_tag(), 3);
        assert!(ColumnValue::check_tag(3).is_ok());
        assert!(ColumnValue::check_tag(4).is_err());
    }

    #[test]
    fn raw_footprint_counts_ts_and_value_slot() {
        let slot = std::mem::size_of::<ColumnValue>();
        let r = RowRecord::new("s", "f", 1, ColumnValue::F64(2.0));
        assert_eq!(r.raw_footprint(), 8 + slot);
        let s = RowRecord::new("s", "f", 1, ColumnValue::Str("0123456789ab".into()));
        assert_eq!(s.raw_footprint(), 8 + slot + 12);
    }
}
