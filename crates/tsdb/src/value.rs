//! Field values stored in time-series points.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A single field value, mirroring the InfluxDB 1.x field types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// 64-bit float (the overwhelmingly common case for telemetry).
    Float(f64),
    /// Signed 64-bit integer (written as `42i` in line protocol).
    Int(i64),
    /// Boolean flag.
    Bool(bool),
    /// Quoted string value.
    Str(String),
}

impl FieldValue {
    /// Numeric view of the value; strings parse if they look numeric,
    /// booleans map to 0/1. Returns `None` for non-numeric strings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::Float(v) => Some(*v),
            FieldValue::Int(v) => Some(*v as f64),
            FieldValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            FieldValue::Str(s) => s.parse().ok(),
        }
    }

    /// True when the value is numerically zero. Used by the loss accounting
    /// in Table III, which counts "batched zero" insertions separately.
    pub(crate) fn is_zero(&self) -> bool {
        matches!(self.as_f64(), Some(v) if v == 0.0)
    }

    /// Render the value in line-protocol syntax.
    pub(crate) fn to_line_protocol(&self) -> String {
        match self {
            FieldValue::Float(v) => format!("{v}"),
            FieldValue::Int(v) => format!("{v}i"),
            FieldValue::Bool(b) => format!("{b}"),
            FieldValue::Str(s) => {
                format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
            }
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Float(v) => write!(f, "{v}"),
            FieldValue::Int(v) => write!(f, "{v}"),
            FieldValue::Bool(b) => write!(f, "{b}"),
            FieldValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Float(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::Float(v as f64)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_f64_covers_all_variants() {
        assert_eq!(FieldValue::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(FieldValue::Int(-3).as_f64(), Some(-3.0));
        assert_eq!(FieldValue::Bool(true).as_f64(), Some(1.0));
        assert_eq!(FieldValue::Str("4.5".into()).as_f64(), Some(4.5));
        assert_eq!(FieldValue::Str("abc".into()).as_f64(), None);
    }

    #[test]
    fn zero_detection() {
        assert!(FieldValue::Float(0.0).is_zero());
        assert!(FieldValue::Int(0).is_zero());
        assert!(FieldValue::Bool(false).is_zero());
        assert!(!FieldValue::Float(0.1).is_zero());
        assert!(!FieldValue::Str("x".into()).is_zero());
    }

    #[test]
    fn line_protocol_rendering() {
        assert_eq!(FieldValue::Int(42).to_line_protocol(), "42i");
        assert_eq!(FieldValue::Bool(true).to_line_protocol(), "true");
        assert_eq!(
            FieldValue::Str("a\"b".into()).to_line_protocol(),
            "\"a\\\"b\""
        );
        assert_eq!(FieldValue::Float(1.5).to_line_protocol(), "1.5");
    }

    #[test]
    fn conversions() {
        assert_eq!(FieldValue::from(1.0_f64), FieldValue::Float(1.0));
        assert_eq!(FieldValue::from(1_i64), FieldValue::Int(1));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
        assert_eq!(FieldValue::from("s"), FieldValue::Str("s".into()));
    }
}
