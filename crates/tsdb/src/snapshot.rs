//! Snapshot export/import.
//!
//! SUPERDB users "without P-MoVE ... can only download selected data for
//! ML training" (§III-E): the export path serializes selected series as
//! JSON.

use crate::engine::Database;
use crate::error::TsdbError;
use crate::point::Point;
use crate::query::Query;
use serde_json::{json, Value};

/// Encode one field value for export. JSON numbers cannot carry every
/// `f64` bit pattern — `serde_json` serializes NaN as `null` and a
/// re-parse of `-0.0` may collapse the sign — so values are exported as
/// `{"bits": <u64>}` wrapping `f64::to_bits`, which round-trips every
/// payload (NaNs and signed zeros included) exactly.
fn encode_value(x: f64) -> Value {
    json!({ "bits": x.to_bits() })
}

/// Decode a field value written by [`encode_value`]. Plain JSON numbers
/// are still accepted so documents exported before the bit-exact encoding
/// (or written by hand) keep importing.
fn decode_value(v: &Value) -> Option<f64> {
    if let Some(bits) = v.get("bits").and_then(Value::as_u64) {
        return Some(f64::from_bits(bits));
    }
    v.as_f64()
}

/// Export every series of a measurement (optionally tag-filtered) as a
/// JSON document: `{measurement, points: [{t, tags, fields}]}`.
/// Field values are encoded bit-exactly; see [`encode_value`].
pub fn export_measurement(
    db: &Database,
    measurement: &str,
    tag: Option<(&str, &str)>,
) -> Result<Value, TsdbError> {
    let fields = db.field_keys(measurement);
    if fields.is_empty() {
        return Err(TsdbError::UnknownMeasurement(measurement.to_string()));
    }
    let where_clause = tag
        .map(|(k, v)| format!(" WHERE {k}='{v}'"))
        .unwrap_or_default();
    let q = format!("SELECT * FROM \"{measurement}\"{where_clause}");
    let frame = db.query_frame(&Query::parse(&q)?)?;
    let points: Vec<Value> = (0..frame.len())
        .map(|row| {
            let cells = frame.columns.iter().zip(&frame.cols);
            let fields: serde_json::Map<String, Value> = cells
                .filter_map(|(k, col)| col[row].map(|x| (k.clone(), encode_value(x))))
                .collect();
            json!({"t": frame.ts[row], "fields": fields})
        })
        .collect();
    Ok(json!({
        "measurement": measurement,
        "tag": tag.map(|(k, v)| json!({k: v})).unwrap_or(Value::Null),
        "points": points,
    }))
}

/// Import a document produced by [`export_measurement`] into a database;
/// returns points written.
pub fn import_measurement(db: &Database, doc: &Value) -> Result<usize, TsdbError> {
    let measurement = doc["measurement"]
        .as_str()
        .ok_or_else(|| TsdbError::LineProtocol("snapshot missing measurement".into()))?;
    let mut written = 0;
    for p in doc["points"].as_array().into_iter().flatten() {
        let mut point = Point::new(measurement).timestamp(p["t"].as_i64().unwrap_or(0));
        if let Some(tag) = doc["tag"].as_object() {
            for (k, v) in tag {
                if let Some(v) = v.as_str() {
                    point.tags.insert(k.clone(), v.to_string());
                }
            }
        }
        if let Some(fields) = p["fields"].as_object() {
            for (k, v) in fields {
                if let Some(v) = decode_value(v) {
                    point.fields.insert(k.clone(), v.into());
                }
            }
        }
        if db.write_point(point).is_ok() {
            written += 1;
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> Database {
        let db = Database::new("t");
        for t in 0..20 {
            db.write_point(
                Point::new("m")
                    .tag("tag", "o1")
                    .field("_cpu0", t as f64)
                    .field("_cpu1", (2 * t) as f64)
                    .timestamp(t),
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn export_import_roundtrip() {
        let src = filled();
        let doc = export_measurement(&src, "m", Some(("tag", "o1"))).unwrap();
        assert_eq!(doc["points"].as_array().unwrap().len(), 20);

        let dst = Database::new("ml");
        let n = import_measurement(&dst, &doc).unwrap();
        assert_eq!(n, 20);
        let r = dst
            .query("SELECT \"_cpu1\" FROM \"m\" WHERE tag='o1'")
            .unwrap();
        assert_eq!(r.rows.len(), 20);
        assert_eq!(r.rows[3].values["_cpu1"], Some(6.0));
    }

    #[test]
    fn export_import_is_bit_exact_for_nan_and_signed_zero() {
        // serde_json would turn NaN into null and may collapse -0.0 on a
        // number round-trip; the bits encoding must preserve both.
        let weird = f64::from_bits(0x7ff8_dead_beef_0001); // NaN payload
        let src = Database::new("t");
        for (t, v) in [(0i64, f64::NAN), (1, -0.0), (2, 0.0), (3, weird)] {
            src.write_point(
                Point::new("m")
                    .tag("tag", "o1")
                    .field("_cpu0", v)
                    .timestamp(t),
            )
            .unwrap();
        }
        let doc = export_measurement(&src, "m", Some(("tag", "o1"))).unwrap();
        let dst = Database::new("ml");
        assert_eq!(import_measurement(&dst, &doc).unwrap(), 4);
        let want = src.query("SELECT \"_cpu0\" FROM \"m\"").unwrap();
        let got = dst.query("SELECT \"_cpu0\" FROM \"m\"").unwrap();
        assert_eq!(got.rows.len(), 4);
        for (a, b) in want.rows.iter().zip(&got.rows) {
            assert_eq!(a.timestamp, b.timestamp);
            let (x, y) = (a.values["_cpu0"].unwrap(), b.values["_cpu0"].unwrap());
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "t={}: {x:?} vs {y:?} lost bits in the JSON round-trip",
                a.timestamp
            );
        }
        // The encoding itself is the tagged-bits object, not a number.
        let p0 = &doc["points"][0]["fields"]["_cpu0"];
        assert!(p0.get("bits").is_some(), "values export as bits: {p0:?}");
        // Legacy plain-number documents still import.
        let legacy = json!({
            "measurement": "m", "tag": {"tag": "o1"},
            "points": [{"t": 9, "fields": {"_cpu0": 2.5}}],
        });
        let dst2 = Database::new("legacy");
        assert_eq!(import_measurement(&dst2, &legacy).unwrap(), 1);
    }

    #[test]
    fn export_unknown_measurement_errors() {
        let db = Database::new("t");
        assert!(export_measurement(&db, "ghost", None).is_err());
    }
}
