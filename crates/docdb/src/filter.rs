//! MongoDB-flavoured filter evaluation.
//!
//! A filter is a JSON object. Each key is either a logical operator
//! (`$and`, `$or`, `$not`) or a dotted field path whose value is either a
//! literal (implicit `$eq`) or an object of comparison operators:
//!
//! ```json
//! { "@type": "Interface",
//!   "contents.0.name": { "$contains": "model" },
//!   "$or": [ {"vendor": "intel"}, {"vendor": "amd"} ] }
//! ```

use crate::document::{compare, get_path};
use crate::error::DocDbError;
use serde_json::Value;
use std::cmp::Ordering;

/// Evaluate `filter` against `doc`.
pub(crate) fn matches(doc: &Value, filter: &Value) -> Result<bool, DocDbError> {
    let obj = filter
        .as_object()
        .ok_or_else(|| DocDbError::BadFilter("filter must be an object".into()))?;
    for (key, cond) in obj {
        let ok = match key.as_str() {
            "$and" => all_of(doc, cond)?,
            "$or" => any_of(doc, cond)?,
            "$not" => !matches(doc, cond)?,
            path => field_matches(get_path(doc, path), cond)?,
        };
        if !ok {
            return Ok(false);
        }
    }
    Ok(true)
}

fn all_of(doc: &Value, cond: &Value) -> Result<bool, DocDbError> {
    let arr = cond
        .as_array()
        .ok_or_else(|| DocDbError::BadFilter("$and expects an array".into()))?;
    for f in arr {
        if !matches(doc, f)? {
            return Ok(false);
        }
    }
    Ok(true)
}

fn any_of(doc: &Value, cond: &Value) -> Result<bool, DocDbError> {
    let arr = cond
        .as_array()
        .ok_or_else(|| DocDbError::BadFilter("$or expects an array".into()))?;
    for f in arr {
        if matches(doc, f)? {
            return Ok(true);
        }
    }
    Ok(false)
}

fn field_matches(actual: Option<&Value>, cond: &Value) -> Result<bool, DocDbError> {
    // Operator object?
    if let Some(ops) = cond.as_object() {
        if ops.keys().any(|k| k.starts_with('$')) {
            for (op, operand) in ops {
                if !apply_op(actual, op, operand)? {
                    return Ok(false);
                }
            }
            return Ok(true);
        }
    }
    // Literal: implicit $eq.
    Ok(match actual {
        Some(v) => v == cond,
        None => cond.is_null(),
    })
}

fn apply_op(actual: Option<&Value>, op: &str, operand: &Value) -> Result<bool, DocDbError> {
    match op {
        "$exists" => {
            let want = operand
                .as_bool()
                .ok_or_else(|| DocDbError::BadFilter("$exists expects a bool".into()))?;
            Ok(actual.is_some() == want)
        }
        "$eq" => {
            Ok(actual.is_some_and(|v| v == operand) || (actual.is_none() && operand.is_null()))
        }
        "$ne" => {
            Ok(!(actual.is_some_and(|v| v == operand) || (actual.is_none() && operand.is_null())))
        }
        "$gt" | "$gte" | "$lt" | "$lte" => {
            let Some(v) = actual else { return Ok(false) };
            let ord = compare(v, operand);
            Ok(match op {
                "$gt" => ord == Ordering::Greater,
                "$gte" => ord != Ordering::Less,
                "$lt" => ord == Ordering::Less,
                "$lte" => ord != Ordering::Greater,
                _ => unreachable!(),
            })
        }
        "$in" => {
            let arr = operand
                .as_array()
                .ok_or_else(|| DocDbError::BadFilter("$in expects an array".into()))?;
            Ok(actual.is_some_and(|v| arr.contains(v)))
        }
        "$nin" => {
            let arr = operand
                .as_array()
                .ok_or_else(|| DocDbError::BadFilter("$nin expects an array".into()))?;
            Ok(!actual.is_some_and(|v| arr.contains(v)))
        }
        "$contains" => {
            let needle = operand
                .as_str()
                .ok_or_else(|| DocDbError::BadFilter("$contains expects a string".into()))?;
            Ok(actual
                .and_then(Value::as_str)
                .is_some_and(|s| s.contains(needle)))
        }
        other => Err(DocDbError::BadFilter(format!("unknown operator {other}"))),
    }
}

/// If the filter is (or contains at top level) a plain equality on a path,
/// return `(path, value)` pairs usable for index lookups. Equality with
/// `null` is left out: it also matches documents that lack the path, which
/// no index entry records.
pub(crate) fn equality_constraints(filter: &Value) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    if let Some(obj) = filter.as_object() {
        for (key, cond) in obj {
            if key.starts_with('$') {
                continue;
            }
            let value = match cond {
                Value::Object(ops) if ops.len() == 1 => ops.get("$eq"),
                Value::Object(_) => None,
                literal => Some(literal),
            };
            if let Some(v) = value.filter(|v| !v.is_null()) {
                out.push((key.clone(), v.clone()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn doc() -> Value {
        json!({
            "@type": "Interface",
            "name": "gpu0",
            "props": {"numa": 0, "mem_mb": 34359},
            "tags": ["gpu", "nvidia"]
        })
    }

    #[test]
    fn implicit_eq() {
        assert!(matches(&doc(), &json!({"@type": "Interface"})).unwrap());
        assert!(!matches(&doc(), &json!({"@type": "Telemetry"})).unwrap());
        assert!(matches(&doc(), &json!({"props.numa": 0})).unwrap());
    }

    #[test]
    fn comparison_ops() {
        assert!(matches(&doc(), &json!({"props.mem_mb": {"$gt": 1000}})).unwrap());
        assert!(matches(&doc(), &json!({"props.mem_mb": {"$gte": 34359}})).unwrap());
        assert!(!matches(&doc(), &json!({"props.mem_mb": {"$lt": 1000}})).unwrap());
        assert!(matches(&doc(), &json!({"props.numa": {"$lte": 0}})).unwrap());
        assert!(matches(&doc(), &json!({"name": {"$ne": "gpu1"}})).unwrap());
    }

    #[test]
    fn membership_and_substring() {
        assert!(matches(&doc(), &json!({"name": {"$in": ["gpu0", "gpu1"]}})).unwrap());
        assert!(matches(&doc(), &json!({"name": {"$nin": ["cpu0"]}})).unwrap());
        assert!(matches(&doc(), &json!({"name": {"$contains": "pu"}})).unwrap());
        assert!(!matches(&doc(), &json!({"props.numa": {"$contains": "0"}})).unwrap());
    }

    #[test]
    fn exists() {
        assert!(matches(&doc(), &json!({"props.numa": {"$exists": true}})).unwrap());
        assert!(matches(&doc(), &json!({"missing": {"$exists": false}})).unwrap());
        assert!(!matches(&doc(), &json!({"missing": {"$exists": true}})).unwrap());
    }

    #[test]
    fn logical_ops() {
        let f = json!({"$or": [{"name": "gpu1"}, {"props.numa": 0}]});
        assert!(matches(&doc(), &f).unwrap());
        let f = json!({"$and": [{"@type": "Interface"}, {"name": "gpu0"}]});
        assert!(matches(&doc(), &f).unwrap());
        let f = json!({"$not": {"name": "gpu0"}});
        assert!(!matches(&doc(), &f).unwrap());
    }

    #[test]
    fn missing_field_matches_null_literal() {
        assert!(matches(&doc(), &json!({"missing": null})).unwrap());
        assert!(matches(&doc(), &json!({"missing": {"$eq": null}})).unwrap());
        assert!(!matches(&doc(), &json!({"missing": {"$gt": 0}})).unwrap());
    }

    #[test]
    fn bad_filters_error() {
        assert!(matches(&doc(), &json!("not an object")).is_err());
        assert!(matches(&doc(), &json!({"$and": 3})).is_err());
        assert!(matches(&doc(), &json!({"x": {"$bogus": 1}})).is_err());
        assert!(matches(&doc(), &json!({"x": {"$in": 3}})).is_err());
        assert!(matches(&doc(), &json!({"x": {"$exists": "yes"}})).is_err());
    }

    #[test]
    fn extracts_equality_constraints() {
        let f = json!({
            "a": 1, "b": {"$eq": "x"}, "c": {"$gt": 0}, "$or": [],
            "d": null, "e": {"$eq": null}
        });
        let eq = equality_constraints(&f);
        assert_eq!(eq.len(), 2);
        assert!(eq.contains(&("a".to_string(), json!(1))));
        assert!(eq.contains(&("b".to_string(), json!("x"))));
    }
}
