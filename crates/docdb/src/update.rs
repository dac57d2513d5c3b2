//! MongoDB-flavoured update operators: `$set`, `$unset`, `$inc`, `$push`.

use crate::document::{get_path_mut, remove_path, set_path};
use crate::error::DocDbError;
use serde_json::{json, Value};

/// Apply an update specification to a document in place.
///
/// The spec is an object of operator sections, e.g.
/// `{"$set": {"a.b": 1}, "$inc": {"count": 2}}`. A spec without any `$`
/// operator replaces the entire document body (preserving `_id`), matching
/// Mongo's replace semantics.
pub(crate) fn apply(doc: &mut Value, spec: &Value) -> Result<(), DocDbError> {
    let obj = spec
        .as_object()
        .ok_or_else(|| DocDbError::BadUpdate("update must be an object".into()))?;

    if !obj.keys().any(|k| k.starts_with('$')) {
        // Whole-document replacement, `_id` preserved.
        let id = doc.get("_id").cloned();
        *doc = spec.clone();
        if let (Some(id), Some(map)) = (id, doc.as_object_mut()) {
            map.insert("_id".into(), id);
        }
        return Ok(());
    }

    for (op, args) in obj {
        let args = args
            .as_object()
            .ok_or_else(|| DocDbError::BadUpdate(format!("{op} expects an object")))?;
        match op.as_str() {
            "$set" => {
                for (path, v) in args {
                    if !set_path(doc, path, v.clone()) {
                        return Err(DocDbError::BadUpdate(format!("cannot set {path}")));
                    }
                }
            }
            "$unset" => {
                for path in args.keys() {
                    remove_path(doc, path);
                }
            }
            "$inc" => {
                for (path, delta) in args {
                    let d = delta
                        .as_f64()
                        .ok_or_else(|| DocDbError::BadUpdate("$inc needs a number".into()))?;
                    match get_path_mut(doc, path) {
                        Some(Value::Number(n)) => {
                            let cur = n.as_f64().unwrap_or(0.0);
                            *get_path_mut(doc, path).expect("checked") = json!(cur + d);
                        }
                        Some(_) => {
                            return Err(DocDbError::BadUpdate(format!(
                                "$inc target {path} is not a number"
                            )))
                        }
                        None => {
                            if !set_path(doc, path, json!(d)) {
                                return Err(DocDbError::BadUpdate(format!("cannot set {path}")));
                            }
                        }
                    }
                }
            }
            "$push" => {
                for (path, v) in args {
                    match get_path_mut(doc, path) {
                        Some(Value::Array(arr)) => arr.push(v.clone()),
                        Some(_) => {
                            return Err(DocDbError::BadUpdate(format!(
                                "$push target {path} is not an array"
                            )))
                        }
                        None => {
                            if !set_path(doc, path, json!([v])) {
                                return Err(DocDbError::BadUpdate(format!("cannot set {path}")));
                            }
                        }
                    }
                }
            }
            other => return Err(DocDbError::BadUpdate(format!("unknown operator {other}"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_unset() {
        let mut d = json!({"_id": "1", "a": 1});
        apply(&mut d, &json!({"$set": {"b.c": 2}, "$unset": {"a": ""}})).unwrap();
        assert_eq!(d, json!({"_id": "1", "b": {"c": 2}}));
    }

    #[test]
    fn inc_existing_and_new() {
        let mut d = json!({"n": 5});
        apply(&mut d, &json!({"$inc": {"n": 2.5, "m": 1}})).unwrap();
        assert_eq!(d["n"], json!(7.5));
        assert_eq!(d["m"], json!(1.0));
    }

    #[test]
    fn inc_non_number_errors() {
        let mut d = json!({"s": "x"});
        assert!(apply(&mut d, &json!({"$inc": {"s": 1}})).is_err());
        assert!(apply(&mut d, &json!({"$inc": {"s": "one"}})).is_err());
    }

    #[test]
    fn push_appends_or_creates() {
        let mut d = json!({"arr": [1]});
        apply(&mut d, &json!({"$push": {"arr": 2, "new": 3}})).unwrap();
        assert_eq!(d["arr"], json!([1, 2]));
        assert_eq!(d["new"], json!([3]));
        assert!(apply(&mut d, &json!({"$push": {"arr.0": 9}})).is_err());
    }

    #[test]
    fn replacement_preserves_id() {
        let mut d = json!({"_id": "keep", "old": true});
        apply(&mut d, &json!({"fresh": 1})).unwrap();
        assert_eq!(d, json!({"_id": "keep", "fresh": 1}));
    }

    #[test]
    fn malformed_specs_error() {
        let mut d = json!({});
        assert!(apply(&mut d, &json!(7)).is_err());
        assert!(apply(&mut d, &json!({"$set": 7})).is_err());
        assert!(apply(&mut d, &json!({"$frobnicate": {}})).is_err());
    }
}
