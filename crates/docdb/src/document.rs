//! Dotted-path access into JSON documents (`a.b.c`, with numeric segments
//! indexing into arrays), mirroring MongoDB's field-path semantics.

use serde_json::Value;

/// Read the value at a dotted path; `None` when any segment is missing.
pub(crate) fn get_path<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    let mut cur = doc;
    for seg in path.split('.') {
        cur = match cur {
            Value::Object(map) => map.get(seg)?,
            Value::Array(arr) => {
                let idx: usize = seg.parse().ok()?;
                arr.get(idx)?
            }
            _ => return None,
        };
    }
    Some(cur)
}

/// Write `value` at a dotted path, creating intermediate objects as needed.
/// Returns `false` (and leaves the document untouched) when the path walks
/// through a non-object, non-creatable value.
pub(crate) fn set_path(doc: &mut Value, path: &str, value: Value) -> bool {
    let mut cur = doc;
    let segs: Vec<&str> = path.split('.').collect();
    for (i, seg) in segs.iter().enumerate() {
        let last = i + 1 == segs.len();
        match cur {
            Value::Object(map) => {
                if last {
                    map.insert(seg.to_string(), value);
                    return true;
                }
                cur = map
                    .entry(seg.to_string())
                    .or_insert_with(|| Value::Object(Default::default()));
            }
            Value::Array(arr) => {
                let Ok(idx) = seg.parse::<usize>() else {
                    return false;
                };
                if idx >= arr.len() {
                    return false;
                }
                if last {
                    arr[idx] = value;
                    return true;
                }
                cur = &mut arr[idx];
            }
            _ => return false,
        }
    }
    false
}

/// Remove the value at a dotted path; returns the removed value if present.
pub(crate) fn remove_path(doc: &mut Value, path: &str) -> Option<Value> {
    let (parent_path, leaf) = match path.rfind('.') {
        Some(i) => (Some(&path[..i]), &path[i + 1..]),
        None => (None, path),
    };
    let parent = match parent_path {
        Some(p) => get_path_mut(doc, p)?,
        None => doc,
    };
    match parent {
        Value::Object(map) => map.remove(leaf),
        _ => None,
    }
}

/// Mutable dotted-path access.
pub(crate) fn get_path_mut<'a>(doc: &'a mut Value, path: &str) -> Option<&'a mut Value> {
    let mut cur = doc;
    for seg in path.split('.') {
        cur = match cur {
            Value::Object(map) => map.get_mut(seg)?,
            Value::Array(arr) => {
                let idx: usize = seg.parse().ok()?;
                arr.get_mut(idx)?
            }
            _ => return None,
        };
    }
    Some(cur)
}

/// Total order over JSON values used for comparisons and sorting:
/// null < bool < number < string < array < object (Mongo's BSON ordering,
/// simplified).
pub(crate) fn compare(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Number(_) => 2,
            Value::String(_) => 3,
            Value::Array(_) => 4,
            Value::Object(_) => 5,
        }
    }
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Number(x), Value::Number(y)) => {
            let xf = x.as_f64().unwrap_or(f64::NAN);
            let yf = y.as_f64().unwrap_or(f64::NAN);
            xf.partial_cmp(&yf).unwrap_or(Ordering::Equal)
        }
        (Value::String(x), Value::String(y)) => x.cmp(y),
        (Value::Array(x), Value::Array(y)) => {
            for (xa, ya) in x.iter().zip(y.iter()) {
                let ord = compare(xa, ya);
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            x.len().cmp(&y.len())
        }
        _ => rank(a).cmp(&rank(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn get_nested_and_array() {
        let d = json!({"a": {"b": [10, {"c": 42}]}});
        assert_eq!(get_path(&d, "a.b.1.c"), Some(&json!(42)));
        assert_eq!(get_path(&d, "a.b.0"), Some(&json!(10)));
        assert_eq!(get_path(&d, "a.x"), None);
        assert_eq!(get_path(&d, "a.b.9"), None);
        assert_eq!(get_path(&d, "a.b.zz"), None);
    }

    #[test]
    fn set_creates_intermediates() {
        let mut d = json!({});
        assert!(set_path(&mut d, "a.b.c", json!(1)));
        assert_eq!(d, json!({"a": {"b": {"c": 1}}}));
    }

    #[test]
    fn set_into_array_element() {
        let mut d = json!({"a": [1, 2]});
        assert!(set_path(&mut d, "a.1", json!(9)));
        assert_eq!(d, json!({"a": [1, 9]}));
        assert!(!set_path(&mut d, "a.5", json!(0)));
        assert!(!set_path(&mut d, "a.1.b", json!(0)));
    }

    #[test]
    fn remove_leaf_and_missing() {
        let mut d = json!({"a": {"b": 1, "c": 2}});
        assert_eq!(remove_path(&mut d, "a.b"), Some(json!(1)));
        assert_eq!(remove_path(&mut d, "a.b"), None);
        assert_eq!(d, json!({"a": {"c": 2}}));
        assert_eq!(remove_path(&mut d, "a"), Some(json!({"c": 2})));
    }

    #[test]
    fn ordering_across_types() {
        use std::cmp::Ordering::*;
        assert_eq!(compare(&json!(null), &json!(false)), Less);
        assert_eq!(compare(&json!(1), &json!(2.5)), Less);
        assert_eq!(compare(&json!("a"), &json!("b")), Less);
        assert_eq!(compare(&json!([1, 2]), &json!([1, 3])), Less);
        assert_eq!(compare(&json!([1]), &json!([1, 0])), Less);
        assert_eq!(compare(&json!(2), &json!("1")), Less); // number < string
        assert_eq!(compare(&json!(true), &json!(true)), Equal);
    }
}
