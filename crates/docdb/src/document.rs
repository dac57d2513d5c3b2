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
