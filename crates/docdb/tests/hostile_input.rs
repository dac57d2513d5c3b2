//! Hostile input to the collection surface: generated filters through
//! `find` and `delete_many` over generated documents. Every call answers `Ok` or `Err` and never panics; an `Err`
//! leaves `all()` byte-equal to the state before the call; and a
//! collection with hash indexes answers like one without.

use pmove_docdb::{Collection, Database, DocDbError};
use proptest::prelude::*;
use proptest::TestRng;
use serde_json::{json, Map, Value};

/// A strategy that runs a generator below on the runner's own RNG, so the
/// case stream is fixed by the test name, as for every other property.
struct Draw<F>(F);

impl<T, F: Fn(&mut TestRng) -> T> Strategy for Draw<F> {
    type Value = T;

    fn generate(&self, g: &mut TestRng) -> T {
        (self.0)(g)
    }
}

fn below(g: &mut TestRng, n: usize) -> usize {
    (0..n).generate(g)
}

fn pick<'a>(g: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[below(g, from.len())]
}

fn chance(g: &mut TestRng, percent: usize) -> bool {
    below(g, 100) < percent
}

const FIELDS: &[&str] = &["k", "n", "s", "a", "o"];
const PATHS: &[&str] = &[
    "k", "n", "s", "a", "o", "o.x", "a.0", "a.1.x", "_id", "", "k.z",
];
const FILTER_OPS: &[&str] = &[
    "$eq",
    "$ne",
    "$gt",
    "$gte",
    "$lt",
    "$lte",
    "$in",
    "$nin",
    "$exists",
    "$contains",
    "$bogus",
];

fn value(g: &mut TestRng, depth: usize) -> Value {
    match below(g, if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => json!(chance(g, 50)),
        2 | 3 => json!(below(g, 7) as i64 - 3),
        4 => json!([-0.5, 2.5, f64::MAX, 1e300][below(g, 4)]),
        5 => json!(pick(g, &["", "a", "ab", "b"])),
        6 => Value::from(
            (0..below(g, 3))
                .map(|_| value(g, depth - 1))
                .collect::<Vec<_>>(),
        ),
        _ => object(g, &["x", "y", "0"], |g| value(g, depth - 1)),
    }
}

fn object(g: &mut TestRng, keys: &[&str], mut value: impl FnMut(&mut TestRng) -> Value) -> Value {
    let mut m = Map::new();
    for _ in 0..below(g, 4) {
        let key = pick(g, keys).to_string();
        m.insert(key, value(g));
    }
    Value::Object(m)
}

fn document(g: &mut TestRng) -> Value {
    object(g, FIELDS, |g| value(g, 2))
}

/// A field condition: a literal, or an object of (possibly bogus)
/// operators with (possibly mistyped) operands.
fn condition(g: &mut TestRng) -> Value {
    if chance(g, 40) {
        value(g, 1)
    } else {
        let mut m = Map::new();
        for _ in 0..1 + below(g, 2) {
            let op = pick(g, FILTER_OPS);
            let operand = match op {
                "$in" | "$nin" if chance(g, 80) => {
                    Value::from((0..below(g, 3)).map(|_| value(g, 0)).collect::<Vec<_>>())
                }
                "$exists" if chance(g, 80) => json!(chance(g, 50)),
                _ => value(g, 1),
            };
            m.insert(op.into(), operand);
        }
        Value::Object(m)
    }
}

fn filter(g: &mut TestRng, depth: usize) -> Value {
    let mut m = Map::new();
    for _ in 0..below(g, 3) {
        match below(g, if depth == 0 { 4 } else { 7 }) {
            0..=3 => {
                let path = pick(g, PATHS).to_string();
                m.insert(path, condition(g));
            }
            4 | 5 => {
                let op = pick(g, &["$and", "$or"]).to_string();
                let arg = if chance(g, 85) {
                    Value::from(
                        (0..below(g, 3))
                            .map(|_| filter(g, depth - 1))
                            .collect::<Vec<_>>(),
                    )
                } else {
                    value(g, 1)
                };
                m.insert(op, arg);
            }
            _ => {
                m.insert("$not".into(), filter(g, depth - 1));
            }
        }
    }
    Value::Object(m)
}

/// A filter: almost always an object, sometimes not.
fn any_filter(g: &mut TestRng) -> Value {
    if chance(g, 95) {
        filter(g, 2)
    } else {
        value(g, 1)
    }
}

/// One generated case: the paths to index, the documents to insert and
/// the calls to make, each `(op, filter)`.
struct Scenario {
    indexes: Vec<&'static str>,
    docs: Vec<Value>,
    calls: Vec<(usize, Value)>,
}

fn scenario(g: &mut TestRng) -> Scenario {
    Scenario {
        indexes: (0..below(g, 4)).map(|_| pick(g, PATHS)).collect(),
        docs: (0..below(g, 8)).map(|_| document(g)).collect(),
        calls: (0..1 + below(g, 6))
            .map(|_| (below(g, 2), any_filter(g)))
            .collect(),
    }
}

/// One generated call against `c`; the answer as JSON.
fn call(c: &Collection, op: usize, filter: &Value) -> Result<Value, DocDbError> {
    match op {
        0 => c.find(filter).map(Value::from),
        _ => c.delete_many(filter).map(Value::from),
    }
}

fn snapshot(c: &Collection) -> String {
    serde_json::to_string(&c.all()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn hostile_calls_answer_or_err_and_an_err_changes_nothing(s in Draw(scenario)) {
        let plain = Database::new("plain").collection("c");
        let indexed = Database::new("indexed").collection("c");
        for path in s.indexes {
            indexed.create_index(path);
        }
        for doc in s.docs {
            prop_assert_eq!(plain.insert_one(doc.clone()), indexed.insert_one(doc));
        }
        for (op, filter) in s.calls {
            let before = snapshot(&plain);
            let got = call(&plain, op, &filter);
            let after = snapshot(&plain);
            if got.is_err() {
                prop_assert_eq!(&after, &before, "{}", filter);
            }
            // An index narrows which documents `find` evaluates the filter
            // against, so it may skip the one a bad operator errs on;
            // `delete_many` scans every document either way.
            let via_index = call(&indexed, op, &filter);
            if op != 0 || (got.is_ok() && via_index.is_ok()) {
                prop_assert_eq!(via_index, got, "{}", filter);
            }
            prop_assert_eq!(snapshot(&indexed), after);
        }
    }
}
