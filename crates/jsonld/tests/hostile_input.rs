//! Hostile input to the parsing surface: generated JSON through
//! `interface_from_json` and then validation, serialization and triple
//! projection; generated strings through `Dtmi::parse`. Every call
//! answers `Ok` or `Err` and never panics, and what is accepted
//! round-trips.

use pmove_jsonld::serialize::{interface_from_json, interface_to_json, interface_to_triples};
use pmove_jsonld::validate::validate_model;
use pmove_jsonld::{Dtmi, Graph};
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

const TYPES: &[&str] = &[
    "Interface",
    "Property",
    "SWTelemetry",
    "HWTelemetry",
    "Telemetry",
    "Relationship",
    "Command",
    "Mystery",
];

const CONTENT_KEYS: &[&str] = &[
    "name",
    "description",
    "schema",
    "SamplerName",
    "DBName",
    "FieldName",
    "PMUName",
    "target",
    "request",
];

const SCHEMAS: &[&str] = &["double", "float", "integer", "string", ""];

/// Characters a DTMI is made of, plus ones that break it.
const DTMI_CHARS: &[&str] = &[
    "a", "z", "Q", "0", "9", "_", ":", ";", "+", "-", " ", "é", "\u{0}", "dtmi:",
];

/// A well-formed DTMI, under `parent` when one is given.
fn good_dtmi(g: &mut TestRng, parent: Option<&str>) -> String {
    let segs: Vec<String> = (0..1 + below(g, 3))
        .map(|_| format!("{}{}", pick(g, &["a", "gpu", "cn", "x_y"]), below(g, 10)))
        .collect();
    match parent.and_then(|p| p.strip_suffix(";1")) {
        Some(p) => format!("{p}:{};1", segs.join(":")),
        None => format!("dtmi:{};{}", segs.join(":"), 1 + below(g, 2)),
    }
}

/// A string near or far from the DTMI grammar.
fn dtmi_like(g: &mut TestRng) -> String {
    match below(g, 4) {
        0 => good_dtmi(g, None),
        // The prefix, then anything.
        1 | 2 => {
            let tail: String = (0..below(g, 16)).map(|_| pick(g, DTMI_CHARS)).collect();
            format!("dtmi:{tail}")
        }
        // Any characters at all.
        _ => (0..below(g, 16))
            .map(|_| char::from_u32(g.next_u64() as u32 % 0x11_0000).unwrap_or('?'))
            .collect(),
    }
}

fn arb_json(g: &mut TestRng, depth: usize) -> Value {
    match below(g, if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => json!(chance(g, 50)),
        2 => json!(g.next_u64() as i64),
        3 => json!((g.next_u64() as f64) * if chance(g, 50) { -1e-6 } else { 1e-9 }),
        4 => json!(pick(g, TYPES)),
        5 => json!(dtmi_like(g)),
        6 => Value::from(
            (0..below(g, 4))
                .map(|_| arb_json(g, depth - 1))
                .collect::<Vec<_>>(),
        ),
        _ => Value::Object(
            (0..below(g, 4))
                .map(|_| {
                    let key = pick(g, &["@id", "@type", "name", "x", ""]).to_string();
                    (key, arb_json(g, depth - 1))
                })
                .collect(),
        ),
    }
}

/// A field value: mostly the shapes the parser looks for, sometimes junk.
fn field(g: &mut TestRng) -> Value {
    match below(g, 7) {
        0 | 1 => json!(dtmi_like(g)),
        2 | 3 => json!(pick(g, TYPES)),
        4 => json!(pick(g, SCHEMAS)),
        _ => arb_json(g, 2),
    }
}

/// A content entry of the interface `parent`: mostly well-formed, with
/// fields missing, mistyped or junk.
fn content(g: &mut TestRng, parent: &str) -> Value {
    let mut m = Map::new();
    for _ in 0..below(g, 6) {
        m.insert(pick(g, CONTENT_KEYS).into(), field(g));
    }
    for (key, percent) in [("name", 70), ("SamplerName", 50), ("DBName", 50)] {
        if chance(g, percent) {
            m.insert(key.into(), json!(pick(g, &["cpu", "m1", "m2", ""])));
        }
    }
    if chance(g, 60) {
        m.insert("target".into(), json!(good_dtmi(g, None)));
    }
    if chance(g, 95) {
        let id = if chance(g, 75) {
            json!(good_dtmi(g, Some(parent)))
        } else {
            field(g)
        };
        m.insert("@id".into(), id);
    }
    if chance(g, 95) {
        let ty = if chance(g, 85) {
            json!(pick(g, &TYPES[1..]))
        } else {
            field(g)
        };
        m.insert("@type".into(), ty);
    }
    Value::Object(m)
}

fn interface_doc(g: &mut TestRng) -> Value {
    let id = if chance(g, 80) {
        format!("dtmi:dt:{};1", pick(g, &["cn1", "cn1:gpu0", "node"]))
    } else {
        dtmi_like(g)
    };
    let mut m = Map::new();
    let ty = if chance(g, 85) {
        json!("Interface")
    } else {
        field(g)
    };
    m.insert("@type".into(), ty);
    if chance(g, 95) {
        m.insert("@id".into(), json!(id));
    }
    if chance(g, 90) {
        let contents = if chance(g, 85) {
            Value::from(
                (0..below(g, 5))
                    .map(|_| content(g, &id))
                    .collect::<Vec<_>>(),
            )
        } else {
            arb_json(g, 2)
        };
        m.insert("contents".into(), contents);
    }
    for key in ["componentType", "displayName"] {
        if chance(g, 50) {
            m.insert(key.into(), field(g));
        }
    }
    Value::Object(m)
}

/// Mostly interface-shaped documents, sometimes any JSON at all.
fn document(g: &mut TestRng) -> Value {
    if chance(g, 75) {
        interface_doc(g)
    } else {
        arb_json(g, 3)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A document either fails to parse or yields an interface that
    /// validates or not, serializes back to itself and projects into a
    /// graph.
    #[test]
    fn any_document_parses_or_errs(doc in Draw(document)) {
        if let Ok(iface) = interface_from_json(&doc) {
            let _ = validate_model(std::slice::from_ref(&iface));
            let back = interface_from_json(&interface_to_json(&iface));
            prop_assert_eq!(back.as_ref(), Ok(&iface), "{}", doc);
            interface_to_triples(&iface, &mut Graph::new());
        }
    }

    /// A string either is rejected or parses to a DTMI whose rendering
    /// parses back to it.
    #[test]
    fn any_string_parses_as_dtmi_or_errs(s in Draw(dtmi_like)) {
        if let Ok(d) = Dtmi::parse(&s) {
            prop_assert!(!d.segments.is_empty() && d.version >= 1, "{:?}", s);
            prop_assert_eq!(Dtmi::parse(&d.to_string()), Ok(d), "{:?}", s);
        }
    }
}
