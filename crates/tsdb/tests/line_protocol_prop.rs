//! Property tests for the line protocol.
//!
//! Rendering and parsing are inverse for identifiers containing the
//! characters that need escaping — spaces, commas, equals signs, double
//! quotes and backslashes — in the measurement, tag keys/values, and
//! field keys alike. The same guarantee carries the durable store's
//! series keys, so a hostile metric name can never corrupt a chunk key.
//!
//! The single-pass scanner is held to the parser it replaced (kept below
//! as [`oracle`]): the same `Point`, or an error of the same class, on
//! rendered points and on hostile lines.
//!
//! `PMOVE_LP_CASES` overrides the case count (default 96).

use pmove_tsdb::line_protocol::{parse, parse_series_key, render, render_series_key};
use pmove_tsdb::{FieldValue, Point, TsdbError};
use proptest::prelude::*;

fn lp_cases() -> u32 {
    std::env::var("PMOVE_LP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96)
}

/// Identifier alphabet: letters, digits, and every character the
/// protocol must escape (space, comma, equals, quote, backslash), plus
/// common punctuation.
const IDENT: &str = "[a-zA-Z0-9 ,=\\\\\"._:/-]{1,12}";

/// The multi-pass parser `line_protocol::parse` replaced — split the line,
/// split the head, split the field section into owned segments, split
/// each at `=` — as the reference. Its unescaping is the current one
/// (`\\` and `\"` are escapes, in identifiers and in string values),
/// since that is a fix and not part of what the scanner must reproduce.
mod oracle {
    use super::*;

    const IDENT_ESCAPES: &str = "\\, =\"";

    fn unescape(s: &str, escapes: &str) -> String {
        let mut out = String::new();
        let mut chars = s.chars().peekable();
        while let Some(c) = chars.next() {
            match chars.peek() {
                Some(&n) if c == '\\' && escapes.contains(n) => {
                    out.push(n);
                    chars.next();
                }
                _ => out.push(c),
            }
        }
        out
    }

    /// Parse a single line of line protocol into a [`Point`].
    pub fn parse(line: &str) -> Result<Point, TsdbError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Err(TsdbError::LineProtocol("empty line".into()));
        }
        let (head, rest) = split_unescaped(line, ' ')
            .ok_or_else(|| TsdbError::LineProtocol(format!("no field section: {line}")))?;

        // head = measurement[,tag=value...]
        let mut head_parts = split_all_unescaped(head, ',');
        let measurement = unescape(
            head_parts
                .next()
                .ok_or_else(|| TsdbError::LineProtocol("missing measurement".into()))?,
            IDENT_ESCAPES,
        );
        let mut point = Point::new(measurement);
        for tag in head_parts {
            let (k, v) = split_unescaped(tag, '=')
                .ok_or_else(|| TsdbError::LineProtocol(format!("bad tag: {tag}")))?;
            point
                .tags
                .insert(unescape(k, IDENT_ESCAPES), unescape(v, IDENT_ESCAPES));
        }

        // rest = fields [timestamp] — timestamp is the final whitespace-separated
        // integer if present.
        let rest = rest.trim();
        let (field_sec, ts) = match rest.rfind(' ') {
            Some(idx)
                if rest[idx + 1..]
                    .chars()
                    .all(|c| c.is_ascii_digit() || c == '-') =>
            {
                let ts: i64 = rest[idx + 1..]
                    .parse()
                    .map_err(|_| TsdbError::LineProtocol(format!("bad timestamp: {rest}")))?;
                (&rest[..idx], ts)
            }
            _ => (rest, 0),
        };
        point.timestamp = ts;

        for field in split_all_unescaped_respecting_quotes(field_sec, ',') {
            let (k, v) = split_unescaped(&field, '=')
                .ok_or_else(|| TsdbError::LineProtocol(format!("bad field: {field}")))?;
            point
                .fields
                .insert(unescape(k, IDENT_ESCAPES), parse_field_value(v)?);
        }
        if point.fields.is_empty() {
            return Err(TsdbError::EmptyFields);
        }
        Ok(point)
    }

    fn parse_field_value(raw: &str) -> Result<FieldValue, TsdbError> {
        let raw = raw.trim();
        if raw.starts_with('"') && raw.ends_with('"') && raw.len() >= 2 {
            let text = unescape(&raw[1..raw.len() - 1], "\\\"");
            return Ok(FieldValue::Str(text));
        }
        if raw == "true" || raw == "t" || raw == "T" {
            return Ok(FieldValue::Bool(true));
        }
        if raw == "false" || raw == "f" || raw == "F" {
            return Ok(FieldValue::Bool(false));
        }
        if let Some(int_part) = raw.strip_suffix('i') {
            return int_part
                .parse::<i64>()
                .map(FieldValue::Int)
                .map_err(|_| TsdbError::LineProtocol(format!("bad int: {raw}")));
        }
        raw.parse::<f64>()
            .map(FieldValue::Float)
            .map_err(|_| TsdbError::LineProtocol(format!("bad float: {raw}")))
    }

    /// Split on the first occurrence of `sep` that is not preceded by `\`.
    fn split_unescaped(s: &str, sep: char) -> Option<(&str, &str)> {
        let bytes = s.as_bytes();
        let mut prev_escape = false;
        for (i, c) in s.char_indices() {
            if c == sep && !prev_escape {
                return Some((&s[..i], &s[i + c.len_utf8()..]));
            }
            prev_escape = c == '\\' && !prev_escape;
            let _ = bytes;
        }
        None
    }

    /// Iterate over all unescaped-`sep`-separated segments.
    fn split_all_unescaped(s: &str, sep: char) -> impl Iterator<Item = &str> {
        let mut parts = Vec::new();
        let mut start = 0;
        let mut prev_escape = false;
        for (i, c) in s.char_indices() {
            if c == sep && !prev_escape {
                parts.push(&s[start..i]);
                start = i + c.len_utf8();
            }
            prev_escape = c == '\\' && !prev_escape;
        }
        parts.push(&s[start..]);
        parts.into_iter()
    }

    /// Like [`split_all_unescaped`] but does not split inside `"..."` string
    /// values (needed for string fields containing commas).
    fn split_all_unescaped_respecting_quotes(s: &str, sep: char) -> Vec<String> {
        let mut parts = Vec::new();
        let mut cur = String::new();
        let mut in_quotes = false;
        let mut prev_escape = false;
        for c in s.chars() {
            if c == '"' && !prev_escape {
                in_quotes = !in_quotes;
            }
            if c == sep && !in_quotes && !prev_escape {
                parts.push(std::mem::take(&mut cur));
            } else {
                cur.push(c);
            }
            prev_escape = c == '\\' && !prev_escape;
        }
        if !cur.is_empty() {
            parts.push(cur);
        }
        parts
    }
}

/// What hostile lines are assembled from: the grammar's own punctuation
/// — escapes, quoted strings holding `,`/`=`/`\"`, comments, stray
/// separators, timestamps present, negative and malformed, CR and tabs.
const TOKENS: [&str; 20] = [
    "m",
    "f",
    "ab7",
    "1",
    ",",
    "=",
    " ",
    "\\",
    "\"",
    "#",
    "-",
    "i",
    "=1.5",
    "=\"a,b=c\\\"d\"",
    "=t",
    " 17",
    " -4",
    "\t",
    "\r",
    "é",
];

fn same_outcome(line: &str) {
    match (parse(line), oracle::parse(line)) {
        (Ok(got), Ok(want)) => assert_eq!(got, want, "line {line:?}"),
        (Err(got), Err(want)) => assert_eq!(
            std::mem::discriminant(&got),
            std::mem::discriminant(&want),
            "line {line:?}: {got} vs {want}"
        ),
        (got, want) => panic!("line {line:?}: {got:?} vs {want:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(lp_cases()))]

    #[test]
    fn point_roundtrips_with_hostile_identifiers(
        measurement in IDENT,
        tag_key in IDENT,
        tag_val in IDENT,
        field_key in IDENT,
        raw_value in 0u64..2_000_000,
        ts in any::<i64>(),
    ) {
        let p = Point::new(measurement.clone())
            .tag(tag_key.clone(), tag_val.clone())
            .field(field_key.clone(), raw_value as f64 / 1e3)
            .timestamp(ts);
        let line = render(&p);
        let back = parse(&line).unwrap_or_else(|e| {
            panic!("rendered line failed to parse: {line:?}: {e}")
        });
        prop_assert_eq!(back, p);
    }

    #[test]
    fn series_key_roundtrips_with_hostile_identifiers(
        measurement in IDENT,
        k1 in IDENT,
        v1 in IDENT,
        k2 in IDENT,
        v2 in IDENT,
    ) {
        let mut tags = std::collections::BTreeMap::new();
        tags.insert(k1, v1);
        tags.insert(k2, v2);
        let key = render_series_key(&measurement, &tags);
        let (m, t) = parse_series_key(&key).unwrap_or_else(|e| {
            panic!("series key failed to parse: {key:?}: {e}")
        });
        prop_assert_eq!(m, measurement);
        prop_assert_eq!(t, tags);
    }

    #[test]
    fn multi_field_points_roundtrip(
        measurement in IDENT,
        f1 in IDENT,
        f2 in IDENT,
        int_value in any::<i64>(),
        flag in any::<bool>(),
    ) {
        // Two hostile field keys in one point; if they collide the map
        // keeps one entry and the round trip must still hold.
        let p = Point::new(measurement)
            .field(f1, int_value)
            .field(f2, flag)
            .timestamp(7);
        let back = parse(&render(&p)).unwrap();
        prop_assert_eq!(back, p);
    }

    #[test]
    fn scanner_matches_the_parser_it_replaced_on_rendered_points(
        measurement in IDENT,
        tags in prop::collection::vec((IDENT, IDENT), 0..3),
        floats in prop::collection::vec((IDENT, -1e9f64..1e9), 0..3),
        text in prop::collection::vec((IDENT, "[a-z ,=\"\\\\]{0,6}"), 0..3),
        flag in any::<bool>(),
        ts in any::<i64>(),
        stamped in any::<bool>(),
        crlf in any::<bool>(),
    ) {
        let ts = if stamped { ts } else { 0 };
        let mut p = Point::new(measurement).field("ok", flag).timestamp(ts);
        p.tags.extend(tags);
        p.fields.extend(floats.into_iter().map(|(k, v)| (k, FieldValue::Float(v))));
        p.fields.extend(text.into_iter().map(|(k, v)| (k, FieldValue::Str(v))));
        let mut line = render(&p);
        if !stamped {
            // Drop the rendered " 0": a missing timestamp reads as 0.
            line.truncate(line.len() - 2);
        }
        if crlf {
            line.push('\r');
        }
        same_outcome(&line);
        prop_assert_eq!(parse(&line).unwrap(), p);
    }

    #[test]
    fn scanner_matches_the_parser_it_replaced_on_hostile_lines(
        start in 0usize..3,
        tokens in prop::collection::vec(0usize..TOKENS.len(), 0..14),
    ) {
        // Bare noise rarely gets past the head; two of three lines start
        // well-formed so the field section and timestamp get their share.
        let mut line = ["", "m f", "m,t=v f=1"][start].to_string();
        line.extend(tokens.iter().map(|&t| TOKENS[t]));
        same_outcome(&line);
    }
}

#[test]
fn error_classes_are_the_replaced_parsers() {
    for line in [
        "",
        "# note",
        "m",
        "m,t f=1",
        "m f",
        "m f=1 1-2",
        "m f=zz",
        "m ,f=1",
        "m f=1,,g=2",
    ] {
        assert!(
            matches!(parse(line), Err(TsdbError::LineProtocol(_))),
            "{line:?}"
        );
        assert!(
            matches!(oracle::parse(line), Err(TsdbError::LineProtocol(_))),
            "{line:?}"
        );
    }
}
