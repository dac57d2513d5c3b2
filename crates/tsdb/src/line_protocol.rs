//! InfluxDB line-protocol parsing and rendering.
//!
//! Grammar (one point per line):
//!
//! ```text
//! measurement[,tag=value...] field=value[,field=value...] [timestamp]
//! ```
//!
//! Escapes: `\,` `\ ` `\=` `\"` `\\` in identifiers (a backslash before
//! any other character stands for itself), `\"` and `\\` inside string
//! field values. Integer fields carry an `i` suffix, booleans are
//! `true`/`false`, everything else numeric is a float.
//!
//! [`parse`] reads a line in one scan. Every delimiter is ASCII, so the
//! scan walks bytes, and a segment is copied out once, when its end is
//! known — unescaped on the way only if it holds a backslash.

use crate::error::TsdbError;
use crate::point::Point;
use crate::value::FieldValue;
use std::collections::BTreeMap;

/// The characters a backslash escapes in an identifier.
const ESCAPED: [char; 5] = ['\\', ',', ' ', '=', '"'];
/// The characters a backslash escapes inside a `"…"` string field value
/// (what [`FieldValue::to_line_protocol`] writes).
const STR_ESCAPED: [char; 2] = ['\\', '"'];

fn bad(what: &str, text: &str) -> TsdbError {
    TsdbError::LineProtocol(format!("{what}: {text}"))
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        if ESCAPED.contains(&c) {
            out.push('\\');
        }
        out.push(c);
    }
}

/// Drop the backslash before each character of `escaped` (the inverse of
/// [`escape_into`] for [`ESCAPED`]); the result is the only allocation.
fn unescape(s: &str, escaped: &[char]) -> String {
    if !s.contains('\\') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        let literal = (c == '\\').then(|| chars.next_if(|n| escaped.contains(n)));
        out.push(literal.flatten().unwrap_or(c));
    }
    out
}

/// Offset of the first byte of `stops` at or after `from` that no
/// backslash escapes (one escapes the byte after it, whatever that is),
/// or `b.len()`.
fn until(b: &[u8], from: usize, stops: &[u8]) -> usize {
    let mut i = from;
    while let Some(c) = b.get(i) {
        match c {
            b'\\' => i += 1,
            c if stops.contains(c) => return i,
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// Render the canonical series key `measurement[,tag=value...]` — the
/// identity under which the durable store files a series. Tags iterate
/// in `BTreeMap` order and identifiers use line-protocol escaping, so
/// the key is deterministic and lossless.
pub fn render_series_key(measurement: &str, tags: &BTreeMap<String, String>) -> String {
    let mut out = String::new();
    escape_into(&mut out, measurement);
    for (k, v) in tags {
        out.push(',');
        escape_into(&mut out, k);
        out.push('=');
        escape_into(&mut out, v);
    }
    out
}

/// Scan `measurement[,tag=value...]` off the front of `s` — up to its
/// first unescaped space when `s` is a line, all of it when a series
/// key — and return the offset the scan stopped at.
fn scan_head(s: &str, line: bool) -> Result<(String, BTreeMap<String, String>, usize), TsdbError> {
    let b = s.as_bytes();
    let (ends, key_ends): (&[u8], &[u8]) = if line { (b", ", b"=, ") } else { (b",", b"=,") };
    let mut at = until(b, 0, ends);
    let measurement = unescape(&s[..at], &ESCAPED);
    let mut tags = BTreeMap::new();
    while b.get(at) == Some(&b',') {
        let eq = until(b, at + 1, key_ends);
        let end = until(b, eq, ends);
        if b.get(eq) != Some(&b'=') {
            return Err(bad("bad tag", &s[at + 1..end]));
        }
        let (key, value) = (&s[at + 1..eq], &s[eq + 1..end]);
        tags.insert(unescape(key, &ESCAPED), unescape(value, &ESCAPED));
        at = end;
    }
    Ok((measurement, tags, at))
}

/// Parse a series key produced by [`render_series_key`] back into its
/// measurement and tag set.
pub fn parse_series_key(key: &str) -> Result<(String, BTreeMap<String, String>), TsdbError> {
    let (measurement, tags, _) = scan_head(key, false)?;
    if measurement.is_empty() {
        return Err(bad("empty measurement in series key", key));
    }
    Ok((measurement, tags))
}

/// Render a point as one line of line protocol.
pub fn render(point: &Point) -> String {
    let mut out = render_series_key(&point.measurement, &point.tags);
    let mut sep = ' ';
    for (k, v) in &point.fields {
        out.push(sep);
        escape_into(&mut out, k);
        out.push('=');
        out.push_str(&v.to_line_protocol());
        sep = ',';
    }
    out.push(' ');
    out.push_str(&point.timestamp.to_string());
    out
}

/// Scan one `key=value` of a field section from `from`: the offset of its
/// first unescaped `=`, if it has one, and of the unescaped `,` outside
/// `"…"` that ends it (or `b.len()`).
fn scan_field(b: &[u8], from: usize) -> (Option<usize>, usize) {
    let (mut eq, mut quoted, mut i) = (None, false, from);
    while let Some(c) = b.get(i) {
        match c {
            b'\\' => i += 1,
            b'"' => quoted = !quoted,
            b'=' if eq.is_none() => eq = Some(i),
            b',' if !quoted => break,
            _ => {}
        }
        i += 1;
    }
    (eq, i.min(b.len()))
}

/// Parse a single line of line protocol into a [`Point`].
pub fn parse(line: &str) -> Result<Point, TsdbError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Err(bad("empty line", line));
    }
    let (measurement, tags, head_end) = scan_head(line, true)?;
    if head_end == line.len() {
        return Err(bad("no field section", line));
    }
    // The timestamp is the final space-separated token when that is all
    // digits and dashes; what precedes it is the field section.
    let rest = line[head_end + 1..].trim_start();
    let (section, timestamp) = match rest.rfind(' ') {
        Some(sp)
            if rest[sp + 1..]
                .bytes()
                .all(|c| c.is_ascii_digit() || c == b'-') =>
        {
            let ts = rest[sp + 1..].parse();
            (&rest[..sp], ts.map_err(|_| bad("bad timestamp", rest))?)
        }
        _ => (rest, 0),
    };
    let mut fields = BTreeMap::new();
    let mut start = 0;
    while start < section.len() {
        let (eq, end) = scan_field(section.as_bytes(), start);
        let eq = eq.ok_or_else(|| bad("bad field", &section[start..end]))?;
        let value = parse_field_value(&section[eq + 1..end])?;
        fields.insert(unescape(&section[start..eq], &ESCAPED), value);
        start = end + 1;
    }
    if fields.is_empty() {
        return Err(TsdbError::EmptyFields);
    }
    Ok(Point {
        measurement,
        tags,
        fields,
        timestamp,
    })
}

/// Parse a multi-line batch, skipping blank and `#` comment lines.
pub fn parse_batch(text: &str) -> Result<Vec<Point>, TsdbError> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(parse)
        .collect()
}

fn parse_field_value(raw: &str) -> Result<FieldValue, TsdbError> {
    let raw = raw.trim();
    if raw.starts_with('"') && raw.ends_with('"') && raw.len() >= 2 {
        let inner = &raw[1..raw.len() - 1];
        return Ok(FieldValue::Str(unescape(inner, &STR_ESCAPED)));
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
            .map_err(|_| bad("bad int", raw));
    }
    raw.parse::<f64>()
        .map(FieldValue::Float)
        .map_err(|_| bad("bad float", raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let p = Point::new("cpu")
            .tag("host", "skx")
            .field("_cpu0", 1.5)
            .field("n", 3i64)
            .timestamp(42);
        let line = render(&p);
        let back = parse(&line).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn parse_without_timestamp_defaults_zero() {
        let p = parse("m,f=g value=1").unwrap();
        assert_eq!(p.timestamp, 0);
        assert_eq!(p.tags["f"], "g");
    }

    #[test]
    fn parse_types() {
        let p = parse("m a=1.5,b=7i,c=true,d=\"x,y\" 9").unwrap();
        assert_eq!(p.fields["a"], FieldValue::Float(1.5));
        assert_eq!(p.fields["b"], FieldValue::Int(7));
        assert_eq!(p.fields["c"], FieldValue::Bool(true));
        assert_eq!(p.fields["d"], FieldValue::Str("x,y".into()));
        assert_eq!(p.timestamp, 9);
    }

    #[test]
    fn escaped_identifiers_roundtrip() {
        let p = Point::new("my measure")
            .tag("a,b", "c=d")
            .field("f g", 1.0)
            .timestamp(1);
        let back = parse(&render(&p)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("onlymeasurement").is_err());
        assert!(parse("m novalue").is_err());
        assert!(parse("m a=zz").is_err());
    }

    #[test]
    fn batch_skips_comments_and_blanks() {
        let text = "# comment\nm a=1 1\n\nm a=2 2\n";
        let pts = parse_batch(text).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[1].timestamp, 2);
    }

    #[test]
    fn negative_timestamp_parses() {
        let p = parse("m a=1 -5").unwrap();
        assert_eq!(p.timestamp, -5);
    }

    #[test]
    fn series_key_roundtrips_hostile_identifiers() {
        let mut tags = BTreeMap::new();
        tags.insert("a,b".to_string(), "c=d".to_string());
        tags.insert("plain".to_string(), "with space".to_string());
        let key = render_series_key("my, measure=x", &tags);
        let (m, t) = parse_series_key(&key).unwrap();
        assert_eq!(m, "my, measure=x");
        assert_eq!(t, tags);
    }

    #[test]
    fn series_key_rejects_garbage() {
        assert!(parse_series_key("").is_err());
        assert!(parse_series_key("m,notag").is_err());
    }

    #[test]
    fn backslashes_and_quotes_in_identifiers_roundtrip() {
        // `a=x\` used to render as `a=x\,b=y` and parse back as one tag.
        let mut tags = BTreeMap::new();
        tags.insert("a".to_string(), "x\\".to_string());
        tags.insert("b".to_string(), "y".to_string());
        let key = render_series_key("m", &tags);
        assert_eq!(key, "m,a=x\\\\,b=y");
        assert_eq!(
            parse_series_key(&key).unwrap(),
            ("m".to_string(), tags.clone())
        );
        let mut p = Point::new("m\\")
            .field("k\\", 5i64)
            .field("q\"", true)
            .timestamp(3);
        p.tags = tags;
        assert_eq!(parse(&render(&p)).unwrap(), p);
    }

    #[test]
    fn backslashes_and_quotes_in_string_values_roundtrip() {
        // `s="x\",z=1` used to read `\"` as an escaped quote and fail.
        for text in ["x\\", "a\\\"b", "\\\\", "q\"", "k\\x, y=z"] {
            let p = Point::new("m")
                .tag("h", "a")
                .field("s", text)
                .field("z", 1.0)
                .timestamp(5);
            assert_eq!(parse(&render(&p)).unwrap(), p, "{text:?}");
        }
        let line = render(&Point::new("m").field("s", "x\\").timestamp(5));
        assert_eq!(line, "m s=\"x\\\\\" 5");
        // A lone backslash before any other character keeps its meaning.
        let p = parse("m s=\"a\\b\\,\" 1").unwrap();
        assert_eq!(p.fields["s"], FieldValue::Str("a\\b\\,".into()));
    }

    #[test]
    fn backslash_before_an_ordinary_character_is_literal() {
        // Keys written before `\\` was an escape keep their meaning.
        let (m, tags) = parse_series_key("a\\b,k\\x=v\\").unwrap();
        assert_eq!(m, "a\\b");
        assert_eq!(tags["k\\x"], "v\\");
    }
}
