//! InfluxQL-like query language: parser and executor.
//!
//! Supported shape (exactly what the paper's auto-generated queries in
//! Listing 3 use, plus aggregation/downsampling for AGG observations):
//!
//! ```text
//! SELECT "_cpu0", "_cpu1" FROM "kernel_percpu_cpu_idle"
//!        WHERE tag='278e26c2' AND time >= 10 AND time < 20
//!        [GROUP BY time(5)]
//! SELECT mean("value") FROM "m" WHERE host='skx'
//! SELECT * FROM "m"
//! ```

use crate::aggregate::{Accumulator, AggregateFn};
use crate::error::TsdbError;
use crate::series::SeriesId;
use crate::storage::{FieldId, Measurement, SeriesData, Storage};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;

/// One projected column: a raw field or an aggregate over a field.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// All fields of the measurement.
    Wildcard,
    /// A single raw field.
    Field(String),
    /// `func(field)`.
    Aggregate(AggregateFn, String),
}

/// Parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Projected columns.
    pub projections: Vec<Projection>,
    /// Target measurement.
    pub measurement: String,
    /// `tag = value` constraints.
    pub tag_filters: Vec<(String, String)>,
    /// Inclusive lower time bound.
    pub time_start: Option<i64>,
    /// Exclusive upper time bound.
    pub time_end: Option<i64>,
    /// `GROUP BY time(interval)` bucket width.
    pub group_by_time: Option<i64>,
}

impl Query {
    /// Parse the textual query.
    pub fn parse(text: &str) -> Result<Self, TsdbError> {
        Parser::new(text)?.parse()
    }

    /// Canonical textual rendering, used as the query-cache and coalescing
    /// key: fixed spacing, every name quoted with `\`, `"` and `'`
    /// backslash-escaped (no name can break out of its quotes, so
    /// structurally different queries never share a key, and
    /// [`Query::parse`] reads the text back), tag filters sorted and
    /// deduplicated (their order and multiplicity don't affect results —
    /// `lookup_all` intersects posting sets). Two queries with the same
    /// normalized text produce the same result against the same storage
    /// state.
    pub fn normalized(&self) -> String {
        let mut s = String::from("SELECT ");
        for (i, p) in self.projections.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            match p {
                Projection::Wildcard => s.push('*'),
                Projection::Field(f) => quote_into(&mut s, '"', f),
                Projection::Aggregate(func, f) => {
                    s.push_str(func.name());
                    s.push('(');
                    quote_into(&mut s, '"', f);
                    s.push(')');
                }
            }
        }
        s.push_str(" FROM ");
        quote_into(&mut s, '"', &self.measurement);
        let mut tags: Vec<&(String, String)> = self.tag_filters.iter().collect();
        tags.sort();
        tags.dedup();
        let mut sep = " WHERE ";
        let mut clause = |s: &mut String| s.push_str(std::mem::replace(&mut sep, " AND "));
        for (k, v) in tags {
            clause(&mut s);
            quote_into(&mut s, '"', k);
            s.push('=');
            quote_into(&mut s, '\'', v);
        }
        if let Some(t) = self.time_start {
            clause(&mut s);
            let _ = write!(s, "time >= {t}");
        }
        if let Some(t) = self.time_end {
            clause(&mut s);
            let _ = write!(s, "time < {t}");
        }
        if let Some(b) = self.group_by_time {
            let _ = write!(s, " GROUP BY time({b})");
        }
        s
    }
}

/// Append `name` between `quote`s with `\`, `"` and `'` backslash-escaped
/// (the `line_protocol::escape_into` idiom; [`tokenize`] is the inverse).
fn quote_into(out: &mut String, quote: char, name: &str) {
    out.push(quote);
    for c in name.chars() {
        if matches!(c, '\\' | '"' | '\'') {
            out.push('\\');
        }
        out.push(c);
    }
    out.push(quote);
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

/// Resolved physical plan for one query: wildcards expanded against the
/// measurement's field keys, time bounds concretized, the matching series
/// set resolved through the inverted index and then pruned by each series'
/// stored time bounds. The plan is what both executors agree on; pruning is
/// semantics-preserving because a pruned series contributes zero rows to
/// the scanned window.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Projections with `Wildcard` expanded (never contains `Wildcard`).
    pub projections: Vec<Projection>,
    /// Output column names, one per projection.
    pub columns: Vec<String>,
    /// Each projection's field as interned by the measurement, `None` for
    /// a field it never saw (the column is NULL in every row).
    pub fields: Vec<Option<FieldId>>,
    /// Inclusive scan start.
    pub start: i64,
    /// Exclusive scan end.
    pub end: i64,
    /// Matching series ids in ascending order, time-pruned.
    pub ids: Vec<SeriesId>,
    /// Series the index matched but whose `[min, max]` timestamps fall
    /// entirely outside the scan window.
    pub series_pruned: usize,
    /// `GROUP BY time(b)` bucket width.
    pub bucket: Option<i64>,
    /// Whether any projection is an aggregate (bucketed output).
    pub aggregated: bool,
}

/// Resolve a query against the measurement it names: wildcards expanded,
/// columns named, fields looked up, bounds defaulted, every series the tag
/// filters match. The one resolver under [`plan`] and [`execute`].
fn resolve<'a>(storage: &'a Storage, q: &Query) -> Result<(QueryPlan, &'a Measurement), TsdbError> {
    let m = storage
        .measurement(&q.measurement)
        .ok_or_else(|| TsdbError::UnknownMeasurement(q.measurement.clone()))?;

    let mut projections = Vec::new();
    for p in &q.projections {
        match p {
            Projection::Wildcard => {
                for f in m.field_keys() {
                    projections.push(Projection::Field(f));
                }
            }
            other => projections.push(other.clone()),
        }
    }
    let mut columns = Vec::with_capacity(projections.len());
    let mut fields = Vec::with_capacity(projections.len());
    for p in &projections {
        let (column, field) = match p {
            Projection::Field(f) => (f.clone(), f),
            Projection::Aggregate(func, f) => (format!("{}({f})", func.name()), f),
            Projection::Wildcard => unreachable!("expanded above"),
        };
        columns.push(column);
        fields.push(m.field_id(field));
    }
    let aggregated = projections
        .iter()
        .any(|p| matches!(p, Projection::Aggregate(..)));
    Ok((
        QueryPlan {
            projections,
            columns,
            fields,
            start: q.time_start.unwrap_or(i64::MIN),
            end: q.time_end.unwrap_or(i64::MAX),
            ids: m.matching_series(&q.tag_filters),
            series_pruned: 0,
            bucket: q.group_by_time,
            aggregated,
        },
        m,
    ))
}

/// Plan a query against storage, returning the plan plus the measurement
/// it was planned over.
pub fn plan<'a>(
    storage: &'a Storage,
    q: &Query,
) -> Result<(QueryPlan, &'a Measurement), TsdbError> {
    let (mut plan, m) = resolve(storage, q)?;
    let matched = plan.ids.len();
    let (start, end) = (plan.start, plan.end);
    plan.ids.retain(|&id| {
        m.series(id)
            .and_then(|s| s.time_bounds())
            .is_some_and(|(lo, hi)| lo < end && hi >= start)
    });
    plan.series_pruned = matched - plan.ids.len();
    Ok((plan, m))
}

/// Column-major query result: what the scan kernel emits, the result
/// cache holds and in-tree readers take slices of. Columns are positional
/// (`cols[j]` answers `columns[j]`, duplicates included) and row-aligned
/// with `ts`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Frame {
    /// Column names in projection order.
    pub columns: Vec<String>,
    /// Row timestamps in time order (bucket starts for aggregated queries).
    pub ts: Vec<i64>,
    /// One value column per name (`None` is NULL), each `ts.len()` long.
    pub cols: Vec<Vec<Option<f64>>>,
}

impl Frame {
    /// An empty frame of the given columns.
    pub(crate) fn new(columns: Vec<String>) -> Frame {
        Frame {
            cols: vec![Vec::new(); columns.len()],
            ts: Vec::new(),
            columns,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Make room for `rows` more rows.
    pub(crate) fn reserve(&mut self, rows: usize) {
        self.ts.reserve(rows);
        self.cols.iter_mut().for_each(|col| col.reserve(rows));
    }

    /// Append one row from per-column values, in column order.
    pub(crate) fn push_row(&mut self, ts: i64, values: impl Iterator<Item = Option<f64>>) {
        self.ts.push(ts);
        for (col, v) in self.cols.iter_mut().zip(values) {
            col.push(v);
        }
    }

    /// Extract the first column of that name as a (timestamp, value)
    /// series, skipping nulls.
    pub fn column_series(&self, column: &str) -> Vec<(i64, f64)> {
        let at = self.columns.iter().position(|c| c == column);
        let cells = self.ts.iter().zip(at.map_or(&[][..], |at| &self.cols[at]));
        cells.filter_map(|(&ts, v)| v.map(|x| (ts, x))).collect()
    }

    /// Sum every numeric cell, row by row (total data-point accounting).
    pub fn total(&self) -> f64 {
        let rows = 0..self.len();
        let cells = rows.flat_map(|i| self.cols.iter().filter_map(move |col| col[i]));
        cells.sum()
    }

    /// The row view of the public edge — the one place rows are built. An
    /// unshared frame gives its column names away; one the result cache
    /// also holds is copied, once.
    pub fn into_rows(self: Arc<Self>) -> QueryResult {
        let row = |i: usize| {
            let values = self.cols.iter().map(|col| col[i]);
            ResultRow::from_values(self.ts[i], &self.columns, values)
        };
        let rows = (0..self.len()).map(row).collect();
        let columns = Arc::try_unwrap(self)
            .map_or_else(|shared| shared.columns.clone(), |owned| owned.columns);
        QueryResult { columns, rows }
    }

    /// The frame of a row result (how the [`execute`] oracle's answer
    /// enters the cache).
    pub(crate) fn from_rows(result: QueryResult) -> Frame {
        let cell = |row: &ResultRow, col| row.values.get(col).copied().flatten();
        let column = |col| result.rows.iter().map(|row| cell(row, col)).collect();
        Frame {
            cols: result.columns.iter().map(column).collect(),
            ts: result.rows.iter().map(|row| row.timestamp).collect(),
            columns: result.columns,
        }
    }
}

/// One output row.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Row timestamp (bucket start for aggregated queries).
    pub timestamp: i64,
    /// Column name -> value (`None` renders as null).
    pub values: BTreeMap<String, Option<f64>>,
}

impl ResultRow {
    /// One row from per-column values, in column order.
    fn from_values(
        timestamp: i64,
        columns: &[String],
        values: impl Iterator<Item = Option<f64>>,
    ) -> ResultRow {
        // Inserted one by one: collecting would stage every row's columns
        // in a scratch vector first.
        let mut row = BTreeMap::new();
        for (col, v) in columns.iter().zip(values) {
            row.insert(col.clone(), v);
        }
        ResultRow {
            timestamp,
            values: row,
        }
    }
}

/// Query result set as rows of maps: the view of the public edge, built
/// by [`Frame::into_rows`] and by the [`execute`] oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Column names in projection order.
    pub columns: Vec<String>,
    /// Output rows in time order.
    pub rows: Vec<ResultRow>,
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Token<'a> {
    Word(&'a str),
    Quoted(String),
    Symbol(char),
    Number(i64),
}

fn tokenize(text: &str) -> Result<Vec<Token<'_>>, TsdbError> {
    let mut out = Vec::new();
    let mut chars = text.char_indices().peekable();
    while let Some(&(i, c)) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                chars.next();
            }
            '"' | '\'' => {
                chars.next();
                let mut s = String::new();
                let mut closed = false;
                while let Some((_, c2)) = chars.next() {
                    match c2 {
                        // A backslash makes the next character literal.
                        '\\' => s.extend(chars.next().map(|(_, escaped)| escaped)),
                        c2 if c2 == c => {
                            closed = true;
                            break;
                        }
                        c2 => s.push(c2),
                    }
                }
                if !closed {
                    return Err(TsdbError::QueryParse(format!("unclosed quote at {i}")));
                }
                out.push(Token::Quoted(s));
            }
            ',' | '(' | ')' | '=' | '*' => {
                chars.next();
                out.push(Token::Symbol(c));
            }
            '<' | '>' => {
                chars.next();
                if let Some(&(_, '=')) = chars.peek() {
                    chars.next();
                    out.push(Token::Word(if c == '<' { "<=" } else { ">=" }));
                } else {
                    out.push(Token::Symbol(c));
                }
            }
            '-' | '0'..='9' => {
                let start = i;
                chars.next();
                while let Some(&(_, c2)) = chars.peek() {
                    if c2.is_ascii_digit() {
                        chars.next();
                    } else {
                        break;
                    }
                }
                let end = chars.peek().map(|&(j, _)| j).unwrap_or(text.len());
                let n: i64 = text[start..end]
                    .parse()
                    .map_err(|_| TsdbError::QueryParse(format!("bad number at {start}")))?;
                out.push(Token::Number(n));
            }
            _ => {
                let start = i;
                chars.next();
                while let Some(&(_, c2)) = chars.peek() {
                    if c2.is_alphanumeric() || c2 == '_' || c2 == '.' || c2 == '-' {
                        chars.next();
                    } else {
                        break;
                    }
                }
                let end = chars.peek().map(|&(j, _)| j).unwrap_or(text.len());
                out.push(Token::Word(&text[start..end]));
            }
        }
    }
    Ok(out)
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Result<Self, TsdbError> {
        Ok(Parser {
            tokens: tokenize(text)?,
            pos: 0,
        })
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), TsdbError> {
        match self.next() {
            Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(TsdbError::QueryParse(format!(
                "expected {kw}, found {other:?}"
            ))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn name(&mut self) -> Result<String, TsdbError> {
        match self.next() {
            Some(Token::Word(w)) => Ok(w.to_string()),
            Some(Token::Quoted(s)) => Ok(s),
            other => Err(TsdbError::QueryParse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn parse(&mut self) -> Result<Query, TsdbError> {
        self.expect_keyword("SELECT")?;
        let mut projections = Vec::new();
        loop {
            if matches!(self.peek(), Some(Token::Symbol('*'))) {
                self.next();
                projections.push(Projection::Wildcard);
            } else {
                let name = self.name()?;
                if matches!(self.peek(), Some(Token::Symbol('('))) {
                    let func = AggregateFn::parse(&name).ok_or_else(|| {
                        TsdbError::QueryParse(format!("unknown aggregate: {name}"))
                    })?;
                    self.next(); // (
                    let field = self.name()?;
                    match self.next() {
                        Some(Token::Symbol(')')) => {}
                        other => {
                            return Err(TsdbError::QueryParse(format!(
                                "expected ')', found {other:?}"
                            )))
                        }
                    }
                    projections.push(Projection::Aggregate(func, field));
                } else {
                    projections.push(Projection::Field(name));
                }
            }
            if matches!(self.peek(), Some(Token::Symbol(','))) {
                self.next();
            } else {
                break;
            }
        }
        self.expect_keyword("FROM")?;
        let measurement = self.name()?;

        let mut q = Query {
            projections,
            measurement,
            tag_filters: Vec::new(),
            time_start: None,
            time_end: None,
            group_by_time: None,
        };

        if self.at_keyword("WHERE") {
            self.next();
            loop {
                // Only a bare `time` is the time column; quoted, it is a tag
                // key like any other.
                if self.at_keyword("time") {
                    self.next();
                    let op = match self.next() {
                        Some(Token::Word(w)) => w.to_string(),
                        Some(Token::Symbol(c)) => c.to_string(),
                        other => {
                            return Err(TsdbError::QueryParse(format!(
                                "expected comparison op, found {other:?}"
                            )))
                        }
                    };
                    let n = match self.next() {
                        Some(Token::Number(n)) => n,
                        other => {
                            return Err(TsdbError::QueryParse(format!(
                                "expected number, found {other:?}"
                            )))
                        }
                    };
                    match op.as_str() {
                        ">=" => q.time_start = Some(n),
                        ">" => q.time_start = Some(n + 1),
                        "<" => q.time_end = Some(n),
                        "<=" => q.time_end = Some(n + 1),
                        "=" => {
                            q.time_start = Some(n);
                            q.time_end = Some(n + 1);
                        }
                        _ => {
                            return Err(TsdbError::QueryParse(format!("unsupported time op: {op}")))
                        }
                    }
                } else {
                    let key = self.name()?;
                    match self.next() {
                        Some(Token::Symbol('=')) => {}
                        other => {
                            return Err(TsdbError::QueryParse(format!(
                                "expected '=', found {other:?}"
                            )))
                        }
                    }
                    let value = self.name()?;
                    q.tag_filters.push((key, value));
                }
                if self.at_keyword("AND") {
                    self.next();
                } else {
                    break;
                }
            }
        }

        if self.at_keyword("GROUP") {
            self.next();
            self.expect_keyword("BY")?;
            self.expect_keyword("time")?;
            match (self.next(), self.next(), self.next()) {
                (Some(Token::Symbol('(')), Some(Token::Number(n)), Some(Token::Symbol(')'))) => {
                    if n <= 0 {
                        return Err(TsdbError::QueryParse("non-positive interval".into()));
                    }
                    q.group_by_time = Some(n);
                }
                other => {
                    return Err(TsdbError::QueryParse(format!(
                        "expected time(interval), found {other:?}"
                    )))
                }
            }
        }

        if self.peek().is_some() {
            return Err(TsdbError::QueryParse(format!(
                "trailing tokens at {}",
                self.pos
            )));
        }
        Ok(q)
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// Execute a parsed query against storage: the sequential reference
/// every other executor is pinned to. Deliberately naive — gather every
/// matching row, stable-sort by timestamp (ties keep the gather's
/// ascending series id), fold — so that its order of arithmetic is
/// evident from the code.
pub fn execute(storage: &Storage, q: &Query) -> Result<QueryResult, TsdbError> {
    let (plan, m) = resolve(storage, q)?;

    let matched = plan.ids.iter().map(|&id| {
        let s = m.series(id).expect("id from matching_series");
        (s, s.range(plan.start, plan.end))
    });
    let matched: Vec<(&SeriesData, Range<usize>)> = matched.collect();
    let mut merged = Vec::with_capacity(matched.iter().map(|(_, rows)| rows.len()).sum());
    for (s, rows) in matched {
        for row in rows {
            merged.push((s.timestamps()[row], s, row));
        }
    }
    merged.sort_by_key(|(ts, ..)| *ts);

    let value = |s: &SeriesData, row: usize, field: Option<FieldId>| {
        s.column(field?).and_then(|c| c.get(row))
    };

    let mut rows = Vec::new();
    if plan.aggregated {
        // Bucketed or whole-range aggregation.
        let mut groups: BTreeMap<i64, Vec<Accumulator>> = BTreeMap::new();
        for &(ts, s, row) in &merged {
            let key = match plan.bucket {
                Some(b) => ts.div_euclid(b) * b,
                None => 0,
            };
            let accs = groups.entry(key).or_insert_with(|| {
                plan.projections
                    .iter()
                    .map(|p| match p {
                        Projection::Aggregate(f, _) => Accumulator::new(*f),
                        _ => Accumulator::new(AggregateFn::Last),
                    })
                    .collect()
            });
            for (acc, &field) in accs.iter_mut().zip(&plan.fields) {
                if let Some(v) = value(s, row, field) {
                    acc.push(v);
                }
            }
        }
        for (ts, accs) in groups {
            let values = accs.iter().map(Accumulator::finish);
            rows.push(ResultRow::from_values(ts, &plan.columns, values));
        }
    } else {
        for (ts, s, row) in merged {
            let values = plan.fields.iter().map(|&field| value(s, row, field));
            rows.push(ResultRow::from_values(ts, &plan.columns, values));
        }
    }

    Ok(QueryResult {
        columns: plan.columns,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn filled() -> Storage {
        let mut s = Storage::new();
        for t in 0..10 {
            s.insert(
                Point::new("m")
                    .tag("tag", "obs1")
                    .field("_cpu0", t as f64)
                    .field("_cpu1", (t * 2) as f64)
                    .timestamp(t),
            );
        }
        s.insert(
            Point::new("m")
                .tag("tag", "obs2")
                .field("_cpu0", 100.0)
                .timestamp(5),
        );
        s
    }

    #[test]
    fn parse_listing3_style() {
        let q = Query::parse(
            "SELECT \"_cpu0\", \"_cpu1\" FROM \"kernel_percpu_cpu_idle\" WHERE tag='278e26c2-3fd3'",
        )
        .unwrap();
        assert_eq!(q.projections.len(), 2);
        assert_eq!(q.measurement, "kernel_percpu_cpu_idle");
        assert_eq!(q.tag_filters[0], ("tag".into(), "278e26c2-3fd3".into()));
    }

    #[test]
    fn select_with_tag_filter() {
        let s = filled();
        let q = Query::parse("SELECT \"_cpu0\" FROM \"m\" WHERE tag='obs1'").unwrap();
        let r = execute(&s, &q).unwrap();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(Frame::from_rows(r).column_series("_cpu0").len(), 10);
    }

    #[test]
    fn time_range_filters() {
        let s = filled();
        let q =
            Query::parse("SELECT \"_cpu0\" FROM \"m\" WHERE tag='obs1' AND time >= 2 AND time < 5")
                .unwrap();
        let r = execute(&s, &q).unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0].timestamp, 2);
    }

    #[test]
    fn aggregation_whole_range() {
        let s = filled();
        let q = Query::parse("SELECT mean(\"_cpu0\") FROM \"m\" WHERE tag='obs1'").unwrap();
        let r = execute(&s, &q).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].values["mean(_cpu0)"], Some(4.5));
    }

    #[test]
    fn group_by_time_buckets() {
        let s = filled();
        let q = Query::parse("SELECT sum(\"_cpu0\") FROM \"m\" WHERE tag='obs1' GROUP BY time(5)")
            .unwrap();
        let r = execute(&s, &q).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].timestamp, 0);
        assert_eq!(
            r.rows[0].values["sum(_cpu0)"],
            Some(0.0 + 1.0 + 2.0 + 3.0 + 4.0)
        );
        assert_eq!(
            r.rows[1].values["sum(_cpu0)"],
            Some(5.0 + 6.0 + 7.0 + 8.0 + 9.0)
        );
    }

    #[test]
    fn wildcard_expands_fields() {
        let s = filled();
        let q = Query::parse("SELECT * FROM \"m\" WHERE tag='obs1'").unwrap();
        let r = execute(&s, &q).unwrap();
        assert_eq!(r.columns, vec!["_cpu0".to_string(), "_cpu1".to_string()]);
    }

    #[test]
    fn missing_field_yields_null() {
        let s = filled();
        let q = Query::parse("SELECT \"_cpu1\" FROM \"m\" WHERE tag='obs2'").unwrap();
        let r = execute(&s, &q).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].values["_cpu1"], None);
        assert!(Frame::from_rows(r).column_series("_cpu1").is_empty());
    }

    #[test]
    fn unknown_measurement_errors() {
        let s = filled();
        let q = Query::parse("SELECT \"f\" FROM \"nosuch\"").unwrap();
        assert!(matches!(
            execute(&s, &q),
            Err(TsdbError::UnknownMeasurement(_))
        ));
    }

    #[test]
    fn parse_errors() {
        assert!(Query::parse("").is_err());
        assert!(Query::parse("SELECT FROM m").is_err());
        assert!(Query::parse("SELECT \"a\" FROM \"m\" WHERE time ~ 3").is_err());
        assert!(Query::parse("SELECT bogus(\"a\") FROM \"m\"").is_err());
        assert!(Query::parse("SELECT \"a\" FROM \"m\" GROUP BY time(0)").is_err());
        assert!(Query::parse("SELECT \"a\" FROM \"m\" trailing").is_err());
        // Tokenizer errors surface as themselves, not as a missing SELECT.
        let message = |text: &str| match Query::parse(text) {
            Err(TsdbError::QueryParse(m)) => m,
            other => panic!("{text}: expected a parse error, got {other:?}"),
        };
        assert_eq!(message("SELECT \"a FROM m"), "unclosed quote at 7");
        assert_eq!(
            message("SELECT \"a\" FROM \"m\" WHERE time >= 99999999999999999999"),
            "bad number at 34"
        );
    }

    #[test]
    fn negative_timestamps_bucket_correctly() {
        let mut s = Storage::new();
        s.insert(Point::new("m").field("v", 1.0).timestamp(-7));
        let q = Query::parse("SELECT sum(\"v\") FROM \"m\" GROUP BY time(5)").unwrap();
        let r = execute(&s, &q).unwrap();
        assert_eq!(r.rows[0].timestamp, -10); // floor division
    }

    #[test]
    fn normalized_is_canonical() {
        let a = Query::parse(
            "SELECT sum(\"v\") FROM \"m\" WHERE b='2' AND a='1' AND time >= 3 AND time < 9 GROUP BY time(5)",
        )
        .unwrap();
        let b = Query::parse(
            "SELECT sum( \"v\" )  FROM m WHERE a='1' AND a='1' AND b='2' AND time<9 AND time>=3 GROUP BY time(5)",
        )
        .unwrap();
        assert_eq!(a.normalized(), b.normalized());
        assert_eq!(
            a.normalized(),
            "SELECT sum(\"v\") FROM \"m\" WHERE \"a\"='1' AND \"b\"='2' AND time >= 3 AND time < 9 GROUP BY time(5)"
        );
        // Different filters keep distinct keys.
        let c = Query::parse("SELECT sum(\"v\") FROM \"m\" WHERE a='2'").unwrap();
        assert_ne!(a.normalized(), c.normalized());
    }

    #[test]
    fn normalized_escapes_what_would_break_out_of_quotes() {
        let field = |f: &str| Projection::Field(f.to_string());
        let q = |projections| Query {
            projections,
            ..Query::parse("SELECT * FROM \"m\"").unwrap()
        };
        // One field spelled like two fields' worth of key text.
        let (one, two) = (q(vec![field("a\", \"b")]), q(vec![field("a"), field("b")]));
        assert_eq!(two.normalized(), "SELECT \"a\", \"b\" FROM \"m\"");
        assert_eq!(one.normalized(), "SELECT \"a\\\", \\\"b\" FROM \"m\"");
        assert_eq!(Query::parse(&one.normalized()).unwrap(), one);
        // Quoted, `time` is a tag key; bare, the time column.
        let tagged = Query {
            tag_filters: vec![("time".into(), "it's".into())],
            ..two.clone()
        };
        assert_eq!(
            tagged.normalized(),
            "SELECT \"a\", \"b\" FROM \"m\" WHERE \"time\"='it\\'s'"
        );
        assert_eq!(Query::parse(&tagged.normalized()).unwrap(), tagged);
    }

    #[test]
    fn frame_converts_to_rows_consumed_or_shared() {
        let frame = Frame {
            columns: vec!["v".into(), "w".into(), "v".into()],
            ts: vec![1, 2],
            cols: vec![
                vec![Some(1.0), None],
                vec![None, None],
                vec![Some(1.0), None],
            ],
        };
        assert!(frame.column_series("w").is_empty() && frame.column_series("x").is_empty());
        assert_eq!(frame.column_series("v"), vec![(1, 1.0)]);
        assert_eq!(frame.total(), 2.0);
        let shared = Arc::new(frame.clone());
        let copied = shared.clone().into_rows();
        assert_eq!(copied, shared.clone().into_rows());
        assert_eq!(copied, Arc::new(frame.clone()).into_rows());
        assert_eq!(copied.columns, frame.columns);
        assert_eq!(copied.rows[1].timestamp, 2);
        // A row is a map: the duplicate column is one entry.
        assert_eq!(copied.rows[0].values.len(), 2);
        assert_eq!(copied.rows[0].values["v"], Some(1.0));
        assert_eq!(Frame::from_rows(copied), frame);
        let empty = Arc::new(Frame::new(vec!["v".into()]));
        assert!(empty.is_empty() && empty.into_rows().rows.is_empty());
    }

    #[test]
    fn plan_expands_wildcard_and_prunes_series() {
        let s = filled(); // obs1 spans ts 0..9, obs2 only ts 5
        let q = Query::parse("SELECT * FROM \"m\" WHERE time >= 7 AND time < 20").unwrap();
        let (plan, m) = plan(&s, &q).unwrap();
        assert_eq!(plan.columns, vec!["_cpu0".to_string(), "_cpu1".to_string()]);
        assert_eq!(plan.start, 7);
        assert_eq!(plan.end, 20);
        // obs2's only row (ts 5) is outside [7, 20): pruned.
        assert_eq!(plan.ids.len(), 1);
        assert_eq!(plan.series_pruned, 1);
        assert!(m.series(plan.ids[0]).is_some());
        assert!(!plan.aggregated);

        let q = Query::parse("SELECT \"_cpu0\" FROM \"m\"").unwrap();
        let (plan, _) = plan_unbounded(&s, &q);
        assert_eq!(plan.ids.len(), 2);
        assert_eq!(plan.series_pruned, 0);
    }

    fn plan_unbounded<'a>(s: &'a Storage, q: &Query) -> (QueryPlan, &'a Measurement) {
        plan(s, q).unwrap()
    }

    #[test]
    fn plan_unknown_measurement_errors() {
        let s = filled();
        let q = Query::parse("SELECT \"f\" FROM \"nosuch\"").unwrap();
        assert!(matches!(
            plan(&s, &q),
            Err(TsdbError::UnknownMeasurement(_))
        ));
    }
}
