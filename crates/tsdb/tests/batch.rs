//! Differential harness: the columnar batched write path vs row-at-a-time
//! ingest.
//!
//! Random point streams — multi-field points, duplicate timestamps (last
//! write wins), NaN/±0.0/±inf payloads, `Int`/`Bool`/`Str` fields and cells
//! rewritten with another type, interleaved measurements, and an
//! ingest limiter tight enough to reject some of the stream — are pushed
//! through `Database::write_batch` under random batch chunkings and through
//! per-point `Database::write_point` calls. The two databases must then be
//! observationally identical **bit for bit**:
//!
//! * every stored cell (`for_each_cell` walk, `f64::to_bits` rendering);
//! * query results across modes (the Fig. 9 surface);
//! * the `IngestStats` ledger the Table III reproduction reads
//!   (`points_offered`/`inserted`/`values`/`zeros`/`rejected`);
//! * per-point accept/reject outcomes in arrival order;
//! * the subscription stream dashboards consume.
//!
//! `PMOVE_BATCH_CASES` overrides the case count (default 192).

use pmove_tsdb::subscribe::{drain, Subscription};
use pmove_tsdb::{
    BatchOutcome, Database, ExecMode, FieldValue, IngestLimiter, Point, Query, QueryResult,
    TsdbError,
};
use proptest::prelude::*;

const MEASUREMENTS: [&str; 2] = ["m", "n"];
const FIELDS: [&str; 3] = ["value", "aux", "gap"];

fn batch_cases() -> u32 {
    std::env::var("PMOVE_BATCH_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(192)
}

/// Decode a value code, covering the awkward surface: codes below 1000
/// are floats, the rest the other field types.
fn value_of(code: u32) -> FieldValue {
    FieldValue::Float(match code {
        0..=899 => (code as f64 - 450.0) * 1.372_251,
        900..=924 => 0.0,
        925..=949 => -0.0,
        950..=964 => f64::INFINITY,
        965..=979 => f64::NEG_INFINITY,
        980..=999 => f64::NAN,
        // Not floats: stored exactly, read by queries through `as_f64`.
        // Rewriting a cell with another code changes its type in place.
        1000..=1079 => return FieldValue::Int(i64::from(code) - 1040),
        1080..=1119 => return FieldValue::Bool(code.is_multiple_of(2)),
        1120..=1159 => return FieldValue::Str(format!("{}.5", i64::from(code) - 1140)),
        _ => return FieldValue::Str("n/a".into()),
    })
}

/// ((measurement, host, ts, field), (value code, extra-field code — 1000
/// for single-field, shape code — 0 of 0..20 marks an empty-fields point))
type PointCode = ((usize, usize, i64, usize), (u32, u32, u32));

fn point_of(&((m, h, ts, f), (code, extra, shape)): &PointCode) -> Point {
    let mut p = Point::new(MEASUREMENTS[m % MEASUREMENTS.len()])
        .tag("host", format!("h{h}"))
        .timestamp(ts);
    if shape == 0 {
        return p; // exercises the EmptyFields reject path
    }
    p = p.field(FIELDS[f % FIELDS.len()], value_of(code));
    if extra < 1000 {
        p = p.field(FIELDS[(f + 1) % FIELDS.len()], value_of(extra));
    }
    p
}

/// Canonical, bit-exact rendering of a query outcome.
fn outcome(r: Result<QueryResult, TsdbError>) -> String {
    use std::fmt::Write as _;
    match r {
        Err(e) => format!("error: {e:?}"),
        Ok(res) => {
            let mut s = format!("columns={:?}\n", res.columns);
            for row in &res.rows {
                let _ = write!(s, "{}:", row.timestamp);
                for (k, v) in &row.values {
                    match v {
                        Some(x) => {
                            let _ = write!(s, " {k}={:016x}", x.to_bits());
                        }
                        None => {
                            let _ = write!(s, " {k}=null");
                        }
                    }
                }
                s.push('\n');
            }
            s
        }
    }
}

/// Bit-exact rendering of every stored cell, in the deterministic
/// Merkle-walk order.
fn cells(db: &Database) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    db.for_each_cell(&mut |key, ts, field, value| {
        let v = match value {
            FieldValue::Float(x) => format!("{:016x}", x.to_bits()),
            other => format!("{other:?}"),
        };
        let _ = writeln!(s, "{} {ts} {field}={v}", key.canonical());
    });
    s
}

fn rendered_points(points: &[Point]) -> String {
    points
        .iter()
        .map(|p| format!("{p:?}"))
        .collect::<Vec<_>>()
        .join("\n")
}

const QUERIES: [&str; 6] = [
    "SELECT * FROM \"m\"",
    "SELECT * FROM \"n\" WHERE host='h1'",
    "SELECT min(\"value\"), max(\"value\"), count(\"value\") FROM \"m\" GROUP BY time(7)",
    "SELECT sum(\"aux\"), last(\"aux\") FROM \"m\" WHERE time >= 3 AND time < 90 GROUP BY time(5)",
    "SELECT first(\"value\"), count(\"gap\") FROM \"n\" GROUP BY time(13)",
    "SELECT mean(\"value\") FROM \"m\" WHERE host='h0' GROUP BY time(11)",
];

fn check_case(stream: &[PointCode], chunks: &[u8], limited: bool) {
    let row_db = Database::new("row");
    let batch_db = Database::new("batch");
    if limited {
        // Tight enough that real streams overflow some windows; keyed on
        // point timestamps, so queue-delay cannot change admission.
        row_db.set_ingest_limiter(IngestLimiter::per_window(16, 6));
        batch_db.set_ingest_limiter(IngestLimiter::per_window(16, 6));
    }
    let row_rx = row_db.subscribe(Subscription::all());
    let batch_rx = batch_db.subscribe(Subscription::all());

    // Row-at-a-time reference: per-point accept/reject outcomes.
    let mut row_results: Vec<bool> = Vec::new();
    for code in stream {
        row_results.push(row_db.write_point(point_of(code)).is_ok());
    }

    // Batched subject: the same stream, random chunk boundaries.
    let mut batch_results: Vec<bool> = Vec::new();
    let mut it = stream.iter();
    let mut chunk_sizes = chunks.iter().cycle();
    loop {
        let take = (*chunk_sizes.next().unwrap() as usize % 7) + 1;
        let chunk: Vec<Point> = it.by_ref().take(take).map(point_of).collect();
        if chunk.is_empty() {
            break;
        }
        let BatchOutcome { results, .. } = batch_db.write_batch(chunk).unwrap();
        batch_results.extend(results.iter().map(Result::is_ok));
    }

    assert_eq!(
        batch_results, row_results,
        "per-point accept/reject outcomes diverged"
    );
    assert_eq!(
        batch_db.stats(),
        row_db.stats(),
        "IngestStats ledger diverged (Table III surface)"
    );
    assert_eq!(cells(&batch_db), cells(&row_db), "stored cells diverged");
    assert_eq!(
        rendered_points(&drain(&batch_rx)),
        rendered_points(&drain(&row_rx)),
        "subscription stream diverged"
    );

    for text in QUERIES {
        let q = Query::parse(text).unwrap();
        for mode in [ExecMode::Sequential, ExecMode::Parallel(4)] {
            assert_eq!(
                outcome(batch_db.query_with_mode(&q, mode)),
                outcome(row_db.query_with_mode(&q, mode)),
                "query diverged in {mode:?}: {text}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(batch_cases()))]

    #[test]
    fn batch_ingest_is_bit_identical_to_row_at_a_time(
        stream in prop::collection::vec(
            ((0usize..2, 0usize..4, 0i64..160, 0usize..3),
             (0u32..1200, 0u32..2000, 0u32..20)),
            1..160,
        ),
        chunks in prop::collection::vec(0u8..255, 1..12),
        limited in any::<bool>(),
    ) {
        check_case(&stream, &chunks, limited);
    }
}

/// Deterministic pin: duplicate timestamps inside one batch merge
/// last-write-wins exactly as sequential writes do, including across
/// series and fields.
#[test]
fn duplicate_timestamps_in_one_batch_are_lww() {
    let stream: Vec<PointCode> = vec![
        ((0, 0, 10, 0), (100, 1000, 1)),
        ((0, 0, 10, 0), (200, 1000, 1)), // same cell, later in arrival
        ((0, 0, 10, 1), (300, 1000, 1)), // same ts, different field: merge
        ((0, 1, 10, 0), (999, 1000, 1)), // NaN in a different series
        ((0, 0, 10, 0), (925, 1000, 1)), // final winner: -0.0
    ];
    check_case(&stream, &[4], false);
}

/// Deterministic pin: a batch overflowing a limiter window rejects
/// exactly the points the row-at-a-time path rejects, and the retry of
/// the rejected tail in a later window is accepted by both.
#[test]
fn limiter_rejections_match_row_path() {
    let mut stream: Vec<PointCode> = (0..12)
        .map(|i| ((0, 0, i % 4, 0), (100 + i as u32, 1000, 1)))
        .collect();
    // Later window: retries land cleanly.
    stream.extend((0..4).map(|i| ((0, 0, 100 + i, 0), (700 + i as u32, 1000, 1))));
    check_case(&stream, &[6, 2, 9], true);
}

/// An empty batch is a no-op with a well-formed outcome.
#[test]
fn empty_batch_is_a_no_op() {
    let db = Database::new("empty");
    let out = db.write_batch(Vec::new()).unwrap();
    assert!(out.all_accepted());
    assert_eq!(out.accepted, 0);
    assert_eq!(out.series, 0);
    assert_eq!(db.stats().points_offered, 0);
}
