//! Differential harness: aggregate queries served from rollup tiers vs
//! the raw-scan oracle.
//!
//! Random point streams (NaN payloads, signed zeros, infinities,
//! `Int`/`Bool`/`Str` fields and cells rewritten with another type,
//! duplicate timestamps) are interleaved with rollup ticks at
//! random positions, and aggregate queries (`sum`/`count`/`min`/`max`/
//! `first`/`last`, tier-aligned and unaligned windows, single- and
//! multi-series filters) run at 1, 2, and 8 threads against a
//! rollup-enabled database. Every result must be **bit-identical**
//! (`f64::to_bits`) to a plain database running the sequential reference
//! oracle — whether the touched buckets were materialized, still dirty
//! (raw fallback), or half-and-half. After a final tick the widened
//! conservation audit must balance: every raw row accounted in every tier.
//!
//! `PMOVE_ROLLUP_CASES` overrides the case count (default 128).

use pmove_obs::Registry;
use pmove_tsdb::{
    Database, ExecMode, FieldValue, Point, Query, QueryResult, RollupConfig, TsdbError,
};
use proptest::prelude::*;

const FIELDS: [&str; 2] = ["value", "aux"];
/// Tier intervals in raw timestamp units: queries bucketed by a multiple
/// of 5 or 20 can route; others fall back to raw scans.
const TIERS: [i64; 2] = [5, 20];

fn rollup_cases() -> u32 {
    std::env::var("PMOVE_ROLLUP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128)
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

/// ((host, ts, field), (value code, tick-before flag of 0..8))
type PointCode = ((usize, i64, usize), (u32, u32));

fn point_of(&((h, ts, f), (code, _)): &PointCode) -> Point {
    Point::new("m")
        .tag("host", format!("h{h}"))
        .field(FIELDS[f % FIELDS.len()], value_of(code))
        .timestamp(ts)
}

/// (aggregate code, field, host selector, bucket code)
type QueryCode = (u8, u8, u8, u8);

fn query_of(&(agg, field, host, bucket): &QueryCode) -> Query {
    let f = FIELDS[field as usize % FIELDS.len()];
    let agg = match agg % 6 {
        0 => "sum",
        1 => "count",
        2 => "min",
        3 => "max",
        4 => "first",
        _ => "last",
    };
    // Buckets: tier-aligned (5, 20, 40, 100) and unaligned (7, 13).
    let b = [5i64, 20, 40, 100, 7, 13][bucket as usize % 6];
    let filter = match host {
        0..=3 => format!(" WHERE host='h{host}'"),
        _ => String::new(),
    };
    Query::parse(&format!(
        "SELECT {agg}(\"{f}\") FROM \"m\"{filter} GROUP BY time({b})"
    ))
    .unwrap()
}

/// `q` with its aggregate projected twice around a raw field and a column
/// NULL in every bucket (nothing writes `never`): routed exactly when `q`
/// is, and a shape only a positional frame can get wrong.
fn widened(q: &Query) -> Query {
    let agg = q.projections[0].clone();
    let extra = Query::parse("SELECT \"aux\", min(\"never\") FROM \"m\"").unwrap();
    let [raw, never] = extra.projections.try_into().unwrap();
    Query {
        projections: vec![agg.clone(), raw, agg, never],
        ..q.clone()
    }
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

/// [`outcome`] of the frame the query answers with, converted to rows
/// while shared (copied) and again once unshared (consumed), each column
/// also read positionally against the rows.
fn frame_outcome(s: &Database, q: &Query) -> String {
    let frame = match s.query_frame(q) {
        Ok(frame) => frame,
        Err(e) => return outcome(Err(e)),
    };
    let copied = frame.clone().into_rows();
    assert_eq!(copied.columns, frame.columns);
    for (name, col) in frame.columns.iter().zip(&frame.cols) {
        assert_eq!(col.len(), frame.len(), "column {name}");
        for ((row, ts), v) in copied.rows.iter().zip(&frame.ts).zip(col) {
            assert_eq!(row.timestamp, *ts);
            assert_eq!(row.values[name].map(f64::to_bits), v.map(f64::to_bits));
        }
    }
    let copied = outcome(Ok(copied));
    assert_eq!(outcome(Ok(frame.into_rows())), copied, "second conversion");
    copied
}

fn check_case(stream: &[PointCode], queries: &[QueryCode]) {
    let oracle = Database::new("oracle");
    oracle.set_exec_mode(ExecMode::Sequential);
    oracle.set_query_cache_capacity(0);

    let subjects: Vec<Database> = [1usize, 2, 8]
        .iter()
        .map(|&t| {
            let d = Database::new("rollup");
            d.set_exec_mode(ExecMode::Parallel(t));
            d.set_query_cache_capacity(0);
            d.enable_rollups(RollupConfig {
                tiers: TIERS.to_vec(),
            });
            d
        })
        .collect();
    let queries: Vec<Query> = queries.iter().map(query_of).collect();
    let queries: Vec<Query> = queries
        .iter()
        .flat_map(|q| [q.clone(), widened(q)])
        .collect();

    let compare = |stage: &str| {
        for q in &queries {
            let want = outcome(oracle.query_parsed(q));
            for s in &subjects {
                assert_eq!(
                    outcome(s.query_parsed(q)),
                    want,
                    "{stage}: mode {:?} query {}",
                    s.exec_mode(),
                    q.normalized()
                );
                assert_eq!(
                    frame_outcome(s, q),
                    want,
                    "{stage}: frame, mode {:?} query {}",
                    s.exec_mode(),
                    q.normalized()
                );
            }
        }
    };

    // Interleave writes with ticks at random positions; the tiers are
    // dirty, fresh, or mixed at every comparison point.
    for (i, code) in stream.iter().enumerate() {
        let ((_, _, _), (_, tick)) = code;
        if *tick == 0 {
            for s in &subjects {
                s.rollup_tick().unwrap();
            }
        }
        oracle.write_point(point_of(code)).unwrap();
        for s in &subjects {
            s.write_point(point_of(code)).unwrap();
        }
        if i == stream.len() / 2 {
            compare("mid-stream");
        }
    }
    compare("pre-tick");
    for s in &subjects {
        s.rollup_tick().unwrap();
    }
    compare("post-tick");

    // Conservation through the rollup path: with every dirty bucket
    // drained, each tier accounts for every raw row exactly.
    for s in &subjects {
        let audit = s.rollup_audit().unwrap();
        assert!(
            audit.conserved(),
            "rollup conservation violated: {audit:?} (mode {:?})",
            s.exec_mode()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(rollup_cases()))]

    #[test]
    fn tier_served_aggregates_are_bit_identical_to_raw_oracle(
        stream in prop::collection::vec(
            ((0usize..4, 0i64..200, 0usize..2), (0u32..1200, 0u32..8)),
            1..100,
        ),
        queries in prop::collection::vec((0u8..6, 0u8..2, 0u8..6, 0u8..6), 1..6),
    ) {
        check_case(&stream, &queries);
    }
}

/// Deterministic pin: NaN payloads, signed zeros, and infinities served
/// from materialized tier cells are bit-identical to the raw oracle for
/// every tier-servable aggregate, and the planner provably routed — the
/// `tsdb.rollup.queries_routed` counter moves.
#[test]
fn nan_and_signed_zero_cells_route_and_match() {
    let stream: Vec<PointCode> = vec![
        ((0, 0, 0), (999, 1)),  // NaN
        ((0, 1, 0), (999, 1)),  // NaN (all-NaN bucket)
        ((1, 2, 0), (925, 1)),  // -0.0
        ((1, 3, 0), (910, 1)),  // 0.0 (same series: max(-0.0, 0.0) ties)
        ((2, 21, 0), (950, 1)), // +inf
        ((2, 22, 0), (970, 1)), // -inf
        ((3, 41, 1), (100, 1)), // finite, other field
    ];
    let queries: Vec<QueryCode> = vec![
        (1, 0, 4, 1), // count over time(20), all hosts
        (2, 0, 4, 0), // min over time(5)
        (3, 0, 4, 1), // max over time(20)
        (4, 0, 4, 1), // first over time(20)
        (5, 0, 4, 3), // last over time(100)
        (0, 0, 0, 0), // sum, single series, b == tier exactly
        (0, 0, 4, 2), // sum, multi-series: must fall back, still identical
    ];
    check_case(&stream, &queries);

    // Routing proof: the same setup on an obs-instrumented database
    // bumps the routed-queries counter once ticked.
    let reg = Registry::shared();
    let db = Database::with_obs("routed", reg.clone());
    db.set_exec_mode(ExecMode::Parallel(4));
    db.set_query_cache_capacity(0);
    db.enable_rollups(RollupConfig {
        tiers: TIERS.to_vec(),
    });
    for code in &stream {
        db.write_point(point_of(code)).unwrap();
    }
    db.rollup_tick().unwrap();
    let q = Query::parse("SELECT count(\"value\") FROM \"m\" GROUP BY time(20)").unwrap();
    db.query_parsed(&q).unwrap();
    let snap = reg.snapshot();
    assert_eq!(snap.counter("tsdb.rollup.queries_routed", &[]), Some(1));
    assert!(snap.counter("tsdb.rollup.buckets_tier", &[]).unwrap() > 0);
    assert_eq!(snap.counter("tsdb.rollup.buckets_raw", &[]), Some(0));
}

/// Sequential mode never routes to tiers: it IS the oracle.
#[test]
fn sequential_mode_never_routes() {
    let reg = Registry::shared();
    let db = Database::with_obs("seq", reg.clone());
    db.set_exec_mode(ExecMode::Sequential);
    db.set_query_cache_capacity(0);
    db.enable_rollups(RollupConfig {
        tiers: TIERS.to_vec(),
    });
    for ts in 0..40 {
        db.write_point(
            Point::new("m")
                .tag("host", "h0")
                .field("value", FieldValue::Float(ts as f64))
                .timestamp(ts),
        )
        .unwrap();
    }
    db.rollup_tick().unwrap();
    let q = Query::parse("SELECT count(\"value\") FROM \"m\" GROUP BY time(20)").unwrap();
    db.query_parsed(&q).unwrap();
    assert_eq!(
        reg.snapshot().counter("tsdb.rollup.queries_routed", &[]),
        Some(0)
    );
}
