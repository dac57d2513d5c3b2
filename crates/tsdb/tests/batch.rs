//! Differential harness: the engine's one write body vs a model of the
//! row path it replaced.
//!
//! The model is what the single-point writes used to be, kept here as
//! test-only code: one point at a time, a hand-kept ledger for client
//! points, `Storage::insert` for every admitted one. Random point streams
//! — multi-field points, duplicate timestamps (last write wins),
//! NaN/±0.0/±inf payloads, `Int`/`Bool`/`Str` fields and cells rewritten
//! with another type, interleaved measurements, empty-field points (the
//! ones admission refuses), and replicated (`Origin::Remote`) points
//! between client ones — go through the model and through five databases:
//!
//! * `chunked`: in memory, client runs cut into `write_batch` calls of 1–7
//!   points at random, remote points one `Database::write` each;
//! * `observed`: `chunked` again, built `with_obs` — metrics must be
//!   invisible, and its `tsdb.batch.*` counters must match the batches;
//! * `single`: durable, every point one `Database::write` call;
//! * `ones`: durable, every client point one `write_batch` of one;
//! * `bare`: `ones` again, opened with no registry.
//!
//! Each database must match the model **bit for bit** on
//!
//! * every stored cell (`for_each_cell` walk, `f64::to_bits` rendering);
//! * query results across modes (the Fig. 9 surface);
//! * the `tsdb.points_*` ledger (`offered`/`inserted`/`values`/`zeros`/
//!   `rejected`) on every observed database, which remote points leave
//!   untouched;
//! * per-point accept/reject outcomes in arrival order;
//! * the write version of each measurement: one bump per call per
//!   measurement the call stored a point of.
//!
//! After every call the accounting identities hold: a batch's `accepted +
//! rejected` is its point count, and an observed database's ledger has
//! `points_offered == points_inserted + points_rejected`.
//!
//! `single` and `ones` must also agree on the WAL: byte for byte, commit
//! for commit, and in the modeled commit time each point is charged;
//! `bare` must write the same WAL bytes and charge the same commit times.
//!
//! `PMOVE_BATCH_CASES` overrides the case count (default 192).

use pmove_obs::{Registry, Span};
use pmove_tsdb::storage::Storage;
use pmove_tsdb::store::{MemDisk, StoreOptions};
use pmove_tsdb::{
    exec, Database, ExecMode, FieldValue, Origin, Point, Query, QueryResult, TsdbError,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
/// for single-field, shape code of 0..20 — 0 and 19 mark an empty-fields
/// point, 16 and up a replicated one))
type PointCode = ((usize, usize, i64, usize), (u32, u32, u32));

fn origin_of(&(_, (_, _, shape)): &PointCode) -> Origin {
    match shape {
        16.. => Origin::Remote,
        _ => Origin::Client,
    }
}

fn point_of(&((m, h, ts, f), (code, extra, shape)): &PointCode) -> Point {
    let mut p = Point::new(MEASUREMENTS[m % MEASUREMENTS.len()])
        .tag("host", format!("h{h}"))
        .timestamp(ts);
    if shape == 0 || shape == 19 {
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
/// Merkle-walk order: `walk` is `Database::for_each_cell` or the model's
/// `Storage::for_each_cell`.
fn cells(
    walk: impl FnOnce(&mut dyn FnMut(&pmove_tsdb::SeriesKey, i64, &str, &FieldValue)),
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    walk(&mut |key, ts, field, value| {
        let v = match value {
            FieldValue::Float(x) => format!("{:016x}", x.to_bits()),
            other => format!("{other:?}"),
        };
        let _ = writeln!(s, "{} {ts} {field}={v}", key.canonical());
    });
    s
}

const QUERIES: [&str; 6] = [
    "SELECT * FROM \"m\"",
    "SELECT * FROM \"n\" WHERE host='h1'",
    "SELECT min(\"value\"), max(\"value\"), count(\"value\") FROM \"m\" GROUP BY time(7)",
    "SELECT sum(\"aux\"), last(\"aux\") FROM \"m\" WHERE time >= 3 AND time < 90 GROUP BY time(5)",
    "SELECT first(\"value\"), count(\"gap\") FROM \"n\" GROUP BY time(13)",
    "SELECT mean(\"value\") FROM \"m\" WHERE host='h0' GROUP BY time(11)",
];

/// Modeled in-memory cost the engine charges a point of `n` values.
fn modeled_ns(n: u64) -> u64 {
    4_000 + 450 * n
}

/// The client ledger the `tsdb.points_*` counters keep.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Ledger {
    offered: u64,
    inserted: u64,
    values: u64,
    zeros: u64,
    rejected: u64,
}

impl Ledger {
    fn of(reg: &Registry) -> Ledger {
        let snap = reg.snapshot();
        let counted = |name: &str| snap.counter(name, &[]).unwrap();
        Ledger {
            offered: counted("tsdb.points_offered"),
            inserted: counted("tsdb.points_inserted"),
            values: counted("tsdb.values_inserted"),
            zeros: counted("tsdb.zero_values_inserted"),
            rejected: counted("tsdb.points_rejected"),
        }
    }
}

/// A "batched zero" for the ledger: any value that reads as numerically
/// zero (`-0.0` and `false` included).
fn is_zero(v: &FieldValue) -> bool {
    v.as_f64() == Some(0.0)
}

/// The row path: one point at a time.
#[derive(Default)]
struct RowModel {
    storage: Storage,
    ledger: Ledger,
}

impl RowModel {
    fn write(&mut self, p: Point, origin: Origin) -> bool {
        let client = origin == Origin::Client;
        if client {
            self.ledger.offered += 1;
        }
        if p.fields.is_empty() {
            if client {
                self.ledger.rejected += 1;
            }
            return false;
        }
        if client {
            self.ledger.inserted += 1;
            self.ledger.values += p.field_count() as u64;
            self.ledger.zeros += p.fields.values().filter(|v| is_zero(v)).count() as u64;
        }
        self.storage.insert(p);
        true
    }
}

/// Nothing flushes or compacts: the WAL holds every commit of a case.
const DURABLE_OPTS: StoreOptions = StoreOptions {
    flush_threshold_rows: usize::MAX,
    compact_min_chunks: usize::MAX,
};

/// One database under test with what is expected of it so far.
struct Subject {
    db: Database,
    /// The database's registry; disabled when it was built without one.
    reg: Arc<Registry>,
    results: Vec<bool>,
    versions: BTreeMap<String, u64>,
}

impl Subject {
    fn new(db: Database, reg: Arc<Registry>) -> Subject {
        Subject {
            db,
            reg,
            results: Vec::new(),
            versions: BTreeMap::new(),
        }
    }

    fn durable(name: &str) -> Subject {
        let reg = Registry::shared();
        let disk = Arc::new(MemDisk::new(7));
        let (db, _) = Database::open_with_obs(name, disk, DURABLE_OPTS, reg.clone()).unwrap();
        Subject::new(db, reg)
    }

    /// Note one call's per-point outcomes: a version bump for every
    /// measurement the call stored a point of. The ledger balances after
    /// every call.
    fn note(&mut self, points: &[Point], results: Vec<bool>) {
        if self.reg.is_enabled() {
            let l = Ledger::of(&self.reg);
            assert_eq!(l.offered, l.inserted + l.rejected, "ledger unbalanced");
        }
        let stored = points.iter().zip(&results).filter(|(_, ok)| **ok);
        let touched: BTreeSet<&str> = stored.map(|(p, _)| p.measurement.as_str()).collect();
        for m in touched {
            *self.versions.entry(m.to_string()).or_default() += 1;
        }
        self.results.extend(results);
    }

    fn write_batch(&mut self, points: Vec<Point>) -> u64 {
        let out = self.db.write_batch(points.clone()).unwrap();
        assert_eq!(
            out.accepted,
            out.results.iter().filter(|r| r.is_ok()).count()
        );
        assert_eq!(out.results.len(), points.len());
        assert_eq!(out.accepted + out.rejected, out.results.len(), "outcome");
        self.note(&points, out.results.iter().map(Result::is_ok).collect());
        out.commit_ns
    }

    fn remote(&mut self, point: Point) {
        let (res, _) = self
            .db
            .write(point.clone(), Origin::Remote, &Span::none(), 0);
        self.note(&[point], vec![res.is_ok()]);
    }

    fn matches(&self, model: &RowModel, expected: &[bool], what: &str) {
        assert_eq!(
            self.results, expected,
            "{what}: per-point outcomes diverged"
        );
        if self.reg.is_enabled() {
            assert_eq!(
                Ledger::of(&self.reg),
                model.ledger,
                "{what}: ledger diverged"
            );
        }
        assert_eq!(
            cells(|f| self.db.for_each_cell(f)),
            cells(|f| model.storage.for_each_cell(f)),
            "{what}: stored cells diverged"
        );
        for m in MEASUREMENTS {
            let want = self.versions.get(m).copied().unwrap_or(0);
            assert_eq!(
                self.db.write_version(m),
                want,
                "{what}: write version of {m}"
            );
        }
        for text in QUERIES {
            let q = Query::parse(text).unwrap();
            for mode in [ExecMode::Sequential, ExecMode::Parallel(4)] {
                let want = exec::run(&model.storage, &q, mode).map(|(result, _)| result);
                assert_eq!(
                    outcome(self.db.query_with_mode(&q, mode)),
                    outcome(want),
                    "{what}: query diverged in {mode:?}: {text}"
                );
            }
        }
    }
}

fn check_case(stream: &[PointCode], chunks: &[u8]) {
    let mut model = RowModel::default();
    let expected: Vec<bool> = stream
        .iter()
        .map(|code| model.write(point_of(code), origin_of(code)))
        .collect();

    // Client runs under random chunk boundaries, chunks of one included;
    // a remote point ends the run it interrupts. Once with no registry,
    // once observed.
    let reg = Registry::shared();
    for (what, db, reg) in [
        ("chunked", Database::new("chunked"), Registry::disabled()),
        ("observed", Database::with_obs("chunked", reg.clone()), reg),
    ] {
        let mut chunked = Subject::new(db, reg.clone());
        let mut chunk_sizes = chunks.iter().cycle();
        let mut rest = stream;
        let mut batches = 0u64;
        while let Some(first) = rest.first() {
            if origin_of(first) == Origin::Remote {
                chunked.remote(point_of(first));
                rest = &rest[1..];
                continue;
            }
            let take = (*chunk_sizes.next().unwrap() as usize % 7) + 1;
            let run = rest.iter().take(take);
            let run = run.take_while(|code| origin_of(code) == Origin::Client);
            let chunk: Vec<Point> = run.map(point_of).collect();
            rest = &rest[chunk.len()..];
            chunked.write_batch(chunk);
            batches += 1;
        }
        chunked.matches(&model, &expected, what);
        if what == "observed" {
            let (snap, ledger) = (reg.snapshot(), &model.ledger);
            let counted = |name: &str| snap.counter(name, &[]).unwrap();
            assert_eq!(counted("tsdb.batch.batches"), batches);
            assert_eq!(counted("tsdb.batch.points"), ledger.inserted);
            assert_eq!(counted("tsdb.batch.points_rejected"), ledger.rejected);
            assert_eq!(counted("tsdb.batch.wal_frames"), 0, "in memory");
        }
    }

    // n single writes against n batches of one, on durable databases;
    // the batches of one again on a database opened with no registry.
    let mut single = Subject::durable("wal");
    let mut ones = Subject::durable("wal");
    let bare_disk = Arc::new(MemDisk::new(7));
    let (bare, _) = Database::open("wal", bare_disk, DURABLE_OPTS).unwrap();
    let mut bare = Subject::new(bare, Registry::disabled());
    const START_NS: u64 = 7;
    for code in stream {
        let (point, origin) = (point_of(code), origin_of(code));
        let charged = modeled_ns(point.field_count() as u64);
        let (res, end_ns) = single
            .db
            .write(point.clone(), origin, &Span::none(), START_NS);
        single.note(std::slice::from_ref(&point), vec![res.is_ok()]);
        if origin == Origin::Remote {
            ones.remote(point.clone());
            bare.remote(point);
            continue;
        }
        let commit_ns = ones.write_batch(vec![point.clone()]);
        assert_eq!(bare.write_batch(vec![point]), commit_ns, "bare commit");
        let want = match res {
            Ok(()) => START_NS + commit_ns + charged,
            Err(_) => START_NS,
        };
        assert_eq!(end_ns, want, "modeled end of a single write");
    }
    single.matches(&model, &expected, "single");
    ones.matches(&model, &expected, "ones");
    bare.matches(&model, &expected, "bare");
    let wal = |s: &Subject| s.db.store().unwrap().wal_size().unwrap();
    assert_eq!(wal(&single), wal(&ones), "WAL bytes");
    assert_eq!(wal(&bare), wal(&ones), "WAL bytes with no registry");
    let stored = expected.iter().filter(|ok| **ok).count() as u64;
    for reg in [&single.reg, &ones.reg] {
        let commits = reg.snapshot().counter("wal.commits", &[("db", "wal")]);
        assert_eq!(commits, Some(stored), "one WAL frame a stored point");
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
    ) {
        check_case(&stream, &chunks);
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
    check_case(&stream, &[4]);
}

/// Deterministic pin: points without fields are refused wherever they
/// fall in a batch — first, last, back to back, the whole batch — and
/// counted rejected in the outcome and the ledger exactly as the
/// row-at-a-time path counts them.
#[test]
fn empty_field_rejections_match_row_path() {
    let full = |ts, code| ((0, 0, ts, 0), (code, 1000, 1));
    let empty = |ts| ((0, 1, ts, 0), (0, 1000, 0));
    let stream: Vec<PointCode> = vec![
        empty(0),
        full(1, 100),
        empty(2),
        empty(3),
        full(4, 101),
        empty(5),
        empty(6),
        empty(7),
        full(8, 102),
    ];
    check_case(&stream, &[3, 2, 0, 2]);
}

/// Deterministic pin: a replicated point between client points is
/// stored and version-bumped, and the ledger never sees it;
/// a replicated point without fields is refused and counted nowhere.
#[test]
fn remote_points_skip_the_ledger_between_client_points() {
    let client = |ts, code| ((0, 0, ts, 0), (code, 100, 1));
    let remote = |ts, code| ((1, 2, ts, 0), (code, 1000, 16));
    let stream: Vec<PointCode> = vec![
        client(1, 100),
        client(2, 101),
        remote(4, 103),
        ((0, 0, 5, 0), (0, 1000, 0)),  // client, no fields: rejected
        ((1, 2, 6, 0), (0, 1000, 19)), // remote, no fields: refused, offered nowhere
        client(17, 105),
    ];
    check_case(&stream, &[3, 1, 5]);
}

/// An empty batch is a no-op with a well-formed outcome.
#[test]
fn empty_batch_is_a_no_op() {
    let reg = Registry::shared();
    let db = Database::with_obs("empty", reg.clone());
    let out = db.write_batch(Vec::new()).unwrap();
    assert!(out.results.is_empty());
    assert_eq!((out.accepted, out.rejected, out.series), (0, 0, 0));
    assert_eq!(Ledger::of(&reg), Ledger::default());
}
