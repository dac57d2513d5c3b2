//! `dashboard_read` — read-dominated, every query cold.
//!
//! Set-up loads an in-memory corpus of 8 measurements × 32 hosts × 4 fields
//! × 1,800 s (460,800 rows, 1,843,200 values) through
//! `Database::write_batch` in 4,096-point batches and switches the result
//! cache off (`set_query_cache_capacity(0)`); rollups stay off. The
//! measured phase of an episode is two passes over a seed-shuffled mix of
//! 528 distinct dashboard-shaped queries through `query_parsed` (1,056
//! queries): 256 per-host raw field scans over 5 minutes, 256 per-host
//! `sum` per 10 s window over 10 minutes, 8 fleet-wide `min/max/mean` over
//! 5 minutes, 8 fleet-wide `mean` per 60 s over everything. One pass is one
//! refresh of every panel. The queries leave the corpus as it is, so only
//! every seventh episode of a run loads it afresh; a 30-second run holds
//! about fifty episodes (some 50,000 queries).
//!
//! Before the first episode's timing, every query's answer in the default
//! mode is compared with `ExecMode::Sequential`, and a seed-chosen 5% are
//! recomputed by a naive filter-and-fold over the generated values.
//!
//! Chosen because plan/scan/merge/aggregate (`tsdb.exec`) do all the
//! measured work while the cache, rollups, WAL and transport are
//! bypassed: a cache or store optimisation must show no change in the
//! query metrics here, and a scan-kernel or fan-out change shows fully.
#![forbid(unsafe_code)]

use super::{side_store, SIDE_STORE_BATCHES};
use crate::alloc;
use crate::gen::{self, Corpus, MixQuery, Shape, NS};
use crate::harness::{Ops, Run, Scale, Workload, MEASURED_SPAN};
use crate::layers::{self, Layers};
use crate::stats;
use crate::trace::{Tracer, NO_SPAN};
use pmove_tsdb::storage::Storage;
use pmove_tsdb::{exec, query, Database, ExecMode, QueryResult};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Seconds of corpus per load batch (16 s × 256 series = 4,096 points).
pub const LOAD_BATCH_S: usize = 16;
/// Passes over the mix per episode.
const PASSES: usize = 2;
/// Every how many episodes the corpus is loaded afresh: set-up time is
/// sampled all along the run, like everything else. Odd, so that in a
/// traced run both the untraced and the traced episodes get their turn.
const LOAD_EVERY: usize = 7;
/// Every how many episodes a side store is built and crashed.
const SIDE_STORE_EVERY: usize = 9;
/// Share of the mix recomputed naively.
const NAIVE_SHARE: f64 = 0.05;

/// The workload.
pub struct DashboardRead {
    seed: u64,
    corpus: Corpus,
    mix: Vec<MixQuery>,
    naive: Vec<usize>,
    db: Database,
    /// Episodes started so far in this run.
    episodes: usize,
    /// Row count of every answer, once the output checks have run.
    row_counts: Vec<usize>,
}

impl DashboardRead {
    /// Generate corpus and query mix for `seed`.
    pub fn new(seed: u64, scale: Scale) -> DashboardRead {
        let corpus = Corpus::generate(seed, 8, scale.of(32, 4), 4, scale.of(1_800, 120));
        let mix = gen::query_mix(seed, &corpus);
        let mut rng = gen::rng(seed, 0x5A);
        let naive = (0..mix.len())
            .filter(|_| rng.gen_bool(NAIVE_SHARE))
            .collect();
        DashboardRead {
            seed,
            corpus,
            mix,
            naive,
            db: Database::new("dash"),
            episodes: 0,
            row_counts: Vec::new(),
        }
    }

    /// Output checks before any timing; they also fault the corpus in.
    fn check_answers(&mut self, ops: &mut Ops) {
        let db = &self.db;
        let rows = (self.corpus.measurements * self.corpus.hosts * self.corpus.seconds) as u64;
        ops.check(db.total_rows() as u64 == rows, || {
            format!("loaded {} rows, generated {rows}", db.total_rows())
        });
        let mut row_counts = Vec::with_capacity(self.mix.len());
        for (i, q) in self.mix.iter().enumerate() {
            let default = ops.call("query", db.query_parsed(&q.query));
            let sequential = ops.call(
                "sequential query",
                db.query_with_mode(&q.query, ExecMode::Sequential),
            );
            let (Some(default), Some(sequential)) = (default, sequential) else {
                row_counts.push(usize::MAX);
                continue;
            };
            ops.check(Self::same_bits(&default, &sequential), || {
                format!("query {i} differs between the default mode and Sequential")
            });
            if self.naive.contains(&i) {
                ops.check(self.matches_naive(q, &default), || {
                    format!("query {i} differs from the naive recomputation")
                });
            }
            row_counts.push(default.rows.len());
        }
        self.row_counts = row_counts;
    }

    /// Recompute one query's answer straight from the generated values:
    /// `(timestamp, column values)` rows in the executor's output order.
    fn naive_answer(&self, q: &MixQuery) -> Vec<(i64, Vec<f64>)> {
        let c = &self.corpus;
        let hosts: Vec<usize> = q.host.map_or((0..c.hosts).collect(), |h| vec![h]);
        let (lo, hi) = q.window;
        match q.shape {
            Shape::RawField => (lo..hi)
                .map(|s| (s as i64 * NS, vec![c.value(q.m, hosts[0], q.field, s)]))
                .collect(),
            Shape::WindowedSum | Shape::FleetMean | Shape::FleetSummary => {
                let bucket = match q.shape {
                    Shape::WindowedSum => 10,
                    Shape::FleetMean => 60,
                    _ => usize::MAX,
                };
                let mut rows = Vec::new();
                let mut from = lo;
                while from < hi {
                    // Buckets are aligned to multiples of their width.
                    let to = if bucket == usize::MAX {
                        hi
                    } else {
                        ((from / bucket + 1) * bucket).min(hi)
                    };
                    let cell: Vec<f64> = (from..to)
                        .flat_map(|s| hosts.iter().map(move |h| (s, *h)))
                        .map(|(s, h)| c.value(q.m, h, q.field, s))
                        .collect();
                    let sum: f64 = cell.iter().sum();
                    let mean = sum / cell.len() as f64;
                    let ts = if bucket == usize::MAX {
                        0
                    } else {
                        (from / bucket * bucket) as i64 * NS
                    };
                    rows.push((
                        ts,
                        match q.shape {
                            Shape::WindowedSum => vec![sum],
                            Shape::FleetMean => vec![mean],
                            _ => vec![
                                cell.iter().copied().fold(f64::INFINITY, f64::min),
                                cell.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                                mean,
                            ],
                        },
                    ));
                    from = to;
                }
                rows
            }
        }
    }

    /// Counts exact, floats to 1e-9 relative.
    fn matches_naive(&self, q: &MixQuery, got: &QueryResult) -> bool {
        let want = self.naive_answer(q);
        want.len() == got.rows.len()
            && want.iter().zip(&got.rows).all(|((ts, values), row)| {
                *ts == row.timestamp
                    && values.len() == got.columns.len()
                    && values.iter().zip(&got.columns).all(|(w, col)| {
                        row.values
                            .get(col)
                            .copied()
                            .flatten()
                            .is_some_and(|g| (g - w).abs() <= 1e-9 * w.abs().max(1.0))
                    })
            })
    }

    /// Bit-for-bit equality of two results, NaN payloads included.
    fn same_bits(a: &QueryResult, b: &QueryResult) -> bool {
        a.columns == b.columns
            && a.rows.len() == b.rows.len()
            && a.rows.iter().zip(&b.rows).all(|(x, y)| {
                x.timestamp == y.timestamp
                    && x.values.len() == y.values.len()
                    && x.values.iter().zip(&y.values).all(|((k1, v1), (k2, v2))| {
                        k1 == k2 && v1.map(f64::to_bits) == v2.map(f64::to_bits)
                    })
            })
    }
}

impl Workload for DashboardRead {
    fn name(&self) -> &'static str {
        "dashboard_read"
    }

    fn setup(&mut self, _observed: bool, run: &mut Run, ops: &mut Ops) -> Option<f64> {
        self.episodes += 1;
        if !(self.episodes - 1).is_multiple_of(LOAD_EVERY) {
            return None;
        }
        // Dropping the previous episode's corpus is not the program's
        // work and is not timed.
        self.db = Database::new("dash");
        self.db.set_query_cache_capacity(0);
        let mut spent = 0.0;
        for batch in self.corpus.batches(self.corpus.seconds, LOAD_BATCH_S) {
            let values: u64 = batch.iter().map(|p| p.field_count() as u64).sum();
            let t = Instant::now();
            let out = self.db.write_batch(batch);
            spent += t.elapsed().as_secs_f64();
            if ops.call("load batch", out).is_some_and(|o| o.rejected == 0) {
                run.values_acked += values;
            }
        }
        // Not what this workload is for: the load is its only write, so
        // `ingest_values_per_s` is the rate of the in-memory load.
        run.write_s = spent;
        Some(spent)
    }

    fn measure(&mut self, tr: &mut Tracer, run: &mut Run, ops: &mut Ops) {
        if self.row_counts.is_empty() {
            self.check_answers(ops);
        }
        let db = &self.db;
        let row_counts = &self.row_counts;

        run.query_us.reserve(PASSES * self.mix.len());
        let root = tr.open(MEASURED_SPAN, NO_SPAN, 0);
        for pass in 0..PASSES as u64 {
            let refresh = tr.open("dashboard.pass", root.id(), pass);
            for (i, q) in self.mix.iter().enumerate() {
                let (r, s) = tr.time("tsdb.exec.query", refresh.id(), i as u64, || {
                    db.query_parsed(&q.query)
                });
                run.read_s += s;
                run.query_us.push(s * 1e6);
                let got = ops.call("query", r).map_or(usize::MAX, |r| r.rows.len());
                if got != row_counts[i] {
                    ops.fail(format!(
                        "query {i}: {got} rows, {} before timing",
                        row_counts[i]
                    ));
                }
            }
            run.refresh_ms.push(tr.close(refresh) * 1e3);
        }
        run.wall_s = tr.close(root);
        run.queries = (PASSES * self.mix.len()) as u64;

        if (self.episodes - 1).is_multiple_of(SIDE_STORE_EVERY) {
            let head = self.corpus.batches(
                (SIDE_STORE_BATCHES * LOAD_BATCH_S).min(self.corpus.seconds),
                LOAD_BATCH_S,
            );
            side_store(self.seed, head.collect(), run, ops);
        }
    }

    fn layers(&mut self, _tr: &Tracer, traced: &[Run], out: &mut Layers) {
        // One p50 per shape, from the traced episodes' own latencies.
        for (shape, name) in [
            (Shape::RawField, "tsdb.exec.raw_field_p50_us"),
            (Shape::WindowedSum, "tsdb.exec.windowed_sum_p50_us"),
            (Shape::FleetSummary, "tsdb.exec.fleet_summary_p50_us"),
            (Shape::FleetMean, "tsdb.exec.fleet_mean_p50_us"),
        ] {
            let samples: Vec<f64> = traced
                .iter()
                .flat_map(|run| run.query_us.iter().enumerate())
                .filter(|(i, _)| self.mix[i % self.mix.len()].shape == shape)
                .map(|(_, us)| *us)
                .collect();
            out.insert(name, stats::median(&samples));
        }

        // tsdb.exec on bare storage: planner, reference executor, default
        // fan-out, and what the scans touch.
        let mut storage = Storage::new();
        for batch in self.corpus.batches(self.corpus.seconds, LOAD_BATCH_S) {
            for p in batch {
                storage.insert(p);
            }
        }
        let queries: Vec<_> = self.mix.iter().map(|q| &q.query).collect();
        let n = queries.len() as f64;
        let time_all = |f: &dyn Fn(&pmove_tsdb::Query)| {
            let t = Instant::now();
            for q in &queries {
                f(q);
            }
            t.elapsed().as_secs_f64()
        };
        let plan_s = time_all(&|q| drop(black_box(query::plan(&storage, q))));
        out.insert("tsdb.exec.plan_ns_per_query", plan_s * 1e9 / n);
        // Twice each, second timing kept: the first pass warms the caches.
        let run = |mode: ExecMode| {
            time_all(&|q| drop(black_box(exec::run(&storage, q, mode))));
            time_all(&|q| drop(black_box(exec::run(&storage, q, mode))))
        };
        let sequential_s = run(ExecMode::Sequential);
        let parallel_s = run(ExecMode::default());
        let (mut scanned, mut returned) = (0u64, 0u64);
        for q in &queries {
            let (result, stats) =
                exec::run(&storage, q, ExecMode::Parallel(1)).expect("mix queries run");
            scanned += stats.rows_scanned;
            returned += result.rows.len() as u64;
        }
        out.insert(
            "tsdb.exec.sequential_ns_per_row_scanned",
            sequential_s * 1e9 / scanned as f64,
        );
        out.insert(
            "tsdb.exec.parallel_over_sequential",
            parallel_s / sequential_s,
        );
        out.insert(
            "tsdb.exec.rows_scanned_per_row_returned",
            scanned as f64 / returned as f64,
        );
        let scope = alloc::Scope::open();
        for q in &queries {
            drop(black_box(exec::run(&storage, q, ExecMode::Sequential)));
        }
        let counted = scope.close();
        out.insert("tsdb.exec.allocs_per_query", counted.allocs as f64 / n);
        out.insert("tsdb.exec.alloc_bytes_per_query", counted.bytes as f64 / n);

        // The write path that loaded the corpus, layer by layer.
        let head: Vec<_> = self
            .corpus
            .batches((4 * LOAD_BATCH_S).min(self.corpus.seconds), LOAD_BATCH_S)
            .collect();
        layers::write_path(self.seed, head.len(), &|i| head[i].clone(), out);
    }
}
