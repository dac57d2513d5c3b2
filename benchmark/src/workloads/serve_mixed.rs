//! `serve_mixed` — the same engine used the other way round, writes
//! beside reads.
//!
//! Set-up loads 600 s of the 8 × 32 × 4 corpus into an in-memory database
//! (614,400 values), switches on `enable_rollups(RollupConfig::default())`,
//! folds the history with a first `rollup_tick()` and serves one refresh
//! burst to warm the result cache, which keeps its default capacity. The
//! measured phase of an episode is 250 rounds (a 20-second run holds about
//! a dozen episodes, 3,000 rounds). Each round writes a one-second slice for
//! 2 of the 8 measurements (rotating, so 6 of 8 panels stay cacheable) with
//! `write_batch`, runs `rollup_tick()`, and then serves one refresh burst:
//! 16 tenants × 8 panels arriving within one virtual millisecond through
//! `QueryServer::run` over the database. Half the panels are tier-eligible
//! (`max … GROUP BY time(60s)`; `mean` never routes to a tier, see the
//! exactness envelope in `tsdb::rollup`), half are raw last-5-minutes scans
//! of one host whose window moves in 15 s steps, as a dashboard that rounds
//! "now" to its refresh interval would ask.
//!
//! Chosen because `tsdb.cache`, `tsdb.rollup` and `serve` (admission,
//! weighted-fair queueing, coalescing) do most of the work here and none
//! in `dashboard_read`, and because write-triggered invalidation and
//! rollup folding put a price on any read-side trick.
//!
//! Every run has to report every end-to-end metric: the per-query
//! latencies are the backend executions behind the bursts (what is left
//! after coalescing, cache hits included), and `recover_s` and
//! `stored_bytes_per_value` come from the side store of `workloads::side_store`.
#![forbid(unsafe_code)]

use super::dashboard_read::LOAD_BATCH_S;
use super::{side_store, SIDE_STORE_BATCHES};
use crate::gen::{Corpus, NS};
use crate::harness::{Ops, Run, Scale, Workload, MEASURED_SPAN};
use crate::layers::{self, Layers};
use crate::stats;
use crate::trace::{Tracer, NO_SPAN};
use pmove_obs::Registry;
use pmove_serve::{BackendExec, Priority, QueryBackend, QueryServer, ServeRequest, ServingConfig};
use pmove_tsdb::aggregate::AggregateFn;
use pmove_tsdb::query::Projection;
use pmove_tsdb::{Database, Query, RollupConfig, TsdbError};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

const TENANTS: u32 = 16;
/// Seconds of corpus loaded during set-up.
const HISTORY_S: usize = 600;
/// Rounds of an episode's measured phase.
const ROUNDS: usize = 250;
/// Seconds a raw panel looks back.
const RAW_WINDOW_S: usize = 300;
/// Step in which a raw panel's window follows "now".
const RAW_STEP_S: usize = 15;
/// Measurements written per round.
const WRITTEN_PER_ROUND: usize = 2;
/// Every how many episodes a side store is built and crashed.
const SIDE_STORE_EVERY: usize = 5;

/// `&Database` as a serving backend, with every execution timed.
struct TimedBackend<'a> {
    db: &'a Database,
    calls: RefCell<Vec<(Instant, Instant)>>,
}

impl QueryBackend for &TimedBackend<'_> {
    fn execute(&self, q: &Query) -> Result<BackendExec, TsdbError> {
        let start = Instant::now();
        let out = self.db.execute(q);
        self.calls.borrow_mut().push((start, Instant::now()));
        out
    }
}

/// The workload.
pub struct ServeMixed {
    seed: u64,
    corpus: Corpus,
    history_s: usize,
    rounds: usize,
    /// Arrival offsets of one burst, ns within the virtual millisecond.
    arrivals: Vec<u64>,
    db: Database,
    registry: Option<Arc<Registry>>,
    /// Episodes started so far in this run.
    episodes: usize,
}

impl ServeMixed {
    /// Generate the corpus (history plus one second per round) for `seed`.
    pub fn new(seed: u64, scale: Scale) -> ServeMixed {
        let history_s = scale.of(HISTORY_S, 60);
        let rounds = scale.of(ROUNDS, 8);
        let corpus = Corpus::generate(seed, 8, scale.of(32, 4), 4, history_s + rounds);
        // Evenly spread over the virtual millisecond: the seed changes the
        // data, not how requests interleave.
        let requests = TENANTS as u64 * corpus.measurements as u64;
        let arrivals = (0..requests).map(|i| i * 1_000_000 / requests).collect();
        ServeMixed {
            seed,
            corpus,
            history_s,
            rounds,
            arrivals,
            db: Database::new("serve"),
            registry: None,
            episodes: 0,
        }
    }

    /// The panel of measurement `m` as asked at second `now`.
    fn panel(&self, m: usize, now: usize) -> Query {
        if m.is_multiple_of(2) {
            Query {
                projections: vec![Projection::Aggregate(AggregateFn::Max, "f0".into())],
                measurement: format!("m{m}"),
                tag_filters: Vec::new(),
                time_start: None,
                time_end: None,
                group_by_time: Some(60 * NS),
            }
        } else {
            let end = (now + 1) / RAW_STEP_S * RAW_STEP_S;
            Query {
                projections: vec![Projection::Field("f1".into())],
                measurement: format!("m{m}"),
                tag_filters: vec![("host".into(), format!("h{:02}", m % self.corpus.hosts))],
                time_start: Some(end.saturating_sub(RAW_WINDOW_S) as i64 * NS),
                time_end: Some(end as i64 * NS),
                group_by_time: None,
            }
        }
    }

    /// One refresh burst: every tenant asks for every panel.
    fn burst(&self, now: usize) -> Vec<ServeRequest> {
        let panels: Vec<String> = (0..self.corpus.measurements)
            .map(|m| self.panel(m, now).normalized())
            .collect();
        (0..TENANTS)
            .flat_map(|tenant| {
                panels
                    .iter()
                    .enumerate()
                    .map(move |(p, text)| (tenant, p, text))
            })
            .zip(&self.arrivals)
            .map(|((tenant, p, text), at_ns)| ServeRequest {
                tenant,
                priority: if (tenant as usize + p).is_multiple_of(2) {
                    Priority::Interactive
                } else {
                    Priority::Background
                },
                query: text.clone(),
                at_ns: *at_ns,
            })
            .collect()
    }

    /// Measurements written in `round`.
    fn written(&self, round: usize) -> impl Iterator<Item = usize> + '_ {
        (0..WRITTEN_PER_ROUND)
            .map(move |k| (round * WRITTEN_PER_ROUND + k) % self.corpus.measurements)
    }
}

impl Workload for ServeMixed {
    fn name(&self) -> &'static str {
        "serve_mixed"
    }

    fn setup(&mut self, observed: bool, _run: &mut Run, ops: &mut Ops) -> Option<f64> {
        self.episodes += 1;
        let warm_up = self.burst(self.history_s - 1);
        self.registry = observed.then(Registry::shared);
        // Dropping the previous episode's database is not the program's
        // work and is not timed.
        self.db = match &self.registry {
            Some(r) => Database::with_obs("serve", r.clone()),
            None => Database::new("serve"),
        };
        let mut spent = 0.0;
        for batch in self.corpus.batches(self.history_s, LOAD_BATCH_S) {
            let t = Instant::now();
            let out = self.db.write_batch(batch);
            spent += t.elapsed().as_secs_f64();
            ops.check(out.is_ok_and(|o| o.rejected == 0), || {
                "a history batch was refused".into()
            });
        }
        let t = Instant::now();
        self.db.enable_rollups(RollupConfig::default());
        self.db.rollup_tick();
        let warmed = QueryServer::new(&self.db, ServingConfig::default())
            .and_then(|mut server| server.run(&warm_up));
        spent += t.elapsed().as_secs_f64();
        ops.call("warm-up burst", warmed);
        Some(spent)
    }

    fn measure(&mut self, tr: &mut Tracer, run: &mut Run, ops: &mut Ops) {
        let db = &self.db;
        let per_point = self.corpus.fields as u64;
        let cfg = ServingConfig::default();
        let (mut tick_s, mut rows_folded) = (0.0, 0u64);
        let mut execute_s = 0.0;
        let (mut hits, mut misses, mut executions, mut shed, mut rejected) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        // The series the last round writes, asked for before and after
        // that write: the second answer must not come from a stale cache.
        let last = self.history_s + self.rounds - 1;
        let fresh_m = self.written(self.rounds - 1).next().unwrap_or(0);
        let fresh = Query {
            projections: vec![Projection::Field("f0".into())],
            measurement: format!("m{fresh_m}"),
            tag_filters: vec![("host".into(), "h00".into())],
            time_start: Some(self.history_s as i64 * NS),
            time_end: None,
            group_by_time: None,
        };

        // The generator works inside the measured phase, between the
        // timed calls: a second of 64 points, and a new burst whenever the
        // raw panels' window has moved.
        let mut schedule = Vec::new();
        let root = tr.open(MEASURED_SPAN, NO_SPAN, 0);
        for round in 0..self.rounds {
            let op = round as u64;
            let now = self.history_s + round;
            let slice = self.corpus.slice(now, self.written(round));
            if round == 0 || (now + 1).is_multiple_of(RAW_STEP_S) {
                schedule = self.burst(now);
            }
            if round == self.rounds - 1 {
                let (probe, _) =
                    tr.time("tsdb.exec.query", root.id(), op, || db.query_parsed(&fresh));
                ops.call("freshness probe", probe);
            }
            let points = slice.len() as u64;
            let (out, s) = tr.time("tsdb.engine.write_batch", root.id(), op, || {
                db.write_batch(slice)
            });
            run.write_s += s;
            if ops
                .call("write_batch", out)
                .is_some_and(|o| o.rejected == 0)
            {
                run.values_acked += points * per_point;
            }
            let (tick, s) = tr.time("tsdb.rollup.tick", root.id(), op, || db.rollup_tick());
            run.write_s += s;
            tick_s += s;
            rows_folded += tick.map_or(0, |r| r.rows_folded);

            let backend = TimedBackend {
                db,
                calls: RefCell::new(Vec::new()),
            };
            let refresh = tr.open("serve.run", root.id(), op);
            let refresh_id = refresh.id();
            let report = QueryServer::new(&backend, cfg.clone())
                .and_then(|mut server| server.run(&schedule));
            let s = tr.close(refresh);
            run.read_s += s;
            run.refresh_ms.push(s * 1e3);
            for (i, (start, end)) in backend.calls.into_inner().into_iter().enumerate() {
                let d = end.duration_since(start).as_secs_f64();
                execute_s += d;
                run.query_us.push(d * 1e6);
                tr.record("serve.backend.execute", refresh_id, i as u64, start, end);
            }
            if let Some(r) = ops.call("serve burst", report) {
                ops.check(
                    r.conserved() && r.errors == 0 && r.submitted == schedule.len() as u64,
                    || {
                        format!(
                            "round {round}: {} submitted, {} served, {} errors",
                            r.submitted, r.served, r.errors
                        )
                    },
                );
                run.queries += r.served;
                hits += r.cache_hits;
                misses += r.cache_misses;
                executions += r.executions;
                shed += r.shed;
                rejected += r.rejected;
            }
        }
        run.wall_s = tr.close(root);

        if let Some(r) = ops.call("freshness query", db.query_parsed(&fresh)) {
            let want = self.corpus.value(fresh_m, 0, 0, last);
            let got = r
                .rows
                .last()
                .and_then(|row| Some((row.timestamp, (*row.values.get("f0")?)?)));
            ops.check(
                got.is_some_and(|(ts, v)| ts == last as i64 * NS && v.to_bits() == want.to_bits()),
                || {
                    format!(
                        "the query after the last write shows {got:?}, not {want} at second {last}"
                    )
                },
            );
        }
        let rows = (self.corpus.measurements * self.corpus.hosts * self.history_s) as u64
            + run.values_acked / per_point;
        ops.check(db.total_rows() as u64 == rows, || {
            format!("{} rows stored, {rows} acknowledged", db.total_rows())
        });

        if let Some(r) = &self.registry {
            let snap = r.snapshot();
            let requests = (self.rounds * self.arrivals.len()) as f64;
            let (tier, raw) = (
                snap.counter_total("tsdb.rollup.buckets_tier") as f64,
                snap.counter_total("tsdb.rollup.buckets_raw") as f64,
            );
            run.layer.insert(
                "tsdb.cache.hit_rate",
                hits as f64 / (hits + misses).max(1) as f64,
            );
            run.layer.insert(
                "tsdb.cache.invalidations",
                snap.counter_total("tsdb.cache.invalidations") as f64,
            );
            run.layer.insert(
                "tsdb.rollup.tick_ns_per_row",
                tick_s * 1e9 / rows_folded.max(1) as f64,
            );
            run.layer
                .insert("tsdb.rollup.cells", db.rollup_cell_count() as f64);
            run.layer.insert(
                "tsdb.rollup.tier_served_share",
                tier / (tier + raw).max(1.0),
            );
            run.layer.insert(
                "serve.run_self_ns_per_request",
                (run.read_s - execute_s) * 1e9 / requests,
            );
            run.layer.insert(
                "serve.coalescing_ratio",
                run.queries as f64 / executions.max(1) as f64,
            );
            run.layer.insert("serve.executions", executions as f64);
            run.layer.insert("serve.shed", shed as f64);
            run.layer.insert("serve.rejected", rejected as f64);
        }

        if (self.episodes - 1).is_multiple_of(SIDE_STORE_EVERY) {
            let head = self.corpus.batches(
                (SIDE_STORE_BATCHES * LOAD_BATCH_S).min(self.corpus.seconds),
                LOAD_BATCH_S,
            );
            side_store(self.seed, head.collect(), run, ops);
        }
    }

    fn layers(&mut self, tr: &Tracer, traced: &[Run], out: &mut Layers) {
        // Timings are medians over the traced episodes; the exact counts
        // were taken from the first one by the harness.
        for name in [
            "tsdb.rollup.tick_ns_per_row",
            "serve.run_self_ns_per_request",
        ] {
            let samples: Vec<f64> = traced
                .iter()
                .filter_map(|run| run.layer.get(name).copied())
                .collect();
            out.insert(name, stats::median(&samples));
        }
        let (_, _, longest) = tr.total("tsdb.engine.write_batch");
        out.insert("tsdb.engine.write_batch_max_ms", longest * 1e3);

        // tsdb.cache: what one hit costs, on a panel nobody invalidates.
        let db = Database::new("replay");
        for batch in self
            .corpus
            .batches(RAW_WINDOW_S.min(self.history_s), LOAD_BATCH_S)
        {
            db.write_batch(batch).expect("in-memory load");
        }
        let panel = self.panel(1, self.history_s);
        db.query_parsed(&panel).expect("panel runs");
        let samples: Vec<f64> = (0..2_000)
            .map(|_| {
                let t = Instant::now();
                drop(std::hint::black_box(
                    db.query_arc_cached(&panel, pmove_tsdb::ExecMode::default()),
                ));
                t.elapsed().as_secs_f64() * 1e9
            })
            .collect();
        out.insert("tsdb.cache.hit_ns", stats::median(&samples));

        let head: Vec<_> = self
            .corpus
            .batches((4 * LOAD_BATCH_S).min(self.history_s), LOAD_BATCH_S)
            .collect();
        layers::write_path(self.seed, head.len(), &|i| head[i].clone(), out);
    }
}
