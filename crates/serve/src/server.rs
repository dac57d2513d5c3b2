//! The serving front-end: a deterministic discrete-event loop that admits,
//! schedules, coalesces, and executes tenant queries on the virtual clock.
//!
//! The event loop is the whole story: arrivals, execution completions, and
//! rate-limit wakeups live in one heap ordered `(time, kind, seq)` with
//! completions before wakeups before arrivals at equal instants, so a
//! freed dispatcher slot is always visible to work arriving at the same
//! tick. Every tie-break is explicit, which makes a run bit-identical
//! under replay — the property the fairness proptest and the load bench
//! both lean on.

use crate::bucket::TokenBucket;
use crate::config::{Priority, ServeError, ServingConfig};
use crate::report::{LatencySummary, ServeReport, ShedEvent};
use crate::sched::{AdmitOutcome, QueuedRequest, WfqQueue};
use pmove_obs::{latency_buckets, Registry};
use pmove_tsdb::{Database, ExecMode, Query, ReplicaSet, TsdbError};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::Arc;

/// Modeled service cost of an execution that misses the shared result
/// cache (planning + shard scans).
const MISS_BASE_NS: u64 = 30_000;
/// Per-row scan cost on a miss.
const MISS_PER_ROW_NS: u64 = 900;
/// Modeled service cost of a cache hit (lookup + serialization only).
const HIT_BASE_NS: u64 = 6_000;
/// Per-row serialization cost on a hit.
const HIT_PER_ROW_NS: u64 = 60;
/// Modeled cost of an execution the backend failed (it did the work of
/// planning before erroring).
const ERROR_NS: u64 = MISS_BASE_NS;

/// What one backend execution produced, reduced to what the serving layer
/// needs: a deterministic size for the service-time model and the shared
/// result cache's verdict for hit accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendExec {
    /// Result rows (drives modeled service time).
    pub rows: u64,
    /// True when the backend's shared result cache served the rows.
    pub cache_hit: bool,
}

/// A query execution target. The serving layer is generic over where
/// queries actually run — a local [`Database`], a quorum over a
/// [`ReplicaSet`], or the PCP shipper's reachability-aware wrapper.
pub trait QueryBackend {
    /// Execute one parsed query and report its size and cache verdict.
    fn execute(&self, q: &Query) -> Result<BackendExec, TsdbError>;
}

impl QueryBackend for &Database {
    fn execute(&self, q: &Query) -> Result<BackendExec, TsdbError> {
        let (frame, cache_hit) = self.query_arc_cached(q, ExecMode::default())?;
        Ok(BackendExec {
            rows: frame.len() as u64,
            cache_hit,
        })
    }
}

impl QueryBackend for &ReplicaSet {
    /// Quorum read with every replica reachable; the chosen replica's
    /// result cache provides the hit verdict.
    fn execute(&self, q: &Query) -> Result<BackendExec, TsdbError> {
        let reachable = vec![true; self.len()];
        let (frame, cache_hit) = self.quorum_read_cached(q, &reachable, ExecMode::default())?;
        Ok(BackendExec {
            rows: frame.len() as u64,
            cache_hit,
        })
    }
}

/// One request in an open-loop arrival schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRequest {
    /// Submitting tenant.
    pub tenant: u32,
    /// Scheduling class.
    pub priority: Priority,
    /// Query text (parsed and normalized at submission).
    pub query: String,
    /// Virtual arrival time.
    pub at_ns: u64,
}

/// Event ordering rank: completions free slots before wakeups re-examine
/// the queue before arrivals contend, all at the same virtual instant.
const RANK_COMPLETION: u8 = 0;
const RANK_WAKEUP: u8 = 1;
const RANK_ARRIVAL: u8 = 2;

#[derive(Debug)]
enum EvKind {
    Arrival(usize),
    Completion(String),
    Wakeup,
}

#[derive(Debug)]
struct Ev {
    t: u64,
    rank: u8,
    eseq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        (self.t, self.rank, self.eseq) == (other.t, other.rank, other.eseq)
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    /// Reversed so the `BinaryHeap` pops the earliest event.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.t, other.rank, other.eseq).cmp(&(self.t, self.rank, self.eseq))
    }
}

/// One in-flight execution and everyone riding it.
#[derive(Debug)]
struct InFlight {
    members: Vec<QueuedRequest>,
    cache_hit: bool,
    error: Option<String>,
    dispatch_ns: u64,
    done_ns: u64,
}

/// The multi-tenant serving front-end.
pub struct QueryServer<B: QueryBackend> {
    backend: B,
    cfg: ServingConfig,
    obs: Arc<Registry>,
}

impl<B: QueryBackend> QueryServer<B> {
    /// Build a server over `backend`; the configuration is validated.
    pub fn new(backend: B, cfg: ServingConfig) -> Result<QueryServer<B>, ServeError> {
        cfg.validate()?;
        Ok(QueryServer {
            backend,
            cfg,
            obs: Registry::disabled(),
        })
    }

    /// Thread an observability registry: `pmove.serve.*` counters, the
    /// serving-latency histogram the default SLO watches, and serve-span
    /// trace trees when the registry has a tracer installed.
    pub fn with_obs(mut self, registry: Arc<Registry>) -> QueryServer<B> {
        self.obs = registry;
        self
    }

    /// Run one open-loop schedule to completion and account every request.
    ///
    /// The schedule is processed in `(at_ns, index)` order regardless of
    /// how it is passed in. Returns once every admitted request is served
    /// or shed — the conservation identity `ServeReport::conserved` holds
    /// by construction and is re-checked by the fairness proptest.
    pub fn run(&mut self, schedule: &[ServeRequest]) -> Result<ServeReport, ServeError> {
        // Parse everything up front: a malformed query is a caller bug,
        // not load, and fails the run before any accounting starts.
        let mut parsed: Vec<(Query, String)> = Vec::with_capacity(schedule.len());
        for r in schedule {
            let q = Query::parse(&r.query)?;
            let key = q.normalized();
            parsed.push((q, key));
        }

        let mut order: Vec<usize> = (0..schedule.len()).collect();
        order.sort_by_key(|&i| (schedule[i].at_ns, i));

        let mut events = BinaryHeap::new();
        let mut next_eseq = 0u64;
        for &i in &order {
            events.push(Ev {
                t: schedule[i].at_ns,
                rank: RANK_ARRIVAL,
                eseq: next_eseq,
                kind: EvKind::Arrival(i),
            });
            next_eseq += 1;
        }

        let mut queue = WfqQueue::new(self.cfg.queue_capacity);
        let mut buckets: BTreeMap<u32, TokenBucket> = BTreeMap::new();
        let mut in_layer: BTreeMap<u32, usize> = BTreeMap::new();
        let mut in_flight: BTreeMap<String, InFlight> = BTreeMap::new();
        let mut key_to_query: BTreeMap<String, Query> = BTreeMap::new();
        let mut scheduled_wakeups: BTreeSet<u64> = BTreeSet::new();
        let mut slots_busy = 0usize;
        let mut next_seq = 0u64;

        let mut report = ServeReport {
            submitted: 0,
            rejected: 0,
            admitted: 0,
            served: 0,
            shed: 0,
            executions: 0,
            coalesced: 0,
            cache_hits: 0,
            cache_misses: 0,
            errors: 0,
            shed_events: Vec::new(),
            per_tenant: BTreeMap::new(),
            interactive: LatencySummary::default(),
            background: LatencySummary::default(),
            queue_depth_peak: 0,
            end_ns: 0,
        };
        let mut lat_interactive: Vec<u64> = Vec::new();
        let mut lat_background: Vec<u64> = Vec::new();

        while let Some(ev) = events.pop() {
            let now = ev.t;
            match ev.kind {
                EvKind::Arrival(i) => {
                    let req = &schedule[i];
                    let (_, key) = &parsed[i];
                    let seq = next_seq;
                    next_seq += 1;
                    report.submitted += 1;
                    let stats = report.per_tenant.entry(req.tenant).or_default();
                    stats.submitted += 1;
                    self.count("pmove.serve.submitted_total", &[]);

                    let occupancy = in_layer.get(&req.tenant).copied().unwrap_or(0);
                    if occupancy >= self.cfg.tenant_cap {
                        self.reject(&mut report, req.tenant);
                        continue;
                    }
                    let bucket = buckets.entry(req.tenant).or_insert_with(|| {
                        TokenBucket::new(self.cfg.tenant_rate_per_s, self.cfg.tenant_burst)
                    });
                    // Reserve the next token: admit now, dispatch no
                    // earlier than the deterministic refill instant.
                    let eligible_ns = bucket.reserve(now);

                    report.admitted += 1;
                    let stats = report.per_tenant.entry(req.tenant).or_default();
                    stats.admitted += 1;
                    self.count("pmove.serve.admitted_total", &[]);
                    *in_layer.entry(req.tenant).or_insert(0) += 1;

                    let queued = QueuedRequest {
                        seq,
                        tenant: req.tenant,
                        priority: req.priority,
                        submit_ns: now,
                        eligible_ns,
                    };

                    // Attach-to-in-flight coalescing: an identical query
                    // already executing serves this request at its
                    // completion — no queue slot, no second execution.
                    if let Some(fl) = in_flight.get_mut(key) {
                        fl.members.push(queued);
                        continue;
                    }

                    key_to_query
                        .entry(key.clone())
                        .or_insert_with(|| parsed[i].0.clone());
                    match queue.admit(key, queued) {
                        AdmitOutcome::Queued => {}
                        AdmitOutcome::ShedNewcomer { lowest_present } => {
                            self.shed(
                                &mut report,
                                &mut in_layer,
                                now,
                                req.tenant,
                                req.priority,
                                lowest_present,
                            );
                        }
                        AdmitOutcome::ShedOther {
                            victim,
                            lowest_present,
                        } => {
                            self.shed(
                                &mut report,
                                &mut in_layer,
                                now,
                                victim.tenant,
                                victim.priority,
                                lowest_present,
                            );
                        }
                    }
                    report.queue_depth_peak = report.queue_depth_peak.max(queue.len() as u64);
                    self.gauge_set("pmove.serve.queue_depth", queue.len() as f64);

                    self.dispatch(
                        now,
                        &mut queue,
                        &mut in_flight,
                        &key_to_query,
                        &mut slots_busy,
                        &mut report,
                        &mut events,
                        &mut next_eseq,
                        &mut scheduled_wakeups,
                    );
                }
                EvKind::Completion(key) => {
                    let fl = in_flight
                        .remove(&key)
                        .expect("completion for unknown execution");
                    slots_busy -= 1;
                    let status = match (&fl.error, fl.cache_hit) {
                        (Some(_), _) => "error",
                        (None, true) => "cache_hit",
                        (None, false) => "executed",
                    };
                    self.emit_trace(&fl, status);
                    for (idx, m) in fl.members.iter().enumerate() {
                        report.served += 1;
                        let stats = report.per_tenant.entry(m.tenant).or_default();
                        stats.served += 1;
                        if fl.error.is_some() {
                            report.errors += 1;
                        } else if fl.cache_hit {
                            stats.cache_hits += 1;
                        } else {
                            stats.cache_misses += 1;
                        }
                        if idx > 0 {
                            report.coalesced += 1;
                            stats.coalesced += 1;
                        }
                        let entry = in_layer.get_mut(&m.tenant).expect("member counted");
                        *entry -= 1;
                        let latency = now - m.submit_ns;
                        match m.priority {
                            Priority::Interactive => lat_interactive.push(latency),
                            Priority::Background => lat_background.push(latency),
                        }
                        self.count("pmove.serve.served_total", &[("class", m.priority.label())]);
                        if idx > 0 {
                            self.tenant_count("pmove.serve.coalesced_total", m.tenant);
                        }
                        if fl.error.is_none() {
                            if fl.cache_hit {
                                self.tenant_count("pmove.serve.cache_hits_total", m.tenant);
                            } else {
                                self.tenant_count("pmove.serve.cache_misses_total", m.tenant);
                            }
                        }
                        self.latency(latency, m.priority);
                    }
                    report.end_ns = report.end_ns.max(now);
                    self.dispatch(
                        now,
                        &mut queue,
                        &mut in_flight,
                        &key_to_query,
                        &mut slots_busy,
                        &mut report,
                        &mut events,
                        &mut next_eseq,
                        &mut scheduled_wakeups,
                    );
                }
                EvKind::Wakeup => {
                    scheduled_wakeups.remove(&now);
                    self.dispatch(
                        now,
                        &mut queue,
                        &mut in_flight,
                        &key_to_query,
                        &mut slots_busy,
                        &mut report,
                        &mut events,
                        &mut next_eseq,
                        &mut scheduled_wakeups,
                    );
                }
            }
        }

        debug_assert!(queue.is_empty(), "event loop drained with work queued");
        debug_assert!(in_flight.is_empty(), "event loop drained mid-flight");
        report.interactive = LatencySummary::of(&mut lat_interactive);
        report.background = LatencySummary::of(&mut lat_background);
        self.gauge_set("pmove.serve.queue_depth", 0.0);
        debug_assert!(report.conserved(), "conservation identity violated");
        Ok(report)
    }

    /// Fill free dispatcher slots with eligible groups; when the queue
    /// holds only rate-deferred work, book a wakeup at its eligibility.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        now: u64,
        queue: &mut WfqQueue,
        in_flight: &mut BTreeMap<String, InFlight>,
        key_to_query: &BTreeMap<String, Query>,
        slots_busy: &mut usize,
        report: &mut ServeReport,
        events: &mut BinaryHeap<Ev>,
        next_eseq: &mut u64,
        scheduled_wakeups: &mut BTreeSet<u64>,
    ) {
        while *slots_busy < self.cfg.max_concurrency {
            let Some(group) = queue.pop_eligible(now) else {
                break;
            };
            let q = key_to_query
                .get(&group.key)
                .expect("query recorded at admit");
            let (exec, service_ns) = match self.backend.execute(q) {
                Ok(e) => {
                    let per_row = if e.cache_hit {
                        HIT_PER_ROW_NS
                    } else {
                        MISS_PER_ROW_NS
                    };
                    let base = if e.cache_hit {
                        HIT_BASE_NS
                    } else {
                        MISS_BASE_NS
                    };
                    (Ok(e), base + per_row * e.rows)
                }
                Err(err) => (Err(err), ERROR_NS),
            };
            report.executions += 1;
            self.count("pmove.serve.executions_total", &[]);
            let (cache_hit, error) = match exec {
                Ok(e) => {
                    if e.cache_hit {
                        report.cache_hits += 1;
                    } else {
                        report.cache_misses += 1;
                    }
                    (e.cache_hit, None)
                }
                Err(err) => (false, Some(err.to_string())),
            };
            let done_ns = now + service_ns;
            events.push(Ev {
                t: done_ns,
                rank: RANK_COMPLETION,
                eseq: *next_eseq,
                kind: EvKind::Completion(group.key.clone()),
            });
            *next_eseq += 1;
            in_flight.insert(
                group.key,
                InFlight {
                    members: group.members,
                    cache_hit,
                    error,
                    dispatch_ns: now,
                    done_ns,
                },
            );
            *slots_busy += 1;
        }
        self.gauge_set("pmove.serve.queue_depth", queue.len() as f64);
        if *slots_busy < self.cfg.max_concurrency && !queue.is_empty() {
            // Everything queued is rate-deferred; wake at the earliest
            // eligibility (deduplicated so replays stay byte-identical).
            let at = queue.next_eligibility().expect("queue non-empty");
            if scheduled_wakeups.insert(at) {
                events.push(Ev {
                    t: at,
                    rank: RANK_WAKEUP,
                    eseq: *next_eseq,
                    kind: EvKind::Wakeup,
                });
                *next_eseq += 1;
            }
        }
    }

    /// Refuse a request at admission: the tenant already has
    /// `tenant_cap` requests in the layer.
    fn reject(&self, report: &mut ServeReport, tenant: u32) {
        report.rejected += 1;
        report.per_tenant.entry(tenant).or_default().rejected += 1;
        self.count("pmove.serve.rejected_total", &[("reason", "tenant_cap")]);
    }

    fn shed(
        &self,
        report: &mut ServeReport,
        in_layer: &mut BTreeMap<u32, usize>,
        t_ns: u64,
        tenant: u32,
        priority: Priority,
        lowest_present: Priority,
    ) {
        report.shed += 1;
        report.per_tenant.entry(tenant).or_default().shed += 1;
        report.shed_events.push(ShedEvent {
            t_ns,
            tenant,
            priority,
            lowest_present,
        });
        *in_layer.get_mut(&tenant).expect("shed request was counted") -= 1;
        self.count("pmove.serve.shed_total", &[("class", priority.label())]);
    }

    /// One serve-span tree per execution: queue wait then execution,
    /// rooted at the triggering member's submission.
    fn emit_trace(&self, fl: &InFlight, status: &str) {
        let Some(tracer) = self.obs.tracer() else {
            return;
        };
        let submit_ns = fl.members.first().map(|m| m.submit_ns).unwrap_or(0);
        let root = tracer.start_trace("serve.request", submit_ns);
        let wait = tracer.child(root, "serve.queue_wait", submit_ns);
        tracer.end_span(wait, fl.dispatch_ns);
        let exec = tracer.child(root, "serve.execute", fl.dispatch_ns);
        tracer.end_span_status(exec, fl.done_ns, status);
        tracer.finish_trace(
            root,
            fl.done_ns,
            if status == "error" { "error" } else { "ok" },
        );
        self.obs.record_span("serve.request", submit_ns, fl.done_ns);
    }

    fn count(&self, name: &str, labels: &[(&str, &str)]) {
        self.obs.counter(name, labels).inc();
    }

    fn tenant_count(&self, name: &str, tenant: u32) {
        if self.obs.is_enabled() {
            let t = tenant.to_string();
            self.obs.counter(name, &[("tenant", &t)]).inc();
        }
    }

    fn gauge_set(&self, name: &str, v: f64) {
        self.obs.gauge(name, &[]).set(v);
    }

    fn latency(&self, latency_ns: u64, priority: Priority) {
        if self.obs.is_enabled() {
            let labels = [("class", priority.label())];
            self.obs
                .histogram("pmove.serve.latency_ns", &labels, latency_buckets())
                .record(latency_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmove_tsdb::Point;

    /// A tiny database: one measurement, a few series, 60 s of points.
    fn db() -> Database {
        let db = Database::new("serve-test");
        for s in 0..60i64 {
            for host in ["a", "b"] {
                let p = Point::new("cpu")
                    .timestamp(s * 1_000_000_000)
                    .tag("host", host)
                    .field("busy", s as f64);
                db.write_point(p).unwrap();
            }
        }
        db
    }

    fn req(tenant: u32, priority: Priority, query: &str, at_ns: u64) -> ServeRequest {
        ServeRequest {
            tenant,
            priority,
            query: query.into(),
            at_ns,
        }
    }

    const PANEL: &str = "SELECT mean(\"busy\") FROM \"cpu\" GROUP BY time(10000000000)";

    #[test]
    fn identical_panels_coalesce_into_one_execution() {
        let db = db();
        let mut srv = QueryServer::new(&db, ServingConfig::default()).unwrap();
        // Eight tenants refresh the same panel in one burst: one backend
        // execution serves all eight.
        let schedule: Vec<ServeRequest> = (0..8)
            .map(|t| req(t, Priority::Interactive, PANEL, 1_000))
            .collect();
        let report = srv.run(&schedule).unwrap();
        assert!(report.conserved());
        assert_eq!(report.served, 8);
        assert_eq!(report.executions, 1);
        assert_eq!(report.coalesced, 7);
        assert!(report.coalescing_ratio() >= 8.0);
        // First execution misses; everyone rides it.
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.cache_hits, 0);
    }

    #[test]
    fn attach_to_in_flight_execution() {
        let db = db();
        let mut srv = QueryServer::new(&db, ServingConfig::default()).unwrap();
        // Second request lands while the first is mid-execution (service
        // time of this panel is well over 1 µs): it attaches instead of
        // queueing a second execution.
        let schedule = vec![
            req(0, Priority::Interactive, PANEL, 0),
            req(1, Priority::Interactive, PANEL, 1_000),
        ];
        let report = srv.run(&schedule).unwrap();
        assert_eq!(report.executions, 1);
        assert_eq!(report.coalesced, 1);
        assert_eq!(report.served, 2);
    }

    #[test]
    fn repeat_queries_hit_the_shared_cache() {
        let db = db();
        let mut srv = QueryServer::new(&db, ServingConfig::default()).unwrap();
        // Two widely-spaced rounds of the same panel from different
        // tenants: round one executes, round two is a cache hit shared
        // across tenants.
        let schedule = vec![
            req(0, Priority::Interactive, PANEL, 0),
            req(1, Priority::Interactive, PANEL, 50_000_000),
        ];
        let report = srv.run(&schedule).unwrap();
        assert_eq!(report.executions, 2);
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.cache_hits, 1);
        let t1 = report.per_tenant.get(&1).unwrap();
        assert_eq!(t1.cache_hits, 1);
    }

    #[test]
    fn overload_sheds_only_background() {
        let db = db();
        let cfg = ServingConfig {
            queue_capacity: 4,
            max_concurrency: 1,
            tenant_rate_per_s: 1_000,
            tenant_burst: 1_000,
            ..ServingConfig::default()
        };
        let mut srv = QueryServer::new(&db, cfg).unwrap();
        // Distinct queries defeat coalescing; a burst larger than
        // slots + queue forces shedding, and every victim must be
        // background while background is present.
        let mut schedule = Vec::new();
        for i in 0..6u64 {
            schedule.push(req(
                0,
                Priority::Background,
                &format!(
                    "SELECT mean(\"busy\") FROM \"cpu\" WHERE time >= {} GROUP BY time(10000000000)",
                    i * 1_000_000_000
                ),
                i,
            ));
        }
        // Four interactive requests (= queue capacity): each displaces a
        // queued background request and none ever contends with its own
        // class for space.
        for i in 0..4u64 {
            schedule.push(req(
                1,
                Priority::Interactive,
                &format!(
                    "SELECT max(\"busy\") FROM \"cpu\" WHERE time >= {} GROUP BY time(10000000000)",
                    i * 1_000_000_000
                ),
                10 + i,
            ));
        }
        let report = srv.run(&schedule).unwrap();
        assert!(report.conserved());
        assert!(report.shed > 0, "expected overflow: {report:?}");
        assert!(report.shed_only_lowest());
        assert!(report
            .shed_events
            .iter()
            .all(|e| e.priority == Priority::Background));
        // Interactive traffic is untouched.
        let t1 = report.per_tenant.get(&1).unwrap();
        assert_eq!(t1.shed, 0);
        assert_eq!(t1.served, 4);
    }

    #[test]
    fn tenant_cap_rejects_over_cap_traffic() {
        let db = db();
        let cfg = ServingConfig {
            tenant_cap: 2,
            max_concurrency: 1,
            ..ServingConfig::default()
        };
        let mut srv = QueryServer::new(&db, cfg).unwrap();
        let schedule: Vec<ServeRequest> = (0..4u64)
            .map(|i| {
                req(
                    7,
                    Priority::Background,
                    &format!(
                        "SELECT mean(\"busy\") FROM \"cpu\" WHERE time >= {}",
                        i * 1_000_000_000
                    ),
                    i,
                )
            })
            .collect();
        let report = srv.run(&schedule).unwrap();
        assert_eq!(report.rejected, 2);
        let t = report.per_tenant.get(&7).unwrap();
        assert_eq!(t.rejected, 2);
        assert_eq!(t.served, 2);
    }

    #[test]
    fn replay_is_bit_identical() {
        let run = || {
            let db = db();
            let mut srv = QueryServer::new(&db, ServingConfig::default()).unwrap();
            let mut schedule = Vec::new();
            for i in 0..50u64 {
                let tenant = (i % 5) as u32;
                let priority = if i % 3 == 0 {
                    Priority::Background
                } else {
                    Priority::Interactive
                };
                let panel = i % 4;
                schedule.push(req(
                    tenant,
                    priority,
                    &format!(
                        "SELECT mean(\"busy\") FROM \"cpu\" WHERE time >= {} GROUP BY time(10000000000)",
                        panel * 1_000_000_000
                    ),
                    i * 700_000,
                ));
            }
            srv.run(&schedule).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quorum_backend_serves_queries() {
        use pmove_tsdb::{repl::ReplConfig, ReplicaSet};
        let set = ReplicaSet::in_memory("serve-q", ReplConfig::default()).unwrap();
        for s in 0..10i64 {
            let p = Point::new("cpu")
                .timestamp(s * 1_000_000_000)
                .field("busy", 1.0);
            for r in set.replicas() {
                r.write_point(p.clone()).unwrap();
            }
        }
        let mut srv = QueryServer::new(&set, ServingConfig::default()).unwrap();
        let schedule = vec![
            req(
                0,
                Priority::Interactive,
                "SELECT mean(\"busy\") FROM \"cpu\"",
                0,
            ),
            req(
                1,
                Priority::Interactive,
                "SELECT mean(\"busy\") FROM \"cpu\"",
                50_000_000,
            ),
        ];
        let report = srv.run(&schedule).unwrap();
        assert_eq!(report.served, 2);
        assert_eq!(report.cache_hits, 1);
    }

    #[test]
    fn invalid_config_is_refused() {
        let db = db();
        let cfg = ServingConfig {
            queue_capacity: 0,
            ..ServingConfig::default()
        };
        assert!(matches!(
            QueryServer::new(&db, cfg),
            Err(ServeError::ZeroCapacityQueue)
        ));
    }
}
