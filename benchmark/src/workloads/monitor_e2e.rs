//! `monitor_e2e` — the ROADMAP scenario, PMU read to rendered panel.
//!
//! Set-up boots `PMoveDaemon::for_preset_replicated("skx", seed)` (probe,
//! KB build, KB insert, RF=3 / W=2 durable replicas on default store
//! options) and pins a seed-chosen background load. The measured phase of
//! an episode is one window of `monitor_replicated(60.0, 8.0, None)` —
//! sampler → quorum coordinator → three WALs — followed by six dashboard
//! refreshes (an
//! operator's dashboard on a 10 s refresh interval): `gen::subtree_dashboard
//! (socket0)` and `gen::level_dashboard("thread")` generated from the KB and
//! rendered with `render::render_dashboard` against the primary replica;
//! 704 + 1,408 targets, of which the SW-telemetry ones have data and the
//! HW-counter ones render empty.
//!
//! Chosen because it is the only workload where `pcp` (sampler, transport,
//! quorum coordinator) and `core` (KB, dashboard generation, rendering) do
//! most of the work; the store and the executor each do a little.
//!
//! Every run has to report every end-to-end metric, so after the checks,
//! outside the measured phase, the targets of one refresh that have data
//! are issued one by one through `query_parsed` on the primary, six times
//! three passes (the per-query latencies), and every replica's disk is
//! crashed and reopened twice over and compared cell by cell with a healthy
//! one.
#![forbid(unsafe_code)]

use crate::gen;
use crate::harness::{Ops, Run, Scale, Workload, MEASURED_SPAN};
use crate::layers::{self, Layers};
use crate::stats;
use crate::trace::{Tracer, NO_SPAN};
use pmove_core::dashboard::model::Dashboard;
use pmove_core::dashboard::{gen as dash, render};
use pmove_core::kb::{builder, store as kb_store, KnowledgeBase};
use pmove_core::probe::ProbeReport;
use pmove_core::telemetry::scenario_a::default_sw_metrics;
use pmove_core::PMoveDaemon;
use pmove_hwsim::network::LinkSpec;
use pmove_hwsim::{FaultSchedule, Machine};
use pmove_pcp::pmda_linux::LinuxAgent;
use pmove_pcp::pmda_proc::{ProcAgent, TrackedProcess};
use pmove_pcp::{Pmcd, ReplShipper, Shipper};
use pmove_store::StoreOptions;
use pmove_tsdb::query::Projection;
use pmove_tsdb::repl::ReplConfig;
use pmove_tsdb::{Database, ExecMode, Point, Query, ReplicaSet};
use rand::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const PRESET: &str = "skx";
/// Sampling frequency of the monitoring windows.
const FREQ_HZ: f64 = 8.0;
/// Monitoring windows per episode.
const WINDOWS: usize = 1;
/// Seconds of monitoring per window.
const WINDOW_S: usize = 60;
/// Dashboard refreshes after each window.
const REFRESHES: usize = 6;
/// Times the targets of one refresh are issued one by one afterwards: six
/// groups of three passes, each group an extra measurement of its own.
const QUERY_GROUPS: usize = 6;
const PASSES_PER_GROUP: usize = 3;
/// Times every replica is crashed and reopened.
const RECOVER_ROUNDS: usize = 2;
/// Threads given a pinned background load.
const BUSY_THREADS: usize = 4;

/// The workload.
pub struct MonitorE2e {
    seed: u64,
    busy: Vec<(u32, f64)>,
    window_s: f64,
    daemon: Option<PMoveDaemon>,
}

impl MonitorE2e {
    /// Choose the background load for `seed`.
    pub fn new(seed: u64, scale: Scale) -> MonitorE2e {
        let mut rng = gen::rng(seed, 0x0B51);
        let threads = Machine::preset(PRESET).map_or(1, |m| m.spec.total_threads());
        let busy = (0..BUSY_THREADS)
            .map(|_| {
                (
                    rng.gen_range(0..threads),
                    (rng.gen_range(0.2..0.9f64) * 100.0).round() / 100.0,
                )
            })
            .collect();
        MonitorE2e {
            seed,
            busy,
            window_s: scale.of(WINDOW_S, 2) as f64,
            daemon: None,
        }
    }

    fn boot(&self) -> Result<PMoveDaemon, pmove_core::PmoveError> {
        let mut daemon = PMoveDaemon::for_preset_replicated(PRESET, self.seed)?;
        daemon.set_background_load(&self.busy);
        Ok(daemon)
    }
}

/// The subtree and level dashboards of one refresh.
fn dashboards(kb: &KnowledgeBase) -> Option<(Dashboard, Dashboard)> {
    let socket0 = kb.by_name("socket0")?.id.clone();
    Some((
        dash::subtree_dashboard(kb, &socket0)?,
        dash::level_dashboard(kb, "thread")?,
    ))
}

/// The query `render_panel` issues for one target.
fn target_queries(d: &Dashboard) -> Vec<Query> {
    d.panels
        .iter()
        .flat_map(|p| &p.targets)
        .map(|t| Query {
            projections: vec![Projection::Field(t.params.clone())],
            measurement: t.measurement.clone(),
            tag_filters: Vec::new(),
            time_start: None,
            time_end: None,
            group_by_time: None,
        })
        .collect()
}

/// Stored cells per (measurement, field), counted by walking storage —
/// a path independent of the query engine the renderer goes through.
fn cells_per_field(db: &Database) -> BTreeMap<(String, String), u64> {
    let mut counts = BTreeMap::new();
    db.for_each_cell(&mut |key, _, field, _| {
        *counts
            .entry((key.measurement.clone(), field.to_string()))
            .or_insert(0) += 1;
    });
    counts
}

/// Every rendered target line must report as many samples (`n=`) as the
/// target's field has stored cells; a target nothing was sampled for (the
/// HW-counter panels, which only scenario B fills) must render without one.
fn check_rendered(
    text: &str,
    d: &Dashboard,
    cells: &BTreeMap<(String, String), u64>,
    ops: &mut Ops,
) {
    let mut lines = text.lines();
    lines.next(); // dashboard title
    for p in &d.panels {
        lines.next(); // panel title
        for t in &p.targets {
            let want = cells
                .get(&(t.measurement.clone(), t.params.clone()))
                .copied()
                .unwrap_or(0);
            let got = lines
                .next()
                .and_then(|l| l.rsplit_once("n=")?.1.trim().parse::<u64>().ok())
                .unwrap_or(0);
            ops.check(got == want, || {
                format!(
                    "{}/{}: rendered n={got}, stored {want}",
                    t.measurement, t.params
                )
            });
        }
    }
}

impl Workload for MonitorE2e {
    fn name(&self) -> &'static str {
        "monitor_e2e"
    }

    fn setup(&mut self, _observed: bool, _run: &mut Run, ops: &mut Ops) -> Option<f64> {
        self.daemon = None;
        let t = Instant::now();
        let booted = self.boot();
        let spent = t.elapsed().as_secs_f64();
        self.daemon = ops.call("boot", booted);
        Some(spent)
    }

    fn measure(&mut self, tr: &mut Tracer, run: &mut Run, ops: &mut Ops) {
        let Some(mut daemon) = self.daemon.take() else {
            return;
        };
        let (mut offered, mut acks) = (0u64, 0u64);
        let mut conserved = true;
        // The last refresh of each window, to be checked after the clock
        // has stopped: (primary, dashboards, rendered texts).
        let mut rendered = Vec::new();

        let root = tr.open(MEASURED_SPAN, NO_SPAN, 0);
        for w in 0..WINDOWS as u64 {
            let (out, s) = tr.time("pcp.monitor_replicated", root.id(), w, || {
                daemon.monitor_replicated(self.window_s, FREQ_HZ, None)
            });
            run.write_s += s;
            let set = daemon.repl.as_ref().expect("booted replicated");
            let mut primary = 0;
            if let Some(out) = ops.call("monitor_replicated", out) {
                let ledger = out.report.transport;
                ops.check(ledger.conserved() && !out.degraded, || {
                    format!("window {w}: {ledger:?}")
                });
                conserved &= ledger.conserved();
                run.values_acked += ledger.values_inserted;
                offered += ledger.values_offered;
                acks += ledger.replica_acks;
                primary = out.primary;
            }
            for r in 0..REFRESHES as u64 {
                let op = w * REFRESHES as u64 + r;
                let refresh = tr.open("dashboard.refresh", root.id(), op);
                let (made, _) = tr.time("core.dashboard.gen", refresh.id(), op, || {
                    dashboards(&daemon.kb)
                });
                let (subtree, level) = made.expect("the skx KB has a socket0 and threads");
                let mut texts = Vec::new();
                for d in [&subtree, &level] {
                    let (text, s) = tr.time("core.dashboard.render", refresh.id(), op, || {
                        render::render_dashboard(set.replica(primary), d, None)
                    });
                    run.read_s += s;
                    run.queries += d.target_count() as u64;
                    texts.push(text);
                }
                run.refresh_ms.push(tr.close(refresh) * 1e3);
                if r + 1 == REFRESHES as u64 {
                    rendered.push((primary, subtree, level, texts));
                }
            }
        }
        run.wall_s = tr.close(root);
        run.values_stored = run.values_acked;

        let set = daemon.repl.as_ref().expect("booted replicated");
        ops.check(set.converged(), || "replicas did not converge".into());
        // Only the last window's refresh can be checked against storage:
        // an earlier one rendered a state that has since grown.
        if let Some((primary, subtree, level, texts)) = rendered.last() {
            let cells = cells_per_field(set.replica(*primary));
            check_rendered(&texts[0], subtree, &cells, ops);
            check_rendered(&texts[1], level, &cells, ops);
            run.layer.insert(
                "core.dashboard.targets",
                (subtree.target_count() + level.target_count()) as f64,
            );

            // Not what this workload is for: per-query latencies, of the
            // targets something was sampled for.
            let db = set.replica(*primary);
            let sampled = db.measurements();
            let mut reads = target_queries(subtree);
            reads.extend(target_queries(level));
            reads.retain(|q| sampled.contains(&q.measurement));
            for _ in 0..QUERY_GROUPS {
                let mut group = Run::default();
                for q in reads.iter().cycle().take(PASSES_PER_GROUP * reads.len()) {
                    let t = Instant::now();
                    let r = db.query_parsed(q);
                    group.query_us.push(t.elapsed().as_secs_f64() * 1e6);
                    ops.call("target query", r);
                }
                run.extras.push(group);
            }
        }
        run.durable_bytes = set.disks()[0].durable_bytes();
        let usage = set.disks()[0].usage();

        // Nor for this: recovery. The live replica object still exists
        // inside the set; only the disk is crashed and a second handle
        // opened over it.
        let healthy = cells_per_field(set.replica(0));
        for _ in 0..RECOVER_ROUNDS {
            for (i, disk) in set.disks().iter().enumerate() {
                disk.restart();
                let t = Instant::now();
                let reopened = Database::open(
                    format!("{}-r{i}", set.name()),
                    disk.clone(),
                    StoreOptions::default(),
                );
                run.recover_s.push(t.elapsed().as_secs_f64());
                if let Some((db, _)) = ops.call("reopen replica", reopened) {
                    ops.check(
                        cells_per_field(&db) == healthy
                            && db.cell_count() == set.replica(0).cell_count(),
                        || format!("replica {i} lost acknowledged cells across the crash"),
                    );
                }
            }
        }

        run.layer
            .insert("pcp.sampler.values_offered", offered as f64);
        run.layer
            .insert("pcp.replication.replica_acks", acks as f64);
        run.layer
            .insert("pcp.replication.conserved", f64::from(u8::from(conserved)));
        layers::device(&usage, run.values_stored, &mut run.layer);
    }

    fn layers(&mut self, tr: &Tracer, _traced: &[Run], out: &mut Layers) {
        let (gen_s, gens, _) = tr.total("core.dashboard.gen");
        out.insert("core.dashboard.gen_ms", gen_s * 1e3 / gens as f64);

        // hwsim / core.kb / docdb / jsonld: the boot steps one by one.
        let machine = Machine::preset(PRESET).expect("preset exists");
        let median_ms = |f: &mut dyn FnMut()| {
            let samples: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            stats::median(&samples)
        };
        out.insert(
            "hwsim.probe_ms",
            median_ms(&mut || drop(black_box(ProbeReport::collect(&machine)))),
        );
        let report = ProbeReport::collect(&machine);
        out.insert(
            "core.kb.build_ms",
            median_ms(&mut || drop(black_box(builder::build_kb(&report)))),
        );
        let kb = builder::build_kb(&report).expect("probe report of a preset builds");
        out.insert(
            "docdb.insert_kb_ms",
            median_ms(&mut || {
                let doc = pmove_docdb::Database::new("supertwin");
                drop(black_box(kb_store::insert_kb(&doc, &kb)));
            }),
        );
        out.insert(
            "jsonld.serialize_kb_ms",
            median_ms(&mut || {
                for i in &kb.interfaces {
                    black_box(pmove_jsonld::serialize::interface_to_json(i).to_string());
                }
            }),
        );

        // pcp.sampler: the collectors alone over one window's ticks. The
        // agent set mirrors what scenario A configures for a CPU-only host.
        let mut pmcd = Pmcd::new();
        let mut linux = LinuxAgent::new(machine.spec.clone());
        linux.state_mut().set_kernel_busy(&self.busy);
        pmcd.register(Box::new(linux));
        pmcd.register(Box::new(ProcAgent::new(vec![TrackedProcess {
            name: "pmcd".into(),
            utime_per_s: 0.002,
            stime_per_s: 0.001,
            rss_bytes: 9.0e6,
            lifetime: None,
        }])));
        let declared: Vec<&str> = kb
            .interfaces
            .iter()
            .flat_map(|i| i.telemetry())
            .filter(|t| t.kind == pmove_jsonld::TelemetryKind::Software)
            .map(|t| t.sampler_name.as_str())
            .collect();
        let metrics: Vec<String> = default_sw_metrics()
            .into_iter()
            .filter(|m| declared.contains(&m.as_str()))
            .collect();
        let ticks = (self.window_s * FREQ_HZ) as usize;
        let mut per_tick: Vec<(f64, Vec<Point>)> = Vec::with_capacity(ticks);
        let mut fetch_s = 0.0;
        let mut t_prev = 0.0;
        for tick in 0..ticks {
            let t_now = (tick + 1) as f64 / FREQ_HZ;
            let t = Instant::now();
            let points = pmcd.fetch_all(&metrics, t_prev, t_now);
            fetch_s += t.elapsed().as_secs_f64();
            per_tick.push((t_now, points));
            t_prev = t_now;
        }
        let values: usize = per_tick
            .iter()
            .flat_map(|(_, p)| p)
            .map(Point::field_count)
            .sum();
        out.insert(
            "pcp.sampler.fetch_ns_per_value",
            fetch_s * 1e9 / values as f64,
        );

        // tsdb.engine, row at a time: the layer beneath both shippers.
        let plain = Database::new("replay");
        let mut write_s = 0.0;
        for (_, points) in &per_tick {
            for p in points.iter().cloned() {
                let t = Instant::now();
                drop(black_box(plain.write_point(p)));
                write_s += t.elapsed().as_secs_f64();
            }
        }
        let points: usize = per_tick.iter().map(|(_, p)| p.len()).sum();
        out.insert(
            "tsdb.engine.write_point_ns_per_point",
            write_s * 1e9 / points as f64,
        );

        // pcp.transport: the single-node shipper minus that replay.
        let target = Database::new("replay");
        let mut shipper = Shipper::new(
            &target,
            LinkSpec::mbit_100(),
            1.0 / FREQ_HZ,
            &[PRESET, "benchmark"],
        );
        let mut ship_s = 0.0;
        for (t_now, points) in &per_tick {
            for p in points.iter().cloned() {
                let t = Instant::now();
                black_box(shipper.ship(*t_now, p, FREQ_HZ));
                ship_s += t.elapsed().as_secs_f64();
            }
        }
        let ledger = shipper.stats();
        out.insert(
            "pcp.transport.ship_self_ns_per_value",
            (ship_s - write_s) * 1e9 / values as f64,
        );
        out.insert("pcp.transport.values_lost", ledger.values_lost as f64);
        out.insert("pcp.transport.values_zeroed", ledger.values_zeroed as f64);

        // pcp.replication: the quorum coordinator over in-memory replicas
        // minus RF row-at-a-time replica writes.
        let cfg = ReplConfig::default();
        let set = ReplicaSet::in_memory("replay", cfg).expect("default quorum config is valid");
        let mut coord = ReplShipper::new(
            &set,
            vec![FaultSchedule::none(); set.len()],
            &[PRESET, "benchmark"],
        )
        .expect("one schedule per replica");
        let mut quorum_s = 0.0;
        for (t_now, points) in &per_tick {
            let t = Instant::now();
            coord.heartbeat(*t_now);
            quorum_s += t.elapsed().as_secs_f64();
            for p in points.iter().cloned() {
                let t = Instant::now();
                black_box(coord.ship(*t_now, p, FREQ_HZ));
                quorum_s += t.elapsed().as_secs_f64();
            }
        }
        out.insert(
            "pcp.replication.ship_self_ns_per_value",
            (quorum_s - cfg.replication_factor as f64 * write_s) * 1e9 / values as f64,
        );

        // tsdb.repl and core.dashboard: one more daemon brought to the
        // state the first refresh sees, then the same queries three ways.
        let mut daemon = self.boot().expect("daemon boots");
        let window = daemon
            .monitor_replicated(self.window_s, FREQ_HZ, None)
            .expect("window runs");
        let set = daemon.repl.as_ref().expect("daemon is replicated");
        let primary = set.replica(window.primary);
        let (subtree, level) = dashboards(&daemon.kb).expect("dashboards generate");
        let reachable = vec![true; set.len()];
        let mode = ExecMode::default();
        let (mut quorum_s, mut single_s, mut render_s, mut replay_s) = (0.0, 0.0, 0.0, 0.0);
        let sampled = primary.measurements();
        let mut reads = target_queries(&subtree);
        reads.extend(target_queries(&level));
        for q in reads.iter().filter(|q| sampled.contains(&q.measurement)) {
            let t = Instant::now();
            drop(black_box(set.quorum_read_with_mode(q, &reachable, mode)));
            quorum_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            drop(black_box(primary.query_with_mode(q, mode)));
            single_s += t.elapsed().as_secs_f64();
        }
        out.insert("tsdb.repl.quorum_read_over_single", quorum_s / single_s);
        let mut targets = 0usize;
        for d in [&subtree, &level] {
            let t = Instant::now();
            black_box(render::render_dashboard(primary, d, None));
            render_s += t.elapsed().as_secs_f64();
            for q in &target_queries(d) {
                let t = Instant::now();
                drop(black_box(primary.query_parsed(q)));
                replay_s += t.elapsed().as_secs_f64();
            }
            targets += d.target_count();
        }
        out.insert(
            "core.dashboard.render_self_ns_per_target",
            (render_s - replay_s) * 1e9 / targets as f64,
        );
    }
}
