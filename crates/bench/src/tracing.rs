//! End-to-end causal-tracing reproduction: the golden trace tree of a
//! fault-injected replicated run, critical-path attribution and the
//! deterministic SLO alert timeline.
//!
//! Everything derives from the virtual clock and seeded generators, so
//! the rendered report is byte-identical across runs — the
//! `tracing_golden` test pins it. What tracing costs in wall-clock time is
//! gated by `pmove-pcp`'s `overhead` test, nowhere else.

use pmove_core::PMoveDaemon;
use pmove_hwsim::{FaultKind, FaultSchedule};
use pmove_obs::{AlertState, TraceTree};

/// Deterministic outputs of the tracing reproduction.
pub struct TracingReport {
    /// A quorum-write trace from the replicated run (sampler → quorum
    /// fan-out → per-replica WAL group commit + shard ingest).
    pub replicated_tree: String,
    /// Critical path + stage attribution of the replicated trace.
    pub critical_path: String,
    /// Fraction of the replicated trace's latency attributed to named
    /// stages (gate: >= 0.90).
    pub attributed: f64,
    /// Alert timeline from the induced ingest-latency regression.
    pub slo_timeline: String,
    /// Whether the fast-burn window paged on the induced regression.
    pub paged: bool,
}

fn find_tree<'a>(
    trees: &'a [TraceTree],
    status: &str,
    must_contain: &[&str],
) -> Option<&'a TraceTree> {
    trees.iter().find(|t| {
        t.terminal_status() == status
            && must_contain
                .iter()
                .all(|name| t.spans.iter().any(|s| s.name == *name))
    })
}

/// Replicated run with the primary partitioned for the first half of the
/// window: quorum writes continue on the remaining replicas, and the
/// window's (untraced) repair duty brings the primary back up to date.
fn replicated_run() -> (String, String, f64) {
    let mut d = PMoveDaemon::for_preset_replicated("icl", 7).expect("replicated daemon");
    let tracer = d.enable_tracing(4096);
    let mut schedules = vec![FaultSchedule::none(); 3];
    schedules[0] = FaultSchedule::none().with_window(0.0, 5.0, FaultKind::LinkDown);
    let out = d
        .monitor_replicated(10.0, 1.0, Some(schedules))
        .expect("replicated window");
    assert!(
        out.report.transport.conserved(),
        "{:?}",
        out.report.transport
    );
    assert_eq!(tracer.active_count(), 0, "orphaned traces after window");
    let trees = tracer.flight_recorder();
    let tree = find_tree(
        &trees,
        "inserted",
        &[
            "repl.quorum_write",
            "repl.replica_write",
            "store.wal.group_commit",
            "tsdb.shard_ingest",
        ],
    )
    .expect("a quorum write reached the WAL and shards");
    let attributed: f64 = tree.stage_attribution().iter().map(|s| s.fraction).sum();
    (tree.render(), tree.render_critical_path(), attributed)
}

/// Induce an ingest p99 regression after a healthy window and let the
/// fast burn window page. Deterministic: the transition timestamp is a
/// function of the virtual clock only.
fn slo_run() -> (String, bool) {
    let mut d = PMoveDaemon::for_preset("icl").expect("preset daemon");
    d.install_default_slos();
    d.monitor(2.0, 2.0, None);
    d.evaluate_slos();
    let h = d
        .obs
        .histogram("tsdb.ingest_ns", &[], pmove_obs::latency_buckets());
    for _ in 0..500 {
        h.record(2_000_000);
    }
    d.now_s += 1.0;
    let fired = d.evaluate_slos();
    let paged = fired
        .iter()
        .any(|t| t.slo == "ingest_p99" && t.to == AlertState::Page);
    (d.slo_timeline_report(), paged)
}

/// Run the full deterministic reproduction.
pub fn run() -> TracingReport {
    let (replicated_tree, critical_path, attributed) = replicated_run();
    let (slo_timeline, paged) = slo_run();
    TracingReport {
        replicated_tree,
        critical_path,
        attributed,
        slo_timeline,
        paged,
    }
}

/// Render the report.
pub fn format(r: &TracingReport) -> String {
    let mut out = String::new();
    out.push_str("== replicated quorum write: end-to-end trace ==\n");
    out.push_str(&r.replicated_tree);
    out.push('\n');
    out.push_str(&r.critical_path);
    out.push_str(&format!(
        "attribution gate: {:.2}% of latency attributed to named stages (floor 90%)\n",
        r.attributed * 100.0
    ));
    out.push_str("\n== induced ingest p99 regression: alert timeline ==\n");
    out.push_str(&r.slo_timeline);
    out
}
