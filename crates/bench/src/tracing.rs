//! End-to-end causal-tracing reproduction: golden trace trees from
//! fault-injected runs, critical-path attribution and the deterministic
//! SLO alert timeline.
//!
//! Everything derives from the virtual clock and seeded generators, so
//! the rendered report is byte-identical across runs — the
//! `tracing_golden` test pins it. What tracing costs in wall-clock time is
//! gated by `pmove-pcp`'s `overhead` test, nowhere else.

use pmove_core::PMoveDaemon;
use pmove_hwsim::{FaultKind, FaultSchedule};
use pmove_obs::{AlertState, TraceConfig, TraceTree};
use pmove_pcp::ResilienceConfig;

/// Deterministic outputs of the tracing reproduction.
pub struct TracingReport {
    /// A recovered-after-retry trace from the fault-injected resilient
    /// transport run (sampler → attempt → spill park → retry → ingest).
    pub resilient_tree: String,
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

/// Fault-injected resilient run: a 10 s link outage mid-window forces
/// spills; the drain recovers them. Returns the first recovered trace
/// that crossed the retry path.
fn resilient_trace() -> String {
    let mut d = PMoveDaemon::for_preset("icl").expect("preset daemon");
    let tracer = d.enable_tracing(TraceConfig {
        ring_capacity: 4096,
        ..TraceConfig::default()
    });
    let fault = FaultSchedule::none().with_window(10.0, 20.0, FaultKind::LinkDown);
    let report = d.monitor_resilient(40.0, 1.0, Some(ResilienceConfig::default()), Some(fault));
    assert!(report.transport.conserved(), "{:?}", report.transport);
    assert_eq!(tracer.active_count(), 0, "orphaned traces after drain");
    let trees = tracer.flight_recorder();
    let tree = find_tree(&trees, "recovered", &["pcp.retry", "tsdb.ingest"])
        .expect("a spilled report recovered through the retry path");
    tree.render()
}

/// Replicated run with the primary partitioned for the first half of the
/// window: quorum writes continue on the remaining replicas, missed
/// writes park as hints and replay on the heartbeat after recovery.
fn replicated_run() -> (String, String, f64) {
    let mut d = PMoveDaemon::for_preset_replicated("icl", 7).expect("replicated daemon");
    let tracer = d.enable_tracing(TraceConfig {
        ring_capacity: 4096,
        ..TraceConfig::default()
    });
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
    d.monitor(2.0, 2.0);
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
    let resilient_tree = resilient_trace();
    let (replicated_tree, critical_path, attributed) = replicated_run();
    let (slo_timeline, paged) = slo_run();
    TracingReport {
        resilient_tree,
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
    out.push_str("== fault-injected resilient transport: recovered trace ==\n");
    out.push_str(&r.resilient_tree);
    out.push_str("\n== replicated quorum write: end-to-end trace ==\n");
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
