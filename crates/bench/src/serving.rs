//! Serving-layer load experiment: seeded open-loop Poisson arrivals
//! against the admission-controlled multi-tenant query front-end.
//!
//! Two runs drive the same populated store on the virtual clock, so
//! every number below is bit-identical across machines and reruns:
//!
//! * **steady** — `TENANTS` tenants render the same `PANELS`
//!   dashboard panels at an aggregate arrival rate far above one
//!   backend's sequential scan capacity. The layer survives because
//!   identical panels coalesce onto shared executions and the shared
//!   result cache absorbs repeat scans. Gated on conservation, a
//!   coalescing ratio of at least [`COALESCING_FLOOR`], both latency
//!   classes' p99 under the serving SLO, Jain fairness across tenants,
//!   and the burn-rate engine never leaving `ok`.
//! * **overload** — per-request disjoint time windows defeat both the
//!   cache and coalescing while a background-heavy flood overruns a
//!   deliberately small queue on two execution slots. Admission control
//!   must shed, every shed must land on background traffic, and
//!   interactive p99 must stay under the SLO anyway — that is what the
//!   weighted priority scheduler is for.

use pmove_obs::{AlertState, Registry, SloEngine, SloSpec};
use pmove_serve::{Priority, QueryServer, ServeReport, ServeRequest, ServingConfig, SLO_P99_NS};
use pmove_tsdb::{Database, Point};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Tenants generating load.
pub(crate) const TENANTS: u32 = 64;
/// Distinct dashboard panels (one measurement each).
pub(crate) const PANELS: usize = 8;
/// Steady-run aggregate arrival rate (requests/s of virtual time).
pub(crate) const STEADY_RATE_PER_S: f64 = 1_000_000.0;
/// Steady-run length (virtual ns).
pub(crate) const STEADY_DURATION_NS: u64 = 30_000_000;
/// Overload-run aggregate arrival rate (requests/s of virtual time).
pub(crate) const OVERLOAD_RATE_PER_S: f64 = 200_000.0;
/// Overload-run length (virtual ns).
pub(crate) const OVERLOAD_DURATION_NS: u64 = 20_000_000;
/// Gate: identical panels must coalesce at least this much.
pub const COALESCING_FLOOR: f64 = 4.0;
/// Fixed seed for the arrival process.
pub(crate) const SEED: u64 = 0x5EE7_1E55;

/// One serving run plus its SLO verdict.
#[derive(Debug, Clone)]
pub struct ServingCell {
    /// Run label (`steady`, `overload`).
    pub(crate) label: &'static str,
    /// The layer's own accounting.
    pub report: ServeReport,
    /// Whether the burn-rate engine ever left `ok` when replayed over
    /// the run's latency histogram.
    pub alerted: bool,
}

/// Both runs.
#[derive(Debug, Clone)]
pub struct ServingOutcome {
    /// The coalescing/cache-efficiency run.
    pub steady: ServingCell,
    /// The admission-control run.
    pub overload: ServingCell,
}

/// The store every run queries: [`PANELS`] measurements, 60 s of
/// per-second points from 4 hosts each.
pub(crate) fn build_store() -> Database {
    let db = Database::new("serving-bench");
    for panel in 0..PANELS {
        for s in 0..60i64 {
            for host in 0..4i64 {
                let p = Point::new(format!("panel{panel}"))
                    .timestamp(s * 1_000_000_000 + host)
                    .tag("host", format!("h{host}"))
                    .field(
                        "busy",
                        ((s * 7 + host * 13 + panel as i64 * 3) % 100) as f64,
                    );
                db.write_point(p).unwrap();
            }
        }
    }
    db
}

/// Open-loop Poisson schedule: exponential inter-arrival gaps at
/// `rate_per_s`, tenant and panel drawn uniformly, priority drawn with
/// `interactive_frac`. `mk_query` maps (panel, request index) to query
/// text, so callers choose between shared panels (coalescible) and
/// per-request windows (not).
pub(crate) fn poisson_schedule(
    seed: u64,
    duration_ns: u64,
    rate_per_s: f64,
    interactive_frac: f64,
    mk_query: impl Fn(usize, u64) -> String,
) -> Vec<ServeRequest> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let rate_per_ns = rate_per_s / 1e9;
    let mut schedule = Vec::new();
    let mut t_ns = 0u64;
    let mut i = 0u64;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        let gap = (-(1.0 - u).ln() / rate_per_ns).ceil() as u64;
        t_ns += gap.max(1);
        if t_ns >= duration_ns {
            return schedule;
        }
        let tenant = (rng.next_u64() % u64::from(TENANTS)) as u32;
        let panel = (rng.next_u64() % PANELS as u64) as usize;
        let interactive = rng.gen_range(0.0..1.0) < interactive_frac;
        schedule.push(ServeRequest {
            tenant,
            priority: if interactive {
                Priority::Interactive
            } else {
                Priority::Background
            },
            query: mk_query(panel, i),
            at_ns: t_ns,
        });
        i += 1;
    }
}

/// Replay the run's latency histogram through the burn-rate engine at a
/// handful of post-run evaluation ticks; true when any window fired.
fn slo_alerted(reg: &Arc<Registry>, end_ns: u64) -> bool {
    let mut slo = SloEngine::new();
    slo.add(SloSpec::serving_p99(SLO_P99_NS));
    let snap = reg.snapshot();
    for k in 0..6u64 {
        slo.evaluate(&snap, end_ns + k * 2_000_000_000);
        if slo.state("serving_p99") != Some(AlertState::Ok) {
            return true;
        }
    }
    false
}

/// Steady run: every request is one of the 8 shared panel scans.
pub(crate) fn run_steady(duration_ns: u64) -> ServingCell {
    let db = build_store();
    let cfg = ServingConfig {
        queue_capacity: 1024,
        max_concurrency: 4,
        tenant_rate_per_s: 50_000,
        tenant_burst: 4_000,
        tenant_cap: 256,
    };
    let schedule = poisson_schedule(SEED, duration_ns, STEADY_RATE_PER_S, 0.5, |panel, _| {
        format!("SELECT \"busy\" FROM \"panel{panel}\"")
    });
    let reg = Arc::new(Registry::new());
    let mut srv = QueryServer::new(&db, cfg).unwrap().with_obs(reg.clone());
    let report = srv.run(&schedule).unwrap();
    let alerted = slo_alerted(&reg, report.end_ns);
    ServingCell {
        label: "steady",
        report,
        alerted,
    }
}

/// Overload run: disjoint 10 s windows per request (nothing coalesces,
/// nothing caches), a background-heavy flood, two slots, a small queue.
pub(crate) fn run_overload(duration_ns: u64) -> ServingCell {
    let db = build_store();
    let cfg = ServingConfig {
        queue_capacity: 32,
        max_concurrency: 2,
        tenant_rate_per_s: 50_000,
        tenant_burst: 4_000,
        tenant_cap: 64,
    };
    let schedule = poisson_schedule(
        SEED ^ 0xBAD_10AD,
        duration_ns,
        OVERLOAD_RATE_PER_S,
        0.05,
        |panel, i| {
            // Shift each request's window by its index so every query
            // text (and thus cache key / coalescing key) is unique.
            let lo = (i % 50) * 1_000_000_000 + i;
            let hi = lo + 10_000_000_000;
            format!("SELECT \"busy\" FROM \"panel{panel}\" WHERE time >= {lo} AND time < {hi}")
        },
    );
    let reg = Arc::new(Registry::new());
    let mut srv = QueryServer::new(&db, cfg).unwrap().with_obs(reg.clone());
    let report = srv.run(&schedule).unwrap();
    let alerted = slo_alerted(&reg, report.end_ns);
    ServingCell {
        label: "overload",
        report,
        alerted,
    }
}

/// Run both cells. `scale` shrinks the virtual durations (CI smoke runs
/// pass 0.1; the pinned results use 1.0).
pub fn run(scale: f64) -> ServingOutcome {
    let steady = run_steady((STEADY_DURATION_NS as f64 * scale) as u64);
    let overload = run_overload((OVERLOAD_DURATION_NS as f64 * scale) as u64);
    ServingOutcome { steady, overload }
}

/// Render both runs as one deterministic table plus the gate lines.
pub fn format(out: &ServingOutcome) -> String {
    let mut s =
        String::from("SERVING: open-loop Poisson load over the multi-tenant query front-end\n");
    s.push_str(&format!(
        "{TENANTS} tenants x {PANELS} panels, seeded arrivals on the virtual clock\n",
    ));
    s.push_str(&format!(
        "{:<9} {:>7} {:>7} {:>7} {:>6} {:>6} {:>6} {:>7} {:>7} {:>6} {:>10} {:>10} {:>6} {:>6}\n",
        "run",
        "submit",
        "reject",
        "served",
        "shed",
        "exec",
        "coalX",
        "cache%",
        "fair",
        "peakQ",
        "p99int_us",
        "p99bg_us",
        "errs",
        "alert"
    ));
    for cell in [&out.steady, &out.overload] {
        let r = &cell.report;
        s.push_str(&format!(
            "{:<9} {:>7} {:>7} {:>7} {:>6} {:>6} {:>6.2} {:>7.2} {:>7.4} {:>6} {:>10.1} {:>10.1} {:>6} {:>6}\n",
            cell.label,
            r.submitted,
            r.rejected,
            r.served,
            r.shed,
            r.executions,
            r.coalescing_ratio(),
            100.0 * r.cache_hit_rate(),
            r.fairness_served(),
            r.queue_depth_peak,
            r.interactive.p99_ns as f64 / 1_000.0,
            r.background.p99_ns as f64 / 1_000.0,
            r.errors,
            if cell.alerted { "FIRED" } else { "ok" },
        ));
    }
    let ov = &out.overload.report;
    let bg_sheds = ov
        .shed_events
        .iter()
        .filter(|e| e.priority == Priority::Background)
        .count();
    s.push_str(&format!(
        "overload sheds: {} total, {} background, lowest-priority-only: {}\n",
        ov.shed_events.len(),
        bg_sheds,
        if ov.shed_only_lowest() { "yes" } else { "NO" },
    ));
    s.push_str(&format!(
        "conservation: steady {} overload {}\n",
        if out.steady.report.conserved() {
            "ok"
        } else {
            "VIOLATED"
        },
        if ov.conserved() { "ok" } else { "VIOLATED" },
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_load_coalesces_and_holds_the_slo() {
        let cell = run_steady(STEADY_DURATION_NS);
        let r = &cell.report;
        assert!(r.conserved(), "{r:?}");
        assert_eq!(r.rejected, 0, "steady load must clear admission");
        assert_eq!(r.shed, 0, "steady load must not shed");
        assert_eq!(r.errors, 0);
        assert!(
            r.coalescing_ratio() >= COALESCING_FLOOR,
            "coalescing ratio {:.2} under the {COALESCING_FLOOR}x floor",
            r.coalescing_ratio()
        );
        assert!(
            r.cache_hit_rate() > 0.9,
            "shared panels must ride the result cache: {:.3}",
            r.cache_hit_rate()
        );
        assert!(r.interactive.p99_ns < SLO_P99_NS, "{:?}", r.interactive);
        assert!(r.background.p99_ns < SLO_P99_NS, "{:?}", r.background);
        assert!(!cell.alerted, "steady run must not page");
        assert!(
            r.fairness_served() > 0.95,
            "uniform tenants must be served fairly: {:.4}",
            r.fairness_served()
        );
    }

    #[test]
    fn overload_sheds_background_only_and_protects_interactive() {
        let cell = run_overload(OVERLOAD_DURATION_NS);
        let r = &cell.report;
        assert!(r.conserved(), "{r:?}");
        assert!(r.shed > 0, "the flood must actually overload the queue");
        assert!(
            r.shed_events
                .iter()
                .all(|e| e.priority == Priority::Background),
            "an interactive request was shed"
        );
        assert!(r.shed_only_lowest());
        // Priority scheduling keeps the interactive class inside the SLO
        // even while background floods the queue.
        assert!(r.interactive.count > 0);
        assert!(r.interactive.p99_ns < SLO_P99_NS, "{:?}", r.interactive);
    }

    #[test]
    fn serving_runs_are_deterministic() {
        let a = run(0.2);
        let b = run(0.2);
        assert_eq!(format(&a), format(&b));
        assert_eq!(a.steady.report, b.steady.report);
        assert_eq!(a.overload.report, b.overload.report);
    }
}
