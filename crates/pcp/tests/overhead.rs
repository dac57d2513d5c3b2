//! Instrumentation overhead budget: running the sampling loop with the
//! observability registry attached must cost < 5 % wall-clock. This is the
//! only wall-clock gate in the tree.
//!
//! The two configurations run as [`PAIRS`] back-to-back pairs of short
//! runs ([`RUN_S`] simulated seconds, ~50 ms on a debug build), the order
//! within a pair flipped every pair, and the gate judges the median of
//! the per-pair ratios. The pairs are short because the noise is not: on
//! a shared box a neighbour slows the loop by 30–40 % for a second or two
//! at a time. A pair that fits inside such a stretch cancels it, the few
//! pairs on its edges are outliers the median ignores, and whichever side
//! runs first gains nothing over the whole. Measured on unchanged code on
//! a noisy day, 16 verdicts each: 9 pairs of 60 s runs read 0.951–1.095
//! (two over budget), 108 pairs of 5 s runs 0.988–1.018, in the same wall
//! time.

use pmove_hwsim::network::LinkSpec;
use pmove_hwsim::MachineSpec;
use pmove_obs::Registry;
use pmove_pcp::pmda_linux::LinuxAgent;
use pmove_pcp::{Pmcd, SamplingConfig, SamplingLoop, Shipper};
use pmove_tsdb::Database;
use std::time::{Duration, Instant};

const PAIRS: usize = 99;

/// Simulated seconds per timed run.
const RUN_S: f64 = 5.0;

/// Time `base` and `change` as [`PAIRS`] alternated pairs and hold the
/// median of the per-pair `change / base` ratios to the 5 % budget. A
/// failure prints every timing.
fn assert_within_budget(what: &str, base: impl Fn() -> Duration, change: impl Fn() -> Duration) {
    // Warm-up both paths (allocator, code pages).
    base();
    change();
    let pairs: Vec<(f64, f64)> = (0..PAIRS)
        .map(|i| {
            let (b, c) = if i % 2 == 0 {
                let b = base();
                (b, change())
            } else {
                let c = change();
                (base(), c)
            };
            (b.as_secs_f64() * 1e3, c.as_secs_f64() * 1e3)
        })
        .collect();
    let mut ratios: Vec<f64> = pairs.iter().map(|(b, c)| c / b).collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[PAIRS / 2];
    assert!(
        median < 1.05,
        "{what}: median of {PAIRS} per-pair ratios {median:.4}x, budget is 5%\n\
         (base ms, change ms) in run order, odd pairs ran change first:\n{pairs:.1?}"
    );
}

fn run_once(instrumented: bool) -> Duration {
    let spec = MachineSpec::csl();
    let metrics: Vec<String> = vec![
        "kernel.all.load".into(),
        "kernel.percpu.cpu.idle".into(),
        "kernel.percpu.cpu.user".into(),
        "kernel.percpu.cpu.sys".into(),
        "mem.util.used".into(),
        "mem.util.free".into(),
    ];
    let db = Database::new("host");
    let mut pmcd = Pmcd::new();
    pmcd.register(Box::new(LinuxAgent::new(spec)));
    let mut shipper = Shipper::new(&db, LinkSpec::mbit_100(), 1.0 / 32.0, &["ovh"]);
    if instrumented {
        let reg = Registry::shared();
        shipper = shipper.with_obs(reg.clone());
        pmcd.set_obs(&reg);
    }
    let config = SamplingConfig::new(metrics, 32.0, 0.0, RUN_S);
    let start = Instant::now();
    let report = SamplingLoop::run(&config, &mut pmcd, &mut shipper);
    let elapsed = start.elapsed();
    assert_eq!(report.ticks, 32 * RUN_S as u64);
    elapsed
}

#[test]
fn overhead_stays_bounded() {
    assert_within_budget(
        "instrumented sampler over uninstrumented",
        || run_once(false),
        || run_once(true),
    );
}
