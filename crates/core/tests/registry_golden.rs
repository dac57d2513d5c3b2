//! Pin the whole self-observability registry as Prometheus text — every
//! name, label, count, bucket and exemplar — after two busy daemons:
//! (a) durable `icl`, scrubbing, backing up (one restore drill), rolling
//! up, traced, SLOs installed, through plain and resilient monitoring, a
//! profile, a serving schedule and a self-telemetry export; (b)
//! replicated `skx` with one replica's disk crashed mid-window, then
//! repaired.

use pmove_core::profiles::stream_kernel_profile;
use pmove_core::telemetry::scenario_b::ProfileRequest;
use pmove_core::telemetry::PinningStrategy;
use pmove_core::PMoveDaemon;
use pmove_hwsim::vendor::IsaExt;
use pmove_hwsim::{FaultKind, FaultSchedule};
use pmove_kernels::StreamKernel;
use pmove_obs::TraceConfig;
use pmove_pcp::ResilienceConfig;
use pmove_serve::{Priority, ServeRequest, ServingConfig};
use pmove_tsdb::store::{FaultMode, FaultPlan, MemDisk, ScrubConfig};
use pmove_tsdb::RollupConfig;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/registry.prom");

fn durable_icl() -> String {
    let mut d = PMoveDaemon::for_preset_durable("icl", Arc::new(MemDisk::new(11))).unwrap();
    assert!(d.enable_scrubbing(ScrubConfig {
        full_pass_period_s: 4.0,
        ..ScrubConfig::default()
    }));
    // Three backup generations fit in the monitored time: one drill.
    assert!(d.enable_backups(5.0));
    d.enable_rollups(RollupConfig::default());
    d.enable_tracing(TraceConfig::default());
    d.install_default_slos();
    for _ in 0..3 {
        d.monitor(5.0, 1.0);
    }
    d.ts.flush().unwrap();
    let outage = FaultSchedule::none().with_window(5.0, 15.0, FaultKind::LinkDown);
    d.monitor_resilient(30.0, 1.0, Some(ResilienceConfig::default()), Some(outage));
    d.profile(&ProfileRequest {
        profile: stream_kernel_profile(StreamKernel::Triad, 1 << 30, 4, IsaExt::Avx512),
        command: "triad -n 1073741824 -t 4".into(),
        generic_events: vec!["TOTAL_DP_FLOPS".into(), "RAPL_ENERGY_PKG".into()],
        freq_hz: 4.0,
        pinning: PinningStrategy::Compact,
    })
    .unwrap();
    let panel = "SELECT mean(\"value\") FROM \"kernel_all_load\"";
    let schedule: Vec<ServeRequest> = (0..8u64)
        .map(|i| ServeRequest {
            tenant: (i % 4) as u32,
            priority: if i % 3 == 0 {
                Priority::Background
            } else {
                Priority::Interactive
            },
            query: panel.to_string(),
            at_ns: i * 1_000,
        })
        .collect();
    d.serve_queries(ServingConfig::default(), &schedule)
        .unwrap();
    d.evaluate_slos();
    d.export_self_telemetry();
    let snap = d.obs.snapshot();
    assert_eq!(snap.counter("daemon.drill.runs", &[]), Some(1));
    snap.render_prometheus()
}

fn replicated_skx() -> String {
    let mut d = PMoveDaemon::for_preset_replicated("skx", 7).unwrap();
    d.repl.as_ref().unwrap().disks()[1].schedule_fault(FaultPlan {
        crash_at_op: 40,
        mode: FaultMode::CleanStop,
    });
    d.monitor_replicated(60.0, 8.0, None).unwrap();
    let disk = &d.repl.as_ref().unwrap().disks()[1];
    assert!(disk.crashed());
    disk.restart();
    let repair = d.repair_replicas(8).unwrap();
    assert!(repair.converged && repair.cells_streamed > 0, "{repair:?}");
    d.obs.snapshot().render_prometheus()
}

#[test]
fn registry_of_two_busy_daemons_matches_golden() {
    let rendered = format!(
        "# durable icl\n{}# replicated skx\n{}",
        durable_icl(),
        replicated_skx()
    );
    if rendered != GOLDEN {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("registry.prom");
        std::fs::write(&actual, &rendered).unwrap();
        panic!(
            "registry drifted from crates/core/tests/golden/registry.prom; got {}",
            actual.display()
        );
    }
}
