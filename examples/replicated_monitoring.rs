//! Replicated monitoring: quorum writes, hinted handoff, and
//! anti-entropy repair through a partition.
//!
//! A 3-replica daemon (RF=3, W=2, R=2) monitors through a schedule that
//! first partitions the primary — forcing a failover while the surviving
//! majority keeps acking quorum writes — and then takes out a second
//! replica so the quorum itself breaks and the daemon degrades to
//! monitor-only. When the replicas return, hint replay plus Merkle
//! anti-entropy converge the set bit-identically, and the degradation
//! lifts on its own.
//!
//! ```sh
//! cargo run --example replicated_monitoring
//! ```

use pmove::core::PMoveDaemon;
use pmove::hwsim::{FaultKind, FaultSchedule};

fn main() {
    let mut daemon = PMoveDaemon::for_preset_replicated("icl", 42).expect("replicated boot");
    let set_len = daemon.repl.as_ref().expect("replica set").len();
    println!("== replicated boot ==");
    println!(
        "replicas {} (recovered {} reports), mode {}",
        set_len,
        daemon.repl_recovery.len(),
        daemon.mode
    );

    // Window 1: the primary (replica 0) is partitioned for the middle of
    // the run. W=2 of 3 stays reachable, so the coordinator fails over
    // and nothing is lost.
    let mut schedules = vec![FaultSchedule::none(); set_len];
    schedules[0] = FaultSchedule::none().with_window(10.0, 50.0, FaultKind::LinkDown);
    let out = daemon
        .monitor_replicated(60.0, 1.0, Some(schedules))
        .expect("replicated window");
    println!("\n== window 1: primary partitioned ==");
    println!(
        "offered {} inserted {} lost {} hinted {} replayed {} failovers {}",
        out.report.transport.values_offered,
        out.report.transport.values_inserted + out.report.transport.values_zeroed,
        out.report.transport.values_lost,
        out.report.transport.values_hinted,
        out.report.transport.hints_replayed,
        out.report.transport.failovers,
    );
    println!(
        "primary now r{}, healthy {}/{}, degraded {}, conserved {}",
        out.primary,
        out.healthy,
        set_len,
        out.degraded,
        out.report.transport.conserved(),
    );

    // Window 2: two replicas down through the end of the window — the
    // write quorum is unreachable, so the daemon drops to monitor-only.
    let mut schedules = vec![FaultSchedule::none(); set_len];
    schedules[1] = FaultSchedule::none().with_window(0.0, 100.0, FaultKind::LinkDown);
    schedules[2] = FaultSchedule::none().with_window(0.0, 100.0, FaultKind::LinkDown);
    let out = daemon
        .monitor_replicated(20.0, 1.0, Some(schedules))
        .expect("degraded window");
    println!("\n== window 2: quorum unreachable ==");
    println!(
        "healthy {}/{}, degraded {}, mode: {}",
        out.healthy, set_len, out.degraded, daemon.mode
    );

    // Window 3: everything back. The degradation lifts by itself, and a
    // repair pass streams the divergent ranges until the replicas are
    // bit-identical.
    let out = daemon
        .monitor_replicated(20.0, 1.0, None)
        .expect("healthy window");
    println!("\n== window 3: replicas recovered ==");
    println!(
        "healthy {}/{}, degraded {}, mode {}",
        out.healthy, set_len, out.degraded, daemon.mode
    );
    let repair = daemon.repair_replicas(8).expect("anti-entropy");
    println!(
        "repair: {} rounds, {} ranges, {} cells streamed, converged {}",
        repair.rounds, repair.ranges_repaired, repair.cells_streamed, repair.converged
    );

    // Convergence audit: every replica answers the same query with the
    // same bits, and the R-quorum read agrees.
    println!("\n== convergence audit ==");
    let q = "SELECT mean(\"value\") FROM \"kernel_all_load\"";
    let quorum = daemon.quorum_query(q).expect("quorum read");
    let set = daemon.repl.as_ref().unwrap();
    let bits: Vec<Vec<Option<u64>>> = (0..set.len())
        .map(|i| {
            set.replica(i)
                .query(q)
                .expect("replica read")
                .rows
                .iter()
                .map(|r| r.values["mean(value)"].map(f64::to_bits))
                .collect()
        })
        .collect();
    let identical = bits.windows(2).all(|w| w[0] == w[1]);
    println!(
        "replicas bit-identical: {identical}; quorum mean rows: {}",
        quorum.rows.len()
    );

    // The self-dashboard grew a replication panel.
    let dash = daemon.self_dashboard();
    for p in &dash.panels {
        if p.title == "replication" {
            println!(
                "dashboard panel '{}' with {} targets",
                p.title,
                p.targets.len()
            );
        }
    }
}
