//! Replicated monitoring: quorum writes, failover, and the daemon's own
//! anti-entropy repair through a partition.
//!
//! A 3-replica daemon (RF=3, W=2, R=2) monitors through a schedule that
//! first partitions the primary — forcing a failover while the surviving
//! majority keeps acking quorum writes — and then takes out a second
//! replica so the quorum itself breaks and the daemon degrades to
//! monitor-only. Each window that shows a replica missed a write ends
//! with a Merkle anti-entropy repair, once every replica answers again:
//! window 1 repairs the primary's gap at once (it is back before the
//! window ends), window 2 ends with two replicas down and defers, and
//! window 3 repairs what window 2 left due. The set converges
//! bit-identically with no operator step, and the degradation lifts on
//! its own.
//!
//! Scrubbing is on, so every window also CRC-verifies each replica's
//! store. After window 3 a bit rots in one replica's flushed chunks: the
//! next windows' scrub duty finds and quarantines the chunk and rebuilds
//! the replica from what survived, and the same repair duty refills the
//! hole from its peers.
//!
//! ```sh
//! cargo run --example replicated_monitoring
//! ```

use pmove::core::PMoveDaemon;
use pmove::hwsim::{FaultKind, FaultSchedule};
use pmove::tsdb::repl::RepairReport;
use pmove::tsdb::store::RotSchedule;

/// The window's repair duty, as one line.
fn repair_line(repair: Option<RepairReport>) -> String {
    match repair {
        Some(r) => format!(
            "repair: {} rounds, {} ranges, {} cells streamed, converged {}",
            r.rounds, r.ranges_repaired, r.cells_streamed, r.converged
        ),
        None => "repair: none this window".to_string(),
    }
}

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
    // Every replica is durable: each window ends with a scrub tick of
    // each replica's store, a full pass every 4 s of monitored time.
    println!("scrubbing enabled: {}", daemon.enable_scrubbing(4.0));

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
    println!("{}", repair_line(out.repair));

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
    println!("{}", repair_line(out.repair));

    // Window 3: everything back. The degradation lifts by itself, and the
    // window's repair duty streams the divergent ranges until the
    // replicas are bit-identical.
    let out = daemon
        .monitor_replicated(20.0, 1.0, None)
        .expect("healthy window");
    println!("\n== window 3: replicas recovered ==");
    println!(
        "healthy {}/{}, degraded {}, mode {}",
        out.healthy, set_len, out.degraded, daemon.mode
    );
    println!("{}", repair_line(out.repair));

    // Latent rot: one bit flips in replica 1's flushed chunks. The scrub
    // duty finds it within a window or two; the window that quarantines
    // the chunk rebuilds the replica and, with every replica up, its
    // repair duty refills the hole from the peers.
    let set = daemon.repl.as_ref().unwrap();
    for replica in set.replicas() {
        replica.flush().expect("flush");
    }
    let disk = set.disks()[1].clone();
    let rot_at = daemon.now_s;
    disk.schedule_rot(RotSchedule::none().at(rot_at, 1).with_prefix("chunk-"));
    let fired = disk.advance_rot(rot_at);
    println!("\n== windows 4+: bit rot on r1 ({} flip) ==", fired.len());
    for window in 4..8 {
        let out = daemon
            .monitor_replicated(5.0, 1.0, None)
            .expect("scrubbed window");
        let set = daemon.repl.as_ref().unwrap();
        let quarantined = set.replica(1).store().map_or(0, |s| s.quarantined().len());
        println!(
            "window {window}: r1 chunks quarantined {quarantined}, {}",
            repair_line(out.repair)
        );
        if quarantined > 0 {
            break;
        }
    }

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
