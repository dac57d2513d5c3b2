//! Chaos-replication experiment: loss vs. replication factor under a
//! fixed partition schedule.
//!
//! The Table III shipping workload runs through the quorum coordinator
//! while replica 0 — the initial primary — is partitioned for a third of
//! the run. Each cell sweeps the replication factor with the majority
//! write quorum `W = RF/2 + 1` and a bounded hint queue, so the curve
//! shows exactly what extra replicas buy: at RF=1 the partition parks
//! every write as a ledger hint until drop-oldest eviction turns the
//! overflow into loss; at RF>=3 the surviving majority keeps acking
//! quorum writes and the partition costs nothing but hint traffic.

use crate::chaos::report;
use pmove_hwsim::{FaultKind, FaultSchedule};
use pmove_pcp::ReplShipper;
use pmove_tsdb::repl::{ReplConfig, ReplicaSet};

/// Experiment duration in virtual seconds.
pub(crate) const DURATION_S: f64 = 60.0;
/// Sampling frequency (samples/s) — below the stale-read-zero threshold.
pub(crate) const FREQ_HZ: f64 = 4.0;
/// Partition window on replica 0 (seconds into the run).
pub(crate) const PARTITION: (f64, f64) = (20.0, 40.0);
/// Instance-domain size per report (a 16-thread icl-style target).
const DOMAIN: usize = 16;
/// Metrics shipped per tick.
const N_METRICS: usize = 4;
/// Bounded per-replica hint queue (field values). The partition offers
/// ~5120 values, so the RF=1 cell must evict.
const HINT_CAPACITY: u64 = 2048;
/// Replication factors swept.
pub(crate) const RF_SWEEP: [usize; 4] = [1, 2, 3, 5];

/// One cell of the loss-vs-RF curve.
#[derive(Debug, Clone)]
pub struct ReplCell {
    /// Replication factor.
    pub rf: usize,
    /// Write quorum (majority of `rf`).
    pub(crate) w: usize,
    /// Field values offered by the sampler.
    pub(crate) offered: u64,
    /// Values acknowledged by a W-quorum (incl. hint-replay graduations).
    pub(crate) inserted: u64,
    /// Values lost outright.
    pub(crate) lost: u64,
    /// Ledger values evicted from a hint queue by drop-oldest overflow.
    pub(crate) evicted: u64,
    /// Hint entries replayed when the replica's heartbeat returned.
    pub(crate) replayed: u64,
    /// Primary promotions after quarantine.
    pub(crate) failovers: u64,
    /// Whether the 6-term conservation identity held.
    pub conserved: bool,
    /// Anti-entropy rounds to bit-identical convergence after the run.
    pub(crate) repair_rounds: u64,
    /// Cells streamed by those rounds.
    pub(crate) cells_streamed: u64,
    /// Whether the replicas converged within the round budget.
    pub converged: bool,
}

impl ReplCell {
    /// Values lost or evicted, as a percentage of offered.
    pub fn loss_pct(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        100.0 * (self.lost + self.evicted) as f64 / self.offered as f64
    }
}

/// Run one cell: the fixed workload at `rf` replicas, primary
/// partitioned for [`PARTITION`], majority write quorum.
pub(crate) fn run_cell(rf: usize) -> ReplCell {
    let w = rf / 2 + 1;
    let cfg = ReplConfig {
        replication_factor: rf,
        write_quorum: w,
        read_quorum: w,
        hint_capacity_values: HINT_CAPACITY,
    };
    let set = ReplicaSet::in_memory("chaosrepl", cfg).unwrap();
    let mut schedules = vec![FaultSchedule::none(); rf];
    schedules[0] = FaultSchedule::none().with_window(PARTITION.0, PARTITION.1, FaultKind::LinkDown);
    let mut coord = ReplShipper::new(&set, schedules, &["chaosrepl", &format!("rf{rf}")]).unwrap();

    let ticks = (DURATION_S * FREQ_HZ) as u64;
    let mut value_seed = 0xC4A0_5EED ^ ticks;
    for tick in 0..ticks {
        let t = tick as f64 / FREQ_HZ;
        coord.heartbeat(t);
        for m in 0..N_METRICS {
            let p = report(m, "chaos", t, DOMAIN, &mut value_seed, 1.0);
            coord.ship(t, p, FREQ_HZ);
        }
    }
    // Idle tail: heartbeats only, so the revived replica replays the
    // hints that survived the bounded queue.
    let mut t = DURATION_S;
    while t <= DURATION_S + 10.0 {
        coord.heartbeat(t);
        t += 0.25;
    }

    let st = coord.stats();
    let repair = set.repair_until_converged(8).unwrap();
    ReplCell {
        rf,
        w,
        offered: st.values_offered,
        inserted: st.values_inserted + st.values_zeroed,
        lost: st.values_lost,
        evicted: st.values_evicted,
        replayed: st.hints_replayed,
        failovers: st.failovers,
        conserved: st.conserved(),
        repair_rounds: repair.rounds,
        cells_streamed: repair.cells_streamed,
        converged: repair.converged,
    }
}

/// Sweep every RF in `RF_SWEEP` under the same schedule and workload.
pub fn run() -> Vec<ReplCell> {
    RF_SWEEP.iter().map(|&rf| run_cell(rf)).collect()
}

/// Render the loss-vs-RF table.
pub fn format(cells: &[ReplCell]) -> String {
    let mut out =
        String::from("REPLICATION: quorum writes under a 20 s primary partition, loss vs. RF\n");
    out.push_str(&format!(
        "{:<5} {:<3} {:>8} {:>8} {:>6} {:>8} {:>9} {:>7} {:>5} {:>7} {:>8} {:>5}\n",
        "RF",
        "W",
        "Offered",
        "Insert",
        "Lost",
        "Evicted",
        "Replayed",
        "Failov",
        "Cons",
        "Loss%",
        "Repair",
        "Conv"
    ));
    for c in cells {
        out.push_str(&format!(
            "{:<5} {:<3} {:>8} {:>8} {:>6} {:>8} {:>9} {:>7} {:>5} {:>7.2} {:>8} {:>5}\n",
            c.rf,
            c.w,
            c.offered,
            c.inserted,
            c.lost,
            c.evicted,
            c.replayed,
            c.failovers,
            if c.conserved { "ok" } else { "VIOL" },
            c.loss_pct(),
            format!("{}r/{}c", c.repair_rounds, c.cells_streamed),
            if c.converged { "yes" } else { "NO" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_replication_beats_the_single_node_baseline() {
        let cells = run();
        let rf1 = cells.iter().find(|c| c.rf == 1).unwrap();
        let rf3 = cells.iter().find(|c| c.rf == 3).unwrap();
        for c in &cells {
            assert!(c.conserved, "rf={}: conservation violated", c.rf);
            assert!(c.converged, "rf={}: replicas did not converge", c.rf);
            assert_eq!(c.offered, rf1.offered, "same workload everywhere");
        }
        assert!(
            rf1.lost + rf1.evicted > 0,
            "the partition must actually hurt the single node"
        );
        assert!(
            rf3.loss_pct() < rf1.loss_pct(),
            "RF=3/W=2 must lose strictly less than RF=1 ({} vs {})",
            rf3.loss_pct(),
            rf1.loss_pct()
        );
        assert_eq!(rf3.lost + rf3.evicted, 0, "majority quorum loses nothing");
        assert!(rf1.failovers == 0, "single node has nowhere to fail over");
        assert!(rf3.failovers > 0, "partitioned primary must be failed over");
    }

    #[test]
    fn replication_cells_are_deterministic() {
        let a = run_cell(3);
        let b = run_cell(3);
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.inserted, b.inserted);
        assert_eq!(a.lost, b.lost);
        assert_eq!(a.evicted, b.evicted);
        assert_eq!(a.replayed, b.replayed);
        assert_eq!(a.cells_streamed, b.cells_streamed);
    }
}
