//! Integrity experiment: latent bit-rot vs. the background scrubber.
//!
//! The replicated shipping workload runs fault-free over durable RF=3
//! replicas, periodic flushes spread the data over several chunks per
//! replica, then a seeded rot schedule flips bits inside one replica's
//! chunk namespace. A token-bucket-paced scrub sweep runs for exactly one
//! full-pass period: the gate is that every rotted chunk is detected and
//! quarantined within that single pass, read-repair restores the victim
//! bit-identically from the healthy quorum, and the widened conservation
//! ledger balances with nothing left pending. The zero-flip control must
//! verify the whole store while quarantining nothing and moving zero
//! repair traffic — scrubbing a healthy store is free.

use crate::chaos::report;
use pmove_hwsim::FaultSchedule;
use pmove_pcp::ReplShipper;
use pmove_tsdb::repl::{IntegrityReport, ReplConfig, ReplicaSet};
use pmove_tsdb::store::{RotSchedule, ScrubConfig, StoreOptions};
use pmove_tsdb::{Database, ExecMode, Query};

/// Experiment duration in virtual seconds.
pub const DURATION_S: f64 = 20.0;
/// Sampling frequency (samples/s) — below the stale-read-zero threshold.
pub const FREQ_HZ: f64 = 4.0;
/// Instance-domain size per report.
const DOMAIN: usize = 8;
/// Metrics shipped per tick.
const N_METRICS: usize = 2;
/// Flush cadence in ticks: several chunks per replica, so rot can land in
/// any generation of durable data.
const FLUSH_EVERY: u32 = 16;
/// Replica whose disk rots (RF − W = 1 victim budget).
const VICTIM: usize = 1;
/// Target period for one full scrub pass, in virtual seconds.
pub const SCRUB_PERIOD_S: f64 = 8.0;
/// Scrub tick cadence during the sweep.
const SCRUB_TICK_S: f64 = 0.25;
/// Rot-event counts swept (0 = no-fault control).
pub const FLIP_SWEEP: [u32; 4] = [0, 1, 4, 8];

/// One cell of the detection/repair table.
#[derive(Debug, Clone)]
pub struct ScrubCell {
    /// Rot events fired at the victim's disk.
    pub flips: u32,
    /// Distinct chunk files the flips landed in.
    pub chunks_rotted: u64,
    /// Chunks the scrub pass quarantined.
    pub chunks_quarantined: u64,
    /// Whether every rotted chunk was quarantined within ONE full pass.
    pub detected_within_pass: bool,
    /// Bytes the sweep read and checksummed.
    pub bytes_verified: u64,
    /// Field values the quarantines dropped from the victim.
    pub cells_corrupted: u64,
    /// Field values read-repair restored from the healthy quorum.
    pub cells_repaired: u64,
    /// Corrupted-but-unrepaired values left in the ledger (should be 0).
    pub corrupt_pending: u64,
    /// Merkle ranges anti-entropy streamed during the sweep.
    pub ranges_repaired: u64,
    /// Whether the widened 8-term conservation identity held.
    pub conserved: bool,
    /// Whether quorum reads match the uncorrupted oracle bit-for-bit.
    pub bit_identical: bool,
    /// Whether the replicas converged by the end of the sweep.
    pub converged: bool,
}

/// Run one cell: fault-free shipping, `flips` rot events on the victim,
/// one full scrub pass, then the oracle comparison.
pub fn run_cell(flips: u32) -> ScrubCell {
    let oracle = Database::new("oracle");
    let (set, _) = ReplicaSet::durable(
        "scrubbench",
        ReplConfig::default(),
        0x5C12_B5EE ^ flips as u64,
        StoreOptions {
            flush_threshold_rows: 1_000_000,
            compact_min_chunks: 1_000_000,
        },
    )
    .unwrap();
    let schedules = vec![FaultSchedule::none(); set.len()];
    let mut coord =
        ReplShipper::new(&set, schedules, &["scrubbench", &format!("f{flips}")]).unwrap();

    let ticks = (DURATION_S * FREQ_HZ) as u32;
    let mut value_seed = 0x0DD5_C4AB ^ flips as u64;
    for tick in 0..ticks {
        let t = (tick + 1) as f64 / FREQ_HZ;
        coord.heartbeat(t);
        for m in 0..N_METRICS {
            let p = report(m, "scrub", t, DOMAIN, &mut value_seed, 7.0);
            oracle.write_point(p.clone()).unwrap();
            coord.ship(t, p, FREQ_HZ);
        }
        if (tick + 1) % FLUSH_EVERY == 0 {
            for r in set.replicas() {
                r.flush().unwrap();
            }
        }
    }
    for r in set.replicas() {
        r.flush().unwrap();
    }

    // Latent rot while "running": the schedule fires inside the monitored
    // window, the flips apply to already-durable chunk bytes.
    let rot = RotSchedule::random(0xB17F_11B5 ^ flips as u64, flips, 0.0, DURATION_S)
        .with_prefix("chunk-");
    set.disks()[VICTIM].schedule_rot(rot);
    let fired = set.disks()[VICTIM].advance_rot(DURATION_S + 0.5);
    let mut rotted_files: Vec<&str> = fired.iter().map(|r| r.file.as_str()).collect();
    rotted_files.sort_unstable();
    rotted_files.dedup();
    let chunks_rotted = rotted_files.len() as u64;

    // Exactly one full scrub pass: the detection gate.
    let mut scrubbers = set.scrubbers(ScrubConfig {
        full_pass_period_s: SCRUB_PERIOD_S,
        burst_bytes: 4096.0,
    });
    let mut total = IntegrityReport::default();
    let mut converged = true;
    let t0 = DURATION_S + 1.0;
    let mut t = t0;
    while t <= t0 + SCRUB_PERIOD_S {
        let r = coord.scrub_and_repair(&mut scrubbers, t, 4).unwrap();
        converged &= r.converged;
        total.bytes_verified += r.bytes_verified;
        total.chunks_quarantined += r.chunks_quarantined;
        total.cells_corrupted += r.cells_corrupted;
        total.cells_repaired += r.cells_repaired;
        total.repair.ranges_repaired += r.repair.ranges_repaired;
        t += SCRUB_TICK_S;
    }

    // Oracle comparison: R-quorum reads vs the uncorrupted single node.
    let reachable = coord.reachable();
    let mut bit_identical = true;
    for m in 0..N_METRICS {
        let cols: Vec<String> = (0..DOMAIN).map(|i| format!("\"_cpu{i}\"")).collect();
        let text = format!(
            "SELECT {} FROM \"perfevent_hwcounters_m{m}\"",
            cols.join(", ")
        );
        let q = Query::parse(&text).unwrap();
        let want = oracle.query_with_mode(&q, ExecMode::Sequential).unwrap();
        let got = set
            .quorum_read_with_mode(&q, &reachable, ExecMode::Parallel(4))
            .unwrap();
        bit_identical &= want.rows.len() == got.rows.len();
        for (a, b) in want.rows.iter().zip(&got.rows) {
            bit_identical &= a.timestamp == b.timestamp;
            for (col, va) in &a.values {
                bit_identical &=
                    va.map(f64::to_bits) == b.values.get(col).and_then(|v| v.map(f64::to_bits));
            }
        }
    }

    let st = coord.stats();
    // Count every quarantine on the victim, whatever detected it: the
    // scrub tick that caught the first damaged chunk, or the rebuild's
    // store scan that caught the rest in the same sweep.
    let chunks_quarantined = set
        .replica(VICTIM)
        .store()
        .map_or(0, |s| s.quarantined().len()) as u64;
    ScrubCell {
        flips,
        chunks_rotted,
        chunks_quarantined,
        detected_within_pass: chunks_quarantined >= chunks_rotted,
        bytes_verified: total.bytes_verified,
        cells_corrupted: total.cells_corrupted,
        cells_repaired: total.cells_repaired,
        corrupt_pending: st.values_corrupt_pending,
        ranges_repaired: total.repair.ranges_repaired,
        conserved: st.conserved(),
        bit_identical,
        converged,
    }
}

/// Sweep every flip count in [`FLIP_SWEEP`] under the same workload.
pub fn run() -> Vec<ScrubCell> {
    FLIP_SWEEP.iter().map(|&f| run_cell(f)).collect()
}

/// Render the detection/repair table.
pub fn format(cells: &[ScrubCell]) -> String {
    let mut out = String::from(
        "SCRUB: latent rot vs one background scrub pass (RF=3, read-repair from quorum)\n",
    );
    out.push_str(&format!(
        "{:<6} {:>7} {:>8} {:>9} {:>9} {:>9} {:>8} {:>8} {:>5} {:>6} {:>5}\n",
        "Flips",
        "Rotted",
        "Quarant",
        "Detect<=T",
        "CorrCell",
        "RepCell",
        "Pending",
        "Ranges",
        "Cons",
        "BitEq",
        "Conv"
    ));
    for c in cells {
        out.push_str(&format!(
            "{:<6} {:>7} {:>8} {:>9} {:>9} {:>9} {:>8} {:>8} {:>5} {:>6} {:>5}\n",
            c.flips,
            c.chunks_rotted,
            c.chunks_quarantined,
            if c.detected_within_pass { "yes" } else { "NO" },
            c.cells_corrupted,
            c.cells_repaired,
            c.corrupt_pending,
            c.ranges_repaired,
            if c.conserved { "ok" } else { "VIOL" },
            if c.bit_identical { "yes" } else { "NO" },
            if c.converged { "yes" } else { "NO" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rot_is_detected_and_repaired_within_one_pass() {
        let cell = run_cell(4);
        assert!(cell.chunks_rotted >= 1, "rot landed nowhere");
        assert!(
            cell.detected_within_pass,
            "{} of {} rotted chunks quarantined within one pass",
            cell.chunks_quarantined, cell.chunks_rotted
        );
        assert!(cell.cells_corrupted > 0);
        assert_eq!(cell.cells_repaired, cell.cells_corrupted);
        assert_eq!(cell.corrupt_pending, 0);
        assert!(cell.conserved, "widened ledger must balance");
        assert!(cell.bit_identical, "repair must restore the oracle bits");
        assert!(cell.converged);
    }

    #[test]
    fn clean_control_scrubs_for_free() {
        let cell = run_cell(0);
        assert_eq!(cell.chunks_rotted, 0);
        assert_eq!(cell.chunks_quarantined, 0);
        assert_eq!(cell.cells_corrupted, 0);
        assert_eq!(cell.cells_repaired, 0);
        assert_eq!(cell.ranges_repaired, 0, "clean scrub moved repair traffic");
        assert!(cell.bytes_verified > 0, "control must still verify bytes");
        assert!(cell.conserved && cell.bit_identical && cell.converged);
    }

    #[test]
    fn scrub_cells_are_deterministic() {
        let a = run_cell(1);
        let b = run_cell(1);
        assert_eq!(a.chunks_rotted, b.chunks_rotted);
        assert_eq!(a.bytes_verified, b.bytes_verified);
        assert_eq!(a.cells_corrupted, b.cells_corrupted);
        assert_eq!(a.cells_repaired, b.cells_repaired);
    }
}
