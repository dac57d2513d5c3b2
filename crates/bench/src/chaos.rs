//! Chaos experiments: the Table III shipping workload under three canned
//! fault schedules, with the resilient transport mode off vs. on.
//!
//! The paper's loss model assumes healthy nodes and a healthy backend;
//! this table quantifies what the self-healing extension buys when that
//! assumption breaks: lost values become spilled-and-recovered values,
//! outages end with gap markers instead of silent holes, and the table
//! reports how long after the last fault the spill buffer took to drain.

use pmove_hwsim::network::LinkSpec;
use pmove_hwsim::FaultSchedule;
use pmove_pcp::Shipper;
use pmove_tsdb::{Database, Point};

/// Experiment duration in virtual seconds.
pub(crate) const DURATION_S: f64 = 60.0;
/// Sampling frequency (samples/s).
pub(crate) const FREQ_HZ: f64 = 4.0;
/// Instance-domain size per report (a 16-thread icl-style target).
const DOMAIN: usize = 16;
/// Metrics shipped per tick.
const N_METRICS: usize = 4;

/// One chaos measurement cell.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Canned schedule name.
    pub schedule: String,
    /// Whether the resilient transport mode was on.
    pub(crate) resilient: bool,
    /// Field values offered by the sampler.
    pub(crate) offered: u64,
    /// Field values acknowledged at the database (incl. zeros).
    pub(crate) inserted: u64,
    /// Field values lost for good.
    pub lost: u64,
    /// Spilled values evicted by the bounded buffer.
    pub evicted: u64,
    /// Spilled values recovered into the database after retry.
    pub(crate) recovered: u64,
    /// Gap-marker points written on recovery.
    pub(crate) gap_markers: u64,
    /// Whether the 5-term conservation identity held.
    pub conserved: bool,
    /// Seconds after the last fault until the spill buffer drained;
    /// `None` when it never did (or there was nothing to drain).
    pub(crate) recovery_s: Option<f64>,
}

impl ChaosReport {
    /// Values lost or evicted, as a percentage of offered.
    pub(crate) fn loss_pct(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        100.0 * (self.lost + self.evicted) as f64 / self.offered as f64
    }
}

/// The three canned schedules of the experiment.
pub(crate) fn canned_schedules() -> Vec<(String, FaultSchedule)> {
    vec![
        (
            // 2 s link outage every 10 s for the whole run.
            "link-flaps".to_string(),
            FaultSchedule::link_flaps(10.0, 2.0, DURATION_S),
        ),
        (
            // Backend answers 30% of inserts during the middle third.
            "db-brownout".to_string(),
            FaultSchedule::midrun_brownout(DURATION_S, 0.3),
        ),
        (
            // Link capacity collapses to 2% during the middle half —
            // below the workload's ~256 values/s offered rate.
            "bandwidth-collapse".to_string(),
            FaultSchedule::midrun_degraded(DURATION_S, 0.02),
        ),
    ]
}

/// Deterministic per-cell value stream (SplitMix64).
fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One report of metric `m` at virtual time `t`: `domain` per-CPU fields
/// drawn from the seeded stream and divided by `div`. The chaos,
/// replication and scrub experiments all ship this workload.
pub(crate) fn report(
    m: usize,
    tag: &str,
    t: f64,
    domain: usize,
    seed: &mut u64,
    div: f64,
) -> Point {
    let mut p = Point::new(format!("perfevent_hwcounters_m{m}"))
        .tag("tag", tag)
        .timestamp((t * 1e9) as i64 + m as i64);
    for i in 0..domain {
        p = p.field(format!("_cpu{i}"), (next(seed) % 1_000_000) as f64 / div);
    }
    p
}

/// Run one cell: the fixed workload under `schedule`, resilient or not.
pub(crate) fn run_cell(name: &str, schedule: FaultSchedule, resilient: bool) -> ChaosReport {
    let db = Database::new("host");
    let mode = if resilient { "on" } else { "off" };
    let mut shipper = Shipper::new(
        &db,
        LinkSpec::mbit_100(),
        1.0 / FREQ_HZ,
        &["chaos", name, mode],
    )
    .with_fault_schedule(schedule.clone());
    if resilient {
        shipper = shipper.with_resilience();
    }

    let fault_end_s = schedule.last_fault_end_s();
    let ticks = (DURATION_S * FREQ_HZ) as u64;
    let mut value_seed = 0xC4A0_5EED ^ ticks;
    let mut drained_at_s = None;
    for tick in 0..ticks {
        let t = tick as f64 / FREQ_HZ;
        for m in 0..N_METRICS {
            let p = report(m, "chaos", t, DOMAIN, &mut value_seed, 1.0);
            shipper.ship(t, p, FREQ_HZ);
        }
        let st = shipper.stats();
        if drained_at_s.is_none()
            && t >= fault_end_s
            && st.values_spilled > 0
            && st.values_spill_pending == 0
        {
            drained_at_s = Some(t);
        }
    }
    // Idle tail: let the resilient transport finish draining.
    if resilient {
        let mut t = DURATION_S;
        while t <= fault_end_s.max(DURATION_S) + 20.0 {
            shipper.idle_tick(t);
            let st = shipper.stats();
            if drained_at_s.is_none() && st.values_spilled > 0 && st.values_spill_pending == 0 {
                drained_at_s = Some(t);
            }
            t += 0.25;
        }
    }

    let st = shipper.stats();
    ChaosReport {
        schedule: name.to_string(),
        resilient,
        offered: st.values_offered,
        inserted: st.values_inserted + st.values_zeroed,
        lost: st.values_lost,
        evicted: st.values_evicted,
        recovered: st.values_recovered,
        gap_markers: st.gap_markers,
        conserved: st.conserved(),
        recovery_s: drained_at_s.map(|t| (t - fault_end_s).max(0.0)),
    }
}

/// Run every canned schedule, off then on.
pub fn run() -> Vec<ChaosReport> {
    let mut out = Vec::new();
    for (name, schedule) in canned_schedules() {
        out.push(run_cell(&name, schedule.clone(), false));
        out.push(run_cell(&name, schedule, true));
    }
    out
}

/// Render the table.
pub fn format(reports: &[ChaosReport]) -> String {
    let mut out =
        String::from("CHAOS: transport under injected faults, resilient mode off vs on\n");
    out.push_str(&format!(
        "{:<19} {:<4} {:>8} {:>8} {:>7} {:>8} {:>9} {:>5} {:>7} {:>9}\n",
        "Schedule",
        "Mode",
        "Offered",
        "Insert",
        "Lost",
        "Evicted",
        "Recovered",
        "Gaps",
        "Loss%",
        "Recov s"
    ));
    for r in reports {
        let recov = r
            .recovery_s
            .map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "{:<19} {:<4} {:>8} {:>8} {:>7} {:>8} {:>9} {:>5} {:>7.2} {:>9}\n",
            r.schedule,
            if r.resilient { "on" } else { "off" },
            r.offered,
            r.inserted,
            r.lost,
            r.evicted,
            r.recovered,
            r.gap_markers,
            r.loss_pct(),
            recov,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilient_mode_beats_default_under_every_schedule() {
        for (name, schedule) in canned_schedules() {
            let off = run_cell(&name, schedule.clone(), false);
            let on = run_cell(&name, schedule, true);
            assert!(off.conserved && on.conserved, "{name}: conservation");
            assert_eq!(off.offered, on.offered, "{name}: same workload");
            assert!(
                off.lost + off.evicted > 0,
                "{name}: the schedule must actually hurt the default mode"
            );
            assert!(
                on.lost + on.evicted < off.lost + off.evicted,
                "{name}: resilience must reduce losses ({} vs {})",
                on.lost + on.evicted,
                off.lost + off.evicted
            );
            assert!(on.recovered > 0, "{name}: spills were recovered");
        }
    }

    #[test]
    fn chaos_cells_are_deterministic() {
        let (name, schedule) = canned_schedules().remove(0);
        let a = run_cell(&name, schedule.clone(), true);
        let b = run_cell(&name, schedule, true);
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.inserted, b.inserted);
        assert_eq!(a.lost, b.lost);
        assert_eq!(a.recovered, b.recovered);
        assert_eq!(a.recovery_s, b.recovery_s);
    }
}
