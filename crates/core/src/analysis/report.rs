//! Textual analysis reports over observations.

use crate::abstraction::AbstractionLayer;
use crate::kb::observation::ObservationInterface;
use crate::telemetry::scenario_b::recall_generic_total;
use pmove_tsdb::Database;

/// Render a human-readable report for one observation: metadata, recalled
/// generic-event totals, and derived rates.
pub fn observation_report(
    ts: &Database,
    layer: &AbstractionLayer,
    pmu: &str,
    obs: &ObservationInterface,
    generics: &[&str],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("Observation {}\n", obs.id));
    out.push_str(&format!("  machine : {}\n", obs.machine));
    out.push_str(&format!("  command : {}\n", obs.command));
    out.push_str(&format!(
        "  pinning : {} → cpus {:?}\n",
        obs.pinning, obs.affinity
    ));
    let dur = obs.duration_s();
    out.push_str(&format!("  duration: {dur:.4} s @ {} Hz\n", obs.freq_hz));
    for g in generics {
        match recall_generic_total(ts, layer, pmu, g, &obs.id) {
            Ok(total) => {
                out.push_str(&format!(
                    "  {g:<26} total {total:.4e}  rate {:.4e}/s\n",
                    total / dur.max(1e-12)
                ));
            }
            Err(_) => out.push_str(&format!("  {g:<26} (not mapped on {pmu})\n")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::presets::builtin_layer;
    use crate::ids::IdFactory;
    use crate::kb::builder::build_kb;
    use crate::probe::ProbeReport;
    use crate::telemetry::pinning::PinningStrategy;
    use crate::telemetry::scenario_b::{profile_kernel, ProfileRequest};
    use pmove_hwsim::kernel_profile::{KernelProfile, Precision};
    use pmove_hwsim::vendor::IsaExt;
    use pmove_hwsim::Machine;

    #[test]
    fn report_contains_metadata_and_totals() {
        let machine = Machine::preset("csl").unwrap();
        let mut kb = build_kb(&ProbeReport::collect(&machine)).unwrap();
        let layer = builtin_layer();
        let ts = pmove_tsdb::Database::new("t");
        let mut ids = IdFactory::new("rep");
        let n: u64 = 1 << 20;
        let req = ProfileRequest {
            profile: KernelProfile::named("ddot")
                .with_threads(2)
                .with_flops(IsaExt::Scalar, Precision::F64, 2 * n)
                .with_mem(2 * n, 0, IsaExt::Scalar)
                .with_working_set(2 * n * 8),
            command: "ddot -n 1048576 -t 2".into(),
            generic_events: vec!["SCALAR_DP_FLOPS".into(), "TOTAL_MEMORY_OPERATIONS".into()],
            freq_hz: 8.0,
            pinning: PinningStrategy::Compact,
        };
        let out = profile_kernel(
            &machine,
            &mut kb,
            &layer,
            &ts,
            &mut ids,
            &req,
            0.0,
            &pmove_obs::Registry::disabled(),
        )
        .unwrap();
        let text = observation_report(
            &ts,
            &layer,
            "csl",
            &out.observation,
            &["SCALAR_DP_FLOPS", "L3_HIT"],
        );
        assert!(text.contains("ddot -n 1048576"));
        assert!(text.contains("SCALAR_DP_FLOPS"));
        assert!(text.contains("rate"));
        // Unsupported on Intel → noted, not an error.
        assert!(text.contains("L3_HIT"));
        assert!(text.contains("not mapped"));
    }
}
