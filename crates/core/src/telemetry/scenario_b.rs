//! Scenario B (Fig. 3): HW performance-event capture around kernel runs.
//!
//! P-MoVE requests an executable and its parameters, configures the PMUs
//! for the requested (generic) metrics through the abstraction layer,
//! generates the pinning script, samples while the kernel runs, stops as
//! the kernel halts, and appends an `ObservationInterface` linking the
//! execution metadata to the time-series data (steps B1–B8).

use crate::abstraction::AbstractionLayer;
use crate::error::PmoveError;
use crate::ids::IdFactory;
use crate::kb::observation::{MetricRef, ObservationInterface};
use crate::kb::KnowledgeBase;
use crate::telemetry::pinning::PinningStrategy;
use pmove_hwsim::network::LinkSpec;
use pmove_hwsim::noise::NoiseSource;
use pmove_hwsim::pmu::Domain;
use pmove_hwsim::{ExecModel, Execution, KernelProfile, Machine};
use pmove_pcp::pmda_perfevent::PerfEventAgent;
use pmove_pcp::{Pmcd, SamplingConfig, SamplingLoop, Shipper};
use pmove_tsdb::{Database, Query};
use serde_json::json;

/// A Scenario-B request: what to run and what to measure.
#[derive(Debug, Clone)]
pub struct ProfileRequest {
    /// The kernel's operation profile (derived from the executable).
    pub profile: KernelProfile,
    /// Command line recorded in the observation.
    pub command: String,
    /// Generic event names to capture (resolved via the abstraction layer).
    pub generic_events: Vec<String>,
    /// Sampling frequency.
    pub freq_hz: f64,
    /// Pinning strategy.
    pub pinning: PinningStrategy,
}

/// The outcome: the observation entry plus the raw execution.
#[derive(Debug)]
pub struct ProfileOutcome {
    /// The observation appended to the KB (B8).
    pub observation: ObservationInterface,
    /// The simulated execution (for further analysis, e.g. live-CARM).
    pub execution: Execution,
}

/// Execute Scenario B. Telemetry lands in `ts`, tagged with the new
/// observation id; the observation is appended to `kb`. The transport,
/// sampler and pmcd report their `pcp.*` self-telemetry into `obs`
/// (possibly disabled).
#[allow(clippy::too_many_arguments)]
pub fn profile_kernel(
    machine: &Machine,
    kb: &mut KnowledgeBase,
    layer: &AbstractionLayer,
    ts: &Database,
    ids: &mut IdFactory,
    request: &ProfileRequest,
    start_s: f64,
    obs: &std::sync::Arc<pmove_obs::Registry>,
) -> Result<ProfileOutcome, PmoveError> {
    let pmu = kb.pmu_name.clone();

    // B1: resolve generic events to HW events and configure the PMUs.
    let mut hw_events: Vec<String> = Vec::new();
    for generic in &request.generic_events {
        for e in layer.required_hw_events(&pmu, generic)? {
            if !hw_events.contains(&e) {
                hw_events.push(e);
            }
        }
    }
    let hw_refs: Vec<&str> = hw_events.iter().map(String::as_str).collect();
    let mut agent = PerfEventAgent::new(machine.spec.clone(), &hw_refs);
    agent.freq_hz = request.freq_hz;

    // B2: pinning script for the requested executable (recorded in the
    // observation's report as execution metadata).
    let affinity = request.pinning.assign(machine, request.profile.threads);
    let script = request
        .pinning
        .launch_script(machine, request.profile.threads, &request.command);

    // Run the kernel under sampling on the simulated machine.
    let mut noise = NoiseSource::from_labels(&[machine.key(), &request.command, "runtime"]);
    let exec = ExecModel::new(machine.spec.clone()).run_sampled(
        &request.profile,
        start_s,
        request.freq_hz,
        &mut noise,
    );
    // Counts land on the OS threads the pinning script bound the kernel
    // to, so observation queries over the affinity fields recall them.
    agent.attach_pinned(exec.clone(), affinity.clone());

    // Sample while the kernel runs; stop when it halts.
    let obs_id = ids.next_id();
    let mut pmcd = Pmcd::new();
    pmcd.set_tag("tag", obs_id.clone());
    pmcd.register(Box::new(agent));
    // The launched kernel is a process: track it so per-process metrics
    // exist for this observation (the paper treats processes as unique
    // components; Fig. 2c shows their level view).
    let proc_name = format!(
        "_proc_{}",
        request
            .command
            .split_whitespace()
            .next()
            .unwrap_or("kernel")
    );
    pmcd.register(Box::new(pmove_pcp::pmda_proc::ProcAgent::new(vec![
        pmove_pcp::pmda_proc::TrackedProcess {
            name: proc_name.clone(),
            utime_per_s: affinity.len() as f64 * 0.97,
            stime_per_s: affinity.len() as f64 * 0.03,
            rss_bytes: request.profile.working_set_bytes as f64,
            lifetime: Some((start_s, exec.end_s())),
        },
    ])));
    let mut metrics: Vec<String> = hw_events
        .iter()
        .map(|e| format!("perfevent.hwcounters.{e}"))
        .collect();
    metrics.push("proc.psinfo.utime".into());
    metrics.push("proc.psinfo.rss".into());
    let mut shipper = Shipper::new(
        ts,
        LinkSpec::mbit_100(),
        1.0 / request.freq_hz,
        &[machine.key(), &obs_id],
    )
    .with_obs(obs.clone());
    pmcd.set_obs(obs);
    // PCP "stops the sampling as the kernel is halted": even for kernels
    // shorter than one period, a final read covers the full run.
    let duration = (exec.end_s() - start_s).max(1.0 / request.freq_hz);
    let config = SamplingConfig::new(metrics.clone(), request.freq_hz, start_s, duration);
    let sampling = SamplingLoop::run(&config, &mut pmcd, &mut shipper);

    // Metric references: per-thread events carry the pinned cpu fields,
    // per-package events the node fields.
    let catalog = pmove_hwsim::EventCatalog::for_arch(machine.spec.arch);
    let nodes = PinningStrategy::nodes_touched(machine, &affinity);
    let mut metric_refs: Vec<MetricRef> = hw_events
        .iter()
        .map(|e| {
            let per_package = catalog
                .get(e)
                .is_some_and(|d| d.domain == Domain::PerPackage);
            let fields = if per_package {
                nodes.iter().map(|n| format!("_node{n}")).collect()
            } else {
                affinity.iter().map(|c| format!("_cpu{c}")).collect()
            };
            MetricRef {
                db_name: format!("perfevent_hwcounters_{}", e.replace([':', '.'], "_")),
                fields,
            }
        })
        .collect();
    for proc_metric in ["proc_psinfo_utime", "proc_psinfo_rss"] {
        metric_refs.push(MetricRef {
            db_name: proc_metric.into(),
            fields: vec![proc_name.clone()],
        });
    }

    // "A report is generated on the fly and added to the entry before
    // appending to KB" (Listing 2): generic-event totals recalled from
    // the just-written series.
    let mut report = json!({
        "duration_s": exec.duration_s,
        "gflops": exec.gflops(),
        "launch_script": script,
        "sampling": {
            "expected_values": sampling.expected_values,
            "inserted_values": sampling.transport.values_inserted,
            "lost_values": sampling.transport.values_lost,
        },
    });
    for generic in &request.generic_events {
        if let Ok(total) = recall_generic_total(ts, layer, &pmu, generic, &obs_id) {
            report[format!("total_{generic}")] = json!(total);
        }
    }

    let observation = ObservationInterface {
        id: obs_id,
        machine: machine.key().to_string(),
        command: request.command.clone(),
        pinning: request.pinning.label().to_string(),
        affinity,
        start_s,
        end_s: exec.end_s(),
        freq_hz: request.freq_hz,
        metrics: metric_refs,
        report,
    };
    kb.append_observation(observation.clone());

    // "a ProcessInterface is re-instantiated each time it is invoked":
    // every profiled execution adds a process twin carrying its command
    // and telemetry links, powering the process level view (Fig. 2c).
    append_process_twin(kb, &observation, &proc_name)?;

    Ok(ProfileOutcome {
        observation,
        execution: exec,
    })
}

/// Add the per-invocation process twin for an observation.
fn append_process_twin(
    kb: &mut KnowledgeBase,
    obs: &ObservationInterface,
    proc_name: &str,
) -> Result<(), PmoveError> {
    use pmove_jsonld::dtdl::TelemetryBuilder;
    let n = kb.of_type("process").len();
    let root = kb.root_id();
    let id = root
        .child(&format!("process{n}"))
        .map_err(PmoveError::from)?;
    let mut iface = pmove_jsonld::Interface::new(id.clone(), "process", format!("{proc_name}#{n}"));
    iface.add_property("command", serde_json::json!(obs.command));
    iface.add_property("observation", serde_json::json!(obs.id));
    iface.add_property("pinning", serde_json::json!(obs.pinning));
    iface.add_telemetry(TelemetryBuilder::software("utime", "proc.psinfo.utime").field(proc_name));
    iface.add_telemetry(TelemetryBuilder::software("rss", "proc.psinfo.rss").field(proc_name));
    if let Some(root_iface) = kb.get_mut(&root) {
        root_iface.add_relationship("contains", id);
    }
    kb.add_interface(iface, Some(&root));
    Ok(())
}

/// Recall a generic event's total for an observation: sum the sampled
/// series of each HW event in the formula, then evaluate the formula.
pub fn recall_generic_total(
    ts: &Database,
    layer: &AbstractionLayer,
    pmu: &str,
    generic: &str,
    obs_id: &str,
) -> Result<f64, PmoveError> {
    let formula = layer.formula(pmu, generic)?.clone();
    formula.eval(|hw_event| {
        let measurement = format!("perfevent_hwcounters_{}", hw_event.replace([':', '.'], "_"));
        let q = format!("SELECT * FROM \"{measurement}\" WHERE tag='{obs_id}'");
        let frame = Query::parse(&q).and_then(|q| ts.query_frame(&q));
        frame.ok().map(|f| f.total())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::presets::builtin_layer;
    use crate::kb::builder::build_kb;
    use crate::probe::ProbeReport;
    use pmove_hwsim::kernel_profile::Precision;
    use pmove_hwsim::vendor::IsaExt;

    fn setup() -> (
        Machine,
        KnowledgeBase,
        AbstractionLayer,
        Database,
        IdFactory,
    ) {
        let machine = Machine::preset("csl").unwrap();
        let kb = build_kb(&ProbeReport::collect(&machine)).unwrap();
        (
            machine,
            kb,
            builtin_layer(),
            Database::new("pmove"),
            IdFactory::new("test"),
        )
    }

    fn triad_profile(threads: u32) -> KernelProfile {
        let n: u64 = 1 << 22;
        KernelProfile::named("triad")
            .with_threads(threads)
            .with_flops(IsaExt::Avx512, Precision::F64, 2 * n)
            .with_mem(3 * n, n, IsaExt::Avx512)
            .with_working_set(4 * n * 8)
    }

    fn request() -> ProfileRequest {
        ProfileRequest {
            profile: triad_profile(4),
            command: "triad -n 4194304 -t 4".into(),
            generic_events: vec![
                "TOTAL_MEMORY_OPERATIONS".into(),
                "AVX512_DP_FLOPS".into(),
                "RAPL_ENERGY_PKG".into(),
            ],
            freq_hz: 8.0,
            pinning: PinningStrategy::Compact,
        }
    }

    #[test]
    fn full_scenario_b_flow() {
        let (machine, mut kb, layer, ts, mut ids) = setup();
        let outcome = profile_kernel(
            &machine,
            &mut kb,
            &layer,
            &ts,
            &mut ids,
            &request(),
            5.0,
            &pmove_obs::Registry::disabled(),
        )
        .unwrap();

        // Observation appended to the KB (B8).
        assert_eq!(kb.observations.len(), 1);
        let obs = &kb.observations[0];
        assert_eq!(obs.pinning, "compact");
        assert_eq!(obs.affinity, vec![0, 1, 2, 3]);
        assert!(obs.end_s > obs.start_s);

        // Series landed in the tsdb, tagged with the observation id.
        let q = format!(
            "SELECT \"_cpu0\" FROM \"perfevent_hwcounters_FP_ARITH_512B_PACKED_DOUBLE\" WHERE tag='{}'",
            obs.id
        );
        let r = ts.query(&q).unwrap();
        assert!(!r.rows.is_empty());

        // Listing-3 queries reference exactly the sampled measurements
        // (4 HW events + 2 per-process metrics).
        let queries = obs.queries();
        assert_eq!(queries.len(), 6);
        assert!(queries
            .iter()
            .any(|q| q.contains("proc_psinfo_utime") && q.contains("\"_proc_triad\"")));
        assert!(queries
            .iter()
            .any(|q| q.contains("RAPL_ENERGY_PKG") && q.contains("\"_node0\"")));
        assert!(queries
            .iter()
            .any(|q| q.contains("MEM_INST_RETIRED_ALL_LOADS") && q.contains("\"_cpu0\"")));

        // The on-the-fly report carries generic totals.
        assert!(outcome.observation.report["total_AVX512_DP_FLOPS"].is_number());
        assert!(outcome.observation.report["gflops"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn recalled_totals_approximate_ground_truth() {
        let (machine, mut kb, layer, ts, mut ids) = setup();
        let req = request();
        let outcome = profile_kernel(
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
        // AVX512_DP_FLOPS (scaled by ×8) should recall ≈ the true FLOPs.
        let truth = req.profile.total_flops() as f64;
        let recalled = recall_generic_total(
            &ts,
            &layer,
            "csl",
            "AVX512_DP_FLOPS",
            &outcome.observation.id,
        )
        .unwrap();
        let rel = (recalled - truth).abs() / truth;
        assert!(rel < 0.1, "recalled {recalled} truth {truth} rel {rel}");
    }

    #[test]
    fn unmapped_generic_event_fails() {
        let (machine, mut kb, layer, ts, mut ids) = setup();
        let mut req = request();
        req.generic_events = vec!["L3_HIT".into()]; // Intel: unsupported
        let err = profile_kernel(
            &machine,
            &mut kb,
            &layer,
            &ts,
            &mut ids,
            &req,
            0.0,
            &pmove_obs::Registry::disabled(),
        );
        assert!(matches!(err, Err(PmoveError::UnmappedEvent { .. })));
    }

    #[test]
    fn process_twins_reinstantiated_per_invocation() {
        // Fig. 2(c): the process level view — one twin per profiled run.
        let (machine, mut kb, layer, ts, mut ids) = setup();
        assert!(kb.of_type("process").is_empty());
        profile_kernel(
            &machine,
            &mut kb,
            &layer,
            &ts,
            &mut ids,
            &request(),
            0.0,
            &pmove_obs::Registry::disabled(),
        )
        .unwrap();
        profile_kernel(
            &machine,
            &mut kb,
            &layer,
            &ts,
            &mut ids,
            &request(),
            10.0,
            &pmove_obs::Registry::disabled(),
        )
        .unwrap();
        let procs = kb.of_type("process");
        assert_eq!(procs.len(), 2);
        // Each twin carries its observation id and telemetry links.
        for (p, obs) in procs.iter().zip(&kb.observations) {
            assert_eq!(
                p.property_value("observation"),
                Some(&serde_json::json!(obs.id))
            );
            assert!(p.telemetry().any(|t| t.sampler_name == "proc.psinfo.utime"));
        }
        // The KB still validates and the process level dashboard exists.
        kb.validate().unwrap();
        let dash = crate::dashboard::gen::level_dashboard(&kb, "process").unwrap();
        assert!(dash.panels.iter().any(|p| p.title == "proc_psinfo_utime"));
        // The per-process utime series is recallable and ≈ threads × time.
        let obs = &kb.observations[0];
        let q = format!(
            "SELECT \"_proc_triad\" FROM \"proc_psinfo_utime\" WHERE tag='{}'",
            obs.id
        );
        let total = ts.query_frame(&Query::parse(&q).unwrap()).unwrap().total();
        let expect = 4.0 * 0.97 * obs.duration_s();
        assert!(
            (total - expect).abs() / expect < 0.35,
            "utime {total} vs {expect}"
        );
    }

    #[test]
    fn observation_ids_are_unique_per_run() {
        let (machine, mut kb, layer, ts, mut ids) = setup();
        let a = profile_kernel(
            &machine,
            &mut kb,
            &layer,
            &ts,
            &mut ids,
            &request(),
            0.0,
            &pmove_obs::Registry::disabled(),
        )
        .unwrap();
        let b = profile_kernel(
            &machine,
            &mut kb,
            &layer,
            &ts,
            &mut ids,
            &request(),
            10.0,
            &pmove_obs::Registry::disabled(),
        )
        .unwrap();
        assert_ne!(a.observation.id, b.observation.id);
        assert_eq!(kb.observations.len(), 2);
    }
}
