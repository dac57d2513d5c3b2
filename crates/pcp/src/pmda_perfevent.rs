//! `pmdaperfevent`: samples PMU counters during kernel executions.
//!
//! The agent is configured with a set of hardware events (subject to the
//! per-thread counter-bank capacity — excess events multiplex) and attached
//! to zero or more [`Execution`]s. Each sample reads the per-instance event
//! counts accumulated in the window, with counter noise applied.

use crate::agent::{Agent, Sample};
use crate::metric::MetricDesc;
use pmove_hwsim::noise::NoiseSource;
use pmove_hwsim::pmu::{CounterBank, Domain, EventCatalog};
use pmove_hwsim::{Execution, MachineSpec, Quantity};

/// The PMU-sampling agent.
pub struct PerfEventAgent {
    spec: MachineSpec,
    catalog: EventCatalog,
    bank: CounterBank,
    events: Vec<String>,
    executions: Vec<(Execution, Option<Vec<u32>>)>,
    noise: NoiseSource,
    /// Relative per-read noise scale (base, before frequency scaling).
    pub noise_base: f64,
    /// Effective sampling frequency (drives noise scaling); set by the
    /// sampling loop.
    pub freq_hz: f64,
}

impl PerfEventAgent {
    /// Agent for a machine with an initial event set. Unknown events are
    /// ignored (libpfm4 would reject them at configuration time).
    pub fn new(spec: MachineSpec, events: &[&str]) -> Self {
        let catalog = EventCatalog::for_arch(spec.arch);
        let mut bank = CounterBank::for_arch(spec.arch, spec.threads_per_core > 1);
        let mut accepted = Vec::new();
        for e in events {
            if catalog.supports(e) {
                bank.program(e);
                accepted.push(e.to_string());
            }
        }
        let noise = NoiseSource::from_labels(&[&spec.key, "perfevent"]);
        PerfEventAgent {
            spec,
            catalog,
            bank,
            events: accepted,
            executions: Vec::new(),
            noise,
            noise_base: 0.002,
            freq_hz: 1.0,
        }
    }

    /// Attach an execution whose counters this agent will observe. The
    /// execution's active threads map to OS threads 0..N in order.
    pub fn attach(&mut self, exec: Execution) {
        self.executions.push((exec, None));
    }

    /// Attach an execution pinned to specific OS threads: `affinity[k]` is
    /// the OS thread running the execution's k-th active thread (the
    /// pinning scripts of Scenario B produce exactly this mapping).
    pub fn attach_pinned(&mut self, exec: Execution, affinity: Vec<u32>) {
        self.executions.push((exec, Some(affinity)));
    }

    fn quantity_of(&self, event: &str) -> Option<(Quantity, Domain)> {
        self.catalog.get(event).map(|d| (d.quantity, d.domain))
    }
}

impl Agent for PerfEventAgent {
    fn name(&self) -> &str {
        "pmdaperfevent"
    }

    fn metrics(&self) -> Vec<MetricDesc> {
        self.events
            .iter()
            .filter_map(|e| {
                self.catalog.get(e).map(|def| {
                    MetricDesc::perfevent(
                        e,
                        def.description.clone(),
                        def.domain == Domain::PerPackage,
                    )
                })
            })
            .collect()
    }

    fn sample(&mut self, metric: &str, t_prev: f64, t_now: f64) -> Vec<Sample> {
        let Some(event) = metric.strip_prefix("perfevent.hwcounters.") else {
            return Vec::new();
        };
        let Some((quantity, domain)) = self.quantity_of(event) else {
            return Vec::new();
        };
        match domain {
            Domain::PerThread => {
                let threads = self.spec.total_threads();
                let mut out = Vec::with_capacity(threads as usize);
                for i in 0..threads {
                    let mut true_count = 0.0;
                    for (exec, affinity) in &self.executions {
                        // Which of the execution's active threads runs on
                        // OS thread i?
                        let active_idx = match affinity {
                            Some(aff) => aff.iter().position(|&c| c == i).map(|k| k as u32),
                            None => Some(i),
                        };
                        if let Some(k) = active_idx {
                            true_count +=
                                exec.thread_quantity_in_window(quantity, k, t_prev, t_now);
                        }
                    }
                    // Multiplexing bias + per-read counter noise.
                    let phase = self.noise.uniform();
                    let observed = self.bank.observed_count(true_count, phase)
                        * self.noise.counter_factor(self.noise_base, self.freq_hz);
                    out.push((format!("_cpu{i}"), observed));
                }
                out
            }
            Domain::PerPackage => {
                let sockets = self.spec.sockets;
                let mut out = Vec::with_capacity(sockets as usize);
                for s in 0..sockets {
                    let mut v = 0.0;
                    for (exec, _) in &self.executions {
                        v += exec.quantity_in_window(quantity, t_prev, t_now) / sockets as f64;
                    }
                    let observed = v * self
                        .noise
                        .counter_factor(self.noise_base * 0.5, self.freq_hz);
                    out.push((format!("_node{s}"), observed));
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::InstanceDomain;
    use pmove_hwsim::kernel_profile::{KernelProfile, Precision};
    use pmove_hwsim::vendor::IsaExt;
    use pmove_hwsim::ExecModel;

    fn agent_with_exec() -> PerfEventAgent {
        let spec = MachineSpec::csl();
        let mut agent = PerfEventAgent::new(
            spec.clone(),
            &[
                "FP_ARITH:SCALAR_DOUBLE",
                "MEM_INST_RETIRED:ALL_LOADS",
                "RAPL_ENERGY_PKG",
            ],
        );
        let profile = KernelProfile::named("k")
            .with_threads(4)
            .with_flops(IsaExt::Scalar, Precision::F64, 1_000_000)
            .with_mem(500_000, 100_000, IsaExt::Scalar)
            .with_working_set(64 << 20);
        let exec = ExecModel::new(spec).run(&profile, 1.0);
        agent.attach(exec);
        agent
    }

    #[test]
    fn rejects_unsupported_events() {
        let a = PerfEventAgent::new(MachineSpec::csl(), &["NOT_AN_EVENT", "RAPL_ENERGY_PKG"]);
        let names: Vec<String> = a.metrics().into_iter().map(|d| d.name).collect();
        assert_eq!(names, ["perfevent.hwcounters.RAPL_ENERGY_PKG"]);
    }

    #[test]
    fn per_thread_sampling_covers_all_cpus() {
        let mut a = agent_with_exec();
        let s = a.sample("perfevent.hwcounters.FP_ARITH:SCALAR_DOUBLE", 0.0, 100.0);
        assert_eq!(s.len(), 56);
        // Only the 4 kernel threads observe counts.
        let active: Vec<&Sample> = s.iter().filter(|(_, v)| *v > 0.0).collect();
        assert_eq!(active.len(), 4);
        // Total ≈ 1e6 scalar FP instructions (1 op each) within noise.
        let total: f64 = s.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0e6).abs() < 5e4, "total {total}");
    }

    #[test]
    fn per_package_sampling() {
        let mut a = agent_with_exec();
        let s = a.sample("perfevent.hwcounters.RAPL_ENERGY_PKG", 0.0, 100.0);
        assert_eq!(s.len(), 1); // CSL is single-socket
        assert!(s[0].1 > 0.0);
        assert_eq!(s[0].0, "_node0");
    }

    #[test]
    fn window_outside_execution_reads_zero_counts() {
        let mut a = agent_with_exec();
        let s = a.sample("perfevent.hwcounters.MEM_INST_RETIRED:ALL_LOADS", 0.0, 0.5);
        let total: f64 = s.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 0.0); // execution starts at t=1.0
    }

    #[test]
    fn metrics_expose_perfevent_namespace() {
        let a = agent_with_exec();
        let m = a.metrics();
        assert!(m
            .iter()
            .all(|d| d.name.starts_with("perfevent.hwcounters.")));
        assert!(m.iter().any(|d| d.indom == InstanceDomain::PerPackage));
        assert!(m.iter().any(|d| d.indom == InstanceDomain::PerCpu));
    }
}
