//! `pmcd`: the metric coordinator daemon.
//!
//! Owns the agents, resolves metric names to the serving agent, assembles
//! sampled values into time-series points (one measurement per metric, one
//! field per instance), and hands them to the transport.
//!
//! Supervision: [`Pmcd::heartbeat_all`] probes every agent's liveness on
//! the virtual clock. A failed heartbeat marks the agent crashed — its
//! metrics stop resolving (fetches miss) — and schedules a restart with
//! doubling, capped backoff, mirroring how the real pmcd respawns dead
//! PMDAs.

use crate::agent::Agent;
use crate::metric::MetricDesc;
use pmove_obs::{Counter, Registry};
use pmove_tsdb::Point;
use std::collections::BTreeMap;

/// Hoisted `pcp.pmcd.*` counters.
struct PmcdObs {
    fetches: Counter,
    misses: Counter,
    agent_crashes: Counter,
    agent_restarts: Counter,
}

impl PmcdObs {
    fn new(registry: &Registry) -> PmcdObs {
        PmcdObs {
            fetches: registry.counter("pcp.pmcd.fetches", &[]),
            misses: registry.counter("pcp.pmcd.misses", &[]),
            agent_crashes: registry.counter("pcp.resilience.agent_crashes", &[]),
            agent_restarts: registry.counter("pcp.resilience.agent_restarts", &[]),
        }
    }
}

/// Supervisor bookkeeping for one agent.
#[derive(Debug, Clone, Copy)]
struct Supervision {
    crashed: bool,
    backoff_s: f64,
    next_restart_s: f64,
}

impl Supervision {
    fn healthy() -> Supervision {
        Supervision {
            crashed: false,
            backoff_s: 0.0,
            next_restart_s: 0.0,
        }
    }
}

/// The coordinator.
pub struct Pmcd {
    agents: Vec<Box<dyn Agent>>,
    supervision: Vec<Supervision>,
    /// Optional tag set stamped on every shipped point (Scenario B stamps
    /// the observation UUID here so KB queries can recall the data).
    pub tags: BTreeMap<String, String>,
    obs: PmcdObs,
}

impl Pmcd {
    /// First restart delay after a crash (virtual seconds).
    pub(crate) const RESTART_BACKOFF_BASE_S: f64 = 0.5;
    /// Restart delay ceiling (virtual seconds).
    pub(crate) const RESTART_BACKOFF_CAP_S: f64 = 8.0;

    /// Coordinator with no agents.
    pub fn new() -> Self {
        Pmcd {
            agents: Vec::new(),
            supervision: Vec::new(),
            tags: BTreeMap::new(),
            obs: PmcdObs::new(&Registry::disabled()),
        }
    }

    /// Count every fetch (and every miss) in `registry` under
    /// `pcp.pmcd.*`, and supervision events under `pcp.resilience.*`.
    pub fn set_obs(&mut self, registry: &Registry) {
        self.obs = PmcdObs::new(registry);
    }

    /// Register an agent.
    pub fn register(&mut self, agent: Box<dyn Agent>) {
        self.agents.push(agent);
        self.supervision.push(Supervision::healthy());
    }

    /// Set a tag stamped on all subsequent points.
    pub fn set_tag(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.tags.insert(key.into(), value.into());
    }

    /// All metrics across agents.
    pub(crate) fn namespace(&self) -> Vec<MetricDesc> {
        self.agents.iter().flat_map(|a| a.metrics()).collect()
    }

    /// Probe every agent's liveness at `t_now`. Crashed agents are marked
    /// down (their fetches miss) and restarted once their backoff has
    /// elapsed; consecutive crashes double the backoff up to the cap.
    pub(crate) fn heartbeat_all(&mut self, t_now: f64) {
        let obs = &self.obs;
        for (agent, sup) in self.agents.iter_mut().zip(self.supervision.iter_mut()) {
            if sup.crashed {
                if t_now >= sup.next_restart_s {
                    agent.restart(t_now);
                    sup.crashed = false;
                    obs.agent_restarts.inc();
                }
            } else if !agent.heartbeat(t_now) {
                sup.crashed = true;
                sup.backoff_s = (sup.backoff_s * 2.0)
                    .clamp(Self::RESTART_BACKOFF_BASE_S, Self::RESTART_BACKOFF_CAP_S);
                sup.next_restart_s = t_now + sup.backoff_s;
                obs.agent_crashes.inc();
            }
        }
    }

    /// Fetch one metric over a window and assemble the report point.
    /// Returns `None` when no agent serves the metric or no instance
    /// reported.
    pub(crate) fn fetch(&mut self, metric: &str, t_prev: f64, t_now: f64) -> Option<Point> {
        let point = self.fetch_inner(metric, t_prev, t_now);
        self.obs.fetches.inc();
        if point.is_none() {
            self.obs.misses.inc();
        }
        point
    }

    fn fetch_inner(&mut self, metric: &str, t_prev: f64, t_now: f64) -> Option<Point> {
        let desc = self.namespace().into_iter().find(|d| d.name == metric)?;
        for (i, agent) in self.agents.iter_mut().enumerate() {
            if self.supervision[i].crashed {
                continue;
            }
            if !agent.metrics().iter().any(|m| m.name == metric) {
                continue;
            }
            let samples = agent.sample(metric, t_prev, t_now);
            if samples.is_empty() {
                return None;
            }
            let mut point = Point::new(desc.db_name()).timestamp((t_now * 1e9) as i64);
            for (k, v) in &self.tags {
                point.tags.insert(k.clone(), v.clone());
            }
            for (instance, value) in samples {
                point.fields.insert(instance, value.into());
            }
            return Some(point);
        }
        None
    }

    /// Fetch several metrics at once (one point each).
    pub fn fetch_all(&mut self, metrics: &[String], t_prev: f64, t_now: f64) -> Vec<Point> {
        metrics
            .iter()
            .filter_map(|m| self.fetch(m, t_prev, t_now))
            .collect()
    }
}

impl Default for Pmcd {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Sample;
    use crate::metric::InstanceDomain;
    use crate::pmda_linux::LinuxAgent;
    use pmove_hwsim::MachineSpec;

    /// Serves one constant metric until the virtual clock reaches
    /// `crash_at_s`; then its heartbeat fails and it serves nothing until
    /// restarted. It crashes once, so runs replay deterministically.
    struct FlakyAgent {
        desc: MetricDesc,
        crash_at_s: f64,
        crashed: bool,
    }

    impl FlakyAgent {
        fn boxed(metric: &str, crash_at_s: f64) -> Box<dyn Agent> {
            Box::new(FlakyAgent {
                desc: MetricDesc::new(metric, InstanceDomain::Singular, "test"),
                crash_at_s,
                crashed: false,
            })
        }
    }

    impl Agent for FlakyAgent {
        fn name(&self) -> &str {
            "flaky"
        }

        fn metrics(&self) -> Vec<MetricDesc> {
            vec![self.desc.clone()]
        }

        fn sample(&mut self, metric: &str, _t_prev: f64, _t_now: f64) -> Vec<Sample> {
            match !self.crashed && metric == self.desc.name {
                true => vec![("value".to_string(), 42.0)],
                false => Vec::new(),
            }
        }

        fn heartbeat(&mut self, t_now: f64) -> bool {
            self.crashed |= t_now >= self.crash_at_s;
            !self.crashed
        }

        fn restart(&mut self, _t_now: f64) {
            self.crashed = false;
            self.crash_at_s = f64::INFINITY;
        }
    }

    fn coordinator() -> Pmcd {
        let mut p = Pmcd::new();
        p.register(Box::new(LinuxAgent::new(MachineSpec::icl())));
        p.register(FlakyAgent::boxed("test.answer", f64::INFINITY));
        p
    }

    #[test]
    fn namespace_merges_agents() {
        let p = coordinator();
        let ns = p.namespace();
        assert!(ns.iter().any(|m| m.name == "kernel.percpu.cpu.idle"));
        assert!(ns.iter().any(|m| m.name == "test.answer"));
    }

    #[test]
    fn fetch_builds_tagged_point() {
        let mut p = coordinator();
        let point = p.fetch("test.answer", 0.0, 1.0).unwrap();
        assert!(point.tags.is_empty());
        p.set_tag("tag", "obs-123");
        let point = p.fetch("kernel.percpu.cpu.idle", 0.0, 1.0).unwrap();
        assert_eq!(point.measurement, "kernel_percpu_cpu_idle");
        assert_eq!(point.field_count(), 16);
        assert_eq!(point.tags["tag"], "obs-123");
        assert_eq!(point.timestamp, 1_000_000_000);
    }

    #[test]
    fn fetch_unknown_metric_none() {
        let mut p = coordinator();
        assert!(p.fetch("nosuch.metric", 0.0, 1.0).is_none());
    }

    #[test]
    fn fetch_all_returns_one_point_per_metric() {
        let mut p = coordinator();
        let metrics = vec![
            "kernel.all.load".to_string(),
            "test.answer".to_string(),
            "nosuch".to_string(),
        ];
        let points = p.fetch_all(&metrics, 0.0, 0.5);
        assert_eq!(points.len(), 2);
    }

    #[test]
    fn obs_counts_fetches_and_misses() {
        let reg = pmove_obs::Registry::new();
        let mut p = coordinator();
        p.set_obs(&reg);
        p.fetch("test.answer", 0.0, 1.0).unwrap();
        assert!(p.fetch("nosuch.metric", 0.0, 1.0).is_none());
        p.fetch_all(&["kernel.all.load".to_string()], 0.0, 1.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("pcp.pmcd.fetches", &[]), Some(3));
        assert_eq!(snap.counter("pcp.pmcd.misses", &[]), Some(1));
    }

    #[test]
    fn crashed_agent_is_skipped_then_restarted_with_backoff() {
        let reg = pmove_obs::Registry::new();
        let mut p = Pmcd::new();
        p.set_obs(&reg);
        p.register(FlakyAgent::boxed("flaky.metric", 5.0));
        let supervised = |reg: &pmove_obs::Registry| {
            let snap = reg.snapshot();
            let count = |name: &str| snap.counter(name, &[]).unwrap();
            let crashes = count("pcp.resilience.agent_crashes");
            (crashes, count("pcp.resilience.agent_restarts"))
        };
        // Healthy before the crash.
        p.heartbeat_all(4.5);
        assert!(p.fetch("flaky.metric", 4.0, 4.5).is_some());
        // Crash detected at 5 s; fetches miss while down.
        p.heartbeat_all(5.0);
        assert_eq!(supervised(&reg), (1, 0));
        assert!(p.fetch("flaky.metric", 5.0, 5.5).is_none());
        // Not restarted before the backoff elapses...
        p.heartbeat_all(5.0 + Pmcd::RESTART_BACKOFF_BASE_S / 2.0);
        assert!(p.fetch("flaky.metric", 5.0, 5.5).is_none());
        // ...but restarted after it.
        p.heartbeat_all(5.0 + Pmcd::RESTART_BACKOFF_BASE_S);
        assert_eq!(supervised(&reg), (1, 1));
        assert!(p.fetch("flaky.metric", 6.0, 6.5).is_some());
    }
}
