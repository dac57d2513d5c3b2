//! Cluster-level P-MoVE (the paper's §VI forward-looking design:
//! "a straightforward extension of the framework from single-node servers
//! to clusters").
//!
//! A [`Cluster`] owns one daemon per node, drives Scenario A across all of
//! them in lockstep, uploads to SUPERDB, and answers fleet-level
//! questions: cross-machine level views, slowest-node detection, and
//! cluster-wide retention enforcement.

use crate::error::PmoveError;
use crate::kb::superdb::SuperDb;
use crate::telemetry::daemon::PMoveDaemon;
use pmove_obs::Registry;
use pmove_pcp::SamplingReport;
use pmove_tsdb::Query;
use std::sync::Arc;

/// Missed monitoring-round heartbeats before a dead node is quarantined.
const HEARTBEAT_MISS_LIMIT: u32 = 3;

/// Liveness view of one cluster node, as the supervisor sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeHealth {
    /// Machine key of the node.
    pub key: String,
    /// False once the node has been killed (stops answering heartbeats).
    pub alive: bool,
    /// True once the supervisor has quarantined the node: it is skipped
    /// by `monitor_all` and its SUPERDB data is annotated stale.
    pub quarantined: bool,
    /// Monitoring rounds in a row the node has missed a heartbeat.
    pub missed_heartbeats: u32,
    /// Virtual time of the node's last successful monitoring round.
    pub last_seen_s: f64,
}

/// Internal per-node supervisor state (parallel to `nodes`).
#[derive(Debug, Clone, Copy)]
struct NodeState {
    alive: bool,
    quarantined: bool,
    missed: u32,
    last_seen_s: f64,
}

impl NodeState {
    fn healthy() -> NodeState {
        NodeState {
            alive: true,
            quarantined: false,
            missed: 0,
            last_seen_s: 0.0,
        }
    }
}

/// A monitored cluster: one P-MoVE daemon per node plus the global DB.
pub struct Cluster {
    /// Per-node daemons (host side).
    pub nodes: Vec<PMoveDaemon>,
    /// The global performance database.
    pub superdb: SuperDb,
    /// Fleet-level observability registry (per-node telemetry lives in
    /// each daemon's own registry; this one holds cluster-wide counters
    /// and the `cluster.monitor_all` span).
    pub obs: Arc<Registry>,
    /// Per-node liveness bookkeeping (parallel to `nodes`).
    health: Vec<NodeState>,
}

impl Cluster {
    /// Bring up a cluster from preset machine keys; every node's KB is
    /// uploaded to SUPERDB immediately.
    pub fn from_presets(keys: &[&str]) -> Result<Cluster, PmoveError> {
        let obs = Registry::shared();
        let superdb = SuperDb::new();
        let mut nodes = Vec::with_capacity(keys.len());
        for key in keys {
            let daemon = PMoveDaemon::for_preset(key)?;
            superdb.upload_kb(&daemon.kb)?;
            obs.counter("cluster.kb_uploads", &[("node", key)]).inc();
            nodes.push(daemon);
        }
        let health = vec![NodeState::healthy(); nodes.len()];
        Ok(Cluster {
            nodes,
            superdb,
            obs,
            health,
        })
    }

    /// Node daemon by machine key.
    pub(crate) fn node(&self, key: &str) -> Option<&PMoveDaemon> {
        self.nodes.iter().find(|d| d.kb.machine_key == key)
    }

    /// Mutable node daemon by machine key.
    pub fn node_mut(&mut self, key: &str) -> Option<&mut PMoveDaemon> {
        self.nodes.iter_mut().find(|d| d.kb.machine_key == key)
    }

    /// Simulate a node death: the node stops answering heartbeats, so the
    /// next monitoring rounds count misses and eventually quarantine it.
    /// Returns false for unknown keys.
    pub fn kill_node(&mut self, key: &str) -> bool {
        match self.nodes.iter().position(|d| d.kb.machine_key == key) {
            Some(i) => {
                self.health[i].alive = false;
                true
            }
            None => false,
        }
    }

    /// Bring a killed node back: liveness and quarantine are reset and the
    /// SUPERDB staleness annotation is cleared, so the next round monitors
    /// it again. Returns false for unknown keys.
    pub fn revive_node(&mut self, key: &str) -> Result<bool, PmoveError> {
        match self.nodes.iter().position(|d| d.kb.machine_key == key) {
            Some(i) => {
                self.health[i].alive = true;
                self.health[i].quarantined = false;
                self.health[i].missed = 0;
                self.superdb.clear_stale(key)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Liveness summary per node, in node order.
    pub fn node_health(&self) -> Vec<NodeHealth> {
        self.nodes
            .iter()
            .zip(&self.health)
            .map(|(d, s)| NodeHealth {
                key: d.kb.machine_key.clone(),
                alive: s.alive,
                quarantined: s.quarantined,
                missed_heartbeats: s.missed,
                last_seen_s: s.last_seen_s,
            })
            .collect()
    }

    /// Machine keys of quarantined nodes.
    pub fn quarantined_nodes(&self) -> Vec<String> {
        self.node_health()
            .into_iter()
            .filter(|h| h.quarantined)
            .map(|h| h.key)
            .collect()
    }

    /// Run Scenario A on every live node for the same window; returns
    /// per-node reports in node order. Dead nodes miss the round's
    /// heartbeat; after three consecutive misses the supervisor
    /// quarantines them — the node is skipped, its SUPERDB data is marked
    /// stale, and the survivors keep reporting.
    pub fn monitor_all(&mut self, duration_s: f64, freq_hz: f64) -> Vec<(String, SamplingReport)> {
        let start_s = self
            .nodes
            .iter()
            .zip(&self.health)
            .find(|(_, s)| s.alive && !s.quarantined)
            .map(|(d, _)| d.now_s)
            .unwrap_or(0.0);
        let mut reports = Vec::new();
        for (i, d) in self.nodes.iter_mut().enumerate() {
            let state = &mut self.health[i];
            if state.quarantined {
                continue;
            }
            if !state.alive {
                state.missed += 1;
                if state.missed >= HEARTBEAT_MISS_LIMIT {
                    state.quarantined = true;
                    let key = d.kb.machine_key.as_str();
                    self.obs
                        .counter("cluster.nodes_quarantined", &[("node", key)])
                        .inc();
                    // Flag the node's global data as stale at the time its
                    // silence started, not at quarantine time.
                    let since_s = state.last_seen_s;
                    self.superdb
                        .mark_stale(key, since_s)
                        .expect("in-memory staleness annotation cannot fail");
                }
                continue;
            }
            let report = d.monitor(duration_s, freq_hz);
            state.missed = 0;
            state.last_seen_s = d.now_s;
            reports.push((d.kb.machine_key.clone(), report));
        }
        self.obs
            .counter("cluster.nodes_monitored", &[])
            .add(reports.len() as u64);
        self.obs.record_span(
            "cluster.monitor_all",
            (start_s * 1e9).round().max(0.0) as u64,
            ((start_s + duration_s) * 1e9).round().max(0.0) as u64,
        );
        reports
    }

    /// Cluster-wide load summary at the current virtual time: per node,
    /// the mean 1-minute load recorded in its tsdb.
    pub fn load_summary(&self) -> Vec<(String, f64)> {
        self.nodes
            .iter()
            .map(|d| {
                let q = Query::parse("SELECT mean(\"value\") FROM \"kernel_all_load\"");
                let frame = q.and_then(|q| d.ts.query_frame(&q));
                let mean = frame.ok().and_then(|f| *f.cols[0].first()?);
                (d.kb.machine_key.clone(), mean.unwrap_or(0.0))
            })
            .collect()
    }

    /// The node with the highest normalized load (load per hardware
    /// thread) — the fleet-level hot-spot detector.
    pub fn hottest_node(&self) -> Option<(String, f64)> {
        self.load_summary()
            .into_iter()
            .map(|(key, load)| {
                let threads = self
                    .node(&key)
                    .map(|d| d.machine.spec.total_threads() as f64)
                    .unwrap_or(1.0);
                (key, load / threads)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("loads are finite"))
    }

    /// Keep the last `keep_ns` of data on every node and enforce it now;
    /// returns rows removed per node. (§V-B: "we rely on the retention
    /// policy of InfluxDB" when high-frequency sampling would overwhelm
    /// storage.) Each call sets the keep duration anew; a non-positive
    /// `keep_ns` is an error and changes nothing.
    pub fn enforce_retention(&mut self, keep_ns: i64) -> Result<Vec<(String, usize)>, PmoveError> {
        let mut removed = Vec::with_capacity(self.nodes.len());
        for d in &self.nodes {
            d.ts.set_retention(keep_ns)?;
            let now_ns = (d.now_s * 1e9) as i64;
            removed.push((d.kb.machine_key.clone(), d.ts.enforce_retention(now_ns)?));
        }
        let total: u64 = removed.iter().map(|(_, n)| *n as u64).sum();
        self.obs
            .counter("cluster.retention_rows_removed", &[])
            .add(total);
        Ok(removed)
    }

    /// Total component twins across the fleet (from SUPERDB).
    pub fn fleet_twin_count(&self) -> usize {
        self.superdb
            .machines()
            .iter()
            .map(|m| {
                crate::kb::store::load_interfaces(&self.superdb.doc, m)
                    .map(|v| v.len())
                    .unwrap_or(0)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::from_presets(&["icl", "zen3"]).expect("presets exist")
    }

    #[test]
    fn construction_uploads_all_kbs() {
        let c = cluster();
        assert_eq!(c.nodes.len(), 2);
        assert_eq!(
            c.superdb.machines(),
            vec!["icl".to_string(), "zen3".to_string()]
        );
        assert_eq!(
            c.fleet_twin_count(),
            c.nodes.iter().map(|d| d.kb.len()).sum::<usize>()
        );
        assert!(c.node("icl").is_some());
        assert!(c.node("ghost").is_none());
    }

    #[test]
    fn lockstep_monitoring_fills_every_node() {
        let mut c = cluster();
        let reports = c.monitor_all(10.0, 1.0);
        assert_eq!(reports.len(), 2);
        for (key, r) in &reports {
            assert_eq!(r.ticks, 10, "{key}");
        }
        for d in &c.nodes {
            assert!(d.ts.total_rows() > 0);
        }
        let loads = c.load_summary();
        assert!(loads.iter().all(|(_, l)| *l >= 0.0));
    }

    #[test]
    fn fleet_observability_tracks_uploads_windows_and_retention() {
        let mut c = cluster();
        c.monitor_all(30.0, 2.0);
        c.monitor_all(10.0, 1.0);
        c.enforce_retention(10_000_000_000).unwrap();
        let snap = c.obs.snapshot();
        assert_eq!(
            snap.counter("cluster.kb_uploads", &[("node", "icl")]),
            Some(1)
        );
        assert_eq!(snap.counter("cluster.nodes_monitored", &[]), Some(4));
        let span = snap.span("cluster.monitor_all").unwrap();
        assert_eq!(span.count, 2);
        assert_eq!(span.last_start_ns, 30_000_000_000);
        assert_eq!(span.last_end_ns, 40_000_000_000);
        assert!(snap.counter("cluster.retention_rows_removed", &[]).unwrap() > 0);
        // Each node's own registry carries its transport counters.
        for d in &c.nodes {
            let node_snap = d.obs.snapshot();
            assert!(node_snap.counter_total("pcp.transport.values_offered") > 0);
        }
    }

    #[test]
    fn dead_node_is_quarantined_after_missed_heartbeats() {
        let mut c = cluster();
        c.monitor_all(10.0, 1.0);
        assert!(c.node_health().iter().all(|h| h.alive && !h.quarantined));
        assert!(c.kill_node("icl"));
        assert!(!c.kill_node("ghost"));

        // Two missed rounds: counted, not yet quarantined.
        for round in 1..=2u32 {
            let reports = c.monitor_all(10.0, 1.0);
            assert_eq!(reports.len(), 1, "only the survivor reports");
            assert_eq!(reports[0].0, "zen3");
            let icl = &c.node_health()[0];
            assert_eq!(icl.missed_heartbeats, round);
            assert!(!icl.quarantined);
        }
        // Third miss crosses the limit: quarantine + SUPERDB staleness.
        c.monitor_all(10.0, 1.0);
        let icl = &c.node_health()[0];
        assert!(icl.quarantined);
        assert_eq!(icl.last_seen_s, 10.0);
        assert_eq!(c.quarantined_nodes(), vec!["icl".to_string()]);
        assert_eq!(c.superdb.staleness("icl"), Some(10.0));
        let snap = c.obs.snapshot();
        assert_eq!(
            snap.counter("cluster.nodes_quarantined", &[("node", "icl")]),
            Some(1)
        );
        // Survivors keep filling their stores; the dead clock froze.
        assert_eq!(c.node("zen3").unwrap().now_s, 40.0);
        assert_eq!(c.node("icl").unwrap().now_s, 10.0);

        // Revival clears quarantine and staleness; monitoring resumes.
        assert!(c.revive_node("icl").unwrap());
        assert!(c.superdb.staleness("icl").is_none());
        let reports = c.monitor_all(10.0, 1.0);
        assert_eq!(reports.len(), 2);
    }

    #[test]
    fn hottest_node_is_stable_and_normalized() {
        let mut c = cluster();
        c.monitor_all(10.0, 1.0);
        let (key, norm_load) = c.hottest_node().expect("two nodes monitored");
        assert!(["icl", "zen3"].contains(&key.as_str()));
        assert!((0.0..1.0).contains(&norm_load));
    }

    #[test]
    fn retention_prunes_old_rows_cluster_wide() {
        let mut c = cluster();
        c.monitor_all(30.0, 2.0);
        let before: usize = c.nodes.iter().map(|d| d.ts.total_rows()).sum();
        // Keep only the last 10 virtual seconds.
        let removed = c.enforce_retention(10_000_000_000).unwrap();
        let removed_total: usize = removed.iter().map(|(_, n)| n).sum();
        assert!(removed_total > 0);
        let after: usize = c.nodes.iter().map(|d| d.ts.total_rows()).sum();
        assert_eq!(after + removed_total, before);
        // Fresh data is retained.
        assert!(after > 0);
    }

    #[test]
    fn each_retention_call_applies_its_own_keep() {
        let mut c = cluster();
        c.monitor_all(30.0, 2.0);
        let removed = |r: Vec<(String, usize)>| r.iter().map(|(_, n)| n).sum::<usize>();
        let first = removed(c.enforce_retention(20_000_000_000).unwrap());
        assert!(first > 0);
        // A shorter keep removes the rows between the two cutoffs.
        let second = removed(c.enforce_retention(10_000_000_000).unwrap());
        assert!(second > 0, "the second, shorter keep was ignored");
        let oldest = |d: &PMoveDaemon| {
            let rows = d.ts.query("SELECT \"value\" FROM \"kernel_all_load\"");
            rows.unwrap().rows.iter().map(|r| r.timestamp).min()
        };
        for d in &c.nodes {
            let cutoff = (d.now_s * 1e9) as i64 - 10_000_000_000;
            assert!(oldest(d).unwrap() >= cutoff, "{}", d.kb.machine_key);
        }
    }

    #[test]
    fn retention_refuses_a_non_positive_keep() {
        let mut c = cluster();
        c.monitor_all(10.0, 1.0);
        let before: usize = c.nodes.iter().map(|d| d.ts.total_rows()).sum();
        assert!(c.enforce_retention(0).is_err());
        assert!(c.enforce_retention(-5).is_err());
        let after: usize = c.nodes.iter().map(|d| d.ts.total_rows()).sum();
        assert_eq!(after, before);
    }

    #[test]
    fn per_node_scenario_b_still_works_inside_a_cluster() {
        use crate::profiles::stream_kernel_profile;
        use crate::telemetry::pinning::PinningStrategy;
        use crate::telemetry::scenario_b::ProfileRequest;
        use pmove_hwsim::vendor::IsaExt;
        use pmove_kernels::StreamKernel;

        let mut c = cluster();
        let d = c.node_mut("zen3").unwrap();
        let request = ProfileRequest {
            profile: stream_kernel_profile(StreamKernel::Sum, 1 << 30, 8, IsaExt::Scalar),
            command: "sum".into(),
            generic_events: vec!["TOTAL_DP_FLOPS".into()],
            freq_hz: 4.0,
            pinning: PinningStrategy::Compact,
        };
        let outcome = d.profile(&request).expect("profiling works per node");
        assert_eq!(d.kb.observations.len(), 1);
        assert!(outcome.execution.duration_s > 0.0);
    }
}
