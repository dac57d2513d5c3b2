//! The agent abstraction: every PMDA reads some metrics from the target.

use crate::metric::MetricDesc;

/// One sampled value: instance/field name + value.
pub(crate) type Sample = (String, f64);

/// A PCP metric agent (PMDA).
pub trait Agent {
    /// Agent name (`pmdalinux`, `pmdaperfevent`, `pmdaproc`).
    fn name(&self) -> &str;

    /// Metrics this agent can serve.
    fn metrics(&self) -> Vec<MetricDesc>;

    /// Sample one metric over the window `[t_prev, t_now)` of virtual
    /// seconds; returns one value per instance.
    ///
    /// PCP semantics: counters report the count observed in the window
    /// (the delta the DB stores per sample); gauges report the value at
    /// `t_now`.
    fn sample(&mut self, metric: &str, t_prev: f64, t_now: f64) -> Vec<Sample>;

    /// Liveness probe driven by the supervisor: `false` means the agent
    /// process has crashed and needs a restart. Healthy by default, so
    /// existing agents need no changes.
    fn heartbeat(&mut self, _t_now: f64) -> bool {
        true
    }

    /// Restart a crashed agent at virtual time `t_now`. The default is a
    /// no-op; crash-capable agents reset their state here.
    fn restart(&mut self, _t_now: f64) {}
}
