//! Structured outcome of one serving run.

use crate::config::Priority;
use std::collections::BTreeMap;

/// One shed decision: an *admitted* request dropped because the bounded
/// queue overflowed. The invariant pinned by the fairness proptest is
/// `priority == lowest_present` — the layer never sheds over the head of
/// lower-priority work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedEvent {
    /// Virtual time of the decision.
    pub t_ns: u64,
    /// Tenant whose request was shed.
    pub tenant: u32,
    /// Priority of the shed request.
    pub priority: Priority,
    /// Lowest priority present in the queue (newcomer included) when the
    /// decision was made.
    pub lowest_present: Priority,
}

/// Per-tenant accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests the tenant submitted.
    pub submitted: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Requests admitted into the layer.
    pub admitted: u64,
    /// Requests that completed with a result.
    pub served: u64,
    /// Admitted requests dropped by queue overflow.
    pub shed: u64,
    /// Served requests whose execution hit the shared result cache.
    pub cache_hits: u64,
    /// Served requests whose execution missed the shared result cache.
    pub cache_misses: u64,
    /// Served requests that rode an execution another request triggered.
    pub coalesced: u64,
}

/// Exact latency summary of one priority class (nearest-rank over the
/// full sample set — deterministic, no estimation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Served requests in the class.
    pub count: u64,
    /// Median latency (ns).
    pub p50_ns: u64,
    /// 90th percentile (ns).
    pub p90_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
    /// Worst observed (ns).
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarize a sample set (sorted internally).
    pub(crate) fn of(samples: &mut [u64]) -> LatencySummary {
        samples.sort_unstable();
        let rank = |q: f64| -> u64 {
            if samples.is_empty() {
                return 0;
            }
            let n = samples.len() as f64;
            let idx = ((q * n).ceil() as usize).clamp(1, samples.len()) - 1;
            samples[idx]
        };
        LatencySummary {
            count: samples.len() as u64,
            p50_ns: rank(0.50),
            p90_ns: rank(0.90),
            p99_ns: rank(0.99),
            max_ns: samples.last().copied().unwrap_or(0),
        }
    }
}

/// Everything one [`crate::QueryServer::run`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests submitted to the layer.
    pub submitted: u64,
    /// Requests refused at admission (tenant cap).
    pub rejected: u64,
    /// Requests admitted (queued, coalesced, or executed).
    pub admitted: u64,
    /// Requests that completed with a result (errors included — an error
    /// response is still a response).
    pub served: u64,
    /// Admitted requests dropped by queue overflow.
    pub shed: u64,
    /// Backend executions (the denominator of the coalescing ratio).
    pub executions: u64,
    /// Served requests that rode someone else's execution.
    pub coalesced: u64,
    /// Executions served by the shared result cache.
    pub cache_hits: u64,
    /// Executions that had to scan storage.
    pub cache_misses: u64,
    /// Backend errors surfaced to callers.
    pub errors: u64,
    /// Every shed decision, in virtual-time order.
    pub shed_events: Vec<ShedEvent>,
    /// Per-tenant breakdown.
    pub per_tenant: BTreeMap<u32, TenantStats>,
    /// Latency summary of interactive traffic.
    pub interactive: LatencySummary,
    /// Latency summary of background traffic.
    pub background: LatencySummary,
    /// Deepest the queue got (requests).
    pub queue_depth_peak: u64,
    /// Virtual time the last completion landed.
    pub end_ns: u64,
}

impl ServeReport {
    /// The serving conservation identity: every submitted request is
    /// accounted exactly once, and every *admitted* request was either
    /// served or deliberately shed — nothing is lost in the layer.
    pub fn conserved(&self) -> bool {
        self.submitted == self.rejected + self.admitted && self.admitted == self.served + self.shed
    }

    /// Requests per backend execution (>= 1; higher means coalescing and
    /// the shared cache are absorbing identical work).
    pub fn coalescing_ratio(&self) -> f64 {
        if self.executions == 0 {
            return 1.0;
        }
        self.served as f64 / self.executions as f64
    }

    /// Cache hit rate across executions.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// Jain fairness index over per-tenant served counts: 1.0 when every
    /// tenant got the same share, approaching `1/n` under starvation.
    pub fn fairness_served(&self) -> f64 {
        let xs: Vec<f64> = self.per_tenant.values().map(|t| t.served as f64).collect();
        if xs.is_empty() {
            return 1.0;
        }
        let sum: f64 = xs.iter().sum();
        let sq: f64 = xs.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            return 1.0;
        }
        (sum * sum) / (xs.len() as f64 * sq)
    }

    /// True when every shed decision hit the lowest-priority request
    /// present at that moment.
    pub fn shed_only_lowest(&self) -> bool {
        self.shed_events
            .iter()
            .all(|e| e.priority == e.lowest_present)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::of(&mut v);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p90_ns, 90);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.max_ns, 100);
        assert_eq!(LatencySummary::of(&mut []), LatencySummary::default());
    }

    #[test]
    fn fairness_index_bounds() {
        let mut r = ServeReport {
            submitted: 0,
            rejected: 0,
            admitted: 0,
            served: 0,
            shed: 0,
            executions: 0,
            coalesced: 0,
            cache_hits: 0,
            cache_misses: 0,
            errors: 0,
            shed_events: Vec::new(),
            per_tenant: BTreeMap::new(),
            interactive: LatencySummary::default(),
            background: LatencySummary::default(),
            queue_depth_peak: 0,
            end_ns: 0,
        };
        for t in 0..4 {
            r.per_tenant.insert(
                t,
                TenantStats {
                    served: 10,
                    ..TenantStats::default()
                },
            );
        }
        assert!((r.fairness_served() - 1.0).abs() < 1e-12);
        r.per_tenant.get_mut(&0).unwrap().served = 40;
        r.per_tenant.get_mut(&1).unwrap().served = 0;
        r.per_tenant.get_mut(&2).unwrap().served = 0;
        r.per_tenant.get_mut(&3).unwrap().served = 0;
        assert!((r.fairness_served() - 0.25).abs() < 1e-12);
    }
}
