//! Serving configuration and its typed validation errors.

use std::fmt;

/// Request class; interactive panel refreshes outrank background exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Bulk work: report exports, long-window scans. Shed first.
    Background,
    /// A human is watching: dashboard panel refresh.
    Interactive,
}

impl Priority {
    /// Stable label for metrics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Background => "background",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What to do with a request the tenant's token bucket cannot cover right
/// now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Refuse immediately (HTTP 429 semantics); the request is never
    /// admitted.
    Reject,
    /// Admit and park in the queue until the bucket refills; the request
    /// becomes dispatch-eligible at its deterministic token-reservation
    /// time (and may still be shed if the queue overflows).
    Queue,
}

/// Weighted-fair-queueing weight of [`Priority::Interactive`].
pub(crate) const INTERACTIVE_WEIGHT: u32 = 8;
/// Weighted-fair-queueing weight of [`Priority::Background`].
pub(crate) const BACKGROUND_WEIGHT: u32 = 1;

/// Validated configuration of the serving front-end.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Bounded admission queue: queued requests across all tenants.
    /// Overflow sheds the lowest-priority eligible request.
    pub queue_capacity: usize,
    /// Concurrent query executions (dispatcher slots).
    pub max_concurrency: usize,
    /// Per-tenant token refill rate (requests per virtual second).
    pub tenant_rate_per_s: u64,
    /// Per-tenant bucket capacity (burst allowance).
    pub tenant_burst: u64,
    /// Per-tenant cap on requests in the layer at once (queued +
    /// executing); exceeding it rejects regardless of policy.
    pub tenant_cap: usize,
    /// What happens when a tenant's bucket is empty.
    pub overload: OverloadPolicy,
    /// Serving-latency p99 objective (ns, submit -> completion). The
    /// default SLO installed over the `pmove.serve.latency_ns` histogram
    /// pages when the tail crosses it; must be one of the registry's
    /// latency bucket bounds so budget accounting is exact.
    pub slo_p99_ns: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            queue_capacity: 1024,
            max_concurrency: 8,
            tenant_rate_per_s: 50,
            tenant_burst: 100,
            tenant_cap: 64,
            overload: OverloadPolicy::Queue,
            slo_p99_ns: 5_000_000,
        }
    }
}

impl ServingConfig {
    /// Validate the configuration; every rejected field maps to a typed
    /// [`ServeError`] so callers can render precise diagnostics.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.queue_capacity == 0 {
            return Err(ServeError::ZeroCapacityQueue);
        }
        if self.max_concurrency == 0 {
            return Err(ServeError::ZeroConcurrency);
        }
        if self.tenant_rate_per_s == 0 || self.tenant_burst == 0 {
            return Err(ServeError::ZeroRateBucket {
                rate_per_s: self.tenant_rate_per_s,
                burst: self.tenant_burst,
            });
        }
        if self.tenant_cap == 0 {
            return Err(ServeError::ZeroTenantCap);
        }
        if self.slo_p99_ns == 0 {
            return Err(ServeError::ZeroSloThreshold);
        }
        Ok(())
    }
}

/// Typed serving-layer failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// `queue_capacity == 0`: nothing could ever be admitted under the
    /// queue policy.
    ZeroCapacityQueue,
    /// `max_concurrency == 0`: no dispatcher slots.
    ZeroConcurrency,
    /// A token bucket that can never hold or refill a token.
    ZeroRateBucket {
        /// Configured refill rate.
        rate_per_s: u64,
        /// Configured burst capacity.
        burst: u64,
    },
    /// `tenant_cap == 0`: every request would be refused.
    ZeroTenantCap,
    /// `slo_p99_ns == 0`: the latency objective would page on any sample.
    ZeroSloThreshold,
    /// The backend failed to execute a query.
    Backend(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ZeroCapacityQueue => write!(f, "serving config: zero-capacity queue"),
            ServeError::ZeroConcurrency => write!(f, "serving config: zero max_concurrency"),
            ServeError::ZeroRateBucket { rate_per_s, burst } => write!(
                f,
                "serving config: zero-rate token bucket (rate={rate_per_s}/s, burst={burst})"
            ),
            ServeError::ZeroTenantCap => write!(f, "serving config: zero per-tenant cap"),
            ServeError::ZeroSloThreshold => write!(f, "serving config: zero SLO threshold"),
            ServeError::Backend(e) => write!(f, "serving backend: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<pmove_tsdb::TsdbError> for ServeError {
    fn from(e: pmove_tsdb::TsdbError) -> Self {
        ServeError::Backend(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(ServingConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_capacity_queue_is_rejected() {
        let cfg = ServingConfig {
            queue_capacity: 0,
            ..ServingConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ServeError::ZeroCapacityQueue));
    }

    #[test]
    fn zero_concurrency_is_rejected() {
        let cfg = ServingConfig {
            max_concurrency: 0,
            ..ServingConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ServeError::ZeroConcurrency));
    }

    #[test]
    fn zero_rate_bucket_is_rejected() {
        for (rate, burst) in [(0, 100), (50, 0), (0, 0)] {
            let cfg = ServingConfig {
                tenant_rate_per_s: rate,
                tenant_burst: burst,
                ..ServingConfig::default()
            };
            assert_eq!(
                cfg.validate(),
                Err(ServeError::ZeroRateBucket {
                    rate_per_s: rate,
                    burst,
                })
            );
        }
    }

    #[test]
    fn zero_tenant_cap_is_rejected() {
        let cfg = ServingConfig {
            tenant_cap: 0,
            ..ServingConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ServeError::ZeroTenantCap));
    }

    #[test]
    fn zero_slo_threshold_is_rejected() {
        let cfg = ServingConfig {
            slo_p99_ns: 0,
            ..ServingConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ServeError::ZeroSloThreshold));
    }

    #[test]
    fn errors_render() {
        let text = ServeError::ZeroRateBucket {
            rate_per_s: 0,
            burst: 5,
        }
        .to_string();
        assert!(text.contains("zero-rate token bucket"), "{text}");
    }
}
