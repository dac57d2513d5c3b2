//! Span tracing over explicit (virtual-clock) timestamps.
//!
//! Spans aggregate per name rather than retaining every event, so span
//! overhead stays O(1) in memory no matter how long a pipeline runs. The
//! last start/end pair is kept so dashboards can show the most recent
//! step timings (the daemon construction steps 0–3 each run once, so
//! "last" equals "the" timing for them).

use crate::metrics::{quantile_from_counts, LATENCY_BOUNDS};

/// Aggregated statistics for one span name. Durations additionally
/// bucket against [`LATENCY_BOUNDS`], so snapshots report p50/p90/p99
/// per span name, not just the mean.
#[derive(Debug, Default, Clone)]
pub(crate) struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub last_start_ns: u64,
    pub last_end_ns: u64,
    /// Duration buckets; `LATENCY_BOUNDS.len() + 1` slots once used.
    pub buckets: Vec<u64>,
}

impl SpanStats {
    pub(crate) fn record(&mut self, start_ns: u64, end_ns: u64) {
        let dur = end_ns.saturating_sub(start_ns);
        self.count += 1;
        self.total_ns += dur;
        self.min_ns = if self.count == 1 {
            dur
        } else {
            self.min_ns.min(dur)
        };
        self.max_ns = self.max_ns.max(dur);
        self.last_start_ns = start_ns;
        self.last_end_ns = end_ns;
        if self.buckets.is_empty() {
            self.buckets = vec![0; LATENCY_BOUNDS.len() + 1];
        }
        let idx = LATENCY_BOUNDS.partition_point(|&b| b < dur);
        self.buckets[idx] += 1;
    }

    /// Interpolated duration quantile over the bucketed durations.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        quantile_from_counts(&LATENCY_BOUNDS, &self.buckets, self.count, self.max_ns, q)
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn spans_aggregate_per_name() {
        let reg = Registry::new();
        reg.record_span("step", 0, 100);
        reg.record_span("step", 1_000, 1_250);
        let snap = reg.snapshot();
        let (name, s) = &snap.spans[0];
        assert_eq!(name, "step");
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 350);
        assert_eq!(s.min_ns, 100);
        assert_eq!(s.max_ns, 250);
        assert_eq!(s.last_start_ns, 1_000);
        assert_eq!(s.last_end_ns, 1_250);
    }

    #[test]
    fn span_quantiles_track_tail_latency() {
        let reg = Registry::new();
        // 90 fast stages, 10 slow ones: the mean hides the tail, p99
        // lands inside the slow bucket.
        for i in 0..90u64 {
            reg.record_span("query.stage", i * 1_000, i * 1_000 + 2_000);
        }
        for i in 0..10u64 {
            reg.record_span("query.stage", 900_000 + i, 900_000 + i + 800_000);
        }
        let snap = reg.snapshot();
        let s = snap.span("query.stage").unwrap();
        assert_eq!(s.count, 100);
        assert!(s.p50_ns <= 2_500.0, "p50 {}", s.p50_ns);
        assert!(s.p99_ns >= 500_000.0, "p99 {}", s.p99_ns);
        assert!(s.p99_ns <= 800_000.0, "p99 {}", s.p99_ns);
        assert!(s.p50_ns <= s.p90_ns && s.p90_ns <= s.p99_ns);
    }

    #[test]
    fn backwards_clock_saturates_to_zero() {
        let reg = Registry::new();
        reg.record_span("odd", 100, 50);
        assert_eq!(reg.snapshot().spans[0].1.total_ns, 0);
    }
}
