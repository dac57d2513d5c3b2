//! Metric primitives and the registry that owns them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::snapshot::{HistogramSnapshot, Snapshot, SpanSnapshot};
use crate::span::{SpanGuard, SpanStats};
use crate::trace::Tracer;

/// Identity of one metric: name plus sorted `label=value` pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, dotted-lowercase by convention (`transport.values_lost`).
    pub name: String,
    /// Label pairs, sorted by key for deterministic identity and export.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key; labels are sorted so equivalent label sets collide.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// Monotonic event counter: a cheap-clone handle onto a lock-free cell,
/// empty from [`Registry::disabled`] — `add` does nothing, `get` reads 0.
#[derive(Debug, Clone)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add `n` events.
    pub fn add(&self, n: u64) {
        if let Some(value) = &self.0 {
            value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |v| v.load(Ordering::Relaxed))
    }
}

/// Last-value gauge storing an `f64` (lock-free via bit transmutation);
/// a handle like [`Counter`], empty from [`Registry::disabled`].
#[derive(Debug, Clone)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Overwrite the gauge value.
    pub fn set(&self, v: f64) {
        if let Some(bits) = &self.0 {
            bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.as_ref().map_or(0, |b| b.load(Ordering::Relaxed)))
    }
}

/// Fixed-bucket histogram over `u64` samples (latencies in ns, sizes, ...).
///
/// Buckets are upper-inclusive bounds; one implicit overflow bucket catches
/// everything above the last bound. Recording is lock-free. Quantiles are
/// estimated by linear interpolation inside the winning bucket, which is
/// deterministic for a given sample multiset. A handle like [`Counter`]:
/// empty from [`Registry::disabled`], every getter then reads 0 / `None`.
#[derive(Debug, Clone)]
pub struct Histogram(Option<Arc<HistogramCell>>);

#[derive(Debug)]
struct HistogramCell {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    /// Largest tagged sample and the trace it belongs to, so a p99
    /// outlier links straight to its trace tree. `(trace_id, value)`.
    exemplar: Mutex<Option<(u64, u64)>>,
}

impl HistogramCell {
    fn exemplar(&self) -> std::sync::MutexGuard<'_, Option<(u64, u64)>> {
        match self.exemplar.lock() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        }
    }

    fn counts(&self) -> Vec<u64> {
        let load = |b: &AtomicU64| b.load(Ordering::Relaxed);
        self.buckets.iter().map(load).collect()
    }
}

impl Histogram {
    /// Build with the given ascending upper bounds.
    pub fn new(bounds: Vec<u64>) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Some(Arc::new(HistogramCell {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            exemplar: Mutex::new(None),
        })))
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        let Some(h) = &self.0 else { return };
        let idx = h.bounds.partition_point(|&b| b < v);
        h.buckets[idx].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record one sample and tag it with the trace it belongs to. The
    /// exemplar kept is the largest tagged sample (ties: lowest trace
    /// id), so the retained exemplar is deterministic regardless of
    /// arrival order and always points at the tail of the distribution.
    pub fn record_exemplar(&self, v: u64, trace_id: u64) {
        let Some(h) = &self.0 else { return };
        self.record(v);
        let mut slot = h.exemplar();
        let replace = match *slot {
            None => true,
            Some((t, cur)) => v > cur || (v == cur && trace_id < t),
        };
        if replace {
            *slot = Some((trace_id, v));
        }
    }

    /// The current exemplar, if any sample was tagged: `(trace_id, value)`.
    pub fn exemplar(&self) -> Option<(u64, u64)> {
        *self.0.as_ref()?.exemplar()
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.count.load(Ordering::Relaxed))
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.sum.load(Ordering::Relaxed))
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.max.load(Ordering::Relaxed))
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the bucket containing the target rank.
    pub fn quantile(&self, q: f64) -> f64 {
        let Some(h) = &self.0 else { return 0.0 };
        quantile_from_counts(&h.bounds, &h.counts(), self.count(), self.max(), q)
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let cell = self.0.as_ref();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            bounds: cell.map_or_else(Vec::new, |h| h.bounds.clone()),
            buckets: cell.map_or_else(Vec::new, |h| h.counts()),
            exemplar: self.exemplar(),
        }
    }
}

/// Shared quantile estimator over fixed buckets, used by histograms and
/// per-span duration aggregates. Linear interpolation within the winning
/// bucket; when no sample lies *above* that bucket, the observed max is
/// the tightest upper bound — without the clamp, a histogram whose
/// samples all sit in the first bucket reports the bucket's static bound
/// as p99 and inflates low-latency tails.
pub(crate) fn quantile_from_counts(
    bounds: &[u64],
    counts: &[u64],
    n: u64,
    max: u64,
    q: f64,
) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (idx, &c) in counts.iter().enumerate() {
        if seen + c >= target {
            let lower = if idx == 0 { 0 } else { bounds[idx - 1] };
            let mut upper = if idx < bounds.len() {
                bounds[idx]
            } else {
                // Overflow bucket: bounded above by the observed max.
                max.max(lower)
            };
            if seen + c == n {
                // Nothing above this bucket: the max caps it.
                upper = upper.min(max).max(lower);
            }
            if c == 0 {
                return upper as f64;
            }
            let frac = (target - seen) as f64 / c as f64;
            return lower as f64 + (upper - lower) as f64 * frac;
        }
        seen += c;
    }
    max as f64
}

/// Default latency bucket bounds in nanoseconds: 1µs → 10s, log-ish
/// spaced. Span duration aggregates bucket against the same bounds.
pub(crate) const LATENCY_BOUNDS: [u64; 18] = [
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Default latency bucket bounds in nanoseconds: 1µs → 10s, log-ish spaced.
pub fn latency_buckets() -> Vec<u64> {
    LATENCY_BOUNDS.to_vec()
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<MetricKey, Arc<AtomicU64>>,
    gauges: BTreeMap<MetricKey, Arc<AtomicU64>>,
    histograms: BTreeMap<MetricKey, Histogram>,
    spans: BTreeMap<String, SpanStats>,
}

/// Owner of all metrics for one pipeline instance.
///
/// Cloneable via `Arc<Registry>`; every accessor takes `&self`. Handle
/// creation locks briefly; the returned handles are lock-free to update.
/// "No registry" is [`Registry::disabled`], not an `Option`.
#[derive(Default)]
pub struct Registry {
    /// Set only on [`Registry::disabled`]: nothing is ever registered.
    disabled: bool,
    inner: Mutex<RegistryInner>,
    /// Fast-path flag so untraced pipelines pay one relaxed load, not a
    /// lock, to discover there is no tracer.
    tracing_on: AtomicBool,
    tracer: Mutex<Option<Arc<Tracer>>>,
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Shared fresh registry (the common way to thread one through a
    /// pipeline).
    pub fn shared() -> Arc<Registry> {
        Arc::new(Registry::new())
    }

    /// The one shared registry that records nothing — what an unobserved
    /// pipeline holds: `counter` / `gauge` / `histogram` hand out empty
    /// handles without locking or allocating, spans are dropped, no tracer
    /// attaches and [`Registry::snapshot`] stays empty.
    pub fn disabled() -> Arc<Registry> {
        static DISABLED: OnceLock<Arc<Registry>> = OnceLock::new();
        let build = || {
            Arc::new(Registry {
                disabled: true,
                ..Registry::default()
            })
        };
        DISABLED.get_or_init(build).clone()
    }

    /// False only for [`Registry::disabled`]: guards work done purely to
    /// label or export a metric (a `format!`, a snapshot walk).
    pub fn is_enabled(&self) -> bool {
        !self.disabled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        }
    }

    /// Get or create the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        if self.disabled {
            return Counter(None);
        }
        let key = MetricKey::new(name, labels);
        Counter(Some(self.lock().counters.entry(key).or_default().clone()))
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        if self.disabled {
            return Gauge(None);
        }
        let key = MetricKey::new(name, labels);
        Gauge(Some(self.lock().gauges.entry(key).or_default().clone()))
    }

    /// Get or create the histogram `name{labels}` with `bounds` (bounds are
    /// fixed on first creation; later calls reuse the existing instance).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: Vec<u64>) -> Histogram {
        if self.disabled {
            return Histogram(None);
        }
        let key = MetricKey::new(name, labels);
        let mut inner = self.lock();
        let live = || Histogram::new(bounds);
        inner.histograms.entry(key).or_insert_with(live).clone()
    }

    /// Open a span at virtual time `start_ns`; finish it with
    /// [`SpanGuard::finish`]. Aggregates per span name.
    pub fn span_enter<'r>(&'r self, name: &str, start_ns: u64) -> SpanGuard<'r> {
        SpanGuard::new(self, name, start_ns)
    }

    /// Record a completed span directly from explicit timestamps.
    pub fn record_span(&self, name: &str, start_ns: u64, end_ns: u64) {
        if self.disabled {
            return;
        }
        let mut inner = self.lock();
        let stats = inner.spans.entry(name.to_string()).or_default();
        stats.record(start_ns, end_ns);
    }

    /// Attach a tracer so pipeline stages holding this registry can
    /// start and propagate trace trees without extra plumbing.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        if self.disabled {
            return;
        }
        let mut slot = match self.tracer.lock() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        };
        *slot = Some(tracer);
        self.tracing_on.store(true, Ordering::Release);
    }

    /// The attached tracer, if any. Cheap when tracing is off.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        if !self.tracing_on.load(Ordering::Acquire) {
            return None;
        }
        let slot = match self.tracer.lock() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        };
        slot.clone()
    }

    /// Deterministic point-in-time export of every metric and span.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), f64::from_bits(g.load(Ordering::Relaxed))))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            spans: inner
                .spans
                .iter()
                .map(|(name, s)| {
                    (
                        name.clone(),
                        SpanSnapshot {
                            count: s.count,
                            total_ns: s.total_ns,
                            min_ns: s.min_ns,
                            max_ns: s.max_ns,
                            last_start_ns: s.last_start_ns,
                            last_end_ns: s.last_end_ns,
                            p50_ns: s.quantile(0.50),
                            p90_ns: s.quantile(0.90),
                            p99_ns: s.quantile(0.99),
                        },
                    )
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .field("spans", &inner.spans.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let reg = Registry::new();
        let a = reg.counter("x", &[("h", "skx")]);
        let b = reg.counter("x", &[("h", "skx")]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        // Different labels are a different metric.
        assert_eq!(reg.counter("x", &[("h", "icl")]).get(), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = Registry::new();
        reg.counter("m", &[("a", "1"), ("b", "2")]).inc();
        assert_eq!(reg.counter("m", &[("b", "2"), ("a", "1")]).get(), 1);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let h = Histogram::new(vec![10, 20, 30]);
        for v in [5, 15, 15, 25, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 100);
        assert_eq!(h.max(), 40);
        let p50 = h.quantile(0.5);
        assert!(p50 > 10.0 && p50 <= 20.0, "p50 {p50}");
        assert!(h.quantile(1.0) >= 30.0);
        assert!(h.quantile(0.0) <= p50);
        assert_eq!(Histogram::new(vec![10]).quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_returns_tightest_bound_for_single_bucket() {
        // Regression: all samples in the first bucket must not report
        // the bucket's static upper bound as p99.
        let h = Histogram::new(latency_buckets());
        for _ in 0..100 {
            h.record(500);
        }
        assert_eq!(h.quantile(0.99), 495.0);
        assert_eq!(h.quantile(0.50), 250.0);

        // Same when the samples sit in an interior bucket.
        let h = Histogram::new(latency_buckets());
        for _ in 0..100 {
            h.record(1_500);
        }
        let p99 = h.quantile(0.99);
        assert!(p99 <= 1_500.0, "p99 {p99} must not exceed the observed max");
        assert!(p99 > 1_000.0);
    }

    #[test]
    fn exemplar_keeps_largest_tagged_sample() {
        let h = Histogram::new(vec![10, 100]);
        assert_eq!(h.exemplar(), None);
        h.record_exemplar(5, 111);
        h.record_exemplar(50, 222);
        h.record_exemplar(7, 333);
        assert_eq!(h.exemplar(), Some((222, 50)));
        // Ties resolve to the lowest trace id, order-independently.
        h.record_exemplar(50, 200);
        assert_eq!(h.exemplar(), Some((200, 50)));
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn registry_tracer_slot_round_trips() {
        use crate::trace::{TraceConfig, Tracer};
        let reg = Registry::new();
        assert!(reg.tracer().is_none());
        reg.set_tracer(Arc::new(Tracer::new(1, TraceConfig::default())));
        assert!(reg.tracer().is_some());
    }

    #[test]
    fn disabled_registry_and_empty_handles_do_nothing() {
        use crate::trace::{TraceConfig, Tracer};
        let reg = Registry::disabled();
        assert!(!reg.is_enabled() && Registry::new().is_enabled());
        assert!(Arc::ptr_eq(&reg, &Registry::disabled()), "one instance");
        let (a, b) = (reg.counter("c", &[("h", "skx")]), reg.counter("c", &[]));
        a.add(3);
        a.inc();
        assert_eq!((a.get(), b.get()), (0, 0));
        let g = reg.gauge("g", &[]);
        g.set(0.375);
        assert_eq!(g.get(), 0.0);
        let h = reg.histogram("h", &[], latency_buckets());
        h.record(7);
        h.record_exemplar(9, 1);
        crate::Span::none().observe(&h, 5);
        assert_eq!((h.count(), h.sum(), h.max(), h.exemplar()), (0, 0, 0, None));
        assert_eq!((h.mean(), h.quantile(0.99)), (0.0, 0.0));
        reg.record_span("s", 0, 10);
        reg.span_enter("s", 0).finish(10);
        reg.set_tracer(Arc::new(Tracer::new(1, TraceConfig::default())));
        assert!(reg.tracer().is_none());
        assert_eq!(reg.snapshot(), Snapshot::default());
        // A clone of a live handle shares its cell; empty ones share nothing.
        let live = Registry::new().counter("c", &[]);
        live.clone().inc();
        assert_eq!((live.get(), a.clone().get()), (1, 0));
    }

    #[test]
    fn gauge_stores_floats() {
        let g = Registry::new().gauge("g", &[]);
        g.set(0.375);
        assert_eq!(g.get(), 0.375);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let build = || {
            let reg = Registry::new();
            reg.counter("b.metric", &[]).add(2);
            reg.counter("a.metric", &[]).add(1);
            reg.histogram("h", &[], vec![10, 100]).record(7);
            reg.record_span("step", 100, 250);
            reg.snapshot()
        };
        let s1 = build();
        let s2 = build();
        assert_eq!(s1, s2);
        assert_eq!(s1.counters[0].0.name, "a.metric");
        assert_eq!(s1.spans[0].1.total_ns, 150);
    }
}
