//! Deterministic causal tracing: trace trees, a flight recorder, and a
//! critical-path analyzer.
//!
//! Where `span.rs` aggregates durations *per name*, this module follows one
//! request (a sampled telemetry report, a query, a daemon boot) through
//! every stage it touches and keeps the resulting tree. The design rules
//! match the rest of the crate:
//!
//! * **Deterministic**: `TraceId`s derive from a seed and a sequence
//!   number via SplitMix64; timestamps come from the caller's virtual
//!   clock, never a wall clock or RNG. Two same-seed runs record
//!   identical trees.
//! * **Complete**: every trace started on a tracer records; a fault site
//!   flags its trace ([`Span::fault`]) so the flight recorder shows which
//!   journeys went wrong.
//! * **Bounded**: finished trees land in a drop-oldest ring (the
//!   flight recorder), so memory is O(ring × spans) forever.
//!
//! Context propagation is by value: a [`Span`] (tracer + `Copy`
//! [`TraceContext`], or nothing) rides on reports across retries, spill
//! queues, hinted handoff, and quorum fan-out. A trace is terminated
//! exactly once via [`Span::finish`]; any child span still open at that
//! point is force-closed with status `unclosed`, which the chaos
//! proptest treats as an orphan and rejects.

use crate::metrics::Histogram;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// SplitMix64 — the same generator the chaos harness uses.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Identity of one trace; formatted as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identity of one span within its trace (1-based; 0 means "none").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u32);

/// Propagated by value along a request's journey. The `span` field is the
/// id the next child should use as parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace this context belongs to.
    pub trace: TraceId,
    /// Current span (parent of any child opened from this context).
    pub span: SpanId,
}

/// One recorded span inside a finished trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// 1-based span id; the root is always id 1.
    pub id: u32,
    /// Parent span id; 0 for the root.
    pub parent: u32,
    /// Stage name (`pcp.transport.attempt`, `store.wal.group_commit`, ...).
    pub name: String,
    /// Virtual open timestamp.
    pub start_ns: u64,
    /// Virtual close timestamp (>= start; `u64::MAX` while still open).
    pub end_ns: u64,
    /// Outcome marker: `ok`, or a terminal/fault marker such as
    /// `inserted`, `spilled`, `lost`, `hinted`, `unclosed`.
    pub status: String,
}

impl TraceSpan {
    /// Span duration in virtual nanoseconds.
    pub(crate) fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One stage's share of a trace's latency, from the analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct StageShare {
    /// Span name the self-time belongs to.
    pub name: String,
    /// Self time: span duration minus child durations, summed per name.
    pub self_ns: u64,
    /// Share of the root duration (0..=1).
    pub fraction: f64,
}

/// A finished trace, as stored in the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTree {
    /// Trace identity.
    pub id: TraceId,
    /// Spans ordered by id; `spans[0]` is the root.
    pub spans: Vec<TraceSpan>,
    /// Whether any stage reported a fault on this trace.
    pub fault: bool,
}

impl TraceTree {
    /// The root span.
    pub(crate) fn root(&self) -> &TraceSpan {
        &self.spans[0]
    }

    /// End-to-end duration of the trace.
    pub(crate) fn duration_ns(&self) -> u64 {
        self.root().duration_ns()
    }

    /// Terminal status of the trace (the root span's status).
    pub fn terminal_status(&self) -> &str {
        &self.root().status
    }

    /// True when some span never saw an explicit close and was
    /// force-closed by [`Tracer::finish_trace`].
    pub fn has_unclosed_spans(&self) -> bool {
        self.spans.iter().any(|s| s.status == "unclosed")
    }

    fn children_of(&self, id: u32) -> Vec<&TraceSpan> {
        self.spans.iter().filter(|s| s.parent == id).collect()
    }

    /// Attribute the root's latency to named stages: per span name, the
    /// sum of self time (duration minus child durations). Sorted by
    /// descending share, ties by name. Because children nest inside
    /// their parents on the virtual clock, the shares sum to ~1.0.
    pub fn stage_attribution(&self) -> Vec<StageShare> {
        let total = self.duration_ns().max(1);
        let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &self.spans {
            let child_sum: u64 = self.children_of(s.id).iter().map(|c| c.duration_ns()).sum();
            let self_ns = s.duration_ns().saturating_sub(child_sum);
            *by_name.entry(s.name.as_str()).or_default() += self_ns;
        }
        let mut shares: Vec<StageShare> = by_name
            .into_iter()
            .map(|(name, self_ns)| StageShare {
                name: name.to_string(),
                self_ns,
                fraction: self_ns as f64 / total as f64,
            })
            .collect();
        shares.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
        shares
    }

    /// Walk the dominant-child chain from the root: at each node descend
    /// into the longest child (ties: lowest id). Returns the visited
    /// spans — the critical path of the trace.
    pub(crate) fn critical_path(&self) -> Vec<&TraceSpan> {
        let mut path = vec![self.root()];
        let mut cur = self.root().id;
        loop {
            let kids = self.children_of(cur);
            let Some(widest) = kids
                .iter()
                .max_by(|a, b| a.duration_ns().cmp(&b.duration_ns()).then(b.id.cmp(&a.id)))
            else {
                break;
            };
            path.push(widest);
            cur = widest.id;
        }
        path
    }

    /// Render the tree as deterministic ASCII, timestamps relative to the
    /// root start so goldens do not depend on absolute virtual time.
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace {} dur={}ns status={}{}\n",
            self.id,
            self.duration_ns(),
            self.terminal_status(),
            if self.fault { " fault" } else { "" }
        );
        self.render_node(1, 1, &mut out);
        out
    }

    fn render_node(&self, id: u32, depth: usize, out: &mut String) {
        let Some(s) = self.spans.iter().find(|s| s.id == id) else {
            return;
        };
        let base = self.root().start_ns;
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "- {} [{}..{}] {}ns",
            s.name,
            s.start_ns.saturating_sub(base),
            s.end_ns.saturating_sub(base),
            s.duration_ns()
        ));
        if s.status != "ok" {
            out.push_str(&format!(" status={}", s.status));
        }
        out.push('\n');
        let mut kids: Vec<u32> = self
            .spans
            .iter()
            .filter(|c| c.parent == id)
            .map(|c| c.id)
            .collect();
        kids.sort_unstable();
        for k in kids {
            self.render_node(k, depth + 1, out);
        }
    }

    /// Render the critical path + stage attribution report for this trace.
    pub fn render_critical_path(&self) -> String {
        let mut out = format!("critical path (trace {}):\n", self.id);
        for s in self.critical_path() {
            out.push_str(&format!("  -> {} {}ns\n", s.name, s.duration_ns()));
        }
        out.push_str("stage attribution (self time):\n");
        let mut covered = 0.0;
        for share in self.stage_attribution() {
            covered += share.fraction;
            out.push_str(&format!(
                "  {:<34} {:>12}ns {:>6.2}%\n",
                share.name,
                share.self_ns,
                share.fraction * 100.0
            ));
        }
        out.push_str(&format!(
            "  attributed to named stages: {:.2}%\n",
            covered * 100.0
        ));
        out
    }
}

struct ActiveTrace {
    spans: Vec<TraceSpan>,
    fault: bool,
}

#[derive(Default)]
struct TracerInner {
    active: BTreeMap<u64, ActiveTrace>,
    finished: VecDeque<TraceTree>,
}

/// Counters describing a tracer's lifetime activity (all monotonic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TracerStats {
    /// Traces started.
    pub started: u64,
    /// Traces finished.
    pub finished: u64,
    /// Finished traces retained in (or through) the flight recorder.
    pub retained: u64,
    /// Retained traces evicted by the drop-oldest ring.
    pub ring_evicted: u64,
    /// Spans recorded across all traces.
    pub spans_recorded: u64,
}

/// Deterministic trace recorder; share via `Arc` and attach to a
/// [`crate::Registry`] with [`crate::Registry::set_tracer`] so pipeline
/// stages can discover it without new plumbing.
pub struct Tracer {
    seed: u64,
    ring_capacity: usize,
    next_seq: AtomicU64,
    started: AtomicU64,
    finished: AtomicU64,
    retained: AtomicU64,
    ring_evicted: AtomicU64,
    spans_recorded: AtomicU64,
    inner: Mutex<TracerInner>,
}

impl Tracer {
    /// Build a tracer with the given id seed whose flight recorder keeps
    /// the newest `ring_capacity` finished traces (drop-oldest).
    pub fn new(seed: u64, ring_capacity: usize) -> Tracer {
        Tracer {
            seed,
            ring_capacity,
            next_seq: AtomicU64::new(0),
            started: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            retained: AtomicU64::new(0),
            ring_evicted: AtomicU64::new(0),
            spans_recorded: AtomicU64::new(0),
            inner: Mutex::new(TracerInner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TracerInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        }
    }

    /// Open a new trace rooted at `name`.
    pub fn start_trace(&self, name: &str, start_ns: u64) -> TraceContext {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.started.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(self.seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)).max(1);
        self.spans_recorded.fetch_add(1, Ordering::Relaxed);
        self.lock().active.insert(
            id,
            ActiveTrace {
                spans: vec![TraceSpan {
                    id: 1,
                    parent: 0,
                    name: name.to_string(),
                    start_ns,
                    end_ns: u64::MAX,
                    status: "ok".to_string(),
                }],
                fault: false,
            },
        );
        TraceContext {
            trace: TraceId(id),
            span: SpanId(1),
        }
    }

    /// Open a child span under `parent`; a passthrough once the trace
    /// has finished.
    pub fn child(&self, parent: TraceContext, name: &str, start_ns: u64) -> TraceContext {
        let mut inner = self.lock();
        let Some(t) = inner.active.get_mut(&parent.trace.0) else {
            return parent;
        };
        let id = t.spans.len() as u32 + 1;
        t.spans.push(TraceSpan {
            id,
            parent: parent.span.0,
            name: name.to_string(),
            start_ns,
            end_ns: u64::MAX,
            status: "ok".to_string(),
        });
        self.spans_recorded.fetch_add(1, Ordering::Relaxed);
        TraceContext {
            span: SpanId(id),
            ..parent
        }
    }

    /// Close the context's current span with status `ok`.
    pub fn end_span(&self, ctx: TraceContext, end_ns: u64) {
        self.end_span_status(ctx, end_ns, "ok");
    }

    /// Close the context's current span with an explicit status.
    pub fn end_span_status(&self, ctx: TraceContext, end_ns: u64, status: &str) {
        let mut inner = self.lock();
        let Some(t) = inner.active.get_mut(&ctx.trace.0) else {
            return;
        };
        if let Some(s) = t.spans.iter_mut().find(|s| s.id == ctx.span.0) {
            s.end_ns = end_ns.max(s.start_ns);
            if status != "ok" {
                s.status = status.to_string();
            }
        }
    }

    /// Flag the trace as having seen a fault.
    pub(crate) fn mark_fault(&self, ctx: TraceContext) {
        if let Some(t) = self.lock().active.get_mut(&ctx.trace.0) {
            t.fault = true;
        }
    }

    /// Terminate the trace: close the root at `end_ns` with the terminal
    /// `status`, force-close any still-open child span with status
    /// `unclosed`, and move the tree into the flight recorder.
    pub fn finish_trace(&self, ctx: TraceContext, end_ns: u64, status: &str) {
        self.finished.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.lock();
        let Some(mut t) = inner.active.remove(&ctx.trace.0) else {
            return;
        };
        for s in t.spans.iter_mut() {
            if s.id == 1 {
                s.end_ns = end_ns.max(s.start_ns);
                s.status = status.to_string();
            } else if s.end_ns == u64::MAX {
                // Never explicitly closed: an orphan. Close it at the
                // terminal timestamp and say so.
                s.end_ns = end_ns.max(s.start_ns);
                s.status = "unclosed".to_string();
            }
        }
        let tree = TraceTree {
            id: ctx.trace,
            spans: t.spans,
            fault: t.fault,
        };
        self.retained.fetch_add(1, Ordering::Relaxed);
        inner.finished.push_back(tree);
        while inner.finished.len() > self.ring_capacity.max(1) {
            inner.finished.pop_front();
            self.ring_evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of traces still open (should be 0 after a drained run).
    pub fn active_count(&self) -> usize {
        self.lock().active.len()
    }

    /// Flight-recorder contents, oldest first.
    pub fn flight_recorder(&self) -> Vec<TraceTree> {
        self.lock().finished.iter().cloned().collect()
    }

    /// Most recently finished trace, if any.
    pub fn last_finished(&self) -> Option<TraceTree> {
        self.lock().finished.back().cloned()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> TracerStats {
        TracerStats {
            started: self.started.load(Ordering::Relaxed),
            finished: self.finished.load(Ordering::Relaxed),
            retained: self.retained.load(Ordering::Relaxed),
            ring_evicted: self.ring_evicted.load(Ordering::Relaxed),
            spans_recorded: self.spans_recorded.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("Tracer")
            .field("seed", &self.seed)
            .field("started", &s.started)
            .field("finished", &s.finished)
            .field("active", &self.active_count())
            .finish()
    }
}

/// A tracer plus a context, or nothing: the one handle a pipeline stage
/// carries, so each stage has one body whether or not a trace is
/// attached. Two states — *none* (no tracer: every method returns at
/// once, no lock, no allocation, and a child is [`Span::none`]) and
/// *recording*.
#[derive(Debug, Clone, Default)]
pub struct Span(Option<(Arc<Tracer>, TraceContext)>);

impl Span {
    /// The null span.
    pub fn none() -> Span {
        Span(None)
    }

    /// Open a new trace rooted at `name`; [`Span::none`] without a tracer.
    pub fn root(tracer: Option<&Arc<Tracer>>, name: &str, start_ns: u64) -> Span {
        Span(tracer.map(|t| (t.clone(), t.start_trace(name, start_ns))))
    }

    /// True when spans opened from here land in a trace tree.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Open a child span under this one.
    pub fn child(&self, name: &str, start_ns: u64) -> Span {
        let open = |(t, ctx): &(Arc<Tracer>, _)| (t.clone(), t.child(*ctx, name, start_ns));
        Span(self.0.as_ref().map(open))
    }

    /// Close this span with status `ok`.
    pub fn end(&self, end_ns: u64) {
        self.end_status(end_ns, "ok");
    }

    /// Close this span with an explicit status.
    pub fn end_status(&self, end_ns: u64, status: &str) {
        if let Some((t, ctx)) = &self.0 {
            t.end_span_status(*ctx, end_ns, status);
        }
    }

    /// Flag the trace as having seen a fault (rendered as `fault` on the
    /// finished tree).
    pub fn fault(&self) {
        if let Some((t, ctx)) = &self.0 {
            t.mark_fault(*ctx);
        }
    }

    /// Terminate the trace with its terminal `status`.
    pub fn finish(self, end_ns: u64, status: &str) {
        if let Some((t, ctx)) = self.0 {
            t.finish_trace(ctx, end_ns, status);
        }
    }

    /// Record `v` into `h`, tagged as this trace's exemplar when
    /// recording — the tag ties the histogram's tail back to a concrete
    /// tree in the flight recorder.
    pub fn observe(&self, h: &Histogram, v: u64) {
        match &self.0 {
            Some((_, ctx)) => h.record_exemplar(v, ctx.trace.0),
            None => h.record(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_trace(tracer: &Tracer) -> TraceTree {
        let root = tracer.start_trace("sample", 1_000);
        let ship = tracer.child(root, "ship", 1_100);
        let wal = tracer.child(ship, "wal", 1_200);
        tracer.end_span(wal, 1_500);
        tracer.end_span(ship, 2_000);
        tracer.finish_trace(root, 3_000, "inserted");
        tracer.last_finished().unwrap()
    }

    #[test]
    fn ids_are_deterministic_per_seed() {
        let a = Tracer::new(7, 256);
        let b = Tracer::new(7, 256);
        for _ in 0..5 {
            assert_eq!(a.start_trace("x", 0).trace, b.start_trace("x", 0).trace);
        }
        let c = Tracer::new(8, 256);
        assert_ne!(a.start_trace("x", 0).trace, c.start_trace("x", 0).trace);
    }

    #[test]
    fn tree_records_parentage_and_status() {
        let tracer = Tracer::new(1, 256);
        let tree = demo_trace(&tracer);
        assert_eq!(tree.spans.len(), 3);
        assert_eq!(tree.root().name, "sample");
        assert_eq!(tree.terminal_status(), "inserted");
        assert_eq!(tree.spans[1].parent, 1);
        assert_eq!(tree.spans[2].parent, 2);
        assert_eq!(tree.duration_ns(), 2_000);
        assert!(!tree.has_unclosed_spans());
        assert_eq!(tracer.active_count(), 0);
    }

    #[test]
    fn attribution_covers_full_latency() {
        let tracer = Tracer::new(1, 256);
        let tree = demo_trace(&tracer);
        let total: u64 = tree.stage_attribution().iter().map(|s| s.self_ns).sum();
        assert_eq!(total, tree.duration_ns());
        let path = tree.critical_path();
        assert_eq!(path.len(), 3);
        assert_eq!(path[2].name, "wal");
    }

    #[test]
    fn span_flags_faults_and_tags_exemplars() {
        let tracer = Arc::new(Tracer::new(3, 8));
        let root = Span::root(Some(&tracer), "sample", 100);
        assert!(root.is_recording());
        root.fault();
        root.child("retry", 600).end_status(700, "spilled");
        let latency = Histogram::new(vec![1_000]);
        root.observe(&latency, 800);
        assert_eq!(latency.exemplar().map(|e| e.1), Some(800));
        root.finish(900, "lost");
        let tree = tracer.last_finished().unwrap();
        assert!(tree.fault);
        assert!(tree
            .render()
            .starts_with(&format!("trace {} dur=800ns status=lost fault\n", tree.id)));
        assert_eq!(tree.spans.len(), 2);

        // The null span records nothing and opens only null children.
        let none = Span::none();
        assert!(!none.is_recording() && !none.child("ship", 1).is_recording());
        none.fault();
        none.observe(&latency, 5);
        none.finish(1, "inserted");
        assert_eq!((tracer.stats().started, tracer.stats().finished), (1, 1));
        assert_eq!((tracer.stats().retained, latency.count()), (1, 2));
    }

    #[test]
    fn ring_drops_oldest() {
        let tracer = Tracer::new(5, 2);
        let mut ids = Vec::new();
        for i in 0..4 {
            let c = tracer.start_trace("t", i * 10);
            ids.push(c.trace);
            tracer.finish_trace(c, i * 10 + 5, "inserted");
        }
        let ring = tracer.flight_recorder();
        assert_eq!(ring.len(), 2);
        assert_eq!(ring[0].id, ids[2]);
        assert_eq!(ring[1].id, ids[3]);
        assert_eq!(tracer.stats().ring_evicted, 2);
    }

    #[test]
    fn orphaned_children_are_flagged() {
        let tracer = Tracer::new(9, 256);
        let root = tracer.start_trace("sample", 0);
        let _open = tracer.child(root, "never.closed", 10);
        tracer.finish_trace(root, 100, "inserted");
        let tree = tracer.last_finished().unwrap();
        assert!(tree.has_unclosed_spans());
    }

    #[test]
    fn render_is_stable() {
        let tracer = Tracer::new(1, 256);
        let tree = demo_trace(&tracer);
        let a = tree.render();
        assert!(a.contains("- sample [0..2000] 2000ns status=inserted"));
        assert!(a.contains("    - wal [200..500] 300ns"));
        let report = tree.render_critical_path();
        assert!(report.contains("attributed to named stages: 100.00%"));
    }
}
