//! Span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code, around each call into a
//! layer of the program; nothing under `crates/` knows about them. They are
//! kept in a buffer allocated up front and written out when the run ends.
//! A tracer that is off still times the call (the end-to-end metrics need
//! the duration) but records nothing.
#![forbid(unsafe_code)]

use serde_json::{json, Value};
use std::time::Instant;

/// Index of a recorded span; [`NO_SPAN`] when there is none.
pub type SpanId = u32;
/// "No parent" / "not recorded".
pub const NO_SPAN: SpanId = u32::MAX;

/// Spans the buffer holds before it starts counting drops instead. The
/// largest traced episode records about 60k.
const SPAN_CAPACITY: usize = 1 << 20;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name (`tsdb.engine.write_batch`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Operation identifier shared by the spans of one request (batch
    /// index, query index, tick).
    pub op_id: u64,
}

/// A span that has been opened and not yet closed.
pub struct Open {
    id: SpanId,
    start: Instant,
}

impl Open {
    /// Identifier to hand to child spans as their parent.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

/// The recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A recording tracer with its buffer allocated up front.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_SPAN;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Open a span that will enclose others.
    pub fn open(&mut self, name: &'static str, parent: SpanId, op_id: u64) -> Open {
        let start = Instant::now();
        let id = if self.on {
            let start_ns = self.ns(start);
            self.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op_id,
            })
        } else {
            NO_SPAN
        };
        Open { id, start }
    }

    /// Close an open span; returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if open.id != NO_SPAN {
            let end_ns = self.ns(end);
            self.spans[open.id as usize].end_ns = end_ns;
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Time one call; returns its result and its duration in seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op_id,
            });
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Record a call that was timed elsewhere (inside a callback the
    /// tracer cannot be lent to).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op_id: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
        })
    }

    /// Total seconds, call count and longest single call of the spans
    /// called `name`.
    pub fn total(&self, name: &str) -> (f64, u64, f64) {
        let mut total = 0u64;
        let mut count = 0u64;
        let mut max = 0u64;
        for s in self.spans.iter().filter(|s| s.name == name) {
            let d = s.end_ns - s.start_ns;
            total += d;
            count += 1;
            max = max.max(d);
        }
        (total as f64 / 1e9, count, max as f64 / 1e9)
    }

    /// Share of each `root_name` span's duration covered by its direct
    /// children, summed over all such roots.
    pub fn coverage(&self, root_name: &str) -> f64 {
        let mut root_ns = 0u64;
        let mut child_ns = 0u64;
        for (i, root) in self.spans.iter().enumerate() {
            if root.name != root_name {
                continue;
            }
            root_ns += root.end_ns - root.start_ns;
            child_ns += self
                .spans
                .iter()
                .filter(|s| s.parent == i as SpanId)
                .map(|s| s.end_ns - s.start_ns)
                .sum::<u64>();
        }
        if root_ns == 0 {
            return 0.0;
        }
        child_ns as f64 / root_ns as f64
    }

    /// The span file: every span plus how much of the measured phase the
    /// top-level spans account for.
    pub fn to_json(&self, workload: &str, root_name: &str) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": if s.parent == NO_SPAN { Value::Null } else { json!(s.parent) },
                    "op_id": s.op_id,
                })
            })
            .collect();
        json!({
            "workload": workload,
            "root": root_name,
            "top_level_coverage": self.coverage(root_name),
            "dropped": self.dropped,
            "spans": spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut tr = Tracer::off();
        let root = tr.open("root", NO_SPAN, 0);
        let (v, secs) = tr.time("leaf", root.id(), 1, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.close(root) >= secs);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn children_cover_their_root() {
        let mut tr = Tracer::on();
        let t0 = Instant::now();
        let ms = |n: u64| t0 + std::time::Duration::from_millis(n);
        let root = tr.record("root", NO_SPAN, 0, ms(0), ms(100));
        for i in 0..4 {
            tr.record("leaf", root, i, ms(20 * i), ms(20 * i + 15));
        }
        // A span elsewhere in the tree does not count towards the root.
        tr.record("leaf", NO_SPAN, 9, ms(0), ms(50));
        assert_eq!(tr.spans().len(), 6);
        assert_eq!(tr.total("leaf").1, 5);
        assert!((tr.coverage("root") - 0.6).abs() < 1e-9);
        assert_eq!(
            tr.to_json("w", "root")["spans"].as_array().unwrap().len(),
            6
        );
    }
}
