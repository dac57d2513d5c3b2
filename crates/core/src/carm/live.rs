//! The live-CARM panel (§IV-B-2).
//!
//! PMU events are sampled on a time-stamp basis and converted into live
//! Arithmetic Intensity and GFLOP/s through abstraction-layer formulas,
//! then plotted against the constructed CARM in real time. The byte
//! volume is inferred from the ratio of FP instruction widths applied to
//! the measured load/store counts on Intel; AMD's `LS_DISPATCH` counts
//! are 8 bytes each.

use crate::abstraction::AbstractionLayer;
use crate::error::PmoveError;
use pmove_tsdb::Database;

/// One live point on the CARM plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveCarmPoint {
    /// Window end time (virtual seconds).
    pub t_s: f64,
    /// Arithmetic intensity (flops/byte) of the window.
    pub ai: f64,
    /// Achieved GFLOP/s of the window.
    pub gflops: f64,
}

/// Live-CARM computation engine for one (machine, PMU) pair.
pub struct LiveCarm<'a> {
    layer: &'a AbstractionLayer,
    pmu: String,
}

impl<'a> LiveCarm<'a> {
    /// Engine for a PMU.
    pub fn new(layer: &'a AbstractionLayer, pmu: impl Into<String>) -> Self {
        LiveCarm {
            layer,
            pmu: pmu.into(),
        }
    }

    /// Average bytes per memory instruction for the window, inferred from
    /// the FP-width mix (§IV-B-2). `resolve` returns summed HW event
    /// counts for the window.
    pub fn bytes_per_mem_op<F>(&self, mut resolve: F) -> f64
    where
        F: FnMut(&str) -> Option<f64>,
    {
        if self.pmu == "zen3" {
            // AMD: LS_DISPATCH operations are counted per element (8 B).
            return 8.0;
        }
        // Intel: weight vector widths by their FP instruction counts.
        let widths = [
            ("FP_ARITH:SCALAR_DOUBLE", 8.0),
            ("FP_ARITH:128B_PACKED_DOUBLE", 16.0),
            ("FP_ARITH:256B_PACKED_DOUBLE", 32.0),
            ("FP_ARITH:512B_PACKED_DOUBLE", 64.0),
        ];
        let mut total_instr = 0.0;
        let mut weighted = 0.0;
        for (ev, w) in widths {
            let c = resolve(ev).unwrap_or(0.0);
            total_instr += c;
            weighted += c * w;
        }
        if total_instr <= 0.0 {
            8.0 // no FP retired in the window: assume scalar traffic
        } else {
            weighted / total_instr
        }
    }

    /// Compute one live point from windowed HW-event sums.
    pub fn point<F>(
        &self,
        t_s: f64,
        window_s: f64,
        mut resolve: F,
    ) -> Result<LiveCarmPoint, PmoveError>
    where
        F: FnMut(&str) -> Option<f64>,
    {
        let flops = self
            .layer
            .evaluate(&self.pmu, "TOTAL_DP_FLOPS", &mut resolve)?;
        let mem_ops = self
            .layer
            .evaluate(&self.pmu, "TOTAL_MEMORY_OPERATIONS", &mut resolve)?;
        let bytes = mem_ops * self.bytes_per_mem_op(&mut resolve);
        let gflops = flops / window_s.max(1e-12) / 1e9;
        let ai = if bytes > 0.0 { flops / bytes } else { 0.0 };
        Ok(LiveCarmPoint { t_s, ai, gflops })
    }

    /// Pull windowed sums for an observation out of the time-series DB and
    /// produce the live trajectory. `window_s` is the panel's refresh
    /// period; timestamps in the DB are nanoseconds.
    pub fn trajectory(
        &self,
        ts: &Database,
        obs_id: &str,
        window_s: f64,
    ) -> Result<Vec<LiveCarmPoint>, PmoveError> {
        let bucket_ns = (window_s * 1e9) as i64;
        // Gather per-bucket sums for every HW event either formula needs.
        let mut events: Vec<String> = Vec::new();
        for generic in ["TOTAL_DP_FLOPS", "TOTAL_MEMORY_OPERATIONS"] {
            for e in self.layer.required_hw_events(&self.pmu, generic)? {
                if !events.contains(&e) {
                    events.push(e);
                }
            }
        }
        if self.pmu != "zen3" {
            for e in [
                "FP_ARITH:SCALAR_DOUBLE",
                "FP_ARITH:128B_PACKED_DOUBLE",
                "FP_ARITH:256B_PACKED_DOUBLE",
                "FP_ARITH:512B_PACKED_DOUBLE",
            ] {
                if !events.contains(&e.to_string()) {
                    events.push(e.to_string());
                }
            }
        }

        use pmove_tsdb::aggregate::AggregateFn;
        use pmove_tsdb::query::Projection;
        use pmove_tsdb::Query;
        use std::collections::BTreeMap;
        let tag_filters = vec![("tag".to_string(), obs_id.to_string())];
        let mut buckets: BTreeMap<i64, BTreeMap<String, f64>> = BTreeMap::new();
        for event in &events {
            let measurement = format!("perfevent_hwcounters_{}", event.replace([':', '.'], "_"));
            // One per-bucket sum per field of the event, the fields added
            // together in field order. A structured query goes straight to
            // the planner (and shares the engine's result cache) instead
            // of round-tripping through the parser.
            let sum = |f| Projection::Aggregate(AggregateFn::Sum, f);
            let Ok(frame) = ts.query_frame(&Query {
                projections: ts.field_keys(&measurement).into_iter().map(sum).collect(),
                measurement,
                tag_filters: tag_filters.clone(),
                time_start: None,
                time_end: None,
                group_by_time: Some(bucket_ns),
            }) else {
                continue;
            };
            for col in &frame.cols {
                for (&ts, v) in frame.ts.iter().zip(col) {
                    if let Some(v) = v {
                        *buckets
                            .entry(ts)
                            .or_default()
                            .entry(event.clone())
                            .or_insert(0.0) += v;
                    }
                }
            }
        }

        let mut points = Vec::with_capacity(buckets.len());
        for (bucket_start, sums) in buckets {
            let t_s = (bucket_start + bucket_ns) as f64 / 1e9;
            let p = self.point(t_s, window_s, |e| sums.get(e).copied())?;
            points.push(p);
        }
        Ok(points)
    }
}

/// Streaming live-CARM: consumes points as the database publishes them
/// (the real-time path of the panel — no polling, no queries).
///
/// Subscribe before the run starts, feed [`LiveCarmStream::drain`]
/// periodically, and it emits one [`LiveCarmPoint`] per completed window.
pub struct LiveCarmStream<'a> {
    engine: LiveCarm<'a>,
    rx: crossbeam::channel::Receiver<pmove_tsdb::Point>,
    window_ns: i64,
    current_window: Option<i64>,
    sums: std::collections::BTreeMap<String, f64>,
    emitted: Vec<LiveCarmPoint>,
}

impl<'a> LiveCarmStream<'a> {
    /// Attach to a database: subscribes to all `perfevent_hwcounters_*`
    /// measurements tagged with `obs_id`.
    pub fn attach(
        layer: &'a AbstractionLayer,
        pmu: impl Into<String>,
        db: &Database,
        obs_id: &str,
        window_s: f64,
    ) -> Self {
        let sub = pmove_tsdb::subscribe::Subscription::measurement("perfevent_hwcounters_")
            .with_tag("tag", obs_id);
        LiveCarmStream {
            engine: LiveCarm::new(layer, pmu),
            rx: db.subscribe(sub),
            window_ns: (window_s * 1e9) as i64,
            current_window: None,
            sums: Default::default(),
            emitted: Vec::new(),
        }
    }

    fn event_of(measurement: &str) -> Option<String> {
        measurement
            .strip_prefix("perfevent_hwcounters_")
            .map(str::to_string)
    }

    fn flush_window(&mut self, window: i64) -> Option<LiveCarmPoint> {
        let sums = std::mem::take(&mut self.sums);
        if sums.is_empty() {
            return None;
        }
        let t_s = ((window + 1) * self.window_ns) as f64 / 1e9;
        let window_s = self.window_ns as f64 / 1e9;
        self.engine
            .point(t_s, window_s, |e| {
                // Measurement names flatten ':' to '_'; match flattened.
                sums.get(&e.replace([':', '.'], "_")).copied()
            })
            .ok()
    }

    /// Drain all pending published points; returns newly completed
    /// windows' live points.
    pub fn drain(&mut self) -> Vec<LiveCarmPoint> {
        let mut fresh = Vec::new();
        while let Ok(p) = self.rx.try_recv() {
            let Some(event) = Self::event_of(&p.measurement) else {
                continue;
            };
            let w = p.timestamp.div_euclid(self.window_ns);
            if let Some(cur) = self.current_window {
                if w != cur {
                    if let Some(point) = self.flush_window(cur) {
                        fresh.push(point);
                    }
                    self.current_window = Some(w);
                }
            } else {
                self.current_window = Some(w);
            }
            let total: f64 = p.fields.values().filter_map(|v| v.as_f64()).sum();
            *self.sums.entry(event).or_insert(0.0) += total;
        }
        self.emitted.extend(fresh.iter().copied());
        fresh
    }

    /// Flush the trailing partial window and return the complete
    /// trajectory (call once the run has halted).
    pub fn finish(mut self) -> Vec<LiveCarmPoint> {
        self.drain();
        if let Some(cur) = self.current_window.take() {
            if let Some(point) = self.flush_window(cur) {
                self.emitted.push(point);
            }
        }
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::presets::builtin_layer;

    #[test]
    fn intel_byte_width_inference() {
        let layer = builtin_layer();
        let lc = LiveCarm::new(&layer, "csl");
        // Pure AVX-512 mix → 64 B per memory op.
        let w = lc.bytes_per_mem_op(|e| (e == "FP_ARITH:512B_PACKED_DOUBLE").then_some(100.0));
        assert_eq!(w, 64.0);
        // Pure scalar → 8 B.
        let w = lc.bytes_per_mem_op(|e| (e == "FP_ARITH:SCALAR_DOUBLE").then_some(10.0));
        assert_eq!(w, 8.0);
        // 50/50 scalar/avx512 instructions → (8+64)/2 = 36 B.
        let w = lc.bytes_per_mem_op(|e| match e {
            "FP_ARITH:SCALAR_DOUBLE" | "FP_ARITH:512B_PACKED_DOUBLE" => Some(50.0),
            _ => None,
        });
        assert_eq!(w, 36.0);
        // No FP: scalar fallback.
        assert_eq!(lc.bytes_per_mem_op(|_| None), 8.0);
    }

    #[test]
    fn amd_uses_fixed_width() {
        let layer = builtin_layer();
        let lc = LiveCarm::new(&layer, "zen3");
        assert_eq!(lc.bytes_per_mem_op(|_| Some(1e9)), 8.0);
    }

    #[test]
    fn point_computation_matches_hand_calculation() {
        let layer = builtin_layer();
        let lc = LiveCarm::new(&layer, "csl");
        // Window: 1e9 AVX-512 FP instr (→ 8e9 flops), 1e9 loads+stores of
        // 64 B each → AI = 8e9 / 64e9 = 0.125; over 1 s → 8 GF/s.
        let p = lc
            .point(1.0, 1.0, |e| {
                Some(match e {
                    "FP_ARITH:512B_PACKED_DOUBLE" => 1e9,
                    "MEM_INST_RETIRED:ALL_LOADS" => 0.75e9,
                    "MEM_INST_RETIRED:ALL_STORES" => 0.25e9,
                    _ => 0.0,
                })
            })
            .unwrap();
        assert!((p.gflops - 8.0).abs() < 1e-9);
        assert!((p.ai - 0.125).abs() < 1e-12);
    }

    #[test]
    fn zen3_point_uses_merged_flops() {
        let layer = builtin_layer();
        let lc = LiveCarm::new(&layer, "zen3");
        let p = lc
            .point(1.0, 2.0, |e| {
                Some(match e {
                    "RETIRED_SSE_AVX_FLOPS:ANY" => 4e9,
                    "LS_DISPATCH:LD_DISPATCH" => 1.5e9,
                    "LS_DISPATCH:STORE_DISPATCH" => 0.5e9,
                    _ => 0.0,
                })
            })
            .unwrap();
        // 4e9 flops / 2 s = 2 GF/s; bytes = 2e9 × 8 = 16e9 → AI 0.25.
        assert!((p.gflops - 2.0).abs() < 1e-9);
        assert!((p.ai - 0.25).abs() < 1e-12);
    }

    #[test]
    fn streaming_panel_matches_query_trajectory() {
        // Run a Scenario-B profile while a LiveCarmStream is subscribed;
        // the streamed points must match the after-the-fact query-based
        // trajectory.
        use crate::profiles::stream_kernel_profile;
        use crate::telemetry::pinning::PinningStrategy;
        use crate::telemetry::scenario_b::ProfileRequest;
        use pmove_hwsim::vendor::IsaExt;
        use pmove_kernels::StreamKernel;

        let mut d = crate::PMoveDaemon::for_preset("csl").unwrap();
        let layer = d.layer.clone();
        // The observation id is deterministic: first id of this factory.
        let obs_id = crate::ids::IdFactory::new("csl").next_id();
        let stream = LiveCarmStream::attach(&layer, "csl", &d.ts, &obs_id, 0.5);

        let request = ProfileRequest {
            profile: stream_kernel_profile(StreamKernel::Triad, 1 << 36, 28, IsaExt::Avx512),
            command: "triad".into(),
            generic_events: vec!["TOTAL_DP_FLOPS".into(), "TOTAL_MEMORY_OPERATIONS".into()],
            freq_hz: 4.0,
            pinning: PinningStrategy::Compact,
        };
        let outcome = d.profile(&request).unwrap();
        assert_eq!(outcome.observation.id, obs_id, "deterministic ids");

        let streamed = stream.finish();
        assert!(!streamed.is_empty());
        let queried = LiveCarm::new(&layer, "csl")
            .trajectory(&d.ts, &obs_id, 0.5)
            .unwrap();
        assert_eq!(streamed.len(), queried.len());
        for (s, q) in streamed.iter().zip(&queried) {
            assert!((s.ai - q.ai).abs() < 1e-9, "{s:?} vs {q:?}");
            assert!((s.gflops - q.gflops).abs() < 1e-6);
        }
        // Triad AI ≈ 0.0625 shows up live.
        let mid = &streamed[streamed.len() / 2];
        assert!((mid.ai - 0.0625).abs() < 0.01, "ai {}", mid.ai);
    }

    #[test]
    fn stream_ignores_unrelated_measurements() {
        let layer = builtin_layer();
        let db = Database::new("t");
        let mut stream = LiveCarmStream::attach(&layer, "csl", &db, "obs-x", 1.0);
        // Unrelated measurement and wrong tag: no points.
        db.write_point(
            pmove_tsdb::Point::new("kernel_all_load")
                .tag("tag", "obs-x")
                .field("value", 1.0)
                .timestamp(0),
        )
        .unwrap();
        db.write_point(
            pmove_tsdb::Point::new("perfevent_hwcounters_FP_ARITH_SCALAR_DOUBLE")
                .tag("tag", "other")
                .field("_cpu0", 5.0)
                .timestamp(0),
        )
        .unwrap();
        assert!(stream.drain().is_empty());
        assert!(stream.finish().is_empty());
    }

    #[test]
    fn zero_window_and_zero_bytes_are_safe() {
        let layer = builtin_layer();
        let lc = LiveCarm::new(&layer, "csl");
        let p = lc.point(0.0, 0.0, |_| Some(0.0)).unwrap();
        assert_eq!(p.ai, 0.0);
        assert!(p.gflops.is_finite() || p.gflops == 0.0);
    }
}
