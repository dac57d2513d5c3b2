//! What the benchmark declares: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same tables; `tests/smoke.rs` fails when the
//! two drift apart.
#![forbid(unsafe_code)]

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// Spelling used in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` calls it a regression.
    pub bound: f64,
}

/// A metric of one layer, reported by the traced run only.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<metric>`; the layer is one of this repository's modules.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Whether the value must repeat bit-for-bit for a given seed.
    pub exact: bool,
}

/// Seconds of wall time a run fills with whole episodes unless told
/// otherwise (`run_seconds`).
pub const RUN_SECONDS: u32 = 30;

/// Workload names and the reason each was chosen (one line).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "monitor_e2e",
        "PMU read to rendered panel through RF=3 quorum writes: the only workload where pcp and core do most of the work",
    ),
    (
        "ingest_durable",
        "write-dominated: line protocol to WAL, chunks and compaction, then crash and recovery; tsdb.exec, cache, serve and pcp stay idle",
    ),
    (
        "dashboard_read",
        "read-dominated, every query cold: plan/scan/merge/aggregate do all the work while cache, rollups and transport are bypassed",
    ),
    (
        "serve_mixed",
        "writes beside reads: cache invalidation, rollup folding and multi-tenant serving put a price on any read-side trick",
    ),
];

use Better::{Higher, Lower};

/// Bound of the wall-clock metrics. ISSUE 11 asked for 10%; on the 2-vCPU
/// build box ten runs of unchanged code spread by 5–15% even with every
/// metric taken at its best episode (README, "Noise and bounds"), and a
/// benchmark is only accepted if that spread stays inside the bound, so
/// this is the widest bound the contract allows.
const WALL_CLOCK: f64 = 0.25;

/// The nine end-to-end metrics. Every workload reports every one of them.
/// ISSUE 11's tenth, `query_p99_us`, is the per-layer
/// `tsdb.exec.query_p99_us`: every workload has to report every end-to-end
/// metric and each must repeat within its bound, and a 99th percentile of
/// sub-millisecond queries does not on this box (README, "Noise and
/// bounds"), so it is reported by the traced run and judged by nobody.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: WALL_CLOCK,
    },
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        better: Lower,
        bound: WALL_CLOCK,
    },
    EndToEnd {
        name: "ingest_values_per_s",
        unit: "values/s",
        better: Higher,
        bound: WALL_CLOCK,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: Higher,
        bound: WALL_CLOCK,
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: Lower,
        bound: WALL_CLOCK,
    },
    EndToEnd {
        name: "refresh_p50_ms",
        unit: "ms",
        better: Lower,
        bound: WALL_CLOCK,
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: Lower,
        bound: WALL_CLOCK,
    },
    EndToEnd {
        name: "stored_bytes_per_value",
        unit: "B",
        better: Lower,
        bound: 0.005,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
    }
}

/// Per-layer metrics. A workload that never enters a layer reports 0 for
/// that layer's metrics; that zero is the "bypassed" half of a prediction.
pub const PER_LAYER: [PerLayer; 69] = [
    layer("pcp.sampler.fetch_ns_per_value", "ns", Lower, false),
    layer("pcp.sampler.values_offered", "count", Higher, true),
    layer("pcp.transport.ship_self_ns_per_value", "ns", Lower, false),
    layer("pcp.transport.values_lost", "count", Lower, true),
    layer("pcp.transport.values_zeroed", "count", Lower, true),
    layer("pcp.replication.ship_self_ns_per_value", "ns", Lower, false),
    layer("pcp.replication.replica_acks", "count", Higher, true),
    layer("pcp.replication.conserved", "count", Higher, true),
    layer("tsdb.line_protocol.parse_ns_per_point", "ns", Lower, false),
    layer("tsdb.line_protocol.parse_mb_per_s", "MB/s", Higher, false),
    layer("tsdb.batch.build_ns_per_point", "ns", Lower, false),
    layer("tsdb.batch.wal_rows_ns_per_point", "ns", Lower, false),
    layer("tsdb.engine.write_batch_ns_per_point", "ns", Lower, false),
    layer("tsdb.engine.write_point_ns_per_point", "ns", Lower, false),
    layer("tsdb.engine.write_batch_max_ms", "ms", Lower, false),
    layer("tsdb.engine.write_allocs_per_point", "count", Lower, true),
    layer("tsdb.engine.write_alloc_bytes_per_point", "B", Lower, true),
    layer("tsdb.storage.insert_ns_per_point", "ns", Lower, false),
    layer("tsdb.storage.resident_bytes_per_value", "B", Lower, true),
    layer("store.wal.append_commit_ns_per_row", "ns", Lower, false),
    layer("store.wal.bytes_per_value", "B", Lower, true),
    layer("store.wal.commits", "count", Lower, true),
    layer("store.wal.modeled_commit_ns", "ns", Lower, true),
    layer("store.chunk.encode_ns_per_row", "ns", Lower, false),
    layer("store.chunk.decode_ns_per_row", "ns", Lower, false),
    layer("store.chunk.bytes_per_value", "B", Lower, true),
    layer("store.crc.gb_per_s", "GB/s", Higher, false),
    layer("store.compaction.busy_s", "s", Lower, false),
    layer("store.compaction.runs", "count", Lower, true),
    layer("store.compaction.bytes_rewritten", "B", Lower, true),
    layer("store.device.bytes_written_per_value", "B", Lower, true),
    layer("store.device.write_ops", "count", Lower, true),
    layer("store.device.modeled_busy_s", "s", Lower, true),
    layer("store.recovery.open_ns_per_row", "ns", Lower, false),
    layer("store.recovery.rows_recovered", "count", Higher, true),
    layer("store.backup.backup_now_ms", "ms", Lower, false),
    layer("store.backup.restore_at_ms", "ms", Lower, false),
    layer("tsdb.exec.plan_ns_per_query", "ns", Lower, false),
    layer(
        "tsdb.exec.sequential_ns_per_row_scanned",
        "ns",
        Lower,
        false,
    ),
    layer("tsdb.exec.parallel_over_sequential", "ratio", Lower, false),
    layer(
        "tsdb.exec.rows_scanned_per_row_returned",
        "ratio",
        Lower,
        true,
    ),
    layer("tsdb.exec.allocs_per_query", "count", Lower, true),
    layer("tsdb.exec.alloc_bytes_per_query", "B", Lower, true),
    layer("tsdb.exec.query_p99_us", "us", Lower, false),
    layer("tsdb.exec.raw_field_p50_us", "us", Lower, false),
    layer("tsdb.exec.windowed_sum_p50_us", "us", Lower, false),
    layer("tsdb.exec.fleet_summary_p50_us", "us", Lower, false),
    layer("tsdb.exec.fleet_mean_p50_us", "us", Lower, false),
    layer("tsdb.cache.hit_rate", "ratio", Higher, true),
    layer("tsdb.cache.hit_ns", "ns", Lower, false),
    layer("tsdb.cache.invalidations", "count", Lower, true),
    layer("tsdb.rollup.tick_ns_per_row", "ns", Lower, false),
    layer("tsdb.rollup.cells", "count", Lower, true),
    layer("tsdb.rollup.tier_served_share", "ratio", Higher, true),
    layer("tsdb.repl.quorum_read_over_single", "ratio", Lower, false),
    layer("serve.run_self_ns_per_request", "ns", Lower, false),
    layer("serve.coalescing_ratio", "ratio", Higher, true),
    layer("serve.executions", "count", Lower, true),
    layer("serve.shed", "count", Lower, true),
    layer("serve.rejected", "count", Lower, true),
    layer("hwsim.probe_ms", "ms", Lower, false),
    layer("core.kb.build_ms", "ms", Lower, false),
    layer("docdb.insert_kb_ms", "ms", Lower, false),
    layer("jsonld.serialize_kb_ms", "ms", Lower, false),
    layer("core.dashboard.gen_ms", "ms", Lower, false),
    layer(
        "core.dashboard.render_self_ns_per_target",
        "ns",
        Lower,
        false,
    ),
    layer("core.dashboard.targets", "count", Higher, true),
    layer("obs.registry_overhead_pct", "%", Lower, false),
    layer("trace_overhead_pct", "%", Lower, false),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }

    #[test]
    fn bounds_are_the_issues_where_the_box_allows_and_setup_has_the_largest() {
        let bound = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap().bound;
        // The two metrics that are not wall-clock keep ISSUE 11's bounds.
        assert_eq!(bound("stored_bytes_per_value"), 0.005);
        assert_eq!(bound("peak_rss_mb"), 0.10);
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= bound("setup_s"), "{}", m.name);
        }
        for (_, why) in &WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
