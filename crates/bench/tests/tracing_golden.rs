//! Pin the causal-tracing reproduction to its captured golden
//! (`docs/results/tracing.txt`), and assert the acceptance shape directly:
//! the quorum write fans out to W replica spans nesting WAL group commit +
//! shard ingest, the critical-path analyzer attributes >= 90% of latency,
//! and the induced p99 regression pages at the same virtual timestamp
//! every run.

use pmove_bench::tracing::{format, run};

const GOLDEN: &str = include_str!("../../../docs/results/tracing.txt");

#[test]
fn tracing_report_matches_golden() {
    // `pmove-bench tracing` prints the report and a newline.
    assert_eq!(
        format!("{}\n", format(&run())),
        GOLDEN,
        "tracing report drifted from docs/results/tracing.txt; \
         regenerate with `pmove-bench tracing > docs/results/tracing.txt`"
    );
}

#[test]
fn tracing_report_has_the_acceptance_shape() {
    let r = run();

    // Replicated path: quorum fan-out with at least W=2 acked replica
    // writes, each nesting the WAL group commit and the shard ingest.
    assert!(
        r.replicated_tree.contains("repl.quorum_write"),
        "{}",
        r.replicated_tree
    );
    let acked = r.replicated_tree.matches("repl.replica_write").count();
    assert!(
        acked >= 2,
        "expected >= W replica spans\n{}",
        r.replicated_tree
    );
    for span in ["store.wal.group_commit", "tsdb.shard_ingest"] {
        assert!(
            r.replicated_tree.contains(span),
            "{span}\n{}",
            r.replicated_tree
        );
    }

    // Critical path + attribution floor.
    assert!(
        r.critical_path.contains("critical path"),
        "{}",
        r.critical_path
    );
    assert!(
        r.attributed >= 0.90,
        "analyzer attributed {:.2}% < 90%",
        r.attributed * 100.0
    );

    // The induced regression pages, at a virtual-clock timestamp.
    assert!(r.paged, "{}", r.slo_timeline);
    assert!(
        r.slo_timeline
            .contains("t=3000000000ns ingest_p99 ok -> page"),
        "{}",
        r.slo_timeline
    );
}
