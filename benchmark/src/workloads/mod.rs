//! The four workloads.
#![forbid(unsafe_code)]

pub mod dashboard_read;
pub mod ingest_durable;
pub mod monitor_e2e;
pub mod serve_mixed;

use crate::harness::{Ops, Run};
use pmove_obs::Registry;
use pmove_store::{MemDisk, StoreOptions, Vfs};
use pmove_tsdb::{Database, Point, TsdbError};
use std::sync::Arc;
use std::time::Instant;

/// Crash → reopen cycles behind one `recover_s`.
pub const RECOVER_CYCLES: usize = 5;
/// Batches of 4,096 points a side store holds: seven, so that it flushes
/// seven chunks and compacts twice, the second time on its last batch.
pub const SIDE_STORE_BATCHES: usize = 7;

/// Open (or reopen) a durable database. A traced run passes a metrics
/// registry, to read the program's own exact counters afterwards.
fn open_db(
    name: &str,
    vfs: &Arc<dyn Vfs>,
    opts: StoreOptions,
    registry: Option<&Arc<Registry>>,
) -> Result<Database, TsdbError> {
    match registry {
        Some(r) => Database::open_with_obs(name, vfs.clone(), opts, r.clone()),
        None => Database::open(name, vfs.clone(), opts),
    }
    .map(|(db, _)| db)
}

/// `recover_s` and `stored_bytes_per_value` for a workload whose database
/// lives in memory. Every run has to report every end-to-end metric, so the
/// two read-side workloads persist the head of their corpus in a store of
/// its own — `StoreOptions::default()`, one group commit per batch — and
/// crash and reopen that, in every fifth (`serve_mixed`) or ninth
/// (`dashboard_read`) episode of a run, about six times in 30 s: its
/// figures are sampled all along the run, like everything else, and the
/// odd step gives both the untraced and the traced episodes of a traced run
/// their turn. It runs outside the measured phase and outside `setup_s`, and says
/// nothing `ingest_durable` does not say at full size.
pub fn side_store(seed: u64, head: Vec<Vec<Point>>, run: &mut Run, ops: &mut Ops) {
    let disk = Arc::new(MemDisk::new(seed));
    let vfs: Arc<dyn Vfs> = disk.clone();
    let opts = StoreOptions::default();
    let Some(mut db) = ops.call("side store: open", open_db("side", &vfs, opts, None)) else {
        return;
    };
    for batch in head {
        let values: u64 = batch.iter().map(|p| p.field_count() as u64).sum();
        if ops
            .call("side store: write_batch", db.write_batch(batch))
            .is_some_and(|o| o.rejected == 0)
        {
            run.values_stored += values;
        }
    }
    ops.call("side store: flush", db.flush());
    run.durable_bytes = disk.durable_bytes();
    let rows = db.total_rows();
    for _ in 0..RECOVER_CYCLES {
        drop(db);
        disk.restart();
        let t = Instant::now();
        let reopened = open_db("side", &vfs, opts, None);
        run.recover_s.push(t.elapsed().as_secs_f64());
        match ops.call("side store: reopen", reopened) {
            Some(reopened) => db = reopened,
            None => return,
        }
        ops.check(db.total_rows() == rows, || {
            format!(
                "side store: recovered {} rows, {rows} were acknowledged",
                db.total_rows()
            )
        });
    }
}
