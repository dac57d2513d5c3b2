//! Stage-by-stage replays of the write path, shared by the workloads that
//! write through `Database::write_batch`.
//!
//! Each replay feeds the workload's own generated batches to one layer's
//! public entry point, directly, and times only that call. A metric named
//! `*_self_*` elsewhere is an enclosing call's time minus such a replay of
//! the layer beneath it.
#![forbid(unsafe_code)]

use crate::alloc;
use pmove_hwsim::disk::DiskUsage;
use pmove_obs::Registry;
use pmove_store::chunk::{read_chunk_bytes, write_chunk};
use pmove_store::crc::crc32;
use pmove_store::{chunk_name, MemDisk, RowRecord, StoreOptions, TsStore, Vfs};
use pmove_tsdb::storage::Storage;
use pmove_tsdb::{ColumnarBatch, Database, Point};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer values, by declared name.
pub type Layers = BTreeMap<&'static str, f64>;

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Store options under which nothing flushes or compacts by itself, so a
/// replay sees the WAL alone.
const WAL_ONLY: StoreOptions = StoreOptions {
    flush_threshold_rows: usize::MAX,
    compact_min_chunks: usize::MAX,
};

/// `store.device`: what the episode's disk was asked to write (exact,
/// `MemDisk::usage()`), and how long its device model says that took.
pub fn device(usage: &DiskUsage, values_stored: u64, out: &mut Layers) {
    out.insert(
        "store.device.bytes_written_per_value",
        usage.bytes_written as f64 / values_stored as f64,
    );
    out.insert("store.device.write_ops", usage.write_ops as f64);
    out.insert("store.device.modeled_busy_s", usage.busy_seconds);
}

/// Replay `count` batches (`batch(i)` regenerates the i-th, untimed)
/// through every layer of the write path beneath `Database::write_batch`.
pub fn write_path(seed: u64, count: usize, batch: &dyn Fn(usize) -> Vec<Point>, out: &mut Layers) {
    let mut points = 0usize;
    let mut values = 0usize;
    let (mut build_s, mut wal_rows_s, mut write_batch_s, mut obs_batch_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut insert_s, mut append_s) = (0.0, 0.0);
    let mut allocs = alloc::Counted::default();
    let mut chunk_rows: Vec<RowRecord> = Vec::new();

    let plain = Database::new("replay");
    let observed = Database::with_obs("replay", Registry::shared());
    let counted = Database::new("replay");
    let mut storage = Storage::new();
    let wal_disk: Arc<dyn Vfs> = Arc::new(MemDisk::new(seed));
    let (mut wal_store, _) = TsStore::open(wal_disk, WAL_ONLY).expect("fresh in-memory disk opens");

    for i in 0..count {
        let input = batch(i);
        points += input.len();
        values += input.iter().map(Point::field_count).sum::<usize>();

        // tsdb.batch: transpose, then flatten to WAL rows.
        let copy = input.clone();
        let mut built = None;
        build_s += secs(|| built = Some(ColumnarBatch::build(copy)));
        let built = built.expect("just built");
        let mut rows = Vec::new();
        wal_rows_s += secs(|| rows = built.wal_rows());

        // store.wal: the frame and its group commit, nothing above it.
        chunk_rows.extend(rows.iter().cloned());
        append_s += secs(|| {
            wal_store.append_owned(rows);
            black_box(wal_store.commit().expect("in-memory commit"));
        });

        // tsdb.engine: the whole in-memory write call, with and without
        // a metrics registry attached, then once more under the counter.
        let copy = input.clone();
        write_batch_s += secs(|| drop(black_box(plain.write_batch(copy))));
        let copy = input.clone();
        obs_batch_s += secs(|| drop(black_box(observed.write_batch(copy))));
        let copy = input.clone();
        let scope = alloc::Scope::open();
        drop(black_box(counted.write_batch(copy)));
        let c = scope.close();
        allocs.allocs += c.allocs;
        allocs.bytes += c.bytes;

        // tsdb.storage: bare shard insert, point by point.
        insert_s += secs(|| {
            for p in input {
                storage.insert(p);
            }
        });
    }
    black_box(&storage);
    let (points_f, values_f) = (points as f64, values as f64);
    out.insert("tsdb.batch.build_ns_per_point", build_s * 1e9 / points_f);
    out.insert(
        "tsdb.batch.wal_rows_ns_per_point",
        wal_rows_s * 1e9 / points_f,
    );
    out.insert(
        "tsdb.engine.write_batch_ns_per_point",
        write_batch_s * 1e9 / points_f,
    );
    out.insert(
        "tsdb.engine.write_allocs_per_point",
        allocs.allocs as f64 / points_f,
    );
    out.insert(
        "tsdb.engine.write_alloc_bytes_per_point",
        allocs.bytes as f64 / points_f,
    );
    out.insert(
        "tsdb.storage.insert_ns_per_point",
        insert_s * 1e9 / points_f,
    );
    out.insert(
        "store.wal.append_commit_ns_per_row",
        append_s * 1e9 / values_f,
    );
    out.insert(
        "store.wal.bytes_per_value",
        wal_store.wal_size().expect("in-memory size") as f64 / values_f,
    );
    out.insert(
        "obs.registry_overhead_pct",
        (obs_batch_s / write_batch_s - 1.0) * 100.0,
    );

    // tsdb.engine, row at a time: the first batch only, it is the slow path.
    let rowwise = Database::new("replay");
    let input = batch(0);
    let n = input.len() as f64;
    let s = secs(|| {
        for p in input {
            drop(black_box(rowwise.write_point(p)));
        }
    });
    out.insert("tsdb.engine.write_point_ns_per_point", s * 1e9 / n);

    // tsdb.storage residency: what the shards keep of a batch stream.
    // The scope covers regenerating the batches too, so that moving a
    // point's strings into storage counts as storage's memory.
    let scope = alloc::Scope::open();
    let mut resident = Storage::new();
    for i in 0..count {
        for p in batch(i) {
            resident.insert(p);
        }
    }
    let c = scope.close();
    black_box(&resident);
    out.insert(
        "tsdb.storage.resident_bytes_per_value",
        c.live_bytes as f64 / values_f,
    );

    // store.chunk and store.crc: one chunk from everything replayed.
    let chunk_disk = MemDisk::new(seed);
    let mut info = None;
    let encode_s =
        secs(|| info = write_chunk(&chunk_disk, 0, &chunk_rows).expect("in-memory chunk write"));
    let info = info.expect("rows are not empty");
    let name = chunk_name(0);
    let data = chunk_disk.read(&name).expect("chunk just written");
    let decode_s = secs(|| drop(black_box(read_chunk_bytes(&name, &data))));
    out.insert(
        "store.chunk.encode_ns_per_row",
        encode_s * 1e9 / chunk_rows.len() as f64,
    );
    out.insert(
        "store.chunk.decode_ns_per_row",
        decode_s * 1e9 / info.rows as f64,
    );
    out.insert(
        "store.chunk.bytes_per_value",
        info.bytes as f64 / info.rows as f64,
    );
    let passes = (64 << 20) / data.len().max(1) + 1;
    let crc_s = secs(|| {
        for _ in 0..passes {
            black_box(crc32(black_box(&data)));
        }
    });
    out.insert(
        "store.crc.gb_per_s",
        (passes * data.len()) as f64 / crc_s / 1e9,
    );
}
