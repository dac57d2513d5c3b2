//! Storage-engine experiments: chunk compression ratio and modeled
//! crash-recovery time on the Table III sampling workload.
//!
//! The workload is the same perfevent shipping loop Table III measures,
//! pointed at a *durable* database over the deterministic in-memory disk.
//! Two power-cycles are measured: one with the WAL intact (row-by-row
//! replay) and one after a flush (compressed-chunk load), so the report
//! shows both ends of the recovery spectrum.

use crate::table3;
use pmove_tsdb::store::{ChunkInfo, MemDisk, RecoveryReport, StoreOptions, Vfs};
use pmove_tsdb::Database;
use std::sync::Arc;

/// One storage-engine measurement cell.
#[derive(Debug, Clone)]
pub struct StorageReport {
    /// Target host key.
    pub(crate) host: String,
    /// Sampling frequency (samples/s).
    pub(crate) freq: f64,
    /// Number of metrics sampled.
    pub(crate) n_metrics: usize,
    /// Field values acknowledged at the database.
    pub(crate) values_inserted: u64,
    /// Durable WAL bytes before the flush.
    pub(crate) wal_bytes: u64,
    /// The chunk the memtable froze into.
    pub(crate) chunk: ChunkInfo,
    /// Recovery with the WAL intact (replay every acknowledged row).
    pub(crate) wal_recovery: RecoveryReport,
    /// Recovery after the flush (load the compressed chunk).
    pub(crate) chunk_recovery: RecoveryReport,
}

impl StorageReport {
    /// Chunk bytes over raw in-memory row footprint (lower is better).
    pub fn compression_ratio(&self) -> f64 {
        self.chunk.bytes as f64 / self.chunk.raw_bytes as f64
    }
}

/// Manual-control store options: no auto-flush, no auto-compaction, so
/// the bench decides exactly when the memtable freezes.
fn opts_manual() -> StoreOptions {
    StoreOptions {
        flush_threshold_rows: usize::MAX,
        compact_min_chunks: usize::MAX,
    }
}

/// Run one cell of the storage table.
pub(crate) fn run_cell(host: &str, freq: f64, n_metrics: usize) -> StorageReport {
    let disk = Arc::new(MemDisk::new(0xC0FFEE));
    let vfs: Arc<dyn Vfs> = disk.clone();
    let (db, _) = Database::open("influx", vfs.clone(), opts_manual()).expect("fresh disk");
    let row = table3::run_cell_into(&db, pmove_obs::Registry::disabled(), host, freq, n_metrics);
    let wal_bytes = disk.durable_bytes();
    drop(db);

    // Power-cycle with the WAL intact: recovery replays every row.
    disk.restart();
    let (db, wal_recovery) =
        Database::open("influx", vfs.clone(), opts_manual()).expect("WAL replay");
    let chunk = db
        .flush()
        .expect("flush after recovery")
        .expect("the workload produced rows");
    drop(db);

    // Power-cycle after the flush: recovery loads the chunk instead.
    disk.restart();
    let (_db, chunk_recovery) = Database::open("influx", vfs, opts_manual()).expect("chunk load");

    StorageReport {
        host: host.to_string(),
        freq,
        n_metrics,
        values_inserted: row.inserted,
        wal_bytes,
        chunk,
        wal_recovery,
        chunk_recovery,
    }
}

/// Run the storage table over a spread of Table III cells.
pub fn run() -> Vec<StorageReport> {
    [("icl", 8.0, 4), ("icl", 32.0, 6), ("skx", 8.0, 6)]
        .into_iter()
        .map(|(host, freq, mt)| run_cell(host, freq, mt))
        .collect()
}

/// Render the table.
pub fn format(reports: &[StorageReport]) -> String {
    let mut out = String::from("STORAGE: chunk compression and modeled recovery time\n");
    out.push_str(&format!(
        "{:<5} {:>5} {:>4} {:>9} {:>10} {:>10} {:>10} {:>7} {:>12} {:>12}\n",
        "Host",
        "Freq",
        "#mt",
        "Values",
        "WAL B",
        "Raw B",
        "Chunk B",
        "C/R%",
        "RecWAL ms",
        "RecChunk ms"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<5} {:>5} {:>4} {:>9} {:>10} {:>10} {:>10} {:>7.1} {:>12.3} {:>12.3}\n",
            r.host,
            r.freq,
            r.n_metrics,
            r.values_inserted,
            r.wal_bytes,
            r.chunk.raw_bytes,
            r.chunk.bytes,
            100.0 * r.compression_ratio(),
            r.wal_recovery.modeled_ns as f64 / 1e6,
            r.chunk_recovery.modeled_ns as f64 / 1e6,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_compress_below_half_of_raw_on_table3_workload() {
        let r = run_cell("icl", 8.0, 4);
        assert!(r.values_inserted > 0);
        let chunk_input_rows = (r.chunk.rows + r.chunk.rows_deduped) as u64;
        assert_eq!(chunk_input_rows, r.wal_recovery.wal_rows);
        assert!(
            r.compression_ratio() <= 0.5,
            "chunk {} B vs raw {} B",
            r.chunk.bytes,
            r.chunk.raw_bytes
        );
    }

    #[test]
    fn chunk_recovery_is_cheaper_than_wal_replay() {
        let r = run_cell("icl", 8.0, 4);
        assert_eq!(r.wal_recovery.chunks_loaded, 0);
        assert!(r.wal_recovery.wal_rows > 0);
        assert_eq!(r.chunk_recovery.chunks_loaded, 1);
        assert_eq!(r.chunk_recovery.wal_rows, 0);
        assert!(r.wal_bytes > r.chunk.bytes, "the WAL is uncompressed");
        assert!(r.wal_recovery.modeled_ns >= r.chunk_recovery.modeled_ns);
    }

    #[test]
    fn same_cell_reports_identically_across_runs() {
        let a = run_cell("icl", 8.0, 4);
        let b = run_cell("icl", 8.0, 4);
        assert_eq!(a.wal_bytes, b.wal_bytes);
        assert_eq!(a.chunk, b.chunk);
        assert_eq!(a.wal_recovery, b.wal_recovery);
        assert_eq!(a.chunk_recovery, b.chunk_recovery);
    }
}
