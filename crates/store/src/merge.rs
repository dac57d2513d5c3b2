//! The block-merge kernel: the one place last-write-wins is decided.
//!
//! Inputs are layers of already-sorted data — chunk block indexes oldest
//! to newest, then optionally the memtable's blocks on top — and the
//! output is the merged view as [`Block`]s in ascending
//! `(series, field, type)` order, handed one at a time to a sink. The
//! kernel walks the inputs key by key: it decodes only the blocks of the
//! smallest `(series, field)` any layer still holds, merges their
//! timestamp-sorted columns with the newest layer winning each cell (the
//! winner's type choosing the output block), drops cells older than the
//! retention cutoff in the same pass, and moves on — so peak memory is
//! one key's columns, whatever the chunks' size.
//!
//! Flush (memtable only), compaction (chunks only, maybe a cutoff), scan
//! and recovery (chunks under the memtable) are all this function with a
//! different sink.

use crate::chunk::{Block, BlockRef};
use crate::error::StoreError;
use crate::row::ColumnValue;

/// Row accounting of one merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MergeStats {
    /// Cells offered by all layers.
    pub rows_in: u64,
    /// Cells emitted.
    pub rows_out: u64,
    /// Cells dropped for `ts < cutoff` (superseded ones included).
    pub dropped_retention: u64,
}

/// Merge `chunks` (block indexes, oldest first) under `newest` (newer
/// than every chunk: one block per key in ascending key order, whose
/// timestamps may repeat, a later write after an earlier) into `sink`. A
/// chunk block that fails to decode aborts the merge with the position of
/// its chunk in `chunks`; what the sink received until then is void.
pub(crate) fn merge_blocks(
    chunks: &[Vec<BlockRef<'_>>],
    mut newest: Vec<Block>,
    cutoff: Option<i64>,
    sink: &mut dyn FnMut(Block),
) -> Result<MergeStats, (usize, StoreError)> {
    let mut stats = MergeStats::default();
    let mut heads = vec![0usize; chunks.len()];
    let mut row = 0usize;
    // (timestamp, part, position in part) of every cell of the current key.
    let mut cells: Vec<(i64, u32, u32)> = Vec::new();
    loop {
        let chunk_keys = chunks
            .iter()
            .zip(&heads)
            .filter_map(|(c, &h)| c.get(h).map(BlockRef::key));
        let Some(key) = chunk_keys.chain(newest.get(row).map(Block::key)).min() else {
            return Ok(stats);
        };
        // This key's columns from every layer that has it, oldest first.
        let mut parts: Vec<Block> = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            while let Some(block) = chunk.get(heads[i]).filter(|b| b.key() == key) {
                parts.push(block.decode().map_err(|e| (i, e))?);
                heads[i] += 1;
            }
        }
        let chunk_parts = parts.len();
        if newest.get(row).is_some_and(|b| b.key() == key) {
            parts.push(std::mem::take(&mut newest[row]));
            row += 1;
        }
        stats.rows_in += parts.iter().map(|p| p.ts.len() as u64).sum::<u64>();
        let expired = |p: &Block| cutoff.map_or(0, |cut| p.ts.partition_point(|&t| t < cut));
        // A lone chunk block inside the retention window is already what
        // the merge would produce.
        if chunk_parts == 1 && parts.len() == 1 && expired(&parts[0]) == 0 {
            stats.rows_out += parts[0].ts.len() as u64;
            sink(parts.pop().expect("one part"));
            continue;
        }
        cells.clear();
        for (p, part) in parts.iter().enumerate() {
            let skip = expired(part);
            stats.dropped_retention += skip as u64;
            cells.extend((skip..part.ts.len()).map(|i| (part.ts[i], p as u32, i as u32)));
        }
        // Stable: cells of one timestamp stay oldest layer first (and, in
        // `newest`'s block, in write order), so the last of a run wins.
        cells.sort_by_key(|c| c.0);
        let mut outs: [(Vec<i64>, Vec<ColumnValue>); 4] = Default::default();
        for (i, &(ts, p, pos)) in cells.iter().enumerate() {
            if cells.get(i + 1).is_some_and(|next| next.0 == ts) {
                continue;
            }
            let slot = &mut parts[p as usize].values[pos as usize];
            let value = std::mem::replace(slot, ColumnValue::Bool(false));
            let out = &mut outs[value.type_tag() as usize];
            out.0.push(ts);
            out.1.push(value);
        }
        for (ts, values) in outs.into_iter().filter(|o| !o.0.is_empty()) {
            stats.rows_out += ts.len() as u64;
            sink(Block {
                series: parts[0].series.clone(),
                field: parts[0].field.clone(),
                ts,
                values,
            });
        }
    }
}
