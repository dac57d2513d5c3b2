//! The block-merge kernel: the one place last-write-wins is decided.
//!
//! Inputs are layers of already-sorted data — chunk block indexes oldest
//! to newest, then optionally the memtable's blocks on top — and the
//! output is the merged view in ascending `(series, field, type)` order,
//! handed to a [`Sink`] as parts whose cells, in order, are the merge. The
//! kernel walks the inputs key by key, collecting the parts of the
//! smallest `(series, field)` any layer still holds, and takes one of two
//! paths:
//!
//! - **Concatenation.** When the parts are of one type, each comes after
//!   the one before (a chunk block's header `max_ts` below the next
//!   part's `min_ts`) and none reaches back past the retention cutoff,
//!   the parts are the merge already and go to the sink as they are. A
//!   lone chunk block is such a key, and so is every key of append-only
//!   monitoring.
//! - **Sort.** Anything else decodes every part and stable-sorts the
//!   cells by timestamp, the newest layer winning each cell (the winner's
//!   type choosing the output block) and cells older than the cutoff
//!   dropped in the same pass; each output block goes to the sink as a
//!   part of its own.
//!
//! The sink chooses the output form. `Vec<Block>` — scan, and so recovery
//! — decodes and appends. The chunk writer — flush and compaction —
//! encodes, and when the oldest part's chunk is this store's own output it
//! copies that part's encoded columns and continues them with the newer
//! parts' cells, so compaction costs what is new rather than what is
//! stored. Either way a chunk block is decoded by the same validating
//! column cursors, and a failure names the chunk it came from. Peak
//! memory is one key's columns, whatever the chunks' size.

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

/// A merge failure: the position of the chunk whose block failed to
/// decode among the kernel's inputs, and why.
pub(crate) type MergeError = (usize, StoreError);

/// One chunk's block index as the kernel reads it.
pub(crate) struct Layer<'a> {
    /// The chunk's blocks, in file order.
    pub blocks: Vec<BlockRef<'a>>,
    /// The chunk is this store's own output — its trailer is the CRC the
    /// chunk writer sealed it with — so its encoded columns are exactly
    /// what re-encoding their cells writes, and may be copied.
    pub own: bool,
}

/// One layer's share of the key being merged.
pub(crate) enum Part<'a> {
    /// A chunk block: the chunk's position among the inputs, the block,
    /// and whether the chunk is its [`Layer::own`] output.
    Chunk(usize, BlockRef<'a>, bool),
    /// The newest layer's block.
    Mem(Block),
}

impl Part<'_> {
    /// `(type, first, last)` when the part is of one type and its
    /// timestamps strictly ascend (a chunk block's are, or it is corrupt).
    fn span(&self) -> Option<(u8, i64, i64)> {
        match self {
            Part::Chunk(_, block, _) => Some(block.span()),
            Part::Mem(block) => {
                let tag = block.values.first()?.type_tag();
                let one_type = block.values.iter().all(|v| v.type_tag() == tag);
                let ascending = block.ts.windows(2).all(|w| w[0] < w[1]);
                let last = block.ts[block.ts.len() - 1];
                (one_type && ascending).then_some((tag, block.ts[0], last))
            }
        }
    }

    /// The part's cells.
    fn decode(self) -> Result<Block, MergeError> {
        match self {
            Part::Chunk(at, block, _) => block.decode().map_err(|e| (at, e)),
            Part::Mem(block) => Ok(block),
        }
    }
}

/// Where the merged view goes; the sink chooses its form.
pub(crate) trait Sink {
    /// Take the merge of one key as parts, oldest first, of one type and
    /// time-disjoint, so that their cells in order are the merge. Returns
    /// how many cells that is.
    fn emit(&mut self, parts: Vec<Part<'_>>) -> Result<u64, MergeError>;
}

impl Sink for Vec<Block> {
    fn emit(&mut self, parts: Vec<Part<'_>>) -> Result<u64, MergeError> {
        let mut parts = parts.into_iter();
        let Some(first) = parts.next() else {
            return Ok(0);
        };
        let mut block = first.decode()?;
        for part in parts {
            match part {
                Part::Chunk(at, newer, _) => newer.append_to(&mut block).map_err(|e| (at, e))?,
                Part::Mem(newer) => {
                    block.ts.extend(newer.ts);
                    block.values.extend(newer.values);
                }
            }
        }
        let cells = block.ts.len() as u64;
        self.push(block);
        Ok(cells)
    }
}

/// Whether `parts` (oldest first) concatenate into their merge: one type,
/// each part after the one before, nothing before `cutoff`.
fn disjoint(parts: &[Part<'_>], cutoff: Option<i64>) -> bool {
    let mut prev: Option<(u8, i64)> = None;
    for part in parts {
        let Some((tag, first, last)) = part.span() else {
            return false;
        };
        let fits = match prev {
            None => cutoff.is_none_or(|cut| first >= cut),
            Some((prev_tag, prev_last)) => prev_tag == tag && prev_last < first,
        };
        if !fits {
            return false;
        }
        prev = Some((tag, last));
    }
    true
}

/// Merge `chunks` (oldest first) under `newest` (newer than every chunk:
/// one block per key in ascending key order, whose timestamps may repeat,
/// a later write after an earlier) into `sink`. A chunk block that fails
/// to decode aborts the merge with the position of its chunk in `chunks`;
/// what the sink received until then is void.
pub(crate) fn merge_blocks(
    chunks: &[Layer<'_>],
    mut newest: Vec<Block>,
    cutoff: Option<i64>,
    sink: &mut impl Sink,
) -> Result<MergeStats, MergeError> {
    let mut stats = MergeStats::default();
    let mut heads = vec![0usize; chunks.len()];
    let mut row = 0usize;
    // (timestamp, part, position in part) of every cell of the current key.
    let mut cells: Vec<(i64, u32, u32)> = Vec::new();
    loop {
        let chunk_keys = chunks
            .iter()
            .zip(&heads)
            .filter_map(|(c, &h)| c.blocks.get(h).map(BlockRef::key));
        let Some(key) = chunk_keys.chain(newest.get(row).map(Block::key)).min() else {
            return Ok(stats);
        };
        // This key's blocks from every layer that has it, oldest first.
        let mut parts: Vec<Part<'_>> = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            while let Some(&block) = chunk.blocks.get(heads[i]).filter(|b| b.key() == key) {
                parts.push(Part::Chunk(i, block, chunk.own));
                heads[i] += 1;
            }
        }
        if newest.get(row).is_some_and(|b| b.key() == key) {
            parts.push(Part::Mem(std::mem::take(&mut newest[row])));
            row += 1;
        }
        if disjoint(&parts, cutoff) {
            let rows = sink.emit(parts)?;
            stats.rows_in += rows;
            stats.rows_out += rows;
            continue;
        }
        let mut parts = parts
            .into_iter()
            .map(Part::decode)
            .collect::<Result<Vec<_>, _>>()?;
        stats.rows_in += parts.iter().map(|p| p.ts.len() as u64).sum::<u64>();
        cells.clear();
        for (p, part) in parts.iter().enumerate() {
            let skip = cutoff.map_or(0, |cut| part.ts.partition_point(|&t| t < cut));
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
            let block = Block {
                series: parts[0].series.clone(),
                field: parts[0].field.clone(),
                ts,
                values,
            };
            sink.emit(vec![Part::Mem(block)])?;
        }
    }
}
