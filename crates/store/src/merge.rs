//! The block-merge kernel: the one place last-write-wins is decided.
//!
//! Inputs are layers of already-sorted data — chunk block indexes oldest
//! to newest, then optionally the memtable's pairs on top, borrowed — and
//! the output is the merged view in ascending `(series, field, type)`
//! order, handed to a [`Sink`] one block at a time. The kernel walks the
//! inputs key by key, collecting the parts of the smallest `(series,
//! field)` any layer still holds, and takes one path for every key:
//!
//! 1. **Prefix.** When the parts are of one type and no retention cutoff
//!    reaches into the oldest part, that part's cells before the first
//!    stamp of any newer part are the merge already: nothing can
//!    interleave with them or supersede them. They go to the sink as
//!    they are — as encoded bytes when the sink is the chunk writer and
//!    the part's chunk is this store's own output, cell by cell
//!    otherwise. A lone chunk block, and every key of append-only
//!    monitoring, is all prefix.
//! 2. **Merge.** The cells left — the oldest part's from the first newer
//!    stamp on, and every newer part's — are merged as the sorted runs
//!    they are: the smallest stamp any run stands on goes next, the
//!    newest layer winning a stamp several runs share (and, within the
//!    memtable's pair, the last write of it), and cells older than the
//!    cutoff are dropped before the merge starts.
//!
//! A key whose parts are of more than one type has no prefix: its merge
//! collects each winner under its type, and the sink gets one block per
//! type. Every chunk block is read by the same validating walk
//! ([`Cells`]), to its last cell, and a failure names the chunk it came
//! from. The sink chooses the output form: `Vec<Block>` — scan, and so
//! recovery — appends decoded cells; the chunk writer — flush and
//! compaction — encodes them, so compaction costs the overlap late
//! samples make rather than the history stored. Peak memory is one key's
//! columns, whatever the chunks' size.

use crate::chunk::{Block, BlockRef, Cells};
use crate::error::{StoreError, StoreResult};
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
    /// what re-encoding their cells writes, and a prefix may be copied.
    pub own: bool,
}

/// One `(series, field)` of the newest layer, borrowed from the memtable:
/// timestamps ascending (equal ones in write order), values of any type
/// beside them, at least one cell.
#[derive(Clone, Copy)]
pub(crate) struct Pair<'a> {
    pub series: &'a str,
    pub field: &'a str,
    pub ts: &'a [i64],
    pub values: &'a [ColumnValue],
}

impl<'a> Pair<'a> {
    /// `(series, field)` as [`BlockRef::key`] gives it.
    fn key(&self) -> (&'a [u8], &'a [u8]) {
        (self.series.as_bytes(), self.field.as_bytes())
    }
}

/// Where the merged view goes, one block at a time; the sink chooses its
/// form.
pub(crate) trait Sink {
    /// Open the output block of `(series, field)` and type `tag`, which
    /// will hold at most `room` cells.
    fn open(&mut self, series: &str, field: &str, tag: u8, room: usize);

    /// Begin the open block with the cells `cells` walks before `newer`
    /// ([`Cells::before`]): the prefix of `base`, which is this store's
    /// own output when `own`. Returns the stamp of the cell the walk then
    /// stands on.
    fn prefix(
        &mut self,
        base: &BlockRef<'_>,
        own: bool,
        cells: &mut Cells<'_>,
        newer: Option<i64>,
    ) -> StoreResult<Option<i64>>;

    /// Append a cell to the open block, after every cell it holds.
    fn cell(&mut self, ts: i64, value: &ColumnValue);

    /// Close the open block and return its cells; an empty one is dropped.
    fn close(&mut self) -> u64;
}

impl Sink for Vec<Block> {
    fn open(&mut self, series: &str, field: &str, _tag: u8, room: usize) {
        self.push(Block {
            series: series.to_string(),
            field: field.to_string(),
            ts: Vec::with_capacity(room),
            values: Vec::with_capacity(room),
        });
    }

    /// Decoded, like every other cell.
    fn prefix(
        &mut self,
        _: &BlockRef<'_>,
        _: bool,
        cells: &mut Cells<'_>,
        newer: Option<i64>,
    ) -> StoreResult<Option<i64>> {
        let block = self.last_mut().expect("a block is open");
        cells.before(newer, |ts, cells| {
            block.ts.push(ts);
            block.values.push(cells.value());
        })
    }

    fn cell(&mut self, ts: i64, value: &ColumnValue) {
        let block = self.last_mut().expect("a block is open");
        block.ts.push(ts);
        block.values.push(value.clone());
    }

    fn close(&mut self) -> u64 {
        let cells = self.last().map_or(0, |block| block.ts.len());
        if cells == 0 {
            self.pop();
        }
        cells as u64
    }
}

/// One part's cells not merged yet.
enum Run<'a> {
    /// A chunk block's walk, the chunk's position among the inputs, and
    /// the stamp of the cell the walk stands on (`None`: past the last).
    Chunk(usize, Cells<'a>, Option<i64>),
    /// The newest layer's cells from the first on.
    Mem(&'a [i64], &'a [ColumnValue]),
}

impl<'a> Run<'a> {
    /// The walk of chunk block `block`, standing on its first cell.
    fn chunk(at: usize, block: &BlockRef<'a>) -> Result<Run<'a>, MergeError> {
        let mut cells = block.cells().map_err(|e| (at, e))?;
        let head = cells.next().map_err(|e| (at, e))?;
        Ok(Run::Chunk(at, cells, head))
    }

    /// The stamp of the cell the run stands on.
    fn head(&self) -> Option<i64> {
        match self {
            Run::Chunk(_, _, head) => *head,
            Run::Mem(ts, _) => ts.first().copied(),
        }
    }

    /// Step past the cell the run stands on.
    fn advance(&mut self) -> Result<(), MergeError> {
        match self {
            Run::Chunk(at, cells, head) => *head = cells.next().map_err(|e| (*at, e))?,
            Run::Mem(ts, values) => (*ts, *values) = (&ts[1..], &values[1..]),
        }
        Ok(())
    }
}

/// Hand `sink`'s open block the cells of `base`, the key's oldest part,
/// before `newer` (the first stamp of any newer part; every cell when
/// there is none), and return the rest of the base as a run.
fn prefix<'a>(
    sink: &mut impl Sink,
    at: usize,
    base: &BlockRef<'a>,
    own: bool,
    newer: Option<i64>,
) -> Result<Run<'a>, MergeError> {
    let mut cells = base.cells().map_err(|e| (at, e))?;
    let head = sink
        .prefix(base, own, &mut cells, newer)
        .map_err(|e| (at, e))?;
    Ok(Run::Chunk(at, cells, head))
}

/// Merge `chunks` (oldest first) under `newest` (newer than every chunk,
/// in ascending key order) into `sink`. A chunk block that fails to
/// decode aborts the merge with the position of its chunk in `chunks`;
/// what the sink received until then is void.
pub(crate) fn merge_blocks<'a>(
    chunks: &[Layer<'a>],
    newest: impl Iterator<Item = Pair<'a>>,
    cutoff: Option<i64>,
    sink: &mut impl Sink,
) -> Result<MergeStats, MergeError> {
    let mut stats = MergeStats::default();
    let mut heads = vec![0usize; chunks.len()];
    let mut newest = newest.peekable();
    // Per key: its chunk blocks, its runs, and — parts of several types —
    // its winners by type. Cleared, not freed, from key to key.
    let mut parts: Vec<(usize, BlockRef<'a>, bool)> = Vec::new();
    let mut runs: Vec<Run<'a>> = Vec::new();
    let mut typed: [(Vec<i64>, Vec<ColumnValue>); 4] = Default::default();
    loop {
        let chunk_keys = chunks
            .iter()
            .zip(&heads)
            .filter_map(|(c, &h)| c.blocks.get(h).map(BlockRef::key));
        let Some(key) = chunk_keys.chain(newest.peek().map(Pair::key)).min() else {
            return Ok(stats);
        };
        // This key's parts from every layer that has it, oldest first.
        parts.clear();
        for (i, chunk) in chunks.iter().enumerate() {
            while let Some(&block) = chunk.blocks.get(heads[i]).filter(|b| b.key() == key) {
                parts.push((i, block, chunk.own));
                heads[i] += 1;
            }
        }
        let mem = newest.next_if(|pair| pair.key() == key);
        let offered =
            parts.iter().map(|p| p.1.count()).sum::<usize>() + mem.map_or(0, |pair| pair.ts.len());
        stats.rows_in += offered as u64;
        let (series, field) = match parts.first() {
            Some((at, block, _)) => block.keys().map_err(|e| (*at, e))?,
            None => mem
                .map(|pair| (pair.series, pair.field))
                .expect("a layer has the key"),
        };
        let mem_tags = mem
            .iter()
            .flat_map(|pair| pair.values.iter().map(ColumnValue::type_tag));
        let mut tags = parts.iter().map(|p| p.1.tag()).chain(mem_tags);
        let first_tag = tags.next().expect("a part holds a cell");
        let one_type = tags.all(|tag| tag == first_tag).then_some(first_tag);

        runs.clear();
        let mut rest = &parts[..];
        if let Some(tag) = one_type {
            sink.open(series, field, tag, offered);
            if let Some((at, base, own)) = parts
                .first()
                .filter(|(_, base, _)| cutoff.is_none_or(|cut| cut <= base.min_ts()))
            {
                let newer_parts = parts[1..].iter().map(|p| p.1.min_ts());
                let newer = newer_parts.chain(mem.map(|pair| pair.ts[0])).min();
                runs.push(prefix(sink, *at, base, *own, newer)?);
                rest = &parts[1..];
            }
        }
        for (at, block, _) in rest {
            runs.push(Run::chunk(*at, block)?);
        }
        if let Some(pair) = mem {
            runs.push(Run::Mem(pair.ts, pair.values));
        }
        if let Some(cut) = cutoff {
            for run in &mut runs {
                while run.head().is_some_and(|ts| ts < cut) {
                    run.advance()?;
                    stats.dropped_retention += 1;
                }
            }
        }

        match one_type {
            Some(_) => {
                merge_runs(&mut runs, |ts, value| sink.cell(ts, value))?;
                stats.rows_out += sink.close();
            }
            None => {
                merge_runs(&mut runs, |ts, value| {
                    let (stamps, values) = &mut typed[value.type_tag() as usize];
                    stamps.push(ts);
                    values.push(value.clone());
                })?;
                for (tag, (stamps, values)) in typed.iter_mut().enumerate() {
                    if stamps.is_empty() {
                        continue;
                    }
                    sink.open(series, field, tag as u8, stamps.len());
                    for (&ts, value) in stamps.iter().zip(values.iter()) {
                        sink.cell(ts, value);
                    }
                    stamps.clear();
                    values.clear();
                    stats.rows_out += sink.close();
                }
            }
        }
    }
}

/// Merge `runs` (each ascending, a later one newer) and hand `emit` each
/// stamp's winner, in stamp order: of runs standing on one stamp the
/// newest wins, and within the newest layer's pair the last write.
fn merge_runs(
    runs: &mut [Run<'_>],
    mut emit: impl FnMut(i64, &ColumnValue),
) -> Result<(), MergeError> {
    loop {
        let mut win: Option<(i64, usize)> = None;
        for (r, run) in runs.iter().enumerate() {
            if let Some(ts) = run.head().filter(|&ts| win.is_none_or(|(w, _)| ts <= w)) {
                win = Some((ts, r));
            }
        }
        let Some((ts, w)) = win else {
            return Ok(());
        };
        for run in &mut runs[..w] {
            if run.head() == Some(ts) {
                run.advance()?;
            }
        }
        let run = &mut runs[w];
        match run {
            Run::Chunk(_, cells, _) => emit(ts, &cells.value()),
            Run::Mem(stamps, values) => {
                let same = stamps.iter().take_while(|&&t| t == ts).count();
                (*stamps, *values) = (&stamps[same - 1..], &values[same - 1..]);
                emit(ts, &values[0]);
            }
        }
        run.advance()?;
    }
}
