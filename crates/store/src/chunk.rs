//! Immutable TSM-style chunk files.
//!
//! A chunk is the durable, compressed form of a batch of rows: one
//! [`Block`] per (series, field, value-type), timestamps delta-of-delta
//! encoded, float values Gorilla XOR compressed, the whole file sealed
//! with a trailing CRC32. Blocks are the unit everything durable works
//! in: a chunk decodes to blocks (one key per block, never per cell), the
//! merge kernel ([`crate::merge`]) consumes and produces blocks, and
//! [`ChunkWriter`] encodes them straight into the output file.
//!
//! Layout:
//!
//! ```text
//! "PMCHUNK1" | seq u64 LE | block_count u32 LE | blocks... | crc32 u32 LE
//! block: series(varint len + bytes) | field(varint len + bytes)
//!        | type u8 | count uvarint | min_ts ivarint | max_ts ivarint
//!        | ts_len uvarint | ts_bytes | val_len uvarint | val_bytes
//! ```
//!
//! Invariants, enforced on every decode (a file that breaks one is
//! corrupt even when its CRC matches, and is quarantined like a CRC
//! failure): blocks appear in strictly ascending `(series, field, type)`
//! order; a block holds at least one cell; its timestamps are strictly
//! ascending; the header's `min_ts`/`max_ts` are the first and last of
//! them. The merge kernel relies on all four. Everything is a
//! deterministic function of the input rows, so two same-seed runs emit
//! byte-identical files.

use crate::batch::{Memtable, WriteBatch};
use crate::crc::crc32;
use crate::encode::{
    decode_timestamps, decode_values, encode_timestamps, encode_values, get_bytes, get_ivarint,
    get_uvarint, put_bytes, put_ivarint, put_uvarint,
};
use crate::error::{StoreError, StoreResult};
use crate::merge::merge_blocks;
use crate::row::{ColumnValue, RowRecord};
use crate::vfs::Vfs;

/// File magic for chunk files.
pub const CHUNK_MAGIC: &[u8; 8] = b"PMCHUNK1";

/// Bytes before the first block: magic, sequence number, block count.
const HEADER_LEN: usize = 8 + 8 + 4;

/// File name for a chunk sequence number.
pub fn chunk_name(seq: u64) -> String {
    format!("chunk-{seq:08}.tsm")
}

/// Parse a chunk sequence number back out of a file name.
pub fn parse_chunk_name(name: &str) -> Option<u64> {
    name.strip_prefix("chunk-")?
        .strip_suffix(".tsm")?
        .parse()
        .ok()
}

/// One column pair of one (series, field): at least one cell, timestamps
/// strictly ascending, every value of one type.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// Canonical series key (opaque to the store).
    pub series: String,
    /// Field name within the series.
    pub field: String,
    /// Timestamp column.
    pub ts: Vec<i64>,
    /// Value column, `values[i]` written at `ts[i]`.
    pub values: Vec<ColumnValue>,
}

impl Block {
    /// `(series, field)` as [`BlockRef::key`] gives it.
    pub(crate) fn key(&self) -> (&[u8], &[u8]) {
        (self.series.as_bytes(), self.field.as_bytes())
    }
}

/// Summary of one written chunk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Chunk sequence number (also encoded in the file name).
    pub seq: u64,
    /// Blocks written.
    pub blocks: usize,
    /// Rows stored (after last-write-wins dedup).
    pub rows: usize,
    /// Rows offered but not stored: superseded by a later write of the
    /// same cell (or, in a compaction output, expired).
    pub rows_deduped: usize,
    /// File size in bytes.
    pub bytes: u64,
    /// Raw in-memory footprint of the stored rows (compression baseline).
    pub raw_bytes: u64,
    /// `[min_ts, max_ts]` over the stored rows.
    pub time_range: (i64, i64),
}

/// What a chunk file holds: exact from a validating decode
/// ([`check_chunk`]) or from writing the file, a best-effort estimate when
/// [`probe_chunk`] reads it off damaged bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkSummary {
    /// Rows held (or claimed by the block headers that still parse).
    pub rows: u64,
    /// `[min_ts, max_ts]` across those rows, if any.
    pub time_range: Option<(i64, i64)>,
    /// File size in bytes.
    pub bytes: u64,
}

impl ChunkSummary {
    fn add(&mut self, block: &BlockRef<'_>) {
        self.rows += block.count;
        let (lo, hi) = self.time_range.unwrap_or((block.min_ts, block.max_ts));
        self.time_range = Some((lo.min(block.min_ts), hi.max(block.max_ts)));
    }
}

impl From<&ChunkInfo> for ChunkSummary {
    fn from(info: &ChunkInfo) -> ChunkSummary {
        ChunkSummary {
            rows: info.rows as u64,
            time_range: Some(info.time_range),
            bytes: info.bytes,
        }
    }
}

/// Encoder for one chunk file: blocks go straight into the file image as
/// the merge kernel emits them.
pub(crate) struct ChunkWriter {
    body: Vec<u8>,
    info: ChunkInfo,
}

impl ChunkWriter {
    /// Start the image of chunk `seq`.
    pub(crate) fn new(seq: u64) -> ChunkWriter {
        let mut body = Vec::new();
        body.extend_from_slice(CHUNK_MAGIC);
        body.extend_from_slice(&seq.to_le_bytes());
        body.extend_from_slice(&[0; 4]); // block count, set by `finish`
        ChunkWriter {
            body,
            info: ChunkInfo {
                seq,
                time_range: (i64::MAX, i64::MIN),
                ..ChunkInfo::default()
            },
        }
    }

    /// Append `block`; the caller feeds blocks in ascending
    /// `(series, field, type)` order.
    pub(crate) fn push(&mut self, block: &Block) {
        let (first, last) = (block.ts[0], block.ts[block.ts.len() - 1]);
        let tag = block.values[0].type_tag();
        let body = &mut self.body;
        put_bytes(body, block.series.as_bytes());
        put_bytes(body, block.field.as_bytes());
        body.push(tag);
        put_uvarint(body, block.ts.len() as u64);
        put_ivarint(body, first);
        put_ivarint(body, last);
        put_bytes(body, &encode_timestamps(&block.ts));
        put_bytes(body, &encode_values(tag, &block.values));
        let info = &mut self.info;
        info.blocks += 1;
        info.rows += block.ts.len();
        info.raw_bytes += block
            .values
            .iter()
            .map(|v| v.raw_footprint() as u64)
            .sum::<u64>();
        info.time_range = (info.time_range.0.min(first), info.time_range.1.max(last));
    }

    /// Seal and persist the file (nothing is written when no block was
    /// pushed). `rows_in` is how many rows were offered to the merge.
    pub(crate) fn finish(mut self, vfs: &dyn Vfs, rows_in: u64) -> StoreResult<Option<ChunkInfo>> {
        if self.info.blocks == 0 {
            return Ok(None);
        }
        self.body[16..HEADER_LEN].copy_from_slice(&(self.info.blocks as u32).to_le_bytes());
        let crc = crc32(&self.body);
        self.body.extend_from_slice(&crc.to_le_bytes());
        let mut f = vfs.create(&chunk_name(self.info.seq))?;
        f.append(&self.body)?;
        f.sync()?;
        self.info.bytes = self.body.len() as u64;
        self.info.rows_deduped = rows_in as usize - self.info.rows;
        Ok(Some(self.info))
    }
}

/// Build and persist a chunk from a memtable's blocks (within a block a
/// later write of a cell follows an earlier one and wins, and the
/// winner's type decides its block, so a cell rewritten with a new type
/// cannot survive as two blocks). Returns `None` when there are none.
pub(crate) fn write_blocks(
    vfs: &dyn Vfs,
    seq: u64,
    newest: Vec<Block>,
) -> StoreResult<Option<ChunkInfo>> {
    let mut writer = ChunkWriter::new(seq);
    let stats = merge_blocks(&[], newest, None, &mut |b| writer.push(&b)).map_err(|(_, e)| e)?;
    writer.finish(vfs, stats.rows_in)
}

/// [`write_blocks`] for callers whose unit is the row: `rows` in write
/// order, through the same memtable a store would hold them in.
pub fn write_chunk(vfs: &dyn Vfs, seq: u64, rows: &[RowRecord]) -> StoreResult<Option<ChunkInfo>> {
    let mut memtable = Memtable::default();
    memtable.absorb(WriteBatch::from_rows(rows.iter().cloned()));
    write_blocks(vfs, seq, memtable.blocks())
}

/// One block as it lies in a chunk file: key and encoded columns still
/// borrowed from the file bytes, nothing decoded yet.
#[derive(Clone, Copy)]
pub(crate) struct BlockRef<'a> {
    series: &'a [u8],
    field: &'a [u8],
    tag: u8,
    count: u64,
    min_ts: i64,
    max_ts: i64,
    ts_bytes: &'a [u8],
    val_bytes: &'a [u8],
}

impl<'a> BlockRef<'a> {
    /// Walk one block starting at `pos`. Lengths and the type tag are
    /// all this checks — the probe reads damaged files through it.
    fn walk(data: &'a [u8], pos: &mut usize) -> StoreResult<BlockRef<'a>> {
        let series = get_bytes(data, pos)?;
        let field = get_bytes(data, pos)?;
        let tag = *data
            .get(*pos)
            .ok_or_else(|| StoreError::Decode("missing type tag".into()))?;
        ColumnValue::check_tag(tag)?;
        *pos += 1;
        Ok(BlockRef {
            series,
            field,
            tag,
            count: get_uvarint(data, pos)?,
            min_ts: get_ivarint(data, pos)?,
            max_ts: get_ivarint(data, pos)?,
            ts_bytes: get_bytes(data, pos)?,
            val_bytes: get_bytes(data, pos)?,
        })
    }

    /// `(series, field)`, which orders blocks exactly as the strings do.
    pub(crate) fn key(&self) -> (&'a [u8], &'a [u8]) {
        (self.series, self.field)
    }

    /// Decode both columns, enforcing the block invariants.
    pub(crate) fn decode(&self) -> StoreResult<Block> {
        let key = |bytes: &[u8]| {
            String::from_utf8(bytes.to_vec())
                .map_err(|_| StoreError::Decode("block key not UTF-8".into()))
        };
        let count = usize::try_from(self.count)
            .map_err(|_| StoreError::Decode("block count overflows usize".into()))?;
        let ts = decode_timestamps(self.ts_bytes, count)?;
        if !ts.windows(2).all(|w| w[0] < w[1]) {
            return Err(StoreError::Corrupt(
                "block timestamps not strictly ascending".into(),
            ));
        }
        if (ts.first(), ts.last()) != (Some(&self.min_ts), Some(&self.max_ts)) {
            return Err(StoreError::Corrupt(
                "block is empty or its header time range disagrees with its timestamps".into(),
            ));
        }
        Ok(Block {
            series: key(self.series)?,
            field: key(self.field)?,
            ts,
            values: decode_values(self.tag, self.val_bytes, count)?,
        })
    }
}

/// Check the envelope of chunk file `name` (length, magic, CRC) and index
/// its blocks without decoding them. Any damage is an error; every read
/// site treats such a chunk as absent and quarantines it.
pub(crate) fn index_chunk<'a>(name: &str, data: &'a [u8]) -> StoreResult<(u64, Vec<BlockRef<'a>>)> {
    let corrupt = |what: &str| StoreError::Corrupt(format!("chunk {name}: {what}"));
    if data.len() < HEADER_LEN + 4 {
        return Err(corrupt("too short"));
    }
    if &data[..8] != CHUNK_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let (body, stored_crc) = data.split_at(data.len() - 4);
    if crc32(body).to_le_bytes() != stored_crc {
        return Err(corrupt("bad crc"));
    }
    let seq = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
    let block_count = u32::from_le_bytes(data[16..HEADER_LEN].try_into().expect("4 bytes"));
    let mut pos = HEADER_LEN;
    let mut blocks: Vec<BlockRef<'a>> = Vec::new();
    for _ in 0..block_count {
        let block = BlockRef::walk(body, &mut pos)?;
        if blocks
            .last()
            .is_some_and(|prev| (prev.key(), prev.tag) >= (block.key(), block.tag))
        {
            return Err(corrupt("blocks out of (series, field, type) order"));
        }
        blocks.push(block);
    }
    Ok((seq, blocks))
}

/// Fully validate chunk file `name` — envelope, block order, and a
/// decode of every column, one block at a time — and summarise it.
pub(crate) fn check_chunk(name: &str, data: &[u8]) -> StoreResult<ChunkSummary> {
    let mut summary = ChunkSummary {
        bytes: data.len() as u64,
        ..ChunkSummary::default()
    };
    for block in index_chunk(name, data)?.1 {
        block.decode()?;
        summary.add(&block);
    }
    Ok(summary)
}

/// Validate and decode the bytes of chunk file `name` into its sequence
/// number and blocks (file order).
pub fn read_chunk_bytes(name: &str, data: &[u8]) -> StoreResult<(u64, Vec<Block>)> {
    let (seq, index) = index_chunk(name, data)?;
    let blocks = index
        .iter()
        .map(BlockRef::decode)
        .collect::<StoreResult<_>>()?;
    Ok((seq, blocks))
}

/// Upper bound on a single block's claimed row count during a probe; a
/// flipped bit inside a count varint must not inflate loss accounting.
const PROBE_MAX_BLOCK_ROWS: u64 = 1 << 32;

/// Probe chunk bytes that failed validation: walk the block headers
/// ignoring the checksum and accumulate how many rows the file claimed to
/// hold and over which time range, stopping at the first structural
/// damage. Quarantine uses this to size the hole a lost chunk leaves —
/// it is an estimate (the damage may be inside a header), never a way to
/// trust the data itself. `None` when the file header itself is gone.
pub fn probe_chunk(data: &[u8]) -> Option<ChunkSummary> {
    if data.len() < HEADER_LEN || &data[..8] != CHUNK_MAGIC {
        return None;
    }
    let block_count = u32::from_le_bytes(data[16..HEADER_LEN].try_into().expect("4 bytes"));
    let mut pos = HEADER_LEN;
    let mut probe = ChunkSummary {
        bytes: data.len() as u64,
        ..ChunkSummary::default()
    };
    for _ in 0..block_count {
        match BlockRef::walk(data, &mut pos) {
            Ok(b) if b.count <= PROBE_MAX_BLOCK_ROWS && b.min_ts <= b.max_ts => probe.add(&b),
            _ => break,
        }
    }
    Some(probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memdisk::MemDisk;

    fn rows() -> Vec<RowRecord> {
        let mut out = Vec::new();
        for i in 0..100i64 {
            out.push(RowRecord::new(
                "cpu,host=a",
                "_cpu0",
                i * 500,
                ColumnValue::F64(20.0 + i as f64 * 0.1),
            ));
            out.push(RowRecord::new(
                "cpu,host=a",
                "_cpu1",
                i * 500,
                ColumnValue::I64(i),
            ));
        }
        out.push(RowRecord::new("m,host=b", "ok", 1, ColumnValue::Bool(true)));
        out.push(RowRecord::new(
            "m,host=b",
            "note",
            2,
            ColumnValue::Str("hello".into()),
        ));
        out
    }

    fn read_chunk(disk: &MemDisk, name: &str) -> StoreResult<(u64, Vec<Block>)> {
        read_chunk_bytes(name, &disk.read(name)?)
    }

    fn cells(blocks: &[Block]) -> Vec<(String, String, i64, ColumnValue)> {
        let cell = |b: &Block, i: usize| {
            (
                b.series.clone(),
                b.field.clone(),
                b.ts[i],
                b.values[i].clone(),
            )
        };
        let mut out: Vec<_> = blocks
            .iter()
            .flat_map(|b| (0..b.ts.len()).map(move |i| cell(b, i)))
            .collect();
        out.sort_by(|x, y| (&x.0, &x.1, x.2).cmp(&(&y.0, &y.1, y.2)));
        out
    }

    /// Overwrite `name` with `data`.
    fn put(disk: &MemDisk, name: &str, data: &[u8]) {
        let mut f = disk.create(name).unwrap();
        f.append(data).unwrap();
        f.sync().unwrap();
    }

    #[test]
    fn chunk_roundtrip_preserves_rows() {
        let disk = MemDisk::new(1);
        let info = write_chunk(&disk, 3, &rows()).unwrap().unwrap();
        assert_eq!(info.seq, 3);
        assert_eq!(info.rows, 202);
        assert_eq!(info.blocks, 4);
        assert_eq!(info.time_range, (0, 99 * 500));
        let (seq, back) = read_chunk(&disk, &chunk_name(3)).unwrap();
        assert_eq!(seq, 3);
        let mut want: Vec<_> = rows()
            .into_iter()
            .map(|r| (r.series, r.field, r.ts, r.value))
            .collect();
        want.sort_by(|x, y| (&x.0, &x.1, x.2).cmp(&(&y.0, &y.1, y.2)));
        assert_eq!(cells(&back), want);
        let data = disk.read(&chunk_name(3)).unwrap();
        let summary = check_chunk(&chunk_name(3), &data).unwrap();
        assert_eq!(summary, ChunkSummary::from(&info));
        assert_eq!(
            (summary.rows, summary.time_range),
            (202, Some((0, 99 * 500)))
        );
    }

    #[test]
    fn chunk_compresses_below_half_raw_footprint() {
        let disk = MemDisk::new(2);
        let info = write_chunk(&disk, 0, &rows()).unwrap().unwrap();
        assert!(
            (info.bytes as f64) < 0.5 * info.raw_bytes as f64,
            "chunk {} B vs raw {} B",
            info.bytes,
            info.raw_bytes
        );
    }

    #[test]
    fn duplicate_cells_resolve_last_write_wins() {
        let disk = MemDisk::new(3);
        let dup = vec![
            RowRecord::new("s", "f", 5, ColumnValue::F64(1.0)),
            RowRecord::new("s", "f", 5, ColumnValue::F64(2.0)),
        ];
        let info = write_chunk(&disk, 0, &dup).unwrap().unwrap();
        assert_eq!(info.rows, 1);
        assert_eq!(info.rows_deduped, 1);
        let (_, back) = read_chunk(&disk, &chunk_name(0)).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].values, vec![ColumnValue::F64(2.0)]);
    }

    #[test]
    fn lww_holds_when_a_cell_changes_type() {
        let disk = MemDisk::new(7);
        // An i64 rewritten as f64: block order (f64 sorts first) must not
        // resurrect the older value.
        let dup = vec![
            RowRecord::new("s", "f", 5, ColumnValue::I64(1)),
            RowRecord::new("s", "f", 5, ColumnValue::F64(2.0)),
        ];
        write_chunk(&disk, 0, &dup).unwrap().unwrap();
        let (_, back) = read_chunk(&disk, &chunk_name(0)).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(
            (&back[0].ts, &back[0].values),
            (&vec![5], &vec![ColumnValue::F64(2.0)])
        );
    }

    #[test]
    fn empty_input_writes_nothing() {
        let disk = MemDisk::new(4);
        assert_eq!(write_chunk(&disk, 0, &[]).unwrap(), None);
        assert!(!disk.exists(&chunk_name(0)).unwrap());
    }

    #[test]
    fn corrupt_chunks_are_rejected() {
        let disk = MemDisk::new(5);
        write_chunk(&disk, 1, &rows()).unwrap();
        let name = chunk_name(1);
        let mut data = disk.read(&name).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x10;
        put(&disk, &name, &data);
        assert!(matches!(
            read_chunk(&disk, &name),
            Err(StoreError::Corrupt(_))
        ));
        // Truncated file.
        put(&disk, &name, &data[..10]);
        assert!(read_chunk(&disk, &name).is_err());
    }

    /// `(series, count, min_ts, max_ts, timestamps)` of a hand-made block.
    type Forged<'a> = (&'a str, u64, i64, i64, &'a [i64]);

    /// A chunk file image with a valid envelope around hand-made bool
    /// blocks of field "f", one `false` per timestamp.
    fn forged(blocks: &[Forged<'_>]) -> Vec<u8> {
        let mut body = CHUNK_MAGIC.to_vec();
        body.extend_from_slice(&9u64.to_le_bytes());
        body.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
        for &(series, count, min_ts, max_ts, ts) in blocks {
            put_uvarint(&mut body, series.len() as u64);
            body.extend_from_slice(series.as_bytes());
            put_uvarint(&mut body, 1);
            body.push(b'f');
            body.push(2);
            put_uvarint(&mut body, count);
            put_ivarint(&mut body, min_ts);
            put_ivarint(&mut body, max_ts);
            let ts_bytes = encode_timestamps(ts);
            put_uvarint(&mut body, ts_bytes.len() as u64);
            body.extend_from_slice(&ts_bytes);
            let val_bytes = vec![0u8; ts.len().div_ceil(8)];
            put_uvarint(&mut body, val_bytes.len() as u64);
            body.extend_from_slice(&val_bytes);
        }
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    fn assert_corrupt(data: &[u8]) {
        assert!(
            matches!(
                read_chunk_bytes("forged", data),
                Err(StoreError::Corrupt(_))
            ),
            "{:?}",
            read_chunk_bytes("forged", data)
        );
        assert!(check_chunk("forged", data).is_err());
    }

    #[test]
    fn forged_baseline_is_accepted() {
        // The forger itself is sound, so each rejection below is down to
        // the one invariant its case breaks.
        let ok = forged(&[("a", 2, 1, 5, &[1, 5]), ("b", 1, 3, 3, &[3])]);
        let (seq, blocks) = read_chunk_bytes("forged", &ok).unwrap();
        assert_eq!((seq, blocks.len()), (9, 2));
        assert_eq!(blocks[0].values, vec![ColumnValue::Bool(false); 2]);
    }

    #[test]
    fn empty_block_is_rejected() {
        assert_corrupt(&forged(&[("a", 0, 0, 0, &[])]));
    }

    #[test]
    fn non_ascending_timestamps_are_rejected() {
        assert_corrupt(&forged(&[("a", 3, 1, 5, &[1, 7, 5])]));
        assert_corrupt(&forged(&[("a", 2, 4, 4, &[4, 4])]));
    }

    #[test]
    fn header_time_range_must_match_the_column() {
        assert_corrupt(&forged(&[("a", 2, 0, 5, &[1, 5])]));
        assert_corrupt(&forged(&[("a", 2, 1, 6, &[1, 5])]));
    }

    #[test]
    fn out_of_order_blocks_are_rejected() {
        assert_corrupt(&forged(&[("b", 1, 3, 3, &[3]), ("a", 1, 3, 3, &[3])]));
        // Same (series, field): the type must strictly ascend too.
        assert_corrupt(&forged(&[("a", 1, 3, 3, &[3]), ("a", 1, 4, 4, &[4])]));
    }

    #[test]
    fn hostile_block_count_is_an_error_not_an_allocation() {
        let data = forged(&[("a", u64::MAX >> 1, 1, 5, &[1, 5])]);
        assert!(matches!(
            read_chunk_bytes("forged", &data),
            Err(StoreError::Decode(_))
        ));
    }

    #[test]
    fn chunk_files_are_byte_identical_across_runs() {
        let a = MemDisk::new(6);
        let b = MemDisk::new(99); // different disk seed must not matter
        write_chunk(&a, 2, &rows()).unwrap();
        write_chunk(&b, 2, &rows()).unwrap();
        assert_eq!(
            a.read(&chunk_name(2)).unwrap(),
            b.read(&chunk_name(2)).unwrap()
        );
    }

    #[test]
    fn probe_recovers_structure_from_corrupt_chunk() {
        let disk = MemDisk::new(8);
        write_chunk(&disk, 4, &rows()).unwrap().unwrap();
        let name = chunk_name(4);
        let mut data = disk.read(&name).unwrap();
        // Flip a bit inside the last block's value bytes: earlier block
        // headers still parse, so the probe sees the full row count.
        let off = data.len() - 8;
        data[off] ^= 0x01;
        assert!(matches!(
            read_chunk_bytes(&name, &data),
            Err(StoreError::Corrupt(_))
        ));
        let probe = probe_chunk(&data).unwrap();
        assert_eq!(probe.rows, 202);
        let (lo, hi) = probe.time_range.unwrap();
        assert_eq!((lo, hi), (0, 99 * 500));
        // Damage in the magic itself is unprobeable.
        assert_eq!(probe_chunk(b"garbage"), None);
    }

    #[test]
    fn chunk_names_roundtrip() {
        assert_eq!(chunk_name(7), "chunk-00000007.tsm");
        assert_eq!(parse_chunk_name("chunk-00000007.tsm"), Some(7));
        assert_eq!(parse_chunk_name("wal.log"), None);
        assert_eq!(parse_chunk_name("chunk-x.tsm"), None);
    }
}
