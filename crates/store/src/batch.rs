//! The write path's unit: cells in block shape, from the caller to the
//! chunk writer.
//!
//! A [`WriteBatch`] holds what one `append` call offers: per series its
//! key once, the timestamps of its points once (arrival order), and per
//! field one column — name once, values of one type, and the rows it
//! covers when that is not all of them. The same structure is the WAL
//! frame ([`WriteBatch::encode`] / [`WriteBatch::decode`]) and what the
//! [`Memtable`] absorbs after the commit, so nothing on the way is one
//! record per cell.
//!
//! Frame layout (version 2; varints are LEB128, `i` ones zigzag):
//!
//! ```text
//! 0x00 | 0x02 | series_count u
//! series: key (len u + bytes) | rows u | rows × ts delta i | columns u
//! column: field (len u + bytes) | type u8 | n u | [n × row gap u, when n < rows]
//!         | n values: f64 8 bytes LE · i64 i · bool u8 · str (len u + bytes)
//! ```
//!
//! Timestamp deltas run from the previous row's (the first from 0,
//! wrapping); a row gap is the distance from the row after the previous
//! one. Columns apply in file order and a field may own several (its
//! values changed type mid-batch), so arrival order — all last-write-wins
//! needs — survives. A payload that does not open with `0x00 | 0x02` is
//! not a frame of this build.

use crate::chunk::Block;
use crate::encode::{
    check_count, get_ivarint, get_str, get_uvarint, put_bytes, put_ivarint, put_uvarint,
};
use crate::error::{StoreError, StoreResult};
use crate::row::{ColumnValue, RowRecord};
use std::collections::btree_map::{BTreeMap, Entry};

/// Version byte of the frame [`WriteBatch::encode`] writes.
const FRAME_VERSION: u8 = 2;

/// Values of one type of one field, at `rows` (ascending) of its series
/// block.
#[derive(Debug, Clone)]
struct Column {
    field: String,
    rows: Vec<u32>,
    values: Vec<ColumnValue>,
}

/// One series' points: `ts[r]` is row `r`'s timestamp.
#[derive(Debug, Clone)]
struct SeriesBlock {
    series: String,
    ts: Vec<i64>,
    columns: Vec<Column>,
}

/// Cells offered to the store in one call, in block shape.
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    series: Vec<SeriesBlock>,
    cells: usize,
    /// Column the current row's last cell went to (`None`: row just opened).
    last_col: Option<usize>,
    /// Some field of the current series block owns more than one column.
    split: bool,
}

fn put_value(out: &mut Vec<u8>, value: &ColumnValue) {
    match value {
        ColumnValue::F64(v) => out.extend_from_slice(&v.to_bits().to_le_bytes()),
        ColumnValue::I64(v) => put_ivarint(out, *v),
        ColumnValue::Bool(v) => out.push(*v as u8),
        ColumnValue::Str(s) => put_bytes(out, s.as_bytes()),
    }
}

fn get_byte(data: &[u8], pos: &mut usize) -> StoreResult<u8> {
    let b = *data
        .get(*pos)
        .ok_or_else(|| StoreError::Decode("wal frame truncated".into()))?;
    *pos += 1;
    Ok(b)
}

fn get_value(tag: u8, data: &[u8], pos: &mut usize) -> StoreResult<ColumnValue> {
    Ok(match tag {
        0 => {
            let bytes = pos.checked_add(8).and_then(|end| data.get(*pos..end));
            let bytes = bytes.ok_or_else(|| StoreError::Decode("wal f64 truncated".into()))?;
            *pos += 8;
            ColumnValue::F64(f64::from_bits(u64::from_le_bytes(
                bytes.try_into().expect("8 bytes"),
            )))
        }
        1 => ColumnValue::I64(get_ivarint(data, pos)?),
        2 => ColumnValue::Bool(get_byte(data, pos)? != 0),
        3 => ColumnValue::Str(get_str(data, pos)?.to_string()),
        t => return Err(StoreError::Decode(format!("wal bad type tag {t}"))),
    })
}

/// A count read from a frame: each counted item takes at least one of
/// the bytes left, so a larger count is damage, not an allocation.
fn get_count(data: &[u8], pos: &mut usize) -> StoreResult<usize> {
    let n = usize::try_from(get_uvarint(data, pos)?).unwrap_or(usize::MAX);
    check_count(n, &data[*pos..], 1)?;
    Ok(n)
}

impl WriteBatch {
    /// Open a series block; the cells pushed next belong to `key`.
    /// `rows` is how many rows to make room for (more may follow).
    pub fn series(&mut self, key: String, rows: usize) {
        self.series.push(SeriesBlock {
            series: key,
            ts: Vec::with_capacity(rows),
            columns: Vec::new(),
        });
        (self.last_col, self.split) = (None, false);
    }

    /// Add a cell to the open series block, in arrival order. It joins
    /// the current row when that has the same timestamp and only cells
    /// of smaller field names — so a point's sorted field set is one row
    /// — and opens a new row otherwise.
    pub fn push(&mut self, ts: i64, field: &str, value: ColumnValue) {
        let sb = self.series.last_mut().expect("series() opens a block");
        let last = self.last_col.filter(|_| sb.ts.last() == Some(&ts));
        let last = last.filter(|&c| sb.columns[c].field.as_str() < field);
        if last.is_none() {
            sb.ts.push(ts);
        }
        let row = u32::try_from(sb.ts.len() - 1).expect("a block holds < 2^32 rows");
        // The field's newest column. Names ascend within a row, so it has
        // no cell in this row yet, and the first row never has one.
        let guess = last.map_or(0, |c| c + 1);
        let at = if !self.split && sb.columns.get(guess).is_some_and(|c| c.field == field) {
            Some(guess)
        } else if row == 0 {
            None
        } else {
            sb.columns.iter().rposition(|c| c.field == field)
        };
        let tag = value.type_tag();
        let at = match at.filter(|&i| sb.columns[i].values[0].type_tag() == tag) {
            Some(i) => i,
            None => {
                self.split |= at.is_some();
                let room = sb.ts.capacity() - row as usize;
                sb.columns.push(Column {
                    field: field.to_string(),
                    rows: Vec::with_capacity(room),
                    values: Vec::with_capacity(room),
                });
                sb.columns.len() - 1
            }
        };
        sb.columns[at].rows.push(row);
        sb.columns[at].values.push(value);
        self.last_col = Some(at);
        self.cells += 1;
    }

    /// [`WriteBatch::push`] for a cell that names its series: continues
    /// the open block when that is `series`', else opens one.
    fn push_cell(&mut self, series: &str, ts: i64, field: &str, value: ColumnValue) {
        if self.series.last().map(|sb| sb.series.as_str()) != Some(series) {
            self.series(series.to_string(), 0);
        }
        self.push(ts, field, value);
    }

    /// The batch of `rows`, in their order.
    pub fn from_rows(rows: impl IntoIterator<Item = RowRecord>) -> WriteBatch {
        let mut batch = WriteBatch::default();
        for r in rows {
            batch.push_cell(&r.series, r.ts, &r.field, r.value);
        }
        batch
    }

    /// One row per cell: blocks in order, a block's rows in order, a
    /// row's cells in column order — so [`WriteBatch::from_rows`] rebuilds
    /// the same rows from it.
    pub fn into_rows(self) -> Vec<RowRecord> {
        let mut rows = Vec::with_capacity(self.cells);
        for sb in self.series {
            let cells = |c: Column| (c.field, c.rows.into_iter().zip(c.values).peekable());
            let mut columns: Vec<_> = sb.columns.into_iter().map(cells).collect();
            for (row, &ts) in sb.ts.iter().enumerate() {
                for (field, cells) in &mut columns {
                    if let Some((_, value)) = cells.next_if(|(at, _)| *at as usize == row) {
                        rows.push(RowRecord {
                            series: sb.series.clone(),
                            field: field.clone(),
                            ts,
                            value,
                        });
                    }
                }
            }
        }
        rows
    }

    /// Cells held.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// The batch as one WAL frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 10 * self.cells);
        out.extend_from_slice(&[0, FRAME_VERSION]);
        put_uvarint(&mut out, self.series.len() as u64);
        for sb in &self.series {
            put_bytes(&mut out, sb.series.as_bytes());
            put_uvarint(&mut out, sb.ts.len() as u64);
            let mut prev = 0i64;
            for &ts in &sb.ts {
                put_ivarint(&mut out, ts.wrapping_sub(prev));
                prev = ts;
            }
            put_uvarint(&mut out, sb.columns.len() as u64);
            for col in &sb.columns {
                put_bytes(&mut out, col.field.as_bytes());
                out.push(col.values[0].type_tag());
                put_uvarint(&mut out, col.values.len() as u64);
                if col.values.len() < sb.ts.len() {
                    let mut next = 0u32;
                    for &row in &col.rows {
                        put_uvarint(&mut out, u64::from(row - next));
                        next = row + 1;
                    }
                }
                for v in &col.values {
                    put_value(&mut out, v);
                }
            }
        }
        out
    }

    /// Decode a WAL frame payload. Anything [`WriteBatch::encode`]
    /// cannot have produced is [`StoreError::Decode`].
    pub fn decode(data: &[u8]) -> StoreResult<WriteBatch> {
        let mut pos = 0usize;
        match (get_byte(data, &mut pos)?, get_byte(data, &mut pos)?) {
            (0, FRAME_VERSION) => {}
            (a, b) => {
                return Err(StoreError::Decode(format!(
                    "wal frame opens {a:#04x} {b:#04x}"
                )))
            }
        }
        let mut batch = WriteBatch::default();
        for _ in 0..get_count(data, &mut pos)? {
            let series = get_str(data, &mut pos)?.to_string();
            let rows = get_count(data, &mut pos)?;
            if u32::try_from(rows).is_err() {
                return Err(StoreError::Decode(format!("wal block of {rows} rows")));
            }
            let mut ts = Vec::with_capacity(rows);
            let mut prev = 0i64;
            for _ in 0..rows {
                prev = prev.wrapping_add(get_ivarint(data, &mut pos)?);
                ts.push(prev);
            }
            let mut columns = Vec::new();
            for _ in 0..get_count(data, &mut pos)? {
                let field = get_str(data, &mut pos)?.to_string();
                let tag = get_byte(data, &mut pos)?;
                let n = get_count(data, &mut pos)?;
                if n == 0 || n > rows {
                    return Err(StoreError::Decode(format!(
                        "wal column of {n} cells in {rows} rows"
                    )));
                }
                let mut at: Vec<u32> = (0..n as u32).collect();
                if n < rows {
                    let mut next = 0u64;
                    for at in &mut at {
                        let row = next.saturating_add(get_uvarint(data, &mut pos)?);
                        if row >= rows as u64 {
                            return Err(StoreError::Decode("wal row index out of range".into()));
                        }
                        (*at, next) = (row as u32, row + 1);
                    }
                }
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(get_value(tag, data, &mut pos)?);
                }
                columns.push(Column {
                    field,
                    rows: at,
                    values,
                });
                batch.cells += n;
            }
            batch.series.push(SeriesBlock {
                series,
                ts,
                columns,
            });
        }
        if pos != data.len() {
            return Err(StoreError::Decode("wal frame has trailing bytes".into()));
        }
        Ok(batch)
    }
}

/// One `(series, field)`'s acknowledged cells: timestamps beside values,
/// in write order until [`Memtable::sorted`] orders them.
type Cells = (Vec<i64>, Vec<ColumnValue>);

/// Acknowledged cells awaiting a flush, as one column pair per
/// `(series, field)` however many commits brought them.
#[derive(Debug, Default)]
pub(crate) struct Memtable {
    series: BTreeMap<String, BTreeMap<String, Cells>>,
    cells: usize,
}

impl Memtable {
    /// Append `batch`'s cells, newer than everything held.
    pub(crate) fn absorb(&mut self, batch: WriteBatch) {
        self.cells += batch.cells;
        for sb in batch.series {
            let fields = self.series.entry(sb.series).or_default();
            for col in sb.columns {
                let stamps = col.rows.iter().map(|&r| sb.ts[r as usize]);
                match fields.entry(col.field) {
                    Entry::Vacant(new) => drop(new.insert((stamps.collect(), col.values))),
                    Entry::Occupied(held) => {
                        let (ts, values) = held.into_mut();
                        ts.extend(stamps);
                        values.extend(col.values);
                    }
                }
            }
        }
    }

    /// Cells held, rewrites of one cell counted each.
    pub(crate) fn cells(&self) -> usize {
        self.cells
    }

    /// Every pair in ascending `(series, field)` order, its timestamps
    /// ascending. A pair that is not already is stable-sorted in place,
    /// so writes of one timestamp keep their order and the last still wins.
    fn sorted(&mut self) -> impl Iterator<Item = (&String, &String, &Cells)> {
        self.series.iter_mut().flat_map(|(series, fields)| {
            fields.iter_mut().map(move |(field, cells)| {
                let (ts, values) = &mut *cells;
                if !ts.is_sorted() {
                    let mut order: Vec<usize> = (0..ts.len()).collect();
                    order.sort_by_key(|&i| ts[i]);
                    *ts = order.iter().map(|&i| ts[i]).collect();
                    let moved = |&i: &usize| std::mem::replace(&mut values[i], ColumnValue::I64(0));
                    *values = order.iter().map(moved).collect();
                }
                (series, field, &*cells)
            })
        })
    }

    /// The merge kernel's newest layer: one block per pair, copied out.
    pub(crate) fn blocks(&mut self) -> Vec<Block> {
        let block = |(series, field, (ts, values)): (&String, &String, &Cells)| Block {
            series: series.clone(),
            field: field.clone(),
            ts: ts.clone(),
            values: values.clone(),
        };
        self.sorted().map(block).collect()
    }

    /// Distinct `(series, field, timestamp)` cells held.
    pub(crate) fn distinct_cells(&mut self) -> usize {
        let distinct = |ts: &[i64]| 1 + ts.windows(2).filter(|w| w[0] != w[1]).count();
        self.sorted().map(|(_, _, (ts, _))| distinct(ts)).sum()
    }

    /// Everything held as one batch, each pair's cells in held order.
    pub(crate) fn to_batch(&self) -> WriteBatch {
        let mut batch = WriteBatch::default();
        for (series, fields) in &self.series {
            batch.series(series.clone(), 0);
            for (field, (ts, values)) in fields {
                for (ts, value) in ts.iter().zip(values) {
                    batch.push(*ts, field, value.clone());
                }
            }
        }
        batch
    }

    /// Drop every cell older than `cutoff`.
    pub(crate) fn drop_before(&mut self, cutoff: i64) {
        let mut left = 0;
        self.series.retain(|_, fields| {
            fields.retain(|_, (ts, values)| {
                let mut stamps = ts.iter();
                values.retain(|_| stamps.next().is_some_and(|&t| t >= cutoff));
                ts.retain(|&t| t >= cutoff);
                left += ts.len();
                !ts.is_empty()
            });
            !fields.is_empty()
        });
        self.cells = left;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(series: &str, field: &str, ts: i64, value: ColumnValue) -> RowRecord {
        RowRecord::new(series, field, ts, value)
    }

    /// A point of series "s": `fields` in name order at `ts`.
    fn point(batch: &mut WriteBatch, ts: i64, fields: &[(&str, ColumnValue)]) {
        for (field, value) in fields {
            batch.push(ts, field, value.clone());
        }
    }

    #[test]
    fn points_share_their_timestamps_and_dense_columns_list_no_rows() {
        let mut batch = WriteBatch::default();
        batch.series("s".into(), 0);
        let f = ColumnValue::F64;
        point(&mut batch, 10, &[("a", f(1.0)), ("b", f(2.0))]);
        point(&mut batch, 5, &[("a", f(3.0)), ("b", f(4.0))]);
        point(&mut batch, 5, &[("a", f(5.0)), ("b", f(6.0))]);
        let sb = &batch.series[0];
        assert_eq!(sb.ts, vec![10, 5, 5]);
        assert_eq!(sb.columns.len(), 2);
        assert!(sb.columns.iter().all(|c| c.rows == [0, 1, 2]));
        // 2 + 1 | "s" 2 | rows 1 + 3 ts | columns 1 | 2 × (name 2 + type 1 + n 1 + 24)
        assert_eq!(batch.encode().len(), 3 + 2 + 4 + 1 + 2 * 28);
        // The row adapters rebuild the points, not one row per cell.
        let frame = batch.encode();
        assert_eq!(
            WriteBatch::from_rows(batch.clone().into_rows()).encode(),
            frame
        );
        let rows = batch.into_rows();
        let a: Vec<_> = rows.iter().filter(|r| r.field == "a").collect();
        assert_eq!(
            a.iter().map(|r| (r.ts, &r.value)).collect::<Vec<_>>(),
            vec![(10, &f(1.0)), (5, &f(3.0)), (5, &f(5.0))]
        );
    }

    #[test]
    fn sparse_fields_and_type_changes_keep_arrival_order() {
        let mut batch = WriteBatch::default();
        batch.series("s".into(), 0);
        let (f, i) = (ColumnValue::F64, ColumnValue::I64);
        point(&mut batch, 1, &[("a", f(1.0)), ("c", f(1.5))]);
        point(&mut batch, 2, &[("b", ColumnValue::Bool(true))]);
        point(&mut batch, 1, &[("a", i(7)), ("c", f(2.5))]);
        point(&mut batch, 1, &[("a", f(9.0))]);
        let names: Vec<&str> = batch.series[0]
            .columns
            .iter()
            .map(|c| c.field.as_str())
            .collect();
        assert_eq!(names, ["a", "c", "b", "a", "a"]);
        let back = WriteBatch::decode(&batch.encode()).unwrap();
        assert_eq!(back.cells(), 6);
        assert_eq!(back.encode(), batch.encode());
        let a: Vec<_> = back
            .into_rows()
            .into_iter()
            .filter(|r| r.field == "a")
            .collect();
        assert_eq!(
            a.iter()
                .map(|r| (r.ts, r.value.clone()))
                .collect::<Vec<_>>(),
            vec![(1, f(1.0)), (1, i(7)), (1, f(9.0))]
        );
    }

    #[test]
    fn all_types_roundtrip_bit_exact() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let rows = vec![
            cell("s", "f", 1, ColumnValue::F64(nan)),
            cell("s", "f", 2, ColumnValue::F64(-0.0)),
            cell("s", "i", i64::MIN, ColumnValue::I64(i64::MAX)),
            cell("t", "b", i64::MAX, ColumnValue::Bool(true)),
            cell("t", "s", 0, ColumnValue::Str("τ,=\"".into())),
            cell("t", "s", 0, ColumnValue::Str(String::new())),
        ];
        let back = WriteBatch::decode(&WriteBatch::from_rows(rows.clone()).encode()).unwrap();
        let back = back.into_rows();
        assert_eq!(back.len(), rows.len());
        for (got, want) in back.iter().zip(&rows) {
            assert_eq!(
                (&got.series, &got.field, got.ts),
                (&want.series, &want.field, want.ts)
            );
            match (&got.value, &want.value) {
                (ColumnValue::F64(g), ColumnValue::F64(w)) => assert_eq!(g.to_bits(), w.to_bits()),
                (g, w) => assert_eq!(g, w),
            }
        }
    }

    #[test]
    fn a_one_point_frame_is_no_larger_than_version_1() {
        // v1: count, then per cell both keys, the timestamp, a tag, a value.
        let (series, ts, fields) = ("kernel.all.load,host=skx", 1_700_000_000_000_i64, 2usize);
        let name = |i: usize| format!("_cpu{i}");
        let mut batch = WriteBatch::default();
        batch.series(series.into(), 1);
        for i in 0..fields {
            batch.push(ts, &name(i), ColumnValue::F64(i as f64));
        }
        let v1: usize = (0..fields)
            .map(|i| (1 + series.len()) + (1 + name(i).len()) + 6 + 1 + 8)
            .sum();
        assert!(
            batch.encode().len() <= 1 + v1,
            "{} > {}",
            batch.encode().len(),
            1 + v1
        );
    }

    #[test]
    fn damaged_frames_are_decode_errors() {
        let good = WriteBatch::from_rows([
            cell("s", "a", 1, ColumnValue::F64(1.0)),
            cell("s", "b", 1, ColumnValue::I64(2)),
            cell("s", "a", 2, ColumnValue::F64(3.0)),
        ])
        .encode();
        assert!(WriteBatch::decode(&good).is_ok());
        for cut in 0..good.len() {
            assert!(
                matches!(WriteBatch::decode(&good[..cut]), Err(StoreError::Decode(_))),
                "prefix {cut}"
            );
        }
        let mut long = good.clone();
        long.push(0);
        assert!(matches!(
            WriteBatch::decode(&long),
            Err(StoreError::Decode(_))
        ));
        // A version this build does not know, and counts no frame can hold.
        assert!(matches!(
            WriteBatch::decode(&[0, 3, 0]),
            Err(StoreError::Decode(_))
        ));
        let absurd = [0, FRAME_VERSION, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        assert!(matches!(
            WriteBatch::decode(&absurd),
            Err(StoreError::Decode(_))
        ));
    }

    #[test]
    fn memtable_holds_one_pair_per_key_and_sorts_stably() {
        let mut m = Memtable::default();
        for (ts, v) in [(5, 1.0), (1, 2.0), (5, 3.0), (3, 4.0)] {
            m.absorb(WriteBatch::from_rows([cell(
                "s",
                "f",
                ts,
                ColumnValue::F64(v),
            )]));
        }
        m.absorb(WriteBatch::from_rows([cell(
            "a",
            "z",
            9,
            ColumnValue::Bool(true),
        )]));
        assert_eq!((m.cells(), m.distinct_cells()), (5, 4));
        let blocks = m.blocks();
        assert_eq!(blocks.len(), 2);
        assert_eq!(
            (blocks[0].series.as_str(), blocks[1].series.as_str()),
            ("a", "s")
        );
        assert_eq!(blocks[1].ts, vec![1, 3, 5, 5]);
        let f = ColumnValue::F64;
        assert_eq!(blocks[1].values, vec![f(2.0), f(4.0), f(1.0), f(3.0)]);
        // The log rewritten from the memtable replays to the same pairs.
        let mut again = Memtable::default();
        again.absorb(WriteBatch::decode(&m.to_batch().encode()).unwrap());
        assert_eq!(again.blocks(), blocks);
        m.drop_before(4);
        assert_eq!(m.cells(), 3);
        assert_eq!(m.blocks()[1].ts, vec![5, 5]);
        m.drop_before(100);
        assert_eq!((m.cells(), m.blocks().len()), (0, 0));
    }
}
