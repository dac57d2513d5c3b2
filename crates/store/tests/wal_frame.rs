//! WAL frame (version 2) property suite.
//!
//! A frame is what a commit acknowledges, so the codec is held to two
//! properties. Whatever batch the write path can build — sparse field
//! sets, a field changing type mid-batch, rewrites of one cell, NaN
//! payloads and signed zeros — decodes to the same cells in the same
//! per-cell order, bit for bit, and re-encodes to the same bytes. And
//! whatever bytes a damaged log can hold — a frame cut short, bits
//! flipped, counts no frame can hold, noise behind a valid header —
//! decodes to a batch or to [`StoreError::Decode`]: no panic, no
//! allocation sized by a damaged count.
//!
//! `PMOVE_FRAME_CASES` overrides the case count (default 256).

use pmove_store::{ColumnValue, RowRecord, StoreError, WriteBatch};
use proptest::prelude::*;

fn frame_cases() -> u32 {
    std::env::var("PMOVE_FRAME_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

const SERIES: [&str; 3] = ["cpu,host=skx", "cpu,host=knl", "mem,host=τ"];
const FIELDS: [&str; 4] = ["_cpu0", "_cpu1", "free", "note"];

fn value_of(code: u64) -> ColumnValue {
    match code % 10 {
        0 => ColumnValue::F64(f64::from_bits(0x7FF8_0000_0000_0000 | code)),
        1 => ColumnValue::F64(-0.0),
        2..=4 => ColumnValue::F64(code as f64 / 8.0),
        5 => ColumnValue::I64(i64::MIN + code as i64),
        6 => ColumnValue::I64(code as i64 - 50),
        7 => ColumnValue::Bool(code % 20 == 7),
        8 => ColumnValue::Str(String::new()),
        _ => ColumnValue::Str(format!("τ{code}")),
    }
}

/// A cell as compared: `ColumnValue`'s `==` loses NaNs and zeros' signs.
fn bits(r: &RowRecord) -> (&str, &str, i64, u8, u64, &str) {
    let (tag, word, text) = match &r.value {
        ColumnValue::F64(x) => (0, x.to_bits(), ""),
        ColumnValue::I64(x) => (1, *x as u64, ""),
        ColumnValue::Bool(x) => (2, *x as u64, ""),
        ColumnValue::Str(x) => (3, 0, x.as_str()),
    };
    (&r.series, &r.field, r.ts, tag, word, text)
}

/// The cells of each (series, field) in batch order — all the order a
/// frame promises to keep.
fn per_cell_order(rows: &[RowRecord]) -> Vec<(&str, &str, i64, u8, u64, &str)> {
    let mut cells: Vec<_> = rows.iter().map(bits).collect();
    cells.sort_by_key(|c| (c.0, c.1));
    cells
}

/// `(series, field, timestamp, value code)` picks, few enough of each
/// that cells collide, share rows and change type.
fn batch_of(picks: &[(usize, usize, i64, u64)]) -> (Vec<RowRecord>, WriteBatch) {
    let row = |&(s, f, ts, code): &(usize, usize, i64, u64)| {
        let ts = if code % 31 == 0 {
            i64::MAX - ts
        } else {
            ts * 1_000_000_007
        };
        RowRecord::new(SERIES[s], FIELDS[f], ts, value_of(code))
    };
    let rows: Vec<RowRecord> = picks.iter().map(row).collect();
    let batch = WriteBatch::from_rows(rows.iter().cloned());
    (rows, batch)
}

fn decodes_or_refuses(data: &[u8]) {
    match WriteBatch::decode(data) {
        Ok(batch) => assert!(batch.cells() <= data.len(), "a cell takes at least a byte"),
        Err(StoreError::Decode(_)) => {}
        Err(other) => panic!("{other:?} from {data:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(frame_cases()))]

    #[test]
    fn frames_roundtrip_bit_exact_in_per_cell_order(
        picks in prop::collection::vec((0usize..3, 0usize..4, 0i64..5, 0u64..400), 1..48),
    ) {
        let (rows, batch) = batch_of(&picks);
        let frame = batch.encode();
        prop_assert_eq!(frame[..2].to_vec(), vec![0u8, 2]);
        let back = WriteBatch::decode(&frame).unwrap();
        prop_assert_eq!(back.cells(), rows.len());
        prop_assert_eq!(back.encode(), frame);
        let back = back.into_rows();
        prop_assert_eq!(per_cell_order(&back), per_cell_order(&rows));
    }

    #[test]
    fn damaged_frames_decode_or_are_refused(
        picks in prop::collection::vec((0usize..3, 0usize..4, 0i64..5, 0u64..400), 1..24),
        cut in any::<u32>(),
        flips in prop::collection::vec((any::<u32>(), 0u8..8), 1..4),
        absurd_at in any::<u32>(),
        noise in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let frame = batch_of(&picks).1.encode();
        // Cut short: never a batch, the frame's length is part of it.
        let cut = cut as usize % frame.len();
        prop_assert!(matches!(WriteBatch::decode(&frame[..cut]), Err(StoreError::Decode(_))));
        let mut flipped = frame.clone();
        for (at, bit) in flips {
            flipped[at as usize % frame.len()] ^= 1 << bit;
        }
        decodes_or_refuses(&flipped);
        // A count of 2^63 spliced in where some byte was.
        let at = 2 + absurd_at as usize % (frame.len() - 2);
        let mut absurd = frame[..at].to_vec();
        absurd.extend_from_slice(&[0xFF; 8]);
        absurd.extend_from_slice(&[0x7F]);
        absurd.extend_from_slice(&frame[at + 1..]);
        decodes_or_refuses(&absurd);
        let mut behind_header = vec![0u8, 2];
        behind_header.extend_from_slice(&noise);
        decodes_or_refuses(&behind_header);
        decodes_or_refuses(&noise);
    }
}
