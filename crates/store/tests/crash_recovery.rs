//! Crash-recovery property suite.
//!
//! For any seeded fault schedule — clean stop, torn tail, or durable bit
//! flip, fired at any write/sync/truncate operation — reopening the
//! store must recover *exactly* the last-write-wins view of some prefix
//! of the offered batches: no panic, no phantom points, no partial
//! batch. When the fault does not corrupt durable data (every mode but
//! `BitFlip`), the prefix must cover at least every acknowledged batch.
//!
//! The same file pins the durable format: a differential suite holds
//! every chunk file, compaction report and scan of the block path — WAL
//! frame, memtable, crash replay and the block-merge kernel — to a
//! per-cell `BTreeMap` oracle (the builder the kernel replaced) — with
//! half its schedules append-only, so compaction splices encoded columns
//! — a codec property holds the word-wide bit I/O, fresh or resumed at any
//! bit, to a bit-at-a-time reference, a forged non-canonical chunk
//! compacts to what re-encoding writes, and one golden pins a compacted
//! chunk's length and CRC. One fixed workload pins what the format buys:
//! a chunk at most half its raw rows, cheaper to recover than its WAL.
//!
//! The case count defaults to 256 and is raised in CI via the
//! `PMOVE_CRASH_CASES` environment variable (the `persistence` job runs
//! at an elevated count).

use pmove_obs::Registry;
use pmove_store::crc::crc32;
use pmove_store::encode::{
    decode_f64, decode_values, encode_f64, encode_timestamps, encode_values, put_ivarint,
    put_uvarint, BitReader, BitWriter,
};
use pmove_store::{
    chunk_name, ColumnValue, CompactionReport, FaultMode, FaultPlan, MemDisk, RowRecord, StoreObs,
    StoreOptions, TsStore, Vfs,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const DEFAULT_CASES: u64 = 256;

fn case_count() -> u64 {
    std::env::var("PMOVE_CRASH_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CASES)
}

/// SplitMix64 stream for workload/fault derivation (independent of the
/// MemDisk's internal RNG).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const SERIES: &[&str] = &["cpu,host=skx", "cpu,host=knl", "mem,host=skx"];
const FIELDS: &[&str] = &["_cpu0", "_cpu1", "usage"];

fn gen_batch(rng: &mut Rng, batch_idx: usize) -> Vec<RowRecord> {
    let rows = 1 + rng.below(8) as usize;
    (0..rows)
        .map(|_| {
            let series = SERIES[rng.below(SERIES.len() as u64) as usize];
            let field = FIELDS[rng.below(FIELDS.len() as u64) as usize];
            // Timestamps overlap across batches so last-write-wins is
            // genuinely exercised, including cross-type rewrites.
            let ts = (batch_idx as i64 / 2) * 1_000 + rng.below(500) as i64;
            let value = match rng.below(4) {
                0 => ColumnValue::F64(rng.below(1_000_000) as f64 / 1e3),
                1 => ColumnValue::I64(rng.below(1_000_000) as i64 - 500_000),
                2 => ColumnValue::Bool(rng.below(2) == 1),
                _ => ColumnValue::Str(format!("v{}", rng.below(100))),
            };
            RowRecord::new(series, field, ts, value)
        })
        .collect()
}

type View = Vec<RowRecord>;

/// Materialize the last-write-wins view of `batches[..j]`, ordered the
/// way [`TsStore::scan`] orders rows.
fn view_of_prefix(batches: &[Vec<RowRecord>], j: usize) -> View {
    let mut cells: BTreeMap<(String, String, i64), ColumnValue> = BTreeMap::new();
    for batch in &batches[..j] {
        for r in batch {
            cells.insert((r.series.clone(), r.field.clone(), r.ts), r.value.clone());
        }
    }
    cells
        .into_iter()
        .map(|((series, field, ts), value)| RowRecord {
            series,
            field,
            ts,
            value,
        })
        .collect()
}

struct CaseOutcome {
    /// Batches whose commit returned `Ok`.
    acked: usize,
    /// Rows visible after restart + reopen.
    recovered: View,
    /// Fault mode exercised (`None` when the plan never fired).
    fired: Option<FaultMode>,
    /// Full durable file map after recovery (determinism check).
    disk_state: Vec<(String, Vec<u8>)>,
}

/// Run one seeded case end to end: workload → (maybe) crash → restart →
/// reopen → scan.
fn run_case(seed: u64, batches: &[Vec<RowRecord>], plan: Option<FaultPlan>) -> CaseOutcome {
    let mut rng = Rng(seed ^ 0x5851_F42D_4C95_7F2D);
    let disk = MemDisk::new(seed);
    let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
    let opts = StoreOptions {
        flush_threshold_rows: 1 + rng.below(12) as usize,
        compact_min_chunks: 2 + rng.below(3) as usize,
    };
    let mode = plan.map(|p| p.mode);
    if let Some(p) = plan {
        disk.schedule_fault(p);
    }
    let (mut store, _) = TsStore::open(vfs.clone(), opts).expect("fresh open cannot fail");
    let mut acked = 0usize;
    for batch in batches {
        store.append_owned(batch.to_vec());
        match store.commit() {
            Ok(_) => acked += 1,
            Err(_) => break,
        }
    }
    if !disk.crashed() && rng.below(2) == 1 {
        let _ = store.flush();
    }
    drop(store);
    let fired = if disk.crashed() { mode } else { None };
    disk.restart();
    // The property: reopening after any crash must not panic.
    let (mut store, _report) = TsStore::open(vfs, opts)
        .unwrap_or_else(|e| panic!("seed {seed}: reopen failed after recovery: {e}"));
    let recovered = store
        .scan()
        .unwrap_or_else(|e| panic!("seed {seed}: scan failed after recovery: {e}"));
    let disk_state = disk
        .list()
        .unwrap()
        .into_iter()
        .map(|n| {
            let d = disk.read(&n).unwrap();
            (n, d)
        })
        .collect();
    CaseOutcome {
        acked,
        recovered,
        fired,
        disk_state,
    }
}

#[test]
fn recovery_is_a_prefix_of_acknowledged_writes() {
    let cases = case_count();
    let mut fired_counts = [0u64; 3];
    let mut clean_runs = 0u64;
    for case in 0..cases {
        let seed = 0xC0FFEE ^ (case.wrapping_mul(0x9E37_79B9));
        let mut rng = Rng(seed);
        let n_batches = 4 + rng.below(24) as usize;
        let batches: Vec<Vec<RowRecord>> = (0..n_batches).map(|i| gen_batch(&mut rng, i)).collect();
        let plan = match rng.below(4) {
            0 => None,
            m => Some(FaultPlan {
                crash_at_op: 1 + rng.below(70),
                mode: match m {
                    1 => FaultMode::CleanStop,
                    2 => FaultMode::TornTail,
                    _ => FaultMode::BitFlip,
                },
            }),
        };
        let out = run_case(seed, &batches, plan);
        match out.fired {
            Some(FaultMode::CleanStop) => fired_counts[0] += 1,
            Some(FaultMode::TornTail) => fired_counts[1] += 1,
            Some(FaultMode::BitFlip) => fired_counts[2] += 1,
            None => clean_runs += 1,
        }
        // Exactly the LWW view of some batch prefix — scanning all
        // prefixes rules phantom points and partial batches out at once.
        let matched = (0..=n_batches).find(|&j| view_of_prefix(&batches, j) == out.recovered);
        let Some(j) = matched else {
            panic!(
                "seed {seed}: recovered state matches no prefix of the offered batches \
                 (mode {:?}, {} recovered rows, {} acked batches)",
                out.fired,
                out.recovered.len(),
                out.acked
            );
        };
        match out.fired {
            // Durable data untouched: every acknowledged batch survives.
            Some(FaultMode::CleanStop) | Some(FaultMode::TornTail) => assert!(
                j >= out.acked,
                "seed {seed}: lost acknowledged batches: recovered prefix {j} < acked {}",
                out.acked
            ),
            // A bit flip may destroy durable frames/chunks, but the
            // result must still be an exact prefix (asserted above).
            Some(FaultMode::BitFlip) => {}
            // No crash: everything offered was committed and must be
            // fully visible.
            None => assert_eq!(
                j, n_batches,
                "seed {seed}: clean run lost batches ({j}/{n_batches})"
            ),
        }
    }
    // The schedule space must actually exercise every mode; a property
    // suite that never crashes proves nothing.
    assert!(clean_runs > 0, "no clean runs in {cases} cases");
    for (i, c) in fired_counts.iter().enumerate() {
        assert!(*c > 0, "fault mode #{i} never fired across {cases} cases");
    }
}

#[test]
fn same_seed_cases_produce_byte_identical_disks() {
    // A subsample of the space is enough: each comparison replays the
    // entire workload + fault schedule + recovery twice.
    let cases = (case_count() / 8).max(8);
    for case in 0..cases {
        let seed = 0xDEAD_BEEF ^ (case.wrapping_mul(0x9E37_79B9));
        let mut rng = Rng(seed);
        let n_batches = 4 + rng.below(16) as usize;
        let batches: Vec<Vec<RowRecord>> = (0..n_batches).map(|i| gen_batch(&mut rng, i)).collect();
        let plan = Some(FaultPlan {
            crash_at_op: 1 + rng.below(50),
            mode: [
                FaultMode::CleanStop,
                FaultMode::TornTail,
                FaultMode::BitFlip,
            ][(case % 3) as usize],
        });
        let a = run_case(seed, &batches, plan);
        let b = run_case(seed, &batches, plan);
        assert_eq!(
            a.disk_state, b.disk_state,
            "seed {seed}: same-seed runs diverged on disk"
        );
        assert_eq!(a.recovered, b.recovered);
        assert_eq!(a.acked, b.acked);
    }
}

#[test]
fn recovered_store_accepts_new_writes() {
    // After any crash the store must remain writable: recover, append a
    // sentinel batch, commit, reopen again, and find it.
    for case in 0..32u64 {
        let seed = 0xFACE ^ case;
        let mut rng = Rng(seed);
        let batches: Vec<Vec<RowRecord>> = (0..8).map(|i| gen_batch(&mut rng, i)).collect();
        let mode = [
            FaultMode::CleanStop,
            FaultMode::TornTail,
            FaultMode::BitFlip,
        ][(case % 3) as usize];
        let plan = FaultPlan {
            crash_at_op: 1 + rng.below(30),
            mode,
        };
        let disk = MemDisk::new(seed);
        let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
        disk.schedule_fault(plan);
        let opts = StoreOptions {
            flush_threshold_rows: 4,
            compact_min_chunks: 2,
        };
        let (mut store, _) = TsStore::open(vfs.clone(), opts).unwrap();
        for batch in &batches {
            store.append_owned(batch.to_vec());
            if store.commit().is_err() {
                break;
            }
        }
        drop(store);
        disk.restart();
        let (mut store, _) = TsStore::open(vfs.clone(), opts).unwrap();
        let sentinel = RowRecord::new("post,host=x", "alive", 9_999_999, ColumnValue::Bool(true));
        store.append_owned(vec![sentinel.clone()]);
        store.commit().unwrap();
        drop(store);
        let (mut store, _) = TsStore::open(vfs, opts).unwrap();
        assert!(
            store.scan().unwrap().contains(&sentinel),
            "seed {seed}: post-recovery write lost"
        );
    }
}

/// The durable format pays for itself on a perfevent-shaped workload (4
/// metrics x 16 per-CPU counter fields at 4 Hz for 80 s, one commit per
/// report): the flushed chunk is at most half its raw row footprint and
/// smaller than the WAL it replaces, and reopening from it is modeled
/// cheaper than replaying that WAL.
#[test]
fn chunks_halve_raw_rows_and_recover_cheaper_than_wal_replay() {
    let disk = MemDisk::new(0xC0FFEE);
    let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
    let manual = StoreOptions {
        flush_threshold_rows: usize::MAX,
        compact_min_chunks: usize::MAX,
    };
    let (mut store, _) = TsStore::open(vfs.clone(), manual).unwrap();
    let mut rng = Rng(0xC0FFEE);
    for tick in 0..320i64 {
        for m in 0..4 {
            let series = format!("perfevent_hwcounters_m{m},tag=icl");
            let value = |rng: &mut Rng| ColumnValue::F64(rng.below(1_000_000) as f64);
            let ts = tick * 250_000_000 + m;
            store.append_owned(
                (0..16)
                    .map(|cpu| RowRecord::new(&series, format!("_cpu{cpu}"), ts, value(&mut rng)))
                    .collect(),
            );
            store.commit().unwrap();
        }
    }
    drop(store);
    let wal_bytes = disk.durable_bytes();
    disk.restart();
    let (mut store, from_wal) = TsStore::open(vfs.clone(), manual).unwrap();
    let chunk = store.flush().unwrap().expect("the WAL replayed rows");
    drop(store);
    disk.restart();
    let (_, from_chunk) = TsStore::open(vfs, manual).unwrap();

    assert_eq!(from_wal.wal_rows, 320 * 4 * 16);
    assert_eq!((chunk.rows + chunk.rows_deduped) as u64, from_wal.wal_rows);
    assert_eq!((from_wal.chunks_loaded, from_chunk.chunks_loaded), (0, 1));
    assert_eq!(from_chunk.wal_rows, 0);
    assert!(2 * chunk.bytes <= chunk.raw_bytes, "{chunk:?}");
    assert!(
        chunk.bytes < wal_bytes,
        "{chunk:?} vs {wal_bytes} WAL bytes"
    );
    assert!(
        from_chunk.modeled_ns < from_wal.modeled_ns,
        "chunk load {from_chunk:?} vs WAL replay {from_wal:?}"
    );
}

#[test]
fn bit_flip_inside_wal_record_truncates_at_corrupt_frame() {
    // A durable bit flip inside an acknowledged, CRC-framed WAL record is
    // not a torn tail: every byte of the frame is present, the checksum
    // just no longer matches. Recovery must truncate the log at that
    // frame (keeping the prefix before it), count it in the
    // `store.wal.corrupt_frames` metric, and never replay garbage.
    //
    // The MemDisk places the flip at a seeded pseudo-random offset, so a
    // small seed sweep covers both landings: inside an acked frame (the
    // corrupt-frame signature under test) and inside the torn tail of
    // the in-flight commit (plain truncation, not corruption).
    let opts = StoreOptions {
        // Keep every batch in the WAL — no flushes, no chunks.
        flush_threshold_rows: 1 << 20,
        compact_min_chunks: 1 << 10,
    };
    let mut corrupt_cases = 0u64;
    for seed in 0..64u64 {
        let disk = MemDisk::new(seed);
        let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
        let mut rng = Rng(seed ^ 0xB17_F11B);
        let batches: Vec<Vec<RowRecord>> = (0..6).map(|i| gen_batch(&mut rng, i)).collect();
        let (mut store, _) = TsStore::open(vfs.clone(), opts).unwrap();
        for batch in &batches {
            store.append_owned(batch.to_vec());
            store.commit().expect("no fault scheduled yet");
        }
        // Flip a durable bit while one more commit is in flight.
        disk.schedule_fault(FaultPlan {
            crash_at_op: disk.ops_done() + 2,
            mode: FaultMode::BitFlip,
        });
        store.append_owned(gen_batch(&mut rng, 6));
        assert!(store.commit().is_err(), "seed {seed}: fault did not fire");
        drop(store);
        disk.restart();

        let registry = Registry::new();
        let obs = StoreObs::new(&registry, "walcrash");
        let (mut store, report) = TsStore::open_with_obs(vfs.clone(), opts, obs)
            .unwrap_or_else(|e| panic!("seed {seed}: recovery panicked on corruption: {e}"));
        let recovered = store.scan().unwrap();
        let metric = registry
            .snapshot()
            .counter("store.wal.corrupt_frames", &[("db", "walcrash")]);
        assert_eq!(
            metric,
            Some(report.wal_corrupt_frames),
            "seed {seed}: metric disagrees with the recovery report"
        );
        // Whatever survived must be the LWW view of an exact batch
        // prefix — one batch per WAL frame, so frame truncation is batch
        // truncation.
        let j = (0..=batches.len())
            .find(|&j| view_of_prefix(&batches, j) == recovered)
            .unwrap_or_else(|| panic!("seed {seed}: recovered rows match no batch prefix"));
        if report.wal_corrupt_frames > 0 {
            corrupt_cases += 1;
            assert_eq!(
                report.wal_corrupt_frames, 1,
                "seed {seed}: replay stops at the first corrupt frame"
            );
            assert!(
                report.wal_bytes_dropped > 0,
                "seed {seed}: corrupt frame counted but nothing dropped"
            );
            assert!(
                j < batches.len(),
                "seed {seed}: corrupt frame counted but every acked batch survived"
            );
        }
        // Recovery rewrote the log to the valid prefix: a second open is
        // clean, byte-identical, and the store accepts new writes.
        store.append_owned(vec![RowRecord::new(
            "post,host=x",
            "alive",
            9_999_999,
            ColumnValue::Bool(true),
        )]);
        store.commit().unwrap();
        drop(store);
        let (mut store, report2) = TsStore::open(vfs, opts).unwrap();
        assert_eq!(
            report2.wal_corrupt_frames, 0,
            "seed {seed}: corruption survived recovery"
        );
        assert_eq!(report2.wal_bytes_dropped, 0);
        assert_eq!(store.scan().unwrap().len(), recovered.len() + 1);
    }
    assert!(
        corrupt_cases > 0,
        "seed sweep never landed a flip inside an acked frame"
    );
}

// ------------------------------------------------ differential + format

type Cells = BTreeMap<(String, String, i64), ColumnValue>;

/// Last-write-wins cells of `rows` (in write order) over `cells`.
fn lww_into(cells: &mut Cells, rows: &[RowRecord]) {
    for r in rows {
        cells.insert((r.series.clone(), r.field.clone(), r.ts), r.value.clone());
    }
}

/// The oracle chunk builder: the per-cell `BTreeMap` grouping the block
/// kernel replaced, kept here as the reference for the file format.
fn oracle_chunk(seq: u64, cells: &Cells) -> Vec<u8> {
    let mut groups: BTreeMap<(&str, &str, u8), BTreeMap<i64, &ColumnValue>> = BTreeMap::new();
    for ((series, field, ts), value) in cells {
        groups
            .entry((series, field, value.type_tag()))
            .or_default()
            .insert(*ts, value);
    }
    let mut body = b"PMCHUNK1".to_vec();
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(&(groups.len() as u32).to_le_bytes());
    for ((series, field, tag), column) in &groups {
        let ts: Vec<i64> = column.keys().copied().collect();
        let values: Vec<ColumnValue> = column.values().map(|v| (*v).clone()).collect();
        let (ts_bytes, val_bytes) = (encode_timestamps(&ts), encode_values(*tag, &values));
        put_uvarint(&mut body, series.len() as u64);
        body.extend_from_slice(series.as_bytes());
        put_uvarint(&mut body, field.len() as u64);
        body.extend_from_slice(field.as_bytes());
        body.push(*tag);
        put_uvarint(&mut body, ts.len() as u64);
        put_ivarint(&mut body, ts[0]);
        put_ivarint(&mut body, ts[ts.len() - 1]);
        put_uvarint(&mut body, ts_bytes.len() as u64);
        body.extend_from_slice(&ts_bytes);
        put_uvarint(&mut body, val_bytes.len() as u64);
        body.extend_from_slice(&val_bytes);
    }
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Values chosen to break a sloppy codec or comparison: NaN payloads,
/// signed zeros, extremes, every column type.
fn hostile_value(rng: &mut Rng) -> ColumnValue {
    match rng.below(10) {
        0 => ColumnValue::F64(f64::from_bits(0x7FF8_0000_0000_0000 | rng.below(1 << 20))),
        1 => ColumnValue::F64(-0.0),
        2 => ColumnValue::F64(0.0),
        3 | 4 => ColumnValue::F64(rng.below(1_000) as f64 / 8.0),
        5 => ColumnValue::I64(rng.next() as i64),
        6 => ColumnValue::I64(rng.below(100) as i64 - 50),
        7 => ColumnValue::Bool(rng.below(2) == 1),
        8 => ColumnValue::Str(String::new()),
        _ => ColumnValue::Str(format!("τ{}", rng.below(50))),
    }
}

/// Bit-exact image of a value (`ColumnValue`'s `==` loses NaNs and zeros'
/// signs).
fn bits(v: &ColumnValue) -> (u8, u64, &str) {
    match v {
        ColumnValue::F64(x) => (0, x.to_bits(), ""),
        ColumnValue::I64(x) => (1, *x as u64, ""),
        ColumnValue::Bool(x) => (2, *x as u64, ""),
        ColumnValue::Str(x) => (3, 0, x),
    }
}

/// How a differential case writes.
#[derive(Clone, Copy, PartialEq)]
enum Writes {
    /// Few keys and few timestamps, any type: duplicates within a chunk,
    /// across chunks, and across types.
    Random,
    /// Monitoring: time only moves on and a field keeps its type, so
    /// flushed chunks are time-disjoint and compaction copies every key's
    /// oldest block whole, unless a cutoff reaches it (or this store did
    /// not write it).
    AppendOnly,
    /// Monitoring as fleets deliver it: a field keeps its type, but one
    /// cell in five is stamped up to 30 ticks late and one in ten resends
    /// the key's last stamp with a new value, so a key's newer chunks
    /// reach back into its oldest block and compaction copies only the
    /// prefix before them.
    Late,
}

#[test]
fn block_kernel_matches_the_per_cell_oracle() {
    for case in 0..case_count() {
        let seed = 0xB10C ^ case.wrapping_mul(0x9E37_79B9);
        let writes = match case % 2 {
            1 => Writes::AppendOnly,
            _ => Writes::Random,
        };
        kernel_case(seed, writes);
    }
    let late_cases = case_count() / 2;
    let partial = (0..late_cases)
        .filter(|case| kernel_case(0x1A7E ^ case.wrapping_mul(0x9E37_79B9), Writes::Late))
        .count();
    println!("{partial} of {late_cases} late-arrival cases compacted a partial prefix");
    assert!(
        4 * partial >= late_cases as usize,
        "only {partial} of {late_cases} late-arrival cases took a partial prefix"
    );
}

/// Whether compacting `chunks` under `cutoff` copies a partial prefix of
/// some key: the key's cells are of one type, its oldest chunk is in
/// `own` and starts at or after the cutoff, and the first stamp of its
/// newer chunks falls strictly inside that chunk's stamps.
fn takes_partial_prefix(
    chunks: &BTreeMap<u64, Cells>,
    own: &BTreeSet<u64>,
    cutoff: Option<i64>,
) -> bool {
    type Parts<'a> = Vec<(u64, Vec<(i64, u8)>)>;
    let mut keys: BTreeMap<(&str, &str), Parts<'_>> = BTreeMap::new();
    for (seq, cells) in chunks {
        for ((series, field, ts), value) in cells {
            let parts = keys.entry((series, field)).or_default();
            if parts.last().is_none_or(|p| p.0 != *seq) {
                parts.push((*seq, Vec::new()));
            }
            parts.last_mut().unwrap().1.push((*ts, value.type_tag()));
        }
    }
    keys.values().any(|parts| {
        let (base_seq, base) = &parts[0];
        let tag = base[0].1;
        let one_type = parts.iter().all(|p| p.1.iter().all(|c| c.1 == tag));
        let newer = parts[1..].iter().map(|p| p.1[0].0).min();
        one_type
            && own.contains(base_seq)
            && cutoff.is_none_or(|cut| cut <= base[0].0)
            && newer.is_some_and(|n| base[0].0 < n && n <= base[base.len() - 1].0)
    })
}

/// One differential case: a seeded schedule of commits, flushes,
/// compactions (some under a retention cutoff) and crash/reopen cycles,
/// each step checked against the per-cell model. Returns whether some
/// compaction copied a partial prefix.
fn kernel_case(seed: u64, writes: Writes) -> bool {
    // Thresholds out of reach: the schedule below decides every flush
    // and compaction, so the model needs no trigger logic.
    let opts = StoreOptions {
        flush_threshold_rows: usize::MAX,
        compact_min_chunks: usize::MAX,
    };
    let mut partial = false;
    let mut rng = Rng(seed);
    let append_only = writes != Writes::Random;
    let mut clock = 0i64;
    let disk = MemDisk::new(seed);
    let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
    let spec = vfs.disk_spec();
    let (mut store, _) = TsStore::open(vfs.clone(), opts).unwrap();
    // The model: live chunks as cell maps, the memtable in write order,
    // and what the log holds — every commit since the last flush,
    // which is what a reopen replays.
    let mut chunks: BTreeMap<u64, Cells> = BTreeMap::new();
    let mut memtable: Vec<RowRecord> = Vec::new();
    let mut log: Vec<RowRecord> = Vec::new();
    let mut next_seq = 0u64;
    // Chunks this process wrote since the store was last opened.
    let mut own: BTreeSet<u64> = BTreeSet::new();
    // The key's last stamp, which a resend repeats.
    let mut last_ts: BTreeMap<(usize, usize), i64> = BTreeMap::new();
    // Longer append-only schedules: compaction needs chunks behind it
    // to splice onto.
    for step in 0..(6 + rng.below(30) + if append_only { 24 } else { 0 }) {
        let op = rng.below(10);
        // An append-only cutoff falls in the oldest quarter of time, so
        // it reaches some keys' oldest chunk block and not others'.
        let cut_below = if append_only {
            clock as u64 / 4 + 1
        } else {
            600
        };
        let cutoff = (op == 9).then(|| rng.below(cut_below) as i64);
        if op < 5 {
            let batch: Vec<RowRecord> = (0..1 + rng.below(12))
                .map(|_| {
                    // Few keys and (but in append-only cases) few
                    // timestamps: duplicates within a chunk, across
                    // chunks, and across types.
                    let s = rng.below(SERIES.len() as u64) as usize;
                    let f = rng.below(FIELDS.len() as u64) as usize;
                    let (ts, value) = if append_only {
                        clock += 1 + rng.below(3) as i64;
                        let tag = ((s * FIELDS.len() + f) % 4) as u8;
                        let typed = std::iter::repeat_with(|| hostile_value(&mut rng))
                            .find(|v| v.type_tag() == tag);
                        let mut ts = clock;
                        if writes == Writes::Late {
                            ts = match (rng.below(10), last_ts.get(&(s, f))) {
                                (0 | 1, _) => (clock - 1 - rng.below(30) as i64).max(0),
                                (2, Some(&last)) => last,
                                _ => clock,
                            };
                            last_ts.insert((s, f), ts);
                        }
                        (ts, typed.expect("every type turns up"))
                    } else {
                        (rng.below(40) as i64 * 17, hostile_value(&mut rng))
                    };
                    RowRecord::new(SERIES[s], FIELDS[f], ts, value)
                })
                .collect();
            store.append_owned(batch.clone());
            store.commit().unwrap();
            log.extend(batch.iter().cloned());
            memtable.extend(batch);
        } else if op == 5 {
            // Crash and recover: frames and memtable are rebuilt from
            // the log, chunks re-indexed from their files.
            drop(store);
            disk.restart();
            let (reopened, report) = TsStore::open(vfs.clone(), opts).unwrap();
            store = reopened;
            memtable = log.clone();
            own.clear();
            // Sequence numbers resume past the files that exist.
            next_seq = chunks.keys().next_back().map_or(0, |seq| seq + 1);
            assert_eq!(
                (report.chunks_loaded, report.wal_rows),
                (chunks.len(), log.len() as u64),
                "seed {seed} step {step}"
            );
            assert_eq!(
                (report.wal_corrupt_frames, report.wal_bytes_dropped),
                (0, 0)
            );
        } else if op < 8 {
            let info = store.flush().unwrap();
            assert_eq!(
                info.is_some(),
                !memtable.is_empty(),
                "seed {seed} step {step}"
            );
            if let Some(info) = info {
                let mut cells = Cells::new();
                lww_into(&mut cells, &memtable);
                assert_eq!((info.seq, info.rows), (next_seq, cells.len()));
                assert_eq!(info.rows_deduped, memtable.len() - cells.len());
                chunks.insert(next_seq, cells);
                own.insert(next_seq);
                next_seq += 1;
                memtable.clear();
                log.clear();
            }
        } else {
            if cutoff.is_some() && !memtable.is_empty() {
                // Retention flushes the memtable first, so the cells it
                // expires leave the log too and no reopen replays them.
                let mut cells = Cells::new();
                lww_into(&mut cells, &memtable);
                chunks.insert(next_seq, cells);
                own.insert(next_seq);
                next_seq += 1;
                memtable.clear();
                log.clear();
            }
            partial |= takes_partial_prefix(&chunks, &own, cutoff);
            let report = match cutoff {
                Some(cut) => store.enforce_retention(cut).unwrap(),
                None => store.compact(None).unwrap(),
            };
            let runs = !chunks.is_empty() && (chunks.len() >= 2 || cutoff.is_some());
            assert_eq!(report.is_some(), runs, "seed {seed} step {step}");
            if let Some(report) = report {
                let mut merged = Cells::new();
                let (mut rows_in, mut bytes_before, mut expired) = (0, 0, 0);
                for (seq, cells) in &chunks {
                    rows_in += cells.len() as u64;
                    bytes_before += oracle_chunk(*seq, cells).len() as u64;
                    for (key, value) in cells {
                        if cutoff.is_some_and(|cut| key.2 < cut) {
                            expired += 1;
                        } else {
                            merged.insert(key.clone(), value.clone());
                        }
                    }
                }
                let rows_out = merged.len() as u64;
                let bytes_after = match rows_out {
                    0 => 0,
                    _ => oracle_chunk(next_seq, &merged).len() as u64,
                };
                let want = CompactionReport {
                    chunks_in: chunks.len(),
                    rows_in,
                    rows_out,
                    rows_dropped_lww: rows_in - rows_out - expired,
                    rows_dropped_retention: expired,
                    bytes_before,
                    bytes_after,
                    modeled_ns: (spec.write_time(bytes_before + bytes_after, 8192) * 1e9) as u64,
                };
                assert_eq!(report, want, "seed {seed} step {step}");
                chunks.clear();
                if rows_out > 0 {
                    chunks.insert(next_seq, merged);
                    own.insert(next_seq);
                    next_seq += 1;
                }
            }
        }
        // (a) Every chunk file is byte for byte the oracle's.
        let on_disk: Vec<String> = disk
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.starts_with("chunk-"))
            .collect();
        let want: Vec<String> = chunks.keys().map(|&seq| chunk_name(seq)).collect();
        assert_eq!(on_disk, want, "seed {seed} step {step}");
        for (seq, cells) in &chunks {
            assert!(
                disk.read(&chunk_name(*seq)).unwrap() == oracle_chunk(*seq, cells),
                "seed {seed} step {step}: chunk {seq} differs from the oracle"
            );
        }
        // (c) The scan is the model's merged view, bit for bit.
        let mut view = Cells::new();
        for cells in chunks.values() {
            view.extend(cells.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        lww_into(&mut view, &memtable);
        let got = store.scan().unwrap();
        assert_eq!(got.len(), view.len(), "seed {seed} step {step}");
        for (r, ((series, field, ts), value)) in got.iter().zip(&view) {
            assert_eq!(
                (&r.series, &r.field, r.ts, bits(&r.value)),
                (series, field, *ts, bits(value)),
                "seed {seed} step {step}"
            );
        }
    }
    partial
}

/// Bit-at-a-time MSB-first writer: the reference the word-wide
/// [`BitWriter`] must match, fresh or resumed.
#[derive(Default)]
struct RefBits {
    bytes: Vec<u8>,
    len: usize,
}

impl RefBits {
    fn push_bits(&mut self, v: u64, n: u8) {
        for i in (0..n).rev() {
            if self.len.is_multiple_of(8) {
                self.bytes.push(0);
            }
            if (v >> i) & 1 == 1 {
                *self.bytes.last_mut().unwrap() |= 1 << (7 - self.len % 8);
            }
            self.len += 1;
        }
    }

    fn read_bits(bytes: &[u8], pos: &mut usize, n: u8) -> u64 {
        (0..n).fold(0, |v, _| {
            let bit = (bytes[*pos / 8] >> (7 - *pos % 8)) & 1;
            *pos += 1;
            (v << 1) | bit as u64
        })
    }

    /// Gorilla XOR encoding, transcribed bit at a time.
    fn encode_f64(values: &[f64]) -> Vec<u8> {
        let mut w = RefBits::default();
        let (mut prev, mut window): (u64, Option<(u8, u8)>) = (0, None);
        for (i, v) in values.iter().enumerate() {
            let xor = prev ^ v.to_bits();
            prev = v.to_bits();
            if i == 0 {
                w.push_bits(prev, 64);
                continue;
            }
            if xor == 0 {
                w.push_bits(0, 1);
                continue;
            }
            let lead = (xor.leading_zeros() as u8).min(31);
            let trail = xor.trailing_zeros() as u8;
            match window {
                Some((l, sig)) if lead >= l && trail >= 64 - l - sig => {
                    w.push_bits(0b10, 2);
                    w.push_bits(xor >> (64 - l - sig), sig);
                }
                _ => {
                    let sig = 64 - lead - trail;
                    w.push_bits(0b11, 2);
                    w.push_bits(lead as u64, 5);
                    w.push_bits((sig - 1) as u64, 6);
                    w.push_bits(xor >> trail, sig);
                    window = Some((lead, sig));
                }
            }
        }
        w.bytes
    }
}

#[test]
fn bit_codecs_match_a_bit_at_a_time_reference() {
    for case in 0..case_count() {
        let mut rng = Rng(0xB175 ^ case.wrapping_mul(0x9E37_79B9));
        // Every width, at every bit offset the preceding pushes leave.
        let mut pushes: Vec<(u64, u8)> = (1..=64).map(|n| (rng.next(), n)).collect();
        for i in (1..pushes.len()).rev() {
            pushes.swap(i, rng.below(i as u64 + 1) as usize);
        }
        pushes.extend((0..32).map(|_| (rng.next(), 1 + rng.below(64) as u8)));
        let (mut fast, mut slow) = (BitWriter::default(), RefBits::default());
        for &(v, n) in &pushes {
            fast.push_bits(v, n);
            slow.push_bits(v, n);
        }
        let bytes = fast.into_bytes();
        assert_eq!(bytes, slow.bytes, "case {case}: push_bits");
        // Re-opened after every bit (a whole stream behind it, so what
        // lies past the offset must be dropped), the writer continues to
        // the same bytes.
        let mut start = 0usize;
        for (k, &(v, n)) in pushes.iter().enumerate() {
            for cut in start..start + n as usize {
                let mut resumed = BitWriter::default();
                resumed.restart(&bytes, cut);
                resumed.push_bits(v, (start + n as usize - cut) as u8);
                for &(v, n) in &pushes[k + 1..] {
                    resumed.push_bits(v, n);
                }
                assert!(
                    resumed.into_bytes() == slow.bytes,
                    "case {case}: resume at bit {cut}"
                );
            }
            start += n as usize;
        }
        let mut whole = BitWriter::default();
        whole.restart(&bytes, start);
        let whole = whole.into_bytes();
        assert_eq!(whole, slow.bytes, "case {case}: resume at the end");
        let (mut reader, mut pos) = (BitReader::new(&bytes), 0);
        for &(v, n) in &pushes {
            let want = RefBits::read_bits(&bytes, &mut pos, n);
            assert_eq!(want, if n == 64 { v } else { v & ((1 << n) - 1) });
            assert_eq!(
                reader.read_bits(n).unwrap(),
                want,
                "case {case}: read_bits({n})"
            );
        }
        assert!(reader.read_bits(8).is_err(), "reads past the end must fail");

        // Floats: smooth runs, repeats, and hostile bit patterns mixed.
        let floats: Vec<f64> = (0..rng.below(200))
            .map(|i| match rng.below(4) {
                0 => f64::from_bits(rng.next()),
                1 => 42.5,
                _ => 20.0 + i as f64 * 0.25,
            })
            .collect();
        let enc = encode_f64(&floats);
        assert_eq!(enc, RefBits::encode_f64(&floats), "case {case}: encode_f64");
        let back = decode_f64(&enc, floats.len()).unwrap();
        let image = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(image(&back), image(&floats), "case {case}: decode_f64");

        let bools: Vec<bool> = (0..rng.below(70)).map(|_| rng.below(2) == 1).collect();
        let column: Vec<ColumnValue> = bools.iter().map(|&b| ColumnValue::Bool(b)).collect();
        let mut slow = RefBits::default();
        bools.iter().for_each(|&b| slow.push_bits(b as u64, 1));
        let enc = encode_values(2, &column);
        assert_eq!(enc, slow.bytes, "case {case}: bool column");
        assert_eq!(decode_values(2, &enc, bools.len()).unwrap(), column);
    }
}

/// Chunk `seq` holding, at timestamps 0, 10 and 20 of series
/// `cpu,host=skx`, floats 1.0, 1.5, 1.0 in field `_cpu0` and bools true,
/// false, true in field `ok` — under a valid CRC, in bytes the decoder
/// accepts but no encoder writes: an overlong varint, trailing bytes, a
/// fresh Gorilla window where the open one fits, non-zero pad bits.
fn non_canonical_chunk(seq: u64) -> Vec<u8> {
    let stamps = [0x80, 0x00, 0x14, 0x00, 0xFF]; // 0 overlong, +10, +0, junk
    let mut floats = BitWriter::default();
    floats.push_bits(1.0f64.to_bits(), 64);
    // 1.5: a fresh window of 12 leading zeros and 1 bit, then that bit.
    floats.push_bits(0b11, 2);
    floats.push_bits(12, 5);
    floats.push_bits(0, 6);
    floats.push_bits(1, 1);
    // 1.0: the XOR fits that window, but a wider one opens (10 and 3).
    floats.push_bits(0b11, 2);
    floats.push_bits(10, 5);
    floats.push_bits(2, 6);
    floats.push_bits(0b001, 3);
    floats.push_bits(0b11, 2); // pad bits of the 94-bit stream, set
    let mut floats = floats.into_bytes();
    floats.push(0xAA);
    let bools = [0b1011_1111, 0x00]; // true false true, pad set, junk
    let mut body = b"PMCHUNK1".to_vec();
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(&2u32.to_le_bytes());
    for (field, tag, values) in [("_cpu0", 0u8, &floats[..]), ("ok", 2, &bools[..])] {
        for key in ["cpu,host=skx", field] {
            put_uvarint(&mut body, key.len() as u64);
            body.extend_from_slice(key.as_bytes());
        }
        body.push(tag);
        put_uvarint(&mut body, 3);
        put_ivarint(&mut body, 0);
        put_ivarint(&mut body, 20);
        for column in [&stamps[..], values] {
            put_uvarint(&mut body, column.len() as u64);
            body.extend_from_slice(column);
        }
    }
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

#[test]
fn non_canonical_chunk_compacts_to_what_re_encoding_writes() {
    let opts = StoreOptions {
        flush_threshold_rows: usize::MAX,
        compact_min_chunks: usize::MAX,
    };
    let cell =
        |field: &str, ts: i64, value: ColumnValue| RowRecord::new("cpu,host=skx", field, ts, value);
    let (f, b) = (ColumnValue::F64, ColumnValue::Bool);
    let base = [
        cell("_cpu0", 0, f(1.0)),
        cell("_cpu0", 10, f(1.5)),
        cell("_cpu0", 20, f(1.0)),
        cell("ok", 0, b(true)),
        cell("ok", 10, b(false)),
        cell("ok", 20, b(true)),
    ];
    // After every cell of the base: each key's parts are time-disjoint.
    let newer = [
        cell("_cpu0", 30, f(1.5)),
        cell("_cpu0", 40, f(1.75)),
        cell("ok", 30, b(false)),
    ];
    let mut cells = Cells::new();
    lww_into(&mut cells, &base);
    lww_into(&mut cells, &newer);
    // The forged base found at open, and swapped in under a live store
    // whose manifest holds the CRC it wrote for chunk 0.
    for swapped_live in [false, true] {
        let disk = MemDisk::new(31);
        let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
        let forge = || {
            let mut file = disk.create(&chunk_name(0)).unwrap();
            file.append(&non_canonical_chunk(0)).unwrap();
            file.sync().unwrap();
        };
        if !swapped_live {
            forge();
        }
        let (mut store, _) = TsStore::open(vfs.clone(), opts).unwrap();
        if swapped_live {
            store.append_owned(base.to_vec());
            store.commit().unwrap();
            store.flush().unwrap().unwrap();
            forge();
        }
        store.append_owned(newer.to_vec());
        store.commit().unwrap();
        store.flush().unwrap().unwrap();
        let report = store.compact(None).unwrap().unwrap();
        assert_eq!((report.rows_in, report.rows_out), (9, 9));
        assert!(
            disk.read(&chunk_name(2)).unwrap() == oracle_chunk(2, &cells),
            "swapped live {swapped_live}: compacted chunk differs from re-encoding"
        );
        assert!(store.quarantined().is_empty());
        let got = store.scan().unwrap();
        assert_eq!(got.len(), cells.len());
        for (r, ((series, field, ts), value)) in got.iter().zip(&cells) {
            assert_eq!(
                (&r.series, &r.field, r.ts, bits(&r.value)),
                (series, field, *ts, bits(value))
            );
        }
    }
}

#[test]
fn compacted_chunk_format_is_pinned() {
    // A fixed input through flush ×3 and one compaction. The length and
    // CRC were recorded from the per-cell `BTreeMap` implementation this
    // kernel replaced; any drift in block order, codecs or framing moves
    // them.
    let disk = MemDisk::new(7);
    let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
    let opts = StoreOptions {
        flush_threshold_rows: usize::MAX,
        compact_min_chunks: usize::MAX,
    };
    let (mut store, _) = TsStore::open(vfs, opts).unwrap();
    for flush in 0..3i64 {
        let mut rows = Vec::new();
        for i in 0..200i64 {
            let ts = (flush * 150 + i) * 500; // 50 stamps overlap the next flush
            let x = (flush * 1000 + i) as f64;
            rows.push(RowRecord::new(
                "cpu,host=skx",
                "_cpu0",
                ts,
                ColumnValue::F64(20.0 + x * 0.125),
            ));
            rows.push(RowRecord::new(
                "cpu,host=skx",
                "_cpu1",
                ts,
                ColumnValue::F64((x * 0.37).sin()),
            ));
            rows.push(RowRecord::new(
                "cpu,host=skx",
                "ctx",
                ts,
                ColumnValue::I64(i * i - flush),
            ));
            rows.push(RowRecord::new(
                "mem,host=skx",
                "ok",
                ts,
                ColumnValue::Bool(i % 3 == 0),
            ));
            if i % 40 == 0 {
                // A cell that changes type between flushes.
                let v = match flush {
                    1 => ColumnValue::I64(i),
                    _ => ColumnValue::Str(format!("note-{i}")),
                };
                rows.push(RowRecord::new("mem,host=skx", "note", i, v));
            }
        }
        store.append_owned(rows);
        store.commit().unwrap();
        store.flush().unwrap().unwrap();
    }
    let report = store.compact(None).unwrap().unwrap();
    let data = disk.read(&chunk_name(3)).unwrap();
    assert_eq!(report.bytes_after, data.len() as u64);
    assert_eq!((report.rows_in, report.rows_out), (2415, 2005));
    assert_eq!((data.len(), crc32(&data)), (7907, 558_161_692));
}

// ------------------------------------------------------- prefix splice

/// Cells of series `cpu,host=skx` at `stamps`: a float, an int, a bool
/// and a string field, each value picked from its column by `pick`.
fn typed_cells(stamps: &[i64], pick: impl Fn(usize) -> usize) -> Vec<RowRecord> {
    let floats = [1.0, 1.0, 3.7, 3.7, -2.5, 0.1];
    let ints = [5, 7, 7, -3, 100, 0];
    let bools = [true, false, false, true, true, false];
    let strs = ["a", "", "bc", "bc", "d", "τ"];
    let mut rows = Vec::new();
    for (i, &ts) in stamps.iter().enumerate() {
        let at = pick(i) % floats.len();
        let cell = |field: &str, value| RowRecord::new("cpu,host=skx", field, ts, value);
        rows.push(cell("_cpu0", ColumnValue::F64(floats[at])));
        rows.push(cell("ctx", ColumnValue::I64(ints[at])));
        rows.push(cell("ok", ColumnValue::Bool(bools[at])));
        rows.push(cell("note", ColumnValue::Str(strs[at].into())));
    }
    rows
}

/// Flush `base` into chunk 0 and each of `newer` into a chunk of its
/// own, then compact — under `cutoff` when given, after reopening the
/// store when `foreign`, so that chunk 0 is not its own output. The
/// compacted chunk must be byte for byte what re-encoding the merged
/// cells writes, and the scan must be those cells.
fn compacts_like_re_encoding(
    case: &str,
    base: &[RowRecord],
    newer: &[Vec<RowRecord>],
    cutoff: Option<i64>,
    foreign: bool,
) {
    let opts = StoreOptions {
        flush_threshold_rows: usize::MAX,
        compact_min_chunks: usize::MAX,
    };
    let disk = MemDisk::new(41);
    let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
    let (mut store, _) = TsStore::open(vfs.clone(), opts).unwrap();
    let mut cells = Cells::new();
    for (i, rows) in std::iter::once(base)
        .chain(newer.iter().map(Vec::as_slice))
        .enumerate()
    {
        store.append_owned(rows.to_vec());
        store.commit().unwrap();
        store.flush().unwrap().unwrap();
        lww_into(&mut cells, rows);
        if i == 0 && foreign {
            drop(store);
            store = TsStore::open(vfs.clone(), opts).unwrap().0;
        }
    }
    let report = match cutoff {
        Some(cut) => {
            cells.retain(|key, _| key.2 >= cut);
            store.enforce_retention(cut)
        }
        None => store.compact(None),
    };
    let report = report.unwrap().unwrap();
    let seq = 1 + newer.len() as u64;
    assert_eq!(report.rows_out, cells.len() as u64, "{case}");
    assert!(
        disk.read(&chunk_name(seq)).unwrap() == oracle_chunk(seq, &cells),
        "{case}: compacted chunk differs from re-encoding"
    );
    let got = store.scan().unwrap();
    assert_eq!(got.len(), cells.len(), "{case}");
    for (r, ((series, field, ts), value)) in got.iter().zip(&cells) {
        assert_eq!(
            (&r.series, &r.field, r.ts, bits(&r.value)),
            (series, field, *ts, bits(value)),
            "{case}"
        );
    }
}

#[test]
fn prefix_splices_compact_to_what_re_encoding_writes() {
    // A base of five cells per field at 10..=50, every value column
    // exercised; the newer chunk's first stamp decides the prefix.
    let base = typed_cells(&[10, 20, 30, 40, 50], |i| i);
    let newer = |stamps: &[i64]| typed_cells(stamps, |i| i + 4);
    let cases: [(&str, Vec<i64>); 5] = [
        ("before the base's first cell", vec![5, 60]),
        ("at a middle cell", vec![35, 45]),
        (
            "equal to a base stamp, the newer cell winning",
            vec![30, 50],
        ),
        ("after the last cell: the whole base", vec![60, 70]),
        // Two cells: the float column's prefix is 64 + 1 bits and the
        // bool column's 2, each ending mid-byte with live bits after it.
        ("at a Gorilla prefix that ends mid-byte", vec![25]),
    ];
    for (case, stamps) in &cases {
        compacts_like_re_encoding(case, &base, &[newer(stamps)], None, false);
    }
    // Several newer chunks: the earliest first stamp of any of them cuts.
    let two = [newer(&[45, 55]), newer(&[22])];
    compacts_like_re_encoding("two newer chunks", &base, &two, None, false);
    // The three that keep no prefix: a newer part of another type, a
    // retention cutoff inside the base, and a base this store did not
    // write.
    let retyped = vec![RowRecord::new(
        "cpu,host=skx",
        "_cpu0",
        35,
        ColumnValue::I64(9),
    )];
    compacts_like_re_encoding("another type", &base, &[retyped], None, false);
    let later = [newer(&[35, 60])];
    compacts_like_re_encoding("cutoff inside the base", &base, &later, Some(25), false);
    compacts_like_re_encoding("foreign base", &base, &later, None, true);
}

// --------------------------------------------------- every crash point

/// The scripted operation whose every crash point is tested.
#[derive(Clone, Copy, Debug)]
enum Scripted {
    /// A flush of a memtable that holds late cells and resends.
    Flush,
    /// The same flush with a second commit in the memtable, which
    /// resends cells of the first with new values.
    FlushTwoCommits,
    /// A compaction of an own chunk under a chunk whose late cells reach
    /// into it: the prefix-splicing path.
    Compact,
}

/// Base cells of three series × two float fields at 0..40, then late
/// cells and resends reaching back ten stamps into them, then new values
/// for every fifth stamp of the late cells.
fn scripted_batches() -> [Vec<RowRecord>; 3] {
    let mut rng = Rng(0x5C_21F7);
    let cell = |s: usize, f: usize, ts: i64, rng: &mut Rng| {
        let value = ColumnValue::F64(rng.below(1_000) as f64 / 8.0);
        RowRecord::new(SERIES[s], FIELDS[f], ts, value)
    };
    let mut base = Vec::new();
    let mut late = Vec::new();
    for ts in 0..40 {
        for s in 0..3 {
            for f in 0..2 {
                base.push(cell(s, f, ts, &mut rng));
                late.push(cell(s, f, 40 + ts, &mut rng));
                if ts % 4 == 0 {
                    late.push(cell(s, f, 30 + rng.below(10) as i64, &mut rng));
                }
            }
        }
    }
    let resent = late
        .iter()
        .filter(|r| r.ts % 5 == 0)
        .map(|r| {
            let value = ColumnValue::F64(rng.below(1_000) as f64 / 8.0);
            RowRecord::new(&r.series, &r.field, r.ts, value)
        })
        .collect();
    [base, late, resent]
}

/// Run `op` over the scripted state on a fresh disk of seed `seed`,
/// crashing at its `crash_at`th disk operation under `mode` (never, when
/// `None`); then restart, reopen and scan. Returns the operations `op`
/// took and what the reopened store holds.
fn run_scripted(op: Scripted, seed: u64, crash: Option<(u64, FaultMode)>) -> (u64, Vec<RowRecord>) {
    let opts = StoreOptions {
        flush_threshold_rows: usize::MAX,
        compact_min_chunks: usize::MAX,
    };
    let disk = MemDisk::new(seed);
    let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
    let (mut store, _) = TsStore::open(vfs.clone(), opts).unwrap();
    let [base, late, resent] = scripted_batches();
    store.append_owned(base);
    store.commit().unwrap();
    store.flush().unwrap().unwrap();
    store.append_owned(late);
    store.commit().unwrap();
    match op {
        Scripted::Flush => {}
        Scripted::FlushTwoCommits => {
            store.append_owned(resent);
            store.commit().unwrap();
        }
        Scripted::Compact => {
            store.flush().unwrap().unwrap();
        }
    }
    let before = disk.ops_done();
    if let Some((k, mode)) = crash {
        disk.schedule_fault(FaultPlan {
            crash_at_op: before + k,
            mode,
        });
    }
    let done = match op {
        Scripted::Flush | Scripted::FlushTwoCommits => store.flush().map(|_| ()),
        Scripted::Compact => store.compact(None).map(|_| ()),
    };
    assert_eq!(done.is_err(), crash.is_some(), "{op:?} at {crash:?}");
    let ops = disk.ops_done() - before;
    drop(store);
    disk.restart();
    let (mut store, _) = TsStore::open(vfs, opts).unwrap();
    (ops, store.scan().unwrap())
}

/// Crash `op` at each of its `pinned` disk operations under each of
/// `modes`, on a disk of each of `seeds`: the reopened store must hold
/// exactly the acknowledged cells.
fn every_crash_point(op: Scripted, pinned: u64, modes: &[FaultMode], seeds: &[u64]) {
    let commits = match op {
        Scripted::FlushTwoCommits => 3,
        Scripted::Flush | Scripted::Compact => 2,
    };
    let want = view_of_prefix(&scripted_batches(), commits);
    let (n, clean) = run_scripted(op, seeds[0], None);
    println!("{op:?}: {n} disk operations");
    assert_eq!(n, pinned, "{op:?}");
    assert!(clean == want, "{op:?} without a crash");
    for &seed in seeds {
        for k in 1..=n {
            for &mode in modes {
                let (_, got) = run_scripted(op, seed, Some((k, mode)));
                assert!(
                    got == want,
                    "{op:?} on disk seed {seed} crashed at operation {k} under {mode:?}: {} cells recovered, {} acknowledged, {} recovered ones not acknowledged",
                    got.len(),
                    want.len(),
                    got.iter().filter(|cell| !want.contains(cell)).count()
                );
            }
        }
    }
}

const EVERY_MODE: [FaultMode; 3] = [
    FaultMode::CleanStop,
    FaultMode::TornTail,
    FaultMode::BitFlip,
];

#[test]
fn every_crash_point_of_a_flush_and_a_splicing_compaction_keeps_every_acked_cell() {
    // Flush: create, append and sync the chunk, truncate the log.
    // Compaction: create, append and sync the merged chunk; removing the
    // inputs is not a write.
    every_crash_point(Scripted::Flush, 4, &EVERY_MODE, &[0x5C_21F7]);
    every_crash_point(Scripted::Compact, 3, &EVERY_MODE, &[0x5C_21F7]);
    // With two commits in the memtable a bit flip breaks recovery (the
    // ignored test below); a crash that only loses unsynced bytes does
    // not.
    let lossy = [FaultMode::CleanStop, FaultMode::TornTail];
    every_crash_point(Scripted::FlushTwoCommits, 4, &lossy, &[0x5C_21F7]);
}

/// ROADMAP item 15's open hole, pinned: fails until it is closed. A bit
/// flip at the log truncation that lands in the second frame ends the
/// replay there, and the first frame's older values are replayed over
/// the flushed chunk, which already holds the newer ones. Nothing ties a
/// log frame to the chunk that absorbed it.
#[test]
#[ignore = "ROADMAP 15: a bit flip in the log's second frame during a flush's truncation replays older values over the chunk"]
fn every_crash_point_of_a_two_commit_flush_survives_a_bit_flip() {
    let seeds: Vec<u64> = (0..16).collect();
    every_crash_point(Scripted::FlushTwoCommits, 4, &[FaultMode::BitFlip], &seeds);
}
