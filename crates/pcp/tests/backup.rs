//! Backup/restore property tests. A backup is a verified copy: one
//! generation holds every live chunk, the memtable's acknowledged cells
//! as one WAL frame, and a manifest written last. Under random ingest
//! with NaN and ±0 payloads, flushes, compactions and clean-stop crashes
//! of the primary, restoring the newest generation onto a fresh disk is
//! bit-identical (`f64::to_bits`) to the primary's `scan_blocks()` when
//! the generation was taken. A corrupted generation is refused with a
//! typed error or is harmless (an older generation restores, or none),
//! never wrong; a torn generation is invisible. Every crash point of one
//! backup and of one restore is enumerated.
//!
//! Case count defaults to 32 and is raised in CI via
//! `PMOVE_BACKUP_CASES`.

use pmove_tsdb::store::{
    restore_at, BackupError, Block, ColumnValue, FaultMode, FaultPlan, MemDisk, RotSchedule,
    RowRecord, StoreOptions, TsStore, Vfs,
};
use proptest::prelude::*;
use std::sync::Arc;

fn backup_cases() -> u32 {
    std::env::var("PMOVE_BACKUP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// Deterministic per-case value stream (SplitMix64).
fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Adversarial payloads: ordinary magnitudes plus signed zeros and NaNs,
/// so "bit-identical restore" is tested where `==` would lie.
fn value(seed: &mut u64) -> f64 {
    let v = next(seed);
    match v % 23 {
        0 => -0.0,
        1 => f64::NAN,
        2 => 0.0,
        _ => (v % 1_000_000) as f64 / 7.0,
    }
}

/// Chunks move only when the test says so.
fn manual_opts() -> StoreOptions {
    StoreOptions {
        flush_threshold_rows: 1_000_000,
        compact_min_chunks: 1_000_000,
    }
}

fn batch(b: u64, rows_per_batch: usize, seed: &mut u64) -> Vec<RowRecord> {
    (0..rows_per_batch)
        .map(|i| {
            // Occasional timestamp collisions: last-write-wins across
            // the chunk set and the memtable.
            let ts = if next(seed).is_multiple_of(11) && b > 0 {
                (b as i64 - 1) * 100 + i as i64
            } else {
                b as i64 * 100 + i as i64
            };
            RowRecord::new(
                format!("s{}", next(seed) % 3),
                format!("f{}", i % 2),
                ts,
                ColumnValue::F64(value(seed)),
            )
        })
        .collect()
}

/// A store's merged view, values as bits: `scan_blocks()` compared
/// where `==` on NaN or ±0 would lie.
type Bits = Vec<(String, String, Vec<i64>, Vec<u64>)>;

fn bits_of(blocks: Vec<Block>) -> Bits {
    blocks
        .into_iter()
        .map(|b| {
            let values = b
                .values
                .iter()
                .map(|v| match v {
                    ColumnValue::F64(x) => x.to_bits(),
                    _ => unreachable!("this test writes only f64 cells"),
                })
                .collect();
            (b.series, b.field, b.ts, values)
        })
        .collect()
}

fn view(store: &mut TsStore) -> Bits {
    bits_of(store.scan_blocks().unwrap())
}

/// Restore the generation `restore_at(dest, _, t)` picks onto a fresh
/// disk and return its id with what the restored store holds.
fn restore(dest: &MemDisk, t: i64, scratch_seed: u64) -> Result<(u64, Bits), BackupError> {
    let target = MemDisk::new(scratch_seed | 1);
    let gen = restore_at(dest, Arc::new(target.clone()) as Arc<dyn Vfs>, t)?;
    let (mut restored, _) = TsStore::open(Arc::new(target), manual_opts()).unwrap();
    Ok((gen, view(&mut restored)))
}

/// Flip bit `bit` of byte `at` (modulo the length) of file `name`.
fn flip(disk: &MemDisk, name: &str, at: usize, bit: u64) {
    let mut data = disk.read(name).unwrap();
    let at = at % data.len();
    data[at] ^= 1 << (bit % 8);
    let mut f = disk.create(name).unwrap();
    f.append(&data).unwrap();
    f.sync().unwrap();
}

#[derive(Clone, Copy, Debug)]
struct Case {
    seed: u64,
    n_batches: u64,
    rows_per_batch: usize,
    flush_every: u64,
    compact_every: u64,
    backup_every: u64,
    crash_after: Option<u64>,
}

/// Outcome of one driven run: the backup disk, the primary, and what
/// the primary held when each generation was taken, by generation id.
struct RunOutcome {
    primary: MemDisk,
    dest: MemDisk,
    taken: Vec<Bits>,
}

/// Drive a store through the case's schedule, taking a backup after
/// every `backup_every`th batch and after the last. Crashes use
/// `CleanStop` on a commit, so the failed commit leaves no trace; the
/// store is reopened and backups are enabled again.
fn run_case(case: &Case) -> RunOutcome {
    let primary = MemDisk::new(case.seed | 1);
    let dest = MemDisk::new((case.seed ^ 0xBACC) | 1);
    let (mut store, _) = TsStore::open(Arc::new(primary.clone()), manual_opts()).unwrap();
    store
        .enable_backup(Arc::new(dest.clone()) as Arc<dyn Vfs>)
        .unwrap();
    let mut value_seed = case.seed;
    let mut taken = Vec::new();
    for b in 0..case.n_batches {
        let rows = batch(b, case.rows_per_batch, &mut value_seed);
        if case.crash_after == Some(b) {
            primary.schedule_fault(FaultPlan {
                crash_at_op: primary.ops_done() + 1,
                mode: FaultMode::CleanStop,
            });
            store.append_owned(rows);
            assert!(store.commit().is_err(), "commit under crash must fail");
            primary.restart();
            drop(store);
            store = TsStore::open(Arc::new(primary.clone()), manual_opts())
                .unwrap()
                .0;
            store
                .enable_backup(Arc::new(dest.clone()) as Arc<dyn Vfs>)
                .unwrap();
        } else {
            store.append_owned(rows);
            store.commit().unwrap();
        }
        if case.flush_every > 0 && (b + 1) % case.flush_every == 0 {
            store.flush().unwrap();
        }
        if case.compact_every > 0 && (b + 1) % case.compact_every == 0 {
            store.compact(None).unwrap();
        }
        if (b + 1) % case.backup_every == 0 || b + 1 == case.n_batches {
            let want = view(&mut store);
            assert_eq!(store.backup_now().unwrap(), taken.len() as u64);
            taken.push(want);
        }
    }
    RunOutcome {
        primary,
        dest,
        taken,
    }
}

/// The id the next backup onto `dest` takes: one past every generation
/// that left a file there, torn ones included.
fn next_id(dest: &MemDisk) -> u64 {
    let ids = generation_files(dest)
        .iter()
        .map(|n| n[4..12].parse::<u64>().unwrap())
        .max();
    ids.map_or(0, |id| id + 1)
}

/// The files of every generation on `dest`, sorted by name.
fn generation_files(dest: &MemDisk) -> Vec<String> {
    let mut names = dest.list().unwrap();
    names.retain(|n| n.starts_with("gen-"));
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(backup_cases()))]

    /// Restoring the newest generation — and any older one by its id —
    /// is bit-identical to what the primary held when it was taken,
    /// through primary crashes and rot of the primary afterwards; the
    /// same case writes the same backup bytes.
    #[test]
    fn restoring_a_generation_is_bit_identical_to_the_primary_when_taken(
        seed in any::<u64>(),
        n_batches in 3u64..=10,
        rows_per_batch in 1usize..=6,
        flush_every in 0u64..=3,
        compact_every in 0u64..=4,
        backup_every in 1u64..=4,
        crash_sel in 0u64..=8,
    ) {
        // 0 = no crash; otherwise a clean stop at batch (sel - 1).
        let case = Case {
            seed,
            n_batches,
            rows_per_batch,
            flush_every,
            compact_every,
            backup_every,
            crash_after: crash_sel.checked_sub(1).map(|c| c % n_batches),
        };
        let out = run_case(&case);
        // Rot on the primary's chunks after the run: the backup bytes
        // live on their own disk.
        out.primary.schedule_rot(RotSchedule::none().at(1.0, 1).with_prefix("chunk-"));
        out.primary.advance_rot(2.0);

        let newest = out.taken.len() as u64 - 1;
        let (gen, got) = restore(&out.dest, i64::MAX, seed).unwrap();
        prop_assert_eq!(gen, newest);
        prop_assert!(&got == out.taken.last().unwrap(), "newest generation diverged");
        let older = seed % (newest + 1);
        let (gen, got) = restore(&out.dest, older as i64, seed ^ 0xA5).unwrap();
        prop_assert_eq!(gen, older);
        prop_assert!(got == out.taken[older as usize], "generation {} diverged", older);
        prop_assert_eq!(restore(&out.dest, -1, seed).unwrap_err(), BackupError::NoBackup);

        let again = run_case(&case);
        let files = generation_files(&out.dest);
        prop_assert_eq!(&files, &generation_files(&again.dest));
        for name in &files {
            prop_assert!(
                out.dest.read(name).unwrap() == again.dest.read(name).unwrap(),
                "same-seed backups differ in {}", name
            );
        }
    }

    /// Flip one bit anywhere on the backup disk: the restore refuses
    /// with a typed error or restores some generation bit-identically,
    /// never a state the primary did not hold. A flip in a file the
    /// newest manifest names is always a refusal; a flip in the newest
    /// manifest makes that generation invisible, and the one before it
    /// restores.
    #[test]
    fn corrupted_generations_are_refused_or_harmless_never_wrong(
        seed in any::<u64>(),
        n_batches in 4u64..=8,
        rows_per_batch in 2usize..=4,
        at in any::<usize>(),
    ) {
        let case = Case {
            seed,
            n_batches,
            rows_per_batch,
            flush_every: 2,
            compact_every: 0,
            backup_every: n_batches / 2,
            crash_after: None,
        };
        let out = run_case(&case);
        let newest = out.taken.len() as u64 - 1;
        prop_assert!(newest >= 1, "two generations at least");
        let files = generation_files(&out.dest);
        let victim = &files[(seed as usize) % files.len()];
        flip(&out.dest, victim, at, seed);
        match restore(&out.dest, i64::MAX, seed) {
            Ok((gen, got)) => prop_assert!(
                got == out.taken[gen as usize],
                "a flip in {} restored generation {} wrong", victim, gen
            ),
            Err(BackupError::NoBackup | BackupError::FileCorrupt { .. }) => {}
            Err(other) => prop_assert!(false, "flip in {}: {:?}", victim, other),
        }

        let prefix = format!("gen-{newest:08}/");
        let manifest = format!("{prefix}manifest");
        let data_files: Vec<&String> = files
            .iter()
            .filter(|n| n.starts_with(&prefix) && **n != manifest)
            .collect();
        let data_file = data_files[(seed as usize) % data_files.len()];
        let again = run_case(&case);
        flip(&again.dest, data_file, at, seed);
        match restore(&again.dest, i64::MAX, seed) {
            Err(BackupError::FileCorrupt { gen, .. }) => prop_assert_eq!(gen, newest),
            other => prop_assert!(
                false,
                "a flip in {} was not refused: {:?}", data_file, other.map(|(g, _)| g)
            ),
        }
        let again = run_case(&case);
        flip(&again.dest, &manifest, at, seed);
        let (gen, got) = restore(&again.dest, i64::MAX, seed).unwrap();
        prop_assert_eq!(gen, newest - 1);
        prop_assert!(got == out.taken[gen as usize]);
    }

    /// The backup disk dies part way into a backup: the torn generation
    /// is invisible, the live store untouched, and the next backup takes
    /// a fresh id and restores bit-exactly.
    #[test]
    fn a_torn_generation_is_invisible(
        seed in any::<u64>(),
        n_batches in 2u64..=6,
        crash_op in 1u64..=12,
        mode_sel in 0usize..3,
    ) {
        let case = Case {
            seed,
            n_batches,
            rows_per_batch: 3,
            flush_every: 1,
            compact_every: 0,
            backup_every: n_batches,
            crash_after: None,
        };
        let out = run_case(&case);
        let (mut store, _) = TsStore::open(Arc::new(out.primary.clone()), manual_opts()).unwrap();
        store.enable_backup(Arc::new(out.dest.clone()) as Arc<dyn Vfs>).unwrap();
        store.append_owned(batch(n_batches, 3, &mut seed.clone()));
        store.commit().unwrap();
        let live = view(&mut store);
        // Three operations per file: every chunk, the log frame, the
        // manifest. Past the last one the backup completes.
        let ops = 3 * (n_batches + 2);
        let crash = 1 + crash_op % ops;
        out.dest.schedule_fault(FaultPlan {
            crash_at_op: out.dest.ops_done() + crash,
            mode: [FaultMode::CleanStop, FaultMode::TornTail, FaultMode::BitFlip][mode_sel],
        });
        prop_assert!(store.backup_now().is_err(), "backup must surface the crash");
        out.dest.restart();
        // A torn sync may still have persisted the whole manifest: then
        // the generation is complete.
        match restore(&out.dest, i64::MAX, seed).unwrap() {
            (0, got) => prop_assert!(&got == out.taken.last().unwrap()),
            (gen, got) => prop_assert!(gen == 1 && got == live, "generation {}", gen),
        }
        prop_assert!(view(&mut store) == live, "the live store moved");
        let fresh = next_id(&out.dest);
        prop_assert_eq!(store.backup_now().unwrap(), fresh);
        let (gen, got) = restore(&out.dest, i64::MAX, seed).unwrap();
        prop_assert!(gen == fresh && got == live);
    }
}

// --------------------------------------------------- every crash point

/// Cells of three series × two fields at `0..40` past `base`, with
/// resends of earlier stamps; the values draw NaN and ±0.
fn scripted(base: i64, seed: &mut u64) -> Vec<RowRecord> {
    let mut rows = Vec::new();
    for ts in 0..40 {
        for s in 0..3 {
            for f in 0..2 {
                let ts = if ts % 4 == 0 {
                    base - 5 + ts
                } else {
                    base + ts
                };
                rows.push(RowRecord::new(
                    format!("s{s}"),
                    format!("f{f}"),
                    ts,
                    ColumnValue::F64(value(seed)),
                ));
            }
        }
    }
    rows
}

/// The scripted primary: a chunk and a memtable, optionally backed up
/// as generation 0 (`previous`), then a second chunk and a memtable of
/// resends. Returns the store, its backup disk (seed `seed`) and what
/// the primary held at generation 0 (when taken) and now.
fn scripted_primary(previous: bool, seed: u64) -> (TsStore, MemDisk, Option<Bits>, Bits) {
    let dest = MemDisk::new(seed);
    let (mut store, _) = TsStore::open(Arc::new(MemDisk::new(0x5C_21F7)), manual_opts()).unwrap();
    store
        .enable_backup(Arc::new(dest.clone()) as Arc<dyn Vfs>)
        .unwrap();
    let mut values = 0xB4C0_u64;
    store.append_owned(scripted(0, &mut values));
    store.commit().unwrap();
    store.flush().unwrap().unwrap();
    store.append_owned(scripted(40, &mut values));
    store.commit().unwrap();
    let first = previous.then(|| {
        let want = view(&mut store);
        assert_eq!(store.backup_now().unwrap(), 0);
        want
    });
    store.flush().unwrap().unwrap();
    store.append_owned(scripted(80, &mut values));
    store.append_owned(scripted(60, &mut values));
    store.commit().unwrap();
    let now = view(&mut store);
    (store, dest, first, now)
}

/// Every crash point of one backup and of one restore, under every
/// `FaultMode`, on the disks of each of a few seeds:
///   * a backup crashed at its kth operation leaves the previous
///     generation restorable bit-identically, or `NoBackup` when there
///     was none; the next backup takes a fresh id and restores the
///     primary bit-identically;
///   * a restore crashed at its kth operation reports the crash, and
///     running it again over what it left restores the new generation
///     bit-identically.
#[test]
fn every_crash_point_of_a_backup_and_a_restore() {
    const MODES: [FaultMode; 3] = [
        FaultMode::CleanStop,
        FaultMode::TornTail,
        FaultMode::BitFlip,
    ];
    // Backup: create, append and sync two chunks, the log frame and the
    // manifest. Restore: the same for the three files the manifest names.
    let (mut store, dest, _, now) = scripted_primary(true, 1);
    let before = dest.ops_done();
    assert_eq!(store.backup_now().unwrap(), 1);
    let n_backup = dest.ops_done() - before;
    let target = MemDisk::new(1);
    assert_eq!(restore_at(&dest, Arc::new(target.clone()), i64::MAX), Ok(1));
    let n_restore = target.ops_done();
    println!("backup_now: {n_backup} disk operations, restore_at: {n_restore}");
    assert_eq!((n_backup, n_restore), (12, 9));
    let (mut restored, _) = TsStore::open(Arc::new(target), manual_opts()).unwrap();
    assert!(view(&mut restored) == now);

    for seed in [1, 2, 3] {
        for k in 1..=n_backup {
            for mode in MODES {
                for previous in [true, false] {
                    let at = format!("seed {seed}, operation {k}, {mode:?}, previous {previous}");
                    let (mut store, dest, first, now) = scripted_primary(previous, seed);
                    dest.schedule_fault(FaultPlan {
                        crash_at_op: dest.ops_done() + k,
                        mode,
                    });
                    assert!(store.backup_now().is_err(), "{at}");
                    dest.restart();
                    let new = u64::from(previous);
                    match (restore(&dest, i64::MAX, seed), first) {
                        // A torn sync that persisted the whole manifest.
                        (Ok((gen, got)), _) if gen == new => assert!(got == now, "{at}"),
                        (Ok((0, got)), Some(first)) => assert!(got == first, "{at}"),
                        (Err(BackupError::NoBackup), None) => {}
                        (other, _) => panic!("{at}: {:?}", other.map(|(gen, _)| gen)),
                    }
                    let fresh = next_id(&dest);
                    assert!(fresh > new || k == 1, "{at}: a torn id is never reused");
                    assert_eq!(store.backup_now().unwrap(), fresh, "{at}");
                    let (gen, got) = restore(&dest, i64::MAX, seed).unwrap();
                    assert!(gen == fresh && got == now, "{at}");
                }
            }
        }
        for k in 1..=n_restore {
            for mode in MODES {
                let at = format!("seed {seed}, restore operation {k}, {mode:?}");
                let (mut store, dest, _, now) = scripted_primary(true, seed);
                store.backup_now().unwrap();
                let target = MemDisk::new(seed);
                let vfs: Arc<dyn Vfs> = Arc::new(target.clone());
                target.schedule_fault(FaultPlan {
                    crash_at_op: k,
                    mode,
                });
                assert!(restore_at(&dest, vfs.clone(), i64::MAX).is_err(), "{at}");
                target.restart();
                assert_eq!(restore_at(&dest, vfs.clone(), i64::MAX), Ok(1), "{at}");
                let (mut restored, _) = TsStore::open(vfs, manual_opts()).unwrap();
                assert!(view(&mut restored) == now, "{at}");
            }
        }
    }
}
