//! End-to-end backup/restore property tests — the PR's headline
//! invariant: under random ingest, clean-stop crashes on the primary,
//! latent rot on the primary's chunks, and a snapshot generation captured
//! mid-stream, a point-in-time restore at any fence T onto a fresh store
//! is bit-identical (`f64::to_bits`) to the oracle's prefix at T, with
//! the restore conservation ledger (snapshot + replayed == restored +
//! deduped) balanced — and a corrupted backup is *detected and refused*
//! with a typed error, never silently restored.
//!
//! Case count defaults to 32 and is raised in CI via
//! `PMOVE_BACKUP_CASES`.

use pmove_tsdb::store::{
    chunk_name, list_generations, restore_at, restore_replay_all, BackupError, ColumnValue,
    FaultMode, FaultPlan, MemDisk, RotSchedule, RowRecord, StoreOptions, TsStore, Vfs,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
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
            // Occasional timestamp collisions exercise last-write-wins
            // dedup on the replay path.
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

/// The oracle's view of a store: last-write-wins cell map, floats keyed
/// by bits.
type CellMap = BTreeMap<(String, String, i64), u64>;

fn cells_of(rows: &[RowRecord]) -> CellMap {
    let mut m = CellMap::new();
    for r in rows {
        let bits = match r.value {
            ColumnValue::F64(x) => x.to_bits(),
            _ => unreachable!("this test writes only f64 cells"),
        };
        m.insert((r.series.clone(), r.field.clone(), r.ts), bits);
    }
    m
}

#[derive(Clone, Copy, Debug)]
struct Case {
    seed: u64,
    n_batches: u64,
    rows_per_batch: usize,
    flush_every: u64,
    backup_after: u64,
    crash_after: Option<u64>,
    rot_primary: bool,
}

/// Outcome of one driven run, everything needed for the PITR checks.
struct RunOutcome {
    dest: MemDisk,
    /// Oracle prefix per fence: `oracle_at[i]` is the cell map after the
    /// batch committed at vts `fences[i]`.
    fences: Vec<i64>,
    oracle_at: Vec<CellMap>,
    generations: usize,
}

/// Drive a store through the case's schedule. Crashes use `CleanStop` on
/// a commit boundary, so an errored commit leaves no trace and the oracle
/// stays exact; the store is reopened and the archiver re-attached (its
/// catch-up re-archives the surviving WAL tail, which restore dedups).
fn run_case(case: &Case) -> RunOutcome {
    let primary = MemDisk::new(case.seed | 1);
    let dest = MemDisk::new((case.seed ^ 0xBACC) | 1);
    let (mut store, _) = TsStore::open(Arc::new(primary.clone()), manual_opts()).unwrap();
    store
        .enable_backup(Arc::new(dest.clone()) as Arc<dyn Vfs>)
        .unwrap();

    let mut value_seed = case.seed;
    let mut oracle = CellMap::new();
    let mut fences = Vec::new();
    let mut oracle_at = Vec::new();
    let mut generations = 0usize;
    let mut crashed = false;

    for b in 0..case.n_batches {
        let vts = (b as i64 + 1) * 1_000;
        store.note_time(vts);
        let rows = batch(b, case.rows_per_batch, &mut value_seed);

        if !crashed && case.crash_after == Some(b) {
            // Clean stop on the very next disk op: the commit fails
            // all-or-nothing, the batch is never acknowledged.
            primary.schedule_fault(FaultPlan {
                crash_at_op: primary.ops_done() + 1,
                mode: FaultMode::CleanStop,
            });
            store.append_owned(rows);
            assert!(store.commit().is_err(), "commit under crash must fail");
            primary.restart();
            drop(store);
            let (s, _) = TsStore::open(Arc::new(primary.clone()), manual_opts()).unwrap();
            store = s;
            store.note_time(vts);
            store
                .enable_backup(Arc::new(dest.clone()) as Arc<dyn Vfs>)
                .unwrap();
            crashed = true;
            // The batch was not acknowledged: the oracle never saw it,
            // and neither fence nor generation advances for it.
            continue;
        }

        store.append_owned(rows.clone());
        store.commit().unwrap();
        oracle.extend(cells_of(&rows));
        fences.push(vts);
        oracle_at.push(oracle.clone());

        if case.flush_every > 0 && (b + 1) % case.flush_every == 0 {
            store.flush().unwrap();
        }
        if b == case.backup_after {
            store.backup_now().unwrap();
            generations += 1;
        }
    }
    // Latent rot on the primary's live chunks *after* the run: the backup
    // bytes live on their own disk, so a restore must not be confused by
    // a rotting primary.
    if case.rot_primary {
        primary.schedule_rot(RotSchedule::none().at(1.0, 1).with_prefix("chunk-"));
        primary.advance_rot(2.0);
    }
    RunOutcome {
        dest,
        fences,
        oracle_at,
        generations,
    }
}

/// Restore the backup at `t_vts` onto a fresh disk and return the
/// restored cell map plus the conservation report.
fn restore_cells(
    dest: &MemDisk,
    t_vts: i64,
    scratch_seed: u64,
) -> (CellMap, pmove_tsdb::store::RestoreReport) {
    let scratch = MemDisk::new(scratch_seed | 1);
    let report = restore_at(dest, Arc::new(scratch.clone()) as Arc<dyn Vfs>, t_vts).unwrap();
    let (mut restored, _) = TsStore::open(Arc::new(scratch), manual_opts()).unwrap();
    (cells_of(&restored.scan().unwrap()), report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(backup_cases()))]

    /// Headline invariant: restore-at-T equals the oracle prefix at T,
    /// bit for bit, for every committed fence T — through crashes, rot,
    /// and a mid-stream snapshot — and the restore ledger balances.
    #[test]
    fn restore_at_any_fence_is_bit_identical_to_oracle_prefix(
        seed in any::<u64>(),
        n_batches in 4u64..=10,
        rows_per_batch in 1usize..=5,
        flush_every in 0u64..=3,
        backup_frac in 0u64..=2,
        crash_sel in 0u64..=8,
        rot_primary in any::<bool>(),
    ) {
        // 0 = no crash; otherwise a clean stop before batch (sel - 1).
        let crash = crash_sel.checked_sub(1);
        let case = Case {
            seed,
            n_batches,
            rows_per_batch,
            flush_every,
            backup_after: backup_frac * n_batches / 3,
            crash_after: crash.map(|c| c % n_batches),
            rot_primary,
        };
        let out = run_case(&case);
        prop_assert!(out.generations >= 1 || case.crash_after == Some(case.backup_after));
        prop_assert!(!out.fences.is_empty(), "no batch ever committed");

        // Every committed fence is a valid PITR target; check the final
        // fence plus one interior fence to bound runtime.
        let last = out.fences.len() - 1;
        let mid = last / 2;
        for &i in &[mid, last] {
            let (got, report) = restore_cells(&out.dest, out.fences[i], seed ^ i as u64);
            let want = &out.oracle_at[i];
            prop_assert_eq!(
                &got, want,
                "restore at fence {} (vts {}) diverged from the oracle prefix",
                i, out.fences[i]
            );
            prop_assert!(
                report.conserved(),
                "ledger unbalanced at fence {}: {:?}",
                i, report
            );
            // restored_rows counts physical rows (adopted chunk rows plus
            // distinct replayed cells); LWW collisions inside the chunk
            // set mean it can exceed the distinct-cell count, never trail
            // it.
            prop_assert!(report.restored_rows >= want.len() as u64);
        }

        // Bit-reproducibility: the same case replays identically.
        let out2 = run_case(&case);
        prop_assert_eq!(out.fences, out2.fences);
        prop_assert_eq!(out.oracle_at.last(), out2.oracle_at.last());
        let t = *out.fences.last().unwrap();
        let (a, _) = restore_cells(&out.dest, t, seed ^ 0xA5);
        let (b, _) = restore_cells(&out2.dest, t, seed ^ 0xA5);
        prop_assert_eq!(a, b, "same-seed restores are not bit-identical");
    }

    /// Corrupted-backup safety: flip one byte anywhere in the backup
    /// destination (manifest, snapshot chunk, or archive segment) and a
    /// restore must either refuse with a typed error or produce a store
    /// that is bit-identical to *some committed oracle prefix* — the full
    /// one when the flipped byte lies in data the restore never touches,
    /// or a shorter fence when the flip mimics a torn final-segment tail
    /// (byte-indistinguishable from a destination crash mid-append, which
    /// restore must tolerate). What it must never do is return a state
    /// matching no prefix. Corruption in bytes whose integrity carries a
    /// witness — a chunk the chosen generation references — is always a
    /// refusal.
    #[test]
    fn corrupted_backups_are_refused_or_harmless_never_wrong(
        seed in any::<u64>(),
        n_batches in 3u64..=6,
        rows_per_batch in 2usize..=4,
    ) {
        let case = Case {
            seed,
            n_batches,
            rows_per_batch,
            flush_every: 2,
            backup_after: n_batches - 1,
            crash_after: None,
            rot_primary: false,
        };
        let out = run_case(&case);
        let t = *out.fences.last().unwrap();
        let want = out.oracle_at.last().unwrap();

        // Arbitrary victim byte anywhere on the destination.
        let mut names = out.dest.list().unwrap();
        names.retain(|n| n.contains("chunk-") || n.starts_with("archive/") || n.contains("manifest"));
        prop_assert!(!names.is_empty(), "backup destination holds no payload files");
        names.sort();
        let victim = names[(seed as usize) % names.len()].clone();
        let mut data = out.dest.read(&victim).unwrap();
        prop_assert!(!data.is_empty());
        let at = (seed as usize / 7) % data.len();
        data[at] ^= 1 << (seed % 8);
        let mut f = out.dest.create(&victim).unwrap();
        f.append(&data).unwrap();
        f.sync().unwrap();

        let scratch = MemDisk::new(seed | 1);
        match restore_at(&out.dest, Arc::new(scratch.clone()) as Arc<dyn Vfs>, t) {
            Err(
                BackupError::NoBackup
                | BackupError::ManifestCorrupt { .. }
                | BackupError::ChunkCorrupt { .. }
                | BackupError::ArchiveCorrupt { .. }
                | BackupError::ArchiveGap { .. }
                | BackupError::ArchiveDecode { .. },
            ) => {}
            Err(other) => prop_assert!(
                false,
                "unexpected refusal for victim {}: {:?}", victim, other
            ),
            Ok(_) => {
                // The restore accepted the bytes: the result must be a
                // bit-exact committed prefix — usually the full oracle
                // (flip outside everything read), possibly an earlier
                // fence (flip forged a torn tail on the last segment).
                let (mut restored, _) =
                    TsStore::open(Arc::new(scratch), manual_opts()).unwrap();
                let got = cells_of(&restored.scan().unwrap());
                let is_prefix = got.is_empty()
                    || out.oracle_at.iter().any(|m| m == &got);
                prop_assert!(
                    is_prefix,
                    "corruption in {} restored a state matching no oracle prefix:\n got {:?}\nwant (full) {:?}",
                    victim, got, want
                );
            }
        }

        // Guaranteed-refusal half: corrupt a chunk the chosen generation
        // references — the restore verifies every referenced chunk, so
        // this must always be a typed refusal, never a restored store.
        let out2 = run_case(&case);
        let gens = list_generations(&out2.dest).unwrap();
        prop_assert_eq!(gens.len(), 1);
        let needed = format!("gen-{:08}/{}", gens[0].gen, gens[0].chunks[0].name);
        let mut data = out2.dest.read(&needed).unwrap();
        let at = (seed as usize / 3) % data.len();
        data[at] ^= 0x40;
        let mut f = out2.dest.create(&needed).unwrap();
        f.append(&data).unwrap();
        f.sync().unwrap();
        let scratch2 = MemDisk::new(seed | 1);
        match restore_at(&out2.dest, Arc::new(scratch2) as Arc<dyn Vfs>, t) {
            Err(BackupError::ChunkCorrupt { .. } | BackupError::ManifestCorrupt { .. }) => {}
            other => prop_assert!(
                false,
                "corrupt referenced chunk {} was not refused: {:?}",
                needed,
                other.map(|r| format!("{r:?}"))
            ),
        }
    }

    /// Crash-during-backup: the destination disk dies mid-snapshot. The
    /// torn generation must be invisible (no valid manifest), the live
    /// store untouched, and the next backup tick must produce a complete
    /// generation that restores faithfully.
    #[test]
    fn torn_backup_generation_is_invisible_and_recoverable(
        seed in any::<u64>(),
        n_batches in 3u64..=6,
        crash_op_offset in 1u64..=6,
    ) {
        let primary = MemDisk::new(seed | 1);
        let dest = MemDisk::new((seed ^ 0xDEAD) | 1);
        let (mut store, _) = TsStore::open(Arc::new(primary.clone()), manual_opts()).unwrap();
        store.enable_backup(Arc::new(dest.clone()) as Arc<dyn Vfs>).unwrap();
        let mut value_seed = seed;
        let mut oracle = CellMap::new();
        for b in 0..n_batches {
            store.note_time((b as i64 + 1) * 1_000);
            let rows = batch(b, 3, &mut value_seed);
            store.append_owned(rows.clone());
            store.commit().unwrap();
            oracle.extend(cells_of(&rows));
            store.flush().unwrap();
        }
        let live_before = cells_of(&store.scan().unwrap());

        // Kill the destination a few ops into the snapshot copy.
        dest.schedule_fault(FaultPlan {
            crash_at_op: dest.ops_done() + crash_op_offset,
            mode: FaultMode::TornTail,
        });
        prop_assert!(store.backup_now().is_err(), "backup must surface the dest crash");
        dest.restart();

        // Torn generation: no valid manifest committed.
        prop_assert!(list_generations(&dest).unwrap().is_empty());
        // Live store untouched by the failed backup.
        prop_assert_eq!(&cells_of(&store.scan().unwrap()), &live_before);
        // The chunk pins were released: compaction may proceed.
        store.append_owned(vec![RowRecord::new("s0", "f0", 999_999, ColumnValue::F64(1.5))]);
        store.note_time((n_batches as i64 + 1) * 1_000);
        store.commit().unwrap();
        store.flush().unwrap();
        store.compact(None).unwrap();
        for seq in 0..n_batches {
            prop_assert!(
                !primary.exists(&chunk_name(seq)).unwrap(),
                "aborted backup left chunk {} pinned", seq
            );
        }

        // Next tick: a complete generation that restores bit-exactly.
        let report = store.backup_now().unwrap();
        prop_assert!(report.chunks >= 1);
        let gens = list_generations(&dest).unwrap();
        prop_assert_eq!(gens.len(), 1);
        prop_assert_eq!(gens[0].gen, report.gen);
        let (got, rr) = restore_cells(&dest, i64::MAX, seed ^ 0x51);
        prop_assert_eq!(&got, &cells_of(&store.scan().unwrap()));
        prop_assert!(rr.conserved(), "{:?}", rr);
    }
}

/// Restore-from-snapshot does real work: with a generation present, the
/// restore copies chunks and replays only the archive tail beyond the
/// fence, while an archive-only replay (`restore_replay_all`) walks every
/// record. Both agree bit-exactly; the snapshot path replays strictly
/// fewer records. This is the correctness half of the ≥5x bench gate.
#[test]
fn snapshot_restore_agrees_with_full_replay_and_replays_less() {
    let primary = MemDisk::new(0x00C0_FFEE | 1);
    let dest = MemDisk::new(0xBEEF | 1);
    let (mut store, _) = TsStore::open(Arc::new(primary), manual_opts()).unwrap();
    store
        .enable_backup(Arc::new(dest.clone()) as Arc<dyn Vfs>)
        .unwrap();
    let mut seed = 7u64;
    for b in 0..20u64 {
        store.note_time((b as i64 + 1) * 1_000);
        store.append_owned(batch(b, 4, &mut seed));
        store.commit().unwrap();
        if b % 4 == 3 {
            store.flush().unwrap();
        }
        if b == 15 {
            store.backup_now().unwrap();
        }
    }
    let t = 21_000i64;
    let scratch_a = MemDisk::new(3);
    let snap = restore_at(&dest, Arc::new(scratch_a.clone()) as Arc<dyn Vfs>, t).unwrap();
    let scratch_b = MemDisk::new(5);
    let full = restore_replay_all(&dest, Arc::new(scratch_b.clone()) as Arc<dyn Vfs>, t).unwrap();
    assert!(snap.gen.is_some(), "snapshot path must use the generation");
    assert!(
        full.gen.is_none(),
        "replay-all path must ignore generations"
    );
    assert!(
        snap.replayed_records < full.replayed_records,
        "snapshot restore replayed {} records, full replay {}",
        snap.replayed_records,
        full.replayed_records
    );
    // The snapshot sits 4/5 into the stream, so the tail it replays is at
    // most a fifth of the archive.
    assert!(snap.replayed_records * 5 <= full.replayed_records);
    let (mut a, _) = TsStore::open(Arc::new(scratch_a), manual_opts()).unwrap();
    let (mut b, _) = TsStore::open(Arc::new(scratch_b), manual_opts()).unwrap();
    assert_eq!(
        cells_of(&a.scan().unwrap()),
        cells_of(&b.scan().unwrap()),
        "snapshot restore and full replay disagree"
    );
    assert!(snap.conserved() && full.conserved());
}
