//! Background integrity scrubber.
//!
//! A [`Scrubber`] walks every live chunk and the WAL at a token-bucket
//! limited pace on the virtual clock, CRC-verifying each file via
//! [`TsStore::verify_chunk`] / [`TsStore::scrub_wal`]. The bucket's
//! refill rate is derived per pass from the bytes to cover and the
//! configured full-pass period, so full-store verification completes
//! within the scrubber's full-pass period regardless of store size —
//! while each individual tick touches only as many bytes as the bucket
//! allows, keeping the scrubber from starving ingest.
//!
//! Damage handling lives in the store (quarantine for chunks, lossless
//! memtable rewrite for the WAL); the scrubber only decides *when* each
//! file gets looked at and reports what the pass found.

use crate::error::StoreResult;
use crate::store::{QuarantinedChunk, TsStore, VerifyOutcome, WalScrub};

/// Token-bucket burst: the most bytes one tick may verify beyond its
/// accrued refill.
const BURST_BYTES: f64 = 64.0 * 1024.0;

/// What one [`Scrubber::tick`] accomplished.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScrubReport {
    /// Files (chunks + WAL) verified this tick.
    pub files_checked: u64,
    /// Bytes read and checksummed this tick.
    pub bytes_verified: u64,
    /// Chunks found damaged and quarantined this tick.
    pub quarantined: Vec<QuarantinedChunk>,
    /// WAL scan outcome, when the WAL was visited this tick.
    pub wal: Option<WalScrub>,
    /// Full passes completed by the end of this tick.
    pub full_passes_completed: u64,
    /// Modeled read time for the verified bytes, in nanoseconds.
    pub modeled_ns: u64,
}

/// One file the current pass still has to visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PassItem {
    Chunk(u64),
    Wal,
}

/// State of an in-flight pass: the work list snapshot and its rate.
#[derive(Debug)]
struct Pass {
    items: Vec<PassItem>,
    idx: usize,
    /// Token refill, bytes per virtual second.
    rate: f64,
}

/// Token-bucket paced integrity verifier over one [`TsStore`].
#[derive(Debug)]
pub struct Scrubber {
    /// Target period for one full-store verification pass, in virtual
    /// seconds. The token refill rate is derived from this and the pass
    /// size, so bigger stores scrub faster rather than falling behind.
    period_s: f64,
    tokens: f64,
    last_s: Option<f64>,
    pass: Option<Pass>,
    full_passes: u64,
}

impl Scrubber {
    /// Scrubber that verifies the whole store once every `period_s`
    /// virtual seconds; the first tick starts the first pass.
    pub fn new(period_s: f64) -> Scrubber {
        Scrubber {
            period_s,
            tokens: BURST_BYTES,
            last_s: None,
            pass: None,
            full_passes: 0,
        }
    }

    /// The full-pass period this scrubber was built with.
    pub fn period_s(&self) -> f64 {
        self.period_s
    }

    /// Snapshot the store's current file set as a new pass work list.
    fn start_pass(&mut self, store: &TsStore) -> Pass {
        let mut items: Vec<PassItem> = store
            .chunk_seqs()
            .iter()
            .map(|&s| PassItem::Chunk(s))
            .collect();
        items.push(PassItem::Wal);
        let total_bytes: f64 = store
            .chunk_seqs()
            .iter()
            .filter_map(|&s| store.chunk_bytes(s))
            .sum::<u64>() as f64
            + store.wal_size().unwrap_or(0) as f64;
        // Cover the whole snapshot within one period; the 1-byte/s floor
        // keeps an empty store's pass finishing instead of stalling.
        let rate = (total_bytes / self.period_s.max(1e-9)).max(1.0);
        Pass {
            items,
            idx: 0,
            rate,
        }
    }

    /// Advance the scrubber to virtual time `now_s`, verifying as many
    /// files as the token bucket allows. Passes roll over automatically:
    /// when one completes, `TsStore::note_full_scrub_pass` stamps the
    /// staleness gauge and the next tick snapshots a fresh work list.
    pub fn tick(&mut self, store: &mut TsStore, now_s: f64) -> StoreResult<ScrubReport> {
        let mut report = ScrubReport::default();
        let elapsed = match self.last_s {
            Some(last) => (now_s - last).max(0.0),
            None => 0.0,
        };
        self.last_s = Some(now_s);
        let rate = match &self.pass {
            Some(p) => p.rate,
            None => 0.0,
        };
        self.tokens = (self.tokens + elapsed * rate).min(BURST_BYTES.max(rate * elapsed));
        loop {
            if self.pass.is_none() {
                self.pass = Some(self.start_pass(store));
            }
            let pass = self.pass.as_mut().expect("pass just ensured");
            let Some(&item) = pass.items.get(pass.idx) else {
                // Pass exhausted: stamp it and wait for the next tick to
                // snapshot fresh work (ticking twice in the same instant
                // must not loop forever on an empty store).
                self.pass = None;
                self.full_passes += 1;
                store.note_full_scrub_pass(now_s);
                break;
            };
            // Deficit pacing: any positive balance admits the next file,
            // which then charges its full size — large files overdraw the
            // bucket and pay it back in elapsed time, so no file can
            // exceed the burst and starve verification forever.
            if self.tokens <= 0.0 {
                break;
            }
            pass.idx += 1;
            match item {
                PassItem::Chunk(seq) => match store.verify_chunk(seq)? {
                    Some(VerifyOutcome::Clean { bytes }) => {
                        self.tokens -= bytes as f64;
                        report.files_checked += 1;
                        report.bytes_verified += bytes;
                    }
                    Some(VerifyOutcome::Quarantined(q)) => {
                        self.tokens -= q.bytes as f64;
                        report.files_checked += 1;
                        report.bytes_verified += q.bytes;
                        report.quarantined.push(q);
                    }
                    // Compacted away since the snapshot — nothing to read.
                    None => {}
                },
                PassItem::Wal => {
                    let wal = store.scrub_wal()?;
                    self.tokens -= wal.bytes_scanned as f64;
                    report.files_checked += 1;
                    report.bytes_verified += wal.bytes_scanned;
                    report.wal = Some(wal);
                }
            }
        }
        report.full_passes_completed = self.full_passes;
        report.modeled_ns = store.modeled_commit_ns(report.bytes_verified);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memdisk::{MemDisk, RotSchedule};
    use crate::row::{ColumnValue, RowRecord};
    use crate::store::{DetectionSite, StoreOptions};
    use crate::vfs::Vfs;
    use std::sync::Arc;

    fn row(ts: i64, v: f64) -> RowRecord {
        RowRecord::new("cpu,host=a", "_cpu0", ts, ColumnValue::F64(v))
    }

    fn opts() -> StoreOptions {
        StoreOptions {
            flush_threshold_rows: 64,
            compact_min_chunks: 100,
        }
    }

    /// A store with `chunks` flushed chunks of `rows` rows each and a few
    /// WAL-resident rows. Values are scrambled so chunks barely compress.
    fn seeded_store(seed: u64, chunks: usize, rows: i64) -> (MemDisk, TsStore) {
        let disk = MemDisk::new(seed);
        let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
        let (mut store, _) = TsStore::open(vfs, opts()).unwrap();
        let scrambled = |ts: i64| (ts as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as f64;
        let mut ts = 0i64;
        for _ in 0..chunks {
            let rows: Vec<RowRecord> = (0..rows).map(|i| row(ts + i, scrambled(ts + i))).collect();
            ts += rows.len() as i64;
            store.append_owned(rows);
            store.commit().unwrap();
            store.flush().unwrap();
        }
        store.append_owned(vec![row(ts, ts as f64), row(ts + 1, (ts + 1) as f64)]);
        store.commit().unwrap();
        (disk, store)
    }

    #[test]
    fn clean_store_scrubs_with_no_findings() {
        let (_disk, mut store) = seeded_store(1, 3, 16);
        let mut scrubber = Scrubber::new(10.0);
        let mut now = 0.0;
        let (mut total_checked, mut passes) = (0, 0);
        while passes == 0 {
            let r = scrubber.tick(&mut store, now).unwrap();
            passes = r.full_passes_completed;
            total_checked += r.files_checked;
            assert!(r.quarantined.is_empty());
            now += 1.0;
            assert!(now < 100.0, "pass failed to finish in bounded time");
        }
        // 3 chunks + the WAL.
        assert_eq!(total_checked, 4);
        assert!(store.quarantined().is_empty());
        // A full pass completes within the configured period (one extra
        // tick carries the pass-completion bookkeeping).
        assert!(now <= 12.0, "pass took {now}s against a 10s period");
    }

    #[test]
    fn rate_limit_spreads_work_across_ticks() {
        // Eight ~40 KB chunks: several times the burst, so no tick can
        // verify the whole store at once.
        let (_disk, mut store) = seeded_store(2, 8, 4096);
        let mut scrubber = Scrubber::new(8.0);
        let (mut per_tick, mut passes) = (Vec::new(), 0);
        let mut now = 0.0;
        while passes == 0 {
            let r = scrubber.tick(&mut store, now).unwrap();
            passes = r.full_passes_completed;
            per_tick.push(r.files_checked);
            now += 1.0;
            assert!(now < 64.0);
        }
        // The work list (8 chunks + WAL) was not swallowed in one tick.
        assert!(per_tick.iter().filter(|&&n| n > 0).count() > 1);
        assert_eq!(per_tick.iter().sum::<u64>(), 9);
    }

    #[test]
    fn rotted_chunk_is_detected_within_one_pass_and_quarantined() {
        let (disk, mut store) = seeded_store(3, 4, 16);
        disk.schedule_rot(RotSchedule::none().at(1.0, 1).with_prefix("chunk-"));
        disk.advance_rot(2.0);
        let mut scrubber = Scrubber::new(10.0);
        let mut now = 2.0;
        let (mut quarantined, mut passes) = (Vec::new(), 0);
        while passes == 0 {
            let r = scrubber.tick(&mut store, now).unwrap();
            passes = r.full_passes_completed;
            quarantined.extend(r.quarantined);
            now += 1.0;
            assert!(now < 100.0);
        }
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].site, DetectionSite::Scrub);
        assert_eq!(quarantined[0].rows, 16);
        assert!(quarantined[0].time_range.is_some());
        assert_eq!(store.chunk_seqs().len(), 3);
        assert_eq!(store.quarantined(), &quarantined[..]);
        // Evidence preserved under quarantine/.
        let q = crate::store::quarantine_name(quarantined[0].seq);
        assert!(disk.exists(&q).unwrap());
        // The scan keeps serving the survivors.
        assert_eq!(store.scan().unwrap().len(), 3 * 16 + 2);
    }

    #[test]
    fn rotted_wal_is_rewritten_from_memtable() {
        let (disk, mut store) = seeded_store(4, 1, 16);
        assert_eq!(store.memtable_rows(), 2);
        disk.schedule_rot(RotSchedule::none().at(1.0, 1).with_prefix("wal.log"));
        disk.advance_rot(1.0);
        let mut scrubber = Scrubber::new(60.0);
        let mut now = 1.0;
        let (mut wal, mut passes) = (None, 0);
        while passes == 0 {
            let r = scrubber.tick(&mut store, now).unwrap();
            passes = r.full_passes_completed;
            wal = r.wal.or(wal);
            now += 1.0;
            assert!(now < 200.0);
        }
        let wal = wal.expect("WAL visited in a full pass");
        assert_eq!(wal.corrupt_frames, 1);
        assert_eq!(wal.rows_rewritten, 2);
        // After the rewrite the log verifies clean and replays losslessly.
        assert_eq!(store.scrub_wal().unwrap().corrupt_frames, 0);
        let rows = store.scan().unwrap();
        drop(store);
        let vfs: Arc<dyn Vfs> = Arc::new(disk);
        let (mut reopened, report) = TsStore::open(vfs, opts()).unwrap();
        assert_eq!(report.wal_corrupt_frames, 0);
        assert_eq!(reopened.scan().unwrap(), rows);
    }

    #[test]
    fn same_seed_scrub_is_deterministic() {
        let run = |seed: u64| {
            let (disk, mut store) = seeded_store(seed, 4, 16);
            disk.schedule_rot(RotSchedule::random(seed, 3, 0.0, 20.0).with_prefix("chunk-"));
            let mut scrubber = Scrubber::new(10.0);
            let mut out = Vec::new();
            for step in 0..40 {
                let now = step as f64;
                disk.advance_rot(now);
                out.push(scrubber.tick(&mut store, now).unwrap());
            }
            (out, store.quarantined().to_vec())
        };
        assert_eq!(run(7), run(7));
    }
}
