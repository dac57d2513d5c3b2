//! Deterministic fault-injecting in-memory disk.
//!
//! `MemDisk` models the failure behaviour that matters to a WAL: a crash
//! can lose everything since the last sync (clean stop), persist only a
//! prefix of the bytes in flight (torn tail), or corrupt already-durable
//! bytes (bit flip — the model for latent media errors surfacing across
//! a restart). Which fault fires, where it lands, and how many bytes
//! survive are all derived from a caller-supplied seed, so every
//! crash-recovery property case replays exactly.
//!
//! Durability accounting is layered on the `hwsim` block-device model:
//! every sync charges the configured [`DiskSpec`] with the bytes made
//! durable, giving the store deterministic modeled commit latencies.

use crate::error::{StoreError, StoreResult};
use crate::vfs::{Vfs, VirtualFile};
use parking_lot::Mutex;
use pmove_hwsim::disk::{DiskSpec, DiskUsage};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Block size charged to the disk model per sync.
const SYNC_BLOCK_SIZE: usize = 8192;

/// What a scheduled crash does to the bytes in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Drop every unsynced byte; durable data is untouched.
    CleanStop,
    /// Persist a seed-chosen prefix of the unsynced bytes of the file
    /// being synced, drop the rest (a torn tail).
    TornTail,
    /// Persist a prefix like [`FaultMode::TornTail`], then flip one
    /// seed-chosen bit of the target file's durable bytes.
    BitFlip,
}

/// A scheduled crash: fire at the Nth write/sync operation.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// 1-based index of the append/sync operation that crashes.
    pub crash_at_op: u64,
    /// Damage model applied at the crash point.
    pub mode: FaultMode,
}

/// One scheduled latent-rot event: at virtual time `at_s`, `flips`
/// single-bit flips land in seed-chosen durable bytes. Unlike a
/// [`FaultPlan`] crash, rot is silent — the disk keeps serving reads and
/// writes, and nothing notices until a checksum is verified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RotEvent {
    /// Virtual time (seconds) at which the bits flip.
    pub at_s: f64,
    /// Single-bit flips applied by this event.
    pub flips: u32,
}

/// A latent media-rot schedule on the virtual clock. The schedule is
/// inert until the host drives [`MemDisk::advance_rot`] forward; every
/// event with `at_s <= now` then fires exactly once, choosing its victim
/// file, byte offset, and bit from the disk's seeded RNG — so a given
/// (seed, schedule) pair rots identically on every run.
#[derive(Debug, Clone, Default)]
pub struct RotSchedule {
    /// Events, fired in ascending `at_s` order.
    pub events: Vec<RotEvent>,
    /// Restrict flips to files whose name starts with this prefix
    /// (e.g. `"chunk-"` to rot only chunk files). `None` rots any file.
    pub target_prefix: Option<String>,
}

impl RotSchedule {
    /// Empty schedule (no rot).
    pub fn none() -> RotSchedule {
        RotSchedule::default()
    }

    /// Append one event flipping `flips` bits at `at_s`.
    pub fn at(mut self, at_s: f64, flips: u32) -> RotSchedule {
        self.events.push(RotEvent { at_s, flips });
        self
    }

    /// Restrict the schedule to files whose name starts with `prefix`.
    pub fn with_prefix(mut self, prefix: impl Into<String>) -> RotSchedule {
        self.target_prefix = Some(prefix.into());
        self
    }

    /// Seeded random schedule: `events` single-flip events uniformly
    /// placed in `[start_s, end_s)`.
    pub fn random(seed: u64, events: u32, start_s: f64, end_s: f64) -> RotSchedule {
        let mut state = seed ^ 0x6A09_E667_F3BC_C908;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let span = (end_s - start_s).max(0.0);
        let mut out = RotSchedule::none();
        for _ in 0..events {
            let frac = (next() >> 11) as f64 / (1u64 << 53) as f64;
            out.events.push(RotEvent {
                at_s: start_s + frac * span,
                flips: 1,
            });
        }
        out.events
            .sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).unwrap());
        out
    }
}

/// Where one latent bit flip actually landed.
#[derive(Debug, Clone, PartialEq)]
pub struct RotRecord {
    /// Event time of the flip.
    pub at_s: f64,
    /// Victim file.
    pub file: String,
    /// Byte offset within the file's durable bytes.
    pub offset: u64,
    /// Bit index flipped (0–7).
    pub bit: u8,
}

struct FileBuf {
    durable: Vec<u8>,
    volatile: Vec<u8>,
}

/// Quarantined evidence is never re-rotted: the bytes are already known
/// bad and further flips would only make seeded cases non-reproducible.
const ROT_EXEMPT_PREFIX: &str = "quarantine/";

struct Inner {
    files: BTreeMap<String, FileBuf>,
    spec: DiskSpec,
    usage: DiskUsage,
    plan: Option<FaultPlan>,
    ops_done: u64,
    crashed: bool,
    faults_fired: u32,
    rng: u64,
    rot_events: Vec<RotEvent>,
    rot_prefix: Option<String>,
    rot_fired: usize,
}

impl Inner {
    fn rng_next(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn check_live(&self) -> StoreResult<()> {
        if self.crashed {
            Err(StoreError::DiskCrashed)
        } else {
            Ok(())
        }
    }

    /// Count one write/sync op; returns true when this op crashes.
    fn tick(&mut self) -> bool {
        self.ops_done += 1;
        matches!(self.plan, Some(p) if p.crash_at_op == self.ops_done)
    }

    /// Apply the scheduled fault during an operation on `target`.
    fn crash(&mut self, target: &str) {
        let mode = self.plan.expect("crash without plan").mode;
        self.crashed = true;
        self.faults_fired += 1;
        if matches!(mode, FaultMode::TornTail | FaultMode::BitFlip) {
            let r = self.rng_next();
            if let Some(f) = self.files.get_mut(target) {
                // r ∈ [0, len]: anything from nothing to all in-flight
                // bytes may have reached the platter.
                let keep = if f.volatile.is_empty() {
                    0
                } else {
                    (r % (f.volatile.len() as u64 + 1)) as usize
                };
                let torn: Vec<u8> = f.volatile[..keep].to_vec();
                f.durable.extend_from_slice(&torn);
            }
        }
        if mode == FaultMode::BitFlip {
            let (offset, bit) = {
                let len = self.files.get(target).map(|f| f.durable.len()).unwrap_or(0);
                if len == 0 {
                    (None, 0)
                } else {
                    let off = (self.rng_next() % len as u64) as usize;
                    let bit = (self.rng_next() % 8) as u8;
                    (Some(off), bit)
                }
            };
            if let (Some(off), Some(f)) = (offset, self.files.get_mut(target)) {
                f.durable[off] ^= 1 << bit;
            }
        }
        for f in self.files.values_mut() {
            f.volatile.clear();
        }
    }

    /// Fire one rot event: flip `flips` seed-chosen bits, each in the
    /// durable bytes of an eligible file. Rot is a platter phenomenon —
    /// it does not tick the fault-op space and works even while crashed.
    fn apply_rot(&mut self, ev: RotEvent) -> Vec<RotRecord> {
        let mut out = Vec::new();
        for _ in 0..ev.flips {
            let eligible: Vec<String> = self
                .files
                .iter()
                .filter(|(name, f)| {
                    !f.durable.is_empty()
                        && !name.starts_with(ROT_EXEMPT_PREFIX)
                        && self
                            .rot_prefix
                            .as_deref()
                            .is_none_or(|p| name.starts_with(p))
                })
                .map(|(name, _)| name.clone())
                .collect();
            if eligible.is_empty() {
                continue;
            }
            let victim = eligible[(self.rng_next() % eligible.len() as u64) as usize].clone();
            let len = self.files[&victim].durable.len() as u64;
            let offset = self.rng_next() % len;
            let bit = (self.rng_next() % 8) as u8;
            if let Some(f) = self.files.get_mut(&victim) {
                f.durable[offset as usize] ^= 1 << bit;
            }
            out.push(RotRecord {
                at_s: ev.at_s,
                file: victim,
                offset,
                bit,
            });
        }
        out
    }
}

/// The shared fault-injecting disk; clones are handles to the same disk.
#[derive(Clone)]
pub struct MemDisk {
    inner: Arc<Mutex<Inner>>,
}

impl MemDisk {
    /// Fresh disk with a deterministic fault/placement RNG seeded from
    /// `seed`, modeled as the paper's SATA target.
    pub fn new(seed: u64) -> MemDisk {
        MemDisk::with_spec(seed, DiskSpec::sata("memdisk"))
    }

    /// [`MemDisk::new`] with an explicit block-device model.
    pub fn with_spec(seed: u64, spec: DiskSpec) -> MemDisk {
        MemDisk {
            inner: Arc::new(Mutex::new(Inner {
                files: BTreeMap::new(),
                spec,
                usage: DiskUsage::default(),
                plan: None,
                ops_done: 0,
                crashed: false,
                faults_fired: 0,
                rng: seed ^ 0xA076_1D64_78BD_642F,
                rot_events: Vec::new(),
                rot_prefix: None,
                rot_fired: 0,
            })),
        }
    }

    /// Schedule a crash; replaces any previous plan.
    pub fn schedule_fault(&self, plan: FaultPlan) {
        self.inner.lock().plan = Some(plan);
    }

    /// Simulate power-on after a crash: unsynced bytes are gone, the
    /// pending fault plan is cleared, and operations succeed again.
    pub fn restart(&self) {
        let mut inner = self.inner.lock();
        for f in inner.files.values_mut() {
            f.volatile.clear();
        }
        inner.crashed = false;
        inner.plan = None;
    }

    /// Install a latent-rot schedule; replaces any previous schedule and
    /// resets the fired cursor. Events fire when [`MemDisk::advance_rot`]
    /// passes their `at_s`.
    pub fn schedule_rot(&self, schedule: RotSchedule) {
        let mut inner = self.inner.lock();
        let mut events = schedule.events;
        events.sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).unwrap());
        inner.rot_events = events;
        inner.rot_prefix = schedule.target_prefix;
        inner.rot_fired = 0;
    }

    /// Advance the rot clock to `now_s`, firing every unfired event with
    /// `at_s <= now_s`. Returns where each flip landed (for test oracles);
    /// the flips themselves are silent to the store.
    pub fn advance_rot(&self, now_s: f64) -> Vec<RotRecord> {
        let mut inner = self.inner.lock();
        let mut out = Vec::new();
        while inner.rot_fired < inner.rot_events.len()
            && inner.rot_events[inner.rot_fired].at_s <= now_s
        {
            let ev = inner.rot_events[inner.rot_fired];
            inner.rot_fired += 1;
            out.extend(inner.apply_rot(ev));
        }
        out
    }

    /// Has a scheduled fault fired?
    pub fn crashed(&self) -> bool {
        self.inner.lock().crashed
    }

    /// Number of faults that have fired over the disk's lifetime.
    pub fn faults_fired(&self) -> u32 {
        self.inner.lock().faults_fired
    }

    /// Write/sync operations performed so far (the fault-op index space).
    pub fn ops_done(&self) -> u64 {
        self.inner.lock().ops_done
    }

    /// Cumulative modeled disk accounting.
    pub fn usage(&self) -> DiskUsage {
        self.inner.lock().usage
    }

    /// Total durable bytes across all files.
    pub fn durable_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.files.values().map(|f| f.durable.len() as u64).sum()
    }
}

struct MemFile {
    inner: Arc<Mutex<Inner>>,
    name: String,
}

impl VirtualFile for MemFile {
    fn append(&mut self, data: &[u8]) -> StoreResult<()> {
        let mut inner = self.inner.lock();
        inner.check_live()?;
        if inner.tick() {
            inner.crash(&self.name);
            return Err(StoreError::DiskCrashed);
        }
        inner
            .files
            .get_mut(&self.name)
            .ok_or_else(|| StoreError::Io(format!("file removed under writer: {}", self.name)))?
            .volatile
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self) -> StoreResult<()> {
        let mut inner = self.inner.lock();
        inner.check_live()?;
        if inner.tick() {
            inner.crash(&self.name);
            return Err(StoreError::DiskCrashed);
        }
        let pending = {
            let f = inner.files.get_mut(&self.name).ok_or_else(|| {
                StoreError::Io(format!("file removed under writer: {}", self.name))
            })?;
            let pending = std::mem::take(&mut f.volatile);
            f.durable.extend_from_slice(&pending);
            pending.len() as u64
        };
        if pending > 0 {
            let spec = inner.spec.clone();
            inner.usage.record_write(&spec, pending, SYNC_BLOCK_SIZE);
        }
        Ok(())
    }

    fn len(&self) -> StoreResult<u64> {
        let inner = self.inner.lock();
        inner.check_live()?;
        let f = inner
            .files
            .get(&self.name)
            .ok_or_else(|| StoreError::Io(format!("no such file: {}", self.name)))?;
        Ok((f.durable.len() + f.volatile.len()) as u64)
    }
}

impl Vfs for MemDisk {
    fn open_append(&self, name: &str) -> StoreResult<Box<dyn VirtualFile>> {
        let mut inner = self.inner.lock();
        inner.check_live()?;
        inner.files.entry(name.to_string()).or_insert(FileBuf {
            durable: Vec::new(),
            volatile: Vec::new(),
        });
        Ok(Box::new(MemFile {
            inner: self.inner.clone(),
            name: name.to_string(),
        }))
    }

    fn create(&self, name: &str) -> StoreResult<Box<dyn VirtualFile>> {
        let mut inner = self.inner.lock();
        inner.check_live()?;
        // Truncation mutates the platter, so it participates in the
        // fault-op index space; a crash here leaves the old content.
        if inner.tick() {
            inner.crash(name);
            return Err(StoreError::DiskCrashed);
        }
        inner.files.insert(
            name.to_string(),
            FileBuf {
                durable: Vec::new(),
                volatile: Vec::new(),
            },
        );
        Ok(Box::new(MemFile {
            inner: self.inner.clone(),
            name: name.to_string(),
        }))
    }

    fn read(&self, name: &str) -> StoreResult<Vec<u8>> {
        let inner = self.inner.lock();
        inner.check_live()?;
        let f = inner
            .files
            .get(name)
            .ok_or_else(|| StoreError::Io(format!("no such file: {name}")))?;
        let mut out = f.durable.clone();
        out.extend_from_slice(&f.volatile);
        Ok(out)
    }

    fn list(&self) -> StoreResult<Vec<String>> {
        let inner = self.inner.lock();
        inner.check_live()?;
        Ok(inner.files.keys().cloned().collect())
    }

    fn remove(&self, name: &str) -> StoreResult<()> {
        let mut inner = self.inner.lock();
        inner.check_live()?;
        inner.files.remove(name);
        Ok(())
    }

    fn exists(&self, name: &str) -> StoreResult<bool> {
        let inner = self.inner.lock();
        inner.check_live()?;
        Ok(inner.files.contains_key(name))
    }

    fn disk_spec(&self) -> DiskSpec {
        self.inner.lock().spec.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_sync_read_roundtrip() {
        let disk = MemDisk::new(1);
        let mut f = disk.create("wal").unwrap();
        f.append(b"abc").unwrap();
        f.sync().unwrap();
        f.append(b"def").unwrap();
        // Unsynced bytes are visible to live reads...
        assert_eq!(disk.read("wal").unwrap(), b"abcdef");
        // ...but only synced bytes are durable.
        assert_eq!(disk.durable_bytes(), 3);
        assert!(disk.usage().bytes_written == 3);
    }

    #[test]
    fn clean_stop_loses_unsynced_only() {
        let disk = MemDisk::new(2);
        let mut f = disk.create("wal").unwrap();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        disk.schedule_fault(FaultPlan {
            crash_at_op: disk.ops_done() + 2, // the sync below
            mode: FaultMode::CleanStop,
        });
        f.append(b" lost").unwrap();
        assert_eq!(f.sync().unwrap_err(), StoreError::DiskCrashed);
        assert!(disk.crashed());
        // Everything errors until restart.
        assert!(disk.read("wal").is_err());
        disk.restart();
        assert_eq!(disk.read("wal").unwrap(), b"durable");
    }

    #[test]
    fn torn_tail_persists_a_prefix() {
        let disk = MemDisk::new(3);
        let mut f = disk.create("wal").unwrap();
        f.append(b"base").unwrap();
        f.sync().unwrap();
        disk.schedule_fault(FaultPlan {
            crash_at_op: disk.ops_done() + 2,
            mode: FaultMode::TornTail,
        });
        f.append(b"0123456789").unwrap();
        assert!(f.sync().is_err());
        disk.restart();
        let got = disk.read("wal").unwrap();
        assert!(got.starts_with(b"base"));
        assert!(got.len() <= 14);
        assert_eq!(&got[4..], &b"0123456789"[..got.len() - 4]);
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let disk = MemDisk::new(4);
        let mut f = disk.create("wal").unwrap();
        let clean = vec![0u8; 64];
        f.append(&clean).unwrap();
        f.sync().unwrap();
        disk.schedule_fault(FaultPlan {
            crash_at_op: disk.ops_done() + 1,
            mode: FaultMode::BitFlip,
        });
        assert!(f.append(b"").is_err());
        disk.restart();
        let got = disk.read("wal").unwrap();
        let flipped: u32 = got
            .iter()
            .zip(&clean)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn same_seed_same_faults() {
        let run = |seed: u64| {
            let disk = MemDisk::new(seed);
            let mut f = disk.create("wal").unwrap();
            f.append(b"base").unwrap();
            f.sync().unwrap();
            disk.schedule_fault(FaultPlan {
                crash_at_op: disk.ops_done() + 2,
                mode: FaultMode::TornTail,
            });
            f.append(b"abcdefghijklmnop").unwrap();
            let _ = f.sync();
            disk.restart();
            disk.read("wal").unwrap()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn latent_rot_fires_on_clock_and_is_silent() {
        let disk = MemDisk::new(9);
        let mut f = disk.create("chunk-00000001.tsm").unwrap();
        let clean = vec![0u8; 128];
        f.append(&clean).unwrap();
        f.sync().unwrap();
        disk.schedule_rot(RotSchedule::none().at(10.0, 1).at(20.0, 2));
        // Nothing fires before its time.
        assert!(disk.advance_rot(9.99).is_empty());
        let first = disk.advance_rot(10.0);
        assert_eq!(first.len(), 1);
        // The disk keeps serving reads — rot is silent.
        let got = disk.read("chunk-00000001.tsm").unwrap();
        let flipped: u32 = got
            .iter()
            .zip(&clean)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        assert!(!disk.crashed());
        // Advancing past both remaining flips fires them exactly once.
        let rest = disk.advance_rot(100.0);
        assert_eq!(rest.len(), 2);
        assert!(disk.advance_rot(1000.0).is_empty());
    }

    #[test]
    fn rot_respects_prefix_and_quarantine_exemption() {
        let disk = MemDisk::new(11);
        for name in ["chunk-00000001.tsm", "wal.log", "quarantine/chunk-x"] {
            let mut f = disk.create(name).unwrap();
            f.append(&[0u8; 64]).unwrap();
            f.sync().unwrap();
        }
        disk.schedule_rot(RotSchedule::random(3, 16, 0.0, 50.0).with_prefix("chunk-"));
        let records = disk.advance_rot(50.0);
        assert_eq!(records.len(), 16);
        assert!(records.iter().all(|r| r.file == "chunk-00000001.tsm"));
        assert_eq!(disk.read("wal.log").unwrap(), vec![0u8; 64]);
        assert_eq!(disk.read("quarantine/chunk-x").unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn same_seed_same_rot() {
        let run = |seed: u64| {
            let disk = MemDisk::new(seed);
            let mut f = disk.create("chunk-00000001.tsm").unwrap();
            f.append(&[0xAAu8; 256]).unwrap();
            f.sync().unwrap();
            disk.schedule_rot(RotSchedule::random(seed, 4, 0.0, 10.0));
            let records = disk.advance_rot(10.0);
            (records, disk.read("chunk-00000001.tsm").unwrap())
        };
        assert_eq!(run(21), run(21));
    }

    #[test]
    fn create_truncates_and_list_is_sorted() {
        let disk = MemDisk::new(5);
        let mut f = disk.create("b").unwrap();
        f.append(b"x").unwrap();
        f.sync().unwrap();
        disk.create("b").unwrap();
        assert_eq!(disk.read("b").unwrap(), b"");
        disk.create("a").unwrap();
        assert_eq!(disk.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        disk.remove("a").unwrap();
        assert!(!disk.exists("a").unwrap());
    }
}
