//! Append-only write-ahead log.
//!
//! Records are framed as `[len: u32 LE][crc32: u32 LE][payload]` and
//! buffered until [`Wal::commit`], which appends the whole batch in one
//! write and syncs once — the group commit that makes per-point
//! durability affordable on the paper's slow SATA target. A record is
//! *acknowledged* only when the commit that carried it returned `Ok`.
//!
//! On open the log is replayed front to back; the first frame that is
//! short, oversized, or fails its CRC ends the replay (a torn tail or a
//! latent corruption), and the file is rewritten to the surviving valid
//! prefix so later appends land after well-formed frames.

use crate::crc::crc32;
use crate::error::StoreResult;
use crate::vfs::{Vfs, VirtualFile};
use std::sync::Arc;

/// Upper bound on a single record payload; larger lengths in a header are
/// treated as tail corruption rather than an allocation request.
const MAX_RECORD_LEN: u32 = 1 << 28;

/// Outcome of one group commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitInfo {
    /// Records made durable by this commit.
    pub records: u64,
    /// Bytes appended (frames included).
    pub bytes: u64,
}

/// Outcome of replaying a log at open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalReplay {
    /// Well-formed records recovered.
    pub records: u64,
    /// Bytes of tail damage discarded (0 on a clean log).
    pub bytes_dropped: u64,
    /// Frames that were structurally complete but provably damaged — a
    /// CRC mismatch on a fully present payload or an absurd length field.
    /// A short frame at the tail is a torn write, not corruption, and is
    /// not counted here.
    pub corrupt_frames: u64,
}

/// Parse every valid frame in `data`; returns the payloads, the byte
/// length of the valid prefix, and how many frames were rejected as
/// corrupt (as opposed to merely torn short at the tail).
pub(crate) fn scan_frames(data: &[u8]) -> (Vec<Vec<u8>>, usize, u64) {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    let mut corrupt = 0u64;
    while data.len() - pos >= 8 {
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            // A header this large was never written by `append`; the
            // length field itself took the damage.
            corrupt += 1;
            break;
        }
        let end = pos + 8 + len as usize;
        if end > data.len() {
            // Torn tail: the frame simply never finished reaching disk.
            break;
        }
        let payload = &data[pos + 8..end];
        if crc32(payload) != crc {
            // Every byte of the frame is present yet the checksum fails:
            // a bit flip inside the record, not a truncated write.
            corrupt += 1;
            break;
        }
        payloads.push(payload.to_vec());
        pos = end;
    }
    (payloads, pos, corrupt)
}

/// Bytes of a frame's `[len][crc]` header.
pub(crate) const FRAME_HEADER: usize = 8;

/// Fill the `[len][crc]` header at the front of `frame` for the payload
/// behind it: the one place a frame is sealed.
pub(crate) fn seal_frame(frame: &mut [u8]) {
    let (head, payload) = frame.split_at_mut(FRAME_HEADER);
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Append `payload` to `out` as one frame.
fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    out.extend_from_slice(payload);
    seal_frame(&mut out[at..]);
}

/// `payloads` framed as [`Wal::append`] frames them, one after another:
/// the bytes of a log holding exactly those records.
pub(crate) fn frames(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut framed = Vec::new();
    for p in payloads {
        put_frame(&mut framed, p);
    }
    framed
}

/// The write-ahead log over one [`Vfs`] file.
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    name: String,
    file: Box<dyn VirtualFile>,
    /// Encoded frames awaiting the next commit.
    pending: Vec<u8>,
    pending_records: u64,
    /// Records durable in the file.
    durable_records: u64,
}

impl Wal {
    /// Open (or create) the log named `name`, replaying any existing
    /// content. Returns the log positioned for appends plus the recovered
    /// payloads in append order.
    pub fn open(vfs: Arc<dyn Vfs>, name: &str) -> StoreResult<(Wal, Vec<Vec<u8>>, WalReplay)> {
        let existing = if vfs.exists(name)? {
            vfs.read(name)?
        } else {
            Vec::new()
        };
        let (payloads, valid_len, corrupt_frames) = scan_frames(&existing);
        let bytes_dropped = (existing.len() - valid_len) as u64;
        let file = if bytes_dropped > 0 {
            // Rewrite to the valid prefix so future frames append after
            // well-formed ones.
            let mut f = vfs.create(name)?;
            f.append(&existing[..valid_len])?;
            f.sync()?;
            f
        } else {
            vfs.open_append(name)?
        };
        let replay = WalReplay {
            records: payloads.len() as u64,
            bytes_dropped,
            corrupt_frames,
        };
        Ok((
            Wal {
                vfs,
                name: name.to_string(),
                file,
                pending: Vec::new(),
                pending_records: 0,
                durable_records: payloads.len() as u64,
            },
            payloads,
            replay,
        ))
    }

    /// Buffer one record for the next commit.
    pub fn append(&mut self, payload: &[u8]) {
        put_frame(&mut self.pending, payload);
        self.pending_records += 1;
    }

    /// Group-commit every buffered record: one append, one sync. On error
    /// the batch stays buffered and unacknowledged.
    pub fn commit(&mut self) -> StoreResult<CommitInfo> {
        if self.pending.is_empty() {
            return Ok(CommitInfo {
                records: 0,
                bytes: 0,
            });
        }
        self.file.append(&self.pending)?;
        self.file.sync()?;
        let info = CommitInfo {
            records: self.pending_records,
            bytes: self.pending.len() as u64,
        };
        self.pending.clear();
        self.durable_records += self.pending_records;
        self.pending_records = 0;
        Ok(info)
    }

    /// Buffer one record already framed (`seal_frame`) for the next
    /// commit.
    pub(crate) fn buffer(&mut self, frame: &[u8]) {
        self.pending.extend_from_slice(frame);
        self.pending_records += 1;
    }

    /// Truncate the log (after its records were flushed into a chunk).
    /// Buffered-but-uncommitted records are preserved for the next commit.
    pub(crate) fn reset(&mut self) -> StoreResult<()> {
        self.file = self.vfs.create(&self.name)?;
        self.durable_records = 0;
        Ok(())
    }

    /// Rewrite the durable log to exactly `payloads`, one frame each —
    /// the scrubber's repair path when latent rot lands inside an
    /// already-durable frame. Buffered-but-uncommitted records are
    /// preserved for the next commit, exactly like `Wal::reset`.
    pub fn rewrite(&mut self, payloads: &[Vec<u8>]) -> StoreResult<()> {
        let framed = frames(payloads);
        self.file = self.vfs.create(&self.name)?;
        if !framed.is_empty() {
            self.file.append(&framed)?;
            self.file.sync()?;
        }
        self.durable_records = payloads.len() as u64;
        Ok(())
    }

    /// Raw durable+buffered bytes of the log file, for integrity scans.
    pub(crate) fn raw_bytes(&self) -> StoreResult<Vec<u8>> {
        if self.vfs.exists(&self.name)? {
            self.vfs.read(&self.name)
        } else {
            Ok(Vec::new())
        }
    }

    /// Records currently durable in the file.
    pub fn durable_records(&self) -> u64 {
        self.durable_records
    }

    /// Current file size in bytes.
    pub(crate) fn size(&self) -> StoreResult<u64> {
        self.file.len()
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("name", &self.name)
            .field("durable_records", &self.durable_records)
            .field("pending_records", &self.pending_records)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memdisk::{FaultMode, FaultPlan, MemDisk};

    fn mem() -> Arc<dyn Vfs> {
        Arc::new(MemDisk::new(11))
    }

    #[test]
    fn commit_then_reopen_replays_in_order() {
        let vfs = mem();
        let (mut wal, recovered, _) = Wal::open(vfs.clone(), "wal").unwrap();
        assert!(recovered.is_empty());
        wal.append(b"one");
        wal.append(b"two");
        let info = wal.commit().unwrap();
        assert_eq!(info.records, 2);
        wal.append(b"three");
        wal.commit().unwrap();
        drop(wal);
        let (wal, recovered, replay) = Wal::open(vfs, "wal").unwrap();
        assert_eq!(
            recovered,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        assert_eq!(replay.records, 3);
        assert_eq!(replay.bytes_dropped, 0);
        assert_eq!(wal.durable_records(), 3);
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let (mut wal, _, _) = Wal::open(mem(), "wal").unwrap();
        let info = wal.commit().unwrap();
        assert_eq!(
            info,
            CommitInfo {
                records: 0,
                bytes: 0
            }
        );
    }

    #[test]
    fn torn_tail_is_dropped_and_log_stays_appendable() {
        let disk = MemDisk::new(21);
        let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
        let (mut wal, _, _) = Wal::open(vfs.clone(), "wal").unwrap();
        wal.append(b"acked");
        wal.commit().unwrap();
        disk.schedule_fault(FaultPlan {
            crash_at_op: disk.ops_done() + 2, // tear the commit's sync
            mode: FaultMode::TornTail,
        });
        wal.append(b"in-flight-record-payload");
        assert!(wal.commit().is_err());
        disk.restart();
        let (mut wal, recovered, replay) = Wal::open(vfs.clone(), "wal").unwrap();
        // The acked record always survives; the torn one only if every
        // byte of its frame reached the disk.
        assert!(!recovered.is_empty());
        assert_eq!(recovered[0], b"acked");
        assert!(recovered.len() <= 2);
        let _ = replay;
        // Appends continue after recovery.
        wal.append(b"post-crash");
        wal.commit().unwrap();
        let (_, recovered2, _) = Wal::open(vfs, "wal").unwrap();
        assert_eq!(recovered2.last().unwrap(), b"post-crash");
        assert_eq!(recovered2.len(), recovered.len() + 1);
    }

    #[test]
    fn scan_frames_stops_at_bad_crc() {
        let mut data = Vec::new();
        for payload in [&b"aaa"[..], b"bbbb"] {
            data.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            data.extend_from_slice(&crc32(payload).to_le_bytes());
            data.extend_from_slice(payload);
        }
        // Corrupt the second record's payload.
        let n = data.len();
        data[n - 1] ^= 0x01;
        let (payloads, valid, corrupt) = scan_frames(&data);
        assert_eq!(payloads, vec![b"aaa".to_vec()]);
        assert_eq!(valid, 11);
        assert_eq!(corrupt, 1);
        // Oversized length field is corruption, not an allocation.
        let mut huge = vec![0xFF; 12];
        huge[0..4].copy_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        let (payloads, _, corrupt) = scan_frames(&huge);
        assert!(payloads.is_empty());
        assert_eq!(corrupt, 1);
    }

    #[test]
    fn torn_short_frame_is_not_counted_as_corrupt() {
        let mut data = Vec::new();
        let payload = b"complete";
        data.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        data.extend_from_slice(&crc32(payload).to_le_bytes());
        data.extend_from_slice(payload);
        // A frame header promising more bytes than the file holds: torn.
        data.extend_from_slice(&64u32.to_le_bytes());
        data.extend_from_slice(&0u32.to_le_bytes());
        data.extend_from_slice(b"short");
        let (payloads, valid, corrupt) = scan_frames(&data);
        assert_eq!(payloads, vec![payload.to_vec()]);
        assert_eq!(valid, 8 + payload.len());
        assert_eq!(corrupt, 0);
    }

    #[test]
    fn rewrite_restores_a_rotted_log_losslessly() {
        let disk = MemDisk::new(31);
        let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
        let (mut wal, _, _) = Wal::open(vfs.clone(), "wal").unwrap();
        wal.append(b"first");
        wal.append(b"second");
        wal.commit().unwrap();
        // Rot a durable payload byte: the scan now reports corruption.
        let mut raw = wal.raw_bytes().unwrap();
        let n = raw.len();
        raw[n - 1] ^= 0x04;
        let mut f = disk.create("wal").unwrap();
        f.append(&raw).unwrap();
        f.sync().unwrap();
        let (_, _, corrupt) = scan_frames(&wal.raw_bytes().unwrap());
        assert_eq!(corrupt, 1);
        // Rewrite from the in-memory truth (buffered record untouched).
        wal.append(b"unacked");
        wal.rewrite(&[b"first".to_vec(), b"second".to_vec()])
            .unwrap();
        assert_eq!(wal.durable_records(), 2);
        let (payloads, _, corrupt) = scan_frames(&wal.raw_bytes().unwrap());
        assert_eq!(corrupt, 0);
        assert_eq!(payloads, vec![b"first".to_vec(), b"second".to_vec()]);
        wal.commit().unwrap();
        let (_, recovered, _) = Wal::open(vfs, "wal").unwrap();
        assert_eq!(
            recovered,
            vec![b"first".to_vec(), b"second".to_vec(), b"unacked".to_vec()]
        );
    }

    #[test]
    fn reset_truncates() {
        let vfs = mem();
        let (mut wal, _, _) = Wal::open(vfs.clone(), "wal").unwrap();
        wal.append(b"flushed-away");
        wal.commit().unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.durable_records(), 0);
        wal.append(b"fresh");
        wal.commit().unwrap();
        let (_, recovered, _) = Wal::open(vfs, "wal").unwrap();
        assert_eq!(recovered, vec![b"fresh".to_vec()]);
    }
}
