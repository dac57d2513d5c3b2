//! Backups: a verified copy of the store on a second disk.
//!
//! The backup destination is its own [`Vfs`] — a second (virtual) disk,
//! so a disaster on the primary never takes the backups with it, and so
//! `MemDisk` fault schedules apply to backup bytes exactly like live
//! bytes. [`TsStore::backup_now`](crate::TsStore::backup_now) writes one
//! generation (`gen-NNNNNNNN/…`) inside one `&mut` call, so no write or
//! compaction interleaves with it. A generation holds:
//!
//!   * every live chunk file, copied verbatim after `check_chunk`
//!     verified it;
//!   * the memtable's acknowledged cells as one WAL frame (`wal.log`),
//!     the frame the WAL scrub rewrites a rotted log to;
//!   * last, a CRC'd `manifest` naming every file with its size and
//!     checksum. A backup cut short has no valid manifest, and a
//!     generation without one is never restored.
//!
//! Restore ([`restore_at`]) is the inverse: verify the newest complete
//! generation and copy its files into an empty store namespace, where
//! `TsStore::open` recovers exactly what the primary had acknowledged.
//! A file that fails its manifest checksum is a typed [`BackupError`] —
//! the restore refuses rather than materialize silently-wrong data.

use crate::crc::crc32;
use crate::error::{StoreError, StoreResult};
use crate::vfs::Vfs;
use std::fmt;
use std::sync::Arc;

/// Magic bytes opening every generation manifest.
const MANIFEST_MAGIC: &[u8; 8] = b"PMBKUP2\0";

/// File name of the manifest inside a generation.
const MANIFEST: &str = "manifest";

/// Where file `name` of generation `gen` lives on the destination.
fn generation_file(gen: u64, name: &str) -> String {
    format!("gen-{gen:08}/{name}")
}

fn parse_generation(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("gen-")?;
    let (digits, _) = rest.split_once('/')?;
    digits.parse().ok()
}

/// Every generation id `dest` holds files of, torn ones included,
/// ascending and without repeats.
fn generations(dest: &dyn Vfs) -> StoreResult<Vec<u64>> {
    let mut ids: Vec<u64> = dest
        .list()?
        .iter()
        .filter_map(|n| parse_generation(n))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    Ok(ids)
}

// ------------------------------------------------------------------ errors

/// Why a restore was refused. Every variant is a *detected* problem:
/// restore never falls back to silently-wrong data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackupError {
    /// An underlying storage operation failed.
    Store(StoreError),
    /// The source holds no complete generation at or below the target.
    NoBackup,
    /// A file the chosen generation's manifest names is missing or does
    /// not match the size and checksum recorded for it.
    FileCorrupt {
        /// Generation the file belongs to.
        gen: u64,
        /// File name inside the generation.
        name: String,
    },
}

impl fmt::Display for BackupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackupError::Store(e) => write!(f, "backup storage error: {e}"),
            BackupError::NoBackup => write!(f, "no complete backup generation at the source"),
            BackupError::FileCorrupt { gen, name } => {
                write!(f, "generation {gen} file {name} is corrupt or missing")
            }
        }
    }
}

impl std::error::Error for BackupError {}

impl From<StoreError> for BackupError {
    fn from(e: StoreError) -> Self {
        BackupError::Store(e)
    }
}

// ---------------------------------------------------------------- manifest

/// One file a generation holds, under its name in the store namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    name: String,
    bytes: u64,
    crc: u32,
}

fn encode_manifest(gen: u64, entries: &[Entry]) -> Vec<u8> {
    let mut out = MANIFEST_MAGIC.to_vec();
    out.extend_from_slice(&gen.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&(e.name.len() as u16).to_le_bytes());
        out.extend_from_slice(e.name.as_bytes());
        out.extend_from_slice(&e.bytes.to_le_bytes());
        out.extend_from_slice(&e.crc.to_le_bytes());
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The entries of generation `gen`'s manifest, or `None` when the bytes
/// fail the magic, the checksum, the layout or the generation id.
fn decode_manifest(gen: u64, data: &[u8]) -> Option<Vec<Entry>> {
    let (body, crc) = data.split_at_checked(data.len().checked_sub(4)?)?;
    if !body.starts_with(MANIFEST_MAGIC) || crc32(body).to_le_bytes() != crc {
        return None;
    }
    let mut pos = MANIFEST_MAGIC.len();
    let mut take = |n: usize| -> Option<&[u8]> {
        let s = body.get(pos..pos.checked_add(n)?)?;
        pos += n;
        Some(s)
    };
    if u64::from_le_bytes(take(8)?.try_into().ok()?) != gen {
        return None;
    }
    let count = u32::from_le_bytes(take(4)?.try_into().ok()?);
    let mut entries = Vec::new();
    for _ in 0..count {
        let name_len = u16::from_le_bytes(take(2)?.try_into().ok()?) as usize;
        let name = std::str::from_utf8(take(name_len)?).ok()?.to_string();
        let bytes = u64::from_le_bytes(take(8)?.try_into().ok()?);
        let crc = u32::from_le_bytes(take(4)?.try_into().ok()?);
        entries.push(Entry { name, bytes, crc });
    }
    (pos == body.len()).then_some(entries)
}

// ------------------------------------------------------------------ backup

/// A generation being written. Nothing of it is restorable until
/// [`Generation::finish`] lands its manifest.
pub(crate) struct Generation<'a> {
    dest: &'a dyn Vfs,
    gen: u64,
    entries: Vec<Entry>,
}

impl<'a> Generation<'a> {
    /// Start the generation after every one `dest` holds, torn ones
    /// included, so an id is never reused.
    pub(crate) fn begin(dest: &'a dyn Vfs) -> StoreResult<Generation<'a>> {
        let gen = generations(dest)?.last().map_or(0, |g| g + 1);
        Ok(Generation {
            dest,
            gen,
            entries: Vec::new(),
        })
    }

    /// Copy `data` in as the store file `name`, synced.
    pub(crate) fn copy(&mut self, name: &str, data: &[u8]) -> StoreResult<()> {
        let mut f = self.dest.create(&generation_file(self.gen, name))?;
        f.append(data)?;
        f.sync()?;
        self.entries.push(Entry {
            name: name.to_string(),
            bytes: data.len() as u64,
            crc: crc32(data),
        });
        Ok(())
    }

    /// Write the manifest — the commit point of the whole generation —
    /// and return the generation id.
    pub(crate) fn finish(self) -> StoreResult<u64> {
        let mut f = self.dest.create(&generation_file(self.gen, MANIFEST))?;
        f.append(&encode_manifest(self.gen, &self.entries))?;
        f.sync()?;
        Ok(self.gen)
    }
}

// ----------------------------------------------------------------- restore

/// Restore the newest complete generation numbered `<= t` from backup
/// source `src` into the (empty) store namespace `target`, and return
/// its id; `i64::MAX` restores the newest. A generation is complete when
/// its manifest verifies; every file it names is checked against the
/// manifest's size and checksum before it is copied. After a successful
/// restore, `TsStore::open(target, …)` recovers the store as it was
/// when the generation was taken. A refusal, or a crash of `target`,
/// leaves `target` partial: run the restore again.
pub fn restore_at(src: &dyn Vfs, target: Arc<dyn Vfs>, t: i64) -> Result<u64, BackupError> {
    let ids = generations(src)?;
    for &gen in ids
        .iter()
        .rev()
        .filter(|&&g| i64::try_from(g).is_ok_and(|g| g <= t))
    {
        let manifest = generation_file(gen, MANIFEST);
        if !src.exists(&manifest)? {
            continue; // torn: the backup stopped before its commit point
        }
        let Some(entries) = decode_manifest(gen, &src.read(&manifest)?) else {
            continue; // a manifest torn or rotted mid-write commits nothing
        };
        for e in &entries {
            let corrupt = || BackupError::FileCorrupt {
                gen,
                name: e.name.clone(),
            };
            let data = match src.read(&generation_file(gen, &e.name)) {
                Ok(d) => d,
                Err(StoreError::DiskCrashed) => return Err(StoreError::DiskCrashed.into()),
                Err(_) => return Err(corrupt()),
            };
            if data.len() as u64 != e.bytes || crc32(&data) != e.crc {
                return Err(corrupt());
            }
            let mut f = target.create(&e.name)?;
            f.append(&data)?;
            f.sync()?;
        }
        return Ok(gen);
    }
    Err(BackupError::NoBackup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memdisk::MemDisk;

    #[test]
    fn manifest_roundtrip_and_crc_rejection() {
        let entries = vec![Entry {
            name: "chunk-00000005.tsm".into(),
            bytes: 123,
            crc: 0xDEAD_BEEF,
        }];
        let enc = encode_manifest(3, &entries);
        assert_eq!(decode_manifest(3, &enc), Some(entries));
        assert_eq!(
            decode_manifest(4, &enc),
            None,
            "another generation's manifest"
        );
        let mut bad = enc.clone();
        bad[10] ^= 0x04;
        assert_eq!(decode_manifest(3, &bad), None);
        assert_eq!(decode_manifest(3, &enc[..enc.len() - 1]), None);
        assert_eq!(decode_manifest(3, &[]), None);
    }

    #[test]
    fn generation_names_parse() {
        assert_eq!(parse_generation(&generation_file(12, MANIFEST)), Some(12));
        assert_eq!(parse_generation("gen-x/manifest"), None);
        assert_eq!(parse_generation("chunk-00000001.tsm"), None);
    }

    #[test]
    fn empty_destination_refuses_restore() {
        let src = MemDisk::new(1);
        let target: Arc<dyn Vfs> = Arc::new(MemDisk::new(2));
        assert_eq!(
            restore_at(&src, target, i64::MAX).unwrap_err(),
            BackupError::NoBackup
        );
    }
}
