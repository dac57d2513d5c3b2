//! Durable document databases: collection mutations journaled through the
//! storage engine's WAL and replayed at open.
//!
//! The knowledge base the paper keeps in MongoDB is small and
//! insert-dominated, so the journal is deliberately simple: an
//! append-only operation log (`docdb-<name>.journal`) with no
//! checkpointing. Every mutation is applied in memory, encoded as a JSON
//! op record, framed and group-committed through [`Wal`]; the write is
//! acknowledged only once the commit syncs. [`DurableDatabase::open`]
//! rebuilds the database by replaying the journal in order — operations
//! are deterministic, so replay reproduces the exact acknowledged state,
//! including auto-assigned `_id`s.

use crate::collection::Collection;
use crate::database::Database;
use crate::error::DocDbError;
use parking_lot::Mutex;
use pmove_obs::{Counter, Registry};
use pmove_store::{Vfs, Wal};
use serde_json::{json, Value};
use std::sync::Arc;

/// I/O granularity used for modeled journal latencies (matches the
/// tsdb store's accounting block size).
const IO_BLOCK_SIZE: u64 = 8192;

/// What replaying the journal at open recovered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalReport {
    /// Operations replayed into the database.
    pub records_replayed: u64,
    /// Well-formed records whose operation failed to re-apply (should be
    /// zero on an uncorrupted journal).
    pub records_skipped: u64,
    /// Bytes of tail damage discarded by WAL recovery.
    pub bytes_dropped: u64,
    /// Modeled time spent reading the journal, in nanoseconds.
    pub modeled_ns: u64,
}

/// Hoisted `docdb.journal.*` metric handles, labelled by database.
struct JournalObs {
    records_appended: Counter,
    commits: Counter,
    bytes_committed: Counter,
    records_replayed: Counter,
}

impl JournalObs {
    fn new(registry: &Registry, db: &str) -> JournalObs {
        let l: &[(&str, &str)] = &[("db", db)];
        JournalObs {
            records_appended: registry.counter("docdb.journal.records_appended", l),
            commits: registry.counter("docdb.journal.commits", l),
            bytes_committed: registry.counter("docdb.journal.bytes_committed", l),
            records_replayed: registry.counter("docdb.journal.records_replayed", l),
        }
    }
}

/// A [`Database`] whose mutations survive restarts.
///
/// Reads go through [`DurableDatabase::shared`]; mutations MUST go through
/// the methods here — a mutation applied directly to a collection handle
/// bypasses the journal and will not survive a reopen.
pub struct DurableDatabase {
    db: Arc<Database>,
    wal: Mutex<Wal>,
    obs: JournalObs,
}

/// Journal file name for database `name`.
fn journal_file(name: &str) -> String {
    format!("docdb-{name}.journal")
}

impl DurableDatabase {
    /// Open (or create) a durable database on `vfs`, replaying any
    /// existing journal, with `docdb.*` and `docdb.journal.*` metrics
    /// registered in `registry`.
    pub fn open(
        name: impl Into<String>,
        vfs: Arc<dyn Vfs>,
        registry: Arc<Registry>,
    ) -> Result<(DurableDatabase, JournalReport), DocDbError> {
        let name = name.into();
        let obs = JournalObs::new(&registry, &name);
        let db = Arc::new(Database::with_obs(name.clone(), registry));
        let (mut wal, payloads, replay) = Wal::open(vfs.clone(), &journal_file(&name))?;
        let mut report = JournalReport {
            bytes_dropped: replay.bytes_dropped,
            ..JournalReport::default()
        };
        let mut bytes_read = 0u64;
        for (i, payload) in payloads.iter().enumerate() {
            bytes_read += payload.len() as u64 + 8;
            // A payload that deframes but is not valid JSON is damage sealed
            // under a matching CRC: cut the journal back to the frames before
            // it, so later ops are not appended behind a frame replay stops at.
            let Ok(op) = std::str::from_utf8(payload)
                .map_err(|_| ())
                .and_then(|s| serde_json::from_str::<Value>(s).map_err(|_| ()))
            else {
                wal.rewrite(&payloads[..i])?;
                let cut = payloads[i..].iter().map(|p| p.len() as u64 + 8);
                report.bytes_dropped += cut.sum::<u64>();
                break;
            };
            match apply_op(&db, &op) {
                Ok(()) => report.records_replayed += 1,
                Err(_) => report.records_skipped += 1,
            }
        }
        report.modeled_ns = (vfs
            .disk_spec()
            .write_time(bytes_read, IO_BLOCK_SIZE as usize)
            * 1e9) as u64;
        obs.records_replayed.add(report.records_replayed);
        Ok((
            DurableDatabase {
                db,
                wal: Mutex::new(wal),
                obs,
            },
            report,
        ))
    }

    /// A shared handle to the underlying database. Callers may read
    /// through it freely; mutations must still go through the journal.
    pub fn shared(&self) -> Arc<Database> {
        self.db.clone()
    }

    /// Operations made durable since open (excluding replayed ones).
    fn journal_records(&self) -> u64 {
        self.wal.lock().durable_records()
    }

    /// Frame `op` and group-commit it; the mutation it describes is
    /// acknowledged only when this returns `Ok`.
    fn log(&self, op: Value) -> Result<(), DocDbError> {
        let payload = serde_json::to_string(&op)
            .expect("op records are plain JSON")
            .into_bytes();
        let mut wal = self.wal.lock();
        wal.append(&payload);
        let info = wal.commit()?;
        self.obs.records_appended.add(info.records);
        self.obs.commits.inc();
        self.obs.bytes_committed.add(info.bytes);
        Ok(())
    }

    /// Insert one document into `collection` (journaled). Returns the
    /// assigned `_id`.
    pub fn insert_one(&self, collection: &str, doc: Value) -> Result<String, DocDbError> {
        // Journal the document exactly as stored: `insert_one` only
        // mutates the document when `_id` is absent.
        let mut stored = doc.clone();
        let id = self.db.collection(collection).insert_one(doc)?;
        if stored.get("_id").is_none() {
            stored
                .as_object_mut()
                .expect("insert_one accepted it, so it is an object")
                .insert("_id".into(), json!(id));
        }
        self.log(json!({"op": "insert", "c": collection, "doc": stored}))?;
        Ok(id)
    }

    /// Delete all matching documents (journaled); returns the number
    /// deleted.
    pub fn delete_many(&self, collection: &str, filter: &Value) -> Result<usize, DocDbError> {
        let n = self.db.collection(collection).delete_many(filter)?;
        self.log(json!({"op": "delete", "c": collection, "filter": filter}))?;
        Ok(n)
    }
}

impl std::fmt::Debug for DurableDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableDatabase")
            .field("db", &self.db)
            .field("journal_records", &self.journal_records())
            .finish()
    }
}

/// Restore the auto-`_id` counter from a replayed document so fresh
/// inserts never collide with restored ids.
fn note_assigned_id(col: &Collection, doc: &Value) {
    if let Some(id) = doc.get("_id").and_then(Value::as_str) {
        if let Some(hex) = id.strip_prefix("oid") {
            if let Ok(v) = u64::from_str_radix(hex, 16) {
                col.bump_next_id(v + 1);
            }
        }
    }
}

/// Apply one journaled op record to `db`.
fn apply_op(db: &Database, op: &Value) -> Result<(), DocDbError> {
    let kind = op["op"].as_str().unwrap_or_default();
    let name = op["c"].as_str().unwrap_or_default();
    match kind {
        "insert" => {
            let col = db.collection(name);
            note_assigned_id(&col, &op["doc"]);
            col.insert_one(op["doc"].clone())?;
        }
        "delete" => {
            db.collection(name).delete_many(&op["filter"])?;
        }
        other => {
            return Err(DocDbError::Storage(format!(
                "unknown journal op: {other:?}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmove_store::{FaultMode, FaultPlan, MemDisk};

    fn disk() -> (Arc<MemDisk>, Arc<dyn Vfs>) {
        let disk = Arc::new(MemDisk::new(7));
        let vfs: Arc<dyn Vfs> = disk.clone();
        (disk, vfs)
    }

    /// Every collection's documents, by collection name.
    fn state(db: &DurableDatabase) -> Vec<(String, Vec<Value>)> {
        let db = db.shared();
        db.collection_names()
            .into_iter()
            .map(|c| {
                let docs = db.collection(&c).all();
                (c, docs)
            })
            .collect()
    }

    #[test]
    fn reopen_replays_every_acknowledged_op() {
        let (_, vfs) = disk();
        let (db, report) = DurableDatabase::open("kb", vfs.clone(), Registry::disabled()).unwrap();
        assert_eq!(report, JournalReport::default());
        for doc in [
            json!({"@type": "Interface", "name": "cpu0", "freq": 3.7}),
            json!({"@type": "Interface", "name": "cpu1", "freq": 2.7}),
            json!({"@type": "Telemetry", "name": "metric4"}),
        ] {
            db.insert_one("twins", doc).unwrap();
        }
        db.insert_one("scratch", json!({"tmp": true})).unwrap();
        db.delete_many("twins", &json!({"name": "metric4"}))
            .unwrap();
        let before = state(&db);
        drop(db);

        let (db2, report) = DurableDatabase::open("kb", vfs, Registry::disabled()).unwrap();
        assert_eq!(report.records_replayed, 5);
        assert_eq!(report.records_skipped, 0);
        assert_eq!(report.bytes_dropped, 0);
        assert!(report.modeled_ns > 0);
        assert_eq!(state(&db2), before);
        let twins = db2.shared().collection("twins");
        assert_eq!(twins.find(&json!({"@type": "Interface"})).unwrap().len(), 2);
    }

    #[test]
    fn failed_delete_many_leaves_memory_equal_to_the_journal() {
        let (_, vfs) = disk();
        let (db, _) = DurableDatabase::open("kb", vfs.clone(), Registry::disabled()).unwrap();
        db.insert_one("c", json!({"k": 1})).unwrap();
        db.insert_one("c", json!({"k": 2})).unwrap();
        let before = state(&db);
        // `k = 1` matches the first branch; `k = 2` reaches the bad operator.
        let filter = json!({"$or": [{"k": 1}, {"k": {"$bogus": 1}}]});
        assert!(db.delete_many("c", &filter).is_err());
        assert_eq!(state(&db), before);
        drop(db);
        let (db2, report) = DurableDatabase::open("kb", vfs, Registry::disabled()).unwrap();
        assert_eq!(report.records_replayed, 2);
        assert_eq!(state(&db2), before);
    }

    #[test]
    fn auto_id_counter_survives_reopen() {
        let (_, vfs) = disk();
        let (db, _) = DurableDatabase::open("kb", vfs.clone(), Registry::disabled()).unwrap();
        let a = db.insert_one("c", json!({"x": 1})).unwrap();
        drop(db);
        let (db2, _) = DurableDatabase::open("kb", vfs, Registry::disabled()).unwrap();
        let b = db2.insert_one("c", json!({"x": 2})).unwrap();
        assert_ne!(a, b, "restored counter must not re-issue {a}");
        assert_eq!(db2.shared().collection("c").len(), 2);
    }

    #[test]
    fn unacknowledged_op_is_absent_after_crash() {
        let (disk, vfs) = disk();
        let (db, _) = DurableDatabase::open("kb", vfs.clone(), Registry::disabled()).unwrap();
        db.insert_one("c", json!({"n": 1})).unwrap();
        // Crash on the very next disk operation (the append of op 2).
        disk.schedule_fault(FaultPlan {
            crash_at_op: disk.ops_done() + 1,
            mode: FaultMode::CleanStop,
        });
        let err = db.insert_one("c", json!({"n": 2})).unwrap_err();
        assert!(matches!(err, DocDbError::Storage(_)));
        drop(db);

        disk.restart();
        let (db2, report) = DurableDatabase::open("kb", vfs, Registry::disabled()).unwrap();
        assert_eq!(report.records_replayed, 1);
        let docs = db2.shared().collection("c").all();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0]["n"], json!(1));
    }

    #[test]
    fn torn_tail_loses_only_the_unacknowledged_suffix() {
        let (disk, vfs) = disk();
        let (db, _) = DurableDatabase::open("kb", vfs.clone(), Registry::disabled()).unwrap();
        db.insert_one("c", json!({"n": 1})).unwrap();
        db.insert_one("c", json!({"n": 2})).unwrap();
        disk.schedule_fault(FaultPlan {
            crash_at_op: disk.ops_done() + 2, // the sync inside commit
            mode: FaultMode::TornTail,
        });
        assert!(db.insert_one("c", json!({"n": 3})).is_err());
        drop(db);

        disk.restart();
        let (db2, _) = DurableDatabase::open("kb", vfs.clone(), Registry::disabled()).unwrap();
        assert_eq!(db2.shared().collection("c").len(), 2);
        // And the repaired journal keeps accepting writes.
        db2.insert_one("c", json!({"n": 4})).unwrap();
        drop(db2);
        let (db3, _) = DurableDatabase::open("kb", vfs, Registry::disabled()).unwrap();
        assert_eq!(db3.shared().collection("c").len(), 3);
    }

    #[test]
    fn crc_valid_frame_that_is_not_json_is_cut_not_appended_behind() {
        let (_, vfs) = disk();
        let (db, _) = DurableDatabase::open("kb", vfs.clone(), Registry::disabled()).unwrap();
        db.insert_one("c", json!({"n": 1})).unwrap();
        drop(db);
        // Damage sealed under a matching CRC: deframes, does not parse.
        let garbage = b"\xff\xfenot json";
        let (mut wal, _, _) = Wal::open(vfs.clone(), &journal_file("kb")).unwrap();
        wal.append(garbage);
        wal.commit().unwrap();
        drop(wal);

        let (db2, report) = DurableDatabase::open("kb", vfs.clone(), Registry::disabled()).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(report.bytes_dropped, garbage.len() as u64 + 8);
        db2.insert_one("c", json!({"n": 2})).unwrap();
        db2.insert_one("c", json!({"n": 3})).unwrap();
        drop(db2);
        // Acknowledged after the cut: both survive every later reopen.
        for _ in 0..2 {
            let (db3, report) =
                DurableDatabase::open("kb", vfs.clone(), Registry::disabled()).unwrap();
            assert_eq!((report.records_replayed, report.bytes_dropped), (3, 0));
            assert_eq!(db3.shared().collection("c").len(), 3);
        }
    }

    #[test]
    fn torn_write_mid_append_replays_prefix_and_reaccepts_writes() {
        // Tear the disk while the appended frame is being persisted, so
        // an arbitrary prefix of the in-flight record reaches the
        // platter. Recovery must replay exactly the acknowledged ops
        // (plus the torn op only if every one of its bytes happened to
        // land), drop the damaged tail, and leave the journal
        // appendable. The MemDisk seed decides how many in-flight bytes
        // survive, so a sweep covers empty, partial, and complete tails.
        let mut torn_cases = 0u64;
        for seed in 0..16u64 {
            let disk = Arc::new(MemDisk::new(seed));
            let vfs: Arc<dyn Vfs> = disk.clone();
            let (db, _) = DurableDatabase::open("kb", vfs.clone(), Registry::disabled()).unwrap();
            db.insert_one("c", json!({"n": 1})).unwrap();
            db.insert_one("c", json!({"n": 2})).unwrap();
            disk.schedule_fault(FaultPlan {
                crash_at_op: disk.ops_done() + 2, // mid-persist of the frame
                mode: FaultMode::TornTail,
            });
            assert!(db.insert_one("c", json!({"n": 3})).is_err());
            drop(db);

            disk.restart();
            let (db2, report) =
                DurableDatabase::open("kb", vfs.clone(), Registry::disabled()).unwrap();
            let docs = db2.shared().collection("c").all();
            // A clean prefix: both acked docs, the torn one only if its
            // frame survived whole — never a partial or garbled record.
            assert!(
                (2..=3).contains(&docs.len()),
                "seed {seed}: {} docs recovered",
                docs.len()
            );
            for (i, d) in docs.iter().enumerate() {
                assert_eq!(d["n"], json!(i + 1), "seed {seed}: replay out of order");
            }
            assert_eq!(report.records_replayed, docs.len() as u64);
            assert_eq!(report.records_skipped, 0);
            if report.bytes_dropped > 0 {
                torn_cases += 1;
                assert_eq!(
                    docs.len(),
                    2,
                    "seed {seed}: dropped bytes yet replayed the torn op"
                );
            }
            // The rewritten journal is clean and keeps accepting writes.
            db2.insert_one("c", json!({"n": docs.len() + 1})).unwrap();
            drop(db2);
            let (db3, report3) = DurableDatabase::open("kb", vfs, Registry::disabled()).unwrap();
            assert_eq!(
                report3.bytes_dropped, 0,
                "seed {seed}: damage survived recovery"
            );
            assert_eq!(db3.shared().collection("c").len(), docs.len() + 1);
        }
        assert!(
            torn_cases > 0,
            "sweep never produced a genuinely torn frame"
        );
    }

    #[test]
    fn journal_metrics_are_exported() {
        let (_, vfs) = disk();
        let reg = Registry::shared();
        let (db, _) = DurableDatabase::open("kb", vfs.clone(), reg.clone()).unwrap();
        db.insert_one("c", json!({"x": 1})).unwrap();
        db.insert_one("c", json!({"x": 2})).unwrap();
        drop(db);
        let reg2 = Registry::shared();
        let (_db2, _) = DurableDatabase::open("kb", vfs, reg2.clone()).unwrap();
        let l = [("db", "kb")];
        let snap = reg.snapshot();
        assert_eq!(snap.counter("docdb.journal.records_appended", &l), Some(2));
        assert_eq!(snap.counter("docdb.journal.commits", &l), Some(2));
        assert!(snap.counter("docdb.journal.bytes_committed", &l).unwrap() > 0);
        let snap2 = reg2.snapshot();
        assert_eq!(snap2.counter("docdb.journal.records_replayed", &l), Some(2));
        // Replayed inserts count as collection ops on the fresh registry.
        assert_eq!(
            snap2.counter("docdb.inserts", &[("collection", "c")]),
            Some(2)
        );
    }

    #[test]
    fn two_databases_share_a_disk_without_colliding() {
        let (_, vfs) = disk();
        let (a, _) = DurableDatabase::open("alpha", vfs.clone(), Registry::disabled()).unwrap();
        let (b, _) = DurableDatabase::open("beta", vfs.clone(), Registry::disabled()).unwrap();
        a.insert_one("c", json!({"who": "a"})).unwrap();
        b.insert_one("c", json!({"who": "b"})).unwrap();
        drop((a, b));
        let (a2, _) = DurableDatabase::open("alpha", vfs.clone(), Registry::disabled()).unwrap();
        let (b2, _) = DurableDatabase::open("beta", vfs, Registry::disabled()).unwrap();
        assert_eq!(a2.shared().collection("c").all()[0]["who"], json!("a"));
        assert_eq!(b2.shared().collection("c").all()[0]["who"], json!("b"));
    }
}
