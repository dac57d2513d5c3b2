//! KB persistence — step ③: the generated KB is inserted into the
//! document database and re-inserted whenever it changes.

use crate::error::PmoveError;
use crate::kb::KnowledgeBase;
use pmove_docdb::Database;
use pmove_jsonld::serialize::{interface_from_json, interface_to_json};
use serde_json::json;

/// Collection names used in the document DB.
pub const KB_COLLECTION: &str = "kb";
/// Observation entries collection.
pub const OBS_COLLECTION: &str = "observations";
/// Benchmark entries collection.
pub const BENCH_COLLECTION: &str = "benchmarks";

/// Insert (or re-insert) a KB into the document database. Existing
/// documents for the same machine are replaced, matching the paper's
/// "step ③ re-occurs every time KB changes or P-MoVE is restarted".
pub fn insert_kb(db: &Database, kb: &KnowledgeBase) -> Result<usize, PmoveError> {
    let col = db.collection(KB_COLLECTION);
    col.delete_many(&json!({"machine": kb.machine_key}))?;
    let mut inserted = 0;
    for iface in &kb.interfaces {
        let mut doc = interface_to_json(iface);
        doc["machine"] = json!(kb.machine_key);
        doc["pmu"] = json!(kb.pmu_name);
        doc["_id"] = json!(format!("{}::{}", kb.machine_key, iface.id));
        col.insert_one(doc)?;
        inserted += 1;
    }
    let obs = db.collection(OBS_COLLECTION);
    for o in &kb.observations {
        let mut doc = o.to_json();
        doc["_id"] = json!(format!("{}::{}", kb.machine_key, o.id));
        // Re-inserts of the same observation are idempotent.
        let _ = obs.insert_one(doc);
    }
    let ben = db.collection(BENCH_COLLECTION);
    for b in &kb.benchmarks {
        let mut doc = b.to_json();
        doc["_id"] = json!(format!("{}::{}", kb.machine_key, b.id));
        let _ = ben.insert_one(doc);
    }
    Ok(inserted)
}

/// [`insert_kb`] against a journaled database: every mutation is framed
/// through the WAL so the KB collections survive a daemon restart.
pub(crate) fn insert_kb_durable(
    db: &pmove_docdb::DurableDatabase,
    kb: &KnowledgeBase,
) -> Result<usize, PmoveError> {
    db.delete_many(KB_COLLECTION, &json!({"machine": kb.machine_key}))?;
    let mut inserted = 0;
    for iface in &kb.interfaces {
        let mut doc = interface_to_json(iface);
        doc["machine"] = json!(kb.machine_key);
        doc["pmu"] = json!(kb.pmu_name);
        doc["_id"] = json!(format!("{}::{}", kb.machine_key, iface.id));
        db.insert_one(KB_COLLECTION, doc)?;
        inserted += 1;
    }
    for o in &kb.observations {
        let mut doc = o.to_json();
        doc["_id"] = json!(format!("{}::{}", kb.machine_key, o.id));
        match db.insert_one(OBS_COLLECTION, doc) {
            Ok(_) | Err(pmove_docdb::DocDbError::DuplicateId(_)) => {}
            Err(e) => return Err(e.into()),
        }
    }
    for b in &kb.benchmarks {
        let mut doc = b.to_json();
        doc["_id"] = json!(format!("{}::{}", kb.machine_key, b.id));
        match db.insert_one(BENCH_COLLECTION, doc) {
            Ok(_) | Err(pmove_docdb::DocDbError::DuplicateId(_)) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(inserted)
}

/// Load the component interfaces of one machine back from the store.
pub fn load_interfaces(
    db: &Database,
    machine: &str,
) -> Result<Vec<pmove_jsonld::Interface>, PmoveError> {
    let col = db.collection(KB_COLLECTION);
    let docs = col.find(&json!({"machine": machine}))?;
    let mut out = Vec::with_capacity(docs.len());
    for mut d in docs {
        // Strip store-side fields before DTDL parsing.
        if let Some(map) = d.as_object_mut() {
            map.remove("_id");
            map.remove("machine");
            map.remove("pmu");
        }
        out.push(interface_from_json(&d)?);
    }
    Ok(out)
}

/// Machines present in the store.
pub(crate) fn machines(db: &Database) -> Vec<String> {
    let col = db.collection(KB_COLLECTION);
    let mut keys: Vec<String> = col
        .all()
        .iter()
        .filter_map(|d| d["machine"].as_str().map(str::to_string))
        .collect();
    keys.sort();
    keys.dedup();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::builder::build_kb;
    use crate::kb::observation::{MetricRef, ObservationInterface};
    use crate::probe::ProbeReport;
    use pmove_hwsim::Machine;

    fn kb() -> KnowledgeBase {
        build_kb(&ProbeReport::collect(&Machine::preset("icl").unwrap())).unwrap()
    }

    #[test]
    fn insert_and_reload_roundtrip() {
        let db = Database::new("supertwin");
        let kb = kb();
        let n = insert_kb(&db, &kb).unwrap();
        assert_eq!(n, kb.len());
        let loaded = load_interfaces(&db, "icl").unwrap();
        assert_eq!(loaded.len(), kb.len());
        // Interfaces survive the roundtrip intact.
        assert_eq!(loaded[0], kb.interfaces[0]);
        let cpu0_orig = kb.by_name("cpu0").unwrap();
        let cpu0_loaded = loaded.iter().find(|i| i.display_name == "cpu0").unwrap();
        assert_eq!(cpu0_loaded, cpu0_orig);
    }

    #[test]
    fn reinsert_replaces_instead_of_duplicating() {
        let db = Database::new("supertwin");
        let kb = kb();
        insert_kb(&db, &kb).unwrap();
        insert_kb(&db, &kb).unwrap();
        assert_eq!(load_interfaces(&db, "icl").unwrap().len(), kb.len());
    }

    #[test]
    fn observations_persisted() {
        let db = Database::new("supertwin");
        let mut kb = kb();
        kb.append_observation(ObservationInterface {
            id: "obs-1".into(),
            machine: "icl".into(),
            command: "triad".into(),
            pinning: "compact".into(),
            affinity: vec![0, 1],
            start_s: 0.0,
            end_s: 1.0,
            freq_hz: 8.0,
            metrics: vec![MetricRef {
                db_name: "m".into(),
                fields: vec!["_cpu0".into()],
            }],
            report: json!({}),
        });
        insert_kb(&db, &kb).unwrap();
        let obs = db.collection(OBS_COLLECTION);
        assert_eq!(obs.all().len(), 1);
        let d = obs
            .find_one(&json!({"observation": "obs-1"}))
            .unwrap()
            .unwrap();
        assert_eq!(d["pinning"], json!("compact"));
    }

    #[test]
    fn machines_listing() {
        let db = Database::new("supertwin");
        insert_kb(&db, &kb()).unwrap();
        let kb2 = build_kb(&ProbeReport::collect(&Machine::preset("zen3").unwrap())).unwrap();
        insert_kb(&db, &kb2).unwrap();
        assert_eq!(machines(&db), vec!["icl".to_string(), "zen3".to_string()]);
    }
}
