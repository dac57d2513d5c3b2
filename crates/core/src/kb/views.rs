//! The three KB views of §III-B.
//!
//! * **focus view** — one component, extensible to the whole path from the
//!   component to the root (for root-cause navigation);
//! * **subtree view** — a component and everything it contains, detail
//!   increasing toward the leaves;
//! * **level view** — all components of one type, viewable individually or
//!   in comparison (including across machines via SUPERDB).

use crate::kb::KnowledgeBase;
use pmove_jsonld::{Dtmi, Interface};
use std::collections::{BTreeMap, HashSet};

/// Focus view: the component itself.
pub fn focus<'a>(kb: &'a KnowledgeBase, id: &Dtmi) -> Option<&'a Interface> {
    kb.get(id)
}

/// Extended focus view: path from the component up to the root (component
/// → socket → node → system), for tracing and isolating anomalies.
pub fn focus_path<'a>(kb: &'a KnowledgeBase, id: &Dtmi) -> Vec<&'a Interface> {
    let mut path = Vec::new();
    let mut cur = kb.get(id);
    while let Some(iface) = cur {
        path.push(iface);
        cur = kb.parent_of(&iface.id).and_then(|p| kb.get(p));
    }
    path
}

/// Subtree view: pre-order traversal from a component to all its leaves.
pub fn subtree<'a>(kb: &'a KnowledgeBase, id: &Dtmi) -> Vec<&'a Interface> {
    let mut out = Vec::new();
    // Ids are walked by reference, the KB's own.
    let mut stack: Vec<&'a Dtmi> = kb.get(id).map(|root| &root.id).into_iter().collect();
    while let Some(cur) = stack.pop() {
        if let Some(iface) = kb.get(cur) {
            out.push(iface);
            stack.extend(kb.children_of(cur).iter().rev());
        }
    }
    out
}

/// Level view: every interface of one component type.
pub fn level<'a>(kb: &'a KnowledgeBase, component_type: &str) -> Vec<&'a Interface> {
    kb.of_type(component_type)
}

/// All telemetry DB measurements visible from a set of interfaces —
/// the metric selection step of automatic dashboard generation:
/// measurements in name order, each with its fields in first-seen order.
pub fn telemetry_measurements<'a>(interfaces: &[&'a Interface]) -> Vec<(&'a str, Vec<&'a str>)> {
    // Per measurement, the ordered fields beside the set of those seen.
    let mut by_db: BTreeMap<&str, (Vec<&str>, HashSet<&str>)> = BTreeMap::new();
    for iface in interfaces {
        for t in iface.telemetry() {
            let (fields, seen) = by_db.entry(&t.db_name).or_default();
            if let Some(f) = t.field_name.as_deref() {
                if seen.insert(f) {
                    fields.push(f);
                }
            }
        }
    }
    let ordered = by_db.into_iter();
    ordered.map(|(db, (fields, _))| (db, fields)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::builder::build_kb;
    use crate::probe::ProbeReport;
    use pmove_hwsim::Machine;

    fn kb() -> KnowledgeBase {
        build_kb(&ProbeReport::collect(&Machine::preset("icl").unwrap())).unwrap()
    }

    #[test]
    fn focus_path_walks_to_root() {
        let kb = kb();
        let cpu = kb.by_name("cpu5").unwrap();
        let path = focus_path(&kb, &cpu.id);
        let kinds: Vec<&str> = path.iter().map(|i| i.component_type.as_str()).collect();
        assert_eq!(
            kinds,
            vec!["thread", "core", "socket", "numanode", "system"]
        );
        assert!(focus(&kb, &cpu.id).is_some());
    }

    #[test]
    fn subtree_of_socket_contains_all_cores() {
        let kb = kb();
        let socket = kb.by_name("socket0").unwrap();
        let sub = subtree(&kb, &socket.id);
        let cores = sub.iter().filter(|i| i.component_type == "core").count();
        let threads = sub.iter().filter(|i| i.component_type == "thread").count();
        assert_eq!(cores, 8);
        assert_eq!(threads, 16);
        assert_eq!(sub[0].id, socket.id); // pre-order: root first
    }

    #[test]
    fn level_view_isolates_types() {
        let kb = kb();
        assert_eq!(level(&kb, "thread").len(), 16);
        assert_eq!(level(&kb, "l1cache").len(), 8);
        assert_eq!(level(&kb, "gpu").len(), 0);
    }

    #[test]
    fn measurement_selection_merges_fields() {
        let kb = kb();
        let threads = level(&kb, "thread");
        let ms = telemetry_measurements(&threads);
        // Per-cpu idle measurement present, with one field per thread.
        let idle = ms
            .iter()
            .find(|(db, _)| *db == "kernel_percpu_cpu_idle")
            .expect("idle metric");
        assert_eq!(idle.1.len(), 16);
        // HW counters too.
        assert!(ms
            .iter()
            .any(|(db, _)| db.starts_with("perfevent_hwcounters_")));
    }

    /// `subtree` and `telemetry_measurements` as they were when they
    /// cloned every id and name: the order model.
    fn owned_model(kb: &KnowledgeBase, id: &Dtmi) -> (Vec<Dtmi>, Vec<(String, Vec<String>)>) {
        let mut out = Vec::new();
        let mut stack = vec![id.clone()];
        while let Some(cur) = stack.pop() {
            if let Some(iface) = kb.get(&cur) {
                out.push(iface);
                for child in kb.children_of(&cur).iter().rev() {
                    stack.push(child.clone());
                }
            }
        }
        let mut by_db: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for iface in &out {
            for t in iface.telemetry() {
                let fields = by_db.entry(t.db_name.clone()).or_default();
                if let Some(f) = &t.field_name {
                    if !fields.contains(f) {
                        fields.push(f.clone());
                    }
                }
            }
        }
        let ids = out.iter().map(|i| i.id.clone()).collect();
        (ids, by_db.into_iter().collect())
    }

    #[test]
    fn borrowed_views_keep_the_owned_order() {
        for preset in ["skx", "icl"] {
            let kb = build_kb(&ProbeReport::collect(&Machine::preset(preset).unwrap())).unwrap();
            // Every subtree of the KB, the whole tree included.
            for root in &kb.interfaces {
                let (ids, measurements) = owned_model(&kb, &root.id);
                let sub = subtree(&kb, &root.id);
                let got: Vec<Dtmi> = sub.iter().map(|i| i.id.clone()).collect();
                assert_eq!(got, ids, "{preset}: subtree of {}", root.display_name);
                let got: Vec<(String, Vec<String>)> = telemetry_measurements(&sub)
                    .into_iter()
                    .map(|(db, fields)| (db.into(), fields.into_iter().map(Into::into).collect()))
                    .collect();
                assert_eq!(got, measurements, "{preset}: {}", root.display_name);
            }
        }
    }

    #[test]
    fn unknown_id_yields_empty_results() {
        let kb = kb();
        let ghost = pmove_jsonld::Dtmi::parse("dtmi:dt:ghost;1").unwrap();
        assert!(focus(&kb, &ghost).is_none());
        assert!(focus_path(&kb, &ghost).is_empty());
        assert!(subtree(&kb, &ghost).is_empty());
    }
}
