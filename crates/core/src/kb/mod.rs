//! The Knowledge Base.
//!
//! "It is a snapshot of every piece of information obtained from probing
//! and previous analyses. It is dynamic and evolving" (§III). The KB holds
//! one DTDL [`Interface`] per system component, the containment tree over
//! them, the database parameters, and the appended Observation/Benchmark
//! entries. Every framework function takes the KB as its parameter.

pub mod builder;
pub mod observation;
pub mod store;
pub mod superdb;
pub mod views;

use crate::error::PmoveError;
use pmove_jsonld::{Dtmi, Interface};
use std::collections::BTreeMap;

pub(crate) use observation::{AggObservation, BenchmarkInterface, ObservationInterface};

/// Database connection parameters carried in the KB (the env of step ⓪).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DbParams {
    /// Time-series database name.
    pub(crate) influx_db: String,
    /// Datasource uid referenced by dashboards (Listing 1's `uid`).
    pub(crate) influx_uid: String,
    /// Document database name.
    pub(crate) mongo_db: String,
}

impl Default for DbParams {
    fn default() -> Self {
        DbParams {
            influx_db: "pmove".into(),
            influx_uid: "UUkm1881".into(),
            mongo_db: "supertwin".into(),
        }
    }
}

/// The knowledge base of one target system.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    /// Machine key (`csl`).
    pub machine_key: String,
    /// PMU name for the abstraction layer.
    pub(crate) pmu_name: String,
    /// Database parameters.
    pub(crate) db: DbParams,
    /// All component interfaces (tree order).
    pub interfaces: Vec<Interface>,
    /// Containment: child → parent.
    parent: BTreeMap<Dtmi, Dtmi>,
    /// Containment: parent → children.
    children: BTreeMap<Dtmi, Vec<Dtmi>>,
    /// Index: dtmi → position in `interfaces`.
    index: BTreeMap<Dtmi, usize>,
    /// Appended observation entries.
    pub observations: Vec<ObservationInterface>,
    /// Appended benchmark entries.
    pub(crate) benchmarks: Vec<BenchmarkInterface>,
}

impl KnowledgeBase {
    /// Empty KB (builders populate it).
    pub(crate) fn new(machine_key: impl Into<String>, pmu_name: impl Into<String>) -> Self {
        KnowledgeBase {
            machine_key: machine_key.into(),
            pmu_name: pmu_name.into(),
            db: DbParams::default(),
            interfaces: Vec::new(),
            parent: BTreeMap::new(),
            children: BTreeMap::new(),
            index: BTreeMap::new(),
            observations: Vec::new(),
            benchmarks: Vec::new(),
        }
    }

    /// Root twin id: `dtmi:dt:<machine>;1`.
    pub(crate) fn root_id(&self) -> Dtmi {
        Dtmi::new(["dt", self.machine_key.as_str()], 1).expect("machine keys are valid segments")
    }

    /// Add an interface under an optional parent.
    pub(crate) fn add_interface(&mut self, iface: Interface, parent: Option<&Dtmi>) {
        let id = iface.id.clone();
        self.index.insert(id.clone(), self.interfaces.len());
        if let Some(p) = parent {
            self.parent.insert(id.clone(), p.clone());
            self.children.entry(p.clone()).or_default().push(id);
        }
        self.interfaces.push(iface);
    }

    /// Look up an interface by id.
    pub(crate) fn get(&self, id: &Dtmi) -> Option<&Interface> {
        self.index.get(id).map(|&i| &self.interfaces[i])
    }

    /// Mutable lookup.
    pub(crate) fn get_mut(&mut self, id: &Dtmi) -> Option<&mut Interface> {
        self.index
            .get(id)
            .copied()
            .map(move |i| &mut self.interfaces[i])
    }

    /// Look up an interface by display name (`cpu0`, `l3cache0`).
    pub fn by_name(&self, name: &str) -> Option<&Interface> {
        self.interfaces.iter().find(|i| i.display_name == name)
    }

    /// Parent of a twin.
    pub(crate) fn parent_of(&self, id: &Dtmi) -> Option<&Dtmi> {
        self.parent.get(id)
    }

    /// Children of a twin.
    pub(crate) fn children_of(&self, id: &Dtmi) -> &[Dtmi] {
        self.children.get(id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Interfaces of one component type — the *level* of the level view.
    pub(crate) fn of_type(&self, component_type: &str) -> Vec<&Interface> {
        self.interfaces
            .iter()
            .filter(|i| i.component_type == component_type)
            .collect()
    }

    /// Number of component twins.
    pub fn len(&self) -> usize {
        self.interfaces.len()
    }

    /// True when the KB holds no interfaces.
    pub fn is_empty(&self) -> bool {
        self.interfaces.is_empty()
    }

    /// Append an observation entry (step B8).
    pub(crate) fn append_observation(&mut self, obs: ObservationInterface) {
        self.observations.push(obs);
    }

    /// Append a benchmark entry.
    pub(crate) fn append_benchmark(&mut self, b: BenchmarkInterface) {
        self.benchmarks.push(b);
    }

    /// Find an observation by id.
    pub(crate) fn observation(&self, id: &str) -> Option<&ObservationInterface> {
        self.observations.iter().find(|o| o.id == id)
    }

    /// Validate the whole model against the DTDL rules.
    pub(crate) fn validate(&self) -> Result<(), PmoveError> {
        pmove_jsonld::validate::validate_model(&self.interfaces)?;
        Ok(())
    }

    /// Project the KB into an RDF graph (interfaces, properties,
    /// telemetry, relationships as triples).
    pub(crate) fn to_graph(&self) -> pmove_jsonld::Graph {
        let mut g = pmove_jsonld::Graph::new();
        for iface in &self.interfaces {
            pmove_jsonld::serialize::interface_to_triples(iface, &mut g);
        }
        g
    }

    /// Run a basic-graph-pattern query over the KB's linked-data view —
    /// the "advanced analysis" path of §III. One pattern per line,
    /// `?var` for variables:
    ///
    /// ```text
    /// ?c pmove:componentType thread
    /// ?c pmove:hasTelemetry ?t
    /// ?t pmove:dbName ?db
    /// ```
    pub fn sparql(&self, bgp_text: &str) -> Vec<pmove_jsonld::query::Solution> {
        let patterns = pmove_jsonld::query::parse_bgp(bgp_text);
        pmove_jsonld::query::solve(&self.to_graph(), &patterns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmove_jsonld::Interface;

    fn kb_with_two() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new("csl", "csl");
        let root = Interface::new(kb.root_id(), "system", "csl");
        let root_id = root.id.clone();
        kb.add_interface(root, None);
        let child = Interface::new(root_id.child("node0").unwrap(), "numanode", "node0");
        kb.add_interface(child, Some(&root_id));
        kb
    }

    #[test]
    fn navigation() {
        let kb = kb_with_two();
        assert_eq!(kb.len(), 2);
        let root_id = kb.root_id();
        let node = kb.by_name("node0").unwrap();
        assert_eq!(kb.parent_of(&node.id), Some(&root_id));
        assert_eq!(kb.children_of(&root_id), std::slice::from_ref(&node.id));
        assert!(kb.get(&node.id).is_some());
        assert_eq!(kb.of_type("numanode").len(), 1);
        assert!(kb.by_name("ghost").is_none());
    }

    #[test]
    fn default_db_params_match_listing1() {
        let kb = kb_with_two();
        assert_eq!(kb.db.influx_uid, "UUkm1881");
    }

    #[test]
    fn validation_passes_for_clean_model() {
        assert!(kb_with_two().validate().is_ok());
    }

    #[test]
    fn sparql_over_a_real_kb() {
        let kb = crate::kb::builder::build_kb(&crate::probe::ProbeReport::collect(
            &pmove_hwsim::Machine::preset("icl").unwrap(),
        ))
        .unwrap();
        // All thread twins.
        let sols = kb.sparql("?c pmove:componentType thread");
        assert_eq!(sols.len(), 16);
        // Join: threads → telemetry → db name of the idle metric.
        let sols = kb.sparql(
            "?c pmove:componentType thread
             ?c pmove:hasTelemetry ?t
             ?t pmove:dbName kernel_percpu_cpu_idle",
        );
        assert_eq!(sols.len(), 16);
        // Every solution binds both variables.
        assert!(sols
            .iter()
            .all(|s| s.contains_key("c") && s.contains_key("t")));
        // HW-telemetry-only join restricts further.
        let hw = kb.sparql(
            "?c pmove:componentType thread
             ?c pmove:hasTelemetry ?t
             ?t rdf:type HWTelemetry",
        );
        assert!(!hw.is_empty());
        assert!(hw.len() > sols.len()); // many HW events per thread
    }
}
