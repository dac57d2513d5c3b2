//! The component tree of a machine.
//!
//! P-MoVE's KB mirrors this hierarchy one-to-one: every component that
//! computes, communicates, stores or can be monitored becomes a DTDL
//! Interface, and the tree shape drives the focus / subtree / level
//! dashboard views.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Dense component identifier within one topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ComponentId(pub u32);

/// Kinds of components P-MoVE models (paper §III-B lists sockets, cores,
/// threads, caches, network, disks and processes as view targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComponentKind {
    /// The whole machine (KB root).
    System,
    /// A NUMA node / package-local memory domain.
    NumaNode,
    /// A CPU socket (package).
    Socket,
    /// A physical core.
    Core,
    /// A hardware thread (logical CPU).
    Thread,
    /// A cache at some level (1, 2, 3).
    Cache(u8),
    /// Main memory attached to a NUMA node.
    Memory,
    /// A block device.
    Disk,
    /// A network interface.
    Nic,
    /// A GPU device.
    Gpu,
    /// An OS process (dynamic; re-instantiated on each probe).
    Process,
}

impl ComponentKind {
    /// Stable lower-case label used in DTMIs and level views.
    pub(crate) fn label(&self) -> String {
        match self {
            ComponentKind::System => "system".into(),
            ComponentKind::NumaNode => "numanode".into(),
            ComponentKind::Socket => "socket".into(),
            ComponentKind::Core => "core".into(),
            ComponentKind::Thread => "thread".into(),
            ComponentKind::Cache(l) => format!("l{l}cache"),
            ComponentKind::Memory => "memory".into(),
            ComponentKind::Disk => "disk".into(),
            ComponentKind::Nic => "nic".into(),
            ComponentKind::Gpu => "gpu".into(),
            ComponentKind::Process => "process".into(),
        }
    }
}

/// One node of the component tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Component {
    /// This component's id.
    pub id: ComponentId,
    /// Component kind.
    pub kind: ComponentKind,
    /// Name unique among siblings (`socket0`, `cpu17`, `l2cache3`).
    pub name: String,
    /// Parent id (`None` only for the root).
    pub parent: Option<ComponentId>,
    /// Children ids in creation order.
    pub children: Vec<ComponentId>,
    /// Kind-specific attributes (cache size, frequency, NUMA distance...).
    pub attrs: BTreeMap<String, serde_json::Value>,
}

/// The component tree.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    components: Vec<Component>,
}

impl Topology {
    /// New topology containing only a root system component.
    pub(crate) fn new(system_name: impl Into<String>) -> Self {
        let mut t = Topology {
            components: Vec::new(),
        };
        t.components.push(Component {
            id: ComponentId(0),
            kind: ComponentKind::System,
            name: system_name.into(),
            parent: None,
            children: Vec::new(),
            attrs: BTreeMap::new(),
        });
        t
    }

    /// Root component id.
    pub(crate) fn root(&self) -> ComponentId {
        ComponentId(0)
    }

    /// Add a component under `parent`; returns its id.
    pub(crate) fn add(
        &mut self,
        parent: ComponentId,
        kind: ComponentKind,
        name: impl Into<String>,
    ) -> ComponentId {
        let id = ComponentId(self.components.len() as u32);
        self.components.push(Component {
            id,
            kind,
            name: name.into(),
            parent: Some(parent),
            children: Vec::new(),
            attrs: BTreeMap::new(),
        });
        self.components[parent.0 as usize].children.push(id);
        id
    }

    /// Set an attribute on a component.
    pub(crate) fn set_attr(&mut self, id: ComponentId, key: &str, value: serde_json::Value) {
        self.components[id.0 as usize]
            .attrs
            .insert(key.to_string(), value);
    }

    /// Access a component.
    fn get(&self, id: ComponentId) -> &Component {
        &self.components[id.0 as usize]
    }

    /// Iterate all components in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Component> {
        self.components.iter()
    }

    /// All components of one kind — the KB *level view*.
    pub(crate) fn of_kind(&self, kind: ComponentKind) -> Vec<&Component> {
        self.components.iter().filter(|c| c.kind == kind).collect()
    }

    /// Path from a component up to the root — the KB *focus view* extension
    /// (component → system perspective).
    fn path_to_root(&self, id: ComponentId) -> Vec<&Component> {
        let mut path = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let comp = self.get(c);
            cur = comp.parent;
            path.push(comp);
        }
        path
    }

    /// Hardware threads (logical CPUs), in id order. Their position in this
    /// list is the `cpuN` OS index used for pinning.
    pub fn threads(&self) -> Vec<&Component> {
        self.of_kind(ComponentKind::Thread)
    }

    /// Find the first ancestor of `id` with the given kind.
    pub fn ancestor_of_kind(&self, id: ComponentId, kind: ComponentKind) -> Option<&Component> {
        self.path_to_root(id).into_iter().find(|c| c.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn by_name<'a>(t: &'a Topology, name: &str) -> &'a Component {
        t.iter().find(|c| c.name == name).unwrap()
    }

    /// A toy 1-socket, 2-core, SMT-2 machine.
    fn toy() -> Topology {
        let mut t = Topology::new("toy");
        let numa = t.add(t.root(), ComponentKind::NumaNode, "node0");
        let socket = t.add(numa, ComponentKind::Socket, "socket0");
        let l3 = t.add(socket, ComponentKind::Cache(3), "l3cache0");
        t.set_attr(l3, "size_kb", json!(28160));
        for c in 0..2 {
            let core = t.add(socket, ComponentKind::Core, format!("core{c}"));
            t.add(core, ComponentKind::Cache(1), format!("l1cache{c}"));
            t.add(core, ComponentKind::Cache(2), format!("l2cache{c}"));
            for s in 0..2 {
                t.add(core, ComponentKind::Thread, format!("cpu{}", c * 2 + s));
            }
        }
        t.add(numa, ComponentKind::Memory, "mem0");
        t
    }

    #[test]
    fn construction_and_counts() {
        let t = toy();
        // root + node + socket + l3 + 2×(core + l1 + l2 + 2 threads) + mem
        assert_eq!(t.iter().count(), 15);
        assert_eq!(t.threads().len(), 4);
        assert_eq!(t.of_kind(ComponentKind::Core).len(), 2);
        assert_eq!(t.of_kind(ComponentKind::Cache(1)).len(), 2);
    }

    #[test]
    fn focus_path_reaches_root() {
        let t = toy();
        let cpu3 = by_name(&t, "cpu3");
        let path = t.path_to_root(cpu3.id);
        let names: Vec<&str> = path.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["cpu3", "core1", "socket0", "node0", "toy"]);
    }

    #[test]
    fn ancestor_lookup() {
        let t = toy();
        let cpu0 = by_name(&t, "cpu0");
        let socket = t.ancestor_of_kind(cpu0.id, ComponentKind::Socket).unwrap();
        assert_eq!(socket.name, "socket0");
        assert!(t.ancestor_of_kind(cpu0.id, ComponentKind::Gpu).is_none());
    }

    #[test]
    fn attributes_stored() {
        let t = toy();
        let l3 = by_name(&t, "l3cache0");
        assert_eq!(l3.attrs["size_kb"], json!(28160));
    }

    #[test]
    fn kind_labels() {
        assert_eq!(ComponentKind::Cache(2).label(), "l2cache");
        assert_eq!(ComponentKind::Thread.label(), "thread");
    }
}
