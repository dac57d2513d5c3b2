//! DTDL metamodel classes.
//!
//! The paper builds its ontology on DTDL's six metamodel classes —
//! Interface, Telemetry, Properties, Commands, Relationship and data
//! schemas — treating *every Interface as a stand-alone (sub)twin*.
//! P-MoVE extends Telemetry into two subclasses:
//!
//! * `SWTelemetry` — software/system-state metrics, always sampled at low
//!   frequency (PCP sampler name + DB measurement name);
//! * `HWTelemetry` — PMU events sampled at high frequency during kernel
//!   executions (adds the PMU name and DB field name).

use crate::dtmi::Dtmi;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Primitive DTDL schemas (subset used by the KB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Schema {
    /// 64-bit float.
    Double,
    /// 64-bit integer.
    Integer,
    /// UTF-8 string.
    String,
    /// Boolean.
    Boolean,
    /// ISO-8601 duration.
    Duration,
}

impl Schema {
    /// DTDL schema keyword.
    pub(crate) fn keyword(&self) -> &'static str {
        match self {
            Schema::Double => "double",
            Schema::Integer => "integer",
            Schema::String => "string",
            Schema::Boolean => "boolean",
            Schema::Duration => "duration",
        }
    }

    /// Parse a DTDL schema keyword.
    pub(crate) fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "double" | "float" => Schema::Double,
            "integer" | "long" => Schema::Integer,
            "string" => Schema::String,
            "boolean" => Schema::Boolean,
            "duration" => Schema::Duration,
            _ => return None,
        })
    }
}

/// Whether a telemetry stream is software- or hardware-sourced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TelemetryKind {
    /// System-state metric, always sampled at low frequency.
    Software,
    /// PMU event, sampled at high frequency during kernel executions.
    Hardware,
}

impl TelemetryKind {
    /// The `@type` string used in KB documents.
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            TelemetryKind::Software => "SWTelemetry",
            TelemetryKind::Hardware => "HWTelemetry",
        }
    }
}

/// A DTDL Property: a static characteristic of the component
/// (model name, memory size, NUMA node, ...).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Property {
    /// Identifier of this property entry.
    pub id: Dtmi,
    /// Property name (`model`, `memory`, `numa node`).
    pub name: String,
    /// Value — the paper stores these in `description` (Listing 4).
    pub description: Value,
    /// Declared schema, when known.
    pub schema: Option<Schema>,
}

/// A telemetry stream attached to a component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Telemetry {
    /// Identifier of this telemetry entry.
    pub id: Dtmi,
    /// Logical metric name within the KB (`metric4`).
    pub name: String,
    /// SW or HW sourced.
    pub kind: TelemetryKind,
    /// Name understood by the sampler (`nvidia.memused`,
    /// `perfevent.hwcounters.FP_ARITH...`).
    pub sampler_name: String,
    /// Measurement name in the time-series DB.
    pub db_name: String,
    /// Field name within the measurement (`_cpu0`, `_gpu0`); optional for
    /// SW telemetry whose instance domain names the fields.
    pub field_name: Option<String>,
    /// PMU that provides the event (HW only; `ncu`, `skl`, `zen3`).
    pub pmu_name: Option<String>,
    /// Human-readable description.
    pub description: Option<String>,
}

/// A DTDL Relationship edge between twins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Relationship {
    /// Identifier of this relationship entry.
    pub id: Dtmi,
    /// Relationship name (`contains`, `connectedTo`, `runsOn`).
    pub name: String,
    /// Target twin.
    pub target: Dtmi,
}

/// A DTDL Command (unused by the evaluation but part of the metamodel;
/// P-MoVE uses it for benchmark/kernel launch hooks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Command {
    /// Identifier of this command entry.
    pub id: Dtmi,
    /// Command name (`run_benchmark`).
    pub name: String,
    /// Free-form request schema description.
    pub request: Option<Value>,
}

/// One entry in an Interface's `contents` array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Content {
    /// Static property.
    Property(Property),
    /// Telemetry stream.
    Telemetry(Telemetry),
    /// Edge to another twin.
    Relationship(Relationship),
    /// Invokable command.
    Command(Command),
}

impl Content {
    /// The entry's own DTMI.
    pub(crate) fn id(&self) -> &Dtmi {
        match self {
            Content::Property(p) => &p.id,
            Content::Telemetry(t) => &t.id,
            Content::Relationship(r) => &r.id,
            Content::Command(c) => &c.id,
        }
    }

    /// The entry's `name`.
    pub(crate) fn name(&self) -> &str {
        match self {
            Content::Property(p) => &p.name,
            Content::Telemetry(t) => &t.name,
            Content::Relationship(r) => &r.name,
            Content::Command(c) => &c.name,
        }
    }
}

/// A DTDL Interface: one component of the HPC system, modelled as a
/// stand-alone digital (sub)twin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Interface {
    /// The twin's DTMI (`dtmi:dt:cn1:gpu0;1`).
    pub id: Dtmi,
    /// Component kind tag (`node`, `socket`, `core`, `thread`, `cache`,
    /// `memory`, `disk`, `nic`, `gpu`, `process`, ...). P-MoVE's level view
    /// groups twins by this.
    pub component_type: String,
    /// Display name.
    pub display_name: String,
    /// Contents: properties, telemetry, relationships, commands.
    pub(crate) contents: Vec<Content>,
}

impl Interface {
    /// New empty interface.
    pub fn new(
        id: Dtmi,
        component_type: impl Into<String>,
        display_name: impl Into<String>,
    ) -> Self {
        Interface {
            id,
            component_type: component_type.into(),
            display_name: display_name.into(),
            contents: Vec::new(),
        }
    }

    /// Append a property built from `name`/`value`, auto-assigning an id
    /// `<self>:propertyN;v`.
    pub fn add_property(&mut self, name: impl Into<String>, value: Value) {
        let n = self.count_of("property");
        let id = self
            .id
            .child(&format!("property{n}"))
            .expect("generated segment is valid");
        self.contents.push(Content::Property(Property {
            id,
            name: name.into(),
            description: value,
            schema: None,
        }));
    }

    /// Append a telemetry entry, auto-assigning `<self>:telemetryN;v`.
    pub fn add_telemetry(&mut self, mut t: TelemetryBuilder) -> &Telemetry {
        let n = self.count_of("telemetry");
        t.id = Some(
            self.id
                .child(&format!("telemetry{n}"))
                .expect("generated segment is valid"),
        );
        self.contents.push(Content::Telemetry(t.build()));
        match self.contents.last() {
            Some(Content::Telemetry(t)) => t,
            _ => unreachable!("just pushed"),
        }
    }

    /// Append a relationship, auto-assigning `<self>:relationshipN;v`.
    pub fn add_relationship(&mut self, name: impl Into<String>, target: Dtmi) {
        let n = self.count_of("relationship");
        let id = self
            .id
            .child(&format!("relationship{n}"))
            .expect("generated segment is valid");
        self.contents.push(Content::Relationship(Relationship {
            id,
            name: name.into(),
            target,
        }));
    }

    fn count_of(&self, kind: &str) -> usize {
        self.contents
            .iter()
            .filter(|c| c.id().local_name().starts_with(kind))
            .count()
    }

    /// All properties.
    fn properties(&self) -> impl Iterator<Item = &Property> {
        self.contents.iter().filter_map(|c| match c {
            Content::Property(p) => Some(p),
            _ => None,
        })
    }

    /// All telemetry entries.
    pub fn telemetry(&self) -> impl Iterator<Item = &Telemetry> {
        self.contents.iter().filter_map(|c| match c {
            Content::Telemetry(t) => Some(t),
            _ => None,
        })
    }

    /// All relationships.
    pub(crate) fn relationships(&self) -> impl Iterator<Item = &Relationship> {
        self.contents.iter().filter_map(|c| match c {
            Content::Relationship(r) => Some(r),
            _ => None,
        })
    }

    /// Look up a property value by name.
    pub fn property_value(&self, name: &str) -> Option<&Value> {
        self.properties()
            .find(|p| p.name == name)
            .map(|p| &p.description)
    }
}

/// Builder for [`Telemetry`] entries (ids are assigned by the owning
/// interface).
#[derive(Debug, Clone)]
pub struct TelemetryBuilder {
    id: Option<Dtmi>,
    name: String,
    kind: TelemetryKind,
    sampler_name: String,
    db_name: String,
    field_name: Option<String>,
    pmu_name: Option<String>,
    description: Option<String>,
}

impl TelemetryBuilder {
    /// Software telemetry with the given logical name and sampler metric.
    pub fn software(name: impl Into<String>, sampler: impl Into<String>) -> Self {
        let sampler = sampler.into();
        let db_name = sampler.replace('.', "_");
        TelemetryBuilder {
            id: None,
            name: name.into(),
            kind: TelemetryKind::Software,
            sampler_name: sampler,
            db_name,
            field_name: None,
            pmu_name: None,
            description: None,
        }
    }

    /// Hardware telemetry for a PMU event.
    pub fn hardware(
        name: impl Into<String>,
        pmu: impl Into<String>,
        event: impl Into<String>,
    ) -> Self {
        let event = event.into();
        let db_name = format!("perfevent_hwcounters_{}", event.replace([':', '.'], "_"));
        TelemetryBuilder {
            id: None,
            name: name.into(),
            kind: TelemetryKind::Hardware,
            sampler_name: event,
            db_name,
            field_name: None,
            pmu_name: Some(pmu.into()),
            description: None,
        }
    }

    /// Override the DB measurement name.
    pub fn db_name(mut self, db: impl Into<String>) -> Self {
        self.db_name = db.into();
        self
    }

    /// Set the DB field name (`_cpu0`).
    pub fn field(mut self, f: impl Into<String>) -> Self {
        self.field_name = Some(f.into());
        self
    }

    /// Set the human description.
    pub fn description(mut self, d: impl Into<String>) -> Self {
        self.description = Some(d.into());
        self
    }

    fn build(self) -> Telemetry {
        Telemetry {
            id: self.id.expect("assigned by Interface::add_telemetry"),
            name: self.name,
            kind: self.kind,
            sampler_name: self.sampler_name,
            db_name: self.db_name,
            field_name: self.field_name,
            pmu_name: self.pmu_name,
            description: self.description,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn gpu() -> Interface {
        let id = Dtmi::parse("dtmi:dt:cn1:gpu0;1").unwrap();
        let mut i = Interface::new(id, "gpu", "gpu0");
        i.add_property("model", json!("NVIDIA Quadro GV100"));
        i.add_property("memory", json!("34359 Mb"));
        i.add_telemetry(TelemetryBuilder::software("metric4", "nvidia.memused"));
        i.add_telemetry(
            TelemetryBuilder::hardware("metric137", "ncu", "gpu__compute_memory_access_throughput")
                .field("_gpu0")
                .description("Compute Memory Pipeline"),
        );
        i.add_relationship("partOf", Dtmi::parse("dtmi:dt:cn1;1").unwrap());
        i
    }

    #[test]
    fn content_ids_follow_listing4_scheme() {
        let g = gpu();
        let ids: Vec<String> = g.contents.iter().map(|c| c.id().to_string()).collect();
        assert_eq!(ids[0], "dtmi:dt:cn1:gpu0:property0;1");
        assert_eq!(ids[1], "dtmi:dt:cn1:gpu0:property1;1");
        assert_eq!(ids[2], "dtmi:dt:cn1:gpu0:telemetry0;1");
        assert_eq!(ids[3], "dtmi:dt:cn1:gpu0:telemetry1;1");
        assert_eq!(ids[4], "dtmi:dt:cn1:gpu0:relationship0;1");
    }

    #[test]
    fn telemetry_builders_fill_db_names() {
        let g = gpu();
        let tel: Vec<&Telemetry> = g.telemetry().collect();
        assert_eq!(tel[0].kind, TelemetryKind::Software);
        assert_eq!(tel[0].db_name, "nvidia_memused");
        assert_eq!(tel[1].kind, TelemetryKind::Hardware);
        assert_eq!(tel[1].pmu_name.as_deref(), Some("ncu"));
        assert!(tel[1].db_name.starts_with("perfevent_hwcounters_"));
        assert_eq!(tel[1].field_name.as_deref(), Some("_gpu0"));
    }

    #[test]
    fn property_lookup() {
        let g = gpu();
        assert_eq!(
            g.property_value("model"),
            Some(&json!("NVIDIA Quadro GV100"))
        );
        assert!(g.property_value("nope").is_none());
        assert_eq!(g.properties().count(), 2);
        assert_eq!(g.relationships().count(), 1);
    }

    #[test]
    fn schema_keywords() {
        assert_eq!(Schema::parse("double"), Some(Schema::Double));
        assert_eq!(Schema::parse("long"), Some(Schema::Integer));
        assert_eq!(Schema::parse("nope"), None);
        assert_eq!(Schema::Boolean.keyword(), "boolean");
    }

    #[test]
    fn telemetry_kind_names() {
        assert_eq!(TelemetryKind::Software.type_name(), "SWTelemetry");
        assert_eq!(TelemetryKind::Hardware.type_name(), "HWTelemetry");
    }

    #[test]
    fn content_name_accessor() {
        let g = gpu();
        assert_eq!(g.contents[0].name(), "model");
        assert_eq!(g.contents[4].name(), "partOf");
    }
}
