//! Interface ⇄ JSON-LD conversion (the exact document shape of Listing 4)
//! and Interface → RDF triple projection for the graph views.

use crate::dtdl::{
    Command, Content, Interface, Property, Relationship, Schema, Telemetry, TelemetryKind,
};
use crate::dtmi::Dtmi;
use crate::error::JsonLdError;
use crate::graph::Graph;
use crate::triple::Node;
use serde_json::{json, Map, Value};

/// The DTDL v2 context IRI every interface document carries.
const DTDL_CONTEXT: &str = "dtmi:dtdl:context;2";

/// Serialize an interface into the Listing-4 JSON-LD document shape.
pub fn interface_to_json(i: &Interface) -> Value {
    let mut contents = Vec::with_capacity(i.contents.len());
    for c in &i.contents {
        contents.push(match c {
            Content::Property(p) => {
                let mut m = Map::new();
                m.insert("@id".into(), json!(p.id.to_string()));
                m.insert("@type".into(), json!("Property"));
                m.insert("name".into(), json!(p.name));
                m.insert("description".into(), p.description.clone());
                if let Some(s) = p.schema {
                    m.insert("schema".into(), json!(s.keyword()));
                }
                Value::Object(m)
            }
            Content::Telemetry(t) => {
                let mut m = Map::new();
                m.insert("@id".into(), json!(t.id.to_string()));
                m.insert("@type".into(), json!(t.kind.type_name()));
                m.insert("name".into(), json!(t.name));
                m.insert("SamplerName".into(), json!(t.sampler_name));
                m.insert("DBName".into(), json!(t.db_name));
                if let Some(f) = &t.field_name {
                    m.insert("FieldName".into(), json!(f));
                }
                if let Some(p) = &t.pmu_name {
                    m.insert("PMUName".into(), json!(p));
                }
                if let Some(d) = &t.description {
                    m.insert("description".into(), json!(d));
                }
                Value::Object(m)
            }
            Content::Relationship(r) => json!({
                "@id": r.id.to_string(),
                "@type": "Relationship",
                "name": r.name,
                "target": r.target.to_string(),
            }),
            Content::Command(cmd) => {
                let mut m = Map::new();
                m.insert("@id".into(), json!(cmd.id.to_string()));
                m.insert("@type".into(), json!("Command"));
                m.insert("name".into(), json!(cmd.name));
                if let Some(req) = &cmd.request {
                    m.insert("request".into(), req.clone());
                }
                Value::Object(m)
            }
        });
    }
    json!({
        "@type": "Interface",
        "@id": i.id.to_string(),
        "@context": DTDL_CONTEXT,
        "componentType": i.component_type,
        "displayName": i.display_name,
        "contents": contents,
    })
}

/// Parse a Listing-4 style JSON-LD document back into an [`Interface`].
pub fn interface_from_json(doc: &Value) -> Result<Interface, JsonLdError> {
    let obj = doc
        .as_object()
        .ok_or_else(|| JsonLdError::BadDocument("interface must be an object".into()))?;
    let id = Dtmi::parse(
        obj.get("@id")
            .and_then(Value::as_str)
            .ok_or_else(|| JsonLdError::BadDocument("missing @id".into()))?,
    )?;
    let ty = obj.get("@type").and_then(Value::as_str).unwrap_or("");
    if ty != "Interface" {
        return Err(JsonLdError::BadDocument(format!(
            "@type must be Interface, got {ty}"
        )));
    }
    let mut iface = Interface::new(
        id,
        obj.get("componentType")
            .and_then(Value::as_str)
            .unwrap_or("component"),
        obj.get("displayName").and_then(Value::as_str).unwrap_or(""),
    );
    if let Some(contents) = obj.get("contents").and_then(Value::as_array) {
        for c in contents {
            iface.contents.push(content_from_json(c)?);
        }
    }
    Ok(iface)
}

fn content_from_json(c: &Value) -> Result<Content, JsonLdError> {
    let obj = c
        .as_object()
        .ok_or_else(|| JsonLdError::BadDocument("content must be an object".into()))?;
    let id = Dtmi::parse(
        obj.get("@id")
            .and_then(Value::as_str)
            .ok_or_else(|| JsonLdError::BadDocument("content missing @id".into()))?,
    )?;
    let name = obj
        .get("name")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string();
    let ty = obj
        .get("@type")
        .and_then(Value::as_str)
        .ok_or_else(|| JsonLdError::BadDocument("content missing @type".into()))?;
    Ok(match ty {
        "Property" => Content::Property(Property {
            id,
            name,
            description: obj.get("description").cloned().unwrap_or(Value::Null),
            schema: obj
                .get("schema")
                .and_then(Value::as_str)
                .and_then(Schema::parse),
        }),
        "SWTelemetry" | "HWTelemetry" | "Telemetry" => {
            let kind = if ty == "HWTelemetry" {
                TelemetryKind::Hardware
            } else {
                TelemetryKind::Software
            };
            Content::Telemetry(Telemetry {
                id,
                name,
                kind,
                sampler_name: obj
                    .get("SamplerName")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                db_name: obj
                    .get("DBName")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                field_name: obj
                    .get("FieldName")
                    .and_then(Value::as_str)
                    .map(str::to_string),
                pmu_name: obj
                    .get("PMUName")
                    .and_then(Value::as_str)
                    .map(str::to_string),
                description: obj
                    .get("description")
                    .and_then(Value::as_str)
                    .map(str::to_string),
            })
        }
        "Relationship" => {
            Content::Relationship(Relationship {
                id,
                name,
                target: Dtmi::parse(obj.get("target").and_then(Value::as_str).ok_or_else(
                    || JsonLdError::BadDocument("relationship missing target".into()),
                )?)?,
            })
        }
        "Command" => Content::Command(Command {
            id,
            name,
            request: obj.get("request").cloned(),
        }),
        other => {
            return Err(JsonLdError::BadDocument(format!(
                "unknown content type {other}"
            )))
        }
    })
}

/// Project an interface into RDF triples (for graph-pattern queries).
pub fn interface_to_triples(i: &Interface, graph: &mut Graph) {
    let s = i.id.to_string();
    graph.add(&s, "rdf:type", Node::lit("Interface"));
    graph.add(&s, "pmove:componentType", Node::lit(&i.component_type));
    graph.add(&s, "pmove:displayName", Node::lit(&i.display_name));
    for c in &i.contents {
        match c {
            Content::Property(p) => {
                let val = match &p.description {
                    Value::String(s) => Node::lit(s.clone()),
                    Value::Number(n) => Node::double(n.as_f64().unwrap_or(0.0)),
                    other => Node::lit(other.to_string()),
                };
                graph.add(&s, format!("prop:{}", p.name), val);
            }
            Content::Telemetry(t) => {
                graph.add(&s, "pmove:hasTelemetry", Node::iri(t.id.to_string()));
                graph.add(t.id.to_string(), "rdf:type", Node::lit(t.kind.type_name()));
                graph.add(t.id.to_string(), "pmove:dbName", Node::lit(&t.db_name));
            }
            Content::Relationship(r) => {
                graph.add(
                    &s,
                    format!("rel:{}", r.name),
                    Node::iri(r.target.to_string()),
                );
            }
            Content::Command(cmd) => {
                graph.add(&s, "pmove:hasCommand", Node::lit(&cmd.name));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtdl::TelemetryBuilder;
    use crate::graph::Pattern;

    fn gpu() -> Interface {
        let id = Dtmi::parse("dtmi:dt:cn1:gpu0;1").unwrap();
        let mut i = Interface::new(id, "gpu", "gpu0");
        i.add_property("model", json!("NVIDIA Quadro GV100"));
        i.add_property("numa node", json!(0));
        i.add_telemetry(TelemetryBuilder::software("metric4", "nvidia.memused"));
        i.add_telemetry(
            TelemetryBuilder::hardware("metric137", "ncu", "gpu__compute_memory_access_throughput")
                .field("_gpu0"),
        );
        i.add_relationship("partOf", Dtmi::parse("dtmi:dt:cn1;1").unwrap());
        i
    }

    #[test]
    fn json_shape_matches_listing4() {
        let doc = interface_to_json(&gpu());
        assert_eq!(doc["@type"], json!("Interface"));
        assert_eq!(doc["@id"], json!("dtmi:dt:cn1:gpu0;1"));
        assert_eq!(doc["@context"], json!("dtmi:dtdl:context;2"));
        let contents = doc["contents"].as_array().unwrap();
        assert_eq!(contents[0]["@type"], json!("Property"));
        assert_eq!(contents[2]["@type"], json!("SWTelemetry"));
        assert_eq!(contents[2]["SamplerName"], json!("nvidia.memused"));
        assert_eq!(contents[2]["DBName"], json!("nvidia_memused"));
        assert_eq!(contents[3]["@type"], json!("HWTelemetry"));
        assert_eq!(contents[3]["PMUName"], json!("ncu"));
        assert_eq!(contents[3]["FieldName"], json!("_gpu0"));
    }

    #[test]
    fn json_roundtrip() {
        let original = gpu();
        let doc = interface_to_json(&original);
        let back = interface_from_json(&doc).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(interface_from_json(&json!(1)).is_err());
        assert!(interface_from_json(&json!({"@type": "Interface"})).is_err());
        assert!(interface_from_json(&json!({"@id": "dtmi:x;1", "@type": "Nope"})).is_err());
        let bad_content = json!({
            "@id": "dtmi:x;1", "@type": "Interface",
            "contents": [{"@id": "dtmi:x:c;1", "@type": "Mystery"}]
        });
        assert!(interface_from_json(&bad_content).is_err());
    }

    #[test]
    fn triple_projection() {
        let mut g = Graph::new();
        interface_to_triples(&gpu(), &mut g);
        // rdf:type triples exist for the interface and both telemetry nodes.
        let types = g.query(&Pattern::any().p("rdf:type"));
        assert_eq!(types.len(), 3);
        // Relationship projected as rel:partOf edge.
        let part = g.query(&Pattern::any().p("rel:partOf"));
        assert_eq!(part.len(), 1);
        assert_eq!(part[0].object, Node::iri("dtmi:dt:cn1;1"));
        // Property values queryable.
        let model = g.query(&Pattern::any().s("dtmi:dt:cn1:gpu0;1").p("prop:model"));
        assert_eq!(model.len(), 1);
        assert_eq!(model[0].object, Node::lit("NVIDIA Quadro GV100"));
    }
}
