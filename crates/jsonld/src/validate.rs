//! Structural validation of DTDL documents and interface hierarchies.

use crate::dtdl::{Content, Interface};
use crate::error::JsonLdError;
use std::collections::{BTreeMap, BTreeSet};

/// Validate one interface:
/// * content ids must live under the interface's DTMI;
/// * content names must be non-empty and unique within the interface;
/// * telemetry entries must name a sampler and a DB measurement;
/// * versions must agree between the interface and its contents.
fn validate_interface(i: &Interface) -> Result<(), JsonLdError> {
    let mut seen = BTreeSet::new();
    for c in &i.contents {
        let id = c.id();
        if !id.is_within(&i.id) {
            return Err(JsonLdError::Validation(format!(
                "content {id} is not under interface {}",
                i.id
            )));
        }
        if id.version != i.id.version {
            return Err(JsonLdError::Validation(format!(
                "content {id} version differs from interface {}",
                i.id
            )));
        }
        if c.name().is_empty() {
            return Err(JsonLdError::Validation(format!(
                "content {id} has empty name"
            )));
        }
        // Relationships may repeat a name across different targets (one
        // `contains` edge per child); other content names must be unique
        // within their kind.
        let uniqueness_key = match c {
            Content::Relationship(r) => ("relationship", format!("{}->{}", r.name, r.target)),
            other => (discriminant_name(other), other.name().to_string()),
        };
        if !seen.insert(uniqueness_key) {
            return Err(JsonLdError::Validation(format!(
                "duplicate content name {} in {}",
                c.name(),
                i.id
            )));
        }
        if let Content::Telemetry(t) = c {
            if t.sampler_name.is_empty() {
                return Err(JsonLdError::Validation(format!(
                    "telemetry {id} has no sampler name"
                )));
            }
            if t.db_name.is_empty() {
                return Err(JsonLdError::Validation(format!(
                    "telemetry {id} has no DB name"
                )));
            }
        }
    }
    Ok(())
}

fn discriminant_name(c: &Content) -> &'static str {
    match c {
        Content::Property(_) => "property",
        Content::Telemetry(_) => "telemetry",
        Content::Relationship(_) => "relationship",
        Content::Command(_) => "command",
    }
}

/// Validate a set of interfaces as a twin hierarchy:
/// * every interface id must be unique;
/// * every relationship target must resolve to a known interface;
/// * the `partOf`/`contains` containment edges must be acyclic.
pub fn validate_model(interfaces: &[Interface]) -> Result<(), JsonLdError> {
    let mut by_id = BTreeMap::new();
    for i in interfaces {
        validate_interface(i)?;
        if by_id.insert(i.id.clone(), i).is_some() {
            return Err(JsonLdError::Validation(format!(
                "duplicate interface id {}",
                i.id
            )));
        }
    }
    // Targets resolve.
    for i in interfaces {
        for r in i.relationships() {
            if !by_id.contains_key(&r.target) {
                return Err(JsonLdError::Validation(format!(
                    "relationship {} targets unknown interface {}",
                    r.id, r.target
                )));
            }
        }
    }
    // Containment acyclicity (DFS over contains/partOf edges).
    let mut state: BTreeMap<&crate::dtmi::Dtmi, u8> = BTreeMap::new(); // 0 new, 1 visiting, 2 done
    fn dfs<'a>(
        id: &'a crate::dtmi::Dtmi,
        by_id: &BTreeMap<crate::dtmi::Dtmi, &'a Interface>,
        state: &mut BTreeMap<&'a crate::dtmi::Dtmi, u8>,
    ) -> Result<(), JsonLdError> {
        match state.get(id) {
            Some(1) => {
                return Err(JsonLdError::Validation(format!(
                    "containment cycle through {id}"
                )))
            }
            Some(2) => return Ok(()),
            _ => {}
        }
        let Some(iface) = by_id.get(id) else {
            return Ok(());
        };
        state.insert(&iface.id, 1);
        for r in iface.relationships() {
            if r.name == "contains" || r.name == "partOf" {
                if let Some(target) = by_id.get(&r.target) {
                    dfs(&target.id, by_id, state)?;
                }
            }
        }
        state.insert(&iface.id, 2);
        Ok(())
    }
    for i in interfaces {
        dfs(&i.id, &by_id, &mut state)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtdl::{Interface, TelemetryBuilder};
    use crate::dtmi::Dtmi;
    use serde_json::json;

    fn iface(id: &str) -> Interface {
        Interface::new(Dtmi::parse(id).unwrap(), "node", "n")
    }

    #[test]
    fn valid_interface_passes() {
        let mut i = iface("dtmi:dt:cn1;1");
        i.add_property("model", json!("x"));
        i.add_telemetry(TelemetryBuilder::software("m", "kernel.all.load"));
        assert!(validate_interface(&i).is_ok());
    }

    #[test]
    fn foreign_content_id_fails() {
        let mut i = iface("dtmi:dt:cn1;1");
        i.add_property("p", json!(1));
        // Forge a content whose id is outside the interface.
        if let Content::Property(p) = &mut i.contents[0] {
            p.id = Dtmi::parse("dtmi:other:property0;1").unwrap();
        }
        assert!(validate_interface(&i).is_err());
    }

    #[test]
    fn duplicate_names_fail_but_cross_kind_ok() {
        let mut i = iface("dtmi:dt:cn1;1");
        i.add_property("x", json!(1));
        i.add_property("x", json!(2));
        assert!(validate_interface(&i).is_err());

        let mut j = iface("dtmi:dt:cn2;1");
        j.add_property("x", json!(1));
        j.add_telemetry(TelemetryBuilder::software("x", "s.m"));
        assert!(validate_interface(&j).is_ok());
    }

    #[test]
    fn empty_sampler_fails() {
        let mut i = iface("dtmi:dt:cn1;1");
        i.add_telemetry(TelemetryBuilder::software("m", ""));
        assert!(validate_interface(&i).is_err());
    }

    #[test]
    fn model_target_resolution() {
        let mut a = iface("dtmi:dt:a;1");
        let b = iface("dtmi:dt:b;1");
        a.add_relationship("contains", b.id.clone());
        assert!(validate_model(&[a.clone(), b.clone()]).is_ok());
        assert!(validate_model(&[a]).is_err()); // dangling target
    }

    #[test]
    fn model_duplicate_ids_fail() {
        let a = iface("dtmi:dt:a;1");
        let b = iface("dtmi:dt:a;1");
        assert!(validate_model(&[a, b]).is_err());
    }

    #[test]
    fn containment_cycle_detected() {
        let mut a = iface("dtmi:dt:a;1");
        let mut b = iface("dtmi:dt:b;1");
        a.add_relationship("contains", b.id.clone());
        b.add_relationship("contains", a.id.clone());
        assert!(validate_model(&[a, b]).is_err());
    }

    #[test]
    fn non_containment_cycles_allowed() {
        // connectedTo edges may form cycles (e.g. NUMA links).
        let mut a = iface("dtmi:dt:a;1");
        let mut b = iface("dtmi:dt:b;1");
        a.add_relationship("connectedTo", b.id.clone());
        b.add_relationship("connectedTo", a.id.clone());
        assert!(validate_model(&[a, b]).is_ok());
    }
}
