//! Digital Twin Model Identifiers.
//!
//! DTDL names models with DTMIs of the form `dtmi:<segment>(:<segment>)*;
//! <version>`, e.g. `dtmi:dt:cn1:gpu0;1` from Listing 4 of the paper.
//! Segments must start with a letter, contain only `[A-Za-z0-9_]`, and not
//! end with `_`; the version is a positive integer.

use crate::error::JsonLdError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A parsed, validated DTMI.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Dtmi {
    /// Path segments between `dtmi:` and `;version`.
    pub segments: Vec<String>,
    /// Model version (`;1`).
    pub version: u32,
}

impl Dtmi {
    /// Parse and validate a DTMI string.
    pub fn parse(s: &str) -> Result<Self, JsonLdError> {
        let body = s
            .strip_prefix("dtmi:")
            .ok_or_else(|| JsonLdError::BadDtmi(format!("missing dtmi: prefix in {s}")))?;
        let (path, version) = body
            .rsplit_once(';')
            .ok_or_else(|| JsonLdError::BadDtmi(format!("missing ;version in {s}")))?;
        let version: u32 = version
            .parse()
            .map_err(|_| JsonLdError::BadDtmi(format!("bad version in {s}")))?;
        if version == 0 {
            return Err(JsonLdError::BadDtmi(format!("version must be >= 1: {s}")));
        }
        let segments: Vec<String> = path.split(':').map(str::to_string).collect();
        if segments.is_empty() || segments.iter().any(|seg| !valid_segment(seg)) {
            return Err(JsonLdError::BadDtmi(format!("bad path segment in {s}")));
        }
        Ok(Dtmi { segments, version })
    }

    /// Build a DTMI from segments and a version, validating the segments.
    pub fn new<I, S>(segments: I, version: u32) -> Result<Self, JsonLdError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let segments: Vec<String> = segments.into_iter().map(Into::into).collect();
        let d = Dtmi { segments, version };
        // Re-parse the rendering to reuse the validation in one place.
        Dtmi::parse(&d.to_string())
    }

    /// Child DTMI: this path extended by one segment, same version.
    /// Models the paper's hierarchical ids (`dtmi:dt:cn1:gpu0:property0;1`).
    pub fn child(&self, segment: &str) -> Result<Self, JsonLdError> {
        let mut segments = self.segments.clone();
        segments.push(segment.to_string());
        Dtmi::new(segments, self.version)
    }

    /// Final path segment (the local name).
    pub fn local_name(&self) -> &str {
        self.segments.last().map(String::as_str).unwrap_or("")
    }

    /// True when `self` is `other` or a descendant of `other`.
    pub fn is_within(&self, other: &Dtmi) -> bool {
        self.segments.len() >= other.segments.len()
            && self.segments[..other.segments.len()] == other.segments[..]
    }
}

fn valid_segment(seg: &str) -> bool {
    let mut chars = seg.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() => {}
        _ => return false,
    }
    if seg.ends_with('_') {
        return false;
    }
    seg.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl fmt::Display for Dtmi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dtmi:{};{}", self.segments.join(":"), self.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_listing4_id() {
        let d = Dtmi::parse("dtmi:dt:cn1:gpu0;1").unwrap();
        assert_eq!(d.segments, vec!["dt", "cn1", "gpu0"]);
        assert_eq!(d.version, 1);
        assert_eq!(d.to_string(), "dtmi:dt:cn1:gpu0;1");
        assert_eq!(d.local_name(), "gpu0");
        assert_eq!(d.segments.len(), 3);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Dtmi::parse("dt:cn1;1").is_err()); // no prefix
        assert!(Dtmi::parse("dtmi:dt:cn1").is_err()); // no version
        assert!(Dtmi::parse("dtmi:dt:cn1;0").is_err()); // version 0
        assert!(Dtmi::parse("dtmi:dt:cn1;x").is_err()); // non-numeric
        assert!(Dtmi::parse("dtmi:1dt;1").is_err()); // digit-leading segment
        assert!(Dtmi::parse("dtmi:dt_;1").is_err()); // trailing underscore
        assert!(Dtmi::parse("dtmi:dt:cn-1;1").is_err()); // hyphen
    }

    #[test]
    fn child_parent_navigation() {
        let root = Dtmi::parse("dtmi:dt;1").unwrap();
        let node = root.child("cn1").unwrap();
        let gpu = node.child("gpu0").unwrap();
        assert_eq!(gpu.to_string(), "dtmi:dt:cn1:gpu0;1");
        assert!(gpu.is_within(&node));
        assert!(!node.is_within(&gpu));
        assert!(gpu.is_within(&root));
        assert!(gpu.is_within(&gpu));
        assert!(!root.is_within(&gpu));
    }

    #[test]
    fn new_validates() {
        assert!(Dtmi::new(["dt", "ok"], 2).is_ok());
        assert!(Dtmi::new(["bad-seg"], 1).is_err());
        assert!(Dtmi::new(["dt"], 0).is_err());
    }
}
