//! RDF triples: subject–predicate–object statements over IRIs and literals.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A node in the RDF graph: an IRI reference or a literal value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Node {
    /// IRI (or DTMI, which is a valid IRI scheme use).
    Iri(String),
    /// Plain string literal.
    Literal(String),
    /// Typed literal with datatype IRI (e.g. xsd:integer).
    TypedLiteral(String, String),
}

impl Node {
    /// Build an IRI node.
    pub(crate) fn iri(s: impl Into<String>) -> Self {
        Node::Iri(s.into())
    }

    /// Build a plain literal node.
    pub(crate) fn lit(s: impl Into<String>) -> Self {
        Node::Literal(s.into())
    }

    /// Build a double-typed literal.
    pub(crate) fn double(v: f64) -> Self {
        Node::TypedLiteral(v.to_string(), "xsd:double".into())
    }

    /// The lexical form, regardless of node kind.
    pub(crate) fn lexical(&self) -> &str {
        match self {
            Node::Iri(s) | Node::Literal(s) | Node::TypedLiteral(s, _) => s,
        }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Iri(s) => write!(f, "<{s}>"),
            Node::Literal(s) => write!(f, "\"{s}\""),
            Node::TypedLiteral(s, t) => write!(f, "\"{s}\"^^{t}"),
        }
    }
}

/// One RDF statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub(crate) struct Triple {
    /// Subject (always an IRI in this KB).
    pub subject: String,
    /// Predicate IRI / term.
    pub predicate: String,
    /// Object node.
    pub object: Node,
}

impl Triple {
    /// Build a triple.
    pub(crate) fn new(
        subject: impl Into<String>,
        predicate: impl Into<String>,
        object: Node,
    ) -> Self {
        Triple {
            subject: subject.into(),
            predicate: predicate.into(),
            object,
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<{}> <{}> {} .",
            self.subject, self.predicate, self.object
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_constructors() {
        assert_eq!(Node::iri("dtmi:dt;1"), Node::Iri("dtmi:dt;1".into()));
        assert_eq!(Node::lit("x").lexical(), "x");
        assert_eq!(
            Node::double(3.0),
            Node::TypedLiteral("3".into(), "xsd:double".into())
        );
    }

    #[test]
    fn display_ntriples_like() {
        let t = Triple::new("s", "p", Node::lit("o"));
        assert_eq!(t.to_string(), "<s> <p> \"o\" .");
        let t = Triple::new("s", "p", Node::double(1.5));
        assert!(t.to_string().contains("xsd:double"));
    }
}
