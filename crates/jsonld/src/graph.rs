//! An indexed triple store.
//!
//! Keeps SPO/POS/OSP permutation indexes so every `(s?, p?, o?)` pattern
//! resolves without a full scan — the KB's focus/subtree/level views all
//! reduce to such patterns.

use crate::triple::{Node, Triple};
use std::collections::{BTreeMap, BTreeSet};

/// Triple pattern: `None` matches anything.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pattern {
    /// Subject constraint.
    pub subject: Option<String>,
    /// Predicate constraint.
    pub predicate: Option<String>,
    /// Object constraint.
    pub object: Option<Node>,
}

impl Pattern {
    /// Match any triple.
    pub(crate) fn any() -> Self {
        Pattern::default()
    }

    /// Constrain the subject.
    pub(crate) fn s(mut self, subject: impl Into<String>) -> Self {
        self.subject = Some(subject.into());
        self
    }

    /// Constrain the predicate.
    pub(crate) fn p(mut self, predicate: impl Into<String>) -> Self {
        self.predicate = Some(predicate.into());
        self
    }

    /// Constrain the object.
    pub(crate) fn o(mut self, object: Node) -> Self {
        self.object = Some(object);
        self
    }
}

/// The triple store.
#[derive(Debug, Default)]
pub struct Graph {
    triples: Vec<Triple>,
    spo: BTreeMap<String, BTreeSet<usize>>,
    pos: BTreeMap<String, BTreeSet<usize>>,
    osp: BTreeMap<String, BTreeSet<usize>>,
}

impl Graph {
    /// New empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    fn object_key(o: &Node) -> String {
        format!("{o}")
    }

    /// Insert a triple (duplicates are allowed, as in RDF multisets here).
    fn insert(&mut self, t: Triple) {
        let id = self.triples.len();
        self.spo.entry(t.subject.clone()).or_default().insert(id);
        self.pos.entry(t.predicate.clone()).or_default().insert(id);
        self.osp
            .entry(Self::object_key(&t.object))
            .or_default()
            .insert(id);
        self.triples.push(t);
    }

    /// Convenience insert.
    pub(crate) fn add(
        &mut self,
        subject: impl Into<String>,
        predicate: impl Into<String>,
        object: Node,
    ) {
        self.insert(Triple::new(subject, predicate, object));
    }

    fn matches(t: &Triple, p: &Pattern) -> bool {
        p.subject.as_ref().is_none_or(|s| *s == t.subject)
            && p.predicate.as_ref().is_none_or(|pr| *pr == t.predicate)
            && p.object.as_ref().is_none_or(|o| *o == t.object)
    }

    /// Candidate triple ids for a pattern using the most selective index.
    fn candidates<'a>(&'a self, p: &Pattern) -> Box<dyn Iterator<Item = usize> + 'a> {
        let by_s = p.subject.as_ref().and_then(|s| self.spo.get(s));
        let by_p = p.predicate.as_ref().and_then(|pr| self.pos.get(pr));
        let by_o = p
            .object
            .as_ref()
            .and_then(|o| self.osp.get(&Self::object_key(o)));
        let sets: Vec<&BTreeSet<usize>> = [by_s, by_p, by_o].into_iter().flatten().collect();
        match sets.into_iter().min_by_key(|s| s.len()) {
            Some(best) => Box::new(best.iter().copied()),
            None => Box::new(0..self.triples.len()),
        }
    }

    /// All live triples matching a pattern, in insertion order.
    pub(crate) fn query(&self, pattern: &Pattern) -> Vec<&Triple> {
        let mut ids: Vec<usize> = self
            .candidates(pattern)
            .filter(|&id| Self::matches(&self.triples[id], pattern))
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|id| &self.triples[id]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> Graph {
        let mut g = Graph::new();
        g.add("gpu0", "rdf:type", Node::lit("Interface"));
        g.add("gpu0", "name", Node::lit("NVIDIA GV100"));
        g.add("gpu0", "partOf", Node::iri("cn1"));
        g.add("cpu0", "rdf:type", Node::lit("Interface"));
        g.add("cpu0", "partOf", Node::iri("socket0"));
        g
    }

    #[test]
    fn pattern_queries() {
        let g = filled();
        assert_eq!(g.query(&Pattern::any()).len(), 5);
        assert_eq!(g.query(&Pattern::any().s("gpu0")).len(), 3);
        assert_eq!(g.query(&Pattern::any().p("rdf:type")).len(), 2);
        assert_eq!(g.query(&Pattern::any().o(Node::lit("Interface"))).len(), 2);
        assert_eq!(g.query(&Pattern::any().s("gpu0").p("rdf:type")).len(), 1);
        assert!(g.query(&Pattern::any().s("nosuch")).is_empty());
    }

    #[test]
    fn duplicates_allowed_and_counted() {
        let mut g = Graph::new();
        g.add("s", "p", Node::lit("o"));
        g.add("s", "p", Node::lit("o"));
        assert_eq!(g.query(&Pattern::any()).len(), 2);
        assert_eq!(g.query(&Pattern::any().s("s")).len(), 2);
    }
}
