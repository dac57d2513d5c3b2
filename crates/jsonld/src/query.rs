//! Basic-graph-pattern queries over the triple store — the "advanced
//! analysis" path the paper's linked-data encoding enables: multi-pattern
//! joins with variables, SPARQL-style.
//!
//! ```text
//! ?iface  rdf:type            "Interface"
//! ?iface  pmove:hasTelemetry  ?tel
//! ?tel    pmove:dbName        ?db
//! ```
//!
//! Variables start with `?`; constants match exactly. The solver joins
//! patterns left to right with backtracking over candidate triples.

use crate::graph::{Graph, Pattern};
use crate::triple::Node;
use std::collections::BTreeMap;

/// One term of a BGP pattern: a variable or a constant.
#[derive(Debug, Clone, PartialEq)]
enum Term {
    /// Named variable (`?iface`).
    Var(String),
    /// Constant IRI/string (matches subjects/predicates by string, objects
    /// by node-aware matching: plain strings match IRIs and literals).
    Const(String),
}

impl Term {
    /// Parse `?name` as a variable, anything else as a string constant.
    fn parse(s: &str) -> Term {
        if let Some(name) = s.strip_prefix('?') {
            Term::Var(name.to_string())
        } else {
            Term::Const(s.to_string())
        }
    }
}

/// One triple pattern with variables.
#[derive(Debug, Clone, PartialEq)]
pub struct TriplePattern {
    s: Term,
    p: Term,
    o: Term,
}

impl TriplePattern {
    /// Build from three textual terms (`?x`, constants).
    fn new(s: &str, p: &str, o: &str) -> TriplePattern {
        TriplePattern {
            s: Term::parse(s),
            p: Term::parse(p),
            o: Term::parse(o),
        }
    }

    /// Object constant matching both literal and IRI forms: when the
    /// pattern object is a plain string it matches either node kind.
    fn object_matches(&self, node: &Node, binding: Option<&Node>) -> bool {
        if let Some(bound) = binding {
            return bound == node;
        }
        match &self.o {
            Term::Var(_) => true,
            Term::Const(s) => match node {
                Node::Iri(v) | Node::Literal(v) => v == s,
                Node::TypedLiteral(v, _) => v == s,
            },
        }
    }
}

/// A variable binding set (one query solution).
pub type Solution = BTreeMap<String, Node>;

/// Solve a basic graph pattern; returns every solution.
pub fn solve(graph: &Graph, patterns: &[TriplePattern]) -> Vec<Solution> {
    let mut solutions = Vec::new();
    let mut binding: Solution = BTreeMap::new();
    solve_rec(graph, patterns, 0, &mut binding, &mut solutions);
    solutions
}

fn resolve_str(term: &Term, binding: &Solution) -> Option<String> {
    match term {
        Term::Const(s) => Some(s.clone()),
        Term::Var(v) => binding.get(v).map(|n| n.lexical().to_string()),
    }
}

fn solve_rec(
    graph: &Graph,
    patterns: &[TriplePattern],
    idx: usize,
    binding: &mut Solution,
    out: &mut Vec<Solution>,
) {
    if idx == patterns.len() {
        out.push(binding.clone());
        return;
    }
    let pat = &patterns[idx];
    // Ground what we can from the current binding.
    let s = resolve_str(&pat.s, binding);
    let p = resolve_str(&pat.p, binding);
    // Only variable bindings force exact node equality; constant terms go
    // through `object_matches`, which lets plain strings match both IRI
    // and literal nodes.
    let o_bound = match &pat.o {
        Term::Var(v) => binding.get(v).cloned(),
        _ => None,
    };

    let mut probe = Pattern::any();
    if let Some(s) = &s {
        probe = probe.s(s.clone());
    }
    if let Some(p) = &p {
        probe = probe.p(p.clone());
    }
    // Objects bind exactly when a variable is bound; plain-string
    // constants are checked per candidate so they can match either IRIs
    // or literals.
    if let Some(node) = &o_bound {
        probe = probe.o(node.clone());
    }

    for triple in graph.query(&probe) {
        if !pat.object_matches(&triple.object, o_bound.as_ref()) {
            continue;
        }
        // Extend bindings for any variables.
        let mut added: Vec<String> = Vec::new();
        let mut ok = true;
        for (term, value) in [
            (&pat.s, Node::Iri(triple.subject.clone())),
            (&pat.p, Node::Iri(triple.predicate.clone())),
            (&pat.o, triple.object.clone()),
        ] {
            if let Term::Var(v) = term {
                match binding.get(v) {
                    Some(existing) => {
                        // Subjects/predicates bind as IRIs; compare by
                        // lexical form so ?x can join across positions.
                        if existing.lexical() != value.lexical() {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        binding.insert(v.clone(), value);
                        added.push(v.clone());
                    }
                }
            }
        }
        if ok {
            solve_rec(graph, patterns, idx + 1, binding, out);
        }
        for v in added {
            binding.remove(&v);
        }
    }
}

/// Parse a whitespace-separated BGP text: one pattern per line,
/// `subject predicate object` (object may contain no spaces), `#` comments.
pub fn parse_bgp(text: &str) -> Vec<TriplePattern> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            Some(TriplePattern::new(it.next()?, it.next()?, it.next()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb_graph() -> Graph {
        let mut g = Graph::new();
        for (name, kind) in [("cpu0", "thread"), ("cpu1", "thread"), ("gpu0", "gpu")] {
            g.add(name, "rdf:type", Node::lit("Interface"));
            g.add(name, "pmove:componentType", Node::lit(kind));
        }
        g.add("cpu0", "pmove:hasTelemetry", Node::iri("tel0"));
        g.add("cpu1", "pmove:hasTelemetry", Node::iri("tel1"));
        g.add("tel0", "pmove:dbName", Node::lit("kernel_percpu_cpu_idle"));
        g.add("tel1", "pmove:dbName", Node::lit("kernel_percpu_cpu_idle"));
        g.add("tel0", "rdf:type", Node::lit("SWTelemetry"));
        g.add("tel1", "rdf:type", Node::lit("HWTelemetry"));
        g
    }

    #[test]
    fn single_pattern_with_variable() {
        let g = kb_graph();
        let sols = solve(&g, &[TriplePattern::new("?x", "rdf:type", "Interface")]);
        assert_eq!(sols.len(), 3);
        let names: Vec<&str> = sols.iter().map(|s| s["x"].lexical()).collect();
        assert!(names.contains(&"cpu0"));
        assert!(names.contains(&"gpu0"));
    }

    #[test]
    fn multi_pattern_join() {
        // Threads with telemetry whose db name is the idle metric, plus
        // the telemetry kind.
        let g = kb_graph();
        let bgp = parse_bgp(
            "# find thread telemetry
             ?c pmove:componentType thread
             ?c pmove:hasTelemetry ?t
             ?t pmove:dbName kernel_percpu_cpu_idle
             ?t rdf:type ?kind",
        );
        let sols = solve(&g, &bgp);
        assert_eq!(sols.len(), 2);
        let kinds: Vec<&str> = sols.iter().map(|s| s["kind"].lexical()).collect();
        assert!(kinds.contains(&"SWTelemetry"));
        assert!(kinds.contains(&"HWTelemetry"));
    }

    #[test]
    fn shared_variable_must_join_consistently() {
        let g = kb_graph();
        // ?t appears in two patterns: tel0 must not join with tel1's type.
        let sols = solve(
            &g,
            &[
                TriplePattern::new("cpu0", "pmove:hasTelemetry", "?t"),
                TriplePattern::new("?t", "rdf:type", "HWTelemetry"),
            ],
        );
        assert!(sols.is_empty(), "cpu0's telemetry is SW, not HW");
    }

    #[test]
    fn constant_only_pattern_acts_as_ask() {
        let g = kb_graph();
        assert_eq!(
            solve(&g, &[TriplePattern::new("cpu0", "rdf:type", "Interface")]).len(),
            1
        );
        assert!(solve(&g, &[TriplePattern::new("cpu0", "rdf:type", "Gpu")]).is_empty());
    }

    #[test]
    fn object_constant_matches_iri_nodes_too() {
        let g = kb_graph();
        let sols = solve(
            &g,
            &[TriplePattern::new("?c", "pmove:hasTelemetry", "tel0")],
        );
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["c"].lexical(), "cpu0");
    }

    #[test]
    fn empty_bgp_yields_one_empty_solution() {
        let g = kb_graph();
        let sols = solve(&g, &[]);
        assert_eq!(sols.len(), 1);
        assert!(sols[0].is_empty());
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let bgp = parse_bgp("# c\n\n?a b c\n");
        assert_eq!(bgp.len(), 1);
        assert_eq!(bgp[0].s, Term::Var("a".into()));
    }
}
