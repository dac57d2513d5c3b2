//! Property tests for the abstraction layer's config grammar.
//!
//! Arbitrary text built from the grammar's tokens — `[pmu | alias]`
//! headers (well-formed and not), `generic: formula` lines with events,
//! constants and operators, lines missing their `:` or generic name,
//! `#` comments, blank lines and junk — is fed to
//! `AbstractionLayer::register_config` on top of an empty, a small or the
//! builtin layer. Neither registration nor `Formula::eval` may panic, and
//! a rejected text must leave the layer reading exactly as before the
//! call: registration is all or nothing. Every formula the layer then
//! holds for a generated generic event is evaluated against resolvers
//! that answer 0, NaN, ±inf or nothing; evaluation fails exactly when an
//! event of the formula is unresolved.
//!
//! `PMOVE_ABSTRACTION_CASES` overrides the case count (default 256).

use pmove_core::abstraction::presets::builtin_layer;
use pmove_core::abstraction::AbstractionLayer;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn abstraction_cases() -> u32 {
    std::env::var("PMOVE_ABSTRACTION_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

const PMUS: [&str; 4] = ["aa", "bb", "skx", "zen3"];
/// Every PMU name a layer here can hold: the generated headers' and the
/// builtin presets' (`skx`, `csl`, `icl`, `zen3`).
const LAYER_PMUS: [&str; 6] = ["aa", "bb", "skx", "zen3", "csl", "icl"];
const ALIASES: [&str; 3] = ["alpha", "aa", "skylakex"];
const GENERICS: [&str; 5] = [
    "X",
    "Y",
    "TOTAL_DP_FLOPS",
    "TOTAL_MEMORY_OPERATIONS",
    "CPU_CYCLES",
];
const OPERANDS: [&str; 12] = [
    "E1",
    "E2",
    "FP_ARITH:SCALAR_DOUBLE",
    "A:B:C",
    "0",
    "8",
    "-1",
    "0.5",
    "1e308",
    "NaN",
    "inf",
    "-inf",
];
const OPS: [&str; 7] = ["+", "-", "*", "/", "%", "++", "x"];
const JUNK: [&str; 10] = ["[", "]", "|", ":", "#", " ", "\t", "é", "[[x]]", "::"];

/// A formula's operands and operators: a first operand, then steps that
/// are mostly an operator and an operand, sometimes a lone operator (an
/// unknown one or a trailing one) or a lone operand.
type FormulaDraw = (usize, Vec<(u8, usize, usize)>);

fn formula(&(first, ref steps): &FormulaDraw) -> String {
    let mut parts = vec![OPERANDS[first % OPERANDS.len()]];
    for &(kind, op, operand) in steps {
        match kind {
            0 => parts.push(OPS[op % OPS.len()]),
            1 => parts.push(OPERANDS[operand % OPERANDS.len()]),
            _ => {
                parts.push(OPS[op % 4]);
                parts.push(OPERANDS[operand % OPERANDS.len()]);
            }
        }
    }
    parts.join(" ")
}

/// One config line: a header (well-formed or not), a mapping (with or
/// without its `:` or generic), a comment or blank line, or junk.
fn line((kind, i, j, f): (u8, usize, usize, FormulaDraw)) -> String {
    let generic = GENERICS[i % GENERICS.len()];
    match kind {
        0 => format!("[{}]", PMUS[i % PMUS.len()]),
        1 => format!(
            "[ {} | {} ]",
            PMUS[i % PMUS.len()],
            ALIASES[j % ALIASES.len()]
        ),
        2 => ["[]", "[ | a]", "[x", "x]", "[|]", "[ ]"][i % 6].to_string(),
        3..=5 => format!("{generic}: {}", formula(&f)),
        6 => format!("{generic} {}", formula(&f)),
        7 => format!(": {}", formula(&f)),
        8 => ["", "   ", "# comment", "  # [aa]"][i % 4].to_string(),
        _ => std::iter::once(i)
            .chain(f.1.iter().map(|s| s.1))
            .map(|k| JUNK[k % JUNK.len()])
            .collect(),
    }
}

fn lines() -> impl Strategy<Value = Vec<(u8, usize, usize, FormulaDraw)>> {
    let step = (0u8..8, 0usize..64, 0usize..64);
    let formula = (0usize..64, prop::collection::vec(step, 0..5));
    prop::collection::vec((0u8..10, 0usize..64, 0usize..64, formula), 0..14)
}

fn base_layer(choice: u64) -> AbstractionLayer {
    let mut layer = AbstractionLayer::default();
    match choice % 3 {
        0 => layer,
        1 => {
            layer
                .register_config("[aa | alpha]\nX: E1\nY: E2 * 8\n")
                .unwrap();
            layer
        }
        _ => builtin_layer(),
    }
}

/// A resolver answering 0, NaN, ±inf, a finite value, or nothing, fixed
/// per event name for one case.
fn resolver(seed: u64) -> impl Fn(&str) -> Option<f64> {
    move |event: &str| {
        let mut h = DefaultHasher::new();
        (seed, event).hash(&mut h);
        match h.finish() % 7 {
            0 => Some(0.0),
            1 => Some(f64::NAN),
            2 => Some(f64::INFINITY),
            3 => Some(f64::NEG_INFINITY),
            4 => None,
            5 => Some(1.5),
            _ => Some(-2.0),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(abstraction_cases()))]

    #[test]
    fn registration_never_panics_and_is_all_or_nothing(
        drawn in lines(),
        base in any::<u64>(),
        values in any::<u64>(),
    ) {
        let text: String = drawn.into_iter().map(|l| line(l) + "\n").collect();
        let mut layer = base_layer(base);
        let before = format!("{layer:?}");
        match layer.register_config(&text) {
            Err(_) => prop_assert!(
                format!("{layer:?}") == before,
                "a rejected config changed the layer:\n{}",
                text
            ),
            Ok(added) => {
                let headers = text
                    .lines()
                    .filter(|l| l.trim().starts_with('[') && l.trim().ends_with(']'))
                    .count();
                prop_assert_eq!(added, headers, "{}", text);
            }
        }

        let resolve = resolver(values);
        for pmu in LAYER_PMUS {
            for generic in GENERICS {
                let Ok(f) = layer.formula(pmu, generic) else {
                    continue;
                };
                let text = f.to_string();
                let unresolved = text
                    .split_whitespace()
                    .step_by(2)
                    .any(|t| t.parse::<f64>().is_err() && resolve(t).is_none());
                prop_assert_eq!(f.eval(&resolve).is_err(), unresolved, "{}", text);
            }
        }
    }
}
