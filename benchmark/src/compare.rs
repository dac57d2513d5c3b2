//! `compare A.json B.json`: one row per workload × end-to-end metric, with
//! both medians, the ratio (base = A) and a verdict from the metric's
//! bound; then the exact counts that changed.
#![forbid(unsafe_code)]

use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use serde_json::Value;
use std::fmt::Write as _;

/// What `compare` found.
pub struct Report {
    /// The table, ready to print.
    pub text: String,
    /// Every row `ok` and every exact count unchanged.
    pub all_ok: bool,
    /// At least one row `regressed`.
    pub any_regressed: bool,
}

/// A file is one set (`run --out`) or several (`selfcheck --out`); several
/// are pooled, which gives a committed baseline more samples.
fn sets(file: &Value) -> Vec<&Value> {
    match file.get("sets").and_then(Value::as_array) {
        Some(list) => list.iter().collect(),
        None => vec![file],
    }
}

fn end_to_end_values(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    sets(file)
        .iter()
        .flat_map(|s| {
            s["workloads"][workload]["end_to_end"][metric]["values"]
                .as_array()
                .into_iter()
                .flatten()
        })
        .filter_map(Value::as_f64)
        .collect()
}

fn per_layer_value(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    sets(file)
        .iter()
        .filter_map(|s| s["workloads"][workload]["per_layer"][metric]["value"].as_f64())
        .collect()
}

/// Compare set (or pooled sets) `b` against baseline `a`.
pub fn compare(a: &Value, b: &Value) -> Result<Report, String> {
    let mut text = String::new();
    let mut all_ok = true;
    let mut any_regressed = false;
    let _ = writeln!(
        text,
        "{:<16} {:<24} {:>16} {:>16} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "spread", "bound"
    );
    for (workload, _) in &WORKLOADS {
        for m in &END_TO_END {
            let va = end_to_end_values(a, workload, m.name);
            let vb = end_to_end_values(b, workload, m.name);
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{workload}/{} is missing from one of the files",
                    m.name
                ));
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let worse_by = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let spread = stats::spread(&va)
                .unwrap_or(0.0)
                .max(stats::spread(&vb).unwrap_or(0.0));
            // Every run of B reads better than every run of A: the spread
            // cannot have hidden a regression.
            let b_always_better = match m.better {
                Better::Lower => stats::percentile(&vb, 100.0) < stats::percentile(&va, 0.0),
                Better::Higher => stats::percentile(&vb, 0.0) > stats::percentile(&va, 100.0),
            };
            let verdict = if spread > m.bound && !b_always_better {
                "unresolved"
            } else if worse_by > m.bound {
                "regressed"
            } else {
                "ok"
            };
            all_ok &= verdict == "ok";
            any_regressed |= verdict == "regressed";
            let _ = writeln!(
                text,
                "{workload:<16} {:<24} {ma:>16.6} {mb:>16.6} {:>9.4} {:>7.2}% {:>6.1}%  {verdict}",
                m.name,
                mb / ma,
                spread * 100.0,
                m.bound * 100.0
            );
        }
    }
    let mut changed = Vec::new();
    for (workload, _) in &WORKLOADS {
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let mut seen = per_layer_value(a, workload, m.name);
            seen.extend(per_layer_value(b, workload, m.name));
            if seen.windows(2).any(|w| w[0].to_bits() != w[1].to_bits()) {
                changed.push(format!("{workload}/{}: {seen:?}", m.name));
            }
        }
    }
    if changed.is_empty() {
        let _ = writeln!(text, "exact counts: all identical");
    } else {
        all_ok = false;
        let _ = writeln!(text, "exact counts changed:");
        for c in &changed {
            let _ = writeln!(text, "  {c}");
        }
    }
    Ok(Report {
        text,
        all_ok,
        any_regressed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn set(run_wall: [f64; 3], commits: f64) -> Value {
        let mut workloads = serde_json::Map::new();
        for (w, _) in &WORKLOADS {
            let mut e2e = serde_json::Map::new();
            for m in &END_TO_END {
                let values = if m.name == "run_wall_s" {
                    run_wall.to_vec()
                } else {
                    vec![1.0, 1.0, 1.0]
                };
                e2e.insert(m.name.into(), json!({"values": values}));
            }
            let mut layer = serde_json::Map::new();
            for m in &PER_LAYER {
                let v = if m.name == "store.wal.commits" {
                    commits
                } else {
                    2.0
                };
                layer.insert(m.name.into(), json!({"value": v}));
            }
            workloads.insert(
                w.to_string(),
                json!({"end_to_end": e2e, "per_layer": layer}),
            );
        }
        json!({"workloads": workloads})
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = set([1.0, 1.01, 0.99], 7.0);
        let same = compare(&base, &set([1.0, 1.02, 0.98], 7.0)).unwrap();
        assert!(same.all_ok && !same.any_regressed, "{}", same.text);
        let slower = compare(&base, &set([1.3, 1.31, 1.29], 7.0)).unwrap();
        assert!(slower.any_regressed && !slower.all_ok, "{}", slower.text);
        let noisy = compare(&base, &set([0.7, 1.0, 1.6], 7.0)).unwrap();
        assert!(!noisy.all_ok && !noisy.any_regressed, "{}", noisy.text);
        assert!(noisy.text.contains("unresolved"));
        // Noisy but better on every run: the spread hides nothing.
        let faster = compare(&base, &set([0.4, 0.6, 0.8], 7.0)).unwrap();
        assert!(faster.all_ok, "{}", faster.text);
    }

    #[test]
    fn changed_exact_counts_are_listed_and_sets_pool() {
        let r = compare(&set([1.0; 3], 7.0), &set([1.0; 3], 8.0)).unwrap();
        assert!(
            !r.all_ok && r.text.contains("store.wal.commits"),
            "{}",
            r.text
        );
        let pooled = json!({"sets": [set([1.0; 3], 7.0), set([1.0; 3], 7.0)]});
        assert!(compare(&pooled, &set([1.0; 3], 7.0)).unwrap().all_ok);
    }
}
