//! `BENCHMARK.json` against the binary: the file states exactly the tables
//! in `src/spec.rs`, and under `run --smoke` every declared workload emits
//! every declared metric exactly once with its declared unit, values are
//! finite, and nothing undeclared appears.

// The binary's own tables, compiled into this test as well.
#[path = "../src/spec.rs"]
mod spec;

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Mutex;

fn declared() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Value) -> BTreeMap<String, String> {
    list.as_array()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap().to_string(),
                m["unit"].as_str().unwrap().to_string(),
            )
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One benchmark process at a time: a smoke run's measured phase lasts
/// milliseconds, and with the tests of this file competing for two cores a
/// single preemption between two spans breaks its 95% span coverage.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Run one smoke workload; returns the result line and the table lines.
fn smoke(workload: &str, trace: &str) -> (Value, Vec<String>) {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_pmove-benchmark"))
        .args([
            "run",
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "3",
            "--trace",
            trace,
        ])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    let line: Value = serde_json::from_str(last).expect("the last line is JSON");
    let table = stdout
        .lines()
        .filter(|l| l.starts_with("  "))
        .map(str::to_string)
        .collect();
    (line, table)
}

/// Check one run against the declared table; returns its result line.
fn check(workload: &str, trace: &str, want: &BTreeMap<String, String>) -> Value {
    let (line, table) = smoke(workload, trace);
    let keys: Vec<&String> = line.as_object().expect("an object").keys().collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}: result line keys"
    );
    assert_eq!(line["correct"], true, "{workload}: output checks");
    assert_eq!(line["failed"].as_u64(), Some(0));
    assert!(line["attempted"].as_u64().unwrap() >= 1);
    let metrics = line["metrics"].as_object().expect("metrics object");
    for (name, m) in metrics {
        assert!(well_formed(name), "{workload}: malformed name {name}");
        let unit = want
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: undeclared metric {name}"));
        assert_eq!(
            m["unit"].as_str(),
            Some(unit.as_str()),
            "{workload}/{name}: unit"
        );
        let v = m["value"]
            .as_f64()
            .unwrap_or_else(|| panic!("{workload}/{name}: not a number"));
        assert!(v.is_finite(), "{workload}/{name}: {v}");
        let printed = table
            .iter()
            .filter(|l| l.split_whitespace().next() == Some(name.as_str()))
            .count();
        assert_eq!(printed, 1, "{workload}/{name}: printed {printed} times");
    }
    for name in want.keys() {
        assert!(
            metrics.contains_key(name),
            "{workload}: {name} is declared but was not emitted"
        );
    }
    line
}

#[test]
fn every_declared_pairing_is_emitted_once() {
    let spec = declared();
    let end_to_end = names_and_units(&spec["end_to_end"]);
    let per_layer = names_and_units(&spec["per_layer"]);
    assert!(end_to_end.contains_key("setup_s"));
    let workloads: Vec<&str> = spec["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    assert_eq!(
        workloads,
        [
            "monitor_e2e",
            "ingest_durable",
            "dashboard_read",
            "serve_mixed"
        ]
    );
    for workload in workloads {
        let line = check(workload, "0", &end_to_end);
        // An end-to-end metric that reads 0 cannot be compared by ratio.
        for name in end_to_end.keys() {
            assert!(
                line["metrics"][name.as_str()]["value"].as_f64().unwrap() > 0.0,
                "{workload}/{name} is 0"
            );
        }
        check(workload, "1", &per_layer);
    }
}

#[test]
fn benchmark_json_states_the_binarys_tables() {
    let file = declared();
    let workloads: Vec<Value> = spec::WORKLOADS
        .iter()
        .map(|(name, why)| json!({"name": name, "why": why}))
        .collect();
    let end_to_end: Vec<Value> = spec::END_TO_END
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.label(), "bound": m.bound}))
        .collect();
    let per_layer: Vec<Value> = spec::PER_LAYER
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.label()}))
        .collect();
    assert_eq!(file["workloads"], Value::Array(workloads));
    assert_eq!(file["end_to_end"], Value::Array(end_to_end));
    assert_eq!(file["per_layer"], Value::Array(per_layer));
    assert_eq!(file["run_seconds"], json!(spec::RUN_SECONDS));
    assert_eq!(file["paths"], json!(["benchmark"]));
    assert_eq!(
        file.as_object().unwrap().keys().collect::<Vec<_>>(),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    for (workload, _) in &spec::WORKLOADS {
        let (first, _) = smoke(workload, "1");
        let (second, _) = smoke(workload, "1");
        for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
            assert_eq!(
                first["metrics"][m.name]["value"], second["metrics"][m.name]["value"],
                "{workload}/{} is declared exact",
                m.name
            );
        }
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_pmove-benchmark"))
        .args(["run", "--workload", "nope"])
        .output()
        .expect("the benchmark binary starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
