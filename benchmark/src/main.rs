//! `pmove-benchmark` — the measurement spine.
//!
//! ```text
//! pmove-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!                     [--smoke] [--out FILE]
//! pmove-benchmark compare A.json B.json
//! pmove-benchmark selfcheck [--out FILE]
//! ```
//!
//! `run --workload W` runs one workload in this process and prints every
//! metric by name and unit, then one JSON result line. Without
//! `--workload` it runs all four, each in a fresh child process so that
//! `peak_rss_mb` is per workload, ten times untraced plus once traced,
//! and can save the set with `--out`. See `README.md`.
#![deny(unsafe_code)]

mod alloc;
mod compare;
mod gen;
mod harness;
mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::{RunResult, Scale, Workload};
use serde_json::{json, Value};
use spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Options of `run` and `selfcheck`.
#[derive(Debug, Clone)]
struct RunOpts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

/// Size divisor of `--smoke`.
const SMOKE_DIVISOR: usize = 50;
/// Untraced runs of each workload in a set; `compare` judges their median
/// and their spread, so every set holds the same number — the ten the
/// acceptance driver takes.
const SET_RUNS: usize = 10;

fn usage() -> ExitCode {
    eprintln!(
        "usage: pmove-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]\n       pmove-benchmark compare A.json B.json\n       pmove-benchmark selfcheck [--out FILE]"
    );
    ExitCode::from(2)
}

fn parse_run_opts(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        out: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let w = value(&mut i, "--workload")?;
                if !WORKLOADS.iter().any(|(name, _)| *name == w) {
                    return Err(format!("unknown workload {w}"));
                }
                o.workload = Some(w);
            }
            "--seed" => {
                o.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--out" => o.out = Some(value(&mut i, "--out")?),
            "--smoke" => o.smoke = true,
            // A bare `--trace` switches tracing on; `--trace 0|1` is how
            // the acceptance driver spells it.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    o.trace = false;
                    i += 1;
                }
                Some("1") => {
                    o.trace = true;
                    i += 1;
                }
                _ => o.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(o)
}

/// Unit and direction of a declared metric.
fn declared(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find(|(n, _, _)| *n == name)
        .map_or(("", ""), |(_, unit, better)| (unit, better.label()))
}

fn unit_of(name: &str) -> &'static str {
    declared(name).0
}

fn build(name: &str, seed: u64, scale: Scale) -> Box<dyn Workload> {
    match name {
        "monitor_e2e" => Box::new(workloads::monitor_e2e::MonitorE2e::new(seed, scale)),
        "ingest_durable" => Box::new(workloads::ingest_durable::IngestDurable::new(seed, scale)),
        "dashboard_read" => Box::new(workloads::dashboard_read::DashboardRead::new(seed, scale)),
        "serve_mixed" => Box::new(workloads::serve_mixed::ServeMixed::new(seed, scale)),
        other => unreachable!("workload {other} was validated against the declared list"),
    }
}

/// Run one workload in this process.
fn run_one(name: &str, o: &RunOpts) -> ExitCode {
    let scale = Scale(if o.smoke { SMOKE_DIVISOR } else { 1 });
    let mut w = build(name, o.seed, scale);
    let result: RunResult = if o.trace {
        harness::run_traced(w.as_mut(), o.seconds, o.smoke)
    } else {
        harness::run_end_to_end(w.as_mut(), o.seconds, o.smoke)
    };
    if let Some(trace) = &result.trace {
        if let Err(e) = write_out(&format!("trace_{name}.json"), trace) {
            eprintln!("cannot write the span file: {e}");
            return ExitCode::FAILURE;
        }
    }
    let [queries, refreshes, recoveries] = result.samples;
    println!(
        "workload {name} seed {} trace {} nproc {} episodes {}, samples per episode: query {queries} refresh {refreshes} recover {recoveries}",
        o.seed,
        u8::from(o.trace),
        nproc(),
        result.episodes,
    );
    let names = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name));
    for (metric, value) in names.filter_map(|m| Some((m, result.metrics.get(m)?))) {
        let (unit, better) = declared(metric);
        println!("  {metric:<44} {value:>18.6} {unit:<9} {better} is better");
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        result.ops.attempted, result.ops.failed
    );
    for f in &result.ops.failures {
        println!("  FAILED: {f}");
    }
    println!("{}", harness::result_line(&result, &unit_of));
    if result.ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Span files and saved sets go under `benchmark/out/`, next to this
/// package's manifest, wherever the command was started from.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(file: &str, value: &Value) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(out_dir().join(file), format!("{value}\n"))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run one workload in a child process and parse its result line.
fn run_child(name: &str, o: &RunOpts, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name, "--seed", &o.seed.to_string()])
        .args([
            "--seconds",
            &o.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end before returning.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let line = serde_json::from_str::<Value>(last)
        .map_err(|e| format!("{name}: no result line ({e}); output was:\n{stdout}"))?;
    if !output.status.success() || line["correct"] != json!(true) {
        return Err(format!("{name}: output checks failed:\n{stdout}"));
    }
    Ok(line)
}

/// Run the full set: every workload [`SET_RUNS`] times untraced and once
/// traced.
fn run_set(o: &RunOpts) -> Result<Value, String> {
    let mut workloads = serde_json::Map::new();
    for (name, _) in &WORKLOADS {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let (mut attempted, mut failed) = (Vec::new(), Vec::new());
        for rep in 0..SET_RUNS {
            eprintln!("{name}: untraced run {} of {SET_RUNS}", rep + 1);
            let line = run_child(name, o, false)?;
            for (m, v) in END_TO_END.iter().zip(values.iter_mut()) {
                v.push(
                    line["metrics"][m.name]["value"]
                        .as_f64()
                        .ok_or_else(|| format!("{name}: {} missing", m.name))?,
                );
            }
            attempted.push(line["attempted"].clone());
            failed.push(line["failed"].clone());
        }
        eprintln!("{name}: traced run");
        let traced = run_child(name, o, true)?;
        let end_to_end: serde_json::Map<String, Value> = END_TO_END
            .iter()
            .zip(&values)
            .map(|(m, v)| {
                (
                    m.name.to_string(),
                    json!({"unit": m.unit, "values": v.clone(), "median": stats::median(v)}),
                )
            })
            .collect();
        let per_layer: serde_json::Map<String, Value> = PER_LAYER
            .iter()
            .map(|m| {
                let v = traced["metrics"][m.name]["value"].clone();
                (
                    m.name.to_string(),
                    json!({"unit": m.unit, "value": v, "exact": m.exact}),
                )
            })
            .collect();
        workloads.insert(
            name.to_string(),
            json!({"end_to_end": end_to_end, "per_layer": per_layer, "attempted": attempted, "failed": failed}),
        );
    }
    Ok(json!({
        "schema": 1,
        "seed": o.seed,
        "seconds": o.seconds,
        "smoke": o.smoke,
        "nproc": nproc(),
        "workloads": workloads,
    }))
}

fn print_set(set: &Value) {
    for (name, _) in &WORKLOADS {
        let w = &set["workloads"][*name];
        println!("workload {name}");
        for m in &END_TO_END {
            let e = &w["end_to_end"][m.name];
            let values: Vec<f64> = e["values"]
                .as_array()
                .into_iter()
                .flatten()
                .filter_map(Value::as_f64)
                .collect();
            let spread =
                stats::spread(&values).map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0));
            println!(
                "  {:<44} {:>18.6} {:<9} median of {}, spread {spread}",
                m.name,
                e["median"].as_f64().unwrap_or(0.0),
                m.unit,
                values.len()
            );
        }
        for m in &PER_LAYER {
            println!(
                "  {:<44} {:>18.6} {}",
                m.name,
                w["per_layer"][m.name]["value"].as_f64().unwrap_or(0.0),
                m.unit
            );
        }
    }
}

fn save(path: &str, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let o = match parse_run_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    if let Some(name) = o.workload.clone() {
        return run_one(&name, &o);
    }
    match run_set(&o).and_then(|set| {
        print_set(&set);
        o.out.as_deref().map_or(Ok(()), |path| save(path, &set))
    }) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the full set twice, compare the two, and check a second seed.
fn cmd_selfcheck(args: &[String]) -> ExitCode {
    let o = match parse_run_opts(args) {
        Ok(o)
            if o.workload.is_none()
                && !o.trace
                && !o.smoke
                && o.seed == 1
                && o.seconds == f64::from(RUN_SECONDS) =>
        {
            o
        }
        Ok(_) => {
            eprintln!("selfcheck takes --out only: it runs the declared set as declared");
            return usage();
        }
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let outcome = (|| -> Result<bool, String> {
        let first = run_set(&o)?;
        let second = run_set(&o)?;
        let report = compare::compare(&first, &second)?;
        print!("{}", report.text);
        if let Some(path) = &o.out {
            save(path, &json!({"sets": [first, second]}))?;
        }
        // Output checks must also hold on a seed nobody tuned against.
        let other = RunOpts {
            seed: o.seed + 1,
            ..o.clone()
        };
        for (name, _) in &WORKLOADS {
            eprintln!("{name}: seed {} output checks", other.seed);
            run_child(name, &other, false)?;
        }
        Ok(report.all_ok)
    })();
    match outcome {
        Ok(true) => {
            println!("selfcheck: ok");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("selfcheck: the two sets do not agree within the bounds");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return usage();
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str::<Value>(&text).map_err(|e| format!("{path}: {e}"))
    };
    match load(a)
        .and_then(|a| Ok((a, load(b)?)))
        .and_then(|(a, b)| compare::compare(&a, &b))
    {
        Ok(report) => {
            print!("{}", report.text);
            if report.any_regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, rest)) if cmd == "selfcheck" => cmd_selfcheck(rest),
        _ => usage(),
    }
}
