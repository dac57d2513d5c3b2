//! `pmove-bench <experiment> [arg]` — print one table/figure of the
//! reproduction. The goldens under `crates/bench/tests` and each feature's
//! property suite hold the assertions; this binary only prints.
//!
//! Everything printed is seeded and virtual-clock driven, so
//! `pmove-bench X > docs/results/X.txt` regenerates the pinned file.
//! Absolute wall-clock numbers live in `benchmark/`, not here.

use pmove_bench::*;
use std::process::ExitCode;

const EXPERIMENTS: &str =
    "table1 table2 table3 table4 fig4 fig5 fig6 fig7 fig8 fig9 variability ablations tracing";

const FREQS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Optional positive finite scale argument (`fig7 2`); anything else
/// (`inf` included) falls back to the experiment's default.
fn scale(arg: Option<&String>, default: f64) -> f64 {
    arg.and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0 && s.is_finite())
        .unwrap_or(default)
}

fn table3() {
    let (rows, audit) = table3::run_audited();
    print!("{}", table3::format(&rows));
    match audit.verify() {
        Ok(n) => println!(
            "\nconservation audit: {n}/{n} cells balanced (offered == inserted + zeroed + lost)"
        ),
        Err(e) => println!("\nconservation audit FAILED: {e}"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = args.get(1);
    match args.first().map(String::as_str) {
        Some("table1") => print!("{}", table1::format(&table1::run())),
        Some("table2") => print!("{}", table2::format(&table2::run())),
        Some("table3") => table3(),
        Some("table4") => print!("{}", table4::format(&table4::run(scale(arg, 1.0)))),
        Some("fig4") => print!(
            "{}",
            fig4::format(&fig4::run(&["skx", "icl", "zen3"], &FREQS))
        ),
        Some("fig5") => print!("{}", fig5::format(&fig5::run("csl", &FREQS))),
        Some("fig6") => print!("{}", fig6::format(&fig6::run(&FREQS[..5]))),
        Some("fig7") => print!("{}", fig7::format(&fig7::run(scale(arg, 4.0)))),
        Some("fig8") => print!("{}", fig8::format(&fig8::run(scale(arg, 4.0)))),
        Some("fig9") => print!("{}", fig9::format(&fig9::run())),
        Some("variability") => {
            for key in ["csl", "icl", "zen3"] {
                let spec = pmove_hwsim::MachineSpec::preset(key).expect("preset");
                let rows = variability::isa_sweep(&spec);
                println!("{}", variability::format(key, &rows));
            }
        }
        Some("ablations") => print!("{}", ablation::format_all()),
        Some("tracing") => println!("{}", tracing::format(&tracing::run())),
        other => {
            eprintln!(
                "usage: pmove-bench <experiment> [scale]\nexperiments: {EXPERIMENTS}\ngot: {other:?}"
            );
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::scale;

    #[test]
    fn scale_falls_back_on_anything_but_a_positive_finite_number() {
        let arg = |s: &str| Some(s.to_string());
        assert_eq!(scale(arg("2").as_ref(), 4.0), 2.0);
        assert_eq!(scale(None, 4.0), 4.0);
        for bad in ["inf", "+inf", "infinity", "NaN", "0", "-1", "x"] {
            assert_eq!(scale(arg(bad).as_ref(), 4.0), 4.0, "{bad}");
        }
    }
}
