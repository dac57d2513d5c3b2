//! `pmove-bench <experiment> [arg]` — print one table/figure of the
//! reproduction and enforce its deterministic gates (exit 1 on failure).
//!
//! Everything printed is seeded and virtual-clock driven, so
//! `pmove-bench X > docs/results/X.txt` regenerates the pinned file.
//! Absolute wall-clock numbers live in `benchmark/`, not here.

use pmove_bench::*;
use std::process::ExitCode;

const EXPERIMENTS: &str = "table1 table2 table3 table4 fig4 fig5 fig6 fig7 fig8 fig9 \
     variability ablations storage chaos replication scrub serving tracing";

const FREQS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Optional positive scale argument (`fig7 2`); anything else falls back
/// to the experiment's default.
fn scale(arg: Option<&String>, default: f64) -> f64 {
    arg.and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or(default)
}

/// Gate failures of one experiment; empty means it passed.
#[derive(Default)]
struct Gates(Vec<String>);

impl Gates {
    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.0.push(msg());
        }
    }
}

fn table3_gates(g: &mut Gates) {
    let (rows, audit) = table3::run_audited();
    print!("{}", table3::format(&rows));
    match audit.verify() {
        Ok(n) => println!(
            "\nconservation audit: {n}/{n} cells balanced (offered == inserted + zeroed + lost)"
        ),
        Err(e) => g.check(false, || format!("conservation audit: {e}")),
    }
}

/// Chunks must compress to <= 50% of raw on every Table III workload.
fn storage_gates(g: &mut Gates) {
    let reports = storage::run();
    print!("{}", storage::format(&reports));
    let worst = reports
        .iter()
        .map(storage::StorageReport::compression_ratio)
        .fold(0.0f64, f64::max);
    println!("\nworst compression ratio: {:.1}% of raw", 100.0 * worst);
    g.check(worst <= 0.5, || "chunks must be <= 50% of raw".into());
}

/// Conservation everywhere; resilience must strictly reduce the damage
/// of every schedule.
fn chaos_gates(g: &mut Gates) {
    let reports = chaos::run();
    print!("{}", chaos::format(&reports));
    for pair in reports.chunks(2) {
        let (off, on) = (&pair[0], &pair[1]);
        g.check(off.conserved && on.conserved, || {
            format!("{}: conservation violated", off.schedule)
        });
        let (lost_on, lost_off) = (on.lost + on.evicted, off.lost + off.evicted);
        g.check(lost_on < lost_off, || {
            format!(
                "{}: resilient mode did not reduce losses ({lost_on} vs {lost_off})",
                off.schedule
            )
        });
    }
}

/// Conservation and convergence at every RF; the majority quorum must
/// lose strictly less than the single-node baseline.
fn replication_gates(g: &mut Gates) {
    let cells = replication::run();
    print!("{}", replication::format(&cells));
    for c in &cells {
        g.check(c.conserved, || {
            format!("rf={}: conservation violated", c.rf)
        });
        g.check(c.converged, || {
            format!("rf={}: replicas did not converge after repair", c.rf)
        });
    }
    let loss = |rf: usize| cells.iter().find(|c| c.rf == rf).map(|c| c.loss_pct());
    if let (Some(rf1), Some(rf3)) = (loss(1), loss(3)) {
        g.check(rf3 < rf1, || {
            format!("RF=3/W=2 did not beat RF=1 ({rf3:.2}% vs {rf1:.2}%)")
        });
    }
}

/// 100% detection within one scrub pass, full repair with a balanced
/// widened ledger, bit-identical quorum reads, and zero quarantine or
/// repair traffic in the no-fault control.
fn scrub_gates(g: &mut Gates) {
    let cells = scrub::run();
    print!("{}", scrub::format(&cells));
    for c in &cells {
        let flips = c.flips;
        g.check(c.detected_within_pass, || {
            format!(
                "flips={flips}: only {} of {} rotted chunks detected within one pass",
                c.chunks_quarantined, c.chunks_rotted
            )
        });
        g.check(
            c.cells_repaired == c.cells_corrupted && c.corrupt_pending == 0,
            || {
                format!(
                    "flips={flips}: repair incomplete ({} corrupted, {} repaired, {} pending)",
                    c.cells_corrupted, c.cells_repaired, c.corrupt_pending
                )
            },
        );
        g.check(c.conserved, || {
            format!("flips={flips}: widened conservation violated")
        });
        g.check(c.bit_identical, || {
            format!("flips={flips}: quorum reads diverge from the oracle")
        });
        g.check(c.converged, || {
            format!("flips={flips}: replicas did not converge")
        });
    }
    if let Some(ctrl) = cells.iter().find(|c| c.flips == 0) {
        g.check(
            ctrl.chunks_quarantined == 0 && ctrl.ranges_repaired == 0,
            || {
                format!(
                    "control: clean store produced quarantines ({}) or repair traffic ({})",
                    ctrl.chunks_quarantined, ctrl.ranges_repaired
                )
            },
        );
        g.check(ctrl.bytes_verified > 0, || {
            "control: scrubber verified no bytes".into()
        });
    }
}

/// Steady-state coalescing/SLO/fairness plus the induced-overload
/// admission run. `PMOVE_SERVE_SMOKE=1` shrinks the virtual durations
/// tenfold for CI; the gates hold at both scales.
fn serving_gates(g: &mut Gates) {
    use pmove_serve::{Priority, ServingConfig};
    let scale = if std::env::var("PMOVE_SERVE_SMOKE").is_ok() {
        0.1
    } else {
        1.0
    };
    let out = serving::run(scale);
    print!("{}", serving::format(&out));
    let slo = ServingConfig::default().slo_p99_ns;
    let (steady, overload) = (&out.steady.report, &out.overload.report);
    g.check(steady.conserved(), || {
        format!("steady conservation: {steady:?}")
    });
    g.check(overload.conserved(), || {
        format!("overload conservation: {overload:?}")
    });
    g.check(
        steady.coalescing_ratio() >= serving::COALESCING_FLOOR,
        || {
            format!(
                "steady coalescing ratio {:.2} under the {}x floor",
                steady.coalescing_ratio(),
                serving::COALESCING_FLOOR
            )
        },
    );
    g.check(
        steady.interactive.p99_ns < slo && steady.background.p99_ns < slo,
        || {
            format!(
                "steady p99 over the {slo} ns SLO (interactive {}, background {})",
                steady.interactive.p99_ns, steady.background.p99_ns
            )
        },
    );
    g.check(!out.steady.alerted, || {
        "steady run fired the serving_p99 burn-rate alert".into()
    });
    g.check(steady.fairness_served() > 0.95, || {
        format!("steady fairness {:.4} under 0.95", steady.fairness_served())
    });
    g.check(overload.shed > 0, || {
        "overload run never shed: the flood did not overload".into()
    });
    g.check(
        overload
            .shed_events
            .iter()
            .all(|e| e.priority == Priority::Background),
        || "overload shed interactive traffic".into(),
    );
    g.check(overload.interactive.p99_ns < slo, || {
        format!(
            "overload interactive p99 {} ns broke the {slo} ns SLO",
            overload.interactive.p99_ns
        )
    });
}

/// Golden trace trees and SLO timeline.
fn tracing_gates(g: &mut Gates) {
    let report = tracing::run();
    println!("{}", tracing::format(&report));
    g.check(report.attributed >= 0.90, || {
        format!(
            "critical-path analyzer attributed only {:.2}% of latency (floor 90%)",
            report.attributed * 100.0
        )
    });
    g.check(report.paged, || {
        "induced ingest p99 regression did not fire the fast-burn page".into()
    });
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = args.get(1);
    let mut g = Gates::default();
    match args.first().map(String::as_str) {
        Some("table1") => print!("{}", table1::format(&table1::run())),
        Some("table2") => print!("{}", table2::format(&table2::run())),
        Some("table3") => table3_gates(&mut g),
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
        Some("storage") => storage_gates(&mut g),
        Some("chaos") => chaos_gates(&mut g),
        Some("replication") => replication_gates(&mut g),
        Some("scrub") => scrub_gates(&mut g),
        Some("serving") => serving_gates(&mut g),
        Some("tracing") => tracing_gates(&mut g),
        other => {
            eprintln!(
                "usage: pmove-bench <experiment> [scale]\nexperiments: {EXPERIMENTS}\ngot: {other:?}"
            );
            return ExitCode::from(2);
        }
    }
    for failure in &g.0 {
        println!("GATE FAILED: {failure}");
    }
    if g.0.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
