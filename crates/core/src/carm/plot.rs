//! CARM plot data and text rendering (the live-CARM panel's display).
//!
//! Produces the log-log series Fig. 8/9 draw — one line per memory roof,
//! the top compute roof, and the application's live points — plus an
//! ASCII rendering for terminal examples.

use crate::carm::live::LiveCarmPoint;
use crate::carm::model::CarmModel;

/// A polyline in (AI, GFLOP/s) space.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RoofSeries {
    /// Roof label (`L1`, `DRAM`, `peak avx512`).
    pub(crate) label: String,
    /// Points along the roof, AI ascending.
    pub(crate) points: Vec<(f64, f64)>,
}

/// Sample every roof over `[ai_min, ai_max]` (log-spaced, `n` samples).
pub(crate) fn roof_series(
    model: &CarmModel,
    ai_min: f64,
    ai_max: f64,
    n: usize,
) -> Vec<RoofSeries> {
    assert!(ai_min > 0.0 && ai_max > ai_min && n >= 2, "bad plot range");
    let ais: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 / (n - 1) as f64;
            (ai_min.ln() * (1.0 - t) + ai_max.ln() * t).exp()
        })
        .collect();
    let mut out = Vec::new();
    for roof in &model.roofs {
        out.push(RoofSeries {
            label: roof.level.clone(),
            points: ais
                .iter()
                .map(|&ai| (ai, (ai * roof.bandwidth_bps / 1e9).min(model.peak_gflops())))
                .collect(),
        });
    }
    for peak in &model.peaks {
        out.push(RoofSeries {
            label: format!("peak {}", peak.isa),
            points: ais.iter().map(|&ai| (ai, peak.gflops)).collect(),
        });
    }
    out
}

/// ASCII rendering of the CARM with application points overlaid.
/// Both axes are logarithmic; application points render as `●`, roofs as
/// level initials.
pub fn render(model: &CarmModel, points: &[LiveCarmPoint], width: usize, height: usize) -> String {
    let ai_min: f64 = 0.01;
    let ai_max: f64 = 64.0;
    let gf_min: f64 = 0.1;
    let gf_max = model.peak_gflops() * 2.0;
    let x_of = |ai: f64| {
        ((ai.max(ai_min).ln() - ai_min.ln()) / (ai_max.ln() - ai_min.ln()) * (width - 1) as f64)
            .round()
            .clamp(0.0, (width - 1) as f64) as usize
    };
    let y_of = |gf: f64| {
        let norm = (gf.max(gf_min).ln() - gf_min.ln()) / (gf_max.ln() - gf_min.ln());
        ((1.0 - norm) * (height - 1) as f64)
            .round()
            .clamp(0.0, (height - 1) as f64) as usize
    };

    let mut grid = vec![vec![' '; width]; height];
    for series in roof_series(model, ai_min, ai_max, width * 2) {
        let marker = series.label.chars().next().unwrap_or('-');
        for (ai, gf) in series.points {
            if gf >= gf_min {
                grid[y_of(gf)][x_of(ai)] = marker.to_ascii_lowercase();
            }
        }
    }
    for p in points {
        if p.gflops >= gf_min && p.ai >= ai_min {
            grid[y_of(p.gflops)][x_of(p.ai)] = '●';
        }
    }

    let mut out = format!(
        "live-CARM: {} ({} threads) — peak {:.0} GF/s\n",
        model.machine,
        model.threads,
        model.peak_gflops()
    );
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push_str(&format!(
        "+ AI {ai_min} .. {ai_max} flops/byte (log) — roofs: {}\n",
        model
            .roofs
            .iter()
            .map(|r| r.level.clone())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carm::model::{FpPeak, MemRoof};

    fn model() -> CarmModel {
        CarmModel {
            machine: "csl".into(),
            threads: 28,
            roofs: vec![
                MemRoof {
                    level: "L1".into(),
                    bandwidth_bps: 9.0e12,
                },
                MemRoof {
                    level: "DRAM".into(),
                    bandwidth_bps: 1.2e11,
                },
            ],
            peaks: vec![FpPeak {
                isa: "avx512".into(),
                gflops: 2400.0,
            }],
        }
    }

    #[test]
    fn series_are_monotone_and_capped() {
        let s = roof_series(&model(), 0.01, 100.0, 50);
        assert_eq!(s.len(), 3); // 2 roofs + 1 peak
        let l1 = &s[0];
        for w in l1.points.windows(2) {
            assert!(w[1].1 >= w[0].1, "roof must be non-decreasing");
        }
        // Capped at peak.
        assert!(l1.points.iter().all(|&(_, gf)| gf <= 2400.0));
        assert_eq!(l1.points.len(), 50);
        // Peak line is flat.
        let peak = &s[2];
        assert!(peak.points.iter().all(|&(_, gf)| gf == 2400.0));
    }

    #[test]
    fn render_contains_roofs_and_points() {
        let pts = vec![LiveCarmPoint {
            t_s: 1.0,
            ai: 0.125,
            gflops: 10.0,
        }];
        let out = render(&model(), &pts, 60, 20);
        assert!(out.contains('●'), "application point missing:\n{out}");
        assert!(out.contains('l') || out.contains('d'), "roofs missing");
        assert!(out.contains("peak 2400"));
        assert_eq!(out.lines().count(), 22); // title + 20 rows + axis
    }

    #[test]
    #[should_panic(expected = "bad plot range")]
    fn bad_range_panics() {
        roof_series(&model(), 1.0, 0.5, 10);
    }
}
