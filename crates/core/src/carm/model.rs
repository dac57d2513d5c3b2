//! The CARM model: per-memory-level bandwidth roofs and per-ISA compute
//! peaks, with attainability queries.
//!
//! CARM characterizes the entire system by considering all memory levels
//! (the reason the paper picks it over the classic DRAM-only roofline):
//! for arithmetic intensity `ai`, the attainable performance under the
//! roof of level L is `min(peak_flops, ai × bandwidth_L)`.

use serde::{Deserialize, Serialize};

/// One memory-level roof.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemRoof {
    /// Level name (`L1`, `L2`, `L3`, `DRAM`).
    pub level: String,
    /// Sustainable bandwidth in bytes/s at the model's thread count.
    pub bandwidth_bps: f64,
}

/// One compute peak.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FpPeak {
    /// ISA label (`scalar`, `sse`, `avx2`, `avx512`).
    pub isa: String,
    /// Peak double-precision GFLOP/s.
    pub gflops: f64,
}

/// A constructed CARM for one machine at one thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CarmModel {
    /// Machine key.
    pub(crate) machine: String,
    /// Thread count the model was measured with.
    pub(crate) threads: u32,
    /// Memory roofs, innermost (fastest) first.
    pub roofs: Vec<MemRoof>,
    /// Compute peaks, narrowest ISA first.
    pub peaks: Vec<FpPeak>,
}

impl CarmModel {
    /// The top compute peak (widest ISA).
    pub fn peak_gflops(&self) -> f64 {
        self.peaks.iter().map(|p| p.gflops).fold(0.0, f64::max)
    }

    /// Bandwidth of a named level.
    pub(crate) fn bandwidth(&self, level: &str) -> Option<f64> {
        self.roofs
            .iter()
            .find(|r| r.level == level)
            .map(|r| r.bandwidth_bps)
    }

    /// Attainable GFLOP/s at intensity `ai` (flops/byte) when data is
    /// served from `level`.
    pub fn attainable(&self, ai: f64, level: &str) -> Option<f64> {
        let bw = self.bandwidth(level)?;
        Some((ai * bw / 1e9).min(self.peak_gflops()))
    }

    /// The ridge point of a level: the AI where its bandwidth roof meets
    /// the top compute peak.
    pub fn ridge_ai(&self, level: &str) -> Option<f64> {
        let bw = self.bandwidth(level)?;
        Some(self.peak_gflops() * 1e9 / bw)
    }

    /// Which roof an application point `(ai, gflops)` sits under: the
    /// slowest level whose roof is still above the point (`None` when the
    /// point exceeds every roof, i.e. is infeasible for the model).
    pub fn bounding_level(&self, ai: f64, gflops: f64) -> Option<&str> {
        // Roofs are fastest-first: walk from the DRAM roof upward.
        for roof in self.roofs.iter().rev() {
            let att = (ai * roof.bandwidth_bps / 1e9).min(self.peak_gflops());
            if gflops <= att {
                return Some(&roof.level);
            }
        }
        None
    }

    /// Serialize for KB storage ("the KB is also used to store all the
    /// microbenchmarking results ... allowing re-construction of the CARM
    /// plot without re-running").
    pub(crate) fn to_results(&self) -> Vec<crate::kb::observation::BenchmarkResult> {
        use crate::kb::observation::BenchmarkResult;
        let mut out = Vec::new();
        for r in &self.roofs {
            out.push(BenchmarkResult {
                name: format!("bw_{}", r.level),
                value: r.bandwidth_bps,
                unit: "B/s".into(),
            });
        }
        for p in &self.peaks {
            out.push(BenchmarkResult {
                name: format!("peak_{}", p.isa),
                value: p.gflops,
                unit: "GF/s".into(),
            });
        }
        out.push(BenchmarkResult {
            name: "threads".into(),
            value: self.threads as f64,
            unit: "count".into(),
        });
        out
    }

    /// Reconstruct from KB-stored results.
    pub(crate) fn from_results(
        machine: &str,
        results: &[crate::kb::observation::BenchmarkResult],
    ) -> Option<CarmModel> {
        let mut roofs = Vec::new();
        let mut peaks = Vec::new();
        let mut threads = 0;
        for r in results {
            if let Some(level) = r.name.strip_prefix("bw_") {
                roofs.push(MemRoof {
                    level: level.to_string(),
                    bandwidth_bps: r.value,
                });
            } else if let Some(isa) = r.name.strip_prefix("peak_") {
                peaks.push(FpPeak {
                    isa: isa.to_string(),
                    gflops: r.value,
                });
            } else if r.name == "threads" {
                threads = r.value as u32;
            }
        }
        if roofs.is_empty() || peaks.is_empty() {
            return None;
        }
        Some(CarmModel {
            machine: machine.to_string(),
            threads,
            roofs,
            peaks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                    level: "L2".into(),
                    bandwidth_bps: 4.0e12,
                },
                MemRoof {
                    level: "L3".into(),
                    bandwidth_bps: 1.0e12,
                },
                MemRoof {
                    level: "DRAM".into(),
                    bandwidth_bps: 1.2e11,
                },
            ],
            peaks: vec![
                FpPeak {
                    isa: "scalar".into(),
                    gflops: 300.0,
                },
                FpPeak {
                    isa: "avx512".into(),
                    gflops: 2400.0,
                },
            ],
        }
    }

    #[test]
    fn attainable_follows_min_rule() {
        let m = model();
        // Low AI from DRAM: bandwidth-bound.
        assert!((m.attainable(0.1, "DRAM").unwrap() - 12.0).abs() < 1e-9);
        // High AI: compute-bound at the top peak.
        assert_eq!(m.attainable(1000.0, "DRAM").unwrap(), 2400.0);
        assert!(m.attainable(1.0, "L9").is_none());
    }

    #[test]
    fn ridge_points_order_with_bandwidth() {
        let m = model();
        let r1 = m.ridge_ai("L1").unwrap();
        let rd = m.ridge_ai("DRAM").unwrap();
        assert!(r1 < rd); // faster memory ⇒ earlier ridge
        assert!((rd - 2400.0e9 / 1.2e11).abs() < 1e-9);
    }

    #[test]
    fn bounding_level_classification() {
        let m = model();
        // Tiny performance at decent AI: even DRAM roof covers it.
        assert_eq!(m.bounding_level(1.0, 10.0), Some("DRAM"));
        // 600 GF/s at AI 1: above DRAM roof (120) and L3 roof (1000 GF/s
        // covers it) → L3.
        assert_eq!(m.bounding_level(1.0, 600.0), Some("L3"));
        // Above every roof: infeasible.
        assert_eq!(m.bounding_level(0.001, 2000.0), None);
    }

    #[test]
    fn kb_roundtrip() {
        let m = model();
        let results = m.to_results();
        let back = CarmModel::from_results("csl", &results).unwrap();
        assert_eq!(back, m);
        assert!(CarmModel::from_results("csl", &[]).is_none());
    }

    #[test]
    fn peak_is_max_over_isas() {
        assert_eq!(model().peak_gflops(), 2400.0);
    }
}
