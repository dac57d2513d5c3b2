//! The runnable benchmark kernels (rayon-parallel) behind the analytic
//! counts of [`crate::ground_truth`].
//!
//! Each kernel really executes its operation stream, so these serve both
//! as host-side benchmarks (Criterion targets) and as verified
//! implementations whose results are checkable in closed form.

use crate::ground_truth::{self, OpCounts};
use rayon::prelude::*;
use std::time::Instant;

/// The benchmark kernels of Figs. 4, 5 and 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKernel {
    /// Reduction: `s += a[i]`.
    Sum,
    /// `b[i] = a[i]`.
    Copy,
    /// `b[i] = s·a[i]`.
    Scale,
    /// 3-vector triad: `a[i] = b[i] + s·c[i]`.
    Stream,
    /// 4-vector triad: `a[i] = b[i] + c[i]·d[i]`.
    Triad,
    /// Dot product: `s += a[i]·b[i]`.
    Ddot,
    /// `b[i] += s·a[i]`.
    Daxpy,
    /// FMA chain: 16 flops per element.
    Peakflops,
}

/// Result of one kernel run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// A value derived from the output (prevents dead-code elimination and
    /// allows closed-form verification).
    pub checksum: f64,
    /// Wall time of the numeric section.
    pub seconds: f64,
    /// The analytic operation counts for this run.
    pub ops: OpCounts,
}

impl StreamKernel {
    /// The six kernels used by the Fig. 4/5 experiments, in paper order.
    pub fn fig4_set() -> [StreamKernel; 6] {
        [
            StreamKernel::Sum,
            StreamKernel::Stream,
            StreamKernel::Triad,
            StreamKernel::Peakflops,
            StreamKernel::Ddot,
            StreamKernel::Daxpy,
        ]
    }

    /// Kernel name (likwid-bench spelling).
    pub fn name(&self) -> &'static str {
        match self {
            StreamKernel::Sum => "sum",
            StreamKernel::Copy => "copy",
            StreamKernel::Scale => "scale",
            StreamKernel::Stream => "stream",
            StreamKernel::Triad => "triad",
            StreamKernel::Ddot => "ddot",
            StreamKernel::Daxpy => "daxpy",
            StreamKernel::Peakflops => "peakflops",
        }
    }

    /// Look a kernel up by name.
    pub fn by_name(name: &str) -> Option<StreamKernel> {
        Some(match name {
            "sum" => StreamKernel::Sum,
            "copy" => StreamKernel::Copy,
            "scale" => StreamKernel::Scale,
            "stream" => StreamKernel::Stream,
            "triad" => StreamKernel::Triad,
            "ddot" => StreamKernel::Ddot,
            "daxpy" => StreamKernel::Daxpy,
            "peakflops" => StreamKernel::Peakflops,
            _ => return None,
        })
    }

    /// Analytic operation counts for problem size `n`.
    pub fn op_counts(&self, n: u64) -> OpCounts {
        match self {
            StreamKernel::Sum => ground_truth::sum(n),
            StreamKernel::Copy => ground_truth::copy(n),
            StreamKernel::Scale => ground_truth::scale(n),
            StreamKernel::Stream => ground_truth::stream(n),
            StreamKernel::Triad => ground_truth::triad(n),
            StreamKernel::Ddot => ground_truth::ddot(n),
            StreamKernel::Daxpy => ground_truth::daxpy(n),
            StreamKernel::Peakflops => ground_truth::peakflops(n),
        }
    }

    /// Execute the kernel on vectors of length `n`; data is initialized
    /// deterministically so the checksum has a closed form.
    pub fn run(&self, n: usize) -> RunResult {
        let s = 3.0;
        let ops = self.op_counts(n as u64);
        match self {
            StreamKernel::Sum => {
                let a = vec![1.0f64; n];
                let t = Instant::now();
                let sum: f64 = a.par_iter().sum();
                RunResult {
                    checksum: sum,
                    seconds: t.elapsed().as_secs_f64(),
                    ops,
                }
            }
            StreamKernel::Copy => {
                let a = vec![2.0f64; n];
                let mut b = vec![0.0f64; n];
                let t = Instant::now();
                b.par_iter_mut().zip(&a).for_each(|(bi, &ai)| *bi = ai);
                RunResult {
                    checksum: b.par_iter().sum(),
                    seconds: t.elapsed().as_secs_f64(),
                    ops,
                }
            }
            StreamKernel::Scale => {
                let a = vec![2.0f64; n];
                let mut b = vec![0.0f64; n];
                let t = Instant::now();
                b.par_iter_mut().zip(&a).for_each(|(bi, &ai)| *bi = s * ai);
                RunResult {
                    checksum: b.par_iter().sum(),
                    seconds: t.elapsed().as_secs_f64(),
                    ops,
                }
            }
            StreamKernel::Stream => {
                let b = vec![1.0f64; n];
                let c = vec![2.0f64; n];
                let mut a = vec![0.0f64; n];
                let t = Instant::now();
                a.par_iter_mut()
                    .zip(b.par_iter().zip(&c))
                    .for_each(|(ai, (&bi, &ci))| *ai = bi + s * ci);
                RunResult {
                    checksum: a.par_iter().sum(),
                    seconds: t.elapsed().as_secs_f64(),
                    ops,
                }
            }
            StreamKernel::Triad => {
                let b = vec![1.0f64; n];
                let c = vec![2.0f64; n];
                let d = vec![0.5f64; n];
                let mut a = vec![0.0f64; n];
                let t = Instant::now();
                a.par_iter_mut()
                    .zip(b.par_iter().zip(c.par_iter().zip(&d)))
                    .for_each(|(ai, (&bi, (&ci, &di)))| *ai = bi + ci * di);
                RunResult {
                    checksum: a.par_iter().sum(),
                    seconds: t.elapsed().as_secs_f64(),
                    ops,
                }
            }
            StreamKernel::Ddot => {
                let a = vec![2.0f64; n];
                let b = vec![0.5f64; n];
                let t = Instant::now();
                let dot: f64 = a.par_iter().zip(&b).map(|(&x, &y)| x * y).sum();
                RunResult {
                    checksum: dot,
                    seconds: t.elapsed().as_secs_f64(),
                    ops,
                }
            }
            StreamKernel::Daxpy => {
                let a = vec![1.0f64; n];
                let mut b = vec![2.0f64; n];
                let t = Instant::now();
                b.par_iter_mut().zip(&a).for_each(|(bi, &ai)| *bi += s * ai);
                RunResult {
                    checksum: b.par_iter().sum(),
                    seconds: t.elapsed().as_secs_f64(),
                    ops,
                }
            }
            StreamKernel::Peakflops => {
                let a = vec![1.000_000_1f64; n];
                let t = Instant::now();
                // 8 FMAs (16 flops) per element, kept in registers.
                let acc: f64 = a
                    .par_iter()
                    .map(|&x| {
                        let mut r = x;
                        for _ in 0..8 {
                            r = r.mul_add(1.000_000_01, 1e-9);
                        }
                        r
                    })
                    .sum();
                RunResult {
                    checksum: acc,
                    seconds: t.elapsed().as_secs_f64(),
                    ops,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 10_000;

    /// Closed-form expected checksum for `k.run(n)`.
    fn expected_checksum(k: StreamKernel, n: usize) -> f64 {
        let n = n as f64;
        match k {
            StreamKernel::Sum => n,          // Σ 1
            StreamKernel::Copy => 2.0 * n,   // Σ 2
            StreamKernel::Scale => 6.0 * n,  // Σ 3·2
            StreamKernel::Stream => 7.0 * n, // Σ 1 + 3·2
            StreamKernel::Triad => 2.0 * n,  // Σ 1 + 2·0.5
            StreamKernel::Ddot => n,         // Σ 2·0.5
            StreamKernel::Daxpy => 5.0 * n,  // Σ 2 + 3·1
            StreamKernel::Peakflops => {
                // Eight chained FMAs on 1.0000001; compute serially.
                let mut r = 1.000_000_1f64;
                for _ in 0..8 {
                    r = r.mul_add(1.000_000_01, 1e-9);
                }
                r * n
            }
        }
    }

    #[test]
    fn every_kernel_matches_its_closed_form() {
        for k in [
            StreamKernel::Sum,
            StreamKernel::Copy,
            StreamKernel::Scale,
            StreamKernel::Stream,
            StreamKernel::Triad,
            StreamKernel::Ddot,
            StreamKernel::Daxpy,
            StreamKernel::Peakflops,
        ] {
            let r = k.run(N);
            let expect = expected_checksum(k, N);
            let rel = (r.checksum - expect).abs() / expect.abs().max(1.0);
            assert!(rel < 1e-9, "{}: {} vs {}", k.name(), r.checksum, expect);
            assert!(r.seconds >= 0.0);
        }
    }

    #[test]
    fn op_counts_attached_to_results() {
        let r = StreamKernel::Triad.run(N);
        assert_eq!(r.ops.flops, 2 * N as u64);
        assert_eq!(r.ops.load_elems, 3 * N as u64);
    }

    #[test]
    fn name_roundtrip() {
        for k in StreamKernel::fig4_set() {
            assert_eq!(StreamKernel::by_name(k.name()), Some(k));
        }
        assert_eq!(StreamKernel::by_name("bogus"), None);
    }

    #[test]
    fn fig4_set_is_the_papers_six() {
        let names: Vec<&str> = StreamKernel::fig4_set().iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec!["sum", "stream", "triad", "peakflops", "ddot", "daxpy"]
        );
    }
}
