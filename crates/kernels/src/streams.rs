//! The benchmark kernels, named as `likwid-bench` names them, with the
//! analytic counts of [`crate::ground_truth`].

use crate::ground_truth::{self, OpCounts};

/// The benchmark kernels of Figs. 4, 5 and 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKernel {
    /// Reduction: `s += a[i]`.
    Sum,
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
            StreamKernel::Stream => "stream",
            StreamKernel::Triad => "triad",
            StreamKernel::Ddot => "ddot",
            StreamKernel::Daxpy => "daxpy",
            StreamKernel::Peakflops => "peakflops",
        }
    }

    /// Analytic operation counts for problem size `n`.
    pub fn op_counts(&self, n: u64) -> OpCounts {
        match self {
            StreamKernel::Sum => ground_truth::sum(n),
            StreamKernel::Stream => ground_truth::stream(n),
            StreamKernel::Triad => ground_truth::triad(n),
            StreamKernel::Ddot => ground_truth::ddot(n),
            StreamKernel::Daxpy => ground_truth::daxpy(n),
            StreamKernel::Peakflops => ground_truth::peakflops(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_set_is_the_papers_six() {
        let names: Vec<&str> = StreamKernel::fig4_set().iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec!["sum", "stream", "triad", "peakflops", "ddot", "daxpy"]
        );
    }
}
