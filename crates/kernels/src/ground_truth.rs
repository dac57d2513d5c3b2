//! Exact operation accounting for the benchmark kernels.
//!
//! Like `likwid-bench`, every kernel executes a pre-determined number of
//! operations, so FLOP/load/store counts are known *by construction* —
//! this is the ground truth the Fig. 4 accuracy study measures PMU
//! samples against.
//!
//! Byte accounting follows the CARM convention (all core-issued memory
//! traffic counts): AI = flops / (8 × (loads + stores)).
//! With that convention the theoretical intensities are
//! DDOT = 0.125, PeakFlops = 2.0, Triad (4 vectors) = 0.0625 — the values
//! live-CARM captures in Fig. 9 (the paper prints Triad's as "0.625",
//! an apparent typo for 0.0625; see EXPERIMENTS.md).

use serde::{Deserialize, Serialize};

/// Exact per-run operation counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpCounts {
    /// Double-precision FP operations.
    pub flops: u64,
    /// f64 elements loaded.
    pub load_elems: u64,
    /// f64 elements stored.
    pub store_elems: u64,
    /// Bytes of distinct data touched (the working set).
    pub working_set_bytes: u64,
}

impl OpCounts {
    /// Total bytes moved to/from the core (8 bytes per element op).
    pub fn total_bytes(&self) -> u64 {
        (self.load_elems + self.store_elems) * 8
    }

    /// Arithmetic intensity in FLOPs per byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.total_bytes() == 0 {
            return f64::INFINITY;
        }
        self.flops as f64 / self.total_bytes() as f64
    }
}

/// `sum`: `s += a[i]` — 1 flop, 1 load per element.
pub(crate) fn sum(n: u64) -> OpCounts {
    OpCounts {
        flops: n,
        load_elems: n,
        store_elems: 0,
        working_set_bytes: n * 8,
    }
}

/// `stream` (likwid's 3-vector triad): `a[i] = b[i] + s·c[i]` —
/// 2 flops, 2 loads, 1 store.
pub(crate) fn stream(n: u64) -> OpCounts {
    OpCounts {
        flops: 2 * n,
        load_elems: 2 * n,
        store_elems: n,
        working_set_bytes: 3 * n * 8,
    }
}

/// `triad` (likwid's 4-vector triad): `a[i] = b[i] + c[i]·d[i]` —
/// 2 flops, 3 loads, 1 store. AI = 2/32 = 0.0625.
pub(crate) fn triad(n: u64) -> OpCounts {
    OpCounts {
        flops: 2 * n,
        load_elems: 3 * n,
        store_elems: n,
        working_set_bytes: 4 * n * 8,
    }
}

/// `ddot`: `s += a[i]·b[i]` — 2 flops, 2 loads. AI = 2/16 = 0.125.
pub(crate) fn ddot(n: u64) -> OpCounts {
    OpCounts {
        flops: 2 * n,
        load_elems: 2 * n,
        store_elems: 0,
        working_set_bytes: 2 * n * 8,
    }
}

/// `daxpy`: `b[i] += s·a[i]` — 2 flops, 2 loads, 1 store.
pub(crate) fn daxpy(n: u64) -> OpCounts {
    OpCounts {
        flops: 2 * n,
        load_elems: 2 * n,
        store_elems: n,
        working_set_bytes: 2 * n * 8,
    }
}

/// `peakflops`: 16 FMA-chain flops per loaded element — AI = 16/8 = 2.0,
/// matching the PeakFlops benchmark of Fig. 9.
pub(crate) fn peakflops(n: u64) -> OpCounts {
    OpCounts {
        flops: 16 * n,
        load_elems: n,
        store_elems: 0,
        working_set_bytes: n * 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theoretical_ai_values_match_fig9() {
        assert!((ddot(1000).arithmetic_intensity() - 0.125).abs() < 1e-12);
        assert!((peakflops(1000).arithmetic_intensity() - 2.0).abs() < 1e-12);
        assert!((triad(1000).arithmetic_intensity() - 0.0625).abs() < 1e-12);
        assert!((stream(1000).arithmetic_intensity() - 2.0 / 24.0).abs() < 1e-12);
        assert!((sum(1000).arithmetic_intensity() - 0.125).abs() < 1e-12);
        assert!((daxpy(1000).arithmetic_intensity() - 2.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn counts_scale_linearly() {
        let a = triad(100);
        let b = triad(200);
        assert_eq!(b.flops, 2 * a.flops);
        assert_eq!(b.load_elems, 2 * a.load_elems);
        assert_eq!(b.working_set_bytes, 2 * a.working_set_bytes);
    }

    #[test]
    fn working_sets_reflect_vector_counts() {
        let n = 1024;
        assert_eq!(sum(n).working_set_bytes, n * 8);
        assert_eq!(ddot(n).working_set_bytes, 2 * n * 8);
        assert_eq!(stream(n).working_set_bytes, 3 * n * 8);
        assert_eq!(triad(n).working_set_bytes, 4 * n * 8);
    }

    #[test]
    fn zero_byte_kernel_infinite_ai() {
        let z = OpCounts {
            flops: 10,
            load_elems: 0,
            store_elems: 0,
            working_set_bytes: 0,
        };
        assert!(z.arithmetic_intensity().is_infinite());
    }
}
