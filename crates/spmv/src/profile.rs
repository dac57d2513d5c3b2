//! Operation-count profiles of SpMV executions.
//!
//! Computes, from the matrix structure alone, everything the machine
//! simulator needs to monitor an SpMV run: FLOPs, element loads/stores,
//! working set and a locality estimate. `pmove-core` converts these counts
//! into a `pmove_hwsim::KernelProfile` with the algorithm's ISA mix
//! (AVX-512 for the MKL-like row kernel, scalar for Merge — the contrast
//! at the heart of Figs. 7 and 8).

use crate::bandwidth::x_locality;
use crate::csr::Csr;

/// Which SpMV algorithm the counts describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpmvAlgorithm {
    /// Row-parallel, vectorized (Intel MKL stand-in).
    Mkl,
    /// Merge-path, scalar inner loop (Merrill & Garland).
    Merge,
}

impl SpmvAlgorithm {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SpmvAlgorithm::Mkl => "mkl",
            SpmvAlgorithm::Merge => "merge",
        }
    }
}

/// Structure-derived operation counts for one `y = A x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpmvOpCounts {
    /// FP operations (one multiply + one add per stored non-zero).
    pub flops: u64,
    /// f64 elements loaded (matrix values + x gathers + row bookkeeping).
    pub load_elems: u64,
    /// f64 elements stored (y writes).
    pub store_elems: u64,
    /// Bytes touched overall (matrix + vectors).
    pub working_set_bytes: u64,
    /// Fraction of `x` gathers expected to hit in a cache of the given
    /// probe size (structure-dependent; improves under RCM).
    pub x_hit_fraction: f64,
    /// Extra bookkeeping instructions fraction (merge path pays more).
    pub overhead_factor: f64,
}

/// Derive op counts for an algorithm on a matrix. `locality_cache_bytes`
/// is the cache size used to score x-gather locality (typically the
/// per-core L2 of the target machine).
pub fn op_counts(a: &Csr, algo: SpmvAlgorithm, locality_cache_bytes: u64) -> SpmvOpCounts {
    let nnz = a.nnz() as u64;
    // 2 flops per nnz (multiply–add).
    let flops = 2 * nnz;
    // Loads: value (8 B) + column index (counted as half an element) +
    // x gather, per nnz; plus row_ptr traffic.
    let load_elems = nnz /* values */ + nnz.div_ceil(2) /* col idx */ + nnz /* x */
        + a.rows as u64 / 2;
    let store_elems = a.rows as u64;
    let overhead_factor = match algo {
        // Row kernel: tight vectorized inner loop.
        SpmvAlgorithm::Mkl => 1.1,
        // Merge: per-element path bookkeeping and binary searches.
        SpmvAlgorithm::Merge => 1.45,
    };
    SpmvOpCounts {
        flops,
        load_elems,
        store_elems,
        working_set_bytes: a.spmv_working_set_bytes(),
        x_hit_fraction: x_locality(a, locality_cache_bytes),
        overhead_factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::mesh2d;
    use crate::reorder::Reordering;

    #[test]
    fn counts_scale_with_nnz() {
        let a = mesh2d(20, 20, 3, true);
        let c = op_counts(&a, SpmvAlgorithm::Mkl, 1 << 20);
        assert_eq!(c.flops, 2 * a.nnz() as u64);
        assert!(c.load_elems > a.nnz() as u64 * 2);
        assert_eq!(c.store_elems, a.rows as u64);
        assert!(c.working_set_bytes > 0);
    }

    #[test]
    fn spmv_ai_is_low() {
        // SpMV is strongly memory-bound: AI well under 0.25 flops/byte.
        let a = mesh2d(30, 30, 3, true);
        let c = op_counts(&a, SpmvAlgorithm::Mkl, 1 << 20);
        let ai = c.flops as f64 / ((c.load_elems + c.store_elems) as f64 * 8.0);
        assert!(ai > 0.05 && ai < 0.25, "ai {ai}");
    }

    #[test]
    fn merge_pays_more_overhead() {
        let a = mesh2d(20, 20, 3, true);
        let mkl = op_counts(&a, SpmvAlgorithm::Mkl, 1 << 20);
        let merge = op_counts(&a, SpmvAlgorithm::Merge, 1 << 20);
        assert!(merge.overhead_factor > mkl.overhead_factor);
        // Same math either way.
        assert_eq!(mkl.flops, merge.flops);
    }

    #[test]
    fn rcm_improves_x_locality_in_counts() {
        let a = mesh2d(40, 40, 3, true);
        let r = Reordering::Rcm.apply(&a);
        let cache = 32 * 1024; // L1-sized probe: shuffled mesh spans blow it
        let before = op_counts(&a, SpmvAlgorithm::Mkl, cache);
        let after = op_counts(&r, SpmvAlgorithm::Mkl, cache);
        assert!(after.x_hit_fraction > before.x_hit_fraction);
    }

    #[test]
    fn labels() {
        assert_eq!(SpmvAlgorithm::Mkl.label(), "mkl");
        assert_eq!(SpmvAlgorithm::Merge.label(), "merge");
    }
}
