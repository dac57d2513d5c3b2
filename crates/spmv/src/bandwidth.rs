//! Locality of the `x` gathers in SpMV, from the matrix structure.
//!
//! The span of columns a row touches shrinks under a good RCM reordering,
//! and a small span means the touched slice of `x` stays cache-resident.

use crate::csr::Csr;

/// Mean per-row span (max_col − min_col): the width of `x` a row touches.
fn mean_row_span(m: &Csr) -> f64 {
    if m.rows == 0 {
        return 0.0;
    }
    let mut total = 0u64;
    for r in 0..m.rows {
        let (cols, _) = m.row(r);
        if cols.len() >= 2 {
            total += (cols[cols.len() - 1] - cols[0]) as u64;
        }
    }
    total as f64 / m.rows as f64
}

/// Estimate the cache hit fraction of the `x`-vector accesses during SpMV
/// given a cache of `cache_bytes`: when the working span of `x` (mean row
/// span × 8 bytes, but at least one line per nnz) fits, x-loads hit.
/// Returns a fraction in [0, 1] — higher is better locality. This is the
/// structural knob RCM turns.
pub fn x_locality(m: &Csr, cache_bytes: u64) -> f64 {
    let span_bytes = (mean_row_span(m) * 8.0).max(64.0);
    // Smooth saturation: fully resident when span ≤ cache/8 — the matrix
    // value/index stream competes for most of the cache, so only a small
    // slice is available to hold x — degrading beyond.
    let budget = cache_bytes as f64 / 8.0;
    (budget / span_bytes).min(1.0)
}

/// Maximum |row - col| over all non-zeros: the test oracle for how much
/// a reordering gathers a matrix around its diagonal.
#[cfg(test)]
pub(crate) fn bandwidth(m: &Csr) -> usize {
    let mut bw = 0usize;
    for r in 0..m.rows {
        let (cols, _) = m.row(r);
        for &c in cols {
            bw = bw.max(r.abs_diff(c as usize));
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{banded_fem, mesh2d};
    use crate::reorder::{apply_symmetric, rcm_permutation};

    #[test]
    fn banded_matrix_bandwidth_bounded() {
        let m = banded_fem(300, 15, 20, 1, false);
        assert!(bandwidth(&m) <= 15);
        assert!(mean_row_span(&m) <= 31.0);
    }

    #[test]
    fn locality_improves_with_rcm() {
        let m = mesh2d(40, 40, 5, true);
        let perm = rcm_permutation(&m);
        let r = apply_symmetric(&m, &perm);
        let cache = 32 * 1024;
        assert!(x_locality(&r, cache) > x_locality(&m, cache));
    }

    #[test]
    fn locality_bounded_01() {
        let m = mesh2d(10, 10, 5, true);
        for cache in [1024u64, 32 * 1024, 1 << 30] {
            let l = x_locality(&m, cache);
            assert!((0.0..=1.0).contains(&l));
        }
        assert_eq!(x_locality(&m, 1 << 30), 1.0);
    }

    #[test]
    fn empty_matrix_degenerates_gracefully() {
        let empty = Csr {
            rows: 0,
            cols: 0,
            row_ptr: vec![0],
            col_idx: vec![],
            values: vec![],
        };
        assert_eq!(bandwidth(&empty), 0);
        assert_eq!(mean_row_span(&empty), 0.0);
        assert_eq!(empty.row_imbalance(), 0.0);
    }
}
