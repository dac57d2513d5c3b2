//! Result verification helpers shared by tests, examples and benches.

use crate::csr::Csr;
use crate::merge::spmv_merge;
use crate::row::{spmv_row_parallel, spmv_seq};

/// Max absolute difference between two vectors.
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Run every SpMV implementation on the same input and check they agree
/// with the sequential reference within `tol`. Returns the reference `y`.
pub fn cross_check(a: &Csr, x: &[f64], partitions: usize, tol: f64) -> Result<Vec<f64>, String> {
    let mut y_ref = vec![0.0; a.rows];
    spmv_seq(a, x, &mut y_ref);
    let mut y_row = vec![0.0; a.rows];
    spmv_row_parallel(a, x, &mut y_row);
    let d = max_abs_diff(&y_row, &y_ref);
    if d > tol {
        return Err(format!("row-parallel deviates by {d}"));
    }
    let mut y_merge = vec![0.0; a.rows];
    spmv_merge(a, x, &mut y_merge, partitions);
    let d = max_abs_diff(&y_merge, &y_ref);
    if d > tol {
        return Err(format!("merge deviates by {d}"));
    }
    Ok(y_ref)
}

/// Deterministic test vector.
pub fn test_vector(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 2654435761) % 1000) as f64 / 500.0 - 1.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::mesh2d;

    #[test]
    fn diff_metrics() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 2.0]), 0.5);
    }

    #[test]
    fn cross_check_passes_on_good_implementations() {
        let a = mesh2d(16, 16, 1, true);
        let x = test_vector(a.cols);
        let y = cross_check(&a, &x, 8, 1e-9).unwrap();
        assert_eq!(y.len(), a.rows);
    }

    #[test]
    fn test_vector_is_deterministic_and_bounded() {
        let v = test_vector(100);
        assert_eq!(v, test_vector(100));
        assert!(v.iter().all(|x| (-1.0..=1.0).contains(x)));
    }
}
