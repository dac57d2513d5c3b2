//! A compact but real HPCG (High Performance Conjugate Gradient).
//!
//! The P-MoVE `BenchmarkInterface` runs CARM, STREAM and HPCG on probed
//! targets (§III-C). This module implements the essential HPCG pipeline:
//! a 27-point stencil operator on a 3-D grid, preconditioned CG with a
//! symmetric Gauss–Seidel sweep, convergence verification and the
//! standard GFLOP/s accounting.

use pmove_spmv::coo::Coo;
use pmove_spmv::csr::Csr;
use pmove_spmv::row::spmv_row_parallel;

/// Build the 27-point stencil operator for an `nx × ny × nz` grid:
/// diagonal 26, off-diagonals −1 (the HPCG reference problem).
fn build_operator(nx: usize, ny: usize, nz: usize) -> Csr {
    let n = nx * ny * nz;
    let idx = |x: usize, y: usize, z: usize| ((z * ny + y) * nx + x) as u32;
    let mut coo = Coo::new(n, n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let row = idx(x, y, z);
                for dz in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            let (xx, yy, zz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                            if xx < 0
                                || yy < 0
                                || zz < 0
                                || xx >= nx as i64
                                || yy >= ny as i64
                                || zz >= nz as i64
                            {
                                continue;
                            }
                            let col = idx(xx as usize, yy as usize, zz as usize);
                            let v = if col == row { 26.0 } else { -1.0 };
                            coo.push(row, col, v);
                        }
                    }
                }
            }
        }
    }
    Csr::from_coo(&coo)
}

/// One symmetric Gauss–Seidel sweep: forward solve then backward solve,
/// in place on `x`, for `A x ≈ r`.
fn symgs(a: &Csr, r: &[f64], x: &mut [f64]) {
    let n = a.rows;
    // Forward sweep.
    for i in 0..n {
        let (cols, vals) = a.row(i);
        let mut sum = r[i];
        let mut diag = 1.0;
        for (&c, &v) in cols.iter().zip(vals) {
            if c as usize == i {
                diag = v;
            } else {
                sum -= v * x[c as usize];
            }
        }
        x[i] = sum / diag;
    }
    // Backward sweep.
    for i in (0..n).rev() {
        let (cols, vals) = a.row(i);
        let mut sum = r[i];
        let mut diag = 1.0;
        for (&c, &v) in cols.iter().zip(vals) {
            if c as usize == i {
                diag = v;
            } else {
                sum -= v * x[c as usize];
            }
        }
        x[i] = sum / diag;
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn waxpby(w: &mut [f64], alpha: f64, x: &[f64], beta: f64, y: &[f64]) {
    for ((wi, xi), yi) in w.iter_mut().zip(x).zip(y) {
        *wi = alpha * xi + beta * yi;
    }
}

/// HPCG run summary.
#[derive(Debug, Clone, PartialEq)]
pub struct HpcgResult {
    /// Iterations executed.
    pub iterations: usize,
    /// Final relative residual ‖b − Ax‖/‖b‖.
    pub final_rel_residual: f64,
    /// Residual after every iteration.
    pub residual_history: Vec<f64>,
    /// Total FP operations (HPCG accounting: SpMV 2·nnz, SymGS 4·nnz,
    /// dots 2n, waxpbys 3n per iteration).
    pub flops: u64,
}

/// Run preconditioned CG on the 27-point problem with `b = A·1` (so the
/// exact solution is the ones vector) for at most `max_iters` iterations
/// or until the relative residual drops below `tol`.
pub fn run_hpcg(nx: usize, ny: usize, nz: usize, max_iters: usize, tol: f64) -> HpcgResult {
    let a = build_operator(nx, ny, nz);
    let n = a.rows;
    let ones = vec![1.0f64; n];
    let mut b = vec![0.0f64; n];
    spmv_row_parallel(&a, &ones, &mut b);
    let norm_b = dot(&b, &b).sqrt();

    let mut x = vec![0.0f64; n];
    let mut r = b.clone(); // r = b - A·0
    let mut z = vec![0.0f64; n];
    let mut p = vec![0.0f64; n];
    let mut ap = vec![0.0f64; n];

    let mut history = Vec::with_capacity(max_iters);
    let mut flops: u64 = 0;
    let nnz = a.nnz() as u64;
    let mut rz_old = 0.0;
    let mut iterations = 0;

    for it in 0..max_iters {
        // Preconditioner: z = M⁻¹ r via one SymGS sweep (from zero).
        z.iter_mut().for_each(|v| *v = 0.0);
        symgs(&a, &r, &mut z);
        flops += 4 * nnz;
        let rz = dot(&r, &z);
        flops += 2 * n as u64;
        if it == 0 {
            p.copy_from_slice(&z);
        } else {
            let beta = rz / rz_old;
            let p_old = p.clone();
            waxpby(&mut p, 1.0, &z, beta, &p_old);
            flops += 3 * n as u64;
        }
        rz_old = rz;
        spmv_row_parallel(&a, &p, &mut ap);
        flops += 2 * nnz;
        let alpha = rz / dot(&p, &ap);
        flops += 2 * n as u64;
        let x_old = x.clone();
        waxpby(&mut x, 1.0, &x_old, alpha, &p);
        let r_old = r.clone();
        waxpby(&mut r, 1.0, &r_old, -alpha, &ap);
        flops += 6 * n as u64;
        let res = dot(&r, &r).sqrt() / norm_b;
        flops += 2 * n as u64;
        history.push(res);
        iterations = it + 1;
        if res < tol {
            break;
        }
    }

    HpcgResult {
        iterations,
        final_rel_residual: *history.last().unwrap_or(&1.0),
        residual_history: history,
        flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_structure() {
        let a = build_operator(4, 4, 4);
        assert_eq!(a.rows, 64);
        a.validate().unwrap();
        // Interior point has 27 nnz; corner has 8.
        assert_eq!((0..a.rows).map(|r| a.row_nnz(r)).max(), Some(27));
        assert_eq!(a.row_nnz(0), 8);
        // Rows sum to diag(26) - neighbours: weakly diagonally dominant,
        // corner rows strictly (26 - 7 = 19 > 0).
        let (cols, vals) = a.row(0);
        let _ = cols;
        let sum: f64 = vals.iter().sum();
        assert!((sum - 19.0).abs() < 1e-12);
    }

    #[test]
    fn symgs_reduces_residual() {
        let a = build_operator(5, 5, 5);
        let b = vec![1.0; a.rows];
        let mut x = vec![0.0; a.rows];
        symgs(&a, &b, &mut x);
        let mut ax = vec![0.0; a.rows];
        spmv_row_parallel(&a, &x, &mut ax);
        let res: f64 = ax
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q).powi(2))
            .sum::<f64>()
            .sqrt();
        let res0 = (a.rows as f64).sqrt(); // ‖b‖ with x = 0
        assert!(res < res0 * 0.5, "res {res} vs {res0}");
    }

    #[test]
    fn cg_converges_to_ones() {
        let r = run_hpcg(8, 8, 8, 50, 1e-9);
        assert!(
            r.final_rel_residual < 1e-9,
            "residual {}",
            r.final_rel_residual
        );
        assert!(r.iterations < 50);
        // Residual history is monotone-ish decreasing overall.
        assert!(r.residual_history.last().unwrap() < &r.residual_history[0]);
        assert!(r.flops > 0);
    }

    #[test]
    fn larger_grids_take_more_flops() {
        let small = run_hpcg(6, 6, 6, 10, 0.0);
        let large = run_hpcg(12, 12, 12, 10, 0.0);
        assert!(large.flops > 4 * small.flops);
        assert_eq!(small.iterations, 10);
    }
}
