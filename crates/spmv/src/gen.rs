//! Deterministic sparse-matrix generators for the structure classes of the
//! paper's evaluation matrices (Table IV).
//!
//! | class | SuiteSparse exemplar | structure |
//! |---|---|---|
//! | 2-D mesh | `hugetrace-00020` (DIMACS10) | planar, ~3 nnz/row |
//! | 3-D adaptive mesh | `adaptive` (DIMACS10) | grid, 4 nnz/row |
//! | banded FEM | `audikw_1`, `dielFilterV3real` | dense bands, ~80 nnz/row |
//! | dense correlation blocks | `human_gene1` | small n, ~1000 nnz/row, skewed |
//! | uniform random | baseline | Erdős–Rényi |
//!
//! RCM behaviour differs strongly per class — mesh matrices gain a lot
//! (bandwidth collapses), already-banded FEM matrices gain a little, random
//! matrices barely change — which is exactly the gradient Figs. 7/8 exploit.

use crate::coo::Coo;
use crate::csr::Csr;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// 2-D 5-point grid of `nx × ny` vertices, vertices shuffled so the natural
/// order is *not* already banded (giving RCM room to work, like the
/// DIMACS10 trace graphs).
pub fn mesh2d(nx: usize, ny: usize, seed: u64, shuffle: bool) -> Csr {
    let n = nx * ny;
    let mut perm: Vec<u32> = (0..n as u32).collect();
    if shuffle {
        shuffle_in_place(&mut perm, seed);
    }
    let mut coo = Coo::new(n, n);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x2d);
    for y in 0..ny {
        for x in 0..nx {
            let v = perm[y * nx + x];
            coo.push(v, v, 4.0 + rng.gen_range(-0.1..0.1));
            if x + 1 < nx {
                let u = perm[y * nx + x + 1];
                coo.push_sym(v.min(u), v.max(u), -1.0);
            }
            if y + 1 < ny {
                let u = perm[(y + 1) * nx + x];
                coo.push_sym(v.min(u), v.max(u), -1.0);
            }
        }
    }
    Csr::from_coo(&coo)
}

/// 3-D 7-point grid (`adaptive`-class structure).
pub(crate) fn mesh3d(nx: usize, ny: usize, nz: usize, seed: u64, shuffle: bool) -> Csr {
    let n = nx * ny * nz;
    let mut perm: Vec<u32> = (0..n as u32).collect();
    if shuffle {
        shuffle_in_place(&mut perm, seed);
    }
    let idx = |x: usize, y: usize, z: usize| perm[(z * ny + y) * nx + x];
    let mut coo = Coo::new(n, n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let v = idx(x, y, z);
                coo.push(v, v, 6.0);
                if x + 1 < nx {
                    let u = idx(x + 1, y, z);
                    coo.push_sym(v.min(u), v.max(u), -1.0);
                }
                if y + 1 < ny {
                    let u = idx(x, y + 1, z);
                    coo.push_sym(v.min(u), v.max(u), -1.0);
                }
                if z + 1 < nz {
                    let u = idx(x, y, z + 1);
                    coo.push_sym(v.min(u), v.max(u), -1.0);
                }
            }
        }
    }
    Csr::from_coo(&coo)
}

/// Banded FEM-like matrix: `n` rows, ~`band_nnz` entries per row clustered
/// within ±`half_band` of the diagonal (audikw_1 / dielFilter class).
///
/// With `shuffle`, vertex labels are permuted randomly — the state real
/// SuiteSparse FEM matrices arrive in (mesh-generator order, far from the
/// RCM-optimal band), which is what gives RCM something to recover.
pub(crate) fn banded_fem(
    n: usize,
    half_band: usize,
    band_nnz: usize,
    seed: u64,
    shuffle: bool,
) -> Csr {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    if shuffle {
        shuffle_in_place(&mut perm, seed ^ 0x5f);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfe);
    let mut coo = Coo::new(n, n);
    for r in 0..n {
        coo.push(perm[r], perm[r], 10.0);
        for _ in 0..band_nnz / 2 {
            let offset = rng.gen_range(1..=half_band.max(1)) as i64;
            let c = r as i64 + if rng.gen_bool(0.5) { offset } else { -offset };
            if c >= 0 && (c as usize) < n && c != r as i64 {
                let (a, b) = (perm[r], perm[c as usize]);
                coo.push_sym(a.min(b), a.max(b), rng.gen_range(-1.0..1.0));
            }
        }
    }
    Csr::from_coo(&coo)
}

/// Dense-block correlation matrix (human_gene1 class): small `n`, very
/// dense rows with a power-law-ish skew — the stress test for row-parallel
/// SpMV load balance.
pub(crate) fn gene_blocks(n: usize, mean_row_nnz: usize, seed: u64) -> Csr {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6e);
    let mut coo = Coo::new(n, n);
    for r in 0..n as u32 {
        coo.push(r, r, 1.0);
        // Pareto-ish row length: most rows near the mean, a few huge.
        let u: f64 = rng.gen_range(0.001..1.0f64);
        let len = ((mean_row_nnz as f64) * 0.35 / u.powf(0.7)) as usize;
        let len = len.clamp(1, n - 1);
        for _ in 0..len {
            let c = rng.gen_range(0..n as u32);
            if c != r {
                coo.push(r, c, rng.gen_range(-1.0..1.0));
            }
        }
    }
    Csr::from_coo(&coo)
}

/// Uniform random (Erdős–Rényi) matrix with `row_nnz` entries per row.
pub fn uniform_random(n: usize, row_nnz: usize, seed: u64) -> Csr {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x44);
    let mut coo = Coo::new(n, n);
    for r in 0..n as u32 {
        coo.push(r, r, 2.0);
        for _ in 0..row_nnz {
            let c = rng.gen_range(0..n as u32);
            if c != r {
                coo.push(r, c, rng.gen_range(-1.0..1.0));
            }
        }
    }
    Csr::from_coo(&coo)
}

fn shuffle_in_place(perm: &mut [u32], seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in (1..perm.len()).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::bandwidth;

    #[test]
    fn mesh2d_structure() {
        let m = mesh2d(20, 20, 7, false);
        assert_eq!(m.rows, 400);
        m.validate().unwrap();
        // Interior vertices have 5 nnz (diag + 4 neighbours).
        assert!((m.mean_row_nnz() - 4.8).abs() < 0.3);
        // Unshuffled grid is already banded; shuffled is not.
        let shuffled = mesh2d(20, 20, 7, true);
        assert!(bandwidth(&shuffled) > bandwidth(&m) * 3);
    }

    #[test]
    fn mesh3d_structure() {
        let m = mesh3d(8, 8, 8, 7, true);
        assert_eq!(m.rows, 512);
        m.validate().unwrap();
        assert!((m.mean_row_nnz() - 6.6).abs() < 0.5);
    }

    #[test]
    fn banded_fem_is_banded_and_denser() {
        let m = banded_fem(500, 20, 40, 3, false);
        m.validate().unwrap();
        assert!(m.mean_row_nnz() > 20.0);
        assert!(bandwidth(&m) <= 20);
    }

    #[test]
    fn gene_blocks_are_skewed() {
        let m = gene_blocks(400, 60, 9);
        m.validate().unwrap();
        assert!(m.mean_row_nnz() > 20.0);
        // Skew: the max row is far above the mean.
        let max_row_nnz = (0..m.rows).map(|r| m.row_nnz(r)).max().unwrap();
        assert!(max_row_nnz as f64 > 3.0 * m.mean_row_nnz());
        assert!(m.row_imbalance() > 0.5);
    }

    #[test]
    fn uniform_random_is_balanced() {
        let m = uniform_random(500, 8, 11);
        m.validate().unwrap();
        assert!(m.row_imbalance() < 0.25);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(mesh2d(10, 10, 5, true), mesh2d(10, 10, 5, true));
        assert_eq!(gene_blocks(100, 20, 5), gene_blocks(100, 20, 5));
        assert_ne!(gene_blocks(100, 20, 5), gene_blocks(100, 20, 6));
    }

    #[test]
    fn matrices_are_symmetric_where_promised() {
        // mesh2d builds symmetric structure: check a sample.
        let m = mesh2d(12, 12, 3, true);
        for r in 0..m.rows {
            let (cols, _) = m.row(r);
            for &c in cols {
                let (back, _) = m.row(c as usize);
                assert!(back.contains(&(r as u32)), "asymmetry at ({r},{c})");
            }
        }
    }
}
