//! Matrix reorderings.
//!
//! The paper's level-view demo (Fig. 2c/d) compares SpMV under `none`,
//! `rcm`, `degree` and `random` orderings; Figs. 7/8 use RCM. This module
//! implements all four. RCM is the real Cuthill–McKee algorithm: BFS from
//! a pseudo-peripheral vertex, neighbours visited in increasing-degree
//! order, final order reversed.

use crate::csr::Csr;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Named reordering strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reordering {
    /// Original order.
    None,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Sort by ascending degree.
    Degree,
    /// Random permutation.
    Random(u64),
}

impl Reordering {
    /// Label used in dashboards (`none`, `rcm`, `degree`, `random`).
    pub fn label(&self) -> &'static str {
        match self {
            Reordering::None => "none",
            Reordering::Rcm => "rcm",
            Reordering::Degree => "degree",
            Reordering::Random(_) => "random",
        }
    }

    /// Compute the permutation for a matrix: `perm[new_index] = old_index`.
    pub fn permutation(&self, m: &Csr) -> Vec<u32> {
        match self {
            Reordering::None => (0..m.rows as u32).collect(),
            Reordering::Rcm => rcm_permutation(m),
            Reordering::Degree => degree_permutation(m),
            Reordering::Random(seed) => random_permutation(m.rows, *seed),
        }
    }

    /// Apply to a (structurally symmetric) matrix.
    pub fn apply(&self, m: &Csr) -> Csr {
        apply_symmetric(m, &self.permutation(m))
    }
}

/// Reverse Cuthill–McKee permutation: `perm[new] = old`.
pub(crate) fn rcm_permutation(m: &Csr) -> Vec<u32> {
    let n = m.rows;
    let degree: Vec<u32> = (0..n).map(|r| m.row_nnz(r) as u32).collect();
    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);

    // Process every connected component.
    while order.len() < n {
        let start = pseudo_peripheral(m, &degree, &visited);
        let mut queue = VecDeque::new();
        visited[start as usize] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let (cols, _) = m.row(v as usize);
            let mut neigh: Vec<u32> = cols
                .iter()
                .copied()
                .filter(|&c| !visited[c as usize])
                .collect();
            neigh.sort_unstable_by_key(|&c| degree[c as usize]);
            for c in neigh {
                if !visited[c as usize] {
                    visited[c as usize] = true;
                    queue.push_back(c);
                }
            }
        }
    }
    order.reverse();
    order
}

/// Pick a low-degree unvisited vertex, then walk to the far end of its BFS
/// level structure (two-sweep pseudo-peripheral heuristic).
fn pseudo_peripheral(m: &Csr, degree: &[u32], visited: &[bool]) -> u32 {
    let first = (0..m.rows as u32)
        .filter(|&v| !visited[v as usize])
        .min_by_key(|&v| degree[v as usize])
        .expect("called only when unvisited vertices remain");
    // One BFS sweep: the last vertex of the deepest level, lowest degree.
    let mut seen = visited.to_vec();
    let mut frontier = vec![first];
    seen[first as usize] = true;
    let mut last_level = vec![first];
    while !frontier.is_empty() {
        last_level = frontier.clone();
        let mut next = Vec::new();
        for &v in &frontier {
            let (cols, _) = m.row(v as usize);
            for &c in cols {
                if !seen[c as usize] {
                    seen[c as usize] = true;
                    next.push(c);
                }
            }
        }
        frontier = next;
    }
    last_level
        .into_iter()
        .min_by_key(|&v| degree[v as usize])
        .expect("level structure is non-empty")
}

/// Ascending-degree order.
fn degree_permutation(m: &Csr) -> Vec<u32> {
    let mut order: Vec<u32> = (0..m.rows as u32).collect();
    order.sort_by_key(|&r| m.row_nnz(r as usize));
    order
}

/// Seeded Fisher–Yates permutation.
fn random_permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// Apply a symmetric permutation `PAPᵀ`: row and column `old` both move to
/// position `new` where `perm[new] = old`.
pub(crate) fn apply_symmetric(m: &Csr, perm: &[u32]) -> Csr {
    assert_eq!(perm.len(), m.rows, "permutation length mismatch");
    assert_eq!(
        m.rows, m.cols,
        "symmetric permutation needs a square matrix"
    );
    // inverse: old -> new
    let mut inv = vec![0u32; perm.len()];
    for (new, &old) in perm.iter().enumerate() {
        inv[old as usize] = new as u32;
    }
    let mut coo = crate::coo::Coo::new(m.rows, m.cols);
    for (new_r, &old) in perm.iter().enumerate().take(m.rows) {
        let old_r = old as usize;
        let (cols, vals) = m.row(old_r);
        for (&c, &v) in cols.iter().zip(vals) {
            coo.push(new_r as u32, inv[c as usize], v);
        }
    }
    Csr::from_coo(&coo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::bandwidth;
    use crate::gen::{mesh2d, uniform_random};

    fn is_permutation(p: &[u32]) -> bool {
        let mut seen = vec![false; p.len()];
        for &v in p {
            if seen[v as usize] {
                return false;
            }
            seen[v as usize] = true;
        }
        true
    }

    #[test]
    fn all_strategies_produce_valid_permutations() {
        let m = mesh2d(15, 15, 3, true);
        for strat in [
            Reordering::None,
            Reordering::Rcm,
            Reordering::Degree,
            Reordering::Random(5),
        ] {
            let p = strat.permutation(&m);
            assert_eq!(p.len(), m.rows);
            assert!(is_permutation(&p), "{strat:?}");
            let r = strat.apply(&m);
            r.validate().unwrap();
            assert_eq!(r.nnz(), m.nnz());
        }
    }

    #[test]
    fn identity_reordering_is_identity() {
        let m = mesh2d(10, 10, 3, true);
        assert_eq!(Reordering::None.apply(&m), m);
    }

    #[test]
    fn rcm_reduces_mesh_bandwidth_substantially() {
        let m = mesh2d(32, 32, 9, true);
        let r = Reordering::Rcm.apply(&m);
        let before = bandwidth(&m);
        let after = bandwidth(&r);
        assert!(
            after * 4 < before,
            "bandwidth {before} -> {after}, expected >4x reduction"
        );
        // For a 2-D grid, RCM bandwidth should be near the grid width.
        assert!(after < 80, "after {after}");
    }

    #[test]
    fn rcm_barely_helps_random_matrices() {
        let m = uniform_random(400, 8, 3);
        let r = Reordering::Rcm.apply(&m);
        // Expander-like graphs cannot be banded: reduction is small.
        assert!(bandwidth(&r) as f64 > bandwidth(&m) as f64 * 0.5);
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        // Two disjoint 4-cycles.
        let mut coo = crate::coo::Coo::new(8, 8);
        for base in [0u32, 4] {
            for i in 0..4u32 {
                let a = base + i;
                let b = base + (i + 1) % 4;
                coo.push_sym(a.min(b), a.max(b), 1.0);
            }
        }
        let m = Csr::from_coo(&coo);
        let p = rcm_permutation(&m);
        assert!(is_permutation(&p));
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn symmetric_permutation_preserves_spectrum_proxy() {
        // Quick invariant: diagonal sum is preserved under PAPᵀ.
        let m = mesh2d(12, 12, 5, true);
        let r = Reordering::Rcm.apply(&m);
        let diag_sum = |a: &Csr| -> f64 {
            (0..a.rows)
                .map(|i| {
                    let (cols, vals) = a.row(i);
                    cols.iter()
                        .position(|&c| c as usize == i)
                        .map(|p| vals[p])
                        .unwrap_or(0.0)
                })
                .sum()
        };
        assert!((diag_sum(&m) - diag_sum(&r)).abs() < 1e-9);
    }

    #[test]
    fn degree_order_sorts_by_row_length() {
        let m = crate::gen::gene_blocks(200, 30, 4);
        let p = degree_permutation(&m);
        let lens: Vec<usize> = p.iter().map(|&r| m.row_nnz(r as usize)).collect();
        assert!(lens.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn random_permutation_deterministic_per_seed() {
        assert_eq!(random_permutation(50, 1), random_permutation(50, 1));
        assert_ne!(random_permutation(50, 1), random_permutation(50, 2));
    }
}
