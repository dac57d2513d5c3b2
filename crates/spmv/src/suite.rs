//! Scaled stand-ins for the five SuiteSparse matrices of Table IV.
//!
//! The real matrices (6.8 M–16 M rows, 25 M–89 M nnz) are neither available
//! offline nor tractable for a deterministic test suite, so each is
//! replaced by a generated matrix of the same *structure class* at
//! 1/`scale` of the linear size, preserving the properties the experiments
//! depend on: nnz/row, bandwidth character, row-length skew, and the RCM
//! reordering response.

use crate::csr::Csr;
use crate::gen;

/// One matrix of the evaluation suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteMatrix {
    /// `adaptive` (DIMACS10): 3-D adaptive mesh, 6.8 M rows, 27.2 M nnz.
    Adaptive,
    /// `audikw_1` (GHS_psdef): FEM stiffness, 944 k rows, 77.7 M nnz.
    Audikw1,
    /// `dielFilterV3real` (Dziekonski): FEM EM filter, 1.1 M rows, 89.3 M nnz.
    DielFilterV3real,
    /// `hugetrace-00020` (DIMACS10): 2-D trace mesh, 16 M rows, 48 M nnz.
    Hugetrace00020,
    /// `human_gene1` (Belcastro): gene correlation, 22 k rows, 24.7 M nnz.
    HumanGene1,
}

impl SuiteMatrix {
    /// All five, in Table IV order.
    pub fn all() -> [SuiteMatrix; 5] {
        [
            SuiteMatrix::Adaptive,
            SuiteMatrix::Audikw1,
            SuiteMatrix::DielFilterV3real,
            SuiteMatrix::Hugetrace00020,
            SuiteMatrix::HumanGene1,
        ]
    }

    /// SuiteSparse name.
    pub fn name(&self) -> &'static str {
        match self {
            SuiteMatrix::Adaptive => "adaptive",
            SuiteMatrix::Audikw1 => "audikw_1",
            SuiteMatrix::DielFilterV3real => "dielFilterV3real",
            SuiteMatrix::Hugetrace00020 => "hugetrace-00020",
            SuiteMatrix::HumanGene1 => "human_gene1",
        }
    }

    /// SuiteSparse group.
    pub fn group(&self) -> &'static str {
        match self {
            SuiteMatrix::Adaptive | SuiteMatrix::Hugetrace00020 => "DIMACS10",
            SuiteMatrix::Audikw1 => "GHS_psdef",
            SuiteMatrix::DielFilterV3real => "Dziekonski",
            SuiteMatrix::HumanGene1 => "Belcastro",
        }
    }

    /// Original dimensions (rows == cols) from Table IV.
    pub fn original_rows(&self) -> u64 {
        match self {
            SuiteMatrix::Adaptive => 6_815_744,
            SuiteMatrix::Audikw1 => 943_695,
            SuiteMatrix::DielFilterV3real => 1_102_824,
            SuiteMatrix::Hugetrace00020 => 16_002_413,
            SuiteMatrix::HumanGene1 => 22_283,
        }
    }

    /// Original non-zero count from Table IV.
    pub fn original_nnz(&self) -> u64 {
        match self {
            SuiteMatrix::Adaptive => 27_200_000,
            SuiteMatrix::Audikw1 => 77_700_000,
            SuiteMatrix::DielFilterV3real => 89_300_000,
            SuiteMatrix::Hugetrace00020 => 48_000_000,
            SuiteMatrix::HumanGene1 => 24_700_000,
        }
    }

    /// Generate the scaled stand-in. `scale` of 1.0 produces a small test
    /// size (~10–60 k rows depending on class); larger scales grow it.
    pub fn generate(&self, scale: f64) -> Csr {
        assert!(scale > 0.0, "scale must be positive");
        let s = scale.sqrt();
        match self {
            // 3-D mesh: ~4 nnz/row in Table IV (27.2M/6.8M).
            SuiteMatrix::Adaptive => {
                let side = ((22.0 * s) as usize).max(4);
                gen::mesh3d(side, side, side, 0xada1, true)
            }
            // FEM, ~82 nnz/row, banded.
            SuiteMatrix::Audikw1 => {
                let n = ((12_000.0 * scale) as usize).max(256);
                gen::banded_fem(n, 400, 80, 0xa0d, true)
            }
            // FEM, ~81 nnz/row, banded, slightly wider.
            SuiteMatrix::DielFilterV3real => {
                let n = ((14_000.0 * scale) as usize).max(256);
                gen::banded_fem(n, 600, 78, 0xd1e1, true)
            }
            // 2-D trace mesh: 3 nnz/row, planar and heavily shuffled.
            SuiteMatrix::Hugetrace00020 => {
                let side = ((160.0 * s) as usize).max(8);
                gen::mesh2d(side, side, 0x4761, true)
            }
            // Gene correlation: tiny n, ~5 % density (1108 nnz/row at
            // n = 22 k in the original), heavily skewed rows.
            SuiteMatrix::HumanGene1 => {
                let n = ((1_500.0 * scale) as usize).max(128);
                gen::gene_blocks(n, (n as f64 * 0.05) as usize, 0x6e11)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::bandwidth;
    use crate::reorder::Reordering;

    #[test]
    fn table4_metadata() {
        assert_eq!(SuiteMatrix::all().len(), 5);
        assert_eq!(SuiteMatrix::Hugetrace00020.name(), "hugetrace-00020");
        assert_eq!(SuiteMatrix::HumanGene1.group(), "Belcastro");
        assert_eq!(SuiteMatrix::Adaptive.original_rows(), 6_815_744);
    }

    #[test]
    fn stand_ins_match_structure_class() {
        // Sparse classes: nnz/row tracks the original's.
        let cases = [
            (SuiteMatrix::Adaptive, 4.0, 3.0),
            (SuiteMatrix::Hugetrace00020, 3.0, 2.0),
            (SuiteMatrix::Audikw1, 82.3, 25.0),
        ];
        for (m, orig, tol) in cases {
            let a = m.generate(1.0);
            a.validate().unwrap();
            let got = a.mean_row_nnz();
            assert!(
                (got - orig).abs() < tol,
                "{}: nnz/row {got} vs original {orig}",
                m.name()
            );
        }
        // Dense class: *density* is the preserved property (original
        // human_gene1 holds 1108 nnz/row at n = 22 283 ≈ 5 % dense).
        let g = SuiteMatrix::HumanGene1.generate(1.0);
        g.validate().unwrap();
        let density = g.mean_row_nnz() / g.rows as f64;
        let orig_rows = SuiteMatrix::HumanGene1.original_rows() as f64;
        let orig_density = SuiteMatrix::HumanGene1.original_nnz() as f64 / orig_rows / orig_rows;
        assert!(
            (density - orig_density).abs() < 0.04,
            "density {density} vs original {orig_density}"
        );
    }

    #[test]
    fn mesh_standins_respond_to_rcm_like_originals() {
        let a = SuiteMatrix::Hugetrace00020.generate(0.4);
        let r = Reordering::Rcm.apply(&a);
        assert!(bandwidth(&r) * 3 < bandwidth(&a));
    }

    #[test]
    fn gene_standin_is_skewed() {
        let a = SuiteMatrix::HumanGene1.generate(0.5);
        assert!(a.row_imbalance() > 0.5);
    }

    #[test]
    fn scaling_grows_matrices() {
        let small = SuiteMatrix::Audikw1.generate(0.05);
        let large = SuiteMatrix::Audikw1.generate(0.2);
        assert!(large.rows > 2 * small.rows);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SuiteMatrix::Adaptive.generate(0.3);
        let b = SuiteMatrix::Adaptive.generate(0.3);
        assert_eq!(a, b);
    }
}
