//! Compressed Sparse Row matrices — the kernel format.

use crate::coo::Coo;

/// A CSR matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row pointers, length `rows + 1`.
    pub row_ptr: Vec<u32>,
    /// Column indices, length nnz, sorted within each row.
    pub col_idx: Vec<u32>,
    /// Values, length nnz.
    pub values: Vec<f64>,
}

impl Csr {
    /// Build from COO: sorts entries, sums duplicates.
    pub fn from_coo(coo: &Coo) -> Self {
        let mut entries = coo.entries.clone();
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0u32; coo.rows + 1];
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(entries.len());
        let mut last: Option<(u32, u32)> = None;
        for (r, c, v) in entries {
            if last == Some((r, c)) {
                *values.last_mut().expect("duplicate follows a value") += v;
            } else {
                col_idx.push(c);
                values.push(v);
                row_ptr[r as usize + 1] += 1;
                last = Some((r, c));
            }
        }
        for i in 0..coo.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Csr {
            rows: coo.rows,
            cols: coo.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Column indices of one row.
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of non-zeros in one row.
    pub fn row_nnz(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// Mean non-zeros per row.
    pub fn mean_row_nnz(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        self.nnz() as f64 / self.rows as f64
    }

    /// Structural check: monotone row_ptr, in-bounds sorted columns.
    pub fn validate(&self) -> Result<(), String> {
        if self.row_ptr.len() != self.rows + 1 {
            return Err("row_ptr length".into());
        }
        if *self.row_ptr.last().unwrap() as usize != self.nnz() {
            return Err("row_ptr tail != nnz".into());
        }
        for r in 0..self.rows {
            if self.row_ptr[r] > self.row_ptr[r + 1] {
                return Err(format!("row_ptr not monotone at {r}"));
            }
            let (cols, _) = self.row(r);
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {r} columns not strictly sorted"));
                }
            }
            if let Some(&c) = cols.last() {
                if c as usize >= self.cols {
                    return Err(format!("row {r} column out of bounds"));
                }
            }
        }
        Ok(())
    }

    /// Dense `y = A x` working buffer size check helper.
    pub(crate) fn compatible_x(&self, x: &[f64]) -> bool {
        x.len() == self.cols
    }

    /// Total working-set bytes of one SpMV: matrix (values + col_idx +
    /// row_ptr) plus the two vectors.
    pub fn spmv_working_set_bytes(&self) -> u64 {
        (self.values.len() * 8
            + self.col_idx.len() * 4
            + self.row_ptr.len() * 4
            + self.cols * 8
            + self.rows * 8) as u64
    }
}

/// Row-length skew, the test oracle for the generators' structure classes.
#[cfg(test)]
impl Csr {
    /// Coefficient of variation of row lengths (0 = perfectly regular).
    /// An empty matrix reads 0: its mean is 0 (`mean_row_nnz` guards
    /// `rows == 0`).
    pub(crate) fn row_imbalance(&self) -> f64 {
        let mean = self.mean_row_nnz();
        if mean == 0.0 {
            return 0.0;
        }
        let var: f64 = (0..self.rows)
            .map(|r| (self.row_nnz(r) as f64 - mean).powi(2))
            .sum::<f64>()
            / self.rows as f64;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [[1 2 0], [0 0 3], [4 0 5]]
    fn small() -> Csr {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 2, 3.0);
        coo.push(2, 0, 4.0);
        coo.push(2, 2, 5.0);
        Csr::from_coo(&coo)
    }

    #[test]
    fn from_coo_builds_sorted_rows() {
        let m = small();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row_ptr, vec![0, 2, 3, 5]);
        assert_eq!(m.row(0), (&[0u32, 1][..], &[1.0, 2.0][..]));
        assert_eq!(m.row(2), (&[0u32, 2][..], &[4.0, 5.0][..]));
        m.validate().unwrap();
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.5);
        let m = Csr::from_coo(&coo);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.values[0], 3.5);
    }

    #[test]
    fn row_statistics() {
        let m = small();
        assert_eq!(m.row_nnz(1), 1);
        assert!((m.mean_row_nnz() - 5.0 / 3.0).abs() < 1e-12);
        assert!(m.row_imbalance() > 0.0);
    }

    #[test]
    fn validation_catches_corruption() {
        let mut m = small();
        m.col_idx[0] = 99;
        assert!(m.validate().is_err());
        let mut m2 = small();
        m2.row_ptr[1] = 5;
        assert!(m2.validate().is_err());
    }

    #[test]
    fn working_set_positive() {
        assert!(small().spmv_working_set_bytes() > 0);
        assert!(small().compatible_x(&[0.0; 3]));
        assert!(!small().compatible_x(&[0.0; 2]));
    }
}
