//! Coordinate-format sparse matrices (the construction format).

/// A COO matrix: a list of `(row, col, value)` entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Coo {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Entries (may be unsorted; duplicates are summed on CSR conversion).
    pub entries: Vec<(u32, u32, f64)>,
}

impl Coo {
    /// Empty matrix of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Coo {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Add one entry (bounds-checked).
    pub fn push(&mut self, row: u32, col: u32, value: f64) {
        assert!(
            (row as usize) < self.rows && (col as usize) < self.cols,
            "entry ({row},{col}) out of bounds {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((row, col, value));
    }

    /// Add `(r,c,v)` and `(c,r,v)` (symmetric construction).
    pub(crate) fn push_sym(&mut self, row: u32, col: u32, value: f64) {
        self.push(row, col, value);
        if row != col {
            self.push(col, row, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_count() {
        let mut m = Coo::new(3, 3);
        m.push(0, 1, 1.0);
        m.push_sym(1, 2, 2.0);
        m.push_sym(2, 2, 3.0); // diagonal: no mirror
        assert_eq!(m.entries.len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked() {
        Coo::new(2, 2).push(2, 0, 1.0);
    }
}
