//! Table IV: the sparse-matrix suite — original SuiteSparse metadata plus
//! the generated stand-ins actually used by the experiments.

use pmove_spmv::suite::SuiteMatrix;

/// One row: original metadata + stand-in statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// SuiteSparse matrix name.
    pub(crate) name: String,
    /// SuiteSparse group.
    pub(crate) group: String,
    /// Original rows/cols.
    pub(crate) original_rows: u64,
    /// Original non-zeros.
    pub(crate) original_nnz: u64,
    /// Stand-in rows.
    pub(crate) standin_rows: usize,
    /// Stand-in non-zeros.
    pub(crate) standin_nnz: usize,
    /// Stand-in nnz/row.
    pub(crate) standin_nnz_per_row: f64,
}

/// Build the table at a given stand-in scale.
pub fn run(scale: f64) -> Vec<Row> {
    SuiteMatrix::all()
        .iter()
        .map(|m| {
            let a = m.generate(scale);
            Row {
                name: m.name().to_string(),
                group: m.group().to_string(),
                original_rows: m.original_rows(),
                original_nnz: m.original_nnz(),
                standin_rows: a.rows,
                standin_nnz: a.nnz(),
                standin_nnz_per_row: a.mean_row_nnz(),
            }
        })
        .collect()
}

/// Render the table.
pub fn format(rows: &[Row]) -> String {
    let mut out = String::from("TABLE IV: sparse matrices (originals and generated stand-ins)\n");
    out.push_str(&format!(
        "{:<18} {:<11} {:>11} {:>8} | {:>9} {:>10} {:>8}\n",
        "Name", "Group", "Orig rows", "Orig nnz", "Gen rows", "Gen nnz", "nnz/row"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:<11} {:>11} {:>8.1}M | {:>9} {:>10} {:>8.1}\n",
            r.name,
            r.group,
            r.original_rows,
            r.original_nnz as f64 / 1e6,
            r.standin_rows,
            r.standin_nnz,
            r.standin_nnz_per_row,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_five_rows_with_paper_metadata() {
        let rows = run(0.3);
        assert_eq!(rows.len(), 5);
        let huge = rows.iter().find(|r| r.name == "hugetrace-00020").unwrap();
        assert_eq!(huge.original_rows, 16_002_413);
        assert_eq!(huge.group, "DIMACS10");
        assert!(huge.standin_rows > 100);
        let text = format(&rows);
        assert!(text.contains("Belcastro"));
        assert!(text.contains("human_gene1"));
    }
}
