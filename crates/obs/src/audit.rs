//! Loss-conservation audit.
//!
//! The transport layer classifies every offered metric value into exactly
//! one of three fates: inserted, zeroed (inserted as a zero under
//! saturation), or lost. Conservation therefore demands
//!
//! ```text
//! values_offered == values_inserted + values_zeroed + values_lost
//! ```
//!
//! per metric stream and per run. [`ConservationAudit`] collects named
//! cells (e.g. one per Table III host × frequency × metric-count cell) and
//! verifies the identity exactly — any imbalance means the pipeline
//! dropped or double-counted telemetry and is a bug, not noise.

use std::fmt;

/// One audited stream: the four conserved counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConservationCell {
    /// Values the sampler offered to the transport.
    pub offered: u64,
    /// Values inserted with their true payload.
    pub inserted: u64,
    /// Values inserted as zeros under link saturation.
    pub zeroed: u64,
    /// Values dropped entirely.
    pub lost: u64,
}

impl ConservationCell {
    /// True when the conservation identity holds exactly.
    pub(crate) fn holds(&self) -> bool {
        self.offered == self.inserted + self.zeroed + self.lost
    }

    /// Signed imbalance (`offered - accounted`); 0 when conserved.
    pub(crate) fn imbalance(&self) -> i64 {
        self.offered as i64 - (self.inserted + self.zeroed + self.lost) as i64
    }
}

/// A violated cell, with its name and counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// Cell label (e.g. `skx/8Hz/5m`).
    pub cell: String,
    /// The counters that failed to balance.
    pub counters: ConservationCell,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.counters;
        write!(
            f,
            "conservation violated in {}: offered {} != inserted {} + zeroed {} + lost {} \
             (imbalance {})",
            self.cell,
            c.offered,
            c.inserted,
            c.zeroed,
            c.lost,
            c.imbalance()
        )
    }
}

impl std::error::Error for AuditError {}

/// Collects cells across a run and verifies all of them.
#[derive(Debug, Default)]
pub struct ConservationAudit {
    cells: Vec<(String, ConservationCell)>,
}

impl ConservationAudit {
    /// Empty audit.
    pub fn new() -> ConservationAudit {
        ConservationAudit::default()
    }

    /// Record one cell's counters under `name`.
    pub fn record(&mut self, name: &str, cell: ConservationCell) {
        self.cells.push((name.to_string(), cell));
    }

    /// Verify every recorded cell; `Ok(cells_checked)` or the first
    /// violation in recording order.
    pub fn verify(&self) -> Result<usize, AuditError> {
        for (name, cell) in &self.cells {
            if !cell.holds() {
                return Err(AuditError {
                    cell: name.clone(),
                    counters: *cell,
                });
            }
        }
        Ok(self.cells.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_cells_pass() {
        let mut audit = ConservationAudit::new();
        audit.record(
            "skx/2Hz/4m",
            ConservationCell {
                offered: 100,
                inserted: 90,
                zeroed: 6,
                lost: 4,
            },
        );
        assert_eq!(audit.verify(), Ok(1));
    }

    #[test]
    fn imbalance_is_reported_with_cell_name() {
        let mut audit = ConservationAudit::new();
        let bad = ConservationCell {
            offered: 100,
            inserted: 90,
            zeroed: 6,
            lost: 3,
        };
        audit.record("icl/32Hz/6m", bad);
        let err = audit.verify().unwrap_err();
        assert_eq!(err.cell, "icl/32Hz/6m");
        assert_eq!(err.counters.imbalance(), 1);
        assert!(err.to_string().contains("icl/32Hz/6m"));
        assert!(!bad.holds());
    }
}
