//! Generic event names.
//!
//! The paper establishes "a set of common events ... assumed to be
//! supported by the commodity CPUs"; everything else is left to the
//! user's discretion via config files.

/// The common generic events every supported CPU must map
/// (paper examples: `L1_CACHE_DATA_MISS`, `FP_DIV_RETIRED`,
/// `RAPL_ENERGY_PKG`).
pub const COMMON_EVENTS: &[&str] = &[
    "CPU_CYCLES",
    "RETIRED_INSTRUCTIONS",
    "TOTAL_MEMORY_OPERATIONS",
    "TOTAL_DP_FLOPS",
    "L1_CACHE_DATA_MISS",
    "FP_DIV_RETIRED",
    "RAPL_ENERGY_PKG",
];

/// Is this one of the events all PMU configs must define?
pub fn is_common(event: &str) -> bool {
    COMMON_EVENTS.contains(&event)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_examples_are_common() {
        assert!(is_common("L1_CACHE_DATA_MISS"));
        assert!(is_common("FP_DIV_RETIRED"));
        assert!(is_common("RAPL_ENERGY_PKG"));
        assert!(!is_common("AVX512_DP_FLOPS"));
        assert!(!is_common("MADE_UP"));
    }
}
