//! Table I: the same generic event on Intel Cascade Lake vs AMD Zen 3 —
//! identical, similar, different, and exclusive event names, resolved
//! through the abstraction layer.

use pmove_core::abstraction::presets::builtin_layer;
use pmove_core::abstraction::AbstractionLayer;

/// One comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Generic event compared.
    pub(crate) generic: String,
    /// Formula on Intel Cascade Lake (`csl`), if mapped.
    pub(crate) intel: Option<String>,
    /// Formula on AMD Zen3, if mapped.
    pub(crate) amd: Option<String>,
}

/// The Table I rows (Energy, Total Memory Operations, L3 Hit) plus the
/// rest of the common set for completeness.
pub fn run() -> Vec<Row> {
    let layer = builtin_layer();
    let generics = [
        "RAPL_ENERGY_PKG",
        "RAPL_ENERGY_DRAM",
        "TOTAL_MEMORY_OPERATIONS",
        "L3_HIT",
        "CPU_CYCLES",
        "RETIRED_INSTRUCTIONS",
        "TOTAL_DP_FLOPS",
        "L1_CACHE_DATA_MISS",
        "FP_DIV_RETIRED",
        "AVX512_DP_FLOPS",
    ];
    generics
        .iter()
        .map(|g| Row {
            generic: g.to_string(),
            intel: formula(&layer, "csl", g),
            amd: formula(&layer, "zen3", g),
        })
        .collect()
}

fn formula(layer: &AbstractionLayer, pmu: &str, generic: &str) -> Option<String> {
    layer.formula(pmu, generic).ok().map(|f| f.to_string())
}

/// Render the table.
pub fn format(rows: &[Row]) -> String {
    let mut out =
        String::from("TABLE I: Intel (Cascade Lake) vs AMD (Zen3) PMU events per generic event\n");
    out.push_str(&format!(
        "{:<26} | {:<58} | {}\n",
        "Generic event", "Intel Cascade", "AMD Zen3"
    ));
    out.push_str(&"-".repeat(140));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<26} | {:<58} | {}\n",
            r.generic,
            r.intel.as_deref().unwrap_or("Not Supported"),
            r.amd.as_deref().unwrap_or("Not Supported"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_reproduce_table1_classes() {
        let rows = run();
        let by_name = |n: &str| rows.iter().find(|r| r.generic == n).unwrap();
        // Same on both vendors.
        let energy = by_name("RAPL_ENERGY_PKG");
        assert_eq!(energy.intel, energy.amd);
        // Different names for the same semantics.
        let mem = by_name("TOTAL_MEMORY_OPERATIONS");
        assert!(mem.intel.as_deref().unwrap().contains("MEM_INST_RETIRED"));
        assert!(mem.amd.as_deref().unwrap().contains("LS_DISPATCH"));
        // Exclusive: L3 hit AMD-only, DRAM energy AMD-only, AVX-512 Intel-only.
        let l3 = by_name("L3_HIT");
        assert!(l3.intel.is_none());
        assert!(l3.amd.as_deref().unwrap().contains("LONGEST_LAT_CACHE"));
        assert!(by_name("RAPL_ENERGY_DRAM").intel.is_none());
        assert!(by_name("AVX512_DP_FLOPS").amd.is_none());
    }

    #[test]
    fn format_marks_unsupported() {
        let text = format(&run());
        assert!(text.contains("Not Supported"));
        assert!(text.contains("LS_DISPATCH:STORE_DISPATCH + LS_DISPATCH:LD_DISPATCH"));
    }
}
