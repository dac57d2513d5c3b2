//! Builtin abstraction-layer configurations for the paper's four targets.
//!
//! These reproduce Table I: the same generic event resolves to identical
//! names (Energy on package), similar names, different names
//! (total memory operations), or exclusive events (L3 hit accounting is
//! AMD-only; width-split FP counts are Intel-only).

use crate::abstraction::config::AbstractionLayer;

/// Config text for the Intel server parts (SKX and CSL share the mapping;
/// ICL differs only in alias).
pub(crate) const INTEL_CONFIG: &str = "\
# Intel Skylake-X / Cascade Lake / Ice Lake mappings
[skx | skylakex]
CPU_CYCLES: UNHALTED_CORE_CYCLES
RETIRED_INSTRUCTIONS: INSTRUCTION_RETIRED
TOTAL_MEMORY_OPERATIONS: MEM_INST_RETIRED:ALL_LOADS + MEM_INST_RETIRED:ALL_STORES
SCALAR_DP_FLOPS: FP_ARITH:SCALAR_DOUBLE
SCALAR_DP_INSTRUCTIONS: FP_ARITH:SCALAR_DOUBLE
SSE_DP_FLOPS: FP_ARITH:128B_PACKED_DOUBLE * 2
AVX2_DP_FLOPS: FP_ARITH:256B_PACKED_DOUBLE * 4
AVX512_DP_FLOPS: FP_ARITH:512B_PACKED_DOUBLE * 8
AVX512_DP_INSTRUCTIONS: FP_ARITH:512B_PACKED_DOUBLE
TOTAL_DP_FLOPS: FP_ARITH:SCALAR_DOUBLE + FP_ARITH:128B_PACKED_DOUBLE * 2 + FP_ARITH:256B_PACKED_DOUBLE * 4 + FP_ARITH:512B_PACKED_DOUBLE * 8
L1_CACHE_DATA_MISS: L1D:REPLACEMENT
FP_DIV_RETIRED: ARITH:DIVIDER_ACTIVE
RAPL_ENERGY_PKG: RAPL_ENERGY_PKG

[csl | cascadelake]
CPU_CYCLES: UNHALTED_CORE_CYCLES
RETIRED_INSTRUCTIONS: INSTRUCTION_RETIRED
TOTAL_MEMORY_OPERATIONS: MEM_INST_RETIRED:ALL_LOADS + MEM_INST_RETIRED:ALL_STORES
SCALAR_DP_FLOPS: FP_ARITH:SCALAR_DOUBLE
SCALAR_DP_INSTRUCTIONS: FP_ARITH:SCALAR_DOUBLE
SSE_DP_FLOPS: FP_ARITH:128B_PACKED_DOUBLE * 2
AVX2_DP_FLOPS: FP_ARITH:256B_PACKED_DOUBLE * 4
AVX512_DP_FLOPS: FP_ARITH:512B_PACKED_DOUBLE * 8
AVX512_DP_INSTRUCTIONS: FP_ARITH:512B_PACKED_DOUBLE
TOTAL_DP_FLOPS: FP_ARITH:SCALAR_DOUBLE + FP_ARITH:128B_PACKED_DOUBLE * 2 + FP_ARITH:256B_PACKED_DOUBLE * 4 + FP_ARITH:512B_PACKED_DOUBLE * 8
L1_CACHE_DATA_MISS: L1D:REPLACEMENT
FP_DIV_RETIRED: ARITH:DIVIDER_ACTIVE
RAPL_ENERGY_PKG: RAPL_ENERGY_PKG

[icl | icelake]
CPU_CYCLES: UNHALTED_CORE_CYCLES
RETIRED_INSTRUCTIONS: INSTRUCTION_RETIRED
TOTAL_MEMORY_OPERATIONS: MEM_INST_RETIRED:ALL_LOADS + MEM_INST_RETIRED:ALL_STORES
SCALAR_DP_FLOPS: FP_ARITH:SCALAR_DOUBLE
SCALAR_DP_INSTRUCTIONS: FP_ARITH:SCALAR_DOUBLE
SSE_DP_FLOPS: FP_ARITH:128B_PACKED_DOUBLE * 2
AVX2_DP_FLOPS: FP_ARITH:256B_PACKED_DOUBLE * 4
AVX512_DP_FLOPS: FP_ARITH:512B_PACKED_DOUBLE * 8
AVX512_DP_INSTRUCTIONS: FP_ARITH:512B_PACKED_DOUBLE
TOTAL_DP_FLOPS: FP_ARITH:SCALAR_DOUBLE + FP_ARITH:128B_PACKED_DOUBLE * 2 + FP_ARITH:256B_PACKED_DOUBLE * 4 + FP_ARITH:512B_PACKED_DOUBLE * 8
L1_CACHE_DATA_MISS: L1D:REPLACEMENT
FP_DIV_RETIRED: ARITH:DIVIDER_ACTIVE
RAPL_ENERGY_PKG: RAPL_ENERGY_PKG
";

/// Config text for AMD Zen 3. Note the Table I contrasts: DRAM energy and
/// L3-hit accounting exist here but not on the Intel parts; total memory
/// operations use `LS_DISPATCH`; all FLOP widths merge into one counter.
/// (Table I lists the L3-hit events with a `+`; hits are computed as
/// references minus misses.)
pub(crate) const AMD_CONFIG: &str = "\
[zen3 | amdzen3]
CPU_CYCLES: CYCLES_NOT_IN_HALT
RETIRED_INSTRUCTIONS: RETIRED_INSTRUCTIONS
TOTAL_MEMORY_OPERATIONS: LS_DISPATCH:STORE_DISPATCH + LS_DISPATCH:LD_DISPATCH
TOTAL_DP_FLOPS: RETIRED_SSE_AVX_FLOPS:ANY
L1_CACHE_DATA_MISS: L1_DATA_CACHE_MISS
L3_HIT: LONGEST_LAT_CACHE:RETIRED - LONGEST_LAT_CACHE:MISS
FP_DIV_RETIRED: FP_DIV_RETIRED
RAPL_ENERGY_PKG: RAPL_ENERGY_PKG
RAPL_ENERGY_DRAM: RAPL_ENERGY_DRAM
";

/// The abstraction layer with all builtin configs registered.
pub fn builtin_layer() -> AbstractionLayer {
    let mut layer = AbstractionLayer::new();
    layer
        .register_config(INTEL_CONFIG)
        .expect("builtin Intel config is valid");
    layer
        .register_config(AMD_CONFIG)
        .expect("builtin AMD config is valid");
    layer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_layer_covers_all_four_targets() {
        let layer = builtin_layer();
        for pmu in ["skx", "csl", "icl", "zen3"] {
            assert!(layer.pmu(pmu).is_some(), "{pmu} missing");
            assert!(
                layer.missing_common_events(pmu).is_empty(),
                "{pmu} missing common events: {:?}",
                layer.missing_common_events(pmu)
            );
        }
    }

    #[test]
    fn table1_same_similar_different_exclusive() {
        let layer = builtin_layer();
        // Same: energy.
        assert_eq!(
            layer.formula("csl", "RAPL_ENERGY_PKG").unwrap().to_string(),
            layer
                .formula("zen3", "RAPL_ENERGY_PKG")
                .unwrap()
                .to_string()
        );
        // Different: total memory operations.
        assert!(layer
            .formula("csl", "TOTAL_MEMORY_OPERATIONS")
            .unwrap()
            .to_string()
            .contains("MEM_INST_RETIRED"));
        assert!(layer
            .formula("zen3", "TOTAL_MEMORY_OPERATIONS")
            .unwrap()
            .to_string()
            .contains("LS_DISPATCH"));
        // Exclusive: L3 hit on AMD only, DRAM energy on AMD only.
        assert!(layer.formula("zen3", "L3_HIT").is_ok());
        assert!(layer.formula("csl", "L3_HIT").is_err());
        assert!(layer.formula("zen3", "RAPL_ENERGY_DRAM").is_ok());
        assert!(layer.formula("csl", "RAPL_ENERGY_DRAM").is_err());
        // Exclusive the other way: width-split FP counts on Intel only.
        assert!(layer.formula("csl", "AVX512_DP_FLOPS").is_ok());
        assert!(layer.formula("zen3", "AVX512_DP_FLOPS").is_err());
    }

    #[test]
    fn total_flops_formula_weights_widths() {
        let layer = builtin_layer();
        // 10 scalar instr + 10 avx512 instr = 10·1 + 10·8 = 90 flops.
        let v = layer
            .evaluate("skx", "TOTAL_DP_FLOPS", |e| {
                Some(match e {
                    "FP_ARITH:SCALAR_DOUBLE" | "FP_ARITH:512B_PACKED_DOUBLE" => 10.0,
                    _ => 0.0,
                })
            })
            .unwrap();
        assert_eq!(v, 90.0);
    }

    #[test]
    fn amd_l3_hit_is_refs_minus_misses() {
        let layer = builtin_layer();
        let v = layer
            .evaluate("zen3", "L3_HIT", |e| {
                Some(match e {
                    "LONGEST_LAT_CACHE:RETIRED" => 100.0,
                    "LONGEST_LAT_CACHE:MISS" => 30.0,
                    _ => 0.0,
                })
            })
            .unwrap();
        assert_eq!(v, 70.0);
    }

    #[test]
    fn aliases_resolve() {
        let layer = builtin_layer();
        assert!(layer.pmu("skylakex").is_some());
        assert!(layer.pmu("amdzen3").is_some());
    }
}
