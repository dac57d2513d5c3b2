//! Performance-monitoring-unit models: per-microarchitecture event
//! catalogs (the libpfm4 stand-in), event semantics, and counter banks
//! with multiplexing.
//!
//! Event *names* are vendor/µarch specific (Table I of the paper); event
//! *semantics* are expressed as a [`Quantity`] that the execution model can
//! evaluate against a kernel profile. The abstraction layer in `pmove-core`
//! maps generic names onto these catalog entries.

use crate::vendor::{IsaExt, Microarch, Vendor};
use serde::{Deserialize, Serialize};

/// What an event actually measures, in execution-model terms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Quantity {
    /// Unhalted core cycles.
    Cycles,
    /// Retired instructions.
    Instructions,
    /// Dispatched micro-ops (≈ 1.3 × instructions).
    Uops,
    /// Retired double-precision FP instructions of one vector width.
    FlopInstrF64(IsaExt),
    /// Retired single-precision FP instructions of one vector width.
    FlopInstrF32(IsaExt),
    /// All FP operations (AMD's merged `RETIRED_SSE_AVX_FLOPS:ANY`
    /// counts actual FLOPs, not instructions).
    AllFlops,
    /// Retired load instructions.
    LoadInstr,
    /// Retired store instructions.
    StoreInstr,
    /// Cache misses at a level (1..=3).
    CacheMiss(u8),
    /// Cache references at a level.
    CacheRef(u8),
    /// FP divide operations.
    DivOps,
    /// Package energy in µJ (RAPL; per-package domain).
    EnergyPkg,
    /// DRAM energy in µJ (RAPL; per-package domain).
    EnergyDram,
}

/// Scope an event is counted in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Domain {
    /// Counted per hardware thread.
    PerThread,
    /// Counted per package (RAPL).
    PerPackage,
}

/// One catalog entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventDef {
    /// Vendor-specific event name (`FP_ARITH:SCALAR_DOUBLE`).
    pub name: String,
    /// Semantics.
    pub quantity: Quantity,
    /// Counting scope.
    pub domain: Domain,
    /// Human description (shown by probe output, Listing 4 style).
    pub description: String,
}

impl EventDef {
    fn new(name: &str, quantity: Quantity, domain: Domain, description: &str) -> Self {
        EventDef {
            name: name.into(),
            quantity,
            domain,
            description: description.into(),
        }
    }
}

/// The event catalog of one microarchitecture.
#[derive(Debug, Clone)]
pub struct EventCatalog {
    /// Architecture this catalog describes.
    pub arch: Microarch,
    events: Vec<EventDef>,
}

impl EventCatalog {
    /// Build the catalog for an architecture. Names follow Table I and the
    /// events used throughout §V of the paper.
    pub fn for_arch(arch: Microarch) -> Self {
        let mut ev = Vec::new();
        match arch.vendor() {
            Vendor::Intel => {
                ev.push(EventDef::new(
                    "UNHALTED_CORE_CYCLES",
                    Quantity::Cycles,
                    Domain::PerThread,
                    "Core cycles whenever the core is not halted",
                ));
                ev.push(EventDef::new(
                    "INSTRUCTION_RETIRED",
                    Quantity::Instructions,
                    Domain::PerThread,
                    "Instructions retired",
                ));
                ev.push(EventDef::new(
                    "UOPS_DISPATCHED",
                    Quantity::Uops,
                    Domain::PerThread,
                    "Micro-ops dispatched to execution ports",
                ));
                ev.push(EventDef::new(
                    "FP_ARITH:SCALAR_DOUBLE",
                    Quantity::FlopInstrF64(IsaExt::Scalar),
                    Domain::PerThread,
                    "Scalar double-precision FP instructions retired",
                ));
                ev.push(EventDef::new(
                    "FP_ARITH:SCALAR_SINGLE",
                    Quantity::FlopInstrF32(IsaExt::Scalar),
                    Domain::PerThread,
                    "Scalar single-precision FP instructions retired",
                ));
                ev.push(EventDef::new(
                    "FP_ARITH:128B_PACKED_DOUBLE",
                    Quantity::FlopInstrF64(IsaExt::Sse),
                    Domain::PerThread,
                    "128-bit packed double FP instructions retired",
                ));
                ev.push(EventDef::new(
                    "FP_ARITH:256B_PACKED_DOUBLE",
                    Quantity::FlopInstrF64(IsaExt::Avx2),
                    Domain::PerThread,
                    "256-bit packed double FP instructions retired",
                ));
                // All three Intel targets in the paper expose AVX-512
                // counters (the i9-11900K supports AVX-512 too).
                ev.push(EventDef::new(
                    "FP_ARITH:512B_PACKED_DOUBLE",
                    Quantity::FlopInstrF64(IsaExt::Avx512),
                    Domain::PerThread,
                    "512-bit packed double FP instructions retired",
                ));
                ev.push(EventDef::new(
                    "MEM_INST_RETIRED:ALL_LOADS",
                    Quantity::LoadInstr,
                    Domain::PerThread,
                    "All retired load instructions",
                ));
                ev.push(EventDef::new(
                    "MEM_INST_RETIRED:ALL_STORES",
                    Quantity::StoreInstr,
                    Domain::PerThread,
                    "All retired store instructions",
                ));
                ev.push(EventDef::new(
                    "L1D:REPLACEMENT",
                    Quantity::CacheMiss(1),
                    Domain::PerThread,
                    "L1 data cache lines replaced",
                ));
                ev.push(EventDef::new(
                    "L2_RQSTS:MISS",
                    Quantity::CacheMiss(2),
                    Domain::PerThread,
                    "L2 cache requests that missed",
                ));
                ev.push(EventDef::new(
                    "ARITH:DIVIDER_ACTIVE",
                    Quantity::DivOps,
                    Domain::PerThread,
                    "Cycles the FP divider is active",
                ));
                ev.push(EventDef::new(
                    "RAPL_ENERGY_PKG",
                    Quantity::EnergyPkg,
                    Domain::PerPackage,
                    "Package energy consumed (RAPL)",
                ));
                // Table I: L3 hit accounting is Not Supported on Intel
                // Cascade — no LONGEST_LAT_CACHE entries for Intel.
            }
            Vendor::Amd => {
                ev.push(EventDef::new(
                    "CYCLES_NOT_IN_HALT",
                    Quantity::Cycles,
                    Domain::PerThread,
                    "Core cycles not in halt state",
                ));
                ev.push(EventDef::new(
                    "RETIRED_INSTRUCTIONS",
                    Quantity::Instructions,
                    Domain::PerThread,
                    "Instructions retired",
                ));
                ev.push(EventDef::new(
                    "RETIRED_SSE_AVX_FLOPS:ANY",
                    Quantity::AllFlops,
                    Domain::PerThread,
                    "All SSE/AVX floating-point operations retired",
                ));
                ev.push(EventDef::new(
                    "LS_DISPATCH:LD_DISPATCH",
                    Quantity::LoadInstr,
                    Domain::PerThread,
                    "Load operations dispatched",
                ));
                ev.push(EventDef::new(
                    "LS_DISPATCH:STORE_DISPATCH",
                    Quantity::StoreInstr,
                    Domain::PerThread,
                    "Store operations dispatched",
                ));
                ev.push(EventDef::new(
                    "L1_DATA_CACHE_MISS",
                    Quantity::CacheMiss(1),
                    Domain::PerThread,
                    "L1 data cache misses",
                ));
                ev.push(EventDef::new(
                    "L2_CACHE_MISS",
                    Quantity::CacheMiss(2),
                    Domain::PerThread,
                    "L2 cache misses",
                ));
                ev.push(EventDef::new(
                    "LONGEST_LAT_CACHE:MISS",
                    Quantity::CacheMiss(3),
                    Domain::PerThread,
                    "Last-level cache misses",
                ));
                ev.push(EventDef::new(
                    "LONGEST_LAT_CACHE:RETIRED",
                    Quantity::CacheRef(3),
                    Domain::PerThread,
                    "Last-level cache accesses retired",
                ));
                ev.push(EventDef::new(
                    "FP_DIV_RETIRED",
                    Quantity::DivOps,
                    Domain::PerThread,
                    "FP divide operations retired",
                ));
                ev.push(EventDef::new(
                    "RAPL_ENERGY_PKG",
                    Quantity::EnergyPkg,
                    Domain::PerPackage,
                    "Package energy consumed (RAPL)",
                ));
                ev.push(EventDef::new(
                    "RAPL_ENERGY_DRAM",
                    Quantity::EnergyDram,
                    Domain::PerPackage,
                    "DRAM energy consumed (RAPL)",
                ));
            }
        }
        EventCatalog { arch, events: ev }
    }

    /// Look up an event by exact name.
    pub fn get(&self, name: &str) -> Option<&EventDef> {
        self.events.iter().find(|e| e.name == name)
    }

    /// Whether the architecture supports an event name.
    pub fn supports(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// All events.
    pub(crate) fn events(&self) -> &[EventDef] {
        &self.events
    }
}

/// A per-thread counter bank with a fixed number of programmable counters.
///
/// When more events are requested than counters exist, the bank time-slices
/// (multiplexes) them: each event observes only `capacity/programmed` of the
/// interval and the reading is scaled up, adding estimation error. This is
/// exactly what Linux perf does and one of the noise sources in Fig. 4.
#[derive(Debug, Clone)]
pub struct CounterBank {
    capacity: usize,
    programmed: Vec<String>,
}

impl CounterBank {
    /// Bank for an architecture, given whether SMT siblings share counters.
    pub fn for_arch(arch: Microarch, smt_active: bool) -> Self {
        CounterBank {
            capacity: arch.programmable_counters(smt_active),
            programmed: Vec::new(),
        }
    }

    /// Bank with explicit capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "counter bank needs at least one counter");
        CounterBank {
            capacity,
            programmed: Vec::new(),
        }
    }

    /// Program an event; returns false if it was already programmed.
    pub fn program(&mut self, event: &str) -> bool {
        if self.programmed.iter().any(|e| e == event) {
            return false;
        }
        self.programmed.push(event.to_string());
        true
    }

    /// Whether the bank is multiplexing (more events than counters).
    pub fn is_multiplexing(&self) -> bool {
        self.programmed.len() > self.capacity
    }

    /// Fraction of time each event is actually counted.
    fn duty_cycle(&self) -> f64 {
        if self.programmed.is_empty() {
            return 1.0;
        }
        (self.capacity as f64 / self.programmed.len() as f64).min(1.0)
    }

    /// Turn a true event count into the scaled estimate the kernel reports
    /// under multiplexing. Without multiplexing this is the identity; with
    /// it, the estimate is `true_count` plus a deterministic scaling
    /// residual controlled by `phase` (callers derive phase from noise).
    pub fn observed_count(&self, true_count: f64, phase: f64) -> f64 {
        let duty = self.duty_cycle();
        if duty >= 1.0 {
            return true_count;
        }
        // The kernel observes duty×count and rescales by 1/duty; the error
        // comes from which slice of a non-uniform execution was observed.
        let slice_bias = 1.0 + (phase - 0.5) * (1.0 - duty) * 0.1;
        true_count * slice_bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intel_catalog_matches_table1() {
        let c = EventCatalog::for_arch(Microarch::CascadeLake);
        assert!(c.supports("RAPL_ENERGY_PKG"));
        assert!(c.supports("MEM_INST_RETIRED:ALL_LOADS"));
        assert!(c.supports("MEM_INST_RETIRED:ALL_STORES"));
        // Table I: L3 hit accounting not supported on Intel Cascade.
        assert!(!c.supports("LONGEST_LAT_CACHE:MISS"));
        assert!(!c.supports("RAPL_ENERGY_DRAM"));
        assert!(!c.supports("LS_DISPATCH:LD_DISPATCH"));
    }

    #[test]
    fn amd_catalog_matches_table1() {
        let c = EventCatalog::for_arch(Microarch::Zen3);
        assert!(c.supports("RAPL_ENERGY_PKG"));
        assert!(c.supports("RAPL_ENERGY_DRAM"));
        assert!(c.supports("RETIRED_INSTRUCTIONS"));
        assert!(c.supports("LS_DISPATCH:LD_DISPATCH"));
        assert!(c.supports("LS_DISPATCH:STORE_DISPATCH"));
        assert!(c.supports("LONGEST_LAT_CACHE:MISS"));
        assert!(c.supports("LONGEST_LAT_CACHE:RETIRED"));
        assert!(!c.supports("FP_ARITH:SCALAR_DOUBLE"));
        assert!(!c.supports("FP_ARITH:512B_PACKED_DOUBLE"));
    }

    #[test]
    fn event_semantics() {
        let c = EventCatalog::for_arch(Microarch::SkylakeX);
        assert_eq!(
            c.get("FP_ARITH:512B_PACKED_DOUBLE").unwrap().quantity,
            Quantity::FlopInstrF64(IsaExt::Avx512)
        );
        assert_eq!(c.get("RAPL_ENERGY_PKG").unwrap().domain, Domain::PerPackage);
        let amd = EventCatalog::for_arch(Microarch::Zen3);
        assert_eq!(
            amd.get("RETIRED_SSE_AVX_FLOPS:ANY").unwrap().quantity,
            Quantity::AllFlops
        );
    }

    #[test]
    fn bank_capacity_follows_vendor() {
        let intel = CounterBank::for_arch(Microarch::CascadeLake, true);
        assert_eq!(intel.capacity, 4);
        let amd = CounterBank::for_arch(Microarch::Zen3, true);
        assert_eq!(amd.capacity, 2);
    }

    #[test]
    fn multiplexing_detection_and_duty() {
        let mut b = CounterBank::with_capacity(2);
        assert!(b.program("A"));
        assert!(!b.program("A")); // duplicate
        b.program("B");
        assert!(!b.is_multiplexing());
        assert_eq!(b.duty_cycle(), 1.0);
        b.program("C");
        b.program("D");
        assert!(b.is_multiplexing());
        assert_eq!(b.duty_cycle(), 0.5);
    }

    #[test]
    fn observed_count_identity_without_multiplexing() {
        let mut b = CounterBank::with_capacity(4);
        b.program("A");
        assert_eq!(b.observed_count(1000.0, 0.9), 1000.0);
    }

    #[test]
    fn observed_count_biased_under_multiplexing() {
        let mut b = CounterBank::with_capacity(1);
        b.program("A");
        b.program("B");
        let lo = b.observed_count(1000.0, 0.0);
        let hi = b.observed_count(1000.0, 1.0);
        assert!(lo < 1000.0 && hi > 1000.0);
        assert_eq!(b.observed_count(1000.0, 0.5), 1000.0);
    }
}
