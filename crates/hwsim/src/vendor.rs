//! CPU vendors, microarchitectures and ISA extensions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// CPU vendor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vendor {
    /// Intel Corporation.
    Intel,
    /// Advanced Micro Devices.
    Amd,
}

impl fmt::Display for Vendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Vendor::Intel => write!(f, "GenuineIntel"),
            Vendor::Amd => write!(f, "AuthenticAMD"),
        }
    }
}

/// Microarchitectures used by the paper's four target systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Microarch {
    /// Intel Skylake-X (skx target).
    SkylakeX,
    /// Intel Ice Lake (icl target).
    IceLake,
    /// Intel Cascade Lake (csl target).
    CascadeLake,
    /// AMD Zen 3 (zen3 target).
    Zen3,
}

impl Microarch {
    /// The vendor of this microarchitecture.
    pub fn vendor(&self) -> Vendor {
        match self {
            Microarch::SkylakeX | Microarch::IceLake | Microarch::CascadeLake => Vendor::Intel,
            Microarch::Zen3 => Vendor::Amd,
        }
    }

    /// Short PMU name used by the abstraction-layer config files
    /// (`[pmu_name | alias]`).
    pub(crate) fn pmu_name(&self) -> &'static str {
        match self {
            Microarch::SkylakeX => "skx",
            Microarch::IceLake => "icl",
            Microarch::CascadeLake => "csl",
            Microarch::Zen3 => "zen3",
        }
    }

    /// ISA extensions available, widest last.
    pub fn isa_extensions(&self) -> &'static [IsaExt] {
        match self {
            // Paper §IV-B: microbenchmarks support scalar, SSE, AVX2, AVX512.
            Microarch::SkylakeX | Microarch::IceLake | Microarch::CascadeLake => {
                &[IsaExt::Scalar, IsaExt::Sse, IsaExt::Avx2, IsaExt::Avx512]
            }
            // Zen3 has no AVX-512.
            Microarch::Zen3 => &[IsaExt::Scalar, IsaExt::Sse, IsaExt::Avx2],
        }
    }

    /// The widest vector extension available.
    pub fn widest_isa(&self) -> IsaExt {
        *self
            .isa_extensions()
            .last()
            .expect("every arch has at least scalar")
    }

    /// Number of programmable performance counters per hardware thread.
    /// Paper §IV-A: Intel has four programmable counters per core (eight
    /// when not shared with a sibling thread); AMD exposes two internal
    /// counters per sampling flag.
    pub(crate) fn programmable_counters(&self, smt_active: bool) -> usize {
        match self.vendor() {
            Vendor::Intel => {
                if smt_active {
                    4
                } else {
                    8
                }
            }
            Vendor::Amd => 2,
        }
    }

    /// FMA throughput: double-precision FLOPs per cycle per core for a
    /// given vector extension (2 ops/FMA × lanes × FMA units).
    pub(crate) fn flops_per_cycle_f64(&self, isa: IsaExt) -> f64 {
        let units = match self {
            // Two 512-bit FMA ports on SKX/CSL Gold, two 256-bit on Zen3.
            Microarch::SkylakeX | Microarch::CascadeLake | Microarch::IceLake => 2.0,
            Microarch::Zen3 => 2.0,
        };
        2.0 * isa.f64_lanes() as f64 * units
    }
}

impl fmt::Display for Microarch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Microarch::SkylakeX => "Skylake X",
            Microarch::IceLake => "Ice Lake",
            Microarch::CascadeLake => "Cascade Lake",
            Microarch::Zen3 => "Zen3",
        };
        write!(f, "{s}")
    }
}

/// Vector ISA extensions, as exercised by the CARM microbenchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IsaExt {
    /// Scalar x87/SSE-scalar arithmetic.
    Scalar,
    /// 128-bit SSE.
    Sse,
    /// 256-bit AVX2.
    Avx2,
    /// 512-bit AVX-512.
    Avx512,
}

impl IsaExt {
    /// Number of f64 lanes per vector register.
    pub(crate) fn f64_lanes(&self) -> u32 {
        match self {
            IsaExt::Scalar => 1,
            IsaExt::Sse => 2,
            IsaExt::Avx2 => 4,
            IsaExt::Avx512 => 8,
        }
    }

    /// Register width in bytes (data moved per vector memory instruction).
    pub(crate) fn width_bytes(&self) -> u32 {
        self.f64_lanes() * 8
    }

    /// Lower-case label (`avx512`).
    pub fn label(&self) -> &'static str {
        match self {
            IsaExt::Scalar => "scalar",
            IsaExt::Sse => "sse",
            IsaExt::Avx2 => "avx2",
            IsaExt::Avx512 => "avx512",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendor_mapping() {
        assert_eq!(Microarch::SkylakeX.vendor(), Vendor::Intel);
        assert_eq!(Microarch::Zen3.vendor(), Vendor::Amd);
        assert_eq!(Vendor::Intel.to_string(), "GenuineIntel");
    }

    #[test]
    fn counter_limits_follow_paper() {
        assert_eq!(Microarch::CascadeLake.programmable_counters(true), 4);
        assert_eq!(Microarch::CascadeLake.programmable_counters(false), 8);
        assert_eq!(Microarch::Zen3.programmable_counters(true), 2);
        assert_eq!(Microarch::Zen3.programmable_counters(false), 2);
    }

    #[test]
    fn zen3_lacks_avx512() {
        assert!(!Microarch::Zen3.isa_extensions().contains(&IsaExt::Avx512));
        assert_eq!(Microarch::Zen3.widest_isa(), IsaExt::Avx2);
        assert_eq!(Microarch::SkylakeX.widest_isa(), IsaExt::Avx512);
    }

    #[test]
    fn lanes_and_widths() {
        assert_eq!(IsaExt::Scalar.f64_lanes(), 1);
        assert_eq!(IsaExt::Avx512.f64_lanes(), 8);
        assert_eq!(IsaExt::Avx512.width_bytes(), 64);
        assert_eq!(IsaExt::Sse.width_bytes(), 16);
    }

    #[test]
    fn peak_flops_scale_with_width() {
        let m = Microarch::CascadeLake;
        assert_eq!(m.flops_per_cycle_f64(IsaExt::Scalar), 4.0);
        assert_eq!(m.flops_per_cycle_f64(IsaExt::Avx512), 32.0);
        // AVX-512 is 8x scalar throughput.
        assert_eq!(
            m.flops_per_cycle_f64(IsaExt::Avx512) / m.flops_per_cycle_f64(IsaExt::Scalar),
            8.0
        );
    }

    #[test]
    fn pmu_names() {
        assert_eq!(Microarch::SkylakeX.pmu_name(), "skx");
        assert_eq!(Microarch::Zen3.pmu_name(), "zen3");
    }
}
