//! Frequency scaling and AVX-license throttling.
//!
//! The paper's opening motivation lists "CPU throttling, reduced
//! frequency" among the causes of up-to-100 % performance variation.
//! This module models the two dominant server mechanisms:
//!
//! * **multi-core turbo bins** — sustained all-core frequency drops below
//!   the single-core turbo as more cores are active;
//! * **AVX frequency licenses** — wide-vector instruction streams force
//!   the core into lower-frequency license classes (L1 for heavy AVX2,
//!   L2 for heavy AVX-512), the classic Skylake-SP behaviour.
//!
//! [`effective_frequency`] feeds the execution model; the resulting
//! frequency dips are observable through `CPU_CYCLES`-derived metrics and
//! the anomaly scan, closing the paper's motivation loop.

use crate::kernel_profile::KernelProfile;
use crate::machine::MachineSpec;
use crate::vendor::{IsaExt, Microarch};
use serde::{Deserialize, Serialize};

/// AVX frequency license classes (Intel terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum License {
    /// L0: scalar/light-SSE — nominal turbo.
    L0,
    /// L1: heavy AVX2 — one bin group down.
    L1,
    /// L2: heavy AVX-512 — two bin groups down.
    L2,
}

impl License {
    /// License class of a kernel: determined by the widest ISA carrying a
    /// non-trivial share (>10 %) of its FP work.
    fn of_profile(profile: &KernelProfile) -> License {
        let total = profile.total_flops().max(1);
        let share = |isa: IsaExt| profile.flops_with_isa(isa) as f64 / total as f64;
        if share(IsaExt::Avx512) > 0.1 {
            License::L2
        } else if share(IsaExt::Avx2) > 0.1 {
            License::L1
        } else {
            License::L0
        }
    }

    /// Frequency multiplier for this license on an architecture.
    fn multiplier(&self, arch: Microarch) -> f64 {
        match (arch, self) {
            (_, License::L0) => 1.0,
            // Zen3 has no AVX-512 and negligible AVX2 offset.
            (Microarch::Zen3, _) => 0.98,
            (_, License::L1) => 0.94,
            // Ice Lake client parts throttle less than the server parts.
            (Microarch::IceLake, License::L2) => 0.90,
            (_, License::L2) => 0.85,
        }
    }
}

/// Multi-core turbo derating: 1.0 at one active core, decaying to the
/// all-core sustained ratio as every core lights up.
fn turbo_multiplier(spec: &MachineSpec, active_cores: u32) -> f64 {
    let total = spec.total_cores().max(1) as f64;
    let active = active_cores.clamp(1, spec.total_cores()) as f64;
    // Server parts sustain ~80 % of max turbo all-core; client ~88 %.
    let floor = if spec.sockets > 1 || spec.cores_per_socket >= 16 {
        0.80
    } else {
        0.88
    };
    1.0 - (1.0 - floor) * (active - 1.0) / (total - 1.0).max(1.0)
}

/// The effective clock (GHz) a kernel runs at: nominal turbo × multi-core
/// derating × AVX license multiplier.
pub(crate) fn effective_frequency(spec: &MachineSpec, profile: &KernelProfile) -> f64 {
    // Threads spread one-per-core before SMT (the balanced pinning the
    // framework defaults to), so active cores = min(threads, cores).
    let cores = profile.threads.min(spec.total_cores());
    let license = License::of_profile(profile);
    spec.freq_ghz * turbo_multiplier(spec, cores) * license.multiplier(spec.arch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_profile::Precision;

    fn profile(isa: IsaExt, threads: u32) -> KernelProfile {
        KernelProfile::named("k")
            .with_threads(threads)
            .with_flops(isa, Precision::F64, 1_000_000)
            .with_mem(1_000, 0, isa)
    }

    #[test]
    fn license_classes_follow_isa_mix() {
        assert_eq!(
            License::of_profile(&profile(IsaExt::Scalar, 1)),
            License::L0
        );
        assert_eq!(License::of_profile(&profile(IsaExt::Sse, 1)), License::L0);
        assert_eq!(License::of_profile(&profile(IsaExt::Avx2, 1)), License::L1);
        assert_eq!(
            License::of_profile(&profile(IsaExt::Avx512, 1)),
            License::L2
        );
        // Mixed: a sliver of AVX-512 under 10 % does not trip L2.
        let mixed = KernelProfile::named("m")
            .with_threads(1)
            .with_flops(IsaExt::Scalar, Precision::F64, 95)
            .with_flops(IsaExt::Avx512, Precision::F64, 5);
        assert_eq!(License::of_profile(&mixed), License::L0);
    }

    #[test]
    fn turbo_decays_with_active_cores() {
        let spec = MachineSpec::csl();
        let one = turbo_multiplier(&spec, 1);
        let half = turbo_multiplier(&spec, 14);
        let all = turbo_multiplier(&spec, 28);
        assert_eq!(one, 1.0);
        assert!(half < one && half > all);
        assert!((all - 0.80).abs() < 1e-9);
        // Clamped outside the valid range.
        assert_eq!(turbo_multiplier(&spec, 0), 1.0);
        assert_eq!(turbo_multiplier(&spec, 999), all);
    }

    #[test]
    fn avx512_throttles_intel_servers_hardest() {
        let csl = MachineSpec::csl();
        let f_scalar = effective_frequency(&csl, &profile(IsaExt::Scalar, 56));
        let f_avx2 = effective_frequency(&csl, &profile(IsaExt::Avx2, 56));
        let f_avx512 = effective_frequency(&csl, &profile(IsaExt::Avx512, 56));
        assert!(f_scalar > f_avx2);
        assert!(f_avx2 > f_avx512);
        // All-core AVX-512: 2.7 × 0.80 × 0.85 ≈ 1.84 GHz.
        assert!((f_avx512 - 2.7 * 0.80 * 0.85).abs() < 1e-9);
    }

    #[test]
    fn zen3_barely_throttles() {
        let zen3 = MachineSpec::zen3();
        let f_scalar = effective_frequency(&zen3, &profile(IsaExt::Scalar, 32));
        let f_avx2 = effective_frequency(&zen3, &profile(IsaExt::Avx2, 32));
        assert!(f_avx2 / f_scalar > 0.97);
    }

    #[test]
    fn single_core_scalar_runs_at_nominal() {
        let icl = MachineSpec::icl();
        let f = effective_frequency(&icl, &profile(IsaExt::Scalar, 1));
        assert_eq!(f, icl.freq_ghz);
    }
}
