//! Bridges from the software substrates to simulator kernel profiles.
//!
//! Scenario B monitors *executions on the target*; in this reproduction
//! the target is simulated, so each real workload (an SpMV run, a
//! likwid-style kernel) is described to the machine model by a
//! [`KernelProfile`] carrying its exact operation mix, ISA usage and
//! structure-derived locality.

use pmove_hwsim::kernel_profile::{KernelProfile, LocalityProfile, Precision};
use pmove_hwsim::vendor::IsaExt;
use pmove_hwsim::MachineSpec;
use pmove_kernels::StreamKernel;
use pmove_spmv::csr::Csr;
use pmove_spmv::profile::{op_counts, SpmvAlgorithm};

/// Profile of one `y = A x` with a given algorithm on a machine.
///
/// The ISA mix realizes the Fig. 7 contrast: the MKL-like kernel exploits
/// the machine's widest vector extension (AVX-512 on the Intel targets),
/// while merge-path SpMV "only exercises the scalar units". Merge's
/// path-bookkeeping overhead surfaces as extra memory operations, which is
/// exactly how the paper observes it (higher TOTAL_MEMORY_INSTRUCTIONS and
/// package power for Merge).
pub fn spmv_profile(
    matrix: &Csr,
    algo: SpmvAlgorithm,
    machine: &MachineSpec,
    threads: u32,
    iterations: u64,
) -> KernelProfile {
    assert!(iterations >= 1, "need at least one SpMV iteration");
    let isa = match algo {
        SpmvAlgorithm::Mkl => machine.arch.widest_isa(),
        SpmvAlgorithm::Merge => IsaExt::Scalar,
    };
    // Score x-gather locality against the per-core L2.
    let counts = op_counts(matrix, algo, machine.l2_kb as u64 * 1024);
    let loads = (counts.load_elems as f64 * counts.overhead_factor) as u64 * iterations;
    let stores = counts.store_elems * iterations;

    // Locality: the matrix stream (values/indices) and y are streamed;
    // x gathers hit caches according to the structure score. Fractions
    // are per-iteration (iteration count scales volume, not shape).
    let per_iter_total =
        (counts.load_elems as f64 * counts.overhead_factor) + counts.store_elems as f64;
    let x_fraction = matrix.nnz() as f64 / per_iter_total; // one x gather per nnz
    let cached = x_fraction * counts.x_hit_fraction;
    let locality = LocalityProfile::new(
        0.05 * cached, // a sliver of x stays L1-hot
        0.70 * cached, // most cached gathers come from L2
        0.25 * cached, // the rest from L3
        (1.0 - cached).max(0.0),
    );

    KernelProfile::named(format!("spmv_{}", algo.label()))
        .with_threads(threads)
        .with_flops(isa, Precision::F64, counts.flops * iterations)
        .with_mem(loads, stores, isa)
        .with_working_set(matrix.spmv_working_set_bytes())
        .with_locality(locality)
}

/// Profile of a likwid-style stream kernel sized to `n` elements.
/// `isa` selects the vector width the kernel was compiled for.
pub fn stream_kernel_profile(
    kernel: StreamKernel,
    n: u64,
    threads: u32,
    isa: IsaExt,
) -> KernelProfile {
    let ops = kernel.op_counts(n);
    KernelProfile::named(kernel.name())
        .with_threads(threads)
        .with_flops(isa, Precision::F64, ops.flops)
        .with_mem(ops.load_elems, ops.store_elems, isa)
        .with_working_set(ops.working_set_bytes)
}

/// Stream-kernel profile with an explicit cache-level residency, used by
/// the Fig. 9 live-CARM study (Triad sized beyond L1, DDOT within it).
pub fn stream_kernel_profile_at_level(
    kernel: StreamKernel,
    n: u64,
    threads: u32,
    isa: IsaExt,
    level: u8,
) -> KernelProfile {
    let locality = match level {
        1 => LocalityProfile::new(1.0, 0.0, 0.0, 0.0),
        2 => LocalityProfile::new(0.0, 1.0, 0.0, 0.0),
        3 => LocalityProfile::new(0.0, 0.0, 1.0, 0.0),
        _ => LocalityProfile::streaming(),
    };
    stream_kernel_profile(kernel, n, threads, isa).with_locality(locality)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmove_hwsim::ExecModel;
    use pmove_spmv::reorder::Reordering;
    use pmove_spmv::suite::SuiteMatrix;

    fn csl() -> MachineSpec {
        MachineSpec::csl()
    }

    #[test]
    fn mkl_uses_widest_isa_merge_uses_scalar() {
        let a = SuiteMatrix::Hugetrace00020.generate(0.2);
        let mkl = spmv_profile(&a, SpmvAlgorithm::Mkl, &csl(), 28, 1);
        let merge = spmv_profile(&a, SpmvAlgorithm::Merge, &csl(), 28, 1);
        assert!(mkl.flops_with_isa(IsaExt::Avx512) > 0);
        assert_eq!(mkl.flops_with_isa(IsaExt::Scalar), 0);
        assert!(merge.flops_with_isa(IsaExt::Scalar) > 0);
        assert_eq!(merge.flops_with_isa(IsaExt::Avx512), 0);
        // Merge performs more memory operations (path bookkeeping).
        assert!(merge.load_elems > mkl.load_elems);
        // But the same FP work.
        assert_eq!(mkl.total_flops(), merge.total_flops());
    }

    #[test]
    fn mkl_beats_merge_on_the_machine() {
        // The Fig. 8 headline: MKL SpMV provides higher performance.
        let a = SuiteMatrix::Hugetrace00020.generate(2.0);
        let model = ExecModel::new(csl());
        let mkl = model.run(&spmv_profile(&a, SpmvAlgorithm::Mkl, &csl(), 28, 100), 0.0);
        let merge = model.run(
            &spmv_profile(&a, SpmvAlgorithm::Merge, &csl(), 28, 100),
            0.0,
        );
        assert!(
            mkl.gflops() > merge.gflops() * 1.1,
            "mkl {} vs merge {}",
            mkl.gflops(),
            merge.gflops()
        );
    }

    #[test]
    fn rcm_reordering_speeds_up_spmv() {
        // The Fig. 7/8 headline: RCM improves data locality and runtime.
        let a = SuiteMatrix::Hugetrace00020.generate(2.0);
        let r = Reordering::Rcm.apply(&a);
        let model = ExecModel::new(csl());
        let orig = model.run(&spmv_profile(&a, SpmvAlgorithm::Mkl, &csl(), 28, 100), 0.0);
        let rcm = model.run(&spmv_profile(&r, SpmvAlgorithm::Mkl, &csl(), 28, 100), 0.0);
        assert!(
            rcm.duration_s < orig.duration_s * 0.95,
            "rcm {} vs orig {}",
            rcm.duration_s,
            orig.duration_s
        );
        // Locality visibly improved.
        assert!(rcm.locality.dram < orig.locality.dram);
    }

    #[test]
    fn stream_profiles_keep_analytic_ai() {
        let ai = |p: KernelProfile| p.total_flops() as f64 / p.total_bytes() as f64;
        let p = stream_kernel_profile(StreamKernel::Ddot, 1 << 16, 4, IsaExt::Avx2);
        assert!((ai(p) - 0.125).abs() < 1e-12);
        let p = stream_kernel_profile(StreamKernel::Peakflops, 1 << 16, 4, IsaExt::Avx512);
        assert!((ai(p) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn level_pinned_profiles_behave_like_fig9() {
        let model = ExecModel::new(csl());
        // DDOT from L1 surpasses the L2 roof at its AI. Large op counts
        // (likwid repeats the stream) amortize the launch overhead.
        let ddot = model.run(
            &stream_kernel_profile_at_level(StreamKernel::Ddot, 1 << 31, 28, IsaExt::Avx512, 1),
            0.0,
        );
        let l2_bw = csl().level_bandwidth(2, 28);
        let l2_roof_at_ai = 0.125 * l2_bw / 1e9;
        assert!(
            ddot.gflops() > l2_roof_at_ai,
            "ddot {} vs L2 roof {}",
            ddot.gflops(),
            l2_roof_at_ai
        );
        // Triad from L2 cannot surpass the L2 roof at its AI.
        let triad = model.run(
            &stream_kernel_profile_at_level(StreamKernel::Triad, 1 << 31, 28, IsaExt::Avx512, 2),
            0.0,
        );
        let triad_roof = 0.0625 * l2_bw / 1e9;
        assert!(triad.gflops() <= triad_roof * 1.01);
    }
}
