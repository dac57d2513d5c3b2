//! CARM microbenchmarks (§IV-B-1).
//!
//! A set of micro-kernels assesses the realistically attainable maximums
//! of a system: sustainable bandwidth per memory level (working sets
//! auto-sized to the probed cache capacities) and peak FP throughput per
//! ISA extension. Cycles come from the virtual TSC; results are cached in
//! the KB so the plot can be re-constructed without re-running.

use crate::carm::model::{CarmModel, FpPeak, MemRoof};
use pmove_hwsim::clock::VirtualClock;
use pmove_hwsim::kernel_profile::{KernelProfile, LocalityProfile, Precision};
use pmove_hwsim::{ExecModel, Machine};

/// The representative thread counts P-MoVE benchmarks instead of the full
/// combinatorial sweep: 1, half socket, one socket, all cores, all
/// threads (deduplicated, sorted).
pub fn representative_thread_counts(machine: &Machine) -> Vec<u32> {
    let spec = &machine.spec;
    let mut v = vec![
        1,
        spec.cores_per_socket / 2,
        spec.cores_per_socket,
        spec.total_cores(),
        spec.total_threads(),
    ];
    v.retain(|&t| t >= 1);
    v.sort_unstable();
    v.dedup();
    v
}

/// Working-set bytes that exercise exactly one memory level.
fn working_set_for_level(machine: &Machine, level: u8, threads: u32) -> u64 {
    let spec = &machine.spec;
    let per_core = |kb: u32| kb as u64 * 1024;
    match level {
        // Half the cache: safely resident.
        1 => per_core(spec.l1_kb) / 2,
        2 => per_core(spec.l2_kb) / 2,
        3 => (spec.l3_kb as u64 * 1024) / 2,
        // 4× L3: forced to stream from DRAM.
        4 => (spec.l3_kb as u64 * 1024) * 4 * (threads as u64).max(1),
        _ => panic!("level must be 1..=4"),
    }
}

/// Measure the sustainable bandwidth of one memory level with a pure
/// load/store streaming kernel, timed by the TSC.
pub(crate) fn measure_level_bandwidth(machine: &Machine, level: u8, threads: u32) -> f64 {
    let model = ExecModel::new(machine.spec.clone());
    // Large enough to amortize the fixed launch overhead at any thread
    // count (the microbenchmarks stream gigabytes, like the real ones).
    let elems: u64 = 1 << 31;
    let locality = match level {
        1 => LocalityProfile::new(1.0, 0.0, 0.0, 0.0),
        2 => LocalityProfile::new(0.0, 1.0, 0.0, 0.0),
        3 => LocalityProfile::new(0.0, 0.0, 1.0, 0.0),
        _ => LocalityProfile::new(0.0, 0.0, 0.0, 1.0),
    };
    let profile = KernelProfile::named(format!("carm_bw_l{level}"))
        .with_threads(threads)
        .with_mem(elems, elems / 2, machine.spec.arch.widest_isa())
        .with_working_set(working_set_for_level(machine, level, threads))
        .with_locality(locality);
    // TSC-based timing: cycles elapsed over the run / frequency.
    let mut clock = VirtualClock::for_freq_ghz(machine.spec.freq_ghz);
    let exec = model.run(&profile, 0.0);
    clock.advance_secs(exec.duration_s);
    let seconds = clock.cycles_to_secs(clock.rdtsc());
    profile.total_bytes() as f64 / seconds
}

/// Measure the peak FP throughput of one ISA extension.
pub(crate) fn measure_peak_gflops(
    machine: &Machine,
    isa: pmove_hwsim::vendor::IsaExt,
    threads: u32,
) -> f64 {
    let model = ExecModel::new(machine.spec.clone());
    let flops: u64 = 1 << 36;
    let profile = KernelProfile::named(format!("carm_peak_{}", isa.label()))
        .with_threads(threads)
        .with_flops(isa, Precision::F64, flops)
        .with_mem(1 << 12, 0, isa)
        .with_working_set(8 << 10)
        .with_locality(LocalityProfile::l1_resident());
    let exec = model.run(&profile, 0.0);
    flops as f64 / exec.duration_s / 1e9
}

/// Construct CARMs for every representative thread count and cache all of
/// them in the KB as one `BenchmarkInterface` per count — "the KB is also
/// used to store all the microbenchmarking results for each tested
/// system, thus allowing for a re-construction of the CARM plot without
/// the need to re-run all the microbenchmarks" (§IV-B-1).
pub fn construct_carm_sweep(
    machine: &Machine,
    kb: &mut crate::kb::KnowledgeBase,
    ids: &mut crate::ids::IdFactory,
) -> Vec<CarmModel> {
    representative_thread_counts(machine)
        .into_iter()
        .map(|threads| {
            let carm = construct_carm(machine, threads);
            kb.append_benchmark(crate::kb::observation::BenchmarkInterface {
                id: ids.next_id(),
                machine: machine.key().to_string(),
                benchmark: format!("carm_t{threads}"),
                compiler: "gcc".into(),
                results: carm.to_results(),
            });
            carm
        })
        .collect()
}

/// Reconstruct a previously measured CARM from the KB without re-running
/// the microbenchmarks.
pub fn carm_from_kb(kb: &crate::kb::KnowledgeBase, threads: u32) -> Option<CarmModel> {
    kb.benchmarks
        .iter()
        .find(|b| b.benchmark == format!("carm_t{threads}"))
        .and_then(|b| CarmModel::from_results(&kb.machine_key, &b.results))
}

/// Construct the full CARM for a machine at one thread count. The KB
/// supplies cache sizes and available ISAs (auto-configuration of §IV-B).
pub fn construct_carm(machine: &Machine, threads: u32) -> CarmModel {
    let levels = [(1u8, "L1"), (2, "L2"), (3, "L3"), (4, "DRAM")];
    let roofs = levels
        .iter()
        .map(|&(level, name)| MemRoof {
            level: name.to_string(),
            bandwidth_bps: measure_level_bandwidth(machine, level, threads),
        })
        .collect();
    let peaks = machine
        .spec
        .arch
        .isa_extensions()
        .iter()
        .map(|&isa| FpPeak {
            isa: isa.label().to_string(),
            gflops: measure_peak_gflops(machine, isa, threads),
        })
        .collect();
    CarmModel {
        machine: machine.key().to_string(),
        threads,
        roofs,
        peaks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmove_hwsim::vendor::IsaExt;

    fn csl() -> Machine {
        Machine::preset("csl").unwrap()
    }

    #[test]
    fn thread_subsets_are_representative() {
        let skx = Machine::preset("skx").unwrap();
        let t = representative_thread_counts(&skx);
        assert_eq!(t, vec![1, 11, 22, 44, 88]);
        let icl = Machine::preset("icl").unwrap();
        assert_eq!(representative_thread_counts(&icl), vec![1, 4, 8, 16]);
    }

    #[test]
    fn roofs_are_ordered_l1_to_dram() {
        let m = csl();
        let carm = construct_carm(&m, 28);
        assert_eq!(carm.roofs.len(), 4);
        for w in carm.roofs.windows(2) {
            assert!(
                w[0].bandwidth_bps > w[1].bandwidth_bps,
                "{} !> {}",
                w[0].level,
                w[1].level
            );
        }
        // DRAM roof ≈ machine DRAM bandwidth.
        let dram = carm.bandwidth("DRAM").unwrap();
        assert!((dram / m.spec.dram_bw_total() - 1.0).abs() < 0.15);
    }

    #[test]
    fn peaks_scale_with_isa_width() {
        let m = csl();
        let carm = construct_carm(&m, 28);
        let peak = |isa: &str| carm.peaks.iter().find(|p| p.isa == isa).unwrap().gflops;
        assert!(peak("avx512") > 7.0 * peak("scalar"));
        assert!(peak("avx2") > 1.9 * peak("sse"));
        // Near the theoretical machine peak.
        let theory = m.spec.peak_gflops_f64(IsaExt::Avx512, 28);
        assert!((peak("avx512") / theory - 1.0).abs() < 0.1);
    }

    #[test]
    fn zen3_has_no_avx512_peak() {
        let m = Machine::preset("zen3").unwrap();
        let carm = construct_carm(&m, 16);
        assert!(carm.peaks.iter().all(|p| p.isa != "avx512"));
        assert_eq!(carm.peaks.len(), 3);
    }

    #[test]
    fn bandwidth_grows_with_threads() {
        let m = csl();
        let one = measure_level_bandwidth(&m, 1, 1);
        let many = measure_level_bandwidth(&m, 1, 28);
        assert!(many > 10.0 * one);
    }

    #[test]
    fn carm_roundtrips_through_kb_results() {
        let m = csl();
        let carm = construct_carm(&m, 28);
        let results = carm.to_results();
        let back = CarmModel::from_results("csl", &results).unwrap();
        assert_eq!(back, carm);
    }

    #[test]
    fn sweep_caches_every_thread_count_in_the_kb() {
        let m = csl();
        let mut kb = crate::kb::KnowledgeBase::new("csl", "csl");
        let mut ids = crate::ids::IdFactory::new("carm");
        let models = construct_carm_sweep(&m, &mut kb, &mut ids);
        let expected = representative_thread_counts(&m);
        assert_eq!(models.len(), expected.len());
        assert_eq!(kb.benchmarks.len(), expected.len());
        // Reconstruction without re-running matches the measured model.
        for (threads, model) in expected.iter().zip(&models) {
            let back = carm_from_kb(&kb, *threads).expect("cached");
            assert_eq!(&back, model);
        }
        assert!(carm_from_kb(&kb, 999).is_none());
        // L1 bandwidth never shrinks with more threads, and scales up
        // strongly from 1 thread to all cores (SMT adds no L1 ports, so
        // the last step may be flat).
        let l1: Vec<f64> = models.iter().map(|m| m.bandwidth("L1").unwrap()).collect();
        assert!(l1.windows(2).all(|w| w[0] <= w[1]), "{l1:?}");
        assert!(l1.last().unwrap() > &(l1[0] * 10.0));
    }
}
