//! The roofline-style execution model.
//!
//! Given a machine and a kernel profile, [`ExecModel::run`] produces an
//! [`Execution`]: a deterministic timeline with total quantities for every
//! PMU-observable [`Quantity`], distributable over hardware threads and
//! time windows. All of §V's experiments sample these executions.
//!
//! Time accounting follows the cache-aware roofline logic the paper builds
//! its live-CARM on: execution time is the maximum of the compute time
//! (FLOPs against per-ISA peak) and the memory time (bytes against the
//! bandwidth of each serving level), plus a small serial overhead.

use crate::cache_model::derive_locality;
use crate::energy::EnergyModel;
use crate::kernel_profile::{KernelProfile, LocalityProfile, Precision};
use crate::machine::MachineSpec;
use crate::noise::NoiseSource;
use crate::pmu::Quantity;

/// Executes kernel profiles on one machine.
#[derive(Debug, Clone)]
pub struct ExecModel {
    spec: MachineSpec,
    energy: EnergyModel,
    dvfs: bool,
}

impl ExecModel {
    /// Model for a machine spec. DVFS/AVX-license throttling is off by
    /// default (the evaluation experiments are calibrated without it);
    /// enable it with [`ExecModel::with_dvfs`] to study frequency-driven
    /// variability.
    pub fn new(spec: MachineSpec) -> Self {
        let energy = EnergyModel::for_machine(&spec);
        ExecModel {
            spec,
            energy,
            dvfs: false,
        }
    }

    /// Enable multi-core turbo derating and AVX frequency licenses.
    pub fn with_dvfs(mut self) -> Self {
        self.dvfs = true;
        self
    }

    /// Clock the kernel would run at under the current DVFS setting.
    pub fn clock_ghz(&self, profile: &KernelProfile) -> f64 {
        if self.dvfs {
            crate::dvfs::effective_frequency(&self.spec, profile)
        } else {
            self.spec.freq_ghz
        }
    }

    /// Compute-bound time in seconds: each ISA group at its peak.
    fn compute_time(&self, profile: &KernelProfile) -> f64 {
        profile
            .flops
            .iter()
            .map(|g| {
                let peak = self.spec.peak_gflops_f64(g.isa, profile.threads) * 1e9;
                // F32 doubles the lane count, hence the throughput.
                let peak = match g.precision {
                    Precision::F64 => peak,
                    Precision::F32 => peak * 2.0,
                };
                g.ops as f64 / peak
            })
            .sum()
    }

    /// Memory-bound time in seconds: bytes per serving level over that
    /// level's bandwidth at the given thread count. Cache levels (1–3) are
    /// core-clocked and slow with `freq_ratio`; DRAM is not.
    fn memory_time(
        &self,
        profile: &KernelProfile,
        locality: &LocalityProfile,
        freq_ratio: f64,
    ) -> f64 {
        let bytes = profile.total_bytes() as f64;
        (1..=4u8)
            .map(|level| {
                let frac = locality.fraction(level);
                if frac == 0.0 {
                    return 0.0;
                }
                let scale = if level < 4 { freq_ratio } else { 1.0 };
                bytes * frac / (self.spec.level_bandwidth(level, profile.threads) * scale)
            })
            .sum()
    }

    /// Run a kernel starting at `start_s` seconds of virtual time.
    pub fn run(&self, profile: &KernelProfile, start_s: f64) -> Execution {
        let locality = profile.locality.unwrap_or_else(|| {
            derive_locality(&self.spec, profile.working_set_bytes, profile.threads)
        });
        // Under DVFS, core-clocked resources (FP pipes, private caches)
        // slow by the frequency ratio; DRAM bandwidth is unaffected.
        let clock_ghz = self.clock_ghz(profile);
        let freq_ratio = clock_ghz / self.spec.freq_ghz;
        let compute = self.compute_time(profile) / freq_ratio;
        let memory = self.memory_time(profile, &locality, freq_ratio);
        // Serial launch/teardown overhead: ~2 % plus a fixed 50 µs.
        let duration = (compute.max(memory)) * 1.02 + 50e-6;
        // Deterministic ±3 % per-thread load imbalance, precomputed once
        // (sampling reads these on every tick for every thread).
        let active = profile.threads.min(self.spec.total_threads());
        let raw: Vec<f64> = (0..active)
            .map(|i| {
                let mut n =
                    NoiseSource::from_labels(&[&self.spec.key, &profile.name, &format!("t{i}")]);
                (1.0 + n.normal(0.0, 0.03)).max(0.2)
            })
            .collect();
        let total: f64 = raw.iter().sum();
        let thread_weights = raw.into_iter().map(|w| w / total).collect();
        Execution {
            machine: self.spec.clone(),
            energy: self.energy,
            profile: profile.clone(),
            locality,
            start_s,
            duration_s: duration,
            clock_ghz,
            thread_weights,
        }
    }

    /// Run under PMU sampling at `freq_hz`: the sampler perturbs the run by
    /// a tiny positive overhead that grows with frequency (Fig. 5 measures
    /// ~0.01 %, skewing positive at high frequency), while run-to-run
    /// variance (`noise`) can make the *measured* overhead negative.
    pub fn run_sampled(
        &self,
        profile: &KernelProfile,
        start_s: f64,
        freq_hz: f64,
        noise: &mut NoiseSource,
    ) -> Execution {
        let mut exec = self.run(profile, start_s);
        let overhead = sampling_overhead_fraction(freq_hz);
        let variance = noise.runtime_factor(0.0008);
        exec.duration_s *= (1.0 + overhead) * variance;
        exec
    }
}

/// Deterministic sampling-overhead fraction as a function of frequency:
/// ~0.005 % at 1 Hz growing to ~0.05 % at 64 Hz.
fn sampling_overhead_fraction(freq_hz: f64) -> f64 {
    5e-5 + 7e-6 * freq_hz.max(0.0)
}

/// One simulated kernel execution.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Machine the kernel ran on.
    pub machine: MachineSpec,
    energy: EnergyModel,
    /// The executed profile.
    pub profile: KernelProfile,
    /// Resolved locality.
    pub locality: LocalityProfile,
    /// Start time (virtual seconds).
    pub start_s: f64,
    /// Duration (virtual seconds).
    pub duration_s: f64,
    /// Effective core clock during the run (GHz) — equals the machine's
    /// nominal clock unless DVFS throttling applied.
    pub clock_ghz: f64,
    /// Normalized per-active-thread work shares (length = active threads).
    thread_weights: Vec<f64>,
}

impl Execution {
    /// End time.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.duration_s
    }

    /// Achieved GFLOP/s over the whole run.
    pub fn gflops(&self) -> f64 {
        self.profile.total_flops() as f64 / self.duration_s / 1e9
    }

    /// Bytes served from a memory level (1..=4).
    fn bytes_from_level(&self, level: u8) -> f64 {
        self.profile.total_bytes() as f64 * self.locality.fraction(level)
    }

    /// Total value of a PMU quantity across all threads for the whole run.
    pub fn quantity_total(&self, q: Quantity) -> f64 {
        let p = &self.profile;
        let active = p.threads.min(self.machine.total_threads()) as f64;
        match q {
            Quantity::Cycles => self.duration_s * self.clock_ghz * 1e9 * active,
            Quantity::Instructions => p.total_instructions() as f64,
            Quantity::Uops => p.total_instructions() as f64 * 1.3,
            Quantity::FlopInstrF64(isa) => p.flop_instructions_with(isa, Precision::F64) as f64,
            Quantity::FlopInstrF32(isa) => p.flop_instructions_with(isa, Precision::F32) as f64,
            Quantity::AllFlops => p.total_flops() as f64,
            Quantity::LoadInstr => p.load_instructions() as f64,
            Quantity::StoreInstr => p.store_instructions() as f64,
            Quantity::CacheMiss(level) => {
                // Misses at L are accesses served by deeper levels, in lines.
                let deeper: f64 = (level + 1..=4).map(|l| self.locality.fraction(l)).sum();
                p.total_bytes() as f64 * deeper / 64.0
            }
            Quantity::CacheRef(level) => {
                let here_or_deeper: f64 = (level..=4).map(|l| self.locality.fraction(l)).sum();
                p.total_bytes() as f64 * here_or_deeper / 64.0
            }
            Quantity::DivOps => p.div_ops as f64,
            Quantity::EnergyPkg => {
                let cache_bytes: f64 = (1..=3).map(|l| self.bytes_from_level(l)).sum();
                self.energy.package_energy(
                    self.duration_s,
                    p.total_instructions() as f64,
                    cache_bytes,
                    self.bytes_from_level(4),
                    self.machine.sockets,
                )
            }
            Quantity::EnergyDram => self.energy.dram_energy(
                self.duration_s,
                self.bytes_from_level(4),
                self.machine.sockets,
            ),
        }
    }

    /// Fraction of the quantity falling into the window `[t0, t1)` of
    /// virtual time, assuming a uniform rate over the run.
    fn window_fraction(&self, t0: f64, t1: f64) -> f64 {
        let lo = t0.max(self.start_s);
        let hi = t1.min(self.end_s());
        if hi <= lo || self.duration_s <= 0.0 {
            return 0.0;
        }
        (hi - lo) / self.duration_s
    }

    /// Quantity counted in a window across all threads.
    pub fn quantity_in_window(&self, q: Quantity, t0: f64, t1: f64) -> f64 {
        self.quantity_total(q) * self.window_fraction(t0, t1)
    }

    /// Share of a per-thread quantity attributed to one active thread, with
    /// a deterministic ±3 % load imbalance. `thread_idx` counts the active
    /// threads (0-based); inactive threads observe 0.
    pub fn thread_share(&self, thread_idx: u32) -> f64 {
        self.thread_weights
            .get(thread_idx as usize)
            .copied()
            .unwrap_or(0.0)
    }

    /// Per-thread quantity in a window (uniform rate × imbalance share).
    pub fn thread_quantity_in_window(&self, q: Quantity, thread_idx: u32, t0: f64, t1: f64) -> f64 {
        self.quantity_in_window(q, t0, t1) * self.thread_share(thread_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_profile::KernelProfile;
    use crate::vendor::IsaExt;

    fn model() -> ExecModel {
        ExecModel::new(MachineSpec::csl())
    }

    /// DRAM-streaming triad, AVX-512, all 28 cores.
    fn triad() -> KernelProfile {
        let n: u64 = 1 << 27; // 128 Mi elements/array => 3 GiB working set
        KernelProfile::named("triad")
            .with_threads(28)
            .with_flops(IsaExt::Avx512, Precision::F64, 2 * n)
            .with_mem(2 * n, n, IsaExt::Avx512)
            .with_working_set(3 * n * 8)
    }

    /// Tiny compute-heavy kernel, fits in L1.
    fn peakflops() -> KernelProfile {
        KernelProfile::named("peakflops")
            .with_threads(28)
            .with_flops(IsaExt::Avx512, Precision::F64, 1 << 34)
            .with_mem(1 << 20, 0, IsaExt::Avx512)
            .with_working_set(16 * 1024)
    }

    #[test]
    fn streaming_kernel_is_memory_bound() {
        let m = model();
        let p = triad();
        let exec = m.run(&p, 0.0);
        assert!(exec.locality.dram > 0.9);
        let mem = m.memory_time(&p, &exec.locality, 1.0);
        let comp = m.compute_time(&p);
        assert!(mem > comp * 2.0, "mem {mem} comp {comp}");
        // Achieved bandwidth ≈ machine DRAM bandwidth.
        let bw = p.total_bytes() as f64 / exec.duration_s;
        assert!(bw < m.spec.dram_bw_total() * 1.05);
        assert!(bw > m.spec.dram_bw_total() * 0.5);
    }

    #[test]
    fn compute_kernel_reaches_near_peak() {
        let m = model();
        let exec = m.run(&peakflops(), 0.0);
        let peak = m.spec.peak_gflops_f64(IsaExt::Avx512, 28);
        let achieved = exec.gflops();
        assert!(achieved > 0.9 * peak, "achieved {achieved} peak {peak}");
        assert!(achieved <= peak);
    }

    #[test]
    fn avx512_beats_scalar_for_same_work() {
        let m = model();
        let n: u64 = 1 << 22;
        let mk = |isa| {
            KernelProfile::named("k")
                .with_threads(4)
                .with_flops(isa, Precision::F64, 64 * n)
                .with_mem(n, n, isa)
                .with_working_set(2 * n * 8)
        };
        let fast = m.run(&mk(IsaExt::Avx512), 0.0);
        let slow = m.run(&mk(IsaExt::Scalar), 0.0);
        assert!(slow.duration_s > fast.duration_s * 3.0);
    }

    #[test]
    fn quantity_semantics() {
        let m = model();
        let p = triad();
        let exec = m.run(&p, 0.0);
        assert_eq!(
            exec.quantity_total(Quantity::AllFlops),
            p.total_flops() as f64
        );
        assert_eq!(
            exec.quantity_total(Quantity::FlopInstrF64(IsaExt::Avx512)),
            p.flop_instructions_with(IsaExt::Avx512, Precision::F64) as f64
        );
        assert_eq!(
            exec.quantity_total(Quantity::FlopInstrF64(IsaExt::Scalar)),
            0.0
        );
        assert_eq!(
            exec.quantity_total(Quantity::LoadInstr),
            p.load_instructions() as f64
        );
        // Streaming kernel: essentially every line misses L1 and L3 refs
        // roughly equal DRAM-served lines.
        let l1_miss = exec.quantity_total(Quantity::CacheMiss(1));
        assert!(l1_miss > 0.9 * p.total_bytes() as f64 / 64.0);
        assert!(exec.quantity_total(Quantity::EnergyPkg) > 0.0);
        assert!(
            exec.quantity_total(Quantity::EnergyDram) < exec.quantity_total(Quantity::EnergyPkg)
        );
    }

    #[test]
    fn windows_partition_the_run() {
        let m = model();
        let exec = m.run(&triad(), 10.0);
        let q = Quantity::LoadInstr;
        let total = exec.quantity_total(q);
        let mid = exec.start_s + exec.duration_s / 2.0;
        let a = exec.quantity_in_window(q, 0.0, mid);
        let b = exec.quantity_in_window(q, mid, 1e9);
        assert!((a + b - total).abs() < total * 1e-9);
        // Outside the run: zero.
        assert_eq!(exec.quantity_in_window(q, 0.0, 10.0), 0.0);
    }

    #[test]
    fn thread_shares_sum_to_one_and_are_stable() {
        let m = model();
        let exec = m.run(&triad(), 0.0);
        let sum: f64 = (0..28).map(|i| exec.thread_share(i)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(exec.thread_share(0), exec.thread_share(0));
        assert_eq!(exec.thread_share(100), 0.0);
    }

    #[test]
    fn sampling_adds_small_overhead() {
        let m = model();
        let p = triad();
        let base = m.run(&p, 0.0).duration_s;
        // Average over noise draws: overhead should be ≪ 1 % yet positive
        // in expectation and growing with frequency.
        let mean_dur = |freq: f64| {
            (0..30)
                .map(|i| {
                    let mut n = NoiseSource::from_seed(1000 + i);
                    m.run_sampled(&p, 0.0, freq, &mut n).duration_s
                })
                .sum::<f64>()
                / 30.0
        };
        let d1 = mean_dur(1.0);
        let d64 = mean_dur(64.0);
        assert!(d1 > base * 0.999 && d1 < base * 1.01);
        assert!(d64 > d1);
        assert!(sampling_overhead_fraction(64.0) > sampling_overhead_fraction(2.0));
    }

    #[test]
    fn dvfs_throttles_wide_vector_kernels_only() {
        let spec = MachineSpec::csl();
        let base = ExecModel::new(spec.clone());
        let dvfs = ExecModel::new(spec).with_dvfs();
        // All-core AVX-512 compute kernel: DVFS slows it by the license +
        // turbo derating (~32 % on CSL).
        let p = peakflops();
        let t0 = base.run(&p, 0.0).duration_s;
        let t1 = dvfs.run(&p, 0.0).duration_s;
        assert!(
            (t1 / t0 - 1.0 / (0.80 * 0.85)).abs() < 0.02,
            "ratio {}",
            t1 / t0
        );
        // Single-core scalar kernel: no throttling at all.
        let scalar = KernelProfile::named("s")
            .with_threads(1)
            .with_flops(IsaExt::Scalar, Precision::F64, 1 << 28)
            .with_mem(1 << 10, 0, IsaExt::Scalar)
            .with_working_set(8 << 10);
        let t0 = base.run(&scalar, 0.0).duration_s;
        let t1 = dvfs.run(&scalar, 0.0).duration_s;
        assert!((t1 / t0 - 1.0).abs() < 1e-9);
        // DRAM-bound streaming kernel: barely affected (DRAM is not
        // core-clocked).
        let t0 = base.run(&triad(), 0.0).duration_s;
        let t1 = dvfs.run(&triad(), 0.0).duration_s;
        assert!(t1 / t0 < 1.05, "ratio {}", t1 / t0);
    }

    #[test]
    fn dvfs_clock_matches_dvfs_module() {
        let spec = MachineSpec::csl();
        let model = ExecModel::new(spec.clone()).with_dvfs();
        let p = KernelProfile::named("x")
            .with_threads(28)
            .with_flops(IsaExt::Avx512, Precision::F64, 1 << 30)
            .with_mem(1, 0, IsaExt::Avx512);
        assert_eq!(
            model.clock_ghz(&p),
            crate::dvfs::effective_frequency(&spec, &p)
        );
    }

    #[test]
    fn package_power_in_plausible_server_range() {
        let m = model();
        let exec = m.run(&triad(), 0.0);
        let w = exec.quantity_total(Quantity::EnergyPkg) / exec.duration_s;
        assert!(w > 50.0 && w < 400.0, "power {w} W");
    }
}
