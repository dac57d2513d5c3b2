//! RAPL-style package/DRAM energy model.
//!
//! Calibrated to reproduce the *qualitative* power behaviour of Fig. 7:
//! for the same amount of FP work, a scalar code retires ~8× more
//! instructions than an AVX-512 code and therefore burns more package
//! power, while heavy DRAM traffic adds on top. Absolute watts are
//! plausible for the modelled server classes, not calibrated to hardware.

use crate::machine::MachineSpec;
use crate::vendor::Microarch;
use serde::{Deserialize, Serialize};

/// Per-machine energy coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct EnergyModel {
    /// Idle package power per socket, watts.
    pub idle_w_per_socket: f64,
    /// Energy per retired instruction, joules.
    pub j_per_instruction: f64,
    /// Energy per byte moved from DRAM, joules.
    pub j_per_dram_byte: f64,
    /// Energy per byte moved within caches, joules.
    pub j_per_cache_byte: f64,
    /// DRAM idle power per socket (for the DRAM RAPL domain).
    pub dram_idle_w_per_socket: f64,
}

impl EnergyModel {
    /// Coefficients for a machine spec.
    pub(crate) fn for_machine(spec: &MachineSpec) -> Self {
        let idle = match spec.arch {
            Microarch::SkylakeX => 55.0,
            Microarch::CascadeLake => 50.0,
            Microarch::IceLake => 18.0,
            Microarch::Zen3 => 40.0,
        };
        EnergyModel {
            idle_w_per_socket: idle,
            j_per_instruction: 0.45e-9,
            j_per_dram_byte: 60.0e-12,
            j_per_cache_byte: 6.0e-12,
            dram_idle_w_per_socket: 3.0,
        }
    }

    /// Package energy (joules) for an execution phase.
    ///
    /// * `duration_s` — phase wall time;
    /// * `instructions` — total instructions retired;
    /// * `cache_bytes` — bytes served by caches;
    /// * `dram_bytes` — bytes served by DRAM;
    /// * `sockets` — active package count.
    pub(crate) fn package_energy(
        &self,
        duration_s: f64,
        instructions: f64,
        cache_bytes: f64,
        dram_bytes: f64,
        sockets: u32,
    ) -> f64 {
        self.idle_w_per_socket * sockets as f64 * duration_s
            + self.j_per_instruction * instructions
            + self.j_per_cache_byte * cache_bytes
            + self.j_per_dram_byte * dram_bytes
    }

    /// DRAM-domain energy (joules) for a phase.
    pub(crate) fn dram_energy(&self, duration_s: f64, dram_bytes: f64, sockets: u32) -> f64 {
        self.dram_idle_w_per_socket * sockets as f64 * duration_s
            + self.j_per_dram_byte * dram_bytes * 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_energy_scales_with_time_and_sockets() {
        let m = EnergyModel::for_machine(&MachineSpec::skx());
        let e1 = m.package_energy(1.0, 0.0, 0.0, 0.0, 2);
        let e2 = m.package_energy(2.0, 0.0, 0.0, 0.0, 2);
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
        assert!((e1 - 110.0).abs() < 1e-9);
    }

    #[test]
    fn scalar_burns_more_than_vector_for_same_flops() {
        // Same FLOPs and duration; scalar retires 8x the instructions.
        let m = EnergyModel::for_machine(&MachineSpec::csl());
        let flops = 1e10;
        let scalar_instr = flops; // 1 flop per instr
        let avx512_instr = flops / 8.0;
        let p_scalar = m.package_energy(1.0, scalar_instr, 1e9, 1e9, 1);
        let p_vec = m.package_energy(1.0, avx512_instr, 1e9, 1e9, 1);
        assert!(p_scalar > p_vec * 1.05, "{p_scalar} vs {p_vec}");
    }

    #[test]
    fn dram_traffic_adds_power() {
        let m = EnergyModel::for_machine(&MachineSpec::csl());
        let low = m.package_energy(1.0, 1e9, 0.0, 1e9, 1);
        let high = m.package_energy(1.0, 1e9, 0.0, 50e9, 1);
        assert!(high > low);
    }

    #[test]
    fn dram_domain_smaller_than_package() {
        let m = EnergyModel::for_machine(&MachineSpec::zen3());
        let pkg = m.package_energy(1.0, 1e9, 1e9, 10e9, 1);
        let dram = m.dram_energy(1.0, 10e9, 1);
        assert!(dram < pkg);
        assert!(dram > 0.0);
    }
}
