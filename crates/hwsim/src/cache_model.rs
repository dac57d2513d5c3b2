//! Cache behaviour models.
//!
//! Two tools at different fidelities:
//!
//! 1. `derive_locality` — the analytic model the execution engine uses:
//!    given a kernel's working set and a machine's cache capacities it
//!    produces per-level service fractions (which level satisfies each
//!    byte of core traffic).
//! 2. [`CacheSim`] — a real set-associative LRU cache simulator for memory
//!    address traces: the reference the analytic locality scores (RCM vs
//!    original ordering) are validated against.

use crate::kernel_profile::LocalityProfile;
use crate::machine::MachineSpec;

/// Analytic locality: working sets that fit in a level are served from it;
/// larger sets spill smoothly to the next level. The smoothing window
/// reflects that a set slightly larger than a cache still enjoys partial
/// residency.
pub(crate) fn derive_locality(
    spec: &MachineSpec,
    working_set_bytes: u64,
    threads: u32,
) -> LocalityProfile {
    // Effective per-thread share of each level.
    let threads = threads.max(1) as u64;
    let threads_per_core = spec.threads_per_core.max(1) as u64;
    let cores_used = threads.div_ceil(threads_per_core);
    let sockets_used = cores_used
        .div_ceil(spec.cores_per_socket.max(1) as u64)
        .min(spec.sockets as u64)
        .max(1);
    let l1 = spec.l1_kb as u64 * 1024 * cores_used;
    let l2 = spec.l2_kb as u64 * 1024 * cores_used;
    let l3 = spec.l3_kb as u64 * 1024 * sockets_used;

    // served(level) = how much of the working set the level can hold
    // (cumulatively with inner levels already serving their share).
    let ws = working_set_bytes.max(1) as f64;
    let f1 = ((l1 as f64) / ws).min(1.0);
    let f2 = (((l1 + l2) as f64) / ws).min(1.0) - f1;
    let f3 = (((l1 + l2 + l3) as f64) / ws).min(1.0) - f1 - f2;
    let dram = (1.0 - f1 - f2 - f3).max(0.0);
    // Normalize away any floating residue.
    let s = f1 + f2 + f3 + dram;
    LocalityProfile::new(f1 / s, f2 / s, f3 / s, dram / s)
}

/// A set-associative LRU cache for trace-driven simulation.
#[derive(Debug)]
pub struct CacheSim {
    sets: Vec<Vec<u64>>, // each set: tags in LRU order (front = MRU)
    ways: usize,
    line_bytes: u64,
    set_count: u64,
    hits: u64,
    misses: u64,
}

impl CacheSim {
    /// Build a cache of `size_bytes` with `ways` associativity and
    /// `line_bytes` lines. Size must be a multiple of `ways * line_bytes`.
    pub fn new(size_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(ways > 0 && line_bytes > 0, "bad cache geometry");
        let set_count = size_bytes / (ways as u64 * line_bytes);
        assert!(set_count > 0, "cache too small for geometry");
        CacheSim {
            sets: vec![Vec::with_capacity(ways); set_count as usize],
            ways,
            line_bytes,
            set_count,
            hits: 0,
            misses: 0,
        }
    }

    /// Access one byte address; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let set_idx = (line % self.set_count) as usize;
        let tag = line / self.set_count;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to MRU.
            let t = set.remove(pos);
            set.insert(0, t);
            self.hits += 1;
            true
        } else {
            if set.len() == self.ways {
                set.pop();
            }
            set.insert(0, tag);
            self.misses += 1;
            false
        }
    }

    /// Hit ratio (0 when nothing accessed).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_working_set_is_l1_resident() {
        let spec = MachineSpec::csl();
        let loc = derive_locality(&spec, 16 * 1024, 1); // 16 KB < 32 KB L1
        assert!(loc.l1 > 0.99, "{loc:?}");
    }

    #[test]
    fn huge_working_set_streams_from_dram() {
        let spec = MachineSpec::csl();
        let loc = derive_locality(&spec, 8 << 30, 28);
        assert!(loc.dram > 0.9, "{loc:?}");
    }

    #[test]
    fn midsize_set_lands_in_l2_or_l3() {
        let spec = MachineSpec::csl();
        // 512 KB on one core: beyond 32 KB L1, within 32+1024 KB L1+L2.
        let loc = derive_locality(&spec, 512 * 1024, 1);
        assert!(loc.l2 > 0.8, "{loc:?}");
        // 20 MB on one core: mostly L3 on CSL (38.5 MB L3).
        let loc = derive_locality(&spec, 20 << 20, 1);
        assert!(loc.l3 > 0.8, "{loc:?}");
    }

    #[test]
    fn more_threads_increase_effective_private_capacity() {
        let spec = MachineSpec::csl();
        let one = derive_locality(&spec, 2 << 20, 1);
        let many = derive_locality(&spec, 2 << 20, 28);
        assert!(many.l1 + many.l2 > one.l1 + one.l2);
    }

    #[test]
    fn sim_sequential_reuse_hits() {
        let mut c = CacheSim::new(4096, 4, 64);
        // First pass over 2 KB: all misses (32 lines).
        for i in 0..32 {
            assert!(!c.access(i * 64));
        }
        // Second pass: all hits (2 KB fits in 4 KB cache).
        for i in 0..32 {
            assert!(c.access(i * 64));
        }
        assert_eq!(c.hit_ratio(), 0.5);
    }

    #[test]
    fn sim_capacity_eviction() {
        let mut c = CacheSim::new(4096, 4, 64);
        // Stream 8 KB twice: 128 distinct lines > 64-line capacity, so the
        // second pass also misses everywhere (LRU streaming pathology).
        for pass in 0..2 {
            for i in 0..128 {
                let hit = c.access(i * 64);
                assert!(!hit, "pass {pass} line {i} unexpectedly hit");
            }
        }
    }

    #[test]
    fn sim_same_line_accesses_hit() {
        let mut c = CacheSim::new(4096, 4, 64);
        c.access(0);
        assert!(c.access(8)); // same line
        assert!(c.access(63));
        assert!(!c.access(64)); // next line
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn bad_geometry_panics() {
        CacheSim::new(100, 0, 64);
    }
}
