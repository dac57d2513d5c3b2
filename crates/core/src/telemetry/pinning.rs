//! Thread-pinning strategies.
//!
//! Scenario B "generates a script to run the requested kernel on the
//! target system. This script bounds the threads to the cores using one of
//! the balanced, compact, numa balanced, numa compact strategies based on
//! the probed target system topology" (§IV).

use pmove_hwsim::topology::ComponentKind;
use pmove_hwsim::Machine;

/// The four pinning strategies of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinningStrategy {
    /// One thread per core, round-robin across sockets before using SMT
    /// siblings.
    Balanced,
    /// Consecutive OS threads (`cpu0, cpu1, ...`): SMT siblings packed,
    /// one socket filled first.
    Compact,
    /// Threads split evenly across NUMA nodes, one per core within a node
    /// before SMT.
    NumaBalanced,
    /// NUMA node 0 filled completely (including SMT) before node 1.
    NumaCompact,
}

impl PinningStrategy {
    /// Strategy name used in observation metadata.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            PinningStrategy::Balanced => "balanced",
            PinningStrategy::Compact => "compact",
            PinningStrategy::NumaBalanced => "numa_balanced",
            PinningStrategy::NumaCompact => "numa_compact",
        }
    }

    /// Choose `n` OS thread indices on `machine` according to the
    /// strategy. Returns fewer when the machine has fewer threads.
    pub fn assign(&self, machine: &Machine, n: u32) -> Vec<u32> {
        let spec = &machine.spec;
        let total = spec.total_threads();
        let n = n.min(total);
        let tpc = spec.threads_per_core;
        let cps = spec.cores_per_socket;
        let sockets = spec.sockets;

        // OS index of (socket, core, smt) under the build order.
        let os_index = |s: u32, c: u32, t: u32| (s * cps + c) * tpc + t;

        let order: Vec<u32> = match self {
            PinningStrategy::Compact => (0..total).collect(),
            PinningStrategy::Balanced => {
                // smt level, then core, round-robin over sockets.
                let mut v = Vec::with_capacity(total as usize);
                for t in 0..tpc {
                    for c in 0..cps {
                        for s in 0..sockets {
                            v.push(os_index(s, c, t));
                        }
                    }
                }
                v
            }
            PinningStrategy::NumaBalanced => {
                // Alternate nodes; within a node, one per core before SMT.
                let mut per_socket: Vec<Vec<u32>> = (0..sockets)
                    .map(|s| {
                        let mut v = Vec::new();
                        for t in 0..tpc {
                            for c in 0..cps {
                                v.push(os_index(s, c, t));
                            }
                        }
                        v
                    })
                    .collect();
                let mut v = Vec::with_capacity(total as usize);
                'outer: loop {
                    let mut progressed = false;
                    for socket in per_socket.iter_mut() {
                        if !socket.is_empty() {
                            v.push(socket.remove(0));
                            progressed = true;
                        }
                        if v.len() == total as usize {
                            break 'outer;
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
                v
            }
            PinningStrategy::NumaCompact => {
                // Node by node; within a node, one per core before SMT.
                let mut v = Vec::with_capacity(total as usize);
                for s in 0..sockets {
                    for t in 0..tpc {
                        for c in 0..cps {
                            v.push(os_index(s, c, t));
                        }
                    }
                }
                v
            }
        };
        order.into_iter().take(n as usize).collect()
    }

    /// Generate the launch script of step B2: affinity binding plus the
    /// kernel command line.
    pub(crate) fn launch_script(&self, machine: &Machine, n: u32, command: &str) -> String {
        let cpus = self.assign(machine, n);
        let list = cpus
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "#!/bin/sh\n# generated by P-MoVE ({} pinning on {})\nexport OMP_NUM_THREADS={}\nexport OMP_PROC_BIND=true\ntaskset -c {} {}\n",
            self.label(),
            machine.key(),
            cpus.len(),
            list,
            command
        )
    }

    /// NUMA nodes touched by an assignment (for the observation metadata).
    pub fn nodes_touched(machine: &Machine, cpus: &[u32]) -> Vec<u32> {
        let threads = machine.topology.threads();
        let mut nodes: Vec<u32> = cpus
            .iter()
            .filter_map(|&c| {
                let t = threads.get(c as usize)?;
                machine
                    .topology
                    .ancestor_of_kind(t.id, ComponentKind::NumaNode)
                    .and_then(|n| n.name.strip_prefix("node"))
                    .and_then(|s| s.parse().ok())
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skx() -> Machine {
        Machine::preset("skx").unwrap() // 2 sockets × 22 cores × 2 SMT
    }

    #[test]
    fn compact_is_consecutive() {
        let m = skx();
        assert_eq!(PinningStrategy::Compact.assign(&m, 4), vec![0, 1, 2, 3]);
        // cpu0 and cpu1 are SMT siblings of core0.
    }

    #[test]
    fn balanced_round_robins_sockets() {
        let m = skx();
        let v = PinningStrategy::Balanced.assign(&m, 4);
        // core0@socket0, core0@socket1, core1@socket0, core1@socket1.
        assert_eq!(v, vec![0, 44, 2, 46]);
        let nodes = PinningStrategy::nodes_touched(&m, &v);
        assert_eq!(nodes, vec![0, 1]);
    }

    #[test]
    fn numa_balanced_splits_nodes_one_per_core() {
        let m = skx();
        let v = PinningStrategy::NumaBalanced.assign(&m, 4);
        assert_eq!(v, vec![0, 44, 2, 46]);
        // Beyond core counts it starts using SMT siblings within nodes.
        let many = PinningStrategy::NumaBalanced.assign(&m, 88);
        assert_eq!(many.len(), 88);
        let mut sorted = many.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 88, "no duplicates");
    }

    #[test]
    fn numa_compact_fills_node0_first() {
        let m = skx();
        let v = PinningStrategy::NumaCompact.assign(&m, 4);
        // One per core on socket 0: cpu0, cpu2, cpu4, cpu6.
        assert_eq!(v, vec![0, 2, 4, 6]);
        assert_eq!(PinningStrategy::nodes_touched(&m, &v), vec![0]);
        // 44 threads = all of node 0 (22 cores × 2 SMT).
        let all0 = PinningStrategy::NumaCompact.assign(&m, 44);
        assert_eq!(PinningStrategy::nodes_touched(&m, &all0), vec![0]);
    }

    #[test]
    fn assignments_never_exceed_machine() {
        let m = Machine::preset("icl").unwrap();
        for s in [
            PinningStrategy::Balanced,
            PinningStrategy::Compact,
            PinningStrategy::NumaBalanced,
            PinningStrategy::NumaCompact,
        ] {
            let v = s.assign(&m, 999);
            assert_eq!(v.len(), 16, "{s:?}");
            let mut sorted = v.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 16, "{s:?} produced duplicates");
        }
    }

    #[test]
    fn script_contains_affinity_and_command() {
        let m = skx();
        let s = PinningStrategy::NumaBalanced.launch_script(&m, 4, "triad -n 1048576 -t 4");
        assert!(s.contains("taskset -c 0,44,2,46 triad -n 1048576 -t 4"));
        assert!(s.contains("OMP_NUM_THREADS=4"));
        assert!(s.contains("numa_balanced"));
    }
}
