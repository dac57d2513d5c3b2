//! Host ↔ target link and fault schedules.
//!
//! The paper's monitoring host talks to targets over a 100 Mbit cabled
//! link; PCP ships samples over it with no buffering, so when the offered
//! load (sampling frequency × instance-domain size) exceeds what the link
//! and the DB can absorb within one sampling period, samples are lost or
//! arrive as batched zeros (Table III). [`LinkSpec`] describes that link
//! (the windowed-capacity model over it is `pmove_pcp::transport`'s);
//! [`FaultSchedule`] injects outages, degradations and brown-outs on the
//! virtual clock.

use crate::noise::NoiseSource;
use serde::{Deserialize, Serialize};

/// A point-to-point link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Bandwidth in bits/s.
    pub bandwidth_bps: f64,
    /// One-way latency in seconds.
    pub latency_s: f64,
    /// Per-message fixed protocol overhead in bytes (headers, PCP PDU).
    pub overhead_bytes: u32,
}

impl LinkSpec {
    /// The paper's 100 Mbit cabled host↔target connection.
    pub fn mbit_100() -> Self {
        LinkSpec {
            bandwidth_bps: 100e6,
            latency_s: 200e-6,
            overhead_bytes: 64,
        }
    }
}

/// What an injected fault does while its window is active.
///
/// Faults compose: overlapping windows AND their link states, multiply
/// their capacity factors, and multiply their backend availabilities, so
/// a schedule can model e.g. a brown-out during a degraded-bandwidth
/// period.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Link fully down (cable pull / switch reboot / network partition):
    /// nothing crosses the link while the window is active.
    LinkDown,
    /// Link capacity scaled by the carried factor (0 < f ≤ 1) — a
    /// saturated uplink or a lossy cable renegotiating its rate.
    BandwidthDegraded(f64),
    /// Backend (DB host) brown-out: each write is accepted only with the
    /// carried probability (0 ≤ a ≤ 1) while the window is active.
    BackendBrownout(f64),
}

/// One scheduled fault window `[start_s, end_s)` on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// Window start (virtual seconds, inclusive).
    pub start_s: f64,
    /// Window end (virtual seconds, exclusive).
    pub end_s: f64,
    /// The injected fault.
    pub kind: FaultKind,
}

/// The effective fault state at one instant, combined over all active
/// windows. [`FaultState::healthy`] is the identity: link up, full
/// capacity, backend always available.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultState {
    /// False while any [`FaultKind::LinkDown`] window is active.
    pub link_up: bool,
    /// Product of active [`FaultKind::BandwidthDegraded`] factors.
    pub capacity_factor: f64,
    /// Product of active [`FaultKind::BackendBrownout`] availabilities.
    pub backend_availability: f64,
}

impl FaultState {
    /// No fault active.
    pub fn healthy() -> FaultState {
        FaultState {
            link_up: true,
            capacity_factor: 1.0,
            backend_availability: 1.0,
        }
    }
}

/// A deterministic fault schedule: a list of windows evaluated against
/// the virtual clock. The schedule itself holds no randomness — a seeded
/// generator ([`FaultSchedule::random`]) or [`FaultSchedule::with_window`]
/// builds the window list, and consumers draw any per-event randomness (e.g.
/// brown-out write rejections) from their own seeded noise sources, so
/// every run replays exactly.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    windows: Vec<FaultWindow>,
}

impl FaultSchedule {
    /// Empty schedule — attaching it is behaviour-identical to no
    /// schedule at all.
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Append one fault window (builder style).
    pub fn with_window(mut self, start_s: f64, end_s: f64, kind: FaultKind) -> FaultSchedule {
        assert!(
            start_s.is_finite() && end_s.is_finite() && end_s >= start_s,
            "fault window must be finite and ordered"
        );
        self.windows.push(FaultWindow {
            start_s,
            end_s,
            kind,
        });
        self
    }

    /// The scheduled windows.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// End of the last scheduled window (0 when empty) — the earliest
    /// time by which the system is guaranteed fault-free again.
    pub fn last_fault_end_s(&self) -> f64 {
        self.windows.iter().map(|w| w.end_s).fold(0.0, f64::max)
    }

    /// Combined fault state at virtual time `t`.
    pub fn state_at(&self, t: f64) -> FaultState {
        let mut state = FaultState::healthy();
        for w in &self.windows {
            if t < w.start_s || t >= w.end_s {
                continue;
            }
            match w.kind {
                FaultKind::LinkDown => state.link_up = false,
                FaultKind::BandwidthDegraded(factor) => {
                    state.capacity_factor *= factor.clamp(0.0, 1.0);
                }
                FaultKind::BackendBrownout(availability) => {
                    state.backend_availability *= availability.clamp(0.0, 1.0);
                }
            }
        }
        state
    }

    /// Seed-derived random schedule over `[0, duration_s)`: 0–3 windows
    /// of random kind, position, and severity. Same seed → same schedule.
    pub fn random(seed: u64, duration_s: f64) -> FaultSchedule {
        let mut noise = NoiseSource::from_seed(seed ^ 0x5EED_FA17_0000_0001);
        let n = (noise.uniform() * 4.0) as usize; // 0..=3
        let mut s = FaultSchedule::none();
        for _ in 0..n {
            let start = noise.uniform() * duration_s;
            let len = noise.uniform() * duration_s * 0.5;
            let end = (start + len).min(duration_s);
            let kind = match (noise.uniform() * 3.0) as u32 {
                0 => FaultKind::LinkDown,
                1 => FaultKind::BandwidthDegraded(0.05 + 0.75 * noise.uniform()),
                _ => FaultKind::BackendBrownout(0.7 * noise.uniform()),
            };
            s = s.with_window(start, end, kind);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_healthy_everywhere() {
        let s = FaultSchedule::none();
        assert!(s.windows().is_empty());
        assert_eq!(s.last_fault_end_s(), 0.0);
        for t in [0.0, 1.5, 1e6] {
            assert_eq!(s.state_at(t), FaultState::healthy());
        }
    }

    #[test]
    fn windows_are_half_open_and_compose() {
        let s = FaultSchedule::none()
            .with_window(1.0, 2.0, FaultKind::LinkDown)
            .with_window(1.5, 3.0, FaultKind::BandwidthDegraded(0.5))
            .with_window(1.5, 3.0, FaultKind::BackendBrownout(0.4));
        assert_eq!(s.state_at(0.99), FaultState::healthy());
        let at1 = s.state_at(1.0);
        assert!(!at1.link_up);
        assert_eq!(at1.capacity_factor, 1.0);
        // Overlap: link still down, capacity halved, backend browned out.
        let mid = s.state_at(1.75);
        assert!(!mid.link_up);
        assert_eq!(mid.capacity_factor, 0.5);
        assert_eq!(mid.backend_availability, 0.4);
        // Window end is exclusive.
        let at2 = s.state_at(2.0);
        assert!(at2.link_up);
        assert_eq!(at2.capacity_factor, 0.5);
        assert_eq!(s.state_at(3.0), FaultState::healthy());
        assert_eq!(s.last_fault_end_s(), 3.0);
    }

    #[test]
    fn random_schedules_are_seed_deterministic_and_bounded() {
        for seed in 0..50u64 {
            let a = FaultSchedule::random(seed, 20.0);
            let b = FaultSchedule::random(seed, 20.0);
            assert_eq!(a, b);
            for w in a.windows() {
                assert!(w.start_s >= 0.0 && w.end_s <= 20.0 && w.end_s >= w.start_s);
                match w.kind {
                    FaultKind::BandwidthDegraded(factor) => {
                        assert!(factor > 0.0 && factor <= 0.8)
                    }
                    FaultKind::BackendBrownout(availability) => {
                        assert!((0.0..0.7).contains(&availability))
                    }
                    FaultKind::LinkDown => {}
                }
            }
        }
        assert_ne!(
            FaultSchedule::random(1, 20.0),
            FaultSchedule::random(2, 20.0)
        );
    }

    #[test]
    fn schedule_serializes_round_trip() {
        let s = FaultSchedule::random(9, 10.0);
        let j = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&j).unwrap();
        assert_eq!(back, s);
    }
}
