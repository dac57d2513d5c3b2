//! Host ↔ target network link model.
//!
//! The paper's monitoring host talks to targets over a 100 Mbit cabled
//! link; PCP ships samples over it with no buffering, so when the offered
//! load (sampling frequency × instance-domain size) exceeds what the link
//! and the DB can absorb within one sampling period, samples are lost or
//! arrive as batched zeros (Table III). This model captures exactly that
//! windowed-capacity behaviour, deterministically.

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

    /// Time to transfer a message of `bytes` payload.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.latency_s + (bytes + self.overhead_bytes as usize) as f64 * 8.0 / self.bandwidth_bps
    }
}

/// Outcome of offering one message to the congested link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Delivered within the sampling window.
    Delivered,
    /// Lost: the link/receiver had no capacity left in this window.
    Lost,
    /// Delivered but the sampler had already moved on — the receiver sees
    /// a batched zero value instead of the true reading (the paper's
    /// "batched zeros" artefact at high frequency).
    DeliveredZero,
}

/// A link with windowed congestion behaviour.
///
/// Within each window of `window_s` seconds the link can carry a limited
/// number of payload bytes. Offers beyond ~100 % capacity are lost; offers
/// landing between the *stall threshold* (75 %) and full capacity are
/// delivered late and therefore read as zeros. Small deterministic jitter
/// makes per-window outcomes vary like the real measurements do.
#[derive(Debug)]
pub struct CongestedLink {
    spec: LinkSpec,
    window_s: f64,
    current_window: i64,
    bytes_in_window: f64,
    noise: NoiseSource,
    delivered: u64,
    lost: u64,
    zeroed: u64,
}

impl CongestedLink {
    /// New link with congestion windows of `window_s` seconds.
    pub fn new(spec: LinkSpec, window_s: f64, seed_labels: &[&str]) -> Self {
        assert!(window_s > 0.0, "window must be positive");
        CongestedLink {
            spec,
            window_s,
            current_window: i64::MIN,
            bytes_in_window: 0.0,
            noise: NoiseSource::from_labels(seed_labels),
            delivered: 0,
            lost: 0,
            zeroed: 0,
        }
    }

    /// The underlying link spec.
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// Capacity of one window in payload bytes. The factor models the
    /// effective goodput of small telemetry PDUs (~12 % of line rate),
    /// which is what lets 88-field reports at 32 Hz overrun a 100 Mbit
    /// link's per-window service capability like Table III shows.
    pub fn window_capacity_bytes(&self) -> f64 {
        self.spec.bandwidth_bps / 8.0 * self.window_s * 0.12
    }

    /// Offer a message of `bytes` at time `t`; returns the outcome.
    pub fn offer(&mut self, t: f64, bytes: usize) -> SendOutcome {
        let w = (t / self.window_s).floor() as i64;
        if w != self.current_window {
            self.current_window = w;
            self.bytes_in_window = 0.0;
        }
        let msg = (bytes + self.spec.overhead_bytes as usize) as f64;
        self.bytes_in_window += msg;
        let cap = self.window_capacity_bytes() * (1.0 + self.noise.normal(0.0, 0.05));
        let utilization = self.bytes_in_window / cap;
        let outcome = if utilization > 1.0 {
            SendOutcome::Lost
        } else if utilization > 0.75 {
            SendOutcome::DeliveredZero
        } else {
            SendOutcome::Delivered
        };
        match outcome {
            SendOutcome::Delivered => self.delivered += 1,
            SendOutcome::Lost => self.lost += 1,
            SendOutcome::DeliveredZero => self.zeroed += 1,
        }
        outcome
    }

    /// Messages delivered (with true values).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages lost.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Messages delivered as batched zeros.
    pub fn zeroed(&self) -> u64 {
        self.zeroed
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

    /// True when this state is indistinguishable from a healthy system.
    pub fn is_healthy(&self) -> bool {
        self.link_up && self.capacity_factor >= 1.0 && self.backend_availability >= 1.0
    }
}

/// A deterministic fault schedule: a list of windows evaluated against
/// the virtual clock. The schedule itself holds no randomness — a seeded
/// generator ([`FaultSchedule::random`]) and canned scenarios build the
/// window lists, and consumers draw any per-event randomness (e.g.
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

    /// True when no window is scheduled.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
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

    /// Canned scenario: the link flaps — down for `down_s` out of every
    /// `period_s`, repeating over `[0, duration_s)`.
    pub fn link_flaps(period_s: f64, down_s: f64, duration_s: f64) -> FaultSchedule {
        assert!(period_s > 0.0 && down_s > 0.0 && down_s <= period_s);
        let mut s = FaultSchedule::none();
        let mut t = period_s - down_s;
        while t < duration_s {
            s = s.with_window(t, (t + down_s).min(duration_s), FaultKind::LinkDown);
            t += period_s;
        }
        s
    }

    /// Canned scenario: one backend brown-out in the middle third of the
    /// run, accepting writes with probability `availability`.
    pub fn midrun_brownout(duration_s: f64, availability: f64) -> FaultSchedule {
        FaultSchedule::none().with_window(
            duration_s / 3.0,
            2.0 * duration_s / 3.0,
            FaultKind::BackendBrownout(availability),
        )
    }

    /// Canned scenario: sustained bandwidth degradation over the middle
    /// half of the run.
    pub fn midrun_degraded(duration_s: f64, factor: f64) -> FaultSchedule {
        FaultSchedule::none().with_window(
            duration_s / 4.0,
            3.0 * duration_s / 4.0,
            FaultKind::BandwidthDegraded(factor),
        )
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

    /// Seed-derived *per-replica* schedules: `n` independent random
    /// schedules over `[0, duration_s)`, each deterministically derived
    /// from `seed` and the replica index, so a replicated store can give
    /// every node its own uncorrelated fault history. Same seed → same set.
    pub fn random_set(seed: u64, duration_s: f64, n: usize) -> Vec<FaultSchedule> {
        (0..n)
            .map(|i| {
                FaultSchedule::random(
                    seed ^ (i as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f),
                    duration_s,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_includes_latency_and_overhead() {
        let l = LinkSpec::mbit_100();
        let t = l.transfer_time(1000);
        // 1064 bytes at 100 Mbit = 85.1 µs + 200 µs latency.
        assert!((t - (200e-6 + 1064.0 * 8.0 / 100e6)).abs() < 1e-9);
    }

    #[test]
    fn light_load_all_delivered() {
        let mut link = CongestedLink::new(LinkSpec::mbit_100(), 0.5, &["t1"]);
        for i in 0..100 {
            let out = link.offer(i as f64 * 0.5, 200);
            assert_eq!(out, SendOutcome::Delivered);
        }
        assert_eq!(link.delivered(), 100);
        assert_eq!(link.lost(), 0);
    }

    #[test]
    fn overload_loses_messages() {
        let mut link = CongestedLink::new(LinkSpec::mbit_100(), 0.03125, &["t2"]);
        // Fire a burst of large reports into a single window.
        let mut lost = 0;
        for _ in 0..2000 {
            if link.offer(0.0, 2000) == SendOutcome::Lost {
                lost += 1;
            }
        }
        assert!(lost > 1000, "lost {lost}");
        assert!(link.zeroed() > 0);
    }

    #[test]
    fn window_rollover_resets_capacity() {
        let mut link = CongestedLink::new(LinkSpec::mbit_100(), 0.1, &["t3"]);
        // Saturate window 0.
        for _ in 0..5000 {
            link.offer(0.05, 1500);
        }
        assert!(link.lost() > 0);
        // A fresh window delivers again.
        assert_eq!(link.offer(0.15, 200), SendOutcome::Delivered);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut link = CongestedLink::new(LinkSpec::mbit_100(), 0.03125, &["same"]);
            (0..500)
                .map(|i| link.offer(i as f64 * 0.001, 1200) as u8)
                .collect::<Vec<u8>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_schedule_is_healthy_everywhere() {
        let s = FaultSchedule::none();
        assert!(s.is_empty());
        assert_eq!(s.last_fault_end_s(), 0.0);
        for t in [0.0, 1.5, 1e6] {
            assert!(s.state_at(t).is_healthy());
        }
    }

    #[test]
    fn windows_are_half_open_and_compose() {
        let s = FaultSchedule::none()
            .with_window(1.0, 2.0, FaultKind::LinkDown)
            .with_window(1.5, 3.0, FaultKind::BandwidthDegraded(0.5))
            .with_window(1.5, 3.0, FaultKind::BackendBrownout(0.4));
        assert!(s.state_at(0.99).is_healthy());
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
        assert!(s.state_at(3.0).is_healthy());
        assert_eq!(s.last_fault_end_s(), 3.0);
    }

    #[test]
    fn link_flaps_cover_the_run_periodically() {
        let s = FaultSchedule::link_flaps(10.0, 2.0, 30.0);
        assert_eq!(s.windows().len(), 3);
        assert!(s.state_at(7.0).link_up);
        assert!(!s.state_at(8.5).link_up);
        assert!(s.state_at(10.5).link_up);
        assert!(!s.state_at(19.0).link_up);
    }

    #[test]
    fn canned_midrun_scenarios_hit_the_middle() {
        let b = FaultSchedule::midrun_brownout(30.0, 0.2);
        assert!(b.state_at(5.0).is_healthy());
        assert_eq!(b.state_at(15.0).backend_availability, 0.2);
        let d = FaultSchedule::midrun_degraded(40.0, 0.3);
        assert!(d.state_at(5.0).is_healthy());
        assert_eq!(d.state_at(20.0).capacity_factor, 0.3);
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
    fn random_set_is_deterministic_and_per_replica() {
        let a = FaultSchedule::random_set(11, 30.0, 3);
        let b = FaultSchedule::random_set(11, 30.0, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // Replica schedules are mutually independent draws.
        assert!(a[0] != a[1] || a[1] != a[2] || a[0].is_empty());
    }

    #[test]
    fn schedule_serializes_round_trip() {
        let s = FaultSchedule::random(9, 10.0);
        let j = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&j).unwrap();
        assert_eq!(back, s);
    }
}
