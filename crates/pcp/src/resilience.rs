//! Opt-in resilient transport mode.
//!
//! The paper's pipeline is deliberately unbuffered (§V-A): whatever the
//! shipping path cannot absorb within a sampling window is gone, which is
//! what produces Table III. Production monitoring stacks cannot afford
//! that under real faults, so this module adds an *opt-in* resilience
//! layer on top of the same shipping path:
//!
//! * a bounded **spill buffer** with drop-oldest semantics,
//! * **retry with capped exponential backoff** and deterministic jitter,
//! * a **circuit breaker** on the DB path,
//! * **adaptive frequency degradation** under sustained loss, and
//! * **gap markers** written on recovery so queries can tell "lost"
//!   from "not sampled".
//!
//! Everything is driven by the virtual clock and the shipper's seeded
//! noise source, so resilient runs replay exactly. The default mode —
//! resilience not enabled — is bit-identical to the paper's unbuffered
//! behaviour.

/// Spill buffer bound, in field values. When full, the *oldest* spilled
/// report is evicted (counted, not silently dropped).
pub(crate) const SPILL_CAPACITY_VALUES: u64 = 4096;
/// Re-send attempts per spilled report before it is declared lost.
pub(crate) const MAX_RETRIES: u32 = 6;
/// First retry backoff (virtual seconds).
pub(crate) const BACKOFF_BASE_S: f64 = 0.25;
/// Backoff ceiling (virtual seconds).
pub(crate) const BACKOFF_CAP_S: f64 = 4.0;
/// Relative deterministic jitter applied to each backoff delay.
pub(crate) const BACKOFF_JITTER: f64 = 0.2;
/// Consecutive DB failures that open the circuit breaker.
const BREAKER_THRESHOLD: u32 = 5;
/// Time the breaker stays open before probing again (virtual seconds).
const BREAKER_COOLDOWN_S: f64 = 2.0;
/// Per-window loss percentage that counts as a "lossy" window for
/// adaptive degradation.
pub(crate) const DEGRADE_LOSS_PCT: f64 = 50.0;
/// Consecutive lossy windows before the tick stride doubles (and
/// consecutive clean windows before it halves back).
pub(crate) const DEGRADE_WINDOWS: u32 = 3;
/// Upper bound on the tick stride (1 = never skip).
pub(crate) const MAX_STRIDE: u64 = 8;

/// Circuit breaker state (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Traffic flows; failures are counted.
    Closed,
    /// DB path disabled until the cooldown elapses.
    Open,
    /// One probe request is allowed through; its outcome decides.
    HalfOpen,
}

/// Circuit breaker on the DB insert path. Opens after
/// [`BREAKER_THRESHOLD`] consecutive failures, stays open for
/// [`BREAKER_COOLDOWN_S`] of virtual time, then half-opens to probe; a
/// probe success closes it, a probe failure re-opens it.
#[derive(Debug, Clone)]
pub(crate) struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_s: f64,
    /// Closed/HalfOpen → Open transitions.
    pub opens: u64,
    /// Open/HalfOpen → Closed transitions.
    pub closes: u64,
    /// Open → HalfOpen transitions.
    pub half_opens: u64,
}

impl CircuitBreaker {
    /// New closed breaker.
    pub(crate) fn new() -> CircuitBreaker {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at_s: 0.0,
            opens: 0,
            closes: 0,
            half_opens: 0,
        }
    }

    /// Current state.
    pub(crate) fn state(&self) -> BreakerState {
        self.state
    }

    /// May a request proceed at virtual time `t`? Transitions Open →
    /// HalfOpen when the cooldown has elapsed.
    pub(crate) fn allow(&mut self, t: f64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if t - self.opened_at_s >= BREAKER_COOLDOWN_S {
                    self.state = BreakerState::HalfOpen;
                    self.half_opens += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful DB operation.
    pub(crate) fn record_success(&mut self) {
        if self.state != BreakerState::Closed {
            self.closes += 1;
        }
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Record a failed DB operation at virtual time `t`.
    pub(crate) fn record_failure(&mut self, t: f64) {
        self.consecutive_failures += 1;
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= BREAKER_THRESHOLD,
            BreakerState::Open => false,
        };
        if trip {
            self.state = BreakerState::Open;
            self.opened_at_s = t;
            self.opens += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_threshold_and_recovers() {
        let mut b = CircuitBreaker::new();
        assert_eq!(b.state(), BreakerState::Closed);
        for i in 0..4 {
            b.record_failure(f64::from(i) * 0.05);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(0.2);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens, 1);
        // Blocked during cooldown.
        assert!(!b.allow(1.0));
        // Half-opens after cooldown; probe success closes it.
        assert!(b.allow(2.3));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.half_opens, 1);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.closes, 1);
    }

    #[test]
    fn half_open_probe_failure_reopens_immediately() {
        let mut b = CircuitBreaker::new();
        for i in 0..5 {
            b.record_failure(i as f64 * 0.1);
        }
        assert!(b.allow(2.5));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A single failure in half-open trips the breaker again.
        b.record_failure(2.5);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens, 2);
        assert!(!b.allow(3.0));
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut b = CircuitBreaker::new();
        for i in 0..4 {
            b.record_failure(f64::from(i) * 0.1);
        }
        b.record_success();
        for i in 4..8 {
            b.record_failure(f64::from(i) * 0.1);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
