//! Per-tenant token bucket on the virtual clock.
//!
//! All arithmetic is integer (`u128` intermediates), so refill is exact
//! and bit-identical across runs: `elapsed_ns * rate` accumulates into a
//! nanosecond-scaled credit and converts to whole tokens without drift.
//! Admission *reserves* a token — a rate-limited request is admitted and
//! parked until the deterministic instant its token exists.

/// Nanoseconds per virtual second.
const NS_PER_S: u128 = 1_000_000_000;

/// A token bucket: `burst` capacity, `rate_per_s` refill, virtual-clock
/// driven.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    rate_per_s: u64,
    burst: u64,
    /// Whole tokens currently available.
    tokens: u64,
    /// Partial-token credit, scaled by `NS_PER_S` (credit of `NS_PER_S`
    /// equals one token's worth of refill progress).
    credit: u128,
    /// Virtual time of the last refill.
    last_ns: u64,
}

impl TokenBucket {
    /// Full bucket at virtual time 0.
    pub(crate) fn new(rate_per_s: u64, burst: u64) -> TokenBucket {
        debug_assert!(rate_per_s > 0 && burst > 0, "validated by ServingConfig");
        TokenBucket {
            rate_per_s,
            burst,
            tokens: burst,
            credit: 0,
            last_ns: 0,
        }
    }

    /// Advance the bucket to `now_ns`, converting accumulated credit into
    /// whole tokens. A full bucket discards credit (no banking beyond the
    /// burst).
    pub(crate) fn refill(&mut self, now_ns: u64) {
        if now_ns <= self.last_ns {
            return;
        }
        let elapsed = u128::from(now_ns - self.last_ns);
        self.last_ns = now_ns;
        if self.tokens == self.burst {
            // A full bucket accrues nothing over the interval; stale
            // fractional credit from before it filled is dropped too.
            self.credit = 0;
            return;
        }
        self.credit += elapsed * u128::from(self.rate_per_s);
        let earned = (self.credit / NS_PER_S) as u64;
        self.credit %= NS_PER_S;
        let total = self.tokens.saturating_add(earned);
        if total >= self.burst {
            self.tokens = self.burst;
            if total > self.burst {
                // Genuine overflow: refill progress beyond the burst cap
                // is discarded, fraction included.
                self.credit = 0;
            }
        } else {
            self.tokens = total;
        }
    }

    /// Take one token at `now_ns` if available (the tests' oracle for
    /// refill arithmetic).
    #[cfg(test)]
    fn try_take(&mut self, now_ns: u64) -> bool {
        self.refill(now_ns);
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }

    /// Reserve the *next* token: returns the virtual instant at which the
    /// reservation is covered. If a token is available now that is
    /// `now_ns`; otherwise the deterministic future time the refill
    /// produces one. The reservation debits the bucket immediately, so
    /// consecutive reservations space out at the refill rate.
    pub(crate) fn reserve(&mut self, now_ns: u64) -> u64 {
        self.refill(now_ns);
        if self.tokens > 0 {
            self.tokens -= 1;
            return now_ns;
        }
        // Earlier reservations may already have pushed the refill point
        // past `now`; the next token is earned from wherever it stands.
        let base = self.last_ns.max(now_ns);
        // Time until credit reaches one full token.
        let missing = NS_PER_S - self.credit;
        let rate = u128::from(self.rate_per_s);
        let wait = missing.div_ceil(rate) as u64;
        let at = base + wait;
        // Consume the token being earned: move the refill point forward
        // and drop the earned token.
        self.credit = self.credit + u128::from(wait) * rate - NS_PER_S;
        self.last_ns = at;
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_refill() {
        let mut b = TokenBucket::new(10, 3); // 10 tokens/s, burst 3
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(!b.try_take(0));
        // 100 ms refills exactly one token at 10/s.
        assert!(!b.try_take(99_999_999));
        assert!(b.try_take(100_000_000));
        assert!(!b.try_take(100_000_000));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(1_000, 2);
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        b.refill(10_000_000_000);
        assert_eq!(b.tokens, 2);
    }

    #[test]
    fn reserve_spaces_at_rate() {
        let mut b = TokenBucket::new(10, 1); // one token per 100 ms
        assert_eq!(b.reserve(0), 0); // the burst token
        assert_eq!(b.reserve(0), 100_000_000);
        assert_eq!(b.reserve(0), 200_000_000);
        assert_eq!(b.reserve(0), 300_000_000);
        // A reservation made later than the backlog still waits its turn.
        assert_eq!(b.reserve(250_000_000), 400_000_000);
    }

    #[test]
    fn refill_has_no_drift() {
        // 3 tokens/s: the per-token period 333_333_333.33..ns is not a
        // whole number; integer credit must not lose the fraction.
        let mut b = TokenBucket::new(3, 1);
        assert!(b.try_take(0));
        let mut granted = 0u64;
        for ms in 1..=10_000 {
            if b.try_take(ms * 1_000_000) {
                granted += 1;
            }
        }
        // 10 s at 3 tokens/s = 30 tokens, exact.
        assert_eq!(granted, 30);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut b = TokenBucket::new(7, 5);
            let mut log = Vec::new();
            for i in 0..200u64 {
                let t = i * 37_000_000;
                log.push((b.try_take(t), b.reserve(t)));
            }
            log
        };
        assert_eq!(run(), run());
    }
}
