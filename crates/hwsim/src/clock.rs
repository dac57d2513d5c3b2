//! Virtual time and the Time Stamp Counter.
//!
//! The CARM microbenchmarks (paper §IV-B) measure cycles with the TSC;
//! in the simulator the TSC is derived from a virtual clock advancing in
//! nanoseconds, so every experiment is deterministic and independent of
//! wall-clock time.

/// A virtual clock with nanosecond resolution.
#[derive(Debug, Clone)]
pub struct VirtualClock {
    now_ns: i64,
    tsc_hz: f64,
}

impl VirtualClock {
    /// New clock at t=0 with the given TSC frequency (Hz).
    fn new(tsc_hz: f64) -> Self {
        assert!(tsc_hz > 0.0, "TSC frequency must be positive");
        VirtualClock { now_ns: 0, tsc_hz }
    }

    /// Clock for a machine running at `freq_ghz` (TSC ticks at base clock).
    pub fn for_freq_ghz(freq_ghz: f64) -> Self {
        Self::new(freq_ghz * 1e9)
    }

    /// Current time in seconds.
    fn now_secs(&self) -> f64 {
        self.now_ns as f64 / 1e9
    }

    /// Read the TSC: cycles elapsed since t=0.
    pub fn rdtsc(&self) -> u64 {
        (self.now_secs() * self.tsc_hz) as u64
    }

    /// Advance by (fractional) seconds.
    pub fn advance_secs(&mut self, s: f64) {
        assert!(s >= 0.0, "time cannot go backwards");
        self.now_ns += (s * 1e9).round() as i64;
    }

    /// Convert a cycle count to seconds at this TSC rate.
    pub fn cycles_to_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / self.tsc_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_and_reads() {
        let mut c = VirtualClock::for_freq_ghz(2.0);
        assert_eq!(c.now_secs(), 0.0);
        c.advance_secs(1.5);
        assert_eq!(c.now_secs(), 1.5);
        assert_eq!(c.rdtsc(), 3_000_000_000);
        c.advance_secs(0.5);
        assert_eq!(c.now_secs(), 2.0);
    }

    #[test]
    fn cycle_conversion() {
        let c = VirtualClock::for_freq_ghz(2.7);
        assert!((c.cycles_to_secs(2_700_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn no_time_travel() {
        VirtualClock::new(1e9).advance_secs(-1e-9);
    }
}
