//! Deterministic measurement-noise models.
//!
//! Hardware performance counters over- and under-count nondeterministically
//! (Weaver et al., the paper's ref. 28); Fig. 4 shows the resulting
//! relative errors growing with sampling frequency. This module provides a
//! seeded noise source so those error bands reproduce exactly across runs.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Stable 64-bit FNV-1a hash for seed derivation from string labels.
pub fn stable_hash(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for b in p.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A seeded noise source tied to one (machine, event, run) context.
#[derive(Debug, Clone)]
pub struct NoiseSource {
    rng: ChaCha8Rng,
}

impl NoiseSource {
    /// Derive a noise source from contextual labels, e.g.
    /// `NoiseSource::from_labels(&["skx", "FP_ARITH", "run0"])`.
    pub fn from_labels(labels: &[&str]) -> Self {
        NoiseSource {
            rng: ChaCha8Rng::seed_from_u64(stable_hash(labels)),
        }
    }

    /// Seed directly.
    pub(crate) fn from_seed(seed: u64) -> Self {
        NoiseSource {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Standard-normal sample (Box–Muller; two uniforms per call).
    fn std_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Gaussian with mean/stddev.
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        mean + stddev * self.std_normal()
    }

    /// Multiplicative counter-noise factor around 1.0.
    ///
    /// `base_rel` is the per-read relative error scale (~0.2 % at low
    /// frequency); the effective scale grows with the square root of the
    /// sampling frequency, matching Fig. 4's widening error bands (shorter
    /// windows → fewer events per read → relatively larger jitter).
    pub fn counter_factor(&mut self, base_rel: f64, freq_hz: f64) -> f64 {
        let scale = base_rel * (freq_hz.max(1.0)).sqrt();
        (1.0 + self.normal(0.0, scale)).max(0.0)
    }

    /// Uniform sample in [0, 1).
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen_range(0.0..1.0)
    }

    /// Bernoulli event with probability `p`.
    pub fn happens(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Run-to-run runtime variance factor: kernels re-run with ~`rel` sigma
    /// (this is what makes Fig. 5's overheads occasionally *negative*).
    pub fn runtime_factor(&mut self, rel: f64) -> f64 {
        (1.0 + self.normal(0.0, rel)).max(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_stable_and_label_sensitive() {
        let a = stable_hash(&["skx", "ev"]);
        let b = stable_hash(&["skx", "ev"]);
        let c = stable_hash(&["icl", "ev"]);
        let d = stable_hash(&["skx", "ev2"]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // Concatenation ambiguity is broken by the separator byte.
        assert_ne!(stable_hash(&["ab", "c"]), stable_hash(&["a", "bc"]));
    }

    #[test]
    fn deterministic_sequences() {
        let mut n1 = NoiseSource::from_labels(&["skx", "x"]);
        let mut n2 = NoiseSource::from_labels(&["skx", "x"]);
        for _ in 0..10 {
            assert_eq!(n1.std_normal(), n2.std_normal());
        }
    }

    #[test]
    fn normal_statistics() {
        let mut n = NoiseSource::from_seed(42);
        let samples: Vec<f64> = (0..20_000).map(|_| n.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean was {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "sd was {}", var.sqrt());
    }

    #[test]
    fn counter_factor_grows_with_frequency() {
        // Average absolute deviation should widen with frequency.
        let spread = |freq: f64| {
            let mut n = NoiseSource::from_seed(7);
            (0..5000)
                .map(|_| (n.counter_factor(0.002, freq) - 1.0).abs())
                .sum::<f64>()
                / 5000.0
        };
        assert!(spread(64.0) > spread(1.0) * 2.0);
    }

    #[test]
    fn counter_factor_non_negative() {
        let mut n = NoiseSource::from_seed(1);
        for _ in 0..1000 {
            assert!(n.counter_factor(0.5, 64.0) >= 0.0);
        }
    }

    #[test]
    fn bernoulli_respects_probability() {
        let mut n = NoiseSource::from_seed(3);
        let hits = (0..10_000).filter(|_| n.happens(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
        assert!(!NoiseSource::from_seed(3).happens(0.0));
        assert!(NoiseSource::from_seed(3).happens(1.0));
    }
}
