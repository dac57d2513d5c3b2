//! Deterministic observation identifiers.
//!
//! The paper tags every observation with a UUID (`278e26c2-3fd3-...`) that
//! links KB entries to their time-series data. For reproducibility the
//! simulator derives UUID-shaped ids deterministically from contextual
//! labels and a per-daemon counter.

use pmove_hwsim::noise::stable_hash;

/// Generate a UUID-shaped id from labels (stable across runs).
pub(crate) fn observation_id(labels: &[&str]) -> String {
    let h1 = stable_hash(labels);
    let h2 = stable_hash(&[&h1.to_string(), "second-half"]);
    format!(
        "{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
        (h1 >> 32) as u32,
        (h1 >> 16) as u16,
        h1 as u16,
        (h2 >> 48) as u16,
        h2 & 0xffff_ffff_ffff
    )
}

/// A counter-based id factory for one daemon session.
#[derive(Debug, Default)]
pub struct IdFactory {
    prefix: String,
    counter: u64,
}

impl IdFactory {
    /// Factory whose ids derive from a session prefix (machine key etc.).
    pub(crate) fn new(prefix: impl Into<String>) -> Self {
        IdFactory {
            prefix: prefix.into(),
            counter: 0,
        }
    }

    /// Next id.
    pub(crate) fn next_id(&mut self) -> String {
        let id = observation_id(&[&self.prefix, &self.counter.to_string()]);
        self.counter += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uuid_shape() {
        let id = observation_id(&["csl", "spmv", "0"]);
        let parts: Vec<&str> = id.split('-').collect();
        assert_eq!(parts.len(), 5);
        assert_eq!(parts[0].len(), 8);
        assert_eq!(parts[1].len(), 4);
        assert_eq!(parts[2].len(), 4);
        assert_eq!(parts[3].len(), 4);
        assert_eq!(parts[4].len(), 12);
    }

    #[test]
    fn deterministic_but_distinct() {
        assert_eq!(observation_id(&["a"]), observation_id(&["a"]));
        assert_ne!(observation_id(&["a"]), observation_id(&["b"]));
        let mut f = IdFactory::new("csl");
        let a = f.next_id();
        let b = f.next_id();
        assert_ne!(a, b);
        let mut g = IdFactory::new("csl");
        assert_eq!(g.next_id(), a);
    }
}
