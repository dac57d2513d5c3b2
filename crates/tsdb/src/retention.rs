//! Retention policies: how long the database keeps data.
//!
//! The paper (§V-B) relies on InfluxDB's retention policy to keep
//! high-frequency sampling from overwhelming storage on small systems;
//! this module reproduces the duration-based expiry semantics.

use serde::{Deserialize, Serialize};

/// A named retention policy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetentionPolicy {
    /// Policy name (e.g. `autogen`, `two_weeks`).
    pub name: String,
    /// How long points are kept, in the same time unit as point timestamps
    /// (`None` = keep forever, like InfluxDB's `INF`).
    pub duration: Option<i64>,
}

impl RetentionPolicy {
    /// Policy that never expires data (InfluxDB's default `autogen`).
    pub(crate) fn infinite(name: impl Into<String>) -> Self {
        RetentionPolicy {
            name: name.into(),
            duration: None,
        }
    }

    /// Policy keeping `duration` time units of data.
    pub fn keep(name: impl Into<String>, duration: i64) -> Self {
        assert!(duration > 0, "retention duration must be positive");
        RetentionPolicy {
            name: name.into(),
            duration: Some(duration),
        }
    }

    /// Cutoff timestamp given the current time: points strictly older are
    /// expired. `None` when the policy keeps everything.
    pub(crate) fn cutoff(&self, now: i64) -> Option<i64> {
        self.duration.map(|d| now.saturating_sub(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_never_cuts() {
        let p = RetentionPolicy::infinite("autogen");
        assert_eq!(p.cutoff(1_000_000), None);
    }

    #[test]
    fn keep_computes_cutoff() {
        let p = RetentionPolicy::keep("short", 100);
        assert_eq!(p.cutoff(1_000), Some(900));
    }

    #[test]
    fn cutoff_saturates() {
        let p = RetentionPolicy::keep("short", 100);
        assert_eq!(p.cutoff(i64::MIN + 1), Some(i64::MIN));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_rejected() {
        let _ = RetentionPolicy::keep("bad", 0);
    }
}
