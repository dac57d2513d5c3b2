//! Config-file parsing and the layered PMU → generic-event registry.

use crate::abstraction::expr::Formula;
use crate::error::PmoveError;
use std::collections::BTreeMap;

/// The mapping table of one PMU.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PmuConfig {
    /// Canonical PMU name (`skx`).
    pub(crate) pmu_name: String,
    /// Optional alias (`[skx | skylakex]`).
    pub(crate) alias: Option<String>,
    /// Generic event → formula.
    pub(crate) mappings: BTreeMap<String, Formula>,
}

impl PmuConfig {
    /// Formula for a generic event.
    pub(crate) fn get(&self, generic: &str) -> Option<&Formula> {
        self.mappings.get(generic)
    }
}

/// The abstraction layer: every registered PMU config.
#[derive(Debug, Clone, Default)]
pub struct AbstractionLayer {
    configs: Vec<PmuConfig>,
}

impl AbstractionLayer {
    /// Empty layer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Parse one or more `[pmu | alias]` sections from config text and
    /// register them. Returns how many sections were added. The text is
    /// registered whole or not at all: on any bad line the layer is left
    /// as it was.
    ///
    /// Grammar (paper §IV-A):
    /// ```text
    /// [pmu_name | alias]
    /// <generic_event>:<hw_event> [(+|-|*|/) (<hw_event>|<const>)]...
    /// ```
    /// Blank lines and `#` comments are ignored.
    pub fn register_config(&mut self, text: &str) -> Result<usize, PmoveError> {
        let mut sections: Vec<PmuConfig> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let mut parts = header.splitn(2, '|');
                let pmu_name = parts.next().unwrap_or("").trim().to_string();
                if pmu_name.is_empty() {
                    return Err(PmoveError::BadEventConfig(format!(
                        "empty pmu name at line {}",
                        lineno + 1
                    )));
                }
                let alias = parts
                    .next()
                    .map(|a| a.trim().to_string())
                    .filter(|a| !a.is_empty());
                sections.push(PmuConfig {
                    pmu_name,
                    alias,
                    mappings: BTreeMap::new(),
                });
                continue;
            }
            let Some(cfg) = sections.last_mut() else {
                return Err(PmoveError::BadEventConfig(format!(
                    "mapping before any [pmu] header at line {}",
                    lineno + 1
                )));
            };
            // generic:formula — split at the FIRST ':' (hw event names
            // contain ':' themselves).
            let (generic, rhs) = line.split_once(':').ok_or_else(|| {
                PmoveError::BadEventConfig(format!("missing ':' at line {}", lineno + 1))
            })?;
            let generic = generic.trim();
            if generic.is_empty() {
                return Err(PmoveError::BadEventConfig(format!(
                    "empty generic event at line {}",
                    lineno + 1
                )));
            }
            let formula = Formula::parse(rhs.trim())?;
            cfg.mappings.insert(generic.to_string(), formula);
        }
        let added = sections.len();
        for cfg in sections {
            self.upsert(cfg);
        }
        Ok(added)
    }

    fn upsert(&mut self, cfg: PmuConfig) {
        if let Some(existing) = self.configs.iter_mut().find(|c| c.pmu_name == cfg.pmu_name) {
            // Later registrations extend/override earlier mappings.
            for (k, v) in cfg.mappings {
                existing.mappings.insert(k, v);
            }
            if cfg.alias.is_some() {
                existing.alias = cfg.alias;
            }
        } else {
            self.configs.push(cfg);
        }
    }

    /// Look up a PMU by name or alias.
    pub(crate) fn pmu(&self, name: &str) -> Option<&PmuConfig> {
        self.configs
            .iter()
            .find(|c| c.pmu_name == name || c.alias.as_deref() == Some(name))
    }

    /// Formula for `(pmu, generic_event)`.
    pub fn formula(&self, pmu: &str, generic: &str) -> Result<&Formula, PmoveError> {
        self.pmu(pmu)
            .and_then(|c| c.get(generic))
            .ok_or_else(|| PmoveError::UnmappedEvent {
                pmu: pmu.into(),
                event: generic.into(),
            })
    }

    /// Hardware events a generic event needs on a PMU — what Scenario B
    /// programs into the counter bank.
    pub fn required_hw_events(&self, pmu: &str, generic: &str) -> Result<Vec<String>, PmoveError> {
        Ok(self
            .formula(pmu, generic)?
            .events()
            .into_iter()
            .map(str::to_string)
            .collect())
    }

    /// Evaluate a generic event from hardware readings.
    pub(crate) fn evaluate<F>(
        &self,
        pmu: &str,
        generic: &str,
        resolve: F,
    ) -> Result<f64, PmoveError>
    where
        F: FnMut(&str) -> Option<f64>,
    {
        self.formula(pmu, generic)?.eval(resolve)
    }

    /// Check that a PMU config defines every common event; returns the
    /// missing ones.
    pub fn missing_common_events(&self, pmu: &str) -> Vec<String> {
        let Some(cfg) = self.pmu(pmu) else {
            return crate::abstraction::events::COMMON_EVENTS
                .iter()
                .map(|s| s.to_string())
                .collect();
        };
        crate::abstraction::events::COMMON_EVENTS
            .iter()
            .filter(|e| !cfg.mappings.contains_key(**e))
            .map(|s| s.to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# Intel Skylake mappings
[skl | skylake]
TOTAL_MEMORY_OPERATIONS: MEM_INST_RETIRED:ALL_LOADS + MEM_INST_RETIRED:ALL_STORES
AVX512_DP_FLOPS: FP_ARITH:512B_PACKED_DOUBLE * 8

[toy]
CPU_CYCLES: CYCLES
";

    #[test]
    fn parses_sections_and_aliases() {
        let mut layer = AbstractionLayer::new();
        assert_eq!(layer.register_config(SAMPLE).unwrap(), 2);
        assert_eq!(layer.configs.len(), 2);
        assert!(layer.pmu("skl").is_some() && layer.pmu("toy").is_some());
        assert!(layer.pmu("skylake").is_some()); // alias lookup
        assert!(layer.pmu("nope").is_none());
    }

    #[test]
    fn paper_example_lookup() {
        let mut layer = AbstractionLayer::new();
        layer.register_config(SAMPLE).unwrap();
        // pmu_utils.get("skl", "TOTAL_MEMORY_OPERATIONS") from §IV-A.
        let f = layer.formula("skl", "TOTAL_MEMORY_OPERATIONS").unwrap();
        assert_eq!(
            f.to_string(),
            "MEM_INST_RETIRED:ALL_LOADS + MEM_INST_RETIRED:ALL_STORES"
        );
        assert_eq!(
            layer
                .required_hw_events("skl", "TOTAL_MEMORY_OPERATIONS")
                .unwrap(),
            vec![
                "MEM_INST_RETIRED:ALL_LOADS".to_string(),
                "MEM_INST_RETIRED:ALL_STORES".to_string()
            ]
        );
    }

    #[test]
    fn evaluation_through_resolver() {
        let mut layer = AbstractionLayer::new();
        layer.register_config(SAMPLE).unwrap();
        let v = layer
            .evaluate("skl", "AVX512_DP_FLOPS", |e| {
                (e == "FP_ARITH:512B_PACKED_DOUBLE").then_some(100.0)
            })
            .unwrap();
        assert_eq!(v, 800.0);
    }

    #[test]
    fn unmapped_event_errors() {
        let mut layer = AbstractionLayer::new();
        layer.register_config(SAMPLE).unwrap();
        assert!(matches!(
            layer.formula("skl", "MYSTERY"),
            Err(PmoveError::UnmappedEvent { .. })
        ));
        assert!(layer.formula("ghostpmu", "CPU_CYCLES").is_err());
    }

    #[test]
    fn later_registration_extends() {
        let mut layer = AbstractionLayer::new();
        layer.register_config("[skl]\nA: X\n").unwrap();
        layer.register_config("[skl]\nB: Y\nA: Z\n").unwrap();
        assert_eq!(layer.formula("skl", "B").unwrap().to_string(), "Y");
        assert_eq!(layer.formula("skl", "A").unwrap().to_string(), "Z");
        assert_eq!(layer.configs.len(), 1);
    }

    #[test]
    fn malformed_configs_rejected() {
        let mut layer = AbstractionLayer::new();
        assert!(layer.register_config("A: X\n").is_err()); // no header
        assert!(layer.register_config("[p]\nnocolon\n").is_err());
        assert!(layer.register_config("[]\n").is_err());
        assert!(layer.register_config("[p]\nA: X +\n").is_err());
    }

    #[test]
    fn rejected_config_registers_nothing() {
        let mut layer = AbstractionLayer::new();
        layer.register_config("[aa]\nX: E1\n").unwrap();
        // A bad line after a good section: the good section is not applied.
        assert!(layer.register_config("[aa]\nX: E2\n[bb]\nY E\n").is_err());
        assert_eq!(layer.formula("aa", "X").unwrap().to_string(), "E1");
        assert!(layer.pmu("bb").is_none());
        assert_eq!(layer.configs.len(), 1);
    }

    #[test]
    fn common_event_coverage_check() {
        let mut layer = AbstractionLayer::new();
        layer.register_config("[p]\nCPU_CYCLES: C\n").unwrap();
        let missing = layer.missing_common_events("p");
        assert!(!missing.contains(&"CPU_CYCLES".to_string()));
        assert!(missing.contains(&"RAPL_ENERGY_PKG".to_string()));
        assert_eq!(
            layer.missing_common_events("ghost").len(),
            crate::abstraction::events::COMMON_EVENTS.len()
        );
    }
}
