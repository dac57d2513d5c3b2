//! Streaming aggregators used by queries and by the SUPERDB
//! `AGGObservationInterface` summaries (min/max/mean/... per the paper §III-E).

use serde::{Deserialize, Serialize};

/// Supported aggregation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggregateFn {
    /// Smallest value.
    Min,
    /// Largest value.
    Max,
    /// Arithmetic mean.
    Mean,
    /// Sum of values.
    Sum,
    /// Number of values.
    Count,
    /// Population standard deviation.
    Stddev,
    /// First value in time order.
    First,
    /// Last value in time order.
    Last,
    /// Median (50th percentile, linear interpolation).
    Median,
}

impl AggregateFn {
    /// Parse from the InfluxQL function name (case-insensitive).
    pub(crate) fn parse(name: &str) -> Option<Self> {
        Some(match name.to_ascii_lowercase().as_str() {
            "min" => AggregateFn::Min,
            "max" => AggregateFn::Max,
            "mean" | "avg" => AggregateFn::Mean,
            "sum" => AggregateFn::Sum,
            "count" => AggregateFn::Count,
            "stddev" => AggregateFn::Stddev,
            "first" => AggregateFn::First,
            "last" => AggregateFn::Last,
            "median" => AggregateFn::Median,
            _ => return None,
        })
    }

    /// Lower-case function name.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            AggregateFn::Min => "min",
            AggregateFn::Max => "max",
            AggregateFn::Mean => "mean",
            AggregateFn::Sum => "sum",
            AggregateFn::Count => "count",
            AggregateFn::Stddev => "stddev",
            AggregateFn::First => "first",
            AggregateFn::Last => "last",
            AggregateFn::Median => "median",
        }
    }
}

/// Incremental accumulator for one aggregate over one column.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggregateFn,
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
    first: Option<f64>,
    last: Option<f64>,
    // Median needs the values; only collected when the function requires it.
    values: Vec<f64>,
}

impl Accumulator {
    /// New accumulator for `func`.
    pub fn new(func: AggregateFn) -> Self {
        Accumulator {
            func,
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            first: None,
            last: None,
            values: Vec::new(),
        }
    }

    /// Feed one value (callers feed in time order).
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        if self.first.is_none() {
            self.first = Some(v);
        }
        self.last = Some(v);
        if self.func == AggregateFn::Median {
            self.values.push(v);
        }
    }

    /// Final value, `None` when no inputs were seen (matching SQL NULL
    /// semantics; `count` still yields 0).
    pub fn finish(&self) -> Option<f64> {
        if self.count == 0 {
            return match self.func {
                AggregateFn::Count => Some(0.0),
                _ => None,
            };
        }
        Some(match self.func {
            AggregateFn::Min => self.min,
            AggregateFn::Max => self.max,
            AggregateFn::Mean => self.sum / self.count as f64,
            AggregateFn::Sum => self.sum,
            AggregateFn::Count => self.count as f64,
            AggregateFn::Stddev => {
                let mean = self.sum / self.count as f64;
                (self.sum_sq / self.count as f64 - mean * mean)
                    .max(0.0)
                    .sqrt()
            }
            AggregateFn::First => self.first.expect("count > 0"),
            AggregateFn::Last => self.last.expect("count > 0"),
            AggregateFn::Median => percentile(&mut self.values.clone(), 50.0),
        })
    }
}

/// Linear-interpolation percentile of an unsorted slice; `p` in [0, 100].
///
/// Values are ordered by [`f64::total_cmp`], so a stored NaN has a place:
/// above `+inf` (below `-inf` when its sign bit is set). The answer is
/// the same on every run and in every execution mode, and is NaN only
/// when the interpolation touches a NaN.
pub(crate) fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    values.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0);
    if values.len() == 1 {
        return values[0];
    }
    let rank = p / 100.0 * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        values[lo]
    } else {
        let w = rank - lo as f64;
        values[lo] * (1.0 - w) + values[hi] * w
    }
}

/// Convenience: run one aggregate over a slice.
pub(crate) fn aggregate(func: AggregateFn, values: &[f64]) -> Option<f64> {
    let mut acc = Accumulator::new(func);
    for &v in values {
        acc.push(v);
    }
    acc.finish()
}

/// Statistical summary bundle used by `AGGObservationInterface` (paper
/// §III-E summarizes high-volume series as min/max/mean/etc.).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples summarized.
    pub count: u64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Mean of samples.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Sum of samples.
    pub sum: f64,
}

impl Summary {
    /// Summarize a non-empty slice; returns `None` if empty.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        Some(Summary {
            count: values.len() as u64,
            min: aggregate(AggregateFn::Min, values).expect("non-empty"),
            max: aggregate(AggregateFn::Max, values).expect("non-empty"),
            mean: aggregate(AggregateFn::Mean, values).expect("non-empty"),
            stddev: aggregate(AggregateFn::Stddev, values).expect("non-empty"),
            sum: aggregate(AggregateFn::Sum, values).expect("non-empty"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATA: [f64; 5] = [2.0, 4.0, 4.0, 4.0, 6.0];

    #[test]
    fn parse_names() {
        assert_eq!(AggregateFn::parse("MEAN"), Some(AggregateFn::Mean));
        assert_eq!(AggregateFn::parse("avg"), Some(AggregateFn::Mean));
        assert_eq!(AggregateFn::parse("nope"), None);
        assert_eq!(AggregateFn::Median.name(), "median");
    }

    #[test]
    fn basic_aggregates() {
        assert_eq!(aggregate(AggregateFn::Min, &DATA), Some(2.0));
        assert_eq!(aggregate(AggregateFn::Max, &DATA), Some(6.0));
        assert_eq!(aggregate(AggregateFn::Mean, &DATA), Some(4.0));
        assert_eq!(aggregate(AggregateFn::Sum, &DATA), Some(20.0));
        assert_eq!(aggregate(AggregateFn::Count, &DATA), Some(5.0));
        assert_eq!(aggregate(AggregateFn::First, &DATA), Some(2.0));
        assert_eq!(aggregate(AggregateFn::Last, &DATA), Some(6.0));
        assert_eq!(aggregate(AggregateFn::Median, &DATA), Some(4.0));
    }

    #[test]
    fn stddev_population() {
        // mean 4, squared deviations (4+0+0+0+4)/5 = 1.6
        let sd = aggregate(AggregateFn::Stddev, &DATA).unwrap();
        assert!((sd - 1.6_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_input_semantics() {
        assert_eq!(aggregate(AggregateFn::Mean, &[]), None);
        assert_eq!(aggregate(AggregateFn::Count, &[]), Some(0.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_interpolates() {
        let mut v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 100.0), 4.0);
        assert!((percentile(&mut v, 50.0) - 2.5).abs() < 1e-12);
        let mut single = vec![7.0];
        assert_eq!(percentile(&mut single, 99.0), 7.0);
    }

    #[test]
    fn percentile_orders_nan_above_infinity() {
        let mut v = vec![f64::NAN, 1.0, f64::INFINITY, 2.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 200.0 / 3.0), f64::INFINITY);
        assert!(percentile(&mut v, 100.0).is_nan());
        assert_eq!(
            aggregate(AggregateFn::Median, &[f64::NAN, 2.0, 1.0]),
            Some(2.0)
        );
        assert!(aggregate(AggregateFn::Median, &[f64::NAN, 1.0])
            .unwrap()
            .is_nan());
        assert_eq!(
            aggregate(AggregateFn::Median, &[-f64::NAN, 1.0, 2.0]),
            Some(1.0)
        );
    }

    #[test]
    fn summary_bundle() {
        let s = Summary::of(&DATA).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.sum, 20.0);
    }
}
