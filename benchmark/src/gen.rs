//! Seeded input generators. The program under test only ever receives
//! what these produce; the same seed gives the same inputs.
#![forbid(unsafe_code)]

use pmove_tsdb::aggregate::AggregateFn;
use pmove_tsdb::query::Projection;
use pmove_tsdb::{FieldValue, Point, Query};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Nanoseconds per second: timestamps are nanoseconds, the generators
/// think in seconds.
pub const NS: i64 = 1_000_000_000;

/// Generator for one purpose, derived from the run's seed.
pub fn rng(seed: u64, purpose: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose)
}

/// Telemetry-like value: a bounded random walk, two decimals, so that it
/// prints and re-parses to the same bits and XOR-compresses the way slowly
/// moving counters do.
fn walk(rng: &mut ChaCha8Rng, v: &mut f64) -> f64 {
    let step: f64 = rng.gen_range(-1.0..1.0);
    *v = ((*v + step).clamp(0.0, 100.0) * 100.0).round() / 100.0;
    *v
}

// ------------------------------------------------------------------ fleet

/// Shape of the `ingest_durable` fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    /// Hosts reporting.
    pub hosts: usize,
    /// Measurements per host.
    pub measurements: usize,
    /// Fields per point.
    pub fields: usize,
    /// Points per line-protocol batch.
    pub batch_points: usize,
    /// Seconds of 1 Hz fleet data.
    pub seconds: usize,
}

/// Identity of one stored cell of the fleet: series, field, second.
pub type CellId = (u16, u8, u32);

/// The arrival stream of the fleet, as line-protocol text.
pub struct FleetStream {
    /// Batches in arrival order; the last one may be short.
    pub batches: Vec<String>,
    /// Points per batch, same order.
    pub batch_points: Vec<usize>,
    /// Cell → bits of the value that must be readable after recovery
    /// (the last arrival wins a rewritten cell).
    pub expected: HashMap<CellId, u64>,
    /// Measurement name → index, host tag → index, field name → index.
    pub names: FleetNames,
}

/// Name tables of the fleet, for mapping stored cells back to [`CellId`].
pub struct FleetNames {
    /// `m0`…
    pub measurements: HashMap<String, u16>,
    /// `h00`…
    pub hosts: HashMap<String, u16>,
    /// `f00`…
    pub fields: HashMap<String, u8>,
    /// Measurements per host (to fold the two indexes into one series).
    pub measurements_per_host: u16,
}

impl FleetNames {
    /// Series index of a (measurement, host) pair.
    pub fn series(&self, measurement: &str, host: &str) -> Option<u16> {
        Some(
            self.hosts.get(host)? * self.measurements_per_host
                + self.measurements.get(measurement)?,
        )
    }
}

/// Generate the fleet's arrival stream: every series reports once a
/// second; 10% of points arrive up to 30 s late, and 1% are sent a second
/// time with new values up to 5 s later, so last-write-wins runs.
pub fn fleet_stream(seed: u64, shape: FleetShape) -> FleetStream {
    let mut rng = rng(seed, 0x1A6E57);
    let series = shape.hosts * shape.measurements;
    let mut state = vec![50.0f64; series * shape.fields];
    // (arrival second, sequence, series, timestamp second, values)
    let mut arrivals: Vec<(u32, u32, u16, u32, Vec<f64>)> = Vec::new();
    let mut seq = 0u32;
    for sec in 0..shape.seconds as u32 {
        for s in 0..series {
            let values: Vec<f64> = (0..shape.fields)
                .map(|f| walk(&mut rng, &mut state[s * shape.fields + f]))
                .collect();
            let late = if rng.gen_bool(0.10) {
                rng.gen_range(1u32..=30)
            } else {
                0
            };
            arrivals.push((sec + late, seq, s as u16, sec, values));
            seq += 1;
            if rng.gen_bool(0.01) {
                let again: Vec<f64> = (0..shape.fields)
                    .map(|_| (rng.gen_range(0.0..100.0f64) * 100.0).round() / 100.0)
                    .collect();
                let after = rng.gen_range(0u32..=5);
                arrivals.push((sec + late + after, seq, s as u16, sec, again));
                seq += 1;
            }
        }
    }
    arrivals.sort_by_key(|a| (a.0, a.1));

    let mut expected = HashMap::with_capacity(series * shape.fields * shape.seconds);
    let mut batches = Vec::new();
    let mut batch_points = Vec::new();
    for chunk in arrivals.chunks(shape.batch_points) {
        let mut text = String::with_capacity(chunk.len() * 24 * shape.fields);
        for (_, _, s, sec, values) in chunk {
            let (host, m) = (
                *s as usize / shape.measurements,
                *s as usize % shape.measurements,
            );
            let _ = write!(text, "m{m},host=h{host:02} ");
            for (f, v) in values.iter().enumerate() {
                if f > 0 {
                    text.push(',');
                }
                let _ = write!(text, "f{f:02}={v}");
                expected.insert((*s, f as u8, *sec), v.to_bits());
            }
            let _ = writeln!(text, " {}", i64::from(*sec) * NS);
        }
        batches.push(text);
        batch_points.push(chunk.len());
    }
    let names = FleetNames {
        measurements: (0..shape.measurements)
            .map(|m| (format!("m{m}"), m as u16))
            .collect(),
        hosts: (0..shape.hosts)
            .map(|h| (format!("h{h:02}"), h as u16))
            .collect(),
        fields: (0..shape.fields)
            .map(|f| (format!("f{f:02}"), f as u8))
            .collect(),
        measurements_per_host: shape.measurements as u16,
    };
    FleetStream {
        batches,
        batch_points,
        expected,
        names,
    }
}

// ----------------------------------------------------------------- corpus

/// A dense telemetry corpus: every (measurement, host) series has one
/// point per second carrying every field. Used by the two read-side
/// workloads, and kept as a flat array so output checks can recompute
/// answers without going near the program.
pub struct Corpus {
    /// Measurements `m0`…
    pub measurements: usize,
    /// Hosts `h00`… per measurement.
    pub hosts: usize,
    /// Fields `f0`… per point.
    pub fields: usize,
    /// Seconds generated.
    pub seconds: usize,
    values: Vec<f64>,
}

impl Corpus {
    /// Generate `seconds` of data for the given shape.
    pub fn generate(
        seed: u64,
        measurements: usize,
        hosts: usize,
        fields: usize,
        seconds: usize,
    ) -> Corpus {
        let mut rng = rng(seed, 0xC0FFEE);
        let lanes = measurements * hosts * fields;
        let mut state = vec![50.0f64; lanes];
        let mut values = vec![0.0; lanes * seconds];
        for sec in 0..seconds {
            for (lane, v) in state.iter_mut().enumerate() {
                values[lane * seconds + sec] = walk(&mut rng, v);
            }
        }
        Corpus {
            measurements,
            hosts,
            fields,
            seconds,
            values,
        }
    }

    /// Value of one cell.
    pub fn value(&self, m: usize, host: usize, field: usize, sec: usize) -> f64 {
        self.values[((m * self.hosts + host) * self.fields + field) * self.seconds + sec]
    }

    /// The points of one second, for the given measurements.
    pub fn slice(&self, sec: usize, measurements: impl Iterator<Item = usize>) -> Vec<Point> {
        let mut points = Vec::new();
        for m in measurements {
            for host in 0..self.hosts {
                let mut p = Point::new(format!("m{m}"))
                    .tag("host", format!("h{host:02}"))
                    .timestamp(sec as i64 * NS);
                for f in 0..self.fields {
                    p = p.field(
                        format!("f{f}"),
                        FieldValue::Float(self.value(m, host, f, sec)),
                    );
                }
                points.push(p);
            }
        }
        points
    }

    /// The first `seconds` seconds as write batches of `batch_seconds`
    /// seconds each, all measurements; each batch is built when asked for.
    pub fn batches(
        &self,
        seconds: usize,
        batch_seconds: usize,
    ) -> impl Iterator<Item = Vec<Point>> + '_ {
        (0..seconds).step_by(batch_seconds).map(move |from| {
            (from..(from + batch_seconds).min(seconds))
                .flat_map(|sec| self.slice(sec, 0..self.measurements))
                .collect()
        })
    }
}

// -------------------------------------------------------------- query mix

/// The four dashboard query shapes of `dashboard_read`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One host's raw field over a 5-minute window.
    RawField = 0,
    /// One host's `sum` per 10 s window over 10 minutes.
    WindowedSum = 1,
    /// Fleet-wide `min`/`max`/`mean` over a bounded window.
    FleetSummary = 2,
    /// Fleet-wide `mean` per 60 s over the whole corpus.
    FleetMean = 3,
}

/// One query of the mix, with what is needed to recompute its answer
/// from the [`Corpus`].
#[derive(Debug, Clone)]
pub struct MixQuery {
    /// Which of the four shapes.
    pub shape: Shape,
    /// The query handed to the program.
    pub query: Query,
    /// Measurement index.
    pub m: usize,
    /// Host index, `None` for fleet-wide.
    pub host: Option<usize>,
    /// Field index.
    pub field: usize,
    /// Window, seconds, end-exclusive.
    pub window: (usize, usize),
}

/// The dashboard-shaped mix: per (measurement, host) one raw scan and one
/// windowed sum, per measurement one fleet summary and one fleet mean —
/// all distinct — in a seed-shuffled order. Which field and window a panel
/// asks for follows from its position, not from the seed, so that every
/// seed gives a mix of the same cost over different data.
pub fn query_mix(seed: u64, corpus: &Corpus) -> Vec<MixQuery> {
    let mut rng = rng(seed, 0x9E4);
    let secs = corpus.seconds;
    let raw_span = (secs / 2).clamp(1, 300);
    let sum_span = (secs / 2).clamp(1, 600);
    let mut mix = Vec::new();
    let field_name = |f: usize| format!("f{f}");
    let mk = |projections,
              m: usize,
              host: Option<usize>,
              window: (usize, usize),
              bucket: Option<i64>| Query {
        projections,
        measurement: format!("m{m}"),
        tag_filters: host
            .map(|h| vec![("host".to_string(), format!("h{h:02}"))])
            .unwrap_or_default(),
        time_start: Some(window.0 as i64 * NS),
        time_end: Some(window.1 as i64 * NS),
        group_by_time: bucket,
    };
    for m in 0..corpus.measurements {
        for host in 0..corpus.hosts {
            let field = (m + host) % corpus.fields;
            let lo = (m * corpus.hosts + host) * 7 % (secs - raw_span + 1);
            let window = (lo, lo + raw_span);
            mix.push(MixQuery {
                shape: Shape::RawField,
                query: mk(
                    vec![Projection::Field(field_name(field))],
                    m,
                    Some(host),
                    window,
                    None,
                ),
                m,
                host: Some(host),
                field,
                window,
            });
            let field = (m + host + 1) % corpus.fields;
            let lo = (m * corpus.hosts + host) * 11 % (secs - sum_span + 1);
            let window = (lo, lo + sum_span);
            mix.push(MixQuery {
                shape: Shape::WindowedSum,
                query: mk(
                    vec![Projection::Aggregate(AggregateFn::Sum, field_name(field))],
                    m,
                    Some(host),
                    window,
                    Some(10 * NS),
                ),
                m,
                host: Some(host),
                field,
                window,
            });
        }
        let field = m % corpus.fields;
        let lo = m * 31 % (secs - raw_span + 1);
        let window = (lo, lo + raw_span);
        mix.push(MixQuery {
            shape: Shape::FleetSummary,
            query: mk(
                [AggregateFn::Min, AggregateFn::Max, AggregateFn::Mean]
                    .into_iter()
                    .map(|a| Projection::Aggregate(a, field_name(field)))
                    .collect(),
                m,
                None,
                window,
                None,
            ),
            m,
            host: None,
            field,
            window,
        });
        let field = (m + 2) % corpus.fields;
        mix.push(MixQuery {
            shape: Shape::FleetMean,
            query: mk(
                vec![Projection::Aggregate(AggregateFn::Mean, field_name(field))],
                m,
                None,
                (0, secs),
                Some(60 * NS),
            ),
            m,
            host: None,
            field,
            window: (0, secs),
        });
    }
    shuffle(&mut rng, &mut mix);
    mix
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut ChaCha8Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let shape = FleetShape {
            hosts: 4,
            measurements: 2,
            fields: 3,
            batch_points: 64,
            seconds: 40,
        };
        let a = fleet_stream(7, shape);
        let b = fleet_stream(7, shape);
        let c = fleet_stream(8, shape);
        assert_eq!(a.batches, b.batches);
        assert_ne!(a.batches, c.batches);
        // Every (series, field, second) cell is expected exactly once,
        // however many times it was sent.
        assert_eq!(a.expected.len(), 4 * 2 * 3 * 40);
        assert!(
            a.batch_points.iter().sum::<usize>() > 4 * 2 * 40,
            "some points are re-sent"
        );
    }

    #[test]
    fn fleet_text_parses_back_to_the_expected_bits() {
        let shape = FleetShape {
            hosts: 2,
            measurements: 2,
            fields: 2,
            batch_points: 1000,
            seconds: 10,
        };
        let stream = fleet_stream(3, shape);
        let mut last = HashMap::new();
        for text in &stream.batches {
            for p in pmove_tsdb::line_protocol::parse_batch(text).unwrap() {
                let s = stream
                    .names
                    .series(&p.measurement, &p.tags["host"])
                    .unwrap();
                for (f, v) in &p.fields {
                    let cell = (s, stream.names.fields[f], (p.timestamp / NS) as u32);
                    last.insert(cell, v.as_f64().unwrap().to_bits());
                }
            }
        }
        assert_eq!(last, stream.expected);
    }

    #[test]
    fn mix_is_distinct_and_sized() {
        let corpus = Corpus::generate(1, 8, 32, 4, 600);
        let mix = query_mix(1, &corpus);
        assert_eq!(mix.len(), 528);
        let texts: std::collections::BTreeSet<String> =
            mix.iter().map(|q| q.query.normalized()).collect();
        assert_eq!(texts.len(), 528);
        assert_eq!(corpus.slice(3, 0..2).len(), 64);
        assert_eq!(corpus.batches(20, 16).count(), 2);
    }
}
