//! Continuous-query rollup tiers: raw points folded into coarse
//! per-series buckets (sum / count / min / max / first / last), with the
//! query executor routing eligible aggregate queries to the coarsest tier
//! that covers them and falling back to raw rows for the unaligned edges.
//!
//! Exactness envelope
//! ------------------
//! Routing is a *semantics-preserving optimization*: a tier-served answer
//! must be `f64::to_bits`-identical to the raw-scan oracle
//! ([`crate::query::execute`]) — the differential harness
//! (`tests/rollup.rs`) pins this at every thread count, including NaN
//! payloads and signed zeros. That constrains which queries may route:
//!
//! * `count` / `min` / `max` / `first` / `last` (and raw field
//!   projections, which aggregate as `last`) are **order-free** under the
//!   canonical `(timestamp, series id)` tie rules, so per-series tier
//!   cells merge exactly across tier buckets and series (`PartialAcc`
//!   holds the tie rules). Routed whenever the query bucket width is a
//!   multiple of a tier interval.
//! * `sum` is an **ordered fold**: float addition is non-associative, so
//!   summing per-segment partials reassociates the oracle's arithmetic.
//!   A tier cell's sum *is* bit-exact for exactly one shape — the query
//!   bucket equals the tier interval (one cell per bucket, no
//!   cross-segment combine) and exactly one series matches (no
//!   cross-series interleave). That shape is the P-MoVE dashboard
//!   workload (`tag='obs-uuid'` selects one series); everything else
//!   stays on the raw ordered-fold path.
//! * `mean` / `stddev` / `median` never route.
//!
//! Buckets only partially covered by the query window, and buckets whose
//! tier cells are stale (marked dirty but not yet materialized by
//! [`rollup tick`](crate::engine::Database::rollup_tick)), are computed
//! from raw rows with the identical fold — per-bucket fallback keeps the
//! whole answer exact rather than abandoning the tier path wholesale.
//!
//! Conservation
//! ------------
//! Rolled-up points are accounted, not lost: every raw row lands in
//! exactly one bucket per tier, so with no dirty buckets pending,
//! `Σ cell.rows == raw row count` per tier ([`RollupAudit::conserved`]).
//! After retention drops raw rows the tiers retain their cells — the
//! audit then reports `tier_rows ≥ raw_rows`, the surplus being history
//! preserved by downsampling rather than a ledger leak.

use crate::aggregate::AggregateFn;
use crate::exec::ExecStats;
use crate::query::{Frame, Projection, QueryPlan};
use crate::series::SeriesId;
use crate::storage::{FieldId, Measurement};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Canonical row key: `(timestamp, series id)`. Unique across a query's
/// scanned rows, totally ordered, and equal to the oracle's emission order.
type RowKey = (i64, u64);

/// Sentinel above every real key (`range` is end-exclusive, so a scanned
/// row never has `timestamp == i64::MAX`).
const KEY_SENTINEL: RowKey = (i64::MAX, u64::MAX);

/// Default tier intervals in nanoseconds: 10 s and 1 min, the two
/// downsampling levels the paper-scale deployment keeps.
pub(crate) const DEFAULT_TIERS_NS: [i64; 2] = [10_000_000_000, 60_000_000_000];

/// Modelled fixed cost of one rollup tick (ns on the virtual clock).
pub(crate) const ROLLUP_TICK_BASE_NS: u64 = 20_000;
/// Modelled cost per raw row folded into a tier cell.
pub(crate) const ROLLUP_PER_ROW_NS: u64 = 120;
/// Modelled cost per bucket materialized.
pub(crate) const ROLLUP_PER_BUCKET_NS: u64 = 900;

/// Tier configuration: ascending bucket intervals, in timestamp units.
#[derive(Debug, Clone)]
pub struct RollupConfig {
    /// Tier bucket widths, ascending (coarsest last). Must be positive.
    pub tiers: Vec<i64>,
}

impl Default for RollupConfig {
    /// The paper deployment's 10 s and 1 m tiers (nanosecond timestamps).
    fn default() -> Self {
        RollupConfig {
            tiers: DEFAULT_TIERS_NS.to_vec(),
        }
    }
}

/// Per-field exact aggregate state for one (tier bucket, series) cell.
///
/// Mirrors the serving side's [`PartialAcc`] states: `min`/`max`
/// carry the canonical key their current winner was set at (smaller key
/// wins equal values, so `-0.0` vs `0.0` ties keep the oracle's bit
/// pattern; NaN never wins a comparison), `first`/`last` are the values
/// at the extreme keys, and `sum` is the per-series fold in timestamp
/// order — exactly the oracle's arithmetic sequence when one series and
/// one cell answer one bucket.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FieldAgg {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub min_key: RowKey,
    pub max: f64,
    pub max_key: RowKey,
    pub first: f64,
    pub first_key: RowKey,
    pub last: f64,
    pub last_key: RowKey,
}

impl FieldAgg {
    fn new() -> FieldAgg {
        FieldAgg {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            min_key: KEY_SENTINEL,
            max: f64::NEG_INFINITY,
            max_key: KEY_SENTINEL,
            first: 0.0,
            first_key: KEY_SENTINEL,
            last: 0.0,
            last_key: KEY_SENTINEL,
        }
    }

    /// Fold one value in canonical order (callers push per series in
    /// ascending timestamp order, which is all `sum` exactness needs).
    fn push(&mut self, key: RowKey, v: f64) {
        if self.count == 0 {
            self.first = v;
            self.first_key = key;
        }
        self.count += 1;
        self.sum += v;
        if v < self.min || (v == self.min && key < self.min_key) {
            self.min = v;
            self.min_key = key;
        }
        if v > self.max || (v == self.max && key < self.max_key) {
            self.max = v;
            self.max_key = key;
        }
        self.last = v;
        self.last_key = key;
    }
}

/// One (tier bucket, series) cell: how many raw rows the bucket holds for
/// the series (field-independent — the oracle emits a bucket for every
/// scanned row even when no projected field matches) plus per-field
/// aggregates.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CellAgg {
    /// Raw rows of this series inside the bucket.
    pub rows: u64,
    /// Aggregate state of every field with a numeric value in the
    /// bucket, by the measurement's interned field id (stable for the
    /// life of a `Storage`; the engine clears the tiers when it replaces
    /// one).
    pub fields: BTreeMap<FieldId, FieldAgg>,
}

/// One downsampling tier of one measurement.
#[derive(Debug, Default)]
pub(crate) struct TierData {
    /// (bucket start, series id) -> cell.
    pub cells: BTreeMap<(i64, SeriesId), CellAgg>,
    /// Bucket starts written since their last materialization. A dirty
    /// bucket's cells are stale; queries touching it fall back to raw.
    pub dirty: BTreeSet<i64>,
}

/// All rollup state of one database: per measurement, one [`TierData`]
/// per configured interval.
#[derive(Debug)]
pub(crate) struct RollupStore {
    cfg: RollupConfig,
    tiers: HashMap<String, Vec<TierData>>,
}

/// What one rollup tick did (daemon span + obs accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RollupTickReport {
    /// Dirty buckets materialized (across measurements and tiers).
    pub buckets_materialized: u64,
    /// Raw rows folded into tier cells.
    pub rows_folded: u64,
    /// Cells written or rewritten.
    pub cells_written: u64,
    /// Cells removed because their bucket no longer holds raw rows.
    pub cells_removed: u64,
    /// Measurements whose write version was bumped.
    pub measurements_touched: u64,
}

impl RollupTickReport {
    /// Modelled tick cost on the virtual clock.
    pub fn modeled_ns(&self) -> u64 {
        ROLLUP_TICK_BASE_NS
            + ROLLUP_PER_ROW_NS * self.rows_folded
            + ROLLUP_PER_BUCKET_NS * self.buckets_materialized
    }
}

/// The widened conservation audit: raw rows vs. rows accounted in each
/// tier. See the module docs for the balance conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupAudit {
    /// Rows currently held in raw storage (all measurements).
    pub raw_rows: u64,
    /// Per tier `(interval, Σ cell.rows)`.
    pub tier_rows: Vec<(i64, u64)>,
    /// Dirty buckets not yet materialized.
    pub dirty_buckets: u64,
    /// Rows preserved only by tiers (raw copy expired by retention),
    /// maximized over tiers: `max(tier_rows) - raw_rows` when positive.
    pub rolled_beyond_raw: u64,
}

impl RollupAudit {
    /// Strict balance: nothing pending and every tier accounts exactly
    /// the raw rows — the invariant when retention has not yet expired
    /// anything the tiers cover.
    pub fn conserved(&self) -> bool {
        self.dirty_buckets == 0 && self.tier_rows.iter().all(|&(_, n)| n == self.raw_rows)
    }
}

/// Floor `ts` to its bucket start for interval `t`, in `i128` so extreme
/// timestamps cannot overflow the multiply-back.
fn bucket_floor(ts: i128, t: i128) -> i128 {
    ts.div_euclid(t) * t
}

impl RollupStore {
    pub(crate) fn new(cfg: RollupConfig) -> RollupStore {
        RollupStore {
            cfg,
            tiers: HashMap::new(),
        }
    }

    fn tiers_mut(&mut self, measurement: &str) -> &mut Vec<TierData> {
        let n = self.cfg.tiers.len();
        self.tiers
            .entry(measurement.to_string())
            .or_insert_with(|| (0..n).map(|_| TierData::default()).collect())
    }

    /// Mark the buckets containing `ts` dirty in every tier.
    pub(crate) fn note_write(&mut self, measurement: &str, ts: i64) {
        let intervals = self.cfg.tiers.clone();
        let tiers = self.tiers_mut(measurement);
        for (tier, &t) in tiers.iter_mut().zip(&intervals) {
            tier.dirty
                .insert(bucket_floor(ts as i128, t as i128) as i64);
        }
    }

    /// Drop all materialized state and dirty marks (the in-memory view
    /// was replaced wholesale, e.g. by a post-quarantine rebuild).
    pub(crate) fn clear(&mut self) {
        self.tiers.clear();
    }

    /// Materialize every dirty bucket from raw storage. Idempotent:
    /// buckets are *recomputed*, so out-of-order writes and
    /// last-write-wins rewrites converge to the same cells as a fresh
    /// fold. Returns what was done plus the measurements touched (whose
    /// write versions the engine must bump).
    pub(crate) fn tick(
        &mut self,
        storage: &crate::storage::Storage,
    ) -> (RollupTickReport, Vec<String>) {
        let mut report = RollupTickReport::default();
        let mut touched = Vec::new();
        let intervals = self.cfg.tiers.clone();
        let mut names: Vec<&String> = self.tiers.keys().collect();
        names.sort();
        let names: Vec<String> = names.into_iter().cloned().collect();
        for name in names {
            let mut any = false;
            let Some(tiers) = self.tiers.get_mut(&name) else {
                continue;
            };
            let view = storage.measurement(&name);
            for (tier, &t) in tiers.iter_mut().zip(&intervals) {
                if tier.dirty.is_empty() {
                    continue;
                }
                any = true;
                let dirty: Vec<i64> = std::mem::take(&mut tier.dirty).into_iter().collect();
                report.buckets_materialized += dirty.len() as u64;
                materialize(tier, &dirty, t, view, &mut report);
            }
            if any {
                report.measurements_touched += 1;
                touched.push(name);
            }
        }
        (report, touched)
    }

    /// Count rows accounted per tier for the audit.
    pub(crate) fn audit(&self, raw_rows: u64) -> RollupAudit {
        let mut tier_rows = vec![0u64; self.cfg.tiers.len()];
        let mut dirty = 0u64;
        for tiers in self.tiers.values() {
            for (i, tier) in tiers.iter().enumerate() {
                tier_rows[i] += tier.cells.values().map(|c| c.rows).sum::<u64>();
                dirty += tier.dirty.len() as u64;
            }
        }
        let tier_rows: Vec<(i64, u64)> = self.cfg.tiers.iter().copied().zip(tier_rows).collect();
        let rolled_beyond_raw = tier_rows
            .iter()
            .map(|&(_, n)| n.saturating_sub(raw_rows))
            .max()
            .unwrap_or(0);
        RollupAudit {
            raw_rows,
            tier_rows,
            dirty_buckets: dirty,
            rolled_beyond_raw,
        }
    }

    /// Total materialized cells (all measurements and tiers).
    pub(crate) fn cell_count(&self) -> u64 {
        self.tiers
            .values()
            .flat_map(|tiers| tiers.iter())
            .map(|t| t.cells.len() as u64)
            .sum()
    }

    /// Pick the tier a planned aggregate query may be served from, or
    /// `None` when the query must stay on the raw path. See the module
    /// docs for the exactness envelope this enforces.
    pub(crate) fn route(&self, measurement: &str, plan: &QueryPlan) -> Option<(usize, i64)> {
        if !plan.aggregated {
            return None;
        }
        let b = plan.bucket?;
        if b <= 0 {
            return None;
        }
        let mut needs_exact_sum = false;
        for p in &plan.projections {
            use AggregateFn as F;
            match p {
                Projection::Field(_) => {}
                Projection::Aggregate(F::Count | F::Min | F::Max | F::First | F::Last, _) => {}
                Projection::Aggregate(F::Sum, _) => needs_exact_sum = true,
                _ => return None,
            }
        }
        if needs_exact_sum && plan.ids.len() != 1 {
            return None;
        }
        // Coarsest tier whose interval divides the query bucket; `sum`
        // additionally requires the bucket to *be* a tier interval.
        let tiers = self.tiers.get(measurement)?;
        self.cfg
            .tiers
            .iter()
            .enumerate()
            .rev()
            .filter(|&(_, &t)| b % t == 0 && (!needs_exact_sum || t == b))
            .map(|(i, &t)| (i, t))
            .find(|&(i, _)| i < tiers.len())
    }

    /// Answer a routed query from the `(tier index, interval)`
    /// [`RollupStore::route`] accepted `plan` for, falling back to raw
    /// rows for edge and dirty buckets; one row per non-empty bucket is
    /// appended to `out`.
    pub(crate) fn serve(
        &self,
        measurement: &str,
        (tier_idx, interval): (usize, i64),
        plan: &QueryPlan,
        view: &Measurement,
        stats: &mut ExecStats,
        out: &mut Frame,
    ) {
        let tier = &self.tiers[measurement][tier_idx];
        let b = plan.bucket.expect("routed plan has a bucket") as i128;
        let t = interval as i128;
        if plan.ids.is_empty() {
            return;
        }
        // Effective scan window, clipped by the matching series' stored
        // bounds so the bucket walk is finite even for unbounded queries.
        let mut data_lo = i64::MAX;
        let mut data_hi = i64::MIN;
        for &id in &plan.ids {
            if let Some((lo, hi)) = view.series(id).and_then(|s| s.time_bounds()) {
                data_lo = data_lo.min(lo);
                data_hi = data_hi.max(hi);
            }
        }
        if data_lo > data_hi {
            return;
        }
        let eff_lo = (plan.start as i128).max(data_lo as i128);
        let eff_hi = (plan.end as i128).min(data_hi as i128 + 1);
        if eff_lo >= eff_hi {
            return;
        }

        let mut bucket = bucket_floor(eff_lo, b);
        while bucket < eff_hi {
            let bucket_end = bucket + b;
            let interior = bucket >= plan.start as i128 && bucket_end <= plan.end as i128;
            let d_lo = bucket.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
            let d_hi = bucket_end.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
            let dirty = d_lo < d_hi && tier.dirty.range(d_lo..d_hi).next().is_some();
            if interior && !dirty {
                stats.rollup_buckets_tier += 1;
                serve_bucket_from_cells(tier, bucket as i64, b as i64, t as i64, plan, out);
            } else {
                stats.rollup_buckets_raw += 1;
                serve_bucket_from_raw(bucket, bucket_end, plan, view, &mut stats.rows_scanned, out);
            }
            bucket = bucket_end;
        }
    }
}

/// Recompute the dirty buckets of one tier from raw storage. `view` is
/// `None` when the measurement vanished entirely. Stale cells are wiped
/// unconditionally first, so series that no longer exist (retention,
/// rebuilds) cannot leave orphaned cells behind.
fn materialize(
    tier: &mut TierData,
    dirty: &[i64],
    t: i64,
    view: Option<&Measurement>,
    report: &mut RollupTickReport,
) {
    for &bucket in dirty {
        let doomed: Vec<(i64, SeriesId)> = tier
            .cells
            .range((bucket, SeriesId(0))..=(bucket, SeriesId(u64::MAX)))
            .map(|(k, _)| *k)
            .collect();
        for k in doomed {
            tier.cells.remove(&k);
            report.cells_removed += 1;
        }
    }
    // Without raw rows to fold, the dirty buckets stay empty.
    let Some(view) = view else { return };
    // Group consecutive dirty buckets into runs so each series is ranged
    // once per run instead of once per bucket.
    let mut runs: Vec<(i64, i64)> = Vec::new(); // [start, end) in ts units
    for &bucket in dirty {
        match runs.last_mut() {
            Some((_, end)) if *end == bucket => *end = bucket.saturating_add(t),
            _ => runs.push((bucket, bucket.saturating_add(t))),
        }
    }
    let ids = view.matching_series(&[]);
    for &(run_lo, run_hi) in &runs {
        for &id in &ids {
            let Some(s) = view.series(id) else { continue };
            let rows = s.range(run_lo, run_hi);
            let ts = &s.timestamps()[rows.clone()];
            report.rows_folded += ts.len() as u64;
            // One cell per tier bucket the run's rows fall in. Each column
            // folds in timestamp order — the per-series order `sum`
            // exactness relies on.
            let mut lo = 0;
            while lo < ts.len() {
                let bucket = bucket_floor(ts[lo] as i128, t as i128);
                let hi = lo + ts[lo..].partition_point(|&x| (x as i128) < bucket + t as i128);
                let mut cell = CellAgg {
                    rows: (hi - lo) as u64,
                    fields: BTreeMap::new(),
                };
                for (field, col) in s.columns() {
                    let col = col.slice(rows.start + lo..rows.start + hi);
                    let mut agg = FieldAgg::new();
                    for (i, &ts) in ts[lo..hi].iter().enumerate() {
                        if let Some(v) = col.get(i) {
                            agg.push((ts, id.0), v);
                        }
                    }
                    if agg.count > 0 {
                        cell.fields.insert(field, agg);
                    }
                }
                tier.cells.insert((bucket as i64, id), cell);
                report.cells_written += 1;
                lo = hi;
            }
        }
    }
}

/// Order-free accumulator for one projection in one served bucket. Every
/// state transition of `Extreme`, `Count` and `Edge` is
/// commutative/associative under the canonical-key tie rules, so tier
/// cells and raw edge rows may be offered in any order. `Sum` is an
/// ordered fold: it is only ever fed one series' rows in timestamp order
/// or one tier cell (see [`RollupStore::route`]), never combined.
#[derive(Debug, Clone)]
enum PartialAcc {
    /// `min` / `max`: value plus the canonical key where the current
    /// winner was set (smaller key wins equal values — the oracle keeps
    /// the first occurrence's bit pattern, e.g. for `-0.0` vs `0.0`).
    Extreme {
        is_min: bool,
        count: u64,
        best: f64,
        best_key: RowKey,
    },
    /// `count`: order-free by construction.
    Count { count: u64 },
    /// `first` / `last` (and raw fields, which aggregate as `last`):
    /// the value at the smallest / largest canonical key.
    Edge {
        want_first: bool,
        entry: Option<(RowKey, f64)>,
    },
    /// `sum` over one series.
    Sum { count: u64, sum: f64 },
}

impl PartialAcc {
    /// The accumulator for `p`, or `None` when `p` needs the executor's
    /// ordered fold (`mean` / `stddev` / `median`).
    fn for_projection(p: &Projection) -> Option<PartialAcc> {
        Some(match p {
            Projection::Aggregate(AggregateFn::Min, _) => PartialAcc::Extreme {
                is_min: true,
                count: 0,
                best: f64::INFINITY,
                best_key: KEY_SENTINEL,
            },
            Projection::Aggregate(AggregateFn::Max, _) => PartialAcc::Extreme {
                is_min: false,
                count: 0,
                best: f64::NEG_INFINITY,
                best_key: KEY_SENTINEL,
            },
            Projection::Aggregate(AggregateFn::Count, _) => PartialAcc::Count { count: 0 },
            Projection::Aggregate(AggregateFn::First, _) => PartialAcc::Edge {
                want_first: true,
                entry: None,
            },
            Projection::Aggregate(AggregateFn::Last, _) | Projection::Field(_) => {
                PartialAcc::Edge {
                    want_first: false,
                    entry: None,
                }
            }
            Projection::Aggregate(AggregateFn::Sum, _) => PartialAcc::Sum { count: 0, sum: 0.0 },
            _ => return None,
        })
    }

    /// Offer a candidate standing for `n` values: `(key, v)` is the
    /// group's winner under this accumulator's own rule (a raw row offers
    /// itself with `n == 1`). The tie rules live here and nowhere else.
    fn offer(&mut self, n: u64, key: RowKey, v: f64) {
        match self {
            PartialAcc::Extreme {
                is_min,
                count,
                best,
                best_key,
            } => {
                *count += n;
                let wins = if *is_min { v < *best } else { v > *best };
                if wins || (v == *best && key < *best_key) {
                    *best = v;
                    *best_key = key;
                }
            }
            PartialAcc::Count { count } => *count += n,
            PartialAcc::Edge { want_first, entry } => match entry {
                None => *entry = Some((key, v)),
                Some((k, val)) => {
                    let replace = if *want_first { key < *k } else { key > *k };
                    if replace {
                        *k = key;
                        *val = v;
                    }
                }
            },
            PartialAcc::Sum { .. } => unreachable!("sum folds, it is never offered a candidate"),
        }
    }

    /// Fold one raw value.
    fn push(&mut self, key: RowKey, v: f64) {
        match self {
            PartialAcc::Sum { count, sum } => {
                *count += 1;
                *sum += v;
            }
            _ => self.offer(1, key, v),
        }
    }

    /// Merge one rollup tier cell's per-field state.
    fn merge_cell(&mut self, agg: &FieldAgg) {
        if agg.count == 0 {
            return;
        }
        match self {
            PartialAcc::Extreme { is_min: true, .. } => self.offer(agg.count, agg.min_key, agg.min),
            PartialAcc::Extreme { is_min: false, .. } => {
                self.offer(agg.count, agg.max_key, agg.max)
            }
            PartialAcc::Count { .. } => self.offer(agg.count, KEY_SENTINEL, 0.0),
            PartialAcc::Edge {
                want_first: true, ..
            } => self.offer(1, agg.first_key, agg.first),
            PartialAcc::Edge {
                want_first: false, ..
            } => self.offer(1, agg.last_key, agg.last),
            PartialAcc::Sum { count, sum } => {
                // `route()` guarantees a single series and bucket == tier
                // interval, so exactly one cell ever reaches a Sum — the
                // stored fold is adopted, never combined.
                debug_assert_eq!(*count, 0, "sum must be served by exactly one cell");
                *count += agg.count;
                *sum = agg.sum;
            }
        }
    }

    /// Mirrors [`crate::aggregate::Accumulator::finish`] for the supported
    /// functions, including the all-NaN case (`min` stays `+inf`, `max`
    /// `-inf`), `count`'s 0-instead-of-NULL, and NULL for empty folds.
    fn finish(&self) -> Option<f64> {
        match self {
            PartialAcc::Extreme { count: 0, .. } | PartialAcc::Sum { count: 0, .. } => None,
            PartialAcc::Extreme { best, .. } => Some(*best),
            PartialAcc::Count { count } => Some(*count as f64),
            PartialAcc::Edge { entry, .. } => entry.map(|(_, v)| v),
            PartialAcc::Sum { sum, .. } => Some(*sum),
        }
    }
}

/// Answer one fully covered, clean query bucket from materialized cells:
/// one row appended to `out` if the bucket holds any.
fn serve_bucket_from_cells(
    tier: &TierData,
    bucket: i64,
    b: i64,
    t: i64,
    plan: &QueryPlan,
    out: &mut Frame,
) {
    let mut accs = serve_accs(plan);
    let mut rows_present = false;
    let mut tb = bucket;
    let end = bucket.saturating_add(b);
    while tb < end {
        for ((_, id), cell) in tier
            .cells
            .range((tb, SeriesId(0))..=(tb, SeriesId(u64::MAX)))
        {
            if plan.ids.binary_search(id).is_err() {
                continue;
            }
            if cell.rows > 0 {
                rows_present = true;
            }
            for (acc, field) in accs.iter_mut().zip(&plan.fields) {
                if let Some(agg) = field.and_then(|f| cell.fields.get(&f)) {
                    acc.merge_cell(agg);
                }
            }
        }
        tb = tb.saturating_add(t);
    }
    if rows_present {
        out.push_row(bucket, accs.iter().map(PartialAcc::finish));
    }
}

/// Answer one edge or dirty bucket by folding raw rows, clipped to the
/// query window: one row appended to `out` if any was scanned.
fn serve_bucket_from_raw(
    bucket: i128,
    bucket_end: i128,
    plan: &QueryPlan,
    view: &Measurement,
    rows_scanned: &mut u64,
    out: &mut Frame,
) {
    let lo = bucket
        .max(plan.start as i128)
        .clamp(i64::MIN as i128, i64::MAX as i128) as i64;
    let hi = bucket_end
        .min(plan.end as i128)
        .clamp(i64::MIN as i128, i64::MAX as i128) as i64;
    let mut accs = serve_accs(plan);
    let mut rows_present = false;
    for &id in &plan.ids {
        let Some(s) = view.series(id) else { continue };
        let rows = s.range(lo, hi);
        let ts = &s.timestamps()[rows.clone()];
        *rows_scanned += ts.len() as u64;
        rows_present |= !ts.is_empty();
        for (acc, field) in accs.iter_mut().zip(&plan.fields) {
            let Some(col) = field.and_then(|f| s.column(f)) else {
                continue;
            };
            let col = col.slice(rows.clone());
            for (i, &ts) in ts.iter().enumerate() {
                if let Some(v) = col.get(i) {
                    acc.push((ts, id.0), v);
                }
            }
        }
    }
    if rows_present {
        out.push_row(bucket as i64, accs.iter().map(PartialAcc::finish));
    }
}

/// Fresh accumulators for a routed plan's projections.
fn serve_accs(plan: &QueryPlan) -> Vec<PartialAcc> {
    plan.projections
        .iter()
        .map(|p| PartialAcc::for_projection(p).expect("route() rejected this projection"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::storage::Storage;

    fn filled() -> Storage {
        let mut s = Storage::new();
        for t in 0..60 {
            s.insert(
                Point::new("m")
                    .tag("host", "a")
                    .field("v", t as f64)
                    .timestamp(t),
            );
        }
        s
    }

    fn view_ids(s: &Storage) -> Vec<SeriesId> {
        s.measurement("m").unwrap().matching_series(&[])
    }

    #[test]
    fn tick_materializes_and_audit_balances() {
        let storage = filled();
        let mut rs = RollupStore::new(RollupConfig {
            tiers: vec![10, 30],
        });
        for t in 0..60 {
            rs.note_write("m", t);
        }
        assert_eq!(rs.audit(0).dirty_buckets, 6 + 2);
        let (report, touched) = rs.tick(&storage);
        assert_eq!(touched, vec!["m".to_string()]);
        assert_eq!(report.buckets_materialized, 8);
        assert_eq!(report.rows_folded, 60 * 2); // both tiers fold all rows
        assert_eq!(rs.audit(0).dirty_buckets, 0);
        let audit = rs.audit(storage.total_rows() as u64);
        assert!(audit.conserved(), "{audit:?}");
        assert_eq!(audit.tier_rows, vec![(10, 60), (30, 60)]);
    }

    #[test]
    fn tick_is_idempotent_under_rewrites() {
        let mut storage = filled();
        let mut rs = RollupStore::new(RollupConfig { tiers: vec![10] });
        for t in 0..60 {
            rs.note_write("m", t);
        }
        rs.tick(&storage);
        let before: Vec<_> = rs.tiers["m"][0].cells.clone().into_iter().collect();
        // Rewrite one cell (LWW) and re-tick only its bucket.
        storage.insert(
            Point::new("m")
                .tag("host", "a")
                .field("v", 999.0)
                .timestamp(5),
        );
        rs.note_write("m", 5);
        let (report, _) = rs.tick(&storage);
        assert_eq!(report.buckets_materialized, 1);
        let after: Vec<_> = rs.tiers["m"][0].cells.clone().into_iter().collect();
        assert_eq!(before.len(), after.len());
        let cell = &rs.tiers["m"][0].cells[&(0, view_ids(&storage)[0])];
        let v = storage.measurement("m").unwrap().field_id("v").unwrap();
        assert_eq!(cell.fields[&v].max, 999.0);
    }

    #[test]
    fn vanished_measurement_clears_cells() {
        let mut storage = filled();
        let mut rs = RollupStore::new(RollupConfig { tiers: vec![10] });
        for t in 0..60 {
            rs.note_write("m", t);
        }
        rs.tick(&storage);
        assert!(rs.cell_count() > 0);
        storage.drop_before(i64::MAX);
        // Retention does NOT mark dirty (tiers outlive raw)...
        let audit = rs.audit(storage.total_rows() as u64);
        assert!(!audit.conserved());
        assert_eq!((audit.dirty_buckets, audit.raw_rows), (0, 0));
        assert_eq!(audit.rolled_beyond_raw, 60);
        // ...but an explicit re-mark + tick folds the (now empty) truth.
        for t in 0..60 {
            rs.note_write("m", t);
        }
        rs.tick(&storage);
        assert_eq!(rs.cell_count(), 0);
    }

    #[test]
    fn route_respects_the_exactness_envelope() {
        let storage = filled();
        let mut rs = RollupStore::new(RollupConfig {
            tiers: vec![10, 30],
        });
        rs.note_write("m", 0);
        let q = |text: &str| {
            crate::query::plan(&storage, &crate::Query::parse(text).unwrap())
                .unwrap()
                .0
        };
        // count/min/max/last: coarsest dividing tier wins.
        let p = q("SELECT count(\"v\"), max(\"v\") FROM \"m\" GROUP BY time(30)");
        assert_eq!(rs.route("m", &p), Some((1, 30)));
        let p = q("SELECT min(\"v\") FROM \"m\" GROUP BY time(20)");
        assert_eq!(rs.route("m", &p), Some((0, 10)));
        // Bucket not a multiple of any tier: raw.
        let p = q("SELECT count(\"v\") FROM \"m\" GROUP BY time(7)");
        assert_eq!(rs.route("m", &p), None);
        // Ordered folds never route.
        let p = q("SELECT mean(\"v\") FROM \"m\" GROUP BY time(30)");
        assert_eq!(rs.route("m", &p), None);
        // Sum: single series AND bucket == tier interval.
        let p = q("SELECT sum(\"v\") FROM \"m\" WHERE host='a' GROUP BY time(30)");
        assert_eq!(rs.route("m", &p), Some((1, 30)));
        let p = q("SELECT sum(\"v\") FROM \"m\" WHERE host='a' GROUP BY time(60)");
        assert_eq!(rs.route("m", &p), None);
        // No GROUP BY: raw.
        let p = q("SELECT count(\"v\") FROM \"m\"");
        assert_eq!(rs.route("m", &p), None);
        // Unknown measurement (no tier state): raw.
        let p = q("SELECT count(\"v\") FROM \"m\" GROUP BY time(10)");
        assert_eq!(rs.route("ghost", &p), None);
    }
}
