//! # pmove-tsdb — embedded time-series database
//!
//! A deterministic, in-process stand-in for the InfluxDB 1.x instance that the
//! P-MoVE paper uses as its telemetry store. It implements the subset of the
//! InfluxDB data model that P-MoVE relies on:
//!
//! * **measurements** holding **series** keyed by tag sets, each series
//!   columns of field values over ascending timestamps ([`storage`]);
//! * **line protocol** parsing and rendering ([`line_protocol`]);
//! * an InfluxQL-like query layer: `SELECT f1, f2 FROM m WHERE tag='v' AND
//!   time >= a AND time < b` with aggregations (`MIN`/`MAX`/`MEAN`/...) and
//!   `GROUP BY time(interval)` downsampling ([`query`], [`aggregate`]);
//! * a **query engine**: one scan kernel on the calling thread merges the
//!   matching series' column slices in `(timestamp, series id)` order,
//!   bit-identical to the sequential reference executor ([`exec`]), fronted
//!   by a write-invalidated LRU query-result cache and continuous-query
//!   rollup tiers;
//! * **replica sets** with quorum configuration and Merkle anti-entropy
//!   ([`repl`]), **retention**, JSON measurement **snapshots**
//!   ([`snapshot`]) and the self-metrics exporter ([`self_export`]).
//!
//! The database admits every point that carries a field: Table III's
//! database-side backpressure is modelled once, by the PCP shipper's
//! capacity window. The `tsdb.points_*` counters are the one ingest
//! ledger, with `points_offered == points_inserted + points_rejected`.
//!
//! Entry points on [`Database`]: one write body under three wrappers —
//! [`Database::write_batch`] for any number of client points, and for a
//! batch of one [`Database::write`]`(point, origin, &Span, start_ns)`
//! with [`Database::write_point`] as its client spelling under
//! [`pmove_obs::Span::none`]; [`Database::query`] and its pre-parsed
//! forms;
//! [`Database::flush`], [`Database::restore_at`] and
//! [`Database::rebuild_from_store`] for the engine's share of durability.
//! Everything that is purely the durable store's — scrub ticks, backups,
//! compaction, the quarantine record — is called on [`store::TsStore`]
//! through [`Database::store`].
//!
//! ```
//! use pmove_tsdb::{Database, Point, FieldValue};
//!
//! let db = Database::new("pmove");
//! let p = Point::new("perfevent_hwcounters_fp_arith_scalar_double")
//!     .tag("tag", "obs-1")
//!     .field("_cpu0", FieldValue::Float(12.0))
//!     .timestamp(1_000);
//! db.write_point(p).unwrap();
//! let rs = db
//!     .query("SELECT \"_cpu0\" FROM \"perfevent_hwcounters_fp_arith_scalar_double\" WHERE tag='obs-1'")
//!     .unwrap();
//! assert_eq!(rs.rows.len(), 1);
//! ```
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod aggregate;
mod batch;
mod cache;
mod engine;
mod error;
pub mod exec;
mod index;
pub mod line_protocol;
mod point;
pub mod query;
pub mod repl;
mod rollup;
pub mod self_export;
mod series;
pub mod snapshot;
pub mod storage;
mod value;

/// The durable storage engine backing [`Database::open`] (re-exported so
/// downstream crates can name VFS, options, and report types without a
/// direct `pmove-store` dependency).
pub use pmove_store as store;

pub use batch::ColumnarBatch;
pub use engine::{Database, Origin, GAP_MEASUREMENT};
pub use error::TsdbError;
pub use exec::ExecMode;
pub use point::Point;
pub use query::{Frame, Query, QueryResult};
pub use repl::ReplicaSet;
pub use rollup::RollupConfig;
pub use self_export::export_snapshot;
pub use series::SeriesKey;
pub use value::FieldValue;
