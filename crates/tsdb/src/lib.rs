//! # pmove-tsdb — embedded time-series database
//!
//! A deterministic, in-process stand-in for the InfluxDB 1.x instance that the
//! P-MoVE paper uses as its telemetry store. It implements the subset of the
//! InfluxDB data model that P-MoVE relies on:
//!
//! * **measurements** holding **series** keyed by tag sets, each series a
//!   time-ordered sequence of field values ([`Point`]);
//! * **line protocol** parsing and rendering ([`line_protocol`]);
//! * an **inverted tag index** for `WHERE tag = value` filtering;
//! * an InfluxQL-like query layer: `SELECT f1, f2 FROM m WHERE tag='v' AND
//!   time >= a AND time < b` with aggregations (`MIN`/`MAX`/`MEAN`/...) and
//!   `GROUP BY time(interval)` downsampling ([`query`]);
//! * a **query engine**: one scan kernel on the calling thread merges the
//!   matching series' column slices in `(timestamp, series id)` order,
//!   bit-identical to the sequential reference executor ([`exec`]), fronted
//!   by a write-invalidated LRU query-result cache ([`cache`]);
//! * **retention policies** that age out old points ([`retention`]);
//! * **live subscriptions** feeding dashboards ([`subscribe`]);
//! * an **ingest throughput limit** modelling the database-side backpressure
//!   which, combined with PCP's unbuffered samplers, produces the data-point
//!   losses quantified in Table III of the paper.
//!
//! Entry points on [`Database`]: one write body under four wrappers —
//! [`Database::write_batch`] for any number of client points, and for a
//! batch of one [`Database::write`]`(point, origin, &Span, start_ns)`
//! with [`Database::write_point`] (a client write) and
//! [`Database::apply_remote`] (a replicated row) as its two spellings
//! under [`pmove_obs::Span::none`]; [`Database::query`] and its
//! pre-parsed forms;
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

pub mod aggregate;
pub mod batch;
pub mod cache;
pub mod engine;
pub mod error;
pub mod exec;
pub mod index;
pub mod line_protocol;
pub mod point;
pub mod query;
pub mod repl;
pub mod retention;
pub mod rollup;
pub mod self_export;
pub mod series;
pub mod snapshot;
pub mod storage;
pub mod subscribe;
pub mod value;

/// The durable storage engine backing [`Database::open`] (re-exported so
/// downstream crates can name VFS, options, and report types without a
/// direct `pmove-store` dependency).
pub use pmove_store as store;

pub use batch::{BatchOutcome, ColumnarBatch};
pub use cache::{QueryCache, DEFAULT_CACHE_CAPACITY};
pub use engine::{Database, IngestLimiter, IngestStats, Origin, GAP_MEASUREMENT};
pub use error::TsdbError;
pub use exec::{ExecMode, ExecStats};
pub use point::Point;
pub use query::{Frame, Query, QueryPlan, QueryResult, ResultRow};
pub use repl::{
    IntegrityReport, MerkleSnapshot, RepairReport, ReplConfig, ReplicaSet, MERKLE_BUCKETS,
};
pub use retention::RetentionPolicy;
pub use rollup::{RollupAudit, RollupConfig, RollupStore, RollupTickReport};
pub use self_export::export_snapshot;
pub use series::{SeriesId, SeriesKey};
pub use value::FieldValue;
