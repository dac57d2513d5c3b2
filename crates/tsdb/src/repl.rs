//! Replicated storage: a [`ReplicaSet`] of N databases with quorum
//! configuration, per-shard Merkle trees for divergence detection, and
//! anti-entropy repair that streams only divergent ranges.
//!
//! The replica set is purely the *storage* side of replication: it owns
//! the N [`Database`] nodes (each optionally backed by its own durable
//! `pmove-store` log on a private seeded disk), builds Merkle summaries
//! over the cell space, and converges replicas bit-identically. Routing —
//! quorum writes, hinted handoff, heartbeats, failover — lives in the
//! `pmove-pcp` coordinator, which drives this type.
//!
//! ## Merkle layout
//!
//! The cell space of a replica is every `(series, timestamp, field,
//! value)` tuple it stores. Cells are placed by an FNV-1a hash of the
//! canonical series key (`merkle_shard`) on one of `MERKLE_SHARDS` (16)
//! shards — a partition of the key space for this summary only, not a
//! storage layout. Inside a shard, a *locator* hash over (canonical key,
//! timestamp) — value- and field-independent, so divergent versions of a
//! row land in the same bucket on every replica — selects one of
//! `MERKLE_BUCKETS` buckets.
//! A bucket's leaf is the XOR of its cells' *content* hashes (which do
//! cover field name and value bits, `f64::to_bits` for floats); XOR makes
//! the leaf independent of visit order, and last-write-wins storage
//! guarantees each (series, ts, field) appears exactly once per walk, so
//! no pair of identical cells can cancel. Shard root = FNV-1a over the
//! leaf array; set root = FNV-1a over shard roots. Two replicas hold
//! bit-identical data iff their roots agree.

use crate::engine::{Database, Origin};
use crate::error::TsdbError;
use crate::exec::ExecMode;
use crate::point::Point;
use crate::query::{Frame, Query, QueryResult};
use crate::value::FieldValue;
use pmove_obs::{Counter, Registry, Span};
use pmove_store::{MemDisk, RecoveryReport, Scrubber, StoreOptions, Vfs};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Buckets per shard in the Merkle summary. 16 shards x 32 buckets = 512
/// repairable ranges; a single divergent row re-streams 1/512th of the
/// keyspace, not the whole database.
pub(crate) const MERKLE_BUCKETS: usize = 32;

/// Shards of the Merkle summary. Fixed, so the `(shard, bucket)` ranges
/// replicas exchange mean the same cells on every node.
const MERKLE_SHARDS: usize = 16;

pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The Merkle shard of a series: FNV-1a over its key, modulo
/// [`MERKLE_SHARDS`].
pub(crate) fn merkle_shard(series_key: &str) -> usize {
    (fnv(FNV_BASIS, series_key.as_bytes()) % MERKLE_SHARDS as u64) as usize
}

/// Locator hash: decides *where* a row lives in the tree. Covers the
/// canonical series key and timestamp only, so two replicas holding
/// different values for the same row still compare the same bucket.
fn locator_bucket(canonical: &str, ts: i64) -> usize {
    let h = fnv(fnv(FNV_BASIS, canonical.as_bytes()), &ts.to_le_bytes());
    (h % MERKLE_BUCKETS as u64) as usize
}

/// Content hash: decides whether two cells are *identical*. Covers the
/// full tuple; float values hash by `to_bits`, making the comparison
/// bit-exact (NaN payloads and signed zeros included).
fn content_hash(canonical: &str, ts: i64, field: &str, value: &FieldValue) -> u64 {
    let mut h = fnv(FNV_BASIS, canonical.as_bytes());
    h = fnv(h, &[0xfe]);
    h = fnv(h, &ts.to_le_bytes());
    h = fnv(h, &[0xfd]);
    h = fnv(h, field.as_bytes());
    h = fnv(h, &[0xfc]);
    match value {
        FieldValue::Float(x) => fnv(fnv(h, &[0]), &x.to_bits().to_le_bytes()),
        FieldValue::Int(x) => fnv(fnv(h, &[1]), &x.to_le_bytes()),
        FieldValue::Bool(x) => fnv(h, &[2, u8::from(*x)]),
        FieldValue::Str(s) => fnv(fnv(h, &[3]), s.as_bytes()),
    }
}

/// Merkle summary of one shard: a leaf per bucket plus the shard root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShardTree {
    /// XOR-combined content hashes, one per bucket.
    pub leaves: Vec<u64>,
    /// FNV-1a over the leaf array.
    pub root: u64,
}

/// Merkle summary of a whole replica, one [`ShardTree`] per Merkle shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MerkleSnapshot {
    /// Per-shard trees, indexed by shard id.
    pub shards: Vec<ShardTree>,
}

impl MerkleSnapshot {
    /// Build the summary from a replica's current cell space.
    pub(crate) fn of(db: &Database) -> MerkleSnapshot {
        let mut leaves = vec![[0u64; MERKLE_BUCKETS]; MERKLE_SHARDS];
        db.for_each_cell(&mut |key, ts, field, value| {
            let canonical = key.canonical();
            let shard = merkle_shard(&canonical);
            let bucket = locator_bucket(&canonical, ts);
            leaves[shard][bucket] ^= content_hash(&canonical, ts, field, value);
        });
        let shards = leaves
            .into_iter()
            .map(|ls| {
                let mut root = FNV_BASIS;
                for l in &ls {
                    root = fnv(root, &l.to_le_bytes());
                }
                ShardTree {
                    leaves: ls.to_vec(),
                    root,
                }
            })
            .collect();
        MerkleSnapshot { shards }
    }

    /// Root over the whole replica.
    pub(crate) fn root(&self) -> u64 {
        let mut h = FNV_BASIS;
        for s in &self.shards {
            h = fnv(h, &s.root.to_le_bytes());
        }
        h
    }

    /// The `(shard, bucket)` ranges where two replicas diverge. Empty iff
    /// the replicas are bit-identical.
    pub(crate) fn diff(&self, other: &MerkleSnapshot) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (si, (a, b)) in self.shards.iter().zip(&other.shards).enumerate() {
            if a.root == b.root {
                continue;
            }
            for (bi, (la, lb)) in a.leaves.iter().zip(&b.leaves).enumerate() {
                if la != lb {
                    out.push((si, bi));
                }
            }
        }
        out
    }
}

/// Quorum and hint-queue configuration for a replica set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplConfig {
    /// Number of replicas (RF).
    pub replication_factor: usize,
    /// Acks required before a write counts as inserted (W).
    pub write_quorum: usize,
    /// Replicas consulted by a quorum read (R).
    pub read_quorum: usize,
    /// Field values a single replica's hint queue may hold before
    /// drop-oldest eviction (0 disables hinted handoff).
    pub hint_capacity_values: u64,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig {
            replication_factor: 3,
            write_quorum: 2,
            read_quorum: 2,
            hint_capacity_values: 4096,
        }
    }
}

impl ReplConfig {
    /// Validate quorum arithmetic: `1 <= W,R <= RF`. (W + R > RF gives read-your-writes after repair; smaller
    /// quorums are legal but only eventually consistent, so the default
    /// keeps W + R = 4 > 3 = RF.)
    pub(crate) fn validate(&self) -> Result<(), TsdbError> {
        let bad = |field: &str, got: usize| {
            Err(TsdbError::Replication(format!(
                "invalid {field}: {got} (rf={})",
                self.replication_factor
            )))
        };
        if self.replication_factor == 0 {
            return bad("replication_factor", 0);
        }
        if self.write_quorum == 0 || self.write_quorum > self.replication_factor {
            return bad("write_quorum", self.write_quorum);
        }
        if self.read_quorum == 0 || self.read_quorum > self.replication_factor {
            return bad("read_quorum", self.read_quorum);
        }
        Ok(())
    }
}

/// What a repair pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Anti-entropy rounds executed.
    pub rounds: u64,
    /// Divergent `(shard, bucket)` ranges re-streamed (counted per
    /// replica pair per round).
    pub ranges_repaired: u64,
    /// Field values shipped between replicas during repair.
    pub cells_streamed: u64,
    /// True when every replica pair's Merkle roots agreed on exit.
    pub converged: bool,
}

/// What one integrity sweep ([`ReplicaSet::scrub_and_repair`]) over the
/// whole set did: the scrub work, the durable loss it uncovered, and the
/// read-repair that healed it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IntegrityReport {
    /// Files (chunks + WALs) CRC-verified across all replicas.
    pub files_checked: u64,
    /// Bytes read and checksummed across all replicas.
    pub bytes_verified: u64,
    /// Chunks found damaged and quarantined this sweep.
    pub chunks_quarantined: u64,
    /// WAL logs rewritten losslessly from their memtables.
    pub wal_rewrites: u64,
    /// Cells (field values) the quarantines removed from replica state —
    /// measured as each victim's cell-count drop across its rebuild, so
    /// last-write-wins duplicates are never double-counted.
    pub cells_corrupted: u64,
    /// Cells restored onto damaged replicas by anti-entropy read-repair —
    /// measured as the victims' cell-count recovery, not stream volume.
    pub cells_repaired: u64,
    /// The anti-entropy work, when a repair ran.
    pub repair: RepairReport,
    /// True when every replica pair's Merkle roots agreed on exit.
    pub converged: bool,
}

/// Hoisted `tsdb.repl.*` repair metrics.
struct ReplSetObs {
    registry: Arc<Registry>,
    merkle_rounds: Counter,
    merkle_ranges_repaired: Counter,
    merkle_cells_streamed: Counter,
    scrub_chunks_quarantined: Counter,
    scrub_cells_corrupted: Counter,
    scrub_cells_repaired: Counter,
}

impl ReplSetObs {
    fn new(registry: &Arc<Registry>) -> ReplSetObs {
        ReplSetObs {
            registry: Arc::clone(registry),
            merkle_rounds: registry.counter("tsdb.repl.merkle_rounds", &[]),
            merkle_ranges_repaired: registry.counter("tsdb.repl.merkle_ranges_repaired", &[]),
            merkle_cells_streamed: registry.counter("tsdb.repl.merkle_cells_streamed", &[]),
            scrub_chunks_quarantined: registry.counter("tsdb.repl.scrub_chunks_quarantined", &[]),
            scrub_cells_corrupted: registry.counter("tsdb.repl.scrub_cells_corrupted", &[]),
            scrub_cells_repaired: registry.counter("tsdb.repl.scrub_cells_repaired", &[]),
        }
    }
}

/// A set of N replica databases plus the quorum configuration governing
/// them. See the module docs for the storage/routing split.
pub struct ReplicaSet {
    name: String,
    cfg: ReplConfig,
    replicas: Vec<Database>,
    disks: Vec<Arc<MemDisk>>,
    obs: ReplSetObs,
}

// Never empty: `ReplConfig::validate` rejects RF = 0.
#[allow(clippy::len_without_is_empty)]
impl ReplicaSet {
    /// In-memory replica set (no durable logs); mostly for tests.
    pub fn in_memory(name: impl Into<String>, cfg: ReplConfig) -> Result<ReplicaSet, TsdbError> {
        cfg.validate()?;
        let name = name.into();
        let replicas = (0..cfg.replication_factor)
            .map(|i| Database::new(format!("{name}-r{i}")))
            .collect();
        Ok(ReplicaSet {
            name,
            cfg,
            replicas,
            disks: Vec::new(),
            obs: ReplSetObs::new(&Registry::disabled()),
        })
    }

    /// Durable replica set: each replica gets its own seeded [`MemDisk`]
    /// (seed derived per replica from `seed`) and its own WAL + chunk
    /// files, so a crash or fault on one replica's disk never touches the
    /// others. Returns per-replica recovery reports.
    pub fn durable(
        name: impl Into<String>,
        cfg: ReplConfig,
        seed: u64,
        opts: StoreOptions,
    ) -> Result<(ReplicaSet, Vec<RecoveryReport>), TsdbError> {
        cfg.validate()?;
        let name = name.into();
        let mut replicas = Vec::with_capacity(cfg.replication_factor);
        let mut disks = Vec::with_capacity(cfg.replication_factor);
        let mut reports = Vec::with_capacity(cfg.replication_factor);
        for i in 0..cfg.replication_factor {
            // SplitMix64-style per-replica seed derivation.
            let s = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
            let disk = Arc::new(MemDisk::new(s));
            let vfs: Arc<dyn Vfs> = disk.clone();
            let (db, report) = Database::open(format!("{name}-r{i}"), vfs, opts)?;
            replicas.push(db);
            disks.push(disk);
            reports.push(report);
        }
        Ok((
            ReplicaSet {
                name,
                cfg,
                replicas,
                disks,
                obs: ReplSetObs::new(&Registry::disabled()),
            },
            reports,
        ))
    }

    /// Attach an observability registry: repair passes update the
    /// `tsdb.repl.merkle_*` counters.
    pub fn with_obs(mut self, registry: &Arc<Registry>) -> ReplicaSet {
        self.obs = ReplSetObs::new(registry);
        self
    }

    /// Replica-set name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Quorum configuration.
    pub fn config(&self) -> &ReplConfig {
        &self.cfg
    }

    /// Number of replicas (RF).
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// One replica database.
    pub fn replica(&self, i: usize) -> &Database {
        &self.replicas[i]
    }

    /// All replicas.
    pub fn replicas(&self) -> &[Database] {
        &self.replicas
    }

    /// Per-replica disks (durable sets only; empty when in-memory).
    pub fn disks(&self) -> &[Arc<MemDisk>] {
        &self.disks
    }

    /// Merkle summary of one replica.
    pub(crate) fn merkle(&self, i: usize) -> MerkleSnapshot {
        MerkleSnapshot::of(&self.replicas[i])
    }

    /// True when every replica pair's Merkle roots agree.
    pub fn converged(&self) -> bool {
        let roots: Vec<u64> = (0..self.len()).map(|i| self.merkle(i).root()).collect();
        roots.windows(2).all(|w| w[0] == w[1])
    }

    /// One anti-entropy round: every replica pair compares Merkle trees
    /// and exchanges the union of its divergent `(shard, bucket)` ranges
    /// in both directions. Last-write-wins row merge makes the exchange
    /// idempotent and order-independent; because all writes originate from
    /// a single coordinator, no two replicas can hold *different* values
    /// for the same (series, ts, field), so the union converges replicas
    /// bit-identically rather than merely reconciling them.
    pub(crate) fn anti_entropy_round(&self) -> Result<RepairReport, TsdbError> {
        let mut report = RepairReport {
            rounds: 1,
            ..RepairReport::default()
        };
        for i in 0..self.len() {
            for j in (i + 1)..self.len() {
                let div = self.merkle(i).diff(&self.merkle(j));
                if div.is_empty() {
                    continue;
                }
                report.ranges_repaired += div.len() as u64;
                let want: HashSet<(usize, usize)> = div.into_iter().collect();
                let from_i = collect_rows(&self.replicas[i], &want);
                let from_j = collect_rows(&self.replicas[j], &want);
                for p in from_i {
                    report.cells_streamed += p.field_count() as u64;
                    self.replicas[j]
                        .write(p, Origin::Remote, &Span::none(), 0)
                        .0?;
                }
                for p in from_j {
                    report.cells_streamed += p.field_count() as u64;
                    self.replicas[i]
                        .write(p, Origin::Remote, &Span::none(), 0)
                        .0?;
                }
            }
        }
        report.converged = self.converged();
        self.obs.merkle_rounds.inc();
        self.obs.merkle_ranges_repaired.add(report.ranges_repaired);
        self.obs.merkle_cells_streamed.add(report.cells_streamed);
        Ok(report)
    }

    /// Run anti-entropy rounds until the set converges or `max_rounds` is
    /// hit. A single round suffices for pairwise exchange of a union, so
    /// `converged` being false after 2+ rounds indicates a live writer.
    pub fn repair_until_converged(&self, max_rounds: u64) -> Result<RepairReport, TsdbError> {
        let mut total = RepairReport::default();
        for _ in 0..max_rounds {
            if self.converged() {
                break;
            }
            let r = self.anti_entropy_round()?;
            total.rounds += r.rounds;
            total.ranges_repaired += r.ranges_repaired;
            total.cells_streamed += r.cells_streamed;
        }
        total.converged = self.converged();
        Ok(total)
    }

    /// One background scrubber per replica, each verifying its store
    /// once every `period_s` virtual seconds.
    pub fn scrubbers(&self, period_s: f64) -> Vec<Scrubber> {
        (0..self.len()).map(|_| Scrubber::new(period_s)).collect()
    }

    /// One integrity sweep at virtual time `now_s`: tick every replica's
    /// scrubber, and for each replica that quarantined a chunk, rebuild
    /// its in-memory view from the surviving durable state (making the
    /// loss visible as Merkle divergence) and run anti-entropy until the
    /// set converges — read-repair from the R-quorum of healthy peers.
    /// A hole that outlives `max_rounds` of repair is annotated with
    /// `pmove_gap` markers on the damaged replicas instead of being
    /// silently dropped.
    ///
    /// `scrubbers` must hold one scrubber per replica (see
    /// [`ReplicaSet::scrubbers`]); each keeps its own pass state so
    /// replicas scrub independently.
    pub fn scrub_and_repair(
        &self,
        scrubbers: &mut [Scrubber],
        now_s: f64,
        max_rounds: u64,
    ) -> Result<IntegrityReport, TsdbError> {
        if scrubbers.len() != self.len() {
            return Err(TsdbError::Replication(format!(
                "{} scrubbers for {} replicas",
                scrubbers.len(),
                self.len()
            )));
        }
        let mut report = IntegrityReport::default();
        let mut victims = Vec::new();
        for (i, scrubber) in scrubbers.iter_mut().enumerate() {
            let r = match self.replicas[i].store() {
                Some(mut store) => scrubber.tick(&mut store, now_s)?,
                None => continue,
            };
            report.files_checked += r.files_checked;
            report.bytes_verified += r.bytes_verified;
            if r.wal.is_some_and(|w| w.corrupt_frames > 0) {
                report.wal_rewrites += 1;
            }
            if !r.quarantined.is_empty() {
                report.chunks_quarantined += r.quarantined.len() as u64;
                // One detection span per quarantined chunk, laid out
                // over the tick's modeled verification time.
                let start = (now_s * 1e9) as u64;
                let end = start + r.modeled_ns.max(1);
                for _ in &r.quarantined {
                    self.obs.registry.record_span("scrub.detect", start, end);
                }
                victims.push(i);
            }
        }
        // Turn each quarantine into visible divergence: replace the
        // victim's in-memory view with what actually survived on disk.
        for &i in &victims {
            let before = self.replicas[i].cell_count();
            self.replicas[i].rebuild_from_store()?;
            report.cells_corrupted += before.saturating_sub(self.replicas[i].cell_count());
        }
        if !victims.is_empty() {
            let base: Vec<u64> = victims
                .iter()
                .map(|&i| self.replicas[i].cell_count())
                .collect();
            report.repair = self.repair_until_converged(max_rounds)?;
            for (k, &i) in victims.iter().enumerate() {
                report.cells_repaired += self.replicas[i].cell_count().saturating_sub(base[k]);
            }
            if !report.repair.converged {
                for &i in &victims {
                    self.replicas[i].annotate_quarantine_gaps();
                }
            }
        }
        report.converged = self.converged();
        let o = &self.obs;
        o.scrub_chunks_quarantined.add(report.chunks_quarantined);
        o.scrub_cells_corrupted.add(report.cells_corrupted);
        o.scrub_cells_repaired.add(report.cells_repaired);
        Ok(report)
    }

    /// The replica an R-quorum read is served from: require at least R
    /// reachable replicas, consult the first R of them, and pick the
    /// freshest (most stored rows, ties to the lowest index —
    /// deterministic). After convergence every choice is bit-identical,
    /// so freshness only matters mid-repair.
    fn read_replica(&self, reachable: &[bool]) -> Result<&Database, TsdbError> {
        if reachable.len() != self.len() {
            return Err(TsdbError::Replication(format!(
                "reachability vector has {} entries for {} replicas",
                reachable.len(),
                self.len()
            )));
        }
        let up: Vec<usize> = (0..self.len()).filter(|&i| reachable[i]).collect();
        if up.len() < self.cfg.read_quorum {
            return Err(TsdbError::Replication(format!(
                "read quorum unreachable: {} of {} replicas up, R={}",
                up.len(),
                self.len(),
                self.cfg.read_quorum
            )));
        }
        let consulted = &up[..self.cfg.read_quorum];
        let mut best = consulted[0];
        for &i in consulted {
            if self.replicas[i].total_rows() > self.replicas[best].total_rows() {
                best = i;
            }
        }
        Ok(&self.replicas[best])
    }

    /// R-quorum read in an explicit execution mode, served from the
    /// freshest of the first R reachable replicas.
    pub fn quorum_read_with_mode(
        &self,
        q: &Query,
        reachable: &[bool],
        mode: ExecMode,
    ) -> Result<QueryResult, TsdbError> {
        self.read_replica(reachable)?.query_with_mode(q, mode)
    }

    /// [`ReplicaSet::quorum_read_with_mode`] returning the shared frame
    /// plus whether the chosen replica's result cache served it — the
    /// serving front-end's per-tenant hit accounting over quorum reads.
    pub fn quorum_read_cached(
        &self,
        q: &Query,
        reachable: &[bool],
        mode: ExecMode,
    ) -> Result<(std::sync::Arc<Frame>, bool), TsdbError> {
        self.read_replica(reachable)?.query_arc_cached(q, mode)
    }

    /// [`ReplicaSet::quorum_read_with_mode`] over query text with every
    /// replica reachable, in the replicas' default execution mode.
    pub fn quorum_read(&self, text: &str) -> Result<QueryResult, TsdbError> {
        let q = Query::parse(text)?;
        let reachable = vec![true; self.len()];
        let mode = self.replicas[0].exec_mode();
        self.quorum_read_with_mode(&q, &reachable, mode)
    }
}

impl std::fmt::Debug for ReplicaSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSet")
            .field("name", &self.name)
            .field("rf", &self.cfg.replication_factor)
            .field("durable", &!self.disks.is_empty())
            .finish()
    }
}

/// Rows of `db` falling in the wanted `(shard, bucket)` ranges,
/// re-assembled into points (one per series + timestamp).
fn collect_rows(db: &Database, want: &HashSet<(usize, usize)>) -> Vec<Point> {
    let mut rows: BTreeMap<(String, i64), Point> = BTreeMap::new();
    db.for_each_cell(&mut |key, ts, field, value| {
        let canonical = key.canonical();
        let shard = merkle_shard(&canonical);
        let bucket = locator_bucket(&canonical, ts);
        if !want.contains(&(shard, bucket)) {
            return;
        }
        let p = rows.entry((canonical, ts)).or_insert_with(|| Point {
            measurement: key.measurement.clone(),
            tags: key.tags.clone(),
            fields: BTreeMap::new(),
            timestamp: ts,
        });
        p.fields.insert(field.to_string(), value.clone());
    });
    rows.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(tag: &str, ts: i64, v: f64) -> Point {
        Point::new("m").tag("host", tag).field("v", v).timestamp(ts)
    }

    #[test]
    fn config_validation() {
        assert!(ReplConfig::default().validate().is_ok());
        let c = ReplConfig {
            write_quorum: 4,
            ..ReplConfig::default()
        };
        assert!(matches!(c.validate(), Err(TsdbError::Replication(_))));
        let c = ReplConfig {
            read_quorum: 0,
            ..ReplConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ReplConfig {
            replication_factor: 0,
            ..ReplConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn merkle_roots_deterministic_and_order_independent() {
        let a = Database::new("a");
        let b = Database::new("b");
        for t in 0..50 {
            a.write_point(pt(&format!("h{}", t % 5), t, t as f64))
                .unwrap();
        }
        // Same cells, reversed arrival order.
        for t in (0..50).rev() {
            b.write_point(pt(&format!("h{}", t % 5), t, t as f64))
                .unwrap();
        }
        let (ma, mb) = (MerkleSnapshot::of(&a), MerkleSnapshot::of(&b));
        assert_eq!(ma.root(), mb.root());
        assert!(ma.diff(&mb).is_empty());
    }

    #[test]
    fn merkle_detects_value_divergence() {
        let a = Database::new("a");
        let b = Database::new("b");
        a.write_point(pt("h0", 1, 1.0)).unwrap();
        b.write_point(pt("h0", 1, 2.0)).unwrap();
        let d = MerkleSnapshot::of(&a).diff(&MerkleSnapshot::of(&b));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn repair_converges_bit_identically() {
        let set = ReplicaSet::in_memory("s", ReplConfig::default()).unwrap();
        // Replica 1 misses a window of writes; 2 misses a different one.
        for t in 0..60 {
            for (i, r) in set.replicas().iter().enumerate() {
                let missed = (i == 1 && (20..30).contains(&t)) || (i == 2 && (40..50).contains(&t));
                if !missed {
                    r.write_point(pt(&format!("h{}", t % 3), t, (t as f64).sin()))
                        .unwrap();
                }
            }
        }
        assert!(!set.converged());
        let report = set.repair_until_converged(4).unwrap();
        assert!(report.converged);
        assert!(report.ranges_repaired > 0);
        assert!(report.cells_streamed >= 20);
        // Bit-identical: every replica answers every query the same.
        let q = "SELECT \"v\" FROM \"m\"";
        let r0 = set.replica(0).query(q).unwrap();
        for i in 1..set.len() {
            let ri = set.replica(i).query(q).unwrap();
            assert_eq!(r0.rows.len(), ri.rows.len());
            for (x, y) in r0.rows.iter().zip(&ri.rows) {
                assert_eq!(x.timestamp, y.timestamp);
                assert_eq!(
                    x.values["v"].map(f64::to_bits),
                    y.values["v"].map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn quorum_read_requires_r_reachable() {
        let set = ReplicaSet::in_memory("s", ReplConfig::default()).unwrap();
        for r in set.replicas() {
            r.write_point(pt("h0", 1, 1.0)).unwrap();
        }
        let q = Query::parse("SELECT \"v\" FROM \"m\"").unwrap();
        let ok = set.quorum_read_with_mode(&q, &[true, false, true], ExecMode::Sequential);
        assert_eq!(ok.unwrap().rows.len(), 1);
        let err = set.quorum_read_with_mode(&q, &[true, false, false], ExecMode::Sequential);
        assert!(matches!(err, Err(TsdbError::Replication(_))));
    }

    #[test]
    fn scrub_and_repair_heals_a_rotted_replica_bit_identically() {
        let (set, _) = ReplicaSet::durable(
            "s",
            ReplConfig::default(),
            11,
            StoreOptions {
                flush_threshold_rows: 1_000_000,
                compact_min_chunks: 1_000_000,
            },
        )
        .unwrap();
        for t in 0..30 {
            for r in set.replicas() {
                r.write_point(pt(&format!("h{}", t % 3), t, (t as f64).sin()))
                    .unwrap();
            }
        }
        for r in set.replicas() {
            r.flush().unwrap().unwrap();
        }
        let oracle = set.replica(0).query("SELECT \"v\" FROM \"m\"").unwrap();
        // Latent rot on replica 1's chunk namespace, fired at t=1s.
        set.disks()[1].schedule_rot(
            pmove_store::RotSchedule::none()
                .at(1.0, 1)
                .with_prefix("chunk-"),
        );
        set.disks()[1].advance_rot(1.0);
        let mut scrubbers = set.scrubbers(5.0);
        let mut total = IntegrityReport::default();
        let mut now = 1.0;
        while total.chunks_quarantined == 0 {
            let r = set.scrub_and_repair(&mut scrubbers, now, 4).unwrap();
            total.chunks_quarantined += r.chunks_quarantined;
            total.cells_corrupted += r.cells_corrupted;
            total.cells_repaired += r.cells_repaired;
            assert!(r.converged, "sweep at t={now} left the set diverged");
            now += 1.0;
            assert!(now < 100.0, "scrub never found the rotted chunk");
        }
        assert_eq!(total.chunks_quarantined, 1);
        assert_eq!(total.cells_corrupted, 30);
        // The widened conservation identity: every corrupted cell came
        // back via read-repair, none were silently lost.
        assert_eq!(total.cells_repaired, total.cells_corrupted);
        assert!(set.converged());
        // The repaired replica answers bit-identically to the oracle.
        let healed = set.replica(1).query("SELECT \"v\" FROM \"m\"").unwrap();
        assert_eq!(healed.rows.len(), oracle.rows.len());
        for (a, b) in oracle.rows.iter().zip(&healed.rows) {
            assert_eq!(
                a.values["v"].map(f64::to_bits),
                b.values["v"].map(f64::to_bits)
            );
        }
        // Repair re-entered as remote writes, which keep the WAL barrier:
        // the healed cells are durable again.
        assert!(set.replica(1).is_durable());
    }

    #[test]
    fn durable_replicas_use_private_disks() {
        let (set, reports) =
            ReplicaSet::durable("s", ReplConfig::default(), 7, StoreOptions::default()).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(set.disks().len(), 3);
        for r in set.replicas() {
            assert!(r.is_durable());
            r.write_point(pt("h0", 1, 1.0)).unwrap();
        }
        assert!(set.converged());
        // A remote write keeps the WAL barrier: remote rows are durable too.
        let remote = set
            .replica(0)
            .write(pt("h1", 2, 2.0), Origin::Remote, &Span::none(), 0);
        remote.0.unwrap();
        assert_eq!(set.replica(0).total_rows(), 2);
    }
}
