//! # pmove-bench — experiment drivers and reproduction harness
//!
//! One module per table/figure of the paper's evaluation (§V) and per
//! deterministic system experiment. Each module exposes a structured
//! `run*` API plus a `format*` renderer; the single `pmove-bench
//! <experiment>` binary (`src/main.rs`) prints the rendered output and
//! enforces the experiment's gates, and `EXPERIMENTS.md` records the
//! paper-vs-measured comparison. Wall-clock performance is measured by
//! `benchmark/`, not here.
//!
//! | module | `pmove-bench` name | reproduces |
//! |---|---|---|
//! | [`table1`] | `table1` | Table I — Intel vs AMD PMU event mapping |
//! | [`table2`] | `table2` | Table II — platform specifications (probe output) |
//! | [`table3`] | `table3` | Table III — sampling throughput and losses |
//! | [`table4`] | `table4 [scale]` | Table IV — the sparse-matrix suite |
//! | [`fig4`]   | `fig4` | Fig. 4 — sampled-vs-ground-truth relative errors |
//! | [`fig5`]   | `fig5` | Fig. 5 — profiling time overhead |
//! | [`fig6`]   | `fig6` | Fig. 6 — PCP agent resource usage |
//! | [`fig7`]   | `fig7 [scale]` | Fig. 7 — live PMU events during SpMV (MKL vs Merge) |
//! | [`fig8`]   | `fig8 [scale]` | Fig. 8 — live-CARM during SpMV |
//! | [`fig9`]   | `fig9` | Fig. 9 — live-CARM during likwid benchmarks |
//! | [`variability`] | `variability` | DVFS/AVX-throttling variability study |
//! | [`ablation`] | `ablations` | capacity, multiplexing, partition-skew ablations |
//! | [`storage`] | `storage` | chunk compression and modeled recovery time |
//! | [`chaos`]  | `chaos` | loss and recovery under injected faults |
//! | [`replication`] | `replication` | loss-vs-RF curve through the quorum coordinator |
//! | [`scrub`]  | `scrub` | latent-rot detection and read-repair |
//! | [`serving`] | `serving` | multi-tenant coalescing and overload admission |
//! | [`tracing`] | `tracing` | golden trace trees, SLO timeline, tracer overhead |
#![forbid(unsafe_code)]

pub mod ablation;
pub mod chaos;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod replication;
pub mod scrub;
pub mod serving;
pub mod storage;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod tracing;
pub mod variability;
