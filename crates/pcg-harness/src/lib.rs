//! # pcg-harness
//!
//! The PCGBench evaluation pipeline (paper §7): generate candidates from
//! the synthetic model zoo, "build" them, run them on the right
//! substrate, validate against the handwritten sequential baselines,
//! time them across resource counts, and aggregate the paper's metrics.
//!
//! The pipeline mirrors the paper's harness decisions:
//!
//! * a candidate is incorrect if it fails to build, crashes, exceeds the
//!   time limit, produces a wrong answer, **or never touches its
//!   required parallel programming model** (checked here via substrate
//!   instrumentation counters rather than string matching),
//! * `pass@1`-family metrics use 20 samples at temperature 0.2;
//!   `pass@k` for `k > 1` uses 200 samples at temperature 0.8, with the
//!   closed-source models excluded from the high-temperature runs (the
//!   paper skipped them for cost),
//! * performance ratios compare against the sequential baseline
//!   (`T*/T`), with Search problems excluded from performance metrics
//!   (the paper's super-linear-speedup footnote).
//!
//! Figure/table regenerators live in `src/bin/` — one binary per paper
//! artifact — all driven by [`pipeline::load_or_run_opts`] which
//! caches the full evaluation record as JSON.
//!
//! Evaluation fans the (model × task) grid over a work-stealing worker
//! pool ([`scheduler`]); `--jobs N` / `PCG_JOBS` picks the worker
//! count, and records are byte-identical at any setting because every
//! sample stream is keyed by grid coordinates, never worker identity.
//!
//! The grid itself is **cell-addressed** (`pcg_core::plan`): every
//! (config, model, task) cell has a globally stable [`pcg_core::CellId`],
//! and a deterministic `WorkPlan` enumerates and partitions the grid.
//! That makes evaluation multi-process for free — `--shard k/N` runs
//! one coordination-free slice into its own write-ahead journal
//! ([`shard`]), and a merge step stitches shard journals into records
//! byte-identical to a single-process run.

pub mod codec;
pub mod colstats;
pub mod config;
pub mod eval;
pub mod expected;
pub mod journal;
pub mod pipeline;
pub mod record;
pub mod report;
pub mod runner;
pub mod scheduler;
pub mod shard;

pub use config::EvalConfig;
pub use record::{EvalRecord, EvalStats, ModelRecord, TaskRecord};
pub use runner::{Baseline, Outcome, Runner, SharedRunner};
