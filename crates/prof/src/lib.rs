//! # webiq-prof — always-on performance attribution for WebIQ
//!
//! The layer *beside* `webiq-trace`: where trace records what the
//! pipeline *did* (deterministically, byte-identical at any worker
//! count), prof records what it *cost* — lock contention, cache
//! effectiveness, per-worker load balance, and per-stage wall-clock.
//! Those quantities are inherently scheduling-dependent, so they are
//! kept strictly out of the deterministic trace/obs stream and
//! accumulated in one process-wide atomic registry instead. The split
//! has two planes:
//!
//! - **Counting plane** ([`counters`]): lock acquisition/contention
//!   tallies from the engine's cache shards, cache hit/miss/eviction
//!   attribution per cache, and per-worker items/queries with peak
//!   counters for imbalance diagnosis. Cheap relaxed atomics, always on.
//! - **Timing plane** ([`timing`]): per-stage monotonic timers (engine
//!   query, extract, verify, borrow, bayes, probe, cluster-merge).
//!   Wall-clock reads are confined to `timing.rs` — the sanctioned
//!   module name the workspace lint exempts — so the flow-taint pass
//!   still certifies that no wall-clock value leaks into the
//!   deterministic streams.
//!
//! A [`ProfSnapshot`] is a point-in-time copy of everything. The live
//! `/metrics` endpoint renders it as `webiq_prof_*` Prometheus series
//! (`webiq_obs::prom::render_prof`), and `webiq-benchmark` reads lock
//! contention, cache hit ratio and duplicate round-trips from it. The
//! registry cannot be switched off, so every `webiq-benchmark` pass
//! includes its cost.
//!
//! Like every library crate in the workspace, webiq-prof is
//! dependency-free and panic-free.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod counters;
pub mod timing;

pub use counters::{
    add, incr, record_peak, record_worker, reset, snapshot, ProfCounter, ProfSnapshot, Stage,
    NUM_PROF_COUNTERS, NUM_STAGES,
};
pub use timing::time;
