//! # webiq-fault — deterministic resilience substrate
//!
//! WebIQ's real dependencies were flaky and metered: the 2006 Google Web
//! API allowed ~1,000 queries a day, and Deep-Web form handlers routinely
//! timed out or answered 5xx pages. This crate models those obstacles —
//! and the client-side machinery that survives them — without giving up
//! the workspace's core guarantee that every run is a pure function of
//! its seeds:
//!
//! - [`FaultPlan`] injects transient/permanent server errors, timeouts,
//!   and rate-limit faults as a pure function of
//!   `(endpoint, query-key, attempt)`, so a retried call can genuinely
//!   recover yet every outcome is reproducible at any thread count;
//! - [`RetryPolicy`] implements capped exponential backoff with
//!   deterministic jitter, "sleeping" by advancing a [`VirtualClock`]
//!   instead of `thread::sleep` (clippy's `disallowed_methods` enforces
//!   this workspace-wide);
//! - [`RetryBudget`] caps how many retries one work item may spend,
//!   mirroring the paper's Fig. 8 query-cost accounting;
//! - [`CircuitBreaker`] is a per-endpoint closed/open/half-open breaker
//!   driven by the same virtual clock;
//! - [`QuotaTracker`] models the daily API quota and tells callers when
//!   to degrade PMI-based Web validation to statistics-only checks;
//! - [`DiskFaultPlan`] extends the same seeded-injection discipline to
//!   the storage layer: torn writes, short reads, ENOSPC, and
//!   rename/fsync failures, each a pure function of `(path, op,
//!   attempt)`, consumed by the `webiq-store` IO shim.
//!
//! Everything is dependency-free (only `webiq-rng`) and panic-free.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod breaker;
pub mod clock;
pub mod config;
pub mod disk;
pub mod plan;
pub mod quota;
pub mod retry;

pub use breaker::{BreakerState, CircuitBreaker};
pub use clock::VirtualClock;
pub use config::FaultConfig;
pub use disk::{DiskFaultKind, DiskFaultPlan, DiskOp};
pub use plan::{query_key, FaultKind, FaultPlan};
pub use quota::{QuotaTracker, GOOGLE_2006_DAILY_QUOTA};
pub use retry::{RetryBudget, RetryPolicy};
/// Re-exported so the layers above this crate (`webiq-deep`,
/// `webiq-core`) hash with the workspace's one FNV-1a without a direct
/// `webiq-rng` dependency.
pub use webiq_rng::Fnv64;
