//! # webiq-obs — operational monitoring for the WebIQ acquisition stack
//!
//! The layer *above* [`webiq_trace`]: where trace turns a run into a
//! deterministic event stream, obs turns the same typed metrics into
//! things an operator can watch and a CI pipeline can gate on.
//!
//! Three pieces:
//!
//! - **Live exposition** ([`live`], [`prom`], [`server`]): a
//!   [`LiveRegistry`] the acquisition pipeline publishes per-item metric
//!   deltas into, rendered in Prometheus text format and served over a
//!   plain-`std` HTTP endpoint ([`MetricsServer`]) at `/metrics` (plus a
//!   `/healthz` liveness probe). Because the registry is fed from the
//!   pipeline's deterministic merge loop — never from raw worker-thread
//!   state — a scrape taken after a run completes is byte-identical at
//!   any worker count, exactly like the trace itself. [`prom`] is the
//!   workspace's only Prometheus writer: it also renders the
//!   scheduling-dependent `webiq_prof_*` appendix the live endpoint adds
//!   ([`prom::render_prof`]).
//! - **Windowed aggregation** ([`window`]): [`WindowedMetrics`] keeps a
//!   ring of recent epoch snapshots and reports the counter delta across
//!   the window, so "what happened lately" is answerable without
//!   re-reading a whole trace.
//! - **Regression gating** ([`diff`](mod@diff)): [`diff::diff`] aggregates two
//!   JSONL traces ([`webiq_trace::report::aggregate_run`]) and lists
//!   every counter, funnel-stage rate and histogram quantile that
//!   differs. The pipeline is deterministic, so any delta is a
//!   regression; the `webiq-report diff` subcommand turns the verdict
//!   into an exit code CI can gate merges on.
//!
//! Like every library crate in the workspace the crate is
//! dependency-free and panic-free: no `unwrap`/`expect`/`panic!`, errors
//! flow through [`ObsError`].
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::string_slice
)]

pub mod diff;
pub mod error;
pub mod live;
pub mod prom;
pub mod server;
pub mod window;

pub use diff::{diff, diff_events, parse_jsonl, DiffReport};
pub use error::ObsError;
pub use live::{LiveRegistry, RegistrySnapshot};
pub use server::MetricsServer;
pub use window::WindowedMetrics;
