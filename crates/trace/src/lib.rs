//! # webiq-trace — deterministic structured tracing and pipeline metrics
//!
//! Observability for the WebIQ acquisition stack, built around one hard
//! requirement: **a trace must be byte-identical across runs and across
//! worker counts**, exactly like the acquisition output itself. That
//! rules out wall-clock timestamps and per-thread aggregation; instead:
//!
//! - spans are keyed by a *logical clock* — monotonic event sequence
//!   numbers assigned when work items are merged in deterministic
//!   (attribute) order, never on the worker threads that raced to
//!   produce them ([`tracer`]);
//! - metrics are typed [`Counter`]s / [`Gauge`]s / [`HistKey`]s recorded
//!   in thread-local [`MetricSet`]s whose per-item *deltas* are merged at
//!   scope-join ([`metrics`]);
//! - sinks are pluggable: [`MemorySink`] for tests and [`JsonlSink`]
//!   for durable traces ([`sink`]); a disabled tracer builds no events
//!   at all;
//! - [`json`] is the workspace's one JSON codec: the trace wire format,
//!   the committed `*.json` artifacts, and every report's `--json`
//!   output are written and read through it;
//! - [`report`] reads a trace back into run [`Totals`] and renders the
//!   per-domain funnel summary (attrs in → candidates → verified →
//!   borrowed → probed → matched), also available via the workspace's
//!   `webiq-report` binary.
//!
//! The crate records what the pipeline *did*. What it *cost* lives
//! elsewhere: engine cache traffic per engine in `webiq_web::EngineStats`,
//! lock, cache and stage time per process in `webiq_prof`. No wall-clock
//! reading happens here (`webiq-lint`'s `trace-hygiene` rule keeps
//! `Instant` and `SystemTime` out of the crate).
//!
//! The crate is dependency-free and panic-free, and sits below every
//! pipeline crate in the workspace graph so all of them can record into
//! it.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod tracer;

pub use event::Event;
pub use metrics::{Counter, Gauge, GaugeSet, HistKey, HistSet, MetricSet};
pub use report::Totals;
pub use sink::{JsonlSink, MemoryHandle, MemorySink, SharedBuf, TraceSink};
pub use tracer::{
    add, decision, hist_snapshot, incr, observe, snapshot, span, span_attr, ItemBuf, ItemTrace,
    SpanGuard, TraceScope, Tracer,
};
