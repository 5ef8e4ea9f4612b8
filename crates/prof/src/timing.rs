//! The wall-clock timing plane — the only module in webiq-prof that
//! reads a clock.
//!
//! [`time`] brackets a closure with a monotonic [`Instant`] and credits
//! the elapsed nanoseconds to a [`Stage`] accumulator in the global
//! registry. Confining every clock read to this file keeps the
//! workspace's wall-clock hygiene auditable: clippy's
//! `disallowed_methods` admits the one read below by an `#[expect]`, and
//! the flow-taint pass, which exempts `timing.rs` by name, can certify
//! that timed values flow only into the profiling registry — never into
//! the deterministic trace/obs streams.

use std::time::Instant;

use crate::counters::{record_stage, Stage};

/// Run `f`, crediting its wall-clock to `stage`, and return its result.
///
/// The overhead is one `Instant::now` pair plus two relaxed atomic adds;
/// elapsed times beyond ~584 years saturate rather than wrap.
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "the profiling registry's one wall-clock read; timed values never enter the trace"
)]
pub fn time<R>(stage: Stage, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    record_stage(stage, nanos);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{reset, snapshot};

    #[test]
    fn time_records_nanos_and_calls_and_returns_value() {
        // Not under the counters test lock: only asserts monotone growth,
        // which concurrent tests cannot undo (reset() racing is excluded
        // by running this against deltas of a dedicated stage).
        let before = snapshot();
        let v = time(Stage::ClusterMerge, || 21 * 2);
        assert_eq!(v, 42);
        let after = snapshot();
        assert!(after.stage_calls(Stage::ClusterMerge) >= before.stage_calls(Stage::ClusterMerge));
        // a second timed call advances the call tally
        let c0 = snapshot().stage_calls(Stage::ClusterMerge);
        time(Stage::ClusterMerge, || ());
        assert!(snapshot().stage_calls(Stage::ClusterMerge) > c0);
        let _ = reset; // referenced: see counters tests for reset coverage
    }
}
