//! The live metrics registry the pipeline publishes into.
//!
//! [`LiveRegistry`] is the bridge between the acquisition pipeline's
//! deterministic merge loop and the `/metrics` endpoint: as each work
//! item's thread-local delta is merged (in attribute order), the loop
//! also calls [`LiveRegistry::publish_item`]; at each epoch boundary it
//! calls [`LiveRegistry::end_epoch`]. Because the registry only ever
//! sees those deterministic deltas — never raw worker-thread or engine
//! cache state — a scrape taken after a run completes is byte-identical
//! at any worker count.
//!
//! Everything the registry holds sits behind one mutex, taken once per
//! published item and once per scrape. Items are published from the
//! single merge thread, so the lock is uncontended, and every scrape is
//! one consistent cut: its counters, histograms and item count all
//! describe the same prefix of published items, even mid-run. Both
//! operations sit far off the per-query hot path (the benchmark's
//! `observed` workload measures them with the other optional layers).

use std::sync::{Mutex, MutexGuard};

use webiq_trace::{Gauge, GaugeSet, HistSet, MetricSet};

use crate::prom;
use crate::window::WindowedMetrics;

/// Epochs a registry's sliding window spans by default.
pub const DEFAULT_WINDOW: usize = 8;

/// Recover a mutex guard even if a panicking thread poisoned the lock —
/// the registry stays scrapeable (this library never panics).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// State behind the registry's single mutex.
#[derive(Debug)]
struct Inner {
    counters: MetricSet,
    items: u64,
    gauges: GaugeSet,
    hists: HistSet,
    window: WindowedMetrics,
}

/// Aggregated live metrics, fed by the pipeline and scraped by
/// [`crate::MetricsServer`].
#[derive(Debug)]
pub struct LiveRegistry {
    inner: Mutex<Inner>,
}

impl Default for LiveRegistry {
    fn default() -> Self {
        LiveRegistry::new()
    }
}

impl LiveRegistry {
    /// A registry with the [`DEFAULT_WINDOW`]-epoch sliding window.
    pub fn new() -> Self {
        LiveRegistry::with_window(DEFAULT_WINDOW)
    }

    /// A registry whose sliding window spans `window` epochs.
    pub fn with_window(window: usize) -> Self {
        LiveRegistry {
            inner: Mutex::new(Inner {
                counters: MetricSet::new(),
                items: 0,
                gauges: GaugeSet::new(),
                hists: HistSet::new(),
                window: WindowedMetrics::new(window),
            }),
        }
    }

    /// Fold one completed work item's counter and histogram deltas into
    /// the registry. Called from the pipeline's merge loop, once per
    /// item, in deterministic order.
    pub fn publish_item(&self, counters: &MetricSet, hists: &HistSet) {
        let mut inner = lock(&self.inner);
        inner.counters.merge(counters);
        inner.hists.merge(hists);
        inner.items = inner.items.saturating_add(1);
    }

    /// Record a dataset-shape gauge (the maximum recorded is kept).
    pub fn gauge(&self, g: Gauge, v: u64) {
        lock(&self.inner).gauges.set(g, v);
    }

    /// Mark an epoch boundary (one domain's acquisition finished): the
    /// current cumulative counters enter the sliding window.
    pub fn end_epoch(&self) {
        let mut inner = lock(&self.inner);
        let cumulative = inner.counters;
        inner.window.push(cumulative);
    }

    /// Work items published so far.
    pub fn items(&self) -> u64 {
        lock(&self.inner).items
    }

    /// A consistent copy of everything the registry holds, taken under
    /// its one lock.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = lock(&self.inner);
        RegistrySnapshot {
            counters: inner.counters,
            gauges: inner.gauges,
            hists: inner.hists,
            window_delta: inner.window.delta(),
            window_epochs: inner.window.len(),
            epochs: inner.window.total_epochs(),
            items: inner.items,
        }
    }

    /// The registry rendered in Prometheus text exposition format.
    ///
    /// This render is a pure function of the published deltas — it is
    /// what deterministic artifacts (baselines, trace-diff inputs) must
    /// be built from.
    pub fn render(&self) -> String {
        prom::render(&self.snapshot())
    }

    /// [`render`](LiveRegistry::render) plus the process-wide profiling
    /// appendix (`webiq_prof_*` families from [`webiq_prof::snapshot`]).
    ///
    /// The appendix reports scheduling-dependent facts — lock
    /// contention, cache traffic, per-stage wall-clock — so this render
    /// is **not** deterministic across runs or thread counts. It is what
    /// the live `/metrics` endpoint serves; anything that needs
    /// byte-stable output must use [`render`](LiveRegistry::render) or
    /// strip the `webiq_prof_` families from a scrape.
    pub fn render_live(&self) -> String {
        let mut out = self.render();
        out.push_str(&prom::render_prof(&webiq_prof::snapshot()));
        out
    }
}

/// A point-in-time copy of a [`LiveRegistry`], ready for rendering.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// Cumulative counters.
    pub counters: MetricSet,
    /// Dataset-shape gauges (max-merged).
    pub gauges: GaugeSet,
    /// Cumulative histograms.
    pub hists: HistSet,
    /// Counter deltas across the sliding window.
    pub window_delta: MetricSet,
    /// Epochs the window currently covers.
    pub window_epochs: usize,
    /// Epoch boundaries seen over the registry's lifetime.
    pub epochs: u64,
    /// Work items published.
    pub items: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use webiq_trace::{Counter, HistKey};

    #[test]
    fn publish_accumulates_counters_hists_and_items() {
        let reg = LiveRegistry::new();
        let mut m = MetricSet::new();
        m.add(Counter::ProbesIssued, 3);
        let mut h = HistSet::new();
        h.observe(HistKey::ProbesPerAttr, 3);
        reg.publish_item(&m, &h);
        reg.publish_item(&m, &HistSet::new());
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get(Counter::ProbesIssued), 6);
        assert_eq!(snap.hists.count(HistKey::ProbesPerAttr), 1);
        assert_eq!(snap.items, 2);
    }

    #[test]
    fn gauges_max_merge() {
        let reg = LiveRegistry::new();
        reg.gauge(Gauge::Interfaces, 5);
        reg.gauge(Gauge::Interfaces, 3);
        assert_eq!(reg.snapshot().gauges.get(Gauge::Interfaces), 5);
    }

    #[test]
    fn epochs_feed_the_window() {
        let reg = LiveRegistry::with_window(2);
        let mut m = MetricSet::new();
        m.add(Counter::AttrsTotal, 4);
        reg.publish_item(&m, &HistSet::new());
        reg.end_epoch();
        reg.publish_item(&m, &HistSet::new());
        reg.end_epoch();
        let snap = reg.snapshot();
        assert_eq!(snap.epochs, 2);
        assert_eq!(snap.window_epochs, 2);
        assert_eq!(snap.window_delta.get(Counter::AttrsTotal), 8);
    }

    #[test]
    fn every_snapshot_is_one_consistent_cut() {
        const ITEMS: u64 = 2_000;
        let reg = LiveRegistry::new();
        let mut m = MetricSet::new();
        m.add(Counter::ProbesIssued, 1);
        let mut h = HistSet::new();
        h.observe(HistKey::ProbesPerAttr, 1);
        let cut_is_consistent = |snap: &RegistrySnapshot| {
            let probes = snap.counters.get(Counter::ProbesIssued);
            probes == snap.items && probes == snap.hists.count(HistKey::ProbesPerAttr)
        };
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let publisher = s.spawn(|| {
                start.wait();
                for _ in 0..ITEMS {
                    reg.publish_item(&m, &h);
                }
            });
            start.wait();
            while !publisher.is_finished() {
                let snap = reg.snapshot();
                assert!(cut_is_consistent(&snap), "torn scrape: {snap:?}");
            }
        });
        let last = reg.snapshot();
        assert!(cut_is_consistent(&last));
        assert_eq!(last.items, ITEMS);
    }
}
