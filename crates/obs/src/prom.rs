//! Prometheus text exposition rendering — the workspace's only writer
//! of the format.
//!
//! [`render`] turns a [`RegistrySnapshot`] into the Prometheus text
//! format (version 0.0.4): one `# TYPE` header per family, counters
//! suffixed `_total`, histograms as cumulative `_bucket{le="…"}` series
//! derived from the trace layer's power-of-two buckets, and quantile
//! gauges computed by [`webiq_trace::HistSet::quantile`]. [`render_prof`]
//! writes the scheduling-dependent `webiq_prof_*` appendix the live
//! endpoint adds. Every family is emitted in a fixed order and
//! zero-valued series are not skipped, so two snapshots with equal
//! contents render byte-identically — the property the `/metrics`
//! determinism test pins.

use std::fmt::{Arguments, Write as _};

use webiq_prof::{ProfCounter, ProfSnapshot, Stage};
use webiq_trace::metrics::{bucket_bounds, NUM_BUCKETS};
use webiq_trace::{Counter, Gauge, HistKey};

use crate::live::RegistrySnapshot;

/// Metric-name prefix for every exported family.
const PREFIX: &str = "webiq";

/// Quantiles exported per histogram.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

/// Write one single-sample family `webiq_<name>`: its `# TYPE` line,
/// then the sample.
fn sample(out: &mut String, kind: &str, name: Arguments<'_>, value: u64) {
    let _ = writeln!(out, "# TYPE {PREFIX}_{name} {kind}");
    let _ = writeln!(out, "{PREFIX}_{name} {value}");
}

/// Render a snapshot in Prometheus text exposition format.
pub fn render(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();

    // Build identity, info-style: a constant `1` whose labels carry the
    // facts (here the crate version), so dashboards can join any series
    // against the version that produced it.
    let _ = writeln!(out, "# TYPE {PREFIX}_build_info gauge");
    let _ = writeln!(
        out,
        "{PREFIX}_build_info{{version=\"{}\"}} 1",
        env!("CARGO_PKG_VERSION")
    );

    // Pipeline counters, cumulative since process start.
    for c in Counter::ALL {
        let (name, v) = (c.name(), snap.counters.get(c));
        sample(&mut out, "counter", format_args!("{name}_total"), v);
    }

    // Dataset-shape gauges.
    for g in Gauge::ALL {
        let (name, v) = (g.name(), snap.gauges.get(g));
        sample(&mut out, "gauge", format_args!("{name}"), v);
    }

    // Progress meta-counters.
    let (items, epochs) = (snap.items, snap.epochs);
    sample(&mut out, "counter", format_args!("items_total"), items);
    sample(&mut out, "counter", format_args!("epochs_total"), epochs);

    // Sliding-window deltas (counters accumulated across the last N
    // epochs) — gauges, since they can fall as the window slides.
    let n = snap.window_epochs as u64;
    sample(&mut out, "gauge", format_args!("window_epochs"), n);
    for c in Counter::ALL {
        let (name, v) = (c.name(), snap.window_delta.get(c));
        sample(&mut out, "gauge", format_args!("window_{name}"), v);
    }

    // Histograms: cumulative le-buckets from the power-of-two layout,
    // plus nearest-rank quantile gauges (skipped while empty — there is
    // no meaningful quantile of nothing).
    for h in HistKey::ALL {
        let name = h.name();
        let _ = writeln!(out, "# TYPE {PREFIX}_{name} histogram");
        let mut cum = 0u64;
        for b in 0..NUM_BUCKETS {
            cum = cum.saturating_add(snap.hists.bucket(h, b));
            let le = match bucket_bounds(b).1 {
                Some(hi) => hi.to_string(),
                None => "+Inf".to_string(),
            };
            let _ = writeln!(out, "{PREFIX}_{name}_bucket{{le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{PREFIX}_{name}_count {}", snap.hists.count(h));
        if snap.hists.count(h) > 0 {
            for (p, label) in QUANTILES {
                if let Some(q) = snap.hists.quantile(h, p) {
                    let _ = writeln!(out, "{PREFIX}_{name}_quantile{{q=\"{label}\"}} {q}");
                }
            }
        }
    }

    out
}

/// Render the process-wide profiling registry: `webiq_prof_*_total`
/// counters, `webiq_prof_worker_max_*` peak gauges, and per-stage
/// `webiq_prof_stage_<name>_{nanos,calls}_total` accumulators. This is
/// the appendix [`crate::LiveRegistry::render_live`] serves; its values
/// depend on scheduling, so it is never part of a deterministic
/// artifact.
pub fn render_prof(snap: &ProfSnapshot) -> String {
    let mut out = String::new();
    for c in ProfCounter::ALL {
        let (name, v) = (c.name(), snap.get(c));
        if c.is_peak() {
            sample(&mut out, "gauge", format_args!("prof_{name}"), v);
        } else {
            sample(&mut out, "counter", format_args!("prof_{name}_total"), v);
        }
    }
    for s in Stage::ALL {
        let name = s.name();
        for (series, v) in [
            ("nanos", snap.stage_nanos(s)),
            ("calls", snap.stage_calls(s)),
        ] {
            let family = format_args!("prof_stage_{name}_{series}_total");
            sample(&mut out, "counter", family, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use webiq_trace::{GaugeSet, HistSet, MetricSet};

    fn snap() -> RegistrySnapshot {
        let mut counters = MetricSet::new();
        counters.add(Counter::ProbesIssued, 12);
        let mut gauges = GaugeSet::new();
        gauges.set(Gauge::Interfaces, 3);
        let mut hists = HistSet::new();
        for v in 1..=10 {
            hists.observe(HistKey::ProbesPerAttr, v);
        }
        RegistrySnapshot {
            counters,
            gauges,
            hists,
            window_delta: MetricSet::new(),
            window_epochs: 0,
            epochs: 1,
            items: 4,
        }
    }

    #[test]
    fn build_info_carries_the_crate_version() {
        let text = render(&snap());
        assert!(text.starts_with("# TYPE webiq_build_info gauge\n"));
        assert!(text.contains(&format!(
            "webiq_build_info{{version=\"{}\"}} 1\n",
            env!("CARGO_PKG_VERSION")
        )));
    }

    #[test]
    fn renders_counters_gauges_and_meta() {
        let text = render(&snap());
        assert!(text.contains("# TYPE webiq_probes_issued_total counter\n"));
        assert!(text.contains("webiq_probes_issued_total 12\n"));
        // Zero-valued families are present, not skipped.
        assert!(text.contains("webiq_cluster_merges_total 0\n"));
        assert!(text.contains("webiq_interfaces 3\n"));
        assert!(text.contains("webiq_items_total 4\n"));
        assert!(text.contains("webiq_epochs_total 1\n"));
    }

    #[test]
    fn renders_cumulative_buckets_and_quantiles() {
        let text = render(&snap());
        // Values 1..=10 land in buckets 1..=4; le-series are cumulative.
        assert!(text.contains("webiq_probes_per_attr_bucket{le=\"0\"} 0\n"));
        assert!(text.contains("webiq_probes_per_attr_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("webiq_probes_per_attr_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("webiq_probes_per_attr_bucket{le=\"7\"} 7\n"));
        assert!(text.contains("webiq_probes_per_attr_bucket{le=\"15\"} 10\n"));
        assert!(text.contains("webiq_probes_per_attr_bucket{le=\"+Inf\"} 10\n"));
        assert!(text.contains("webiq_probes_per_attr_count 10\n"));
        assert!(text.contains("webiq_probes_per_attr_quantile{q=\"0.5\"} 7\n"));
        assert!(text.contains("webiq_probes_per_attr_quantile{q=\"0.99\"} 15\n"));
        // The empty histogram exports buckets but no quantiles.
        assert!(text.contains("webiq_candidates_per_attr_count 0\n"));
        assert!(!text.contains("webiq_candidates_per_attr_quantile"));
    }

    #[test]
    fn equal_snapshots_render_identically() {
        assert_eq!(render(&snap()), render(&snap()));
    }

    #[test]
    fn prof_appendix_is_pinned_byte_for_byte() {
        let mut s = ProfSnapshot::new();
        s.set(ProfCounter::ShardLockAcquire, 42);
        s.set(ProfCounter::SearchCacheEvict, 7);
        s.set(ProfCounter::WorkerMaxQueries, 99);
        s.set_stage(Stage::EngineQuery, 123_456, 78);
        // 12 counter families, then nanos and calls for each of 7 stages.
        let expected = "\
# TYPE webiq_prof_lock_shard_acquire_total counter
webiq_prof_lock_shard_acquire_total 42
# TYPE webiq_prof_lock_shard_contended_total counter
webiq_prof_lock_shard_contended_total 0
# TYPE webiq_prof_search_cache_hit_total counter
webiq_prof_search_cache_hit_total 0
# TYPE webiq_prof_search_cache_miss_total counter
webiq_prof_search_cache_miss_total 0
# TYPE webiq_prof_search_cache_evict_total counter
webiq_prof_search_cache_evict_total 7
# TYPE webiq_prof_hit_cache_hit_total counter
webiq_prof_hit_cache_hit_total 0
# TYPE webiq_prof_hit_cache_miss_total counter
webiq_prof_hit_cache_miss_total 0
# TYPE webiq_prof_worker_runs_total counter
webiq_prof_worker_runs_total 0
# TYPE webiq_prof_worker_items_total counter
webiq_prof_worker_items_total 0
# TYPE webiq_prof_worker_queries_total counter
webiq_prof_worker_queries_total 0
# TYPE webiq_prof_worker_max_items gauge
webiq_prof_worker_max_items 0
# TYPE webiq_prof_worker_max_queries gauge
webiq_prof_worker_max_queries 99
# TYPE webiq_prof_stage_engine_query_nanos_total counter
webiq_prof_stage_engine_query_nanos_total 123456
# TYPE webiq_prof_stage_engine_query_calls_total counter
webiq_prof_stage_engine_query_calls_total 78
# TYPE webiq_prof_stage_extract_nanos_total counter
webiq_prof_stage_extract_nanos_total 0
# TYPE webiq_prof_stage_extract_calls_total counter
webiq_prof_stage_extract_calls_total 0
# TYPE webiq_prof_stage_verify_nanos_total counter
webiq_prof_stage_verify_nanos_total 0
# TYPE webiq_prof_stage_verify_calls_total counter
webiq_prof_stage_verify_calls_total 0
# TYPE webiq_prof_stage_borrow_nanos_total counter
webiq_prof_stage_borrow_nanos_total 0
# TYPE webiq_prof_stage_borrow_calls_total counter
webiq_prof_stage_borrow_calls_total 0
# TYPE webiq_prof_stage_bayes_nanos_total counter
webiq_prof_stage_bayes_nanos_total 0
# TYPE webiq_prof_stage_bayes_calls_total counter
webiq_prof_stage_bayes_calls_total 0
# TYPE webiq_prof_stage_probe_nanos_total counter
webiq_prof_stage_probe_nanos_total 0
# TYPE webiq_prof_stage_probe_calls_total counter
webiq_prof_stage_probe_calls_total 0
# TYPE webiq_prof_stage_cluster_merge_nanos_total counter
webiq_prof_stage_cluster_merge_nanos_total 0
# TYPE webiq_prof_stage_cluster_merge_calls_total counter
webiq_prof_stage_cluster_merge_calls_total 0
";
        assert_eq!(render_prof(&s), expected);
    }
}
