//! `AcquisitionReport` is *derived from* the trace counters, so the
//! report and the trace aggregate can never disagree. These tests pin
//! that contract: the report equals `AcquisitionReport::from_metrics`
//! over the counters aggregated from the emitted event stream, the
//! `webiq-report` funnel built from that stream carries the same
//! numbers, and the live registry fed by the same merge loop agrees.

use std::sync::Arc;

use webiq_core::{acquire, AcquisitionReport, Components, WebIQConfig};
use webiq_data::records::{build_deep_source, RecordOptions};
use webiq_data::{corpus, generate_domain, kb, GenOptions};
use webiq_obs::LiveRegistry;
use webiq_trace::event::Event;
use webiq_trace::{report, Gauge, Tracer};
use webiq_web::{gen, GenConfig, SearchEngine};

/// Acquisition over one seeded synthetic domain with a memory tracer
/// and a live registry attached.
fn run(domain: &str) -> (webiq_core::Acquisition, Vec<Event>, Arc<LiveRegistry>) {
    let def = kb::domain(domain).expect("domain");
    let ds = generate_domain(def, &GenOptions::default());
    let engine = SearchEngine::new(gen::generate(
        &corpus::concept_specs(def),
        &GenConfig::default(),
    ));
    let sources: Vec<_> = ds
        .interfaces
        .iter()
        .map(|i| build_deep_source(def, i, &RecordOptions::default()))
        .collect();
    let (tracer, handle) = Tracer::memory();
    let registry = Arc::new(LiveRegistry::new());
    let cfg = WebIQConfig {
        tracer,
        obs: Some(Arc::clone(&registry)),
        ..WebIQConfig::default()
    };
    let acq =
        acquire::acquire(&ds, def, &engine, &sources, Components::ALL, &cfg).expect("acquisition");
    (acq, handle.events(), registry)
}

#[test]
fn report_equals_trace_aggregate() {
    let (acq, events, registry) = run("book");

    // The event stream carries the report's counters: summing the close
    // deltas of the root spans reproduces them.
    let from_events = report::aggregate(&events);
    assert_eq!(acq.report, AcquisitionReport::from_metrics(&from_events));

    // The registry is fed the same per-item deltas, so it agrees too.
    assert_eq!(registry.snapshot().counters, from_events);
}

#[test]
fn funnel_totals_match_report() {
    let (acq, events, _) = run("airfare");
    let f = report::funnel(&report::aggregate(&events));
    assert_eq!(f.no_instance, acq.report.no_inst_attrs as u64);
    assert_eq!(f.surface_success, acq.report.surface_success as u64);
    assert_eq!(
        f.surface_deep_success,
        acq.report.surface_deep_success as u64
    );
    assert_eq!(
        f.attr_surface_enriched,
        acq.report.attr_surface_enriched as u64
    );
    assert_eq!(f.surface_queries, acq.report.surface_cost.engine_queries);
    assert_eq!(
        f.attr_surface_queries,
        acq.report.attr_surface_cost.engine_queries
    );
    assert_eq!(f.attr_deep_probes, acq.report.attr_deep_cost.probes);
    // The funnel narrows monotonically where the pipeline filters.
    assert!(f.attrs_total >= f.no_instance + f.predefined);
    assert!(f.candidates >= f.verified, "{f:?}");
    assert!(f.probed > 0, "{f:?}");
}

#[test]
fn disabled_tracer_still_yields_a_correct_report() {
    // Counters are always on (thread-local), so the derived report must
    // be identical whether the tracer records events or not.
    let traced = run("book").0.report;

    let def = kb::domain("book").expect("domain");
    let ds = generate_domain(def, &GenOptions::default());
    let engine = SearchEngine::new(gen::generate(
        &corpus::concept_specs(def),
        &GenConfig::default(),
    ));
    let sources: Vec<_> = ds
        .interfaces
        .iter()
        .map(|i| build_deep_source(def, i, &RecordOptions::default()))
        .collect();
    let cfg = WebIQConfig::default();
    let acq =
        acquire::acquire(&ds, def, &engine, &sources, Components::ALL, &cfg).expect("acquisition");
    assert_eq!(acq.report, traced);
}

#[test]
fn gauges_record_run_shape() {
    let (_, _, registry) = run("book");
    let g = registry.snapshot().gauges;
    assert!(g.get(Gauge::Interfaces) > 0);
    assert!(g.get(Gauge::Attributes) >= g.get(Gauge::Interfaces));
    assert!(g.get(Gauge::CorpusDocs) > 0);
}
