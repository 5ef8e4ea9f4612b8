//! Robustness integration tests: source flakiness, corpus degradation,
//! and configuration extremes across the full pipeline.

use webiq::core::{acquire, Components, WebIQConfig};
use webiq::data::records::{build_deep_source, RecordOptions};
use webiq::data::{corpus, generate_domain, kb, GenOptions};
use webiq::deep::DeepSource;
use webiq::web::{gen, Corpus, GenConfig, SearchEngine};

fn dataset_and_engine(
    domain: &str,
) -> (
    &'static webiq::data::DomainDef,
    webiq::data::Dataset,
    SearchEngine,
) {
    let def = kb::domain(domain).expect("domain");
    let ds = generate_domain(def, &GenOptions::default());
    let engine = SearchEngine::new(gen::generate(
        &corpus::concept_specs(def),
        &GenConfig::default(),
    ));
    (def, ds, engine)
}

fn sources_with_failure(
    def: &webiq::data::DomainDef,
    ds: &webiq::data::Dataset,
    rate: f64,
) -> Vec<DeepSource> {
    ds.interfaces
        .iter()
        .map(|i| {
            build_deep_source(
                def,
                i,
                &RecordOptions {
                    failure_rate: rate,
                    ..RecordOptions::default()
                },
            )
        })
        .collect()
}

/// Flaky sources degrade Attr-Deep gracefully: success rates fall
/// monotonically-ish with the failure rate but never panic, and at total
/// failure Deep borrowing contributes nothing beyond Surface.
#[test]
fn failure_injection_degrades_gracefully() {
    let (def, ds, engine) = dataset_and_engine("airfare");
    let cfg = WebIQConfig::default();

    let healthy = acquire::acquire(
        &ds,
        def,
        &engine,
        &sources_with_failure(def, &ds, 0.0),
        Components::SURFACE_DEEP,
        &cfg,
    )
    .expect("acquisition");
    let broken = acquire::acquire(
        &ds,
        def,
        &engine,
        &sources_with_failure(def, &ds, 1.0),
        Components::SURFACE_DEEP,
        &cfg,
    )
    .expect("acquisition");
    assert!(
        healthy.report.surface_deep_success_rate() > broken.report.surface_deep_success_rate(),
        "healthy {:.1}% vs broken {:.1}%",
        healthy.report.surface_deep_success_rate(),
        broken.report.surface_deep_success_rate()
    );
    // with every probe failing, deep adds nothing over surface
    assert_eq!(
        broken.report.surface_deep_success,
        broken.report.surface_success
    );
}

/// An empty Surface Web yields zero Surface acquisitions but the pipeline
/// still completes; Deep borrowing survives because probing needs no
/// search engine.
#[test]
fn empty_web_only_deep_borrowing_works() {
    let def = kb::domain("airfare").expect("domain");
    let ds = generate_domain(def, &GenOptions::default());
    let engine = SearchEngine::new(Corpus::default());
    let sources = sources_with_failure(def, &ds, 0.0);
    let acq = acquire::acquire(
        &ds,
        def,
        &engine,
        &sources,
        Components::SURFACE_DEEP,
        &WebIQConfig::default(),
    )
    .expect("acquisition");
    assert_eq!(
        acq.report.surface_success, 0,
        "no Web, no Surface successes"
    );
    assert!(
        acq.report.surface_deep_success > 0,
        "Deep borrowing must still function: {:?}",
        acq.report
    );
}

/// k = 1 trivially succeeds more often than k = 10; k = 1000 never does.
#[test]
fn success_is_monotone_in_k() {
    let (def, ds, engine) = dataset_and_engine("book");
    let sources = sources_with_failure(def, &ds, 0.0);
    let rate = |k: usize| {
        let cfg = WebIQConfig {
            k,
            ..WebIQConfig::default()
        };
        acquire::acquire(&ds, def, &engine, &sources, Components::SURFACE, &cfg)
            .expect("acquisition")
            .report
            .surface_success_rate()
    };
    let r1 = rate(1);
    let r10 = rate(10);
    let r1000 = rate(1000);
    assert!(r1 >= r10, "k=1 {r1:.1}% vs k=10 {r10:.1}%");
    assert_eq!(r1000, 0.0, "nobody gathers a thousand instances");
}

/// Probing without any sources is a no-op, not a crash.
#[test]
fn no_sources_disables_attr_deep() {
    let (def, ds, engine) = dataset_and_engine("auto");
    let acq = acquire::acquire(
        &ds,
        def,
        &engine,
        &[],
        Components::SURFACE_DEEP,
        &WebIQConfig::default(),
    )
    .expect("acquisition");
    assert_eq!(acq.report.attr_deep_cost.probes, 0);
}

/// Acquired instances never include the empty string or absurdly long
/// artifacts (the outlier phase and plausibility filters at work).
#[test]
fn acquired_instances_are_clean() {
    let (def, ds, engine) = dataset_and_engine("realestate");
    let sources = sources_with_failure(def, &ds, 0.0);
    let acq = acquire::acquire(
        &ds,
        def,
        &engine,
        &sources,
        Components::ALL,
        &WebIQConfig::default(),
    )
    .expect("acquisition");
    for (r, values) in &acq.acquired {
        for v in values {
            assert!(!v.trim().is_empty(), "empty instance for {r:?}");
            assert!(v.len() <= 60, "overlong instance {v:?} for {r:?}");
        }
    }
}
