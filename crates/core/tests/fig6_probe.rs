//! Diagnostic: end-to-end Figure-6 shape (run with --nocapture).
use webiq_core::{acquire, Components, WebIQConfig};
use webiq_data::records::{build_deep_source, RecordOptions};
use webiq_data::{corpus, generate_domain, kb, GenOptions};
use webiq_match::{attributes_of, match_attributes, MatchConfig};
use webiq_web::{gen, GenConfig, SearchEngine};

#[test]
#[ignore] // diagnostic; run explicitly
fn fig6_shape() {
    for def in kb::all_domains() {
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

        let base = match_attributes(&attributes_of(&ds), &MatchConfig::default()).evaluate(&ds);

        let acq = acquire::acquire(
            &ds,
            def,
            &engine,
            &sources,
            Components::ALL,
            &WebIQConfig::default(),
        )
        .expect("acquisition");
        let mut attrs = attributes_of(&ds);
        for a in &mut attrs {
            a.values.extend(acq.instances_for(a.r).iter().cloned());
        }
        let webiq = match_attributes(&attrs, &MatchConfig::default()).evaluate(&ds);
        let t03 = match_attributes(&attrs, &MatchConfig::with_threshold(0.03)).evaluate(&ds);
        let t05 = match_attributes(&attrs, &MatchConfig::with_threshold(0.05)).evaluate(&ds);
        let t08 = match_attributes(&attrs, &MatchConfig::with_threshold(0.08)).evaluate(&ds);
        let t10 = match_attributes(&attrs, &MatchConfig::with_threshold(0.1)).evaluate(&ds);
        println!(
            "{:10} base={:.3} webiq={:.3} t03={:.3} t05={:.3} t08={:.3} t10={:.3} | P {:.3}->{:.3} surf={:.1}% sd={:.1}%",
            def.key, base.f1, webiq.f1, t03.f1, t05.f1, t08.f1, t10.f1,
            webiq.precision, t05.precision,
            acq.report.surface_success_rate(), acq.report.surface_deep_success_rate(),
        );
    }
}
