//! The movie extension domain: evidence that the whole pipeline — dataset
//! generation, corpus generation, acquisition, matching — is
//! domain-agnostic. Not part of any paper artifact.

use webiq::core::Components;
use webiq::data::kb;
use webiq::pipeline::DomainPipeline;

#[test]
fn movie_domain_runs_end_to_end() {
    let p = DomainPipeline::build("movie", 0x1ce0).expect("movie is registered");
    assert_eq!(p.dataset.interfaces.len(), 20);
    let base = p.baseline_f1();
    let webiq = p.webiq_f1(Components::ALL, 0.0).expect("acquisition");
    assert!(base.f1 > 0.5, "baseline sane: {:.3}", base.f1);
    assert!(
        webiq.f1 >= base.f1 - 0.02,
        "WebIQ must not hurt the extension domain: {:.3} -> {:.3}",
        base.f1,
        webiq.f1
    );
}

#[test]
fn movie_domain_not_in_paper_experiments() {
    assert!(!kb::all_domains().iter().any(|d| d.key == "movie"));
}

#[test]
fn movie_surface_acquisition_finds_directors() {
    use webiq::core::{surface, CompletionMemo, DomainInfo, WebIQConfig};
    use webiq::data::corpus;
    use webiq::web::{gen, GenConfig, SearchEngine};

    let def = kb::domain("movie").expect("movie");
    let engine = SearchEngine::new(gen::generate(
        &corpus::concept_specs(def),
        &GenConfig::default(),
    ));
    let info = DomainInfo {
        object: def.object.to_string(),
        domain_terms: def.domain_terms.iter().map(|s| (*s).to_string()).collect(),
        sibling_terms: Vec::new(),
    };
    let found = surface::discover(
        &engine,
        "Director",
        &info,
        &WebIQConfig::default(),
        &CompletionMemo::new(),
    );
    assert!(
        !found.instances.is_empty(),
        "no directors discovered from the movie corpus"
    );
    for inst in found.texts() {
        assert!(
            kb::movie::DIRECTORS
                .iter()
                .any(|d| d.eq_ignore_ascii_case(&inst)),
            "{inst} is not a director"
        );
    }
}
