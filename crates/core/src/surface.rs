//! The Surface component (§2): discover up to `k` instances for an
//! attribute from the (simulated) Surface Web — extraction phase followed
//! by verification phase.

use webiq_trace::HistKey;
use webiq_web::QueryEngine;

use crate::config::WebIQConfig;
use crate::extract::{self, CompletionMemo, DomainInfo};
use crate::patterns;
use crate::verify::{self, ValidatedInstance};

/// Result of running the Surface component on one attribute.
#[derive(Debug, Clone, Default)]
pub struct SurfaceResult {
    /// Validated instances, best first (≤ `k`).
    pub instances: Vec<ValidatedInstance>,
    /// Raw candidates extracted before verification.
    pub candidates_extracted: usize,
    /// Candidates removed as statistical outliers.
    pub outliers_removed: usize,
    /// Candidates removed by Web validation.
    pub validation_removed: usize,
    /// Extraction queries posed to the engine.
    pub extraction_queries: usize,
}

impl SurfaceResult {
    /// Did the component gather at least `k` instances (the paper's
    /// success criterion for instance acquisition)?
    pub fn successful(&self, k: usize) -> bool {
        self.instances.len() >= k
    }

    /// The instance texts only.
    pub fn texts(&self) -> Vec<String> {
        self.instances.iter().map(|i| i.text.clone()).collect()
    }
}

/// Run the Surface component for `label`. Observes the per-attribute
/// candidate yield in the `candidates_per_attr` trace histogram; the
/// nested extraction and verification phases record their own spans and
/// counters. Extraction reads and fills `memo`, which may be shared by
/// every attribute of a domain.
pub fn discover<E: QueryEngine>(
    engine: &E,
    label: &str,
    info: &DomainInfo,
    cfg: &WebIQConfig,
    memo: &CompletionMemo,
) -> SurfaceResult {
    let outcome = extract::extract_candidates(engine, label, info, cfg, memo);
    webiq_trace::observe(HistKey::CandidatesPerAttr, outcome.candidates.len() as u64);
    if outcome.candidates.is_empty() {
        return SurfaceResult {
            extraction_queries: outcome.queries,
            ..SurfaceResult::default()
        };
    }
    let np = extract::primary_noun_phrase(label);
    let phrases = patterns::validation_phrases(label, np.as_ref());
    let candidates: Vec<String> = outcome.candidates.iter().map(|c| c.text.clone()).collect();
    let verified = verify::verify_candidates(engine, &phrases, &candidates, cfg);
    SurfaceResult {
        instances: verified.instances,
        candidates_extracted: candidates.len(),
        outliers_removed: verified.outliers_removed,
        validation_removed: verified.validation_removed,
        extraction_queries: outcome.queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webiq_data::{corpus, kb};
    use webiq_web::{gen, Corpus, GenConfig, SearchEngine};

    fn airfare_engine() -> SearchEngine {
        let def = kb::domain("airfare").expect("domain");
        let specs = corpus::concept_specs(def);
        let corpus = gen::generate(&specs, &GenConfig::default());
        SearchEngine::new(corpus)
    }

    fn airfare_info() -> DomainInfo {
        DomainInfo {
            object: "flight".into(),
            domain_terms: vec!["airfare".into()],
            sibling_terms: Vec::new(),
        }
    }

    #[test]
    fn discovers_cities_for_departure_city() {
        let engine = airfare_engine();
        let cfg = WebIQConfig::default();
        let result = discover(
            &engine,
            "Departure city",
            &airfare_info(),
            &cfg,
            &CompletionMemo::new(),
        );
        assert!(
            result.successful(cfg.k),
            "only {} instances: {:?}",
            result.instances.len(),
            result.texts()
        );
        // all results are real cities from the pool
        for inst in result.texts() {
            assert!(
                kb::pools::CITIES
                    .iter()
                    .any(|c| c.eq_ignore_ascii_case(&inst)),
                "{inst} is not a city"
            );
        }
    }

    #[test]
    fn prepositional_label_discovers_via_inner_np() {
        let engine = airfare_engine();
        let cfg = WebIQConfig::default();
        let result = discover(
            &engine,
            "From city",
            &airfare_info(),
            &cfg,
            &CompletionMemo::new(),
        );
        assert!(!result.instances.is_empty(), "no instances for 'From city'");
    }

    #[test]
    fn bare_preposition_fails_fast() {
        let engine = airfare_engine();
        let result = discover(
            &engine,
            "From",
            &airfare_info(),
            &WebIQConfig::default(),
            &CompletionMemo::new(),
        );
        assert!(result.instances.is_empty());
        assert_eq!(result.extraction_queries, 0);
    }

    #[test]
    fn airline_discovery_spans_both_pools() {
        let engine = airfare_engine();
        let cfg = WebIQConfig::default();
        let result = discover(
            &engine,
            "Airline",
            &airfare_info(),
            &cfg,
            &CompletionMemo::new(),
        );
        assert!(result.successful(cfg.k), "got {:?}", result.texts());
        let texts = result.texts();
        let has = |pool: &[&str]| {
            texts
                .iter()
                .any(|t| pool.iter().any(|p| p.eq_ignore_ascii_case(t)))
        };
        assert!(has(kb::pools::AIRLINES_NA) || has(kb::pools::AIRLINES_EU));
    }

    #[test]
    fn unknown_concept_finds_nothing() {
        let engine = airfare_engine();
        let result = discover(
            &engine,
            "Spacecraft registry",
            &airfare_info(),
            &WebIQConfig::default(),
            &CompletionMemo::new(),
        );
        assert!(result.instances.is_empty());
    }

    #[test]
    fn empty_web_finds_nothing() {
        let engine = SearchEngine::new(Corpus::default());
        let result = discover(
            &engine,
            "Departure city",
            &airfare_info(),
            &WebIQConfig::default(),
            &CompletionMemo::new(),
        );
        assert!(result.instances.is_empty());
        assert!(result.extraction_queries > 0);
    }
}
