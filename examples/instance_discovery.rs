//! Walk through the Surface component (§2 of the paper) step by step for
//! attribute labels of different syntactic forms — the pipeline of Fig. 3:
//! label analysis → extraction queries → snippets → candidates → outlier
//! removal → Web validation.
//!
//! ```sh
//! cargo run --release --example instance_discovery
//! ```

use webiq::core::extract::{self, CompletionMemo, DomainInfo};
use webiq::core::{patterns, surface, verify, WebIQConfig};
use webiq::data::{corpus, kb};
use webiq::nlp::{classify_label, LabelForm};
use webiq::web::{gen, GenConfig, SearchEngine};

fn main() {
    let def = kb::domain("airfare").expect("airfare is a known domain");
    let engine = SearchEngine::new(gen::generate(
        &corpus::concept_specs(def),
        &GenConfig::default(),
    ));
    let info = DomainInfo {
        object: def.object.to_string(),
        domain_terms: def.domain_terms.iter().map(|s| (*s).to_string()).collect(),
        sibling_terms: Vec::new(),
    };
    let cfg = WebIQConfig::default();

    for label in [
        "Departure city",
        "From city",
        "From",
        "Depart from",
        "Class of service",
    ] {
        println!("── label: {label:?}");

        // 1. shallow syntactic analysis (§2.1)
        let form = classify_label(label);
        let form_name = match &form {
            LabelForm::NounPhrase(_) => "noun phrase",
            LabelForm::PrepPhrase { .. } => "prepositional phrase",
            LabelForm::VerbPhrase { .. } => "verb phrase",
            LabelForm::Conjunction(_) => "noun-phrase conjunction",
            LabelForm::Other => "other",
        };
        println!("   syntactic form: {form_name}");
        let nps = extract::label_noun_phrases(label);
        if nps.is_empty() {
            println!("   no noun phrase → extraction terminates (instances must be borrowed)");
            continue;
        }

        // 2. extraction queries from the Fig. 4 patterns
        let np = &nps[0];
        println!(
            "   noun phrase: {:?} (plural: {:?})",
            np.text(),
            np.plural_text()
        );
        for pattern in extract_patterns_preview(np, &info, &cfg) {
            println!("   query: {pattern}");
        }

        // 3–4. pose queries, extract candidates
        let memo = CompletionMemo::new();
        let outcome = extract::extract_candidates(&engine, label, &info, &cfg, &memo);
        println!(
            "   {} extraction queries → {} distinct candidates",
            outcome.queries,
            outcome.candidates.len()
        );

        // 5–6. verification: outliers, then PMI-based Web validation
        let result = surface::discover(&engine, label, &info, &cfg, &memo);
        println!(
            "   verification removed {} outliers, {} by Web validation",
            result.outliers_removed, result.validation_removed
        );
        for inst in result.instances.iter().take(5) {
            println!("   ✓ {:20} score {:.5}", inst.text, inst.score);
        }
        if result.instances.len() > 5 {
            println!("   … and {} more", result.instances.len() - 5);
        }
    }

    // Show a validation-score comparison like §2.2's make/Honda example.
    println!("── validation scores for label \"Airline\"");
    let np = extract::primary_noun_phrase("Airline").expect("noun label");
    let phrases = patterns::validation_phrases("Airline", Some(&np));
    let candidates = ["Delta", "Aer Lingus", "Economy", "Jan"];
    let scores = verify::confidences(&engine, &phrases, &candidates, true);
    for (candidate, score) in candidates.iter().zip(scores) {
        println!("   PMI({candidate:12}) = {score:.6}");
    }
}

/// Render the first few extraction queries for display.
fn extract_patterns_preview(
    np: &webiq::nlp::NounPhrase,
    info: &DomainInfo,
    cfg: &WebIQConfig,
) -> Vec<String> {
    patterns::extraction_patterns(np, &info.object)
        .iter()
        .take(3)
        .map(|p| extract::build_query(p, info, cfg))
        .collect()
}
