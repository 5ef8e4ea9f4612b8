//! The paper's running example (Fig. 1): interface Qa has `Airline` with
//! North-American instances, interface Qb has `Carrier` with European
//! ones. Their labels share no word and their instances barely overlap —
//! the baseline matcher cannot connect them. WebIQ bridges the gap two
//! ways:
//!
//! 1. **Attr-Surface** (§3): borrow `Aer Lingus` from `Carrier` and verify
//!    it for `Airline` with the validation-based naive Bayes classifier.
//! 2. **Attr-Deep** (§4): probe an airfare source with `from = Chicago`
//!    (succeeds) vs. `from = January` (fails).
//!
//! ```sh
//! cargo run --release --example airline_carrier
//! ```

use std::collections::BTreeMap;

use webiq::core::{attr_deep, attr_surface, WebIQConfig};
use webiq::data::{corpus, kb};
use webiq::deep::{analyze_response, DeepSource, ParamDomain, Record, RecordStore, SourceParam};
use webiq::matcher::{match_attributes, MatchAttribute, MatchConfig};
use webiq::web::{gen, GenConfig, SearchEngine};

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| (*s).to_string()).collect()
}

fn main() {
    let def = kb::domain("airfare").expect("airfare is a known domain");
    let engine = SearchEngine::new(gen::generate(
        &corpus::concept_specs(def),
        &GenConfig::default(),
    ));
    let cfg = WebIQConfig::default();

    // ── the two attributes of Fig. 1
    let airline_values = strings(&["Air Canada", "American", "Delta", "United"]);
    let carrier_values = strings(&["Aer Lingus", "Lufthansa", "Alitalia", "Iberia"]);

    let baseline = match_attributes(
        &[
            MatchAttribute {
                r: (0, 0),
                label: "Airline".into(),
                values: airline_values.clone(),
            },
            MatchAttribute {
                r: (1, 0),
                label: "Carrier".into(),
                values: carrier_values.clone(),
            },
        ],
        &MatchConfig::default(),
    );
    println!(
        "baseline: Airline and Carrier fall into {} clusters (no shared words, no shared values)",
        baseline.clusters.len()
    );

    // ── Attr-Surface: train the validation-based classifier for Airline.
    // Positives: Airline's own instances. Negatives: instances of the
    // sibling attributes on Qa (Class of service, Departure date, Adults).
    let negatives = strings(&["Economy", "First Class", "Jan", "1"]);
    let classifier = attr_surface::ValidationClassifier::train(
        &engine,
        "Airline",
        &airline_values,
        &negatives,
        &cfg,
    )
    .expect("training succeeds with 4 positives and 4 negatives");
    println!(
        "validation-based classifier trained; thresholds: {:?}",
        classifier.thresholds()
    );

    let mut accepted = Vec::new();
    let candidates: Vec<&String> = carrier_values.iter().chain(negatives.iter()).collect();
    let posteriors = classifier.posteriors(&engine, &candidates, &cfg);
    for (candidate, p) in candidates.into_iter().zip(posteriors) {
        let verdict = if p > 0.5 {
            "instance"
        } else {
            "not an instance"
        };
        println!("   P(airline | {candidate:12}) = {p:.3} → {verdict}");
        if p > 0.5 {
            accepted.push(candidate.clone());
        }
    }

    // With the borrowed instances added, the matcher connects the pair.
    let mut enriched_airline = airline_values.clone();
    enriched_airline.extend(accepted);
    let enriched = match_attributes(
        &[
            MatchAttribute {
                r: (0, 0),
                label: "Airline".into(),
                values: enriched_airline,
            },
            MatchAttribute {
                r: (1, 0),
                label: "Carrier".into(),
                values: carrier_values,
            },
        ],
        &MatchConfig::default(),
    );
    println!(
        "after Attr-Surface borrowing: {} cluster(s) — Airline ≡ Carrier {}",
        enriched.clusters.len(),
        if enriched.clusters.len() == 1 {
            "✓"
        } else {
            "✗"
        }
    );

    // ── Attr-Deep: the `from = Chicago` vs `from = January` probe (§4).
    let source = airfare_source();
    for value in ["Chicago", "January"] {
        let mut params = BTreeMap::new();
        params.insert("from".to_string(), value.to_string());
        let outcome = analyze_response(&source.submit(&params));
        println!("probe from={value:8} → {outcome:?}");
    }
    let months = strings(&["January", "February", "March"]);
    let cities = strings(&["Chicago", "Boston", "Seattle"]);
    let cities_ok = attr_deep::validate_borrowed(&source, "from", &cities, &cfg);
    let months_ok = attr_deep::validate_borrowed(&source, "from", &months, &cfg);
    println!(
        "Attr-Deep verdicts: cities accepted={} ({}/{} probes ok), months accepted={} ({}/{})",
        cities_ok.accepted,
        cities_ok.successes,
        cities_ok.probed,
        months_ok.accepted,
        months_ok.successes,
        months_ok.probed,
    );
}

/// A small airfare source whose backend knows city origins.
fn airfare_source() -> DeepSource {
    let cities = ["Chicago", "Boston", "Seattle", "Denver", "Atlanta"];
    let mut store = RecordStore::default();
    for (i, from) in cities.iter().enumerate() {
        store.push(Record::new([
            ("from", *from),
            ("to", cities[(i + 2) % cities.len()]),
            ("airline", "United"),
        ]));
    }
    DeepSource::new(
        "SkyQuest Travel",
        vec![
            SourceParam {
                name: "from".into(),
                domain: ParamDomain::Free,
                required: false,
            },
            SourceParam {
                name: "to".into(),
                domain: ParamDomain::Free,
                required: false,
            },
        ],
        store,
    )
}
