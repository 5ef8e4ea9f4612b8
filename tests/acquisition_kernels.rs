//! The three acquisition kernels against the references they replaced,
//! on the inputs the pipeline gives them at seeds 7392 and 2006: every
//! attribute label, and every snippet the five domains' extraction
//! queries return, tag as the char-by-char tokenizer and the linear
//! lexicon scan tag them; every response page a source renders for a
//! borrowed value classifies as the DOM walk classifies it. The §5
//! case-2 very-similar test is checked on the same datasets in
//! `crates/core/tests/profiles.rs`.

#[path = "../crates/nlp/tests/support/reference.rs"]
#[allow(
    dead_code,
    reason = "its lexicon listing feeds the adversarial tests only"
)]
mod tagger;

#[path = "../crates/deep/tests/support/reference.rs"]
mod classifier;

use std::collections::{BTreeMap, BTreeSet};

use webiq::core::acquire::{case1_candidates, AttrTable};
use webiq::core::extract::{build_query, label_noun_phrases, DomainInfo};
use webiq::core::patterns::{extraction_patterns, CompletionSide};
use webiq::core::WebIQConfig;
use webiq::data::kb;
use webiq::deep::analyze_response;
use webiq::nlp::{pos, token};
use webiq::pipeline::DomainPipeline;

/// Every label of the dataset, and every snippet its instance-less
/// attributes' extraction queries return (whole, and the side of the cue
/// that extraction tags), tag as the reference tags them; returns how
/// many distinct texts were checked.
fn check_tagging(p: &DomainPipeline, cfg: &WebIQConfig) -> usize {
    let info = DomainInfo {
        object: p.def.object.to_string(),
        domain_terms: p
            .def
            .domain_terms
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
        sibling_terms: Vec::new(),
    };
    let mut texts = BTreeSet::new();
    let mut labels = BTreeSet::new();
    for (_, a) in p.dataset.attributes() {
        texts.insert(a.label.clone());
        if !a.has_instances() {
            labels.insert(a.label.as_str());
        }
    }
    for label in labels {
        for np in label_noun_phrases(label) {
            for pattern in extraction_patterns(&np, &info.object) {
                let query = build_query(&pattern, &info, cfg);
                for snippet in p.engine.search(&query, cfg.snippets_per_query).iter() {
                    let text = &snippet.text;
                    let at = text.to_lowercase().find(&pattern.cue);
                    if let (true, Some(at)) = (text.is_ascii(), at) {
                        texts.insert(match pattern.side {
                            CompletionSide::After => text[at + pattern.cue.len()..].to_string(),
                            CompletionSide::Before => text[..at].to_string(),
                        });
                    }
                    texts.insert(text.clone());
                }
            }
        }
    }
    for text in &texts {
        assert_eq!(pos::tag(text), tagger::tag(text), "{text:?}");
        assert_eq!(token::words_lower(text), tagger::words_lower(text));
    }
    texts.len()
}

/// Every page the source of each instance-less attribute renders for the
/// values its §5 case-1 candidates lend (up to the probe limit each, as
/// Attr-Deep probes them); returns how many pages were checked.
fn check_classification(p: &DomainPipeline, cfg: &WebIQConfig) -> usize {
    let table = AttrTable::new(&p.dataset);
    let mut probes = BTreeSet::new();
    for (r1, a1) in p.dataset.attributes() {
        if a1.has_instances() {
            continue;
        }
        for cand in case1_candidates(&table, r1, cfg) {
            if let Some((lender, _)) = table.get(cand) {
                for value in lender.instances.iter().take(cfg.probe_limit) {
                    probes.insert((r1.0, a1.name.as_str(), value.as_str()));
                }
            }
        }
    }
    for &(source, name, value) in &probes {
        let params = BTreeMap::from([(name.to_string(), value.to_string())]);
        let page = p.sources[source].submit(&params);
        assert_eq!(
            analyze_response(&page),
            classifier::analyze_response(&page),
            "{page:?}"
        );
    }
    probes.len()
}

/// The datasets the oracles run on: the paper seed and a held-out one.
const SEEDS: [u64; 2] = [7392, 2006];

/// Runs `check` on each domain's pipeline at each seed and asserts that
/// it checked more than `at_least` inputs.
fn each_pipeline(at_least: usize, check: impl Fn(&DomainPipeline, &WebIQConfig) -> usize) {
    let cfg = WebIQConfig::default();
    for seed in SEEDS {
        for def in kb::all_domains() {
            let p = DomainPipeline::from_def(def, seed);
            let checked = check(&p, &cfg);
            assert!(checked > at_least, "{} at {seed}: {checked}", def.key);
        }
    }
}

#[test]
fn tagging_equals_the_reference_on_labels_and_snippets() {
    each_pipeline(1000, check_tagging);
}

#[test]
fn classification_equals_the_dom_walk_on_probe_pages() {
    each_pipeline(500, check_classification);
}
