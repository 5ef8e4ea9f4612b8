//! The search engine against a brute-force reference, through the public
//! API, on the five domain corpora the pipeline builds at seed 7392:
//! `num_hits` and the doc ids of `search(q, 10)` for 2,200 seeded queries,
//! from one thread and from eight threads sharing one cold engine.

#[path = "../crates/web/tests/support/reference.rs"]
mod reference;

use std::sync::OnceLock;

use reference::Reference;
use webiq::data::{corpus, kb};
use webiq::web::{gen, query, Corpus, GenConfig, SearchEngine};
use webiq_rng::prop;

/// Queries per domain: 2,200 over the five.
const QUERIES: usize = 440;

/// One domain's corpus, its queries and the reference's answers to them:
/// the hit count and the first ten matching doc ids.
struct Sweep {
    corpus: Corpus,
    queries: Vec<String>,
    answers: Vec<(u64, Vec<u32>)>,
}

fn sweeps() -> &'static [Sweep] {
    static SWEEPS: OnceLock<Vec<Sweep>> = OnceLock::new();
    SWEEPS.get_or_init(|| {
        kb::all_domains()
            .into_iter()
            .map(|def| {
                // The corpus `DomainPipeline::from_def(def, 7392)` indexes.
                let corpus = gen::generate(
                    &corpus::concept_specs(def),
                    &GenConfig {
                        seed: 7392 ^ 0xc0ffee,
                        confuser_rate: 0.25,
                        ..GenConfig::default()
                    },
                );
                let reference = Reference::new(corpus.iter().map(|d| query::tokenize(&d.text)));
                let mut queries = Vec::new();
                prop::cases(QUERIES, |rng| queries.push(reference.random_query(rng)));
                let answers = queries
                    .iter()
                    .map(|text| {
                        let q = query::parse(text);
                        let docs = reference.answer(&q.phrases, &q.keywords, &q.excluded);
                        let top: Vec<u32> = docs.iter().take(10).map(|&(d, _)| d).collect();
                        (docs.len() as u64, top)
                    })
                    .collect();
                Sweep {
                    corpus,
                    queries,
                    answers,
                }
            })
            .collect()
    })
}

/// Ask `engine` every query of `sweep`, starting at `offset` and wrapping,
/// and compare each answer with the reference.
fn check(engine: &SearchEngine, sweep: &Sweep, offset: usize) {
    let n = sweep.queries.len();
    for i in (0..n).map(|i| (i + offset) % n) {
        let text = &sweep.queries[i];
        let top: Vec<u32> = engine.search(text, 10).iter().map(|s| s.doc_id).collect();
        let got = (engine.num_hits(text), top);
        assert_eq!(got, sweep.answers[i], "query {text:?}");
    }
}

#[test]
fn engine_agrees_with_reference_on_domain_corpora() {
    let sweeps = sweeps();
    assert_eq!(sweeps.len(), 5);
    let mut hits = 0;
    for sweep in sweeps {
        let engine = SearchEngine::new(sweep.corpus.clone()).expect("engine");
        check(&engine, sweep, 0);
        hits += sweep.answers.iter().filter(|(n, _)| *n > 0).count();
    }
    // not vacuous: a good share of the 2,200 queries match something
    assert!(hits > 600, "{hits}");
}

#[test]
fn eight_threads_on_one_cold_engine_agree_with_reference() {
    for sweep in sweeps() {
        let engine = SearchEngine::new(sweep.corpus.clone()).expect("engine");
        // Each thread runs the whole sweep from its own offset, so threads
        // race on the same cold keys as well as on different ones.
        std::thread::scope(|s| {
            for t in 0..8 {
                let engine = &engine;
                s.spawn(move || check(engine, sweep, t * sweep.queries.len() / 16));
            }
        });
    }
}
