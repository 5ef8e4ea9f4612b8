//! The search engine against a brute-force reference, through the public
//! API, on the five domain corpora the pipeline builds at seeds 7392 and
//! 2006: every term's documents and positions, and `num_hits` and the doc
//! ids of `search(q, 10)` for 4,400 seeded queries, from one thread and
//! from eight threads sharing one cold engine. The corpora themselves are
//! pinned by digest.

#[path = "../crates/web/tests/support/reference.rs"]
mod reference;

use std::sync::OnceLock;

use reference::Reference;
use webiq::data::{corpus, kb};
use webiq::web::index::InvertedIndex;
use webiq::web::{gen, query, Corpus, GenConfig, SearchEngine};
use webiq_rng::{prop, Fnv64};

/// The dataset seeds whose corpora are swept.
const SEEDS: [u64; 2] = [7392, 2006];

/// Queries per domain and seed: 4,400 over the ten corpora.
const QUERIES: usize = 440;

/// One domain's corpus at one seed, its reference, its queries and the
/// reference's answers to them: the hit count and the first ten matching
/// doc ids.
struct Sweep {
    seed: u64,
    domain: &'static str,
    corpus: Corpus,
    reference: Reference,
    queries: Vec<String>,
    answers: Vec<(u64, Vec<u32>)>,
}

fn sweeps() -> &'static [Sweep] {
    static SWEEPS: OnceLock<Vec<Sweep>> = OnceLock::new();
    SWEEPS.get_or_init(|| {
        SEEDS
            .into_iter()
            .flat_map(|seed| kb::all_domains().into_iter().map(move |def| (seed, def)))
            .map(|(seed, def)| {
                // The corpus `DomainPipeline::from_def(def, seed)` indexes.
                let corpus = gen::generate(
                    &corpus::concept_specs(def),
                    &GenConfig {
                        seed: seed ^ 0xc0ffee,
                        confuser_rate: 0.25,
                        ..GenConfig::default()
                    },
                );
                let reference = Reference::new(corpus.iter().map(|d| reference::tokenize(&d.text)));
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
                    seed,
                    domain: def.key,
                    corpus,
                    reference,
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

/// The generated corpora stay byte for byte what the generator made
/// before it computed each concept's plurals and Zipf weights once per
/// call: 64-bit FNV-1a over every document's text, each followed by a
/// NUL byte.
#[test]
fn generated_corpora_are_pinned() {
    let pinned: [(u64, &str, usize, u64); 10] = [
        (7392, "airfare", 2056, 0xe54b_3a6f_41e5_ce8a),
        (7392, "auto", 1261, 0xb6fa_fda2_eb2a_1f34),
        (7392, "book", 1198, 0xfede_7698_665f_a02c),
        (7392, "job", 1362, 0xe4b7_fc43_bd34_7a73),
        (7392, "realestate", 1324, 0xf8a4_966a_ad9b_45dc),
        (2006, "airfare", 2056, 0x0dc2_39f6_d400_ab15),
        (2006, "auto", 1261, 0x624c_c668_85e5_64ba),
        (2006, "book", 1198, 0x4827_3cc5_51c1_c9c0),
        (2006, "job", 1362, 0xb490_1464_3a9a_1f78),
        (2006, "realestate", 1324, 0xc9d5_2c00_2ab0_d825),
    ];
    let got: Vec<(u64, &str, usize, u64)> = sweeps()
        .iter()
        .map(|s| {
            let mut h = Fnv64::new();
            for d in s.corpus.iter() {
                h.write(d.text.as_bytes());
                h.write(&[0]);
            }
            (s.seed, s.domain, s.corpus.len(), h.finish())
        })
        .collect();
    assert_eq!(got, pinned);
}

/// Every term of every corpus has the reference's documents and
/// positions.
#[test]
fn postings_agree_with_reference_on_domain_corpora() {
    for sweep in sweeps() {
        let index = InvertedIndex::build(&sweep.corpus);
        for (term, want) in sweep.reference.postings() {
            let postings = index.postings(term).expect(term);
            let got: Vec<(u32, Vec<u32>)> =
                postings.iter().map(|(d, ps)| (d, ps.to_vec())).collect();
            assert_eq!(got, want, "{} {}: term {term:?}", sweep.seed, sweep.domain);
        }
    }
}

#[test]
fn engine_agrees_with_reference_on_domain_corpora() {
    let sweeps = sweeps();
    assert_eq!(sweeps.len(), 10);
    let mut hits = 0;
    for sweep in sweeps {
        let engine = SearchEngine::new(sweep.corpus.clone());
        check(&engine, sweep, 0);
        hits += sweep.answers.iter().filter(|(n, _)| *n > 0).count();
    }
    // not vacuous: a good share of the 4,400 queries match something
    assert!(hits > 1_200, "{hits}");
}

#[test]
fn eight_threads_on_one_cold_engine_agree_with_reference() {
    for sweep in sweeps() {
        let engine = SearchEngine::new(sweep.corpus.clone());
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
