//! Micro-benchmarks of the hot substrate operations: POS tagging, label
//! classification, stemming, corpus generation, index building,
//! search-engine queries, PMI validation,
//! outlier removal, naive-Bayes training, HTML form extraction,
//! Deep-Web source building and probing, response-page classification,
//! the §5 very-similar value test, the
//! pairwise similarity the matcher computes O(n²) times, and one traced
//! item's recording and submission.

use std::collections::BTreeMap;

use webiq::core::{patterns, verify};
use webiq::data::records::{build_deep_source, RecordOptions};
use webiq::data::{corpus, generate_domain, kb, GenOptions};
use webiq::deep::{
    analyze_response, render, DeepSource, ParamDomain, Record, RecordStore, SubmissionOutcome,
};
use webiq::html::form::extract_forms;
use webiq::matcher::domsim::ValueSet;
use webiq::matcher::{similarity, MatchAttribute, MatchConfig};
use webiq::nlp::{chunk, pos, stem};
use webiq::stats::{bayes::NaiveBayes, outlier};
use webiq::trace::{span, Tracer};
use webiq::web::index::InvertedIndex;
use webiq::web::{gen, GenConfig, SearchEngine};
use webiq_bench::timing::{black_box, Criterion};
use webiq_bench::{criterion_group, criterion_main};

fn engine() -> SearchEngine {
    let def = kb::domain("airfare").expect("domain");
    SearchEngine::new(gen::generate(
        &corpus::concept_specs(def),
        &GenConfig::default(),
    ))
}

fn bench_nlp(c: &mut Criterion) {
    c.bench_function("nlp/pos_tag_sentence", |b| {
        b.iter(|| {
            pos::tag(black_box(
                "Popular departure cities such as Boston, Chicago, and LAX are listed on this page",
            ))
        });
    });
    // What extraction tags per snippet: the longest text after the cue
    // among the generated corpus's top ten "airlines such as" results
    // (48 tokens).
    let cue = "airlines such as";
    let remainder = engine()
        .search(&format!("\"{cue}\" +airfare"), 10)
        .iter()
        .filter_map(|s| {
            let at = s.text.to_lowercase().find(cue)? + cue.len();
            Some(s.text[at..].to_string())
        })
        .max_by_key(String::len)
        .expect("a result");
    c.bench_function("nlp/pos_tag_snippet", |b| {
        b.iter(|| pos::tag(black_box(&remainder)));
    });
    c.bench_function("nlp/classify_label", |b| {
        b.iter(|| chunk::classify_label(black_box("Class of service")));
    });
    c.bench_function("nlp/porter_stem", |b| {
        b.iter(|| stem::stem(black_box("internationalization")));
    });
}

fn bench_engine(c: &mut Criterion) {
    // A dataset's set-up: airfare's corpus as `DomainPipeline::from_def`
    // generates it at seed 7392 (2,056 documents), then its index.
    let specs = corpus::concept_specs(kb::domain("airfare").expect("domain"));
    let cfg = GenConfig {
        seed: 7392 ^ 0xc0ffee,
        confuser_rate: 0.25,
        ..GenConfig::default()
    };
    c.bench_function("web/corpus_generate", |b| {
        b.iter(|| gen::generate(black_box(&specs), &cfg));
    });
    let docs = gen::generate(&specs, &cfg);
    c.bench_function("web/index_build", |b| {
        b.iter(|| InvertedIndex::build(black_box(&docs)));
    });
    let e = engine();
    // Every iteration appends `-nx{i}`, an excluded term absent from the
    // corpus: the answer is unchanged, but each call misses the caches and
    // evaluates the query. `web/num_hits_cached` times the cache hit.
    c.bench_function("web/num_hits_keyword", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            e.num_hits(black_box(&format!("boston -nx{i}")))
        });
    });
    c.bench_function("web/num_hits_phrase", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            e.num_hits(black_box(&format!(
                "\"departure cities such as\" +airfare -nx{i}"
            )))
        });
    });
    c.bench_function("web/search_top10", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            e.search(
                black_box(&format!("\"cities such as\" +airfare -nx{i}")),
                10,
            )
        });
    });
    c.bench_function("web/num_hits_cached", |b| {
        b.iter(|| e.num_hits(black_box("\"departure cities such as\" +airfare")));
    });
}

fn bench_verification(c: &mut Criterion) {
    let e = engine();
    let np = webiq::core::extract::primary_noun_phrase("Airline").expect("np");
    let phrases = patterns::validation_phrases("Airline", Some(&np));
    c.bench_function("core/validation_vector", |b| {
        b.iter(|| verify::validation_vector(&e, &phrases, black_box("Delta"), true));
    });

    let candidates: Vec<String> = kb::pools::CITIES.iter().map(|s| (*s).to_string()).collect();
    c.bench_function("stats/outlier_removal_45", |b| {
        b.iter(|| outlier::remove_outliers(black_box(&candidates)));
    });

    let examples: Vec<(Vec<bool>, bool)> = (0..40)
        .map(|i| (vec![i % 2 == 0, i % 3 == 0, i % 5 == 0], i % 2 == 0))
        .collect();
    c.bench_function("stats/naive_bayes_train_40", |b| {
        b.iter(|| NaiveBayes::train(black_box(&examples)).expect("train"));
    });
}

fn bench_html(c: &mut Criterion) {
    let def = kb::domain("airfare").expect("domain");
    let ds = webiq::data::generate_domain(def, &webiq::data::GenOptions::default());
    let html = ds.interfaces[0].to_html();
    c.bench_function("html/extract_form", |b| {
        b.iter(|| extract_forms(black_box(&html)));
    });
}

fn bench_deep(c: &mut Criterion) {
    // A dataset's sources per domain: airfare's 20, as
    // `DomainPipeline::from_def` builds them at seed 7392 (built and
    // dropped each iteration).
    let def = kb::domain("airfare").expect("domain");
    let ds = generate_domain(
        def,
        &GenOptions {
            seed: 7392,
            ..GenOptions::default()
        },
    );
    let opts = RecordOptions {
        seed: 7392,
        failure_rate: 0.05,
        ..RecordOptions::default()
    };
    let build = || -> Vec<DeepSource> {
        ds.interfaces
            .iter()
            .map(|i| build_deep_source(def, i, &opts))
            .collect()
    };
    c.bench_function("deep/build_sources", |b| b.iter(build));

    // One Attr-Deep probe, page and verdict, on the first source's first
    // free-text field: for a value its first record holds, and for one
    // no record holds.
    let sources = build();
    let (src, field) = sources
        .iter()
        .find_map(|s| {
            let p = s.params().iter().find(|p| p.domain == ParamDomain::Free)?;
            Some((s, p.name.as_str()))
        })
        .expect("a free-text field");
    let all = src.try_submit(&BTreeMap::new()).expect("no injected fault");
    let value = all[0].get(field).expect("the records hold the field");
    let probe = |v: &str| {
        let params = BTreeMap::from([(field.to_string(), v.to_string())]);
        analyze_response(&src.submit(&params))
    };
    assert!(probe(value).is_success());
    assert_eq!(probe("January"), SubmissionOutcome::NoResults);
    c.bench_function("deep/probe", |b| {
        b.iter(|| (probe(black_box(value)), probe(black_box("January"))));
    });

    let store = RecordStore::new(
        kb::pools::CITIES
            .iter()
            .zip(kb::pools::AIRLINES_NA)
            .take(10)
            .map(|(city, airline)| Record::new([("from", *city), ("airline", *airline)]))
            .collect(),
    );
    let results = render::results_page("AcmeAir", &store.query([]));
    c.bench_function("deep/analyze_results_page", |b| {
        b.iter(|| analyze_response(black_box(&results)));
    });
    let none = render::no_results_page("AcmeAir");
    c.bench_function("deep/analyze_no_results_page", |b| {
        b.iter(|| analyze_response(black_box(&none)));
    });
}

fn bench_similarity(c: &mut Criterion) {
    // The §5 case-2 pre-filter's common case: two text domains of eight
    // values with no very similar pair, so every pair is tried.
    let authors = ValueSet::new(&kb::pools::AUTHORS[..8]);
    let publishers = ValueSet::new(&kb::pools::PUBLISHERS[..8]);
    assert!(!authors.has_similar_pair(&publishers));
    c.bench_function("match/case2_similar_pair", |b| {
        b.iter(|| black_box(&authors).has_similar_pair(black_box(&publishers)));
    });

    let a = MatchAttribute {
        r: (0, 0),
        label: "Departure city".into(),
        values: kb::pools::CITIES
            .iter()
            .take(10)
            .map(|s| (*s).to_string())
            .collect(),
    };
    let b_attr = MatchAttribute {
        r: (1, 0),
        label: "From city".into(),
        values: kb::pools::CITIES
            .iter()
            .skip(5)
            .take(10)
            .map(|s| (*s).to_string())
            .collect(),
    };
    let cfg = MatchConfig::default();
    c.bench_function("match/pairwise_similarity", |b| {
        b.iter(|| similarity(black_box(&a), black_box(&b_attr), &cfg));
    });
}

fn bench_trace(c: &mut Criterion) {
    // One attribute item as book's trace records it: 20 `bayes_verify`
    // decisions of 17 evidence terms each (posterior, prior and five
    // terms per feature), recorded and submitted to a JSONL tracer.
    let names: Vec<String> =
        ["posterior".to_string(), "prior_pos".to_string()]
            .into_iter()
            .chain((0..3).flat_map(|f| {
                ["score", "thresh", "on", "p_pos", "p_neg"].map(|t| format!("f{f}_{t}"))
            }))
            .collect();
    let decisions: Vec<(&str, Vec<(&str, f64)>)> = kb::pools::BOOK_TITLES
        .iter()
        .take(20)
        .enumerate()
        .map(|(i, title)| {
            let terms = names
                .iter()
                .enumerate()
                .map(|(j, n)| (n.as_str(), ((i * 17 + j) as f64).sqrt() / 977.0))
                .collect();
            (*title, terms)
        })
        .collect();
    let tracer = Tracer::jsonl(Box::new(std::io::sink()));
    c.bench_function("trace/submit_item", |b| {
        b.iter(|| {
            let item = tracer.item("attribute", "Title");
            {
                let _surface = span("attr_surface");
                let _verify = span("bayes_verify");
                for (i, (subject, terms)) in decisions.iter().enumerate() {
                    webiq::why::record::bayes_verify(subject, i % 7 != 0, black_box(terms));
                }
            }
            tracer.submit(item.finish());
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_nlp, bench_engine, bench_verification, bench_html, bench_deep, bench_similarity,
        bench_trace
}
criterion_main!(benches);
