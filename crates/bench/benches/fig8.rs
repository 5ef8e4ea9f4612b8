//! Figure 8 benchmark: the per-component costs behind the overhead
//! analysis — one Surface discovery, one Attr-Surface verification, one
//! Attr-Deep probe round, and one full matching pass.

use std::collections::BTreeMap;

use webiq::core::{
    attr_deep, attr_surface, surface, CompletionMemo, Components, DomainInfo, WebIQConfig,
};
use webiq::matcher::MatchConfig;
use webiq::pipeline::DomainPipeline;
use webiq_bench::timing::{black_box, Criterion};
use webiq_bench::{criterion_group, criterion_main};

fn bench_components(c: &mut Criterion) {
    let p = DomainPipeline::build("airfare", 0x1ce0).expect("domain");
    let cfg = WebIQConfig::default();
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

    let mut group = c.benchmark_group("fig8/airfare");
    group.sample_size(10);

    group.bench_function("surface_discover_one_attr", |b| {
        b.iter(|| {
            let memo = CompletionMemo::new();
            black_box(surface::discover(
                &p.engine,
                "Departure city",
                &info,
                &cfg,
                &memo,
            ))
        });
    });

    let positives: Vec<String> = ["Air Canada", "American", "Delta", "United"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let negatives: Vec<String> = ["Economy", "First Class", "Jan", "1"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let borrowed: Vec<String> = ["Aer Lingus", "Lufthansa", "Iberia"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    group.bench_function("attr_surface_verify_one_attr", |b| {
        b.iter(|| {
            black_box(attr_surface::verify_borrowed(
                &p.engine, "Airline", &positives, &negatives, &borrowed, &cfg,
            ))
        });
    });

    let source = &p.sources[0];
    let cities: Vec<String> = ["Chicago", "Boston", "Seattle"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let param = p.dataset.interfaces[0].attributes[0].name.clone();
    group.bench_function("attr_deep_probe_round", |b| {
        b.iter(|| black_box(attr_deep::validate_borrowed(source, &param, &cities, &cfg)));
    });

    group.bench_function("deep_source_submit", |b| {
        let mut params = BTreeMap::new();
        params.insert(param.clone(), "Chicago".to_string());
        b.iter(|| black_box(source.submit(&params)));
    });

    // full matching over enriched attributes — the first bar of Fig. 8
    let acq = p.acquire(Components::ALL, &cfg).expect("acquisition");
    let attrs = p.enriched_attributes(&acq);
    group.bench_function("matching_enriched", |b| {
        b.iter(|| black_box(p.match_and_evaluate(&attrs, &MatchConfig::default())));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_components
}
criterion_main!(benches);
