//! Scaling behaviour of the matcher: the O(n²) similarity matrix, then
//! constrained average-link clustering, which recomputes only the links
//! of the two clusters each merge touches (O(n) average links a merge,
//! plus a re-scan of the rows whose best partner they were). This bench
//! charts wall-clock against the attribute count, up to about twice the
//! paper's workloads (≈100–220 attributes per domain).

use webiq::data::kb;
use webiq::matcher::{match_attributes, MatchAttribute, MatchConfig};
use webiq_bench::timing::{black_box, BenchmarkId, Criterion};
use webiq_bench::{criterion_group, criterion_main};

/// Synthesize `n` attributes across `n / 5` interfaces drawn from a few
/// concept archetypes, mimicking a domain's structure at scale.
fn synthetic_attributes(n: usize) -> Vec<MatchAttribute> {
    let archetypes: [(&str, &[&str]); 5] = [
        ("Departure city", kb::pools::CITIES),
        ("Airline", kb::pools::AIRLINES_NA),
        ("Departure date", kb::pools::MONTHS),
        ("Class of service", kb::pools::CABIN_CLASSES),
        ("Adults", kb::pools::PASSENGER_COUNTS),
    ];
    (0..n)
        .map(|i| {
            let (label, pool) = archetypes[i % archetypes.len()];
            let start = (i * 3) % pool.len();
            let values: Vec<String> = pool
                .iter()
                .cycle()
                .skip(start)
                .take(6)
                .map(|s| (*s).to_string())
                .collect();
            MatchAttribute {
                r: (i / archetypes.len(), i % archetypes.len()),
                label: label.into(),
                values,
            }
        })
        .collect()
}

fn bench_matcher_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/match_attributes");
    group.sample_size(10);
    for n in [50usize, 100, 200, 400] {
        let attrs = synthetic_attributes(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &attrs, |b, attrs| {
            b.iter(|| black_box(match_attributes(attrs, &MatchConfig::default())));
        });
    }
    group.finish();
}

fn bench_engine_scaling(c: &mut Criterion) {
    use webiq::web::{gen, GenConfig, SearchEngine};
    let mut group = c.benchmark_group("scaling/search_engine_build");
    group.sample_size(10);
    for docs in [50usize, 150, 400] {
        let def = kb::domain("book").expect("domain");
        let specs = webiq::data::corpus::concept_specs(def);
        let cfg = GenConfig {
            docs_per_concept: docs,
            ..GenConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(docs), &cfg, |b, cfg| {
            b.iter(|| black_box(SearchEngine::new(gen::generate(&specs, cfg))));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_matcher_scaling, bench_engine_scaling
}
criterion_main!(benches);
