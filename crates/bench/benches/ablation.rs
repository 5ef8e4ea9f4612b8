//! Ablation benchmarks for the design choices DESIGN.md §5 calls out:
//! the two-phase verification (outlier removal before Web validation),
//! PMI vs. raw hit counts, and the borrow pre-filters. These time the
//! *cost* side of each choice; the `experiments ablations` binary reports
//! the accuracy side.

use webiq::core::{surface, CompletionMemo, Components, DomainInfo, WebIQConfig};
use webiq::pipeline::DomainPipeline;
use webiq_bench::timing::{black_box, Criterion};
use webiq_bench::{criterion_group, criterion_main};

fn bench_surface_ablations(c: &mut Criterion) {
    let p = DomainPipeline::build("auto", 0x1ce0).expect("domain");
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
    let variants: [(&str, WebIQConfig); 3] = [
        ("default", WebIQConfig::default()),
        (
            "no_outlier_phase",
            WebIQConfig {
                outlier_phase: false,
                ..WebIQConfig::default()
            },
        ),
        (
            "raw_hits",
            WebIQConfig {
                use_pmi: false,
                ..WebIQConfig::default()
            },
        ),
    ];
    let mut group = c.benchmark_group("ablation/surface_discover");
    group.sample_size(10);
    for (name, cfg) in &variants {
        group.bench_function(*name, |b| {
            b.iter(|| {
                let memo = CompletionMemo::new();
                black_box(surface::discover(&p.engine, "Make", &info, cfg, &memo))
            });
        });
    }
    group.finish();
}

fn bench_prefilter_ablation(c: &mut Criterion) {
    let p = DomainPipeline::build("auto", 0x1ce0).expect("domain");
    let variants: [(&str, WebIQConfig); 2] = [
        ("prefilter_on", WebIQConfig::default()),
        (
            "prefilter_off",
            WebIQConfig {
                borrow_prefilter: false,
                ..WebIQConfig::default()
            },
        ),
    ];
    let mut group = c.benchmark_group("ablation/borrowing");
    group.sample_size(10);
    for (name, cfg) in &variants {
        group.bench_function(*name, |b| {
            b.iter(|| black_box(p.acquire(Components::ALL, cfg).expect("acquisition")));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_surface_ablations, bench_prefilter_ablation
}
criterion_main!(benches);
