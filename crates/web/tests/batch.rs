//! The batch path: `num_hits_many` and `search_many` answer, count and
//! cache exactly as their queries issued one at a time, send misses in
//! waves of `MAX_IN_FLIGHT`, and fetch each distinct miss once however
//! many workers share it.

use std::sync::{Arc, Barrier};

use webiq_trace::Counter;
use webiq_web::engine::MAX_IN_FLIGHT;
use webiq_web::{Corpus, EngineStats, SearchEngine, Snippet};

fn engine() -> SearchEngine {
    SearchEngine::new(Corpus::from_texts([
        "Flights depart daily. Popular departure cities such as Boston, Chicago, and LAX are listed.",
        "Delta is an airline based in Atlanta.",
        "airlines such as Delta and United fly from Boston",
        "cities such as Boston and Chicago host many flights",
        "random page about gardening and tomatoes",
    ]))
}

/// A batch with a query answered before it (a cache hit), a query
/// repeated inside it (one miss, then hits) and fresh misses.
const QUERIES: [&str; 9] = [
    "boston",
    "\"cities such as\"",
    "delta",
    "boston",
    "gardening -tomatoes",
    "\"cities such as\"",
    "\"airlines such as\" +boston",
    "chicago",
    "boston",
];

fn split(stats: &EngineStats) -> [u64; 4] {
    [
        stats.search_queries(),
        stats.hit_queries(),
        stats.total(),
        stats.total_issued(),
    ]
}

fn issued(d: &webiq_trace::MetricSet) -> [u64; 2] {
    [
        d.get(Counter::EngineHitIssued),
        d.get(Counter::EngineSearchIssued),
    ]
}

/// (a) A batch equals its queries issued one at a time: answers, the
/// thread-local issued counters and the engine's hit/miss split.
#[test]
fn a_batch_equals_its_queries_one_at_a_time() {
    let (batched, single) = (engine(), engine());
    for e in [&batched, &single] {
        let _ = e.num_hits("chicago");
        let _ = e.search("chicago", 3);
    }

    let before = webiq_trace::snapshot();
    let hits = batched.num_hits_many(&QUERIES);
    let snippets = batched.search_many(&QUERIES, 3);
    let batch_counts = issued(&webiq_trace::snapshot().diff(&before));

    let before = webiq_trace::snapshot();
    let one_hits: Vec<u64> = QUERIES.iter().map(|q| single.num_hits(q)).collect();
    let one_snippets: Vec<Arc<Vec<Snippet>>> =
        QUERIES.iter().map(|q| single.search(q, 3)).collect();
    let one_counts = issued(&webiq_trace::snapshot().diff(&before));

    assert_eq!(hits, one_hits);
    assert_eq!(snippets, one_snippets);
    assert_eq!(batch_counts, one_counts);
    assert_eq!(batch_counts, [9, 9]);
    assert_eq!(split(batched.stats()), split(single.stats()));
    // six distinct queries of which `chicago` was cached: five misses per
    // kind, counting "boston" and "cities such as" once each
    assert_eq!(batched.stats().hit_queries(), 1 + 5);
    assert_eq!(batched.stats().search_queries(), 1 + 5);
}

/// (a) An empty batch answers nothing and counts nothing.
#[test]
fn an_empty_batch_issues_nothing() {
    let e = engine();
    let before = webiq_trace::snapshot();
    assert!(e.num_hits_many::<&str>(&[]).is_empty());
    assert!(e.search_many::<String>(&[], 5).is_empty());
    assert_eq!(issued(&webiq_trace::snapshot().diff(&before)), [0, 0]);
    assert_eq!(split(e.stats()), [0; 4]);
    assert_eq!(e.stats().waves(), 0);
}

/// (b) A fresh batch of 20 distinct misses costs ⌈20 / 8⌉ = 3 waves;
/// a repeat of it, all cache hits, costs none.
#[test]
fn twenty_fresh_misses_cost_three_waves() {
    assert_eq!(MAX_IN_FLIGHT, 8);
    let e = engine();
    let queries: Vec<String> = (0..20).map(|i| format!("boston -nx{i}")).collect();
    let _ = e.num_hits_many(&queries);
    assert_eq!(e.stats().hit_queries(), 20);
    assert_eq!(e.stats().waves(), 3);
    let _ = e.num_hits_many(&queries);
    assert_eq!(e.stats().waves(), 3);
    // a repeated query inside a batch rides its first occurrence's wave
    let twice: Vec<String> = (0..8).map(|i| format!("chicago -nx{}", i % 4)).collect();
    let _ = e.search_many(&twice, 2);
    assert_eq!(e.stats().search_queries(), 4);
    assert_eq!(e.stats().waves(), 4);
}

/// (c) Two threads running overlapping batches in opposite orders, started
/// together with simulated latency, both finish with the single-threaded
/// answers, and every distinct key misses exactly once.
#[test]
fn overlapping_batches_in_opposite_orders_finish() {
    let queries: Vec<String> = (0..40).map(|i| format!("boston -nx{i}")).collect();
    let expected: Vec<u64> = {
        let e = engine();
        e.num_hits_many(&queries)
    };
    for round in 0..8 {
        let e = engine();
        e.set_simulated_latency_us(200);
        let forward: Vec<&str> = queries[..30].iter().map(String::as_str).collect();
        let backward: Vec<&str> = queries[10..].iter().rev().map(String::as_str).collect();
        let start = Barrier::new(2);
        let run = |batch: &[&str]| {
            start.wait();
            e.num_hits_many(batch)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| run(&forward));
            let b = s.spawn(|| run(&backward));
            (a.join().expect("forward"), b.join().expect("backward"))
        });
        assert_eq!(a, expected[..30], "round {round}");
        let mut b = b;
        b.reverse();
        assert_eq!(b, expected[10..], "round {round}");
        assert_eq!(
            e.stats().hit_queries(),
            40,
            "round {round}: a key missed twice"
        );
        assert_eq!(e.stats().total_issued(), 60, "round {round}");
    }
}
