//! Warm-start equivalence: a second acquisition run over identical
//! inputs replays from the persistent store with byte-identical results
//! and near-zero engine traffic, at any worker count.

use std::sync::Arc;

use webiq_core::acquire::acquire;
use webiq_core::{Components, WebIQConfig};
use webiq_data::interface::Dataset;
use webiq_data::records::{build_deep_source, RecordOptions};
use webiq_data::{corpus, generate_domain, kb, DomainDef, GenOptions};
use webiq_deep::DeepSource;
use webiq_match::{attributes_of, match_attributes, MatchConfig};
use webiq_store::Store;
use webiq_trace::Counter;
use webiq_web::{gen, GenConfig, SearchEngine};

fn setup(domain: &str) -> (Dataset, &'static DomainDef, SearchEngine, Vec<DeepSource>) {
    let def = kb::domain(domain).expect("domain");
    let ds = generate_domain(def, &GenOptions::default());
    let engine = SearchEngine::new(gen::generate(
        &corpus::concept_specs(def),
        &GenConfig::default(),
    ))
    .expect("engine");
    let sources = ds
        .interfaces
        .iter()
        .map(|i| build_deep_source(def, i, &RecordOptions::default()))
        .collect();
    (ds, def, engine, sources)
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("webiq-store-warm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn cfg_with(store: Option<Arc<Store>>, threads: usize) -> WebIQConfig {
    WebIQConfig {
        threads: Some(threads),
        store,
        ..WebIQConfig::default()
    }
}

/// F-1 of the matcher over acquisition-enriched attributes.
fn f1_of(ds: &Dataset, acq: &webiq_core::Acquisition) -> f64 {
    let mut attrs = attributes_of(ds);
    for a in &mut attrs {
        a.values.extend(acq.instances_for(a.r).iter().cloned());
    }
    match_attributes(&attrs, &MatchConfig::default())
        .evaluate(ds)
        .f1
}

fn engine_query_count() -> u64 {
    let m = webiq_trace::snapshot();
    m.get(Counter::EngineSearchIssued) + m.get(Counter::EngineHitIssued)
}

#[test]
fn warm_start_is_byte_identical_and_engine_free_across_thread_counts() {
    let (ds, def, engine, sources) = setup("airfare");
    let dir = tmp_dir("roundtrip");

    // Baseline without any store: the persistence plumbing must not
    // perturb a store-less run.
    let plain = acquire(
        &ds,
        def,
        &engine,
        &sources,
        Components::ALL,
        &cfg_with(None, 2),
    )
    .expect("plain");

    // Cold run: acquires from the (simulated) Web and persists.
    let store = Arc::new(Store::open(&dir).expect("open"));
    let cold_cfg = cfg_with(Some(store), 2);
    let cold = acquire(&ds, def, &engine, &sources, Components::ALL, &cold_cfg).expect("cold");
    assert_eq!(cold.acquired, plain.acquired, "store perturbed the run");
    assert_eq!(cold.report, plain.report);
    assert!(cold.report.surface_cost.engine_queries > 0);
    let cold_f1 = f1_of(&ds, &cold);
    drop(cold_cfg);

    // Warm runs: a fresh store handle (recovery path included) at every
    // thread count must replay the identical result with zero engine
    // traffic.
    for threads in [1usize, 2, 4, 8] {
        let store = Arc::new(Store::open(&dir).expect("reopen"));
        let warm_cfg = cfg_with(Some(store), threads);
        let before = engine_query_count();
        let warm = acquire(&ds, def, &engine, &sources, Components::ALL, &warm_cfg).expect("warm");
        let issued = engine_query_count() - before;
        assert_eq!(issued, 0, "{threads} threads: warm run queried the engine");
        assert_eq!(warm.acquired, cold.acquired, "{threads} threads");
        assert_eq!(warm.degraded, cold.degraded, "{threads} threads");
        // The report is rebuilt from the stored counter totals, so it
        // equals the cold report.
        assert_eq!(warm.report, cold.report, "{threads} threads");
        let warm_f1 = f1_of(&ds, &warm);
        assert_eq!(
            warm_f1.to_bits(),
            cold_f1.to_bits(),
            "{threads} threads: F-1 drifted (cold {cold_f1}, warm {warm_f1})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changed_inputs_miss_and_reacquire_cold() {
    let (ds, def, engine, sources) = setup("book");
    let dir = tmp_dir("miss");
    let store = Arc::new(Store::open(&dir).expect("open"));
    let cold = acquire(
        &ds,
        def,
        &engine,
        &sources,
        Components::SURFACE_DEEP,
        &cfg_with(Some(store), 2),
    )
    .expect("cold");

    // A different component selection fingerprints differently: the
    // stored run must not be served. Single-threaded so the re-issued
    // engine queries land on this thread's (thread-local) counters.
    let store = Arc::new(Store::open(&dir).expect("reopen"));
    let before = engine_query_count();
    let other = acquire(
        &ds,
        def,
        &engine,
        &sources,
        Components::SURFACE,
        &cfg_with(Some(store), 1),
    )
    .expect("other");
    assert!(
        engine_query_count() > before,
        "changed components still warm-started"
    );
    assert!(other.report.attr_deep_cost.probes == 0);
    assert!(cold.report.attr_deep_cost.probes > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_store_falls_back_to_cold_and_heals() {
    let (ds, def, engine, sources) = setup("auto");
    let dir = tmp_dir("torn");
    let store = Arc::new(Store::open(&dir).expect("open"));
    let cold = acquire(
        &ds,
        def,
        &engine,
        &sources,
        Components::SURFACE_DEEP,
        &cfg_with(Some(store), 2),
    )
    .expect("cold");

    // Tear the snapshot mid-file — a crash during a later copy, say.
    // Recovery truncates to a committed prefix; the run-complete marker
    // is the last record, so the prefix has no marker and the warm
    // lookup misses. The run re-acquires cold, byte-identically, and
    // re-persists.
    let snap_path = dir.join(webiq_store::SNAPSHOT_FILE);
    let snap = std::fs::read(&snap_path).expect("snapshot");
    // Pick a cut near 60% that lands strictly inside a frame, so the
    // recovery stats visibly show a truncation.
    let mut cut = snap.len() * 3 / 5;
    while webiq_store::scan(&snap[..cut]).clean() {
        cut += 1;
    }
    std::fs::write(&snap_path, &snap[..cut]).expect("tear");

    let store = Arc::new(Store::open(&dir).expect("recover"));
    assert!(store.recovery_stats().truncated_bytes > 0);
    let before = engine_query_count();
    let again = acquire(
        &ds,
        def,
        &engine,
        &sources,
        Components::SURFACE_DEEP,
        &cfg_with(Some(store), 1),
    )
    .expect("reacquire");
    assert!(engine_query_count() > before, "torn store warm-started");
    assert_eq!(again.acquired, cold.acquired);
    assert_eq!(again.report, cold.report);

    // The re-run healed the store: the next run warm-starts again.
    let store = Arc::new(Store::open(&dir).expect("reopen"));
    let before = engine_query_count();
    let warm = acquire(
        &ds,
        def,
        &engine,
        &sources,
        Components::SURFACE_DEEP,
        &cfg_with(Some(store), 2),
    )
    .expect("warm");
    assert_eq!(engine_query_count(), before, "healed store did not serve");
    assert_eq!(warm.acquired, cold.acquired);
    let _ = std::fs::remove_dir_all(&dir);
}
