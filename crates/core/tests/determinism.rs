//! The parallel acquisition executor must produce output byte-identical
//! to the sequential path: same acquired-instance maps, same report
//! counters, and — with an enabled tracer — the same JSONL event stream,
//! for any worker count.

use std::sync::Arc;

use webiq_core::{acquire, Acquisition, Components, WebIQConfig};
use webiq_data::records::{build_deep_source, RecordOptions};
use webiq_data::{corpus, generate_domain, kb, GenOptions};
use webiq_obs::LiveRegistry;
use webiq_trace::{SharedBuf, Tracer};
use webiq_web::{gen, GenConfig, SearchEngine};

/// Run full acquisition over one seeded synthetic domain with the given
/// worker count and tracer, on freshly built (deterministic) engine and
/// sources.
fn run_with(domain_idx: usize, threads: usize, tracer: Tracer) -> Acquisition {
    run_cfg(
        domain_idx,
        WebIQConfig {
            threads: Some(threads),
            tracer,
            ..WebIQConfig::default()
        },
    )
}

fn run_cfg(domain_idx: usize, cfg: WebIQConfig) -> Acquisition {
    run_on(domain_idx, &engine(domain_idx), cfg)
}

/// A fresh simulated Web for one domain.
fn engine(domain_idx: usize) -> SearchEngine {
    let def = kb::all_domains()[domain_idx];
    SearchEngine::new(gen::generate(
        &corpus::concept_specs(def),
        &GenConfig::default(),
    ))
}

/// Acquisition over one domain's dataset and sources against `engine`.
fn run_on(domain_idx: usize, engine: &SearchEngine, cfg: WebIQConfig) -> Acquisition {
    let def = kb::all_domains()[domain_idx];
    let ds = generate_domain(def, &GenOptions::default());
    let sources: Vec<_> = ds
        .interfaces
        .iter()
        .map(|i| build_deep_source(def, i, &RecordOptions::default()))
        .collect();
    acquire::acquire(&ds, def, engine, &sources, Components::ALL, &cfg).expect("acquisition")
}

fn run(domain_idx: usize, threads: usize) -> Acquisition {
    run_with(domain_idx, threads, Tracer::disabled())
}

/// Acquisition with a JSONL tracer; returns the emitted event stream.
fn run_traced(domain_idx: usize, threads: usize) -> (Acquisition, String) {
    let buf = SharedBuf::new();
    let tracer = Tracer::jsonl(Box::new(buf.clone()));
    let acq = run_with(domain_idx, threads, tracer.clone());
    tracer.flush();
    (acq, buf.contents_string())
}

#[test]
fn parallel_acquisition_matches_sequential() {
    for domain_idx in 0..2 {
        let seq = run(domain_idx, 1);
        for threads in [4, 8] {
            let par = run(domain_idx, threads);
            assert_eq!(
                seq.acquired, par.acquired,
                "acquired maps differ at {threads} threads (domain {domain_idx})"
            );
            assert_eq!(
                seq.report, par.report,
                "reports differ at {threads} threads (domain {domain_idx})"
            );
        }
    }
}

#[test]
fn trace_stream_is_byte_identical_across_worker_counts() {
    // The tentpole guarantee: the JSONL event stream — logical clock,
    // span ids, counter deltas, everything — is byte-identical whether
    // acquisition ran on one worker or four.
    let (seq_acq, seq_trace) = run_traced(0, 1);
    let (par_acq, par_trace) = run_traced(0, 4);
    assert!(!seq_trace.is_empty(), "tracer emitted nothing");
    assert_eq!(seq_trace, par_trace, "trace streams differ across workers");
    assert_eq!(seq_acq.acquired, par_acq.acquired);
    assert_eq!(seq_acq.report, par_acq.report);
}

#[test]
fn trace_stream_rerun_is_byte_identical() {
    let (_, first) = run_traced(1, 2);
    let (_, second) = run_traced(1, 2);
    assert_eq!(first, second, "trace streams differ across reruns");
}

/// The webiq-prof registry is always on — lock wrappers, cache
/// telemetry, worker accounting, and stage timers all record during
/// these runs. None of that may leak into the deterministic plane: the
/// JSONL stream must stay byte-identical across the 1/2/4/8 sweep. Each
/// wave of engine misses sleeps a simulated round trip, as in
/// `experiments profile` and the `latency` workload: a claimed miss then
/// stays in flight long enough for other workers to wait on it, an
/// interleaving that a run without latency rarely reaches.
#[test]
fn profiled_trace_is_byte_identical_across_the_full_thread_sweep() {
    let traced = |threads: usize| {
        let e = engine(0);
        e.set_simulated_latency_us(20);
        let buf = SharedBuf::new();
        let tracer = Tracer::jsonl(Box::new(buf.clone()));
        let cfg = WebIQConfig {
            threads: Some(threads),
            tracer: tracer.clone(),
            ..WebIQConfig::default()
        };
        run_on(0, &e, cfg);
        tracer.flush();
        buf.contents_string()
    };
    webiq_prof::reset();
    let reference = traced(1);
    assert!(!reference.is_empty(), "tracer emitted nothing");
    let profiled = webiq_prof::snapshot();
    assert!(
        profiled.get(webiq_prof::ProfCounter::WorkerItems) > 0,
        "profiling was not active during the run"
    );
    assert!(
        profiled.stage_calls(webiq_prof::Stage::Extract) > 0,
        "stage timers were not active during the run"
    );
    for threads in [2, 4, 8] {
        assert_eq!(
            reference,
            traced(threads),
            "profiled trace differs at {threads} threads"
        );
    }
}

/// The decision lines of a trace, verbatim.
fn decision_lines(trace: &str) -> String {
    trace
        .lines()
        .filter(|l| l.starts_with("{\"ev\":\"decision\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn decision_stream_is_byte_identical_across_the_full_thread_sweep() {
    // Decision provenance rides the same merge-time logical clock as the
    // span events, so the decision JSONL sub-stream — subjects, verdicts,
    // every evidence term's float encoding — is byte-identical across
    // the 1/2/4/8 sweep and across reruns.
    let (_, reference) = run_traced(0, 1);
    let decisions = decision_lines(&reference);
    assert!(
        !decisions.is_empty(),
        "acquisition recorded no decisions — provenance instrumentation is dead"
    );
    assert!(
        decisions.contains("\"kind\":\"instance_validate\""),
        "no instance_validate decisions:\n{decisions}"
    );
    for threads in [2, 4, 8] {
        let (_, trace) = run_traced(0, threads);
        assert_eq!(
            decisions,
            decision_lines(&trace),
            "decision stream differs at {threads} threads"
        );
    }
    let (_, rerun) = run_traced(0, 1);
    assert_eq!(
        decisions,
        decision_lines(&rerun),
        "decision stream differs across reruns"
    );
}

/// Acquisition with a live metrics registry installed; returns its
/// Prometheus rendering after the run.
fn run_observed(domain_idx: usize, threads: usize) -> String {
    let reg = Arc::new(LiveRegistry::new());
    run_cfg(
        domain_idx,
        WebIQConfig {
            threads: Some(threads),
            obs: Some(Arc::clone(&reg)),
            ..WebIQConfig::default()
        },
    );
    reg.render()
}

#[test]
fn metrics_exposition_is_byte_identical_across_worker_counts() {
    // The registry is fed from the deterministic merge loop, not from
    // worker-local state, so a post-run `/metrics` scrape is the same
    // byte stream at any thread count — and across reruns.
    let seq = run_observed(0, 1);
    assert!(
        seq.contains("webiq_attrs_total_total"),
        "rendering is missing counters:\n{seq}"
    );
    for threads in [2, 4] {
        let par = run_observed(0, threads);
        assert_eq!(seq, par, "/metrics differs at {threads} threads");
    }
    assert_eq!(seq, run_observed(0, 1), "/metrics differs across reruns");
}

#[test]
fn sequential_rerun_is_reproducible() {
    // Sanity for the test above: the whole pipeline (dataset generation,
    // corpus generation, probing) is deterministic at a fixed thread count.
    let a = run(0, 1);
    let b = run(0, 1);
    assert_eq!(a.acquired, b.acquired);
    assert_eq!(a.report, b.report);
}

/// With simulated latency on, one domain's acquisition misses the
/// engine's caches as often at 2 and 8 workers as at 1, and issues as
/// many queries: misses are single-flight, so no two workers fetch one
/// key.
#[test]
fn engine_traffic_is_equal_at_every_worker_count() {
    let traffic = |threads: usize| {
        let e = engine(0);
        e.set_simulated_latency_us(20);
        let cfg = WebIQConfig {
            threads: Some(threads),
            ..WebIQConfig::default()
        };
        run_on(0, &e, cfg);
        (e.stats().total(), e.stats().total_issued())
    };
    let one = traffic(1);
    assert!(one.0 > 0 && one.1 > one.0, "{one:?}");
    for threads in [2, 8] {
        assert_eq!(traffic(threads), one, "engine traffic at {threads} workers");
    }
}
