//! Chaos suite: acquisition under injected faults (DESIGN.md §13).
//!
//! Pins the resilience guarantees end to end:
//!
//! - a fixed fault seed yields byte-identical trace streams and reports
//!   at any worker count, for transient rates up to 20%;
//! - wrappers that are armed but never fire acquire exactly what a
//!   disabled fault config does;
//! - a 10% transient-fault run completes the full domain, keeps the
//!   matching F-1 within a small margin of the clean run, and reports
//!   every degraded attribute;
//! - the circuit breaker walks closed → open → half-open → closed;
//! - a quota-exhausted run shows up as a trace-diff REGRESSION with the
//!   failing funnel stage named.

use webiq_core::{acquire, Acquisition, Components, WebIQConfig};
use webiq_data::records::{build_deep_source, RecordOptions};
use webiq_data::{corpus, generate_domain, kb, Dataset, GenOptions};
use webiq_fault::{BreakerState, CircuitBreaker, FaultConfig, FaultPlan, VirtualClock};
use webiq_match::{attributes_of, match_attributes, MatchConfig};
use webiq_obs::{diff_events, parse_jsonl};
use webiq_trace::report::aggregate_run;
use webiq_trace::{Counter, SharedBuf, Tracer};
use webiq_web::{gen, GenConfig, SearchEngine};

/// Full acquisition over one seeded synthetic domain with `threads`
/// workers and the given fault config threaded through both boundaries:
/// the sources run the attempt-aware plan and the retry layer runs the
/// same config. Returns the acquisition and the JSONL trace stream.
fn run_chaos(domain_idx: usize, threads: usize, fault: FaultConfig) -> (Acquisition, String) {
    let def = kb::all_domains()[domain_idx];
    let ds = generate_domain(def, &GenOptions::default());
    let (acq, trace) = run_on(&ds, domain_idx, threads, fault);
    (acq, trace)
}

fn run_on(
    ds: &Dataset,
    domain_idx: usize,
    threads: usize,
    fault: FaultConfig,
) -> (Acquisition, String) {
    let def = kb::all_domains()[domain_idx];
    let engine = SearchEngine::new(gen::generate(
        &corpus::concept_specs(def),
        &GenConfig::default(),
    ));
    let plan = fault.enabled().then(|| FaultPlan::from_config(&fault));
    let sources: Vec<_> = ds
        .interfaces
        .iter()
        .map(|i| {
            build_deep_source(
                def,
                i,
                &RecordOptions {
                    fault_plan: plan.clone(),
                    ..RecordOptions::default()
                },
            )
        })
        .collect();
    let buf = SharedBuf::new();
    let tracer = Tracer::jsonl(Box::new(buf.clone()));
    let cfg = WebIQConfig {
        threads: Some(threads),
        tracer: tracer.clone(),
        fault,
        ..WebIQConfig::default()
    };
    let acq =
        acquire::acquire(ds, def, &engine, &sources, Components::ALL, &cfg).expect("acquisition");
    tracer.flush();
    (acq, buf.contents_string())
}

/// Matching F-1 over the dataset with the acquisition's instances
/// grafted onto the interfaces.
fn enriched_f1(ds: &Dataset, acq: &Acquisition) -> f64 {
    let mut attrs = attributes_of(ds);
    for a in &mut attrs {
        a.values.extend(acq.instances_for(a.r).iter().cloned());
    }
    match_attributes(&attrs, &MatchConfig::default())
        .evaluate(ds)
        .f1
}

#[test]
fn fault_runs_are_byte_identical_across_worker_counts() {
    for rate in [0.0, 0.05, 0.2] {
        let fault = FaultConfig::chaos(42, rate);
        let (seq, seq_trace) = run_chaos(0, 1, fault.clone());
        assert!(!seq_trace.is_empty(), "tracer emitted nothing");
        for threads in [2, 4] {
            let (par, par_trace) = run_chaos(0, threads, fault.clone());
            assert_eq!(
                seq_trace, par_trace,
                "trace streams differ at {threads} workers (rate {rate})"
            );
            assert_eq!(seq.acquired, par.acquired, "rate {rate}");
            assert_eq!(seq.degraded, par.degraded, "rate {rate}");
            assert_eq!(seq.report, par.report, "rate {rate}");
        }
    }
}

#[test]
fn disabled_faults_leave_the_trace_stream_unchanged() {
    // FaultConfig::default() must be a true no-op: same bytes as a run
    // that predates the fault machinery (which the 0.0-rate chaos config
    // also exercises — `enabled()` is false for both).
    let (_, plain) = run_chaos(1, 2, FaultConfig::default());
    let (_, zero_rate) = run_chaos(1, 2, FaultConfig::chaos(99, 0.0));
    assert_eq!(plain, zero_rate, "disabled configs must be byte-identical");
}

#[test]
fn armed_but_idle_faults_acquire_what_disabled_faults_do() {
    // A quota no run can exhaust arms the resilient wrappers on every
    // call, yet with every injection rate at zero nothing ever fires:
    // the acquisition must match the disabled run exactly.
    let idle = FaultConfig {
        daily_quota: u64::MAX,
        ..FaultConfig::default()
    };
    assert!(idle.enabled(), "the idle config must arm the wrappers");
    for threads in [1, 2] {
        let (off, _) = run_chaos(1, threads, FaultConfig::default());
        let (armed, _) = run_chaos(1, threads, idle.clone());
        assert_eq!(off.acquired, armed.acquired, "{threads} workers");
        assert_eq!(off.degraded, armed.degraded, "{threads} workers");
        assert_eq!(off.report, armed.report, "{threads} workers");
    }
}

#[test]
fn ten_pct_transient_run_completes_and_degrades_gracefully() {
    let def = kb::all_domains()[0];
    let ds = generate_domain(def, &GenOptions::default());
    let (clean, _) = run_on(&ds, 0, 1, FaultConfig::default());
    let (faulty, trace) = run_on(&ds, 0, 1, FaultConfig::chaos(7, 0.10));

    // The run completed the whole domain and the retry layer was busy.
    assert_eq!(faulty.report.no_inst_attrs, clean.report.no_inst_attrs);
    assert!(faulty.report.faults_injected > 0, "no faults injected");
    assert!(faulty.report.retries > 0, "no retries recorded");

    // Every degraded attribute is reported, and the tallies agree with
    // the trace counters.
    assert_eq!(faulty.report.degraded_attrs, faulty.degraded.len());
    let totals = aggregate_run(&parse_jsonl("chaos", &trace).expect("trace parses"));
    assert_eq!(
        totals.counters.get(Counter::FaultAttrsDegraded),
        faulty.degraded.len() as u64
    );

    // Bounded degradation: with three attempts a 10% transient rate
    // leaves ~0.1% of calls failing, so matching accuracy stays within a
    // small margin of the clean run.
    let clean_f1 = enriched_f1(&ds, &clean);
    let faulty_f1 = enriched_f1(&ds, &faulty);
    assert!(
        clean_f1 - faulty_f1 <= 0.10,
        "F-1 degraded too far: clean {clean_f1:.4} vs faulty {faulty_f1:.4}"
    );
}

#[test]
fn breaker_walks_closed_open_half_open_closed() {
    let clock = VirtualClock::new();
    let breaker = CircuitBreaker::new(3, 500);
    assert_eq!(breaker.state(&clock), BreakerState::Closed);

    // Three consecutive failures trip it open; calls are then refused.
    for _ in 0..3 {
        assert!(breaker.allow(&clock));
        breaker.record_failure(&clock);
    }
    assert_eq!(breaker.state(&clock), BreakerState::Open);
    assert!(!breaker.allow(&clock));

    // After the cooldown it half-opens and admits one trial call.
    clock.advance_ms(500);
    assert_eq!(breaker.state(&clock), BreakerState::HalfOpen);
    assert!(breaker.allow(&clock));

    // A successful trial closes it again.
    breaker.record_success();
    assert_eq!(breaker.state(&clock), BreakerState::Closed);
    assert!(breaker.allow(&clock));
}

#[test]
fn sustained_faults_open_breakers_during_acquisition() {
    // Permanent faults at every call with a single attempt: failure
    // streaks build up and the per-attribute breakers trip.
    let fault = FaultConfig {
        seed: 3,
        permanent_rate: 1.0,
        max_attempts: 1,
        breaker_threshold: 2,
        ..FaultConfig::default()
    };
    let (acq, trace) = run_chaos(0, 1, fault);
    let totals = aggregate_run(&parse_jsonl("chaos", &trace).expect("trace parses"));
    assert!(
        totals.counters.get(Counter::FaultBreakerOpen) > 0,
        "breakers never opened"
    );
    assert!(acq.report.degraded_attrs > 0, "nothing reported degraded");
}

#[test]
fn quota_exhaustion_flags_a_diff_regression_naming_a_stage() {
    // Baseline: clean run. Candidate: same domain under a tiny daily
    // quota, which exhausts mid-run and drops validation to
    // statistics-only. The trace diff must call it a regression and
    // name the failing funnel stage, exactly as `webiq-report diff`
    // would in CI.
    let (_, base_trace) = run_chaos(0, 1, FaultConfig::default());
    let quota_cfg = FaultConfig {
        daily_quota: 40,
        ..FaultConfig::default()
    };
    let (acq, cand_trace) = run_chaos(0, 1, quota_cfg);
    assert!(acq.report.degraded_attrs > 0, "quota denial must degrade");

    let base = parse_jsonl("baseline", &base_trace).expect("baseline parses");
    let cand = parse_jsonl("candidate", &cand_trace).expect("candidate parses");
    let report = diff_events("baseline", &base, "candidate", &cand);
    assert!(report.regressed(), "quota exhaustion must gate the diff");
    let failures = report.regressions();
    assert!(
        failures.iter().any(|f| f.starts_with("stage ")),
        "no stage named in {failures:?}"
    );
    assert!(
        failures
            .iter()
            .any(|f| f == "counter fault_quota_denied" || f == "counter fault_attrs_degraded"),
        "fault counters must surface in the diff: {failures:?}"
    );
    assert!(report.render_text().contains("REGRESSION"));
}
