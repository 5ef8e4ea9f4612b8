//! The completions memo against a fresh memo per label: one memo shared
//! by every attribute label of a domain (across two threads too, and
//! through a faulty engine) yields the candidates, counts and
//! thread-local counter deltas a fresh memo per label yields, and a
//! pattern's side and kind are part of the key.

use std::collections::BTreeSet;
use std::thread;

use webiq_core::extract::{self, Candidate, CompletionMemo};
use webiq_core::patterns::{CompletionSide, MaterializedPattern, PatternKind};
use webiq_core::{DomainInfo, Resilience, ResilientEngine, WebIQConfig};
use webiq_data::{corpus, generate_domain, kb, DomainDef, GenOptions};
use webiq_fault::{FaultConfig, QuotaTracker};
use webiq_trace::{Counter, MetricSet};
use webiq_web::{gen, GenConfig, QueryEngine, SearchEngine};

/// The paper seed and a held-out one.
const SEEDS: [u64; 2] = [7392, 2006];

/// A domain's distinct attribute labels, its engine and its extraction
/// scope, as the pipeline builds them at `seed`.
fn domain(def: &'static DomainDef, seed: u64) -> (Vec<String>, SearchEngine, DomainInfo) {
    let ds = generate_domain(
        def,
        &GenOptions {
            seed,
            ..GenOptions::default()
        },
    );
    let labels: BTreeSet<String> = ds.attributes().map(|(_, a)| a.label.clone()).collect();
    let engine = SearchEngine::new(gen::generate(
        &corpus::concept_specs(def),
        &GenConfig {
            seed: seed ^ 0xc0ffee,
            confuser_rate: 0.25,
            ..GenConfig::default()
        },
    ));
    let info = DomainInfo {
        object: def.object.to_string(),
        domain_terms: def.domain_terms.iter().map(|s| (*s).to_string()).collect(),
        sibling_terms: Vec::new(),
    };
    (labels.into_iter().collect(), engine, info)
}

/// What one extraction returns, and the thread-local counters it moved.
type Extracted = (Vec<Candidate>, usize, MetricSet);

fn extract<E: QueryEngine>(
    engine: &E,
    label: &str,
    info: &DomainInfo,
    memo: &CompletionMemo,
) -> Extracted {
    let before = webiq_trace::snapshot();
    let outcome = extract::extract_candidates(engine, label, info, &WebIQConfig::default(), memo);
    let delta = webiq_trace::snapshot().diff(&before);
    (outcome.candidates, outcome.queries, delta)
}

#[test]
fn a_shared_memo_extracts_what_a_fresh_one_does() {
    for seed in SEEDS {
        for def in kb::all_domains() {
            let (labels, engine, info) = domain(def, seed);
            let fresh: Vec<Extracted> = labels
                .iter()
                .map(|label| extract(&engine, label, &info, &CompletionMemo::new()))
                .collect();
            assert!(fresh.iter().any(|(c, _, _)| !c.is_empty()), "{}", def.key);

            let memo = CompletionMemo::new();
            for (label, want) in labels.iter().zip(&fresh) {
                let got = extract(&engine, label, &info, &memo);
                assert_eq!(&got, want, "{} at {seed}: {label}", def.key);
            }
            assert!(!memo.is_empty());

            // two threads through every label, in opposite orders
            let shared = CompletionMemo::new();
            thread::scope(|scope| {
                for reversed in [false, true] {
                    let (labels, engine, info, fresh, shared) =
                        (&labels, &engine, &info, &fresh, &shared);
                    scope.spawn(move || {
                        let mut order: Vec<usize> = (0..labels.len()).collect();
                        if reversed {
                            order.reverse();
                        }
                        for i in order {
                            let got = extract(engine, &labels[i], info, shared);
                            assert_eq!(got, fresh[i], "{} at {seed}: {}", def.key, labels[i]);
                        }
                    });
                }
            });
            assert_eq!(shared.len(), memo.len());
        }
    }
}

#[test]
fn patterns_differing_only_in_side_or_kind_keep_their_own_completions() {
    let snippet = "Boston and Denver airlines such as Delta and United fly daily";
    let pattern = |side, kind| MaterializedPattern {
        id: "s1",
        kind,
        cue: "airlines such as".to_string(),
        side,
    };
    let patterns = [
        pattern(CompletionSide::After, PatternKind::Set),
        pattern(CompletionSide::After, PatternKind::Singleton),
        pattern(CompletionSide::Before, PatternKind::Set),
        pattern(CompletionSide::Before, PatternKind::Singleton),
    ];
    let want: Vec<Vec<String>> = patterns
        .iter()
        .map(|p| extract::completions(snippet, p))
        .collect();
    assert_eq!(want[0], ["Delta", "United"]);
    assert_eq!(want[1], ["Delta"]);
    assert_eq!(want[2], ["Boston", "Denver"]);
    assert_eq!(want[3], ["Denver"]);
    let memo = CompletionMemo::new();
    for _ in 0..2 {
        for (p, want) in patterns.iter().zip(&want) {
            assert_eq!(&memo.completions(snippet, p)[..], &want[..], "{p:?}");
        }
    }
    assert_eq!(memo.len(), 4);
}

#[test]
fn a_shared_memo_extracts_what_a_fresh_one_does_through_faults() {
    let fault = FaultConfig::chaos(11, 0.2);
    let quota = QuotaTracker::new(fault.daily_quota);
    for def in kb::all_domains() {
        let (labels, engine, info) = domain(def, SEEDS[0]);
        // a fresh resilience bundle per label, as acquisition makes one
        // per attribute
        let run = |shared: Option<&CompletionMemo>| -> Vec<Extracted> {
            labels
                .iter()
                .map(|label| {
                    let res = Resilience::new(&fault, &quota);
                    let engine = ResilientEngine::new(&engine, &res);
                    match shared {
                        Some(memo) => extract(&engine, label, &info, memo),
                        None => extract(&engine, label, &info, &CompletionMemo::new()),
                    }
                })
                .collect()
        };
        let fresh = run(None);
        let faults: u64 = fresh
            .iter()
            .map(|(_, _, d)| d.get(Counter::FaultInjected))
            .sum();
        assert!(faults > 0, "{}: no fault injected", def.key);
        assert_eq!(run(Some(&CompletionMemo::new())), fresh, "{}", def.key);
    }
}
