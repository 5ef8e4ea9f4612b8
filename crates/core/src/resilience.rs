//! Per-work-item resilience: deterministic fault injection, retry with
//! virtual-time backoff, circuit breaking, and quota-aware degradation
//! wrapped around the acquisition stack's two I/O boundaries.
//!
//! Every acquisition work item (one attribute) gets its own
//! [`Resilience`] bundle — clock, retry budget, and breakers are `Cell`
//! state evolved single-threadedly, so outcomes are a pure function of
//! the calls made on behalf of that attribute and stay byte-identical at
//! any worker count. The one shared piece is the run-wide
//! [`QuotaTracker`]: with the default unlimited quota it never denies;
//! with a finite quota, exhaustion order depends on scheduling, so quota
//! experiments run single-threaded (see `crates/fault/src/quota.rs`).
//!
//! The wrappers engage only when [`FaultConfig::enabled`] — an
//! unconfigured run never constructs them and is byte-identical to the
//! pre-resilience pipeline.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use webiq_deep::source::param_hash;
use webiq_deep::{DeepError, DeepSource};
use webiq_fault::{
    query_key, CircuitBreaker, FaultConfig, FaultPlan, QuotaTracker, RetryBudget, RetryPolicy,
    VirtualClock,
};
use webiq_trace::Counter;
use webiq_web::{QueryEngine, SearchEngine, Snippet};

use crate::attr_deep::ProbeTarget;

/// The per-item resilience bundle: one fault schedule, one virtual
/// clock, one retry budget, and one circuit breaker per endpoint lane.
#[derive(Debug)]
pub struct Resilience<'q> {
    plan: FaultPlan,
    policy: RetryPolicy,
    clock: VirtualClock,
    budget: RetryBudget,
    quota: &'q QuotaTracker,
    degraded: Cell<bool>,
    search_breaker: CircuitBreaker,
    hits_breaker: CircuitBreaker,
    probe_breaker: CircuitBreaker,
}

impl<'q> Resilience<'q> {
    /// The bundle a [`FaultConfig`] describes, metering engine calls
    /// against the shared `quota`.
    pub fn new(cfg: &FaultConfig, quota: &'q QuotaTracker) -> Self {
        Resilience {
            plan: FaultPlan::from_config(cfg),
            policy: RetryPolicy::from_config(cfg),
            clock: VirtualClock::new(),
            budget: RetryBudget::new(cfg.retry_budget),
            quota,
            degraded: Cell::new(false),
            search_breaker: CircuitBreaker::from_config(cfg),
            hits_breaker: CircuitBreaker::from_config(cfg),
            probe_breaker: CircuitBreaker::from_config(cfg),
        }
    }

    /// Did any call on this item fall back without completing — breaker
    /// fast-fail, retry exhaustion, or quota denial?
    pub fn degraded(&self) -> bool {
        self.degraded.get()
    }

    /// Virtual milliseconds spent backing off so far.
    pub fn virtual_elapsed_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Retries this item may still spend.
    pub fn retries_remaining(&self) -> u64 {
        self.budget.remaining()
    }

    fn mark_degraded(&self) {
        self.degraded.set(true);
    }

    /// Decide one injected-fault occurrence: record it against the
    /// breaker, then either schedule a retry (true) or give up (false).
    /// Shared by both boundaries so the tallies and backoff schedule
    /// mean the same thing everywhere.
    fn after_failure(&self, breaker: &CircuitBreaker, key: u64, attempt: u32) -> bool {
        breaker.record_failure(&self.clock);
        if self.policy.allows(attempt + 1) && self.budget.try_take() {
            webiq_trace::incr(Counter::FaultRetryAttempt);
            self.clock
                .advance_ms(self.policy.backoff_ms(key, attempt + 1));
            return true;
        }
        webiq_trace::incr(Counter::FaultRetryExhausted);
        self.mark_degraded();
        false
    }

    /// The engine-boundary guard of one call: breaker gate, planned
    /// injection with retries on the virtual clock, then the quota
    /// charge. True when the call may go out; false when it falls back.
    /// No step reads the call's answer, so a batch can run every query's
    /// guard first and send the cleared queries together.
    fn clears(&self, breaker: &CircuitBreaker, endpoint: &str, key: u64) -> bool {
        let mut attempt = 0u32;
        loop {
            if !breaker.allow(&self.clock) {
                webiq_trace::incr(Counter::FaultBreakerOpen);
                self.mark_degraded();
                return false;
            }
            if self.plan.decide(endpoint, key, attempt).is_some() {
                webiq_trace::incr(Counter::FaultInjected);
                if self.after_failure(breaker, key, attempt) {
                    attempt += 1;
                    continue;
                }
                return false;
            }
            if !self.quota.try_consume(1) {
                webiq_trace::incr(Counter::FaultQuotaDenied);
                self.mark_degraded();
                return false;
            }
            breaker.record_success();
            return true;
        }
    }

    /// Guard each of `queries` in order, send the cleared ones as one
    /// batch through `send`, and answer the rest with `T::default()`
    /// (the degradation ladder's empty result).
    fn guarded_batch<Q: AsRef<str>, T: Default>(
        &self,
        breaker: &CircuitBreaker,
        endpoint: &str,
        queries: &[Q],
        send: impl FnOnce(&[&str]) -> Vec<T>,
    ) -> Vec<T> {
        let cleared: Vec<bool> = queries
            .iter()
            .map(|q| self.clears(breaker, endpoint, query_key(q.as_ref())))
            .collect();
        let sent: Vec<&str> = queries
            .iter()
            .zip(&cleared)
            .filter(|(_, &ok)| ok)
            .map(|(q, _)| q.as_ref())
            .collect();
        let mut answers = send(&sent).into_iter();
        cleared
            .iter()
            .map(|&ok| {
                if ok {
                    answers.next().unwrap_or_default()
                } else {
                    T::default()
                }
            })
            .collect()
    }
}

/// A [`QueryEngine`] that runs every call through the item's
/// [`Resilience`] bundle: injected faults are retried with backoff on
/// the virtual clock, the per-endpoint breaker fast-fails a failing
/// lane, and each completed call is charged against the daily quota.
/// Fallbacks are empty results — the degradation ladder, not an abort.
/// A batch runs each query's guard in input order and then sends the
/// queries that cleared as one batch, which equals guarding and sending
/// them one at a time.
pub struct ResilientEngine<'a> {
    engine: &'a SearchEngine,
    res: &'a Resilience<'a>,
}

impl<'a> ResilientEngine<'a> {
    /// Wrap `engine` with the item's resilience bundle.
    pub fn new(engine: &'a SearchEngine, res: &'a Resilience<'a>) -> Self {
        ResilientEngine { engine, res }
    }
}

impl QueryEngine for ResilientEngine<'_> {
    fn search_many<Q: AsRef<str>>(&self, queries: &[Q], k: usize) -> Vec<Arc<Vec<Snippet>>> {
        self.res
            .guarded_batch(&self.res.search_breaker, "engine/search", queries, |sent| {
                self.engine.search_many(sent, k)
            })
    }

    fn num_hits_many<Q: AsRef<str>>(&self, queries: &[Q]) -> Vec<u64> {
        self.res
            .guarded_batch(&self.res.hits_breaker, "engine/hits", queries, |sent| {
                self.engine.num_hits_many(sent)
            })
    }

    /// Hit-count evidence stops being trustworthy once the daily quota
    /// is spent: verification then degrades to statistics-only checks.
    fn validation_available(&self) -> bool {
        !self.res.quota.exhausted()
    }
}

/// A [`ProbeTarget`] that retries server errors from a [`DeepSource`]
/// through the item's [`Resilience`] bundle, passing increasing attempt
/// numbers so transient injected faults can clear. Probes do not charge
/// the (search-engine) daily quota.
#[derive(Debug)]
pub struct ResilientSource<'a> {
    source: &'a DeepSource,
    res: &'a Resilience<'a>,
}

impl<'a> ResilientSource<'a> {
    /// Wrap `source` with the item's resilience bundle.
    pub fn new(source: &'a DeepSource, res: &'a Resilience<'a>) -> Self {
        ResilientSource { source, res }
    }
}

impl ProbeTarget for ResilientSource<'_> {
    fn probe(&self, values: &BTreeMap<String, String>) -> bool {
        let breaker = &self.res.probe_breaker;
        // The backoff-jitter key: the hash the source itself draws its
        // faults from, so schedules are a pure function of the request.
        let key = param_hash(values);
        let mut attempt = 0u32;
        loop {
            if !breaker.allow(&self.res.clock) {
                webiq_trace::incr(Counter::FaultBreakerOpen);
                self.res.mark_degraded();
                return false;
            }
            match self.source.try_submit_attempt(values, attempt) {
                Ok(matches) => {
                    breaker.record_success();
                    return !matches.is_empty();
                }
                Err(DeepError::ServerError) => {
                    if self.res.after_failure(breaker, key, attempt) {
                        attempt += 1;
                        continue;
                    }
                    return false;
                }
                // The endpoint answered; the request itself was invalid —
                // a retry cannot change a validation verdict.
                Err(_) => {
                    breaker.record_success();
                    return false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webiq_deep::{ParamDomain, Record, RecordStore, SourceParam};
    use webiq_web::Corpus;

    fn engine() -> SearchEngine {
        SearchEngine::new(Corpus::from_texts([
            "makes such as Honda and Toyota",
            "Make: Honda.",
        ]))
    }

    fn source(plan: FaultPlan) -> DeepSource {
        let store = RecordStore::new(vec![Record::new([("from", "Chicago")])]);
        DeepSource::new(
            "src",
            vec![SourceParam {
                name: "from".into(),
                domain: ParamDomain::Free,
                required: false,
            }],
            store,
        )
        .with_fault_plan(plan)
    }

    fn params(v: &str) -> BTreeMap<String, String> {
        [("from".to_string(), v.to_string())].into_iter().collect()
    }

    #[test]
    fn disabled_config_passes_calls_through() {
        let quota = QuotaTracker::new(0);
        let res = Resilience::new(&FaultConfig::default(), &quota);
        let e = engine();
        let wrapped = ResilientEngine::new(&e, &res);
        assert_eq!(wrapped.num_hits("\"Honda\""), e.num_hits("\"Honda\""));
        assert!(!res.degraded());
        assert_eq!(res.virtual_elapsed_ms(), 0);
    }

    #[test]
    fn transient_engine_faults_are_retried_to_success() {
        let quota = QuotaTracker::new(0);
        let cfg = FaultConfig {
            max_attempts: 8,
            retry_budget: 1_000,
            ..FaultConfig::chaos(3, 0.5)
        };
        let res = Resilience::new(&cfg, &quota);
        let e = engine();
        let wrapped = ResilientEngine::new(&e, &res);
        let before = webiq_trace::snapshot();
        for i in 0..50 {
            let _ = wrapped.num_hits(&format!("\"query {i}\""));
        }
        let d = webiq_trace::snapshot().diff(&before);
        assert!(d.get(Counter::FaultInjected) > 5, "{d:?}");
        assert!(d.get(Counter::FaultRetryAttempt) > 5, "{d:?}");
        // with 8 attempts at rate 0.5, essentially everything clears
        assert!(res.virtual_elapsed_ms() > 0, "backoff never ran");
    }

    #[test]
    fn retry_exhaustion_degrades_and_falls_back() {
        let quota = QuotaTracker::new(0);
        let cfg = FaultConfig {
            max_attempts: 2,
            ..FaultConfig::chaos(1, 1.0)
        };
        let res = Resilience::new(&cfg, &quota);
        let e = engine();
        let wrapped = ResilientEngine::new(&e, &res);
        assert_eq!(wrapped.num_hits("\"Honda\""), 0, "fallback is 0 hits");
        assert!(wrapped.search("\"Honda\"", 5).is_empty());
        assert!(res.degraded());
    }

    #[test]
    fn quota_denial_degrades_and_disables_validation() {
        let quota = QuotaTracker::new(1);
        let cfg = FaultConfig {
            daily_quota: 1,
            ..FaultConfig::default()
        };
        let res = Resilience::new(&cfg, &quota);
        let e = engine();
        let wrapped = ResilientEngine::new(&e, &res);
        assert!(wrapped.validation_available());
        let first = wrapped.num_hits("\"Honda\"");
        assert!(first > 0);
        let before = webiq_trace::snapshot();
        assert_eq!(wrapped.num_hits("\"Honda\""), 0);
        let d = webiq_trace::snapshot().diff(&before);
        assert_eq!(d.get(Counter::FaultQuotaDenied), 1);
        assert!(!wrapped.validation_available());
        assert!(res.degraded());
    }

    #[test]
    fn breaker_opens_under_sustained_faults_and_recovers() {
        let quota = QuotaTracker::new(0);
        let cfg = FaultConfig {
            max_attempts: 1, // no retries: each call is one failure
            breaker_threshold: 3,
            breaker_cooldown_ms: 1_000,
            ..FaultConfig::chaos(1, 1.0)
        };
        let res = Resilience::new(&cfg, &quota);
        let e = engine();
        let wrapped = ResilientEngine::new(&e, &res);
        let before = webiq_trace::snapshot();
        for _ in 0..6 {
            let _ = wrapped.num_hits("\"Honda\"");
        }
        let d = webiq_trace::snapshot().diff(&before);
        assert_eq!(d.get(Counter::FaultInjected), 3, "{d:?}");
        assert_eq!(d.get(Counter::FaultBreakerOpen), 3, "{d:?}");
        // cooldown elapses on the virtual clock → half-open trial flows
        res.clock.advance_ms(1_000);
        let mid = webiq_trace::snapshot();
        let _ = wrapped.num_hits("\"Honda\"");
        let d2 = webiq_trace::snapshot().diff(&mid);
        assert_eq!(d2.get(Counter::FaultInjected), 1, "trial call flowed");
    }

    #[test]
    fn transient_probe_faults_clear_on_retry() {
        let quota = QuotaTracker::new(0);
        let cfg = FaultConfig {
            max_attempts: 10,
            retry_budget: 1_000,
            ..FaultConfig::chaos(5, 0.6)
        };
        let res = Resilience::new(&cfg, &quota);
        let src = source(FaultPlan::from_config(&cfg));
        let wrapped = ResilientSource::new(&src, &res);
        // the matching probe must succeed despite a 60% transient rate
        assert!(wrapped.probe(&params("Chicago")));
        // ill-typed probe: endpoint answers, request finds nothing
        assert!(!wrapped.probe(&params("January")));
    }

    #[test]
    fn permanent_probe_faults_exhaust_retries() {
        let quota = QuotaTracker::new(0);
        let cfg = FaultConfig {
            permanent_rate: 1.0,
            max_attempts: 3,
            ..FaultConfig::default()
        };
        let res = Resilience::new(&cfg, &quota);
        let src = source(FaultPlan::from_config(&cfg));
        let wrapped = ResilientSource::new(&src, &res);
        let before = webiq_trace::snapshot();
        assert!(!wrapped.probe(&params("Chicago")));
        let d = webiq_trace::snapshot().diff(&before);
        assert_eq!(d.get(Counter::FaultRetryAttempt), 2);
        assert_eq!(d.get(Counter::FaultRetryExhausted), 1);
        assert!(res.degraded());
    }

    /// A batch through the wrapper equals its queries guarded and sent
    /// one at a time: answers, every thread-local counter, the engine's
    /// split, the virtual clock, the retry budget left and the degraded
    /// flag. The budget runs out mid-batch, so some queries fall back.
    #[test]
    fn a_batch_equals_its_queries_guarded_one_at_a_time() {
        let queries: Vec<String> = (0..60)
            .map(|i| {
                format!("\"{}\"", ["Honda", "Toyota", "Make", "q"][i % 4]) + &"!".repeat(i % 7)
            })
            .collect();
        let cfg = FaultConfig {
            retry_budget: 25,
            ..FaultConfig::chaos(17, 0.45)
        };
        let run = |batched: bool| {
            let quota = QuotaTracker::new(0);
            let res = Resilience::new(&cfg, &quota);
            let e = engine();
            let wrapped = ResilientEngine::new(&e, &res);
            let before = webiq_trace::snapshot();
            let (hits, snippets) = if batched {
                (
                    wrapped.num_hits_many(&queries),
                    wrapped.search_many(&queries, 2),
                )
            } else {
                let one = |breaker, endpoint, q: &str| res.clears(breaker, endpoint, query_key(q));
                (
                    queries
                        .iter()
                        .map(|q| {
                            if one(&res.hits_breaker, "engine/hits", q) {
                                e.num_hits(q)
                            } else {
                                0
                            }
                        })
                        .collect(),
                    queries
                        .iter()
                        .map(|q| {
                            if one(&res.search_breaker, "engine/search", q) {
                                e.search(q, 2)
                            } else {
                                Arc::default()
                            }
                        })
                        .collect(),
                )
            };
            let counters = webiq_trace::snapshot().diff(&before);
            let split = [
                e.stats().hit_queries(),
                e.stats().search_queries(),
                e.stats().total_issued(),
            ];
            (
                hits,
                snippets,
                counters,
                split,
                res.virtual_elapsed_ms(),
                res.retries_remaining(),
                res.degraded(),
            )
        };
        let (batch, single) = (run(true), run(false));
        assert_eq!(batch, single);
        let counters = &batch.2;
        assert!(counters.get(Counter::FaultInjected) > 0, "{counters:?}");
        assert!(
            counters.get(Counter::FaultRetryExhausted) > 0,
            "{counters:?}"
        );
        assert!(batch.6, "retries ran out, so the item degraded");
    }

    #[test]
    fn identical_bundles_produce_identical_outcomes() {
        let run = || {
            let quota = QuotaTracker::new(0);
            let cfg = FaultConfig::chaos(9, 0.4);
            let res = Resilience::new(&cfg, &quota);
            let e = engine();
            let wrapped = ResilientEngine::new(&e, &res);
            let hits: Vec<u64> = (0..30)
                .map(|i| wrapped.num_hits(&format!("\"q {i}\"")))
                .collect();
            (hits, res.virtual_elapsed_ms(), res.retries_remaining())
        };
        assert_eq!(run(), run());
    }
}
