//! Seeded, attempt-keyed fault injection.
//!
//! A [`FaultPlan`] decides, for every call a component makes against an
//! external dependency, whether that call fails and how. The decision is
//! a pure function of `(seed, endpoint, query-key, attempt)`:
//!
//! - **transient** faults (server errors, timeouts, rate limits) mix the
//!   attempt number into the draw, so the *same* call can fail on its
//!   first attempt and succeed on a retry — exactly the behaviour a
//!   retry policy needs to be testable;
//! - **permanent** faults deliberately ignore the seed, the endpoint,
//!   and the attempt: they are a property of the request itself (a hash
//!   of the query), so a cursed request fails identically forever. This
//!   reproduces, bit for bit, the legacy `DeepSource::with_failure_rate`
//!   draw (`hash % 10_000` against the rate), which is why
//!   [`FaultPlan::permanent_only`] is a drop-in for it.
//!
//! Because no decision reads mutable state, injection is deterministic
//! at any worker count and across reruns — the chaos suite pins this.

use webiq_rng::{fnv1a, StdRng};

use crate::config::FaultConfig;

/// How an injected fault presents to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A 5xx that may clear on retry (the attempt is part of the draw).
    TransientServerError,
    /// A 5xx that never clears: every attempt fails identically.
    PermanentServerError,
    /// The round-trip never completed; retryable.
    Timeout,
    /// The dependency is throttling; retryable after backoff.
    RateLimited,
}

impl FaultKind {
    /// True when a retry has any chance of succeeding.
    pub fn is_transient(self) -> bool {
        !matches!(self, FaultKind::PermanentServerError)
    }

    /// Stable lowercase name (for traces and verdicts).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TransientServerError => "transient_server_error",
            FaultKind::PermanentServerError => "permanent_server_error",
            FaultKind::Timeout => "timeout",
            FaultKind::RateLimited => "rate_limited",
        }
    }
}

/// A pure, seeded fault-injection schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    transient_rate: f64,
    permanent_rate: f64,
    timeout_rate: f64,
    rate_limit_rate: f64,
}

impl FaultPlan {
    /// A plan injecting nothing (every call succeeds).
    pub fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            transient_rate: 0.0,
            permanent_rate: 0.0,
            timeout_rate: 0.0,
            rate_limit_rate: 0.0,
        }
    }

    /// Build the plan a [`FaultConfig`] describes.
    pub fn from_config(cfg: &FaultConfig) -> Self {
        FaultPlan {
            seed: cfg.seed,
            transient_rate: cfg.transient_rate.clamp(0.0, 1.0),
            permanent_rate: cfg.permanent_rate.clamp(0.0, 1.0),
            timeout_rate: cfg.timeout_rate.clamp(0.0, 1.0),
            rate_limit_rate: cfg.rate_limit_rate.clamp(0.0, 1.0),
        }
    }

    /// A plan injecting only transient server errors at `rate`.
    pub fn transient_only(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            transient_rate: rate.clamp(0.0, 1.0),
            permanent_rate: 0.0,
            timeout_rate: 0.0,
            rate_limit_rate: 0.0,
        }
    }

    /// The legacy failure model: a `rate` fraction of query keys fail
    /// permanently, drawn exactly like `DeepSource::with_failure_rate`
    /// always drew them (`key % 10_000` against the rate — no seed, no
    /// endpoint, no attempt).
    pub fn permanent_only(rate: f64) -> Self {
        FaultPlan {
            seed: 0,
            transient_rate: 0.0,
            permanent_rate: rate.clamp(0.0, 1.0),
            timeout_rate: 0.0,
            rate_limit_rate: 0.0,
        }
    }

    /// True when no rate can ever fire — callers may skip the hashing.
    pub fn is_disabled(&self) -> bool {
        self.transient_rate <= 0.0
            && self.permanent_rate <= 0.0
            && self.timeout_rate <= 0.0
            && self.rate_limit_rate <= 0.0
    }

    /// Decide the fate of one call: `endpoint` names the dependency
    /// (e.g. `"engine.search"` or a source name), `query_key` hashes the
    /// request (see [`query_key`]), `attempt` counts from 0. Returns the
    /// injected fault, or `None` when the call goes through.
    pub fn decide(&self, endpoint: &str, query_key: u64, attempt: u32) -> Option<FaultKind> {
        if self.is_disabled() {
            return None;
        }
        // Legacy draw: permanent faults are a property of the request
        // alone (see module docs).
        if self.permanent_rate > 0.0 && (query_key % 10_000) as f64 / 10_000.0 < self.permanent_rate
        {
            return Some(FaultKind::PermanentServerError);
        }
        let ep = fnv1a(endpoint.as_bytes());
        let draw = |salt: u64| unit(mix(&[self.seed, ep, query_key, u64::from(attempt), salt]));
        if self.transient_rate > 0.0 && draw(1) < self.transient_rate {
            return Some(FaultKind::TransientServerError);
        }
        if self.timeout_rate > 0.0 && draw(2) < self.timeout_rate {
            return Some(FaultKind::Timeout);
        }
        if self.rate_limit_rate > 0.0 && draw(3) < self.rate_limit_rate {
            return Some(FaultKind::RateLimited);
        }
        None
    }
}

/// Hash a query string into the key [`FaultPlan::decide`] expects
/// (FNV-1a, the same family `DeepSource` hashes its parameters with).
pub fn query_key(query: &str) -> u64 {
    fnv1a(query.as_bytes())
}

/// Fold words into one well-mixed u64 (FNV fold + xor-shift avalanche);
/// [`unit`] finishes the mixing through the rng's seeding.
pub(crate) fn mix(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// A uniform draw in [0, 1) from a fully-mixed key.
fn unit(key: u64) -> f64 {
    StdRng::seed_from_u64(key).next_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let p = FaultPlan::disabled();
        for attempt in 0..8 {
            assert_eq!(p.decide("engine.search", 42, attempt), None);
        }
        assert!(p.is_disabled());
    }

    #[test]
    fn decisions_are_pure_functions_of_the_key() {
        let p = FaultPlan::transient_only(0xfa17, 0.5);
        for key in 0..200u64 {
            for attempt in 0..4 {
                assert_eq!(
                    p.decide("e", key, attempt),
                    p.decide("e", key, attempt),
                    "decision not reproducible"
                );
            }
        }
    }

    #[test]
    fn transient_faults_depend_on_the_attempt() {
        let p = FaultPlan::transient_only(7, 0.5);
        let mut recovered = 0;
        for key in 0..200u64 {
            if p.decide("e", key, 0).is_some() && p.decide("e", key, 1).is_none() {
                recovered += 1;
            }
        }
        assert!(
            recovered > 10,
            "no fault ever cleared on retry: {recovered}"
        );
    }

    #[test]
    fn permanent_faults_ignore_the_attempt() {
        let p = FaultPlan::permanent_only(0.5);
        for key in 0..200u64 {
            let first = p.decide("e", key, 0);
            for attempt in 1..5 {
                assert_eq!(first, p.decide("e", key, attempt));
            }
            if let Some(k) = first {
                assert_eq!(k, FaultKind::PermanentServerError);
                assert!(!k.is_transient());
            }
        }
    }

    #[test]
    fn permanent_only_reproduces_the_legacy_draw() {
        // The exact `with_failure_rate` predicate, bit for bit.
        let rate = 0.37;
        let p = FaultPlan::permanent_only(rate);
        for key in 0..5_000u64 {
            let legacy = (key % 10_000) as f64 / 10_000.0 < rate;
            assert_eq!(p.decide("anything", key, 3).is_some(), legacy);
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let p = FaultPlan::transient_only(1, 0.2);
        let fired = (0..2_000u64)
            .filter(|k| p.decide("e", *k, 0).is_some())
            .count();
        assert!((200..600).contains(&fired), "fired = {fired}");
    }

    #[test]
    fn endpoints_draw_independently() {
        let p = FaultPlan::transient_only(1, 0.5);
        let differs = (0..200u64)
            .filter(|k| p.decide("a", *k, 0).is_some() != p.decide("b", *k, 0).is_some())
            .count();
        assert!(differs > 20, "endpoints share a schedule: {differs}");
    }

    #[test]
    fn all_kinds_reachable_and_named() {
        let p = FaultPlan::from_config(&FaultConfig {
            seed: 3,
            transient_rate: 0.2,
            timeout_rate: 0.2,
            rate_limit_rate: 0.2,
            permanent_rate: 0.05,
            ..FaultConfig::default()
        });
        let mut seen = [false; 4];
        for key in 0..2_000u64 {
            match p.decide("e", key, 0) {
                Some(FaultKind::TransientServerError) => seen[0] = true,
                Some(FaultKind::PermanentServerError) => seen[1] = true,
                Some(FaultKind::Timeout) => seen[2] = true,
                Some(FaultKind::RateLimited) => seen[3] = true,
                None => {}
            }
        }
        assert_eq!(seen, [true; 4], "some fault kind never fired");
        assert_eq!(FaultKind::Timeout.name(), "timeout");
        assert!(FaultKind::RateLimited.is_transient());
    }
}
