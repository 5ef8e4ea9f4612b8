//! A simulated Deep-Web data source: a form handler over a record store.
//!
//! `submit` takes the form parameters (attribute name → value), runs the
//! backend query, and returns an HTML response page. Behaviour mirrors what
//! the paper relies on (§4):
//!
//! - **partial queries are permitted** — unspecified/empty values are
//!   unconstrained ("many interfaces permit partial queries");
//! - **pre-defined domains are enforced** — a `<select>`-backed attribute
//!   rejects values outside its option list with an error page;
//! - ill-typed free-text values simply select nothing → "no results";
//! - optional **failure injection** deterministically returns server
//!   errors for a configurable fraction of probes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use webiq_fault::{FaultPlan, Fnv64};
use webiq_trace::Counter;

use crate::error::DeepError;
use crate::record::{RecordStore, Row};
use crate::render;

/// How (and whether) the source injects failures.
#[derive(Debug, Clone, Default)]
enum Injection {
    /// No injection: every valid submission reaches the backend.
    #[default]
    None,
    /// Legacy attempt-blind injection: a fixed fraction of submissions
    /// (chosen purely by a hash of the parameters) always fail — retrying
    /// can never succeed. Kept byte-identical to the historical behaviour
    /// and bumps no fault counters.
    LegacyRate(f64),
    /// Attempt-aware injection driven by a [`FaultPlan`]: transient faults
    /// can clear on a later attempt, permanent ones never do. Injections
    /// are tallied under [`Counter::FaultInjected`].
    Plan(FaultPlan),
}

/// Constraint a source places on one of its parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamDomain {
    /// Free-text parameter: any value accepted, matching done by the store.
    Free,
    /// Pre-defined values (a `<select>`/radio attribute): values outside
    /// the list are rejected with an error page.
    Enumerated(Vec<String>),
}

/// A parameter the source's form accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceParam {
    /// Parameter (form-control) name.
    pub name: String,
    /// Accepted values.
    pub domain: ParamDomain,
    /// Whether the source requires this parameter to be non-empty.
    pub required: bool,
}

/// A simulated Deep-Web source.
#[derive(Debug)]
pub struct DeepSource {
    /// Human-readable source name (used in response pages).
    pub name: String,
    params: Vec<SourceParam>,
    store: RecordStore,
    injection: Injection,
    probes: AtomicU64,
}

impl DeepSource {
    /// Stand up a source over `store` accepting `params`.
    pub fn new(name: impl Into<String>, params: Vec<SourceParam>, store: RecordStore) -> Self {
        DeepSource {
            name: name.into(),
            params,
            store,
            injection: Injection::None,
            probes: AtomicU64::new(0),
        }
    }

    /// Enable deterministic failure injection: a `rate` fraction of
    /// submissions (chosen by a hash of the parameters) return a server
    /// error page. These failures are *permanent* — the draw ignores the
    /// attempt number, so a failing submission fails on every retry. Use
    /// [`DeepSource::with_fault_plan`] for transient, attempt-aware faults.
    pub fn with_failure_rate(mut self, rate: f64) -> Self {
        self.injection = Injection::LegacyRate(rate.clamp(0.0, 1.0));
        self
    }

    /// Enable attempt-aware failure injection driven by `plan`. The fault
    /// drawn for a submission is a pure function of the source name, the
    /// parameter hash, and the attempt number, so transient faults can
    /// clear on retry while permanent ones never do. Every injected fault
    /// bumps [`Counter::FaultInjected`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.injection = Injection::Plan(plan);
        self
    }

    /// The source's accepted parameters.
    pub fn params(&self) -> &[SourceParam] {
        &self.params
    }

    /// Number of probe submissions served so far.
    pub fn probe_count(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Number of backend records.
    pub fn record_count(&self) -> usize {
        self.store.len()
    }

    /// Submit the form with `values` (name → value; empty string = leave
    /// unspecified). Returns the matching records, or a structured
    /// [`DeepError`] describing why the source rejected the submission.
    ///
    /// Every submission bumps the thread-local trace counters: one
    /// [`Counter::ProbesIssued`] plus exactly one outcome-class counter.
    /// Failure injection is a pure function of the parameters, so these
    /// tallies are deterministic and safe for the trace event stream.
    pub fn try_submit(&self, values: &BTreeMap<String, String>) -> Result<Vec<Row<'_>>, DeepError> {
        self.try_submit_attempt(values, 0)
    }

    /// [`DeepSource::try_submit`] with an explicit attempt number. Under a
    /// [`FaultPlan`] the injected fault is a pure function of
    /// `(source name, parameter hash, attempt)`, so a retry layer can pass
    /// increasing attempt numbers and see transient faults clear.
    pub fn try_submit_attempt(
        &self,
        values: &BTreeMap<String, String>,
        attempt: u32,
    ) -> Result<Vec<Row<'_>>, DeepError> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        webiq_trace::incr(Counter::ProbesIssued);
        let result = self.serve(values, attempt);
        webiq_trace::incr(match &result {
            Ok(matches) if matches.is_empty() => Counter::ProbeEmpty,
            Ok(_) => Counter::ProbeMatched,
            Err(DeepError::ServerError) => Counter::ProbeServerError,
            Err(_) => Counter::ProbeRejected,
        });
        result
    }

    /// The form handler behind [`DeepSource::try_submit`]: validation,
    /// failure injection, and the backend query.
    fn serve(
        &self,
        values: &BTreeMap<String, String>,
        attempt: u32,
    ) -> Result<Vec<Row<'_>>, DeepError> {
        match &self.injection {
            Injection::None => {}
            Injection::LegacyRate(rate) => {
                if *rate > 0.0 {
                    let h = param_hash(values);
                    if (h % 10_000) as f64 / 10_000.0 < *rate {
                        return Err(DeepError::ServerError);
                    }
                }
            }
            Injection::Plan(plan) => {
                // DeepError carries no timeout/rate-limit variants: an HTML
                // endpoint surfaces every injected fault as a 500 page.
                if plan
                    .decide(&self.name, param_hash(values), attempt)
                    .is_some()
                {
                    webiq_trace::incr(Counter::FaultInjected);
                    return Err(DeepError::ServerError);
                }
            }
        }

        // Validate against parameter domains.
        for p in &self.params {
            let supplied = values.get(&p.name).map_or("", String::as_str);
            if supplied.trim().is_empty() {
                if p.required {
                    return Err(DeepError::MissingRequired {
                        field: p.name.clone(),
                    });
                }
                continue;
            }
            if let ParamDomain::Enumerated(allowed) = &p.domain {
                if !allowed
                    .iter()
                    .any(|a| a.eq_ignore_ascii_case(supplied.trim()))
                {
                    return Err(DeepError::InvalidValue {
                        field: p.name.clone(),
                    });
                }
            }
        }

        // Unknown parameter names are ignored by real CGI endpoints; only
        // known ones constrain the query.
        let known = values
            .iter()
            .filter(|(k, _)| self.params.iter().any(|p| &p.name == *k))
            .map(|(k, v)| (k.as_str(), v.as_str()));

        Ok(self.store.query(known))
    }

    /// [`DeepSource::try_submit`] rendered the way a browser would see
    /// it: the HTML response page, with every [`DeepError`] mapped to the
    /// corresponding error page.
    pub fn submit(&self, values: &BTreeMap<String, String>) -> String {
        self.submit_attempt(values, 0)
    }

    /// [`DeepSource::submit`] with an explicit attempt number (see
    /// [`DeepSource::try_submit_attempt`]).
    pub fn submit_attempt(&self, values: &BTreeMap<String, String>, attempt: u32) -> String {
        match self.try_submit_attempt(values, attempt) {
            Ok(matches) if matches.is_empty() => render::no_results_page(&self.name),
            Ok(matches) => render::results_page(&self.name, &matches),
            Err(DeepError::ServerError) => render::server_error_page(),
            Err(DeepError::MissingRequired { field }) => {
                render::error_page(&self.name, &format!("field '{field}' is required"))
            }
            Err(DeepError::InvalidValue { field }) => {
                render::error_page(&self.name, &format!("invalid value for field '{field}'"))
            }
        }
    }
}

/// Deterministic hash of the submitted parameters: FNV-1a over
/// `name\0value\0…` in name order.
pub fn param_hash(values: &BTreeMap<String, String>) -> u64 {
    let mut h = Fnv64::new();
    for (k, v) in values {
        h.write(k.as_bytes());
        h.write(&[0]);
        h.write(v.as_bytes());
        h.write(&[0]);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    fn source() -> DeepSource {
        let store = RecordStore::new(vec![
            Record::new([("from", "Chicago"), ("to", "Boston"), ("airline", "United")]),
            Record::new([("from", "Chicago"), ("to", "Denver"), ("airline", "Delta")]),
            Record::new([("from", "Seattle"), ("to", "Boston"), ("airline", "Alaska")]),
        ]);
        DeepSource::new(
            "AcmeAir",
            vec![
                SourceParam {
                    name: "from".into(),
                    domain: ParamDomain::Free,
                    required: false,
                },
                SourceParam {
                    name: "to".into(),
                    domain: ParamDomain::Free,
                    required: false,
                },
                SourceParam {
                    name: "airline".into(),
                    domain: ParamDomain::Enumerated(vec![
                        "United".into(),
                        "Delta".into(),
                        "Alaska".into(),
                    ]),
                    required: false,
                },
            ],
            store,
        )
    }

    fn params(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect()
    }

    #[test]
    fn valid_probe_returns_results() {
        let s = source();
        let page = s.submit(&params(&[("from", "Chicago")]));
        assert!(page.contains("Found 2 matching results"), "{page}");
    }

    #[test]
    fn ill_typed_probe_returns_no_results() {
        let s = source();
        let page = s.submit(&params(&[("from", "January")]));
        assert!(page.contains("no results"), "{page}");
    }

    #[test]
    fn enumerated_domain_rejects_unknown_value() {
        let s = source();
        let page = s.submit(&params(&[("airline", "Aer Lingus")]));
        assert!(page.contains("invalid value"), "{page}");
    }

    #[test]
    fn enumerated_domain_accepts_case_insensitively() {
        let s = source();
        let page = s.submit(&params(&[("airline", "delta")]));
        assert!(page.contains("Found 1 matching results"), "{page}");
    }

    #[test]
    fn partial_query_with_all_defaults() {
        let s = source();
        let page = s.submit(&params(&[("from", ""), ("to", "")]));
        assert!(page.contains("Found 3 matching results"), "{page}");
    }

    #[test]
    fn required_field_enforced() {
        let store = RecordStore::new(vec![Record::new([("q", "x")])]);
        let s = DeepSource::new(
            "Req",
            vec![SourceParam {
                name: "q".into(),
                domain: ParamDomain::Free,
                required: true,
            }],
            store,
        );
        let page = s.submit(&params(&[]));
        assert!(page.contains("required"), "{page}");
    }

    #[test]
    fn unknown_params_ignored() {
        let s = source();
        let page = s.submit(&params(&[("bogus", "value")]));
        assert!(page.contains("Found 3 matching results"), "{page}");
    }

    #[test]
    fn probe_outcome_counters_classify_responses() {
        let before = webiq_trace::snapshot();
        let s = source();
        let _ = s.try_submit(&params(&[("from", "Chicago")])); // matched
        let _ = s.try_submit(&params(&[("from", "January")])); // empty
        let _ = s.try_submit(&params(&[("airline", "Aer Lingus")])); // rejected
        let f = source().with_failure_rate(1.0);
        let _ = f.try_submit(&params(&[("from", "Chicago")])); // server error
        let d = webiq_trace::snapshot().diff(&before);
        assert_eq!(d.get(Counter::ProbesIssued), 4);
        assert_eq!(d.get(Counter::ProbeMatched), 1);
        assert_eq!(d.get(Counter::ProbeEmpty), 1);
        assert_eq!(d.get(Counter::ProbeRejected), 1);
        assert_eq!(d.get(Counter::ProbeServerError), 1);
    }

    #[test]
    fn probe_counter_increments() {
        let s = source();
        let _ = s.submit(&params(&[]));
        let _ = s.submit(&params(&[]));
        assert_eq!(s.probe_count(), 2);
    }

    #[test]
    fn failure_injection_is_deterministic() {
        let s = source().with_failure_rate(1.0);
        let page = s.submit(&params(&[("from", "Chicago")]));
        assert!(page.contains("Internal Server Error"));
        let s2 = source().with_failure_rate(0.0);
        let page2 = s2.submit(&params(&[("from", "Chicago")]));
        assert!(!page2.contains("Internal Server Error"));
    }

    #[test]
    fn partial_failure_rate_hits_some_probes() {
        let s = source().with_failure_rate(0.5);
        let mut failures = 0;
        for i in 0..40 {
            let page = s.submit(&params(&[("from", &format!("city{i}"))]));
            if page.contains("Internal Server Error") {
                failures += 1;
            }
        }
        assert!(failures > 5 && failures < 35, "failures = {failures}");
    }

    #[test]
    fn transient_plan_faults_clear_on_a_later_attempt() {
        let s = source().with_fault_plan(FaultPlan::transient_only(7, 0.6));
        let vals = (0..50).map(|i| params(&[("from", &format!("city{i}"))]));
        let mut cleared = 0;
        for v in vals {
            if s.try_submit_attempt(&v, 0).is_err() {
                // a transient fault must eventually succeed on some retry
                let ok = (1..8).any(|a| s.try_submit_attempt(&v, a).is_ok());
                assert!(ok, "transient fault never cleared for {v:?}");
                cleared += 1;
            }
        }
        assert!(cleared > 5, "rate 0.6 injected only {cleared}/50");
    }

    #[test]
    fn permanent_plan_faults_never_clear() {
        let s = source().with_fault_plan(FaultPlan::permanent_only(1.0));
        let v = params(&[("from", "Chicago")]);
        for a in 0..5 {
            assert!(s.try_submit_attempt(&v, a).is_err(), "attempt {a}");
        }
    }

    #[test]
    fn permanent_plan_matches_legacy_rate_draw() {
        // with_failure_rate and permanent_only(rate) must fail the exact
        // same submissions — the legacy draw is a property of the request
        let legacy = source().with_failure_rate(0.5);
        let plan = source().with_fault_plan(FaultPlan::permanent_only(0.5));
        for i in 0..40 {
            let v = params(&[("from", &format!("city{i}"))]);
            assert_eq!(
                legacy.try_submit(&v).is_err(),
                plan.try_submit(&v).is_err(),
                "probe {i} diverged"
            );
        }
    }

    #[test]
    fn plan_injection_bumps_fault_counter_but_legacy_does_not() {
        let before = webiq_trace::snapshot();
        let legacy = source().with_failure_rate(1.0);
        let _ = legacy.try_submit(&params(&[("from", "Chicago")]));
        let mid = webiq_trace::snapshot();
        assert_eq!(mid.diff(&before).get(Counter::FaultInjected), 0);
        let plan = source().with_fault_plan(FaultPlan::permanent_only(1.0));
        let _ = plan.try_submit(&params(&[("from", "Chicago")]));
        let d = webiq_trace::snapshot().diff(&mid);
        assert_eq!(d.get(Counter::FaultInjected), 1);
        assert_eq!(d.get(Counter::ProbeServerError), 1);
    }
}
