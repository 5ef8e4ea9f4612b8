//! Decision families and their recording wrappers.
//!
//! Each wrapper is a thin, typed front for [`webiq_trace::decision`]:
//! it fixes the `kind` string, maps the boolean outcome to the family's
//! verdict vocabulary, and passes the evidence terms through. Recording
//! is ambient — a no-op unless the calling thread is inside a traced
//! work item — so instrumented call sites cost one thread-local borrow
//! when tracing is off.
//!
//! The four match-relevant families, in pipeline order:
//!
//! | kind                | verdicts          | evidence terms                      |
//! |---------------------|-------------------|-------------------------------------|
//! | `instance_validate` | accept / reject   | per-phrase joint/marginal hits, PMI |
//! | `bayes_verify`      | accept / reject   | posterior, prior, per-feature terms |
//! | `probe_verify`      | accept / reject   | probes, successes, ratio, threshold |
//! | `borrow_reuse`      | reuse / skip      | best domain similarity              |
//! | `cluster_merge`     | merge             | score, label_sim, dom_sim, α, β     |

/// An extracted instance kept or dropped by search-engine validation.
pub const INSTANCE_VALIDATE: &str = "instance_validate";
/// A borrowed candidate accepted or rejected by the validation
/// classifier (naive Bayes over thresholded validation features).
pub const BAYES_VERIFY: &str = "bayes_verify";
/// A lender's instance set accepted or rejected by live form probing.
pub const PROBE_VERIFY: &str = "probe_verify";
/// A lender reused (domain already accepted) or skipped (domain already
/// failed) without probing.
pub const BORROW_REUSE: &str = "borrow_reuse";
/// Two attribute clusters merged during interface matching.
pub const CLUSTER_MERGE: &str = "cluster_merge";

/// Positive verdict shared by the accept/reject families.
pub const ACCEPT: &str = "accept";
/// Negative verdict shared by the accept/reject families.
pub const REJECT: &str = "reject";
/// `borrow_reuse` verdict: lender taken on prior acceptance.
pub const REUSE: &str = "reuse";
/// `borrow_reuse` verdict: lender skipped on prior failure.
pub const SKIP: &str = "skip";
/// `cluster_merge` verdict: the pair was merged.
pub const MERGE: &str = "merge";

fn accept_verdict(accept: bool) -> &'static str {
    if accept {
        ACCEPT
    } else {
        REJECT
    }
}

/// Record one instance-validation decision: `candidate` kept or dropped
/// with the PMI scores and hit counts behind it.
pub fn instance_validate(candidate: &str, accept: bool, terms: &[(&str, f64)]) {
    webiq_trace::decision(INSTANCE_VALIDATE, candidate, accept_verdict(accept), terms);
}

/// Record one validation-classifier decision: borrowed `candidate`
/// accepted or rejected with the Bayes posterior and per-feature terms.
pub fn bayes_verify(candidate: &str, accept: bool, terms: &[(&str, f64)]) {
    webiq_trace::decision(BAYES_VERIFY, candidate, accept_verdict(accept), terms);
}

/// Record one probe-verification decision: `subject` (target attribute
/// plus lender reference) accepted or rejected with the probe outcome.
pub fn probe_verify(subject: &str, accept: bool, terms: &[(&str, f64)]) {
    webiq_trace::decision(PROBE_VERIFY, subject, accept_verdict(accept), terms);
}

/// Record a lender being reused or skipped on domain-similarity history
/// instead of being probed.
pub fn borrow_reuse(subject: &str, reused: bool, terms: &[(&str, f64)]) {
    webiq_trace::decision(
        BORROW_REUSE,
        subject,
        if reused { REUSE } else { SKIP },
        terms,
    );
}

/// Record one cluster merge: the representative attribute `pair` with
/// the label-sim/domain-sim/ICQ components behind the merge score.
pub fn cluster_merge(pair: &str, terms: &[(&str, f64)]) {
    webiq_trace::decision(CLUSTER_MERGE, pair, MERGE, terms);
}

#[cfg(test)]
mod tests {
    use super::*;
    use webiq_trace::{Event, Tracer};

    #[test]
    fn wrappers_fix_kind_and_verdict() {
        let (tracer, handle) = Tracer::memory();
        let item = tracer.item("attribute", "0/0 Title");
        instance_validate("rome", true, &[("pmi", 0.2)]);
        bayes_verify("paris", false, &[("posterior", 0.1)]);
        probe_verify("Title <- 1/2 Name", true, &[("ratio", 0.5)]);
        borrow_reuse("1/2 Name", false, &[("dom_sim", 0.1)]);
        cluster_merge("(author, writer)", &[("score", 0.7)]);
        tracer.submit(item.finish());

        let got: Vec<(String, String)> = handle
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Decision { kind, verdict, .. } => Some((kind.clone(), verdict.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            got,
            vec![
                (INSTANCE_VALIDATE.to_string(), ACCEPT.to_string()),
                (BAYES_VERIFY.to_string(), REJECT.to_string()),
                (PROBE_VERIFY.to_string(), ACCEPT.to_string()),
                (BORROW_REUSE.to_string(), SKIP.to_string()),
                (CLUSTER_MERGE.to_string(), MERGE.to_string()),
            ]
        );
    }
}
