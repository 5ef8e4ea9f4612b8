//! Deep-Web source construction: backend record stores for each generated
//! interface.
//!
//! Each interface is backed by records whose field values are drawn from
//! the knowledge-base pools of its attributes' concepts: each pool is a
//! column of the source's [`RecordStore`], and a record holds one pool
//! index per attribute. Probing an attribute with a well-typed value
//! (`from = Chicago`) therefore selects records, while an ill-typed value
//! (`from = January`) selects nothing — the exact discrimination
//! Attr-Deep (§4) relies on.

use webiq_deep::{DeepSource, ParamDomain, RecordStore, SourceParam};
use webiq_fault::FaultPlan;
use webiq_rng::StdRng;

use crate::generate::site_pool;
use crate::interface::Interface;
use crate::kb::DomainDef;

/// Options for record-store construction.
#[derive(Debug, Clone)]
pub struct RecordOptions {
    /// Number of backend records per source.
    pub records: usize,
    /// Seed (combined with the interface id).
    pub seed: u64,
    /// Fraction of probe submissions answered with a server error
    /// (deterministic failure injection; live 2006 sources were flaky).
    /// These failures are permanent: the draw is attempt-blind, so
    /// retrying never helps. Ignored when `fault_plan` is set.
    pub failure_rate: f64,
    /// Attempt-aware fault plan for the source. Takes precedence over
    /// `failure_rate` and enables transient faults that clear on retry.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for RecordOptions {
    fn default() -> Self {
        RecordOptions {
            records: 150,
            seed: 0xdeeb,
            failure_rate: 0.0,
            fault_plan: None,
        }
    }
}

/// Value inventory backing one attribute of one interface.
fn attribute_pool<'a>(def: &'a DomainDef, iface: &'a Interface, attr_idx: usize) -> Vec<&'a str> {
    let a = &iface.attributes[attr_idx];
    if a.has_instances() {
        return a.instances.iter().map(String::as_str).collect();
    }
    match def.concept(&a.concept) {
        Some(c) if !c.instances.is_empty() => site_pool(c, iface.id).to_vec(),
        // generic attributes (keyword, …): free-text blobs built from the
        // domain vocabulary so substring matching behaves plausibly
        _ => def.domain_terms.to_vec(),
    }
}

/// Build the simulated Deep-Web source behind `iface`.
pub fn build_deep_source(def: &DomainDef, iface: &Interface, opts: &RecordOptions) -> DeepSource {
    let mut rng =
        StdRng::seed_from_u64(opts.seed ^ (iface.id as u64).wrapping_mul(0x9e3779b97f4a7c15));

    let pools: Vec<Vec<&str>> = (0..iface.attributes.len())
        .map(|i| attribute_pool(def, iface, i))
        .collect();

    // One column per attribute holding its pool; each record draws a
    // pool index per attribute, in form order, exactly as
    // `SliceRandom::choose` would draw it (nothing from an empty pool).
    let columns = iface
        .attributes
        .iter()
        .zip(&pools)
        .map(|(a, pool)| {
            (
                a.name.clone(),
                pool.iter().map(|v| (*v).to_string()).collect(),
            )
        })
        .collect();
    let store = RecordStore::from_columns(columns, opts.records, |c| {
        let len = pools.get(c).map_or(0, Vec::len);
        (len > 0).then(|| rng.gen_range(0..len))
    });

    let params = iface
        .attributes
        .iter()
        .map(|a| SourceParam {
            name: a.name.clone(),
            domain: if a.has_instances() {
                ParamDomain::Enumerated(a.instances.clone())
            } else {
                ParamDomain::Free
            },
            required: false,
        })
        .collect();

    let source = DeepSource::new(iface.site.clone(), params, store);
    match &opts.fault_plan {
        Some(plan) => source.with_fault_plan(plan.clone()),
        None => source.with_failure_rate(opts.failure_rate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_domain, GenOptions};
    use crate::kb;
    use std::collections::BTreeMap;
    use webiq_deep::analyze_response;

    fn airfare_source() -> (DeepSource, Interface) {
        let def = kb::domain("airfare").expect("domain");
        let ds = generate_domain(def, &GenOptions::default());
        // find an interface with a text-mode from_city attribute
        let iface = ds
            .interfaces
            .iter()
            .find(|i| {
                i.attributes
                    .iter()
                    .any(|a| a.concept == "from_city" && !a.has_instances())
            })
            .expect("some interface has a text from_city")
            .clone();
        (
            build_deep_source(def, &iface, &RecordOptions::default()),
            iface,
        )
    }

    fn probe(src: &DeepSource, name: &str, value: &str) -> webiq_deep::SubmissionOutcome {
        let mut params = BTreeMap::new();
        params.insert(name.to_string(), value.to_string());
        analyze_response(&src.submit(&params))
    }

    #[test]
    fn well_typed_probe_succeeds() {
        let (src, iface) = airfare_source();
        let from = iface
            .attributes
            .iter()
            .find(|a| a.concept == "from_city" && !a.has_instances())
            .expect("text from_city");
        // a popular city should appear among 150 records
        let outcome = probe(&src, &from.name, "Boston");
        assert!(outcome.is_success(), "Boston probe failed: {outcome:?}");
    }

    #[test]
    fn ill_typed_probe_fails() {
        let (src, iface) = airfare_source();
        let from = iface
            .attributes
            .iter()
            .find(|a| a.concept == "from_city" && !a.has_instances())
            .expect("text from_city");
        let outcome = probe(&src, &from.name, "Jan");
        assert!(!outcome.is_success(), "month accepted as city: {outcome:?}");
    }

    #[test]
    fn enumerated_attribute_rejects_foreign_value() {
        let def = kb::domain("airfare").expect("domain");
        let ds = generate_domain(def, &GenOptions::default());
        let iface = ds
            .interfaces
            .iter()
            .find(|i| {
                i.attributes
                    .iter()
                    .any(|a| a.concept == "airline" && a.has_instances())
            })
            .expect("select airline exists")
            .clone();
        let src = build_deep_source(def, &iface, &RecordOptions::default());
        let airline = iface
            .attributes
            .iter()
            .find(|a| a.concept == "airline" && a.has_instances())
            .expect("select airline");
        let outcome = probe(&src, &airline.name, "Zeppelin Airways");
        assert_eq!(outcome, webiq_deep::SubmissionOutcome::Error);
    }

    #[test]
    fn empty_submission_returns_everything() {
        let (src, _) = airfare_source();
        let page = src.submit(&BTreeMap::new());
        assert!(analyze_response(&page).is_success());
    }

    #[test]
    fn deterministic_stores() {
        let def = kb::domain("auto").expect("domain");
        let ds = generate_domain(def, &GenOptions::default());
        let a = build_deep_source(def, &ds.interfaces[0], &RecordOptions::default());
        let b = build_deep_source(def, &ds.interfaces[0], &RecordOptions::default());
        assert_eq!(a.record_count(), b.record_count());
        let page_a = a.submit(&BTreeMap::new());
        let page_b = b.submit(&BTreeMap::new());
        assert_eq!(page_a, page_b);
    }
}
