//! Warm-start glue between acquisition and the persistent knowledge
//! store (`webiq-store`).
//!
//! A run is identified by a *fingerprint*: an FNV-1a hash over
//! everything that determines its acquisition output — the dataset's
//! contents, the domain definition, the component selection, the
//! acquisition-relevant configuration knobs, the resolved fault plan,
//! and the corpus size. Thread count is deliberately excluded: any
//! worker count produces byte-identical output (see DESIGN.md), so a
//! store written at 8 threads must warm-start a 1-thread run. A second
//! run with an identical fingerprint replays the stored instances and
//! counter totals instead of touching an engine; any input change
//! misses and re-acquires cold.

use webiq_data::interface::Dataset;
use webiq_data::DomainDef;
use webiq_fault::{FaultConfig, Fnv64};
use webiq_store::WarmRun;
use webiq_trace::{Counter, MetricSet};

use crate::acquire::{Acquisition, AcquisitionReport};
use crate::config::{Components, WebIQConfig};

/// Streaming FNV-1a (64-bit) over the run's identity material.
struct Fnv(Fnv64);

impl Fnv {
    fn new() -> Self {
        Fnv(Fnv64::new())
    }

    fn bytes(&mut self, b: &[u8]) {
        self.0.write(b);
    }

    /// A length-prefixed string, so `("ab","c")` and `("a","bc")` feed
    /// distinct byte streams.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.bytes(&[u8::from(v)]);
    }
}

/// The fingerprint identifying one acquisition run's inputs. `fault`
/// must be the *resolved* fault configuration
/// ([`WebIQConfig::resolved_fault`]) so the ambient env knobs are part
/// of the identity, and `corpus_docs` the engine's document count (a
/// cheap proxy for the simulated-Web corpus the run queries).
///
/// Every [`WebIQConfig`] field is classified below, without `..`, so a
/// new field does not compile until someone decides whether it is
/// identity material.
pub fn run_fingerprint(
    ds: &Dataset,
    def: &DomainDef,
    components: Components,
    cfg: &WebIQConfig,
    fault: &FaultConfig,
    corpus_docs: u64,
) -> u64 {
    let WebIQConfig {
        k,
        snippets_per_query,
        scope_keywords,
        sibling_keywords,
        min_validation_score,
        outlier_phase,
        discordancy,
        use_pmi,
        borrow_label_sim,
        borrow_sibling_dom_sim,
        probe_limit,
        probe_accept_ratio,
        borrow_prefilter,
        info_gain_thresholds,
        // Not identity: any worker count, tracer or registry produces
        // byte-identical output, and the store is where the run is kept.
        threads: _,
        tracer: _,
        obs: _,
        store: _,
        // Hashed below in its resolved form (the `fault` argument).
        fault: _,
    } = cfg;
    let mut h = Fnv::new();
    h.str(&ds.domain);
    h.u64(ds.interfaces.len() as u64);
    for iface in &ds.interfaces {
        h.u64(iface.id as u64);
        h.str(&iface.site);
        h.u64(iface.attributes.len() as u64);
        for a in &iface.attributes {
            h.str(&a.name);
            h.str(&a.label);
            h.str(&a.concept);
            h.u64(a.instances.len() as u64);
            for v in &a.instances {
                h.str(v);
            }
            match &a.default {
                Some(d) => {
                    h.bool(true);
                    h.str(d);
                }
                None => h.bool(false),
            }
        }
    }
    h.str(def.object);
    h.u64(def.domain_terms.len() as u64);
    for t in def.domain_terms {
        h.str(t);
    }
    h.bool(components.surface);
    h.bool(components.attr_deep);
    h.bool(components.attr_surface);
    h.u64(*k as u64);
    h.u64(*snippets_per_query as u64);
    h.u64(*scope_keywords as u64);
    h.u64(*sibling_keywords as u64);
    h.f64(*min_validation_score);
    h.bool(*outlier_phase);
    h.str(&format!("{discordancy:?}"));
    h.bool(*use_pmi);
    h.f64(*borrow_label_sim);
    h.f64(*borrow_sibling_dom_sim);
    h.u64(*probe_limit as u64);
    h.f64(*probe_accept_ratio);
    h.bool(*borrow_prefilter);
    h.bool(*info_gain_thresholds);
    // The resolved fault plan changes outcomes (degraded attributes,
    // retry counts), so it is identity material; its Debug rendering
    // covers every knob without chasing the struct's evolution here.
    h.str(&format!("{fault:?}"));
    h.u64(corpus_docs);
    h.0.finish()
}

/// The merged counter totals of a run as stable `(name, value)` pairs —
/// the payload of the store's `RunComplete` commit marker.
pub fn counter_pairs(m: &MetricSet) -> Vec<(String, u64)> {
    m.nonzero()
        .into_iter()
        .map(|(c, v)| (c.name().to_string(), v))
        .collect()
}

/// Rebuild a counter set from stored `(name, value)` pairs. Names that
/// no longer exist are skipped — a store written by an older build
/// degrades to partial totals instead of failing the warm start.
pub fn metrics_from_pairs(pairs: &[(String, u64)]) -> MetricSet {
    let mut m = MetricSet::new();
    for (name, v) in pairs {
        if let Some(c) = Counter::from_name(name) {
            m.add(c, *v);
        }
    }
    m
}

/// Rebuild a full [`Acquisition`] from a stored warm run: acquired
/// instances and degraded flags from the instance records, the report
/// from the stored counter totals — the same
/// [`AcquisitionReport::from_metrics`] derivation the cold run uses, so
/// the two reports are equal.
pub fn rebuild_acquisition(warm: &WarmRun) -> Acquisition {
    let mut acq = Acquisition::default();
    for (iface, attr, values, degraded) in &warm.attrs {
        let r = (*iface as usize, *attr as usize);
        if *degraded {
            acq.degraded.insert(r);
        }
        if !values.is_empty() {
            acq.acquired.insert(r, values.clone());
        }
    }
    acq.report = AcquisitionReport::from_metrics(&metrics_from_pairs(&warm.counters));
    acq
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webiq_data::{generate_domain, kb, GenOptions};
    use webiq_obs::LiveRegistry;
    use webiq_stats::DiscordancyTest;
    use webiq_store::Store;
    use webiq_trace::Tracer;

    fn fingerprint_of(domain: &str, cfg: &WebIQConfig) -> u64 {
        let def = kb::domain(domain).expect("domain");
        let ds = generate_domain(def, &GenOptions::default());
        run_fingerprint(&ds, def, Components::ALL, cfg, &cfg.fault, 1000)
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        let cfg = WebIQConfig::default();
        let a = fingerprint_of("book", &cfg);
        assert_eq!(a, fingerprint_of("book", &cfg), "not reproducible");
        assert_ne!(a, fingerprint_of("airfare", &cfg), "domain ignored");
        // Every knob the fingerprint hashes, flipped in turn: each flip
        // must change it.
        type Flip = fn(&mut WebIQConfig);
        let flips: [(&str, Flip); 14] = [
            ("k", |c| c.k += 1),
            ("snippets_per_query", |c| c.snippets_per_query += 1),
            ("scope_keywords", |c| c.scope_keywords += 1),
            ("sibling_keywords", |c| c.sibling_keywords += 1),
            ("min_validation_score", |c| c.min_validation_score += 0.5),
            ("outlier_phase", |c| c.outlier_phase = !c.outlier_phase),
            ("discordancy", |c| c.discordancy = DiscordancyTest::Grubbs),
            ("use_pmi", |c| c.use_pmi = !c.use_pmi),
            ("borrow_label_sim", |c| c.borrow_label_sim += 0.1),
            ("borrow_sibling_dom_sim", |c| {
                c.borrow_sibling_dom_sim += 0.1;
            }),
            ("probe_limit", |c| c.probe_limit += 1),
            ("probe_accept_ratio", |c| c.probe_accept_ratio += 0.1),
            ("borrow_prefilter", |c| {
                c.borrow_prefilter = !c.borrow_prefilter;
            }),
            ("info_gain_thresholds", |c| {
                c.info_gain_thresholds = !c.info_gain_thresholds;
            }),
        ];
        for (knob, flip) in flips {
            let mut other = WebIQConfig::default();
            flip(&mut other);
            assert_ne!(a, fingerprint_of("book", &other), "{knob} ignored");
        }
    }

    #[test]
    fn fingerprint_ignores_thread_count() {
        let base = fingerprint_of("book", &WebIQConfig::default());
        let dir = std::env::temp_dir().join(format!("webiq-persist-fp-{}", std::process::id()));
        let store = Store::open(&dir).expect("store");
        // Fields that never change the output: none may move the key.
        let variants = [
            WebIQConfig {
                threads: Some(1),
                ..WebIQConfig::default()
            },
            WebIQConfig {
                threads: Some(8),
                ..WebIQConfig::default()
            },
            WebIQConfig {
                tracer: Tracer::memory().0,
                ..WebIQConfig::default()
            },
            WebIQConfig {
                obs: Some(Arc::new(LiveRegistry::new())),
                ..WebIQConfig::default()
            },
            WebIQConfig {
                store: Some(Arc::new(store)),
                ..WebIQConfig::default()
            },
        ];
        for cfg in &variants {
            assert_eq!(base, fingerprint_of("book", cfg), "{cfg:?}");
        }
        drop(variants);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counter_pairs_roundtrip_through_names() {
        let mut m = MetricSet::new();
        m.add(Counter::SurfaceQueries, 42);
        m.add(Counter::BayesAccepted, 7);
        let pairs = counter_pairs(&m);
        let back = metrics_from_pairs(&pairs);
        assert_eq!(back.get(Counter::SurfaceQueries), 42);
        assert_eq!(back.get(Counter::BayesAccepted), 7);
        assert_eq!(counter_pairs(&back), pairs);
        // unknown names from a future build are skipped, not fatal
        let with_unknown = vec![("no_such_counter".to_string(), 5)];
        assert!(metrics_from_pairs(&with_unknown).is_zero());
    }
}
