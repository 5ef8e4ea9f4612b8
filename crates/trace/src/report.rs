//! `webiq-report`: turn a trace into a per-domain, per-stage funnel.
//!
//! The funnel follows an attribute through the acquisition pipeline —
//! attrs in → candidates → verified → borrowed → probed → matched — and
//! its totals are, by construction, the same counters
//! `AcquisitionReport` is derived from (asserted by
//! `crates/core/tests/trace_report.rs`).
//!
//! Run totals come from close events of *root* spans only (spans with
//! no parent): a span's close delta already includes everything nested
//! inside it, so summing every close would double-count. Beside them,
//! each span *name*'s counters are summed over all its closes, so a
//! change that moves a nested span's count without moving the run's
//! total still shows.

use std::collections::{BTreeMap, HashMap};

use crate::event::Event;
use crate::metrics::{Counter, HistSet, MetricSet};

/// A run's totals read back from its trace, as produced by
/// [`aggregate_run`]: the counter and histogram deltas of its root
/// spans, and the counters of every span name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals {
    /// Summed counter deltas of the root spans.
    pub counters: MetricSet,
    /// Summed histogram deltas of the root spans.
    pub hists: HistSet,
    /// Counter deltas per span name, summed over every close of that
    /// name, root or nested; in name order.
    pub spans: BTreeMap<String, MetricSet>,
}

/// The per-stage funnel totals extracted from a counter set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Funnel {
    /// Attributes entering the strategy.
    pub attrs_total: u64,
    /// Of those, instance-less (§5 case 1).
    pub no_instance: u64,
    /// Of those, pre-defined and run through Attr-Surface (§5 case 2).
    pub predefined: u64,
    /// Candidate instances extracted from snippets.
    pub candidates: u64,
    /// Candidates surviving outlier removal + PMI validation.
    pub verified: u64,
    /// Borrowings accepted (case-1 probed domains + case-2 Bayes values).
    pub borrowed: u64,
    /// Deep-Web probes issued.
    pub probed: u64,
    /// Cluster merges performed by the matcher.
    pub matched: u64,
    /// Instance-less attributes that reached k with Surface alone.
    pub surface_success: u64,
    /// Instance-less attributes that reached k after Surface + Deep.
    pub surface_deep_success: u64,
    /// Pre-defined attributes enriched by Attr-Surface.
    pub attr_surface_enriched: u64,
    /// Engine queries attributed to the Surface component.
    pub surface_queries: u64,
    /// Engine queries attributed to the Attr-Surface component.
    pub attr_surface_queries: u64,
    /// Probes attributed to the Attr-Deep component.
    pub attr_deep_probes: u64,
}

/// Extract the funnel stages from a counter set.
pub fn funnel(m: &MetricSet) -> Funnel {
    Funnel {
        attrs_total: m.get(Counter::AttrsTotal),
        no_instance: m.get(Counter::AttrsNoInstance),
        predefined: m.get(Counter::AttrsPredefined),
        candidates: m.get(Counter::CandidatesExtracted),
        verified: m.get(Counter::ValidationAccepted),
        borrowed: m.get(Counter::BorrowAccepted) + m.get(Counter::BayesAccepted),
        probed: m.get(Counter::ProbesIssued),
        matched: m.get(Counter::ClusterMerges),
        surface_success: m.get(Counter::SurfaceSuccess),
        surface_deep_success: m.get(Counter::SurfaceDeepSuccess),
        attr_surface_enriched: m.get(Counter::AttrSurfaceEnriched),
        surface_queries: m.get(Counter::SurfaceQueries),
        attr_surface_queries: m.get(Counter::AttrSurfaceQueries),
        attr_deep_probes: m.get(Counter::AttrDeepProbes),
    }
}

/// Sum the counter deltas of all root spans (parent-less) in an event
/// stream. This equals the merged totals of everything the trace saw.
pub fn aggregate(events: &[Event]) -> MetricSet {
    aggregate_run(events).counters
}

/// Aggregate a full event stream into run [`Totals`]: the counter *and*
/// histogram deltas of all root spans (parent-less), plus every span
/// name's counters over all its closes. This is what `webiq-report
/// diff` compares two runs by. A close with no matching open counts
/// nowhere.
pub fn aggregate_run(events: &[Event]) -> Totals {
    let mut opens: HashMap<u64, (&str, bool)> = HashMap::new();
    for e in events {
        if let Event::Open {
            id, parent, name, ..
        } = e
        {
            opens.insert(*id, (name, parent.is_none()));
        }
    }
    let mut out = Totals::default();
    for e in events {
        if let Event::Close {
            id, metrics, hists, ..
        } = e
        {
            let Some(&(name, root)) = opens.get(id) else {
                continue;
            };
            let by_name = out.spans.entry(name.to_string()).or_default();
            for &(c, v) in metrics {
                by_name.add(c, v);
            }
            if root {
                for &(c, v) in metrics {
                    out.counters.add(c, v);
                }
                for &(h, buckets) in hists {
                    for (b, &n) in buckets.iter().enumerate() {
                        out.hists.add_bucket(h, b, n);
                    }
                }
            }
        }
    }
    out
}

/// Group an event stream by its root spans, in stream order: one
/// `(label, counters)` entry per parent-less span, labelled
/// `name · attr`. A multi-domain run produces one entry per domain.
pub fn aggregate_by_root(events: &[Event]) -> Vec<(String, MetricSet)> {
    let mut order: Vec<u64> = Vec::new();
    let mut labels: HashMap<u64, String> = HashMap::new();
    for e in events {
        if let Event::Open {
            id,
            parent: None,
            name,
            attr,
            ..
        } = e
        {
            order.push(*id);
            let label = match attr {
                Some(a) => format!("{name} · {a}"),
                None => name.clone(),
            };
            labels.insert(*id, label);
        }
    }
    let mut sums: HashMap<u64, MetricSet> = HashMap::new();
    for e in events {
        if let Event::Close { id, metrics, .. } = e {
            if labels.contains_key(id) {
                let m = sums.entry(*id).or_default();
                for &(c, v) in metrics {
                    m.add(c, v);
                }
            }
        }
    }
    order
        .into_iter()
        .map(|id| {
            (
                labels.remove(&id).unwrap_or_default(),
                sums.remove(&id).unwrap_or_default(),
            )
        })
        .collect()
}

/// Render one labelled funnel as aligned text.
pub fn render_funnel(label: &str, m: &MetricSet) -> String {
    let f = funnel(m);
    let mut out = String::new();
    out.push_str(&format!("acquisition funnel — {label}\n"));
    out.push_str(&format!(
        "  attrs in      {:>8}   ({} instance-less, {} pre-defined)\n",
        f.attrs_total, f.no_instance, f.predefined
    ));
    out.push_str(&format!(
        "  candidates    {:>8}   (extraction queries {})\n",
        f.candidates,
        m.get(Counter::ExtractQueries)
    ));
    out.push_str(&format!(
        "  verified      {:>8}   (outliers removed {}, validation rejected {})\n",
        f.verified,
        m.get(Counter::OutliersRemoved),
        m.get(Counter::ValidationRejected)
    ));
    out.push_str(&format!(
        "  borrowed      {:>8}   (case-1 domains {}, bayes values {}; rejected {} + {})\n",
        f.borrowed,
        m.get(Counter::BorrowAccepted),
        m.get(Counter::BayesAccepted),
        m.get(Counter::BorrowRejected),
        m.get(Counter::BayesRejected)
    ));
    out.push_str(&format!(
        "  probed        {:>8}   (matched {}, empty {}, rejected {}, server errors {})\n",
        f.probed,
        m.get(Counter::ProbeMatched),
        m.get(Counter::ProbeEmpty),
        m.get(Counter::ProbeRejected),
        m.get(Counter::ProbeServerError)
    ));
    out.push_str(&format!(
        "  matched       {:>8}   (cluster merges)\n",
        f.matched
    ));
    out.push_str(&format!(
        "  success: surface {}/{}, surface+deep {}/{}, attr-surface enriched {}\n",
        f.surface_success,
        f.no_instance,
        f.surface_deep_success,
        f.no_instance,
        f.attr_surface_enriched
    ));
    out.push_str(&format!(
        "  cost: engine queries {} (surface {}, attr-surface {}), probes {}\n",
        f.surface_queries + f.attr_surface_queries,
        f.surface_queries,
        f.attr_surface_queries,
        f.attr_deep_probes
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistKey;

    fn counters(entries: &[(Counter, u64)]) -> MetricSet {
        let mut m = MetricSet::new();
        for &(c, v) in entries {
            m.add(c, v);
        }
        m
    }

    #[test]
    fn funnel_maps_counters_to_stages() {
        let m = counters(&[
            (Counter::AttrsTotal, 10),
            (Counter::AttrsNoInstance, 6),
            (Counter::AttrsPredefined, 4),
            (Counter::CandidatesExtracted, 120),
            (Counter::ValidationAccepted, 50),
            (Counter::BorrowAccepted, 3),
            (Counter::BayesAccepted, 14),
            (Counter::ProbesIssued, 40),
            (Counter::ClusterMerges, 9),
        ]);
        let f = funnel(&m);
        assert_eq!(f.attrs_total, 10);
        assert_eq!(f.candidates, 120);
        assert_eq!(f.verified, 50);
        assert_eq!(f.borrowed, 17);
        assert_eq!(f.probed, 40);
        assert_eq!(f.matched, 9);
    }

    #[test]
    fn aggregate_counts_root_closes_only() {
        let events = vec![
            Event::Open {
                seq: 0,
                id: 0,
                parent: None,
                name: "acquire".into(),
                attr: Some("book".into()),
            },
            Event::Open {
                seq: 1,
                id: 1,
                parent: Some(0),
                name: "attribute".into(),
                attr: None,
            },
            // nested close: must NOT be double-counted
            Event::Close {
                seq: 2,
                id: 1,
                metrics: vec![(Counter::ProbesIssued, 5)],
                hists: vec![],
            },
            Event::Close {
                seq: 3,
                id: 0,
                metrics: vec![(Counter::ProbesIssued, 5)],
                hists: vec![],
            },
        ];
        let m = aggregate(&events);
        assert_eq!(m.get(Counter::ProbesIssued), 5);
    }

    #[test]
    fn aggregate_run_sums_root_hists_only() {
        let events = vec![
            Event::Open {
                seq: 0,
                id: 0,
                parent: None,
                name: "acquire".into(),
                attr: Some("book".into()),
            },
            Event::Open {
                seq: 1,
                id: 1,
                parent: Some(0),
                name: "attribute".into(),
                attr: None,
            },
            // nested close with hists: must NOT be double-counted
            Event::Close {
                seq: 2,
                id: 1,
                metrics: vec![(Counter::ProbesIssued, 5)],
                hists: vec![(HistKey::ProbesPerAttr, [0, 0, 0, 1, 0, 0, 0, 0])],
            },
            Event::Close {
                seq: 3,
                id: 0,
                metrics: vec![(Counter::ProbesIssued, 5)],
                hists: vec![(HistKey::ProbesPerAttr, [0, 0, 0, 1, 0, 0, 0, 0])],
            },
        ];
        let t = aggregate_run(&events);
        assert_eq!(t.counters.get(Counter::ProbesIssued), 5);
        assert_eq!(t.hists.count(HistKey::ProbesPerAttr), 1);
        assert_eq!(t.hists.bucket(HistKey::ProbesPerAttr, 3), 1);
        assert_eq!(t.hists.quantile(HistKey::ProbesPerAttr, 0.5), Some(7.0));
    }

    #[test]
    fn aggregate_run_sums_every_close_by_span_name() {
        let open = |seq, id, parent, name: &str| Event::Open {
            seq,
            id,
            parent,
            name: name.into(),
            attr: None,
        };
        let close = |seq, id, v| Event::Close {
            seq,
            id,
            metrics: vec![(Counter::EngineHitIssued, v)],
            hists: vec![],
        };
        let events = vec![
            open(0, 0, None, "acquire"),
            open(1, 1, Some(0), "verify"),
            close(2, 1, 2),
            open(3, 2, Some(0), "verify"),
            close(4, 2, 3),
            close(5, 0, 5),
            // a close without its open counts nowhere
            close(6, 9, 100),
        ];
        let t = aggregate_run(&events);
        assert_eq!(t.counters.get(Counter::EngineHitIssued), 5);
        let by_name: Vec<(&str, u64)> = t
            .spans
            .iter()
            .map(|(n, m)| (n.as_str(), m.get(Counter::EngineHitIssued)))
            .collect();
        assert_eq!(by_name, [("acquire", 5), ("verify", 5)]);
    }

    #[test]
    fn aggregate_by_root_groups_per_domain() {
        let mk = |seq, id, attr: &str| Event::Open {
            seq,
            id,
            parent: None,
            name: "acquire".into(),
            attr: Some(attr.into()),
        };
        let close = |seq, id, v| Event::Close {
            seq,
            id,
            metrics: vec![(Counter::AttrsTotal, v)],
            hists: vec![],
        };
        let events = vec![
            mk(0, 0, "book"),
            close(1, 0, 3),
            mk(2, 1, "auto"),
            close(3, 1, 7),
        ];
        let groups = aggregate_by_root(&events);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "acquire · book");
        assert_eq!(groups[0].1.get(Counter::AttrsTotal), 3);
        assert_eq!(groups[1].0, "acquire · auto");
        assert_eq!(groups[1].1.get(Counter::AttrsTotal), 7);
    }
}
