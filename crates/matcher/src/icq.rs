//! The IceQ-style interface matcher (§5).
//!
//! `Sim(A, B) = α · LabelSim(A, B) + β · DomSim(A, B)` with α = 0.6 and
//! β = 0.4 (the paper's settings, taken from [28]); attributes are grouped
//! by constrained agglomerative clustering with threshold τ (0 for the
//! unthresholded runs, 0.1 for the thresholded ones).

use std::collections::{BTreeMap, BTreeSet};

use webiq_data::gold;
use webiq_data::interface::{AttrRef, Dataset};

use crate::cluster::{self, Item};
use crate::domsim::{self, ValueSet};
use crate::labelsim;
use crate::metrics::PrF1;

/// Matcher configuration.
#[derive(Debug, Clone, Copy)]
pub struct MatchConfig {
    /// Weight of label similarity (paper: 0.6).
    pub alpha: f64,
    /// Weight of domain similarity (paper: 0.4).
    pub beta: f64,
    /// Clustering threshold τ (paper: 0 or 0.1).
    pub threshold: f64,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            alpha: 0.6,
            beta: 0.4,
            threshold: 0.0,
        }
    }
}

impl MatchConfig {
    /// The paper's thresholded configuration (τ = 0.1).
    pub fn with_threshold(threshold: f64) -> Self {
        MatchConfig {
            threshold,
            ..MatchConfig::default()
        }
    }
}

/// One attribute as the matcher sees it: a label and a value set (the
/// pre-defined instances plus anything WebIQ acquired).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchAttribute {
    /// Stable reference back into the dataset.
    pub r: AttrRef,
    /// The attribute's label.
    pub label: String,
    /// All known instances (pre-defined + acquired).
    pub values: Vec<String>,
}

/// Build matcher inputs straight from a dataset (no acquisition — the
/// baseline IceQ configuration).
pub fn attributes_of(ds: &Dataset) -> Vec<MatchAttribute> {
    ds.attributes()
        .map(|(r, a)| MatchAttribute {
            r,
            label: a.label.clone(),
            values: a.instances.clone(),
        })
        .collect()
}

/// One attribute prepared once for the all-pairs loops of matching and
/// borrow pre-filtering: its label vector and its value set.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The bag-of-stems label vector ([`labelsim::label_vector`]).
    pub label: BTreeMap<String, f64>,
    /// The prepared value set.
    pub values: ValueSet,
}

impl Profile {
    /// Profile a label and its values.
    pub fn new<S: AsRef<str>>(label: &str, values: &[S]) -> Self {
        Profile {
            label: labelsim::label_vector(label),
            values: ValueSet::new(values),
        }
    }

    /// `LabelSim` of the two labels.
    pub fn label_sim(&self, other: &Profile) -> f64 {
        labelsim::cosine(&self.label, &other.label)
    }

    /// `DomSim` of the two value sets.
    pub fn dom_sim(&self, other: &Profile) -> f64 {
        self.values.sim(&other.values)
    }

    /// `Sim = α · LabelSim + β · DomSim`.
    pub fn similarity(&self, other: &Profile, cfg: &MatchConfig) -> f64 {
        cfg.alpha * self.label_sim(other) + cfg.beta * self.dom_sim(other)
    }
}

/// The combined similarity of two attributes, computed pairwise; the
/// matcher's own loops use [`Profile::similarity`], which equals it.
pub fn similarity(a: &MatchAttribute, b: &MatchAttribute, cfg: &MatchConfig) -> f64 {
    let ls = labelsim::label_sim(&a.label, &b.label);
    let ds = domsim::dom_sim(&a.values, &b.values);
    cfg.alpha * ls + cfg.beta * ds
}

/// What a clustering run over `attrs` needs: one item per attribute (its
/// id is the attribute's index), one profile per attribute, and the
/// similarity matrix computed from the profiles.
pub(crate) fn prepare(
    attrs: &[MatchAttribute],
    cfg: &MatchConfig,
) -> (Vec<Item<usize>>, Vec<Profile>, Vec<Vec<f64>>) {
    let items: Vec<Item<usize>> = attrs
        .iter()
        .enumerate()
        .map(|(i, a)| Item {
            id: i,
            interface: a.r.0,
        })
        .collect();
    let profiles: Vec<Profile> = attrs
        .iter()
        .map(|a| Profile::new(&a.label, &a.values))
        .collect();
    let sim = cluster::similarity_matrix(&items, |i, j| profiles[i].similarity(&profiles[j], cfg));
    (items, profiles, sim)
}

/// Result of a matching run.
#[derive(Debug, Clone)]
pub struct MatchResult {
    /// Output clusters of attribute references.
    pub clusters: Vec<Vec<AttrRef>>,
}

impl MatchResult {
    /// The predicted match pairs (normalised).
    pub fn pairs(&self) -> BTreeSet<(AttrRef, AttrRef)> {
        gold::cluster_pairs(&self.clusters)
    }

    /// Evaluate against a dataset's gold standard.
    pub fn evaluate(&self, ds: &Dataset) -> PrF1 {
        PrF1::from_pairs(&self.pairs(), &gold::gold_pairs(ds))
    }
}

/// Run the matcher over a set of attributes.
///
/// Every merge performed by the clustering loop is recorded as a
/// `cluster_merge` decision (via [`webiq_why::record::cluster_merge`]) for
/// the merge's representative pair, carrying the average-link score, the
/// threshold τ, and the pair's pure label/domain similarity components.
/// Recording is a no-op unless the caller runs inside a traced item.
pub fn match_attributes(attrs: &[MatchAttribute], cfg: &MatchConfig) -> MatchResult {
    let (items, profiles, sim) = prepare(attrs, cfg);
    let (clusters, merges) = cluster::cluster_logged(&items, &sim, cfg.threshold);
    for ev in &merges {
        let (pa, pb) = (&profiles[ev.a], &profiles[ev.b]);
        // label_sim / dom_sim are pure: evaluating them for the
        // representative pair adds evidence without perturbing any
        // counter or engine-call sequence.
        webiq_why::record::cluster_merge(
            &format!("({}, {})", attrs[ev.a].label, attrs[ev.b].label),
            &[
                ("score", ev.score),
                ("threshold", cfg.threshold),
                ("label_sim", pa.label_sim(pb)),
                ("dom_sim", pa.dom_sim(pb)),
                ("alpha", cfg.alpha),
                ("beta", cfg.beta),
            ],
        );
    }
    MatchResult {
        clusters: clusters
            .into_iter()
            .map(|c| c.into_iter().map(|i| attrs[i].r).collect())
            .collect(),
    }
}

/// Convenience: run the baseline matcher directly on a dataset.
pub fn match_dataset(ds: &Dataset, cfg: &MatchConfig) -> MatchResult {
    match_attributes(&attributes_of(ds), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use webiq_data::{generate_domain, kb, GenOptions};

    #[test]
    fn identical_attributes_cluster() {
        let attrs = vec![
            MatchAttribute {
                r: (0, 0),
                label: "Airline".into(),
                values: vec!["Delta".into()],
            },
            MatchAttribute {
                r: (1, 0),
                label: "Airline".into(),
                values: vec!["Delta".into()],
            },
        ];
        let result = match_attributes(&attrs, &MatchConfig::default());
        assert_eq!(result.clusters.len(), 1);
    }

    #[test]
    fn label_only_synonyms_do_not_cluster_without_instances() {
        // Airline vs Carrier with no instances: Sim = 0 → separate.
        let attrs = vec![
            MatchAttribute {
                r: (0, 0),
                label: "Airline".into(),
                values: vec![],
            },
            MatchAttribute {
                r: (1, 0),
                label: "Carrier".into(),
                values: vec![],
            },
        ];
        let result = match_attributes(&attrs, &MatchConfig::default());
        assert_eq!(result.clusters.len(), 2);
    }

    #[test]
    fn instances_bridge_synonym_labels() {
        // With overlapping acquired instances, Airline and Carrier merge.
        let vals: Vec<String> = ["Delta", "United", "Aer Lingus"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let attrs = vec![
            MatchAttribute {
                r: (0, 0),
                label: "Airline".into(),
                values: vals.clone(),
            },
            MatchAttribute {
                r: (1, 0),
                label: "Carrier".into(),
                values: vals,
            },
        ];
        let result = match_attributes(&attrs, &MatchConfig::default());
        assert_eq!(result.clusters.len(), 1);
    }

    #[test]
    fn ambiguous_labels_resolved_by_instances() {
        // B1 = Departure city must match A1 = From city, not A2 = Departure
        // date, once instances disambiguate.
        let cities: Vec<String> = ["Boston", "Chicago"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let months: Vec<String> = ["Jan", "Feb"].iter().map(|s| (*s).to_string()).collect();
        let attrs = vec![
            MatchAttribute {
                r: (0, 0),
                label: "From city".into(),
                values: cities.clone(),
            },
            MatchAttribute {
                r: (0, 1),
                label: "Departure date".into(),
                values: months,
            },
            MatchAttribute {
                r: (1, 0),
                label: "Departure city".into(),
                values: cities,
            },
        ];
        let result = match_attributes(&attrs, &MatchConfig::with_threshold(0.1));
        let cluster_of = |r: AttrRef| {
            result
                .clusters
                .iter()
                .position(|c| c.contains(&r))
                .expect("attr is in some cluster")
        };
        assert_eq!(cluster_of((0, 0)), cluster_of((1, 0)));
        assert_ne!(cluster_of((0, 1)), cluster_of((1, 0)));
    }

    #[test]
    fn baseline_on_generated_dataset_is_reasonable() {
        // Baseline IceQ on the generated book domain: the paper's baselines
        // sit in the 85–93 % F-1 band; ours must land in the same regime.
        let def = kb::domain("book").expect("domain");
        let ds = generate_domain(def, &GenOptions::default());
        let result = match_dataset(&ds, &MatchConfig::default());
        let m = result.evaluate(&ds);
        assert!(m.f1 > 0.6, "baseline book F1 = {:.3}", m.f1);
        assert!(
            m.f1 < 1.0,
            "baseline must not be perfect (or WebIQ has nothing to add)"
        );
    }

    #[test]
    fn thresholding_never_hurts_precision() {
        let def = kb::domain("auto").expect("domain");
        let ds = generate_domain(def, &GenOptions::default());
        let loose = match_dataset(&ds, &MatchConfig::default()).evaluate(&ds);
        let tight = match_dataset(&ds, &MatchConfig::with_threshold(0.1)).evaluate(&ds);
        assert!(
            tight.precision >= loose.precision - 1e-9,
            "precision {:.3} -> {:.3}",
            loose.precision,
            tight.precision
        );
    }

    #[test]
    fn evaluate_perfect_when_clusters_equal_gold() {
        let def = kb::domain("job").expect("domain");
        let ds = generate_domain(def, &GenOptions::default());
        let gold_clusters = webiq_data::gold::gold_clusters(&ds);
        let result = MatchResult {
            clusters: gold_clusters,
        };
        let m = result.evaluate(&ds);
        assert_eq!(m.f1, 1.0);
    }
}
