//! Interactive threshold learning — the part of IceQ the paper runs in
//! manual mode.
//!
//! §5: "During the clustering process IceQ can also interact with the user
//! to automatically learn a thresholding value. However, in the current
//! implementation we employ only the automatic version of IceQ, and set
//! the threshold manually" — to 0.1, "about the average of the thresholds
//! learned for the five domains in \[28\]".
//!
//! This module implements the learning loop the paper references: a small
//! budget of match/no-match questions to an oracle (the user in IceQ; any
//! [`MatchOracle`] here, including a gold-standard-backed one for
//! experiments), asked about actual merge decisions sampled across the
//! merge-score range; the threshold minimising the density-weighted
//! misclassification of the labelled merges is chosen (τ = 0 competes, so
//! pruning must earn its keep).

use std::collections::BTreeSet;

use webiq_data::interface::AttrRef;

use crate::cluster;
use crate::icq::{self, MatchAttribute, MatchConfig};

/// Answers match/no-match questions during threshold learning.
pub trait MatchOracle {
    /// Do attributes `a` and `b` match?
    fn matches(&mut self, a: AttrRef, b: AttrRef) -> bool;
}

/// An oracle backed by a gold pair set — the stand-in for the interactive
/// user in experiments.
#[derive(Debug, Clone)]
pub struct GoldOracle {
    gold: BTreeSet<(AttrRef, AttrRef)>,
    questions: usize,
}

impl GoldOracle {
    /// Build from gold pairs (as produced by `webiq_data::gold::gold_pairs`).
    pub fn new(gold: BTreeSet<(AttrRef, AttrRef)>) -> Self {
        GoldOracle { gold, questions: 0 }
    }

    /// How many questions have been asked.
    pub fn questions_asked(&self) -> usize {
        self.questions
    }
}

impl MatchOracle for GoldOracle {
    fn matches(&mut self, a: AttrRef, b: AttrRef) -> bool {
        self.questions += 1;
        let key = if a <= b { (a, b) } else { (b, a) };
        self.gold.contains(&key)
    }
}

/// Outcome of threshold learning.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedThreshold {
    /// The learned τ.
    pub threshold: f64,
    /// Questions asked.
    pub questions: usize,
    /// Labelled sample: `(similarity, oracle verdict)`.
    pub sample: Vec<(f64, bool)>,
}

/// Learn a clustering threshold from at most `budget` oracle questions.
///
/// The threshold governs *merge decisions*, whose average-link scores are
/// systematically lower than raw pairwise similarities (dilution across
/// cluster members). So the oracle is asked about actual **merge events**:
/// an unthresholded clustering run is replayed, its merge log is sampled
/// evenly across the *score range*, and the user confirms or rejects the
/// representative pair of each sampled merge. The threshold minimising
/// the density-weighted misclassification of the labelled merges is
/// returned (0 — prune nothing — competes as a candidate and wins when
/// every sampled merge was confirmed).
pub fn learn_threshold<O: MatchOracle>(
    attrs: &[MatchAttribute],
    cfg: &MatchConfig,
    oracle: &mut O,
    budget: usize,
) -> LearnedThreshold {
    let (items, _, sim) = icq::prepare(attrs, cfg);
    let (_, log) = cluster::cluster_logged(&items, &sim, 0.0);
    if log.is_empty() || budget == 0 {
        return LearnedThreshold {
            threshold: 0.0,
            questions: 0,
            sample: Vec::new(),
        };
    }
    // Stratify by *score value*, not rank: unthresholded clustering
    // produces a long tail of near-zero merges that would otherwise hog
    // the budget and bias the estimate toward over-pruning.
    let mut by_score = log.clone();
    by_score.sort_by(|a, b| a.score.total_cmp(&b.score));
    let (Some(first), Some(last)) = (by_score.first(), by_score.last()) else {
        return LearnedThreshold {
            threshold: 0.0,
            questions: 0,
            sample: Vec::new(),
        };
    };
    let (lo, hi) = (first.score, last.score);
    let n = budget.min(by_score.len());
    let mut used = vec![false; by_score.len()];
    let mut sample = Vec::with_capacity(n);
    for k in 0..n {
        let target = if n == 1 {
            hi
        } else {
            lo + (hi - lo) * k as f64 / (n - 1) as f64
        };
        // nearest unused event by score
        let pick = (0..by_score.len()).filter(|&i| !used[i]).min_by(|&a, &b| {
            let da = by_score
                .get(a)
                .map_or(f64::INFINITY, |e| (e.score - target).abs());
            let db = by_score
                .get(b)
                .map_or(f64::INFINITY, |e| (e.score - target).abs());
            da.total_cmp(&db)
        });
        let Some(i) = pick else { break };
        used[i] = true;
        let event = by_score[i];
        sample.push((
            event.score,
            oracle.matches(attrs[event.a].r, attrs[event.b].r),
        ));
    }

    // Each labelled merge stands for all the unlabelled merges nearest to
    // it in score (the value-stratified sample is sparse where the log is
    // dense); weight it accordingly when choosing the threshold.
    let weights: Vec<f64> = sample
        .iter()
        .map(|(s, _)| {
            log.iter()
                .filter(|e| {
                    let d = (e.score - s).abs();
                    sample
                        .iter()
                        .all(|(s2, _)| (e.score - s2).abs() >= d - 1e-12)
                })
                .count()
                .max(1) as f64
        })
        .collect();
    let threshold = weighted_min_error_threshold(&sample, &weights);
    LearnedThreshold {
        threshold,
        questions: sample.len(),
        sample,
    }
}

/// Choose the threshold minimising the *weighted* misclassification of the
/// labelled merges — a merge below the threshold is pruned (an error when
/// the oracle confirmed it), one above is kept (an error when the oracle
/// rejected it). τ = 0 (prune nothing) competes as a candidate, so a
/// threshold is only adopted when the evidence says pruning wins; ties
/// resolve toward the smaller τ.
fn weighted_min_error_threshold(sample: &[(f64, bool)], weights: &[f64]) -> f64 {
    let error_at = |t: f64| -> f64 {
        sample
            .iter()
            .zip(weights)
            .map(|((s, m), w)| {
                let kept = *s > t;
                if kept == *m {
                    0.0
                } else {
                    *w
                }
            })
            .sum()
    };
    let mut scores: Vec<f64> = sample.iter().map(|(s, _)| *s).collect();
    scores.sort_by(f64::total_cmp);
    scores.dedup();
    let mut candidates = vec![0.0];
    candidates.extend(scores.windows(2).map(|w| (w[0] + w[1]) / 2.0));
    let mut best = (f64::INFINITY, 0.0);
    for t in candidates {
        let e = error_at(t);
        if e < best.0 - 1e-12 {
            best = (e, t);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(r: AttrRef, label: &str, values: &[&str]) -> MatchAttribute {
        MatchAttribute {
            r,
            label: label.into(),
            values: values.iter().map(|s| (*s).to_string()).collect(),
        }
    }

    /// A small world: three city attributes that match, three date
    /// attributes that match, and cross pairs that must not.
    fn world() -> (Vec<MatchAttribute>, BTreeSet<(AttrRef, AttrRef)>) {
        let attrs = vec![
            attr((0, 0), "Departure city", &["Boston", "Chicago"]),
            attr((1, 0), "From city", &["Chicago", "Denver"]),
            attr((2, 0), "Departure city", &["Boston", "Denver"]),
            attr((0, 1), "Departure date", &["Jan", "Feb"]),
            attr((1, 1), "Departure on", &["Feb", "Mar"]),
            attr((2, 1), "Departure date", &["Jan", "Mar"]),
        ];
        let mut gold = BTreeSet::new();
        for a in [(0usize, 0usize), (1, 0), (2, 0)] {
            for b in [(0, 0), (1, 0), (2, 0)] {
                if a < b {
                    gold.insert((a, b));
                }
            }
        }
        for a in [(0usize, 1usize), (1, 1), (2, 1)] {
            for b in [(0, 1), (1, 1), (2, 1)] {
                if a < b {
                    gold.insert((a, b));
                }
            }
        }
        (attrs, gold)
    }

    #[test]
    fn clean_world_learns_zero() {
        // In this world every merge the unthresholded clusterer performs is
        // correct (the same-interface constraint blocks the city/date cross
        // merge), so the oracle confirms everything and no pruning evidence
        // exists: τ = 0 — the right answer.
        let (attrs, gold) = world();
        let mut oracle = GoldOracle::new(gold);
        let learned = learn_threshold(&attrs, &MatchConfig::default(), &mut oracle, 12);
        assert!(learned.questions > 0);
        assert_eq!(learned.threshold, 0.0, "τ = {}", learned.threshold);
    }

    #[test]
    fn learns_a_separating_threshold_with_bad_merges() {
        // Two instance-less attributes labelled just "Departure" — one a
        // city, one a date per gold — wrongly merge with each other at
        // label-only similarity 0.6, well below the ≈0.96 of the correct
        // merges. The oracle rejects it and τ lands in between.
        let (mut attrs, gold) = world();
        attrs.push(attr((3, 0), "Departure", &[]));
        attrs.push(attr((4, 0), "Departure", &[]));
        // gold: (3,0) is a city attribute, (4,0) a date attribute — their
        // merge is wrong, and neither belongs with the other clusters
        // strongly enough to be asked about first.
        let mut oracle = GoldOracle::new(gold);
        let learned = learn_threshold(&attrs, &MatchConfig::default(), &mut oracle, 12);
        assert!(
            learned.threshold > 0.3 && learned.threshold < 0.97,
            "τ = {}",
            learned.threshold
        );
        // the learned τ must prune the wrong merge when applied
        assert!(learned
            .sample
            .iter()
            .any(|(s, m)| !*m && *s < learned.threshold));
    }

    #[test]
    fn budget_bounds_questions() {
        let (attrs, gold) = world();
        let mut oracle = GoldOracle::new(gold);
        let learned = learn_threshold(&attrs, &MatchConfig::default(), &mut oracle, 4);
        assert!(learned.questions <= 4);
        assert_eq!(learned.questions, oracle.questions_asked());
    }

    #[test]
    fn zero_budget_learns_zero() {
        let (attrs, gold) = world();
        let mut oracle = GoldOracle::new(gold);
        let learned = learn_threshold(&attrs, &MatchConfig::default(), &mut oracle, 0);
        assert_eq!(learned.threshold, 0.0);
        assert_eq!(learned.questions, 0);
    }

    #[test]
    fn all_match_sample_learns_zero() {
        // only matching pairs exist → nothing to prune → τ = 0
        let attrs = vec![
            attr((0, 0), "Airline", &["Delta"]),
            attr((1, 0), "Airline", &["Delta"]),
        ];
        let gold: BTreeSet<(AttrRef, AttrRef)> = [((0, 0), (1, 0))].into_iter().collect();
        let mut oracle = GoldOracle::new(gold);
        let learned = learn_threshold(&attrs, &MatchConfig::default(), &mut oracle, 8);
        assert_eq!(learned.threshold, 0.0);
    }

    #[test]
    fn empty_attributes() {
        let mut oracle = GoldOracle::new(BTreeSet::new());
        let learned = learn_threshold(&[], &MatchConfig::default(), &mut oracle, 8);
        assert_eq!(learned.threshold, 0.0);
    }

    #[test]
    fn same_interface_pairs_never_asked() {
        // attributes only on one interface → no askable pairs
        let attrs = vec![
            attr((0, 0), "Airline", &["Delta"]),
            attr((0, 1), "Airline", &["Delta"]),
        ];
        let mut oracle = GoldOracle::new(BTreeSet::new());
        let learned = learn_threshold(&attrs, &MatchConfig::default(), &mut oracle, 8);
        assert_eq!(learned.questions, 0);
    }
}
