//! Attr-Surface (§3): borrow instances from other attributes and verify
//! them via the Surface Web with a *validation-based naive Bayes
//! classifier*, trained fully automatically.
//!
//! Training (§3.2, Figure 5): positives are A's own instances, negatives
//! the instances of the other attributes on A's interface. Each example is
//! represented by its validation-score vector; T₁ estimates per-feature
//! thresholds by information gain, T₂ (binarized by those thresholds)
//! estimates the Laplace-smoothed probabilities.

use webiq_stats::bayes::NaiveBayes;
use webiq_stats::entropy;
use webiq_trace::Counter;
use webiq_web::QueryEngine;

use crate::config::WebIQConfig;
use crate::extract;
use crate::patterns;
use crate::verify;

/// A trained validation-based classifier for one attribute.
#[derive(Debug, Clone)]
pub struct ValidationClassifier {
    phrases: Vec<String>,
    thresholds: Vec<f64>,
    nb: NaiveBayes,
}

/// A trained classifier's persistable parameter set — what the
/// knowledge store keeps so a later run can rebuild the model via
/// [`webiq_stats::bayes::NaiveBayes::from_params`] without re-issuing
/// a single training query.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// Feature count (one per validation phrase).
    pub n_features: u32,
    /// The smoothed class prior P(+).
    pub prior_pos: f64,
    /// Smoothed P(fᵢ = 1 | +) per feature.
    pub p_true_pos: Vec<f64>,
    /// Smoothed P(fᵢ = 1 | −) per feature.
    pub p_true_neg: Vec<f64>,
}

/// Why training could not proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainFailure {
    /// Fewer than two positive examples (A has too few instances).
    TooFewPositives,
    /// No negative examples (no sibling attribute has instances).
    NoNegatives,
    /// The Naive-Bayes estimator rejected the binarized training set.
    Degenerate,
}

impl ValidationClassifier {
    /// Train for attribute `label` from its own instances (positives) and
    /// sibling-attribute instances (negatives).
    pub fn train<E: QueryEngine>(
        engine: &E,
        label: &str,
        positives: &[String],
        negatives: &[String],
        cfg: &WebIQConfig,
    ) -> Result<Self, TrainFailure> {
        if positives.len() < 2 {
            return Err(TrainFailure::TooFewPositives);
        }
        if negatives.is_empty() {
            return Err(TrainFailure::NoNegatives);
        }
        let np = extract::primary_noun_phrase(label);
        let phrases = patterns::validation_phrases(label, np.as_ref());

        // Step 1: validation vectors for the training set, one batch.
        let examples: Vec<&str> = positives
            .iter()
            .chain(negatives)
            .map(String::as_str)
            .collect();
        let mut pos_vecs = verify::validation_vectors(engine, &phrases, &examples, cfg.use_pmi);
        let neg_vecs = pos_vecs.split_off(positives.len().min(pos_vecs.len()));

        // Split each class: first half → T₁ (threshold estimation), rest →
        // T₂ (probability estimation). With tiny classes T₂ falls back to
        // the full set.
        let split = |n: usize| n.div_ceil(2);
        let (p1, p2) = pos_vecs.split_at(split(pos_vecs.len()));
        let (n1, n2) = neg_vecs.split_at(split(neg_vecs.len()));
        let p2: &[Vec<f64>] = if p2.is_empty() { &pos_vecs } else { p2 };
        let n2: &[Vec<f64>] = if n2.is_empty() { &neg_vecs } else { n2 };

        // Step 2: per-feature thresholds on T₁.
        let n_features = phrases.len();
        let thresholds: Vec<f64> = (0..n_features)
            .map(|i| {
                if cfg.info_gain_thresholds {
                    let examples: Vec<(f64, bool)> = p1
                        .iter()
                        .map(|v| (v[i], true))
                        .chain(n1.iter().map(|v| (v[i], false)))
                        .collect();
                    entropy::best_threshold(&examples)
                } else {
                    // ablation: midpoint of the observed score range
                    let all: Vec<f64> = p1.iter().chain(n1.iter()).map(|v| v[i]).collect();
                    let lo = all.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    (lo + hi) / 2.0
                }
            })
            .collect();

        // Step 3: binarize T₂ and estimate the probabilities.
        let binarize =
            |v: &Vec<f64>| -> Vec<bool> { v.iter().zip(&thresholds).map(|(m, t)| m > t).collect() };
        let examples: Vec<(Vec<bool>, bool)> = p2
            .iter()
            .map(|v| (binarize(v), true))
            .chain(n2.iter().map(|v| (binarize(v), false)))
            .collect();
        let nb = NaiveBayes::train(&examples).map_err(|_| TrainFailure::Degenerate)?;
        Ok(ValidationClassifier {
            phrases,
            thresholds,
            nb,
        })
    }

    /// Per-feature thresholds (exposed for inspection/tests).
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// The trained Bayes parameters, for persistence.
    pub fn params(&self) -> ModelParams {
        ModelParams {
            n_features: self.nb.n_features() as u32,
            prior_pos: self.nb.prior_pos(),
            p_true_pos: self.nb.p_true(true).to_vec(),
            p_true_neg: self.nb.p_true(false).to_vec(),
        }
    }

    /// Binarize a validation vector by the per-feature thresholds.
    fn features(&self, v: &[f64]) -> Vec<bool> {
        v.iter().zip(&self.thresholds).map(|(m, t)| m > t).collect()
    }

    /// Posterior probability that each of `candidates` is an instance of
    /// the attribute, from one engine batch.
    pub fn posteriors<E: QueryEngine, S: AsRef<str>>(
        &self,
        engine: &E,
        candidates: &[S],
        cfg: &WebIQConfig,
    ) -> Vec<f64> {
        verify::validation_vectors(engine, &self.phrases, candidates, cfg.use_pmi)
            .iter()
            .map(|v| self.nb.posterior_pos(&self.features(v)))
            .collect()
    }

    /// [`ValidationClassifier::posteriors`] plus the evidence behind each:
    /// the prior, and per feature its raw validation score, threshold,
    /// on/off state, and smoothed class-conditional likelihoods — the
    /// terms the provenance layer records for each accept/reject. Issues
    /// the identical engine batch and computes bit-equal posteriors.
    pub fn posteriors_explained<E: QueryEngine, S: AsRef<str>>(
        &self,
        engine: &E,
        candidates: &[S],
        cfg: &WebIQConfig,
    ) -> Vec<(f64, Vec<(String, f64)>)> {
        verify::validation_vectors(engine, &self.phrases, candidates, cfg.use_pmi)
            .iter()
            .map(|v| self.explain(v))
            .collect()
    }

    /// The posterior of one validation vector and its decision terms.
    fn explain(&self, v: &[f64]) -> (f64, Vec<(String, f64)>) {
        let features = self.features(v);
        let mut terms = Vec::new();
        let Some((posterior, evidence)) = self.nb.posterior_explained(&features) else {
            // unreachable by construction (features has one entry per
            // phrase); degrade to the plain posterior rather than panic
            return (self.nb.posterior_pos(&features), terms);
        };
        terms.push(("posterior".to_string(), posterior));
        terms.push(("prior_pos".to_string(), self.nb.prior_pos()));
        for (i, e) in evidence.iter().enumerate() {
            let score = v.get(i).copied().unwrap_or(0.0);
            let thresh = self.thresholds.get(i).copied().unwrap_or(0.0);
            terms.push((format!("f{i}_score"), score));
            terms.push((format!("f{i}_thresh"), thresh));
            terms.push((format!("f{i}_on"), f64::from(u8::from(e.on))));
            terms.push((format!("f{i}_p_pos"), e.p_pos));
            terms.push((format!("f{i}_p_neg"), e.p_neg));
        }
        (posterior, terms)
    }
}

/// Verify borrowed instances for an attribute via the Surface Web: train
/// the classifier, then keep the accepted candidates. Traced as a
/// `bayes_verify` span; training failures and per-candidate verdicts are
/// tallied under [`Counter::BayesTrainFailed`],
/// [`Counter::BayesAccepted`], and [`Counter::BayesRejected`].
pub fn verify_borrowed<E: QueryEngine>(
    engine: &E,
    label: &str,
    positives: &[String],
    negatives: &[String],
    borrowed: &[String],
    cfg: &WebIQConfig,
) -> Vec<String> {
    verify_borrowed_with_model(engine, label, positives, negatives, borrowed, cfg).0
}

/// [`verify_borrowed`] plus the trained classifier's parameters (for the
/// knowledge store; `None` when training failed). Issues the identical
/// engine queries, records the identical provenance, and bumps the
/// identical counters in the identical order — `verify_borrowed` is a
/// thin wrapper over this, so the two can never diverge.
pub fn verify_borrowed_with_model<E: QueryEngine>(
    engine: &E,
    label: &str,
    positives: &[String],
    negatives: &[String],
    borrowed: &[String],
    cfg: &WebIQConfig,
) -> (Vec<String>, Option<ModelParams>) {
    let _span = webiq_trace::span("bayes_verify");
    let Ok(classifier) = ValidationClassifier::train(engine, label, positives, negatives, cfg)
    else {
        webiq_trace::incr(Counter::BayesTrainFailed);
        return (Vec::new(), None);
    };
    // Every borrowed value's vector in one batch; the decisions are then
    // recorded in borrowed order.
    let explained = classifier.posteriors_explained(engine, borrowed, cfg);
    let accepted = borrowed
        .iter()
        .zip(explained)
        .filter(|(b, (posterior, terms))| {
            let accepted = *posterior > 0.5;
            let refs: Vec<(&str, f64)> = terms.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            webiq_why::record::bayes_verify(b, accepted, &refs);
            webiq_trace::incr(if accepted {
                Counter::BayesAccepted
            } else {
                Counter::BayesRejected
            });
            accepted
        })
        .map(|(b, _)| b.clone())
        .collect();
    (accepted, Some(classifier.params()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use webiq_data::{corpus, kb};
    use webiq_web::{gen, GenConfig, SearchEngine};

    fn airfare_engine() -> SearchEngine {
        let def = kb::domain("airfare").expect("domain");
        let specs = corpus::concept_specs(def);
        SearchEngine::new(gen::generate(&specs, &GenConfig::default()))
    }

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn aer_lingus_is_accepted_as_airline() {
        // the paper's running example: borrow `Aer Lingus` (an instance of
        // B₃ = Carrier) for A₅ = Airline, whose own instances are North
        // American. Non-instances come from the sibling attributes.
        let engine = airfare_engine();
        let cfg = WebIQConfig::default();
        let positives = strings(&["Air Canada", "American", "Delta", "United"]);
        let negatives = strings(&["Economy", "First Class", "Jan", "1"]);
        let borrowed = strings(&["Aer Lingus", "Lufthansa", "Economy", "Jan"]);
        let accepted = verify_borrowed(&engine, "Airline", &positives, &negatives, &borrowed, &cfg);
        assert!(
            accepted.contains(&"Aer Lingus".to_string()),
            "accepted: {accepted:?}"
        );
        assert!(
            !accepted.contains(&"Economy".to_string()),
            "accepted: {accepted:?}"
        );
        assert!(
            !accepted.contains(&"Jan".to_string()),
            "accepted: {accepted:?}"
        );
    }

    #[test]
    fn classifier_separates_instances_from_non_instances() {
        let engine = airfare_engine();
        let cfg = WebIQConfig::default();
        let classifier = ValidationClassifier::train(
            &engine,
            "Airline",
            &strings(&["Air Canada", "American", "Delta", "United"]),
            &strings(&["Economy", "First Class", "Jan", "1"]),
            &cfg,
        )
        .expect("train");
        // Average over several held-out candidates: individual tail
        // airlines can be too rare on the simulated Web to clear every
        // feature threshold.
        let avg = |xs: &[&str]| {
            classifier.posteriors(&engine, xs, &cfg).iter().sum::<f64>() / xs.len() as f64
        };
        let p_airline = avg(&["Northwest", "Southwest", "Continental"]);
        let p_noise = avg(&["Round trip", "Economy", "Feb"]);
        assert!(
            p_airline > p_noise,
            "airline={p_airline:.3} noise={p_noise:.3}"
        );
    }

    #[test]
    fn too_few_positives_fails_training() {
        let engine = airfare_engine();
        let cfg = WebIQConfig::default();
        let r = ValidationClassifier::train(
            &engine,
            "Airline",
            &strings(&["Delta"]),
            &strings(&["Economy"]),
            &cfg,
        );
        assert_eq!(r.unwrap_err(), TrainFailure::TooFewPositives);
    }

    #[test]
    fn no_negatives_fails_training() {
        let engine = airfare_engine();
        let cfg = WebIQConfig::default();
        let r = ValidationClassifier::train(
            &engine,
            "Airline",
            &strings(&["Delta", "United"]),
            &[],
            &cfg,
        );
        assert_eq!(r.unwrap_err(), TrainFailure::NoNegatives);
    }

    #[test]
    fn thresholds_have_one_per_phrase() {
        let engine = airfare_engine();
        let cfg = WebIQConfig::default();
        let classifier = ValidationClassifier::train(
            &engine,
            "Airline",
            &strings(&["Air Canada", "American", "Delta", "United"]),
            &strings(&["Economy", "First Class", "Jan", "1"]),
            &cfg,
        )
        .expect("train");
        // proximity + two cue phrases
        assert_eq!(classifier.thresholds().len(), 3);
    }

    #[test]
    fn midpoint_ablation_still_trains() {
        let engine = airfare_engine();
        let cfg = WebIQConfig {
            info_gain_thresholds: false,
            ..WebIQConfig::default()
        };
        let accepted = verify_borrowed(
            &engine,
            "Airline",
            &strings(&["Air Canada", "American", "Delta", "United"]),
            &strings(&["Economy", "First Class", "Jan", "1"]),
            &strings(&["Aer Lingus"]),
            &cfg,
        );
        // the midpoint variant may be less accurate but must not crash
        assert!(accepted.len() <= 1);
    }

    #[test]
    fn empty_borrowed_list() {
        let engine = airfare_engine();
        let cfg = WebIQConfig::default();
        let accepted = verify_borrowed(
            &engine,
            "Airline",
            &strings(&["Delta", "United"]),
            &strings(&["Economy"]),
            &[],
            &cfg,
        );
        assert!(accepted.is_empty());
    }
}
