//! The instance-verification phase (§2.2): statistical outlier removal
//! followed by Web validation with PMI-scored validation queries.

use std::fmt::Write as _;

use webiq_prof::Stage;
use webiq_stats::{outlier, pmi};
use webiq_trace::Counter;
use webiq_web::QueryEngine;

use crate::config::WebIQConfig;

/// A candidate that survived verification, with its confidence score.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidatedInstance {
    /// The instance text.
    pub text: String,
    /// Average validation score across the validation phrases.
    pub score: f64,
}

/// Outcome of the verification phase.
#[derive(Debug, Clone, Default)]
pub struct VerificationOutcome {
    /// Survivors, best first (at most `k`).
    pub instances: Vec<ValidatedInstance>,
    /// Candidates removed by the outlier phase.
    pub outliers_removed: usize,
    /// Candidates removed by Web validation.
    pub validation_removed: usize,
}

/// One candidate's score against one validation phrase (§2.2), with the
/// hit counts behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhraseScore {
    /// `NumHits("V x")`, the joint count of phrase `V` and candidate `x`.
    pub joint: u64,
    /// `NumHits("V")` and `NumHits("x")`, when PMI is on.
    pub marginals: Option<(u64, u64)>,
    /// `PMI(V, x) = NumHits(V + x) / (NumHits(V) · NumHits(x))`, or the
    /// raw joint count when PMI is off (the ablation that exhibits
    /// popularity bias).
    pub score: f64,
}

/// Every candidate's scores against every phrase, candidate by
/// candidate, from one engine batch. Per candidate and phrase the batch
/// holds the joint query, then (with `use_pmi`) the phrase's and the
/// candidate's marginal query. The queries are written into one buffer,
/// so a batch allocates once for its text rather than once per query.
fn scores<E: QueryEngine, S: AsRef<str>>(
    engine: &E,
    phrases: &[String],
    candidates: &[S],
    use_pmi: bool,
) -> impl Iterator<Item = PhraseScore> {
    let mut text = String::new();
    let mut ends = Vec::new();
    for candidate in candidates {
        let candidate = candidate.as_ref();
        for phrase in phrases {
            let _ = write!(text, "\"{phrase} {candidate}\"");
            ends.push(text.len());
            if use_pmi {
                let _ = write!(text, "\"{phrase}\"");
                ends.push(text.len());
                let _ = write!(text, "\"{candidate}\"");
                ends.push(text.len());
            }
        }
    }
    let mut start = 0;
    let queries: Vec<&str> = ends
        .iter()
        .map(|&end| {
            let query = text.get(start..end).unwrap_or_default();
            start = end;
            query
        })
        .collect();
    let mut hits = engine.num_hits_many(&queries).into_iter();
    std::iter::from_fn(move || {
        let joint = hits.next()?;
        Some(if use_pmi {
            let (v, x) = (hits.next()?, hits.next()?);
            PhraseScore {
                joint,
                marginals: Some((v, x)),
                score: pmi::pmi(joint, v, x),
            }
        } else {
            PhraseScore {
                joint,
                marginals: None,
                score: joint as f64,
            }
        })
    })
}

/// Every candidate's score against every phrase, from one engine batch:
/// `scores[c][p]` scores `candidates[c]` against `phrases[p]`.
pub fn phrase_scores<E: QueryEngine, S: AsRef<str>>(
    engine: &E,
    phrases: &[String],
    candidates: &[S],
    use_pmi: bool,
) -> Vec<Vec<PhraseScore>> {
    let mut all = scores(engine, phrases, candidates, use_pmi);
    candidates
        .iter()
        .map(|_| all.by_ref().take(phrases.len()).collect())
        .collect()
}

/// The validation vector (per-phrase scores) of each candidate, from one
/// engine batch.
pub fn validation_vectors<E: QueryEngine, S: AsRef<str>>(
    engine: &E,
    phrases: &[String],
    candidates: &[S],
    use_pmi: bool,
) -> Vec<Vec<f64>> {
    let mut all = scores(engine, phrases, candidates, use_pmi);
    candidates
        .iter()
        .map(|_| all.by_ref().take(phrases.len()).map(|s| s.score).collect())
        .collect()
}

/// Each candidate's average validation score (the paper's confidence
/// score), from one engine batch.
pub fn confidences<E: QueryEngine, S: AsRef<str>>(
    engine: &E,
    phrases: &[String],
    candidates: &[S],
    use_pmi: bool,
) -> Vec<f64> {
    validation_vectors(engine, phrases, candidates, use_pmi)
        .iter()
        .map(|v| pmi::average(v))
        .collect()
}

/// The decision terms of one candidate's scores: per phrase `i`, the
/// joint count `joint_i` and, with PMI, the marginals `vhits_i` and
/// `xhits_i` and the score `pmi_i`.
fn evidence_terms(row: &[PhraseScore]) -> Vec<(String, f64)> {
    let mut terms = Vec::new();
    for (i, s) in row.iter().enumerate() {
        terms.push((format!("joint_{i}"), s.joint as f64));
        if let Some((v, x)) = s.marginals {
            terms.push((format!("vhits_{i}"), v as f64));
            terms.push((format!("xhits_{i}"), x as f64));
            terms.push((format!("pmi_{i}"), s.score));
        }
    }
    terms
}

/// Run the verification phase over extraction candidates: outlier
/// detection (when enabled), then Web validation, returning the top `k`
/// by confidence. Traced as a `verify` span; removals and survivors are
/// tallied under [`Counter::OutliersRemoved`],
/// [`Counter::ValidationRejected`], and [`Counter::ValidationAccepted`].
///
/// When the engine reports that hit-count evidence is no longer
/// trustworthy ([`QueryEngine::validation_available`] — e.g. the daily
/// quota is exhausted), Web validation degrades to **statistics-only**
/// filtering: the outlier phase still runs, but survivors are kept
/// unscored rather than burning queries that would be denied anyway.
/// The validation counters are left untouched in that mode — the stage
/// genuinely did not run.
pub fn verify_candidates<E: QueryEngine>(
    engine: &E,
    phrases: &[String],
    candidates: &[String],
    cfg: &WebIQConfig,
) -> VerificationOutcome {
    webiq_prof::time(Stage::Verify, || {
        verify_candidates_inner(engine, phrases, candidates, cfg)
    })
}

/// One candidate's validation evidence: text, score, and the named
/// terms behind the score, ready for an `instance_validate` record.
type CandidateEvidence = (String, f64, Vec<(String, f64)>);

/// [`verify_candidates`] minus the profiling wrapper, so the wall-clock
/// stage timer brackets exactly one verification pass.
fn verify_candidates_inner<E: QueryEngine>(
    engine: &E,
    phrases: &[String],
    candidates: &[String],
    cfg: &WebIQConfig,
) -> VerificationOutcome {
    let _span = webiq_trace::span("verify");
    let (kept, outliers_removed) = if cfg.outlier_phase {
        let r = outlier::remove_outliers_with(candidates, cfg.discordancy);
        (r.kept, r.removed.len())
    } else {
        (
            candidates
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            0,
        )
    };

    if !engine.validation_available() {
        let mut instances: Vec<ValidatedInstance> = kept
            .into_iter()
            .map(|text| ValidatedInstance { text, score: 0.0 })
            .collect();
        instances.sort_by(|a, b| a.text.cmp(&b.text));
        instances.truncate(cfg.k);
        webiq_trace::add(Counter::OutliersRemoved, outliers_removed as u64);
        return VerificationOutcome {
            instances,
            outliers_removed,
            validation_removed: 0,
        };
    }

    let scores = phrase_scores(engine, phrases, &kept, cfg.use_pmi);
    let evidence: Vec<CandidateEvidence> = kept
        .into_iter()
        .zip(scores)
        .map(|(text, row)| {
            let score = pmi::average(&row.iter().map(|s| s.score).collect::<Vec<_>>());
            let mut terms = evidence_terms(&row);
            terms.push(("score".to_string(), score));
            terms.push(("threshold".to_string(), cfg.min_validation_score));
            (text, score, terms)
        })
        .collect();
    let mut scored: Vec<ValidatedInstance> = evidence
        .iter()
        .map(|(text, score, _)| ValidatedInstance {
            text: text.clone(),
            score: *score,
        })
        .collect();
    let before = scored.len();
    scored.retain(|v| v.score > cfg.min_validation_score);
    let validation_removed = before - scored.len();

    scored.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.text.cmp(&b.text))
    });
    scored.truncate(cfg.k);
    // one provenance record per candidate, in extraction order; accept
    // means "survived the threshold AND the top-k cut"
    let accepted: std::collections::BTreeSet<&str> =
        scored.iter().map(|v| v.text.as_str()).collect();
    for (text, _, terms) in &evidence {
        let refs: Vec<(&str, f64)> = terms.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        webiq_why::record::instance_validate(text, accepted.contains(text.as_str()), &refs);
    }
    webiq_trace::add(Counter::OutliersRemoved, outliers_removed as u64);
    webiq_trace::add(Counter::ValidationRejected, validation_removed as u64);
    webiq_trace::add(Counter::ValidationAccepted, scored.len() as u64);
    VerificationOutcome {
        instances: scored,
        outliers_removed,
        validation_removed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webiq_web::{Corpus, SearchEngine};

    fn engine() -> SearchEngine {
        SearchEngine::new(Corpus::from_texts([
            // strong evidence for Honda/Toyota as makes
            "makes such as Honda and Toyota are common",
            "Make: Honda. Model: Accord.",
            "Make: Toyota. Model: Camry.",
            "this car's make is Honda",
            // Economy appears a lot but never near "make"
            "economy class is cheap",
            "economy news economy report economy",
            "the economy grows",
        ]))
    }

    fn phrases() -> Vec<String> {
        vec!["make".into(), "makes such as".into()]
    }

    #[test]
    fn instances_outscore_non_instances() {
        let e = engine();
        let [honda, economy] = confidences(&e, &phrases(), &["Honda", "Economy"], true)[..] else {
            panic!("one confidence per candidate");
        };
        assert!(honda > economy, "honda={honda} economy={economy}");
        assert_eq!(economy, 0.0);
    }

    #[test]
    fn pmi_corrects_popularity_bias() {
        // raw joint hits would rank a popular co-occurring term higher than
        // a rare true instance; PMI normalises by the marginals
        let e = SearchEngine::new(Corpus::from_texts([
            "makes such as Honda",
            "makes such as Star every day",
            "Star here",
            "Star there",
            "Star again",
            "Star a lot",
            "Star star",
            "Star news",
            "Star reviews",
            "Star ratings",
        ]));
        let p = vec!["makes such as".to_string()];
        let [honda_pmi, star_pmi] = confidences(&e, &p, &["Honda", "Star"], true)[..] else {
            panic!("one confidence per candidate");
        };
        assert!(
            honda_pmi > star_pmi,
            "pmi: honda={honda_pmi} star={star_pmi}"
        );
        let [honda_raw, star_raw] = confidences(&e, &p, &["Honda", "Star"], false)[..] else {
            panic!("one confidence per candidate");
        };
        assert!(
            honda_raw <= star_raw,
            "raw: honda={honda_raw} star={star_raw}"
        );
    }

    #[test]
    fn verify_keeps_true_instances_and_drops_noise() {
        let e = engine();
        let candidates: Vec<String> = ["Honda", "Toyota", "Economy"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let out = verify_candidates(&e, &phrases(), &candidates, &WebIQConfig::default());
        let texts: Vec<&str> = out.instances.iter().map(|i| i.text.as_str()).collect();
        assert!(texts.contains(&"Honda"));
        assert!(texts.contains(&"Toyota"));
        assert!(!texts.contains(&"Economy"));
        assert_eq!(out.validation_removed, 1);
    }

    #[test]
    fn top_k_is_respected() {
        let e = engine();
        let candidates: Vec<String> = vec!["Honda".into(), "Toyota".into()];
        let cfg = WebIQConfig {
            k: 1,
            ..WebIQConfig::default()
        };
        let out = verify_candidates(&e, &phrases(), &candidates, &cfg);
        assert_eq!(out.instances.len(), 1);
    }

    #[test]
    fn outlier_phase_removes_overlong_junk() {
        let e = engine();
        let mut candidates: Vec<String> = [
            "Honda", "Toyota", "Nissan", "Mazda", "Subaru", "Lexus", "Acura", "Jeep", "Dodge",
            "Buick", "Chevy", "Saturn",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        candidates.push("a very long extraction artifact that is clearly not a car make".into());
        let out = verify_candidates(&e, &phrases(), &candidates, &WebIQConfig::default());
        assert_eq!(out.outliers_removed, 1);

        // ablation: with the outlier phase off, the junk reaches (and is
        // rejected by) Web validation instead — costing validation queries
        let cfg = WebIQConfig {
            outlier_phase: false,
            ..WebIQConfig::default()
        };
        let out2 = verify_candidates(&e, &phrases(), &candidates, &cfg);
        assert_eq!(out2.outliers_removed, 0);
        assert!(out2.validation_removed >= 1);
    }

    #[test]
    fn grubbs_variant_is_usable() {
        use webiq_stats::DiscordancyTest;
        let e = engine();
        // n = 6: the 3σ rule cannot fire, Grubbs can
        let candidates: Vec<String> = ["Honda", "Toyota", "Nissan", "Mazda", "Subaru"]
            .iter()
            .map(|s| (*s).to_string())
            .chain(["an extremely long extraction artifact that is not a make".to_string()])
            .collect();
        let sigma = verify_candidates(&e, &phrases(), &candidates, &WebIQConfig::default());
        let cfg = WebIQConfig {
            discordancy: DiscordancyTest::Grubbs,
            ..WebIQConfig::default()
        };
        let grubbs = verify_candidates(&e, &phrases(), &candidates, &cfg);
        assert_eq!(sigma.outliers_removed, 0);
        assert_eq!(grubbs.outliers_removed, 1);
    }

    #[test]
    fn empty_candidates() {
        let e = engine();
        let out = verify_candidates(&e, &phrases(), &[], &WebIQConfig::default());
        assert!(out.instances.is_empty());
    }

    #[test]
    fn ordering_is_deterministic() {
        let e = engine();
        let candidates: Vec<String> = vec!["Toyota".into(), "Honda".into()];
        let a = verify_candidates(&e, &phrases(), &candidates, &WebIQConfig::default());
        let b = verify_candidates(&e, &phrases(), &candidates, &WebIQConfig::default());
        assert_eq!(a.instances, b.instances);
    }
}
