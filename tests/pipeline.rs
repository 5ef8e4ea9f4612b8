//! End-to-end integration tests over the full pipeline: dataset +
//! simulated Surface Web + simulated Deep-Web sources + acquisition +
//! matching, across all five domains.

use webiq::core::{Components, WebIQConfig};
use webiq::data::kb;
use webiq::matcher::MatchConfig;
use webiq::pipeline::{DomainPipeline, THRESHOLD};

/// The paper's headline: acquired instances lift matching accuracy across
/// the five domains (89.5 % → 97.5 % F-1 average in the paper; shapes, not
/// absolute numbers, must hold here).
#[test]
fn webiq_improves_average_f1_across_domains() {
    let mut base_sum = 0.0;
    let mut webiq_sum = 0.0;
    for def in kb::all_domains() {
        let p = DomainPipeline::from_def(def, 0x1ce0);
        let base = p.baseline_f1();
        let webiq = p.webiq_f1(Components::ALL, 0.0).expect("acquisition");
        assert!(
            webiq.f1 >= base.f1 - 0.02,
            "{}: WebIQ must not materially hurt ({:.3} -> {:.3})",
            def.key,
            base.f1,
            webiq.f1
        );
        base_sum += base.f1;
        webiq_sum += webiq.f1;
    }
    let base_avg = base_sum / 5.0;
    let webiq_avg = webiq_sum / 5.0;
    assert!(
        webiq_avg > base_avg + 0.04,
        "average F1 must improve by several points: {base_avg:.3} -> {webiq_avg:.3}"
    );
    assert!(
        base_avg > 0.80 && base_avg < 0.95,
        "baseline in paper's regime: {base_avg:.3}"
    );
    assert!(
        webiq_avg > 0.93,
        "WebIQ average in paper's regime: {webiq_avg:.3}"
    );
}

/// Figure 7's shape: adding components never hurts and each contributes
/// somewhere.
#[test]
fn component_contributions_are_monotone_on_average() {
    let configs = [
        Components::NONE,
        Components::SURFACE,
        Components::SURFACE_DEEP,
        Components::ALL,
    ];
    let mut avgs = Vec::new();
    for components in configs {
        let mut sum = 0.0;
        for def in kb::all_domains() {
            let p = DomainPipeline::from_def(def, 0x1ce0);
            sum += if components == Components::NONE {
                p.baseline_f1().f1
            } else {
                p.webiq_f1(components, 0.0).expect("acquisition").f1
            };
        }
        avgs.push(sum / 5.0);
    }
    assert!(
        avgs.windows(2).all(|w| w[1] >= w[0] - 0.015),
        "per-stage averages must be (weakly) increasing: {avgs:?}"
    );
    assert!(
        avgs[3] > avgs[0] + 0.04,
        "full WebIQ clearly beats baseline: {avgs:?}"
    );
}

/// The full pipeline is deterministic in the seed.
#[test]
fn pipeline_is_deterministic() {
    let a = DomainPipeline::build("auto", 42).expect("domain");
    let b = DomainPipeline::build("auto", 42).expect("domain");
    let acq_a = a
        .acquire(Components::ALL, &WebIQConfig::default())
        .expect("acquisition");
    let acq_b = b
        .acquire(Components::ALL, &WebIQConfig::default())
        .expect("acquisition");
    assert_eq!(acq_a.acquired, acq_b.acquired);
    let f1_a = a
        .match_and_evaluate(&a.enriched_attributes(&acq_a), &MatchConfig::default())
        .1;
    let f1_b = b
        .match_and_evaluate(&b.enriched_attributes(&acq_b), &MatchConfig::default())
        .1;
    assert_eq!(f1_a.f1, f1_b.f1);
}

/// Different seeds give different datasets but the qualitative result —
/// WebIQ helps — is seed-robust.
#[test]
fn improvement_is_seed_robust() {
    for seed in [7, 1234] {
        let mut base_sum = 0.0;
        let mut webiq_sum = 0.0;
        for def in kb::all_domains() {
            let p = DomainPipeline::from_def(def, seed);
            base_sum += p.baseline_f1().f1;
            webiq_sum += p.webiq_f1(Components::ALL, 0.0).expect("acquisition").f1;
        }
        assert!(
            webiq_sum > base_sum + 0.10,
            "seed {seed}: sum {base_sum:.3} -> {webiq_sum:.3}"
        );
    }
}

/// Thresholding must not collapse accuracy (the paper's third bar).
#[test]
fn thresholding_stays_in_regime() {
    for def in kb::all_domains() {
        let p = DomainPipeline::from_def(def, 0x1ce0);
        let webiq = p.webiq_f1(Components::ALL, 0.0).expect("acquisition");
        let webiq_t = p.webiq_f1(Components::ALL, THRESHOLD).expect("acquisition");
        assert!(
            webiq_t.f1 >= webiq.f1 - 0.03,
            "{}: τ must stay within a hair of unthresholded ({:.3} vs {:.3})",
            def.key,
            webiq_t.f1,
            webiq.f1
        );
        assert!(
            webiq_t.precision >= webiq.precision - 1e-9,
            "{}: τ must not lower precision",
            def.key
        );
    }
}

/// Job is the domain with the most instance-poor attributes and (as in the
/// paper) the one where borrowing-based components matter most.
#[test]
fn job_gains_most_from_webiq() {
    let mut gains = Vec::new();
    for def in kb::all_domains() {
        let p = DomainPipeline::from_def(def, 0x1ce0);
        let gain = p.webiq_f1(Components::ALL, 0.0).expect("acquisition").f1 - p.baseline_f1().f1;
        gains.push((def.key, gain));
    }
    let max = gains
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("five domains");
    assert_eq!(max.0, "job", "gains: {gains:?}");
}
