//! Interactive threshold learning — the part of IceQ the paper ran in
//! manual mode ("we employ only the automatic version of IceQ, and set
//! the threshold manually" to 0.1, "about the average of the thresholds
//! learned for the five domains").
//!
//! This example replays that learning: a gold-standard-backed oracle
//! stands in for the interactive user, answers 20 match/no-match
//! questions per domain about actual merge decisions, and the
//! information-gain threshold estimator (the same one the §3 classifier
//! uses) produces each domain's τ.
//!
//! ```sh
//! cargo run --release --example threshold_learning
//! ```

use webiq::core::{Components, WebIQConfig};
use webiq::data::{gold, kb};
use webiq::matcher::{learn_threshold, GoldOracle, MatchConfig};
use webiq::pipeline::DomainPipeline;

fn main() {
    println!("domain       learned-τ  questions  F1@τ=0  F1@learned-τ");
    let mut sum = 0.0;
    for def in kb::all_domains() {
        let p = DomainPipeline::from_def(def, 0x1ce0);
        let acq = p
            .acquire(Components::ALL, &WebIQConfig::default())
            .expect("acquisition");
        let attrs = p.enriched_attributes(&acq);

        let mut oracle = GoldOracle::new(gold::gold_pairs(&p.dataset));
        let learned = learn_threshold(&attrs, &MatchConfig::default(), &mut oracle, 20);

        let f1_zero = p.match_and_evaluate(&attrs, &MatchConfig::default()).1;
        let f1_learned = p
            .match_and_evaluate(&attrs, &MatchConfig::with_threshold(learned.threshold))
            .1;
        println!(
            "{:<12} {:>9.4} {:>10} {:>7.1} {:>13.1}",
            def.display,
            learned.threshold,
            learned.questions,
            f1_zero.f1_pct(),
            f1_learned.f1_pct(),
        );
        sum += learned.threshold;
    }
    println!(
        "\naverage learned τ = {:.3} — the paper set its manual τ = 0.1 as \"about the\n\
         average of the thresholds learned for the five domains\" on IceQ's scale.",
        sum / 5.0
    );
}
