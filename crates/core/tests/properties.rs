//! Property-based tests for the WebIQ core: totality on arbitrary labels,
//! invariants of the extraction/verification pipeline, and probing-rule
//! arithmetic.

use webiq_core::{extract, patterns, surface, verify, CompletionMemo, DomainInfo, WebIQConfig};
use webiq_rng::prop;
use webiq_web::{Corpus, SearchEngine};

fn small_engine() -> SearchEngine {
    SearchEngine::new(Corpus::from_texts([
        "Popular departure cities such as Boston, Chicago, and Denver are listed. travel",
        "airlines such as Delta and United fly daily. travel",
        "The author of the book is Mark Twain.",
        "random noise page about gardening",
    ]))
}

/// Label analysis and query formulation never panic on arbitrary
/// label-ish text, and extraction stays within its query budget.
#[test]
fn extraction_total_on_arbitrary_labels() {
    prop::cases(prop::CASES, |rng| {
        let label = rng.gen_string(
            prop::charset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 :*/-"),
            0,
            40,
        );
        let engine = small_engine();
        let info = DomainInfo {
            object: "thing".into(),
            domain_terms: vec!["travel".into()],
            sibling_terms: Vec::new(),
        };
        let cfg = WebIQConfig::default();
        let outcome =
            extract::extract_candidates(&engine, &label, &info, &cfg, &CompletionMemo::new());
        // 8 patterns per noun phrase; conjunction labels have at most a
        // handful of NPs
        assert!(outcome.queries <= 8 * 8);
        for c in &outcome.candidates {
            assert!(!c.text.trim().is_empty());
            assert!(c.count >= 1);
        }
    });
}

/// The Surface component returns at most k instances, each scored
/// strictly above the configured floor, sorted descending.
#[test]
fn surface_respects_k_and_ordering() {
    prop::cases(prop::CASES, |rng| {
        let k = rng.gen_range(1usize..15);
        let engine = small_engine();
        let info = DomainInfo {
            object: "flight".into(),
            domain_terms: vec!["travel".into()],
            sibling_terms: Vec::new(),
        };
        let cfg = WebIQConfig {
            k,
            ..WebIQConfig::default()
        };
        let result = surface::discover(
            &engine,
            "Departure city",
            &info,
            &cfg,
            &CompletionMemo::new(),
        );
        assert!(result.instances.len() <= k);
        for w in result.instances.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for inst in &result.instances {
            assert!(inst.score > cfg.min_validation_score);
        }
    });
}

/// Validation scores are finite and non-negative for arbitrary
/// phrase/candidate combinations, with and without PMI.
#[test]
fn validation_scores_finite() {
    prop::cases(prop::CASES, |rng| {
        let phrase = rng.gen_string(prop::lower_space(), 1, 20);
        let candidate = rng.gen_string(prop::alpha_space(), 1, 20);
        let use_pmi = rng.gen_bool(0.5);
        let engine = small_engine();
        let v = verify::validation_vectors(&engine, &[phrase], &[candidate], use_pmi);
        assert_eq!(v.len(), 1);
        let s = v[0][0];
        assert!(s.is_finite());
        assert!(s >= 0.0);
    });
}

/// verify_candidates partitions its input: survivors + outliers +
/// validation-removed = input size.
#[test]
fn verification_accounts_for_every_candidate() {
    prop::cases(prop::CASES, |rng| {
        let candidates = prop::string_vec(
            rng,
            prop::charset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"),
            0,
            24,
            2,
            12,
        );
        let unique: std::collections::BTreeSet<String> =
            candidates.iter().map(|c| c.to_lowercase()).collect();
        if unique.len() != candidates.len() {
            return; // case-insensitive duplicates merge; skip
        }
        let engine = small_engine();
        let cfg = WebIQConfig {
            k: usize::MAX,
            ..WebIQConfig::default()
        };
        let phrases = vec!["city".to_string()];
        let out = verify::verify_candidates(&engine, &phrases, &candidates, &cfg);
        assert_eq!(
            out.instances.len() + out.outliers_removed + out.validation_removed,
            candidates.len()
        );
    });
}

/// Extraction patterns always materialise all eight Fig.-4 patterns
/// with non-empty cue phrases for any noun-phrase label.
#[test]
fn patterns_materialize_for_noun_labels() {
    prop::cases(prop::CASES, |rng| {
        let labels = ["author", "city", "make", "publisher", "salary", "airline"];
        let idx = rng.gen_range(0usize..labels.len());
        let np = extract::primary_noun_phrase(labels[idx]).expect("nouns");
        let pats = patterns::extraction_patterns(&np, "object");
        assert_eq!(pats.len(), 8);
        for p in &pats {
            assert!(!p.cue.trim().is_empty());
            assert_eq!(p.cue.to_lowercase(), p.cue);
        }
    });
}

/// Snippet completion extraction never panics, on arbitrary snippets nor
/// when the text around a cue, or the cue itself, holds chars whose
/// lowercase form has another byte length: `İ` (2 → 3 bytes), `ẞ`
/// (3 → 2), the Kelvin sign (3 → 1), the Ohm and Ångström signs (3 → 2).
/// Every completion word is snippet text.
#[test]
fn completions_total() {
    let around = prop::charset("İẞ\u{212A}\u{2126}\u{212B}ΣéAbk ,.");
    let labels = ["city", "make", "keyword", "airline", "class of service"];
    prop::cases(4 * prop::CASES, |rng| {
        let arbitrary = rng.gen_string(prop::any_char(), 0, 200);
        let label = labels[rng.gen_range(0usize..labels.len())];
        let np = extract::primary_noun_phrase(label).expect("noun label");
        for p in patterns::extraction_patterns(&np, "book") {
            let cue: String = p
                .cue
                .chars()
                .map(|c| match rng.gen_range(0u32..4) {
                    0 if c == 'k' => '\u{212A}',
                    1 => c.to_ascii_uppercase(),
                    _ => c,
                })
                .collect();
            let around_cue = format!(
                "{}{cue}{}",
                rng.gen_string(around, 0, 30),
                rng.gen_string(around, 0, 30)
            );
            for snippet in [&arbitrary, &around_cue] {
                for text in extract::completions(snippet, &p) {
                    for word in text.split(' ') {
                        assert!(snippet.contains(word), "{word:?} not in {snippet:?}");
                    }
                }
            }
        }
    });
}
