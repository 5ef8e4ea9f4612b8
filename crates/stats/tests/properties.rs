//! Property-based tests for the statistics substrate.

use webiq_rng::prop;
use webiq_stats::{bayes::NaiveBayes, entropy, outlier, pmi, types};

/// Entropy is within [0, 1] for any counts.
#[test]
fn entropy_bounded() {
    prop::cases(prop::CASES, |rng| {
        let pos = rng.gen_range(0usize..100);
        let extra = rng.gen_range(0usize..100);
        let total = pos + extra;
        let e = entropy::binary_entropy(pos, total);
        assert!((0.0..=1.0 + 1e-12).contains(&e));
    });
}

fn score_examples(rng: &mut webiq_rng::StdRng, max_len: usize) -> Vec<(f64, bool)> {
    let n = rng.gen_range(1..=max_len);
    (0..n)
        .map(|_| (rng.gen_range(0.0f64..1.0), rng.gen_bool(0.5)))
        .collect()
}

/// Information gain is non-negative and at most the parent entropy.
#[test]
fn gain_bounded() {
    prop::cases(prop::CASES, |rng| {
        let examples = score_examples(rng, 39);
        let threshold = rng.gen_range(0.0f64..1.0);
        let pos = examples.iter().filter(|(_, p)| *p).count();
        let parent = entropy::binary_entropy(pos, examples.len());
        let g = entropy::information_gain(&examples, threshold);
        assert!(g >= -1e-12, "gain {g}");
        assert!(g <= parent + 1e-12, "gain {g} parent {parent}");
    });
}

/// best_threshold always lies within the score range.
#[test]
fn threshold_in_range() {
    prop::cases(prop::CASES, |rng| {
        let examples = score_examples(rng, 39);
        let t = entropy::best_threshold(&examples);
        let lo = examples
            .iter()
            .map(|(s, _)| *s)
            .fold(f64::INFINITY, f64::min);
        let hi = examples
            .iter()
            .map(|(s, _)| *s)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            t >= lo - 1e-12 && t <= hi + 1e-12,
            "t = {t} not in [{lo}, {hi}]"
        );
    });
}

/// A perfectly separable training set is classified perfectly by NB.
#[test]
fn nb_learns_separable_data() {
    prop::cases(prop::CASES, |rng| {
        let npos = rng.gen_range(2usize..20);
        let nneg = rng.gen_range(2usize..20);
        let mut ex = Vec::new();
        for _ in 0..npos {
            ex.push((vec![true, true, true], true));
        }
        for _ in 0..nneg {
            ex.push((vec![false, false, false], false));
        }
        let nb = NaiveBayes::train(&ex).expect("train");
        assert!(nb.classify(&[true, true, true]));
        assert!(!nb.classify(&[false, false, false]));
    });
}

/// NB posterior is a valid probability for arbitrary boolean data.
#[test]
fn nb_posterior_valid() {
    prop::cases(prop::CASES, |rng| {
        let n = rng.gen_range(1usize..30);
        let ex: Vec<(Vec<bool>, bool)> = (0..n)
            .map(|_| {
                (
                    (0..3).map(|_| rng.gen_bool(0.5)).collect(),
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        let probe: Vec<bool> = (0..3).map(|_| rng.gen_bool(0.5)).collect();
        let nb = NaiveBayes::train(&ex).expect("train");
        let p = nb.posterior_pos(&probe);
        assert!((0.0..=1.0).contains(&p), "p = {p}");
    });
}

/// PMI is non-negative and zero iff numerator or a marginal is zero.
#[test]
fn pmi_nonnegative() {
    prop::cases(prop::CASES, |rng| {
        let j = rng.gen_range(0u64..1000);
        let a = rng.gen_range(0u64..1000);
        let b = rng.gen_range(0u64..1000);
        let v = pmi::pmi(j, a, b);
        assert!(v >= 0.0);
        if j > 0 && a > 0 && b > 0 {
            assert!(v > 0.0);
        } else {
            assert_eq!(v, 0.0);
        }
    });
}

/// Outlier removal partitions the input: kept + removed == input (as
/// multisets, order preserved within each part).
#[test]
fn outlier_partition() {
    prop::cases(prop::CASES, |rng| {
        let values = prop::string_vec(
            rng,
            prop::charset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 $.,"),
            0,
            29,
            0,
            20,
        );
        let r = outlier::remove_outliers(&values);
        assert_eq!(r.kept.len() + r.removed.len(), values.len());
        let mut all: Vec<String> = r.kept.clone();
        all.extend(r.removed.clone());
        all.sort();
        let mut orig = values.clone();
        orig.sort();
        assert_eq!(all, orig);
    });
}

/// Identical values are never outliers.
#[test]
fn identical_values_all_kept() {
    prop::cases(prop::CASES, |rng| {
        let v = rng.gen_string(
            prop::charset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"),
            1,
            10,
        );
        let n = rng.gen_range(1usize..20);
        let values = vec![v; n];
        let r = outlier::remove_outliers(&values);
        assert!(r.removed.is_empty());
    });
}

/// Type inference is total and consistent with the numeric parser:
/// whenever `numeric_value` parses, the inferred type is numeric.
#[test]
fn type_inference_consistent() {
    prop::cases(prop::CASES, |rng| {
        let s = rng.gen_string(prop::any_char(), 0, 20);
        let t = types::infer_type(&s);
        if types::numeric_value(&s).is_some() {
            // Dates like 1/5 don't parse as numeric; numeric parses must be
            // numeric or date (e.g. "2006" is an integer even if year-like).
            assert!(t.is_numeric() || t == types::ValueType::Date, "{s} → {t:?}");
        }
    });
}

/// The value-type tests are total on adversarial text (final sigma,
/// `İ`, `ẞ`, the Kelvin and Ohm signs, combining marks) mixed with `"`,
/// `+`, `-`, `$`, `.` and the digits and words they parse.
#[test]
fn type_entry_points_never_panic() {
    let chars = prop::charset("ΣσςİıẞßK\u{212A}\u{2126}\u{301}\u{345}é0129 \"+-$.,/:usd");
    prop::cases(4 * prop::CASES, |rng| {
        let s = rng.gen_string(chars, 0, 24);
        let _ = types::is_real(&s);
        let _ = types::infer_type(&s);
        let _ = types::numeric_value(&s);
    });
}
