//! Property-based tests for the matcher: clustering invariants, metric
//! bounds, similarity symmetry, and the prepared value set against the
//! pairwise formulas it replaced.

use std::collections::BTreeSet;

use webiq_match::cluster::{cluster, Item};
use webiq_match::domsim::{self, ValueSet, VERY_SIMILAR};
use webiq_match::{labelsim, metrics::PrF1, similarity, MatchAttribute, MatchConfig};
use webiq_rng::{prop, SliceRandom, StdRng};
use webiq_stats::types::{numeric_value, ValueType};

/// A random symmetric similarity matrix in [0, 1].
#[allow(clippy::needless_range_loop, reason = "i/j are matrix coordinates")]
fn sim_matrix(n: usize, seed: &[f64]) -> Vec<Vec<f64>> {
    let mut m = vec![vec![0.0; n]; n];
    let mut k = 0;
    for i in 0..n {
        for j in i + 1..n {
            m[i][j] = seed[k % seed.len()].abs().fract();
            k += 1;
        }
    }
    m
}

fn interface_ids(rng: &mut StdRng, max_iface: usize, min_len: usize, max_len: usize) -> Vec<usize> {
    let n = rng.gen_range(min_len..=max_len);
    (0..n).map(|_| rng.gen_range(0..max_iface)).collect()
}

fn unit_seed(rng: &mut StdRng) -> Vec<f64> {
    (0..8).map(|_| rng.gen_range(0.0f64..1.0)).collect()
}

/// Clustering always partitions the items, and no cluster ever holds two
/// items of the same interface — for any similarity structure and
/// threshold.
#[test]
fn clustering_invariants() {
    prop::cases(prop::CASES, |rng| {
        let interfaces = interface_ids(rng, 6, 1, 15);
        let seed = unit_seed(rng);
        let threshold = rng.gen_range(0.0f64..1.0);
        let items: Vec<Item<usize>> = interfaces
            .iter()
            .enumerate()
            .map(|(id, &interface)| Item { id, interface })
            .collect();
        let m = sim_matrix(items.len(), &seed);
        let clusters = cluster(&items, &m, threshold);

        // partition
        let mut seen = vec![false; items.len()];
        for c in &clusters {
            for &i in c {
                assert!(!seen[i], "item {i} appears twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|s| *s));

        // same-interface exclusion
        for c in &clusters {
            let mut ifaces: Vec<usize> = c.iter().map(|&i| items[i].interface).collect();
            let n = ifaces.len();
            ifaces.sort_unstable();
            ifaces.dedup();
            assert_eq!(ifaces.len(), n);
        }
    });
}

/// Raising the threshold never increases the amount of merging (cluster
/// count is monotone non-decreasing in τ).
#[test]
fn threshold_monotone() {
    prop::cases(prop::CASES, |rng| {
        let interfaces = interface_ids(rng, 8, 2, 13);
        let seed = unit_seed(rng);
        let t1 = rng.gen_range(0.0f64..1.0);
        let t2 = rng.gen_range(0.0f64..1.0);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let items: Vec<Item<usize>> = interfaces
            .iter()
            .enumerate()
            .map(|(id, &interface)| Item { id, interface })
            .collect();
        let m = sim_matrix(items.len(), &seed);
        let c_lo = cluster(&items, &m, lo).len();
        let c_hi = cluster(&items, &m, hi).len();
        assert!(c_hi >= c_lo, "τ={lo}→{c_lo} clusters, τ={hi}→{c_hi}");
    });
}

/// Similarity is symmetric and within [0, 1] for arbitrary attributes.
#[test]
fn similarity_symmetric_bounded() {
    prop::cases(prop::CASES, |rng| {
        let la = rng.gen_string(prop::alpha_space(), 0, 20);
        let lb = rng.gen_string(prop::alpha_space(), 0, 20);
        let va = prop::string_vec(rng, prop::alnum_space(), 0, 5, 1, 10);
        let vb = prop::string_vec(rng, prop::alnum_space(), 0, 5, 1, 10);
        let cfg = MatchConfig::default();
        let a = MatchAttribute {
            r: (0, 0),
            label: la,
            values: va,
        };
        let b = MatchAttribute {
            r: (1, 0),
            label: lb,
            values: vb,
        };
        let sab = similarity(&a, &b, &cfg);
        let sba = similarity(&b, &a, &cfg);
        assert!((sab - sba).abs() < 1e-12);
        assert!((0.0..=1.0 + 1e-12).contains(&sab), "s = {sab}");
    });
}

/// dom_sim of a non-empty set with itself is high; with an empty set it
/// is zero.
#[test]
fn dom_sim_reflexive_ish() {
    prop::cases(prop::CASES, |rng| {
        let vals = prop::string_vec(
            rng,
            prop::charset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"),
            1,
            7,
            2,
            8,
        );
        let s = domsim::dom_sim(&vals, &vals);
        assert!(s > 0.85, "self-sim {s}");
        let empty: Vec<String> = Vec::new();
        assert_eq!(domsim::dom_sim(&vals, &empty), 0.0);
    });
}

/// value_similarity is symmetric, bounded, and 1 on equal strings.
#[test]
fn value_similarity_properties() {
    prop::cases(prop::CASES, |rng| {
        let a = rng.gen_string(prop::alpha_space(), 0, 15);
        let b = rng.gen_string(prop::alpha_space(), 0, 15);
        let sab = domsim::value_similarity(&a, &b);
        assert!((sab - domsim::value_similarity(&b, &a)).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&sab));
        assert!((domsim::value_similarity(&a, &a) - 1.0).abs() < 1e-12);
    });
}

/// label_sim is bounded and zero against an empty label.
#[test]
fn label_sim_bounds() {
    prop::cases(prop::CASES, |rng| {
        let a = rng.gen_string(prop::alpha_space(), 0, 25);
        let b = rng.gen_string(prop::alpha_space(), 0, 25);
        let s = labelsim::label_sim(&a, &b);
        assert!((0.0..=1.0 + 1e-12).contains(&s));
        assert_eq!(labelsim::label_sim(&a, ""), 0.0);
    });
}

/// P/R/F1 are always within [0, 1] and F1 is zero iff P or R is.
#[test]
fn metric_bounds() {
    prop::cases(prop::CASES, |rng| {
        let mut pred = std::collections::BTreeSet::new();
        for _ in 0..rng.gen_range(0usize..20) {
            pred.insert((rng.gen_range(0u32..10), rng.gen_range(0u32..10)));
        }
        let mut gold = std::collections::BTreeSet::new();
        for _ in 0..rng.gen_range(0usize..20) {
            gold.insert((rng.gen_range(0u32..10), rng.gen_range(0u32..10)));
        }
        let m = PrF1::from_pairs(&pred, &gold);
        for v in [m.precision, m.recall, m.f1] {
            assert!((0.0..=1.0).contains(&v));
        }
        if m.f1 == 0.0 {
            assert!(m.precision == 0.0 || m.recall == 0.0);
        } else {
            assert!(m.precision > 0.0 && m.recall > 0.0);
        }
    });
}

/// The pairwise DomSim formulas and the brute-force similar-pair test that
/// [`ValueSet`] replaced, kept as the reference it must equal bit for bit.
mod reference {
    use super::*;

    fn lower_set(values: &[String]) -> BTreeSet<String> {
        values
            .iter()
            .map(|v| v.trim().to_ascii_lowercase())
            .collect()
    }

    fn jaccard(a: &[String], b: &[String]) -> f64 {
        let (sa, sb) = (lower_set(a), lower_set(b));
        if sa.is_empty() || sb.is_empty() {
            return 0.0;
        }
        sa.intersection(&sb).count() as f64 / sa.union(&sb).count() as f64
    }

    fn containment(a: &[String], b: &[String]) -> f64 {
        let (sa, sb) = (lower_set(a), lower_set(b));
        let min = sa.len().min(sb.len());
        if min == 0 {
            return 0.0;
        }
        sa.intersection(&sb).count() as f64 / min as f64
    }

    fn range_overlap(a: &[String], b: &[String]) -> f64 {
        let range = |vals: &[String]| -> Option<(f64, f64)> {
            let nums: Vec<f64> = vals.iter().filter_map(|v| numeric_value(v)).collect();
            if nums.is_empty() {
                return None;
            }
            let lo = nums.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = nums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            Some((lo, hi))
        };
        let (Some((alo, ahi)), Some((blo, bhi))) = (range(a), range(b)) else {
            return 0.0;
        };
        let inter = (ahi.min(bhi) - alo.max(blo)).max(0.0);
        let union = ahi.max(bhi) - alo.min(blo);
        if union <= 0.0 {
            return if (alo - blo).abs() < f64::EPSILON {
                1.0
            } else {
                0.0
            };
        }
        inter / union
    }

    pub fn dom_sim(a: &[String], b: &[String]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let ta = domsim::majority_type(a);
        let tb = domsim::majority_type(b);
        if ta != tb {
            return 0.1 * jaccard(a, b);
        }
        match ta {
            ValueType::Integer | ValueType::Real | ValueType::Monetary => {
                0.6 * range_overlap(a, b) + 0.4 * containment(a, b)
            }
            ValueType::Date => 0.5 + 0.5 * containment(a, b),
            ValueType::Text => jaccard(a, b).max(0.9 * containment(a, b)),
        }
    }

    pub fn similar_pair(a: &[String], b: &[String]) -> bool {
        a.iter()
            .any(|v| b.iter().any(|w| domsim::value_similarity(v, w) >= 0.85))
    }
}

/// Text values close enough to each other that the similar-pair test
/// meets its boundary: spelling variants, prefixes, non-ASCII letters.
const WORDS: [&str; 16] = [
    "Ryan Air",
    "Ryanair",
    "Aer Lingus",
    "Air France",
    "Boston",
    "Bostonn",
    "Zürich",
    "Zurich",
    "São Paulo",
    "Sao Paulo",
    "Ærøskøbing",
    "abcdefghijklmnopqrst",
    "abcdefghijklmnopq",
    "abcdefghijklmnop",
    "",
    "Montréal",
];

const MONTHS: [&str; 8] = [
    "Jan", "January", "Feb", "February", "Mar", "March", "Dec", "December",
];

/// `n` with thousands separators (`1,234,567`).
fn with_commas(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Multi-word names of 21–60 chars, some with non-ASCII letters: long
/// enough for edit budgets of 3 to 9 and for the bounded DP to stop in
/// the middle of a row.
const LONG_NAMES: [&str; 6] = [
    "International Business Machines",
    "Massachusetts Institute of Technology Press",
    "São Paulo Guarulhos International Airport",
    "Zürich Kloten Flughafen Passagier Terminal Nord",
    "Ærøskøbing Havn og Færgeterminal",
    "The Hitchhiker's Guide to the Galaxy: The Complete Trilogy",
];

/// `base` with 1–9 scattered edits: substitutions (ASCII or not),
/// insertions and deletions at random positions.
fn scattered_edits(rng: &mut StdRng, base: &str) -> String {
    let mut chars: Vec<char> = base.chars().collect();
    let letters = prop::charset("aeiouxyzéøß ");
    for _ in 0..rng.gen_range(1usize..=9) {
        let at = rng.gen_range(0..chars.len());
        let letter = *letters.choose(rng).expect("non-empty");
        match rng.gen_range(0u32..3) {
            0 => chars[at] = letter,
            1 => chars.insert(at, letter),
            _ => {
                chars.remove(at);
            }
        }
    }
    chars.into_iter().collect()
}

/// One value of kind `kind`: a comma integer, a real, a `$` amount, a
/// month name, a text word (possibly edited), a random short string, or
/// a long name (possibly edited).
fn gen_value(rng: &mut StdRng, kind: usize) -> String {
    let base = match kind {
        0 => with_commas(rng.gen_range(0u64..30_000)),
        1 => format!("{}.{}", rng.gen_range(0u64..50), rng.gen_range(0u64..100)),
        2 => format!("${}", with_commas(rng.gen_range(0u64..30_000))),
        3 => (*MONTHS.choose(rng).expect("non-empty")).to_string(),
        4 => {
            let mut w: Vec<char> = WORDS.choose(rng).expect("non-empty").chars().collect();
            if !w.is_empty() && rng.gen_bool(0.3) {
                let at = rng.gen_range(0..w.len());
                if rng.gen_bool(0.5) {
                    w.remove(at);
                } else {
                    w.insert(at, 'x');
                }
            }
            w.into_iter().collect()
        }
        5 => rng.gen_string(prop::charset("abAB é"), 0, 20),
        _ => {
            let name = LONG_NAMES.choose(rng).expect("non-empty");
            if rng.gen_bool(0.8) {
                scattered_edits(rng, name)
            } else {
                (*name).to_string()
            }
        }
    };
    respell(rng, &base)
}

/// `v` in upper, lower or its own case, maybe with a leading or
/// trailing space.
fn respell(rng: &mut StdRng, v: &str) -> String {
    let cased = match rng.gen_range(0u32..3) {
        0 => v.to_uppercase(),
        1 => v.to_lowercase(),
        _ => v.to_string(),
    };
    let pad = |rng: &mut StdRng| if rng.gen_bool(0.2) { " " } else { "" };
    format!("{}{cased}{}", pad(rng), pad(rng))
}

/// A value list of up to eight values, usually of one kind (so every
/// DomSim branch is reached), sometimes mixed; duplicates are likely.
fn gen_values(rng: &mut StdRng) -> Vec<String> {
    let n = rng.gen_range(0usize..=8);
    let kind = rng.gen_range(0usize..8); // 7 = mixed
    let mut out: Vec<String> = Vec::with_capacity(n);
    for _ in 0..n {
        if !out.is_empty() && rng.gen_bool(0.15) {
            let dup = out.choose(rng).expect("non-empty").clone();
            out.push(dup);
        } else {
            let k = if kind == 7 {
                rng.gen_range(0usize..7)
            } else {
                kind
            };
            out.push(gen_value(rng, k));
        }
    }
    out
}

/// A list overlapping `a`: most of its values respelt, in a new order,
/// plus a few new ones — the near-equal sets where Jaccard decides.
fn overlapping(rng: &mut StdRng, a: &[String]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for v in a {
        if rng.gen_bool(0.8) {
            out.push(respell(rng, v));
        }
    }
    for _ in 0..rng.gen_range(0usize..3) {
        let kind = rng.gen_range(0usize..7);
        out.push(gen_value(rng, kind));
    }
    out.shuffle(rng);
    out
}

/// `ValueSet::sim` equals the pairwise BTreeSet formulas bit for bit, and
/// the similar-pair test equals the brute force over every value pair.
#[test]
fn value_set_matches_the_pairwise_reference() {
    prop::cases(8 * prop::CASES, |rng| {
        let a = gen_values(rng);
        let b = if rng.gen_bool(0.5) {
            overlapping(rng, &a)
        } else {
            gen_values(rng)
        };
        let (sa, sb) = (ValueSet::new(&a), ValueSet::new(&b));
        let want = reference::dom_sim(&a, &b);
        assert_eq!(sa.sim(&sb).to_bits(), want.to_bits(), "{a:?} vs {b:?}");
        assert_eq!(domsim::dom_sim(&a, &b).to_bits(), want.to_bits());
        assert_eq!(
            sa.has_similar_pair(&sb),
            reference::similar_pair(&a, &b),
            "{a:?} vs {b:?}"
        );
        // pair by pair too, so that one misjudged pair cannot hide
        // behind another similar one
        for v in a.chunks(1) {
            for w in b.chunks(1) {
                assert_eq!(
                    ValueSet::new(v).has_similar_pair(&ValueSet::new(w)),
                    reference::similar_pair(v, w),
                    "{v:?} vs {w:?}"
                );
            }
        }
    });
}

/// The similar-pair test at the edges of its length bound.
#[test]
fn similar_pair_length_bound_edges() {
    let check = |a: &[&str], b: &[&str], similar: bool| {
        let a: Vec<String> = a.iter().map(|s| (*s).to_string()).collect();
        let b: Vec<String> = b.iter().map(|s| (*s).to_string()).collect();
        assert_eq!(reference::similar_pair(&a, &b), similar, "{a:?} vs {b:?}");
        assert_eq!(
            ValueSet::new(&a).has_similar_pair(&ValueSet::new(&b)),
            similar,
            "{a:?} vs {b:?}"
        );
    };
    // 8 vs 7 chars, one edit: 1 − 1/8 = 0.875
    assert_eq!(domsim::value_similarity("Ryan Air", "Ryanair"), 0.875);
    check(&["Ryan Air"], &["Ryanair"], true);
    // 20 vs 17 chars: the gap alone allows exactly 0.85, reached by a prefix
    let (s20, s17) = ("abcdefghijklmnopqrst", "abcdefghijklmnopq");
    assert_eq!(domsim::value_similarity(s20, s17), VERY_SIMILAR);
    check(&[s20], &[s17], true);
    check(&[s20], &["abcdefghijklmnopz"], false);
    // 20 vs 16 chars: the gap alone rules the pair out
    check(&[s20], &["abcdefghijklmnop"], false);
    // padding and case normalise away; empty strings match each other only
    check(&[" BOSTON "], &["boston"], true);
    check(&[""], &["  "], true);
    check(&[""], &["a"], false);
    // non-ASCII letters count as one char each: 1 − 1/6 and 1 − 1/10
    check(&["Zürich"], &["Zurich"], false);
    check(&["Ærøskøbing"], &["Ærøskobing"], true);
    check(&[], &["Boston"], false);
    // Where the edit budget steps up, `(max_len, budget below, budget at)`:
    // at each length, `budget` edits are very similar and one more is not,
    // whether the edits are substitutions of letters the other value lacks
    // (the distance is exactly their count) or a dropped suffix (the gap).
    let letters = |len: usize, first: char| -> String {
        (0..len)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .enumerate()
            .map(|(i, c)| if i == 0 { first } else { c })
            .collect()
    };
    let substituted = |base: &str, edits: usize| -> String {
        let n = base.chars().count();
        let at: Vec<usize> = (0..edits).map(|j| j * n / edits).collect();
        base.chars()
            .enumerate()
            .map(|(i, c)| if at.contains(&i) { '#' } else { c })
            .collect()
    };
    for (m, below, at) in [(7, 0, 1), (14, 1, 2), (20, 2, 3), (27, 3, 4), (40, 5, 6)] {
        for (len, budget) in [(m - 1, below), (m, at)] {
            for first in ['a', 'ü'] {
                let base = letters(len, first);
                let near = substituted(&base, budget);
                let far = substituted(&base, budget + 1);
                assert_eq!(near.chars().filter(|&c| c == '#').count(), budget);
                assert_eq!(far.chars().filter(|&c| c == '#').count(), budget + 1);
                check(&[&base], &[&near], true);
                check(&[&base], &[&far], false);
                let prefix = |n: usize| base.chars().take(n).collect::<String>();
                check(&[&base], &[&prefix(len - budget)], true);
                check(&[&base], &[&prefix(len - budget - 1)], false);
            }
        }
    }
}
