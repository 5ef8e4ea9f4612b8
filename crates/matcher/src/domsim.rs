//! Domain (instance-set) similarity (§5).
//!
//! `DomSim(A, B)` is evaluated from the inferred *types* of the two
//! domains (integer, real, monetary, date, text) and the *values* in them:
//!
//! - attributes with no values contribute nothing (similarity 0) — this is
//!   the paper's core problem, solved by instance acquisition;
//! - mismatched types score (near) zero;
//! - numeric domains compare by range overlap;
//! - textual/date domains compare by case-insensitive value overlap —
//!   Jaccard and containment (`|A∩B| / min`), the latter because a small
//!   drop-down sample and a set of acquired instances of the same concept
//!   overlap far more relative to the smaller set than to the union.
//!
//! Word-level (sub-value) overlap is deliberately **not** used: shared
//! words like the `Air` of `Air Canada`/`Air France` would create faint
//! similarity bridges that let unthresholded clustering merge attribute
//! pairs the paper's WebIQ needs instance acquisition to connect.
//!
//! Both DomSim and the §5 borrow pre-filter's "very similar" value test
//! run on a [`ValueSet`]: a value list typed, normalised, sorted and
//! measured once, so the all-pairs loops of matching and borrowing
//! compare prepared sets instead of re-normalising every value per pair.
//! The similar-pair test turns [`VERY_SIMILAR`] into an edit budget per
//! longer length, skips a pair whose length gap exceeds it (Levenshtein
//! distance is at least the gap) and stops a pair's DP once a whole row
//! exceeds it, so it gives the same answer as [`value_similarity`] over
//! every pair without computing most distances.

use std::cmp::Ordering;

use webiq_stats::types::{infer_type, numeric_value, ValueType};

/// The §5 pre-filter's "very similar": two values whose
/// [`value_similarity`] reaches this.
pub const VERY_SIMILAR: f64 = 0.85;

/// Majority fine-grained type of a value set (ties resolve toward Text).
pub fn majority_type<S: AsRef<str>>(values: &[S]) -> ValueType {
    let mut counts: [(ValueType, usize); 5] = [
        (ValueType::Integer, 0),
        (ValueType::Real, 0),
        (ValueType::Monetary, 0),
        (ValueType::Date, 0),
        (ValueType::Text, 0),
    ];
    for v in values {
        let t = infer_type(v.as_ref());
        for slot in &mut counts {
            if slot.0 == t {
                slot.1 += 1;
            }
        }
    }
    counts
        .iter()
        .max_by_key(|(t, n)| (*n, matches!(t, ValueType::Text) as usize))
        .map_or(ValueType::Text, |(t, _)| *t)
}

/// An attribute's value list, prepared once for every comparison it
/// takes part in.
#[derive(Debug, Clone)]
pub struct ValueSet {
    /// Raw value count, duplicates included.
    len: usize,
    /// Majority fine-grained type of the raw values.
    ty: ValueType,
    /// The distinct trimmed, ASCII-lowercased values, sorted.
    values: Vec<String>,
    /// The char count of each entry of `values`.
    chars: Vec<usize>,
    /// Lowest and highest raw value that parses as a number.
    range: Option<(f64, f64)>,
}

impl ValueSet {
    /// Prepare a value list.
    pub fn new<S: AsRef<str>>(values: &[S]) -> Self {
        let mut normal: Vec<String> = values
            .iter()
            .map(|v| v.as_ref().trim().to_ascii_lowercase())
            .collect();
        normal.sort_unstable();
        normal.dedup();
        let nums: Vec<f64> = values
            .iter()
            .filter_map(|v| numeric_value(v.as_ref()))
            .collect();
        let range = (!nums.is_empty()).then(|| {
            let lo = nums.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = nums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (lo, hi)
        });
        ValueSet {
            len: values.len(),
            ty: majority_type(values),
            chars: normal.iter().map(|v| v.chars().count()).collect(),
            values: normal,
            range,
        }
    }

    /// `DomSim` against another value set: equal to [`dom_sim`] over the
    /// two raw lists, bit for bit.
    pub fn sim(&self, other: &ValueSet) -> f64 {
        if self.len == 0 || other.len == 0 {
            return 0.0;
        }
        // one merge walk: both overlap ratios divide the same `|A ∩ B|`
        let shared = self.shared(other);
        if self.ty != other.ty {
            // a thin bridge for mixed sets (e.g. "2" vs "2 bedrooms")
            return 0.1 * self.jaccard(other, shared);
        }
        match self.ty {
            ValueType::Integer | ValueType::Real | ValueType::Monetary => {
                // ranges say "same kind of quantity"; exact value overlap
                // strengthens it
                0.6 * self.range_overlap(other) + 0.4 * self.containment(other, shared)
            }
            ValueType::Date => 0.5 + 0.5 * self.containment(other, shared),
            ValueType::Text => self
                .jaccard(other, shared)
                .max(0.9 * self.containment(other, shared)),
        }
    }

    /// Does some value of `self` have a very similar value in `other`
    /// (`value_similarity ≥ VERY_SIMILAR`)? The §5 case-2 pre-filter:
    /// "two values, one from each domain, which are very similar".
    ///
    /// A pair is very similar exactly when its edit distance is within
    /// the edit budget of its longer length. Once no value is shared, a
    /// budget of 0 rules the pair out, and so does a length gap above the
    /// budget (the distance is at least the gap); a bounded DP on buffers
    /// reused across pairs decides the rest.
    pub fn has_similar_pair(&self, other: &ValueSet) -> bool {
        if self.shared(other) > 0 {
            return true;
        }
        let mut buffers = EditBuffers::default();
        self.entries().any(|(v, nv)| {
            other.entries().any(|(w, nw)| {
                let budget = edit_budget(nv.max(nw));
                budget > 0 && nv.abs_diff(nw) <= budget && buffers.within(v, w, budget)
            })
        })
    }

    /// The distinct normalised values with their char counts.
    fn entries(&self) -> impl Iterator<Item = (&str, usize)> {
        self.values
            .iter()
            .map(String::as_str)
            .zip(self.chars.iter().copied())
    }

    /// `|A ∩ B|` over the distinct normalised values (a merge walk).
    fn shared(&self, other: &ValueSet) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while let (Some(a), Some(b)) = (self.values.get(i), other.values.get(j)) {
            match a.cmp(b) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Jaccard overlap of the distinct normalised values, given their
    /// `shared` count (both sets are non-empty: [`ValueSet::sim`] returns
    /// early on an empty list).
    fn jaccard(&self, other: &ValueSet, shared: usize) -> f64 {
        let union = self.values.len() + other.values.len() - shared;
        shared as f64 / union as f64
    }

    /// Containment overlap (`|A∩B| / min(|A|, |B|)`) of the distinct
    /// normalised values. Two small samples of one large underlying
    /// population (a 6-option drop-down vs. ten acquired instances of the
    /// same concept) overlap far more relative to the smaller set than
    /// relative to the union, so containment is the right measure for
    /// enriched domains. Both sets are non-empty, as for `jaccard`.
    fn containment(&self, other: &ValueSet, shared: usize) -> f64 {
        let min = self.values.len().min(other.values.len());
        shared as f64 / min as f64
    }

    /// Overlap ratio of the numeric ranges the two value lists span.
    fn range_overlap(&self, other: &ValueSet) -> f64 {
        let (Some((alo, ahi)), Some((blo, bhi))) = (self.range, other.range) else {
            return 0.0;
        };
        let inter = (ahi.min(bhi) - alo.max(blo)).max(0.0);
        let union = ahi.max(bhi) - alo.min(blo);
        if union <= 0.0 {
            // both ranges are single identical points
            return if (alo - blo).abs() < f64::EPSILON {
                1.0
            } else {
                0.0
            };
        }
        inter / union
    }
}

/// Normalised string similarity between two individual values:
/// `1 − levenshtein(a, b) / max(|a|, |b|)` over lowercased text. The §5
/// borrow-candidate pre-filter ("at least two values, one from each
/// domain, which are very similar") asks whether it reaches
/// [`VERY_SIMILAR`]; [`ValueSet::has_similar_pair`] answers that without
/// computing most distances.
pub fn value_similarity(a: &str, b: &str) -> f64 {
    let a = a.trim().to_ascii_lowercase();
    let b = b.trim().to_ascii_lowercase();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(&a, &b) as f64 / max_len as f64
}

/// The most edits two values whose longer one has `max_len` chars may
/// differ by and still be very similar: the largest `d` with
/// `1 − d / max_len ≥ VERY_SIMILAR`, found with that float expression
/// itself, so "distance ≤ budget" is exactly the similarity test. The
/// expression falls as `d` grows, so the admissible `d` are `0..=budget`:
/// 0 edits below 7 chars, 1 below 14, 2 below 20, 3 at 20.
fn edit_budget(max_len: usize) -> usize {
    let similar = |d: usize| 1.0 - d as f64 / max_len as f64 >= VERY_SIMILAR;
    let mut budget = 0;
    while budget < max_len && similar(budget + 1) {
        budget += 1;
    }
    budget
}

/// Reusable buffers for [`within_edits`] over many value pairs.
#[derive(Debug, Default)]
struct EditBuffers {
    row: Vec<usize>,
    a: Vec<char>,
    b: Vec<char>,
}

impl EditBuffers {
    /// Is the Levenshtein distance (in chars) of `a` and `b` at most
    /// `budget`? ASCII pairs are compared byte by byte; others decode
    /// into the char buffers.
    fn within(&mut self, a: &str, b: &str, budget: usize) -> bool {
        if a.is_ascii() && b.is_ascii() {
            return within_edits(a.as_bytes(), b.as_bytes(), budget, &mut self.row);
        }
        self.a.clear();
        self.a.extend(a.chars());
        self.b.clear();
        self.b.extend(b.chars());
        within_edits(&self.a, &self.b, budget, &mut self.row)
    }
}

/// Is the edit distance of `a` and `b` at most `budget`? The classic DP
/// on one reused row that stops as soon as a whole row exceeds the
/// budget: a cell never falls below the smallest cell of the row above,
/// so no later row can come back within it.
fn within_edits<T: PartialEq>(a: &[T], b: &[T], budget: usize, row: &mut Vec<usize>) -> bool {
    row.clear();
    row.extend(0..=b.len());
    for (i, ca) in a.iter().enumerate() {
        // `diag` is the row above's cell left of the one being replaced
        let mut diag = i;
        let mut left = i + 1;
        let mut row_min = left;
        for (cell, cb) in row.iter_mut().skip(1).zip(b) {
            let next = (*cell + 1).min(left + 1).min(diag + usize::from(ca != cb));
            diag = *cell;
            *cell = next;
            left = next;
            row_min = row_min.min(next);
        }
        if let Some(first) = row.first_mut() {
            *first = i + 1;
        }
        if row_min > budget {
            return false;
        }
    }
    row.last().is_some_and(|&d| d <= budget)
}

/// Levenshtein edit distance in chars. ASCII text is compared byte by
/// byte, which is the same distance without collecting chars.
fn levenshtein(a: &str, b: &str) -> usize {
    if a.is_ascii() && b.is_ascii() {
        edit_distance(a.as_bytes(), b.as_bytes())
    } else {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        edit_distance(&a, &b)
    }
}

/// Classic edit distance over two sequences (two-row DP).
fn edit_distance<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Domain similarity between two attribute value sets.
///
/// ```
/// use webiq_match::domsim::dom_sim;
/// let a = ["Boston", "Chicago", "Denver"];
/// let b = ["Chicago", "Denver", "Miami"];
/// assert!(dom_sim(&a, &b) > 0.4);          // overlapping city sets
/// let months = ["Jan", "Feb", "Mar"];
/// assert!(dom_sim(&a, &months) < 0.15);    // type mismatch
/// let empty: [&str; 0] = [];
/// assert_eq!(dom_sim(&a, &empty), 0.0);    // the paper's core problem
/// ```
pub fn dom_sim<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    ValueSet::new(a).sim(&ValueSet::new(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_domains_score_zero() {
        let vals = ["Boston", "Chicago"];
        let none: [&str; 0] = [];
        assert_eq!(dom_sim(&vals, &none), 0.0);
        assert_eq!(dom_sim(&none, &none), 0.0);
    }

    #[test]
    fn overlapping_city_sets_score_high() {
        let a = ["Boston", "Chicago", "Denver", "Seattle"];
        let b = ["Chicago", "Denver", "Seattle", "Miami"];
        let s = dom_sim(&a, &b);
        assert!(s > 0.4, "s = {s}");
    }

    #[test]
    fn disjoint_same_type_sets_score_low() {
        // the Airline (NA) vs Carrier (EU) situation pre-acquisition
        let a = ["Air Canada", "American", "Delta"];
        let b = ["Aer Lingus", "Lufthansa", "Alitalia"];
        let s = dom_sim(&a, &b);
        assert!(s < 0.15, "s = {s}");
    }

    #[test]
    fn mixed_type_sets_score_near_zero() {
        let cities = ["Boston", "Chicago", "Denver"];
        let months = ["Jan", "Feb", "Mar"];
        let s = dom_sim(&cities, &months);
        assert!(s < 0.15, "s = {s}");
    }

    #[test]
    fn numeric_ranges_overlap() {
        let a = ["1", "2", "3", "4"];
        let b = ["2", "3", "4", "5"];
        let s = dom_sim(&a, &b);
        assert!(s > 0.5, "s = {s}");
        let c = ["100", "200", "300"];
        let far = dom_sim(&a, &c);
        assert!(far < 0.1, "far = {far}");
    }

    #[test]
    fn monetary_vs_integer_types_differ() {
        let money = ["$5,000", "$10,000"];
        let ints = ["5000", "10000"];
        // different inferred fine types → near zero
        let s = dom_sim(&money, &ints);
        assert!(s < 0.15, "s = {s}");
    }

    #[test]
    fn month_domains_match() {
        let a = ["Jan", "Feb", "Mar", "Apr"];
        let b = ["Mar", "Apr", "May", "Jun"];
        let s = dom_sim(&a, &b);
        assert!(s > 0.5, "s = {s}");
        assert_eq!(majority_type(&a), ValueType::Date);
    }

    #[test]
    fn exact_value_overlap_for_name_domains() {
        let a = ["Stephen King", "John Grisham"];
        let b = ["Stephen King", "Tom Clancy"];
        let s = dom_sim(&a, &b);
        assert!(s > 0.2, "s = {s}"); // one of two shared → containment 0.5
                                     // word-level overlap alone must NOT create similarity
        let c = ["Air Canada", "American"];
        let d = ["Air France", "Aer Lingus"];
        assert_eq!(dom_sim(&c, &d), 0.0);
    }

    #[test]
    fn majority_type_is_majority() {
        assert_eq!(majority_type(&["1", "2", "Boston"]), ValueType::Integer);
        assert_eq!(majority_type(&["Boston", "Chicago", "1"]), ValueType::Text);
        assert_eq!(majority_type(&["$5", "$10"]), ValueType::Monetary);
    }

    #[test]
    fn symmetry() {
        let a = ["Boston", "Chicago"];
        let b = ["Chicago", "Miami", "Denver"];
        assert!((dom_sim(&a, &b) - dom_sim(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn value_similarity_behaviour() {
        assert_eq!(value_similarity("Boston", "boston"), 1.0);
        assert!(value_similarity("Chicago", "Chicgo") > 0.8); // one deletion
        assert!(value_similarity("Boston", "Miami") < 0.5);
        assert_eq!(value_similarity("", ""), 1.0);
        assert_eq!(value_similarity("abc", ""), 0.0);
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn identical_singleton_numeric() {
        let a = ["5"];
        let b = ["5"];
        assert!(dom_sim(&a, &b) > 0.9);
    }
}
