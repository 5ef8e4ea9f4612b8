//! Discordancy-test outlier removal (§2.2, "Remove Outlier Instance
//! Candidates").
//!
//! The paper performs discordancy tests [Barnett & Lewis] with a set of
//! test statistics, all assumed normally distributed: "An instance candidate
//! is considered to be an outlier if its test statistic is at least three
//! standard deviations away from the average over all the candidates."
//!
//! - numeric domains: the test statistic is the value itself;
//! - string domains: word count, capital-letter count, character length,
//!   and percentage of numeric characters.

use crate::types::{domain_type, numeric_value, DomainType, NUMERIC_MAJORITY};

/// Number of standard deviations beyond which a candidate is discordant.
pub const SIGMA_CUTOFF: f64 = 3.0;

/// Which discordancy test to run (both from Barnett & Lewis, the paper's
/// citation \[4\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiscordancyTest {
    /// The paper's operational rule: a candidate is discordant when its
    /// test statistic is ≥ 3 standard deviations from the sample mean.
    #[default]
    ThreeSigma,
    /// Grubbs' test at α = 0.05: iteratively remove the most extreme value
    /// while its studentised deviation exceeds the critical value for the
    /// current sample size. Sample-size-aware, so it keeps its false-alarm
    /// rate on small candidate sets where a fixed 3σ rule cannot fire at
    /// all (max deviation is (n−1)/√n).
    Grubbs,
}

/// Two-sided Grubbs critical values at α = 0.05, indexed by sample size
/// (standard tables; n ≤ 30 covers candidate sets, larger n extrapolates).
fn grubbs_critical(n: usize) -> f64 {
    const TABLE: &[(usize, f64)] = &[
        (3, 1.153),
        (4, 1.463),
        (5, 1.672),
        (6, 1.822),
        (7, 1.938),
        (8, 2.032),
        (9, 2.110),
        (10, 2.176),
        (12, 2.285),
        (14, 2.371),
        (16, 2.443),
        (18, 2.504),
        (20, 2.557),
        (25, 2.663),
        (30, 2.745),
        (40, 2.866),
        (50, 2.956),
        (100, 3.207),
    ];
    if n < 3 {
        return f64::INFINITY;
    }
    // linear interpolation between table rows; clamp beyond the table
    let mut prev = TABLE[0];
    for &(size, crit) in TABLE {
        if n == size {
            return crit;
        }
        if n < size {
            let (n0, c0) = prev;
            let t = (n - n0) as f64 / (size - n0) as f64;
            return c0 + t * (crit - c0);
        }
        prev = (size, crit);
    }
    TABLE.last().map_or(0.0, |&(_, c)| c)
}

/// Indices discordant under Grubbs' test (iterative, two-sided, α = 0.05).
fn grubbs_indices(stats: &[f64]) -> Vec<usize> {
    let mut active: Vec<usize> = (0..stats.len()).collect();
    let mut removed = Vec::new();
    loop {
        if active.len() < 3 {
            break;
        }
        let values: Vec<f64> = active.iter().map(|&i| stats[i]).collect();
        let (mean, std) = mean_std(&values);
        if std == 0.0 {
            break;
        }
        let Some((pos, g)) = active
            .iter()
            .enumerate()
            .filter_map(|(k, &i)| stats.get(i).map(|v| (k, (v - mean).abs() / std)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            break;
        };
        if g > grubbs_critical(active.len()) {
            removed.push(active.swap_remove(pos));
        } else {
            break;
        }
    }
    removed.sort_unstable();
    removed
}

/// Mean and (population) standard deviation of a sample.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// The string-domain test statistics of §2.2 for one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StringStats {
    /// Number of whitespace-separated words.
    pub words: f64,
    /// Number of ASCII capital letters.
    pub capitals: f64,
    /// Number of characters.
    pub length: f64,
    /// Percentage (0–100) of numeric characters.
    pub numeric_pct: f64,
}

/// Compute the string test statistics for a candidate.
pub fn string_stats(s: &str) -> StringStats {
    let words = s.split_whitespace().count() as f64;
    let capitals = s.chars().filter(char::is_ascii_uppercase).count() as f64;
    let total = s.chars().count();
    let digits = s.chars().filter(char::is_ascii_digit).count();
    let numeric_pct = if total == 0 {
        0.0
    } else {
        100.0 * digits as f64 / total as f64
    };
    StringStats {
        words,
        capitals,
        length: total as f64,
        numeric_pct,
    }
}

/// Outcome of outlier detection: retained candidates and removed outliers,
/// both in the original order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutlierResult {
    /// Candidates that passed all discordancy tests.
    pub kept: Vec<String>,
    /// Candidates removed as discordant (or, for numeric domains,
    /// non-numeric values removed by pre-processing).
    pub removed: Vec<String>,
    /// The domain type the pre-processing step determined.
    pub domain: DomainType,
}

/// Indices discordant under `test`. With fewer than 3 samples or zero
/// spread, nothing is discordant.
fn discordant_indices_with(stats: &[f64], test: DiscordancyTest) -> Vec<usize> {
    match test {
        DiscordancyTest::ThreeSigma => {
            if stats.len() < 3 {
                return Vec::new();
            }
            let (mean, std) = mean_std(stats);
            if std == 0.0 {
                return Vec::new();
            }
            stats
                .iter()
                .enumerate()
                .filter(|(_, &x)| (x - mean).abs() >= SIGMA_CUTOFF * std)
                .map(|(i, _)| i)
                .collect()
        }
        DiscordancyTest::Grubbs => grubbs_indices(stats),
    }
}

/// Run the full §2.2 outlier-removal step on a candidate set.
///
/// 1. *Pre-processing*: determine the domain type ([`NUMERIC_MAJORITY`]
///    rule) and, for numeric domains, drop candidates that are not numeric.
/// 2. *Type-specific detection*: remove candidates discordant on any test
///    statistic.
///
/// ```
/// use webiq_stats::outlier::remove_outliers;
/// // the paper's example: a $10,000 book price is discordant
/// let prices = ["$12", "$15", "$9", "$14", "$11", "$13", "$10",
///               "$12", "$15", "$14", "$11", "$10,000"];
/// let result = remove_outliers(&prices);
/// assert!(result.removed.contains(&"$10,000".to_string()));
/// ```
pub fn remove_outliers<S: AsRef<str>>(candidates: &[S]) -> OutlierResult {
    remove_outliers_with(candidates, DiscordancyTest::ThreeSigma)
}

/// [`remove_outliers`] with an explicit [`DiscordancyTest`].
pub fn remove_outliers_with<S: AsRef<str>>(
    candidates: &[S],
    test: DiscordancyTest,
) -> OutlierResult {
    let domain = domain_type(candidates, NUMERIC_MAJORITY);
    let mut kept: Vec<String> = Vec::new();
    let mut removed: Vec<String> = Vec::new();

    match domain {
        DomainType::Numeric => {
            // Pre-processing drops the non-numeric minority outright.
            let mut values: Vec<(String, f64)> = Vec::new();
            for c in candidates {
                let s = c.as_ref().to_string();
                match numeric_value(&s) {
                    Some(v) => values.push((s, v)),
                    None => removed.push(s),
                }
            }
            let stats: Vec<f64> = values.iter().map(|(_, v)| *v).collect();
            let bad = discordant_indices_with(&stats, test);
            for (i, (s, _)) in values.into_iter().enumerate() {
                if bad.contains(&i) {
                    removed.push(s);
                } else {
                    kept.push(s);
                }
            }
        }
        DomainType::Textual => {
            let all: Vec<StringStats> = candidates
                .iter()
                .map(|c| string_stats(c.as_ref()))
                .collect();
            let columns: [Vec<f64>; 4] = [
                all.iter().map(|s| s.words).collect(),
                all.iter().map(|s| s.capitals).collect(),
                all.iter().map(|s| s.length).collect(),
                all.iter().map(|s| s.numeric_pct).collect(),
            ];
            let mut bad = vec![false; candidates.len()];
            for col in &columns {
                for i in discordant_indices_with(col, test) {
                    bad[i] = true;
                }
            }
            for (i, c) in candidates.iter().enumerate() {
                let s = c.as_ref().to_string();
                if bad[i] {
                    removed.push(s);
                } else {
                    kept.push(s);
                }
            }
        }
    }
    OutlierResult {
        kept,
        removed,
        domain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basic() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_std_empty() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn numeric_domain_removes_extreme_price() {
        // book prices with one absurd value; $10,000 for a book is the
        // paper's own example of a numeric outlier.
        let candidates = [
            "$12", "$15", "$9", "$14", "$11", "$13", "$10", "$12", "$15", "$14", "$11", "$10,000",
        ];
        let r = remove_outliers(&candidates);
        assert_eq!(r.domain, DomainType::Numeric);
        assert!(
            r.removed.contains(&"$10,000".to_string()),
            "removed: {:?}",
            r.removed
        );
        assert_eq!(r.kept.len(), candidates.len() - 1);
    }

    #[test]
    fn numeric_domain_drops_non_numeric_minority() {
        let candidates = ["1", "2", "3", "4", "5", "6", "7", "8", "9", "Boston"];
        let r = remove_outliers(&candidates);
        assert_eq!(r.domain, DomainType::Numeric);
        assert!(r.removed.contains(&"Boston".to_string()));
    }

    #[test]
    fn string_domain_removes_overlong_name() {
        // city names plus one sentence-length snippet artifact
        let long = "the following is a list of destinations served from this airport hub";
        let mut candidates: Vec<&str> = vec![
            "Boston", "Chicago", "Denver", "Seattle", "Atlanta", "Portland", "Houston", "Phoenix",
            "Dallas", "Miami", "Austin", "Boise",
        ];
        candidates.push(long);
        let r = remove_outliers(&candidates);
        assert_eq!(r.domain, DomainType::Textual);
        assert!(
            r.removed.contains(&long.to_string()),
            "removed: {:?}",
            r.removed
        );
        assert!(r.kept.len() >= 11);
    }

    #[test]
    fn string_domain_removes_digit_heavy_value() {
        let mut candidates: Vec<&str> = vec![
            "Honda", "Toyota", "Nissan", "Mazda", "Subaru", "Lexus", "Acura", "Jeep", "Dodge",
            "Buick", "Chevy", "Saturn",
        ];
        candidates.push("0471975444"); // an ISBN among car makes
        let r = remove_outliers(&candidates);
        assert!(
            r.removed.contains(&"0471975444".to_string()),
            "removed: {:?}",
            r.removed
        );
    }

    #[test]
    fn uniform_values_have_no_outliers() {
        let candidates = ["Delta", "United", "American", "Southwest", "Alaska"];
        let r = remove_outliers(&candidates);
        assert!(r.removed.is_empty());
        assert_eq!(r.kept.len(), 5);
    }

    #[test]
    fn tiny_sets_are_untouched() {
        let r = remove_outliers(&["a", "bbbbbbbbbbbbbbbbbbbbbbbb"]);
        assert!(r.removed.is_empty());
    }

    #[test]
    fn empty_set() {
        let r = remove_outliers::<&str>(&[]);
        assert!(r.kept.is_empty());
        assert!(r.removed.is_empty());
    }

    #[test]
    fn string_stats_values() {
        let s = string_stats("Air Canada 747");
        assert_eq!(s.words, 3.0);
        assert_eq!(s.capitals, 2.0);
        assert_eq!(s.length, 14.0);
        assert!((s.numeric_pct - 100.0 * 3.0 / 14.0).abs() < 1e-9);
    }

    #[test]
    fn grubbs_catches_small_sample_outliers_three_sigma_cannot() {
        // with n = 6 the maximum possible z is (n−1)/√n ≈ 2.04 < 3, so the
        // 3σ rule can never fire; Grubbs' critical value at n = 6 is 1.822
        let candidates = ["$10", "$12", "$11", "$13", "$12", "$500"];
        let sigma = remove_outliers_with(&candidates, DiscordancyTest::ThreeSigma);
        assert!(sigma.removed.is_empty(), "{:?}", sigma.removed);
        let grubbs = remove_outliers_with(&candidates, DiscordancyTest::Grubbs);
        assert_eq!(grubbs.removed, vec!["$500"], "{:?}", grubbs.removed);
    }

    #[test]
    fn grubbs_is_iterative() {
        // two extremes, removed one at a time
        let candidates = [
            "10", "12", "11", "13", "12", "11", "10", "13", "12", "11", "900", "1000",
        ];
        let grubbs = remove_outliers_with(&candidates, DiscordancyTest::Grubbs);
        assert!(
            grubbs.removed.contains(&"900".to_string()),
            "{:?}",
            grubbs.removed
        );
        assert!(
            grubbs.removed.contains(&"1000".to_string()),
            "{:?}",
            grubbs.removed
        );
    }

    #[test]
    fn grubbs_keeps_clean_samples() {
        let candidates = ["10", "12", "11", "13", "12", "11", "10", "13"];
        let grubbs = remove_outliers_with(&candidates, DiscordancyTest::Grubbs);
        assert!(grubbs.removed.is_empty(), "{:?}", grubbs.removed);
    }

    #[test]
    fn grubbs_critical_values_interpolate() {
        assert!(grubbs_critical(2).is_infinite());
        assert!((grubbs_critical(10) - 2.176).abs() < 1e-9);
        let c11 = grubbs_critical(11);
        assert!(c11 > 2.176 && c11 < 2.285, "c11 = {c11}");
        assert!((grubbs_critical(500) - 3.207).abs() < 1e-9); // clamped
    }

    #[test]
    fn order_is_preserved() {
        let candidates = ["Boston", "Chicago", "Denver", "Seattle"];
        let r = remove_outliers(&candidates);
        assert_eq!(r.kept, vec!["Boston", "Chicago", "Denver", "Seattle"]);
    }
}
