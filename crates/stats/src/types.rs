//! Type recognition for instance values.
//!
//! §2.2 (pre-processing): "employs a set of type-recognizing regular
//! expressions to determine the type of the instance domain. … If the
//! majority of instance candidates (e.g., 80% in our experiment) are either
//! monetary values, integers, or real numbers, the instance domain will be
//! determined to be numeric; otherwise it is string."
//!
//! IceQ's domain similarity additionally distinguishes integer, real,
//! monetary, and date types (§5), so the recognizer is shared between the
//! verification phase and the matcher. Recognisers are hand-rolled scanners
//! equivalent to the regular expressions the paper describes.

/// The fine-grained type of a single value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// `42`, `1,200`
    Integer,
    /// `3.14`, `1,200.50`
    Real,
    /// `$15,200`, `$9.99`, `15 USD`
    Monetary,
    /// `01/31/2006`, `2006-01-31`, `Jan 31`, `January`
    Date,
    /// anything else
    Text,
}

impl ValueType {
    /// True for the types the paper's pre-processing step calls "numeric".
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            ValueType::Integer | ValueType::Real | ValueType::Monetary
        )
    }
}

/// Coarse domain type used by the outlier-detection phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainType {
    /// The majority of candidates parse as numbers/money.
    Numeric,
    /// Everything else.
    Textual,
}

static MONTHS: &[&str] = &[
    "january",
    "february",
    "march",
    "april",
    "may",
    "june",
    "july",
    "august",
    "september",
    "october",
    "november",
    "december",
    "jan",
    "feb",
    "mar",
    "apr",
    "jun",
    "jul",
    "aug",
    "sep",
    "sept",
    "oct",
    "nov",
    "dec",
];

/// Scan a digit run with optional `,` thousands grouping; returns byte index
/// after the run or `None` if no digit at `i`.
fn scan_int(s: &[u8], mut i: usize) -> Option<usize> {
    let start = i;
    while i < s.len() {
        let c = s[i];
        let grouping = c == b',' && i + 1 < s.len() && s[i + 1].is_ascii_digit() && i > start;
        if c.is_ascii_digit() || grouping {
            i += 1;
        } else {
            break;
        }
    }
    (i > start).then_some(i)
}

/// Is `s` an integer (optionally signed, `,`-grouped)?
pub fn is_integer(s: &str) -> bool {
    let b = s.trim().as_bytes();
    let mut i = 0;
    if b.first() == Some(&b'-') || b.first() == Some(&b'+') {
        i = 1;
    }
    matches!(scan_int(b, i), Some(end) if end == b.len())
}

/// Is `s` a real number (requires a decimal point)?
pub fn is_real(s: &str) -> bool {
    let t = s.trim();
    let Some((int_part, frac_part)) = t.split_once('.') else {
        return false;
    };
    let frac_ok = !frac_part.is_empty() && frac_part.bytes().all(|c| c.is_ascii_digit());
    let int_ok =
        int_part.is_empty() || is_integer(int_part) || (int_part == "-" || int_part == "+");
    frac_ok && int_ok
}

/// Is `s` a monetary value (`$…`, or a number followed by `usd`/`dollars`)?
pub fn is_monetary(s: &str) -> bool {
    let t = s.trim();
    if let Some(rest) = t.strip_prefix('$') {
        let rest = rest.trim();
        return is_integer(rest) || is_real(rest);
    }
    let lower = t.to_ascii_lowercase();
    for suffix in [" usd", " dollars", " dollar"] {
        if let Some(prefix) = lower.strip_suffix(suffix) {
            return is_integer(prefix.trim()) || is_real(prefix.trim());
        }
    }
    false
}

/// Is `s` a date (`mm/dd/yyyy`, `yyyy-mm-dd`, month names, `Jan 31`,
/// `January 2006`)?
pub fn is_date(s: &str) -> bool {
    let t = s.trim().to_ascii_lowercase();
    if t.is_empty() {
        return false;
    }
    // Numeric dates with / or - separators: 2 or 3 components, each 1-4 digits.
    for sep in ['/', '-'] {
        if t.contains(sep) {
            let parts: Vec<&str> = t.split(sep).collect();
            if (2..=3).contains(&parts.len())
                && parts
                    .iter()
                    .all(|p| !p.is_empty() && p.len() <= 4 && p.bytes().all(|c| c.is_ascii_digit()))
            {
                return true;
            }
        }
    }
    // Month name, optionally followed by a day and/or year.
    let words: Vec<&str> = t.split_whitespace().collect();
    if words.is_empty() || words.len() > 3 {
        return false;
    }
    let Some((first, rest)) = words.split_first() else {
        return false;
    };
    let first = first.trim_end_matches(['.', ',']);
    if !MONTHS.contains(&first) {
        return false;
    }
    rest.iter().all(|w| {
        let w = w.trim_end_matches([',', '.']);
        w.len() <= 4 && !w.is_empty() && w.bytes().all(|c| c.is_ascii_digit())
    })
}

/// Infer the fine-grained type of one value.
pub fn infer_type(s: &str) -> ValueType {
    if is_monetary(s) {
        ValueType::Monetary
    } else if is_date(s) {
        ValueType::Date
    } else if is_integer(s) {
        ValueType::Integer
    } else if is_real(s) {
        ValueType::Real
    } else {
        ValueType::Text
    }
}

/// Fraction threshold above which a candidate set is declared numeric
/// (the paper uses 80 %).
pub const NUMERIC_MAJORITY: f64 = 0.8;

/// Determine the coarse domain type of a candidate set: numeric iff at least
/// `majority` (default [`NUMERIC_MAJORITY`]) of values are
/// integer/real/monetary.
pub fn domain_type<S: AsRef<str>>(values: &[S], majority: f64) -> DomainType {
    if values.is_empty() {
        return DomainType::Textual;
    }
    let numeric = values
        .iter()
        .filter(|v| infer_type(v.as_ref()).is_numeric())
        .count();
    if (numeric as f64) / (values.len() as f64) >= majority {
        DomainType::Numeric
    } else {
        DomainType::Textual
    }
}

/// Parse a numeric value (integer, real, or monetary) to `f64`.
/// Returns `None` for non-numeric strings.
pub fn numeric_value(s: &str) -> Option<f64> {
    let t = s.trim();
    let t = t.strip_prefix('$').unwrap_or(t).trim();
    let lower = t.to_ascii_lowercase();
    let t = lower
        .strip_suffix("usd")
        .or_else(|| lower.strip_suffix("dollars"))
        .or_else(|| lower.strip_suffix("dollar"))
        .unwrap_or(&lower)
        .trim();
    if !is_integer(t) && !is_real(t) {
        return None;
    }
    t.replace(',', "").parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers() {
        assert!(is_integer("42"));
        assert!(is_integer("1,200"));
        assert!(is_integer("-7"));
        assert!(!is_integer("3.14"));
        assert!(!is_integer("abc"));
        assert!(!is_integer(""));
        assert!(!is_integer("1,,2"));
    }

    #[test]
    fn reals() {
        assert!(is_real("3.14"));
        assert!(is_real("-0.5"));
        assert!(is_real(".75"));
        assert!(is_real("1,200.50"));
        assert!(!is_real("42"));
        assert!(!is_real("3."));
        assert!(!is_real("a.b"));
    }

    #[test]
    fn monetary() {
        assert!(is_monetary("$15,200"));
        assert!(is_monetary("$9.99"));
        assert!(is_monetary("$ 25"));
        assert!(is_monetary("15 USD"));
        assert!(is_monetary("200 dollars"));
        assert!(!is_monetary("15"));
        assert!(!is_monetary("$"));
        assert!(!is_monetary("USD"));
    }

    #[test]
    fn dates() {
        assert!(is_date("01/31/2006"));
        assert!(is_date("2006-01-31"));
        assert!(is_date("1/5"));
        assert!(is_date("January"));
        assert!(is_date("Jan 31"));
        assert!(is_date("January 31, 2006"));
        assert!(is_date("Sept. 2006"));
        assert!(!is_date("Boston"));
        assert!(!is_date("31"));
        assert!(!is_date("12/34/56/78"));
        assert!(!is_date(""));
    }

    #[test]
    fn may_is_a_month() {
        // `May` is both a modal and a month; type inference sides with date,
        // which matches interface instance lists (month dropdowns).
        assert!(is_date("May"));
    }

    #[test]
    fn infer_priorities() {
        assert_eq!(infer_type("$5"), ValueType::Monetary);
        assert_eq!(infer_type("01/31/2006"), ValueType::Date);
        assert_eq!(infer_type("42"), ValueType::Integer);
        assert_eq!(infer_type("4.2"), ValueType::Real);
        assert_eq!(infer_type("Boston"), ValueType::Text);
    }

    #[test]
    fn majority_rule() {
        let mostly_num = ["1", "2", "3", "4", "Boston"];
        assert_eq!(domain_type(&mostly_num, 0.8), DomainType::Numeric);
        let half = ["1", "2", "Boston", "Chicago"];
        assert_eq!(domain_type(&half, 0.8), DomainType::Textual);
        let empty: [&str; 0] = [];
        assert_eq!(domain_type(&empty, 0.8), DomainType::Textual);
    }

    #[test]
    fn numeric_parse() {
        assert_eq!(numeric_value("$15,200"), Some(15200.0));
        assert_eq!(numeric_value("2.75"), Some(2.75));
        assert_eq!(numeric_value("1,200"), Some(1200.0));
        assert_eq!(numeric_value("15 USD"), Some(15.0));
        assert_eq!(numeric_value("Boston"), None);
    }
}
