//! Regression-gate thresholds and their config-file parser.
//!
//! [`DiffThresholds`] controls how strict `webiq-report diff` is. The
//! defaults are deliberately tight — the simulated pipeline is fully
//! deterministic, so two runs of the same code differ only when the
//! code's behaviour changed. A `obs.toml`-style file loosens them per
//! project:
//!
//! ```toml
//! # thresholds for webiq-report diff
//! [diff]
//! counter_drop_pct = 10.0
//! counter_rise_pct = 50.0
//! counter_floor = 20
//! rate_drop = 0.05
//! quantile_shift = 0.0
//! decision_flips = 0
//! ```
//!
//! The parser is hand-rolled (the workspace is dependency-free) and
//! covers exactly what the file above shows: one optional `[diff]`
//! section, `key = value` pairs, `#` comments. Anything else is an
//! [`ObsError::Config`] carrying the offending line number.

use crate::error::ObsError;

/// Thresholds deciding when a trace diff counts as a regression.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffThresholds {
    /// Flag a counter that *fell* by more than this percentage of its
    /// baseline value.
    pub counter_drop_pct: f64,
    /// Flag a counter that *rose* by more than this percentage of its
    /// baseline value (cost counters creeping up is also a regression).
    pub counter_rise_pct: f64,
    /// Ignore percentage checks for counters whose baseline is below
    /// this floor — tiny denominators make percentages meaningless.
    pub counter_floor: u64,
    /// Flag a funnel-stage acceptance rate that fell by more than this
    /// absolute amount (e.g. 0.05 = five percentage points).
    pub rate_drop: f64,
    /// Flag a histogram quantile that rose by more than this absolute
    /// amount. Zero means any upward shift at bucket resolution flags.
    pub quantile_shift: f64,
    /// Flipped decisions tolerated by `webiq-report diff --decisions`
    /// before the run counts as a regression. The pipeline is
    /// deterministic, so the default is zero: any verdict flip between
    /// baseline and candidate decision streams flags.
    pub decision_flips: u64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        DiffThresholds {
            counter_drop_pct: 10.0,
            counter_rise_pct: 50.0,
            counter_floor: 20,
            rate_drop: 0.05,
            quantile_shift: 0.0,
            decision_flips: 0,
        }
    }
}

impl DiffThresholds {
    /// Parse a threshold file's contents. Unknown keys, unknown
    /// sections, and malformed values are hard errors — a typo in a CI
    /// gate must not silently disable it.
    pub fn parse(text: &str) -> Result<DiffThresholds, ObsError> {
        let mut t = DiffThresholds::default();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = match raw.split_once('#') {
                Some((before, _)) => before.trim(),
                None => raw.trim(),
            };
            if line.is_empty() {
                continue;
            }
            if let Some(section) = line.strip_prefix('[') {
                let Some(name) = section.strip_suffix(']') else {
                    return Err(ObsError::Config {
                        line: lineno,
                        detail: format!("unterminated section header `{line}`"),
                    });
                };
                if name.trim() != "diff" {
                    return Err(ObsError::Config {
                        line: lineno,
                        detail: format!("unknown section `[{}]`", name.trim()),
                    });
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ObsError::Config {
                    line: lineno,
                    detail: format!("expected `key = value`, got `{line}`"),
                });
            };
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| ObsError::Config {
                line: lineno,
                detail: format!("invalid {what} value `{value}` for `{key}`"),
            };
            match key {
                "counter_drop_pct" => {
                    t.counter_drop_pct = parse_pct(value).ok_or_else(|| bad("percentage"))?;
                }
                "counter_rise_pct" => {
                    t.counter_rise_pct = parse_pct(value).ok_or_else(|| bad("percentage"))?;
                }
                "counter_floor" => {
                    t.counter_floor = value.parse().map_err(|_| bad("integer"))?;
                }
                "rate_drop" => {
                    t.rate_drop = parse_pct(value).ok_or_else(|| bad("number"))?;
                }
                "quantile_shift" => {
                    t.quantile_shift = parse_pct(value).ok_or_else(|| bad("number"))?;
                }
                "decision_flips" => {
                    t.decision_flips = value.parse().map_err(|_| bad("integer"))?;
                }
                _ => {
                    return Err(ObsError::Config {
                        line: lineno,
                        detail: format!("unknown key `{key}`"),
                    });
                }
            }
        }
        Ok(t)
    }

    /// Load thresholds from a file.
    pub fn from_file(path: &str) -> Result<DiffThresholds, ObsError> {
        let text = std::fs::read_to_string(path).map_err(|e| ObsError::Io {
            path: path.to_string(),
            detail: e.to_string(),
        })?;
        DiffThresholds::parse(&text)
    }
}

/// A finite, non-negative float — thresholds have no use for NaN,
/// infinities, or negatives.
fn parse_pct(s: &str) -> Option<f64> {
    let v: f64 = s.parse().ok()?;
    if v.is_finite() && v >= 0.0 {
        Some(v)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_text_yields_defaults() {
        assert_eq!(
            DiffThresholds::parse("").ok(),
            Some(DiffThresholds::default())
        );
    }

    #[test]
    fn full_file_round_trips() {
        let text = "\
# thresholds
[diff]
counter_drop_pct = 15.5   # loose
counter_rise_pct = 80
counter_floor = 5
rate_drop = 0.1
quantile_shift = 2.0
decision_flips = 1
";
        let t = match DiffThresholds::parse(text) {
            Ok(t) => t,
            Err(e) => panic!("parse failed: {e}"),
        };
        assert_eq!(t.counter_drop_pct, 15.5);
        assert_eq!(t.counter_rise_pct, 80.0);
        assert_eq!(t.counter_floor, 5);
        assert_eq!(t.rate_drop, 0.1);
        assert_eq!(t.quantile_shift, 2.0);
        assert_eq!(t.decision_flips, 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        match DiffThresholds::parse("counter_drop_pct = 10\nbogus_key = 3\n") {
            Err(ObsError::Config { line, detail }) => {
                assert_eq!(line, 2);
                assert!(detail.contains("bogus_key"));
            }
            other => panic!("expected Config error, got {other:?}"),
        }
        match DiffThresholds::parse("[nope]\n") {
            Err(ObsError::Config { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected Config error, got {other:?}"),
        }
        match DiffThresholds::parse("rate_drop = NaN\n") {
            Err(ObsError::Config { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected Config error, got {other:?}"),
        }
        match DiffThresholds::parse("counter_floor = -3\n") {
            Err(ObsError::Config { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected Config error, got {other:?}"),
        }
    }
}
