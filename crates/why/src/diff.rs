//! The decision-level regression gate: flipped verdicts between runs.
//!
//! Counter-level diffing (`webiq-obs`) says "ValidationAccepted fell by
//! 12"; this module says *which* decisions flipped and what evidence
//! moved them. Every decision is keyed by
//! `(kind, owning attribute, subject, occurrence)` — stable across
//! runs because the decision stream rides the merge-time logical clock
//! — and two runs are compared key-by-key:
//!
//! - a **flip** is a key whose verdict differs, or that exists in only
//!   one run (a match that became a no-match, or vice versa). Each flip
//!   names the largest evidence delta that moved it, e.g.
//!   `bayes_verify [0/3 author] "writer": accept -> reject; posterior
//!   0.81 -> 0.43`;
//! - **drift** is a key whose verdict held but whose evidence terms
//!   changed — reported for lineage, not gated here (CI's byte
//!   comparison against the baseline gates it).
//!
//! [`DecisionDiff::regressed`] drives the `webiq-report diff
//! --decisions` exit code: any flip fails CI against the committed
//! `WHY_BASELINE.jsonl`.

use std::collections::BTreeMap;

use webiq_trace::json::{obj, Json};
use webiq_trace::Event;

use crate::provenance::Provenance;

/// Stable identity of one decision across runs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DecisionKey {
    /// Decision family.
    pub kind: String,
    /// Owning attribute (nearest enclosing span subject).
    pub attr: String,
    /// Decision subject (instance, lender, pair).
    pub subject: String,
    /// Occurrence index when the same (kind, attr, subject) repeats.
    pub occ: u32,
}

impl DecisionKey {
    /// Render as `kind [attr] "subject"` (occurrence suffixed only when
    /// non-zero).
    pub fn display(&self) -> String {
        let mut s = format!("{} [{}] \"{}\"", self.kind, self.attr, self.subject);
        if self.occ > 0 {
            s.push_str(&format!(" #{}", self.occ));
        }
        s
    }
}

/// One run's record under a key: the verdict plus its evidence terms.
#[derive(Debug, Clone, PartialEq)]
struct Keyed {
    verdict: String,
    terms: BTreeMap<String, f64>,
}

/// The largest evidence change under a key.
#[derive(Debug, Clone, PartialEq)]
pub struct TermDelta {
    /// Term name.
    pub name: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub cand: f64,
}

/// One flipped decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Flip {
    /// The decision's stable key.
    pub key: DecisionKey,
    /// Baseline verdict; `None` when the decision is new in candidate.
    pub base: Option<String>,
    /// Candidate verdict; `None` when the decision disappeared.
    pub cand: Option<String>,
    /// The largest evidence delta between the two records (only when
    /// the key exists on both sides and shares at least one term).
    pub dominant: Option<TermDelta>,
}

/// One evidence drift (verdict unchanged).
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// The decision's stable key.
    pub key: DecisionKey,
    /// The shared verdict.
    pub verdict: String,
    /// The largest evidence delta.
    pub dominant: TermDelta,
}

/// The outcome of comparing two decision streams.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionDiff {
    /// Label of the baseline trace (usually its path).
    pub baseline_label: String,
    /// Label of the candidate trace.
    pub candidate_label: String,
    /// Decision count in the baseline.
    pub base_count: usize,
    /// Decision count in the candidate.
    pub cand_count: usize,
    /// Flipped decisions, in key order.
    pub flips: Vec<Flip>,
    /// Evidence drift under held verdicts, in key order.
    pub drift: Vec<Drift>,
}

impl DecisionDiff {
    /// True when any decision flipped — the CI gate.
    pub fn regressed(&self) -> bool {
        !self.flips.is_empty()
    }

    /// True when the two decision streams are identical.
    pub fn is_zero(&self) -> bool {
        self.flips.is_empty() && self.drift.is_empty() && self.base_count == self.cand_count
    }

    /// Deterministic human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "decision diff\n  baseline:  {} ({} decisions)\n  candidate: {} ({} decisions)\n",
            self.baseline_label, self.base_count, self.candidate_label, self.cand_count
        );
        if self.is_zero() {
            out.push_str("\nzero deltas: decision streams are identical\nverdict: OK\n");
            return out;
        }
        if !self.flips.is_empty() {
            out.push_str("\nflipped decisions:\n");
            for f in &self.flips {
                let verdicts = format!(
                    "{} -> {}",
                    f.base.as_deref().unwrap_or("absent"),
                    f.cand.as_deref().unwrap_or("absent")
                );
                match &f.dominant {
                    Some(d) => out.push_str(&format!(
                        "  {}: {verdicts}; {} {} -> {} (largest evidence delta)\n",
                        f.key.display(),
                        d.name,
                        d.base,
                        d.cand
                    )),
                    None => out.push_str(&format!("  {}: {verdicts}\n", f.key.display())),
                }
            }
        }
        if !self.drift.is_empty() {
            out.push_str("\nevidence drift (verdict held):\n");
            for d in &self.drift {
                out.push_str(&format!(
                    "  {}: {} held; {} {} -> {}\n",
                    d.key.display(),
                    d.verdict,
                    d.dominant.name,
                    d.dominant.base,
                    d.dominant.cand
                ));
            }
        }
        if self.regressed() {
            out.push_str(&format!(
                "\nverdict: REGRESSION ({} flipped decision{})\n",
                self.flips.len(),
                if self.flips.len() == 1 { "" } else { "s" }
            ));
        } else {
            out.push_str("\nverdict: OK (no decision flipped)\n");
        }
        out
    }

    /// Deterministic machine-readable rendering, written compact through
    /// the workspace codec ([`webiq_trace::json`]).
    pub fn to_json(&self) -> String {
        let key = |k: &DecisionKey| {
            vec![
                ("kind".to_string(), Json::from(k.kind.as_str())),
                ("attr".to_string(), Json::from(k.attr.as_str())),
                ("subject".to_string(), Json::from(k.subject.as_str())),
                ("occ".to_string(), Json::from(i64::from(k.occ))),
            ]
        };
        let flips = self.flips.iter().map(|f| {
            let mut o = key(&f.key);
            o.push(("base".into(), Json::from(f.base.as_deref())));
            o.push(("cand".into(), Json::from(f.cand.as_deref())));
            o.push(("dominant".into(), Json::from(f.dominant.as_ref())));
            Json::Obj(o)
        });
        let drift = self.drift.iter().map(|d| {
            let mut o = key(&d.key);
            o.push(("verdict".into(), Json::from(d.verdict.as_str())));
            o.push(("dominant".into(), Json::from(&d.dominant)));
            Json::Obj(o)
        });
        obj([
            ("baseline", Json::from(self.baseline_label.as_str())),
            ("candidate", Json::from(self.candidate_label.as_str())),
            ("base_decisions", Json::from(self.base_count)),
            ("cand_decisions", Json::from(self.cand_count)),
            ("regressed", Json::from(self.regressed())),
            ("zero_deltas", Json::from(self.is_zero())),
            ("flips", Json::Arr(flips.collect())),
            ("drift", Json::Arr(drift.collect())),
        ])
        .compact()
    }
}

impl From<&TermDelta> for Json {
    fn from(d: &TermDelta) -> Json {
        obj([
            ("name", Json::from(d.name.as_str())),
            ("base", Json::from(d.base)),
            ("cand", Json::from(d.cand)),
        ])
    }
}

/// Key every decision in an event stream.
fn index(events: &[Event]) -> BTreeMap<DecisionKey, Keyed> {
    let p = Provenance::from_events(events);
    let mut seen: BTreeMap<(String, String, String), u32> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for d in p.decisions() {
        let attr = p.owner_attr(d);
        let occ_key = (d.kind.clone(), attr.clone(), d.subject.clone());
        let occ = seen.entry(occ_key).or_insert(0);
        out.insert(
            DecisionKey {
                kind: d.kind.clone(),
                attr,
                subject: d.subject.clone(),
                occ: *occ,
            },
            Keyed {
                verdict: d.verdict.clone(),
                terms: d.terms.iter().cloned().collect(),
            },
        );
        *occ += 1;
    }
    out
}

/// The largest absolute change among terms present on both sides
/// (ties broken by name order, so the result is deterministic).
fn dominant_delta(base: &BTreeMap<String, f64>, cand: &BTreeMap<String, f64>) -> Option<TermDelta> {
    let mut best: Option<TermDelta> = None;
    for (name, b) in base {
        let Some(c) = cand.get(name) else { continue };
        let delta = (c - b).abs();
        let beats = match &best {
            Some(cur) => delta > (cur.cand - cur.base).abs(),
            None => true,
        };
        if beats {
            best = Some(TermDelta {
                name: name.clone(),
                base: *b,
                cand: *c,
            });
        }
    }
    best
}

/// Compare two parsed decision streams.
pub fn diff_decisions(
    baseline_label: &str,
    baseline: &[Event],
    candidate_label: &str,
    candidate: &[Event],
) -> DecisionDiff {
    let base = index(baseline);
    let cand = index(candidate);
    let mut flips = Vec::new();
    let mut drift = Vec::new();
    for (key, b) in &base {
        match cand.get(key) {
            Some(c) if c.verdict == b.verdict => {
                if c.terms != b.terms {
                    if let Some(d) = dominant_delta(&b.terms, &c.terms) {
                        drift.push(Drift {
                            key: key.clone(),
                            verdict: b.verdict.clone(),
                            dominant: d,
                        });
                    }
                }
            }
            Some(c) => flips.push(Flip {
                key: key.clone(),
                base: Some(b.verdict.clone()),
                cand: Some(c.verdict.clone()),
                dominant: dominant_delta(&b.terms, &c.terms),
            }),
            None => flips.push(Flip {
                key: key.clone(),
                base: Some(b.verdict.clone()),
                cand: None,
                dominant: None,
            }),
        }
    }
    for (key, c) in &cand {
        if !base.contains_key(key) {
            flips.push(Flip {
                key: key.clone(),
                base: None,
                cand: Some(c.verdict.clone()),
                dominant: None,
            });
        }
    }
    flips.sort_by(|a, b| a.key.cmp(&b.key));
    DecisionDiff {
        baseline_label: baseline_label.to_string(),
        candidate_label: candidate_label.to_string(),
        base_count: base.len(),
        cand_count: cand.len(),
        flips,
        drift,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(verdict: &str, posterior: f64) -> Vec<Event> {
        vec![
            Event::Open {
                seq: 0,
                id: 0,
                parent: None,
                name: "attribute".into(),
                attr: Some("0/3 author".into()),
            },
            Event::Decision {
                seq: 1,
                id: 0,
                kind: "bayes_verify".into(),
                subject: "writer".into(),
                verdict: verdict.into(),
                terms: vec![("posterior".into(), posterior), ("prior".into(), 0.6)],
            },
            Event::Close {
                seq: 2,
                id: 0,
                metrics: vec![],
                hists: vec![],
            },
        ]
    }

    #[test]
    fn identical_streams_are_zero() {
        let a = stream("accept", 0.81);
        let r = diff_decisions("a", &a, "b", &a);
        assert!(r.is_zero());
        assert!(!r.regressed());
        assert!(r.render_text().contains("zero deltas"));
        assert!(r.to_json().contains("\"zero_deltas\":true"));
    }

    #[test]
    fn verdict_flip_names_pair_and_dominant_delta() {
        let r = diff_decisions("a", &stream("accept", 0.81), "b", &stream("reject", 0.43));
        assert!(r.regressed());
        assert_eq!(r.flips.len(), 1);
        let text = r.render_text();
        assert!(
            text.contains("bayes_verify [0/3 author] \"writer\": accept -> reject"),
            "{text}"
        );
        assert!(
            text.contains("posterior 0.81 -> 0.43 (largest evidence delta)"),
            "{text}"
        );
        assert!(text.contains("verdict: REGRESSION (1 flipped decision)"));
        assert!(r.to_json().contains("\"regressed\":true"));
        assert!(r.to_json().contains("\"name\":\"posterior\""));
    }

    #[test]
    fn presence_flips_are_caught_both_ways() {
        let full = stream("accept", 0.81);
        let empty: Vec<Event> = vec![
            full.first().cloned().unwrap_or(Event::Open {
                seq: 0,
                id: 0,
                parent: None,
                name: "attribute".into(),
                attr: None,
            }),
            Event::Close {
                seq: 1,
                id: 0,
                metrics: vec![],
                hists: vec![],
            },
        ];
        let gone = diff_decisions("a", &full, "b", &empty);
        assert!(gone.regressed());
        assert!(gone.render_text().contains("accept -> absent"));
        let new = diff_decisions("a", &empty, "b", &full);
        assert!(new.regressed());
        assert!(new.render_text().contains("absent -> accept"));
    }

    #[test]
    fn drift_reports_but_does_not_gate() {
        let r = diff_decisions("a", &stream("accept", 0.81), "b", &stream("accept", 0.79));
        assert!(!r.regressed());
        assert!(!r.is_zero());
        assert_eq!(r.drift.len(), 1);
        let text = r.render_text();
        assert!(text.contains("evidence drift"));
        assert!(text.contains("posterior 0.81 -> 0.79"));
        assert!(text.contains("verdict: OK"));
    }

    #[test]
    fn repeated_subjects_pair_by_occurrence() {
        let mut a = stream("accept", 0.8);
        a.insert(
            2,
            Event::Decision {
                seq: 2,
                id: 0,
                kind: "bayes_verify".into(),
                subject: "writer".into(),
                verdict: "reject".into(),
                terms: vec![],
            },
        );
        let r = diff_decisions("a", &a, "b", &a);
        assert!(r.is_zero(), "occurrence indices pair duplicates");
        // flipping only the second occurrence flips exactly one key
        let mut b = a.clone();
        if let Some(Event::Decision { verdict, .. }) = b.get_mut(2) {
            *verdict = "accept".into();
        }
        let r = diff_decisions("a", &a, "b", &b);
        assert_eq!(r.flips.len(), 1);
        assert_eq!(r.flips.first().map(|f| f.key.occ), Some(1));
        assert!(r.render_text().contains("#1"));
    }
}
