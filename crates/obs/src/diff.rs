//! Trace-diff regression detection.
//!
//! [`diff`] aggregates two JSONL traces into run totals
//! ([`webiq_trace::report::aggregate_run`]) and lists everything that
//! differs between them, four ways:
//!
//! - **counters**: every [`Counter`] whose run total changed, with its
//!   relative change;
//! - **funnel stages**: the acceptance rates of the five pipeline stages
//!   (surface, verify, borrow, bayes, probe) that changed;
//! - **quantiles**: per-histogram p50/p90/p99 from the trace layer's
//!   power-of-two buckets that shifted;
//! - **span counters**: every counter whose total over one span name's
//!   closes changed, which catches a count moved inside the span tree
//!   while the run totals held.
//!
//! The resulting [`DiffReport`] renders as deterministic text
//! ([`DiffReport::render_text`]) and JSON ([`DiffReport::to_json`]);
//! [`DiffReport::regressed`] is what `webiq-report diff` turns into its
//! exit code. The pipeline is deterministic, so two traces of the same
//! code are byte-identical and the report states `zero deltas`; any
//! delta at all is a behaviour change someone made, and fails the gate.

use std::collections::BTreeSet;

use webiq_trace::json::{obj, Json};
use webiq_trace::report::{aggregate_run, Totals};
use webiq_trace::{Counter, Event, HistKey, MetricSet};

use crate::error::ObsError;

/// Quantiles compared per histogram.
const QUANTILES: [(f64, &str); 3] = [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")];

/// The five funnel stages a diff compares, as
/// `(name, numerator, denominator)` — rate = accepted / attempted.
const STAGES: [(&str, StageCount, StageCount); 5] = [
    (
        "surface",
        StageCount::One(Counter::SurfaceSuccess),
        StageCount::One(Counter::AttrsNoInstance),
    ),
    (
        "verify",
        StageCount::One(Counter::ValidationAccepted),
        StageCount::Two(Counter::ValidationAccepted, Counter::ValidationRejected),
    ),
    (
        "borrow",
        StageCount::One(Counter::BorrowAccepted),
        StageCount::One(Counter::BorrowProbed),
    ),
    (
        "bayes",
        StageCount::One(Counter::BayesAccepted),
        StageCount::Two(Counter::BayesAccepted, Counter::BayesRejected),
    ),
    (
        "probe",
        StageCount::One(Counter::ProbeMatched),
        StageCount::One(Counter::ProbesIssued),
    ),
];

/// A stage-rate term: one counter, or the sum of two.
#[derive(Clone, Copy)]
enum StageCount {
    One(Counter),
    Two(Counter, Counter),
}

impl StageCount {
    fn value(self, m: &MetricSet) -> u64 {
        match self {
            StageCount::One(c) => m.get(c),
            StageCount::Two(a, b) => m.get(a).saturating_add(m.get(b)),
        }
    }
}

/// One counter's change between baseline and candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterDelta {
    /// Which counter.
    pub counter: Counter,
    /// Baseline value.
    pub baseline: u64,
    /// Candidate value.
    pub candidate: u64,
    /// Relative change in percent (denominator clamped to ≥ 1 so the
    /// value stays finite).
    pub change_pct: f64,
}

/// One funnel stage's acceptance-rate change.
#[derive(Debug, Clone, PartialEq)]
pub struct StageDelta {
    /// Stage name (`surface`, `verify`, `borrow`, `bayes`, `probe`).
    pub stage: &'static str,
    /// Baseline acceptance rate; `None` when the stage never ran.
    pub baseline: Option<f64>,
    /// Candidate acceptance rate; `None` when the stage never ran.
    pub candidate: Option<f64>,
}

/// One counter's change summed over every close of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanDelta {
    /// The span name (e.g. `bayes_verify`).
    pub span: String,
    /// Which counter.
    pub counter: Counter,
    /// Baseline total over the span's closes.
    pub baseline: u64,
    /// Candidate total over the span's closes.
    pub candidate: u64,
}

/// One histogram quantile's shift.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileDelta {
    /// Which histogram.
    pub hist: HistKey,
    /// Quantile label (`p50`, `p90`, `p99`).
    pub quantile: &'static str,
    /// Baseline quantile value; `None` when the histogram is empty.
    pub baseline: Option<f64>,
    /// Candidate quantile value; `None` when the histogram is empty.
    pub candidate: Option<f64>,
}

/// The outcome of comparing two runs: every counter, stage rate,
/// quantile and span counter that differs, each list in fixed order.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Label of the baseline trace (usually its path).
    pub baseline_label: String,
    /// Label of the candidate trace.
    pub candidate_label: String,
    /// Counters whose values differ.
    pub counters: Vec<CounterDelta>,
    /// Funnel stages whose acceptance rates differ.
    pub stages: Vec<StageDelta>,
    /// Quantiles whose values differ.
    pub quantiles: Vec<QuantileDelta>,
    /// Span-name counter totals that differ, by span name then counter.
    pub spans: Vec<SpanDelta>,
}

impl DiffReport {
    /// True when anything differs — the CI gate. The pipeline is
    /// deterministic, so any delta is a behaviour change.
    pub fn regressed(&self) -> bool {
        !(self.counters.is_empty()
            && self.stages.is_empty()
            && self.quantiles.is_empty()
            && self.spans.is_empty())
    }

    /// Names of everything that differs, in report order — what the
    /// verdict line and the gate log show.
    pub fn regressions(&self) -> Vec<String> {
        let counters = self
            .counters
            .iter()
            .map(|d| format!("counter {}", d.counter.name()));
        let stages = self.stages.iter().map(|d| format!("stage {}", d.stage));
        let quantiles = self
            .quantiles
            .iter()
            .map(|d| format!("quantile {} {}", d.hist.name(), d.quantile));
        let spans = self
            .spans
            .iter()
            .map(|d| format!("span {} counter {}", d.span, d.counter.name()));
        counters
            .chain(stages)
            .chain(quantiles)
            .chain(spans)
            .collect()
    }

    /// Deterministic human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace diff\n  baseline:  {}\n  candidate: {}\n",
            self.baseline_label, self.candidate_label
        ));
        if !self.regressed() {
            out.push_str("\nzero deltas: runs are metric-identical\nverdict: OK\n");
            return out;
        }
        if !self.counters.is_empty() {
            out.push_str("\ncounters changed:\n");
            for d in &self.counters {
                out.push_str(&format!(
                    "  {:<24} {:>8} -> {:<8} ({:+.1}%)\n",
                    d.counter.name(),
                    d.baseline,
                    d.candidate,
                    d.change_pct
                ));
            }
        }
        if !self.stages.is_empty() {
            out.push_str("\nstage rates changed:\n");
            for d in &self.stages {
                out.push_str(&format!(
                    "  {:<8} {} -> {}\n",
                    d.stage,
                    fmt_rate(d.baseline),
                    fmt_rate(d.candidate)
                ));
            }
        }
        if !self.quantiles.is_empty() {
            out.push_str("\nquantiles changed:\n");
            for d in &self.quantiles {
                out.push_str(&format!(
                    "  {} {}  {} -> {}\n",
                    d.hist.name(),
                    d.quantile,
                    fmt_opt(d.baseline),
                    fmt_opt(d.candidate)
                ));
            }
        }
        if !self.spans.is_empty() {
            out.push_str("\nspan counters changed (summed over every close of the span):\n");
            for d in &self.spans {
                out.push_str(&format!(
                    "  {:<16} {:<24} {:>8} -> {}\n",
                    d.span,
                    d.counter.name(),
                    d.baseline,
                    d.candidate
                ));
            }
        }
        let failing = self.regressions();
        out.push_str(&format!(
            "\nverdict: REGRESSION ({}: {})\n",
            failing.len(),
            failing.join(", ")
        ));
        out
    }

    /// Deterministic machine-readable rendering, written compact through
    /// the workspace codec ([`webiq_trace::json`]).
    pub fn to_json(&self) -> String {
        let counters = self.counters.iter().map(|d| {
            obj([
                ("name", Json::from(d.counter.name())),
                ("baseline", Json::from(d.baseline)),
                ("candidate", Json::from(d.candidate)),
                ("change_pct", Json::from(d.change_pct)),
            ])
        });
        let stages = self.stages.iter().map(|d| {
            obj([
                ("name", Json::from(d.stage)),
                ("baseline", Json::from(d.baseline)),
                ("candidate", Json::from(d.candidate)),
            ])
        });
        let quantiles = self.quantiles.iter().map(|d| {
            obj([
                ("hist", Json::from(d.hist.name())),
                ("q", Json::from(d.quantile)),
                ("baseline", Json::from(d.baseline)),
                ("candidate", Json::from(d.candidate)),
            ])
        });
        let spans = self.spans.iter().map(|d| {
            obj([
                ("span", Json::from(d.span.as_str())),
                ("counter", Json::from(d.counter.name())),
                ("baseline", Json::from(d.baseline)),
                ("candidate", Json::from(d.candidate)),
            ])
        });
        obj([
            ("baseline", Json::from(self.baseline_label.as_str())),
            ("candidate", Json::from(self.candidate_label.as_str())),
            ("regressed", Json::from(self.regressed())),
            ("counters", Json::Arr(counters.collect())),
            ("stages", Json::Arr(stages.collect())),
            ("quantiles", Json::Arr(quantiles.collect())),
            ("spans", Json::Arr(spans.collect())),
            ("failures", Json::from(self.regressions())),
        ])
        .compact()
    }
}

fn fmt_rate(r: Option<f64>) -> String {
    match r {
        Some(v) => format!("{v:.4}"),
        None => "n/a".to_string(),
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v}"),
        None => "n/a".to_string(),
    }
}

/// Parse a JSONL trace, reporting the first malformed line by number.
/// Blank lines are tolerated (a trailing newline is not an error); any
/// other unparseable line is.
pub fn parse_jsonl(label: &str, text: &str) -> Result<Vec<Event>, ObsError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Event::parse(line) {
            Some(e) => events.push(e),
            None => {
                return Err(ObsError::MalformedTrace {
                    path: label.to_string(),
                    line: i + 1,
                })
            }
        }
    }
    Ok(events)
}

/// Compare two already-parsed event streams.
pub fn diff_events(
    baseline_label: &str,
    baseline: &[Event],
    candidate_label: &str,
    candidate: &[Event],
) -> DiffReport {
    let base = aggregate_run(baseline);
    let cand = aggregate_run(candidate);
    diff_totals(baseline_label, &base, candidate_label, &cand)
}

/// Compare two aggregated runs (the core of [`diff_events`]).
pub fn diff_totals(
    baseline_label: &str,
    base: &Totals,
    candidate_label: &str,
    cand: &Totals,
) -> DiffReport {
    let mut counters = Vec::new();
    for c in Counter::ALL {
        let b = base.counters.get(c);
        let v = cand.counters.get(c);
        if b == v {
            continue;
        }
        counters.push(CounterDelta {
            counter: c,
            baseline: b,
            candidate: v,
            change_pct: ((v as f64 - b as f64) / (b.max(1) as f64)) * 100.0,
        });
    }

    let mut stages = Vec::new();
    for (name, num, den) in STAGES {
        let b = rate(num.value(&base.counters), den.value(&base.counters));
        let v = rate(num.value(&cand.counters), den.value(&cand.counters));
        if b == v {
            continue;
        }
        stages.push(StageDelta {
            stage: name,
            baseline: b,
            candidate: v,
        });
    }

    let mut quantiles = Vec::new();
    for h in HistKey::ALL {
        for (p, label) in QUANTILES {
            let b = base.hists.quantile(h, p);
            let v = cand.hists.quantile(h, p);
            if b == v {
                continue;
            }
            quantiles.push(QuantileDelta {
                hist: h,
                quantile: label,
                baseline: b,
                candidate: v,
            });
        }
    }

    let empty = MetricSet::new();
    let mut spans = Vec::new();
    let names: BTreeSet<&String> = base.spans.keys().chain(cand.spans.keys()).collect();
    for name in names {
        let b = base.spans.get(name).unwrap_or(&empty);
        let v = cand.spans.get(name).unwrap_or(&empty);
        for c in Counter::ALL {
            if b.get(c) != v.get(c) {
                spans.push(SpanDelta {
                    span: name.clone(),
                    counter: c,
                    baseline: b.get(c),
                    candidate: v.get(c),
                });
            }
        }
    }

    DiffReport {
        baseline_label: baseline_label.to_string(),
        candidate_label: candidate_label.to_string(),
        counters,
        stages,
        quantiles,
        spans,
    }
}

/// `accepted / attempted`, or `None` when the stage never ran.
fn rate(num: u64, den: u64) -> Option<f64> {
    if den == 0 {
        None
    } else {
        Some(num as f64 / den as f64)
    }
}

/// Read, parse, and compare two JSONL trace files.
pub fn diff(baseline_path: &str, candidate_path: &str) -> Result<DiffReport, ObsError> {
    let read = |path: &str| -> Result<String, ObsError> {
        std::fs::read_to_string(path).map_err(|e| ObsError::Io {
            path: path.to_string(),
            detail: e.to_string(),
        })
    };
    let base = parse_jsonl(baseline_path, &read(baseline_path)?)?;
    let cand = parse_jsonl(candidate_path, &read(candidate_path)?)?;
    Ok(diff_events(baseline_path, &base, candidate_path, &cand))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny synthetic run: one root span whose close carries the
    /// given validation counters and probe histogram.
    fn run(accepted: u64, rejected: u64, probe_val: u64) -> Vec<Event> {
        let mut hist = webiq_trace::HistSet::new();
        hist.observe(HistKey::ProbesPerAttr, probe_val);
        vec![
            Event::Open {
                seq: 0,
                id: 0,
                parent: None,
                name: "acquire".into(),
                attr: Some("book".into()),
            },
            Event::Close {
                seq: 1,
                id: 0,
                metrics: vec![
                    (Counter::ValidationAccepted, accepted),
                    (Counter::ValidationRejected, rejected),
                    (Counter::ProbesIssued, 40),
                    (Counter::ProbeMatched, 30),
                ],
                hists: hist.nonzero(),
            },
        ]
    }

    #[test]
    fn identical_runs_report_zero_deltas() {
        let r = diff_events("a", &run(75, 25, 3), "b", &run(75, 25, 3));
        assert!(!r.regressed());
        assert!(r.regressions().is_empty());
        assert!(r.render_text().contains("zero deltas"));
        assert!(r.to_json().contains("\"regressed\":false"));
    }

    #[test]
    fn acceptance_rate_drop_names_the_stage() {
        let r = diff_events("a", &run(75, 25, 3), "b", &run(55, 45, 3));
        assert!(r.regressed());
        assert!(r.regressions().iter().any(|f| f == "stage verify"));
        assert!(r.render_text().contains("verify"));
        assert!(r.render_text().contains("REGRESSION"));
    }

    #[test]
    fn every_delta_regresses_however_small() {
        // 75 -> 74 accepted: a 1.3% counter change and a 0.01 rate drop.
        let r = diff_events("a", &run(75, 25, 3), "b", &run(74, 26, 3));
        assert_eq!(
            r.regressions(),
            [
                "counter validation_accepted",
                "counter validation_rejected",
                "stage verify",
                "span acquire counter validation_accepted",
                "span acquire counter validation_rejected",
            ]
        );
        // Stages whose rate held are not listed.
        assert!(r.stages.iter().all(|d| d.stage == "verify"));
    }

    #[test]
    fn quantile_shifts_flag_both_ways() {
        // Probe histogram value 3 -> 40: p50 bucket moves up.
        let r = diff_events("a", &run(75, 25, 3), "b", &run(75, 25, 40));
        assert!(r.quantiles.iter().any(|d| d.hist == HistKey::ProbesPerAttr));
        assert!(r.regressed());
        let r = diff_events("a", &run(75, 25, 40), "b", &run(75, 25, 3));
        assert!(!r.quantiles.is_empty());
        assert!(r.regressed());
    }

    #[test]
    fn nested_count_moved_under_held_totals_names_the_span() {
        // One engine query moves from `verify` to `surface` inside the
        // same root: the run totals hold, the span totals do not.
        let run = |verify: u64, surface: u64| -> Vec<Event> {
            let open = |seq, id, parent, name: &str| Event::Open {
                seq,
                id,
                parent,
                name: name.into(),
                attr: None,
            };
            let close = |seq, id, v| Event::Close {
                seq,
                id,
                metrics: vec![(Counter::EngineHitIssued, v)],
                hists: vec![],
            };
            vec![
                open(0, 0, None, "acquire"),
                open(1, 1, Some(0), "verify"),
                close(2, 1, verify),
                open(3, 2, Some(0), "surface"),
                close(4, 2, surface),
                close(5, 0, verify + surface),
            ]
        };
        let r = diff_events("a", &run(3, 4), "b", &run(2, 5));
        assert!(r.counters.is_empty());
        assert!(r.regressed());
        assert_eq!(
            r.regressions(),
            [
                "span surface counter engine_hit_issued",
                "span verify counter engine_hit_issued",
            ]
        );
        let text = r.render_text();
        assert!(text.contains("span counters changed"), "{text}");
        assert!(text.contains("verify"), "{text}");
        assert!(r.to_json().contains(r#""span":"surface""#));
    }

    #[test]
    fn parse_jsonl_reports_line_numbers() {
        let good = run(1, 1, 1);
        let text = format!("{}\n{}\nnot json\n", good[0].to_jsonl(), good[1].to_jsonl());
        match parse_jsonl("t.jsonl", &text) {
            Err(ObsError::MalformedTrace { path, line }) => {
                assert_eq!(path, "t.jsonl");
                assert_eq!(line, 3);
            }
            other => panic!("expected MalformedTrace, got {other:?}"),
        }
        // Blank lines are fine.
        let text = format!("{}\n\n{}\n", good[0].to_jsonl(), good[1].to_jsonl());
        assert_eq!(parse_jsonl("t.jsonl", &text).map(|v| v.len()), Ok(2));
    }

    #[test]
    fn json_rendering_is_deterministic_and_escaped() {
        let r = diff_events("a \"x\"", &run(75, 25, 3), "b", &run(55, 45, 3));
        assert_eq!(r.to_json(), r.to_json());
        assert!(r.to_json().contains("\"baseline\":\"a \\\"x\\\"\""));
        assert!(r.to_json().contains("\"failures\":["));
    }
}
