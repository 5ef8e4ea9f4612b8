//! Trace-diff regression detection.
//!
//! [`diff`] aggregates two JSONL traces into run totals
//! ([`webiq_trace::report::aggregate_run`]) and compares them three
//! ways, each gated by [`DiffThresholds`]:
//!
//! - **counters**: relative change of every [`Counter`], flagged when it
//!   falls or rises past the configured percentages (small baselines are
//!   exempt via the floor);
//! - **funnel stages**: acceptance rates of the five pipeline stages
//!   (surface, verify, borrow, bayes, probe), flagged on an absolute
//!   rate drop;
//! - **quantiles**: per-histogram p50/p90/p99 from the trace layer's
//!   power-of-two buckets, flagged on an upward shift (cost creep).
//!
//! When two `webiq_prof_*` snapshots are attached
//! ([`DiffReport::with_prof`]), a fourth comparison covers the
//! profiling counter families — lock traffic, contention ratio, cache
//! misses — so a contention regression fails the gate even when the
//! deterministic trace is unchanged.
//!
//! The resulting [`DiffReport`] renders as deterministic text
//! ([`DiffReport::render_text`]) and JSON ([`DiffReport::to_json`]);
//! [`DiffReport::regressed`] is what `webiq-report diff` turns into its
//! exit code. Because the pipeline itself is deterministic, two traces
//! of the same code are byte-identical and the report states `zero
//! deltas` — any delta at all is a behaviour change someone made.

use webiq_prof::{ProfCounter, ProfSnapshot};
use webiq_trace::json::{obj, Json};
use webiq_trace::report::aggregate_run;
use webiq_trace::tracer::Totals;
use webiq_trace::{Counter, Event, HistKey, MetricSet};

use crate::config::DiffThresholds;
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
    /// True when the change crossed a threshold.
    pub regressed: bool,
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
    /// True when the rate dropped past the threshold.
    pub regressed: bool,
}

/// One profiling series' change between baseline and candidate —
/// attached when the diff is given two `webiq_prof_*` snapshots
/// (`webiq-report diff --prof-baseline/--prof-candidate`).
///
/// Only rises gate: falling lock traffic, contention, or cache misses
/// is an improvement. Stage wall-clock never appears here — timing is
/// nondeterministic by nature and must not fail a regression gate.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfDelta {
    /// Series name: a [`ProfCounter`] name, or `contention_ratio`.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// True when the rise crossed its threshold.
    pub regressed: bool,
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
    /// True when the quantile rose past the threshold.
    pub regressed: bool,
}

/// The outcome of comparing two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Label of the baseline trace (usually its path).
    pub baseline_label: String,
    /// Label of the candidate trace.
    pub candidate_label: String,
    /// Counters whose values differ (changed counters only).
    pub counters: Vec<CounterDelta>,
    /// All five funnel stages, in fixed order.
    pub stages: Vec<StageDelta>,
    /// Quantiles whose values differ (changed quantiles only).
    pub quantiles: Vec<QuantileDelta>,
    /// Profiling series that differ (empty unless prof snapshots were
    /// attached via [`DiffReport::with_prof`]).
    pub prof: Vec<ProfDelta>,
}

impl DiffReport {
    /// Attach a profiling comparison: non-peak `webiq_prof_*` counters
    /// gated on `prof_counter_rise_pct` (above the shared
    /// `counter_floor`), plus the shard-lock contention ratio gated on
    /// the absolute `prof_contention_rise`.
    #[must_use]
    pub fn with_prof(
        mut self,
        base: &ProfSnapshot,
        cand: &ProfSnapshot,
        t: &DiffThresholds,
    ) -> DiffReport {
        self.prof = diff_prof(base, cand, t);
        self
    }

    /// True when any comparison crossed its threshold — the CI gate.
    pub fn regressed(&self) -> bool {
        self.counters.iter().any(|d| d.regressed)
            || self.stages.iter().any(|d| d.regressed)
            || self.quantiles.iter().any(|d| d.regressed)
            || self.prof.iter().any(|d| d.regressed)
    }

    /// True when the two runs are metric-identical.
    pub fn is_zero(&self) -> bool {
        self.counters.is_empty()
            && self.quantiles.is_empty()
            && self.prof.is_empty()
            && self.stages.iter().all(|d| d.baseline == d.candidate)
    }

    /// Names of everything that regressed, in report order — what the
    /// CLI prints and the gate log shows.
    pub fn regressions(&self) -> Vec<String> {
        let mut out = Vec::new();
        for d in &self.counters {
            if d.regressed {
                out.push(format!("counter {}", d.counter.name()));
            }
        }
        for d in &self.stages {
            if d.regressed {
                out.push(format!("stage {}", d.stage));
            }
        }
        for d in &self.quantiles {
            if d.regressed {
                out.push(format!("quantile {} {}", d.hist.name(), d.quantile));
            }
        }
        for d in &self.prof {
            if d.regressed {
                out.push(format!("prof {}", d.name));
            }
        }
        out
    }

    /// Deterministic human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace diff\n  baseline:  {}\n  candidate: {}\n",
            self.baseline_label, self.candidate_label
        ));
        if self.is_zero() {
            out.push_str("\nzero deltas: runs are metric-identical\nverdict: OK\n");
            return out;
        }
        if !self.counters.is_empty() {
            out.push_str("\ncounters changed:\n");
            for d in &self.counters {
                out.push_str(&format!(
                    "  {:<24} {:>8} -> {:<8} ({:+.1}%){}\n",
                    d.counter.name(),
                    d.baseline,
                    d.candidate,
                    d.change_pct,
                    if d.regressed { "  REGRESSION" } else { "" }
                ));
            }
        }
        out.push_str("\nstage rates:\n");
        for d in &self.stages {
            out.push_str(&format!(
                "  {:<8} {} -> {}{}\n",
                d.stage,
                fmt_rate(d.baseline),
                fmt_rate(d.candidate),
                if d.regressed { "  REGRESSION" } else { "" }
            ));
        }
        if !self.quantiles.is_empty() {
            out.push_str("\nquantiles changed:\n");
            for d in &self.quantiles {
                out.push_str(&format!(
                    "  {} {}  {} -> {}{}\n",
                    d.hist.name(),
                    d.quantile,
                    fmt_opt(d.baseline),
                    fmt_opt(d.candidate),
                    if d.regressed { "  REGRESSION" } else { "" }
                ));
            }
        }
        if !self.prof.is_empty() {
            out.push_str("\nprof series changed:\n");
            for d in &self.prof {
                out.push_str(&format!(
                    "  {:<24} {:>10} -> {:<10}{}\n",
                    d.name,
                    fmt_prof(d.baseline),
                    fmt_prof(d.candidate),
                    if d.regressed { "  REGRESSION" } else { "" }
                ));
            }
        }
        let failing = self.regressions();
        if failing.is_empty() {
            out.push_str("\nverdict: OK (changes within thresholds)\n");
        } else {
            out.push_str(&format!(
                "\nverdict: REGRESSION ({}: {})\n",
                failing.len(),
                failing.join(", ")
            ));
        }
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
                ("regressed", Json::from(d.regressed)),
            ])
        });
        let stages = self.stages.iter().map(|d| {
            obj([
                ("name", Json::from(d.stage)),
                ("baseline", Json::from(d.baseline)),
                ("candidate", Json::from(d.candidate)),
                ("regressed", Json::from(d.regressed)),
            ])
        });
        let quantiles = self.quantiles.iter().map(|d| {
            obj([
                ("hist", Json::from(d.hist.name())),
                ("q", Json::from(d.quantile)),
                ("baseline", Json::from(d.baseline)),
                ("candidate", Json::from(d.candidate)),
                ("regressed", Json::from(d.regressed)),
            ])
        });
        let prof = self.prof.iter().map(|d| {
            obj([
                ("name", Json::from(d.name.as_str())),
                ("baseline", Json::from(d.baseline)),
                ("candidate", Json::from(d.candidate)),
                ("regressed", Json::from(d.regressed)),
            ])
        });
        obj([
            ("baseline", Json::from(self.baseline_label.as_str())),
            ("candidate", Json::from(self.candidate_label.as_str())),
            ("regressed", Json::from(self.regressed())),
            ("zero_deltas", Json::from(self.is_zero())),
            ("counters", Json::Arr(counters.collect())),
            ("stages", Json::Arr(stages.collect())),
            ("quantiles", Json::Arr(quantiles.collect())),
            ("prof", Json::Arr(prof.collect())),
            ("failures", Json::from(self.regressions())),
        ])
        .compact()
    }
}

/// Format a prof value: whole counters as integers, ratios with four
/// decimals.
fn fmt_prof(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
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
    t: &DiffThresholds,
) -> DiffReport {
    let base = aggregate_run(baseline);
    let cand = aggregate_run(candidate);
    diff_totals(baseline_label, &base, candidate_label, &cand, t)
}

/// Compare two aggregated runs (the core of [`diff_events`]).
pub fn diff_totals(
    baseline_label: &str,
    base: &Totals,
    candidate_label: &str,
    cand: &Totals,
    t: &DiffThresholds,
) -> DiffReport {
    let mut counters = Vec::new();
    for c in Counter::ALL {
        let b = base.counters.get(c);
        let v = cand.counters.get(c);
        if b == v {
            continue;
        }
        let change_pct = ((v as f64 - b as f64) / (b.max(1) as f64)) * 100.0;
        let above_floor = b >= t.counter_floor || v >= t.counter_floor;
        let regressed =
            above_floor && (change_pct < -t.counter_drop_pct || change_pct > t.counter_rise_pct);
        counters.push(CounterDelta {
            counter: c,
            baseline: b,
            candidate: v,
            change_pct,
            regressed,
        });
    }

    let mut stages = Vec::new();
    for (name, num, den) in STAGES {
        let b = rate(num.value(&base.counters), den.value(&base.counters));
        let v = rate(num.value(&cand.counters), den.value(&cand.counters));
        let regressed = match (b, v) {
            (Some(b), Some(v)) => b - v > t.rate_drop,
            // A stage that ran at baseline but never ran at candidate is
            // a funnel break — its feeding counters flag too, but name
            // the stage as well.
            (Some(_), None) => true,
            _ => false,
        };
        stages.push(StageDelta {
            stage: name,
            baseline: b,
            candidate: v,
            regressed,
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
            let regressed = match (b, v) {
                (Some(b), Some(v)) => v - b > t.quantile_shift,
                _ => false,
            };
            quantiles.push(QuantileDelta {
                hist: h,
                quantile: label,
                baseline: b,
                candidate: v,
                regressed,
            });
        }
    }

    DiffReport {
        baseline_label: baseline_label.to_string(),
        candidate_label: candidate_label.to_string(),
        counters,
        stages,
        quantiles,
        prof: Vec::new(),
    }
}

/// Compare two profiling snapshots: every non-peak [`ProfCounter`] whose
/// value changed (rises past `prof_counter_rise_pct` gate, small values
/// exempt via the shared `counter_floor`), plus the contention ratio
/// (absolute rise past `prof_contention_rise` gates). Peaks and stage
/// wall-clock are excluded — peaks are not comparable across different
/// worker counts, and timing is nondeterministic.
pub fn diff_prof(base: &ProfSnapshot, cand: &ProfSnapshot, t: &DiffThresholds) -> Vec<ProfDelta> {
    let mut out = Vec::new();
    for c in ProfCounter::ALL {
        if c.is_peak() {
            continue;
        }
        let b = base.get(c);
        let v = cand.get(c);
        if b == v {
            continue;
        }
        let change_pct = ((v as f64 - b as f64) / (b.max(1) as f64)) * 100.0;
        let above_floor = b >= t.counter_floor || v >= t.counter_floor;
        out.push(ProfDelta {
            name: c.name().to_string(),
            baseline: b as f64,
            candidate: v as f64,
            regressed: above_floor && change_pct > t.prof_counter_rise_pct,
        });
    }
    let (b, v) = (base.contention_ratio(), cand.contention_ratio());
    if b != v {
        out.push(ProfDelta {
            name: "contention_ratio".to_string(),
            baseline: b,
            candidate: v,
            regressed: v - b > t.prof_contention_rise,
        });
    }
    out
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
pub fn diff(
    baseline_path: &str,
    candidate_path: &str,
    t: &DiffThresholds,
) -> Result<DiffReport, ObsError> {
    let read = |path: &str| -> Result<String, ObsError> {
        std::fs::read_to_string(path).map_err(|e| ObsError::Io {
            path: path.to_string(),
            detail: e.to_string(),
        })
    };
    let base = parse_jsonl(baseline_path, &read(baseline_path)?)?;
    let cand = parse_jsonl(candidate_path, &read(candidate_path)?)?;
    Ok(diff_events(baseline_path, &base, candidate_path, &cand, t))
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
        let t = DiffThresholds::default();
        let r = diff_events("a", &run(75, 25, 3), "b", &run(75, 25, 3), &t);
        assert!(r.is_zero());
        assert!(!r.regressed());
        assert!(r.render_text().contains("zero deltas"));
        assert!(r.to_json().contains("\"zero_deltas\":true"));
    }

    #[test]
    fn acceptance_rate_drop_names_the_stage() {
        let t = DiffThresholds::default();
        // verify rate 0.75 -> 0.55: past the 0.05 default drop.
        let r = diff_events("a", &run(75, 25, 3), "b", &run(55, 45, 3), &t);
        assert!(r.regressed());
        assert!(r.regressions().iter().any(|f| f == "stage verify"));
        assert!(r.render_text().contains("verify"));
        assert!(r.render_text().contains("REGRESSION"));
    }

    #[test]
    fn counter_floor_suppresses_noise() {
        let t = DiffThresholds::default();
        // 75 -> 60 accepted is a 20% drop, above floor: flags.
        let r = diff_events("a", &run(75, 25, 3), "b", &run(60, 40, 3), &t);
        assert!(r.counters.iter().any(|d| d.regressed));
        // 4 -> 2 accepted is a 50% drop but below the floor of 20.
        let r = diff_events("a", &run(4, 0, 3), "b", &run(2, 0, 3), &t);
        assert!(r
            .counters
            .iter()
            .all(|d| d.counter != Counter::ValidationAccepted || !d.regressed));
    }

    #[test]
    fn upward_quantile_shift_flags() {
        let t = DiffThresholds::default();
        // Probe histogram value 3 -> 40: p50 bucket moves up.
        let r = diff_events("a", &run(75, 25, 3), "b", &run(75, 25, 40), &t);
        assert!(r
            .quantiles
            .iter()
            .any(|d| d.hist == HistKey::ProbesPerAttr && d.regressed));
        // Downward shifts never flag.
        let r = diff_events("a", &run(75, 25, 40), "b", &run(75, 25, 3), &t);
        assert!(!r.quantiles.is_empty());
        assert!(r.quantiles.iter().all(|d| !d.regressed));
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
    fn prof_rises_gate_and_drops_do_not() {
        let t = DiffThresholds::default();
        let mut base = ProfSnapshot::new();
        base.set(ProfCounter::ShardLockAcquire, 1000);
        base.set(ProfCounter::ShardLockContended, 10);
        base.set(ProfCounter::SearchCacheMiss, 100);
        let mut cand = base;
        // contention ratio 0.01 -> 0.20: past the 0.05 absolute rise.
        cand.set(ProfCounter::ShardLockContended, 200);
        // misses halve: a drop never regresses.
        cand.set(ProfCounter::SearchCacheMiss, 50);
        let r =
            diff_events("a", &run(75, 25, 3), "b", &run(75, 25, 3), &t).with_prof(&base, &cand, &t);
        assert!(!r.is_zero());
        assert!(r.regressed());
        let names = r.regressions();
        assert!(names.iter().any(|n| n == "prof lock_shard_contended"));
        assert!(names.iter().any(|n| n == "prof contention_ratio"));
        assert!(names.iter().all(|n| n != "prof search_cache_miss"));
        assert!(r.render_text().contains("prof series changed:"));
        assert!(r.to_json().contains("\"name\":\"contention_ratio\""));

        // identical snapshots attach nothing and stay zero-delta
        let r =
            diff_events("a", &run(75, 25, 3), "b", &run(75, 25, 3), &t).with_prof(&base, &base, &t);
        assert!(r.is_zero());
        assert!(!r.regressed());
    }

    #[test]
    fn prof_floor_and_peaks_are_respected() {
        let t = DiffThresholds::default();
        let mut base = ProfSnapshot::new();
        base.set(ProfCounter::SearchCacheEvict, 2);
        base.set(ProfCounter::WorkerMaxItems, 4);
        let mut cand = ProfSnapshot::new();
        // 2 -> 8 is +300% but below the floor of 20: reported, not gated.
        cand.set(ProfCounter::SearchCacheEvict, 8);
        // peaks never enter the comparison at all
        cand.set(ProfCounter::WorkerMaxItems, 40);
        let deltas = diff_prof(&base, &cand, &t);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].name, "search_cache_evict");
        assert!(!deltas[0].regressed);
    }

    #[test]
    fn json_rendering_is_deterministic_and_escaped() {
        let t = DiffThresholds::default();
        let r = diff_events("a \"x\"", &run(75, 25, 3), "b", &run(55, 45, 3), &t);
        assert_eq!(r.to_json(), r.to_json());
        assert!(r.to_json().contains("\"baseline\":\"a \\\"x\\\"\""));
        assert!(r.to_json().contains("\"failures\":["));
    }
}
