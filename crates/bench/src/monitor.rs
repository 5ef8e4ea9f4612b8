//! The `monitor` experiment: one fully-observed run that feeds both CI
//! regression gates.
//!
//! Runs a single domain's acquisition with every component enabled,
//! wired to the whole observability stack at once, then matches the
//! enriched attributes inside a traced `matching` item on the same
//! tracer:
//!
//! - a JSONL [`webiq::trace::Tracer`] producing the deterministic trace.
//!   Its acquisition part, flushed before matching starts, is what
//!   `OBS_BASELINE.jsonl` is (CI diffs it with `webiq-report diff`).
//!   The full trace adds the matching item, so it carries every
//!   match-relevant decision (`instance_validate`, `bayes_verify`,
//!   `probe_verify`, `borrow_reuse`, `cluster_merge`); its decision
//!   lines are what `WHY_BASELINE.jsonl` is (CI diffs them with
//!   `webiq-report diff --decisions`), and `webiq-report explain`
//!   renders evidence chains from it;
//! - a [`webiq::obs::LiveRegistry`] the pipeline publishes into, served
//!   over HTTP by a [`webiq::obs::MetricsServer`] on an ephemeral
//!   localhost port and scraped once after the run (`/metrics` and
//!   `/healthz`); the scrape without its `webiq_prof_*` appendix is what
//!   `METRICS_BASELINE.txt` is (CI compares them with `cmp`);
//! - a summary object (`OBS_BASELINE.json`) recording the funnel, the
//!   decision counts, the F-1 and the scrape's health, written through
//!   the workspace codec ([`webiq::trace::json`]).
//!
//! Everything observable here is deterministic in the seed: the trace
//! bytes, the post-run `/metrics` body, and the summary are identical
//! run over run and at any worker count.

use std::sync::Arc;

use webiq::core::{Components, WebIQConfig};
use webiq::matcher::MatchConfig;
use webiq::obs::server::http_get;
use webiq::obs::{LiveRegistry, MetricsServer};
use webiq::pipeline::{DomainPipeline, THRESHOLD};
use webiq::trace::report::{aggregate_run, funnel};
use webiq::trace::{Event, SharedBuf, Tracer};
use webiq::why::record;

use crate::json::{obj, Json};

/// The match-relevant decision families, in pipeline order.
const DECISION_KINDS: [&str; 5] = [
    record::INSTANCE_VALIDATE,
    record::BAYES_VERIFY,
    record::PROBE_VERIFY,
    record::BORROW_REUSE,
    record::CLUSTER_MERGE,
];

/// Everything one monitored run produced.
#[derive(Debug)]
pub struct MonitorOutcome {
    /// The acquisition's deterministic JSONL trace (the counter gate's
    /// input).
    pub trace_jsonl: String,
    /// The full trace: `trace_jsonl` followed by the traced matching
    /// item.
    pub full_trace_jsonl: String,
    /// Only the decision lines of the full trace (the decision gate's
    /// input).
    pub decisions_jsonl: String,
    /// The post-run `/metrics` body (scraped over HTTP when the
    /// listener could bind, rendered directly otherwise).
    pub metrics_text: String,
    /// Whether the HTTP endpoint actually served the scrape (false when
    /// the sandbox forbids binding localhost).
    pub served_over_http: bool,
    /// The `/healthz` body when served over HTTP.
    pub healthz: String,
    /// The run summary (what `OBS_BASELINE.json` holds).
    pub summary: Json,
}

/// Run one monitored acquisition + matching pass of `domain` at `seed`.
///
/// # Errors
///
/// Returns the pipeline's error string when the domain is unknown or
/// acquisition fails.
pub fn run(domain: &str, seed: u64) -> Result<MonitorOutcome, String> {
    let p = DomainPipeline::build(domain, seed).map_err(|e| e.to_string())?;

    let registry = Arc::new(LiveRegistry::new());
    let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&registry)).ok();

    let buf = SharedBuf::new();
    let tracer = Tracer::jsonl(Box::new(buf.clone()));
    let cfg = WebIQConfig {
        tracer: tracer.clone(),
        obs: Some(Arc::clone(&registry)),
        ..WebIQConfig::default()
    };
    let acq = p
        .acquire(Components::ALL, &cfg)
        .map_err(|e| e.to_string())?;
    tracer.flush();
    let trace_jsonl = buf.contents_string();

    let attrs = p.enriched_attributes(&acq);
    let (_, metrics) =
        p.match_and_evaluate_traced(&attrs, &MatchConfig::with_threshold(THRESHOLD), &tracer);
    tracer.flush();
    let full_trace_jsonl = buf.contents_string();
    let decisions: Vec<(&str, String)> = full_trace_jsonl
        .lines()
        .filter_map(|l| match Event::parse(l)? {
            Event::Decision { kind, .. } => Some((l, kind)),
            _ => None,
        })
        .collect();
    let decisions_jsonl: String = decisions.iter().map(|(l, _)| format!("{l}\n")).collect();
    let count_kind = |kind: &str| decisions.iter().filter(|(_, k)| k == kind).count();

    // Scrape the live endpoint; fall back to a direct render when the
    // environment refused the bind. The server serves
    // `registry.render_live()` — the deterministic render plus the
    // scheduling-dependent `webiq_prof_*` appendix — so the appendix is
    // stripped here: this artifact is compared byte-for-byte across
    // runs and worker counts, and after the strip both paths yield
    // exactly `registry.render()`.
    let (metrics_text, healthz, served_over_http) = match &server {
        Some(s) => {
            let m = http_get(s.local_addr(), "/metrics").map(|(_, body)| body);
            let h = http_get(s.local_addr(), "/healthz").map(|(_, body)| body);
            match (m, h) {
                (Ok(m), Ok(h)) => (strip_prof(&m), h, true),
                _ => (registry.render(), String::new(), false),
            }
        }
        None => (registry.render(), String::new(), false),
    };
    if let Some(s) = server {
        s.shutdown();
    }

    let snap = registry.snapshot();
    let events: Vec<Event> = trace_jsonl.lines().filter_map(Event::parse).collect();
    let totals = aggregate_run(&events);
    let f = funnel(&totals.counters);

    // The registry is fed from the same deterministic merge loop the
    // tracer is, so the scrape must agree with the trace.
    let consistent = snap.counters == totals.counters;

    let summary = obj([
        ("domain", Json::from(domain)),
        ("seed", Json::from(seed)),
        ("items", Json::from(snap.items)),
        ("epochs", Json::from(snap.epochs)),
        ("trace_events", Json::from(events.len())),
        ("metrics_consistent_with_trace", Json::from(consistent)),
        ("served_over_http", Json::from(served_over_http)),
        (
            "funnel",
            obj([
                ("attrs_total", Json::from(f.attrs_total)),
                ("no_instance", Json::from(f.no_instance)),
                ("candidates", Json::from(f.candidates)),
                ("verified", Json::from(f.verified)),
                ("borrowed", Json::from(f.borrowed)),
                ("probed", Json::from(f.probed)),
                ("surface_success", Json::from(f.surface_success)),
            ]),
        ),
        ("decisions", Json::from(decisions.len())),
        (
            "decisions_by_kind",
            obj(DECISION_KINDS.map(|k| (k, Json::from(count_kind(k))))),
        ),
        ("f1", Json::from(metrics.f1)),
    ]);

    Ok(MonitorOutcome {
        trace_jsonl,
        full_trace_jsonl,
        decisions_jsonl,
        metrics_text,
        served_over_http,
        healthz,
        summary,
    })
}

/// Drop the `webiq_prof_*` families (values and `# TYPE` headers) from a
/// `/metrics` scrape, leaving the deterministic exposition.
fn strip_prof(scrape: &str) -> String {
    scrape
        .lines()
        .filter(|l| !l.contains("webiq_prof_"))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use webiq::why::Provenance;

    #[test]
    fn monitor_run_is_deterministic_and_feeds_both_gates() {
        let a = run("book", 0x1ce0).expect("monitor run");
        let b = run("book", 0x1ce0).expect("monitor run");
        assert_eq!(a.full_trace_jsonl, b.full_trace_jsonl);
        assert_eq!(a.metrics_text, b.metrics_text);
        assert_eq!(a.summary, b.summary);
        assert!(!a.trace_jsonl.is_empty());
        assert!(
            a.full_trace_jsonl.len() > a.trace_jsonl.len()
                && a.full_trace_jsonl.starts_with(&a.trace_jsonl),
            "the counter gate's trace must be a strict prefix of the full trace"
        );
        assert!(a.metrics_text.contains("webiq_attrs_total_total"));
        assert!(
            !a.metrics_text.contains("webiq_prof_"),
            "the scheduling-dependent prof appendix must be stripped"
        );
        if a.served_over_http {
            assert_eq!(a.healthz, "ok\n");
        }
        match &a.summary {
            Json::Obj(pairs) => {
                let get = |k: &str| pairs.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
                assert_eq!(get("metrics_consistent_with_trace"), Some(Json::Bool(true)));
                assert_eq!(get("epochs"), Some(Json::Int(1)));
            }
            other => panic!("summary is not an object: {other:?}"),
        }

        // The book run exercises surface validation and clustering at
        // minimum; every decision line must round-trip the parser.
        let events: Vec<_> = a
            .decisions_jsonl
            .lines()
            .map(|l| Event::parse(l).expect("decision line parses"))
            .collect();
        let p = Provenance::from_events(&events);
        assert_eq!(p.decisions().len(), events.len());
        for kind in ["instance_validate", "cluster_merge"] {
            assert!(
                !p.matching(kind).is_empty(),
                "no {kind} decisions in the book run"
            );
        }
    }
}
