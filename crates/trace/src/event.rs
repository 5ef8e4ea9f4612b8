//! Trace events and their JSONL wire format.
//!
//! An event stream is a sequence of span opens and closes keyed by a
//! *logical clock*: `seq` is the global event index assigned at merge
//! time, never a wall-clock reading, so the stream is byte-identical
//! across runs and worker counts. A close event carries the non-zero
//! counter deltas observed inside the span (see
//! [`crate::metrics::MetricSet::diff`]).
//!
//! The wire format is one flat JSON object per line, emitted by
//! [`Event::to_jsonl`] and parsed back by [`Event::parse`]:
//!
//! ```text
//! {"ev":"open","seq":0,"id":0,"name":"acquire","attr":"book"}
//! {"ev":"open","seq":1,"id":1,"parent":0,"name":"attribute","attr":"0/0 Title"}
//! {"ev":"decision","seq":2,"id":1,"kind":"instance_validate","subject":"rome","verdict":"accept","t":{"pmi":0.0042,"threshold":0}}
//! {"ev":"close","seq":3,"id":1,"m":{"engine_hit_issued":42,"attrs_total":1}}
//! {"ev":"close","seq":4,"id":0,"m":{"engine_hit_issued":42,"attrs_total":1},"h":{"probes_per_attr":[0,0,0,1,0,0,0,0]}}
//! ```
//!
//! A *decision* line records one match-relevant judgment — an instance
//! validated, a borrowed lender probed, a cluster pair merged — with the
//! evidence terms behind it (`"t"`: name → finite float, in recording
//! order). Its `id` is the *enclosing span's* id, anchoring the decision
//! in the provenance tree that `webiq-report explain` renders. Floats
//! are written with Rust's shortest-roundtrip `Display`, so decision
//! streams share the byte-identity guarantee of the rest of the trace.
//!
//! Work-item root closes and scope closes additionally carry the
//! histogram deltas observed inside them (`"h"`: bucket-count arrays per
//! [`HistKey`]), so a trace file is sufficient to rebuild the run's
//! latency/size distributions — the basis of `webiq-report diff`'s
//! quantile comparison.
//!
//! Both directions share the workspace codec, [`crate::json`]. The
//! encoder writes each line straight into a `String` with the codec's
//! string and number writers, keys in a fixed order and absent optional
//! fields omitted: exactly the compact form of the equivalent [`Json`]
//! object, so equality of two streams is byte equality. A line is a
//! seq-dependent head, `{"ev":…,"seq":N,"id":M`, and a tail that depends
//! on nothing the merge assigns except an open's parent. The tracer
//! encodes decision tails on the worker that records them and writes
//! heads at merge time ([`crate::tracer`]); [`Event::to_jsonl`] writes
//! both for readers and tests. The parser reads any JSON document but
//! accepts only this shape; unknown counter and histogram names inside
//! `"m"`/`"h"` are skipped so old reports can read newer traces.

use crate::json::{escape_str, write_float, write_uint, Json};
use crate::metrics::{Counter, HistKey, NUM_BUCKETS};

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened.
    Open {
        /// Logical-clock position (global event index).
        seq: u64,
        /// Span id, unique within the trace.
        id: u64,
        /// Enclosing span id, if any.
        parent: Option<u64>,
        /// The span's stage name (e.g. `"surface"`).
        name: String,
        /// Free-form subject (attribute label, domain name).
        attr: Option<String>,
    },
    /// A span closed.
    Close {
        /// Logical-clock position (global event index).
        seq: u64,
        /// Id of the span being closed.
        id: u64,
        /// Non-zero counter deltas observed inside the span.
        metrics: Vec<(Counter, u64)>,
        /// Histogram deltas observed inside the span (bucket counts per
        /// key; empty for spans that carry none — only work-item roots
        /// and tracer scopes do).
        hists: Vec<(HistKey, [u64; NUM_BUCKETS])>,
    },
    /// A match-relevant judgment and the evidence terms behind it.
    Decision {
        /// Logical-clock position (global event index).
        seq: u64,
        /// Id of the *enclosing span* — the decision's provenance anchor.
        id: u64,
        /// Decision family (e.g. `"instance_validate"`, `"cluster_merge"`).
        kind: String,
        /// What was decided about (an instance, a lender, an attribute pair).
        subject: String,
        /// The outcome (`"accept"`, `"reject"`, `"merge"`, ...).
        verdict: String,
        /// Evidence terms in recording order: name → finite value.
        terms: Vec<(String, f64)>,
    },
}

impl Event {
    /// The event's logical-clock position.
    pub fn seq(&self) -> u64 {
        match self {
            Event::Open { seq, .. } | Event::Close { seq, .. } | Event::Decision { seq, .. } => {
                *seq
            }
        }
    }

    /// The event's span id (for a decision, the enclosing span's id).
    pub fn id(&self) -> u64 {
        match self {
            Event::Open { id, .. } | Event::Close { id, .. } | Event::Decision { id, .. } => *id,
        }
    }

    /// Serialize to one JSONL line (no trailing newline), as the tracer
    /// writes it.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(128);
        match self {
            Event::Open {
                seq,
                id,
                parent,
                name,
                attr,
            } => {
                write_head(&mut out, "open", *seq, *id);
                write_open_tail(&mut out, *parent, name, attr.as_deref());
            }
            Event::Close {
                seq,
                id,
                metrics,
                hists,
            } => {
                write_head(&mut out, "close", *seq, *id);
                write_close_tail(&mut out, metrics, hists);
            }
            Event::Decision {
                seq,
                id,
                kind,
                subject,
                verdict,
                terms,
            } => {
                write_head(&mut out, "decision", *seq, *id);
                let terms = terms.iter().map(|(k, v)| (k.as_str(), *v));
                write_decision_tail(&mut out, kind, subject, verdict, terms);
            }
        }
        out
    }

    /// Parse one JSONL line produced by [`Event::to_jsonl`]. Returns
    /// `None` on any malformed input instead of panicking.
    pub fn parse(line: &str) -> Option<Event> {
        let doc = Json::parse(line).ok()?;
        let mut ev: Option<&str> = None;
        let mut seq: Option<u64> = None;
        let mut id: Option<u64> = None;
        let mut parent: Option<u64> = None;
        let mut name: Option<&str> = None;
        let mut attr: Option<&str> = None;
        let mut kind: Option<&str> = None;
        let mut subject: Option<&str> = None;
        let mut verdict: Option<&str> = None;
        let mut terms: Vec<(String, f64)> = Vec::new();
        let mut metrics: Vec<(Counter, u64)> = Vec::new();
        let mut hists: Vec<(HistKey, [u64; NUM_BUCKETS])> = Vec::new();
        for (key, v) in doc.as_obj()? {
            match key.as_str() {
                "ev" => ev = Some(v.as_str()?),
                "seq" => seq = Some(v.as_u64()?),
                "id" => id = Some(v.as_u64()?),
                "parent" => parent = Some(v.as_u64()?),
                "name" => name = Some(v.as_str()?),
                "attr" => attr = Some(v.as_str()?),
                "kind" => kind = Some(v.as_str()?),
                "subject" => subject = Some(v.as_str()?),
                "verdict" => verdict = Some(v.as_str()?),
                "t" => {
                    for (tk, tv) in v.as_obj()? {
                        terms.push((tk.clone(), tv.as_f64()?));
                    }
                }
                "m" => {
                    for (ck, cv) in v.as_obj()? {
                        let cv = cv.as_u64()?;
                        if let Some(c) = Counter::from_name(ck) {
                            metrics.push((c, cv));
                        }
                    }
                }
                "h" => {
                    for (hk, hv) in v.as_obj()? {
                        let mut buckets = [0u64; NUM_BUCKETS];
                        let items = hv.as_arr()?;
                        if items.len() != NUM_BUCKETS {
                            return None;
                        }
                        for (slot, b) in buckets.iter_mut().zip(items) {
                            *slot = b.as_u64()?;
                        }
                        if let Some(h) = HistKey::from_name(hk) {
                            hists.push((h, buckets));
                        }
                    }
                }
                _ => return None,
            }
        }
        match ev? {
            "open" => Some(Event::Open {
                seq: seq?,
                id: id?,
                parent,
                name: name?.to_string(),
                attr: attr.map(str::to_string),
            }),
            "close" => Some(Event::Close {
                seq: seq?,
                id: id?,
                metrics,
                hists,
            }),
            "decision" => Some(Event::Decision {
                seq: seq?,
                id: id?,
                kind: kind?.to_string(),
                subject: subject?.to_string(),
                verdict: verdict?.to_string(),
                terms,
            }),
            _ => None,
        }
    }
}

/// Append a line's head: `{"ev":<ev>,"seq":<seq>,"id":<id>`.
pub(crate) fn write_head(out: &mut String, ev: &str, seq: u64, id: u64) {
    out.push_str("{\"ev\":");
    escape_str(out, ev);
    out.push_str(",\"seq\":");
    write_uint(out, seq);
    out.push_str(",\"id\":");
    write_uint(out, id);
}

/// Append an open's tail: `,"parent":…,"name":…,"attr":…}`, each
/// optional field omitted when absent.
pub(crate) fn write_open_tail(
    out: &mut String,
    parent: Option<u64>,
    name: &str,
    attr: Option<&str>,
) {
    if let Some(p) = parent {
        out.push_str(",\"parent\":");
        write_uint(out, p);
    }
    out.push_str(",\"name\":");
    escape_str(out, name);
    if let Some(a) = attr {
        out.push_str(",\"attr\":");
        escape_str(out, a);
    }
    out.push('}');
}

/// Append a close's tail: `,"m":{…}` and, when there are any,
/// `,"h":{…}`, then `}`.
pub(crate) fn write_close_tail(
    out: &mut String,
    metrics: &[(Counter, u64)],
    hists: &[(HistKey, [u64; NUM_BUCKETS])],
) {
    out.push_str(",\"m\":{");
    for (i, &(c, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_str(out, c.name());
        out.push(':');
        write_uint(out, v);
    }
    out.push('}');
    if !hists.is_empty() {
        out.push_str(",\"h\":{");
        for (i, (h, buckets)) in hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_str(out, h.name());
            out.push_str(":[");
            for (j, &n) in buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_uint(out, n);
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push('}');
}

/// Append a decision's tail:
/// `,"kind":…,"subject":…,"verdict":…,"t":{…}}`, the terms in order.
/// A non-finite term is written `null`; the tracer drops those before
/// calling this.
pub(crate) fn write_decision_tail<'a>(
    out: &mut String,
    kind: &str,
    subject: &str,
    verdict: &str,
    terms: impl IntoIterator<Item = (&'a str, f64)>,
) {
    out.push_str(",\"kind\":");
    escape_str(out, kind);
    out.push_str(",\"subject\":");
    escape_str(out, subject);
    out.push_str(",\"verdict\":");
    escape_str(out, verdict);
    out.push_str(",\"t\":{");
    for (i, (k, v)) in terms.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_str(out, k);
        out.push(':');
        write_float(out, v, false);
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_roundtrip() {
        let e = Event::Open {
            seq: 7,
            id: 3,
            parent: Some(1),
            name: "surface".into(),
            attr: Some("0/2 From \"city\"".into()),
        };
        let line = e.to_jsonl();
        assert_eq!(Event::parse(&line), Some(e));
    }

    #[test]
    fn open_without_optionals_roundtrip() {
        let e = Event::Open {
            seq: 0,
            id: 0,
            parent: None,
            name: "acquire".into(),
            attr: None,
        };
        let line = e.to_jsonl();
        assert!(!line.contains("parent"));
        assert!(!line.contains("attr"));
        assert_eq!(Event::parse(&line), Some(e));
    }

    #[test]
    fn close_roundtrip() {
        let e = Event::Close {
            seq: 9,
            id: 3,
            metrics: vec![
                (Counter::EngineHitIssued, 42),
                (Counter::CandidatesExtracted, 7),
            ],
            hists: vec![],
        };
        let line = e.to_jsonl();
        assert_eq!(Event::parse(&line), Some(e));
    }

    #[test]
    fn close_with_hists_roundtrip() {
        let e = Event::Close {
            seq: 4,
            id: 0,
            metrics: vec![(Counter::ProbesIssued, 6)],
            hists: vec![
                (HistKey::CandidatesPerAttr, [0, 1, 2, 0, 0, 0, 0, 3]),
                (HistKey::ProbesPerAttr, [1, 0, 0, 0, 0, 0, 0, 0]),
            ],
        };
        let line = e.to_jsonl();
        assert!(line.contains(r#""h":{"candidates_per_attr":[0,1,2,0,0,0,0,3]"#));
        assert_eq!(Event::parse(&line), Some(e));
    }

    #[test]
    fn hists_with_wrong_bucket_count_are_rejected() {
        let short = r#"{"ev":"close","seq":1,"id":0,"m":{},"h":{"probes_per_attr":[1,2,3]}}"#;
        assert_eq!(Event::parse(short), None);
        let long =
            r#"{"ev":"close","seq":1,"id":0,"m":{},"h":{"probes_per_attr":[1,2,3,4,5,6,7,8,9]}}"#;
        assert_eq!(Event::parse(long), None);
    }

    #[test]
    fn unknown_hist_names_are_skipped() {
        let line = r#"{"ev":"close","seq":1,"id":0,"m":{},"h":{"future_hist":[1,0,0,0,0,0,0,0]}}"#;
        assert_eq!(
            Event::parse(line),
            Some(Event::Close {
                seq: 1,
                id: 0,
                metrics: vec![],
                hists: vec![],
            })
        );
    }

    #[test]
    fn close_with_empty_metrics_roundtrip() {
        let e = Event::Close {
            seq: 1,
            id: 0,
            metrics: vec![],
            hists: vec![],
        };
        assert_eq!(Event::parse(&e.to_jsonl()), Some(e));
    }

    #[test]
    fn escaping_of_special_and_unicode_chars() {
        let e = Event::Open {
            seq: 1,
            id: 1,
            parent: None,
            name: "n".into(),
            attr: Some("a\\b\"c\nd\té—\u{1}".into()),
        };
        assert_eq!(Event::parse(&e.to_jsonl()), Some(e));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "{}",
            "not json",
            r#"{"ev":"open","seq":1}"#,         // missing id
            r#"{"ev":"weird","seq":1,"id":2}"#, // unknown ev
            r#"{"ev":"open","seq":1,"id":2,"name":"x"} trailing"#,
            r#"{"unknown":1}"#,
        ] {
            assert_eq!(Event::parse(bad), None, "accepted: {bad}");
        }
    }

    #[test]
    fn decision_roundtrip() {
        let e = Event::Decision {
            seq: 5,
            id: 2,
            kind: "instance_validate".into(),
            subject: "rome".into(),
            verdict: "accept".into(),
            terms: vec![
                ("pmi".into(), 0.004_2),
                ("joint".into(), 17.0),
                ("threshold".into(), 0.0),
            ],
        };
        let line = e.to_jsonl();
        assert!(line.starts_with(r#"{"ev":"decision","seq":5,"id":2,"kind":"instance_validate""#));
        assert!(line.contains(r#""t":{"pmi":0.0042,"joint":17,"threshold":0}"#));
        assert_eq!(Event::parse(&line), Some(e));
    }

    #[test]
    fn decision_with_no_terms_roundtrip() {
        let e = Event::Decision {
            seq: 0,
            id: 0,
            kind: "borrow_reuse".into(),
            subject: "(a, b)".into(),
            verdict: "reuse".into(),
            terms: vec![],
        };
        assert_eq!(Event::parse(&e.to_jsonl()), Some(e));
    }

    #[test]
    fn decision_float_edge_values_roundtrip() {
        for v in [-3.5, 1e-9, 123_456_789.25, f64::MIN_POSITIVE, -0.0] {
            let e = Event::Decision {
                seq: 1,
                id: 1,
                kind: "k".into(),
                subject: "s".into(),
                verdict: "v".into(),
                terms: vec![("x".into(), v)],
            };
            let parsed = Event::parse(&e.to_jsonl());
            let Some(Event::Decision { terms, .. }) = parsed else {
                panic!("decision failed to parse for {v}");
            };
            assert_eq!(terms[0].1.to_bits(), v.to_bits(), "value {v}");
        }
    }

    #[test]
    fn malformed_decisions_are_rejected() {
        for bad in [
            // missing verdict
            r#"{"ev":"decision","seq":1,"id":0,"kind":"k","subject":"s","t":{}}"#,
            // non-finite term
            r#"{"ev":"decision","seq":1,"id":0,"kind":"k","subject":"s","verdict":"v","t":{"x":inf}}"#,
            // unterminated terms map
            r#"{"ev":"decision","seq":1,"id":0,"kind":"k","subject":"s","verdict":"v","t":{"x":1"#,
        ] {
            assert_eq!(Event::parse(bad), None, "accepted: {bad}");
        }
    }

    #[test]
    fn unknown_counter_names_are_skipped() {
        let line = r#"{"ev":"close","seq":1,"id":0,"m":{"future_counter":3,"probes_issued":2}}"#;
        assert_eq!(
            Event::parse(line),
            Some(Event::Close {
                seq: 1,
                id: 0,
                metrics: vec![(Counter::ProbesIssued, 2)],
                hists: vec![],
            })
        );
    }
}
