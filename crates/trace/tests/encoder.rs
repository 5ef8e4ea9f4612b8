//! The direct JSONL encoder against the `Json`-tree encoder it replaced
//! (`support/reference.rs`), on a seeded sweep of hostile inputs:
//! strings with every control character, quotes, backslashes, `\u{7f}`,
//! `\u{2028}`, non-ASCII letters and empty strings; floats at the edges
//! of the shortest round-trip form; integers past `i64::MAX`; decisions
//! with no terms and with 40. Both [`Event::to_jsonl`] and the bytes a
//! [`Tracer`] writes for recorded items must equal the reference's.

#[path = "support/reference.rs"]
mod reference;

use webiq_rng::{prop, StdRng};
use webiq_trace::{
    add, decision, observe, span, span_attr, Counter, Event, HistKey, HistSet, MetricSet,
    SpanGuard, Tracer,
};

/// Quotes, backslashes, every control character, DEL, the line
/// separator, and a few non-ASCII letters.
fn hostile() -> &'static [char] {
    let mut s: String = (0u8..0x20).map(char::from).collect();
    s.push_str("\"\\\u{7f}\u{2028}/ aZ0éß中🚀");
    prop::charset(&s)
}

fn text(rng: &mut StdRng) -> String {
    rng.gen_string(hostile(), 0, 6)
}

/// A leaked copy, for the tracer's `&'static str` names.
fn static_text(rng: &mut StdRng) -> &'static str {
    Box::leak(text(rng).into_boxed_str())
}

const EDGE_FLOATS: [f64; 20] = [
    -0.0,
    0.0,
    5e-324,
    1e-310,
    f64::MIN_POSITIVE,
    1e21,
    1e-7,
    f64::MAX,
    f64::MIN,
    1.0,
    17.0,
    -3.0,
    1e16,
    123_456_789.0,
    0.1,
    2.5e-8,
    0.004_2,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// An edge value, or any bit pattern (NaNs included).
fn float(rng: &mut StdRng) -> f64 {
    if rng.gen_bool(0.5) {
        EDGE_FLOATS[rng.gen_range(0..EDGE_FLOATS.len())]
    } else {
        f64::from_bits(rng.next_u64())
    }
}

/// A small count, or any `u64` (past `i64::MAX` too).
fn count(rng: &mut StdRng) -> u64 {
    if rng.gen_bool(0.2) {
        rng.next_u64()
    } else {
        rng.gen_range(0..1000u64)
    }
}

/// No terms, 40 terms, or a few.
fn terms(rng: &mut StdRng) -> Vec<(String, f64)> {
    let n = match rng.gen_range(0..4usize) {
        0 => 0,
        1 => 40,
        _ => rng.gen_range(1..8usize),
    };
    (0..n).map(|_| (text(rng), float(rng))).collect()
}

fn event(rng: &mut StdRng) -> Event {
    let (seq, id) = (count(rng), count(rng));
    match rng.gen_range(0..3usize) {
        0 => Event::Open {
            seq,
            id,
            parent: rng.gen_bool(0.5).then(|| count(rng)),
            name: text(rng),
            attr: rng.gen_bool(0.5).then(|| text(rng)),
        },
        1 => {
            let mut metrics = Vec::new();
            for &c in &Counter::ALL {
                if rng.gen_bool(0.1) {
                    metrics.push((c, count(rng)));
                }
            }
            let mut hists = Vec::new();
            for &h in &HistKey::ALL {
                if rng.gen_bool(0.5) {
                    hists.push((h, [0; 8].map(|_: u64| count(rng))));
                }
            }
            Event::Close {
                seq,
                id,
                metrics,
                hists,
            }
        }
        _ => Event::Decision {
            seq,
            id,
            kind: text(rng),
            subject: text(rng),
            verdict: text(rng),
            terms: terms(rng),
        },
    }
}

/// Whether [`Event::parse`] reads the event back: every float finite.
fn parses_back(e: &Event) -> bool {
    match e {
        Event::Decision { terms, .. } => terms.iter().all(|(_, v)| v.is_finite()),
        Event::Open { .. } | Event::Close { .. } => true,
    }
}

#[test]
fn to_jsonl_equals_the_json_tree_encoder() {
    prop::cases(512, |rng| {
        let e = event(rng);
        let line = e.to_jsonl();
        assert_eq!(line, reference::to_jsonl(&e), "{e:?}");
        // JSON forbids raw control characters inside strings, and a raw
        // newline would split the line
        assert!(
            line.bytes().all(|b| b >= 0x20),
            "raw control byte: {line:?}"
        );
        if parses_back(&e) {
            assert_eq!(Event::parse(&line), Some(e), "{line}");
        }
    });
}

/// One step of a recorded work item.
enum Op {
    Open(&'static str, Option<String>),
    Close,
    Decide {
        kind: &'static str,
        subject: String,
        verdict: &'static str,
        terms: Vec<(String, f64)>,
    },
    Add(Counter, u64),
    Observe(HistKey, u64),
}

struct Item {
    name: &'static str,
    attr: String,
    ops: Vec<Op>,
}

fn item(rng: &mut StdRng) -> Item {
    let ops = (0..rng.gen_range(0..24usize))
        .map(|_| match rng.gen_range(0..6usize) {
            0 => Op::Open(static_text(rng), rng.gen_bool(0.5).then(|| text(rng))),
            1 => Op::Close,
            2 | 3 => Op::Decide {
                kind: static_text(rng),
                subject: text(rng),
                verdict: static_text(rng),
                terms: terms(rng),
            },
            4 => Op::Add(
                Counter::ALL[rng.gen_range(0..Counter::ALL.len())],
                rng.gen_range(0..5u64),
            ),
            _ => Op::Observe(
                HistKey::ALL[rng.gen_range(0..HistKey::ALL.len())],
                count(rng),
            ),
        })
        .collect();
    Item {
        name: static_text(rng),
        attr: text(rng),
        ops,
    }
}

/// Record `it` on `tracer` through the ambient API, as pipeline code
/// does, and return its buffer.
fn record(tracer: &Tracer, it: &Item, close_guards_first: bool) -> webiq_trace::ItemBuf {
    let trace = tracer.item(it.name, it.attr.as_str());
    let mut guards: Vec<SpanGuard> = Vec::new();
    for op in &it.ops {
        match op {
            Op::Open(name, None) => guards.push(span(name)),
            Op::Open(name, Some(attr)) => guards.push(span_attr(name, attr.as_str())),
            Op::Close => drop(guards.pop()),
            Op::Decide {
                kind,
                subject,
                verdict,
                terms,
            } => {
                let refs: Vec<(&str, f64)> = terms.iter().map(|(k, v)| (k.as_str(), *v)).collect();
                decision(kind, subject, verdict, &refs);
            }
            Op::Add(c, n) => add(*c, *n),
            Op::Observe(h, v) => observe(*h, *v),
        }
    }
    // Spans left open close as their guards drop or, when they outlive
    // the item, at finish: the same events, since nothing is counted in
    // between.
    if close_guards_first {
        guards.clear();
    }
    trace.finish()
}

/// The events the tracer must write for `items`, submitted in order
/// under an optional scope: ids, parents, the logical clock, counter
/// deltas per span, hists on item roots and the scope only, and no
/// non-finite term.
fn model(scope: Option<(&str, &str)>, items: &[Item]) -> Vec<Event> {
    let mut out = Vec::new();
    let seq = |out: &Vec<Event>| out.len() as u64;
    let close = |out: &mut Vec<Event>, id, m: &MetricSet, h: &HistSet| {
        let (metrics, hists) = (m.nonzero(), h.nonzero());
        out.push(Event::Close {
            seq: seq(out),
            id,
            metrics,
            hists,
        });
    };
    let mut next_id = 0u64;
    let scope_id = scope.map(|(name, attr)| {
        out.push(Event::Open {
            seq: 0,
            id: 0,
            parent: None,
            name: name.into(),
            attr: Some(attr.into()),
        });
        next_id = 1;
        0
    });
    let (mut scope_counters, mut scope_hists) = (MetricSet::new(), HistSet::new());
    for it in items {
        let base = next_id;
        let mut hists = HistSet::new();
        out.push(Event::Open {
            seq: seq(&out),
            id: base,
            parent: scope_id,
            name: it.name.into(),
            attr: Some(it.attr.clone()),
        });
        next_id += 1;
        // open spans: global id and the counters seen since they opened
        let mut stack: Vec<(u64, MetricSet)> = vec![(base, MetricSet::new())];
        for op in &it.ops {
            match op {
                Op::Open(name, attr) => {
                    out.push(Event::Open {
                        seq: seq(&out),
                        id: next_id,
                        parent: stack.last().map(|&(p, _)| p),
                        name: (*name).into(),
                        attr: attr.clone(),
                    });
                    stack.push((next_id, MetricSet::new()));
                    next_id += 1;
                }
                Op::Close if stack.len() > 1 => {
                    if let Some((id, m)) = stack.pop() {
                        close(&mut out, id, &m, &HistSet::new());
                    }
                }
                Op::Close => {}
                Op::Decide {
                    kind,
                    subject,
                    verdict,
                    terms,
                } => out.push(Event::Decision {
                    seq: seq(&out),
                    id: stack.last().map_or(base, |&(p, _)| p),
                    kind: (*kind).into(),
                    subject: subject.clone(),
                    verdict: (*verdict).into(),
                    terms: terms
                        .iter()
                        .filter(|(_, v)| v.is_finite())
                        .cloned()
                        .collect(),
                }),
                Op::Add(c, n) => stack.iter_mut().for_each(|(_, m)| m.add(*c, *n)),
                Op::Observe(h, v) => hists.observe(*h, *v),
            }
        }
        while let Some((id, m)) = stack.pop() {
            if id == base {
                scope_counters.merge(&m);
                scope_hists.merge(&hists);
                close(&mut out, id, &m, &hists);
            } else {
                close(&mut out, id, &m, &HistSet::new());
            }
        }
    }
    if let Some(id) = scope_id {
        close(&mut out, id, &scope_counters, &scope_hists);
    }
    out
}

#[test]
fn tracer_writes_the_json_tree_encoders_bytes() {
    prop::cases(128, |rng| {
        let scope = rng.gen_bool(0.7).then(|| (static_text(rng), text(rng)));
        let items: Vec<Item> = (0..rng.gen_range(0..5usize)).map(|_| item(rng)).collect();
        let (tracer, handle) = Tracer::memory();
        let guard = scope
            .as_ref()
            .map(|(name, attr)| tracer.scope(name, attr.as_str()));
        for it in &items {
            let buf = record(&tracer, it, rng.gen_bool(0.5));
            tracer.submit(buf);
        }
        drop(guard);

        let expected = model(scope.as_ref().map(|(n, a)| (*n, a.as_str())), &items);
        let bytes: String = expected
            .iter()
            .map(|e| reference::to_jsonl(e) + "\n")
            .collect();
        let jsonl = handle.jsonl();
        assert_eq!(jsonl, bytes);
        assert!(jsonl.bytes().all(|b| b >= 0x20 || b == b'\n'), "{jsonl:?}");
        // the memory handle parses the same bytes back
        assert_eq!(handle.events(), expected);
    });
}
