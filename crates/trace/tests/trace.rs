//! Integration tests for webiq-trace: span nesting, deterministic
//! counter merge, the JSONL output, and the work-item buffer lifecycle.

use webiq_trace::{
    add, incr, report, snapshot, span, span_attr, Counter, Event, HistKey, MetricSet, SharedBuf,
    Tracer,
};

/// Simulate one traced work item: a root "attribute" span containing a
/// nested "surface" span and some counter activity.
fn run_item(tracer: &Tracer, label: &str, hits: u64) -> webiq_trace::ItemBuf {
    let item = tracer.item("attribute", label);
    {
        let _surface = span("surface");
        add(Counter::EngineHitIssued, hits);
        {
            let _extract = span_attr("extract", "cue-phrase");
            incr(Counter::CandidatesExtracted);
        }
    }
    incr(Counter::AttrsTotal);
    item.finish()
}

#[test]
fn span_nesting_parents_are_correct() {
    let (tracer, handle) = Tracer::memory();
    let scope = tracer.scope("acquire", "book");
    tracer.submit(run_item(&tracer, "a1", 3));
    drop(scope);

    let events = handle.events();
    // scope open, item open, surface open, extract open, extract close,
    // surface close, item close, scope close
    assert_eq!(events.len(), 8);
    // seq is the logical clock: 0..n in order
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq(), i as u64, "seq gap at {e:?}");
    }
    let (scope_id, item_id, surface_id, extract_id) = (
        events[0].id(),
        events[1].id(),
        events[2].id(),
        events[3].id(),
    );
    let parent_of = |i: usize| match &events[i] {
        Event::Open { parent, .. } => *parent,
        _ => panic!("expected open"),
    };
    assert_eq!(parent_of(0), None, "scope is a root");
    assert_eq!(parent_of(1), Some(scope_id), "item nests under scope");
    assert_eq!(parent_of(2), Some(item_id), "surface nests under item");
    assert_eq!(
        parent_of(3),
        Some(surface_id),
        "extract nests under surface"
    );
    // closes come innermost-first
    assert_eq!(events[4].id(), extract_id);
    assert_eq!(events[5].id(), surface_id);
    assert_eq!(events[6].id(), item_id);
    assert_eq!(events[7].id(), scope_id);
}

#[test]
fn span_close_deltas_nest_correctly() {
    let (tracer, handle) = Tracer::memory();
    tracer.submit(run_item(&tracer, "a1", 3));
    let events = handle.events();
    let close_metrics = |id: u64| -> MetricSet {
        let mut m = MetricSet::new();
        for e in &events {
            if let Event::Close {
                id: cid, metrics, ..
            } = e
            {
                if *cid == id {
                    for &(c, v) in metrics {
                        m.add(c, v);
                    }
                }
            }
        }
        m
    };
    let (item_id, surface_id, extract_id) = (events[0].id(), events[1].id(), events[2].id());
    // extract saw only the candidate counter
    assert_eq!(
        close_metrics(extract_id).get(Counter::CandidatesExtracted),
        1
    );
    assert_eq!(close_metrics(extract_id).get(Counter::EngineHitIssued), 0);
    // surface saw its own hits plus the nested extract activity
    assert_eq!(close_metrics(surface_id).get(Counter::EngineHitIssued), 3);
    assert_eq!(
        close_metrics(surface_id).get(Counter::CandidatesExtracted),
        1
    );
    // the item root additionally saw the counter bumped outside the spans
    assert_eq!(close_metrics(item_id).get(Counter::AttrsTotal), 1);
    assert_eq!(close_metrics(item_id).get(Counter::EngineHitIssued), 3);
}

#[test]
fn counter_merge_is_deterministic_across_submit_threads() {
    // Build items on four racing threads, then submit in item order —
    // the JSONL stream must be byte-identical to a sequential build.
    let streams: Vec<String> = [1usize, 4]
        .iter()
        .map(|&threads| {
            let buf = SharedBuf::new();
            let tracer = Tracer::jsonl(Box::new(buf.clone()));
            let scope = tracer.scope("acquire", "test");
            let labels: Vec<String> = (0..8).map(|i| format!("attr{i}")).collect();
            let mut bufs: Vec<(usize, webiq_trace::ItemBuf)> = if threads == 1 {
                labels
                    .iter()
                    .enumerate()
                    .map(|(i, l)| (i, run_item(&tracer, l, i as u64)))
                    .collect()
            } else {
                std::thread::scope(|s| {
                    let handles: Vec<_> = labels
                        .iter()
                        .enumerate()
                        .map(|(i, l)| {
                            let tracer = &tracer;
                            s.spawn(move || (i, run_item(tracer, l, i as u64)))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("worker"))
                        .collect()
                })
            };
            bufs.sort_by_key(|&(i, _)| i);
            for (_, b) in bufs {
                tracer.submit(b);
            }
            drop(scope);
            tracer.flush();
            buf.contents_string()
        })
        .collect();
    assert!(!streams[0].is_empty());
    assert_eq!(
        streams[0], streams[1],
        "streams differ across thread counts"
    );
}

#[test]
fn totals_accumulate_and_scope_close_carries_rollup() {
    let (tracer, handle) = Tracer::memory();
    let scope = tracer.scope("acquire", "book");
    tracer.submit(run_item(&tracer, "a", 2));
    tracer.submit(run_item(&tracer, "b", 5));
    drop(scope);
    let events = handle.events();
    let totals = report::aggregate_run(&events);
    assert_eq!(totals.counters.get(Counter::EngineHitIssued), 7);
    assert_eq!(totals.counters.get(Counter::AttrsTotal), 2);
    // the scope close event carries the same rollup
    let Some(Event::Close { metrics, .. }) = events.last() else {
        panic!("expected close last");
    };
    let hits = metrics
        .iter()
        .find(|(c, _)| *c == Counter::EngineHitIssued)
        .map(|&(_, v)| v);
    assert_eq!(hits, Some(7));
}

#[test]
fn disabled_tracer_still_yields_item_deltas() {
    let tracer = Tracer::disabled();
    assert!(!tracer.enabled());
    let buf = run_item(&tracer, "a", 4);
    assert!(!buf.is_traced(), "no events expected when disabled");
    assert_eq!(buf.totals().get(Counter::EngineHitIssued), 4);
    assert_eq!(buf.totals().get(Counter::AttrsTotal), 1);
    // submitting is a no-op
    tracer.submit(buf);
}

#[test]
fn histograms_reach_the_item_close() {
    let (tracer, handle) = Tracer::memory();
    let item = tracer.item("attribute", "a");
    webiq_trace::observe(HistKey::CandidatesPerAttr, 12);
    tracer.submit(item.finish());
    let totals = report::aggregate_run(&handle.events());
    assert_eq!(totals.hists.count(HistKey::CandidatesPerAttr), 1);
}

#[test]
fn jsonl_stream_roundtrips_through_the_parser() {
    let buf = SharedBuf::new();
    let tracer = Tracer::jsonl(Box::new(buf.clone()));
    let scope = tracer.scope("acquire", "book");
    tracer.submit(run_item(&tracer, "label with \"quotes\"", 1));
    drop(scope);
    tracer.flush();
    let text = buf.contents_string();
    let events: Vec<Event> = text
        .lines()
        .map(|l| Event::parse(l).expect("parse"))
        .collect();
    assert_eq!(events.len(), 8);
    let m = report::aggregate(&events);
    assert_eq!(m.get(Counter::EngineHitIssued), 1);
}

#[test]
fn dropped_unfinished_item_leaves_thread_reusable() {
    let (tracer, handle) = Tracer::memory();
    {
        let _item = tracer.item("attribute", "abandoned");
        incr(Counter::AttrsTotal);
        // dropped without finish(): events discarded, ambient slot freed
    }
    tracer.submit(run_item(&tracer, "next", 1));
    let events = handle.events();
    assert_eq!(events.len(), 6, "only the finished item's events remain");
    // thread-local counters are global to the thread, not reset by drops
    let before = snapshot();
    incr(Counter::AttrsTotal);
    assert_eq!(snapshot().diff(&before).get(Counter::AttrsTotal), 1);
}

#[test]
fn out_of_order_guard_drop_is_forgiving() {
    let (tracer, handle) = Tracer::memory();
    let item = tracer.item("attribute", "a");
    let outer = span("outer");
    let inner = span("inner");
    drop(outer); // closes inner too (forgiving close-to-target)
    drop(inner); // already closed: no-op
    tracer.submit(item.finish());
    let events = handle.events();
    // item open, outer open, inner open, inner close, outer close, item close
    assert_eq!(events.len(), 6);
    assert_eq!(events[3].id(), events[2].id());
    assert_eq!(events[4].id(), events[1].id());
    assert_eq!(events[5].id(), events[0].id());
}

#[test]
fn ambient_span_without_item_is_inert() {
    let before = snapshot();
    {
        let _s = span("orphan");
        incr(Counter::ClusterMerges);
    }
    assert_eq!(snapshot().diff(&before).get(Counter::ClusterMerges), 1);
}

#[test]
fn decisions_anchor_to_the_enclosing_span_and_remap_on_submit() {
    let (tracer, handle) = Tracer::memory();
    let scope = tracer.scope("acquire", "book");
    let item = tracer.item("attribute", "0/0 Title");
    {
        let _verify = span("verify");
        webiq_trace::decision(
            "instance_validate",
            "rome",
            "accept",
            &[("pmi", 0.25), ("joint", 17.0), ("bad", f64::NAN)],
        );
    }
    tracer.submit(item.finish());
    drop(scope);

    let events = handle.events();
    // scope open, item open, verify open, decision, verify close,
    // item close, scope close
    assert_eq!(events.len(), 7);
    let verify_id = events[2].id();
    let Event::Decision {
        seq,
        id,
        kind,
        subject,
        verdict,
        terms,
    } = &events[3]
    else {
        panic!("expected decision, got {:?}", events[3]);
    };
    assert_eq!(*seq, 3);
    assert_eq!(*id, verify_id, "decision anchors to the verify span");
    assert_eq!(kind, "instance_validate");
    assert_eq!(subject, "rome");
    assert_eq!(verdict, "accept");
    // the NaN term was dropped at record time
    assert_eq!(
        terms,
        &vec![("pmi".to_string(), 0.25), ("joint".to_string(), 17.0)]
    );
}

#[test]
fn decisions_outside_a_traced_item_are_noops() {
    // no tracer installed at all
    webiq_trace::decision("instance_validate", "x", "accept", &[("pmi", 1.0)]);
    // enabled tracer, but no item on this thread
    let (tracer, handle) = Tracer::memory();
    let scope = tracer.scope("acquire", "book");
    webiq_trace::decision("instance_validate", "y", "reject", &[]);
    drop(scope);
    drop(tracer);
    assert_eq!(handle.events().len(), 2, "only scope open/close emitted");
}
