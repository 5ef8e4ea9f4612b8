//! Every committed JSON artifact and trace is pinned to the workspace
//! codec (`webiq::trace::json`): the pretty files and the JSONL traces
//! re-encode to their exact bytes, and the reports' `--json` output
//! parses. A drift between how a file was written and how the codec
//! reads or writes it fails here, before any gate compares bytes.

use std::path::Path;

use webiq::obs::diff_events;
use webiq::trace::json::Json;
use webiq::trace::Event;
use webiq::why::diff_decisions;

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn events(name: &str) -> Vec<Event> {
    read(name)
        .lines()
        .map(|l| Event::parse(l).unwrap_or_else(|| panic!("{name}: unparseable line {l}")))
        .collect()
}

#[test]
fn pretty_artifacts_reencode_byte_for_byte() {
    for name in [
        "OBS_BASELINE.json",
        "STORE_BASELINE.json",
        "EXPERIMENTS_BASELINE.json",
        "BENCH_flow.json",
    ] {
        let text = read(name);
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(doc.pretty() + "\n", text, "{name} does not re-encode");
    }
}

#[test]
fn trace_lines_reencode_byte_for_byte() {
    for name in ["OBS_BASELINE.jsonl", "WHY_BASELINE.jsonl"] {
        let text = read(name);
        assert!(text.ends_with('\n'), "{name}: no trailing newline");
        for (i, line) in text.lines().enumerate() {
            let event = Event::parse(line).unwrap_or_else(|| panic!("{name}:{}: parse", i + 1));
            assert_eq!(
                event.to_jsonl(),
                line,
                "{name}:{} does not re-encode",
                i + 1
            );
        }
    }
}

#[test]
fn flow_baseline_parses() {
    // written by webiq-lint's own writer (lint has no dependencies)
    let doc = Json::parse(&read("FLOW_BASELINE.json")).expect("FLOW_BASELINE.json parses");
    assert!(doc.get("certificates").and_then(Json::as_arr).is_some());
}

#[test]
fn report_json_parses() {
    // Against an empty candidate every counter, stage, quantile and
    // span counter of the trace diff moves.
    let r = diff_events("base \"x\"", &events("OBS_BASELINE.jsonl"), "cand", &[]);
    let doc = Json::parse(&r.to_json()).expect("DiffReport::to_json parses");
    assert_eq!(doc.get("baseline"), Some(&Json::from("base \"x\"")));
    for section in ["counters", "stages", "quantiles", "spans", "failures"] {
        let items = doc.get(section).and_then(Json::as_arr);
        assert!(items.is_some_and(|a| !a.is_empty()), "{section} empty");
    }

    let base = events("WHY_BASELINE.jsonl");
    let mut cand = base.clone();
    for (i, e) in cand.iter_mut().enumerate() {
        if let Event::Decision { verdict, terms, .. } = e {
            if i % 2 == 0 {
                verdict.push('!'); // a flip; odd decisions only drift
            }
            terms.iter_mut().for_each(|t| t.1 += 1.0);
        }
    }
    let r = diff_decisions("base", &base, "cand", &cand);
    let doc = Json::parse(&r.to_json()).expect("DecisionDiff::to_json parses");
    for section in ["flips", "drift"] {
        let items = doc.get(section).and_then(Json::as_arr);
        assert!(items.is_some_and(|a| !a.is_empty()), "{section} empty");
    }
}
