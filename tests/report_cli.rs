//! End-to-end tests of the `webiq-report` binary: funnel rendering,
//! the `diff` regression gate, stdin input, and error reporting. These
//! pin the contract the CI trace-regression step depends on — exact
//! exit codes and the wording the gate greps for.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use webiq::trace::{Counter, Event, HistKey, HistSet};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_webiq-report"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Run with `stdin_data` piped to the child's stdin.
fn report_stdin(args: &[&str], stdin_data: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_webiq-report"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // A child that rejects its arguments exits without reading stdin and
    // so may close the pipe first; its exit status is what callers check.
    let written = child
        .stdin
        .take()
        .expect("stdin handle")
        .write_all(stdin_data.as_bytes());
    if let Err(e) = written {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "write stdin: {e}");
    }
    child.wait_with_output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A tiny synthetic trace: one root span whose close carries the given
/// validation counters and one probe-histogram observation.
fn trace_jsonl(accepted: u64, rejected: u64, probe_val: u64) -> String {
    let mut hist = HistSet::new();
    hist.observe(HistKey::ProbesPerAttr, probe_val);
    let events = [
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
                (Counter::AttrsTotal, 10),
                (Counter::ValidationAccepted, accepted),
                (Counter::ValidationRejected, rejected),
                (Counter::ProbesIssued, 40),
                (Counter::ProbeMatched, 30),
            ],
            hists: hist.nonzero(),
        },
    ];
    events.iter().fold(String::new(), |mut acc, e| {
        acc.push_str(&e.to_jsonl());
        acc.push('\n');
        acc
    })
}

/// A tiny decision-bearing trace: one acquire root, one attribute span,
/// and a `bayes_verify` decision with the given verdict and posterior.
fn decision_trace(verdict: &str, posterior: f64) -> String {
    let events = [
        Event::Open {
            seq: 0,
            id: 0,
            parent: None,
            name: "acquire".into(),
            attr: Some("book".into()),
        },
        Event::Open {
            seq: 1,
            id: 1,
            parent: Some(0),
            name: "attribute".into(),
            attr: Some("0/3 author".into()),
        },
        Event::Decision {
            seq: 2,
            id: 1,
            kind: "bayes_verify".into(),
            subject: "writer".into(),
            verdict: verdict.into(),
            terms: vec![("posterior".into(), posterior), ("prior_pos".into(), 0.5)],
        },
        Event::Close {
            seq: 3,
            id: 1,
            metrics: vec![],
            hists: vec![],
        },
        Event::Close {
            seq: 4,
            id: 0,
            metrics: vec![],
            hists: vec![],
        },
    ];
    events.iter().fold(String::new(), |mut acc, e| {
        acc.push_str(&e.to_jsonl());
        acc.push('\n');
        acc
    })
}

/// Write `contents` into a unique temp file and return its path.
fn temp_trace(tag: &str, contents: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("webiq-report-{}-{tag}.jsonl", std::process::id()));
    std::fs::write(&path, contents).expect("write fixture");
    path
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

#[test]
fn renders_funnel_from_trace_file() {
    let path = temp_trace("render", &trace_jsonl(75, 25, 3));
    let out = report(&[path_str(&path)]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("attrs"), "no funnel in:\n{text}");
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn diff_of_identical_runs_is_zero_and_exits_0() {
    let path = temp_trace("identical", &trace_jsonl(75, 25, 3));
    let out = report(&["diff", path_str(&path), path_str(&path)]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("zero deltas"), "{text}");
    assert!(text.contains("verdict: OK"), "{text}");
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn injected_acceptance_drop_exits_nonzero_and_names_the_stage() {
    // verify rate 0.75 -> 0.55.
    let base = temp_trace("base", &trace_jsonl(75, 25, 3));
    let cand = temp_trace("cand", &trace_jsonl(55, 45, 3));
    let out = report(&["diff", path_str(&base), path_str(&cand)]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("stage verify"), "{text}");
    assert!(text.contains("verdict: REGRESSION"), "{text}");
    std::fs::remove_file(&base).expect("cleanup");
    std::fs::remove_file(&cand).expect("cleanup");
}

#[test]
fn one_count_changes_exit_1_naming_both_counters() {
    // A 1.3% fall, a 4% rise and a 0.01 rate drop: the pipeline is
    // deterministic, so any delta is a regression.
    let base = temp_trace("small-base", &trace_jsonl(75, 25, 3));
    let cand = temp_trace("small-cand", &trace_jsonl(74, 26, 3));
    let out = report(&["diff", path_str(&base), path_str(&cand)]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("counter validation_accepted"), "{text}");
    assert!(text.contains("counter validation_rejected"), "{text}");
    assert!(text.contains("verdict: REGRESSION"), "{text}");
    std::fs::remove_file(&base).expect("cleanup");
    std::fs::remove_file(&cand).expect("cleanup");
}

#[test]
fn nested_count_change_exits_1_naming_the_span_and_counter() {
    // One more engine query on a nested close (line 20, the first
    // `bayes_verify` span's) leaves every root total as it was: only
    // the span-name totals can see it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let baseline = std::fs::read_to_string(root.join("OBS_BASELINE.jsonl")).expect("baseline");
    let mutated: String = baseline
        .lines()
        .enumerate()
        .map(|(i, line)| {
            let line = if i == 19 {
                assert!(
                    line.contains(r#""id":3,"m":{"engine_hit_issued":252,"#),
                    "{line}"
                );
                line.replacen(":252,", ":253,", 1)
            } else {
                line.to_string()
            };
            line + "\n"
        })
        .collect();
    assert_ne!(mutated, baseline);
    let cand = temp_trace("nested-cand", &mutated);
    let base = root.join("OBS_BASELINE.jsonl");
    let out = report(&["diff", path_str(&base), path_str(&cand)]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(!text.contains("counters changed:\n"), "{text}");
    assert!(
        text.contains("span bayes_verify counter engine_hit_issued"),
        "{text}"
    );
    assert!(text.contains("verdict: REGRESSION"), "{text}");
    std::fs::remove_file(&cand).expect("cleanup");
}

#[test]
fn diff_json_output_carries_the_verdict() {
    let base = temp_trace("jbase", &trace_jsonl(75, 25, 3));
    let cand = temp_trace("jcand", &trace_jsonl(55, 45, 3));
    let out = report(&["diff", "--json", path_str(&base), path_str(&cand)]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"regressed\":true"), "{text}");
    assert!(text.contains("\"stage verify\""), "{text}");
    std::fs::remove_file(&base).expect("cleanup");
    std::fs::remove_file(&cand).expect("cleanup");
}

#[test]
fn dash_reads_the_trace_from_stdin() {
    let trace = trace_jsonl(75, 25, 3);
    let path = temp_trace("stdin", &trace);
    let out = report_stdin(&["diff", "-", path_str(&path)], &trace);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("zero deltas"), "{}", stdout(&out));

    // Render mode takes stdin too.
    let out = report_stdin(&["-"], &trace);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("attrs"), "{}", stdout(&out));

    // Two stdins cannot both be read.
    let out = report_stdin(&["diff", "-", "-"], &trace);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("one input may be"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn malformed_trace_reports_file_and_line() {
    let good = trace_jsonl(1, 1, 1);
    let first_line = good.lines().next().expect("fixture has lines");
    let path = temp_trace("bad", &format!("{first_line}\nnot json\n"));
    let out = report(&[path_str(&path)]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    let expected = format!("{}:2", path_str(&path));
    assert!(err.contains(&expected), "{err}");
    assert!(err.contains("not a valid trace event"), "{err}");

    // The diff gate reports the same error but exits 2 (gate could not
    // run — distinct from exit 1, a regression verdict).
    let ok = temp_trace("ok", &good);
    let out = report(&["diff", path_str(&ok), path_str(&path)]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains(&expected), "{}", stderr(&out));
    std::fs::remove_file(&path).expect("cleanup");
    std::fs::remove_file(&ok).expect("cleanup");
}

#[test]
fn a_trace_missing_an_open_line_is_malformed_and_exits_2() {
    // Without line 4, the first `bayes_verify` span's open, its close
    // (line 20, line 19 of the copy) closes a span that never opened.
    // The decisions between them keep their span id and stay valid.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let base = root.join("OBS_BASELINE.jsonl");
    let baseline = std::fs::read_to_string(&base).expect("baseline");
    let lines: Vec<&str> = baseline.lines().collect();
    assert!(
        lines[3].starts_with(r#"{"ev":"open","seq":3,"id":3,"#),
        "{}",
        lines[3]
    );
    assert!(
        lines[19].starts_with(r#"{"ev":"close","seq":19,"id":3,"#),
        "{}",
        lines[19]
    );
    let lost: String = lines
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 3)
        .map(|(_, line)| format!("{line}\n"))
        .collect();
    let cand = temp_trace("lost-open", &lost);
    let out = report(&["diff", path_str(&base), path_str(&cand)]);
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    let err = stderr(&out);
    let expected = format!("{}:19: not a valid trace event", path_str(&cand));
    assert!(err.contains(&expected), "{err}");
    std::fs::remove_file(&cand).expect("cleanup");
}

#[test]
fn decisions_diff_of_identical_streams_exits_0() {
    let path = temp_trace("dident", &decision_trace("accept", 0.81));
    let out = report(&["diff", "--decisions", path_str(&path), path_str(&path)]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("zero deltas: decision streams are identical"),
        "{text}"
    );
    assert!(text.contains("verdict: OK"), "{text}");
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn injected_decision_flip_exits_1_naming_pair_and_dominant_delta() {
    // The verdict flips accept -> reject after the posterior collapses;
    // the gate must name the decision and the evidence term that moved
    // most. This wording is what the CI decision gate surfaces.
    let base = temp_trace("dbase", &decision_trace("accept", 0.81));
    let cand = temp_trace("dcand", &decision_trace("reject", 0.43));
    let out = report(&["diff", "--decisions", path_str(&base), path_str(&cand)]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("bayes_verify [0/3 author] \"writer\": accept -> reject"),
        "{text}"
    );
    assert!(
        text.contains("posterior 0.81 -> 0.43 (largest evidence delta)"),
        "{text}"
    );
    assert!(
        text.contains("verdict: REGRESSION (1 flipped decision)"),
        "{text}"
    );

    // JSON output carries the same verdict for tooling.
    let out = report(&[
        "diff",
        "--decisions",
        "--json",
        path_str(&base),
        path_str(&cand),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stdout(&out).contains("\"regressed\":true"),
        "{}",
        stdout(&out)
    );
    std::fs::remove_file(&base).expect("cleanup");
    std::fs::remove_file(&cand).expect("cleanup");
}

#[test]
fn explain_renders_the_evidence_chain() {
    let path = temp_trace("explain", &decision_trace("accept", 0.81));
    let out = report(&["explain", path_str(&path), "writer"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("bayes_verify \"writer\" -> accept"), "{text}");
    assert!(text.contains("acquire \"book\""), "{text}");
    assert!(text.contains("attribute \"0/3 author\""), "{text}");
    assert!(text.contains("posterior"), "{text}");

    // No query renders every decision; an unmatched query renders none.
    let out = report(&["explain", path_str(&path)]);
    assert!(out.status.success());
    assert!(
        stdout(&out).contains("1 matching decision (of 1)"),
        "{}",
        stdout(&out)
    );
    let out = report(&["explain", path_str(&path), "no-such-subject"]);
    assert!(out.status.success());
    assert!(
        stdout(&out).contains("0 matching decisions (of 1)"),
        "{}",
        stdout(&out)
    );
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn usage_errors_exit_2() {
    let out = report(&["diff"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage"), "{}", stderr(&out));

    let out = report(&["diff", "a.jsonl"]);
    assert_eq!(out.status.code(), Some(2));

    let out = report(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage"), "{}", stderr(&out));

    // The diff has no thresholds, so there is no `--config` to read.
    let out = report(&["diff", "a.jsonl", "b.jsonl", "--config", "obs.toml"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown flag `--config`"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn missing_input_file_fails_cleanly() {
    let out = report(&["/nonexistent/webiq-trace.jsonl"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
}
