//! `webiq-report` — render JSONL traces, gate on trace diffs, explain
//! decisions, and fsck persistent knowledge stores.
//!
//! Four modes:
//!
//! ```text
//! webiq-report TRACE.jsonl [MORE.jsonl ...]
//! webiq-report diff BASELINE.jsonl CANDIDATE.jsonl [--json] [--decisions]
//! webiq-report explain TRACE.jsonl [QUERY]
//! webiq-report store STORE_DIR
//! ```
//!
//! The render mode prints one per-stage funnel per root span (one per
//! traced acquisition, labelled by domain). `-` reads a trace from
//! stdin. A malformed trace line is a hard error naming the file and
//! line — a gate must not quietly skip the very evidence it gates on.
//!
//! The diff mode aggregates both runs and lists every counter, funnel
//! stage rate, and histogram quantile that differs, and every counter
//! whose total over one span name's closes differs. The pipeline is
//! deterministic, so any delta is a regression. Exit codes: `0` zero
//! deltas, `1` regression detected, `2` usage or I/O error — so CI can
//! gate on the exit status alone.
//!
//! With `--decisions` the diff mode gates on the decision streams
//! instead: every recorded decision (instance validation, Bayes and
//! probe verification, borrow reuse, cluster merges) is keyed by kind,
//! owning attribute, and subject, and any *verdict flip* between
//! baseline and candidate fails the gate, naming the pair and the
//! largest evidence delta behind the flip. Evidence drift with the
//! verdict held is reported but does not change the exit code; CI
//! gates it by comparing the decision stream with its baseline byte
//! for byte.
//!
//! The explain mode renders a deterministic evidence-chain tree for
//! every decision matching QUERY (case-insensitive substring of the
//! decision subject, kind, or owning attribute; omitted = all):
//! the span chain it happened under, each evidence term, and any
//! fault/degradation counters observed on the enclosing spans.
//!
//! The store mode fscks a `webiq-store` directory without mutating it:
//! both log streams are scanned frame by frame and the per-kind record
//! census, committed byte counts, and any unreadable tail are reported.
//! Exit codes: `0` clean, `1` recoverable damage found (a torn tail or
//! an orphan `snapshot.tmp` — the next `Store::open` repairs it), `2`
//! on I/O or usage errors.

use std::io::Read;
use std::process::ExitCode;

use webiq::core::WebIqError;
use webiq::obs::{diff_events, parse_jsonl, ObsError};
use webiq::trace::report;
use webiq::trace::Event;
use webiq::why::{diff_decisions, Provenance};

const USAGE: &str = "usage: webiq-report TRACE.jsonl [MORE.jsonl ...]
       webiq-report diff BASELINE.jsonl CANDIDATE.jsonl [--json] [--decisions]
       webiq-report explain TRACE.jsonl [QUERY]
       webiq-report store STORE_DIR
`-` reads a trace from stdin (at most one input may be `-`)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match args.split_first() {
        Some((first, rest)) if first == "diff" => run_diff(rest),
        Some((first, rest)) if first == "explain" => run_explain(rest),
        Some((first, rest)) if first == "store" => run_store(rest),
        _ => run_render(&args),
    }
}

/// Read one input: a file path, or stdin for `-`.
fn read_input(path: &str) -> Result<String, ObsError> {
    let io_err = |e: std::io::Error| ObsError::Io {
        path: path.to_string(),
        detail: e.to_string(),
    };
    if path == "-" {
        let mut text = String::new();
        std::io::stdin().read_to_string(&mut text).map_err(io_err)?;
        Ok(text)
    } else {
        std::fs::read_to_string(path).map_err(io_err)
    }
}

/// Read and strictly parse one trace input.
fn load_trace(path: &str) -> Result<Vec<Event>, WebIqError> {
    let text = read_input(path)?;
    Ok(parse_jsonl(path, &text)?)
}

fn run_render(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in paths {
        let events = match load_trace(path) {
            Ok(events) => events,
            Err(e) => {
                eprintln!("webiq-report: {e}");
                failed = true;
                continue;
            }
        };
        let groups = report::aggregate_by_root(&events);
        if groups.is_empty() {
            println!("{path}: no root spans found ({} events)", events.len());
            continue;
        }
        println!("== {path} ==");
        for (label, m) in &groups {
            print!("{}", report::render_funnel(label, m));
        }
        if groups.len() > 1 {
            print!(
                "{}",
                report::render_funnel("all runs", &report::aggregate(&events))
            );
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_diff(args: &[String]) -> ExitCode {
    let mut inputs: Vec<&String> = Vec::new();
    let mut json = false;
    let mut decisions = false;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--decisions" => decisions = true,
            other if other.starts_with("--") => {
                eprintln!("webiq-report: unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
            _ => inputs.push(a),
        }
    }
    let [baseline, candidate] = inputs.as_slice() else {
        eprintln!("webiq-report: diff needs exactly two traces\n{USAGE}");
        return ExitCode::from(2);
    };
    if baseline.as_str() == "-" && candidate.as_str() == "-" {
        eprintln!("webiq-report: at most one input may be `-`\n{USAGE}");
        return ExitCode::from(2);
    }
    let (base, cand) = match (load_trace(baseline), load_trace(candidate)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("webiq-report: {e}");
            return ExitCode::from(2);
        }
    };
    if decisions {
        let d = diff_decisions(baseline, &base, candidate, &cand);
        if json {
            println!("{}", d.to_json());
        } else {
            print!("{}", d.render_text());
        }
        return if d.regressed() {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    let r = diff_events(baseline, &base, candidate, &cand);
    if json {
        println!("{}", r.to_json());
    } else {
        print!("{}", r.render_text());
    }
    if r.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Render evidence-chain trees for the decisions matching a query.
fn run_explain(args: &[String]) -> ExitCode {
    let (path, query) = match args {
        [path] => (path, ""),
        [path, query] => (path, query.as_str()),
        _ => {
            eprintln!("webiq-report: explain needs TRACE.jsonl and an optional QUERY\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let events = match load_trace(path) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("webiq-report: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", Provenance::from_events(&events).explain(query));
    ExitCode::SUCCESS
}

/// Fsck a persistent knowledge store: read-only scan of both log
/// streams, exit 0 clean / 1 recoverable damage.
fn run_store(args: &[String]) -> ExitCode {
    let [dir] = args else {
        eprintln!("webiq-report: store needs exactly one store directory\n{USAGE}");
        return ExitCode::from(2);
    };
    match webiq::store::fsck(std::path::Path::new(dir)) {
        Ok(report) => {
            print!("{}", report.render_text());
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("webiq-report: {}", WebIqError::from(e));
            ExitCode::from(2)
        }
    }
}
