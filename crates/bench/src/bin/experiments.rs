//! Reproduce the paper's evaluation (§6): Table 1 and Figures 6–8, plus
//! the design-choice ablations.
//!
//! ```sh
//! cargo run --release -p webiq-bench --bin experiments            # everything
//! cargo run --release -p webiq-bench --bin experiments table1     # one artifact
//! cargo run --release -p webiq-bench --bin experiments fig6 fig7
//! cargo run --release -p webiq-bench --bin experiments -- --seed 7 fig6
//! ```
//!
//! The `monitor` subcommand runs one fully-observed acquisition plus a
//! traced matching pass (JSONL trace + live `/metrics` endpoint +
//! summary) and writes the artifacts both regression gates compare
//! against: the acquisition trace for `webiq-report diff`, the decision
//! lines for `webiq-report diff --decisions`, and the full trace for
//! `webiq-report explain`:
//!
//! ```sh
//! cargo run --release -p webiq-bench --bin experiments -- monitor \
//!     --out trace.jsonl --summary-out summary.json \
//!     --decisions-out decisions.jsonl --trace-out full-trace.jsonl
//! ```
//!
//! The `chaos` subcommand sweeps transient-fault rates × worker counts
//! and emits a pass/fail resilience verdict (exit 1 on FAIL):
//!
//! ```sh
//! cargo run --release -p webiq-bench --bin experiments -- chaos \
//!     --quick --json --out chaos_verdict.json
//! ```
//!
//! The `profile` subcommand runs the thread-count profiling sweep,
//! prints the stage-tree attribution + scaling diagnosis, and writes
//! `PROF_BASELINE.json` (exit 1 if the trace was not byte-identical
//! across thread counts):
//!
//! ```sh
//! cargo run --release -p webiq-bench --bin experiments -- profile \
//!     --quick --out PROF_BASELINE.json
//! ```
//!
//! The `store` subcommand runs the persistence gate: one cold
//! acquisition through a crash-safe store, a crash-point sweep over
//! both persisted streams, a disk-fault append phase, and a warm run
//! that must replay byte-identically with zero engine queries. The
//! verdict is deterministic, so CI diffs it against the committed
//! `STORE_BASELINE.json`:
//!
//! ```sh
//! cargo run --release -p webiq-bench --bin experiments -- store \
//!     --json --out store-verdict.json
//! ```

use webiq_bench::json::{self, Json, ToJson};
use webiq_bench::{chaos, experiments, monitor, profile, render, store};

/// One artifact at a seed: its rows as JSON and as the rendered table.
type Artifact = fn(u64) -> (Json, String);

/// The artifacts the evaluation mode prints, in order (none named = all).
const ARTIFACTS: [(&str, Artifact); 7] = [
    ("table1", |s| both(&experiments::table1(s), render::table1)),
    ("fig6", |s| both(&experiments::fig6(s), render::fig6)),
    ("fig7", |s| both(&experiments::fig7(s), render::fig7)),
    ("fig8", |s| both(&experiments::fig8(s), render::fig8)),
    ("ablations", |s| {
        both(&experiments::ablations(s), render::ablations)
    }),
    ("learned", |s| {
        both(&experiments::learned_thresholds(s), render::learned)
    }),
    ("weights", |s| {
        both(&experiments::weights(s), render::weights)
    }),
];

/// `rows` as JSON and as rendered by `render`.
fn both<T: ToJson>(rows: &[T], render: fn(&[T]) -> String) -> (Json, String) {
    (json::rows(rows), render(rows))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let gate: Option<fn(&[String])> = match argv.first().map(String::as_str) {
        Some("monitor") => Some(run_monitor),
        Some("chaos") => Some(run_chaos),
        Some("profile") => Some(run_profile),
        Some("store") => Some(run_store),
        _ => None,
    };
    if let Some(run) = gate {
        run(&argv[1..]);
        return;
    }
    let usage = format!(
        "usage: experiments [--seed N] [--json] [{}]...\n       \
         experiments monitor|chaos|profile|store [--help | FLAGS...]",
        ARTIFACTS.map(|(name, _)| name).join("|")
    );
    let mut seed = experiments::SEED;
    let mut json = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let v = args.next().unwrap_or_default();
                seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("invalid --seed value {v:?}");
                    std::process::exit(2);
                });
            }
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("{usage}");
                return;
            }
            name if ARTIFACTS.iter().any(|(a, _)| *a == name) => wanted.push(name.to_string()),
            other => {
                eprintln!("unknown artifact `{other}`\n{usage}");
                std::process::exit(2);
            }
        }
    }
    let chosen = ARTIFACTS
        .into_iter()
        .filter(|(a, _)| wanted.is_empty() || wanted.iter().any(|w| w == a));
    if json {
        let mut out = vec![("seed".to_string(), Json::from(seed))];
        out.extend(chosen.map(|(name, run)| (name.to_string(), run(seed).0)));
        println!("{}", Json::Obj(out).pretty());
    } else {
        println!("WebIQ evaluation (seed {seed:#x}); every run is deterministic in the seed.\n");
        for (_, run) in chosen {
            println!("{}", run(seed).1);
        }
    }
}

/// The flags one gate subcommand was given, as `(flag, value)` pairs in
/// order (a bare switch carries an empty value).
struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parse `args` against a subcommand's vocabulary: each of `valued`
    /// takes one argument, each of `switches` none. `--help` prints
    /// `usage` and exits 0; an unknown flag or a missing argument prints
    /// it and exits 2.
    fn parse(args: &[String], valued: &[&str], switches: &[&str], usage: &str) -> Flags {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let arg = arg.as_str();
            if valued.contains(&arg) {
                let Some(v) = it.next() else {
                    eprintln!("{arg} needs an argument\n{usage}");
                    std::process::exit(2);
                };
                flags.push((arg.to_string(), v.clone()));
            } else if switches.contains(&arg) {
                flags.push((arg.to_string(), String::new()));
            } else if arg == "--help" || arg == "-h" {
                eprintln!("{usage}");
                std::process::exit(0);
            } else {
                eprintln!("unknown argument `{arg}`\n{usage}");
                std::process::exit(2);
            }
        }
        Flags(flags)
    }

    /// The last value given for `flag`.
    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, switch: &str) -> bool {
        self.get(switch).is_some()
    }

    /// `flag` as a `u64`, or `default` when absent; exits 2 when malformed.
    fn u64_or(&self, flag: &str, default: u64) -> u64 {
        self.get(flag).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("invalid {flag} value {v:?}");
                std::process::exit(2);
            })
        })
    }
}

/// The value of a gate run, or exit 1 naming the subcommand.
fn or_exit<T>(cmd: &str, r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{cmd}: {e}");
        std::process::exit(1);
    })
}

/// Write `contents` to `path` when one was given; exit 1 on failure.
fn write_to(cmd: &str, path: Option<&str>, contents: &str) {
    if let Some(path) = path {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("{cmd}: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// `experiments chaos`: the fault-rate × worker-count resilience sweep;
/// prints the verdict and exits 1 when any rate fails the contract.
fn run_chaos(args: &[String]) {
    let flags = Flags::parse(
        args,
        &["--seed", "--fault-seed", "--domain", "--out"],
        &["--quick", "--json"],
        "usage: experiments chaos [--seed N] [--fault-seed N] [--domain NAME] \
         [--quick] [--json] [--out FILE.json]",
    );
    let (rates, threads): (&[f64], &[usize]) = if flags.has("--quick") {
        (&chaos::QUICK_RATES, &chaos::QUICK_THREADS)
    } else {
        (&chaos::FULL_RATES, &chaos::FULL_THREADS)
    };
    let outcome = or_exit(
        "chaos",
        chaos::sweep(
            flags.get("--domain").unwrap_or("book"),
            flags.u64_or("--seed", experiments::SEED),
            flags.u64_or("--fault-seed", 42),
            rates,
            threads,
        ),
    );
    let verdict = format!("{}\n", outcome.to_json().pretty());
    write_to("chaos", flags.get("--out"), &verdict);
    if flags.has("--json") {
        print!("{verdict}");
    } else {
        print!("{}", outcome.render_text());
    }
    if !outcome.pass {
        std::process::exit(1);
    }
}

/// `experiments store`: the persistence gate — cold run, crash-point
/// sweep, disk-fault phase, warm run; prints the verdict and exits 1
/// when any property failed.
fn run_store(args: &[String]) {
    let flags = Flags::parse(
        args,
        &["--seed", "--fault-seed", "--domain", "--out", "--keep"],
        &["--json"],
        "usage: experiments store [--seed N] [--fault-seed N] [--domain NAME] \
         [--json] [--out FILE.json] [--keep STORE_DIR]",
    );
    let outcome = or_exit(
        "store",
        store::run(
            flags.get("--domain").unwrap_or("book"),
            flags.u64_or("--seed", experiments::SEED),
            flags.u64_or("--fault-seed", 42),
            flags.get("--keep").map(std::path::Path::new),
        ),
    );
    let verdict = format!("{}\n", outcome.to_json().pretty());
    write_to("store", flags.get("--out"), &verdict);
    if flags.has("--json") {
        print!("{verdict}");
    } else {
        print!("{}", outcome.render_text());
    }
    if !outcome.pass {
        std::process::exit(1);
    }
}

/// `experiments profile`: the thread-count profiling sweep; prints the
/// attribution + scaling report and exits 1 when the trace bytes were
/// not identical across thread counts.
fn run_profile(args: &[String]) {
    let flags = Flags::parse(
        args,
        &["--seed", "--out"],
        &["--quick", "--json"],
        "usage: experiments profile [--seed N] [--quick] [--json] \
         [--out PROF_BASELINE.json]",
    );
    let (domains, threads): (&[&str], &[usize]) = if flags.has("--quick") {
        (&profile::QUICK_DOMAINS, &profile::QUICK_THREADS)
    } else {
        (&profile::DOMAINS, &profile::FULL_THREADS)
    };
    let seed = flags.u64_or("--seed", experiments::SEED);
    let outcome = or_exit("profile", profile::sweep(domains, seed, threads));
    write_to("profile", flags.get("--out"), &outcome.baseline_json);
    if flags.has("--json") {
        print!("{}", outcome.baseline_json);
    } else {
        print!("{}", outcome.report);
    }
    if !outcome.deterministic {
        eprintln!("profile: trace bytes differ across thread counts — determinism violated");
        std::process::exit(1);
    }
}

/// `experiments monitor`: one observed acquisition + matching run;
/// writes the artifacts both regression gates consume.
fn run_monitor(args: &[String]) {
    let flags = Flags::parse(
        args,
        &[
            "--seed",
            "--domain",
            "--out",
            "--summary-out",
            "--metrics-out",
            "--decisions-out",
            "--trace-out",
        ],
        &[],
        "usage: experiments monitor [--seed N] [--domain NAME] \
         [--out TRACE.jsonl] [--summary-out FILE.json] [--metrics-out FILE.txt] \
         [--decisions-out DECISIONS.jsonl] [--trace-out FULL-TRACE.jsonl]",
    );
    let outcome = or_exit(
        "monitor",
        monitor::run(
            flags.get("--domain").unwrap_or("book"),
            flags.u64_or("--seed", experiments::SEED),
        ),
    );
    let summary = outcome.summary.pretty();
    for (flag, contents) in [
        ("--out", &outcome.trace_jsonl),
        ("--summary-out", &format!("{summary}\n")),
        ("--metrics-out", &outcome.metrics_text),
        ("--decisions-out", &outcome.decisions_jsonl),
        ("--trace-out", &outcome.full_trace_jsonl),
    ] {
        write_to("monitor", flags.get(flag), contents);
    }
    println!("{summary}");
}
