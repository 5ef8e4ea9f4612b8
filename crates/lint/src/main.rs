//! Command-line entry point for `webiq-lint`.
//!
//! With no arguments, finds the workspace root (the nearest ancestor
//! with a `[workspace]` manifest) and lints every workspace source
//! file. `--rules` lists the rule catalogue. `--flow` runs the
//! cross-crate flow analysis instead of the lexical lint; with
//! `--flow-json <path>` it also writes the SARIF-style JSON report, and
//! with `--flow-baseline <path>` it compares against a committed
//! baseline. Exits 0 when clean, 1 on violations or baseline
//! regressions, and 2 on usage/IO errors.

use std::path::PathBuf;
use std::process::ExitCode;

use webiq_lint::{flow, lint_workspace, walk, RULES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--rules") {
        for (id, desc) in RULES {
            println!("{id:14} {desc}");
        }
        return ExitCode::SUCCESS;
    }

    // option parsing: flags may appear in any order; the first bare
    // argument is the directory to start the workspace search from.
    let mut flow_mode = false;
    let mut flow_json: Option<PathBuf> = None;
    let mut flow_baseline: Option<PathBuf> = None;
    let mut start_arg: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--flow" => flow_mode = true,
            "--flow-json" => match it.next() {
                Some(p) => flow_json = Some(PathBuf::from(p)),
                None => {
                    eprintln!("webiq-lint: --flow-json needs a path");
                    return ExitCode::from(2);
                }
            },
            "--flow-baseline" => match it.next() {
                Some(p) => flow_baseline = Some(PathBuf::from(p)),
                None => {
                    eprintln!("webiq-lint: --flow-baseline needs a path");
                    return ExitCode::from(2);
                }
            },
            other if !other.starts_with('-') => start_arg = Some(PathBuf::from(other)),
            other => {
                eprintln!("webiq-lint: unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }

    let start = match start_arg {
        Some(p) => p,
        None => match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("webiq-lint: cannot determine working directory: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let Some(root) = walk::find_workspace_root(&start) else {
        eprintln!(
            "webiq-lint: no [workspace] Cargo.toml found above {}",
            start.display()
        );
        return ExitCode::from(2);
    };

    if flow_mode {
        return run_flow(&root, flow_json.as_deref(), flow_baseline.as_deref());
    }

    match lint_workspace(&root) {
        Ok(report) => {
            print!("{}", report.render());
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("webiq-lint: io error while walking workspace: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run the flow analysis; optionally write the JSON report and diff it
/// against a committed baseline.
fn run_flow(
    root: &std::path::Path,
    json_out: Option<&std::path::Path>,
    baseline: Option<&std::path::Path>,
) -> ExitCode {
    let report = match flow::flow_workspace(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("webiq-lint: io error while walking workspace: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render_text());
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(path, report.render_json()) {
            eprintln!("webiq-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = baseline {
        let base = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("webiq-lint: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let regressions = flow::compare_baseline(&base, &report);
        if !regressions.is_empty() {
            for r in &regressions {
                eprintln!("flow regression: {r}");
            }
            return ExitCode::FAILURE;
        }
        println!("flow: no regressions against {}", path.display());
        return ExitCode::SUCCESS;
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
