//! `webiq-lint` — the workspace's own static-analysis pass.
//!
//! A deterministic, dependency-free lint over every Rust source file in
//! the workspace, built on a lightweight token lexer (no full parser).
//! It checks the parts of WebIQ's three invariant families that clippy
//! cannot express:
//!
//! * **panic-freedom** — no underflow-prone index arithmetic in the
//!   library code of the pipeline crates, and (the flow pass) no public
//!   API of theirs that transitively reaches a panic site;
//! * **determinism** — no unordered `HashMap`/`HashSet` method-chain
//!   iteration in modules tagged `// lint:deterministic`, no wall-clock
//!   type named in `webiq-trace` outside its timing module, and (the
//!   flow pass) no nondeterministic source flowing into trace/obs
//!   emission;
//! * **hygiene** — every crate root carries a crate-level doc comment,
//!   and no span guard is dropped the moment it is made.
//!
//! Clippy checks the rest by type (CI runs it with `-D warnings`): the
//! panic lints in each pipeline crate's library root, wall-clock and
//! environment reads and real-time blocking (`disallowed_methods`, see
//! `clippy.toml`), `for` loops over hash containers and reasonless
//! `#[allow]`s; `unsafe_code` is forbidden in the workspace lint table.
//!
//! Violations render as `file:line:col rule-id message`, sorted, so the
//! report is byte-identical across runs. `// lint:allow(rule-id) reason`
//! suppresses a finding on its own or the following line; the reason is
//! mandatory and every honoured suppression is counted in the summary.
//!
//! Run with `cargo run -p webiq-lint`; see DESIGN.md §10 for the rule
//! catalogue.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::string_slice
)]

pub mod flow;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod walk;

use std::io;
use std::path::Path;

pub use flow::{flow_workspace, FlowReport};
pub use report::{LintReport, Violation};
pub use rules::{Scope, SourceFile, RULES};

/// Lint every workspace source file under `root` with the default
/// [`Scope`]. The returned report is finished (sorted) and ready to
/// render.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let files = walk::workspace_sources(root)?;
    Ok(lint_files(&files, &Scope::default()))
}

/// Lint an explicit set of classified files.
pub fn lint_files(files: &[SourceFile], scope: &Scope) -> LintReport {
    let mut report = LintReport::default();
    for f in files {
        let outcome = rules::lint_source(f, scope);
        report.absorb(outcome.violations, outcome.suppressed);
    }
    report.finish();
    report
}
