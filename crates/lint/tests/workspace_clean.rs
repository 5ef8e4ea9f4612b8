//! The tier-1 gate: the workspace itself must lint clean, the report must
//! be byte-identical across runs, the binary must exit non-zero on a
//! workspace with violations, and clippy's panic lints must cover
//! exactly the panic scope `slice-arith` reads.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use webiq_lint::{lint_workspace, walk, Scope};

/// The inner attribute each library root in the panic scope carries, as
/// rustfmt lays it out; CI's clippy step denies these lints there.
const PANIC_LINTS: &str = "#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]";

fn workspace_root() -> std::path::PathBuf {
    walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint")
}

#[test]
fn workspace_is_clean() {
    let report = lint_workspace(&workspace_root()).expect("walk workspace");
    assert!(
        report.is_clean(),
        "workspace must lint clean:\n{}",
        report.render()
    );
    assert!(
        report.files_checked >= 80,
        "walker found suspiciously few files: {}",
        report.files_checked
    );
    assert_eq!(
        report.suppressed, 0,
        "audited exceptions are `#[expect]` attributes, not lint:allow comments"
    );
}

#[test]
fn report_is_byte_identical_across_runs() {
    let root = workspace_root();
    let a = lint_workspace(&root).expect("first run");
    let b = lint_workspace(&root).expect("second run");
    assert_eq!(a.render(), b.render());
}

#[test]
fn binary_exits_nonzero_on_dirty_workspace() {
    // Assemble a minimal fake workspace whose one library file violates
    // the panic-freedom rule, then run the real binary against it.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("webiq-lint-dirty");
    let src = dir.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("create fake workspace");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    std::fs::write(
        src.join("lib.rs"),
        "//! Fake crate.\n\npub fn f(x: &[u32]) -> u32 { x[x.len() - 1] }\n",
    )
    .expect("dirty source");

    let out = Command::new(env!("CARGO_BIN_EXE_webiq-lint"))
        .arg(&dir)
        .output()
        .expect("run webiq-lint");
    assert!(!out.status.success(), "dirty workspace must fail the lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("slice-arith"),
        "report names the rule:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/core/src/lib.rs:3:"),
        "report names the site:\n{stdout}"
    );
}

#[test]
fn binary_lists_rules() {
    let out = Command::new(env!("CARGO_BIN_EXE_webiq-lint"))
        .arg("--rules")
        .output()
        .expect("run webiq-lint --rules");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout.lines().filter_map(|l| l.split(' ').next()).collect();
    for rule in ["slice-arith", "hash-iter", "crate-doc", "bad-allow"] {
        assert!(ids.contains(&rule), "missing {rule}:\n{stdout}");
    }
    // Clippy checks these by type; the linter keeps no copy of them.
    for rule in ["no-unwrap", "wall-clock", "no-sleep", "forbid-unsafe"] {
        assert!(!ids.contains(&rule), "retired {rule} listed:\n{stdout}");
    }
}

#[test]
fn panic_lints_cover_exactly_the_panic_scope() {
    let files = walk::workspace_sources(&workspace_root()).expect("walk workspace");
    let carrying: BTreeSet<&str> = files
        .iter()
        .filter(|f| f.is_crate_root && !f.is_bin && f.file_name == "lib.rs")
        .filter(|f| f.text.contains(PANIC_LINTS))
        .map(|f| f.crate_name.as_str())
        .collect();
    let scope = Scope::default();
    let panic_scope: BTreeSet<&str> = scope.panic_crates.iter().map(String::as_str).collect();
    assert_eq!(carrying, panic_scope);
}
