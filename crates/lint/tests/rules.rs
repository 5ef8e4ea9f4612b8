//! Fixture-driven integration tests: each rule family exercised end to
//! end through `lint_files`, using the sources under `tests/fixtures/`.

use webiq_lint::{lint_files, LintReport, Scope, SourceFile};

/// Wrap fixture text as a non-root library file of the `core` crate (in
/// panic scope).
fn lib_file(name: &str, text: &str) -> SourceFile {
    SourceFile {
        rel: format!("crates/core/src/{name}"),
        crate_name: "core".into(),
        file_name: name.into(),
        is_crate_root: false,
        is_bin: false,
        text: text.into(),
    }
}

fn lint_one(f: &SourceFile) -> LintReport {
    lint_files(std::slice::from_ref(f), &Scope::default())
}

fn count(report: &LintReport, rule: &str) -> usize {
    report.violations.iter().filter(|v| v.rule == rule).count()
}

#[test]
fn panic_freedom_rules_fire_in_library_code() {
    let f = lib_file("slice_arith.rs", include_str!("fixtures/slice_arith.rs"));
    let r = lint_one(&f);
    let hits: Vec<(&str, u32)> = r.violations.iter().map(|v| (v.rule, v.line)).collect();
    // Line 12 sits in a `#[cfg(not(test))]` item: production code.
    assert_eq!(
        hits,
        [("slice-arith", 7), ("slice-arith", 12)],
        "\n{}",
        r.render()
    );
    assert_eq!(r.suppressed, 0);
}

#[test]
fn panic_freedom_rules_skip_binaries() {
    let mut f = lib_file("slice_arith.rs", include_str!("fixtures/slice_arith.rs"));
    f.is_bin = true;
    let r = lint_one(&f);
    assert!(r.is_clean(), "binaries are exempt:\n{}", r.render());
}

#[test]
fn panic_freedom_rules_skip_out_of_scope_crates() {
    let mut f = lib_file("slice_arith.rs", include_str!("fixtures/slice_arith.rs"));
    f.crate_name = "rng".into();
    f.rel = "crates/rng/src/slice_arith.rs".into();
    let r = lint_one(&f);
    assert!(r.is_clean(), "rng is out of panic scope:\n{}", r.render());
}

#[test]
fn well_formed_allows_suppress_and_are_counted() {
    let f = lib_file("suppressed.rs", include_str!("fixtures/suppressed.rs"));
    let r = lint_one(&f);
    assert!(r.is_clean(), "\n{}", r.render());
    assert_eq!(r.suppressed, 2);
}

#[test]
fn cfg_test_code_is_exempt() {
    let f = lib_file("test_exempt.rs", include_str!("fixtures/test_exempt.rs"));
    let r = lint_one(&f);
    assert!(r.is_clean(), "\n{}", r.render());
    assert_eq!(r.suppressed, 0);
}

#[test]
fn malformed_allows_are_rejected_and_suppress_nothing() {
    let f = lib_file(
        "missing_reason.rs",
        include_str!("fixtures/missing_reason.rs"),
    );
    let r = lint_one(&f);
    assert_eq!(count(&r, "bad-allow"), 2, "\n{}", r.render());
    assert_eq!(
        count(&r, "slice-arith"),
        2,
        "underlying violations survive:\n{}",
        r.render()
    );
    assert_eq!(r.suppressed, 0);
}

#[test]
fn determinism_rules_fire_in_tagged_module() {
    let f = lib_file("determinism.rs", include_str!("fixtures/determinism.rs"));
    let r = lint_one(&f);
    assert_eq!(
        count(&r, "hash-iter"),
        1,
        "re-sorted iteration is sanctioned:\n{}",
        r.render()
    );
    assert_eq!(r.violations.len(), 1, "\n{}", r.render());
}

#[test]
fn trace_hygiene_flags_discarded_guards() {
    let f = lib_file(
        "trace_hygiene.rs",
        include_str!("fixtures/trace_hygiene.rs"),
    );
    let r = lint_one(&f);
    assert_eq!(count(&r, "trace-hygiene"), 2, "\n{}", r.render());
    assert_eq!(r.violations.len(), 2, "\n{}", r.render());
}

#[test]
fn trace_hygiene_confines_wall_clock_types_to_timing() {
    let text = "use std::time::{Instant, SystemTime};\nfn f() {}\n";
    let mut f = lib_file("sink.rs", text);
    f.rel = "crates/trace/src/sink.rs".into();
    f.crate_name = "trace".into();
    let r = lint_one(&f);
    assert_eq!(count(&r, "trace-hygiene"), 2, "\n{}", r.render());

    let mut timing = lib_file("timing.rs", text);
    timing.rel = "crates/trace/src/timing.rs".into();
    timing.crate_name = "trace".into();
    let r = lint_one(&timing);
    assert!(r.is_clean(), "timing.rs is sanctioned:\n{}", r.render());
}

#[test]
fn hygiene_rules_fire_only_on_crate_roots() {
    let text = include_str!("fixtures/bare_root.rs");
    let as_module = lib_file("bare_root.rs", text);
    let r = lint_one(&as_module);
    assert!(
        r.is_clean(),
        "modules need no root hygiene:\n{}",
        r.render()
    );

    let mut as_root = lib_file("lib.rs", text);
    as_root.rel = "crates/core/src/lib.rs".into();
    as_root.is_crate_root = true;
    let r = lint_one(&as_root);
    assert_eq!(count(&r, "crate-doc"), 1, "\n{}", r.render());
    assert_eq!(r.violations.len(), 1, "\n{}", r.render());
}

#[test]
fn report_positions_point_at_the_offending_token() {
    let f = lib_file("slice_arith.rs", include_str!("fixtures/slice_arith.rs"));
    let r = lint_one(&f);
    let first = r.violations.first().expect("slice-arith violation present");
    assert_eq!(first.file, "crates/core/src/slice_arith.rs");
    assert_eq!(first.line, 7);
    assert_eq!(first.col, 7, "anchored at the `[`");
}
