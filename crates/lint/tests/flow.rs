//! Fixture tests for the flow analyzer: the parser/call-graph must
//! detect a known ABBA deadlock, a transitively panic-reachable public
//! API, and taint flowing through a helper into a trace sink — each
//! with deterministic `file:line:col` output.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use webiq_lint::flow::{self, FlowReport};
use webiq_lint::{Scope, SourceFile};

/// Load a fixture file as a classified workspace source.
fn fixture(name: &str, rel: &str, krate: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/flow")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    SourceFile {
        rel: rel.to_string(),
        crate_name: krate.to_string(),
        file_name: rel.rsplit('/').next().unwrap_or("").to_string(),
        is_crate_root: rel.ends_with("lib.rs"),
        is_bin: false,
        text,
    }
}

/// Every fixture crate sees every other (the closures are tiny).
fn closure_all(crates: &[&str]) -> BTreeMap<String, BTreeSet<String>> {
    let all: BTreeSet<String> = crates.iter().map(|c| (*c).to_string()).collect();
    crates
        .iter()
        .map(|c| ((*c).to_string(), all.clone()))
        .collect()
}

fn analyze(files: &[SourceFile], crates: &[&str]) -> FlowReport {
    flow::analyze_files(files, &closure_all(crates), &Scope::default())
}

#[test]
fn known_deadlock_fixture_is_detected() {
    let files = vec![fixture("deadlock.rs", "crates/web/src/deadlock.rs", "web")];
    let r = analyze(&files, &["web"]);

    let lock: Vec<_> = r
        .violations
        .iter()
        .filter(|v| v.rule == "flow-lock")
        .collect();
    assert!(
        lock.iter()
            .any(|v| v.msg.contains("inconsistent lock order")
                && v.msg.contains("`Pair.a`")
                && v.msg.contains("`Pair.b`")),
        "ABBA inversion between Pair.a and Pair.b must be reported: {lock:?}"
    );
    assert!(
        lock.iter()
            .any(|v| v.msg.contains("nested acquisition of lock class `Pair.a`")),
        "same-class nested acquisition must be reported: {lock:?}"
    );
    // deterministic file:line:col — the second acquisitions of ab/ba and
    // the nested re-acquisition, at the `lock` identifier
    for line in [14, 20, 26] {
        assert!(
            lock.iter()
                .any(|v| v.file == "crates/web/src/deadlock.rs" && v.line == line && v.col > 0),
            "expected a flow-lock finding on line {line}: {lock:?}"
        );
    }
}

#[test]
fn panic_reachable_fixture_breaks_certification() {
    let files = vec![fixture(
        "panic_reach.rs",
        "crates/core/src/panic_reach.rs",
        "core",
    )];
    let r = analyze(&files, &["core"]);

    let cert = r
        .certificates
        .iter()
        .find(|c| c.krate == "core")
        .expect("core certificate");
    assert!(
        !cert.panic_free,
        "entry -> middle -> inner -> unwrap must decertify core"
    );
    assert_eq!(cert.public_apis, 1);

    let v = r
        .violations
        .iter()
        .find(|v| v.rule == "flow-panic")
        .expect("flow-panic violation");
    // reported at the public root, with the witness path and the site
    assert_eq!(v.file, "crates/core/src/panic_reach.rs");
    assert_eq!(v.line, 4, "the violation anchors at `pub fn entry`");
    assert!(v.col > 0);
    assert!(
        v.msg.contains("entry -> middle -> inner"),
        "witness path must be rendered: {}",
        v.msg
    );
    assert!(
        v.msg.contains("crates/core/src/panic_reach.rs:13:"),
        "the panic site's file:line must be named: {}",
        v.msg
    );
}

#[test]
fn cfg_not_test_items_are_certified_like_any_other() {
    // `#[cfg(not(test))]` code is compiled only outside tests: it is
    // production code, and its panic sites decertify the crate.
    let file = SourceFile {
        rel: "crates/core/src/production.rs".into(),
        crate_name: "core".into(),
        file_name: "production.rs".into(),
        is_crate_root: false,
        is_bin: false,
        text: "#[cfg(not(test))]\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n".into(),
    };
    let r = analyze(&[file], &["core"]);
    let cert = r
        .certificates
        .iter()
        .find(|c| c.krate == "core")
        .expect("core certificate");
    assert!(!cert.panic_free, "{}", r.render_text());
    assert_eq!(cert.public_apis, 1);
    assert!(
        r.violations
            .iter()
            .any(|v| v.rule == "flow-panic" && v.line == 2),
        "{}",
        r.render_text()
    );
}

#[test]
fn taint_through_helper_reaches_trace_sink() {
    let files = vec![
        fixture("taint_helper.rs", "crates/core/src/taint_helper.rs", "core"),
        fixture("trace_sink.rs", "crates/trace/src/lib.rs", "trace"),
    ];
    let r = analyze(&files, &["core", "trace"]);

    let v = r
        .violations
        .iter()
        .find(|v| v.rule == "flow-taint")
        .expect("flow-taint violation");
    assert_eq!(v.file, "crates/core/src/taint_helper.rs");
    assert_eq!(
        v.line, 6,
        "the violation anchors at the tainted `pub fn emit`"
    );
    assert!(v.col > 0);
    assert!(
        v.msg.contains("Tracer::add"),
        "the sink must be named: {}",
        v.msg
    );
    assert!(
        v.msg.contains("crates/core/src/taint_helper.rs:13:"),
        "the source site inside the helper must be named: {}",
        v.msg
    );
}

#[test]
fn suppressed_source_quiets_the_taint_fixture() {
    let mut files = vec![
        fixture("taint_helper.rs", "crates/core/src/taint_helper.rs", "core"),
        fixture("trace_sink.rs", "crates/trace/src/lib.rs", "trace"),
    ];
    // sanction the source the way production code would
    files[0].text = files[0].text.replace(
        "    for k in m.keys() {",
        "    // lint:allow(hash-iter) fixture: order re-sorted by the caller\n    for k in m.keys() {",
    );
    let r = analyze(&files, &["core", "trace"]);
    assert!(
        !r.violations.iter().any(|v| v.rule == "flow-taint"),
        "an audited allow on the source must clear the taint: {:?}",
        r.violations
    );
}

#[test]
fn fixture_reports_are_deterministic() {
    let files = vec![
        fixture("deadlock.rs", "crates/web/src/deadlock.rs", "web"),
        fixture("panic_reach.rs", "crates/core/src/panic_reach.rs", "core"),
        fixture("taint_helper.rs", "crates/core/src/taint_helper.rs", "core"),
        fixture("trace_sink.rs", "crates/trace/src/lib.rs", "trace"),
    ];
    let crates = ["web", "core", "trace"];
    let a = analyze(&files, &crates);
    let b = analyze(&files, &crates);
    assert_eq!(a.render_json(), b.render_json());
    assert_eq!(a.render_text(), b.render_text());
    // and all three rules fire somewhere in the combined run
    for rule in ["flow-lock", "flow-panic", "flow-taint"] {
        assert!(
            a.violations.iter().any(|v| v.rule == rule),
            "{rule} must fire on the combined fixture set"
        );
    }
}
