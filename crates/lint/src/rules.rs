//! The lint rules.
//!
//! Every rule works on the token stream of [`crate::lexer`]; none of them
//! parse Rust properly, and none of them need to — each rule targets a
//! lexical pattern that is unambiguous enough in this workspace's style.
//! Where a rule is a heuristic (notably `hash-iter`), its limits are
//! documented on the rule constant and in DESIGN.md §10. Invariants that
//! clippy checks by type (panic sites, wall-clock and environment reads,
//! real-time blocking, `for` loops over hash containers, `unsafe`) are
//! configured in the workspace manifest, `clippy.toml` and the library
//! roots instead, and have no rule here.
//!
//! ## Suppressions
//!
//! `// lint:allow(rule-id) reason` suppresses violations of `rule-id` on
//! the same line or the line directly below. The reason is mandatory: an
//! allow without one (or naming an unknown rule) is itself a `bad-allow`
//! violation. Honoured suppressions are counted and surface in the report
//! summary, so silent drift is visible in review.

use crate::lexer::{self, Tok, TokKind};
use crate::report::Violation;

/// Rule ids with one-line descriptions (the source of truth for
/// `bad-allow` validation and the `--rules` listing).
pub const RULES: &[(&str, &str)] = &[
    (
        "slice-arith",
        "indexing/slicing with arithmetic subtraction in the index expression",
    ),
    (
        "hash-iter",
        "unordered HashMap/HashSet method-chain iteration in a `lint:deterministic` module",
    ),
    (
        "trace-hygiene",
        "discarded span guard (`let _ = span(…)`) or wall-clock type in webiq-trace outside timing.rs",
    ),
    (
        "crate-doc",
        "crate root missing a crate-level `//!` doc comment",
    ),
    (
        "bad-allow",
        "`lint:allow` without a reason or naming an unknown rule",
    ),
    (
        "flow-panic",
        "a public API of a certified crate transitively reaches a panic site (call-graph pass)",
    ),
    (
        "flow-lock",
        "nested or inconsistently-ordered Mutex acquisition that could deadlock (call-graph pass)",
    ),
    (
        "flow-taint",
        "a nondeterministic source may flow into trace/obs emission (call-graph pass)",
    ),
];

/// Is `rule` a known rule id?
pub fn known_rule(rule: &str) -> bool {
    RULES.iter().any(|(id, _)| *id == rule)
}

/// One source file plus the classification the walker derived for it.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Owning crate's directory name (`core`, `web`, …; `webiq` for the
    /// root crate).
    pub crate_name: String,
    /// Bare file name (`acquire.rs`).
    pub file_name: String,
    /// Crate root (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`) — the
    /// hygiene rules apply only here.
    pub is_crate_root: bool,
    /// Binary target (`src/main.rs`, `src/bin/*.rs`) — exempt from the
    /// panic-freedom rules like tests and benches.
    pub is_bin: bool,
    /// File contents.
    pub text: String,
}

/// Which crates and files each rule family applies to.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Crates whose library code must be panic-free: `slice-arith`
    /// applies to their non-bin files, and each of their library roots
    /// turns on clippy's panic lints.
    pub panic_crates: Vec<String>,
    /// Crates whose wall-clock reads are no flow-taint source
    /// (benchmark harnesses).
    pub wallclock_exempt_crates: Vec<String>,
    /// File names whose wall-clock reads are no flow-taint source; in
    /// `webiq-trace`, the one file that may name wall-clock types.
    pub wallclock_exempt_files: Vec<String>,
    /// File names whose `env::var` reads are no flow-taint source
    /// (thread-count plumbing).
    pub env_exempt_files: Vec<String>,
}

impl Default for Scope {
    fn default() -> Self {
        let v = |xs: &[&str]| xs.iter().map(|s| (*s).to_string()).collect();
        Scope {
            // The library crates of the paper pipeline, the tracing
            // substrate, the generator and hash they all draw on, the
            // root facade, and the linter itself (it holds itself to its
            // own standard). `bench` is exempt.
            panic_crates: v(&[
                "core", "data", "deep", "fault", "html", "lint", "matcher", "nlp", "obs", "prof",
                "rng", "stats", "store", "trace", "web", "webiq", "why",
            ]),
            wallclock_exempt_crates: v(&["bench"]),
            wallclock_exempt_files: v(&["timing.rs"]),
            env_exempt_files: v(&["config.rs"]),
        }
    }
}

/// What linting one file produced.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Violations that survived suppression.
    pub violations: Vec<Violation>,
    /// Suppressions honoured.
    pub suppressed: usize,
}

/// A parsed `lint:allow` directive.
#[derive(Debug)]
struct Allow {
    line: u32,
    col: u32,
    rule: String,
    reason: String,
}

/// An inclusive line range exempt from the code rules (a `#[cfg(test)]`
/// item, typically the test module at the bottom of a file).
#[derive(Debug, Clone, Copy)]
pub struct LineRange {
    /// First exempt line (1-based, inclusive).
    pub start: u32,
    /// Last exempt line (1-based, inclusive).
    pub end: u32,
}

impl LineRange {
    /// Is `line` inside this range?
    pub fn contains(&self, line: u32) -> bool {
        self.start <= line && line <= self.end
    }
}

/// Lint one classified source file.
pub fn lint_source(file: &SourceFile, scope: &Scope) -> FileOutcome {
    let toks = lexer::lex(&file.text);
    let sig: Vec<Tok> = toks.iter().filter(|t| !is_comment(t)).cloned().collect();
    let allows = collect_allows(&toks);
    let deterministic = toks
        .iter()
        .any(|t| is_comment(t) && !is_doc_comment(t) && t.text.contains("lint:deterministic"));
    let exempt = cfg_test_ranges(&sig);
    let in_exempt = |line: u32| exempt.iter().any(|r| r.contains(line));

    let mut raw: Vec<Violation> = Vec::new();
    let mut push = |file: &SourceFile, t: &Tok, rule: &'static str, msg: String| {
        raw.push(Violation {
            file: file.rel.clone(),
            line: t.line,
            col: t.col,
            rule,
            msg,
        });
    };

    let panic_scope = scope.panic_crates.contains(&file.crate_name) && !file.is_bin;
    // `webiq-trace` promises byte-identical traces, so wall-clock types
    // may not even be *named* there outside the sanctioned timing module
    // (clippy's `disallowed_methods` only catches the `::now()` calls).
    let trace_clock_scope =
        file.crate_name == "trace" && !scope.wallclock_exempt_files.contains(&file.file_name);

    let hash_names = if deterministic {
        collect_hash_names(&sig)
    } else {
        Vec::new()
    };

    for (i, t) in sig.iter().enumerate() {
        if in_exempt(t.line) {
            continue;
        }
        if panic_scope && slice_arith_at(&sig, i) {
            push(
                file,
                t,
                "slice-arith",
                "index expression subtracts; use split_last/get or justify with lint:allow".into(),
            );
        }
        if trace_clock_scope && (t.is_ident("Instant") || t.is_ident("SystemTime")) {
            push(
                file,
                t,
                "trace-hygiene",
                format!(
                    "`{}` in webiq-trace outside timing.rs; wall-clock stays in the timing module",
                    t.text
                ),
            );
        }
        if discarded_guard_at(&sig, i) {
            push(
                file,
                t,
                "trace-hygiene",
                "`let _ = span…` drops the RAII guard at once, closing the span immediately; \
                 bind it (`let _span = …`) for the region it should cover"
                    .into(),
            );
        }
        if deterministic {
            if let Some((at, msg)) = hash_iter_at(&sig, i, &hash_names) {
                push(file, at, "hash-iter", msg);
            }
        }
    }

    if file.is_crate_root {
        crate_doc(file, &toks, &mut raw);
    }

    apply_allows(file, raw, &allows)
}

fn is_comment(t: &Tok) -> bool {
    matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
}

/// Is this a doc comment (`//!`, `///`, `/*!`, `/**`)? Directives are
/// only honoured in plain comments so that documentation *describing*
/// the `lint:allow` syntax is never parsed as a directive.
fn is_doc_comment(t: &Tok) -> bool {
    is_comment(t) && (t.text.starts_with('!') || t.text.starts_with('/') || t.text.starts_with('*'))
}

/// Parse every `lint:allow(rule) reason` comment.
fn collect_allows(toks: &[Tok]) -> Vec<Allow> {
    let mut out = Vec::new();
    for t in toks {
        if !is_comment(t) || is_doc_comment(t) {
            continue;
        }
        let Some(pos) = t.text.find("lint:allow(") else {
            continue;
        };
        let Some(rest) = t.text.get(pos.saturating_add("lint:allow(".len())..) else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            out.push(Allow {
                line: t.line,
                col: t.col,
                rule: String::new(),
                reason: String::new(),
            });
            continue;
        };
        let rule = rest.get(..close).unwrap_or("").trim().to_string();
        let reason = rest
            .get(close.saturating_add(1)..)
            .unwrap_or("")
            .trim()
            .to_string();
        out.push(Allow {
            line: t.line,
            col: t.col,
            rule,
            reason,
        });
    }
    out
}

/// Match suppressions against raw violations. An allow covers its own
/// line and the next line; allows without a reason (or with an unknown
/// rule id) never suppress and are reported as `bad-allow`.
fn apply_allows(file: &SourceFile, raw: Vec<Violation>, allows: &[Allow]) -> FileOutcome {
    let mut outcome = FileOutcome::default();
    for a in allows {
        if a.rule.is_empty() || !known_rule(&a.rule) {
            outcome.violations.push(Violation {
                file: file.rel.clone(),
                line: a.line,
                col: a.col,
                rule: "bad-allow",
                msg: format!("lint:allow names unknown rule `{}`", a.rule),
            });
        } else if a.reason.is_empty() {
            outcome.violations.push(Violation {
                file: file.rel.clone(),
                line: a.line,
                col: a.col,
                rule: "bad-allow",
                msg: format!("lint:allow({}) must carry a reason", a.rule),
            });
        }
    }
    for v in raw {
        let suppressed = allows.iter().any(|a| {
            a.rule == v.rule
                && !a.reason.is_empty()
                && known_rule(&a.rule)
                && (a.line == v.line || a.line.saturating_add(1) == v.line)
        });
        if suppressed {
            outcome.suppressed = outcome.suppressed.saturating_add(1);
        } else {
            outcome.violations.push(v);
        }
    }
    outcome
}

/// The tokens of exactly `#[cfg(test)]`. Any other `cfg` — notably
/// `#[cfg(not(test))]`, which marks production-only code — is not test
/// code.
const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];

/// Inclusive line ranges of `#[cfg(test)]` items (attribute through the
/// end of the item's brace block or terminating semicolon).
pub fn cfg_test_ranges(sig: &[Tok]) -> Vec<LineRange> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(t) = sig.get(i) {
        if !t.is_punct('#') || !matches!(sig.get(i.saturating_add(1)), Some(b) if b.is_punct('[')) {
            i = i.saturating_add(1);
            continue;
        }
        let attr_start = i;
        let Some(attr_end) = matching(sig, i.saturating_add(1), '[', ']') else {
            i = i.saturating_add(1);
            continue;
        };
        let is_test = sig
            .get(i..=attr_end)
            .is_some_and(|window| window.iter().map(|w| w.text.as_str()).eq(CFG_TEST));
        if !is_test {
            i = attr_end.saturating_add(1);
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut k = attr_end.saturating_add(1);
        while matches!(sig.get(k), Some(h) if h.is_punct('#'))
            && matches!(sig.get(k.saturating_add(1)), Some(b) if b.is_punct('['))
        {
            match matching(sig, k.saturating_add(1), '[', ']') {
                Some(e) => k = e.saturating_add(1),
                None => break,
            }
        }
        // The item runs to its matching `}` (mod/fn/impl) or a `;`.
        let mut depth = 0i64;
        let mut end = k;
        while let Some(t2) = sig.get(end) {
            if t2.is_punct('{') {
                if depth == 0 {
                    if let Some(close) = matching(sig, end, '{', '}') {
                        end = close;
                    }
                    break;
                }
                depth = depth.saturating_add(1);
            } else if t2.is_punct('(') || t2.is_punct('[') {
                depth = depth.saturating_add(1);
            } else if t2.is_punct(')') || t2.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if t2.is_punct(';') && depth == 0 {
                break;
            }
            end = end.saturating_add(1);
        }
        let start_line = sig.get(attr_start).map_or(1, |t2| t2.line);
        let end_line = sig.get(end).map_or(start_line, |t2| t2.line);
        out.push(LineRange {
            start: start_line,
            end: end_line,
        });
        i = end.saturating_add(1);
    }
    out
}

/// Index of the token closing the bracket opened at `open_idx`.
fn matching(sig: &[Tok], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i64;
    let mut i = open_idx;
    while let Some(t) = sig.get(i) {
        if t.is_punct(open) {
            depth = depth.saturating_add(1);
        } else if t.is_punct(close) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return Some(i);
            }
        }
        i = i.saturating_add(1);
    }
    None
}

/// `slice-arith`: an index expression (`x[…]` following a value) whose
/// bracket contents contain a binary `-` — the underflow-prone pattern
/// (`w[..n - 1]`, `v[v.len() - 1]`).
pub fn slice_arith_at(sig: &[Tok], i: usize) -> bool {
    let Some(t) = sig.get(i) else { return false };
    if !t.is_punct('[') {
        return false;
    }
    // Only *index* positions: the bracket directly follows a value token.
    let is_index = i.checked_sub(1).and_then(|p| sig.get(p)).is_some_and(|p| {
        matches!(p.kind, TokKind::Ident | TokKind::Number)
            || p.is_punct(')')
            || p.is_punct(']')
            || p.is_punct('?')
    });
    if !is_index {
        return false;
    }
    let Some(close) = matching(sig, i, '[', ']') else {
        return false;
    };
    let mut k = i.saturating_add(1);
    while k < close {
        let Some(c) = sig.get(k) else { break };
        if c.is_punct('-') {
            let prev_val = k.checked_sub(1).and_then(|p| sig.get(p)).is_some_and(|p| {
                matches!(p.kind, TokKind::Ident | TokKind::Number)
                    || p.is_punct(')')
                    || p.is_punct(']')
            });
            let arrow = sig
                .get(k.saturating_add(1))
                .is_some_and(|n| n.is_punct('>'));
            if prev_val && !arrow {
                return true;
            }
        }
        k = k.saturating_add(1);
    }
    false
}

/// Functions returning a `#[must_use]` RAII guard whose immediate drop
/// is almost certainly a bug (`span` → `SpanGuard`, `scope` →
/// `TraceScope`). `let _ = …` silences the must-use warning while still
/// dropping — exactly the case the compiler cannot catch.
const GUARD_FNS: [&str; 3] = ["span", "span_attr", "scope"];

/// `trace-hygiene`: a `let _ = …;` statement whose right-hand side calls
/// a span-guard constructor, discarding the guard immediately.
fn discarded_guard_at(sig: &[Tok], i: usize) -> bool {
    let Some(t) = sig.get(i) else { return false };
    if !t.is_ident("let")
        || !sig
            .get(i.saturating_add(1))
            .is_some_and(|u| u.is_ident("_"))
        || !sig
            .get(i.saturating_add(2))
            .is_some_and(|e| e.is_punct('='))
    {
        return false;
    }
    let mut depth = 0i64;
    let mut j = i.saturating_add(3);
    let mut budget = 200usize;
    while let Some(x) = sig.get(j) {
        budget = budget.saturating_sub(1);
        if budget == 0 {
            return false;
        }
        if x.is_punct('(') || x.is_punct('[') || x.is_punct('{') {
            depth = depth.saturating_add(1);
        } else if x.is_punct(')') || x.is_punct(']') || x.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && x.is_punct(';') {
            return false;
        } else if x.kind == TokKind::Ident
            && GUARD_FNS.iter().any(|g| x.is_ident(g))
            && sig
                .get(j.saturating_add(1))
                .is_some_and(|p| p.is_punct('('))
        {
            return true;
        }
        j = j.saturating_add(1);
    }
    false
}

/// Are tokens `i`, `i+1` the two colons of a `::` path separator?
fn path_sep(sig: &[Tok], i: usize) -> bool {
    sig.get(i).is_some_and(|a| a.is_punct(':'))
        && sig
            .get(i.saturating_add(1))
            .is_some_and(|b| b.is_punct(':'))
}

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// Iterator-producing methods whose order is the hasher's.
pub const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Idents that mark the unordered stream as re-sorted or order-insensitive
/// when they appear later in the same statement.
const SANCTIONED: [&str; 16] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "sum",
    "count",
    "min",
    "max",
    "fold",
    "len",
    "all",
];

/// Identifiers declared with a `HashMap`/`HashSet` type: `name: HashMap<…>`
/// annotations (fields, params, and annotated `let`s) and
/// `name = HashMap::new()`-style bindings. A documented heuristic: it sees
/// only in-file declarations, so tag-file authors keep hash-typed locals
/// locally annotated (the workspace style does anyway).
pub fn collect_hash_names(sig: &[Tok]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        // name : [&] [mut] HashMap — but not `name ::` (a path).
        let colon = sig
            .get(i.saturating_add(1))
            .is_some_and(|c| c.is_punct(':'));
        let double = path_sep(sig, i.saturating_add(1));
        if colon && !double {
            let mut j = i.saturating_add(2);
            while sig.get(j).is_some_and(|x| {
                x.is_punct('&') || x.is_ident("mut") || x.kind == TokKind::Lifetime
            }) {
                j = j.saturating_add(1);
            }
            if sig
                .get(j)
                .is_some_and(|x| HASH_TYPES.iter().any(|h| x.is_ident(h)))
            {
                out.push(t.text.clone());
                continue;
            }
        }
        // name = HashMap::…
        if sig
            .get(i.saturating_add(1))
            .is_some_and(|e| e.is_punct('='))
            && sig
                .get(i.saturating_add(2))
                .is_some_and(|x| HASH_TYPES.iter().any(|h| x.is_ident(h)))
        {
            out.push(t.text.clone());
        }
    }
    out.sort();
    out.dedup();
    out
}

/// `hash-iter` at token `i` in a `lint:deterministic` file: a hash-typed
/// name feeding an iterator method chain whose order would reach
/// downstream state unsorted. Returns the token to anchor the violation
/// on. A `for` loop over a hash container is clippy's
/// `iter_over_hash_type`, in the workspace lint table.
fn hash_iter_at<'a>(sig: &'a [Tok], i: usize, hash_names: &[String]) -> Option<(&'a Tok, String)> {
    let t = sig.get(i)?;
    // name.iter()/keys()/… where `name` is hash-typed
    if t.kind == TokKind::Ident && hash_names.contains(&t.text) {
        let dot = sig
            .get(i.saturating_add(1))
            .is_some_and(|d| d.is_punct('.'));
        let method = sig.get(i.saturating_add(2));
        if dot {
            if let Some(m) = method {
                if ITER_METHODS.iter().any(|im| m.is_ident(im))
                    && sig
                        .get(i.saturating_add(3))
                        .is_some_and(|p| p.is_punct('('))
                    && !statement_sanctioned(sig, i.saturating_add(3))
                {
                    return Some((
                        t,
                        format!(
                            "`{}.{}()` iterates a hash container in a deterministic module; \
                             re-sort the result or justify with lint:allow",
                            t.text, m.text
                        ),
                    ));
                }
            }
        }
    }
    None
}

/// Does the statement containing the call at `open_paren` later re-sort
/// or reduce the stream (a `SANCTIONED` ident before the statement
/// ends)?
pub fn statement_sanctioned(sig: &[Tok], open_paren: usize) -> bool {
    let mut depth = 0i64;
    let mut j = open_paren;
    let mut budget = 400usize;
    while let Some(x) = sig.get(j) {
        budget = budget.saturating_sub(1);
        if budget == 0 {
            return false;
        }
        if x.is_punct('(') || x.is_punct('[') {
            depth = depth.saturating_add(1);
        } else if x.is_punct(')') || x.is_punct(']') {
            if depth == 0 {
                return false;
            }
            depth = depth.saturating_sub(1);
        } else if depth == 0 && (x.is_punct(';') || x.is_punct('{') || x.is_punct('}')) {
            return false;
        } else if x.kind == TokKind::Ident && SANCTIONED.iter().any(|s| x.is_ident(s)) {
            return true;
        }
        j = j.saturating_add(1);
    }
    false
}

/// Crate-root hygiene: a crate-level `//!` doc comment.
fn crate_doc(file: &SourceFile, toks: &[Tok], raw: &mut Vec<Violation>) {
    let has_doc = toks
        .iter()
        .any(|t| is_comment(t) && t.text.starts_with('!'));
    if !has_doc {
        raw.push(Violation {
            file: file.rel.clone(),
            line: 1,
            col: 1,
            rule: "crate-doc",
            msg: "crate root must carry a crate-level `//!` doc comment".into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_file(text: &str) -> SourceFile {
        SourceFile {
            rel: "crates/core/src/x.rs".into(),
            crate_name: "core".into(),
            file_name: "x.rs".into(),
            is_crate_root: false,
            is_bin: false,
            text: text.into(),
        }
    }

    fn rules_hit(text: &str) -> Vec<&'static str> {
        let out = lint_source(&lib_file(text), &Scope::default());
        out.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn slice_arith_flagged_only_for_index_subtraction() {
        assert_eq!(
            rules_hit("fn f() { let y = v[v.len() - 1]; }"),
            vec!["slice-arith"]
        );
        assert_eq!(
            rules_hit("fn f() { let y = &w[..n - 1]; }"),
            vec!["slice-arith"]
        );
        assert!(rules_hit("fn f() { let y = v[0]; }").is_empty());
        assert!(rules_hit("fn f() { let y = &w[i + 1..]; }").is_empty());
        assert!(
            rules_hit("fn f() { let a = [x - 1, 2]; }").is_empty(),
            "array literal"
        );
        assert!(rules_hit("fn f() { let y = v[i]; let z = a - b; }").is_empty());
    }

    #[test]
    fn cfg_test_module_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n fn g() { v[v.len() - 1]; }\n}\n";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn only_exact_cfg_test_is_test_code() {
        for attr in [
            "#[cfg(not(test))]",
            "#[cfg(any(test, unix))]",
            "#[cfg_attr(test, derive(Debug))]",
        ] {
            let src = format!("{attr}\nfn f() {{ v[v.len() - 1]; }}\n");
            assert_eq!(rules_hit(&src), vec!["slice-arith"], "{attr}");
        }
    }

    #[test]
    fn bin_files_exempt_from_panic_rules() {
        let mut f = lib_file("fn main() { v[v.len() - 1]; }");
        f.is_bin = true;
        assert!(lint_source(&f, &Scope::default()).violations.is_empty());
    }

    #[test]
    fn fault_crate_is_in_panic_scope() {
        let mut f = lib_file("fn f() { v[v.len() - 1]; }");
        f.rel = "crates/fault/src/x.rs".into();
        f.crate_name = "fault".into();
        let rules: Vec<_> = lint_source(&f, &Scope::default())
            .violations
            .iter()
            .map(|v| v.rule)
            .collect();
        assert_eq!(rules, vec!["slice-arith"]);
    }

    #[test]
    fn hash_iter_in_tagged_file() {
        let src = "// lint:deterministic\n\
                   fn f(m: HashMap<String, u32>) {\n\
                   let v: Vec<_> = m.keys().collect();\n\
                   }\n";
        assert_eq!(rules_hit(src), vec!["hash-iter"]);
        // re-sorted in the same statement → sanctioned
        let sorted = "// lint:deterministic\n\
                      fn f(m: HashMap<String, u32>) {\n\
                      let v: BTreeSet<_> = m.keys().collect::<BTreeSet<_>>();\n\
                      }\n";
        assert!(rules_hit(sorted).is_empty());
        // untagged file → rule inactive
        let untagged = "fn f(m: HashMap<String, u32>) { let v: Vec<_> = m.keys().collect(); }";
        assert!(rules_hit(untagged).is_empty());
    }

    #[test]
    fn discarded_span_guard_flagged() {
        assert_eq!(
            rules_hit("fn f() { let _ = webiq_trace::span(\"x\"); work(); }"),
            vec!["trace-hygiene"]
        );
        assert_eq!(
            rules_hit("fn f(t: &Tracer) { let _ = t.scope(\"run\", \"book\"); }"),
            vec!["trace-hygiene"]
        );
        // a *named* binding holds the guard for the region — fine
        assert!(rules_hit("fn f() { let _span = webiq_trace::span(\"x\"); work(); }").is_empty());
        // `let _ = …` of something unrelated is fine
        assert!(rules_hit("fn f() { let _ = compute(); }").is_empty());
    }

    #[test]
    fn wall_clock_types_confined_to_trace_timing_module() {
        let src = "use std::time::Instant;\nfn f() {}\n";
        let mut f = lib_file(src);
        f.rel = "crates/trace/src/tracer.rs".into();
        f.crate_name = "trace".into();
        f.file_name = "tracer.rs".into();
        let rules: Vec<_> = lint_source(&f, &Scope::default())
            .violations
            .iter()
            .map(|v| v.rule)
            .collect();
        assert_eq!(rules, vec!["trace-hygiene"]);
        // the sanctioned timing module may name Instant freely
        f.rel = "crates/trace/src/timing.rs".into();
        f.file_name = "timing.rs".into();
        assert!(lint_source(&f, &Scope::default()).violations.is_empty());
        // other crates may name the types; clippy checks their `now` calls
        let g = lib_file(src);
        assert!(lint_source(&g, &Scope::default()).violations.is_empty());
    }

    #[test]
    fn allows_suppress_and_are_counted() {
        let src = "fn f() {\n\
                   // lint:allow(slice-arith) invariant: v is non-empty\n\
                   v[v.len() - 1];\n\
                   }\n";
        let out = lint_source(&lib_file(src), &Scope::default());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.suppressed, 1);
    }

    #[test]
    fn allow_without_reason_rejected() {
        let src = "fn f() {\n// lint:allow(slice-arith)\nv[v.len() - 1];\n}\n";
        let out = lint_source(&lib_file(src), &Scope::default());
        let rules: Vec<_> = out.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"bad-allow"));
        assert!(
            rules.contains(&"slice-arith"),
            "reasonless allow must not suppress"
        );
        assert_eq!(out.suppressed, 0);
    }

    #[test]
    fn doc_comments_never_parsed_as_directives() {
        let src = "//! Use `// lint:allow(rule-id) reason` to suppress.\n\
                   /// Also mentions lint:allow(whatever) here.\n\
                   fn f() {}\n";
        let out = lint_source(&lib_file(src), &Scope::default());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn allow_unknown_rule_rejected() {
        let src = "// lint:allow(no-such-rule) because\nfn f() {}\n";
        let out = lint_source(&lib_file(src), &Scope::default());
        assert_eq!(
            out.violations.iter().map(|v| v.rule).collect::<Vec<_>>(),
            vec!["bad-allow"]
        );
    }

    #[test]
    fn hygiene_rules_on_roots_only() {
        let mut f = lib_file("fn f() {}\n");
        assert!(lint_source(&f, &Scope::default()).violations.is_empty());
        f.is_crate_root = true;
        let rules: Vec<_> = lint_source(&f, &Scope::default())
            .violations
            .iter()
            .map(|v| v.rule)
            .collect();
        assert_eq!(rules, vec!["crate-doc"]);
        f.text = "//! Crate docs.\nfn f() {}\n".into();
        assert!(lint_source(&f, &Scope::default()).violations.is_empty());
    }
}
