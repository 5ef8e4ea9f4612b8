//! webiq-flow — the cross-crate flow passes over the call graph.
//!
//! Three analyses run on the graph built by [`crate::graph`]:
//!
//! 1. **Panic-reachability certification** (`flow-panic`). Every public
//!    function of the certified library crates must be unable to reach a
//!    panic site (`unwrap`/`expect`/`panic!`-family/subtracting index)
//!    transitively through the call graph. Each certified crate gets a
//!    certificate recording its public-API count and whether it proved
//!    panic-free; any failure comes with a deterministic witness path.
//! 2. **Lock-order analysis** (`flow-lock`). Mutex acquisitions (direct
//!    `.lock()` and the workspace's `lock`/`lock_shard` wrappers) are
//!    grouped into *classes* (`Owner.field`, statics, fn-locals). The
//!    pass flags same-class nested acquisition (std mutexes are not
//!    reentrant → self-deadlock), calls made while holding a lock whose
//!    callee can transitively re-acquire the held class, and inconsistent
//!    pair ordering (`A` held while taking `B` somewhere, `B` held while
//!    taking `A` elsewhere → classic ABBA deadlock).
//! 3. **Determinism taint** (`flow-taint`). Sources — unsorted
//!    `HashMap`/`HashSet` iteration, `env::var` outside the config
//!    plumbing, wall-clock reads outside `timing.rs`/bench — taint their
//!    function and every transitive caller; a tainted function that
//!    calls a trace/obs emission sink is flagged, because nondeterminism
//!    would leak into the byte-identical trace/metrics output.
//!
//! Suppression rides the existing `// lint:allow(rule) reason` comments:
//! a site suppressed for its `flow-*` id (or for `slice-arith` or
//! `hash-iter`, the lexical rules for the same sites) is excluded from
//! seeding the passes, so one audited allow covers both the lexical and
//! flow layer.
//!
//! Output is deterministic: violations sort by (file, line, col, rule),
//! certificates by crate, and the SARIF-style JSON report is rendered
//! one record per line so identical inputs are byte-identical and the
//! committed `FLOW_BASELINE.json` diffs cleanly.

use std::io;
use std::path::Path;

use crate::graph::{self, DepClosure, Graph, Node, ParsedSource};
use crate::parse::{self, CallKind, SiteKind};
use crate::rules::{Scope, SourceFile};

/// Crates whose public APIs are certified panic-free (the paper pipeline
/// plus the observability substrate; `lint`, `rng`, and `bench` are
/// harness code and stay outside the certificate set).
pub const CERTIFIED_CRATES: [&str; 14] = [
    "core", "data", "deep", "fault", "html", "matcher", "nlp", "obs", "prof", "stats", "store",
    "trace", "web", "why",
];

/// Public trace/obs entry points that emit into the deterministic
/// trace/metrics streams; tainted callers of these are flagged.
const SINK_NAMES: [&str; 12] = [
    "add",
    "end_epoch",
    "gauge",
    "incr",
    "item",
    "observe",
    "publish",
    "publish_item",
    "span",
    "span_attr",
    "submit",
    "render",
];

/// One flow finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowViolation {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// `flow-panic` / `flow-lock` / `flow-taint`.
    pub rule: &'static str,
    /// Human-readable message (deterministic).
    pub msg: String,
}

impl FlowViolation {
    /// Stable identity used by the baseline comparison.
    pub fn key(&self) -> String {
        format!("{}|{}|{}|{}", self.rule, self.file, self.line, self.col)
    }
}

/// Per-crate panic certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Crate directory name.
    pub krate: String,
    /// Number of public library functions examined.
    pub public_apis: usize,
    /// True when none of them can reach a panic site.
    pub panic_free: bool,
}

/// Analyzer statistics (recorded in the JSON report for drift review).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Source files parsed.
    pub files: usize,
    /// Function items in the graph.
    pub functions: usize,
    /// Distinct call edges.
    pub edges: usize,
    /// Calls resolved to at least one workspace target.
    pub resolved_calls: usize,
    /// Calls with no workspace target (std, closures).
    pub unresolved_calls: usize,
    /// Effect sites excluded by audited `lint:allow` suppressions.
    pub suppressed: usize,
}

/// The full flow-analysis result.
#[derive(Debug, Clone, Default)]
pub struct FlowReport {
    /// Findings, sorted by (file, line, col, rule).
    pub violations: Vec<FlowViolation>,
    /// Certificates, sorted by crate.
    pub certificates: Vec<Certificate>,
    /// Analyzer statistics.
    pub stats: FlowStats,
}

/// Run the flow analysis over every workspace source under `root`.
pub fn flow_workspace(root: &Path) -> io::Result<FlowReport> {
    let files = crate::walk::workspace_sources(root)?;
    let closure = graph::dep_closure(root);
    Ok(analyze_files(&files, &closure, &Scope::default()))
}

/// Run the flow analysis over an explicit file set (used by fixtures).
pub fn analyze_files(files: &[SourceFile], closure: &DepClosure, scope: &Scope) -> FlowReport {
    let sources: Vec<ParsedSource> = files
        .iter()
        .map(|f| ParsedSource {
            rel: f.rel.clone(),
            crate_name: f.crate_name.clone(),
            is_bin: f.is_bin,
            parsed: parse::parse_file(&f.text),
        })
        .collect();
    let g = graph::build(&sources, closure);

    let mut suppressed = 0usize;
    for n in &g.nodes {
        if n.def.in_test || n.is_bin {
            continue;
        }
        suppressed = suppressed.saturating_add(n.def.sites.iter().filter(|s| s.suppressed).count());
    }

    let mut violations = Vec::new();
    let mut certificates = Vec::new();
    panic_pass(&g, &mut violations, &mut certificates);
    lock_pass(&g, &mut violations);
    taint_pass(&g, scope, &mut violations);

    violations.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.col.cmp(&b.col))
            .then(a.rule.cmp(b.rule))
            .then(a.msg.cmp(&b.msg))
    });
    violations.dedup();
    certificates.sort_by(|a, b| a.krate.cmp(&b.krate));

    let edges: usize = g.edges.iter().map(Vec::len).sum();
    FlowReport {
        violations,
        certificates,
        stats: FlowStats {
            files: files.len(),
            functions: g.nodes.len(),
            edges,
            resolved_calls: g.resolved_calls,
            unresolved_calls: g.unresolved_calls,
            suppressed,
        },
    }
}

/// Short display name for witness paths.
fn node_name(n: &Node) -> String {
    match &n.def.owner {
        Some(o) => format!("{}::{}", o, n.def.name),
        None => n.def.name.clone(),
    }
}

/// Render a witness path `a → b → c`, eliding the middle past 5 hops.
fn render_path(g: &Graph, path: &[usize]) -> String {
    let names: Vec<String> = path
        .iter()
        .filter_map(|&i| g.nodes.get(i))
        .map(node_name)
        .collect();
    if names.len() <= 5 {
        names.join(" -> ")
    } else {
        let head = names.first().cloned().unwrap_or_default();
        let tail: Vec<String> = names.iter().rev().take(3).rev().cloned().collect();
        format!("{head} -> … -> {}", tail.join(" -> "))
    }
}

/// Pass 1: panic-reachability certification.
fn panic_pass(g: &Graph, violations: &mut Vec<FlowViolation>, certificates: &mut Vec<Certificate>) {
    // seeds: functions containing a live panic site in library code
    let seeds: Vec<usize> = g.select(|n| {
        !n.is_bin
            && !n.def.in_test
            && n.def
                .sites
                .iter()
                .any(|s| s.kind == SiteKind::Panic && !s.suppressed)
    });
    let seed_mask: Vec<bool> = {
        let mut m = vec![false; g.nodes.len()];
        for &s in &seeds {
            if let Some(slot) = m.get_mut(s) {
                *slot = true;
            }
        }
        m
    };
    let reaches_panic = g.reaches_any(&seeds);

    for krate in CERTIFIED_CRATES {
        let roots = g.select(|n| n.krate == krate && n.def.is_pub && !n.is_bin && !n.def.in_test);
        let mut clean = true;
        for &r in &roots {
            if !reaches_panic.get(r).copied().unwrap_or(false) {
                continue;
            }
            clean = false;
            let Some(root) = g.nodes.get(r) else { continue };
            let path = g.witness_path(r, &seed_mask).unwrap_or_default();
            let site = path
                .last()
                .and_then(|&t| g.nodes.get(t))
                .and_then(|n| {
                    n.def
                        .sites
                        .iter()
                        .find(|s| s.kind == SiteKind::Panic && !s.suppressed)
                        .map(|s| format!("{} at {}:{}:{}", s.detail, n.file, s.line, s.col))
                })
                .unwrap_or_else(|| "panic site".to_string());
            violations.push(FlowViolation {
                file: root.file.clone(),
                line: root.def.line,
                col: root.def.col,
                rule: "flow-panic",
                msg: format!(
                    "public fn `{}` of certified crate `{krate}` can reach {site} (path: {})",
                    node_name(root),
                    render_path(g, &path),
                ),
            });
        }
        certificates.push(Certificate {
            krate: krate.to_string(),
            public_apis: roots.len(),
            panic_free: clean,
        });
    }
}

/// Qualified lock class for a parse-local receiver chain.
///
/// `self.field` chains qualify by the impl owner (`Owner.field` — the
/// same class for every instance of the type, which is what shard-order
/// reasoning needs); ALL_CAPS roots are statics and qualify globally by
/// crate; anything else (params, locals) is function-scoped.
fn qualify_class(n: &Node, chain: &str) -> String {
    if let Some(rest) = chain.strip_prefix("self.") {
        if let Some(owner) = n.def.owner.as_deref() {
            return format!("{owner}.{rest}");
        }
    }
    let root = chain.split('.').next().unwrap_or(chain);
    let is_static = !root.is_empty() && root.chars().all(|c| c.is_ascii_uppercase() || c == '_');
    if is_static {
        return format!("{}::{chain}", n.krate);
    }
    format!("{}#{}.{chain}", n.file, n.def.name)
}

/// True when `n` is a lock wrapper whose own lock site is call-site
/// resolved (its class is a bare parameter, not a real class).
fn is_wrapper_node(n: &Node) -> bool {
    let name = &n.def.name;
    name == "lock" || name.starts_with("lock_") || name.ends_with("_lock")
}

/// Pass 2: lock-order analysis.
fn lock_pass(g: &Graph, violations: &mut Vec<FlowViolation>) {
    use std::collections::{BTreeMap, BTreeSet};

    // transitive lock classes per node (wrapper-internal classes are
    // call-site resolved and excluded from propagation)
    let mut classes: Vec<BTreeSet<String>> = g
        .nodes
        .iter()
        .map(|n| {
            if n.def.in_test || is_wrapper_node(n) {
                return BTreeSet::new();
            }
            n.def
                .sites
                .iter()
                .filter(|s| s.kind == SiteKind::Lock && !s.suppressed)
                .map(|s| qualify_class(n, &s.detail))
                .collect()
        })
        .collect();
    // fixed point: a node's set absorbs its callees'; worklist over redges
    let mut work: Vec<usize> = (0..g.nodes.len()).collect();
    while let Some(v) = work.pop() {
        let mut merged = classes.get(v).cloned().unwrap_or_default();
        if let Some(callees) = g.edges.get(v) {
            for &c in callees {
                if let Some(set) = classes.get(c) {
                    merged.extend(set.iter().cloned());
                }
            }
        }
        let grew = classes.get(v).is_some_and(|cur| merged.len() > cur.len());
        if grew {
            if let Some(slot) = classes.get_mut(v) {
                *slot = merged;
            }
            if let Some(callers) = g.redges.get(v) {
                for &c in callers {
                    work.push(c);
                }
            }
        }
    }

    // ordered pairs (held, acquired) → first site that witnessed them
    let mut pairs: BTreeMap<(String, String), (String, u32, u32)> = BTreeMap::new();
    for (i, n) in g.nodes.iter().enumerate() {
        if n.def.in_test || is_wrapper_node(n) {
            continue;
        }
        // direct acquisitions
        for s in &n.def.sites {
            if s.kind != SiteKind::Lock || s.suppressed {
                continue;
            }
            let acquired = qualify_class(n, &s.detail);
            for h in &s.held_locks {
                let held = qualify_class(n, h);
                if held == acquired {
                    violations.push(FlowViolation {
                        file: n.file.clone(),
                        line: s.line,
                        col: s.col,
                        rule: "flow-lock",
                        msg: format!(
                            "nested acquisition of lock class `{acquired}` while already held \
                             (std mutexes are not reentrant: self-deadlock)"
                        ),
                    });
                } else {
                    pairs.entry((held, acquired.clone())).or_insert((
                        n.file.clone(),
                        s.line,
                        s.col,
                    ));
                }
            }
        }
        // calls made while holding a lock: the callee may re-acquire.
        // Method calls are excluded: their receivers are type-unresolved,
        // so every same-named method would count as a callee and
        // ubiquitous names (`get`, `len`) on a freshly-locked guard would
        // read as self-deadlocks. Free/path calls resolve precisely, and
        // the workspace's cross-function lock patterns (wrappers, module
        // helpers) all flow through those.
        for c in &n.def.calls {
            if c.held_locks.is_empty() || c.kind == CallKind::Method {
                continue;
            }
            let mut acquired: BTreeSet<String> = BTreeSet::new();
            if let Some(callees) = g.edges.get(i) {
                for &t in callees {
                    // only edges that correspond to this call by name
                    let Some(tn) = g.nodes.get(t) else { continue };
                    if tn.def.name != c.name {
                        continue;
                    }
                    if let Some(set) = classes.get(t) {
                        acquired.extend(set.iter().cloned());
                    }
                }
            }
            for h in &c.held_locks {
                let held = qualify_class(n, h);
                for a in &acquired {
                    if *a == held {
                        violations.push(FlowViolation {
                            file: n.file.clone(),
                            line: c.line,
                            col: c.col,
                            rule: "flow-lock",
                            msg: format!(
                                "call to `{}` while holding lock class `{held}` may re-acquire \
                                 it transitively (self-deadlock)",
                                c.name
                            ),
                        });
                    } else {
                        pairs.entry((held.clone(), a.clone())).or_insert((
                            n.file.clone(),
                            c.line,
                            c.col,
                        ));
                    }
                }
            }
        }
    }

    // inconsistent ordering: both (a, b) and (b, a) observed
    for ((a, b), (file, line, col)) in &pairs {
        if a < b {
            continue; // report each conflicting pair once, at the (a<b) site
        }
        if let Some((ofile, oline, ocol)) = pairs.get(&(b.clone(), a.clone())) {
            violations.push(FlowViolation {
                file: file.clone(),
                line: *line,
                col: *col,
                rule: "flow-lock",
                msg: format!(
                    "inconsistent lock order: `{a}` held while acquiring `{b}` here, but \
                     `{b}` is held while acquiring `{a}` at {ofile}:{oline}:{ocol} (ABBA deadlock)"
                ),
            });
            violations.push(FlowViolation {
                file: ofile.clone(),
                line: *oline,
                col: *ocol,
                rule: "flow-lock",
                msg: format!(
                    "inconsistent lock order: `{b}` held while acquiring `{a}` here, but \
                     `{a}` is held while acquiring `{b}` at {file}:{line}:{col} (ABBA deadlock)"
                ),
            });
        }
    }
}

/// True when a site is a live determinism-taint source under `scope`.
fn is_taint_source(n: &Node, s: &parse::Site, scope: &Scope) -> bool {
    if s.suppressed || s.sanctioned {
        return false;
    }
    let file_name = n.file.rsplit('/').next().unwrap_or("");
    match s.kind {
        SiteKind::HashIter => true,
        SiteKind::EnvRead => !scope.env_exempt_files.iter().any(|f| f == file_name),
        SiteKind::WallClock => {
            !scope.wallclock_exempt_crates.contains(&n.krate)
                && !scope.wallclock_exempt_files.iter().any(|f| f == file_name)
        }
        _ => false,
    }
}

/// Pass 3: determinism taint into trace/obs emission.
fn taint_pass(g: &Graph, scope: &Scope, violations: &mut Vec<FlowViolation>) {
    let sources: Vec<usize> =
        g.select(|n| !n.def.in_test && n.def.sites.iter().any(|s| is_taint_source(n, s, scope)));
    if sources.is_empty() {
        return;
    }
    let source_mask: Vec<bool> = {
        let mut m = vec![false; g.nodes.len()];
        for &s in &sources {
            if let Some(slot) = m.get_mut(s) {
                *slot = true;
            }
        }
        m
    };
    // tainted: contains a source or (transitively) calls one
    let tainted = g.reaches_any(&sources);

    let sink = |i: usize| -> bool {
        g.nodes.get(i).is_some_and(|n| {
            (n.krate == "trace" || n.krate == "obs")
                && n.def.is_pub
                && !n.def.in_test
                && SINK_NAMES.iter().any(|s| *s == n.def.name)
        })
    };

    for (i, n) in g.nodes.iter().enumerate() {
        if n.is_bin || n.def.in_test || n.krate == "trace" || n.krate == "obs" {
            // the emission substrate itself is covered by its own certs;
            // taint is about *pipeline* data reaching the streams
            continue;
        }
        if !tainted.get(i).copied().unwrap_or(false) {
            continue;
        }
        let calls_sink: Vec<String> = g
            .edges
            .get(i)
            .map(|callees| {
                callees
                    .iter()
                    .filter(|&&t| sink(t))
                    .filter_map(|&t| g.nodes.get(t))
                    .map(node_name)
                    .collect()
            })
            .unwrap_or_default();
        if calls_sink.is_empty() {
            continue;
        }
        // witness: the nearest source this fn can reach
        let witness = g
            .witness_path(i, &source_mask)
            .and_then(|p| p.last().copied())
            .and_then(|t| g.nodes.get(t))
            .and_then(|sn| {
                sn.def
                    .sites
                    .iter()
                    .find(|s| is_taint_source(sn, s, scope))
                    .map(|s| format!("{} at {}:{}:{}", s.detail, sn.file, s.line, s.col))
            })
            .unwrap_or_else(|| "nondeterministic source".to_string());
        let sinks = calls_sink.join(", ");
        violations.push(FlowViolation {
            file: n.file.clone(),
            line: n.def.line,
            col: n.def.col,
            rule: "flow-taint",
            msg: format!(
                "`{}` is tainted by {witness} and emits via trace/obs sink(s) {sinks}; \
                 re-sort or sanction the source before emission",
                node_name(n)
            ),
        });
    }
}

// ---------------------------------------------------------------------
// rendering
// ---------------------------------------------------------------------

impl FlowReport {
    /// True when no finding survived suppression.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.certificates.iter().all(|c| c.panic_free)
    }

    /// Deterministic human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{}:{}:{} {} {}\n",
                v.file, v.line, v.col, v.rule, v.msg
            ));
        }
        out.push_str("certificates:\n");
        for c in &self.certificates {
            out.push_str(&format!(
                "  {:<8} {} public fns — {}\n",
                c.krate,
                c.public_apis,
                if c.panic_free {
                    "panic-free"
                } else {
                    "NOT panic-free"
                }
            ));
        }
        out.push_str(&format!(
            "flow: {} violation(s), {} suppression(s) honoured; {} files, {} fns, {} edges\n",
            self.violations.len(),
            self.stats.suppressed,
            self.stats.files,
            self.stats.functions,
            self.stats.edges,
        ));
        out
    }

    /// SARIF-style JSON, one record per line (byte-identical across runs).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"version\": \"1.0\",\n");
        out.push_str(
            "  \"tool\": {\"name\": \"webiq-flow\", \"rules\": [\"flow-panic\", \"flow-lock\", \"flow-taint\"]},\n",
        );
        out.push_str(&format!(
            "  \"stats\": {{\"files\": {}, \"functions\": {}, \"edges\": {}, \"resolvedCalls\": {}, \"unresolvedCalls\": {}, \"suppressed\": {}}},\n",
            self.stats.files,
            self.stats.functions,
            self.stats.edges,
            self.stats.resolved_calls,
            self.stats.unresolved_calls,
            self.stats.suppressed,
        ));
        out.push_str("  \"certificates\": [\n");
        for (i, c) in self.certificates.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"crate\": \"{}\", \"publicApis\": {}, \"panicFree\": {}}}{}\n",
                json_escape(&c.krate),
                c.public_apis,
                c.panic_free,
                if i.saturating_add(1) < self.certificates.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"results\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"ruleId\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}{}\n",
                v.rule,
                json_escape(&v.file),
                v.line,
                v.col,
                json_escape(&v.msg),
                if i.saturating_add(1) < self.violations.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Minimal JSON string escaping for the report writer.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// baseline comparison
// ---------------------------------------------------------------------

/// Compare the current report against a committed baseline (the JSON
/// text of a previous [`FlowReport::render_json`]). Returns the list of
/// regressions — new violations and certificate `panicFree` flips from
/// `true` to `false`. Disappeared violations are improvements and pass.
pub fn compare_baseline(baseline: &str, current: &FlowReport) -> Vec<String> {
    use std::collections::BTreeSet;

    let mut base_keys: BTreeSet<String> = BTreeSet::new();
    let mut base_free: BTreeSet<String> = BTreeSet::new(); // crates certified panic-free
    for line in baseline.lines() {
        let line = line.trim();
        if line.starts_with("{\"ruleId\"") {
            let rule = field_str(line, "ruleId").unwrap_or_default();
            let file = field_str(line, "file").unwrap_or_default();
            let ln = field_num(line, "line").unwrap_or_default();
            let col = field_num(line, "col").unwrap_or_default();
            base_keys.insert(format!("{rule}|{file}|{ln}|{col}"));
        } else if line.starts_with("{\"crate\"") {
            let krate = field_str(line, "crate").unwrap_or_default();
            if line.contains("\"panicFree\": true") {
                base_free.insert(krate);
            }
        }
    }

    let mut regressions = Vec::new();
    for v in &current.violations {
        if !base_keys.contains(&v.key()) {
            regressions.push(format!(
                "new violation: {}:{}:{} {} {}",
                v.file, v.line, v.col, v.rule, v.msg
            ));
        }
    }
    for c in &current.certificates {
        if !c.panic_free && base_free.contains(&c.krate) {
            regressions.push(format!(
                "certificate regression: crate `{}` was panic-free in the baseline",
                c.krate
            ));
        }
    }
    regressions
}

/// `"name": "value"` extractor for the line-oriented report format.
fn field_str(line: &str, name: &str) -> Option<String> {
    let tag = format!("\"{name}\": \"");
    let start = line.find(&tag)?.checked_add(tag.len())?;
    let rest = line.get(start..)?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => {
                if let Some(e) = chars.next() {
                    out.push(e);
                }
            }
            c => out.push(c),
        }
    }
    None
}

/// `"name": 123` extractor for the line-oriented report format.
fn field_num(line: &str, name: &str) -> Option<u64> {
    let tag = format!("\"{name}\": ");
    let start = line.find(&tag)?.checked_add(tag.len())?;
    let rest = line.get(start..)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn fixture(files: &[(&str, &str, &str)]) -> Vec<SourceFile> {
        files
            .iter()
            .map(|(rel, krate, text)| SourceFile {
                rel: (*rel).to_string(),
                crate_name: (*krate).to_string(),
                file_name: rel.rsplit('/').next().unwrap_or("").to_string(),
                is_crate_root: rel.ends_with("lib.rs"),
                is_bin: false,
                text: (*text).to_string(),
            })
            .collect()
    }

    fn closure_all(crates: &[&str]) -> DepClosure {
        // every crate sees every other (fixtures are small)
        let all: BTreeSet<String> = crates.iter().map(|c| (*c).to_string()).collect();
        crates
            .iter()
            .map(|c| ((*c).to_string(), all.clone()))
            .collect()
    }

    #[test]
    fn json_escape_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn field_extractors() {
        let line =
            r#"{"ruleId": "flow-lock", "file": "a.rs", "line": 3, "col": 7, "message": "m"}"#;
        assert_eq!(field_str(line, "ruleId").as_deref(), Some("flow-lock"));
        assert_eq!(field_str(line, "file").as_deref(), Some("a.rs"));
        assert_eq!(field_num(line, "line"), Some(3));
        assert_eq!(field_num(line, "col"), Some(7));
    }

    #[test]
    fn clean_fixture_certifies() {
        let files = fixture(&[(
            "crates/core/src/lib.rs",
            "core",
            "//! Core.\npub fn run() -> u32 { helper() }\nfn helper() -> u32 { 7 }\n",
        )]);
        let r = analyze_files(&files, &closure_all(&["core"]), &Scope::default());
        assert!(r.is_clean(), "unexpected: {:?}", r.violations);
        let core = r
            .certificates
            .iter()
            .find(|c| c.krate == "core")
            .expect("core certificate");
        assert!(core.panic_free);
        assert_eq!(core.public_apis, 1);
    }

    #[test]
    fn reports_are_byte_identical() {
        let files = fixture(&[(
            "crates/core/src/lib.rs",
            "core",
            "//! Core.\npub fn run() { inner.unwrap(); }\n",
        )]);
        let c = closure_all(&["core"]);
        let a = analyze_files(&files, &c, &Scope::default());
        let b = analyze_files(&files, &c, &Scope::default());
        assert_eq!(a.render_json(), b.render_json());
        assert_eq!(a.render_text(), b.render_text());
    }

    #[test]
    fn baseline_detects_new_violation_and_cert_flip() {
        let clean = analyze_files(
            &fixture(&[(
                "crates/core/src/lib.rs",
                "core",
                "//! Core.\npub fn run() -> u32 { 7 }\n",
            )]),
            &closure_all(&["core"]),
            &Scope::default(),
        );
        let dirty = analyze_files(
            &fixture(&[(
                "crates/core/src/lib.rs",
                "core",
                "//! Core.\npub fn run() { x.unwrap(); }\n",
            )]),
            &closure_all(&["core"]),
            &Scope::default(),
        );
        let baseline = clean.render_json();
        let regressions = compare_baseline(&baseline, &dirty);
        assert!(
            regressions.iter().any(|r| r.starts_with("new violation")),
            "{regressions:?}"
        );
        assert!(
            regressions
                .iter()
                .any(|r| r.starts_with("certificate regression")),
            "{regressions:?}"
        );
        // and the dirty report against itself is quiet
        assert!(compare_baseline(&dirty.render_json(), &dirty).is_empty());
    }
}
