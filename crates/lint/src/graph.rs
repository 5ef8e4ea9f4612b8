//! Workspace-wide call graph over the parsed sources of every crate.
//!
//! Nodes are function items from [`crate::parse`]; edges are call sites
//! resolved *by name*, filtered by the caller crate's dependency closure
//! (parsed from the workspace manifests, so `webiq-bench`'s panicky
//! harness code can never pollute a pipeline crate's certificate — no
//! pipeline crate depends on it). Resolution is deliberately
//! conservative:
//!
//! * free calls resolve within the caller's file, then crate, then its
//!   `use`-imports;
//! * `Qual::name` path calls resolve through imports, crate names,
//!   `impl` self-types, and module (file-stem) names;
//! * method calls resolve to **every** method of that name visible to
//!   the caller — an over-approximation that keeps the passes sound at
//!   the cost of spurious edges, which is the right trade for
//!   certification (a false edge can only make a pass *more* strict).
//!
//! Everything is ordered: nodes sort by (file, line), adjacency lists
//! are sorted and deduplicated, and all internal maps are `BTreeMap`s,
//! so the graph and every report derived from it are byte-identical
//! across runs.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::parse::{Call, CallKind, FnDef, ParsedFile};

/// One parsed source file plus the classification the walker derived.
#[derive(Debug, Clone)]
pub struct ParsedSource {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Owning crate's directory name (`core`, `web`, …; `webiq` root).
    pub crate_name: String,
    /// Binary / test / example target (exempt from certification roots
    /// and effect sites, but still present for edge completeness).
    pub is_bin: bool,
    /// Parsed items.
    pub parsed: ParsedFile,
}

/// One call-graph node: a function item with its location.
#[derive(Debug, Clone)]
pub struct Node {
    /// Workspace-relative file.
    pub file: String,
    /// Owning crate directory name.
    pub krate: String,
    /// From a bin/test/example target.
    pub is_bin: bool,
    /// The parsed function.
    pub def: FnDef,
}

impl Node {
    /// Stable display id: `file::Owner::name` / `file::name`.
    pub fn id(&self) -> String {
        match &self.def.owner {
            Some(o) => format!("{}::{}::{}", self.file, o, self.def.name),
            None => format!("{}::{}", self.file, self.def.name),
        }
    }
}

/// The resolved workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// Nodes sorted by (file, line, col).
    pub nodes: Vec<Node>,
    /// Forward adjacency: `edges[i]` = sorted callee node indices.
    pub edges: Vec<Vec<usize>>,
    /// Reverse adjacency: `redges[i]` = sorted caller node indices.
    pub redges: Vec<Vec<usize>>,
    /// Unresolved calls (std / closures): count only, for the report.
    pub unresolved_calls: usize,
    /// Total resolved call edges before dedup (report statistic).
    pub resolved_calls: usize,
}

/// Per-crate dependency closure: crate dir name → every crate dir it can
/// reach (including itself).
pub type DepClosure = BTreeMap<String, BTreeSet<String>>;

/// Parse the workspace manifests under `root` into a [`DepClosure`].
///
/// Reads `[workspace.dependencies]` of the root `Cargo.toml` for the
/// package-name → `crates/<dir>` mapping, then each member manifest's
/// `[dependencies]` section, and closes transitively. The root package
/// itself is crate `webiq` (path `.`).
pub fn dep_closure(root: &Path) -> DepClosure {
    // package name -> crate dir
    let mut name_to_dir: BTreeMap<String, String> = BTreeMap::new();
    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    let mut in_ws_deps = false;
    for line in root_manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_ws_deps = line == "[workspace.dependencies]";
            continue;
        }
        if !in_ws_deps {
            continue;
        }
        // `webiq-web = { path = "crates/web" }` / `webiq = { path = "." }`
        let Some((name, rest)) = line.split_once('=') else {
            continue;
        };
        let name = name.trim().to_string();
        let Some(path_pos) = rest.find("path") else {
            continue;
        };
        let after = rest.get(path_pos..).unwrap_or("");
        let Some(q1) = after.find('"') else { continue };
        let Some(q2) = after.get(q1.saturating_add(1)..).and_then(|s| s.find('"')) else {
            continue;
        };
        let path = after
            .get(q1.saturating_add(1)..q1.saturating_add(1).saturating_add(q2))
            .unwrap_or("");
        let dir = match path.strip_prefix("crates/") {
            Some(d) => d.to_string(),
            None => "webiq".to_string(), // path "." — the root facade
        };
        name_to_dir.insert(name, dir);
    }

    // direct deps per crate dir
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut manifest_dirs: Vec<(String, std::path::PathBuf)> =
        vec![("webiq".to_string(), root.join("Cargo.toml"))];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut members: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
        members.sort();
        for m in members {
            let Some(dir) = m.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let manifest = m.join("Cargo.toml");
            if manifest.is_file() {
                manifest_dirs.push((dir.to_string(), manifest));
            } else if m.is_dir() {
                // manifest-less member (fixture workspaces): still a crate
                direct.insert(dir.to_string(), BTreeSet::new());
            }
        }
    }
    for (dir, manifest) in manifest_dirs {
        let text = fs::read_to_string(&manifest).unwrap_or_default();
        let mut deps: BTreeSet<String> = BTreeSet::new();
        let mut in_deps = false;
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_deps = line == "[dependencies]";
                continue;
            }
            if !in_deps || line.is_empty() || line.starts_with('#') {
                continue;
            }
            // `webiq-web.workspace = true` / `webiq-web = { workspace … }`
            let head = line
                .split(['=', '.'])
                .next()
                .map(str::trim)
                .unwrap_or_default();
            if let Some(dep_dir) = name_to_dir.get(head) {
                deps.insert(dep_dir.clone());
            }
        }
        direct.insert(dir, deps);
    }

    // transitive closure (the graph is tiny; repeated BFS is fine)
    let mut out: DepClosure = BTreeMap::new();
    for dir in direct.keys() {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue: Vec<String> = vec![dir.clone()];
        while let Some(d) = queue.pop() {
            if !seen.insert(d.clone()) {
                continue;
            }
            if let Some(deps) = direct.get(&d) {
                for dep in deps {
                    if !seen.contains(dep) {
                        queue.push(dep.clone());
                    }
                }
            }
        }
        out.insert(dir.clone(), seen);
    }
    out
}

/// Underscored package name (`webiq_web`) → crate dir (`web`), derived
/// from the same manifest data.
fn underscore_map(closure: &DepClosure) -> BTreeMap<String, String> {
    // crate dirs are the closure's keys; package names are `webiq-<dir>`
    // except `matcher` (package `webiq-match`) and the root (`webiq`).
    // Rather than hard-coding, map every dir to `webiq_<dir>` AND accept
    // `webiq_match` for `matcher` by also mapping the dir's manifest
    // package name when it differs. The workspace convention is stable
    // enough that the special case is explicit here.
    let mut m = BTreeMap::new();
    for dir in closure.keys() {
        if dir == "webiq" {
            m.insert("webiq".to_string(), dir.clone());
        } else {
            m.insert(format!("webiq_{dir}"), dir.clone());
        }
    }
    m.insert("webiq_match".to_string(), "matcher".to_string());
    m
}

/// Build the call graph from parsed sources and the dependency closure.
pub fn build(sources: &[ParsedSource], closure: &DepClosure) -> Graph {
    let pkg_to_dir = underscore_map(closure);

    // ---- nodes, sorted by (file, line, col) ----
    let mut nodes: Vec<Node> = Vec::new();
    for s in sources {
        for f in &s.parsed.fns {
            nodes.push(Node {
                file: s.rel.clone(),
                krate: s.crate_name.clone(),
                is_bin: s.is_bin,
                def: f.clone(),
            });
        }
    }
    nodes.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.def.line.cmp(&b.def.line))
            .then(a.def.col.cmp(&b.def.col))
    });

    // ---- indices ----
    // free fns: (crate, name) and (file, name)
    let mut free_by_crate: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut free_by_file: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    // free fns by (file stem, name) for `module::fn` path calls
    let mut free_by_stem: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    // methods by bare name, and by (owner, name)
    let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut methods_by_owner: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        if n.def.in_test {
            continue; // test helpers never resolve as call targets
        }
        match &n.def.owner {
            Some(o) => {
                methods_by_name
                    .entry(n.def.name.clone())
                    .or_default()
                    .push(i);
                methods_by_owner
                    .entry((o.clone(), n.def.name.clone()))
                    .or_default()
                    .push(i);
            }
            None => {
                free_by_crate
                    .entry((n.krate.clone(), n.def.name.clone()))
                    .or_default()
                    .push(i);
                free_by_file
                    .entry((n.file.clone(), n.def.name.clone()))
                    .or_default()
                    .push(i);
                let stem = n
                    .file
                    .rsplit('/')
                    .next()
                    .and_then(|f| f.strip_suffix(".rs"))
                    .unwrap_or("")
                    .to_string();
                free_by_stem
                    .entry((stem, n.def.name.clone()))
                    .or_default()
                    .push(i);
            }
        }
    }

    // imports per file: name -> root segment
    let mut imports: BTreeMap<(String, String), String> = BTreeMap::new();
    for s in sources {
        for imp in &s.parsed.imports {
            imports.insert((s.rel.clone(), imp.name.clone()), imp.root.clone());
        }
    }

    // a crate always sees itself, manifests or not (fixture workspaces
    // may have no per-crate Cargo.toml)
    let visible = |caller: &Node, target: &Node| -> bool {
        caller.krate == target.krate
            || closure
                .get(&caller.krate)
                .is_some_and(|c| c.contains(&target.krate))
    };

    // ---- edges ----
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut redges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut unresolved = 0usize;
    let mut resolved = 0usize;
    for (i, n) in nodes.iter().enumerate() {
        for call in &n.def.calls {
            let targets = resolve(
                call,
                n,
                &free_by_crate,
                &free_by_file,
                &free_by_stem,
                &methods_by_name,
                &methods_by_owner,
                &imports,
                &pkg_to_dir,
            );
            let mut any = false;
            for t in targets {
                if let Some(tn) = nodes.get(t) {
                    if visible(n, tn) {
                        edges[i].push(t);
                        redges[t].push(i);
                        any = true;
                    }
                }
            }
            if any {
                resolved = resolved.saturating_add(1);
            } else {
                unresolved = unresolved.saturating_add(1);
            }
        }
    }
    for adj in edges.iter_mut().chain(redges.iter_mut()) {
        adj.sort_unstable();
        adj.dedup();
    }

    Graph {
        nodes,
        edges,
        redges,
        unresolved_calls: unresolved,
        resolved_calls: resolved,
    }
}

/// Candidate node indices for one call, before visibility filtering.
#[allow(
    clippy::too_many_arguments,
    reason = "the call, its caller and the seven lookup tables it resolves against"
)]
fn resolve(
    call: &Call,
    caller: &Node,
    free_by_crate: &BTreeMap<(String, String), Vec<usize>>,
    free_by_file: &BTreeMap<(String, String), Vec<usize>>,
    free_by_stem: &BTreeMap<(String, String), Vec<usize>>,
    methods_by_name: &BTreeMap<String, Vec<usize>>,
    methods_by_owner: &BTreeMap<(String, String), Vec<usize>>,
    imports: &BTreeMap<(String, String), String>,
    pkg_to_dir: &BTreeMap<String, String>,
) -> Vec<usize> {
    match call.kind {
        CallKind::Method => {
            // every method with this name visible to the caller
            methods_by_name.get(&call.name).cloned().unwrap_or_default()
        }
        CallKind::Free => {
            // same file, else same crate, else through an import
            if let Some(v) = free_by_file.get(&(caller.file.clone(), call.name.clone())) {
                return v.clone();
            }
            if let Some(v) = free_by_crate.get(&(caller.krate.clone(), call.name.clone())) {
                return v.clone();
            }
            if let Some(root) = imports.get(&(caller.file.clone(), call.name.clone())) {
                if let Some(dir) = import_root_dir(root, &caller.krate, pkg_to_dir) {
                    if let Some(v) = free_by_crate.get(&(dir, call.name.clone())) {
                        return v.clone();
                    }
                }
            }
            Vec::new()
        }
        CallKind::Path => {
            let Some(q) = call.qualifier.as_deref() else {
                return Vec::new();
            };
            // `Self::name` → method of the current impl owner
            if q == "Self" {
                if let Some(owner) = caller.def.owner.as_deref() {
                    return methods_by_owner
                        .get(&(owner.to_string(), call.name.clone()))
                        .cloned()
                        .unwrap_or_default();
                }
                return Vec::new();
            }
            // `crate::name` / `self::name` → same crate free fn
            if q == "crate" || q == "self" {
                return free_by_crate
                    .get(&(caller.krate.clone(), call.name.clone()))
                    .cloned()
                    .unwrap_or_default();
            }
            // workspace package path: `webiq_web::issue`
            if let Some(dir) = pkg_to_dir.get(q) {
                let mut v = free_by_crate
                    .get(&(dir.clone(), call.name.clone()))
                    .cloned()
                    .unwrap_or_default();
                if v.is_empty() {
                    // `webiq_trace::span` where span lives in a module:
                    // fall back to any free fn of that crate's files
                    v = free_by_crate
                        .get(&(dir.clone(), call.name.clone()))
                        .cloned()
                        .unwrap_or_default();
                }
                return v;
            }
            // type with methods: `LruCache::new`
            if let Some(v) = methods_by_owner.get(&(q.to_string(), call.name.clone())) {
                return v.clone();
            }
            // imported module or type alias: `extract::candidates` after
            // `use webiq_core::extract;`
            if let Some(root) = imports.get(&(caller.file.clone(), q.to_string())) {
                if let Some(dir) = import_root_dir(root, &caller.krate, pkg_to_dir) {
                    if let Some(v) = free_by_crate.get(&(dir, call.name.clone())) {
                        return v.clone();
                    }
                }
            }
            // module file stem in the caller's own crate: `cache::hash`
            if let Some(v) = free_by_stem.get(&(q.to_string(), call.name.clone())) {
                return v.clone();
            }
            Vec::new()
        }
    }
}

/// Crate dir a `use` root segment refers to, if it is workspace-local.
fn import_root_dir(
    root: &str,
    caller_crate: &str,
    pkg_to_dir: &BTreeMap<String, String>,
) -> Option<String> {
    if root == "crate" || root == "self" || root == "super" {
        return Some(caller_crate.to_string());
    }
    pkg_to_dir.get(root).cloned()
}

impl Graph {
    /// Indices of nodes matching a predicate.
    pub fn select(&self, pred: impl Fn(&Node) -> bool) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| pred(n))
            .map(|(i, _)| i)
            .collect()
    }

    /// Backward closure: every node that can reach one of `seeds` along
    /// forward edges (computed by walking the reverse adjacency).
    pub fn reaches_any(&self, seeds: &[usize]) -> Vec<bool> {
        let mut hit = vec![false; self.nodes.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &s in seeds {
            if let Some(slot) = hit.get_mut(s) {
                if !*slot {
                    *slot = true;
                    queue.push(s);
                }
            }
        }
        while let Some(v) = queue.pop() {
            if let Some(callers) = self.redges.get(v) {
                for &c in callers {
                    if let Some(slot) = hit.get_mut(c) {
                        if !*slot {
                            *slot = true;
                            queue.push(c);
                        }
                    }
                }
            }
        }
        hit
    }

    /// Forward closure from `seeds` along forward edges.
    pub fn forward_closure(&self, seeds: &[usize]) -> Vec<bool> {
        let mut hit = vec![false; self.nodes.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &s in seeds {
            if let Some(slot) = hit.get_mut(s) {
                if !*slot {
                    *slot = true;
                    queue.push(s);
                }
            }
        }
        while let Some(v) = queue.pop() {
            if let Some(callees) = self.edges.get(v) {
                for &c in callees {
                    if let Some(slot) = hit.get_mut(c) {
                        if !*slot {
                            *slot = true;
                            queue.push(c);
                        }
                    }
                }
            }
        }
        hit
    }

    /// Shortest path from `from` to any node in `to` (BFS over sorted
    /// adjacency, so the witness path is deterministic). Returns node
    /// indices from `from` to the target inclusive.
    pub fn witness_path(&self, from: usize, to: &[bool]) -> Option<Vec<usize>> {
        let mut prev: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        if let Some(slot) = seen.get_mut(from) {
            *slot = true;
        }
        queue.push_back(from);
        while let Some(v) = queue.pop_front() {
            if to.get(v).copied().unwrap_or(false) {
                // rebuild path
                let mut path = vec![v];
                let mut cur = v;
                while let Some(Some(p)) = prev.get(cur) {
                    path.push(*p);
                    cur = *p;
                }
                path.reverse();
                return Some(path);
            }
            if let Some(callees) = self.edges.get(v) {
                for &c in callees {
                    if let Some(slot) = seen.get_mut(c) {
                        if !*slot {
                            *slot = true;
                            if let Some(p) = prev.get_mut(c) {
                                *p = Some(v);
                            }
                            queue.push_back(c);
                        }
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn closure_of(pairs: &[(&str, &[&str])]) -> DepClosure {
        pairs
            .iter()
            .map(|(k, deps)| {
                let mut set: BTreeSet<String> = deps.iter().map(|d| (*d).to_string()).collect();
                set.insert((*k).to_string());
                ((*k).to_string(), set)
            })
            .collect()
    }

    fn src(rel: &str, krate: &str, text: &str) -> ParsedSource {
        ParsedSource {
            rel: rel.into(),
            crate_name: krate.into(),
            is_bin: false,
            parsed: parse_file(text),
        }
    }

    fn node_idx(g: &Graph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.def.name == name)
            .unwrap_or_else(|| panic!("node {name} missing"))
    }

    #[test]
    fn free_call_resolves_in_file_then_crate() {
        let sources = vec![
            src(
                "crates/a/src/lib.rs",
                "a",
                "pub fn entry() { helper(); }\nfn helper() { other(); }",
            ),
            src("crates/a/src/other.rs", "a", "pub fn other() {}"),
        ];
        let g = build(&sources, &closure_of(&[("a", &[])]));
        let entry = node_idx(&g, "entry");
        let helper = node_idx(&g, "helper");
        let other = node_idx(&g, "other");
        assert_eq!(g.edges[entry], vec![helper]);
        assert_eq!(g.edges[helper], vec![other]);
        assert_eq!(g.redges[other], vec![helper]);
    }

    #[test]
    fn method_calls_resolve_by_name_within_closure() {
        let sources = vec![
            src(
                "crates/a/src/lib.rs",
                "a",
                "pub fn entry(c: &Cache) { c.fetch(); }",
            ),
            src(
                "crates/b/src/cache.rs",
                "b",
                "impl Cache { pub fn fetch(&self) {} }",
            ),
            src(
                "crates/c/src/other.rs",
                "c",
                "impl Other { pub fn fetch(&self) {} }",
            ),
        ];
        // a depends on b, not on c → only b's fetch is a candidate
        let g = build(
            &sources,
            &closure_of(&[("a", &["b"]), ("b", &[]), ("c", &[])]),
        );
        let entry = node_idx(&g, "entry");
        let b_fetch = g
            .nodes
            .iter()
            .position(|n| n.krate == "b" && n.def.name == "fetch")
            .expect("b fetch");
        assert_eq!(g.edges[entry], vec![b_fetch]);
    }

    #[test]
    fn path_call_via_import_and_owner() {
        let sources = vec![
            src(
                "crates/a/src/lib.rs",
                "a",
                "use webiq_b::issue;\npub fn entry() { issue(); Cache::make(); }",
            ),
            src("crates/b/src/lib.rs", "b", "pub fn issue() {}"),
            src(
                "crates/b/src/cache.rs",
                "b",
                "impl Cache { pub fn make() {} }",
            ),
        ];
        let g = build(&sources, &closure_of(&[("a", &["b"]), ("b", &[])]));
        let entry = node_idx(&g, "entry");
        let issue = node_idx(&g, "issue");
        let make = node_idx(&g, "make");
        let mut want = vec![issue, make];
        want.sort_unstable();
        assert_eq!(g.edges[entry], want);
    }

    #[test]
    fn self_path_call_resolves_to_owner() {
        let sources = vec![src(
            "crates/a/src/lib.rs",
            "a",
            "impl T { pub fn a(&self) { Self::b(); } fn b() {} }",
        )];
        let g = build(&sources, &closure_of(&[("a", &[])]));
        let a = node_idx(&g, "a");
        let b = node_idx(&g, "b");
        assert_eq!(g.edges[a], vec![b]);
    }

    #[test]
    fn test_fns_are_not_call_targets() {
        let sources = vec![src(
            "crates/a/src/lib.rs",
            "a",
            "pub fn entry() { helper(); }\n#[cfg(test)]\nmod tests { fn helper() {} }",
        )];
        let g = build(&sources, &closure_of(&[("a", &[])]));
        let entry = node_idx(&g, "entry");
        assert!(g.edges[entry].is_empty(), "test helper must not resolve");
    }

    #[test]
    fn closures_reach_seeds_and_witness_paths() {
        let sources = vec![src(
            "crates/a/src/lib.rs",
            "a",
            "pub fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn d() {}",
        )];
        let g = build(&sources, &closure_of(&[("a", &[])]));
        let (a, b, c, d) = (
            node_idx(&g, "a"),
            node_idx(&g, "b"),
            node_idx(&g, "c"),
            node_idx(&g, "d"),
        );
        let reach = g.reaches_any(&[c]);
        assert!(reach[a] && reach[b] && reach[c] && !reach[d]);
        let mut target = vec![false; g.nodes.len()];
        target[c] = true;
        let path = g.witness_path(a, &target).expect("path");
        assert_eq!(path, vec![a, b, c]);
    }

    #[test]
    fn dep_closure_of_real_workspace() {
        let root = crate::walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let c = dep_closure(&root);
        let core = c.get("core").expect("core crate");
        assert!(core.contains("web") && core.contains("stats") && core.contains("core"));
        assert!(
            !core.contains("bench"),
            "core must not see the bench harness"
        );
        let bench = c.get("bench").expect("bench crate");
        assert!(bench.contains("webiq") && bench.contains("core"));
        let web = c.get("web").expect("web crate");
        assert!(web.contains("rng"), "web depends on rng");
    }
}
