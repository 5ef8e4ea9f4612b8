//! A lightweight Rust-subset item parser on top of [`crate::lexer`].
//!
//! Recognises just enough structure for the flow passes in
//! [`crate::flow`]: function items (free functions, methods inside
//! `impl`/`trait` blocks, nested functions), `use` imports, call sites
//! (free calls, method calls, `Path::calls`), and the *effect sites*
//! inside each body — panic sites, `Mutex` acquisitions with guard
//! liveness, and determinism-taint sources. It is **not** a Rust parser:
//! expressions are never built, types are read as token runs, and
//! anything unrecognised is skipped. That is acceptable because every
//! downstream pass over-approximates (an unresolved call is simply an
//! absent edge, and resolution itself is by-name and conservative).
//!
//! The parser is deterministic: its output order is the token order of
//! the file, and nothing consults maps with unstable iteration.

use crate::lexer::{self, Tok, TokKind};

/// What kind of call a [`Call`] is, which drives resolution in
/// [`crate::graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `name(…)` — a free function call (or a local closure, which then
    /// stays unresolved).
    Free,
    /// `recv.name(…)` — a method call; resolved by name across every
    /// impl in the caller's dependency closure.
    Method,
    /// `Qual::name(…)` — a path call; `Qual` is a type, module, or crate.
    Path,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Resolution class.
    pub kind: CallKind,
    /// For [`CallKind::Path`]: the qualifying segment directly before the
    /// final `::`; for methods the receiver's trailing identifier chain.
    pub qualifier: Option<String>,
    /// Called name.
    pub name: String,
    /// 1-based site line.
    pub line: u32,
    /// 1-based site column.
    pub col: u32,
    /// Lock classes whose guards are live at this call (from enclosing
    /// `let guard = …lock…` bindings and same-statement temporaries).
    pub held_locks: Vec<String>,
    /// Leading identifier chain of the first argument (`self.shard()` for
    /// `lock_shard(self.shard(key))`), used to derive the lock class when
    /// the callee is a lock wrapper.
    pub arg_head: Option<String>,
}

/// Kinds of effect sites the flow passes care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// `.unwrap()` / `.expect(…)` / `panic!` / `unreachable!` / `todo!` /
    /// `unimplemented!` / subtracting index arithmetic.
    Panic,
    /// A `Mutex` acquisition (`.lock()` or a call to a lock wrapper).
    Lock,
    /// Unordered `HashMap`/`HashSet` iteration (a determinism source).
    HashIter,
    /// `env::var`/`env::var_os` (a determinism source).
    EnvRead,
    /// `Instant::now`/`SystemTime::now` (a determinism source).
    WallClock,
}

/// One effect site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// Effect class.
    pub kind: SiteKind,
    /// Human detail: the exact construct (`.unwrap()`, `m.keys()`, a lock
    /// class, …).
    pub detail: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Suppressed by an audited `lint:allow` on this or the preceding
    /// line (lexical rule id or the matching `flow-*` id).
    pub suppressed: bool,
    /// For [`SiteKind::HashIter`]: the same statement re-sorts or reduces
    /// the stream, so order cannot escape.
    pub sanctioned: bool,
    /// Lock classes held when the site executes (for [`SiteKind::Lock`]:
    /// locks already held when *this* one is acquired).
    pub held_locks: Vec<String>,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// `impl`/`trait` self-type name, when the fn is a method.
    pub owner: Option<String>,
    /// Declared with a `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Call sites in body order.
    pub calls: Vec<Call>,
    /// Effect sites in body order.
    pub sites: Vec<Site>,
}

/// A `use` import: the locally visible name and the leading path segment
/// it came from (`webiq_web`, `std`, `crate`, …).
#[derive(Debug, Clone)]
pub struct Import {
    /// Name visible in this file (the alias for `use … as alias`).
    pub name: String,
    /// First segment of the use path.
    pub root: String,
}

/// Parse result for one source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Function items, in source order (nested fns flattened after their
    /// parent).
    pub fns: Vec<FnDef>,
    /// `use` imports of this file.
    pub imports: Vec<Import>,
}

/// Names whose `ident(`-shaped occurrences are control flow, not calls.
const KEYWORDS: [&str; 10] = [
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "move",
];

/// Panic-site method names (after a `.`, before `(`).
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];

/// Panic-site macro names (before `!`).
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// True for names the workspace uses for poison-recovering Mutex lock
/// wrappers (`lock`, `lock_shard`); calls to these are acquisition sites.
fn is_lock_wrapper(name: &str) -> bool {
    name == "lock" || name.starts_with("lock_") || name.ends_with("_lock")
}

/// Rules whose `lint:allow` sanctions the matching flow site: the flow
/// id, plus the lexical rule for the same site where one exists, so one
/// audited suppression never has to be written twice.
fn allow_rules_for(kind: SiteKind) -> &'static [&'static str] {
    match kind {
        SiteKind::Panic => &["slice-arith", "flow-panic"],
        SiteKind::Lock => &["flow-lock"],
        SiteKind::HashIter => &["hash-iter", "flow-taint"],
        SiteKind::EnvRead | SiteKind::WallClock => &["flow-taint"],
    }
}

/// A `lint:allow` comment position, pre-extracted for suppression checks.
struct AllowAt {
    line: u32,
    rule: String,
}

/// A live lock guard during the body scan.
struct LiveGuard {
    /// Binding name (empty for statement temporaries).
    name: String,
    /// Brace depth at which the binding lives; popped when the block ends.
    depth: usize,
    /// `true` for a same-statement temporary (dies at the next `;` at its
    /// depth).
    temp: bool,
    /// Lock class string.
    class: String,
}

/// Parse one file's items. Hash-typed identifier names (for iteration
/// sources) and `#[cfg(test)]` line ranges are derived from the file
/// itself with the same helpers the lexical rules use.
pub fn parse_file(text: &str) -> ParsedFile {
    let toks = lexer::lex(text);
    let allows: Vec<AllowAt> = collect_allow_positions(&toks);
    let sig: Vec<Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .cloned()
        .collect();
    let hash_names = crate::rules::collect_hash_names(&sig);
    let test_ranges = crate::rules::cfg_test_ranges(&sig);

    let mut out = ParsedFile::default();
    let mut p = Parser {
        sig: &sig,
        allows: &allows,
        hash_names: &hash_names,
        test_ranges: &test_ranges,
        out: &mut out,
    };
    p.items(0, sig.len(), None);
    out
}

/// `lint:allow(rule)` positions with a non-empty reason (validity of the
/// rule id is [`crate::rules`]'s business; flow only honours well-formed
/// directives).
fn collect_allow_positions(toks: &[Tok]) -> Vec<AllowAt> {
    let mut out = Vec::new();
    for t in toks {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        if t.text.starts_with('!') || t.text.starts_with('/') || t.text.starts_with('*') {
            continue; // doc comment
        }
        let Some(pos) = t.text.find("lint:allow(") else {
            continue;
        };
        let Some(rest) = t.text.get(pos.saturating_add("lint:allow(".len())..) else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest.get(..close).unwrap_or("").trim().to_string();
        let reason = rest.get(close.saturating_add(1)..).unwrap_or("").trim();
        if !rule.is_empty() && !reason.is_empty() {
            out.push(AllowAt { line: t.line, rule });
        }
    }
    out
}

struct Parser<'a> {
    sig: &'a [Tok],
    allows: &'a [AllowAt],
    hash_names: &'a [String],
    test_ranges: &'a [crate::rules::LineRange],
    out: &'a mut ParsedFile,
}

impl Parser<'_> {
    /// Walk items in `sig[start..end]` (an item region: top level or an
    /// `impl`/`trait`/`mod` block interior).
    fn items(&mut self, start: usize, end: usize, owner: Option<&str>) {
        let mut i = start;
        let mut saw_pub = false;
        while i < end {
            let Some(t) = self.sig.get(i) else { break };
            if t.is_ident("pub") {
                saw_pub = true;
                // skip a `pub(crate)`-style restriction
                if matches!(self.sig.get(i.saturating_add(1)), Some(p) if p.is_punct('(')) {
                    if let Some(close) = matching(self.sig, i.saturating_add(1), '(', ')') {
                        i = close;
                    }
                }
                i = i.saturating_add(1);
                continue;
            }
            if t.is_ident("use") {
                i = self.use_decl(i, end);
                saw_pub = false;
                continue;
            }
            if t.is_ident("impl") || t.is_ident("trait") {
                i = self.impl_block(i, end, t.is_ident("trait"));
                saw_pub = false;
                continue;
            }
            if t.is_ident("mod") {
                // inline `mod name { … }`: recurse into the interior;
                // `mod name;` declarations are separate files anyway.
                let mut j = i.saturating_add(1);
                while j < end
                    && !matches!(self.sig.get(j), Some(x) if x.is_punct('{') || x.is_punct(';'))
                {
                    j = j.saturating_add(1);
                }
                if matches!(self.sig.get(j), Some(x) if x.is_punct('{')) {
                    if let Some(close) = matching(self.sig, j, '{', '}') {
                        self.items(j.saturating_add(1), close, owner);
                        i = close.saturating_add(1);
                        saw_pub = false;
                        continue;
                    }
                }
                i = j.saturating_add(1);
                saw_pub = false;
                continue;
            }
            if t.is_ident("fn") {
                i = self.fn_item(i, end, owner, saw_pub);
                saw_pub = false;
                continue;
            }
            // any other token: skip balanced brace blocks whole (struct
            // bodies, consts with block exprs) so stray `fn` idents in
            // types or macros don't read as items.
            if t.is_punct('{') {
                if let Some(close) = matching(self.sig, i, '{', '}') {
                    i = close.saturating_add(1);
                    saw_pub = false;
                    continue;
                }
            }
            // modifier keywords between `pub` and `fn` keep visibility
            let is_modifier = t.kind == TokKind::Ident
                && (t.is_ident("const")
                    || t.is_ident("unsafe")
                    || t.is_ident("async")
                    || t.is_ident("extern"))
                || t.kind == TokKind::Str;
            if !is_modifier {
                saw_pub = false;
            }
            i = i.saturating_add(1);
        }
    }

    /// Parse `use a::b::{c, d as e};` into imports. Returns the index
    /// just past the `;`.
    fn use_decl(&mut self, start: usize, end: usize) -> usize {
        let mut j = start.saturating_add(1);
        let mut root = String::new();
        let mut last = String::new();
        let mut pending_alias = false;
        while j < end {
            let Some(t) = self.sig.get(j) else { break };
            if t.is_punct(';') {
                if !last.is_empty() && !root.is_empty() {
                    self.out.imports.push(Import {
                        name: last.clone(),
                        root: root.clone(),
                    });
                }
                return j.saturating_add(1);
            }
            match t.kind {
                TokKind::Ident if t.is_ident("as") => pending_alias = true,
                TokKind::Ident => {
                    if root.is_empty() {
                        root = t.text.clone();
                    }
                    if pending_alias {
                        // the alias is the visible name
                        last = t.text.clone();
                        pending_alias = false;
                    } else {
                        last = t.text.clone();
                    }
                }
                TokKind::Punct if t.is_punct(',') || t.is_punct('}') => {
                    if !last.is_empty() && !root.is_empty() {
                        self.out.imports.push(Import {
                            name: last.clone(),
                            root: root.clone(),
                        });
                    }
                    last.clear();
                }
                TokKind::Punct if t.is_punct('*') => last.clear(),
                _ => {}
            }
            j = j.saturating_add(1);
        }
        end
    }

    /// Parse an `impl`/`trait` block: find the self-type name, then walk
    /// its interior as items owned by that name.
    fn impl_block(&mut self, start: usize, end: usize, is_trait: bool) -> usize {
        // find the opening `{` at angle-depth 0
        let mut j = start.saturating_add(1);
        let mut angle = 0i64;
        let mut names: Vec<String> = Vec::new();
        let mut for_at: Option<usize> = None;
        while j < end {
            let Some(t) = self.sig.get(j) else { break };
            if t.is_punct('<') {
                angle = angle.saturating_add(1);
            } else if t.is_punct('>') {
                angle = angle.saturating_sub(1);
            } else if angle == 0 && t.is_ident("for") {
                for_at = Some(names.len());
            } else if angle == 0 && t.kind == TokKind::Ident && !t.is_ident("where") {
                names.push(t.text.clone());
            } else if t.is_punct('{') {
                break;
            } else if t.is_punct(';') {
                return j.saturating_add(1);
            }
            j = j.saturating_add(1);
        }
        let Some(open) = self.sig.get(j).filter(|t| t.is_punct('{')).map(|_| j) else {
            return j.saturating_add(1);
        };
        let Some(close) = matching(self.sig, open, '{', '}') else {
            return end;
        };
        // `impl Trait for Type` → owner is the first name after `for`;
        // `impl Type` / `trait Name` → the first collected name.
        let owner = match (is_trait, for_at) {
            // `impl Trait for Type` — prefer the self type; fall back to
            // the trait name when the self type is non-nominal (`[T]`).
            (false, Some(k)) => names.get(k).cloned().or_else(|| names.first().cloned()),
            _ => names.first().cloned(),
        };
        self.items(open.saturating_add(1), close, owner.as_deref());
        close.saturating_add(1)
    }

    /// Parse one `fn` item starting at the `fn` keyword. Returns the
    /// index just past the item.
    fn fn_item(&mut self, start: usize, end: usize, owner: Option<&str>, is_pub: bool) -> usize {
        let Some(kw) = self.sig.get(start) else {
            return end;
        };
        let Some(name_tok) = self.sig.get(start.saturating_add(1)) else {
            return end;
        };
        if name_tok.kind != TokKind::Ident {
            return start.saturating_add(1);
        }
        // body starts at the first `{` after the signature; a `;` first
        // means a bodyless trait method / extern decl.
        let mut j = start.saturating_add(2);
        let mut angle = 0i64;
        while j < end {
            let Some(t) = self.sig.get(j) else { break };
            if t.is_punct('<') {
                angle = angle.saturating_add(1);
            } else if t.is_punct('>') {
                angle = angle.saturating_sub(1);
            } else if t.is_punct('{') && angle <= 0 {
                break;
            } else if t.is_punct(';') && angle <= 0 {
                return j.saturating_add(1);
            }
            j = j.saturating_add(1);
        }
        let Some(close) = matching(self.sig, j, '{', '}') else {
            return end;
        };
        // a lock wrapper takes a `&Mutex<…>` parameter and locks it; the
        // signature is enough evidence here, the body check is in flow.
        let mut def = FnDef {
            name: name_tok.text.clone(),
            owner: owner.map(str::to_string),
            is_pub,
            line: kw.line,
            col: kw.col,
            in_test: self.test_ranges.iter().any(|r| r.contains(kw.line)),
            calls: Vec::new(),
            sites: Vec::new(),
        };
        self.body(j, close, &mut def);
        self.out.fns.push(def);
        close.saturating_add(1)
    }

    /// Scan a function body `sig[open..=close]` for calls and effect
    /// sites, tracking lock-guard liveness. Nested `fn` items are parsed
    /// as their own defs and skipped here.
    fn body(&mut self, open: usize, close: usize, def: &mut FnDef) {
        let mut guards: Vec<LiveGuard> = Vec::new();
        let mut depth: usize = 0; // brace depth relative to body open
        let mut i = open;
        // pending let binding: Some(name) after `let name =` until the
        // statement's lock class (if any) is known.
        let mut pending_let: Option<(String, usize)> = None; // (name, depth)

        while i <= close {
            let Some(t) = self.sig.get(i) else { break };
            if t.is_punct('{') {
                depth = depth.saturating_add(1);
                i = i.saturating_add(1);
                continue;
            }
            if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                i = i.saturating_add(1);
                continue;
            }
            if t.is_punct(';') {
                guards.retain(|g| !(g.temp && g.depth == depth));
                pending_let = None;
                i = i.saturating_add(1);
                continue;
            }
            // nested fn: parse as its own item
            if t.is_ident("fn")
                && self
                    .sig
                    .get(i.saturating_add(1))
                    .is_some_and(|n| n.kind == TokKind::Ident)
                && !matches!(self.sig.get(i.wrapping_sub(1)), Some(p) if p.is_punct('.') || p.is_punct(':'))
                && i > open
            {
                let next = self.fn_item(i, close, def.owner.as_deref(), false);
                i = next;
                continue;
            }
            if t.is_ident("let") {
                // `let [mut] name =` with a plain ident pattern
                let mut k = i.saturating_add(1);
                if matches!(self.sig.get(k), Some(m) if m.is_ident("mut")) {
                    k = k.saturating_add(1);
                }
                let name = self.sig.get(k);
                let eq_or_colon = self.sig.get(k.saturating_add(1));
                if let (Some(n), Some(e)) = (name, eq_or_colon) {
                    if n.kind == TokKind::Ident && !n.is_ident("_") {
                        // allow `let name: Ty = …` by skipping to the `=`
                        let is_binding = e.is_punct('=')
                            || (e.is_punct(':') && {
                                let mut m = k.saturating_add(2);
                                let mut ang = 0i64;
                                loop {
                                    match self.sig.get(m) {
                                        Some(x) if x.is_punct('<') => ang = ang.saturating_add(1),
                                        Some(x) if x.is_punct('>') => ang = ang.saturating_sub(1),
                                        Some(x) if x.is_punct('=') && ang <= 0 => break true,
                                        Some(x)
                                            if (x.is_punct(';') || x.is_punct('{')) && ang <= 0 =>
                                        {
                                            break false
                                        }
                                        None => break false,
                                        _ => {}
                                    }
                                    m = m.saturating_add(1);
                                }
                            });
                        if is_binding {
                            pending_let = Some((n.text.clone(), depth));
                        }
                    }
                }
                i = k;
                continue;
            }
            // drop(guard) releases a named guard early
            if t.is_ident("drop")
                && self
                    .sig
                    .get(i.saturating_add(1))
                    .is_some_and(|p| p.is_punct('('))
            {
                if let Some(arg) = self.sig.get(i.saturating_add(2)) {
                    if arg.kind == TokKind::Ident {
                        guards.retain(|g| g.name != arg.text);
                    }
                }
            }

            let held: Vec<String> = dedup_sorted(guards.iter().map(|g| g.class.clone()).collect());

            // effect sites and calls at this token
            if let Some((site, consumed)) = self.site_at(i, &held) {
                if !def.in_test {
                    if site.kind == SiteKind::Lock {
                        let class = site.detail.clone();
                        match pending_let.take() {
                            Some((name, d)) => guards.push(LiveGuard {
                                name,
                                depth: d,
                                temp: false,
                                class: class.clone(),
                            }),
                            None => guards.push(LiveGuard {
                                name: String::new(),
                                depth,
                                temp: true,
                                class: class.clone(),
                            }),
                        }
                    }
                    def.sites.push(site);
                }
                i = i.saturating_add(consumed);
                continue;
            }
            // calls are recorded even in test fns; flow ignores test fns
            // wholesale, but keeping the data makes the parser's output
            // independent of scope policy.
            if let Some(call) = self.call_at(i, &held) {
                def.calls.push(call);
            }
            i = i.saturating_add(1);
        }
    }

    /// Recognise an effect site at token `i`. Returns the site and how
    /// many tokens to consume.
    fn site_at(&self, i: usize, held: &[String]) -> Option<(Site, usize)> {
        let t = self.sig.get(i)?;
        let mk = |kind, detail: String, line, col| Site {
            kind,
            detail,
            line,
            col,
            suppressed: self.is_suppressed(kind, line),
            sanctioned: false,
            held_locks: held.to_vec(),
        };
        // .unwrap() / .expect(
        if t.is_punct('.') {
            let name = self.sig.get(i.saturating_add(1))?;
            let paren = self.sig.get(i.saturating_add(2));
            if name.kind == TokKind::Ident
                && PANIC_METHODS.iter().any(|m| name.is_ident(m))
                && paren.is_some_and(|p| p.is_punct('('))
            {
                return Some((
                    mk(
                        SiteKind::Panic,
                        format!(".{}()", name.text),
                        name.line,
                        name.col,
                    ),
                    2,
                ));
            }
            // .lock() — direct Mutex acquisition
            if name.is_ident("lock") && paren.is_some_and(|p| p.is_punct('(')) {
                let class = self.receiver_chain(i);
                return Some((mk(SiteKind::Lock, class, name.line, name.col), 2));
            }
            // hash-typed receiver iteration: name.iter()/keys()/…
            return None;
        }
        // free/path call to a lock-wrapper fn (`lock`, `lock_shard`, …).
        // The workspace acquires Mutexes through small poison-recovering
        // wrappers, so a call to one is itself an acquisition site; the
        // lock class is the argument's receiver chain as seen from the
        // caller (`lock_shard(self.shard(key))` → class `self.shard()`).
        // The definition (`fn lock_shard`) and method forms are skipped.
        if t.kind == TokKind::Ident
            && is_lock_wrapper(&t.text)
            && self
                .sig
                .get(i.saturating_add(1))
                .is_some_and(|p| p.is_punct('('))
            && !matches!(
                i.checked_sub(1).and_then(|p| self.sig.get(p)),
                Some(p) if p.is_ident("fn") || p.is_punct('.')
            )
        {
            let class = self
                .first_arg_head(i.saturating_add(1))
                .unwrap_or_else(|| format!("{}(…)", t.text));
            return Some((mk(SiteKind::Lock, class, t.line, t.col), 1));
        }
        // panic!-family macros
        if t.kind == TokKind::Ident
            && PANIC_MACROS.iter().any(|m| t.is_ident(m))
            && self
                .sig
                .get(i.saturating_add(1))
                .is_some_and(|n| n.is_punct('!'))
        {
            return Some((
                mk(SiteKind::Panic, format!("{}!", t.text), t.line, t.col),
                2,
            ));
        }
        // subtracting index arithmetic (same shape as the lexical rule)
        if t.is_punct('[') && crate::rules::slice_arith_at(self.sig, i) {
            return Some((
                mk(SiteKind::Panic, "subtracting index".into(), t.line, t.col),
                1,
            ));
        }
        // hash container iteration: `name.iter()` / `for x in &name`
        if t.kind == TokKind::Ident && self.hash_names.contains(&t.text) {
            let dot = self
                .sig
                .get(i.saturating_add(1))
                .is_some_and(|d| d.is_punct('.'));
            if dot {
                if let Some(m) = self.sig.get(i.saturating_add(2)) {
                    if crate::rules::ITER_METHODS.iter().any(|im| m.is_ident(im))
                        && self
                            .sig
                            .get(i.saturating_add(3))
                            .is_some_and(|p| p.is_punct('('))
                    {
                        let mut site = mk(
                            SiteKind::HashIter,
                            format!("{}.{}()", t.text, m.text),
                            t.line,
                            t.col,
                        );
                        site.sanctioned =
                            crate::rules::statement_sanctioned(self.sig, i.saturating_add(3));
                        return Some((site, 4));
                    }
                }
            }
        }
        if t.is_ident("for") {
            if let Some((name_tok, after)) = self.for_in_hash(i) {
                let mut site = mk(
                    SiteKind::HashIter,
                    format!("for … in {}", name_tok.text),
                    name_tok.line,
                    name_tok.col,
                );
                site.sanctioned = false;
                return Some((site, after.saturating_sub(i)));
            }
        }
        // env::var / env::var_os
        if t.is_ident("env") && path_sep(self.sig, i.saturating_add(1)) {
            if let Some(m) = self.sig.get(i.saturating_add(3)) {
                if m.is_ident("var") || m.is_ident("var_os") {
                    return Some((
                        mk(SiteKind::EnvRead, format!("env::{}", m.text), t.line, t.col),
                        4,
                    ));
                }
            }
        }
        // Instant::now / SystemTime::now
        if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && path_sep(self.sig, i.saturating_add(1))
            && self
                .sig
                .get(i.saturating_add(3))
                .is_some_and(|n| n.is_ident("now"))
        {
            return Some((
                mk(
                    SiteKind::WallClock,
                    format!("{}::now", t.text),
                    t.line,
                    t.col,
                ),
                4,
            ));
        }
        None
    }

    /// Recognise a call site at token `i` (free, method, or path call).
    fn call_at(&self, i: usize, held: &[String]) -> Option<Call> {
        let t = self.sig.get(i)?;
        if t.kind != TokKind::Ident || KEYWORDS.iter().any(|k| t.is_ident(k)) {
            return None;
        }
        let next = self.sig.get(i.saturating_add(1))?;
        let prev = i.checked_sub(1).and_then(|p| self.sig.get(p));

        // method call: `.name(`
        if prev.is_some_and(|p| p.is_punct('.')) {
            if next.is_punct('(') {
                let recv = i.checked_sub(1).map(|d| self.receiver_chain(d));
                return Some(Call {
                    kind: CallKind::Method,
                    qualifier: recv,
                    name: t.text.clone(),
                    line: t.line,
                    col: t.col,
                    held_locks: held.to_vec(),
                    arg_head: self.first_arg_head(i.saturating_add(1)),
                });
            }
            return None;
        }
        // path call: `Qual::name(` — `t` here is the *final* segment, so
        // look back for `:: t (` with a qualifier ident before.
        if next.is_punct('(') {
            let is_path = i >= 2
                && prev.is_some_and(|p| p.is_punct(':'))
                && i.checked_sub(2)
                    .and_then(|p| self.sig.get(p))
                    .is_some_and(|p| p.is_punct(':'));
            if is_path {
                let qual = i
                    .checked_sub(3)
                    .and_then(|p| self.sig.get(p))
                    .filter(|q| q.kind == TokKind::Ident || q.is_punct('>'))
                    .map(|q| q.text.clone());
                return Some(Call {
                    kind: CallKind::Path,
                    qualifier: qual,
                    name: t.text.clone(),
                    line: t.line,
                    col: t.col,
                    held_locks: held.to_vec(),
                    arg_head: self.first_arg_head(i.saturating_add(1)),
                });
            }
            // turbofish `name::<T>(` still reads as a free call: the `(`
            // directly follows `>`; handled conservatively as free here.
            // free call — but not `Struct {`-ish or macro `name!`
            return Some(Call {
                kind: CallKind::Free,
                qualifier: None,
                name: t.text.clone(),
                line: t.line,
                col: t.col,
                held_locks: held.to_vec(),
                arg_head: self.first_arg_head(i.saturating_add(1)),
            });
        }
        None
    }

    /// For a `for` at `i`: when it iterates a hash-typed name directly
    /// (`for p in &name {`), return the name token and the index of the
    /// loop's `{`.
    fn for_in_hash(&self, i: usize) -> Option<(&Tok, usize)> {
        let mut depth = 0i64;
        let mut j = i.saturating_add(1);
        let mut in_at = None;
        while let Some(x) = self.sig.get(j) {
            if x.is_punct('(') || x.is_punct('[') {
                depth = depth.saturating_add(1);
            } else if x.is_punct(')') || x.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && x.is_ident("in") {
                in_at = Some(j);
                break;
            } else if x.is_punct('{') || x.is_punct(';') {
                return None;
            }
            j = j.saturating_add(1);
        }
        let mut k = in_at?.saturating_add(1);
        while self
            .sig
            .get(k)
            .is_some_and(|x| x.is_punct('&') || x.is_ident("mut"))
        {
            k = k.saturating_add(1);
        }
        let name = self.sig.get(k)?;
        if name.kind == TokKind::Ident
            && self.hash_names.contains(&name.text)
            && self
                .sig
                .get(k.saturating_add(1))
                .is_some_and(|b| b.is_punct('{'))
        {
            return Some((name, k.saturating_add(1)));
        }
        None
    }

    /// Leading identifier chain of the first argument of the call whose
    /// `(` is at `open`: skips `&`/`mut`, then reads `a.b.c`, marking a
    /// trailing call as `name()`. Stops at anything else.
    fn first_arg_head(&self, open: usize) -> Option<String> {
        if !self.sig.get(open)?.is_punct('(') {
            return None;
        }
        let mut j = open.saturating_add(1);
        while self
            .sig
            .get(j)
            .is_some_and(|x| x.is_punct('&') || x.is_ident("mut"))
        {
            j = j.saturating_add(1);
        }
        let mut parts: Vec<String> = Vec::new();
        while let Some(t) = self.sig.get(j) {
            if t.kind != TokKind::Ident {
                break;
            }
            let next = self.sig.get(j.saturating_add(1));
            if next.is_some_and(|n| n.is_punct('(')) {
                parts.push(format!("{}()", t.text));
                break;
            }
            parts.push(t.text.clone());
            if next.is_some_and(|n| n.is_punct('.')) {
                j = j.saturating_add(2);
                continue;
            }
            break;
        }
        if parts.is_empty() {
            None
        } else {
            Some(parts.join("."))
        }
    }

    /// The receiver chain ending at the `.` (or call head) at `at`:
    /// walks back through `ident . ident` runs and one balanced call
    /// parenthesis, producing `a.b` / `a.b(…)`-style class text. Used
    /// both for lock classes and method-call qualifiers.
    fn receiver_chain(&self, at: usize) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut j = at; // at the `.`
        while let Some(prev_i) = j.checked_sub(1) {
            let Some(prev) = self.sig.get(prev_i) else {
                break;
            };
            if prev.is_punct(')') {
                // skip the balanced group and note the call
                let mut depth = 0i64;
                let mut k = prev_i;
                while let Some(x) = self.sig.get(k) {
                    if x.is_punct(')') {
                        depth = depth.saturating_add(1);
                    } else if x.is_punct('(') {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    let Some(nk) = k.checked_sub(1) else { break };
                    k = nk;
                }
                let Some(head_i) = k.checked_sub(1) else {
                    break;
                };
                let Some(head) = self.sig.get(head_i) else {
                    break;
                };
                if head.kind == TokKind::Ident {
                    parts.push(format!("{}()", head.text));
                    j = head_i;
                    continue;
                }
                break;
            }
            if prev.is_punct('.') {
                j = prev_i;
                continue;
            }
            if prev.kind == TokKind::Ident {
                parts.push(prev.text.clone());
                // continue over a `.` before it
                match prev_i.checked_sub(1).and_then(|p| self.sig.get(p)) {
                    Some(d) if d.is_punct('.') => {
                        j = prev_i.saturating_sub(1);
                        continue;
                    }
                    _ => break,
                }
            }
            break;
        }
        parts.reverse();
        parts.join(".")
    }

    /// Is a site of `kind` at `line` suppressed by an allow on the same
    /// or the preceding line?
    fn is_suppressed(&self, kind: SiteKind, line: u32) -> bool {
        let rules = allow_rules_for(kind);
        self.allows.iter().any(|a| {
            rules.iter().any(|r| a.rule == *r)
                && (a.line == line || a.line.saturating_add(1) == line)
        })
    }
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

/// Are tokens `i`, `i+1` the two colons of a `::` path separator?
fn path_sep(sig: &[Tok], i: usize) -> bool {
    sig.get(i).is_some_and(|a| a.is_punct(':'))
        && sig
            .get(i.saturating_add(1))
            .is_some_and(|b| b.is_punct(':'))
}

/// Sort + dedup a small string vec (deterministic held-lock lists).
fn dedup_sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file(src)
    }

    #[test]
    fn free_fn_and_calls() {
        let p = parse("pub fn a() { b(); c.d(); E::f(); }\nfn b() {}\n");
        assert_eq!(p.fns.len(), 2);
        let a = &p.fns[0];
        assert_eq!(a.name, "a");
        assert!(a.is_pub);
        assert_eq!(a.owner, None);
        let kinds: Vec<(CallKind, &str)> =
            a.calls.iter().map(|c| (c.kind, c.name.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (CallKind::Free, "b"),
                (CallKind::Method, "d"),
                (CallKind::Path, "f"),
            ]
        );
        assert_eq!(a.calls[2].qualifier.as_deref(), Some("E"));
        assert!(!p.fns[1].is_pub);
    }

    #[test]
    fn impl_methods_get_owner() {
        let p =
            parse("impl Foo { pub fn m(&self) {} fn n() {} }\nimpl Bar for Foo { fn t(&self) {} }");
        let owners: Vec<(Option<&str>, &str, bool)> = p
            .fns
            .iter()
            .map(|f| (f.owner.as_deref(), f.name.as_str(), f.is_pub))
            .collect();
        assert_eq!(
            owners,
            vec![
                (Some("Foo"), "m", true),
                (Some("Foo"), "n", false),
                (Some("Foo"), "t", false),
            ]
        );
    }

    #[test]
    fn generic_impl_and_fn_headers() {
        let p = parse(
            "impl<K: Eq + Hash, V: Clone> Cache<K, V> { pub fn get<Q: Borrow<K>>(&mut self, k: &Q) -> Option<V> { self.map.get(k) } }",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].owner.as_deref(), Some("Cache"));
        assert_eq!(p.fns[0].name, "get");
    }

    #[test]
    fn panic_sites_found() {
        let p = parse("fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g() { panic!(\"n\"); }");
        assert_eq!(p.fns[0].sites.len(), 1);
        assert_eq!(p.fns[0].sites[0].kind, SiteKind::Panic);
        assert_eq!(p.fns[0].sites[0].detail, ".unwrap()");
        assert_eq!(p.fns[1].sites[0].detail, "panic!");
    }

    #[test]
    fn suppressed_panic_site() {
        let src = "fn f(x: Option<u32>) -> u32 {\n// lint:allow(flow-panic) invariant: filled above\nx.unwrap()\n}";
        let p = parse(src);
        assert!(p.fns[0].sites[0].suppressed);
    }

    #[test]
    fn lock_sites_and_guard_liveness() {
        let src = "fn f(&self) {\nlet g = self.inner.lock();\nself.publish();\n}\nfn h(&self) { self.a.lock(); self.b.lock(); }";
        let p = parse(src);
        let f = &p.fns[0];
        assert_eq!(f.sites[0].kind, SiteKind::Lock);
        assert_eq!(f.sites[0].detail, "self.inner");
        let publish = f.calls.iter().find(|c| c.name == "publish").expect("call");
        assert_eq!(publish.held_locks, vec!["self.inner".to_string()]);
        // h: second lock acquired while first statement's temp guard is gone
        let h = &p.fns[1];
        assert_eq!(h.sites.len(), 2);
        assert!(h.sites[0].held_locks.is_empty());
        assert!(h.sites[1].held_locks.is_empty(), "temp guard died at `;`");
    }

    #[test]
    fn nested_lock_in_one_statement() {
        let src = "fn f(&self) { self.a.lock().merge(self.b.lock()); }";
        let p = parse(src);
        let sites = &p.fns[0].sites;
        assert_eq!(sites.len(), 2);
        assert!(sites[0].held_locks.is_empty());
        assert_eq!(sites[1].held_locks, vec!["self.a".to_string()]);
    }

    #[test]
    fn drop_releases_guard() {
        let src = "fn f(&self) { let g = self.a.lock(); drop(g); self.work(); }";
        let p = parse(src);
        let work = p.fns[0].calls.iter().find(|c| c.name == "work").expect("w");
        assert!(work.held_locks.is_empty());
    }

    #[test]
    fn hash_iter_sites() {
        let src = "fn f(m: HashMap<String, u32>) { for p in &m { use_it(p); } let v: Vec<_> = m.keys().collect(); }";
        let p = parse(src);
        let kinds: Vec<SiteKind> = p.fns[0].sites.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![SiteKind::HashIter, SiteKind::HashIter]);
    }

    #[test]
    fn sanctioned_hash_iter() {
        let src = "fn f(m: HashMap<String, u32>) { let v: BTreeSet<_> = m.keys().collect::<BTreeSet<_>>(); }";
        let p = parse(src);
        assert!(p.fns[0].sites[0].sanctioned);
    }

    #[test]
    fn env_and_wallclock_sites() {
        let p = parse("fn f() { let v = std::env::var(\"X\"); let t = Instant::now(); }");
        let kinds: Vec<SiteKind> = p.fns[0].sites.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![SiteKind::EnvRead, SiteKind::WallClock]);
    }

    #[test]
    fn use_imports_parsed() {
        let p = parse(
            "use webiq_web::{SearchEngine, cache::ShardedMap as SM};\nuse std::fmt;\nfn f() {}",
        );
        let got: Vec<(String, String)> = p
            .imports
            .iter()
            .map(|i| (i.name.clone(), i.root.clone()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("SearchEngine".into(), "webiq_web".into()),
                ("SM".into(), "webiq_web".into()),
                ("fmt".into(), "std".into()),
            ]
        );
    }

    #[test]
    fn test_fns_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }";
        let p = parse_file(src);
        assert!(!p.fns[0].in_test);
        assert!(p.fns[1].in_test);
        assert!(p.fns[1].sites.is_empty(), "test fns carry no sites");
    }

    #[test]
    fn nested_fn_is_own_item() {
        let p = parse("fn outer() { fn inner() { x.unwrap(); } inner(); }");
        assert_eq!(p.fns.len(), 2);
        let inner = p.fns.iter().find(|f| f.name == "inner").expect("inner");
        assert_eq!(inner.sites.len(), 1);
        let outer = p.fns.iter().find(|f| f.name == "outer").expect("outer");
        assert!(outer.sites.is_empty(), "inner's unwrap is not outer's");
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
    }

    #[test]
    fn subtracting_index_is_panic_site() {
        let p = parse("fn f(v: &[u32]) -> u32 { v[v.len() - 1] }");
        assert_eq!(p.fns[0].sites.len(), 1);
        assert_eq!(p.fns[0].sites[0].detail, "subtracting index");
    }
}
