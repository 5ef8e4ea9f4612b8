//! Violation collection and deterministic rendering.

use std::fmt::Write as _;

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule identifier (e.g. `slice-arith`).
    pub rule: &'static str,
    /// Human-readable message.
    pub msg: String,
}

/// The outcome of linting a set of files.
#[derive(Debug, Default, Clone)]
pub struct LintReport {
    /// Violations across all files (sorted by [`LintReport::finish`]).
    pub violations: Vec<Violation>,
    /// `lint:allow` suppressions honoured (reason present, rule matched).
    pub suppressed: usize,
    /// Number of files checked.
    pub files_checked: usize,
}

impl LintReport {
    /// Merge another file's outcome into this report.
    pub fn absorb(&mut self, mut violations: Vec<Violation>, suppressed: usize) {
        self.violations.append(&mut violations);
        self.suppressed = self.suppressed.saturating_add(suppressed);
        self.files_checked = self.files_checked.saturating_add(1);
    }

    /// Sort violations into the canonical order: path, then line, column,
    /// and rule-id. Rendering after `finish` is byte-identical across
    /// runs because every key is derived from file contents alone.
    pub fn finish(&mut self) {
        self.violations.sort_by(|a, b| {
            a.file
                .cmp(&b.file)
                .then(a.line.cmp(&b.line))
                .then(a.col.cmp(&b.col))
                .then(a.rule.cmp(b.rule))
                .then(a.msg.cmp(&b.msg))
        });
    }

    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render the report: one `file:line:col rule-id message` line per
    /// violation plus a trailing summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "{}:{}:{} {} {}", v.file, v.line, v.col, v.rule, v.msg);
        }
        let _ = writeln!(
            out,
            "webiq-lint: {} violation(s), {} suppression(s) honoured, {} file(s) checked",
            self.violations.len(),
            self.suppressed,
            self.files_checked
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(file: &str, line: u32, col: u32, rule: &'static str) -> Violation {
        Violation {
            file: file.into(),
            line,
            col,
            rule,
            msg: "m".into(),
        }
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let mut r = LintReport::default();
        r.absorb(
            vec![v("b.rs", 2, 1, "slice-arith"), v("b.rs", 1, 9, "hash-iter")],
            1,
        );
        r.absorb(vec![v("a.rs", 5, 3, "crate-doc")], 0);
        r.finish();
        let first = r.render();
        r.finish();
        assert_eq!(first, r.render(), "render must be idempotent");
        let lines: Vec<&str> = first.lines().collect();
        assert_eq!(lines.first().copied(), Some("a.rs:5:3 crate-doc m"));
        assert_eq!(lines.get(1).copied(), Some("b.rs:1:9 hash-iter m"));
        assert_eq!(lines.get(2).copied(), Some("b.rs:2:1 slice-arith m"));
        assert_eq!(
            lines.get(3).copied(),
            Some("webiq-lint: 3 violation(s), 1 suppression(s) honoured, 2 file(s) checked")
        );
    }

    #[test]
    fn clean_report() {
        let mut r = LintReport::default();
        r.absorb(Vec::new(), 2);
        r.finish();
        assert!(r.is_clean());
        assert!(r
            .render()
            .starts_with("webiq-lint: 0 violation(s), 2 suppression(s)"));
    }
}
