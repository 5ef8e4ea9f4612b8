//! The workspace's JSON codec: a value model, a parser, and the two
//! output forms every committed artifact and trace is written in.
//!
//! - [`Json::pretty`] indents by two spaces and keeps a `.0` on whole
//!   floats, so readers that tell ints from floats see what was meant.
//!   It writes the committed `*.json` artifacts.
//! - [`Json::compact`] writes one line with no spaces and floats in
//!   Rust's shortest round-trip form (`1`, not `1.0`). It writes the
//!   JSONL trace wire format ([`crate::Event::to_jsonl`]).
//!
//! [`Json::parse`] reads both forms back. Integers without a fraction
//! or exponent stay exact ([`Json::Int`], or [`Json::UInt`] past
//! `i64::MAX`); everything else is an `f64`.
//! `-0` is read as the float `-0.0`, since that is how the compact form
//! writes it.
//!
//! Dependency-free on purpose: the workspace builds offline, so the
//! usual serde stack is not available. The codec sits in the lowest
//! crate that every JSON reader and writer already depends on.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (kept apart from floats so counters print exactly).
    Int(i64),
    /// An integer past `i64::MAX`; [`Json::from`] and the parser keep
    /// every smaller one a [`Json::Int`].
    UInt(u64),
    /// A float; non-finite values render as `null` per RFC 8259.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        i64::try_from(v).map_or(Json::UInt(v), Json::Int)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::from(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

/// Build an object from `(key, value)` pairs, preserving order.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Append `s` as a quoted JSON string (quotes, backslashes and control
/// characters escaped).
pub(crate) fn escape_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a float in Rust's shortest round-trip form (`null` when not
/// finite); `point` adds `.0` to whole values.
pub(crate) fn write_float(out: &mut String, v: f64, point: bool) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if point
        && out
            .get(start..)
            .is_some_and(|s| !s.contains(['.', 'e', 'E']))
    {
        out.push_str(".0");
    }
}

/// Append `v` as [`Json::from`] writes it: an exact integer.
pub(crate) fn write_uint(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

impl Json {
    /// Pretty-print with two-space indentation; whole floats keep `.0`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// One line, no spaces; floats in shortest round-trip form.
    pub fn compact(&self) -> String {
        // room for a typical trace line without regrowing
        let mut out = String::with_capacity(256);
        self.write(&mut out, None);
        out
    }

    /// Write `self`; `indent` is the pretty form's depth, `None` the
    /// compact form.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => write_uint(out, *u),
            Json::Num(v) => write_float(out, *v, indent.is_some()),
            Json::Str(s) => escape_str(out, s),
            Json::Arr(items) => write_seq(out, indent, ('[', ']'), items, |out, item, inner| {
                item.write(out, inner);
            }),
            Json::Obj(pairs) => {
                write_seq(out, indent, ('{', '}'), pairs, |out, (k, v), inner| {
                    escape_str(out, k);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                });
            }
        }
    }

    /// Parse one complete JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// A description of the first syntax error and its byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text,
            i: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.i != text.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(v)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// A number as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// A non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// A string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An array's items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// An object's entries, in document order.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(e) => Some(e),
            _ => None,
        }
    }
}

/// Write a bracketed sequence: empty as `[]`/`{}`, otherwise one item
/// per line in the pretty form and comma-joined in the compact one.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&mut String, &T, Option<usize>),
) {
    const PAD: &str = "  ";
    out.push(open);
    let inner = indent.map(|d| d + 1);
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            out.push('\n');
            out.push_str(&PAD.repeat(d));
        }
        item(out, x, inner);
    }
    if let (Some(d), false) = (indent, items.is_empty()) {
        out.push('\n');
        out.push_str(&PAD.repeat(d));
    }
    out.push(close);
}

/// Nesting beyond this is rejected rather than risking the stack.
const MAX_DEPTH: usize = 128;

/// Recursive-descent parser over one document.
struct Parser<'a> {
    s: &'a str,
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Skip whitespace, then consume `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(c);
        self.i += usize::from(hit);
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => self.items(b']', Parser::value).map(Json::Arr),
            Some(b'{') => self.items(b'}', Parser::entry).map(Json::Obj),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// An array's or object's items, from its opening bracket through
    /// `close`, each read by `item`.
    fn items<T>(
        &mut self,
        close: u8,
        item: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        self.i += 1; // opening bracket
        let mut out = Vec::new();
        if !self.eat(close) {
            loop {
                out.push(item(self)?);
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.err("expected `,` or a closing bracket"));
                }
            }
        }
        self.depth -= 1;
        Ok(out)
    }

    /// One `"key": value` object entry.
    fn entry(&mut self) -> Result<(String, Json), String> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.err("expected object key"));
        }
        let key = self.string()?;
        if !self.eat(b':') {
            return Err(self.err("expected `:`"));
        }
        Ok((key, self.value()?))
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s.get(self.i..).is_some_and(|r| r.starts_with(word)) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// A number: exact [`Json::Int`] when written without fraction or
    /// exponent and in `i64` range (`-0` excepted), [`Json::UInt`] past
    /// it up to `u64::MAX`, else a finite float.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        let text = self.s.get(start..self.i).unwrap_or_default();
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(i) = text.parse::<i64>() {
                if i != 0 || !text.starts_with('-') {
                    return Ok(Json::Int(i));
                }
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }

    /// A quoted string. Unescaped runs are copied as slices, so reading
    /// is linear in the input.
    fn string(&mut self) -> Result<String, String> {
        self.i += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.i;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.i += 1;
            }
            // `"` and `\` are ASCII, so `start..i` lies on char boundaries.
            out.push_str(self.s.get(start..self.i).unwrap_or_default());
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.i += 1; // backslash
                    out.push(self.escape()?);
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character an escape sequence (after its `\`) stands for.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hex = self.s.get(self.i + 1..self.i + 5);
                let c = hex
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.err("invalid \\u escape"))?;
                self.i += 4;
                c
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.i += 1;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_and_compact_forms() {
        let v = obj([
            ("name", Json::from("a\"b\nc\u{1}")),
            ("runs", Json::from(vec![1i64, -2])),
            ("empty", Json::Arr(Vec::new())),
            (
                "inner",
                obj([("ok", Json::from(true)), ("none", Json::Null)]),
            ),
            ("whole", Json::from(3.0)),
            ("neg_zero", Json::from(-0.0)),
            ("nan", Json::from(f64::NAN)),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"name\": \"a\\\"b\\nc\\u0001\",\n  \"runs\": [\n    1,\n    -2\n  ],\n  \
             \"empty\": [],\n  \"inner\": {\n    \"ok\": true,\n    \"none\": null\n  },\n  \
             \"whole\": 3.0,\n  \"neg_zero\": -0.0,\n  \"nan\": null\n}"
        );
        assert_eq!(
            v.compact(),
            r#"{"name":"a\"b\nc\u0001","runs":[1,-2],"empty":[],"inner":{"ok":true,"none":null},"whole":3,"neg_zero":-0,"nan":null}"#
        );
        assert_eq!(Json::from(0.0042).compact(), "0.0042");
        // beyond i64: still an exact integer
        assert_eq!(Json::from(u64::MAX), Json::UInt(u64::MAX));
        assert_eq!(Json::from(u64::MAX).compact(), "18446744073709551615");
        assert_eq!(Json::from(1u64 << 63).pretty(), "9223372036854775808");
    }

    #[test]
    fn both_forms_parse_back_exactly() {
        let v = obj([
            ("s", Json::from("é—\u{1}\"\\/\t")),
            ("i", Json::from(i64::MIN)),
            ("big", Json::Int(9_007_199_254_740_993)),
            ("f", Json::from(0.1)),
            (
                "list",
                Json::Arr(vec![Json::Null, Json::Bool(false), obj([])]),
            ),
        ]);
        assert_eq!(Json::parse(&v.pretty()), Ok(v.clone()));
        assert_eq!(Json::parse(&v.compact()), Ok(v));
        assert_eq!(Json::parse(" 1e3 "), Ok(Json::Num(1000.0)));
        for v in [i64::MAX as u64, 1 << 63, u64::MAX] {
            let back = Json::parse(&Json::from(v).compact());
            assert_eq!(back.map(|j| j.as_u64()), Ok(Some(v)));
        }
        let past_u64 = Json::parse("18446744073709551616");
        assert_eq!(past_u64, Ok(Json::Num(2f64.powi(64))));
        // the compact form writes whole floats as integers and -0.0 as
        // `-0`; both must come back bit for bit
        for v in [-3.5, 17.0, 1e-9, f64::MIN_POSITIVE, 1e300, -0.0] {
            let back = Json::parse(&Json::from(v).compact()).map(|j| j.as_f64());
            assert_eq!(back.map(|f| f.map(f64::to_bits)), Ok(Some(v.to_bits())));
        }
        assert_eq!(Json::parse(r#""a\u00e9\/""#), Ok(Json::from("aé/")));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{1:2}",
            "\"open",
            "tru",
            "nan",
            "1e999",
            "-",
            "{} extra",
            r#""\ud83d""#,
            r#""\x""#,
            r#""\u12""#,
            r#""\u+123""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&deep(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 4 MiB of multi-byte chars: quadratic reading would take
        // minutes, linear reading takes milliseconds
        let text = format!("\"{}\"", "é".repeat(2 << 20));
        let v = Json::parse(&text).map(|v| v.as_str().map(str::len));
        assert_eq!(v, Ok(Some(4 << 20)));
    }
}
