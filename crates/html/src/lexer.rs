//! HTML tokenizer.
//!
//! Splits raw HTML into start tags (with attributes), end tags, text,
//! comments, and doctype declarations. Lenient in the ways real-world 2006
//! query-interface pages require: unquoted attribute values, valueless
//! attributes (`selected`), mixed case, stray `<` in text.
//!
//! [`Tokens`] is the one lexer: an iterator of [`Token`]s that borrow
//! from the page. Text is decoded only when it holds a `&` (the contents
//! of `<script>` and `<style>` never), tag and attribute names are slices
//! of the page compared ignoring ASCII case, and a start tag's attributes
//! are parsed only when asked for. [`tokenize`] collects it into owned
//! [`HtmlToken`]s, lowercased and decoded, for the DOM builder.

use std::borrow::Cow;

use crate::entities;

/// One attribute: lowercase name, decoded value (empty for valueless).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr {
    /// Attribute name, lowercased.
    pub name: String,
    /// Attribute value with entities decoded; `""` for valueless attrs.
    pub value: String,
}

/// A lexical HTML token, owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HtmlToken {
    /// `<name attr=value …>`; `self_closing` for `<input/>`.
    StartTag {
        /// Tag name, lowercased.
        name: String,
        /// Attributes in source order.
        attrs: Vec<Attr>,
        /// True when the tag ends with `/>`.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag {
        /// Tag name, lowercased.
        name: String,
    },
    /// Character data between tags, entities decoded, whitespace preserved.
    Text(String),
    /// `<!-- … -->` contents.
    Comment(String),
    /// `<!DOCTYPE …>` contents.
    Doctype(String),
}

/// A lexical HTML token borrowing from the page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<name attr=value …>`.
    StartTag(StartTag<'a>),
    /// `</name>`.
    EndTag {
        /// Tag name as written.
        name: &'a str,
    },
    /// Character data between tags, whitespace preserved: entities
    /// decoded (borrowed unless it holds a `&`), or the raw contents of
    /// `<script>` or `<style>`.
    Text(Cow<'a, str>),
    /// `<!-- … -->` contents.
    Comment(&'a str),
    /// `<!DOCTYPE …>` contents, trimmed.
    Doctype(&'a str),
}

impl Token<'_> {
    /// The owned token: names lowercased, attributes parsed and decoded.
    pub fn into_owned(self) -> HtmlToken {
        match self {
            Token::StartTag(tag) => HtmlToken::StartTag {
                name: tag.name.to_ascii_lowercase(),
                attrs: tag
                    .attrs()
                    .map(|(name, value)| Attr {
                        name: name.to_ascii_lowercase(),
                        value: value.into_owned(),
                    })
                    .collect(),
                self_closing: tag.self_closing,
            },
            Token::EndTag { name } => HtmlToken::EndTag {
                name: name.to_ascii_lowercase(),
            },
            Token::Text(text) => HtmlToken::Text(text.into_owned()),
            Token::Comment(c) => HtmlToken::Comment(c.to_string()),
            Token::Doctype(d) => HtmlToken::Doctype(d.to_string()),
        }
    }
}

/// A start tag as written: its name and its attributes' unparsed source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartTag<'a> {
    name: &'a str,
    attrs: &'a str,
    self_closing: bool,
}

impl<'a> StartTag<'a> {
    /// The tag name as written.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// Is this a `name` tag? `name` is lowercase; case is ignored.
    pub fn is(&self, name: &str) -> bool {
        self.name.eq_ignore_ascii_case(name)
    }

    /// True when a `/` stands between the attributes (`<input/>`).
    pub fn self_closing(&self) -> bool {
        self.self_closing
    }

    /// The attributes in source order, parsed now: each name as written
    /// (never empty) and its value with entities decoded (`""` when
    /// valueless).
    pub fn attrs(&self) -> Attrs<'a> {
        Attrs {
            src: self.attrs,
            pos: 0,
        }
    }

    /// The value of the first attribute named `name` (lowercase; case is
    /// ignored).
    pub fn attr(&self, name: &str) -> Option<Cow<'a, str>> {
        self.attrs()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, value)| value)
    }
}

/// The attributes of a [`StartTag`], parsed as they are iterated.
#[derive(Debug, Clone)]
pub struct Attrs<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Iterator for Attrs<'a> {
    type Item = (&'a str, Cow<'a, str>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match attr_step(self.src.as_bytes(), self.pos) {
                Step::Close(_) | Step::End => {
                    self.pos = self.src.len();
                    return None;
                }
                Step::Slash(next) => self.pos = next,
                Step::Attr { name, value, next } => {
                    self.pos = next;
                    if name.0 < name.1 {
                        return Some((cut(self.src, name), text(cut(self.src, value))));
                    }
                }
            }
        }
    }
}

/// Tokenize an HTML document into owned tokens.
pub fn tokenize(html: &str) -> Vec<HtmlToken> {
    Tokens::new(html).map(Token::into_owned).collect()
}

/// The tokens of an HTML document, borrowing from it.
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    html: &'a str,
    /// Where scanning resumes.
    pos: usize,
    /// Start of the text run not yet yielded.
    text_start: usize,
    /// Inside `<script>` or `<style>`: the close tag its text runs to.
    raw_until: Option<&'static str>,
    /// The token that ended a text run, yielded after it.
    pending: Option<Token<'a>>,
}

impl<'a> Tokens<'a> {
    /// Lex `html` from its start.
    pub fn new(html: &'a str) -> Self {
        Tokens {
            html,
            pos: 0,
            text_start: 0,
            raw_until: None,
            pending: None,
        }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        if let Some(token) = self.pending.take() {
            return Some(token);
        }
        let html = self.html;
        let len = html.len();
        if let Some(close) = self.raw_until.take() {
            // raw text runs to the close tag, undecoded
            let start = self.pos;
            let end = find_ci(cut(html, (start, len)), close).map_or(len, |p| start + p);
            self.pos = end;
            self.text_start = end;
            if end > start {
                return Some(Token::Text(Cow::Borrowed(cut(html, (start, end)))));
            }
        }
        while let Some(at) = cut(html, (self.pos, len)).find('<') {
            let i = self.pos + at;
            // Decide what the '<' introduces *before* ending the text run,
            // so a stray '<' stays part of it.
            let Some((token, next)) = lex_at(html, i) else {
                self.pos = i + 1;
                continue;
            };
            if let Token::StartTag(tag) = &token {
                if tag.is("script") {
                    self.raw_until = Some("</script");
                } else if tag.is("style") {
                    self.raw_until = Some("</style");
                }
            }
            let run = (self.text_start, i);
            self.pos = next;
            self.text_start = next;
            if run.0 < run.1 {
                self.pending = Some(token);
                return Some(Token::Text(text(cut(html, run))));
            }
            return Some(token);
        }
        self.pos = len;
        if self.text_start < len {
            let run = (self.text_start, len);
            self.text_start = len;
            return Some(Token::Text(text(cut(html, run))));
        }
        None
    }
}

/// `s[range]`, or `""` off a char boundary. Every cut the lexer makes
/// sits at an ASCII delimiter or an end of the input, so the fallback is
/// never taken.
fn cut(s: &str, (from, to): (usize, usize)) -> &str {
    s.get(from..to).unwrap_or_default()
}

/// Text with entities decoded, borrowed when it holds no reference.
fn text(s: &str) -> Cow<'_, str> {
    if s.contains('&') {
        Cow::Owned(entities::decode(s))
    } else {
        Cow::Borrowed(s)
    }
}

/// Case-insensitive substring search.
fn find_ci(haystack: &str, needle: &str) -> Option<usize> {
    let n = needle.as_bytes();
    if n.is_empty() {
        return None;
    }
    haystack
        .as_bytes()
        .windows(n.len())
        .position(|w| w.eq_ignore_ascii_case(n))
}

/// The token a `<` at byte `i` opens, and the index after it; `None` for
/// a stray `<`.
fn lex_at(html: &str, i: usize) -> Option<(Token<'_>, usize)> {
    let len = html.len();
    let rest = cut(html, (i, len));
    if let Some(body) = rest.strip_prefix("<!--") {
        let start = i + 4;
        return Some(match body.find("-->") {
            Some(p) => (Token::Comment(cut(html, (start, start + p))), start + p + 3),
            None => (Token::Comment(body), len),
        });
    }
    if matches!(rest.as_bytes().get(1), Some(b'!' | b'?')) {
        // doctype or processing instruction
        let end = rest.find('>').map_or(len, |p| i + p);
        let body = cut(html, (i + 2, end)).trim();
        return Some((Token::Doctype(body), (end + 1).min(len)));
    }
    lex_tag(html, i)
}

/// Lex a tag starting at `<`; returns the token and the index after `>`.
fn lex_tag(html: &str, start: usize) -> Option<(Token<'_>, usize)> {
    let b = html.as_bytes();
    let mut i = start + 1;
    let closing = b.get(i) == Some(&b'/');
    if closing {
        i += 1;
    }
    let name_start = i;
    while b
        .get(i)
        .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'-')
    {
        i += 1;
    }
    if i == name_start {
        return None; // not a tag
    }
    let name = cut(html, (name_start, i));
    if closing {
        let end = cut(html, (i, b.len())).find('>').map(|p| i + p)?;
        return Some((Token::EndTag { name }, end + 1));
    }
    // Scan the attribute syntax for the tag's end (a quoted value may
    // hold a '>'); the attributes themselves are parsed on demand.
    let attrs_start = i;
    let mut self_closing = false;
    loop {
        let (end, next) = match attr_step(b, i) {
            Step::Close(at) => (at, at + 1),
            Step::End => (b.len(), b.len()),
            Step::Slash(next) => {
                self_closing = true;
                i = next;
                continue;
            }
            Step::Attr { next, .. } => {
                i = next;
                continue;
            }
        };
        let tag = StartTag {
            name,
            attrs: cut(html, (attrs_start, end)),
            self_closing,
        };
        return Some((Token::StartTag(tag), next));
    }
}

/// One step through a start tag's attribute syntax.
enum Step {
    /// The `>` at this index closes the tag.
    Close(usize),
    /// The input ends inside the tag.
    End,
    /// A `/` outside any value; the syntax resumes at the index given.
    Slash(usize),
    /// An attribute: its name's byte range (empty for `=value` without a
    /// name), its value's (empty when valueless), and where the syntax
    /// resumes.
    Attr {
        name: (usize, usize),
        value: (usize, usize),
        next: usize,
    },
}

/// The step at byte `i` of a start tag's attribute syntax in `b`. Every
/// index it returns is an end of `b` or next to an ASCII delimiter.
fn attr_step(b: &[u8], mut i: usize) -> Step {
    let space = |b: &[u8], mut i: usize| {
        while b.get(i).is_some_and(u8::is_ascii_whitespace) {
            i += 1;
        }
        i
    };
    i = space(b, i);
    match b.get(i) {
        None => Step::End,
        Some(b'>') => Step::Close(i),
        Some(b'/') => Step::Slash(i + 1),
        Some(_) => {
            let name_start = i;
            while b
                .get(i)
                .is_some_and(|&c| !c.is_ascii_whitespace() && !matches!(c, b'=' | b'>' | b'/'))
            {
                i += 1;
            }
            let name = (name_start, i);
            i = space(b, i);
            let mut value = (i, i);
            if b.get(i) == Some(&b'=') {
                i = space(b, i + 1);
                if let Some(&quote @ (b'"' | b'\'')) = b.get(i) {
                    let v_start = i + 1;
                    let v_end = b
                        .iter()
                        .skip(v_start)
                        .position(|&c| c == quote)
                        .map_or(b.len(), |p| v_start + p);
                    value = (v_start, v_end);
                    i = (v_end + 1).min(b.len());
                } else {
                    let v_start = i;
                    while b
                        .get(i)
                        .is_some_and(|&c| !c.is_ascii_whitespace() && c != b'>')
                    {
                        i += 1;
                    }
                    value = (v_start, i);
                }
            }
            Step::Attr {
                name,
                value,
                next: i,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(tok: &HtmlToken) -> (&str, &[Attr]) {
        match tok {
            HtmlToken::StartTag { name, attrs, .. } => (name, attrs),
            other => panic!("expected start tag, got {other:?}"),
        }
    }

    #[test]
    fn simple_document() {
        let toks = tokenize("<html><body>Hi</body></html>");
        assert_eq!(toks.len(), 5);
        assert_eq!(start(&toks[0]).0, "html");
        assert_eq!(toks[2], HtmlToken::Text("Hi".into()));
        assert_eq!(
            toks[4],
            HtmlToken::EndTag {
                name: "html".into()
            }
        );
    }

    #[test]
    fn attributes_quoted_and_unquoted() {
        let toks = tokenize(r#"<input type="text" name=city value='Boston' disabled>"#);
        let (name, attrs) = start(&toks[0]);
        assert_eq!(name, "input");
        assert_eq!(attrs.len(), 4);
        assert_eq!(
            attrs[0],
            Attr {
                name: "type".into(),
                value: "text".into()
            }
        );
        assert_eq!(
            attrs[1],
            Attr {
                name: "name".into(),
                value: "city".into()
            }
        );
        assert_eq!(
            attrs[2],
            Attr {
                name: "value".into(),
                value: "Boston".into()
            }
        );
        assert_eq!(
            attrs[3],
            Attr {
                name: "disabled".into(),
                value: "".into()
            }
        );
    }

    #[test]
    fn self_closing() {
        let toks = tokenize("<br/><input type=text />");
        match &toks[0] {
            HtmlToken::StartTag { self_closing, .. } => assert!(self_closing),
            other => panic!("{other:?}"),
        }
        match &toks[1] {
            HtmlToken::StartTag {
                name,
                self_closing,
                attrs,
            } => {
                assert_eq!(name, "input");
                assert!(self_closing);
                assert_eq!(attrs.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn case_is_normalized() {
        let toks = tokenize("<SELECT NAME=airline><OPTION>Delta</OPTION></SELECT>");
        assert_eq!(start(&toks[0]).0, "select");
        assert_eq!(start(&toks[0]).1[0].name, "name");
        assert_eq!(
            toks.last(),
            Some(&HtmlToken::EndTag {
                name: "select".into()
            })
        );
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let toks = tokenize(r#"<a title="Barnes &amp; Noble">R&amp;D</a>"#);
        assert_eq!(start(&toks[0]).1[0].value, "Barnes & Noble");
        assert_eq!(toks[1], HtmlToken::Text("R&D".into()));
    }

    #[test]
    fn comments_and_doctype() {
        let toks = tokenize("<!DOCTYPE html><!-- hidden --><p>x</p>");
        assert_eq!(toks[0], HtmlToken::Doctype("DOCTYPE html".into()));
        assert_eq!(toks[1], HtmlToken::Comment(" hidden ".into()));
    }

    #[test]
    fn stray_lt_is_text() {
        let toks = tokenize("a < b");
        // "a " text, stray '<' consumed as text, " b"
        let text: String = toks
            .iter()
            .filter_map(|t| match t {
                HtmlToken::Text(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(text, "a < b");
    }

    #[test]
    fn script_contents_not_parsed() {
        let toks = tokenize("<script>if (a<b) {}</script><p>after</p>");
        assert_eq!(start(&toks[0]).0, "script");
        assert_eq!(toks[1], HtmlToken::Text("if (a<b) {}".into()));
        assert_eq!(
            toks[2],
            HtmlToken::EndTag {
                name: "script".into()
            }
        );
    }

    #[test]
    fn unterminated_tag_at_eof() {
        let toks = tokenize("<input type=text");
        match &toks[0] {
            HtmlToken::StartTag { name, attrs, .. } => {
                assert_eq!(name, "input");
                assert_eq!(attrs.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unterminated_comment() {
        let toks = tokenize("<!-- open");
        assert_eq!(toks[0], HtmlToken::Comment(" open".into()));
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert_eq!(Tokens::new("").next(), None);
    }

    #[test]
    fn text_is_borrowed_unless_it_holds_a_reference() {
        let toks: Vec<Token> = Tokens::new("<p>plain</p><p>R&amp;D</p>").collect();
        assert!(matches!(&toks[1], Token::Text(Cow::Borrowed("plain"))));
        match &toks[4] {
            Token::Text(Cow::Owned(t)) => assert_eq!(t, "R&D"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn script_and_style_text_is_never_decoded() {
        for html in ["<SCRIPT>a &amp; b</Script>", "<style>a &amp; b</STYLE>"] {
            let toks: Vec<Token> = Tokens::new(html).collect();
            assert!(
                matches!(&toks[1], Token::Text(Cow::Borrowed("a &amp; b"))),
                "{toks:?}"
            );
            assert_eq!(toks.len(), 3, "{toks:?}");
        }
    }

    #[test]
    fn names_compare_ignoring_ascii_case_in_place() {
        let toks: Vec<Token> = Tokens::new("<TR Class='Result'>x</tR>").collect();
        let Token::StartTag(tag) = &toks[0] else {
            panic!("{toks:?}");
        };
        assert_eq!(tag.name(), "TR");
        assert!(tag.is("tr") && !tag.is("td"));
        assert_eq!(tag.attr("class").as_deref(), Some("Result"));
        assert_eq!(toks[2], Token::EndTag { name: "tR" });
    }

    #[test]
    fn attributes_parse_on_demand_past_a_quoted_gt() {
        let toks: Vec<Token> = Tokens::new("<a title='x>y' =z HREF=b/ />after").collect();
        let Token::StartTag(tag) = &toks[0] else {
            panic!("{toks:?}");
        };
        assert!(tag.self_closing());
        let attrs: Vec<(&str, Cow<str>)> = tag.attrs().collect();
        assert_eq!(
            attrs,
            [
                ("title", Cow::Borrowed("x>y")),
                ("HREF", Cow::Borrowed("b/"))
            ]
        );
        assert_eq!(toks[1], Token::Text(Cow::Borrowed("after")));
    }
}
