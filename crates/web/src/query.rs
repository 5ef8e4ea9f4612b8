//! Google-style query parsing.
//!
//! WebIQ formats its extraction queries for Google's 2006 syntax, e.g.
//!
//! ```text
//! "authors such as" +book +title +isbn
//! ```
//!
//! where double quotes enclose an exact phrase and `+` marks a required
//! keyword. We implement the conjunctive subset WebIQ uses: a document
//! matches iff every quoted phrase occurs contiguously and every keyword
//! (plain or `+`-marked — both conjunctive in Google) occurs somewhere.

use std::ops::Range;

/// A parsed query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Query {
    /// Exact phrases, each a sequence of lowercase word tokens.
    pub phrases: Vec<Vec<String>>,
    /// Required single keywords, lowercase.
    pub keywords: Vec<String>,
    /// Excluded keywords (`-term`), lowercase: a matching document must
    /// not contain any of them.
    pub excluded: Vec<String>,
}

impl Query {
    /// True when the query has no positive terms (exclusions alone cannot
    /// select documents).
    pub fn is_empty(&self) -> bool {
        self.phrases.is_empty() && self.keywords.is_empty()
    }
}

/// The word tokenization shared by the document indexer, the query
/// parser and the snippet window: alphanumeric runs (plus internal
/// `'`/`-`/`.`/`,` followed by an alphanumeric, and a leading `$` before a
/// digit), lowercased.
pub fn tokenize(s: &str) -> Vec<String> {
    let mut buf = String::new();
    spans(s)
        .map(|span| lowercase(s.get(span).unwrap_or_default(), &mut buf).to_owned())
        .collect()
}

/// The byte ranges of `s`'s tokens, in order: token `p` of [`tokenize`]
/// is `s[spans(s).nth(p)]` lowercased.
pub(crate) fn spans(s: &str) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        while let Some(c) = char_at(s, i) {
            let next = i + c.len_utf8();
            if c.is_alphanumeric()
                || c == '$' && char_at(s, next).is_some_and(|d| d.is_ascii_digit())
            {
                let start = i;
                i = next;
                while let Some(c) = char_at(s, i) {
                    let after = i + c.len_utf8();
                    if c.is_alphanumeric() {
                        i = after;
                    } else if matches!(c, '\'' | '-' | '.' | ',') {
                        match char_at(s, after) {
                            Some(d) if d.is_alphanumeric() => i = after + d.len_utf8(),
                            _ => break,
                        }
                    } else {
                        break;
                    }
                }
                // The char that ended the token is examined again: a `$`
                // there may start the next one ("US$100").
                return Some(start..i);
            }
            i = next;
        }
        None
    })
}

/// The char starting at byte `i` of `s`, if `i` is in bounds.
fn char_at(s: &str, i: usize) -> Option<char> {
    match s.as_bytes().get(i) {
        Some(&b) if b.is_ascii() => Some(char::from(b)),
        _ => s.get(i..)?.chars().next(),
    }
}

/// `token` lowercased into `buf`, which is cleared first: an ASCII token
/// byte by byte, any other through `str::to_lowercase` as a whole, so
/// context-dependent rules (a word-final `Σ` becomes `ς`) see the token.
pub(crate) fn lowercase<'b>(token: &str, buf: &'b mut String) -> &'b str {
    buf.clear();
    if token.is_ascii() {
        buf.push_str(token);
        buf.make_ascii_lowercase();
    } else {
        buf.push_str(&token.to_lowercase());
    }
    buf
}

/// Parse a query string.
pub fn parse(query: &str) -> Query {
    let mut phrases = Vec::new();
    let mut keywords = Vec::new();
    let mut excluded = Vec::new();
    let bytes = query.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'"' {
            let rest = query.get(i + 1..).unwrap_or_default();
            let (content, next) = match rest.split_once('"') {
                Some((content, _)) => (content, i + 2 + content.len()),
                None => (rest, query.len()),
            };
            let toks = tokenize(content);
            if !toks.is_empty() {
                phrases.push(toks);
            }
            i = next;
        } else if c.is_ascii_whitespace() {
            i += 1;
        } else {
            // read a bare term up to whitespace or quote
            let start = i;
            while i < bytes.len() && !bytes[i].is_ascii_whitespace() && bytes[i] != b'"' {
                i += 1;
            }
            // both ends sit at an ASCII byte or the end of the query
            let raw = query.get(start..i).unwrap_or_default();
            if let Some(negated) = raw.strip_prefix('-') {
                excluded.extend(tokenize(negated));
            } else {
                keywords.extend(tokenize(raw.trim_start_matches('+')));
            }
        }
    }
    Query {
        phrases,
        keywords,
        excluded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    #[test]
    fn parses_paper_example() {
        let q = parse(r#""authors such as" +book +title +isbn"#);
        assert_eq!(q.phrases, vec![vec!["authors", "such", "as"]]);
        assert_eq!(q.keywords, vec!["book", "title", "isbn"]);
    }

    #[test]
    fn plain_terms_are_keywords() {
        let q = parse("make honda");
        assert!(q.phrases.is_empty());
        assert_eq!(q.keywords, vec!["make", "honda"]);
    }

    #[test]
    fn multiple_phrases() {
        let q = parse(r#""departure cities such as" "boston""#);
        assert_eq!(q.phrases.len(), 2);
    }

    #[test]
    fn unterminated_quote_is_lenient() {
        let q = parse(r#""departure cities such as"#);
        assert_eq!(q.phrases, vec![vec!["departure", "cities", "such", "as"]]);
    }

    #[test]
    fn case_folded() {
        let q = parse(r#""Air Canada" +Delta"#);
        assert_eq!(q.phrases, vec![vec!["air", "canada"]]);
        assert_eq!(q.keywords, vec!["delta"]);
    }

    #[test]
    fn empty_query() {
        let q = parse("   ");
        assert!(q.is_empty());
    }

    #[test]
    fn empty_phrase_dropped() {
        let q = parse(r#""" foo"#);
        assert!(q.phrases.is_empty());
        assert_eq!(q.keywords, vec!["foo"]);
    }

    #[test]
    fn exclusions_parse() {
        let q = parse("boston -chicago -\"x\"");
        assert_eq!(q.keywords, vec!["boston"]);
        assert_eq!(q.excluded, vec!["chicago"]);
        // a quoted phrase after '-' is a separate token stream; only bare
        // -terms negate
    }

    #[test]
    fn exclusion_only_query_is_empty() {
        assert!(parse("-boston").is_empty());
    }

    #[test]
    fn tokens_keep_hyphens_and_apostrophes() {
        assert_eq!(
            tokenize("O'Hare first-class"),
            vec!["o'hare", "first-class"]
        );
        assert_eq!(tokenize("$15,200"), vec!["$15,200"]);
        assert_eq!(tokenize("3.14"), vec!["3.14"]);
    }

    /// Letters that change length or depend on context when lowercased,
    /// combining marks, non-ASCII digits, `$` and the internal
    /// punctuation, in every arrangement the sweep draws.
    const ADVERSARIAL: &str = "aZ09 .,'-$$$ΣσςİıẞßK\u{212a}\u{2126}\u{301}\u{345}Éé²٣中\t";

    /// The span tokenizer splits and lowercases exactly as the `Vec<char>`
    /// tokenizer it replaced, kept as the test-only reference; its spans
    /// ascend without overlapping.
    #[test]
    fn tokenize_equals_the_reference() {
        for text in [
            "ΟΔΟΣ ΣΑΣ Σ όσος ΌΣΟΣ. ΣΑΣ'Σ",
            "İstanbul İİ iİ",
            "STRAẞE ẞ",
            "273 \u{212a} 5\u{212a}m \u{2126}hm",
            "cafe\u{301} e\u{301}te\u{301} \u{301}a",
            "US$100 $5 $ 5 5$ a$b $$1 $-1 -$1 $,1 $.5 $é $٣",
            "a''b a--b a..b a,,b 'a' -a- .a. ,a, a' a- a. a,",
            "3,000 3.14 1,250.50 9,999,999 1.2.3 1,2,3 ,5 5, 5.",
            "O'Hare first-class U.S. St. Louis São Paulo Zürich",
        ] {
            assert_eq!(tokenize(text), reference::tokenize(text), "{text:?}");
        }
        webiq_rng::prop::cases(webiq_rng::prop::CASES * 8, |rng| {
            for text in [
                rng.gen_string(webiq_rng::prop::charset(ADVERSARIAL), 0, 48),
                rng.gen_string(webiq_rng::prop::any_char(), 0, 48),
            ] {
                assert_eq!(tokenize(&text), reference::tokenize(&text), "{text:?}");
                let spans: Vec<Range<usize>> = spans(&text).collect();
                assert!(spans.windows(2).all(|w| w[0].end <= w[1].start), "{text:?}");
            }
        });
    }
}
