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

/// The word tokenization shared by the document indexer and the query
/// parser: alphanumeric runs (plus internal `'`/`-`/`.`/`,` followed by an
/// alphanumeric, and a leading `$` before a digit), lowercased.
pub fn tokenize(s: &str) -> Vec<String> {
    let chars: Vec<char> = s.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_alphanumeric() || c == '$' && chars.get(i + 1).is_some_and(char::is_ascii_digit) {
            let start = i;
            i += 1;
            while i < chars.len() {
                let c = chars[i];
                if c.is_alphanumeric() {
                    i += 1;
                } else if (c == '\'' || c == '-' || c == '.' || c == ',')
                    && chars.get(i + 1).is_some_and(|d| d.is_alphanumeric())
                {
                    i += 2;
                } else {
                    break;
                }
            }
            out.push(chars[start..i].iter().collect::<String>().to_lowercase());
        } else {
            i += 1;
        }
    }
    out
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
            let end = query[i + 1..].find('"').map(|p| i + 1 + p);
            let (content, next) = match end {
                Some(e) => (&query[i + 1..e], e + 1),
                None => (&query[i + 1..], query.len()),
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
            let raw = &query[start..i];
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
}
