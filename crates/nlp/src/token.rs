//! Word- and sentence-level tokenization.
//!
//! The tokenizer is deliberately simple: WebIQ only needs shallow analysis of
//! short attribute labels ("Departure city", "Class of service") and of
//! search-engine result snippets, both of which are plain English text with
//! light punctuation. Tokens preserve the original spelling; callers decide
//! when to lowercase.

/// The kind of a lexical token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// An alphabetic word, possibly with internal apostrophes or hyphens
    /// (`"o'hare"`, `"twenty-one"`).
    Word,
    /// A number, possibly with decimal point, commas, or a leading `$`
    /// (`"1,200"`, `"$15.99"`, `"42"`).
    Number,
    /// A single punctuation character (`","`, `"."`, `"("`, ...).
    Punct,
}

/// A token: a span of the input with a classified kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token text as it appeared in the input.
    pub text: String,
    /// Lexical class of the token.
    pub kind: TokenKind,
}

impl Token {
    /// Convenience constructor used heavily in tests.
    pub fn new(text: impl Into<String>, kind: TokenKind) -> Self {
        Token {
            text: text.into(),
            kind,
        }
    }

    /// The token text lowercased (ASCII).
    pub fn lower(&self) -> String {
        self.text.to_ascii_lowercase()
    }

    /// True if this token is a word token.
    pub fn is_word(&self) -> bool {
        self.kind == TokenKind::Word
    }

    /// True if this token is a number token.
    pub fn is_number(&self) -> bool {
        self.kind == TokenKind::Number
    }

    /// True if the first character is an ASCII uppercase letter.
    pub fn is_capitalized(&self) -> bool {
        self.text
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase())
    }
}

/// Tokenize `text` into words, numbers, and punctuation.
///
/// Rules:
/// - runs of alphabetic characters form a [`TokenKind::Word`]; internal `'`
///   and `-` are kept when flanked by letters (`"first-class"` is one word);
/// - a digit run, optionally with `,`-grouped thousands, a decimal part, and
///   a leading `$`, forms a [`TokenKind::Number`];
/// - everything else that is not whitespace becomes a single-character
///   [`TokenKind::Punct`].
///
/// Each token's text is copied once, from one slice of `text`.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(c) = char_at(text, i) {
        let start = i;
        i += c.len_utf8();
        let kind = if c.is_whitespace() {
            continue;
        } else if c.is_alphabetic() {
            i = word_end(text, i);
            TokenKind::Word
        } else if c.is_ascii_digit() || (c == '$' && peek_digit(text, i)) {
            i = number_end(text, i);
            TokenKind::Number
        } else {
            TokenKind::Punct
        };
        if let Some(token) = text.get(start..i) {
            out.push(Token::new(token, kind));
        }
    }
    out
}

/// The char starting at byte `i` of `text`, if any.
fn char_at(text: &str, i: usize) -> Option<char> {
    text.get(i..)?.chars().next()
}

fn peek_digit(text: &str, i: usize) -> bool {
    text.as_bytes().get(i).is_some_and(u8::is_ascii_digit)
}

/// The end of a word whose first letter ends before byte `i`: letters,
/// and `'` or `-` when a letter follows.
fn word_end(text: &str, mut i: usize) -> usize {
    while let Some(c) = char_at(text, i) {
        if c.is_alphabetic() {
            i += c.len_utf8();
        } else if c == '\'' || c == '-' {
            match char_at(text, i + 1) {
                Some(next) if next.is_alphabetic() => i += 1 + next.len_utf8(),
                _ => break,
            }
        } else {
            break;
        }
    }
    i
}

/// Consume a digit run starting at byte `i`, allowing `,`-grouping and
/// `.` decimal parts; returns the byte offset one past the number.
fn number_end(text: &str, mut i: usize) -> usize {
    let b = text.as_bytes();
    while let Some(&c) = b.get(i) {
        if c.is_ascii_digit() {
            i += 1;
        } else if (c == b',' || c == b'.') && peek_digit(text, i + 1) {
            i += 2;
        } else {
            break;
        }
    }
    i
}

/// Tokenize and lowercase word/number tokens, dropping punctuation.
///
/// This is the normalization used for bag-of-words label vectors and for
/// indexing documents in the Surface-Web simulator.
pub fn words_lower(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter(|t| t.kind != TokenKind::Punct)
        .map(|mut t| {
            t.text.make_ascii_lowercase();
            t.text
        })
        .collect()
}

/// Split text into sentences on `.`, `!`, `?` followed by whitespace or end.
///
/// Abbreviation handling is minimal (single-letter abbreviations like
/// `"U.S."` do not split); snippet text in the simulator is generated with
/// clean sentence boundaries so this is sufficient.
pub fn sentences(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'.' || b == b'!' || b == b'?' {
            let at_end = i + 1 >= bytes.len();
            let next_ws = !at_end && bytes[i + 1].is_ascii_whitespace();
            // "U.S." style: previous char is a single capital letter.
            let abbrev = b == b'.'
                && i.checked_sub(1)
                    .and_then(|p| bytes.get(p))
                    .is_some_and(u8::is_ascii_uppercase)
                && !i
                    .checked_sub(2)
                    .and_then(|p| bytes.get(p))
                    .is_some_and(u8::is_ascii_alphabetic);
            if (at_end || next_ws) && !abbrev {
                let s = text.get(start..=i).unwrap_or_default().trim();
                if !s.is_empty() {
                    out.push(s);
                }
                start = i + 1;
            }
        }
        i += 1;
    }
    let tail = text.get(start..).unwrap_or_default().trim();
    if !tail.is_empty() {
        out.push(tail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<(String, TokenKind)> {
        tokenize(text)
            .into_iter()
            .map(|t| (t.text, t.kind))
            .collect()
    }

    #[test]
    fn tokenizes_plain_words() {
        assert_eq!(
            kinds("Departure city"),
            vec![
                ("Departure".into(), TokenKind::Word),
                ("city".into(), TokenKind::Word)
            ]
        );
    }

    #[test]
    fn keeps_internal_hyphen_and_apostrophe() {
        assert_eq!(
            kinds("first-class o'hare"),
            vec![
                ("first-class".into(), TokenKind::Word),
                ("o'hare".into(), TokenKind::Word)
            ]
        );
    }

    #[test]
    fn trailing_hyphen_is_punct() {
        assert_eq!(
            kinds("well- done"),
            vec![
                ("well".into(), TokenKind::Word),
                ("-".into(), TokenKind::Punct),
                ("done".into(), TokenKind::Word)
            ]
        );
    }

    #[test]
    fn numbers_with_grouping_and_decimals() {
        assert_eq!(
            kinds("1,200 3.14 42"),
            vec![
                ("1,200".into(), TokenKind::Number),
                ("3.14".into(), TokenKind::Number),
                ("42".into(), TokenKind::Number)
            ]
        );
    }

    #[test]
    fn monetary_values_are_single_number_tokens() {
        assert_eq!(
            kinds("$15,200"),
            vec![("$15,200".into(), TokenKind::Number)]
        );
        // Bare '$' with no digit stays punctuation.
        assert_eq!(
            kinds("$ 15"),
            vec![
                ("$".into(), TokenKind::Punct),
                ("15".into(), TokenKind::Number)
            ]
        );
    }

    #[test]
    fn punctuation_is_split_per_character() {
        assert_eq!(
            kinds("Boston, Chicago, and LAX."),
            vec![
                ("Boston".into(), TokenKind::Word),
                (",".into(), TokenKind::Punct),
                ("Chicago".into(), TokenKind::Word),
                (",".into(), TokenKind::Punct),
                ("and".into(), TokenKind::Word),
                ("LAX".into(), TokenKind::Word),
                (".".into(), TokenKind::Punct),
            ]
        );
    }

    #[test]
    fn trailing_period_not_part_of_number() {
        assert_eq!(
            kinds("price is 42."),
            vec![
                ("price".into(), TokenKind::Word),
                ("is".into(), TokenKind::Word),
                ("42".into(), TokenKind::Number),
                (".".into(), TokenKind::Punct),
            ]
        );
    }

    #[test]
    fn words_lower_drops_punct() {
        assert_eq!(words_lower("From City:"), vec!["from", "city"]);
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert!(words_lower("   ").is_empty());
        assert!(sentences("").is_empty());
    }

    #[test]
    fn splits_sentences() {
        let s = sentences("Fly from Boston. Airlines such as Delta operate there! Really?");
        assert_eq!(
            s,
            vec![
                "Fly from Boston.",
                "Airlines such as Delta operate there!",
                "Really?"
            ]
        );
    }

    #[test]
    fn sentence_without_terminator() {
        assert_eq!(sentences("no terminator here"), vec!["no terminator here"]);
    }

    #[test]
    fn abbreviations_do_not_split() {
        let s = sentences("Flights within the U.S. are cheap. Book now.");
        assert_eq!(s, vec!["Flights within the U.S. are cheap.", "Book now."]);
    }

    #[test]
    fn capitalization_check() {
        assert!(Token::new("Boston", TokenKind::Word).is_capitalized());
        assert!(!Token::new("boston", TokenKind::Word).is_capitalized());
    }
}
