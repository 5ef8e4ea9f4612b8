//! The HTML lexer and entity decoder as they were before the lexer
//! borrowed from the page, kept as the oracle the library must equal:
//! every token owned, names lowercased and text decoded as it is cut, and
//! references decoded one char at a time. Included with `#[path]` by the
//! tests that compare against it.

use webiq_html::{Attr, HtmlToken};

/// Tokenize an HTML document.
pub fn tokenize(html: &str) -> Vec<HtmlToken> {
    let b = html.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut text_start = 0;

    // Inside <script> or <style>, text runs to the matching close tag.
    let mut raw_text_until: Option<&'static str> = None;

    while i < b.len() {
        if let Some(close) = raw_text_until {
            let rest = &html[i..];
            let pos = find_ci(rest, close).unwrap_or(rest.len());
            if i + pos > text_start {
                out.push(HtmlToken::Text(html[text_start..i + pos].to_string()));
            }
            i += pos;
            text_start = i;
            raw_text_until = None;
            continue;
        }
        if b[i] != b'<' {
            i += 1;
            continue;
        }
        // Decide what the '<' introduces *before* flushing text, so a stray
        // '<' stays part of the surrounding text run.
        let flush = |out: &mut Vec<HtmlToken>, upto: usize, from: usize| {
            if upto > from {
                out.push(HtmlToken::Text(decode(&html[from..upto])));
            }
        };
        if html[i..].starts_with("<!--") {
            flush(&mut out, i, text_start);
            let end = html[i + 4..].find("-->").map(|p| i + 4 + p);
            match end {
                Some(e) => {
                    out.push(HtmlToken::Comment(html[i + 4..e].to_string()));
                    i = e + 3;
                }
                None => {
                    out.push(HtmlToken::Comment(html[i + 4..].to_string()));
                    i = b.len();
                }
            }
            text_start = i;
            continue;
        }
        if i + 1 < b.len() && (b[i + 1] == b'!' || b[i + 1] == b'?') {
            // doctype or processing instruction
            flush(&mut out, i, text_start);
            let end = html[i..].find('>').map_or(b.len(), |p| i + p);
            out.push(HtmlToken::Doctype(html[i + 2..end].trim().to_string()));
            i = (end + 1).min(b.len());
            text_start = i;
            continue;
        }
        match lex_tag(html, i) {
            Some((token, next)) => {
                flush(&mut out, i, text_start);
                if let HtmlToken::StartTag { name, .. } = &token {
                    if name == "script" {
                        raw_text_until = Some("</script");
                    } else if name == "style" {
                        raw_text_until = Some("</style");
                    }
                }
                out.push(token);
                i = next;
                text_start = i;
            }
            None => {
                // stray '<' — stays inside the current text run
                i += 1;
            }
        }
    }
    if b.len() > text_start {
        out.push(HtmlToken::Text(decode(&html[text_start..])));
    }
    out
}

/// Case-insensitive substring search.
fn find_ci(haystack: &str, needle: &str) -> Option<usize> {
    let h = haystack.as_bytes();
    let n = needle.as_bytes();
    if n.is_empty() || h.len() < n.len() {
        return None;
    }
    (0..=h.len() - n.len()).find(|&i| {
        h[i..i + n.len()]
            .iter()
            .zip(n)
            .all(|(a, b)| a.eq_ignore_ascii_case(b))
    })
}

/// Lex a tag starting at `<`; returns the token and the index after `>`.
fn lex_tag(html: &str, start: usize) -> Option<(HtmlToken, usize)> {
    let b = html.as_bytes();
    let mut i = start + 1;
    let closing = b.get(i) == Some(&b'/');
    if closing {
        i += 1;
    }
    let name_start = i;
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'-') {
        i += 1;
    }
    if i == name_start {
        return None; // not a tag
    }
    let name = html[name_start..i].to_ascii_lowercase();
    if closing {
        let end = html[i..].find('>').map(|p| i + p)?;
        return Some((HtmlToken::EndTag { name }, end + 1));
    }
    let mut attrs = Vec::new();
    let mut self_closing = false;
    loop {
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= b.len() {
            return Some((
                HtmlToken::StartTag {
                    name,
                    attrs,
                    self_closing,
                },
                i,
            ));
        }
        match b[i] {
            b'>' => {
                return Some((
                    HtmlToken::StartTag {
                        name,
                        attrs,
                        self_closing,
                    },
                    i + 1,
                ));
            }
            b'/' => {
                self_closing = true;
                i += 1;
            }
            _ => {
                // attribute name
                let an_start = i;
                while i < b.len()
                    && !b[i].is_ascii_whitespace()
                    && b[i] != b'='
                    && b[i] != b'>'
                    && b[i] != b'/'
                {
                    i += 1;
                }
                let an = html[an_start..i].to_ascii_lowercase();
                while i < b.len() && b[i].is_ascii_whitespace() {
                    i += 1;
                }
                let mut value = String::new();
                if i < b.len() && b[i] == b'=' {
                    i += 1;
                    while i < b.len() && b[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    if i < b.len() && (b[i] == b'"' || b[i] == b'\'') {
                        let quote = b[i];
                        i += 1;
                        let v_start = i;
                        while i < b.len() && b[i] != quote {
                            i += 1;
                        }
                        value = decode(&html[v_start..i]);
                        i = (i + 1).min(b.len());
                    } else {
                        let v_start = i;
                        while i < b.len() && !b[i].is_ascii_whitespace() && b[i] != b'>' {
                            i += 1;
                        }
                        value = decode(&html[v_start..i]);
                    }
                }
                if !an.is_empty() {
                    attrs.push(Attr { name: an, value });
                }
            }
        }
    }
}

/// Named entities that appear in query-interface pages.
static NAMED: &[(&str, &str)] = &[
    ("amp", "&"),
    ("lt", "<"),
    ("gt", ">"),
    ("quot", "\""),
    ("apos", "'"),
    ("nbsp", " "),
    ("copy", "©"),
    ("reg", "®"),
    ("trade", "™"),
    ("mdash", "—"),
    ("ndash", "–"),
    ("hellip", "…"),
];

/// Decode HTML entities in `s`. Unknown or malformed references are left
/// verbatim (browser-like leniency).
pub fn decode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&s[i..i + ch_len]);
            i += ch_len;
            continue;
        }
        // find terminating ';' within a sane distance
        let end = s[i + 1..].char_indices().take(10).find(|(_, c)| *c == ';');
        let Some((off, _)) = end else {
            out.push('&');
            i += 1;
            continue;
        };
        let name = &s[i + 1..i + 1 + off];
        if let Some(stripped) = name.strip_prefix('#') {
            let code = if let Some(hex) = stripped.strip_prefix(['x', 'X']) {
                u32::from_str_radix(hex, 16).ok()
            } else {
                stripped.parse::<u32>().ok()
            };
            match code.and_then(char::from_u32) {
                Some(c) => {
                    out.push(c);
                    i += 2 + off;
                }
                None => {
                    out.push('&');
                    i += 1;
                }
            }
        } else if let Some((_, repl)) = NAMED.iter().find(|(n, _)| *n == name) {
            out.push_str(repl);
            i += 2 + off;
        } else {
            out.push('&');
            i += 1;
        }
    }
    out
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}
