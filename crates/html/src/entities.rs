//! HTML character-reference (entity) decoding.

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
/// verbatim (browser-like leniency). Each run between references is copied
/// whole.
pub fn decode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some((run, after)) = rest.split_once('&') {
        out.push_str(run);
        rest = match push_reference(&mut out, after) {
            Some(len) => after.get(len..).unwrap_or_default(),
            None => {
                out.push('&');
                after
            }
        };
    }
    out.push_str(rest);
    out
}

/// Decode the reference at the start of `after` (the text following a
/// `&`) onto `out`, returning its length through the `;`; `None`, with
/// nothing pushed, when it is not a known, well-formed reference.
fn push_reference(out: &mut String, after: &str) -> Option<usize> {
    // the terminating ';' within a sane distance
    let (off, _) = after.char_indices().take(10).find(|&(_, c)| c == ';')?;
    let name = after.get(..off)?;
    if let Some(stripped) = name.strip_prefix('#') {
        let code = if let Some(hex) = stripped.strip_prefix(['x', 'X']) {
            u32::from_str_radix(hex, 16).ok()
        } else {
            stripped.parse::<u32>().ok()
        };
        out.push(code.and_then(char::from_u32)?);
    } else {
        let (_, repl) = NAMED.iter().find(|(n, _)| *n == name)?;
        out.push_str(repl);
    }
    Some(off + 1)
}

/// Encode the five XML-significant characters.
pub fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_encoded(&mut out, s);
    out
}

/// [`encode`] `s` onto the end of `out`.
pub fn push_encoded(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            other => out.push(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_entities() {
        assert_eq!(decode("Barnes &amp; Noble"), "Barnes & Noble");
        assert_eq!(decode("&lt;b&gt;bold&lt;/b&gt;"), "<b>bold</b>");
        assert_eq!(decode("no&nbsp;break"), "no break");
    }

    #[test]
    fn numeric_entities() {
        assert_eq!(decode("&#65;&#66;"), "AB");
        assert_eq!(decode("&#x41;"), "A");
        assert_eq!(decode("&#X41;"), "A");
    }

    #[test]
    fn malformed_left_verbatim() {
        assert_eq!(decode("AT&T"), "AT&T");
        assert_eq!(decode("&unknown;"), "&unknown;");
        assert_eq!(decode("&;"), "&;");
        assert_eq!(decode("tail&"), "tail&");
        assert_eq!(decode("&#zzz;"), "&#zzz;");
        assert_eq!(decode("&#x110000;"), "&#x110000;"); // beyond char range
    }

    #[test]
    fn encode_roundtrip() {
        let original = "a<b> & \"c\" 'd'";
        assert_eq!(decode(&encode(original)), original);
    }

    #[test]
    fn multibyte_passthrough() {
        assert_eq!(decode("café — naïve"), "café — naïve");
    }

    #[test]
    fn empty() {
        assert_eq!(decode(""), "");
        assert_eq!(encode(""), "");
    }
}
