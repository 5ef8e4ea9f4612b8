//! The borrowing lexer against the owned lexer it replaced
//! (`tests/support/reference.rs`) on a seeded sweep of tag soup, and the
//! text entry points over adversarial text: nothing may panic.

#[path = "support/reference.rs"]
mod reference;

use webiq_html::lexer::{self, Token, Tokens};
use webiq_html::{dom, entities, form, HtmlToken};
use webiq_rng::{prop, StdRng};

/// Chars whose case mapping changes their length or depends on context
/// (final sigma, `İ`, `ẞ`, the Kelvin and Ohm signs), combining marks,
/// and the lexer's delimiters.
const ADVERSARIAL: &str = "ΣσςİıẞßK\u{212A}\u{2126}\u{301}\u{345}é中aZ0 <>&;\"'-";

/// Pieces of result pages, forms and malformed markup, in mixed case.
const FRAGMENTS: &[&str] = &[
    "<tr>",
    "<TR class=result>",
    "<Tr CLASS=\"Results\" >",
    "</tr>",
    "<li>",
    "<LI>",
    "</Li>",
    "<td>",
    "</TD>",
    "<table class=\"results\">",
    "<p class='error'>",
    "</p>",
    "<script>",
    "<SCRIPT type=text/javascript>",
    "</script>",
    "</Script >",
    "<style>",
    "<STYLE>",
    "</style>",
    "<!--",
    "-->",
    "<!-- c -->",
    "<!DOCTYPE html>",
    "<?xml version='1.0'?>",
    "<!>",
    "<input type=text name=from value='a&amp;b' disabled/>",
    "<select name=x><option selected>A&amp;B</option></select>",
    "<label for=x>Label:</label>",
    "<a title=\"x>y\" href=z>",
    "<a =x>",
    "<br/>",
    "< ",
    "<",
    ">",
    "</",
    "</ >",
    "&amp;",
    "&lt;",
    "&#65;",
    "&#x41;",
    "&#xZZ;",
    "&bogus;",
    "&",
    ";",
    "\"",
    "'",
    "--",
    "=",
    "/",
    " ",
    "\n",
    "Found 3 matching results.",
    "AT&T",
];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// Tag soup: fragments, adversarial text and delimiter noise.
fn soup(rng: &mut StdRng) -> String {
    let mut s = String::new();
    for _ in 0..rng.gen_range(0..24usize) {
        match rng.gen_range(0u32..3) {
            0 => s.push_str(pick(rng, FRAGMENTS)),
            1 => s.push_str(&rng.gen_string(prop::charset(ADVERSARIAL), 0, 6)),
            _ => s.push_str(&rng.gen_string(prop::charset("<>/=&;\"' -!trliscpyTRLISCPY"), 0, 6)),
        }
    }
    s
}

#[test]
fn tokenize_equals_the_reference_lexer() {
    for html in [
        "",
        "<html><body>Hi</body></html>",
        "<SCRIPT>a &amp; b < c</SCRIPT><p>R&amp;D</p>",
        "<style>x</STYLE",
        "<tr CLASS='result' id=a b = 'c' d=\"e>f\"/>",
        "text < stray </ and </p <b>bold",
        "<!-- open",
        "<!doctype html ><? pi ?>",
        "<input value='unterminated",
    ] {
        assert_eq!(lexer::tokenize(html), reference::tokenize(html), "{html:?}");
    }
    prop::cases(prop::CASES * 8, |rng| {
        for html in [soup(rng), rng.gen_string(prop::charset(ADVERSARIAL), 0, 64)] {
            assert_eq!(
                lexer::tokenize(&html),
                reference::tokenize(&html),
                "{html:?}"
            );
        }
    });
}

/// Each borrowed token reads as its owned form: names compare ignoring
/// case, `attr` finds the first attribute of a name, and the text of a
/// page without a `&` is borrowed.
#[test]
fn borrowed_tokens_read_as_their_owned_form() {
    prop::cases(prop::CASES * 4, |rng| {
        let html = soup(rng);
        for token in Tokens::new(&html) {
            let borrowed_text = matches!(&token, Token::Text(std::borrow::Cow::Borrowed(_)));
            match (&token, token.clone().into_owned()) {
                (Token::StartTag(tag), HtmlToken::StartTag { name, attrs, .. }) => {
                    assert!(tag.is(&name), "{html:?}");
                    for a in &attrs {
                        let first = attrs.iter().find(|b| b.name == a.name);
                        let found = tag.attr(&a.name).map(std::borrow::Cow::into_owned);
                        assert_eq!(found, first.map(|b| b.value.clone()), "{html:?}");
                    }
                }
                (Token::Text(_), HtmlToken::Text(_)) if !html.contains('&') => {
                    assert!(borrowed_text, "{html:?}");
                }
                _ => {}
            }
        }
    });
}

#[test]
fn decode_equals_the_reference_decoder() {
    prop::cases(prop::CASES * 4, |rng| {
        let s = rng.gen_string(
            prop::charset("&#;xXabmpltgquoсnbs0123456789AF ΣİẞK\u{212A}\u{301}"),
            0,
            80,
        );
        assert_eq!(entities::decode(&s), reference::decode(&s), "{s:?}");
    });
}

/// The text entry points are total on adversarial text mixed with the
/// lexer's delimiters.
#[test]
fn text_entry_points_never_panic() {
    prop::cases(prop::CASES * 4, |rng| {
        for html in [soup(rng), rng.gen_string(prop::charset(ADVERSARIAL), 0, 96)] {
            for token in Tokens::new(&html) {
                if let Token::StartTag(tag) = token {
                    let _ = (tag.name(), tag.self_closing(), tag.attrs().count());
                }
            }
            let _ = lexer::tokenize(&html);
            let _ = dom::parse(&html);
            let _ = form::extract_forms(&html);
            let _ = entities::decode(&html);
        }
    });
}
