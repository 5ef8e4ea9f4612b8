//! Property-based tests for the Deep-Web source simulator.

#[path = "support/reference.rs"]
mod reference;

#[path = "../../html/tests/support/reference.rs"]
mod lexer;

use std::collections::BTreeMap;

use webiq_deep::{
    analyze_response, render, DeepSource, ParamDomain, Record, RecordStore, SourceParam,
    SubmissionOutcome,
};
use webiq_rng::{prop, SliceRandom, StdRng};

fn source(values: &[String]) -> DeepSource {
    let mut store = RecordStore::default();
    for v in values {
        store.push(Record::new([("field", v.as_str())]));
    }
    DeepSource::new(
        "PropSource",
        vec![SourceParam {
            name: "field".into(),
            domain: ParamDomain::Free,
            required: false,
        }],
        store,
    )
}

/// Submitting arbitrary parameters never panics and always yields a
/// parseable page with a classifiable outcome.
#[test]
fn submit_total() {
    prop::cases(prop::CASES, |rng| {
        let values = prop::string_vec(rng, prop::alnum_space(), 1, 9, 1, 12);
        let key = rng.gen_string(prop::lower(), 1, 8);
        let value = rng.gen_string(
            prop::charset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789<>&\" "),
            0,
            20,
        );
        let src = source(&values);
        let mut params = BTreeMap::new();
        params.insert(key, value);
        let page = src.submit(&params);
        let _ = analyze_response(&page);
        assert!(page.contains("<html>"));
    });
}

/// A value present in the store is always found; a value absent from
/// every record (as a substring, case-insensitively) never is.
#[test]
fn store_membership_decides_outcome() {
    prop::cases(prop::CASES, |rng| {
        let values = prop::string_vec(rng, prop::lower(), 1, 9, 3, 10);
        let probe_idx = rng.gen_range(0usize..10);
        let src = source(&values);
        let probe = values[probe_idx % values.len()].clone();
        let mut params = BTreeMap::new();
        params.insert("field".to_string(), probe);
        assert!(analyze_response(&src.submit(&params)).is_success());

        // "0" can never appear in an alphabetic store
        let mut params = BTreeMap::new();
        params.insert("field".to_string(), "0".to_string());
        assert_eq!(
            analyze_response(&src.submit(&params)),
            SubmissionOutcome::NoResults
        );
    });
}

/// Response analysis is total over arbitrary HTML soup.
#[test]
fn analyze_total() {
    prop::cases(prop::CASES, |rng| {
        let html = rng.gen_string(prop::any_char(), 0, 400);
        let _ = analyze_response(&html);
    });
}

/// Probe counting is exact.
#[test]
fn probe_count_exact() {
    prop::cases(prop::CASES, |rng| {
        let n = rng.gen_range(0usize..20);
        let src = source(&["abc".to_string()]);
        for _ in 0..n {
            let _ = src.submit(&BTreeMap::new());
        }
        assert_eq!(src.probe_count(), n as u64);
    });
}

/// Failure injection is deterministic: the same submission always gets
/// the same verdict.
#[test]
fn failure_injection_deterministic() {
    prop::cases(prop::CASES, |rng| {
        let value = rng.gen_string(prop::lower(), 1, 10);
        let rate = rng.gen_range(0.0f64..1.0);
        let a = source(&["abc".to_string()]).with_failure_rate(rate);
        let b = source(&["abc".to_string()]).with_failure_rate(rate);
        let mut params = BTreeMap::new();
        params.insert("field".to_string(), value);
        assert_eq!(a.submit(&params), b.submit(&params));
    });
}

/// Pieces of tag soup: unclosed and self-closed `<tr>`/`<li>`, nested
/// tables, result classes in any case (and a second `class` the first
/// hides), markers inside `<script>`, `<style>` and comments, markers
/// split across tags, stray `<`, entities and "found N" summaries.
const SOUP: &[&str] = &[
    "<table>",
    "</table>",
    "<table><tr><td><table><tr><td>inner</td></tr></table></td></tr></table>",
    "<tr>",
    "<TR CLASS=Result>",
    "<tr class='Results-Row'>",
    "<tr class=header class=result>",
    "<tr id=result>",
    "<tr/>",
    "</tr>",
    "</TR>",
    "<td>",
    "</td>",
    "<ul>",
    "<li>",
    "<LI class=result>",
    "</li>",
    "</ul>",
    "<p>",
    "<div>",
    "</div>",
    "<br/>",
    "<script>var s = '<tr>no results</tr>';</script>",
    "<style>.error: {}</style>",
    "<SCRIPT>x</SCRIPT>",
    "<!-- internal server error -->",
    "<!-- <tr><li> -->",
    "<!DOCTYPE html>",
    "<b>no</b><i>results</i>",
    "<b>error</b>:",
    "a < b",
    "<",
    "<<tr>",
    "</ tr>",
    "Found 12 matching",
    "found 0 matching",
    "showing 7 of 9",
    "Found",
    "0 results",
    "10 results",
    "Showing 10 results for your search.",
    "We found the following listings.",
    "Found 3 matching homes.",
    "found 99999999999999999999999",
    "&#48; results",
    "1&#48; results",
    "<script>found &amp; 0 results</script>",
    "<Style>&lt;tr&gt;</STYLE>",
    "<Tr class=RESULT>",
    "<lI>",
    "NO RESULTS",
    "Error: invalid value",
    "please try again",
    "&amp;",
    "&lt;tr&gt;",
    "\u{a0}",
    "\n\t",
    "Chicago",
    "data",
    "Zürich",
];

/// A page of 0–40 fragments of tag soup, run together or spaced, maybe
/// with a run of plain text that alone passes the 400-char volume test,
/// maybe cut off inside a tag at the end.
fn soup(rng: &mut StdRng) -> String {
    let mut html = String::new();
    for _ in 0..rng.gen_range(0usize..=40) {
        html.push_str(SOUP.choose(rng).expect("non-empty"));
        if rng.gen_bool(0.3) {
            html.push(' ');
        }
        if rng.gen_bool(0.02) {
            html.push_str(&"data ".repeat(rng.gen_range(60usize..100)));
        }
    }
    if rng.gen_bool(0.1) {
        html.push_str("<tr class=result");
    }
    html
}

/// A rendered results page of 0–40 rows whose values hold `&`, `<`,
/// `>` and quotes.
fn results_page(rng: &mut StdRng) -> String {
    let cs = prop::charset("abcXYZ &<>\"' 0123456789");
    let values: Vec<String> = (0..rng.gen_range(0usize..=40))
        .map(|_| rng.gen_string(cs, 0, 16))
        .collect();
    let store = RecordStore::new(
        values
            .iter()
            .map(|v| Record::new([("name", v.as_str()), ("note", "a&b <c> \"d\"")]))
            .collect(),
    );
    render::results_page("Books & <More>", &store.query([]))
}

/// Classification from the borrowing token iterator equals the owned
/// token pass over the test-only lexer on rendered results, no-results,
/// error and server-error pages and on tag soup.
#[test]
fn analyze_equals_the_reference() {
    for page in [
        "<p>Showing 10 results for your search.</p>",
        "<p>We found the following listings. Found 3 matching homes.</p>",
    ] {
        let want = reference::analyze_tokens(lexer::tokenize(page));
        assert_eq!(analyze_response(page), want, "{page:?}");
    }
    prop::cases(16 * prop::CASES, |rng| {
        let page = match rng.gen_range(0u32..6) {
            0 => results_page(rng),
            1 => render::no_results_page("X & Y"),
            2 => render::error_page("X", &rng.gen_string(prop::alnum_space(), 0, 30)),
            3 => render::server_error_page(),
            _ => soup(rng),
        };
        assert_eq!(
            analyze_response(&page),
            reference::analyze_tokens(lexer::tokenize(&page)),
            "{page:?}"
        );
    });
}

/// Classification is total on adversarial text (final sigma, `İ`, `ẞ`,
/// the Kelvin and Ohm signs, combining marks) mixed with the lexer's
/// delimiters and the markers.
#[test]
fn analyze_never_panics_on_adversarial_text() {
    let chars = prop::charset("ΣσςİıẞßK\u{212A}\u{2126}\u{301}\u{345}é0 <>&;\"'-");
    prop::cases(4 * prop::CASES, |rng| {
        let mut page = String::new();
        for _ in 0..rng.gen_range(0usize..=24) {
            if rng.gen_bool(0.3) {
                page.push_str(SOUP.choose(rng).expect("non-empty"));
            } else {
                page.push_str(&rng.gen_string(chars, 0, 8));
            }
        }
        let _ = analyze_response(&page);
    });
}
