//! Response-page analysis: did a probing submission succeed?
//!
//! §4: "This step applies several heuristics to analyze the response page
//! from the source and determine if the submission was successful. We
//! employ a variant of the heuristics used for a similar purpose in \[22\]"
//! (Raghavan & Garcia-Molina, *Crawling the hidden Web*). The heuristics
//! operate on the parsed page:
//!
//! 1. error indicators in the visible text ("error", "invalid", "required",
//!    "try again") → failure;
//! 2. no-match indicators ("no results", "nothing found", "0 results") →
//!    no results;
//! 3. result-row counting (`<tr class=result>`, result tables/lists) →
//!    success with a result count;
//! 4. otherwise, fall back on a text-volume heuristic: a page with
//!    substantially more content than an empty-results page is presumed to
//!    carry results.
//!
//! The heuristics read the page in one pass over its tokens
//! ([`webiq_html::lexer::Tokens`], which borrow from the page), not over
//! a DOM tree: a start tag makes exactly one element, and a tree's
//! depth-first text order is token order, so the page text and the
//! `<tr>`/`<li>` counts are the ones a DOM walk finds. The pass allocates
//! no token: only the page text, plus a decoded copy of any text run or
//! `class` value that holds a `&`. The DOM stays for form extraction
//! ([`webiq_html::form`]).

use webiq_html::lexer::{Token, Tokens};

/// Classified outcome of one probe submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmissionOutcome {
    /// The source returned data records.
    Success {
        /// Number of result rows detected (best-effort).
        results: usize,
    },
    /// The source answered normally but found nothing.
    NoResults,
    /// The source rejected the query or failed.
    Error,
}

impl SubmissionOutcome {
    /// True for [`SubmissionOutcome::Success`].
    pub fn is_success(self) -> bool {
        matches!(self, SubmissionOutcome::Success { .. })
    }
}

static ERROR_MARKERS: &[&str] = &[
    "internal server error",
    "error:",
    "an error occurred",
    "invalid value",
    "invalid input",
    "is required",
    "required field",
    "please try again",
    "bad request",
];

static NO_RESULT_MARKERS: &[&str] = &[
    "no results",
    "no matches",
    "nothing found",
    "not found",
    "0 results",
    "found 0 matching",
    "no records",
    "did not match",
    "no listings",
];

/// Analyze a response page.
pub fn analyze_response(html: &str) -> SubmissionOutcome {
    // One pass over the tokens: the text, whitespace-normalised (script
    // and style contents included, comments not), and the `<tr>`,
    // result-classed `<tr>` and `<li>` start tags.
    let mut text = String::new();
    let (mut rows, mut result_rows, mut items) = (0, 0, 0);
    for token in Tokens::new(html) {
        match token {
            Token::Text(t) => {
                for word in t.split_whitespace() {
                    if !text.is_empty() {
                        text.push(' ');
                    }
                    text.push_str(word);
                }
            }
            Token::StartTag(tag) if tag.is("tr") => {
                rows += 1;
                if tag.attr("class").is_some_and(|c| contains_ci(&c, "result")) {
                    result_rows += 1;
                }
            }
            Token::StartTag(tag) if tag.is("li") => items += 1,
            _ => {}
        }
    }
    text.make_ascii_lowercase();

    if ERROR_MARKERS.iter().any(|m| text.contains(m)) {
        return SubmissionOutcome::Error;
    }
    if NO_RESULT_MARKERS.iter().any(|m| has_marker(&text, m)) {
        return SubmissionOutcome::NoResults;
    }

    // Count result rows: explicit result-classed rows first, then generic
    // table rows beyond a header.
    if result_rows > 0 {
        return SubmissionOutcome::Success {
            results: result_rows,
        };
    }
    if rows > 1 {
        // header + data rows
        return SubmissionOutcome::Success { results: rows - 1 };
    }
    if items > 0 {
        return SubmissionOutcome::Success { results: items };
    }

    // "found N matching" style summaries
    if let Some(n) = extract_found_count(&text) {
        return if n > 0 {
            SubmissionOutcome::Success { results: n }
        } else {
            SubmissionOutcome::NoResults
        };
    }

    // Text-volume fallback: pages of meaningful size presumably carry data.
    if text.len() > 400 {
        SubmissionOutcome::Success { results: 1 }
    } else {
        SubmissionOutcome::NoResults
    }
}

/// Does `haystack` contain `needle` (lowercase), ignoring ASCII case?
fn contains_ci(haystack: &str, needle: &str) -> bool {
    haystack
        .as_bytes()
        .windows(needle.len())
        .any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
}

/// Does `text` hold `marker`? A marker that starts with a digit (`0
/// results`) counts only where no digit precedes it, so it is not read
/// inside a longer number (`10 results`).
fn has_marker(text: &str, marker: &str) -> bool {
    if !marker.starts_with(|c: char| c.is_ascii_digit()) {
        return text.contains(marker);
    }
    text.match_indices(marker).any(|(at, _)| {
        !at.checked_sub(1)
            .and_then(|i| text.as_bytes().get(i))
            .is_some_and(u8::is_ascii_digit)
    })
}

/// The count in a `found N …` or `showing N …` phrase (`found 3 matching
/// homes`, `showing 10 results`): every occurrence of `found ` is tried in
/// order, then every one of `showing `, and the first followed by a digit
/// gives its digit run; `None` when no occurrence is, or the run
/// overflows.
fn extract_found_count(text: &str) -> Option<usize> {
    for marker in ["found ", "showing "] {
        for rest in text.split(marker).skip(1) {
            if rest.starts_with(|c: char| c.is_ascii_digit()) {
                return rest
                    .bytes()
                    .take_while(u8::is_ascii_digit)
                    .try_fold(0usize, |n, d| {
                        n.checked_mul(10)?.checked_add(usize::from(d - b'0'))
                    });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, RecordStore};
    use crate::render;

    #[test]
    fn classifies_results_page() {
        let store = RecordStore::new(vec![Record::new([("from", "Chicago")])]);
        let page = render::results_page("X", &store.query([]));
        assert_eq!(
            analyze_response(&page),
            SubmissionOutcome::Success { results: 1 }
        );
    }

    #[test]
    fn classifies_no_results_page() {
        let page = render::no_results_page("X");
        assert_eq!(analyze_response(&page), SubmissionOutcome::NoResults);
    }

    #[test]
    fn classifies_error_page() {
        let page = render::error_page("X", "invalid value for field 'airline'");
        assert_eq!(analyze_response(&page), SubmissionOutcome::Error);
    }

    #[test]
    fn classifies_server_error() {
        assert_eq!(
            analyze_response(&render::server_error_page()),
            SubmissionOutcome::Error
        );
    }

    #[test]
    fn counts_result_rows() {
        let store = RecordStore::new(["1", "2", "3"].map(|v| Record::new([("a", v)])).to_vec());
        let page = render::results_page("X", &store.query([]));
        assert_eq!(
            analyze_response(&page),
            SubmissionOutcome::Success { results: 3 }
        );
    }

    #[test]
    fn foreign_no_results_wording() {
        let html = "<html><body><p>Your search did not match any documents.</p></body></html>";
        assert_eq!(analyze_response(html), SubmissionOutcome::NoResults);
    }

    #[test]
    fn a_count_ending_in_zero_is_not_the_zero_results_marker() {
        let html = "<html><body><p>Showing 10 results for your search.</p></body></html>";
        assert_eq!(
            analyze_response(html),
            SubmissionOutcome::Success { results: 10 }
        );
        let html = "<html><body><p>Sorry, 0 results.</p></body></html>";
        assert_eq!(analyze_response(html), SubmissionOutcome::NoResults);
    }

    #[test]
    fn every_found_is_tried_for_a_count() {
        let html = "<html><body><p>We found the following listings. \
                    Found 3 matching homes.</p></body></html>";
        assert_eq!(
            analyze_response(html),
            SubmissionOutcome::Success { results: 3 }
        );
    }

    #[test]
    fn tag_names_and_classes_ignore_case() {
        let html = "<TABLE><Tr CLASS=\"Result-Row\"><td>a</td></tR><TR class=RESULT></TABLE>";
        assert_eq!(
            analyze_response(html),
            SubmissionOutcome::Success { results: 2 }
        );
    }

    #[test]
    fn list_based_results() {
        let html = "<html><body><ul><li>Item A</li><li>Item B</li></ul></body></html>";
        assert_eq!(
            analyze_response(html),
            SubmissionOutcome::Success { results: 2 }
        );
    }

    #[test]
    fn short_uninformative_page_is_no_results() {
        assert_eq!(
            analyze_response("<html><body>ok</body></html>"),
            SubmissionOutcome::NoResults
        );
    }

    #[test]
    fn long_content_page_presumed_success() {
        let body = "data ".repeat(200);
        let html = format!("<html><body><div>{body}</div></body></html>");
        assert!(analyze_response(&html).is_success());
    }

    #[test]
    fn success_predicate() {
        assert!(SubmissionOutcome::Success { results: 1 }.is_success());
        assert!(!SubmissionOutcome::NoResults.is_success());
        assert!(!SubmissionOutcome::Error.is_success());
    }
}
