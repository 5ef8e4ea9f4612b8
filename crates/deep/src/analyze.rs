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
//! ([`webiq_html::lexer::tokenize`]), not over a DOM tree: a start tag
//! makes exactly one element, and a tree's depth-first text order is
//! token order, so the page text and the `<tr>`/`<li>` counts are the
//! ones a DOM walk finds. The DOM stays for form extraction
//! ([`webiq_html::form`]).

use webiq_html::lexer::{self, HtmlToken};

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
    for token in lexer::tokenize(html) {
        match token {
            HtmlToken::Text(t) => {
                for word in t.split_whitespace() {
                    if !text.is_empty() {
                        text.push(' ');
                    }
                    text.push_str(word);
                }
            }
            HtmlToken::StartTag { name, attrs, .. } if name == "tr" => {
                rows += 1;
                let class = attrs.iter().find(|a| a.name == "class");
                if class.is_some_and(|a| a.value.to_ascii_lowercase().contains("result")) {
                    result_rows += 1;
                }
            }
            HtmlToken::StartTag { name, .. } if name == "li" => items += 1,
            _ => {}
        }
    }
    text.make_ascii_lowercase();

    if ERROR_MARKERS.iter().any(|m| text.contains(m)) {
        return SubmissionOutcome::Error;
    }
    if NO_RESULT_MARKERS.iter().any(|m| text.contains(m)) {
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

/// Parse "found N matching" / "N results" phrases.
fn extract_found_count(text: &str) -> Option<usize> {
    for marker in ["found ", "showing "] {
        if let Some(pos) = text.find(marker) {
            let rest = &text[pos + marker.len()..];
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            if !digits.is_empty() {
                return digits.parse().ok();
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
