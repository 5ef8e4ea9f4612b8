//! Response-page classification as it was before it read the borrowing
//! token iterator, kept as the oracle the library must equal: one pass
//! over owned tokens, each tag name and attribute lowercased and each
//! text decoded as it was cut. The caller passes the tokens, so a test
//! can feed it the test-only lexer (`crates/html/tests/support/reference.rs`)
//! and keep it independent of the library's.
//!
//! The two marker rules are written out longhand: a no-result marker
//! that starts with a digit counts only where no digit precedes it, and
//! every `found ` and then every `showing ` is tried for a count.

use webiq_deep::SubmissionOutcome;
use webiq_html::HtmlToken;

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

/// The reference classification of a page's tokens.
pub fn analyze_tokens(tokens: Vec<HtmlToken>) -> SubmissionOutcome {
    let mut text = String::new();
    let (mut rows, mut result_rows, mut items) = (0, 0, 0);
    for token in tokens {
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
    let text = text.to_ascii_lowercase();

    if ERROR_MARKERS.iter().any(|m| text.contains(m)) {
        return SubmissionOutcome::Error;
    }
    if NO_RESULT_MARKERS.iter().any(|m| marker_at(&text, m)) {
        return SubmissionOutcome::NoResults;
    }
    if result_rows > 0 {
        return SubmissionOutcome::Success {
            results: result_rows,
        };
    }
    if rows > 1 {
        return SubmissionOutcome::Success { results: rows - 1 };
    }
    if items > 0 {
        return SubmissionOutcome::Success { results: items };
    }
    if let Some(n) = found_count(&text) {
        return if n > 0 {
            SubmissionOutcome::Success { results: n }
        } else {
            SubmissionOutcome::NoResults
        };
    }
    if text.len() > 400 {
        SubmissionOutcome::Success { results: 1 }
    } else {
        SubmissionOutcome::NoResults
    }
}

/// `marker` somewhere in `text`, not right after a digit when it starts
/// with one.
fn marker_at(text: &str, marker: &str) -> bool {
    let digit_led = marker.as_bytes()[0].is_ascii_digit();
    text.match_indices(marker)
        .any(|(i, _)| !(digit_led && i > 0 && text.as_bytes()[i - 1].is_ascii_digit()))
}

/// The digits after the first `found ` (then `showing `) followed by one.
fn found_count(text: &str) -> Option<usize> {
    for marker in ["found ", "showing "] {
        for (i, _) in text.match_indices(marker) {
            let digits: String = text[i + marker.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            if !digits.is_empty() {
                return digits.parse().ok();
            }
        }
    }
    None
}
