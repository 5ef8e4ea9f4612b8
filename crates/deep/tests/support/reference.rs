//! Response-page classification as it was before it moved onto the token
//! stream, kept as the oracle the library must equal: build the DOM, take
//! its text, and walk it once for `<tr>` and once for `<li>`.

use webiq_deep::SubmissionOutcome;
use webiq_html::dom;

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

/// The reference `analyze_response`.
pub fn analyze_response(html: &str) -> SubmissionOutcome {
    let doc = dom::parse_document(html);
    let text = doc.text().to_ascii_lowercase();

    if ERROR_MARKERS.iter().any(|m| text.contains(m)) {
        return SubmissionOutcome::Error;
    }
    if NO_RESULT_MARKERS.iter().any(|m| text.contains(m)) {
        return SubmissionOutcome::NoResults;
    }
    let mut rows = Vec::new();
    doc.find_all("tr", &mut rows);
    let result_rows = rows
        .iter()
        .filter(|r| {
            r.attr("class")
                .is_some_and(|c| c.to_ascii_lowercase().contains("result"))
        })
        .count();
    if result_rows > 0 {
        return SubmissionOutcome::Success {
            results: result_rows,
        };
    }
    if rows.len() > 1 {
        return SubmissionOutcome::Success {
            results: rows.len() - 1,
        };
    }
    let mut items = Vec::new();
    doc.find_all("li", &mut items);
    if !items.is_empty() {
        return SubmissionOutcome::Success {
            results: items.len(),
        };
    }
    if let Some(n) = extract_found_count(&text) {
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
