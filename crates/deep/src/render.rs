//! HTML response-page rendering for simulated Deep-Web sources.
//!
//! Sources answer probing queries with real HTML pages — a result listing,
//! a "no results" page, or an error page — so the Attr-Deep response
//! analyser exercises the same parse-and-heuristics path it would against
//! live sources.

use webiq_html::entities;

use crate::record::Row;

/// Render a result-listing page with one table row per record: a header
/// of the first record's field names, then each record's values, both in
/// name order.
pub fn results_page(source_name: &str, records: &[Row<'_>]) -> String {
    let mut html = String::with_capacity(256 + records.len() * 128);
    html.push_str("<html><head><title>");
    html.push_str(&entities::encode(source_name));
    html.push_str(" - Search Results</title></head><body>");
    html.push_str(&format!(
        "<h1>Search Results</h1><p class=\"summary\">Found {} matching results.</p>",
        records.len()
    ));
    html.push_str("<table class=\"results\">");
    if let Some(first) = records.first() {
        html.push_str("<tr>");
        for (name, _) in first.iter() {
            html.push_str(&format!("<th>{}</th>", entities::encode(name)));
        }
        html.push_str("</tr>");
    }
    for r in records {
        html.push_str("<tr class=\"result\">");
        for (_, value) in r.iter() {
            html.push_str(&format!("<td>{}</td>", entities::encode(value)));
        }
        html.push_str("</tr>");
    }
    html.push_str("</table></body></html>");
    html
}

/// Render a "no results" page.
pub fn no_results_page(source_name: &str) -> String {
    format!(
        "<html><head><title>{} - Search Results</title></head><body>\
         <h1>Search Results</h1>\
         <p>Sorry, no results were found matching your criteria.</p>\
         <p>Please modify your search and try again.</p>\
         </body></html>",
        entities::encode(source_name)
    )
}

/// Render an error page (invalid input, missing required field, …).
pub fn error_page(source_name: &str, message: &str) -> String {
    format!(
        "<html><head><title>{} - Error</title></head><body>\
         <h1>Error</h1>\
         <p class=\"error\">Error: {}</p>\
         </body></html>",
        entities::encode(source_name),
        entities::encode(message)
    )
}

/// Render a server-failure page (used for failure injection).
pub fn server_error_page() -> String {
    "<html><head><title>500 Internal Server Error</title></head><body>\
     <h1>Internal Server Error</h1>\
     <p>The server encountered an unexpected condition.</p>\
     </body></html>"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, RecordStore};

    #[test]
    fn results_page_contains_rows() {
        let store = RecordStore::new(vec![
            Record::new([("from", "Chicago"), ("to", "Boston")]),
            Record::new([("from", "Chicago"), ("to", "Denver")]),
        ]);
        let html = results_page("AcmeAir", &store.query([]));
        assert!(html.contains("Found 2 matching results"));
        assert_eq!(html.matches("<tr class=\"result\">").count(), 2);
        assert!(html.contains("<td>Chicago</td>"));
    }

    #[test]
    fn results_page_escapes_values() {
        let store = RecordStore::new(vec![Record::new([("title", "AT&T <Guide>")])]);
        let html = results_page("Books", &store.query([]));
        assert!(html.contains("AT&amp;T &lt;Guide&gt;"));
    }

    #[test]
    fn no_results_wording() {
        let html = no_results_page("AcmeAir");
        assert!(html.contains("no results"));
    }

    #[test]
    fn error_page_wording() {
        let html = error_page("AcmeAir", "invalid date");
        assert!(html.contains("Error: invalid date"));
    }

    #[test]
    fn empty_results_listing() {
        let html = results_page("X", &[]);
        assert!(html.contains("Found 0 matching results"));
    }
}
