//! The record store as it was before it went columnar, kept as the
//! oracle the library must equal: one `BTreeMap` per record, a query
//! that scans every record's map, the results page rendered from the
//! maps, and the form handler in front of them (validation, the legacy
//! failure rate, and the filter to the form's parameters).

use std::collections::BTreeMap;

use webiq_deep::source::param_hash;
use webiq_deep::{render, DeepError, DeepSource, ParamDomain, SourceParam};
use webiq_html::entities;

/// One record: field name → value.
pub type Record = BTreeMap<String, String>;

/// A submission's answer in comparable form: each matching record's
/// `(name, value)` pairs in name order, or the rejection.
pub type Answer<'a> = Result<Vec<Vec<(&'a str, &'a str)>>, DeepError>;

/// The library source's answer to `values`.
pub fn answer<'a>(src: &'a DeepSource, values: &BTreeMap<String, String>) -> Answer<'a> {
    src.try_submit(values)
        .map(|rows| rows.iter().map(|r| r.iter().collect()).collect())
}

/// The trimmed query occurs in the record value, ignoring ASCII case; a
/// blank query matches everything.
fn value_matches(record_value: &str, query_value: &str) -> bool {
    let needle = query_value.trim().as_bytes();
    needle.is_empty()
        || record_value
            .as_bytes()
            .windows(needle.len())
            .any(|w| w.eq_ignore_ascii_case(needle))
}

/// A store of records.
#[derive(Debug, Clone, Default)]
pub struct Store {
    /// The records, in store order.
    pub records: Vec<Record>,
}

impl Store {
    /// All records matching every non-empty constraint. Constraints
    /// naming fields absent from a record never match it.
    pub fn query(&self, constraints: &BTreeMap<String, String>) -> Vec<&Record> {
        self.records
            .iter()
            .filter(|r| {
                constraints.iter().all(|(name, value)| {
                    if value.trim().is_empty() {
                        return true;
                    }
                    match r.get(name) {
                        Some(rv) => value_matches(rv, value),
                        None => false,
                    }
                })
            })
            .collect()
    }
}

/// A result-listing page with one table row per record.
pub fn results_page(source_name: &str, records: &[&Record]) -> String {
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
        for name in first.keys() {
            html.push_str(&format!("<th>{}</th>", entities::encode(name)));
        }
        html.push_str("</tr>");
    }
    for r in records {
        html.push_str("<tr class=\"result\">");
        for value in r.values() {
            html.push_str(&format!("<td>{}</td>", entities::encode(value)));
        }
        html.push_str("</tr>");
    }
    html.push_str("</table></body></html>");
    html
}

/// A source: the form handler over a [`Store`].
#[derive(Debug, Clone)]
pub struct Source {
    /// Source name, shown on its pages.
    pub name: String,
    /// The form's parameters.
    pub params: Vec<SourceParam>,
    /// The backend records.
    pub store: Store,
    /// The legacy attempt-blind failure rate (0 for none).
    pub failure_rate: f64,
}

impl Source {
    /// The matching records, or why the submission was rejected.
    pub fn try_submit(&self, values: &BTreeMap<String, String>) -> Result<Vec<&Record>, DeepError> {
        let rate = self.failure_rate.clamp(0.0, 1.0);
        if rate > 0.0 && (param_hash(values) % 10_000) as f64 / 10_000.0 < rate {
            return Err(DeepError::ServerError);
        }
        for p in &self.params {
            let supplied = values.get(&p.name).map_or("", String::as_str);
            if supplied.trim().is_empty() {
                if p.required {
                    return Err(DeepError::MissingRequired {
                        field: p.name.clone(),
                    });
                }
                continue;
            }
            if let ParamDomain::Enumerated(allowed) = &p.domain {
                if !allowed
                    .iter()
                    .any(|a| a.eq_ignore_ascii_case(supplied.trim()))
                {
                    return Err(DeepError::InvalidValue {
                        field: p.name.clone(),
                    });
                }
            }
        }
        let known: BTreeMap<String, String> = values
            .iter()
            .filter(|(k, _)| self.params.iter().any(|p| &p.name == *k))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        Ok(self.store.query(&known))
    }

    /// [`Source::try_submit`] as an [`Answer`].
    pub fn answer<'a>(&'a self, values: &BTreeMap<String, String>) -> Answer<'a> {
        let pairs = |r: &'a Record| r.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        self.try_submit(values)
            .map(|records| records.into_iter().map(pairs).collect())
    }

    /// The response page a browser would see.
    pub fn submit(&self, values: &BTreeMap<String, String>) -> String {
        match self.try_submit(values) {
            Ok(matches) if matches.is_empty() => render::no_results_page(&self.name),
            Ok(matches) => results_page(&self.name, &matches),
            Err(DeepError::ServerError) => render::server_error_page(),
            Err(DeepError::MissingRequired { field }) => {
                render::error_page(&self.name, &format!("field '{field}' is required"))
            }
            Err(DeepError::InvalidValue { field }) => {
                render::error_page(&self.name, &format!("invalid value for field '{field}'"))
            }
        }
    }
}
