//! Backend record stores for simulated Deep-Web sources.
//!
//! Each source sits on top of a relational-style store; probing queries
//! (§4) succeed or fail depending on whether the constrained values select
//! any records — which is exactly the signal Attr-Deep exploits: `from =
//! Chicago` selects flights, `from = January` selects nothing.

use std::collections::BTreeMap;

/// One backend record: attribute name → value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Record {
    fields: BTreeMap<String, String>,
}

impl Record {
    /// Build from `(name, value)` pairs.
    pub fn new<I, K, V>(fields: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        Record {
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        }
    }

    /// Value of a field.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.fields.get(name).map(String::as_str)
    }

    /// Set a field value.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.fields.insert(name.into(), value.into());
    }

    /// Iterate `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

/// How a constraint value is matched against a record value: the trimmed
/// query occurs in the record value, ignoring ASCII case. Exact and
/// whole-word matches are special cases, so text boxes match leniently
/// and selected values exactly, as on real sources. A blank query is
/// unconstrained.
fn value_matches(record_value: &str, query_value: &str) -> bool {
    let needle = query_value.trim().as_bytes();
    // A match starts at a character boundary (UTF-8 lead bytes never equal
    // continuation bytes, and ASCII folding maps ASCII to ASCII) and the
    // needle neither starts nor ends with whitespace, so it lies inside the
    // trimmed record value: trimming the record changes nothing.
    needle.is_empty()
        || record_value
            .as_bytes()
            .windows(needle.len())
            .any(|w| w.eq_ignore_ascii_case(needle))
}

/// A store of records.
#[derive(Debug, Clone, Default)]
pub struct RecordStore {
    records: Vec<Record>,
}

impl RecordStore {
    /// Build from records.
    pub fn new(records: Vec<Record>) -> Self {
        RecordStore { records }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append a record.
    pub fn push(&mut self, record: Record) {
        self.records.push(record);
    }

    /// All records matching every non-empty constraint. Constraints naming
    /// fields absent from a record never match it.
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

#[cfg(test)]
mod tests {
    use super::*;
    use webiq_rng::StdRng;

    fn flights() -> RecordStore {
        RecordStore::new(vec![
            Record::new([("from", "Chicago"), ("to", "Boston"), ("airline", "United")]),
            Record::new([("from", "Chicago"), ("to", "Denver"), ("airline", "Delta")]),
            Record::new([("from", "Seattle"), ("to", "Boston"), ("airline", "Alaska")]),
        ])
    }

    fn constraints(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect()
    }

    #[test]
    fn exact_match() {
        let s = flights();
        assert_eq!(s.query(&constraints(&[("from", "Chicago")])).len(), 2);
        assert_eq!(s.query(&constraints(&[("from", "chicago")])).len(), 2);
    }

    #[test]
    fn conjunctive_constraints() {
        let s = flights();
        let got = s.query(&constraints(&[("from", "Chicago"), ("to", "Boston")]));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].get("airline"), Some("United"));
    }

    #[test]
    fn ill_typed_value_selects_nothing() {
        let s = flights();
        assert!(s.query(&constraints(&[("from", "January")])).is_empty());
    }

    #[test]
    fn empty_values_are_unconstrained() {
        let s = flights();
        assert_eq!(
            s.query(&constraints(&[("from", ""), ("to", "  ")])).len(),
            3
        );
        assert_eq!(s.query(&constraints(&[])).len(), 3);
    }

    #[test]
    fn unknown_field_never_matches() {
        let s = flights();
        assert!(s.query(&constraints(&[("color", "red")])).is_empty());
    }

    #[test]
    fn substring_containment_for_text() {
        let s = RecordStore::new(vec![Record::new([(
            "title",
            "The Art of Computer Programming",
        )])]);
        assert_eq!(s.query(&constraints(&[("title", "computer")])).len(), 1);
        assert_eq!(s.query(&constraints(&[("title", "biology")])).len(), 0);
    }

    /// The matcher before it went allocation-free: lowercase both trimmed
    /// strings, then equality, whole-word equality or containment.
    fn reference_value_matches(record_value: &str, query_value: &str) -> bool {
        let rv = record_value.trim().to_ascii_lowercase();
        let qv = query_value.trim().to_ascii_lowercase();
        if qv.is_empty() {
            return true;
        }
        rv == qv || rv.split_whitespace().any(|w| w == qv) || rv.contains(&qv)
    }

    const WORDS: &[&str] = &[
        "Zürich",
        "São Paulo",
        "New York",
        "Boston",
        "boston",
        "LAX",
        "O'Hare",
        "straße",
        "ÉCOLE",
        "Ryan Air",
        "Ryanair",
        "3,000",
        "$400",
        "U.S.",
        "ü",
        "a",
        "",
    ];
    const SPACE: &[&str] = &["", " ", "  ", "\t", "\n", "\u{a0}", "\u{2003}", "\u{3000}"];

    fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
        from[rng.gen_range(0..from.len())]
    }

    /// ASCII letters in random case; non-ASCII letters sometimes
    /// upper-cased too (`ü` -> `Ü`), which ASCII folding must not undo.
    fn recase(rng: &mut StdRng, s: &str) -> String {
        s.chars()
            .flat_map(|c| match rng.gen_range(0u32..3) {
                0 => c.to_uppercase().collect::<Vec<char>>(),
                1 => vec![c.to_ascii_lowercase()],
                _ => vec![c],
            })
            .collect()
    }

    /// A record value: one to three words, padded with ASCII and
    /// non-ASCII whitespace.
    fn record_value(rng: &mut StdRng) -> String {
        let n = rng.gen_range(1usize..=3);
        let words: Vec<&str> = (0..n).map(|_| pick(rng, WORDS)).collect();
        let (l, r) = (pick(rng, SPACE), pick(rng, SPACE));
        format!("{l}{}{r}", words.join(pick(rng, &[" ", "  ", "\u{a0}"])))
    }

    /// A query against `record`: a slice of it cut on char boundaries
    /// (inside words too), a word from the pool, blank, or noise; in
    /// random case with random padding.
    fn query_value(rng: &mut StdRng, record: &str) -> String {
        let core = match rng.gen_range(0u32..4) {
            0 => {
                let cuts: Vec<usize> = record
                    .char_indices()
                    .map(|(i, _)| i)
                    .chain([record.len()])
                    .collect();
                let a = rng.gen_range(0..cuts.len());
                let b = rng.gen_range(a..cuts.len());
                record[cuts[a]..cuts[b]].to_string()
            }
            1 => pick(rng, WORDS).to_string(),
            2 => pick(rng, SPACE).to_string(),
            _ => rng.gen_string(webiq_rng::prop::charset("aouüé ,.$3"), 0, 4),
        };
        let (l, r) = (pick(rng, SPACE), pick(rng, SPACE));
        format!("{l}{}{r}", recase(rng, &core))
    }

    #[test]
    fn value_matches_agrees_with_reference() {
        let mut matched = 0;
        webiq_rng::prop::cases(4_000, |rng| {
            let record = record_value(rng);
            let query = query_value(rng, &record);
            let want = reference_value_matches(&record, &query);
            assert_eq!(value_matches(&record, &query), want, "{record:?} {query:?}");
            matched += usize::from(want);
        });
        // both verdicts are well represented
        assert!((1_000..3_000).contains(&matched), "{matched}");
    }

    #[test]
    fn store_query_equals_reference_filter() {
        let mut selected = 0;
        webiq_rng::prop::cases(300, |rng| {
            let fields = ["from", "to", "airline"];
            let records: Vec<Record> = (0..rng.gen_range(0usize..12))
                .map(|_| {
                    let mut r = Record::default();
                    for f in fields {
                        if rng.gen_bool(0.85) {
                            r.set(f, record_value(rng));
                        }
                    }
                    r
                })
                .collect();
            let store = RecordStore::new(records);
            let mut constraints = BTreeMap::new();
            for _ in 0..rng.gen_range(0usize..3) {
                let name = pick(rng, &["from", "to", "airline", "color"]);
                let base = store
                    .records
                    .get(rng.gen_range(0..store.len().max(1)))
                    .and_then(|r| r.get(name))
                    .map_or_else(|| pick(rng, WORDS).to_string(), str::to_string);
                constraints.insert(name.to_string(), query_value(rng, &base));
            }
            // compare by address: the same records, in store order
            let want: Vec<*const Record> = store
                .records
                .iter()
                .filter(|r| {
                    constraints.iter().all(|(name, value)| {
                        value.trim().is_empty()
                            || r.get(name)
                                .is_some_and(|rv| reference_value_matches(rv, value))
                    })
                })
                .map(std::ptr::from_ref)
                .collect();
            let got: Vec<*const Record> = store
                .query(&constraints)
                .into_iter()
                .map(std::ptr::from_ref)
                .collect();
            selected += want.len();
            assert_eq!(got, want, "{constraints:?}");
        });
        assert!(selected > 600, "{selected}");
    }

    #[test]
    fn record_accessors() {
        let mut r = Record::new([("a", "1")]);
        assert_eq!(r.len(), 1);
        r.set("b", "2");
        assert_eq!(r.iter().count(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.get("b"), Some("2"));
        assert_eq!(r.get("c"), None);
    }
}
