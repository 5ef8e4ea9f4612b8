//! Backend record stores for simulated Deep-Web sources.
//!
//! Each source sits on top of a relational-style store; probing queries
//! (§4) succeed or fail depending on whether the constrained values select
//! any records — which is exactly the signal Attr-Deep exploits: `from =
//! Chicago` selects flights, `from = January` selects nothing.
//!
//! The store is columnar: a field's values are held once, and a record is
//! a row of `u32` cells indexing them (see [`RecordStore`]). [`Record`] is
//! the row type hand-built stores take, and [`Row`] the one queries
//! return.

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

/// The cell of a field a record lacks. A cell past its field's value
/// table reads the same way; this is the one the store writes.
const ABSENT: u32 = u32::MAX;

/// A store of records, held by column: each field's name once, in
/// ascending order (the order a [`Record`] iterates its fields, so
/// results pages keep their columns), one table of values per field,
/// and one `u32` cell per record and field indexing that table, or a
/// sentinel where the record lacks the field. A query tests each
/// constrained field's value table once and keeps the records whose
/// cells point at a matching value.
#[derive(Debug, Clone, Default)]
pub struct RecordStore {
    /// Field names, ascending.
    names: Vec<String>,
    /// Each field's values, parallel to `names`.
    tables: Vec<Vec<String>>,
    /// Row-major cells, `names.len()` per record.
    cells: Vec<u32>,
    /// Number of records: a store without fields has no cells, however
    /// many records it holds.
    rows: usize,
}

/// One record of a [`RecordStore`], as a query returns it.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    store: &'a RecordStore,
    cells: &'a [u32],
}

impl<'a> Row<'a> {
    /// Value of a field.
    pub fn get(&self, name: &str) -> Option<&'a str> {
        let col = self.store.column(name)?;
        self.store.value(col, *self.cells.get(col)?)
    }

    /// Iterate `(name, value)` pairs in name order, skipping the fields
    /// the record lacks.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        let store = self.store;
        let fields = store.names.iter().zip(self.cells).enumerate();
        fields
            .filter_map(move |(col, (name, &cell))| Some((name.as_str(), store.value(col, cell)?)))
    }
}

impl RecordStore {
    /// Build from records.
    pub fn new(records: Vec<Record>) -> Self {
        let mut store = RecordStore::default();
        for record in records {
            store.push(record);
        }
        store
    }

    /// A store of `rows` records over `columns`, each a field name and
    /// its table of values. `draw(c)` is called record by record and,
    /// within a record, for each column `c` in the order given; it
    /// returns the index into column `c`'s table of the record's value,
    /// or `None` where the record lacks the field (an index past the
    /// table reads the same). When a name repeats, the last of its
    /// columns that gives a record a value holds it, as [`Record::set`]
    /// would.
    pub fn from_columns(
        columns: Vec<(String, Vec<String>)>,
        rows: usize,
        mut draw: impl FnMut(usize) -> Option<usize>,
    ) -> Self {
        let mut names: Vec<String> = columns.iter().map(|(name, _)| name.clone()).collect();
        names.sort_unstable();
        names.dedup();
        // Each given column's field and the span its values take in that
        // field's table: repeated names share one table.
        let mut tables = vec![Vec::new(); names.len()];
        let mut slots = Vec::with_capacity(columns.len());
        for (name, values) in columns {
            let col = names.binary_search(&name).unwrap_or_else(|at| at);
            let span = tables
                .get_mut(col)
                .map_or((0, 0), |table: &mut Vec<String>| {
                    let start = table.len();
                    table.extend(values);
                    (start, table.len())
                });
            slots.push((col, span));
        }
        let width = names.len();
        let mut cells = vec![ABSENT; rows.saturating_mul(width)];
        for r in 0..rows {
            let row = cells
                .get_mut(r * width..(r + 1) * width)
                .unwrap_or_default();
            for (c, &(col, (start, end))) in slots.iter().enumerate() {
                let cell = draw(c)
                    .and_then(|i| start.checked_add(i))
                    .filter(|&i| i < end)
                    .and_then(|i| u32::try_from(i).ok());
                if let (Some(cell), Some(slot)) = (cell, row.get_mut(col)) {
                    *slot = cell;
                }
            }
        }
        RecordStore {
            names,
            tables,
            cells,
            rows,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append a record. A field no earlier record had becomes a column
    /// that the earlier records lack.
    pub fn push(&mut self, record: Record) {
        for (name, _) in record.iter() {
            if let Err(at) = self.names.binary_search_by(|n| n.as_str().cmp(name)) {
                self.insert_column(at, name);
            }
        }
        let start = self.cells.len();
        self.cells.resize(start + self.names.len(), ABSENT);
        for (name, value) in record.fields {
            let Some(col) = self.column(&name) else {
                continue;
            };
            let Some(table) = self.tables.get_mut(col) else {
                continue;
            };
            let cell = u32::try_from(table.len()).unwrap_or(ABSENT);
            table.push(value);
            if let Some(slot) = self.cells.get_mut(start + col) {
                *slot = cell;
            }
        }
        self.rows += 1;
    }

    /// All records matching every non-blank constraint `(name, value)`,
    /// in store order. A constraint on a field a record lacks never
    /// matches it, so one on a field no record has selects nothing.
    pub fn query<'q>(
        &self,
        constraints: impl IntoIterator<Item = (&'q str, &'q str)>,
    ) -> Vec<Row<'_>> {
        // per constrained field, which of its table's values match
        let mut tests = Vec::new();
        for (name, value) in constraints {
            if value.trim().is_empty() {
                continue;
            }
            let Some(col) = self.column(name) else {
                return Vec::new();
            };
            let table = self.tables.get(col).map_or(&[][..], Vec::as_slice);
            let hits: Vec<bool> = table.iter().map(|v| value_matches(v, value)).collect();
            tests.push((col, hits));
        }
        self.rows()
            .filter(|row| {
                tests.iter().all(|(col, hits)| {
                    let hit = row
                        .cells
                        .get(*col)
                        .and_then(|&cell| hits.get(cell as usize));
                    hit.is_some_and(|&hit| hit)
                })
            })
            .collect()
    }

    /// Every record, in store order.
    fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        let width = self.names.len();
        (0..self.rows).map(move |r| Row {
            store: self,
            cells: self
                .cells
                .get(r * width..(r + 1) * width)
                .unwrap_or_default(),
        })
    }

    /// The column holding field `name`.
    fn column(&self, name: &str) -> Option<usize> {
        self.names.binary_search_by(|n| n.as_str().cmp(name)).ok()
    }

    /// The value cell `cell` of column `col` points at.
    fn value(&self, col: usize, cell: u32) -> Option<&str> {
        let table = self.tables.get(col)?;
        table.get(cell as usize).map(String::as_str)
    }

    /// Add field `name` as column `at`, lacking from every record so far.
    fn insert_column(&mut self, at: usize, name: &str) {
        let mut cells = Vec::with_capacity(self.rows * (self.names.len() + 1));
        for row in self.rows() {
            let (before, after) = row.cells.split_at(at.min(row.cells.len()));
            cells.extend_from_slice(before);
            cells.push(ABSENT);
            cells.extend_from_slice(after);
        }
        self.cells = cells;
        self.names.insert(at, name.to_string());
        self.tables.insert(at, Vec::new());
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

    #[test]
    fn exact_match() {
        let s = flights();
        assert_eq!(s.query([("from", "Chicago")]).len(), 2);
        assert_eq!(s.query([("from", "chicago")]).len(), 2);
    }

    #[test]
    fn conjunctive_constraints() {
        let s = flights();
        let got = s.query([("from", "Chicago"), ("to", "Boston")]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].get("airline"), Some("United"));
    }

    #[test]
    fn ill_typed_value_selects_nothing() {
        let s = flights();
        assert!(s.query([("from", "January")]).is_empty());
    }

    #[test]
    fn empty_values_are_unconstrained() {
        let s = flights();
        assert_eq!(s.query([("from", ""), ("to", "  ")]).len(), 3);
        assert_eq!(s.query([]).len(), 3);
    }

    #[test]
    fn unknown_field_never_matches() {
        let s = flights();
        assert!(s.query([("color", "red")]).is_empty());
    }

    #[test]
    fn substring_containment_for_text() {
        let s = RecordStore::new(vec![Record::new([(
            "title",
            "The Art of Computer Programming",
        )])]);
        assert_eq!(s.query([("title", "computer")]).len(), 1);
        assert_eq!(s.query([("title", "biology")]).len(), 0);
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
                record.get(cuts[a]..cuts[b]).unwrap_or_default().to_string()
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
            let store = RecordStore::new(records.clone());
            let mut constraints = BTreeMap::new();
            for _ in 0..rng.gen_range(0usize..3) {
                let name = pick(rng, &["from", "to", "airline", "color"]);
                let base = records
                    .get(rng.gen_range(0..records.len().max(1)))
                    .and_then(|r| r.get(name))
                    .map_or_else(|| pick(rng, WORDS).to_string(), str::to_string);
                constraints.insert(name.to_string(), query_value(rng, &base));
            }
            // the same records' fields, in store order
            let want: Vec<Vec<(&str, &str)>> = records
                .iter()
                .filter(|r| {
                    constraints.iter().all(|(name, value)| {
                        value.trim().is_empty()
                            || r.get(name)
                                .is_some_and(|rv| reference_value_matches(rv, value))
                    })
                })
                .map(|r| r.iter().collect())
                .collect();
            let got: Vec<Vec<(&str, &str)>> = store
                .query(constraints.iter().map(|(k, v)| (k.as_str(), v.as_str())))
                .iter()
                .map(|r| r.iter().collect())
                .collect();
            selected += want.len();
            assert_eq!(got, want, "{constraints:?}");
        });
        assert!(selected > 600, "{selected}");
    }

    #[test]
    fn a_store_without_fields_keeps_its_records() {
        let s = RecordStore::new(vec![Record::default(); 3]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.query([]).len(), 3);
        assert_eq!(s.query([("from", " ")]).len(), 3);
        assert!(s.query([("from", "Chicago")]).is_empty());
        let built = RecordStore::from_columns(Vec::new(), 150, |_| Some(0));
        assert_eq!(built.query([]).len(), 150);
        assert!(built.query([]).iter().all(|r| r.iter().next().is_none()));
    }

    #[test]
    fn a_store_without_records_answers_nothing() {
        let s = RecordStore::from_columns(vec![("from".into(), vec!["Chicago".into()])], 0, |_| {
            panic!("no record to draw for")
        });
        assert!(s.is_empty());
        assert!(s.query([]).is_empty());
        assert!(s.query([("from", "Chicago")]).is_empty());
    }

    #[test]
    fn a_field_pushed_late_is_lacked_by_earlier_records() {
        let mut s = flights();
        s.push(Record::new([("from", "Chicago"), ("class", "Economy")]));
        let economy = s.query([("class", "economy")]);
        assert_eq!(economy.len(), 1);
        assert_eq!(
            economy[0].iter().collect::<Vec<_>>(),
            [("class", "Economy"), ("from", "Chicago")]
        );
        assert_eq!(s.query([("from", "Chicago")]).len(), 3);
        let first = s.query([("airline", "United")]);
        assert_eq!(first[0].get("class"), None);
        assert_eq!(first[0].iter().count(), 3);
    }

    #[test]
    fn columns_sort_by_name_and_a_repeated_name_keeps_the_last_value() {
        let columns = vec![
            ("to".to_string(), vec!["Boston".to_string()]),
            (
                "from".to_string(),
                vec!["Chicago".to_string(), "Denver".to_string()],
            ),
            ("to".to_string(), vec!["Miami".to_string()]),
        ];
        // record 0: both `to` columns draw, the second wins; record 1:
        // the second draws nothing, so the first holds; record 2: the
        // draws fall past their tables
        let draws = [
            Some(0),
            Some(1),
            Some(0),
            Some(0),
            Some(0),
            None,
            Some(2),
            Some(2),
            Some(1),
        ];
        let mut next = draws.iter().copied();
        let s = RecordStore::from_columns(columns, 3, |_| next.next().flatten());
        let rows: Vec<Vec<(&str, &str)>> = s.query([]).iter().map(|r| r.iter().collect()).collect();
        assert_eq!(
            rows,
            [
                vec![("from", "Denver"), ("to", "Miami")],
                vec![("from", "Chicago"), ("to", "Boston")],
                vec![],
            ]
        );
        assert_eq!(s.query([("to", "Boston")]).len(), 1);
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
