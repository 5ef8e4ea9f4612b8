//! The columnar record store against the per-record-map store it
//! replaced (`support/map_store.rs`) on seeded hand-built stores:
//! records pushed with fields missing and with fields first seen after
//! earlier records, stores without fields or without records, stores
//! built by column with repeated names and draws past their tables, and
//! forms with a parameter no record carries. Every submission must
//! select the same records, reject with the same error and render the
//! same page.

#[path = "support/map_store.rs"]
mod reference;

use std::collections::BTreeMap;

use webiq_deep::{DeepSource, ParamDomain, Record, RecordStore, SourceParam};
use webiq_rng::{prop, StdRng};

/// Field names: three a record may hold, one no record holds.
const FIELDS: [&str; 4] = ["airline", "from", "to", "zz_unheld"];

/// Values with case, padding, markup and multi-byte letters.
const VALUES: [&str; 12] = [
    "Chicago",
    "chicago",
    "New York",
    "São Paulo",
    "AT&T <Guide>",
    "  Boston ",
    "",
    "Zürich",
    "ÉCOLE",
    "a",
    "Ryan Air",
    "3,000",
];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// 0–11 records, each holding every field but the last with
/// probability 0.6, so a field often first appears after earlier
/// records lack it.
fn records(rng: &mut StdRng) -> Vec<reference::Record> {
    (0..rng.gen_range(0..12usize))
        .map(|_| {
            let mut r = BTreeMap::new();
            for name in &FIELDS[..3] {
                if rng.gen_bool(0.6) {
                    r.insert((*name).to_string(), pick(rng, &VALUES).to_string());
                }
            }
            r
        })
        .collect()
}

/// A value probing `base`: itself, a cut on char boundaries, its ASCII
/// case flipped, padded, blank, or another value.
fn probe_value(rng: &mut StdRng, base: &str) -> String {
    match rng.gen_range(0..6u32) {
        0 => base.to_string(),
        1 => {
            let cuts: Vec<usize> = base
                .char_indices()
                .map(|(i, _)| i)
                .chain([base.len()])
                .collect();
            let a = rng.gen_range(0..cuts.len());
            let b = rng.gen_range(a..cuts.len());
            base[cuts[a]..cuts[b]].to_string()
        }
        2 => base
            .chars()
            .map(|c| {
                if c.is_ascii_uppercase() {
                    c.to_ascii_lowercase()
                } else {
                    c.to_ascii_uppercase()
                }
            })
            .collect(),
        3 => format!(" \t{base}  "),
        4 => pick(rng, &["", "  "]).to_string(),
        _ => pick(rng, &VALUES).to_string(),
    }
}

/// A form over the four fields, one of which no record carries: each
/// free or enumerated, sometimes required.
fn params(rng: &mut StdRng) -> Vec<SourceParam> {
    FIELDS
        .iter()
        .map(|name| SourceParam {
            name: (*name).to_string(),
            domain: if rng.gen_bool(0.2) {
                ParamDomain::Enumerated(VALUES[..6].iter().map(|v| (*v).to_string()).collect())
            } else {
                ParamDomain::Free
            },
            required: rng.gen_bool(0.05),
        })
        .collect()
}

/// 0–3 constraints on fields of the form, on `color` (outside it), or
/// on the field no record carries; values probing a record's.
fn submission(rng: &mut StdRng, records: &[reference::Record]) -> BTreeMap<String, String> {
    let mut values = BTreeMap::new();
    for _ in 0..rng.gen_range(0..4usize) {
        let name = pick(rng, &["airline", "from", "to", "zz_unheld", "color"]);
        let base = records
            .get(rng.gen_range(0..records.len().max(1)))
            .and_then(|r| r.get(name))
            .map_or_else(|| pick(rng, &VALUES).to_string(), String::clone);
        values.insert(name.to_string(), probe_value(rng, &base));
    }
    values
}

/// Both sources answer `values` alike and render the same page.
fn check(new: &DeepSource, old: &reference::Source, values: &BTreeMap<String, String>) -> bool {
    let answer = reference::answer(new, values);
    assert_eq!(answer, old.answer(values), "{values:?}");
    assert_eq!(new.submit(values), old.submit(values), "{values:?}");
    answer.is_ok_and(|rows| !rows.is_empty())
}

/// The two sources over the same records, form and failure rate.
fn sources(
    store: RecordStore,
    records: Vec<reference::Record>,
    params: Vec<SourceParam>,
    rate: f64,
) -> (DeepSource, reference::Source) {
    let new = DeepSource::new("Acme & <Co>", params.clone(), store).with_failure_rate(rate);
    let old = reference::Source {
        name: "Acme & <Co>".into(),
        params,
        store: reference::Store { records },
        failure_rate: rate,
    };
    (new, old)
}

#[test]
fn pushed_records_answer_as_the_map_store() {
    let mut selected = 0;
    prop::cases(16 * prop::CASES, |rng| {
        let records = records(rng);
        let store = RecordStore::new(
            records
                .iter()
                .map(|r| Record::new(r.iter().map(|(k, v)| (k.as_str(), v.as_str()))))
                .collect(),
        );
        assert_eq!(store.len(), records.len());
        let rate = if rng.gen_bool(0.2) { 0.3 } else { 0.0 };
        let (new, old) = sources(store, records.clone(), params(rng), rate);
        assert_eq!(new.record_count(), records.len());
        for _ in 0..8 {
            selected += usize::from(check(&new, &old, &submission(rng, &records)));
        }
    });
    assert!(selected > 1_500, "{selected}");
}

#[test]
fn column_built_records_answer_as_the_map_store() {
    let mut selected = 0;
    prop::cases(16 * prop::CASES, |rng| {
        // 0–4 columns, names repeating, tables of 0–3 values
        let columns: Vec<(String, Vec<String>)> = (0..rng.gen_range(0..5usize))
            .map(|_| {
                let name = pick(rng, &FIELDS[..3]).to_string();
                let n = rng.gen_range(0..4usize);
                (
                    name,
                    (0..n).map(|_| pick(rng, &VALUES).to_string()).collect(),
                )
            })
            .collect();
        let rows = rng.gen_range(0..10usize);
        // a draw per record and column, sometimes none or past the table
        let draws: Vec<Option<usize>> = (0..rows * columns.len())
            .map(|_| rng.gen_bool(0.85).then(|| rng.gen_range(0..5usize)))
            .collect();
        // the records as `Record::set` would have built them
        let mut records = Vec::new();
        for row in draws.chunks(columns.len().max(1)).take(rows) {
            let mut r = BTreeMap::new();
            for ((name, table), draw) in columns.iter().zip(row) {
                if let Some(v) = draw.and_then(|i| table.get(i)) {
                    r.insert(name.clone(), v.clone());
                }
            }
            records.push(r);
        }
        records.resize(rows, BTreeMap::new());
        let mut next = draws.iter().copied().enumerate();
        let store = RecordStore::from_columns(columns.clone(), rows, |c| {
            let (k, draw) = next.next().expect("one draw per record and column");
            assert_eq!(
                c,
                k % columns.len(),
                "draws go record by record, in column order"
            );
            draw
        });
        assert!(next.next().is_none(), "every draw taken");
        assert_eq!(store.len(), rows);
        let (new, old) = sources(store, records.clone(), params(rng), 0.0);
        check(&new, &old, &BTreeMap::new());
        for _ in 0..8 {
            selected += usize::from(check(&new, &old, &submission(rng, &records)));
        }
    });
    assert!(selected > 1_500, "{selected}");
}
