//! The columnar Deep-Web sources against the per-record-map store they
//! replaced (`crates/deep/tests/support/map_store.rs`), built by the
//! draw loop they replaced, on every interface of the five domains at
//! seeds 7392 and 2006: the same records in the same order, and for
//! every probe Attr-Deep's case 1 would issue plus seeded ones (every
//! pool value, cuts, case flips, padding, blanks, a name outside the
//! form, a parameter no record carries, two-field conjunctions) the same
//! records or error and the same page. Every page also lexes as the
//! test-only lexer lexes it and classifies as the owned-token
//! classifier classifies it.

#[path = "../crates/deep/tests/support/map_store.rs"]
mod reference;

#[path = "../crates/html/tests/support/reference.rs"]
mod lexer;

#[path = "../crates/deep/tests/support/reference.rs"]
mod classifier;

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashSet};

use webiq::core::acquire::{case1_candidates, AttrTable};
use webiq::core::WebIQConfig;
use webiq::data::generate::site_pool;
use webiq::data::records::{build_deep_source, RecordOptions};
use webiq::data::{kb, Attribute, DomainDef, Interface};
use webiq::deep::{analyze_response, DeepSource, ParamDomain, Record, RecordStore, SourceParam};
use webiq::html::lexer::tokenize;
use webiq::pipeline::DomainPipeline;
use webiq_rng::{fnv1a, SliceRandom, StdRng};

/// The datasets: the paper seed and a held-out one.
const SEEDS: [u64; 2] = [7392, 2006];

/// The pool an attribute's values are drawn from.
fn pool<'a>(def: &'a DomainDef, iface: &'a Interface, a: &'a Attribute) -> Vec<&'a str> {
    if a.has_instances() {
        return a.instances.iter().map(String::as_str).collect();
    }
    match def.concept(&a.concept) {
        Some(c) if !c.instances.is_empty() => site_pool(c, iface.id).to_vec(),
        _ => def.domain_terms.to_vec(),
    }
}

/// The records `build_deep_source` drew before the store went columnar:
/// a map per record, one `choose` per attribute in form order.
fn reference_records(def: &DomainDef, iface: &Interface, seed: u64) -> Vec<reference::Record> {
    let mut rng = StdRng::seed_from_u64(seed ^ (iface.id as u64).wrapping_mul(0x9e3779b97f4a7c15));
    let pools: Vec<Vec<&str>> = iface
        .attributes
        .iter()
        .map(|a| pool(def, iface, a))
        .collect();
    (0..RecordOptions::default().records)
        .map(|_| {
            let mut record = BTreeMap::new();
            for (a, pool) in iface.attributes.iter().zip(&pools) {
                if let Some(v) = pool.choose(&mut rng) {
                    record.insert(a.name.clone(), (*v).to_string());
                }
            }
            record
        })
        .collect()
}

/// `new`'s form over the reference records.
fn reference_source(
    new: &DeepSource,
    records: Vec<reference::Record>,
    rate: f64,
) -> reference::Source {
    reference::Source {
        name: new.name.clone(),
        params: new.params().to_vec(),
        store: reference::Store { records },
        failure_rate: rate,
    }
}

/// Both sources answer `values` alike and render the same page, which
/// (the first time this thread sees it) lexes and classifies as the
/// references do; true when records were selected.
fn check(new: &DeepSource, old: &reference::Source, values: &BTreeMap<String, String>) -> bool {
    thread_local!(static SEEN: RefCell<HashSet<u64>> = RefCell::new(HashSet::new()));
    let answer = reference::answer(new, values);
    assert_eq!(answer, old.answer(values), "{} {values:?}", new.name);
    let page = new.submit(values);
    assert_eq!(page, old.submit(values), "{} {values:?}", new.name);
    if !SEEN.with(|seen| seen.borrow_mut().insert(fnv1a(page.as_bytes()))) {
        return answer.is_ok_and(|rows| !rows.is_empty());
    }
    let tokens = lexer::tokenize(&page);
    assert_eq!(tokenize(&page), tokens, "{page:?}");
    assert_eq!(
        analyze_response(&page),
        classifier::analyze_tokens(tokens),
        "{page:?}"
    );
    answer.is_ok_and(|rows| !rows.is_empty())
}

fn one(name: &str, value: &str) -> BTreeMap<String, String> {
    BTreeMap::from([(name.to_string(), value.to_string())])
}

/// `value` cut on char boundaries, its ASCII case flipped, or padded.
fn variant(rng: &mut StdRng, value: &str) -> String {
    match rng.gen_range(0..3u32) {
        0 => {
            let cuts: Vec<usize> = value
                .char_indices()
                .map(|(i, _)| i)
                .chain([value.len()])
                .collect();
            let a = rng.gen_range(0..cuts.len());
            let b = rng.gen_range(a..cuts.len());
            value[cuts[a]..cuts[b]].to_string()
        }
        1 => value
            .chars()
            .map(|c| {
                if c.is_ascii_lowercase() {
                    c.to_ascii_uppercase()
                } else {
                    c.to_ascii_lowercase()
                }
            })
            .collect(),
        _ => format!("  {value}\t"),
    }
}

/// Every interface as built, with its last attribute renamed to its
/// first's (a repeated name), and with no attributes at all.
fn interfaces(iface: &Interface) -> [Interface; 3] {
    let mut twin = iface.clone();
    let first = twin.attributes.first().map(|a| a.name.clone());
    if let (Some(name), Some(last)) = (first, twin.attributes.last_mut()) {
        last.name = name;
    }
    let mut bare = iface.clone();
    bare.attributes.clear();
    [iface.clone(), twin, bare]
}

#[test]
fn sources_hold_the_records_the_map_store_held() {
    let mut checked = 0;
    for seed in SEEDS {
        for def in kb::all_domains() {
            let p = DomainPipeline::from_def(def, seed);
            for iface in p.dataset.interfaces.iter().flat_map(interfaces) {
                let opts = RecordOptions {
                    seed,
                    ..RecordOptions::default()
                };
                let new = build_deep_source(def, &iface, &opts);
                let old = reference_source(&new, reference_records(def, &iface, seed), 0.0);
                assert_eq!(new.record_count(), old.store.records.len());
                assert_eq!(new.record_count(), 150);
                assert!(check(&new, &old, &BTreeMap::new()), "{}", new.name);
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 2 * 5 * 20 * 3);
}

#[test]
fn probes_answer_as_the_map_store_answered() {
    let cfg = WebIQConfig::default();
    let mut rng = StdRng::seed_from_u64(0xdeeb);
    let (mut probes, mut selected) = (0usize, 0usize);
    for seed in SEEDS {
        for def in kb::all_domains() {
            let p = DomainPipeline::from_def(def, seed);
            let old: Vec<reference::Source> = p
                .sources
                .iter()
                .zip(&p.dataset.interfaces)
                .map(|(new, iface)| {
                    reference_source(new, reference_records(def, iface, seed), 0.05)
                })
                .collect();

            // every probe Attr-Deep's case 1 would issue
            let table = AttrTable::new(&p.dataset);
            let mut case1 = BTreeSet::new();
            for (r1, a1) in p.dataset.attributes() {
                if a1.has_instances() {
                    continue;
                }
                for cand in case1_candidates(&table, r1, &cfg) {
                    if let Some((lender, _)) = table.get(cand) {
                        for value in lender.instances.iter().take(cfg.probe_limit) {
                            case1.insert((r1.0, a1.name.as_str(), value.as_str()));
                        }
                    }
                }
            }
            for &(source, name, value) in &case1 {
                selected += usize::from(check(&p.sources[source], &old[source], &one(name, value)));
                probes += 1;
            }

            // seeded probes on every source
            for ((new, old), iface) in p.sources.iter().zip(&old).zip(&p.dataset.interfaces) {
                let mut submissions = Vec::new();
                for a in &iface.attributes {
                    for v in pool(def, iface, a) {
                        submissions.push(one(&a.name, v));
                        if rng.gen_bool(0.25) {
                            submissions.push(one(&a.name, &variant(&mut rng, v)));
                        }
                    }
                    submissions.push(one(&a.name, ["", " "][rng.gen_range(0..2usize)]));
                    submissions.push(one("zz_outside", &a.name));
                }
                for _ in 0..20 {
                    let record = &old.store.records[rng.gen_range(0..old.store.records.len())];
                    let fields: Vec<(&String, &String)> = record.iter().collect();
                    let mut values = BTreeMap::new();
                    for _ in 0..2 {
                        if let Some((k, v)) = fields.choose(&mut rng) {
                            let v = if rng.gen_bool(0.8) {
                                variant(&mut rng, v)
                            } else {
                                String::new()
                            };
                            values.insert((*k).clone(), v);
                        }
                    }
                    submissions.push(values);
                }
                for values in &submissions {
                    selected += usize::from(check(new, old, values));
                }
                probes += submissions.len();

                // a form parameter no record carries
                let mut params = new.params().to_vec();
                params.push(SourceParam {
                    name: "zz_unheld".into(),
                    domain: ParamDomain::Free,
                    required: false,
                });
                let records = old.store.records.clone();
                let store = RecordStore::new(
                    records
                        .iter()
                        .map(|r| Record::new(r.iter().map(|(k, v)| (k.as_str(), v.as_str()))))
                        .collect(),
                );
                let wide = DeepSource::new(new.name.clone(), params.clone(), store);
                let wide_old = reference::Source {
                    params,
                    store: reference::Store { records },
                    failure_rate: 0.0,
                    ..old.clone()
                };
                for value in ["", " ", "a", "Boston", "zz"] {
                    check(&wide, &wide_old, &one("zz_unheld", value));
                }
            }
        }
    }
    assert!(probes > 40_000, "{probes}");
    assert!(selected > probes / 4, "{selected} of {probes}");
}
