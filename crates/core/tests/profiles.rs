//! The per-attribute profiles behind the §5 borrow pre-filters and IceQ
//! matching give the answers of the pairwise similarity functions on every
//! generated domain, and the merge loop gives the answers of the full
//! re-scan it replaced.

#[path = "../../matcher/tests/support/reference.rs"]
mod reference;

use webiq_core::acquire::{case1_candidates, case2_candidates, AttrTable};
use webiq_core::WebIQConfig;
use webiq_data::interface::{AttrRef, Dataset};
use webiq_data::{all_domains, generate_domain, GenOptions};
use webiq_match::cluster::{cluster_logged, similarity_matrix, Item, MergeEvent};
use webiq_match::domsim::{dom_sim, value_similarity};
use webiq_match::labelsim::{label_sim, label_vector};
use webiq_match::{attributes_of, match_attributes, similarity, MatchConfig};

/// §5 case 1 from pairwise label and domain similarities.
fn case1_pairwise(ds: &Dataset, r1: AttrRef, cfg: &WebIQConfig) -> Vec<AttrRef> {
    let label = &ds.interfaces[r1.0].attributes[r1.1].label;
    let siblings: Vec<&Vec<String>> = ds.interfaces[r1.0]
        .attributes
        .iter()
        .enumerate()
        .filter(|(j, a)| *j != r1.1 && a.has_instances())
        .map(|(_, a)| &a.instances)
        .collect();
    let collect = |use_label_filter: bool| {
        let mut scored: Vec<(f64, AttrRef)> = Vec::new();
        for (ri, ai) in ds.attributes() {
            if ri.0 == r1.0 || !ai.has_instances() {
                continue;
            }
            let ls = label_sim(label, &ai.label);
            if use_label_filter && !label_vector(label).is_empty() && ls < cfg.borrow_label_sim {
                continue;
            }
            if siblings
                .iter()
                .any(|y| dom_sim(&ai.instances, y) > cfg.borrow_sibling_dom_sim)
            {
                continue;
            }
            scored.push((ls, ri));
        }
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().map(|(_, r)| r).collect::<Vec<_>>()
    };
    let filtered = collect(true);
    if filtered.is_empty() {
        collect(false)
    } else {
        filtered
    }
}

/// §5 case 2 from pairwise value similarities.
fn case2_pairwise(ds: &Dataset, r1: AttrRef) -> Vec<AttrRef> {
    let values = &ds.interfaces[r1.0].attributes[r1.1].instances;
    ds.attributes()
        .filter(|(ri, ai)| {
            ri.0 != r1.0
                && ai.has_instances()
                && values
                    .iter()
                    .any(|v| ai.instances.iter().any(|w| value_similarity(v, w) >= 0.85))
        })
        .map(|(ri, _)| ri)
        .collect()
}

/// Every attribute's case-1 or case-2 candidates, and the clusters of
/// every domain at τ ∈ {0, 0.1}, equal their pairwise computation with
/// the reference merge loop on the datasets of `seed`.
fn check_every_domain(seed: u64) {
    let cfg = WebIQConfig::default();
    for def in all_domains() {
        let opts = GenOptions {
            seed,
            ..GenOptions::default()
        };
        let ds = generate_domain(def, &opts);
        let table = AttrTable::new(&ds);
        for (r, a) in ds.attributes() {
            if a.has_instances() {
                assert_eq!(
                    case2_candidates(&table, r, &cfg),
                    case2_pairwise(&ds, r),
                    "case 2, {} seed {seed} {r:?}",
                    def.key
                );
            } else {
                assert_eq!(
                    case1_candidates(&table, r, &cfg),
                    case1_pairwise(&ds, r, &cfg),
                    "case 1, {} seed {seed} {r:?}",
                    def.key
                );
            }
        }

        let attrs = attributes_of(&ds);
        let items: Vec<Item<usize>> = attrs
            .iter()
            .enumerate()
            .map(|(id, a)| Item {
                id,
                interface: a.r.0,
            })
            .collect();
        let weights = MatchConfig::default();
        let sim = similarity_matrix(&items, |i, j| similarity(&attrs[i], &attrs[j], &weights));
        for threshold in [0.0, 0.1] {
            let case = format!("{} seed {seed} τ {threshold}", def.key);
            let (want, want_log) = reference::cluster_logged(&items, &sim, threshold);
            let (got, got_log) = cluster_logged(&items, &sim, threshold);
            assert_eq!(got, want, "{case}");
            let bits = |log: &[MergeEvent<usize>]| -> Vec<(u64, usize, usize)> {
                log.iter().map(|e| (e.score.to_bits(), e.a, e.b)).collect()
            };
            assert_eq!(bits(&got_log), bits(&want_log), "{case}");
            let want: Vec<Vec<AttrRef>> = want
                .into_iter()
                .map(|c| c.into_iter().map(|i| attrs[i].r).collect())
                .collect();
            let mc = MatchConfig::with_threshold(threshold);
            assert_eq!(match_attributes(&attrs, &mc).clusters, want, "{case}");
        }
    }
}

#[test]
fn profiles_give_the_pairwise_answers_at_the_paper_seed() {
    check_every_domain(7392);
}

#[test]
fn profiles_give_the_pairwise_answers_at_a_held_out_seed() {
    check_every_domain(2006);
}
