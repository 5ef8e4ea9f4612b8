//! ICQ-profile dataset generation.
//!
//! Emits, per domain, the 20 query interfaces the paper's ICQ dataset
//! provides, with the statistical profile of Table 1: average attribute
//! counts, the prevalence of instance-less attributes, label heterogeneity
//! (hard prepositional/verb-phrase variants included), and the
//! disjoint-instance split for concepts with two regional pools.

use webiq_rng::{fnv1a, SliceRandom, StdRng};

use crate::interface::{Attribute, Dataset, Interface};
use crate::kb::{ConceptDef, DomainDef};

/// Generation options.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// RNG seed (per-domain generation derives sub-seeds from it).
    pub seed: u64,
    /// Number of interfaces per domain (the ICQ dataset has 20).
    pub interfaces: usize,
    /// Range of pre-defined instances sampled for a select attribute.
    pub select_min: usize,
    /// Upper bound of the select sample.
    pub select_max: usize,
    /// Probability that an *instance-less* attribute occurrence uses one
    /// of its concept's hard (zero-word-overlap) label variants.
    pub hard_label_rate: f64,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            seed: 0x1ce0,
            interfaces: 20,
            select_min: 4,
            select_max: 10,
            hard_label_rate: 0.5,
        }
    }
}

/// Pick an item with a bias toward the front of the list (weight 1/(i+1)).
fn front_biased<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    debug_assert!(!items.is_empty());
    let weights: Vec<f64> = (0..items.len()).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut roll = rng.gen_range(0.0..total);
    for (item, w) in items.iter().zip(&weights) {
        if roll < *w {
            return item;
        }
        roll -= w;
    }
    items.last().copied().unwrap_or("")
}

/// Which instance pool does site `site_idx` use for `concept`?
/// Sites are split into two halves when an alternative pool exists —
/// reproducing the paper's `Airline` (North American) vs. `Carrier`
/// (European) disjoint-instances effect.
pub fn site_pool(concept: &ConceptDef, site_idx: usize) -> &[&str] {
    if !concept.instances_alt.is_empty() && site_idx % 2 == 1 {
        concept.instances_alt
    } else {
        concept.instances
    }
}

/// Generate one attribute occurrence of `concept` for site `site_idx`.
fn generate_attribute(
    rng: &mut StdRng,
    concept: &ConceptDef,
    site_idx: usize,
    all_select: bool,
    opts: &GenOptions,
) -> Attribute {
    let name = concept
        .control_names
        .choose(rng)
        .copied()
        .unwrap_or(concept.key)
        .to_string();
    let pool = site_pool(concept, site_idx);
    let selectable = !pool.is_empty();
    let is_select = selectable && (all_select || rng.gen_bool(concept.select_prob));

    // Label choice models the paper's two difficulty classes. (1) Hard
    // variants (zero word overlap with the canonical label) concentrate on
    // *instance-less* occurrences — `From`, `Depart from`, `Position`. (2)
    // Sites drawing from the alternative regional pool use the regional
    // synonym — `Carrier` with European airlines vs. `Airline` with North
    // American ones — so neither labels nor instances bridge the halves.
    let hard_start = concept.hard_from.min(concept.labels.len());
    let (normal, hard) = concept.labels.split_at(hard_start);
    let uses_alt_pool = !concept.instances_alt.is_empty() && site_idx % 2 == 1;
    let label = if !hard.is_empty()
        && (uses_alt_pool || (!is_select && rng.gen_bool(opts.hard_label_rate)))
    {
        hard.choose(rng).copied().unwrap_or(concept.key)
    } else if normal.is_empty() {
        front_biased(rng, concept.labels)
    } else {
        front_biased(rng, normal)
    }
    .to_string();
    let mut instances = Vec::new();
    let mut default = None;
    if is_select {
        let n = rng
            .gen_range(opts.select_min..=opts.select_max)
            .min(pool.len());
        let mut chosen: Vec<&str> = pool.choose_multiple(rng, n).copied().collect();
        // keep the pool's canonical order for determinism of display
        chosen.sort_by_key(|v| pool.iter().position(|p| p == v));
        instances = chosen.iter().map(|s| (*s).to_string()).collect();
        if rng.gen_bool(0.3) {
            default = instances.first().cloned();
        }
    }
    Attribute {
        name,
        label,
        concept: concept.key.to_string(),
        instances,
        default,
    }
}

/// Generate the dataset for one domain.
pub fn generate_domain(def: &DomainDef, opts: &GenOptions) -> Dataset {
    let mut rng = StdRng::seed_from_u64(opts.seed ^ fnv1a(def.key.as_bytes()));
    let mut interfaces = Vec::with_capacity(opts.interfaces);
    for i in 0..opts.interfaces {
        let site = def.site_names[i % def.site_names.len()].to_string();
        let all_select = rng.gen_bool(def.all_select_rate);
        let mut attributes = Vec::new();
        for concept in def.concepts {
            if !rng.gen_bool(concept.frequency) {
                continue;
            }
            attributes.push(generate_attribute(&mut rng, concept, i, all_select, opts));
        }
        // An interface needs at least two attributes to be a query form.
        while attributes.len() < 2 && !def.concepts.is_empty() {
            let Some(concept) = def.concepts.choose(&mut rng) else {
                break;
            };
            if attributes.iter().any(|a| a.concept == concept.key) {
                continue;
            }
            attributes.push(generate_attribute(&mut rng, concept, i, all_select, opts));
        }
        interfaces.push(Interface {
            id: i,
            domain: def.key.to_string(),
            site,
            attributes,
        });
    }
    Dataset {
        domain: def.key.to_string(),
        interfaces,
    }
}

/// Generate all five domains.
pub fn generate_all(opts: &GenOptions) -> Vec<Dataset> {
    crate::kb::all_domains()
        .iter()
        .map(|d| generate_domain(d, opts))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb;

    #[test]
    fn generates_requested_interface_count() {
        let ds = generate_domain(
            kb::domain("airfare").expect("domain"),
            &GenOptions::default(),
        );
        assert_eq!(ds.interfaces.len(), 20);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = kb::domain("book").expect("domain");
        let a = generate_domain(d, &GenOptions::default());
        let b = generate_domain(d, &GenOptions::default());
        assert_eq!(a.interfaces, b.interfaces);
    }

    #[test]
    fn different_seeds_differ() {
        let d = kb::domain("book").expect("domain");
        let a = generate_domain(
            d,
            &GenOptions {
                seed: 1,
                ..GenOptions::default()
            },
        );
        let b = generate_domain(
            d,
            &GenOptions {
                seed: 2,
                ..GenOptions::default()
            },
        );
        assert_ne!(a.interfaces, b.interfaces);
    }

    #[test]
    fn every_interface_has_at_least_two_attributes() {
        for ds in generate_all(&GenOptions::default()) {
            for i in &ds.interfaces {
                assert!(i.attributes.len() >= 2, "{}: interface {}", ds.domain, i.id);
            }
        }
    }

    #[test]
    fn attribute_labels_come_from_kb() {
        let def = kb::domain("auto").expect("domain");
        let ds = generate_domain(def, &GenOptions::default());
        for (_, a) in ds.attributes() {
            let c = def.concept(&a.concept).expect("gold concept exists in KB");
            assert!(
                c.labels.contains(&a.label.as_str()),
                "{} not a label of {}",
                a.label,
                c.key
            );
        }
    }

    #[test]
    fn select_instances_come_from_site_pool() {
        let def = kb::domain("airfare").expect("domain");
        let ds = generate_domain(def, &GenOptions::default());
        for (r, a) in ds.attributes() {
            if a.concept == "airline" && a.has_instances() {
                let c = def.concept("airline").expect("concept");
                let pool = site_pool(c, r.0);
                for inst in &a.instances {
                    assert!(pool.contains(&inst.as_str()), "{inst} not in site pool");
                }
            }
        }
    }

    #[test]
    fn airline_pools_split_across_sites() {
        let def = kb::domain("airfare").expect("domain");
        let ds = generate_domain(def, &GenOptions::default());
        let mut saw_na = false;
        let mut saw_eu = false;
        for (r, a) in ds.attributes() {
            if a.concept == "airline" && a.has_instances() {
                if r.0 % 2 == 0 {
                    saw_na = true;
                    assert!(a
                        .instances
                        .iter()
                        .all(|i| kb::pools::AIRLINES_NA.contains(&i.as_str())));
                } else {
                    saw_eu = true;
                    assert!(a
                        .instances
                        .iter()
                        .all(|i| kb::pools::AIRLINES_EU.contains(&i.as_str())));
                }
            }
        }
        assert!(saw_na && saw_eu, "both pools must be exercised");
    }

    #[test]
    fn no_duplicate_concepts_within_interface() {
        for ds in generate_all(&GenOptions::default()) {
            for i in &ds.interfaces {
                let mut keys: Vec<&str> = i.attributes.iter().map(|a| a.concept.as_str()).collect();
                let n = keys.len();
                keys.sort_unstable();
                keys.dedup();
                assert_eq!(keys.len(), n, "{}: interface {}", ds.domain, i.id);
            }
        }
    }

    #[test]
    fn select_sample_sizes_respect_bounds() {
        let opts = GenOptions::default();
        for ds in generate_all(&opts) {
            for (_, a) in ds.attributes() {
                if a.has_instances() {
                    assert!(a.instances.len() <= opts.select_max);
                }
            }
        }
    }
}
