//! The §6 experiments: Table 1, Figures 6–8, and the design-choice
//! ablations.

use std::time::Instant;

use webiq::core::{Components, WebIQConfig};

use crate::json::{obj, Json, ToJson};
use webiq::data::stats::characteristics;
use webiq::data::{kb, Dataset, DomainDef};
use webiq::matcher::MatchConfig;
use webiq::pipeline::{DomainPipeline, THRESHOLD};

/// Default experiment seed (all experiments are deterministic in it).
pub const SEED: u64 = 0x1ce0;

/// Run `f` over the five domains in parallel (each domain's pipeline is
/// independent; results come back in the paper's domain order).
fn par_domains<T, F>(f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&'static DomainDef) -> T + Sync,
{
    let domains = kb::all_domains();
    std::thread::scope(|scope| {
        let handles: Vec<_> = domains
            .into_iter()
            .map(|def| scope.spawn(|| f(def)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("domain worker panicked"))
            .collect()
    })
}

/// Nominal per-query round-trip latency to a 2006 search engine, used to
/// express query counts on the paper's Fig.-8 time scale ("typical
/// retrieval time from Google for one query is 0.1–0.5 second").
pub const SIMULATED_QUERY_SECS: f64 = 0.3;

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Domain display name.
    pub domain: &'static str,
    /// Column 2: average number of attributes per interface.
    pub avg_attrs: f64,
    /// Column 3: % interfaces containing attributes without instances.
    pub int_no_inst: f64,
    /// Column 4: % attributes without instances (in those interfaces).
    pub attr_no_inst: f64,
    /// Column 5: % of instance-less attributes with instances expected on
    /// the Web.
    pub exp_inst: f64,
    /// Column 6: acquisition success rate, Surface only.
    pub surface: f64,
    /// Column 7: acquisition success rate, Surface + Deep borrowing.
    pub surface_deep: f64,
}

/// Regenerate Table 1.
pub fn table1(seed: u64) -> Vec<Table1Row> {
    par_domains(|def| {
        let p = DomainPipeline::from_def(def, seed);
        let c = characteristics(&p.dataset, def);
        let cfg = WebIQConfig::default();
        let surface_only = p.acquire(Components::SURFACE, &cfg).expect("acquisition");
        let with_deep = p
            .acquire(Components::SURFACE_DEEP, &cfg)
            .expect("acquisition");
        Table1Row {
            domain: def.display,
            avg_attrs: c.avg_attrs,
            int_no_inst: c.pct_interfaces_no_inst,
            attr_no_inst: c.pct_attrs_no_inst,
            exp_inst: c.pct_expected_on_web,
            surface: surface_only.report.surface_success_rate(),
            surface_deep: with_deep.report.surface_deep_success_rate(),
        }
    })
}

/// One row of Figure 6 (matching accuracy, F-1 %).
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Domain display name.
    pub domain: &'static str,
    /// IceQ baseline.
    pub baseline: f64,
    /// IceQ + WebIQ (τ = 0).
    pub webiq: f64,
    /// IceQ + WebIQ + thresholding.
    pub webiq_threshold: f64,
}

/// Regenerate Figure 6.
pub fn fig6(seed: u64) -> Vec<Fig6Row> {
    par_domains(|def| {
        let p = DomainPipeline::from_def(def, seed);
        Fig6Row {
            domain: def.display,
            baseline: p.baseline_f1().f1_pct(),
            webiq: p
                .webiq_f1(Components::ALL, 0.0)
                .expect("acquisition")
                .f1_pct(),
            webiq_threshold: p
                .webiq_f1(Components::ALL, THRESHOLD)
                .expect("acquisition")
                .f1_pct(),
        }
    })
}

/// One row of Figure 7 (component contributions, F-1 %).
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Domain display name.
    pub domain: &'static str,
    /// IceQ baseline.
    pub baseline: f64,
    /// + Surface.
    pub surface: f64,
    /// + Surface + Attr-Deep.
    pub surface_deep: f64,
    /// + Surface + Attr-Deep + Attr-Surface (full WebIQ).
    pub all: f64,
}

/// Regenerate Figure 7.
pub fn fig7(seed: u64) -> Vec<Fig7Row> {
    par_domains(|def| {
        let p = DomainPipeline::from_def(def, seed);
        Fig7Row {
            domain: def.display,
            baseline: p.baseline_f1().f1_pct(),
            surface: p
                .webiq_f1(Components::SURFACE, 0.0)
                .expect("acquisition")
                .f1_pct(),
            surface_deep: p
                .webiq_f1(Components::SURFACE_DEEP, 0.0)
                .expect("acquisition")
                .f1_pct(),
            all: p
                .webiq_f1(Components::ALL, 0.0)
                .expect("acquisition")
                .f1_pct(),
        }
    })
}

/// One row of Figure 8 (overhead analysis).
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Domain display name.
    pub domain: &'static str,
    /// Wall-clock seconds spent matching the enriched attributes.
    pub matching_secs: f64,
    /// Search and hit-count calls the Surface component issued, cache
    /// hits included.
    pub surface_queries: u64,
    /// Search and hit-count calls Attr-Surface issued, cache hits
    /// included.
    pub attr_surface_queries: u64,
    /// Deep-Web probe submissions Attr-Deep issued.
    pub probes: u64,
}

impl Fig8Row {
    /// Surface time in minutes on the paper's scale: every issued search
    /// or hit-count call, cache hits included, costs one 0.3 s round-trip
    /// (the in-process engine answers in microseconds, so the simulated
    /// round-trip dominates as it did for the authors).
    pub fn surface_simulated_mins(&self) -> f64 {
        self.surface_queries as f64 * SIMULATED_QUERY_SECS / 60.0
    }

    /// Attr-Surface time in simulated minutes, counted like
    /// [`Fig8Row::surface_simulated_mins`].
    pub fn attr_surface_simulated_mins(&self) -> f64 {
        self.attr_surface_queries as f64 * SIMULATED_QUERY_SECS / 60.0
    }

    /// Attr-Deep time in simulated minutes: one 0.3 s round-trip per
    /// probe submission.
    pub fn attr_deep_simulated_mins(&self) -> f64 {
        self.probes as f64 * SIMULATED_QUERY_SECS / 60.0
    }
}

/// Regenerate Figure 8.
pub fn fig8(seed: u64) -> Vec<Fig8Row> {
    par_domains(|def| {
        let p = DomainPipeline::from_def(def, seed);
        let acq = p
            .acquire(Components::ALL, &WebIQConfig::default())
            .expect("acquisition");
        let attrs = p.enriched_attributes(&acq);
        let t0 = Instant::now();
        let _ = p.match_and_evaluate(&attrs, &MatchConfig::with_threshold(THRESHOLD));
        let matching_secs = t0.elapsed().as_secs_f64();
        Fig8Row {
            domain: def.display,
            matching_secs,
            surface_queries: acq.report.surface_cost.engine_queries,
            attr_surface_queries: acq.report.attr_surface_cost.engine_queries,
            probes: acq.report.attr_deep_cost.probes,
        }
    })
}

/// How accurate is acquisition itself? An acquired instance is *correct*
/// when it belongs to the attribute's gold concept inventory.
pub fn acquisition_precision(ds: &Dataset, def: &DomainDef, acq: &webiq::core::Acquisition) -> f64 {
    let mut total = 0usize;
    let mut correct = 0usize;
    for (r, values) in &acq.acquired {
        let a = ds.attribute(*r).expect("acquired refs are valid");
        let Some(c) = def.concept(&a.concept) else {
            continue;
        };
        for v in values {
            total += 1;
            let hit = c
                .instances
                .iter()
                .chain(c.instances_alt)
                .any(|p| p.eq_ignore_ascii_case(v));
            correct += usize::from(hit);
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

/// One row of the learned-threshold experiment (the interactive part of
/// IceQ the paper ran manually, §5).
#[derive(Debug, Clone)]
pub struct LearnedRow {
    /// Domain display name.
    pub domain: &'static str,
    /// τ learned from the oracle sample.
    pub threshold: f64,
    /// Oracle questions asked.
    pub questions: usize,
    /// F-1 % of IceQ + WebIQ clustered at the learned τ.
    pub f1_with_learned: f64,
}

/// Learn per-domain thresholds with a gold-backed oracle (20 questions,
/// the effort of one short interactive session) and evaluate matching at
/// the learned τ. The paper set its manual τ = 0.1 to "about the average
/// of the thresholds learned for the five domains" — this regenerates
/// those learned values on our similarity scale.
pub fn learned_thresholds(seed: u64) -> Vec<LearnedRow> {
    use webiq::data::gold;
    use webiq::matcher::{learn_threshold, GoldOracle};
    par_domains(|def| {
        let p = DomainPipeline::from_def(def, seed);
        let acq = p
            .acquire(Components::ALL, &WebIQConfig::default())
            .expect("acquisition");
        let attrs = p.enriched_attributes(&acq);
        let mut oracle = GoldOracle::new(gold::gold_pairs(&p.dataset));
        let learned = learn_threshold(&attrs, &MatchConfig::default(), &mut oracle, 20);
        let f1 = p
            .match_and_evaluate(&attrs, &MatchConfig::with_threshold(learned.threshold))
            .1
            .f1_pct();
        LearnedRow {
            domain: def.display,
            threshold: learned.threshold,
            questions: learned.questions,
            f1_with_learned: f1,
        }
    })
}

/// One row of the similarity-weight study.
#[derive(Debug, Clone)]
pub struct WeightsRow {
    /// Domain display name.
    pub domain: &'static str,
    /// Label similarity only (α=1, β=0) on the raw dataset.
    pub label_only: f64,
    /// Full Sim on the raw dataset (the Fig. 6 baseline).
    pub baseline: f64,
    /// Label similarity only on WebIQ-enriched attributes (instances
    /// acquired but ignored by the matcher — a control).
    pub label_only_enriched: f64,
    /// Full Sim on enriched attributes (the Fig. 6 WebIQ bar).
    pub webiq: f64,
}

/// The comparative study the paper cites from IceQ \[28\] ("instances
/// greatly improve matching accuracy"): how much of the accuracy comes
/// from instances, before and after acquisition.
pub fn weights(seed: u64) -> Vec<WeightsRow> {
    par_domains(|def| {
        let p = DomainPipeline::from_def(def, seed);
        let label_cfg = MatchConfig {
            alpha: 1.0,
            beta: 0.0,
            threshold: 0.0,
        };
        let full_cfg = MatchConfig::default();

        let raw = p.baseline_attributes();
        let acq = p
            .acquire(Components::ALL, &WebIQConfig::default())
            .expect("acquisition");
        let enriched = p.enriched_attributes(&acq);

        WeightsRow {
            domain: def.display,
            label_only: p.match_and_evaluate(&raw, &label_cfg).1.f1_pct(),
            baseline: p.match_and_evaluate(&raw, &full_cfg).1.f1_pct(),
            label_only_enriched: p.match_and_evaluate(&enriched, &label_cfg).1.f1_pct(),
            webiq: p.match_and_evaluate(&enriched, &full_cfg).1.f1_pct(),
        }
    })
}

/// One ablation outcome.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Ablation name.
    pub name: &'static str,
    /// Average F-1 % across the five domains.
    pub avg_f1: f64,
    /// Average acquisition precision across the five domains.
    pub acq_precision: f64,
    /// Total engine queries + probes across the five domains.
    pub total_queries: u64,
}

/// Run one configuration across all domains.
fn run_config(seed: u64, name: &'static str, cfg: &WebIQConfig) -> AblationRow {
    let per_domain = par_domains(|def| {
        let p = DomainPipeline::from_def(def, seed);
        let acq = p.acquire(Components::ALL, cfg).expect("acquisition");
        let prec = acquisition_precision(&p.dataset, def, &acq);
        let queries = acq.report.surface_cost.engine_queries
            + acq.report.attr_surface_cost.engine_queries
            + acq.report.attr_deep_cost.probes;
        let attrs = p.enriched_attributes(&acq);
        let f1 = p
            .match_and_evaluate(&attrs, &MatchConfig::with_threshold(THRESHOLD))
            .1
            .f1;
        (f1, prec, queries)
    });
    let f1_sum: f64 = per_domain.iter().map(|(f, _, _)| f).sum();
    let prec_sum: f64 = per_domain.iter().map(|(_, p, _)| p).sum();
    let queries: u64 = per_domain.iter().map(|(_, _, q)| q).sum();
    AblationRow {
        name,
        avg_f1: 100.0 * f1_sum / 5.0,
        acq_precision: 100.0 * prec_sum / 5.0,
        total_queries: queries,
    }
}

/// The design-choice ablations of DESIGN.md §5.
pub fn ablations(seed: u64) -> Vec<AblationRow> {
    let base = WebIQConfig::default();
    vec![
        run_config(seed, "full WebIQ (default)", &base),
        run_config(
            seed,
            "no outlier phase",
            &WebIQConfig {
                outlier_phase: false,
                ..base.clone()
            },
        ),
        run_config(
            seed,
            "raw hits instead of PMI",
            &WebIQConfig {
                use_pmi: false,
                ..base.clone()
            },
        ),
        run_config(
            seed,
            "midpoint thresholds (no info gain)",
            &WebIQConfig {
                info_gain_thresholds: false,
                ..base.clone()
            },
        ),
        run_config(
            seed,
            "no borrow pre-filter",
            &WebIQConfig {
                borrow_prefilter: false,
                ..base.clone()
            },
        ),
        run_config(
            seed,
            "sibling-keyword query scoping (+2)",
            &WebIQConfig {
                sibling_keywords: 2,
                ..base.clone()
            },
        ),
        run_config(
            seed,
            "Grubbs discordancy test",
            &WebIQConfig {
                discordancy: webiq::stats::DiscordancyTest::Grubbs,
                ..base.clone()
            },
        ),
    ]
}

impl ToJson for Table1Row {
    fn to_json(&self) -> Json {
        obj([
            ("domain", self.domain.into()),
            ("avg_attrs", self.avg_attrs.into()),
            ("int_no_inst", self.int_no_inst.into()),
            ("attr_no_inst", self.attr_no_inst.into()),
            ("exp_inst", self.exp_inst.into()),
            ("surface", self.surface.into()),
            ("surface_deep", self.surface_deep.into()),
        ])
    }
}

impl ToJson for Fig6Row {
    fn to_json(&self) -> Json {
        obj([
            ("domain", self.domain.into()),
            ("baseline", self.baseline.into()),
            ("webiq", self.webiq.into()),
            ("webiq_threshold", self.webiq_threshold.into()),
        ])
    }
}

impl ToJson for Fig7Row {
    fn to_json(&self) -> Json {
        obj([
            ("domain", self.domain.into()),
            ("baseline", self.baseline.into()),
            ("surface", self.surface.into()),
            ("surface_deep", self.surface_deep.into()),
            ("all", self.all.into()),
        ])
    }
}

impl ToJson for Fig8Row {
    fn to_json(&self) -> Json {
        obj([
            ("domain", self.domain.into()),
            ("matching_secs", self.matching_secs.into()),
            ("surface_queries", self.surface_queries.into()),
            ("attr_surface_queries", self.attr_surface_queries.into()),
            ("probes", self.probes.into()),
        ])
    }
}

impl ToJson for LearnedRow {
    fn to_json(&self) -> Json {
        obj([
            ("domain", self.domain.into()),
            ("threshold", self.threshold.into()),
            ("questions", self.questions.into()),
            ("f1_with_learned", self.f1_with_learned.into()),
        ])
    }
}

impl ToJson for WeightsRow {
    fn to_json(&self) -> Json {
        obj([
            ("domain", self.domain.into()),
            ("label_only", self.label_only.into()),
            ("baseline", self.baseline.into()),
            ("label_only_enriched", self.label_only_enriched.into()),
            ("webiq", self.webiq.into()),
        ])
    }
}

impl ToJson for AblationRow {
    fn to_json(&self) -> Json {
        obj([
            ("name", self.name.into()),
            ("avg_f1", self.avg_f1.into()),
            ("acq_precision", self.acq_precision.into()),
            ("total_queries", self.total_queries.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_five_rows_in_paper_order() {
        let rows = table1(SEED);
        let names: Vec<&str> = rows.iter().map(|r| r.domain).collect();
        assert_eq!(names, vec!["Airfare", "Auto", "Book", "Job", "Real Estate"]);
        for r in &rows {
            assert!(r.avg_attrs > 2.0 && r.avg_attrs < 15.0);
            assert!((0.0..=100.0).contains(&r.surface));
            assert!(
                r.surface_deep >= r.surface - 1e-9,
                "{}: deep >= surface",
                r.domain
            );
        }
    }

    #[test]
    fn fig6_improves_over_baseline_on_average() {
        let rows = fig6(SEED);
        let base: f64 = rows.iter().map(|r| r.baseline).sum::<f64>() / 5.0;
        let webiq: f64 = rows.iter().map(|r| r.webiq).sum::<f64>() / 5.0;
        assert!(webiq > base + 3.0, "{base:.1} -> {webiq:.1}");
    }

    #[test]
    fn fig8_costs_are_positive() {
        let rows = fig8(SEED);
        for r in &rows {
            assert!(r.surface_queries > 0, "{}", r.domain);
            assert!(r.probes > 0 || r.domain == "Book", "{}", r.domain);
            assert!(r.matching_secs > 0.0);
        }
    }

    #[test]
    fn instances_matter_in_the_weight_study() {
        let rows = weights(SEED);
        let avg = |f: fn(&WeightsRow) -> f64| rows.iter().map(f).sum::<f64>() / 5.0;
        // the domain-similarity term must add accuracy on the raw dataset
        // (IceQ's comparative claim) and even more after acquisition
        assert!(avg(|r| r.baseline) > avg(|r| r.label_only), "{rows:?}");
        assert!(
            avg(|r| r.webiq) > avg(|r| r.label_only_enriched),
            "{rows:?}"
        );
        assert!(avg(|r| r.webiq) > avg(|r| r.baseline), "{rows:?}");
    }

    #[test]
    fn learned_thresholds_are_usable() {
        let rows = learned_thresholds(SEED);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(
                (0.0..1.0).contains(&r.threshold),
                "{}: τ={}",
                r.domain,
                r.threshold
            );
            assert!(
                r.f1_with_learned > 80.0,
                "{}: F1={}",
                r.domain,
                r.f1_with_learned
            );
        }
    }

    #[test]
    fn acquisition_precision_is_high_by_default() {
        let def = kb::domain("airfare").expect("domain");
        let p = DomainPipeline::from_def(def, SEED);
        let acq = p
            .acquire(Components::ALL, &WebIQConfig::default())
            .expect("acquisition");
        let prec = acquisition_precision(&p.dataset, def, &acq);
        assert!(prec > 0.9, "acquisition precision {prec:.3}");
    }
}
