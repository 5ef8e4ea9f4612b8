//! # WebIQ — learning from the Web to match Deep-Web query interfaces
//!
//! A production-quality Rust reproduction of *WebIQ: Learning from the Web
//! to Match Deep-Web Query Interfaces* (Wu, Doan, Yu — ICDE 2006),
//! including every substrate the paper depends on:
//!
//! | crate | role |
//! |---|---|
//! | [`nlp`] | shallow NLP: Brill-style POS tagging, NP chunking, inflection, stemming |
//! | [`stats`] | discordancy tests, PMI, information gain, naive Bayes |
//! | [`html`] | HTML parsing and query-interface (form) extraction |
//! | [`web`] | the Surface-Web simulator (search engine + corpus generator) |
//! | [`deep`] | the Deep-Web source simulator (record stores, probing, response analysis) |
//! | [`data`] | five-domain knowledge bases and the ICQ-profile dataset generator |
//! | [`matcher`] | the IceQ-style interface matcher (label/domain similarity + clustering) |
//! | [`trace`] | deterministic structured tracing, pipeline metrics, run reports |
//! | [`why`] | decision provenance: evidence records, explain trees, decision-level diffs |
//! | [`prof`] | always-on performance attribution: lock/cache/worker counters, per-stage timers |
//! | [`obs`] | live `/metrics` exposition, windowed aggregation, trace-diff regression gating |
//! | [`fault`] | deterministic fault injection, virtual-time retry/backoff, circuit breaking, quota tracking |
//! | [`store`] | crash-safe persistent knowledge store: checksummed append log + snapshot, verified recovery |
//! | [`core`] | **WebIQ itself**: Surface, Attr-Surface, Attr-Deep, and the §5 strategy |
//!
//! The [`pipeline`] module wires everything together for one domain; see
//! `examples/quickstart.rs` for the three-line version.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub use webiq_core as core;
pub use webiq_data as data;
pub use webiq_deep as deep;
pub use webiq_fault as fault;
pub use webiq_html as html;
pub use webiq_match as matcher;
pub use webiq_nlp as nlp;
pub use webiq_obs as obs;
pub use webiq_prof as prof;
pub use webiq_stats as stats;
pub use webiq_store as store;
pub use webiq_trace as trace;
pub use webiq_web as web;
pub use webiq_why as why;

pub mod pipeline {
    //! End-to-end assembly: dataset + simulated Web + simulated sources +
    //! acquisition + matching for one domain.

    pub use webiq_core::WebIqError;
    use webiq_core::{acquire, Acquisition, Components, WebIQConfig};
    use webiq_data::records::{build_deep_source, RecordOptions};
    use webiq_data::{corpus, generate_domain, Dataset, DomainDef, GenOptions};
    use webiq_deep::DeepSource;
    use webiq_fault::{FaultConfig, FaultPlan};
    use webiq_match::{
        attributes_of, match_attributes, MatchAttribute, MatchConfig, MatchResult, PrF1,
    };
    use webiq_web::{gen, GenConfig, SearchEngine};

    /// The clustering threshold used for the paper's "+ thresholding"
    /// configuration, calibrated to our similarity scale the same way the
    /// paper calibrated τ = 0.1 to IceQ's (the average of the thresholds
    /// learned per domain).
    pub const THRESHOLD: f64 = 0.03;

    /// Everything needed to run WebIQ experiments over one domain.
    pub struct DomainPipeline {
        /// The domain's knowledge-base definition.
        pub def: &'static DomainDef,
        /// The generated 20-interface dataset.
        pub dataset: Dataset,
        /// The simulated Surface Web.
        pub engine: SearchEngine,
        /// One simulated Deep-Web source per interface.
        pub sources: Vec<DeepSource>,
    }

    impl DomainPipeline {
        /// Build the pipeline for `domain` (one of `airfare`, `auto`,
        /// `book`, `job`, `realestate`) with the given seed.
        ///
        /// # Errors
        ///
        /// Returns [`WebIqError::UnknownDomain`] when `domain` is not in
        /// the knowledge base.
        pub fn build(domain: &str, seed: u64) -> Result<Self, WebIqError> {
            let def = webiq_data::kb::domain(domain).ok_or_else(|| WebIqError::UnknownDomain {
                name: domain.to_string(),
            })?;
            Ok(Self::from_def(def, seed))
        }

        /// [`Self::build`], with the Deep-Web sources running the
        /// attempt-aware fault plan `fault` describes (when it is
        /// enabled) instead of the legacy attempt-blind 5% failure rate.
        /// Pass the same `fault` via [`WebIQConfig::fault`] to the
        /// acquisition call so the retry layer and the sources draw from
        /// one schedule — the `experiments chaos` harness does exactly
        /// this.
        ///
        /// # Errors
        ///
        /// Same as [`Self::build`].
        pub fn build_with_faults(
            domain: &str,
            seed: u64,
            fault: &FaultConfig,
        ) -> Result<Self, WebIqError> {
            let def = webiq_data::kb::domain(domain).ok_or_else(|| WebIqError::UnknownDomain {
                name: domain.to_string(),
            })?;
            let mut pipeline = Self::from_def(def, seed);
            if fault.enabled() {
                let plan = FaultPlan::from_config(fault);
                pipeline.sources = pipeline
                    .dataset
                    .interfaces
                    .iter()
                    .map(|i| {
                        build_deep_source(
                            def,
                            i,
                            &RecordOptions {
                                seed,
                                fault_plan: Some(plan.clone()),
                                ..RecordOptions::default()
                            },
                        )
                    })
                    .collect();
            }
            Ok(pipeline)
        }

        /// Build from a domain definition.
        pub fn from_def(def: &'static DomainDef, seed: u64) -> Self {
            let dataset = generate_domain(
                def,
                &GenOptions {
                    seed,
                    ..GenOptions::default()
                },
            );
            let engine = SearchEngine::new(gen::generate(
                &corpus::concept_specs(def),
                &GenConfig {
                    seed: seed ^ 0xc0ffee,
                    confuser_rate: 0.25,
                    ..GenConfig::default()
                },
            ));
            // Live 2006 sources were flaky; a twentieth of probes fail
            // with a server error, as they would against the real Deep Web.
            let sources = dataset
                .interfaces
                .iter()
                .map(|i| {
                    build_deep_source(
                        def,
                        i,
                        &RecordOptions {
                            seed,
                            failure_rate: 0.05,
                            ..RecordOptions::default()
                        },
                    )
                })
                .collect();
            DomainPipeline {
                def,
                dataset,
                engine,
                sources,
            }
        }

        /// Run instance acquisition with the chosen components.
        ///
        /// # Errors
        ///
        /// Propagates any [`WebIqError`] raised by the acquisition run.
        pub fn acquire(
            &self,
            components: Components,
            cfg: &WebIQConfig,
        ) -> Result<Acquisition, WebIqError> {
            acquire::acquire(
                &self.dataset,
                self.def,
                &self.engine,
                &self.sources,
                components,
                cfg,
            )
        }

        /// Run instance acquisition with the chosen components and a
        /// trace collector: `WebIQConfig::default()` with `tracer`
        /// installed. The tracer sees one deterministic `acquire` scope;
        /// read the funnel with [`webiq_trace::report::funnel`] or render
        /// the events with the `webiq-report` binary.
        ///
        /// # Errors
        ///
        /// Propagates any [`WebIqError`] raised by the acquisition run.
        pub fn acquire_traced(
            &self,
            components: Components,
            tracer: webiq_trace::Tracer,
        ) -> Result<Acquisition, WebIqError> {
            let cfg = WebIQConfig {
                tracer,
                ..WebIQConfig::default()
            };
            let acq = self.acquire(components, &cfg)?;
            cfg.tracer.flush();
            Ok(acq)
        }

        /// Matcher inputs from the raw dataset (no acquisition).
        pub fn baseline_attributes(&self) -> Vec<MatchAttribute> {
            attributes_of(&self.dataset)
        }

        /// Matcher inputs enriched with acquired instances.
        pub fn enriched_attributes(&self, acq: &Acquisition) -> Vec<MatchAttribute> {
            let mut attrs = attributes_of(&self.dataset);
            for a in &mut attrs {
                a.values.extend(acq.instances_for(a.r).iter().cloned());
            }
            attrs
        }

        /// Match a set of attributes and evaluate against gold.
        pub fn match_and_evaluate(
            &self,
            attrs: &[MatchAttribute],
            cfg: &MatchConfig,
        ) -> (MatchResult, PrF1) {
            let result = match_attributes(attrs, cfg);
            let metrics = result.evaluate(&self.dataset);
            (result, metrics)
        }

        /// [`Self::match_and_evaluate`], run inside a traced `matching`
        /// item so every `cluster_merge` decision lands in the trace
        /// through the merge-time logical clock. Matching is
        /// single-threaded and runs after acquisition, so the item's
        /// events are appended deterministically after the acquisition
        /// items at any worker count.
        pub fn match_and_evaluate_traced(
            &self,
            attrs: &[MatchAttribute],
            cfg: &MatchConfig,
            tracer: &webiq_trace::Tracer,
        ) -> (MatchResult, PrF1) {
            let item = tracer.item("matching", self.def.key);
            let result = match_attributes(attrs, cfg);
            tracer.submit(item.finish());
            let metrics = result.evaluate(&self.dataset);
            (result, metrics)
        }

        /// Baseline IceQ F-1 (no acquisition, τ = 0).
        pub fn baseline_f1(&self) -> PrF1 {
            self.match_and_evaluate(&self.baseline_attributes(), &MatchConfig::default())
                .1
        }

        /// IceQ + WebIQ F-1 for a component selection.
        ///
        /// # Errors
        ///
        /// Propagates any [`WebIqError`] raised by the acquisition run.
        pub fn webiq_f1(&self, components: Components, threshold: f64) -> Result<PrF1, WebIqError> {
            let acq = self.acquire(components, &WebIQConfig::default())?;
            let attrs = self.enriched_attributes(&acq);
            Ok(self
                .match_and_evaluate(&attrs, &MatchConfig::with_threshold(threshold))
                .1)
        }
    }
}
