//! The §5 acquisition strategy: how WebIQ's three components are combined
//! to gather instances for every attribute across a domain's interfaces.
//!
//! Per attribute X₁:
//! 1. **no instances** → discover from the Surface Web (Surface). If fewer
//!    than k instances were gathered, borrow from other attributes and
//!    validate via the Deep Web (Attr-Deep) by probing X₁'s own source.
//! 2. **pre-defined instances** → borrow from other attributes and
//!    validate via the Surface Web (Attr-Surface); the Deep Web cannot be
//!    used because X₁ only accepts its pre-defined values.
//!
//! Borrowing is pre-filtered (§5): for case 1 the candidate's label must
//! resemble X₁'s (unless X₁'s label carries no content words at all — the
//! `From`-style labels for which only probing can decide) and its domain
//! must differ from every instance-bearing sibling on X₁'s interface; for
//! case 2 the candidate must share at least one very similar value with
//! X₁'s domain.

// lint:deterministic

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use webiq_data::interface::{AttrRef, Attribute, Dataset};
use webiq_data::DomainDef;
use webiq_deep::DeepSource;
use webiq_fault::{FaultConfig, QuotaTracker};
use webiq_match::domsim::ValueSet;
use webiq_match::Profile;
use webiq_prof::Stage;
use webiq_trace::{Counter, Gauge, HistKey, ItemBuf, MetricSet};
use webiq_web::{QueryEngine, SearchEngine};

use webiq_store::{BorrowRecord, InstanceRecord, ModelRecord, Record, RunCompleteRecord};

use crate::attr_deep;
use crate::attr_surface;
use crate::config::{Components, WebIQConfig};
use crate::error::WebIqError;
use crate::extract::DomainInfo;
use crate::persist;
use crate::resilience::{Resilience, ResilientEngine, ResilientSource};
use crate::surface;

/// Per-component accounting for the overhead analysis (Fig. 8): what a
/// component issued, counted deterministically. Its wall-clock time is
/// the `webiq_prof` stage that covers it (`extract`, `borrow`, `bayes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentCost {
    /// Search-engine queries issued (search + hit-count calls).
    pub engine_queries: u64,
    /// Deep-Web probe submissions issued.
    pub probes: u64,
}

/// Acquisition statistics and costs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AcquisitionReport {
    /// Attributes that had no pre-defined instances.
    pub no_inst_attrs: usize,
    /// Of those, how many reached k instances with Surface alone
    /// (Table 1, column 6).
    pub surface_success: usize,
    /// Of those, how many reached k after Surface + Deep-validated
    /// borrowing (Table 1, column 7).
    pub surface_deep_success: usize,
    /// Attributes with pre-defined instances that gained at least one
    /// borrowed instance through Attr-Surface.
    pub attr_surface_enriched: usize,
    /// Cost of the Surface component.
    pub surface_cost: ComponentCost,
    /// Cost of the Attr-Surface component.
    pub attr_surface_cost: ComponentCost,
    /// Cost of the Attr-Deep component.
    pub attr_deep_cost: ComponentCost,
    /// Attributes whose processing hit a resilience fallback (retry
    /// exhaustion, open breaker, or quota denial) and kept only partial
    /// results. Zero whenever fault injection is disabled.
    pub degraded_attrs: usize,
    /// Retry attempts spent across the run (virtual-time backoff).
    pub retries: u64,
    /// Faults injected across the run (all kinds, both boundaries).
    pub faults_injected: u64,
}

impl AcquisitionReport {
    /// Derive the report from a set of trace counters (the merged
    /// per-item deltas of one acquisition run). Every field is a
    /// counter, so the report is the counters' aggregate by
    /// construction: there is one source of truth for every number
    /// shared between the two views.
    pub fn from_metrics(m: &MetricSet) -> Self {
        AcquisitionReport {
            no_inst_attrs: m.get(Counter::AttrsNoInstance) as usize,
            surface_success: m.get(Counter::SurfaceSuccess) as usize,
            surface_deep_success: m.get(Counter::SurfaceDeepSuccess) as usize,
            attr_surface_enriched: m.get(Counter::AttrSurfaceEnriched) as usize,
            surface_cost: ComponentCost {
                engine_queries: m.get(Counter::SurfaceQueries),
                ..ComponentCost::default()
            },
            attr_surface_cost: ComponentCost {
                engine_queries: m.get(Counter::AttrSurfaceQueries),
                ..ComponentCost::default()
            },
            attr_deep_cost: ComponentCost {
                probes: m.get(Counter::AttrDeepProbes),
                ..ComponentCost::default()
            },
            degraded_attrs: m.get(Counter::FaultAttrsDegraded) as usize,
            retries: m.get(Counter::FaultRetryAttempt),
            faults_injected: m.get(Counter::FaultInjected),
        }
    }

    /// Surface-only success rate over instance-less attributes (%).
    pub fn surface_success_rate(&self) -> f64 {
        percent(self.surface_success, self.no_inst_attrs)
    }

    /// Surface + Deep success rate over instance-less attributes (%).
    pub fn surface_deep_success_rate(&self) -> f64 {
        percent(self.surface_deep_success, self.no_inst_attrs)
    }
}

fn percent(n: usize, of: usize) -> f64 {
    if of == 0 {
        0.0
    } else {
        100.0 * n as f64 / of as f64
    }
}

/// The outcome of running acquisition over a dataset.
#[derive(Debug, Clone, Default)]
pub struct Acquisition {
    /// Instances acquired per attribute (beyond its pre-defined ones).
    pub acquired: BTreeMap<AttrRef, Vec<String>>,
    /// Attributes marked degraded: some stage exhausted its retry
    /// budget, tripped a breaker, or was denied by the quota, and the
    /// attribute kept whatever partial instances it had instead of
    /// aborting the run. Empty whenever fault injection is disabled.
    pub degraded: BTreeSet<AttrRef>,
    /// Statistics and per-component costs.
    pub report: AcquisitionReport,
}

impl Acquisition {
    /// The acquired instances for an attribute (empty slice if none).
    pub fn instances_for(&self, r: AttrRef) -> &[String] {
        self.acquired.get(&r).map_or(&[], Vec::as_slice)
    }
}

/// Case-insensitive containment check.
fn contains_ci(haystack: &[String], needle: &str) -> bool {
    haystack.iter().any(|h| h.eq_ignore_ascii_case(needle))
}

/// Content keywords from the labels of the other attributes on X₁'s
/// interface — the `+title +isbn` material of §2.1's query scoping.
/// Deduplicated through a set (first-seen order preserved) so wide
/// interfaces don't pay a quadratic membership scan.
fn sibling_terms(ds: &Dataset, r1: AttrRef) -> Vec<String> {
    let mut seen: HashSet<String> = HashSet::new();
    let mut out = Vec::new();
    for (j, a) in ds.interfaces[r1.0].attributes.iter().enumerate() {
        if j == r1.1 {
            continue;
        }
        for word in webiq_nlp::words_lower(&a.label) {
            if !webiq_nlp::stopwords::is_stopword(&word) && seen.insert(word.clone()) {
                out.push(word);
                break; // one keyword per sibling label, like the paper
            }
        }
    }
    out
}

/// Every attribute of a dataset profiled once (label vector and
/// pre-defined instances, see [`Profile`]) for the §5 borrow
/// pre-filters, which compare each attribute with every other.
pub struct AttrTable<'a> {
    ds: &'a Dataset,
    /// `rows[i][j]` profiles `ds.interfaces[i].attributes[j]`.
    rows: Vec<Vec<Profile>>,
}

impl<'a> AttrTable<'a> {
    /// Profile every attribute of `ds`.
    pub fn new(ds: &'a Dataset) -> Self {
        let rows = ds
            .interfaces
            .iter()
            .map(|i| {
                i.attributes
                    .iter()
                    .map(|a| Profile::new(&a.label, &a.instances))
                    .collect()
            })
            .collect();
        AttrTable { ds, rows }
    }

    /// An attribute and its profile.
    pub fn get(&self, r: AttrRef) -> Option<(&'a Attribute, &Profile)> {
        Some((self.ds.attribute(r)?, self.rows.get(r.0)?.get(r.1)?))
    }

    /// Every attribute with its profile, in dataset order.
    fn attributes(&self) -> impl Iterator<Item = (AttrRef, &'a Attribute, &Profile)> {
        self.ds
            .attributes()
            .zip(self.rows.iter().flatten())
            .map(|((r, a), p)| (r, a, p))
    }
}

/// Borrow candidates for an instance-less attribute (§5 case 1), ordered
/// by descending label similarity: candidates must have instances, live on
/// a different interface, carry a similar label (unless X₁'s label has no
/// content words), and their domain must differ from every instance-bearing
/// sibling on X₁'s interface. When the label filter eliminates everything
/// (hard-synonym labels), it is dropped and probing decides.
pub fn case1_candidates(table: &AttrTable<'_>, r1: AttrRef, cfg: &WebIQConfig) -> Vec<AttrRef> {
    let Some((_, x1)) = table.get(r1) else {
        return Vec::new();
    };
    let siblings: Vec<&ValueSet> = table
        .attributes()
        .filter(|&(r, a, _)| r.0 == r1.0 && r != r1 && a.has_instances())
        .map(|(_, _, p)| &p.values)
        .collect();

    let collect = |use_label_filter: bool| {
        let mut scored: Vec<(f64, AttrRef)> = Vec::new();
        for (ri, ai, pi) in table.attributes() {
            if ri.0 == r1.0 || !ai.has_instances() {
                continue;
            }
            let ls = x1.label_sim(pi);
            if cfg.borrow_prefilter {
                // Labels must be similar — unless X₁'s label has no content
                // words (bare prepositions), where only probing can decide.
                if use_label_filter && !x1.label.is_empty() && ls < cfg.borrow_label_sim {
                    continue;
                }
                // The candidate's domain must differ from every
                // instance-bearing sibling of X₁ (if a sibling already
                // covers that domain, X₁ is unlikely to be that concept).
                let clashes = siblings
                    .iter()
                    .any(|y| pi.values.sim(y) > cfg.borrow_sibling_dom_sim);
                if clashes {
                    continue;
                }
            }
            scored.push((ls, ri));
        }
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().map(|(_, r)| r).collect::<Vec<_>>()
    };
    let filtered = collect(true);
    if !filtered.is_empty() {
        return filtered;
    }
    // A hard-synonym label (`Manufacturer` among `Make`s) has *no*
    // label-similar candidate by definition; fall back to the
    // sibling-domain filter alone and let Deep-Web probing decide.
    collect(false)
}

/// Borrow candidates for an attribute with pre-defined instances (§5 case
/// 2): the candidate must share at least one very similar value pair
/// ("two values, one from each domain, which are very similar").
pub fn case2_candidates(table: &AttrTable<'_>, r1: AttrRef, cfg: &WebIQConfig) -> Vec<AttrRef> {
    let Some((_, x1)) = table.get(r1) else {
        return Vec::new();
    };
    table
        .attributes()
        .filter(|&(ri, ai, pi)| {
            ri.0 != r1.0
                && ai.has_instances()
                && (!cfg.borrow_prefilter || x1.values.has_similar_pair(&pi.values))
        })
        .map(|(ri, _, _)| ri)
        .collect()
}

/// What processing one attribute produced. Work items are independent, so
/// a pool of workers can compute these in any order; the merge back into
/// [`Acquisition`] happens sequentially in attribute order, making the
/// parallel result identical to the sequential one. Success flags and
/// query counts live in the item's trace counters (its [`ItemBuf`]); only
/// the acquired instances and what the store keeps ride here.
enum ItemOutcome {
    /// An instance-less attribute (§5 case 1).
    NoInst {
        got: Vec<String>,
        /// Deep-Web probe verdicts, `(lender reference, accepted)` in
        /// probe order — the expensive facts the knowledge store keeps.
        borrows: Vec<(String, bool)>,
    },
    /// A pre-defined attribute run through Attr-Surface (§5 case 2).
    Predefined {
        accepted: Vec<String>,
        /// The trained validation classifier's parameters, if training
        /// succeeded — persisted so a later run can rebuild the model
        /// without re-issuing its training queries.
        model: Option<attr_surface::ModelParams>,
    },
    /// A pre-defined attribute with Attr-Surface disabled.
    Skipped,
}

/// The shared, read-only context every acquisition work item sees.
struct AcquireCtx<'a> {
    ds: &'a Dataset,
    /// Every attribute of `ds` profiled once for the borrow pre-filters.
    table: &'a AttrTable<'a>,
    info: &'a DomainInfo,
    engine: &'a SearchEngine,
    sources: &'a [DeepSource],
    components: Components,
    cfg: &'a WebIQConfig,
    /// The resolved fault configuration (env knobs applied once).
    fault: &'a FaultConfig,
    /// The run-wide query meter — the one shared piece of resilience
    /// state (one run, one API key).
    quota: &'a QuotaTracker,
}

/// A candidate reference that no longer resolves in the dataset — an
/// internal inconsistency surfaced as an error instead of a panic.
fn dangling(cand: AttrRef) -> WebIqError {
    WebIqError::MissingAttribute {
        interface: cand.0,
        attribute: cand.1,
    }
}

/// Search-engine traffic (search + hit-count calls) recorded in a
/// counter delta — the per-section query accounting of Fig. 8.
fn engine_queries(delta: &MetricSet) -> u64 {
    delta.get(Counter::EngineSearchIssued) + delta.get(Counter::EngineHitIssued)
}

/// Process one attribute — the work-item wrapper. Opens the item's trace
/// (an `attribute` root span plus a counter baseline) and returns the
/// detached buffer alongside the outcome; the merge loop submits buffers
/// in attribute order, which is what keeps the event stream and the
/// derived report byte-identical for any worker count.
fn process_attribute(
    ctx: &AcquireCtx<'_>,
    r1: AttrRef,
    a1: &Attribute,
) -> Result<(ItemOutcome, bool, ItemBuf), WebIqError> {
    let item = ctx.cfg.tracer.item("attribute", &a1.label);
    webiq_trace::incr(Counter::AttrsTotal);
    let (outcome, degraded) = if ctx.fault.enabled() {
        // A fresh per-item resilience bundle: the clock, budget, and
        // breakers evolve single-threadedly inside this item, keeping
        // the outcome independent of the worker count.
        let res = Resilience::new(ctx.fault, ctx.quota);
        let engine = ResilientEngine::new(ctx.engine, &res);
        let outcome = attribute_body(ctx, r1, a1, &engine, Some(&res))?;
        if res.degraded() {
            webiq_trace::incr(Counter::FaultAttrsDegraded);
        }
        (outcome, res.degraded())
    } else {
        (attribute_body(ctx, r1, a1, ctx.engine, None)?, false)
    };
    Ok((outcome, degraded, item.finish()))
}

/// The §5 strategy body for one attribute. Reads shared state only
/// (`engine` and `sources` are internally synchronised); query accounting
/// uses the calling thread's trace counters, so the numbers are
/// deterministic whatever the cache state or worker count.
fn attribute_body<E: QueryEngine>(
    ctx: &AcquireCtx<'_>,
    r1: AttrRef,
    a1: &Attribute,
    engine: &E,
    res: Option<&Resilience<'_>>,
) -> Result<ItemOutcome, WebIqError> {
    let &AcquireCtx {
        ds,
        table,
        info,
        sources,
        components,
        cfg,
        ..
    } = ctx;
    if !a1.has_instances() {
        webiq_trace::incr(Counter::AttrsNoInstance);
        let mut got: Vec<String> = Vec::new();
        let mut borrows: Vec<(String, bool)> = Vec::new();

        // Step 1.a: discover from the Surface Web, scoping queries with
        // the domain terms and (when configured) keywords from the
        // sibling attributes' labels (§2.1).
        if components.surface {
            let _span = webiq_trace::span("surface");
            let before = webiq_trace::snapshot();
            let mut attr_info = info.clone();
            attr_info.sibling_terms = sibling_terms(ds, r1);
            let result = webiq_prof::time(Stage::Extract, || {
                surface::discover(engine, &a1.label, &attr_info, cfg)
            });
            let delta = webiq_trace::snapshot().diff(&before);
            webiq_trace::add(Counter::SurfaceQueries, engine_queries(&delta));
            got = result.texts();
        }
        let surface_success = got.len() >= cfg.k;
        if surface_success {
            webiq_trace::incr(Counter::SurfaceSuccess);
        }
        let mut surface_deep_success = surface_success;
        if !surface_success && components.attr_deep && !sources.is_empty() {
            // Step 1.b: borrow and validate via the Deep Web. Probing is
            // expensive, so candidates whose domain resembles one already
            // probed (either way) are skipped — each probe round-trip
            // then tests a genuinely new domain.
            let _span = webiq_trace::span("attr_deep");
            let before = webiq_trace::snapshot();
            let candidates = case1_candidates(table, r1, cfg);
            let mut accepted_domains: Vec<&ValueSet> = Vec::new();
            let mut failed_domains: Vec<&ValueSet> = Vec::new();
            let mut tried = 0usize;
            for cand in candidates {
                if tried >= 12 {
                    break;
                }
                webiq_trace::incr(Counter::BorrowCandidates);
                let (lender, lender_profile) = table.get(cand).ok_or_else(|| dangling(cand))?;
                let inst = &lender.instances;
                let inst_set = &lender_profile.values;
                let lender_ref = format!("{}/{} {}", cand.0, cand.1, lender.label);
                let take_all = |got: &mut Vec<String>| {
                    for v in inst {
                        if !contains_ci(got, v) {
                            got.push(v.clone());
                        }
                    }
                };
                // Same domain as an already-validated one → borrow
                // without re-probing; same as a failed one → skip. The best
                // similarity (not just the >0.5 test) is recorded as the
                // decision's evidence.
                let best_accepted = accepted_domains
                    .iter()
                    .map(|p| p.sim(inst_set))
                    .fold(0.0f64, f64::max);
                let best_failed = failed_domains
                    .iter()
                    .map(|p| p.sim(inst_set))
                    .fold(0.0f64, f64::max);
                if best_accepted > 0.5 {
                    webiq_trace::incr(Counter::BorrowReused);
                    webiq_why::record::borrow_reuse(
                        &lender_ref,
                        true,
                        &[("dom_sim", best_accepted), ("threshold", 0.5)],
                    );
                    take_all(&mut got);
                } else if best_failed > 0.5 {
                    webiq_trace::incr(Counter::BorrowSkipped);
                    webiq_why::record::borrow_reuse(
                        &lender_ref,
                        false,
                        &[("dom_sim", best_failed), ("threshold", 0.5)],
                    );
                    continue;
                } else {
                    tried += 1;
                    webiq_trace::incr(Counter::BorrowProbed);
                    let outcome = webiq_prof::time(Stage::Borrow, || match res {
                        Some(res) => attr_deep::validate_borrowed(
                            &ResilientSource::new(&sources[r1.0], res),
                            &a1.name,
                            inst,
                            cfg,
                        ),
                        None => attr_deep::validate_borrowed(&sources[r1.0], &a1.name, inst, cfg),
                    });
                    borrows.push((lender_ref.clone(), outcome.accepted));
                    webiq_why::record::probe_verify(
                        &lender_ref,
                        outcome.accepted,
                        &[
                            ("probed", outcome.probed as f64),
                            ("successes", outcome.successes as f64),
                            (
                                "ratio",
                                outcome.successes as f64 / outcome.probed.max(1) as f64,
                            ),
                            ("accept_ratio", cfg.probe_accept_ratio),
                        ],
                    );
                    if outcome.accepted {
                        webiq_trace::incr(Counter::BorrowAccepted);
                        accepted_domains.push(inst_set);
                        take_all(&mut got);
                    } else {
                        webiq_trace::incr(Counter::BorrowRejected);
                        failed_domains.push(inst_set);
                    }
                }
                if got.len() >= cfg.k {
                    break;
                }
            }
            let probes = webiq_trace::snapshot()
                .diff(&before)
                .get(Counter::ProbesIssued);
            webiq_trace::add(Counter::AttrDeepProbes, probes);
            webiq_trace::observe(HistKey::ProbesPerAttr, probes);
            surface_deep_success = got.len() >= cfg.k;
        }
        if surface_deep_success {
            webiq_trace::incr(Counter::SurfaceDeepSuccess);
        }
        Ok(ItemOutcome::NoInst { got, borrows })
    } else if components.attr_surface {
        // Step 2: borrow for a pre-defined attribute, validate via the
        // Surface Web (the Deep Web cannot be probed with values outside
        // the pre-defined list).
        webiq_trace::incr(Counter::AttrsPredefined);
        let _span = webiq_trace::span("attr_surface");
        let before = webiq_trace::snapshot();
        let candidates = case2_candidates(table, r1, cfg);
        let mut pool: Vec<String> = Vec::new();
        for cand in candidates.into_iter().take(8) {
            for v in &ds.attribute(cand).ok_or_else(|| dangling(cand))?.instances {
                if !contains_ci(&a1.instances, v) && !contains_ci(&pool, v) {
                    pool.push(v.clone());
                }
            }
        }
        pool.truncate(15);
        let mut accepted = Vec::new();
        let mut model = None;
        if !pool.is_empty() {
            let negatives: Vec<String> = ds.interfaces[r1.0]
                .attributes
                .iter()
                .enumerate()
                .filter(|(j, a)| *j != r1.1 && a.has_instances())
                .flat_map(|(_, a)| a.instances.iter().take(2).cloned())
                .collect();
            (accepted, model) = webiq_prof::time(Stage::Bayes, || {
                attr_surface::verify_borrowed_with_model(
                    engine,
                    &a1.label,
                    &a1.instances,
                    &negatives,
                    &pool,
                    cfg,
                )
            });
        }
        let delta = webiq_trace::snapshot().diff(&before);
        webiq_trace::add(Counter::AttrSurfaceQueries, engine_queries(&delta));
        if !accepted.is_empty() {
            webiq_trace::incr(Counter::AttrSurfaceEnriched);
        }
        Ok(ItemOutcome::Predefined { accepted, model })
    } else {
        webiq_trace::incr(Counter::AttrsSkipped);
        Ok(ItemOutcome::Skipped)
    }
}

/// Run the full §5 acquisition strategy over a domain's dataset.
///
/// `sources[i]` must be the Deep-Web source behind `ds.interfaces[i]`
/// (empty slice disables Attr-Deep regardless of `components`).
///
/// Attributes are independent work items dispatched over a scoped worker
/// pool ([`WebIQConfig::resolved_threads`] workers; see also the
/// `WEBIQ_THREADS` env var). Outcomes — including each item's trace
/// buffer — are merged in attribute order, so the acquired-instance maps,
/// the report, and the emitted trace-event stream are byte-identical to
/// a single-threaded run. The report itself is
/// [`AcquisitionReport::from_metrics`] over the merged per-item counter
/// deltas, so it always equals the trace aggregate.
///
/// # Errors
///
/// Returns [`WebIqError::MissingAttribute`] if a borrow candidate no
/// longer resolves in the dataset, and [`WebIqError::WorkerFailed`] if an
/// acquisition worker terminates abnormally.
pub fn acquire(
    ds: &Dataset,
    def: &DomainDef,
    engine: &SearchEngine,
    sources: &[DeepSource],
    components: Components,
    cfg: &WebIQConfig,
) -> Result<Acquisition, WebIqError> {
    let info = DomainInfo {
        object: def.object.to_string(),
        domain_terms: def.domain_terms.iter().map(|s| (*s).to_string()).collect(),
        sibling_terms: Vec::new(), // filled per attribute in process_attribute
    };

    let fault = cfg.resolved_fault();

    // Warm start: a completed run with an identical input fingerprint
    // replays from the store — byte-identical acquired instances and
    // report, no engine traffic. The fingerprint covers everything that
    // determines the output (dataset, components, config knobs, fault
    // plan, corpus size) except the worker count, which never changes
    // the output (see DESIGN.md).
    let fingerprint =
        persist::run_fingerprint(ds, def, components, cfg, &fault, engine.doc_count() as u64);
    if let Some(store) = &cfg.store {
        if let Some(warm) = store.warm_run(&ds.domain, fingerprint) {
            webiq_trace::incr(Counter::StoreWarmHit);
            return Ok(persist::rebuild_acquisition(&warm));
        }
        webiq_trace::incr(Counter::StoreWarmMiss);
    }

    let quota = QuotaTracker::new(fault.daily_quota);
    let table = AttrTable::new(ds);
    let ctx = AcquireCtx {
        ds,
        table: &table,
        info: &info,
        engine,
        sources,
        components,
        cfg,
        fault: &fault,
        quota: &quota,
    };
    let items: Vec<(AttrRef, &Attribute)> = ds.attributes().collect();
    if let Some(obs) = &cfg.obs {
        obs.gauge(Gauge::Interfaces, ds.interfaces.len() as u64);
        obs.gauge(Gauge::Attributes, items.len() as u64);
        obs.gauge(Gauge::CorpusDocs, engine.doc_count() as u64);
    }
    let scope = cfg.tracer.scope("acquire", &ds.domain);
    let workers = cfg.resolved_threads().min(items.len().max(1));
    type Item = (ItemOutcome, bool, ItemBuf);
    let outcomes: Vec<Item> = if workers <= 1 {
        let before = webiq_trace::snapshot();
        let out = items
            .iter()
            .map(|&(r1, a1)| process_attribute(&ctx, r1, a1))
            .collect::<Result<_, _>>()?;
        let delta = webiq_trace::snapshot().diff(&before);
        webiq_prof::record_worker(items.len() as u64, engine_queries(&delta));
        out
    } else {
        // Work-stealing by atomic index: each worker pulls the next
        // unclaimed attribute, tags its outcome with the item index, and
        // the merge below re-establishes attribute order.
        let next = AtomicUsize::new(0);
        let mut indexed: Vec<(usize, Item)> =
            std::thread::scope(|scope| -> Result<Vec<(usize, Item)>, WebIqError> {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let (items, ctx, next) = (&items, &ctx, &next);
                        scope.spawn(move || {
                            let before = webiq_trace::snapshot();
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(&(r1, a1)) = items.get(i) else { break };
                                local.push((i, process_attribute(ctx, r1, a1)));
                            }
                            // Per-worker load accounting: items claimed and
                            // engine traffic issued feed the imbalance
                            // telemetry behind `webiq_prof_worker_*`.
                            let delta = webiq_trace::snapshot().diff(&before);
                            webiq_prof::record_worker(local.len() as u64, engine_queries(&delta));
                            local
                        })
                    })
                    .collect();
                let mut indexed = Vec::with_capacity(items.len());
                for h in handles {
                    let local = h.join().map_err(|_| WebIqError::WorkerFailed {
                        stage: "acquisition",
                    })?;
                    for (i, res) in local {
                        indexed.push((i, res?));
                    }
                }
                Ok(indexed)
            })?;
        indexed.sort_unstable_by_key(|&(i, _)| i);
        indexed.into_iter().map(|(_, o)| o).collect()
    };

    // The deterministic merge: fold item buffers into the run totals and
    // the tracer (assigning the logical clock here, in attribute order),
    // and collect the acquired instances.
    let mut acq = Acquisition::default();
    let mut total = MetricSet::new();
    for (&(r1, a1), (outcome, degraded, buf)) in items.iter().zip(outcomes) {
        if degraded {
            acq.degraded.insert(r1);
        }
        total.merge(buf.totals());
        // Publish the same deterministic per-item deltas the tracer
        // receives, so a post-run /metrics scrape matches the trace at
        // any worker count.
        if let Some(obs) = &cfg.obs {
            obs.publish_item(buf.totals(), buf.hists());
        }
        cfg.tracer.submit(buf);
        // Persist this item's facts through the store's fsync'd log.
        // Writes happen only here, in the single-threaded merge loop,
        // so the log's record order is attribute order at any worker
        // count. A failed write aborts the run with the store's path
        // and operation attached — the run-complete marker below is
        // then never written, so a later run re-acquires cold instead
        // of trusting a partial log.
        let acquired_values = match (&outcome, &cfg.store) {
            (ItemOutcome::NoInst { got, borrows, .. }, Some(store)) => {
                for (lender, accepted) in borrows {
                    store.put(Record::Borrow(BorrowRecord {
                        domain: ds.domain.clone(),
                        attr: a1.label.clone(),
                        lender: lender.clone(),
                        accepted: *accepted,
                    }))?;
                }
                Some(got)
            }
            (
                ItemOutcome::Predefined {
                    accepted, model, ..
                },
                Some(store),
            ) => {
                if let Some(m) = model {
                    store.put(Record::Model(ModelRecord {
                        domain: ds.domain.clone(),
                        attr: a1.label.clone(),
                        n_features: m.n_features,
                        prior_pos: m.prior_pos,
                        p_true_pos: m.p_true_pos.clone(),
                        p_true_neg: m.p_true_neg.clone(),
                    }))?;
                }
                Some(accepted)
            }
            _ => None,
        };
        if let (Some(values), Some(store)) = (acquired_values, &cfg.store) {
            if !values.is_empty() || degraded {
                store.put(Record::Instances(InstanceRecord {
                    domain: ds.domain.clone(),
                    fingerprint,
                    iface: r1.0 as u32,
                    attr: r1.1 as u32,
                    values: values.clone(),
                    degraded,
                }))?;
            }
        }
        match outcome {
            ItemOutcome::NoInst { got: values, .. }
            | ItemOutcome::Predefined {
                accepted: values, ..
            } => {
                if !values.is_empty() {
                    acq.acquired.insert(r1, values);
                }
            }
            ItemOutcome::Skipped => {}
        }
    }
    acq.report = AcquisitionReport::from_metrics(&total);
    if let Some(store) = &cfg.store {
        // The commit marker: its counters are both the warm-start
        // report source and the proof the run persisted completely. It
        // is the last record, so any crash before this point leaves no
        // marker and the next run misses.
        store.put(Record::RunComplete(RunCompleteRecord {
            domain: ds.domain.clone(),
            fingerprint,
            counters: persist::counter_pairs(&total),
        }))?;
        store.compact()?;
    }
    if let Some(obs) = &cfg.obs {
        obs.end_epoch();
    }
    drop(scope);
    Ok(acq)
}

#[cfg(test)]
mod candidate_tests {
    use super::*;
    use webiq_data::interface::{Attribute, Interface};

    fn attr(name: &str, label: &str, concept: &str, instances: &[&str]) -> Attribute {
        Attribute {
            name: name.into(),
            label: label.into(),
            concept: concept.into(),
            instances: instances.iter().map(|s| (*s).to_string()).collect(),
            default: None,
        }
    }

    /// Interface 0: text `From` + month select. Interfaces 1–2: city and
    /// month selects under various labels.
    fn dataset() -> Dataset {
        let mk = |id: usize, attrs: Vec<Attribute>| Interface {
            id,
            domain: "airfare".into(),
            site: format!("site{id}"),
            attributes: attrs,
        };
        Dataset {
            domain: "airfare".into(),
            interfaces: vec![
                mk(
                    0,
                    vec![
                        attr("from", "From city", "from_city", &[]),
                        attr(
                            "dep",
                            "Departure date",
                            "depart_date",
                            &["Jan", "Feb", "Mar", "Apr"],
                        ),
                    ],
                ),
                mk(
                    1,
                    vec![
                        attr(
                            "from",
                            "Departure city",
                            "from_city",
                            &["Boston", "Chicago", "Denver"],
                        ),
                        attr("dep", "Departure on", "depart_date", &["May", "Jun", "Jul"]),
                    ],
                ),
                mk(
                    2,
                    vec![attr(
                        "city",
                        "From city",
                        "from_city",
                        &["Miami", "Austin", "Tampa"],
                    )],
                ),
            ],
        }
    }

    #[test]
    fn case1_excludes_own_interface_and_sibling_domains() {
        let ds = dataset();
        let cfg = WebIQConfig::default();
        // X1 = the text "From city" attr on interface 0; its sibling has a
        // month domain, so month-valued candidates are filtered out.
        let candidates = case1_candidates(&AttrTable::new(&ds), (0, 0), &cfg);
        assert!(candidates.contains(&(1, 0)), "{candidates:?}");
        assert!(candidates.contains(&(2, 0)), "{candidates:?}");
        assert!(
            !candidates.contains(&(1, 1)),
            "month attr clashes with the month sibling: {candidates:?}"
        );
        assert!(
            !candidates.iter().any(|r| r.0 == 0),
            "own interface excluded"
        );
    }

    #[test]
    fn case1_orders_by_label_similarity() {
        let ds = dataset();
        let cfg = WebIQConfig::default();
        let candidates = case1_candidates(&AttrTable::new(&ds), (0, 0), &cfg);
        // the identically labelled (2,0) must rank above (1,0)
        let pos = |r: AttrRef| candidates.iter().position(|c| *c == r).expect("present");
        assert!(pos((2, 0)) < pos((1, 0)), "{candidates:?}");
    }

    #[test]
    fn case1_without_prefilter_returns_everything_foreign() {
        let ds = dataset();
        let cfg = WebIQConfig {
            borrow_prefilter: false,
            ..WebIQConfig::default()
        };
        let candidates = case1_candidates(&AttrTable::new(&ds), (0, 0), &cfg);
        assert_eq!(candidates.len(), 3); // (1,0), (1,1), (2,0)
    }

    /// Case-2 candidates of the month select on interface 0 once its
    /// pre-defined instances are `own`.
    fn case2_with(own: &[&str]) -> Vec<AttrRef> {
        let mut ds = dataset();
        ds.interfaces[0].attributes[1].instances = own.iter().map(|s| (*s).to_string()).collect();
        case2_candidates(&AttrTable::new(&ds), (0, 1), &WebIQConfig::default())
    }

    #[test]
    fn case2_requires_similar_value_pair() {
        // X1 = the month select on interface 0 (Jan..Apr); candidate months
        // on interface 1 are May..Jul — no similar value → not a candidate.
        let candidates = case2_with(&["Jan", "Feb", "Mar", "Apr"]);
        assert!(candidates.is_empty(), "{candidates:?}");

        // sharing one value (case-insensitively) admits the candidate
        let candidates = case2_with(&["jun", "Dec"]);
        assert!(candidates.contains(&(1, 1)), "{candidates:?}");
    }

    #[test]
    fn case2_spelling_variants_count_as_similar() {
        let candidates = case2_with(&["Bostonn"]); // 1 edit from Boston
        assert!(candidates.contains(&(1, 0)), "{candidates:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webiq_data::records::{build_deep_source, RecordOptions};
    use webiq_data::{corpus, generate_domain, kb, GenOptions};
    use webiq_web::{gen, GenConfig};

    fn setup(domain: &str) -> (Dataset, &'static DomainDef, SearchEngine, Vec<DeepSource>) {
        let def = kb::domain(domain).expect("domain");
        let ds = generate_domain(def, &GenOptions::default());
        let engine = SearchEngine::new(gen::generate(
            &corpus::concept_specs(def),
            &GenConfig::default(),
        ))
        .expect("engine");
        let sources = ds
            .interfaces
            .iter()
            .map(|i| build_deep_source(def, i, &RecordOptions::default()))
            .collect();
        (ds, def, engine, sources)
    }

    #[test]
    fn acquisition_gathers_instances_for_no_inst_attrs() {
        let (ds, def, engine, sources) = setup("book");
        let cfg = WebIQConfig::default();
        let acq =
            acquire(&ds, def, &engine, &sources, Components::SURFACE_DEEP, &cfg).expect("acquire");
        assert!(acq.report.no_inst_attrs > 0);
        assert!(
            acq.report.surface_success > 0,
            "no Surface successes: {:?}",
            acq.report
        );
        assert!(acq.report.surface_deep_success >= acq.report.surface_success);
        assert!(acq.report.surface_cost.engine_queries > 0);
    }

    #[test]
    fn deep_validation_improves_on_surface_alone() {
        let (ds, def, engine, sources) = setup("airfare");
        let cfg = WebIQConfig::default();
        let surface_only =
            acquire(&ds, def, &engine, &sources, Components::SURFACE, &cfg).expect("acquire");
        let with_deep =
            acquire(&ds, def, &engine, &sources, Components::SURFACE_DEEP, &cfg).expect("acquire");
        assert!(
            with_deep.report.surface_deep_success_rate()
                >= surface_only.report.surface_success_rate(),
            "deep must not hurt: {:?} vs {:?}",
            with_deep.report.surface_deep_success_rate(),
            surface_only.report.surface_success_rate()
        );
        assert!(with_deep.report.attr_deep_cost.probes > 0);
    }

    #[test]
    fn none_components_acquire_nothing() {
        let (ds, def, engine, sources) = setup("auto");
        let cfg = WebIQConfig::default();
        let acq = acquire(&ds, def, &engine, &sources, Components::NONE, &cfg).expect("acquire");
        assert!(acq.acquired.is_empty());
        assert_eq!(acq.report.surface_success, 0);
    }

    #[test]
    fn attr_surface_enriches_predefined_attributes() {
        let (ds, def, engine, sources) = setup("airfare");
        let cfg = WebIQConfig::default();
        let acq = acquire(&ds, def, &engine, &sources, Components::ALL, &cfg).expect("acquire");
        assert!(
            acq.report.attr_surface_enriched > 0,
            "Attr-Surface enriched nothing: {:?}",
            acq.report
        );
    }

    #[test]
    fn acquired_values_do_not_duplicate_predefined_ones() {
        let (ds, def, engine, sources) = setup("airfare");
        let cfg = WebIQConfig::default();
        let acq = acquire(&ds, def, &engine, &sources, Components::ALL, &cfg).expect("acquire");
        for (r, acquired) in &acq.acquired {
            let a = ds.attribute(*r).expect("attr");
            for v in acquired {
                assert!(
                    !a.instances.iter().any(|p| p.eq_ignore_ascii_case(v)),
                    "{v} duplicated for {r:?}"
                );
            }
        }
    }

    #[test]
    fn success_rates_are_percentages() {
        let (ds, def, engine, sources) = setup("job");
        let cfg = WebIQConfig::default();
        let acq =
            acquire(&ds, def, &engine, &sources, Components::SURFACE_DEEP, &cfg).expect("acquire");
        let s = acq.report.surface_success_rate();
        let sd = acq.report.surface_deep_success_rate();
        assert!((0.0..=100.0).contains(&s));
        assert!((0.0..=100.0).contains(&sd));
        assert!(sd >= s);
    }
}
