//! The four workloads, one timed pass of each, and the output digests
//! every pass is checked by.
//!
//! A *pass* is what one user run of WebIQ does: for each of the five
//! domains, acquire instances with every component (`Components::ALL`)
//! and match the enriched interfaces at the paper's threshold. A run
//! cycles through [`DATASETS`] datasets made from its seed, so
//! the numbers it reports average over inputs instead of describing one.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use webiq::core::{Components, WebIQConfig};
use webiq::data::AttrRef;
use webiq::matcher::{MatchConfig, MatchResult};
use webiq::obs::LiveRegistry;
use webiq::pipeline::{DomainPipeline, THRESHOLD};
use webiq::prof::ProfSnapshot;
use webiq::store::Store;
use webiq::trace::{SharedBuf, Tracer};

use crate::measure::{process_cpu_secs, secs, span, Fnv, HostProbe, Recorder, Scratch};

/// The paper's five evaluation domains.
pub const DOMAINS: [&str; 5] = ["airfare", "auto", "book", "job", "realestate"];

/// Datasets (each five domains × 20 interfaces) a run cycles through.
/// Over 48 datasets the probe count varies by 12% (coefficient of
/// variation) and the pass time, host noise aside, by about 7%; the mean
/// over eight varies about a third as much.
pub const DATASETS: usize = 8;

/// Acquisition workers: the host's two cores. Matching is
/// single-threaded, as the library runs it.
pub const WORKERS: usize = 2;

/// Simulated round-trip charged to every cache-missing engine query on
/// the `latency` workload. At 150 µs the round-trips are about half of a
/// one-worker pass, while a warm-up and a whole cycle of [`DATASETS`]
/// passes still fit in one run on a host 40% slower than the reference,
/// so every workload averages over the same datasets.
pub const LATENCY_US: u64 = 150;

/// One set of inputs and configuration the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh pipelines per pass (cold engine caches), no simulated
    /// latency and no optional layer: our own CPU work.
    Compute,
    /// `Compute` with [`LATENCY_US`] per engine round-trip: how well
    /// the workers hide round-trips.
    Latency,
    /// Each pass reopens a store persisted in set-up and acquires from
    /// it (0 engine queries): the store read path plus the matcher.
    Warm,
    /// `Compute` with every optional layer on: JSONL tracer, live
    /// registry, a fresh store per pass, traced matching.
    Observed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Compute,
        Workload::Latency,
        Workload::Warm,
        Workload::Observed,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compute => "compute",
            Workload::Latency => "latency",
            Workload::Warm => "warm",
            Workload::Observed => "observed",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated engine latency of this workload's pipelines.
    pub fn latency_us(self) -> u64 {
        if self == Workload::Latency {
            LATENCY_US
        } else {
            0
        }
    }
}

/// The dataset seeds of a run: the run seed itself first, so the
/// committed paper seed is always among its own run's inputs, then
/// SplitMix64 draws from it.
pub fn dataset_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    let mut out = vec![seed];
    while out.len() < n {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        out.push(z ^ (z >> 31));
    }
    out
}

/// Build one dataset's pipelines (dataset, simulated Web, sources).
pub fn build_pipelines(
    seed: u64,
    domains: &[&'static str],
    latency_us: u64,
) -> Result<Vec<DomainPipeline>, String> {
    domains
        .iter()
        .map(|d| {
            let p = DomainPipeline::build(d, seed).map_err(|e| format!("build {d}: {e}"))?;
            p.engine.set_simulated_latency_us(latency_us);
            Ok(p)
        })
        .collect()
}

/// Engine and source traffic of one domain's cold acquisition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Search plus hit-count calls issued.
    pub queries: u64,
    /// Calls that missed the engine's caches (`EngineStats::total`).
    pub round_trips: u64,
    /// Deep-Web probe submissions.
    pub probes: u64,
}

impl Counts {
    fn of(p: &DomainPipeline) -> Counts {
        Counts {
            queries: p.engine.stats().total_issued(),
            round_trips: p.engine.stats().total(),
            probes: p
                .sources
                .iter()
                .map(webiq::deep::DeepSource::probe_count)
                .sum(),
        }
    }

    /// The traffic of `runs`, summed.
    pub fn sum(runs: &[DomainRun]) -> Counts {
        runs.iter().fold(Counts::default(), |a, d| Counts {
            queries: a.queries + d.counts.queries,
            round_trips: a.round_trips + d.counts.round_trips,
            probes: a.probes + d.counts.probes,
        })
    }
}

/// What one domain's request produced and cost.
#[derive(Debug, Clone)]
pub struct DomainRun {
    /// Domain key.
    pub domain: &'static str,
    /// Matching F-1 against gold, in percent.
    pub f1_pct: f64,
    /// Digest of the acquired instances.
    pub instances: u64,
    /// Digest of the predicted match pairs.
    pub pairs: u64,
    /// Acquisition wall seconds.
    pub acquire_s: f64,
    /// Process CPU seconds during acquisition.
    pub acquire_cpu_s: f64,
    /// Enrichment, matching and evaluation wall seconds.
    pub match_s: f64,
    /// The library's own attribution (`webiq::prof`) of the acquisition
    /// and matching: stage times, cache and lock counters, worker load.
    pub prof: ProfSnapshot,
    /// Traffic of this dataset's cold acquisition (on `warm`, the
    /// set-up's; a warm pass issues none).
    pub counts: Counts,
    /// The pass's own consistency checks held (on `warm`: a hit with no
    /// engine traffic that replays the cold instances).
    pub ok: bool,
}

impl DomainRun {
    /// Acquire plus match: the latency of one domain's request.
    pub fn request_s(&self) -> f64 {
        self.acquire_s + self.match_s
    }
}

/// The optional layers an `observed` pass leaves behind, for the traced
/// run's per-layer numbers.
pub struct ObservedLayers {
    /// The JSONL trace of the pass.
    pub trace: SharedBuf,
    /// The live registry the pass published into.
    pub registry: Arc<LiveRegistry>,
    /// The store the pass wrote.
    pub store_dir: PathBuf,
}

/// One timed pass.
pub struct Pass {
    /// Index of the dataset in the run's cycle.
    pub dataset: usize,
    /// Seconds to build the pass's pipelines (`None` on `warm`, whose
    /// set-up happens once per dataset in [`Runner::prepare`]).
    pub setup_s: Option<f64>,
    /// Wall seconds of the pass.
    pub pass_s: f64,
    /// [`HostProbe::factor`] around the set-up and the pass.
    pub host: f64,
    /// Seconds of the pass spent waiting on simulated round-trips: the
    /// round-trips times their latency, spread over the workers.
    pub round_trip_s: f64,
    /// Per-domain outcomes, in [`DOMAINS`] order.
    pub domains: Vec<DomainRun>,
    /// Set on `observed` passes.
    pub observed: Option<ObservedLayers>,
}

impl Pass {
    /// The pass's seconds at the reference host's speed: the waits on
    /// simulated round-trips keep their length, the rest is divided by
    /// the host factor.
    pub fn scaled_s(&self) -> f64 {
        let waiting = self.round_trip_s.min(self.pass_s);
        waiting + (self.pass_s - waiting) / self.host
    }

    /// The pass's traffic, summed over its domains.
    pub fn counts(&self) -> Counts {
        Counts::sum(&self.domains)
    }

    /// Mean matching F-1 over the pass's domains, in percent.
    pub fn f1_pct(&self) -> f64 {
        let sum: f64 = self.domains.iter().map(|d| d.f1_pct).sum();
        sum / self.domains.len().max(1) as f64
    }
}

/// Digest of an acquisition's instances, in attribute order.
pub fn instances_digest(acquired: &BTreeMap<AttrRef, Vec<String>>) -> u64 {
    let mut h = Fnv::default();
    for (r, values) in acquired {
        h.write(format!("{}/{}", r.0, r.1).as_bytes());
        for v in values {
            h.write(v.as_bytes());
        }
    }
    h.finish()
}

/// Digest of the predicted match pairs, in pair order.
pub fn pairs_digest(result: &MatchResult) -> u64 {
    let mut h = Fnv::default();
    for (a, b) in result.pairs() {
        h.write(format!("{}/{}-{}/{}", a.0, a.1, b.0, b.1).as_bytes());
    }
    h.finish()
}

/// The acquisition configuration every pass starts from: `workers`
/// workers and no optional layer.
fn config(workers: usize) -> WebIQConfig {
    WebIQConfig {
        threads: Some(workers),
        ..WebIQConfig::default()
    }
}

/// Acquire and match one domain, inside spans of `rec` when given.
pub fn run_domain(
    p: &DomainPipeline,
    cfg: &WebIQConfig,
    tracer: Option<&Tracer>,
    rec: Option<&Recorder>,
) -> Result<DomainRun, String> {
    webiq::prof::reset();
    let cpu0 = process_cpu_secs();
    let t0 = Instant::now();
    let acq = span(rec, "core.acquire", || p.acquire(Components::ALL, cfg))
        .map_err(|e| format!("acquire {}: {e}", p.def.key))?;
    let acquire_s = secs(t0);
    let acquire_cpu_s = process_cpu_secs() - cpu0;
    let t1 = Instant::now();
    let attrs = span(rec, "matcher.enrich", || p.enriched_attributes(&acq));
    let mcfg = MatchConfig::with_threshold(THRESHOLD);
    let (result, prf) = span(rec, "matcher.match", || match tracer {
        Some(t) => p.match_and_evaluate_traced(&attrs, &mcfg, t),
        None => p.match_and_evaluate(&attrs, &mcfg),
    });
    let match_s = secs(t1);
    Ok(DomainRun {
        domain: p.def.key,
        f1_pct: prf.f1_pct(),
        instances: instances_digest(&acq.acquired),
        pairs: pairs_digest(&result),
        acquire_s,
        acquire_cpu_s,
        match_s,
        prof: webiq::prof::snapshot(),
        counts: Counts::of(p),
        ok: true,
    })
}

/// What `warm`'s set-up persisted for one dataset.
struct ColdRun {
    store_dir: PathBuf,
    instances: Vec<u64>,
    counts: Vec<Counts>,
}

/// Runs passes of one workload over one run's datasets.
pub struct Runner<'a> {
    workload: Workload,
    seeds: Vec<u64>,
    domains: &'a [&'static str],
    workers: usize,
    scratch: &'a Scratch,
    host: HostProbe,
    cold: Vec<ColdRun>,
    passes_run: usize,
}

impl<'a> Runner<'a> {
    /// A runner over the datasets `seeds`.
    pub fn new(
        workload: Workload,
        seeds: Vec<u64>,
        domains: &'a [&'static str],
        workers: usize,
        scratch: &'a Scratch,
    ) -> Self {
        Runner {
            workload,
            seeds,
            domains,
            workers,
            scratch,
            host: HostProbe::new(),
            cold: Vec::new(),
            passes_run: 0,
        }
    }

    /// `warm` only: one cold, persisting acquisition per dataset into
    /// its own store. Returns each dataset's set-up seconds (pipelines
    /// plus the cold acquisition) at the reference host speed; empty for
    /// the other workloads, which set up inside every pass.
    pub fn prepare(&mut self) -> Result<Vec<f64>, String> {
        if self.workload != Workload::Warm {
            return Ok(Vec::new());
        }
        let mut setups = Vec::new();
        for (j, &seed) in self.seeds.iter().enumerate() {
            let store_dir = self.scratch.path(&format!("warm-{j}"));
            let before = self.host.factor();
            let t = Instant::now();
            let pipelines = build_pipelines(seed, self.domains, 0)?;
            let store = Arc::new(Store::open(&store_dir).map_err(|e| format!("store: {e}"))?);
            let cfg = WebIQConfig {
                store: Some(store),
                ..config(self.workers)
            };
            let mut instances = Vec::new();
            let mut counts = Vec::new();
            for p in &pipelines {
                let acq = p
                    .acquire(Components::ALL, &cfg)
                    .map_err(|e| format!("acquire {}: {e}", p.def.key))?;
                instances.push(instances_digest(&acq.acquired));
                counts.push(Counts::of(p));
            }
            setups.push(secs(t) / ((before + self.host.factor()) / 2.0));
            self.cold.push(ColdRun {
                store_dir,
                instances,
                counts,
            });
        }
        Ok(setups)
    }

    /// Run one pass over dataset `j`.
    pub fn pass(&mut self, j: usize) -> Result<Pass, String> {
        let seed = *self.seeds.get(j).ok_or("dataset index out of range")?;
        self.passes_run += 1;
        let before = self.host.factor();
        let (setup_s, (pass_s, (domains, observed))) = match self.workload {
            Workload::Compute | Workload::Latency => {
                let t = Instant::now();
                let pipelines = build_pipelines(seed, self.domains, self.workload.latency_us())?;
                let setup_s = secs(t);
                let cfg = config(self.workers);
                let body = timed(|| {
                    let runs = pipelines
                        .iter()
                        .map(|p| run_domain(p, &cfg, None, None))
                        .collect::<Result<_, _>>()?;
                    Ok((runs, None))
                })?;
                (Some(setup_s), body)
            }
            Workload::Observed => {
                let t = Instant::now();
                let pipelines = build_pipelines(seed, self.domains, 0)?;
                let setup_s = secs(t);
                let store_dir = self.scratch.path(&format!("observed-{}", self.passes_run));
                let body = timed(|| {
                    let store =
                        Arc::new(Store::open(&store_dir).map_err(|e| format!("store: {e}"))?);
                    let trace = SharedBuf::new();
                    let tracer = Tracer::jsonl(Box::new(trace.clone()));
                    let registry = Arc::new(LiveRegistry::new());
                    let cfg = WebIQConfig {
                        tracer: tracer.clone(),
                        obs: Some(Arc::clone(&registry)),
                        store: Some(store),
                        ..config(self.workers)
                    };
                    let runs = pipelines
                        .iter()
                        .map(|p| run_domain(p, &cfg, Some(&tracer), None))
                        .collect::<Result<_, _>>()?;
                    tracer.flush();
                    std::hint::black_box(registry.render());
                    let layers = ObservedLayers {
                        trace,
                        registry,
                        store_dir: store_dir.clone(),
                    };
                    Ok((runs, Some(layers)))
                })?;
                (Some(setup_s), body)
            }
            Workload::Warm => {
                let cold = self.cold.get(j).ok_or("warm pass before set-up")?;
                let pipelines = build_pipelines(seed, self.domains, 0)?;
                let body = timed(|| {
                    let store =
                        Arc::new(Store::open(&cold.store_dir).map_err(|e| format!("store: {e}"))?);
                    let cfg = WebIQConfig {
                        store: Some(store),
                        ..config(self.workers)
                    };
                    let mut runs = Vec::new();
                    for (i, p) in pipelines.iter().enumerate() {
                        let mut run = run_domain(p, &cfg, None, None)?;
                        let hit = run.counts == Counts::default();
                        run.ok = hit && cold.instances.get(i) == Some(&run.instances);
                        run.counts = cold.counts.get(i).copied().unwrap_or_default();
                        runs.push(run);
                    }
                    Ok((runs, None))
                })?;
                (None, body)
            }
        };
        let round_trips = Counts::sum(&domains).round_trips;
        Ok(Pass {
            dataset: j,
            setup_s,
            pass_s,
            host: (before + self.host.factor()) / 2.0,
            round_trip_s: (round_trips * self.workload.latency_us()) as f64
                / 1e6
                / self.workers as f64,
            domains,
            observed,
        })
    }
}

/// Wall seconds of `body`, and what it returned.
fn timed<T>(body: impl FnOnce() -> Result<T, String>) -> Result<(f64, T), String> {
    let t = Instant::now();
    let out = body()?;
    Ok((secs(t), out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_seeds_start_with_the_run_seed_and_are_distinct() {
        let s = dataset_seeds(7392, DATASETS);
        assert_eq!(s.len(), DATASETS);
        assert_eq!(s[0], 7392);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), DATASETS);
        assert_eq!(
            dataset_seeds(7392, DATASETS),
            s,
            "seeds are a function of the run seed"
        );
        assert_ne!(dataset_seeds(7393, DATASETS)[1], s[1]);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
