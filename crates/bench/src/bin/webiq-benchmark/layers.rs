//! The traced run: per-layer metrics of one-worker passes through the
//! library's own code.
//!
//! The benchmark records a span around each call it makes into a layer:
//! `setup.build` (`DomainPipeline::build`: dataset, simulated Web and
//! Deep-Web sources), `core.acquire`, `matcher.enrich` and
//! `matcher.match`. Inside acquisition and matching, the library's
//! always-on attribution splits the time by stage (`webiq::prof`) and
//! counts the work (the calling thread's `webiq::trace` counters, which
//! with one worker see every attribute).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use webiq::core::WebIQConfig;
use webiq::prof::Stage;
use webiq::store::{fsck, Store};
use webiq::trace::{Counter, MetricSet};

use crate::measure::{another_fits, mean, median, ratio, secs, HostProbe, Recorder, Scratch};
use crate::workload::{
    build_pipelines, run_domain, Counts, DomainRun, ObservedLayers, Pass, Runner, Workload, WORKERS,
};
use crate::Checker;

/// One traced pass over one dataset.
struct TracedPass {
    rec: Recorder,
    runs: Vec<DomainRun>,
    /// The pass's `webiq::trace` counters.
    counters: MetricSet,
    /// Seconds of the whole traced region (set-up included).
    wall_s: f64,
}

impl TracedPass {
    /// Acquisition plus matching seconds, comparable to an untraced
    /// pass's `pass_s`.
    fn pass_s(&self) -> f64 {
        self.runs.iter().map(DomainRun::request_s).sum()
    }
}

fn traced_pass(seed: u64, domains: &[&'static str], latency_us: u64) -> Result<TracedPass, String> {
    let rec = Recorder::new();
    let cfg = WebIQConfig {
        threads: Some(1),
        ..WebIQConfig::default()
    };
    let before = webiq::trace::snapshot();
    let t = Instant::now();
    let mut runs = Vec::new();
    for &d in domains {
        rec.trace(format!("{seed}/{d}"));
        for p in &rec.span("setup.build", || build_pipelines(seed, &[d], latency_us))? {
            runs.push(run_domain(p, &cfg, None, Some(&rec))?);
        }
    }
    Ok(TracedPass {
        wall_s: secs(t),
        counters: webiq::trace::snapshot().diff(&before),
        rec,
        runs,
    })
}

/// The per-layer numbers one traced pass gives.
fn pass_metrics(tp: &TracedPass) -> BTreeMap<&'static str, f64> {
    let spans = tp.rec.totals();
    let span_s = |name: &str| spans.get(name).copied().unwrap_or(0.0);
    let stage_s = |s: Stage| -> f64 { tp.runs.iter().map(|r| r.prof.stage_secs(s)).sum() };
    let stage_calls =
        |s: Stage| -> f64 { tp.runs.iter().map(|r| r.prof.stage_calls(s) as f64).sum() };
    let count = |c: Counter| tp.counters.get(c) as f64;
    let traffic = Counts::sum(&tp.runs);
    let queries = traffic.queries as f64;
    let round_trips = traffic.round_trips as f64;
    let core_stages = stage_s(Stage::Extract) + stage_s(Stage::Borrow) + stage_s(Stage::Bayes);
    let acquire_s = span_s("core.acquire");
    let recorded: f64 = spans.values().sum();
    BTreeMap::from([
        ("setup.build_s", span_s("setup.build")),
        ("web.queries", queries),
        ("web.round_trips", round_trips),
        ("web.cache_hit_ratio", 1.0 - ratio(round_trips, queries)),
        ("web.engine_query_s", stage_s(Stage::EngineQuery)),
        (
            "web.round_trip_us",
            ratio(
                stage_s(Stage::EngineQuery) * 1e6,
                stage_calls(Stage::EngineQuery),
            ),
        ),
        ("deep.probes", traffic.probes as f64),
        ("deep.probe_s", stage_s(Stage::Probe)),
        (
            "deep.probe_match_ratio",
            ratio(count(Counter::ProbeMatched), count(Counter::ProbesIssued)),
        ),
        ("core.acquire_s", acquire_s),
        ("core.extract_s", stage_s(Stage::Extract)),
        ("core.verify_s", stage_s(Stage::Verify)),
        ("core.borrow_s", stage_s(Stage::Borrow)),
        ("core.bayes_s", stage_s(Stage::Bayes)),
        (
            "core.own_s",
            acquire_s - stage_s(Stage::EngineQuery) - stage_s(Stage::Probe),
        ),
        ("core.stage_coverage", ratio(core_stages, acquire_s)),
        (
            "core.surface.success_ratio",
            ratio(
                count(Counter::SurfaceSuccess),
                count(Counter::AttrsNoInstance),
            ),
        ),
        (
            "core.validation.accept_ratio",
            ratio(
                count(Counter::ValidationAccepted),
                count(Counter::ValidationAccepted) + count(Counter::ValidationRejected),
            ),
        ),
        (
            "core.borrow.accept_ratio",
            ratio(count(Counter::BorrowAccepted), count(Counter::BorrowProbed)),
        ),
        (
            "core.bayes.accept_ratio",
            ratio(
                count(Counter::BayesAccepted),
                count(Counter::BayesAccepted) + count(Counter::BayesRejected),
            ),
        ),
        (
            "core.queries_per_attr",
            ratio(queries, count(Counter::AttrsTotal)),
        ),
        ("matcher.attrs", count(Counter::AttrsTotal)),
        ("matcher.enrich_s", span_s("matcher.enrich")),
        ("matcher.match_s", span_s("matcher.match")),
        ("matcher.cluster_merge_s", stage_s(Stage::ClusterMerge)),
        ("bench.trace_coverage", ratio(recorded, tp.wall_s)),
    ])
}

/// The whole traced run of `workload`. First a two-worker pass of the
/// plain pipeline (the scheduling numbers), one of the workload itself
/// (the matcher's share of its pass) and one `observed` pass (the
/// optional layers). Then pairs of an untraced and a traced one-worker
/// pass on the same dataset, cycling through the datasets while another
/// pair fits in `seconds`; each per-pass number is the median over the
/// pairs. Writes the first traced pass's spans to `spans` when given.
pub fn run(
    workload: Workload,
    seeds: &[u64],
    domains: &[&'static str],
    seconds: f64,
    spans: Option<&Path>,
    checker: &mut Checker,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let t = Instant::now();
    let host = HostProbe::new();
    let host_before = host.factor();
    let scratch = Scratch::new();
    let first = seeds[0];
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();

    // The scheduling pass and the traced passes run the plain pipeline,
    // with the workload's simulated latency: a `warm` acquisition has no
    // work to schedule or trace.
    let plain = if workload == Workload::Latency {
        Workload::Latency
    } else {
        Workload::Compute
    };
    let sched = workload_pass(plain, first, domains, WORKERS, &scratch, checker)?;
    let acquire_s: f64 = sched.domains.iter().map(|d| d.acquire_s).sum();
    let acquire_cpu: f64 = sched.domains.iter().map(|d| d.acquire_cpu_s).sum();
    let imbalance: Vec<f64> = sched.domains.iter().map(|d| d.prof.imbalance()).collect();
    let contention: Vec<f64> = sched
        .domains
        .iter()
        .map(|d| d.prof.contention_ratio())
        .collect();
    out.insert("core.parallel_acquire_s", acquire_s);
    out.insert("core.worker_imbalance", mean(&imbalance));
    out.insert(
        "core.parallel_efficiency",
        ratio(acquire_cpu, acquire_s * WORKERS as f64),
    );
    out.insert("web.lock_contention_ratio", mean(&contention));
    let parallel_round_trips = sched.counts().round_trips as f64;

    let own = if workload == plain {
        sched
    } else {
        workload_pass(workload, first, domains, WORKERS, &scratch, checker)?
    };
    let match_s: f64 = own.domains.iter().map(|d| d.match_s).sum();
    out.insert("matcher.pass_share", ratio(match_s, own.pass_s));
    let observed = match own.observed {
        Some(layers) => layers,
        None => workload_pass(
            Workload::Observed,
            first,
            domains,
            WORKERS,
            &scratch,
            checker,
        )?
        .observed
        .ok_or("observed pass left no layers")?,
    };
    optional_layers(&observed, first, domains, checker, &mut out)?;

    let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut longest = 0.0f64;
    loop {
        let tp0 = Instant::now();
        let seed = seeds[per_pass.len() % seeds.len()];
        let untraced = workload_pass(plain, seed, domains, 1, &scratch, checker)?;
        let tp = traced_pass(seed, domains, plain.latency_us())?;
        for r in &tp.runs {
            checker.check_run(seed, r);
        }
        if per_pass.is_empty() {
            out.insert(
                "web.dup_round_trips",
                parallel_round_trips - untraced.counts().round_trips as f64,
            );
            if let Some(path) = spans {
                std::fs::write(path, tp.rec.jsonl())
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
        }
        let mut m = pass_metrics(&tp);
        m.insert(
            "bench.trace_overhead_pct",
            (tp.pass_s() / untraced.pass_s - 1.0) * 100.0,
        );
        m.insert("bench.untraced_pass_s", untraced.pass_s);
        per_pass.push(m);
        longest = longest.max(secs(tp0));
        if !another_fits(t, longest, seconds) {
            break;
        }
    }
    for name in per_pass[0].keys() {
        let values: Vec<f64> = per_pass
            .iter()
            .filter_map(|m| m.get(name).copied())
            .collect();
        out.insert(name, median(&values));
    }
    out.insert("bench.traced_passes", per_pass.len() as f64);
    out.insert("bench.host_factor", (host_before + host.factor()) / 2.0);
    Ok(out)
}

/// One pass of `workload` on dataset `seed`, as the timed run makes it.
fn workload_pass(
    workload: Workload,
    seed: u64,
    domains: &[&'static str],
    workers: usize,
    scratch: &Scratch,
    checker: &mut Checker,
) -> Result<Pass, String> {
    let mut runner = Runner::new(workload, vec![seed], domains, workers, scratch);
    runner.prepare()?;
    let pass = runner.pass(0)?;
    for d in &pass.domains {
        checker.check_run(seed, d);
    }
    Ok(pass)
}

/// Trace, live-registry and store numbers from an `observed` pass: the
/// trace it wrote, a render of its registry, and a reopen plus warm
/// acquisition of its store.
fn optional_layers(
    observed: &ObservedLayers,
    seed: u64,
    domains: &[&'static str],
    checker: &mut Checker,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let trace = observed.trace.contents();
    let events = trace
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .count();
    let needle = b"\"ev\":\"decision\"";
    let decisions = trace
        .split(|&b| b == b'\n')
        .filter(|l| l.windows(needle.len()).any(|w| w == needle))
        .count();
    out.insert("trace.bytes", trace.len() as f64);
    out.insert("trace.events", events as f64);
    out.insert("trace.decisions", decisions as f64);

    let renders: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(observed.registry.render());
            secs(t)
        })
        .collect();
    out.insert("obs.render_s", median(&renders));

    let report = fsck(&observed.store_dir).map_err(|e| format!("fsck: {e}"))?;
    out.insert(
        "store.bytes",
        report
            .streams
            .iter()
            .map(|s| s.committed_bytes)
            .sum::<u64>() as f64,
    );
    out.insert("store.records", report.total_records() as f64);
    let t = Instant::now();
    let store = Arc::new(Store::open(&observed.store_dir).map_err(|e| format!("store: {e}"))?);
    out.insert("store.open_s", secs(t));
    let cfg = WebIQConfig {
        threads: Some(WORKERS),
        store: Some(store),
        ..WebIQConfig::default()
    };
    let mut warm_run_s = 0.0;
    for p in &build_pipelines(seed, domains, 0)? {
        let mut run = run_domain(p, &cfg, None, None)?;
        warm_run_s += run.acquire_s;
        run.ok = run.counts == Counts::default();
        checker.check_run(seed, &run);
    }
    out.insert("store.warm_run_s", warm_run_s);
    Ok(())
}
