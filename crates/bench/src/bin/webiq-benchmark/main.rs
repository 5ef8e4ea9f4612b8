//! `webiq-benchmark`: the end-to-end and per-layer benchmark of WebIQ.
//!
//! ```text
//! webiq-benchmark --workload <compute|latency|warm|observed> --seed <u64>
//!                 [--seconds <n>] [--trace 0|1] [--sets <n>] [--spans <file>]
//! webiq-benchmark --quick
//! ```
//!
//! One client runs full passes back to back (a closed loop): acquire
//! with every component, then match, over five domains, cycling through
//! eight datasets made from `--seed`. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
//! the traced passes instead and prints the per-layer metrics. Every
//! pass's output is checked against `reference.txt` (or, for datasets it
//! does not list, against the first pass of the same dataset). The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. See README.md in this directory.

mod layers;
mod measure;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use webiq_bench::json::Json;

use measure::{another_fits, mean, median, peak_rss_mb, secs, Scratch};
use workload::{dataset_seeds, Pass, Runner, Workload, DATASETS, DOMAINS, WORKERS};

/// One declared metric, as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics, printed with `--trace 0`. Each bound is about
/// three times the largest quartile spread of the metric over runs with
/// ten different seeds on the reference host (README.md); `setup_s`,
/// whose spread is not held to its bound, takes the largest.
pub const END_TO_END: [Decl; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("pass_s", "s", "lower", 0.18),
    e2e("engine_queries", "count", "lower", 0.075),
    e2e("round_trips", "count", "lower", 0.055),
    e2e("probes", "count", "lower", 0.21),
    e2e("f1_pct", "%", "higher", 0.02),
    e2e("peak_rss_mb", "MiB", "lower", 0.1),
];

/// The per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [Decl; 44] = [
    layer("setup.build_s", "s", "lower"),
    layer("web.queries", "count", "lower"),
    layer("web.round_trips", "count", "lower"),
    layer("web.cache_hit_ratio", "ratio", "higher"),
    layer("web.engine_query_s", "s", "lower"),
    layer("web.round_trip_us", "us", "lower"),
    layer("web.lock_contention_ratio", "ratio", "lower"),
    layer("web.dup_round_trips", "count", "lower"),
    layer("deep.probes", "count", "lower"),
    layer("deep.probe_s", "s", "lower"),
    layer("deep.probe_match_ratio", "ratio", "higher"),
    layer("core.acquire_s", "s", "lower"),
    layer("core.extract_s", "s", "lower"),
    layer("core.verify_s", "s", "lower"),
    layer("core.borrow_s", "s", "lower"),
    layer("core.bayes_s", "s", "lower"),
    layer("core.own_s", "s", "lower"),
    layer("core.stage_coverage", "ratio", "higher"),
    layer("core.surface.success_ratio", "ratio", "higher"),
    layer("core.validation.accept_ratio", "ratio", "higher"),
    layer("core.borrow.accept_ratio", "ratio", "higher"),
    layer("core.bayes.accept_ratio", "ratio", "higher"),
    layer("core.queries_per_attr", "count", "lower"),
    layer("core.parallel_acquire_s", "s", "lower"),
    layer("core.worker_imbalance", "ratio", "lower"),
    layer("core.parallel_efficiency", "ratio", "higher"),
    layer("matcher.attrs", "count", "higher"),
    layer("matcher.enrich_s", "s", "lower"),
    layer("matcher.match_s", "s", "lower"),
    layer("matcher.cluster_merge_s", "s", "lower"),
    layer("matcher.pass_share", "ratio", "lower"),
    layer("store.open_s", "s", "lower"),
    layer("store.warm_run_s", "s", "lower"),
    layer("store.bytes", "bytes", "lower"),
    layer("store.records", "count", "lower"),
    layer("trace.bytes", "bytes", "lower"),
    layer("trace.events", "count", "lower"),
    layer("trace.decisions", "count", "higher"),
    layer("obs.render_s", "s", "lower"),
    layer("bench.trace_coverage", "ratio", "higher"),
    layer("bench.trace_overhead_pct", "%", "lower"),
    layer("bench.traced_passes", "count", "higher"),
    layer("bench.untraced_pass_s", "s", "lower"),
    layer("bench.host_factor", "ratio", "lower"),
];

/// The committed reference outputs: `digest <dataset seed> <domain>
/// <F-1 %> <instances digest> <pairs digest>` lines.
const REFERENCE: &str = include_str!("reference.txt");

/// Checks every domain run against the reference, or against the first
/// run of the same dataset and domain, and counts the failures.
pub struct Checker {
    expected: BTreeMap<(u64, String), String>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new() -> Self {
        let expected = REFERENCE
            .lines()
            .filter_map(|l| {
                let mut f = l.split_whitespace();
                (f.next() == Some("digest")).then_some(())?;
                let seed = f.next()?.parse().ok()?;
                let domain = f.next()?.to_string();
                Some(((seed, domain), l.trim().to_string()))
            })
            .collect();
        Checker {
            expected,
            attempted: 0,
            failed: 0,
        }
    }

    /// [`Checker::check`] for a pass's domain run.
    pub fn check_run(&mut self, seed: u64, run: &workload::DomainRun) {
        self.check(
            seed,
            run.domain,
            run.f1_pct,
            run.instances,
            run.pairs,
            run.ok,
        );
    }

    /// Check one domain run; `ok` carries the pass's own checks.
    /// Prints the run's digest line the first time a dataset and domain
    /// is seen.
    pub fn check(
        &mut self,
        seed: u64,
        domain: &str,
        f1_pct: f64,
        instances: u64,
        pairs: u64,
        ok: bool,
    ) {
        self.attempted += 1;
        let line = format!("digest {seed} {domain} {f1_pct:.4} {instances:016x} {pairs:016x}");
        let key = (seed, domain.to_string());
        let matches = match self.expected.get(&key) {
            Some(e) => *e == line,
            None => {
                println!("{line}");
                self.expected.insert(key, line.clone());
                true
            }
        };
        if !(ok && matches) {
            self.failed += 1;
            eprintln!("webiq-benchmark: output check failed: {line}");
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    spans: Option<std::path::PathBuf>,
    quick: bool,
}

const USAGE: &str =
    "usage: webiq-benchmark --workload <compute|latency|warm|observed> --seed <u64> \
                     [--seconds <n>] [--trace 0|1] [--sets <n>] [--spans <file>] | --quick";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Compute,
        seed: 7392,
        seconds: 30.0,
        trace: false,
        sets: 1,
        spans: None,
        quick: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--sets" => {
                args.sets = value
                    .parse()
                    .ok()
                    .filter(|n| (1..=10).contains(n))
                    .ok_or_else(bad)?;
            }
            "--spans" => args.spans = Some(value.into()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    match workload {
        Some(w) => args.workload = w,
        None if args.quick => {}
        None => return Err("--workload is required".to_string()),
    }
    Ok(args)
}

/// A measured run: the checker's tallies plus metric values.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(Decl, f64, String)>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: one JSON object on one line.
    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v, _)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    Json::from(*v).pretty(),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn print(&self) {
        for (d, v, note) in &self.metrics {
            println!("  {:<28} {:>16.6} {:<6} {note}", d.name, v, d.unit);
        }
        println!("{}", self.json_line());
    }
}

/// Pair each declaration with its value; every declared metric must
/// have been measured.
fn collect(
    decls: &[Decl],
    values: &BTreeMap<&'static str, f64>,
    notes: &BTreeMap<&'static str, String>,
) -> Result<Vec<(Decl, f64, String)>, String> {
    decls
        .iter()
        .map(|d| {
            let v = *values
                .get(d.name)
                .ok_or_else(|| format!("metric {} not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite", d.name));
            }
            Ok((*d, v, notes.get(d.name).cloned().unwrap_or_default()))
        })
        .collect()
}

/// The timed run: set-up, one warm-up pass, one pass over every dataset,
/// then more passes in the same order while another still fits in
/// `seconds` from the start (set-up and warm-up included; see
/// [`another_fits`]).
fn timed_run(
    workload: Workload,
    seeds: Vec<u64>,
    domains: &[&'static str],
    seconds: f64,
) -> Result<Outcome, String> {
    let t = Instant::now();
    let scratch = Scratch::new();
    let mut checker = Checker::new();
    let n = seeds.len();
    let mut runner = Runner::new(workload, seeds.clone(), domains, WORKERS, &scratch);
    let mut setups = runner.prepare()?;
    // Check a pass and drop what an `observed` pass leaves behind: kept,
    // each pass's trace would grow the process and `peak_rss_mb` would
    // count passes instead of one pass's working set.
    let mut record = |mut pass: Pass| {
        for d in &pass.domains {
            checker.check_run(seeds[pass.dataset], d);
        }
        if let Some(o) = pass.observed.take() {
            let _ = std::fs::remove_dir_all(&o.store_dir);
        }
        pass
    };
    record(runner.pass(0)?);

    let mut passes: Vec<Pass> = Vec::new();
    let mut longest = 0.0f64;
    while passes.len() < n || another_fits(t, longest, seconds) {
        let started = Instant::now();
        let pass = record(runner.pass(passes.len() % n)?);
        longest = longest.max(secs(started));
        setups.extend(pass.setup_s.map(|s| s / pass.host));
        passes.push(pass);
    }
    let (values, notes) = end_to_end(&passes, &setups, n);
    let metrics = collect(&END_TO_END, &values, &notes)?;
    Ok(Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
    })
}

/// Mean over datasets of the median of `f` over each dataset's passes.
fn per_dataset(passes: &[Pass], datasets: usize, f: impl Fn(&Pass) -> f64) -> f64 {
    let medians: Vec<f64> = (0..datasets)
        .map(|j| {
            let v: Vec<f64> = passes.iter().filter(|p| p.dataset == j).map(&f).collect();
            median(&v)
        })
        .collect();
    mean(&medians)
}

type Metrics = (BTreeMap<&'static str, f64>, BTreeMap<&'static str, String>);

/// The end-to-end metrics of a timed run. Times are at the reference
/// host's speed: each set-up and pass is divided by the host factor
/// measured around it, the waits on simulated round-trips excepted.
fn end_to_end(passes: &[Pass], setups: &[f64], datasets: usize) -> Metrics {
    let per = |f: &dyn Fn(&Pass) -> f64| per_dataset(passes, datasets, f);
    let over = format!(
        "mean over {datasets} datasets of each one's median pass, {} passes",
        passes.len()
    );
    let host: Vec<f64> = passes.iter().map(|p| p.host).collect();
    let pass_note = format!(
        "{over}; {:.4} s wall at host factor {:.3}",
        per(&|p| p.pass_s),
        median(&host)
    );
    let values = BTreeMap::from([
        ("setup_s", median(setups)),
        ("pass_s", per(&Pass::scaled_s)),
        ("engine_queries", per(&|p| p.counts().queries as f64)),
        ("round_trips", per(&|p| p.counts().round_trips as f64)),
        ("probes", per(&|p| p.counts().probes as f64)),
        ("f1_pct", per(&Pass::f1_pct)),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    let notes = BTreeMap::from([
        ("setup_s", format!("median of {} set-ups", setups.len())),
        ("pass_s", pass_note),
        (
            "engine_queries",
            "search + hit-count calls per cold pass".to_string(),
        ),
        (
            "round_trips",
            "engine cache misses per cold pass".to_string(),
        ),
        ("probes", "Deep-Web probes per cold pass".to_string()),
        (
            "f1_pct",
            "mean matching F-1 over domains and datasets".to_string(),
        ),
        ("peak_rss_mb", "VmHWM".to_string()),
    ]);
    (values, notes)
}

/// `--trace 1`: the per-layer metrics.
fn traced_run(args: &Args, seeds: &[u64]) -> Result<Outcome, String> {
    let mut checker = Checker::new();
    let values = layers::run(
        args.workload,
        seeds,
        &DOMAINS,
        args.seconds,
        args.spans.as_deref(),
        &mut checker,
    )?;
    // The spans must account for the traced passes' time, or the
    // per-layer numbers miss a layer.
    let coverage = values.get("bench.trace_coverage").copied().unwrap_or(0.0);
    if !(0.95..=1.05).contains(&coverage) {
        return Err(format!(
            "bench.trace_coverage {coverage:.4} is outside 0.95-1.05"
        ));
    }
    Ok(Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: collect(&PER_LAYER, &values, &BTreeMap::new())?,
    })
}

/// `--quick`: a warm-up and one timed compute pass over the book domain
/// of the paper's dataset, checked against the reference.
fn quick() -> Result<Outcome, String> {
    timed_run(Workload::Compute, vec![7392], &DOMAINS[2..3], 0.0)
}

/// The value of `name` in a result line printed by [`Outcome::json_line`].
fn metric_in_line(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// `--sets n`: run the workload `n` times, each in its own process, and
/// print per metric how far each set's value is from the first set's,
/// next to the metric's bound.
fn sets(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut lines = Vec::new();
    for i in 0..args.sets {
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("set {i}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default().to_string();
        if !out.status.success() {
            return Err(format!("set {i} failed: {line}"));
        }
        lines.push(line);
    }
    println!(
        "noise study: workload {}, seed {}, {} sets of {} s",
        args.workload.name(),
        args.seed,
        args.sets,
        args.seconds
    );
    let mut within = true;
    for d in &END_TO_END {
        let values: Vec<f64> = lines
            .iter()
            .filter_map(|l| metric_in_line(l, d.name))
            .collect();
        let first = values.first().copied().unwrap_or(0.0);
        let worst = values
            .iter()
            .map(|v| (v - first).abs() / first.abs().max(f64::MIN_POSITIVE))
            .fold(0.0, f64::max);
        let bound = d.bound.unwrap_or(0.0);
        let ok = worst <= bound;
        within &= ok;
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
        println!(
            "  {:<16} {}  diff {:>6.2}%  bound {:>5.1}%  {}",
            d.name,
            shown.join("  "),
            worst * 100.0,
            bound * 100.0,
            if ok { "ok" } else { "OUTSIDE" }
        );
    }
    Ok(within)
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if args.sets > 1 {
        let within = sets(&args)?;
        return Ok(if within {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let outcome = if args.quick {
        println!("webiq-benchmark --quick: compute passes over book, dataset 7392");
        quick()?
    } else {
        let seeds = dataset_seeds(args.seed, DATASETS);
        println!(
            "webiq-benchmark: workload {}, seed {}, {} datasets x {} domains, {} workers, {} s, trace {}",
            args.workload.name(),
            args.seed,
            seeds.len(),
            DOMAINS.len(),
            WORKERS,
            args.seconds,
            u8::from(args.trace)
        );
        if args.trace {
            traced_run(&args, &seeds)?
        } else {
            timed_run(args.workload, seeds, &DOMAINS, args.seconds)?
        }
    };
    outcome.print();
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("webiq-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repository's benchmark definition.
    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn declared(d: &Decl) -> String {
        match d.bound {
            Some(b) => format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name, d.unit, d.better, b
            ),
            None => format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            ),
        }
    }

    #[test]
    fn every_metric_is_declared_in_benchmark_json() {
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                BENCHMARK_JSON.contains(&declared(d)),
                "BENCHMARK.json lacks {}",
                declared(d)
            );
        }
        for w in Workload::ALL {
            assert!(BENCHMARK_JSON.contains(&format!("\"name\": \"{}\"", w.name())));
        }
        let names = END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len();
        assert_eq!(
            BENCHMARK_JSON.matches("\"name\":").count(),
            names,
            "undeclared entries"
        );
    }

    #[test]
    fn every_metric_reaches_the_result_line() {
        for decls in [&END_TO_END[..], &PER_LAYER[..]] {
            let values: BTreeMap<&'static str, f64> = decls
                .iter()
                .enumerate()
                .map(|(i, d)| (d.name, i as f64 + 0.5))
                .collect();
            let outcome = Outcome {
                attempted: 3,
                failed: 0,
                metrics: collect(decls, &values, &BTreeMap::new()).expect("all measured"),
            };
            let line = outcome.json_line();
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"
            ));
            for (i, d) in decls.iter().enumerate() {
                assert_eq!(
                    metric_in_line(&line, d.name),
                    Some(i as f64 + 0.5),
                    "{}",
                    d.name
                );
            }
        }
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error() {
        assert!(collect(&END_TO_END, &BTreeMap::new(), &BTreeMap::new()).is_err());
        let nan = BTreeMap::from([("setup_s", f64::NAN)]);
        assert!(collect(&END_TO_END[..1], &nan, &BTreeMap::new()).is_err());
    }

    #[test]
    fn bounds_stay_within_the_declared_limits() {
        for d in &END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", d.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    /// The non-blank, non-comment lines of a manifest's
    /// `[profile.release]` section.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    #[test]
    fn the_benchmark_builds_with_the_workspace_release_profile() {
        let own = release_profile(include_str!("Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(
            own,
            release_profile(include_str!("../../../../../Cargo.toml")),
            "Cargo.toml here must copy the workspace's [profile.release]"
        );
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            parse_args(&argv("--workload warm --seed 5 --seconds 3 --trace 1")).expect("parses");
        assert_eq!(a.workload, Workload::Warm);
        assert_eq!(a.seed, 5);
        assert!(a.trace);
        for bad in [
            "",
            "--workload nope",
            "--workload warm --trace 2",
            "--workload warm --seconds 0",
            "--workload warm --seed x",
            "--workload warm --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
        assert!(parse_args(&argv("--quick")).expect("quick").quick);
    }

    #[test]
    fn reference_covers_the_paper_seed_and_a_held_out_seed() {
        let checker = Checker::new();
        for seed in [7392, 2006] {
            for d in DOMAINS {
                assert!(
                    checker.expected.contains_key(&(seed, d.to_string())),
                    "{seed} {d}"
                );
            }
        }
    }

    #[test]
    fn quick_book_pass_matches_the_reference() {
        let outcome = quick().expect("quick passes run");
        assert_eq!((outcome.attempted, outcome.failed), (2, 0));
    }

    #[test]
    fn a_changed_output_fails_the_check() {
        let mut checker = Checker::new();
        checker.check(7392, "book", 0.0, 1, 2, true);
        assert_eq!(checker.failed, 1);
        // an unreferenced dataset is pinned by its first run
        checker.check(1, "book", 50.0, 1, 2, true);
        checker.check(1, "book", 50.0, 1, 2, true);
        assert_eq!(checker.failed, 1);
        checker.check(1, "book", 50.0, 1, 3, true);
        assert_eq!(checker.failed, 2);
        checker.check(1, "book", 50.0, 1, 2, false);
        assert_eq!(checker.failed, 3);
    }
}
