//! The `profile` experiment: a thread-count sweep with full performance
//! attribution.
//!
//! For each worker count the sweep resets the process-wide profiling
//! registry ([`webiq::prof`]), runs a traced acquisition of every
//! domain, and records the wall-clock plus the registry's delta —
//! per-stage timings, lock contention, cache traffic, worker balance.
//! The points are serialized as `PROF_BASELINE.json` (the schema
//! [`webiq::obs::profile::parse_baseline`] reads) and rendered through
//! the same code path `webiq-report profile` uses, so the printed
//! report and the committed artifact can never drift apart.
//!
//! Each wave of cache-missing engine queries is charged a simulated
//! round-trip of [`LATENCY_US`], because that is the curve whose losses this
//! diagnosis exists to attribute:
//! real acquisition is I/O-bound, and workers buy their speedup by
//! overlapping round-trips.
//!
//! The sweep also re-checks the workspace's core determinism contract
//! from the best vantage point there is: the JSONL trace bytes of every
//! thread count are compared, and [`ProfileOutcome::deterministic`] is
//! only true when all of them are identical — always-on profiling must
//! not perturb the deterministic plane.

use webiq::core::{Components, WebIQConfig};
use webiq::obs::profile::{parse_baseline, render_profile};
use webiq::obs::ScalingFit;
use webiq::pipeline::DomainPipeline;
use webiq::prof::{ProfCounter, Stage};
use webiq::trace::{SharedBuf, Tracer};

use crate::json::{obj, Json};
use crate::timing::time_once;

/// Domains the full sweep acquires (the fig-6 workload).
pub const DOMAINS: [&str; 5] = ["airfare", "auto", "book", "job", "realestate"];

/// Domains the `--quick` sweep acquires.
pub const QUICK_DOMAINS: [&str; 1] = ["book"];

/// Worker counts of the full sweep.
pub const FULL_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Worker counts of the `--quick` sweep (still enough for a fit: a
/// 1-thread baseline plus one parallel point).
pub const QUICK_THREADS: [usize; 2] = [1, 2];

/// Simulated round-trip per wave of cache-missing engine queries — a 1:300
/// scale-down of the paper's ~0.3 s Google latency.
pub const LATENCY_US: u64 = 1000;

/// Everything one profile sweep produced.
#[derive(Debug)]
pub struct ProfileOutcome {
    /// The `PROF_BASELINE.json` document (pretty-printed, trailing
    /// newline included).
    pub baseline_json: String,
    /// The rendered attribution + scaling report.
    pub report: String,
    /// True when the JSONL trace bytes were identical at every thread
    /// count — the determinism contract held under profiling.
    pub deterministic: bool,
    /// The fit's dominant scaling limiter, when the sweep supports a
    /// fit.
    pub limiter: Option<String>,
}

/// Run the sweep: every domain at every worker count, profiling deltas
/// per point.
///
/// # Errors
///
/// Returns the pipeline's error string when a domain is unknown or
/// acquisition fails, and a schema error if the emitted baseline fails
/// to re-parse (a bug, but one this harness must surface rather than
/// commit).
pub fn sweep(domains: &[&str], seed: u64, threads: &[usize]) -> Result<ProfileOutcome, String> {
    let mut points: Vec<Json> = Vec::new();
    let mut reference_trace: Option<String> = None;
    let mut deterministic = true;

    for &t in threads {
        // Build the pipelines (dataset, corpus, engine) outside the
        // timed region: construction is inherently serial and identical
        // at every worker count, so timing it would drown the very
        // scaling signal the sweep exists to measure. Fresh pipelines
        // per point keep the engine caches cold, so every point pays
        // the identical workload.
        let mut pipelines = Vec::with_capacity(domains.len());
        for d in domains {
            let p = DomainPipeline::build(d, seed).map_err(|e| e.to_string())?;
            p.engine.set_simulated_latency_us(LATENCY_US);
            pipelines.push(p);
        }
        // The registry is process-global: start the point from zero so
        // its snapshot is this run's delta.
        webiq::prof::reset();
        let buf = SharedBuf::new();
        let tracer = Tracer::jsonl(Box::new(buf.clone()));
        let (result, wall_secs) = time_once(|| -> Result<(), String> {
            for p in &pipelines {
                let cfg = WebIQConfig {
                    threads: Some(t),
                    tracer: tracer.clone(),
                    ..WebIQConfig::default()
                };
                p.acquire(Components::ALL, &cfg)
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        result?;
        tracer.flush();
        let prof = webiq::prof::snapshot();

        let trace = buf.contents_string();
        match &reference_trace {
            Some(r) => deterministic = deterministic && trace == *r,
            None => reference_trace = Some(trace),
        }

        let counters: Vec<(String, Json)> = ProfCounter::ALL
            .iter()
            .map(|&c| (c.name().to_string(), Json::from(prof.get(c))))
            .collect();
        let stages: Vec<(String, Json)> = Stage::ALL
            .iter()
            .map(|&s| {
                (
                    s.name().to_string(),
                    obj([
                        ("nanos", Json::from(prof.stage_nanos(s))),
                        ("calls", Json::from(prof.stage_calls(s))),
                    ]),
                )
            })
            .collect();
        points.push(Json::Obj(vec![
            ("threads".to_string(), Json::from(t)),
            ("wall_secs".to_string(), Json::from(wall_secs)),
            ("counters".to_string(), Json::Obj(counters)),
            ("stages".to_string(), Json::Obj(stages)),
        ]));
    }

    let baseline = obj([
        ("schema", Json::from("webiq-prof-baseline/v1")),
        ("seed", Json::from(seed)),
        (
            "domains",
            Json::Arr(domains.iter().map(|&d| Json::from(d)).collect()),
        ),
        ("deterministic_trace", Json::from(deterministic)),
        ("sweep", Json::Arr(points)),
    ]);
    let baseline_json = baseline.pretty() + "\n";

    // Round-trip through the exact reader the CLI uses: the printed
    // report is what `webiq-report profile PROF_BASELINE.json` prints.
    let parsed = parse_baseline("PROF_BASELINE.json", &baseline_json).map_err(|e| e.to_string())?;
    let report = render_profile(&parsed);
    let limiter = ScalingFit::fit(&parsed.sweep).map(|f| f.limiter.to_string());

    Ok(ProfileOutcome {
        baseline_json,
        report,
        deterministic,
        limiter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SEED;

    #[test]
    fn quick_sweep_is_deterministic_and_diagnoses() {
        let out = sweep(&QUICK_DOMAINS, SEED, &QUICK_THREADS).expect("sweep");
        assert!(
            out.deterministic,
            "trace bytes must be identical across thread counts"
        );
        // The baseline re-parses through the CLI reader and fits.
        assert!(out.limiter.is_some(), "1+2 threads is enough for a fit");
        assert!(out.baseline_json.contains("\"webiq-prof-baseline/v1\""));
        assert!(out.report.contains("dominant limiter:"));
        assert!(out.report.contains("attribution at 2 thread(s)"));
        // The sweep actually profiled something: the serialized top
        // point carries nonzero worker accounting.
        let parsed = parse_baseline("t", &out.baseline_json).expect("reparse");
        let top = parsed.sweep.last().expect("points");
        assert!(top.prof.get(ProfCounter::WorkerItems) > 0);
        assert!(top.prof.stage_calls(Stage::Extract) > 0);
    }

    #[test]
    fn unknown_domain_is_an_error() {
        assert!(sweep(&["nope"], SEED, &[1]).is_err());
    }
}
