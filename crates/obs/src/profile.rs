//! Performance attribution and scaling diagnosis over a profile sweep.
//!
//! `experiments profile` runs the acquisition pipeline at several worker
//! counts and records, per point, the wall-clock and a
//! [`ProfSnapshot`] of the process-wide profiling registry. That sweep
//! lands in `PROF_BASELINE.json`; this module is the read side:
//!
//! - [`parse_baseline`] parses the file (through the workspace codec,
//!   [`webiq_trace::json`]) into a [`ProfBaseline`];
//! - [`ScalingFit::fit`] fits the measured speedups with Amdahl's law
//!   (average implied serial fraction) and the Universal Scalability
//!   Law (deterministic grid search over σ/κ), then names the
//!   **dominant scaling limiter** — serial fraction, lock contention,
//!   or worker load imbalance, whichever measured magnitude is largest;
//! - [`render_profile`] renders the deterministic report `webiq-report
//!   profile` prints: a stage-tree attribution table (calls, seconds,
//!   share of wall-clock), cache hit rates, lock contention, worker
//!   balance, and the scaling fit.
//!
//! Everything here is a pure function of the baseline file, so the
//! report is byte-identical across reruns — the wall-clock
//! nondeterminism is confined to the numbers *inside* the file, which
//! is exactly what a diagnosis artifact should preserve.

use webiq_prof::{ProfCounter, ProfSnapshot, Stage};
use webiq_trace::json::Json;

use crate::error::ObsError;

/// One point of a thread-count sweep: how many workers ran, how long
/// the run took, and what the profiling registry accumulated.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Worker threads the point ran with.
    pub threads: u64,
    /// Wall-clock of the measured run, in seconds.
    pub wall_secs: f64,
    /// Profiling registry delta for the run.
    pub prof: ProfSnapshot,
}

/// A parsed `PROF_BASELINE.json`: sweep points sorted by thread count,
/// plus the run's provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfBaseline {
    /// Where the baseline came from (path, or `-` for stdin).
    pub label: String,
    /// Seed the sweep ran with, when recorded.
    pub seed: Option<u64>,
    /// Domains the sweep acquired.
    pub domains: Vec<String>,
    /// Sweep points, ascending by `threads`.
    pub sweep: Vec<SweepPoint>,
}

/// Scaling-law fit over a sweep, and the diagnosis derived from it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingFit {
    /// `(threads, speedup)` per point, speedup relative to the
    /// 1-thread point.
    pub speedups: Vec<(u64, f64)>,
    /// Amdahl serial fraction: each n > 1 point implies
    /// `s = (n/S − 1)/(n − 1)`; this is their average, clamped to
    /// `[0, 1]`.
    pub serial_fraction: f64,
    /// USL contention coefficient σ from the grid-search fit of
    /// `S(n) = n / (1 + σ(n−1) + κ·n(n−1))`.
    pub sigma: f64,
    /// USL coherence coefficient κ from the same fit.
    pub kappa: f64,
    /// Shard-lock contention ratio at the largest thread count.
    pub contention_ratio: f64,
    /// Worker load imbalance at the largest thread count.
    pub imbalance: f64,
    /// The dominant limiter: `serial-fraction`, `lock-contention`, or
    /// `load-imbalance` — whichever of the three measured magnitudes
    /// is largest.
    pub limiter: &'static str,
}

impl ScalingFit {
    /// Fit a sweep. Returns `None` without a 1-thread baseline point or
    /// with fewer than two distinct thread counts — there is no scaling
    /// to diagnose in a single point.
    pub fn fit(sweep: &[SweepPoint]) -> Option<ScalingFit> {
        let base = sweep.iter().find(|p| p.threads == 1)?;
        if base.wall_secs <= 0.0 {
            return None;
        }
        let mut points: Vec<&SweepPoint> = sweep.iter().filter(|p| p.wall_secs > 0.0).collect();
        points.sort_by_key(|p| p.threads);
        points.dedup_by_key(|p| p.threads);
        if points.len() < 2 {
            return None;
        }
        let speedups: Vec<(u64, f64)> = points
            .iter()
            .map(|p| (p.threads, base.wall_secs / p.wall_secs))
            .collect();

        // Amdahl: average the serial fraction implied by each n > 1
        // point. S(n) = 1/(s + (1−s)/n) ⇒ s = (n/S − 1)/(n − 1).
        let implied: Vec<f64> = speedups
            .iter()
            .filter(|&&(n, s)| n > 1 && s > 0.0)
            .map(|&(n, s)| ((n as f64 / s) - 1.0) / (n as f64 - 1.0))
            .collect();
        if implied.is_empty() {
            return None;
        }
        let serial_fraction = (implied.iter().sum::<f64>() / implied.len() as f64).clamp(0.0, 1.0);

        // USL: deterministic grid search minimising the sum of squared
        // speedup errors. σ steps of 0.005 over [0, 0.5], κ steps of
        // 0.0005 over [0, 0.05] — coarse, but a diagnosis gate needs a
        // stable verdict, not a publication-grade optimiser.
        let (mut best_sigma, mut best_kappa, mut best_sse) = (0.0f64, 0.0f64, f64::INFINITY);
        for si in 0..=100u32 {
            let sigma = f64::from(si) * 0.005;
            for ki in 0..=100u32 {
                let kappa = f64::from(ki) * 0.0005;
                let sse: f64 = speedups
                    .iter()
                    .map(|&(n, s)| {
                        let n = n as f64;
                        let model = n / (1.0 + sigma * (n - 1.0) + kappa * n * (n - 1.0));
                        (model - s) * (model - s)
                    })
                    .sum();
                if sse < best_sse {
                    best_sse = sse;
                    best_sigma = sigma;
                    best_kappa = kappa;
                }
            }
        }

        // Diagnose against the most parallel point: that is where the
        // limiter bites hardest.
        let top = points.last()?;
        let contention_ratio = top.prof.contention_ratio();
        let imbalance = top.prof.imbalance();
        let limiter = if serial_fraction >= contention_ratio && serial_fraction >= imbalance {
            "serial-fraction"
        } else if contention_ratio >= imbalance {
            "lock-contention"
        } else {
            "load-imbalance"
        };

        Some(ScalingFit {
            speedups,
            serial_fraction,
            sigma: best_sigma,
            kappa: best_kappa,
            contention_ratio,
            imbalance,
            limiter,
        })
    }
}

/// The stage attribution tree: `(stage, depth)` rows in render order.
/// Verify nests inside Extract and Probe inside Borrow, so child shares
/// are also part of their parent's — the table shows the tree rather
/// than pretending the stages tile the wall-clock. [`Stage::EngineQuery`]
/// is cross-cutting (inside whichever stage issued the query) and is
/// rendered separately.
const STAGE_TREE: [(Stage, usize); 6] = [
    (Stage::Extract, 0),
    (Stage::Verify, 1),
    (Stage::Borrow, 0),
    (Stage::Probe, 1),
    (Stage::Bayes, 0),
    (Stage::ClusterMerge, 0),
];

/// Render the full profile report for a parsed baseline. Pure function
/// of its input: byte-identical across reruns.
pub fn render_profile(b: &ProfBaseline) -> String {
    let mut out = String::new();
    out.push_str("webiq profile — stage attribution & scaling diagnosis\n");
    out.push_str(&format!("  source: {}\n", b.label));
    let threads: Vec<String> = b.sweep.iter().map(|p| p.threads.to_string()).collect();
    out.push_str(&format!(
        "  sweep:  {} thread(s), {} domain(s){}\n",
        if threads.is_empty() {
            "no".to_string()
        } else {
            threads.join("/")
        },
        b.domains.len(),
        match b.seed {
            Some(s) => format!(", seed {s}"),
            None => String::new(),
        }
    ));

    let Some(top) = b.sweep.last() else {
        out.push_str("\nempty sweep: nothing to attribute\n");
        return out;
    };
    out.push_str(&render_attribution(top));

    out.push_str("\nscaling:\n");
    match ScalingFit::fit(&b.sweep) {
        Some(fit) => out.push_str(&render_fit(&fit)),
        None => out.push_str(
            "  no fit: need a 1-thread baseline and at least two distinct thread counts\n",
        ),
    }
    out
}

/// The per-point attribution table: stage tree, caches, locks, workers.
fn render_attribution(p: &SweepPoint) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "\nattribution at {} thread(s) (wall {:.4}s):\n",
        p.threads, p.wall_secs
    ));
    out.push_str(&format!(
        "  {:<17} {:>8} {:>10} {:>7}\n",
        "stage", "calls", "secs", "share"
    ));
    for (stage, depth) in STAGE_TREE {
        out.push_str(&stage_row(p, stage, depth));
    }
    let engine = stage_row(p, Stage::EngineQuery, 0);
    out.push_str(engine.trim_end_matches('\n'));
    out.push_str("  (cross-cutting: inside issuing stages)\n");

    out.push_str("\ncaches:\n");
    for (label, hit, miss, evict) in [
        (
            "search_cache",
            ProfCounter::SearchCacheHit,
            ProfCounter::SearchCacheMiss,
            Some(ProfCounter::SearchCacheEvict),
        ),
        (
            "hit_cache",
            ProfCounter::HitCacheHit,
            ProfCounter::HitCacheMiss,
            None,
        ),
    ] {
        let evictions = match evict {
            Some(e) => format!(", evictions {}", p.prof.get(e)),
            None => String::new(),
        };
        out.push_str(&format!(
            "  {:<13} hit {:>6.2}%  (hits {}, misses {}{})\n",
            label,
            p.prof.hit_rate(hit, miss) * 100.0,
            p.prof.get(hit),
            p.prof.get(miss),
            evictions
        ));
    }

    out.push_str(&format!(
        "\nlocks:\n  shard lock acquisitions {}, contended {} (contention {:.2}%)\n",
        p.prof.get(ProfCounter::ShardLockAcquire),
        p.prof.get(ProfCounter::ShardLockContended),
        p.prof.contention_ratio() * 100.0
    ));

    out.push_str(&format!(
        "\nworkers:\n  runs {}, items {} (max {}, imbalance {:.1}%), engine queries {} (max {})\n",
        p.prof.get(ProfCounter::WorkerRuns),
        p.prof.get(ProfCounter::WorkerItems),
        p.prof.get(ProfCounter::WorkerMaxItems),
        p.prof.imbalance() * 100.0,
        p.prof.get(ProfCounter::WorkerQueries),
        p.prof.get(ProfCounter::WorkerMaxQueries)
    ));
    out
}

/// One stage row of the attribution table.
fn stage_row(p: &SweepPoint, stage: Stage, depth: usize) -> String {
    let indent = "  ".repeat(depth);
    let secs = p.prof.stage_secs(stage);
    let share = if p.wall_secs > 0.0 {
        secs / p.wall_secs * 100.0
    } else {
        0.0
    };
    format!(
        "  {:<17} {:>8} {:>10.4} {:>6.1}%\n",
        format!("{indent}{}", stage.name()),
        p.prof.stage_calls(stage),
        secs,
        share
    )
}

/// The scaling table, fit coefficients, and verdict.
fn render_fit(fit: &ScalingFit) -> String {
    let mut out = String::new();
    out.push_str(&format!("  {:>7} {:>9}\n", "threads", "speedup"));
    for &(n, s) in &fit.speedups {
        out.push_str(&format!("  {n:>7} {s:>8.2}x\n"));
    }
    if let Some(&(n, s)) = fit.speedups.last() {
        out.push_str(&format!(
            "  at {n} threads: achieved {s:.2}x of ideal {n}x — lost {:.2}x\n",
            (n as f64 - s).max(0.0)
        ));
    }
    out.push_str(&format!(
        "  amdahl serial fraction: {:.1}%\n  usl fit: sigma={:.3} kappa={:.4}\n",
        fit.serial_fraction * 100.0,
        fit.sigma,
        fit.kappa
    ));
    out.push_str(&format!(
        "  dominant limiter: {} (serial {:.1}% vs contention {:.1}% vs imbalance {:.1}%)\n",
        fit.limiter,
        fit.serial_fraction * 100.0,
        fit.contention_ratio * 100.0,
        fit.imbalance * 100.0
    ));
    out
}

/// Parse a `PROF_BASELINE.json` document. `label` names the source in
/// errors and in the rendered report.
pub fn parse_baseline(label: &str, text: &str) -> Result<ProfBaseline, ObsError> {
    let root = Json::parse(text).map_err(|detail| perr(label, detail))?;
    let Some(sweep_json) = root.get("sweep").and_then(Json::as_arr) else {
        return Err(perr(label, "missing `sweep` array".to_string()));
    };
    let mut sweep = Vec::new();
    for (idx, p) in sweep_json.iter().enumerate() {
        let Some(threads) = p.get("threads").and_then(Json::as_u64) else {
            return Err(perr(label, format!("sweep[{idx}]: missing `threads`")));
        };
        let Some(wall_secs) = p
            .get("wall_secs")
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite() && *v > 0.0)
        else {
            return Err(perr(
                label,
                format!("sweep[{idx}]: missing or non-positive `wall_secs`"),
            ));
        };
        let mut prof = ProfSnapshot::new();
        if let Some(entries) = p.get("counters").and_then(Json::as_obj) {
            for (name, v) in entries {
                // Unknown names and non-integer values are skipped, so
                // absent series stay zero.
                if let (Some(c), Some(v)) = (ProfCounter::from_name(name), v.as_u64()) {
                    prof.set(c, v);
                }
            }
        }
        if let Some(entries) = p.get("stages").and_then(Json::as_obj) {
            for (name, v) in entries {
                if let Some(stage) = Stage::from_name(name) {
                    let nanos = v.get("nanos").and_then(Json::as_u64).unwrap_or(0);
                    let calls = v.get("calls").and_then(Json::as_u64).unwrap_or(0);
                    prof.set_stage(stage, nanos, calls);
                }
            }
        }
        sweep.push(SweepPoint {
            threads,
            wall_secs,
            prof,
        });
    }
    sweep.sort_by_key(|p| p.threads);
    let domains = root
        .get("domains")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|d| d.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    Ok(ProfBaseline {
        label: label.to_string(),
        seed: root.get("seed").and_then(Json::as_u64),
        domains,
        sweep,
    })
}

/// Read and parse a baseline file.
pub fn load_baseline(path: &str) -> Result<ProfBaseline, ObsError> {
    let text = std::fs::read_to_string(path).map_err(|e| ObsError::Io {
        path: path.to_string(),
        detail: e.to_string(),
    })?;
    parse_baseline(path, &text)
}

fn perr(label: &str, detail: String) -> ObsError {
    ObsError::Profile {
        path: label.to_string(),
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic baseline: perfect Amdahl scaling with serial
    /// fraction `s`, light cache/lock traffic on the top point.
    fn baseline_json(s: f64) -> String {
        let mut sweep = String::new();
        for (i, n) in [1u64, 2, 4, 8].iter().enumerate() {
            if i > 0 {
                sweep.push(',');
            }
            let wall = 4.0 * (s + (1.0 - s) / *n as f64);
            sweep.push_str(&format!(
                "{{\"threads\":{n},\"wall_secs\":{wall},\
                 \"counters\":{{\"lock_shard_acquire\":1000,\"lock_shard_contended\":10,\
                 \"worker_runs\":{n},\"worker_items\":40,\"worker_max_items\":{}}},\
                 \"stages\":{{\"extract\":{{\"nanos\":2000000000,\"calls\":12}},\
                 \"verify\":{{\"nanos\":500000000,\"calls\":12}}}}}}",
                40 / n + 1
            ));
        }
        format!("{{\"seed\":7,\"domains\":[\"airfare\",\"books\"],\"sweep\":[{sweep}]}}")
    }

    #[test]
    fn parses_the_baseline_schema() {
        let b = parse_baseline("t.json", &baseline_json(0.2)).expect("parse");
        assert_eq!(b.seed, Some(7));
        assert_eq!(b.domains, vec!["airfare".to_string(), "books".to_string()]);
        assert_eq!(b.sweep.len(), 4);
        assert_eq!(b.sweep[0].threads, 1);
        assert_eq!(b.sweep[3].threads, 8);
        let top = &b.sweep[3];
        assert_eq!(top.prof.get(ProfCounter::ShardLockAcquire), 1000);
        assert_eq!(top.prof.stage_calls(Stage::Extract), 12);
        assert_eq!(top.prof.stage_nanos(Stage::Verify), 500_000_000);
    }

    #[test]
    fn parse_errors_name_the_problem() {
        match parse_baseline("x", "{}") {
            Err(ObsError::Profile { path, detail }) => {
                assert_eq!(path, "x");
                assert!(detail.contains("sweep"));
            }
            other => panic!("expected Profile error, got {other:?}"),
        }
        assert!(parse_baseline("x", "not json").is_err());
        assert!(parse_baseline("x", "{\"sweep\":[{\"threads\":2}]}").is_err());
        assert!(
            parse_baseline("x", "{\"sweep\":[{\"threads\":2,\"wall_secs\":0}]}").is_err(),
            "zero wall-clock must be rejected"
        );
        // trailing garbage after the document
        assert!(parse_baseline("x", "{\"sweep\":[]} extra").is_err());
    }

    #[test]
    fn unknown_counters_and_stages_are_tolerated() {
        let text = "{\"sweep\":[{\"threads\":1,\"wall_secs\":1.0,\
                    \"counters\":{\"from_the_future\":3,\"worker_items\":5},\
                    \"stages\":{\"warp\":{\"nanos\":1,\"calls\":1}}}]}";
        let b = parse_baseline("t", text).expect("parse");
        assert_eq!(b.sweep[0].prof.get(ProfCounter::WorkerItems), 5);
    }

    #[test]
    fn amdahl_fit_recovers_the_serial_fraction() {
        let b = parse_baseline("t.json", &baseline_json(0.2)).expect("parse");
        let fit = ScalingFit::fit(&b.sweep).expect("fit");
        assert!(
            (fit.serial_fraction - 0.2).abs() < 1e-9,
            "serial {}",
            fit.serial_fraction
        );
        // USL with κ = 0 is algebraically Amdahl: the grid lands on
        // σ ≈ s, κ ≈ 0.
        assert!(
            (fit.sigma - 0.2).abs() <= 0.005 + 1e-12,
            "sigma {}",
            fit.sigma
        );
        assert!(fit.kappa <= 0.0005 + 1e-12, "kappa {}", fit.kappa);
        // serial 20% dwarfs 1% contention and the mild imbalance
        assert_eq!(fit.limiter, "serial-fraction");
    }

    #[test]
    fn limiter_switches_to_the_largest_magnitude() {
        let mut b = parse_baseline("t.json", &baseline_json(0.01)).expect("parse");
        // Make the top point massively imbalanced: one worker did
        // nearly everything.
        let top = b.sweep.last_mut().expect("top point");
        top.prof.set(ProfCounter::WorkerRuns, 8);
        top.prof.set(ProfCounter::WorkerItems, 40);
        top.prof.set(ProfCounter::WorkerMaxItems, 30);
        let fit = ScalingFit::fit(&b.sweep).expect("fit");
        assert!(fit.imbalance > 4.0);
        assert_eq!(fit.limiter, "load-imbalance");

        // Now contention: every other lock acquisition blocked.
        let top = b.sweep.last_mut().expect("top point");
        top.prof.set(ProfCounter::WorkerMaxItems, 5);
        top.prof.set(ProfCounter::ShardLockContended, 500);
        let fit = ScalingFit::fit(&b.sweep).expect("fit");
        assert_eq!(fit.limiter, "lock-contention");
    }

    #[test]
    fn fit_requires_a_single_thread_baseline() {
        let mut b = parse_baseline("t.json", &baseline_json(0.2)).expect("parse");
        b.sweep.remove(0);
        assert_eq!(ScalingFit::fit(&b.sweep), None);
        assert_eq!(ScalingFit::fit(&[]), None);
    }

    #[test]
    fn report_is_deterministic_and_names_the_limiter() {
        let b = parse_baseline("PROF_BASELINE.json", &baseline_json(0.2)).expect("parse");
        let r = render_profile(&b);
        assert_eq!(r, render_profile(&b), "report must be byte-stable");
        assert!(r.contains("attribution at 8 thread(s)"));
        assert!(r.contains("extract"));
        assert!(r.contains("  verify"), "verify is indented under extract");
        assert!(r.contains("cross-cutting"));
        assert!(r.contains("dominant limiter: serial-fraction"));
        assert!(r.contains("amdahl serial fraction: 20.0%"));
        assert!(r.contains("shard lock acquisitions 1000, contended 10"));
    }

    #[test]
    fn empty_sweep_renders_a_stub() {
        let b = ProfBaseline {
            label: "x".into(),
            seed: None,
            domains: vec![],
            sweep: vec![],
        };
        assert!(render_profile(&b).contains("empty sweep"));
    }
}
