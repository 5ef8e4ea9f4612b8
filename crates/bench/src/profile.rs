//! The `profile` experiment: the acquisition pipeline at several worker
//! counts, one table row per width.
//!
//! Each wave of cache-missing engine queries is charged a simulated
//! round trip of [`LATENCY_US`]: real acquisition is I/O-bound, and
//! workers buy their speedup by overlapping round trips.
//!
//! Each domain's acquisition starts from a [`webiq::prof::reset`], so
//! worker imbalance and lock contention are read per domain and then
//! averaged over the domains, the definition `webiq-benchmark` uses for
//! `core.worker_imbalance` and `web.lock_contention_ratio`.

use webiq::core::{Components, WebIQConfig};
use webiq::pipeline::DomainPipeline;

use crate::timing::time_once;

/// Domains the full sweep acquires (the fig-6 workload).
pub const DOMAINS: [&str; 5] = ["airfare", "auto", "book", "job", "realestate"];

/// Domains the `--quick` sweep acquires.
pub const QUICK_DOMAINS: [&str; 1] = ["book"];

/// Worker counts of the full sweep.
pub const FULL_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Worker counts of the `--quick` sweep.
pub const QUICK_THREADS: [usize; 2] = [1, 2];

/// Simulated round-trip per wave of cache-missing engine queries — a 1:300
/// scale-down of the paper's ~0.3 s Google latency.
pub const LATENCY_US: u64 = 1000;

/// One width of the sweep, over all its domains.
#[derive(Debug)]
pub struct Row {
    /// Acquisition workers.
    pub threads: usize,
    /// Wall seconds of the domains' acquisitions, summed.
    pub wall_secs: f64,
    /// Cache-missing engine queries (`EngineStats::total`), summed.
    pub misses: u64,
    /// Round trips (`EngineStats::waves`), summed.
    pub waves: u64,
    /// Worker imbalance (`ProfSnapshot::imbalance`), the domains' mean.
    pub imbalance: f64,
    /// Lock contention ratio (`ProfSnapshot::contention_ratio`), the
    /// domains' mean.
    pub contention: f64,
}

/// Run the sweep: every domain at every worker count.
///
/// # Errors
///
/// Returns the pipeline's error string when a domain is unknown or
/// acquisition fails.
pub fn sweep(domains: &[&str], seed: u64, threads: &[usize]) -> Result<Vec<Row>, String> {
    threads.iter().map(|&t| row(domains, seed, t)).collect()
}

/// One width. Fresh pipelines keep the engine caches cold, so every
/// width pays the same workload; building them is serial and equal at
/// every width, so it stays outside the timed region.
fn row(domains: &[&str], seed: u64, threads: usize) -> Result<Row, String> {
    let pipelines = domains
        .iter()
        .map(|d| {
            let p = DomainPipeline::build(d, seed).map_err(|e| e.to_string())?;
            p.engine.set_simulated_latency_us(LATENCY_US);
            Ok(p)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let cfg = WebIQConfig {
        threads: Some(threads),
        ..WebIQConfig::default()
    };
    let mut row = Row {
        threads,
        wall_secs: 0.0,
        misses: 0,
        waves: 0,
        imbalance: 0.0,
        contention: 0.0,
    };
    for p in &pipelines {
        webiq::prof::reset();
        let (acq, secs) = time_once(|| p.acquire(Components::ALL, &cfg));
        acq.map_err(|e| e.to_string())?;
        let prof = webiq::prof::snapshot();
        row.wall_secs += secs;
        row.misses += p.engine.stats().total();
        row.waves += p.engine.stats().waves();
        row.imbalance += prof.imbalance();
        row.contention += prof.contention_ratio();
    }
    let n = pipelines.len().max(1) as f64;
    row.imbalance /= n;
    row.contention /= n;
    Ok(row)
}

/// The table `experiments profile` prints. Speedup is over the first
/// row, one worker in both sweeps.
pub fn render(domains: &[&str], seed: u64, rows: &[Row]) -> String {
    let mut out = format!(
        "profile: {} (seed {seed}), {LATENCY_US} us a wave\n\
         threads  wall_s  speedup  misses  waves  imbalance  contention\n",
        domains.join(", ")
    );
    let base = rows.first().map_or(0.0, |r| r.wall_secs);
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<7.3} {:<8.2} {:<7} {:<6} {:<10.4} {:.4}\n",
            r.threads,
            r.wall_secs,
            base / r.wall_secs,
            r.misses,
            r.waves,
            r.imbalance,
            r.contention
        ));
    }
    out.push_str(
        "wall_s, speedup, waves, imbalance and contention depend on scheduling; \
         misses are fixed by the seed\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SEED;

    #[test]
    fn unknown_domain_is_an_error() {
        assert!(sweep(&["nope"], SEED, &[1]).is_err());
    }
}
