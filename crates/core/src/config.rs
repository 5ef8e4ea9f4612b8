//! Configuration for the WebIQ pipeline.

use std::sync::Arc;

use webiq_fault::FaultConfig;
use webiq_obs::LiveRegistry;
use webiq_stats::DiscordancyTest;
use webiq_trace::Tracer;

/// Tunables for the Surface component and the validation machinery.
#[derive(Debug, Clone)]
pub struct WebIQConfig {
    /// Number of instances to acquire per attribute (`k` in §2 and §5;
    /// the paper deems acquisition successful at k = 10).
    pub k: usize,
    /// Snippets downloaded per extraction query (top-k results).
    pub snippets_per_query: usize,
    /// Number of domain keywords appended to extraction queries
    /// (the `+book` of `"authors such as" +book`).
    pub scope_keywords: usize,
    /// Number of sibling-attribute-label keywords appended to extraction
    /// queries (the `+title +isbn` of the paper's example). Each keyword is
    /// a strict AND filter, so this trades snippet volume for precision;
    /// 0 disables the narrowing.
    pub sibling_keywords: usize,
    /// Minimum average-PMI validation score for a candidate to survive Web
    /// validation (0 = any positive evidence).
    pub min_validation_score: f64,
    /// Run the statistical outlier-removal phase before Web validation
    /// (§2.2; switchable for the ablation study).
    pub outlier_phase: bool,
    /// Which discordancy test the outlier phase runs (the paper's 3σ rule
    /// or Grubbs' sample-size-aware test — both from its citation \[4\]).
    pub discordancy: DiscordancyTest,
    /// Use PMI for validation scores; `false` falls back to raw joint hit
    /// counts (ablation: popularity bias).
    pub use_pmi: bool,
    /// Label-similarity floor when selecting borrow candidates for an
    /// instance-less attribute (§5 case 1).
    pub borrow_label_sim: f64,
    /// Domain-similarity ceiling against sibling attributes when selecting
    /// borrow candidates (§5 case 1: the candidate's domain must be very
    /// different from every other domain on X₁'s interface).
    pub borrow_sibling_dom_sim: f64,
    /// Maximum probes sent to a Deep-Web source per borrowed attribute.
    pub probe_limit: usize,
    /// Success ratio above which all of B's instances are accepted (§4
    /// uses one third).
    pub probe_accept_ratio: f64,
    /// Apply the §5 borrow-candidate pre-filters (ablation switch;
    /// `false` borrows from every attribute with instances).
    pub borrow_prefilter: bool,
    /// Estimate classifier thresholds by information gain (§3.2);
    /// `false` uses the midpoint of the observed score range (ablation).
    pub info_gain_thresholds: bool,
    /// Worker threads for parallel acquisition. `None` resolves from the
    /// `WEBIQ_THREADS` environment variable, then from the machine's
    /// available parallelism. Any thread count produces byte-identical
    /// acquisition output (see DESIGN.md).
    pub threads: Option<usize>,
    /// Trace collector for the run. Disabled by default — recording and
    /// event emission then cost nothing — and cheap to clone (an `Arc`).
    /// With an enabled tracer, acquisition emits one deterministic span
    /// stream per run (byte-identical across worker counts).
    pub tracer: Tracer,
    /// Live metrics registry for `/metrics` exposition. `None` (the
    /// default) publishes nothing. Like the tracer, the registry is fed
    /// from the deterministic merge loop only, so a post-run scrape is
    /// byte-identical at any worker count.
    pub obs: Option<Arc<LiveRegistry>>,
    /// Fault-injection and resilience knobs (seeded fault plan, retry
    /// policy, circuit breakers, daily quota). Fully disabled by default;
    /// the wrappers then never engage and the run is byte-identical to a
    /// fault-free build. See also the `WEBIQ_FAULT_SEED` and
    /// `WEBIQ_FAULT_RATE` environment variables
    /// ([`WebIQConfig::resolved_fault`]).
    pub fault: FaultConfig,
    /// Persistent knowledge store (crash-safe append log + snapshot;
    /// see `webiq-store`). `None` — the default — persists nothing.
    /// With a store, acquisition first checks for a completed run with
    /// an identical input fingerprint and warm-starts from it
    /// (byte-identical instances and report, near-zero engine traffic);
    /// a cold run writes its instances, probe verdicts, and trained
    /// Bayes models through the store's fsync'd log as it merges items.
    pub store: Option<Arc<webiq_store::Store>>,
}

impl WebIQConfig {
    /// The acquisition worker count: the explicit `threads` override if
    /// set, else `WEBIQ_THREADS`, else available parallelism (at least 1).
    #[expect(
        clippy::disallowed_methods,
        reason = "WEBIQ_THREADS is the documented worker-count fallback"
    )]
    pub fn resolved_threads(&self) -> usize {
        if let Some(n) = self.threads {
            return n.max(1);
        }
        if let Some(n) = std::env::var("WEBIQ_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    }

    /// The fault configuration the run actually uses: the explicit
    /// `fault` field, with the `WEBIQ_FAULT_SEED` and `WEBIQ_FAULT_RATE`
    /// environment variables supplying the seed and transient rate *only
    /// when the corresponding field is still at its default* — the same
    /// fallback semantics as `WEBIQ_THREADS`, so programmatic settings
    /// always win over ambient ones.
    #[expect(
        clippy::disallowed_methods,
        reason = "WEBIQ_FAULT_SEED and WEBIQ_FAULT_RATE are the documented fault-plan fallbacks"
    )]
    pub fn resolved_fault(&self) -> FaultConfig {
        let mut fault = self.fault.clone();
        let default = FaultConfig::default();
        if fault.seed == default.seed {
            if let Some(seed) = std::env::var("WEBIQ_FAULT_SEED")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
            {
                fault.seed = seed;
            }
        }
        if fault.transient_rate == default.transient_rate {
            if let Some(rate) = std::env::var("WEBIQ_FAULT_RATE")
                .ok()
                .and_then(|v| v.trim().parse::<f64>().ok())
            {
                fault.transient_rate = rate.clamp(0.0, 1.0);
            }
        }
        fault
    }
}

impl Default for WebIQConfig {
    fn default() -> Self {
        WebIQConfig {
            k: 10,
            snippets_per_query: 10,
            scope_keywords: 1,
            sibling_keywords: 0,
            min_validation_score: 0.0,
            outlier_phase: true,
            discordancy: DiscordancyTest::ThreeSigma,
            use_pmi: true,
            borrow_label_sim: 0.25,
            borrow_sibling_dom_sim: 0.3,
            probe_limit: 6,
            probe_accept_ratio: 1.0 / 3.0,
            borrow_prefilter: true,
            info_gain_thresholds: true,
            threads: None,
            tracer: Tracer::disabled(),
            obs: None,
            fault: FaultConfig::default(),
            store: None,
        }
    }
}

/// Which WebIQ components run during acquisition — Figure 7's axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Components {
    /// Discover instances from the Surface Web (§2).
    pub surface: bool,
    /// Borrow + validate via the Deep Web (§4).
    pub attr_deep: bool,
    /// Borrow + validate via the Surface Web (§3).
    pub attr_surface: bool,
}

impl Components {
    /// Baseline: no acquisition at all.
    pub const NONE: Components = Components {
        surface: false,
        attr_deep: false,
        attr_surface: false,
    };
    /// Surface only.
    pub const SURFACE: Components = Components {
        surface: true,
        attr_deep: false,
        attr_surface: false,
    };
    /// Surface + Attr-Deep.
    pub const SURFACE_DEEP: Components = Components {
        surface: true,
        attr_deep: true,
        attr_surface: false,
    };
    /// All three components (full WebIQ).
    pub const ALL: Components = Components {
        surface: true,
        attr_deep: true,
        attr_surface: true,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = WebIQConfig::default();
        assert_eq!(c.k, 10);
        assert!((c.probe_accept_ratio - 1.0 / 3.0).abs() < 1e-12);
        assert!(c.outlier_phase);
        assert!(c.use_pmi);
    }

    #[test]
    fn threads_resolution() {
        // explicit override wins and is floored at 1
        assert_eq!(
            WebIQConfig {
                threads: Some(4),
                ..WebIQConfig::default()
            }
            .resolved_threads(),
            4
        );
        assert_eq!(
            WebIQConfig {
                threads: Some(0),
                ..WebIQConfig::default()
            }
            .resolved_threads(),
            1
        );
        // unset: env var or machine parallelism, but never 0
        assert!(WebIQConfig::default().resolved_threads() >= 1);
    }

    #[test]
    fn fault_machinery_is_off_by_default() {
        let c = WebIQConfig::default();
        assert!(!c.fault.enabled());
        // explicit settings always survive resolution
        let chaos = WebIQConfig {
            fault: FaultConfig::chaos(42, 0.2),
            ..WebIQConfig::default()
        };
        let resolved = chaos.resolved_fault();
        assert_eq!(resolved.seed, 42);
        assert!((resolved.transient_rate - 0.2).abs() < 1e-12);
    }

    #[test]
    fn component_presets() {
        let enabled = |c: Components| [c.surface, c.attr_deep, c.attr_surface];
        assert_eq!(enabled(Components::NONE), [false, false, false]);
        assert_eq!(enabled(Components::SURFACE), [true, false, false]);
        assert_eq!(enabled(Components::SURFACE_DEEP), [true, true, false]);
        assert_eq!(enabled(Components::ALL), [true, true, true]);
    }
}
