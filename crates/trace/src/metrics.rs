//! Typed counters, gauges, and histograms with deterministic merge.
//!
//! Every metric in the pipeline is named by a closed enum rather than a
//! string, so recording is an array index (no hashing, no allocation) and
//! the serialized order is fixed by the enum declaration — a prerequisite
//! for byte-identical traces. Three metric kinds exist:
//!
//! - [`Counter`]: monotonic event tallies in a [`MetricSet`]. Merging adds,
//!   and the *delta* of a thread-local set around a work item is a
//!   deterministic measure of that item's activity, independent of cache
//!   state, scheduling, or worker count.
//! - [`Gauge`]: last-known magnitudes (dataset sizes) in a [`GaugeSet`],
//!   which keeps the maximum recorded, so the value does not depend on
//!   recording order.
//! - [`HistKey`]: power-of-two bucketed histograms in a [`HistSet`].
//!   Merging adds bucket-wise.
//!
//! Every counter here is deterministic. Tallies that depend on
//! scheduling (engine cache hits and misses, lock contention) live
//! elsewhere: per engine in `webiq_web::EngineStats`, per process in
//! `webiq_prof`.

/// Number of [`Counter`] variants (the fixed size of a [`MetricSet`]).
pub const NUM_COUNTERS: usize = 45;

/// Every counter the pipeline records, in serialization order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// `search` calls issued (cache hits and misses alike).
    EngineSearchIssued,
    /// `num_hits` calls issued (cache hits and misses alike).
    EngineHitIssued,
    /// Attributes visited by the acquisition strategy.
    AttrsTotal,
    /// Attributes with no pre-defined instances (§5 case 1).
    AttrsNoInstance,
    /// Attributes with pre-defined instances run through Attr-Surface.
    AttrsPredefined,
    /// Pre-defined attributes skipped because Attr-Surface was disabled.
    AttrsSkipped,
    /// Instance-less attributes that reached k with Surface alone.
    SurfaceSuccess,
    /// Instance-less attributes that reached k after Surface + Attr-Deep.
    SurfaceDeepSuccess,
    /// Pre-defined attributes that gained borrowed instances.
    AttrSurfaceEnriched,
    /// Engine queries attributed to the Surface component.
    SurfaceQueries,
    /// Engine queries attributed to the Attr-Surface component.
    AttrSurfaceQueries,
    /// Deep-Web probes attributed to the Attr-Deep component.
    AttrDeepProbes,
    /// Extraction queries sent by the Surface component.
    ExtractQueries,
    /// Candidate instances extracted from snippets.
    CandidatesExtracted,
    /// Candidates removed by the statistical outlier phase (§2.2).
    OutliersRemoved,
    /// Candidates accepted by PMI Web validation.
    ValidationAccepted,
    /// Candidates rejected by PMI Web validation.
    ValidationRejected,
    /// Case-1 borrow candidates considered.
    BorrowCandidates,
    /// Case-1 candidates borrowed without re-probing (domain already validated).
    BorrowReused,
    /// Case-1 candidates skipped (domain already failed probing).
    BorrowSkipped,
    /// Case-1 candidate domains actually probed.
    BorrowProbed,
    /// Case-1 probed domains accepted.
    BorrowAccepted,
    /// Case-1 probed domains rejected.
    BorrowRejected,
    /// Attr-Surface validation classifiers that failed to train.
    BayesTrainFailed,
    /// Borrowed values accepted by the naive-Bayes classifier (§3).
    BayesAccepted,
    /// Borrowed values rejected by the naive-Bayes classifier (§3).
    BayesRejected,
    /// Deep-Web probe submissions issued.
    ProbesIssued,
    /// Probes whose response page contained result records.
    ProbeMatched,
    /// Probes that came back with zero records.
    ProbeEmpty,
    /// Probes rejected by the source (missing/invalid parameter).
    ProbeRejected,
    /// Probes that failed with a simulated server error.
    ProbeServerError,
    /// Agglomerative clustering iterations run by the matcher.
    ClusterIterations,
    /// Cluster merges performed by the matcher.
    ClusterMerges,
    /// Faults injected by the seeded fault plan (all kinds).
    FaultInjected,
    /// Retries attempted after an injected fault.
    FaultRetryAttempt,
    /// Calls abandoned after the retry policy/budget ran out.
    FaultRetryExhausted,
    /// Calls fast-failed by an open circuit breaker.
    FaultBreakerOpen,
    /// Engine calls denied by the daily-quota tracker.
    FaultQuotaDenied,
    /// Attributes that finished in a degraded state (partial results).
    FaultAttrsDegraded,
    /// Attributes served from the persistent store (acquisition skipped).
    StoreWarmHit,
    /// Attributes acquired fresh because the store had no usable entry.
    StoreWarmMiss,
    /// Log records replayed over a snapshot during store recovery.
    StoreLogReplay,
    /// Log records discarded as torn/corrupt during store recovery.
    StoreTruncatedRecords,
    /// Committed bytes recovered from the store's snapshot + log.
    StoreRecoveredBytes,
    /// Records appended to the store's log.
    StoreRecordsWritten,
}

impl Counter {
    /// All counters, in serialization order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::EngineSearchIssued,
        Counter::EngineHitIssued,
        Counter::AttrsTotal,
        Counter::AttrsNoInstance,
        Counter::AttrsPredefined,
        Counter::AttrsSkipped,
        Counter::SurfaceSuccess,
        Counter::SurfaceDeepSuccess,
        Counter::AttrSurfaceEnriched,
        Counter::SurfaceQueries,
        Counter::AttrSurfaceQueries,
        Counter::AttrDeepProbes,
        Counter::ExtractQueries,
        Counter::CandidatesExtracted,
        Counter::OutliersRemoved,
        Counter::ValidationAccepted,
        Counter::ValidationRejected,
        Counter::BorrowCandidates,
        Counter::BorrowReused,
        Counter::BorrowSkipped,
        Counter::BorrowProbed,
        Counter::BorrowAccepted,
        Counter::BorrowRejected,
        Counter::BayesTrainFailed,
        Counter::BayesAccepted,
        Counter::BayesRejected,
        Counter::ProbesIssued,
        Counter::ProbeMatched,
        Counter::ProbeEmpty,
        Counter::ProbeRejected,
        Counter::ProbeServerError,
        Counter::ClusterIterations,
        Counter::ClusterMerges,
        Counter::FaultInjected,
        Counter::FaultRetryAttempt,
        Counter::FaultRetryExhausted,
        Counter::FaultBreakerOpen,
        Counter::FaultQuotaDenied,
        Counter::FaultAttrsDegraded,
        Counter::StoreWarmHit,
        Counter::StoreWarmMiss,
        Counter::StoreLogReplay,
        Counter::StoreTruncatedRecords,
        Counter::StoreRecoveredBytes,
        Counter::StoreRecordsWritten,
    ];

    /// The counter's stable snake_case name (the JSONL key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::EngineSearchIssued => "engine_search_issued",
            Counter::EngineHitIssued => "engine_hit_issued",
            Counter::AttrsTotal => "attrs_total",
            Counter::AttrsNoInstance => "attrs_no_instance",
            Counter::AttrsPredefined => "attrs_predefined",
            Counter::AttrsSkipped => "attrs_skipped",
            Counter::SurfaceSuccess => "surface_success",
            Counter::SurfaceDeepSuccess => "surface_deep_success",
            Counter::AttrSurfaceEnriched => "attr_surface_enriched",
            Counter::SurfaceQueries => "surface_queries",
            Counter::AttrSurfaceQueries => "attr_surface_queries",
            Counter::AttrDeepProbes => "attr_deep_probes",
            Counter::ExtractQueries => "extract_queries",
            Counter::CandidatesExtracted => "candidates_extracted",
            Counter::OutliersRemoved => "outliers_removed",
            Counter::ValidationAccepted => "validation_accepted",
            Counter::ValidationRejected => "validation_rejected",
            Counter::BorrowCandidates => "borrow_candidates",
            Counter::BorrowReused => "borrow_reused",
            Counter::BorrowSkipped => "borrow_skipped",
            Counter::BorrowProbed => "borrow_probed",
            Counter::BorrowAccepted => "borrow_accepted",
            Counter::BorrowRejected => "borrow_rejected",
            Counter::BayesTrainFailed => "bayes_train_failed",
            Counter::BayesAccepted => "bayes_accepted",
            Counter::BayesRejected => "bayes_rejected",
            Counter::ProbesIssued => "probes_issued",
            Counter::ProbeMatched => "probe_matched",
            Counter::ProbeEmpty => "probe_empty",
            Counter::ProbeRejected => "probe_rejected",
            Counter::ProbeServerError => "probe_server_error",
            Counter::ClusterIterations => "cluster_iterations",
            Counter::ClusterMerges => "cluster_merges",
            Counter::FaultInjected => "fault_injected",
            Counter::FaultRetryAttempt => "fault_retry_attempt",
            Counter::FaultRetryExhausted => "fault_retry_exhausted",
            Counter::FaultBreakerOpen => "fault_breaker_open",
            Counter::FaultQuotaDenied => "fault_quota_denied",
            Counter::FaultAttrsDegraded => "fault_attrs_degraded",
            Counter::StoreWarmHit => "store_warm_hit",
            Counter::StoreWarmMiss => "store_warm_miss",
            Counter::StoreLogReplay => "store_log_replay",
            Counter::StoreTruncatedRecords => "store_truncated_records",
            Counter::StoreRecoveredBytes => "store_recovered_bytes",
            Counter::StoreRecordsWritten => "store_records_written",
        }
    }

    /// Inverse of [`Counter::name`].
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.iter().copied().find(|c| c.name() == name)
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// A fixed-size, copyable set of counter values. The unit of deterministic
/// aggregation: thread-local sets are snapshotted around each work item
/// and the deltas merged in item order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSet {
    counts: [u64; NUM_COUNTERS],
}

impl Default for MetricSet {
    fn default() -> Self {
        MetricSet::new()
    }
}

impl MetricSet {
    /// An all-zero set.
    pub const fn new() -> Self {
        MetricSet {
            counts: [0; NUM_COUNTERS],
        }
    }

    /// Current value of `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counts[c.idx()]
    }

    /// Add `n` to `c` (saturating).
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counts[c.idx()] = self.counts[c.idx()].saturating_add(n);
    }

    /// Element-wise add of `other` into `self`.
    pub fn merge(&mut self, other: &MetricSet) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// Element-wise `self - earlier` (saturating). With a monotonic
    /// thread-local set, this is the activity between two snapshots.
    pub fn diff(&self, earlier: &MetricSet) -> MetricSet {
        let mut out = MetricSet::new();
        for (o, (a, b)) in out
            .counts
            .iter_mut()
            .zip(self.counts.iter().zip(earlier.counts.iter()))
        {
            *o = a.saturating_sub(*b);
        }
        out
    }

    /// The non-zero entries, in declaration order.
    pub fn nonzero(&self) -> Vec<(Counter, u64)> {
        Counter::ALL
            .iter()
            .filter_map(|&c| {
                let v = self.get(c);
                (v > 0).then_some((c, v))
            })
            .collect()
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&v| v == 0)
    }
}

/// Number of [`Gauge`] variants.
pub const NUM_GAUGES: usize = 3;

/// Last-known magnitudes of the run's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gauge {
    /// Query interfaces in the dataset.
    Interfaces,
    /// Attributes across all interfaces.
    Attributes,
    /// Documents in the simulated Surface-Web corpus.
    CorpusDocs,
}

impl Gauge {
    /// All gauges, in serialization order.
    pub const ALL: [Gauge; NUM_GAUGES] = [Gauge::Interfaces, Gauge::Attributes, Gauge::CorpusDocs];

    /// The gauge's stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::Interfaces => "interfaces",
            Gauge::Attributes => "attributes",
            Gauge::CorpusDocs => "corpus_docs",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// A fixed-size set of gauge values, each the maximum recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GaugeSet {
    values: [u64; NUM_GAUGES],
}

impl GaugeSet {
    /// An all-zero set.
    pub const fn new() -> Self {
        GaugeSet {
            values: [0; NUM_GAUGES],
        }
    }

    /// Record `v` for `g`, keeping the maximum seen.
    pub fn set(&mut self, g: Gauge, v: u64) {
        self.values[g.idx()] = self.values[g.idx()].max(v);
    }

    /// Current value of `g`.
    pub fn get(&self, g: Gauge) -> u64 {
        self.values[g.idx()]
    }
}

/// Number of [`HistKey`] variants.
pub const NUM_HISTS: usize = 2;

/// Number of buckets per histogram.
pub const NUM_BUCKETS: usize = 8;

/// Bucketed distributions of per-item magnitudes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistKey {
    /// Candidate instances extracted per instance-less attribute.
    CandidatesPerAttr,
    /// Deep-Web probes issued per instance-less attribute.
    ProbesPerAttr,
}

impl HistKey {
    /// All histograms, in serialization order.
    pub const ALL: [HistKey; NUM_HISTS] = [HistKey::CandidatesPerAttr, HistKey::ProbesPerAttr];

    /// The histogram's stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            HistKey::CandidatesPerAttr => "candidates_per_attr",
            HistKey::ProbesPerAttr => "probes_per_attr",
        }
    }

    /// Inverse of [`HistKey::name`].
    pub fn from_name(name: &str) -> Option<HistKey> {
        HistKey::ALL.iter().copied().find(|h| h.name() == name)
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Which bucket a value lands in: 0, then one bucket per power of two.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(NUM_BUCKETS - 1)
    }
}

/// The inclusive value range of bucket `b`: `(lower, Some(upper))`, or
/// `(lower, None)` for the open-ended last bucket. Out-of-range buckets
/// report the last bucket's bounds.
pub fn bucket_bounds(b: usize) -> (u64, Option<u64>) {
    match b {
        0 => (0, Some(0)),
        1..=6 => (1 << (b - 1), Some((1 << b) - 1)),
        _ => (64, None),
    }
}

/// A fixed-size set of power-of-two-bucketed histograms; merging adds
/// bucket-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSet {
    buckets: [[u64; NUM_BUCKETS]; NUM_HISTS],
}

impl Default for HistSet {
    fn default() -> Self {
        HistSet::new()
    }
}

impl HistSet {
    /// An all-zero set.
    pub const fn new() -> Self {
        HistSet {
            buckets: [[0; NUM_BUCKETS]; NUM_HISTS],
        }
    }

    /// Record one observation of `v` under `h`.
    pub fn observe(&mut self, h: HistKey, v: u64) {
        let b = bucket_index(v);
        self.buckets[h.idx()][b] = self.buckets[h.idx()][b].saturating_add(1);
    }

    /// The count in bucket `b` of `h` (0 for an out-of-range bucket).
    pub fn bucket(&self, h: HistKey, b: usize) -> u64 {
        self.buckets[h.idx()].get(b).copied().unwrap_or(0)
    }

    /// Total observations recorded under `h`.
    pub fn count(&self, h: HistKey) -> u64 {
        self.buckets[h.idx()].iter().sum()
    }

    /// Bucket-wise add of `other` into `self`.
    pub fn merge(&mut self, other: &HistSet) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            for (a, b) in mine.iter_mut().zip(theirs.iter()) {
                *a = a.saturating_add(*b);
            }
        }
    }

    /// Bucket-wise `self - earlier` (saturating).
    pub fn diff(&self, earlier: &HistSet) -> HistSet {
        let mut out = HistSet::new();
        for (o, (a, b)) in out
            .buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(earlier.buckets.iter()))
        {
            for (ov, (av, bv)) in o.iter_mut().zip(a.iter().zip(b.iter())) {
                *ov = av.saturating_sub(*bv);
            }
        }
        out
    }

    /// Add `n` observations directly into bucket `b` of `h` (saturating);
    /// out-of-range buckets are ignored. The deserialization hook for
    /// histogram deltas read back from a trace stream.
    pub fn add_bucket(&mut self, h: HistKey, b: usize, n: u64) {
        if let Some(slot) = self.buckets[h.idx()].get_mut(b) {
            *slot = slot.saturating_add(n);
        }
    }

    /// The raw bucket counts of `h`, in bucket order.
    pub fn buckets_of(&self, h: HistKey) -> [u64; NUM_BUCKETS] {
        self.buckets[h.idx()]
    }

    /// The histograms with at least one observation, as
    /// `(key, bucket counts)` pairs in declaration order.
    pub fn nonzero(&self) -> Vec<(HistKey, [u64; NUM_BUCKETS])> {
        HistKey::ALL
            .iter()
            .filter(|&&h| self.count(h) > 0)
            .map(|&h| (h, self.buckets_of(h)))
            .collect()
    }

    /// Estimate the `p`-quantile of `h` from its power-of-two buckets.
    ///
    /// Uses the nearest-rank method at bucket resolution: the estimate is
    /// the inclusive *upper bound* of the bucket containing the rank
    /// `ceil(p·n)` observation (clamped to `[1, n]`, so `p = 0` selects
    /// the first observation and `p = 1` the last). The open-ended last
    /// bucket reports its lower bound, 64. `p` outside `[0, 1]` (or NaN)
    /// is clamped. Returns `None` for an empty histogram.
    pub fn quantile(&self, h: HistKey, p: f64) -> Option<f64> {
        let n = self.count(h);
        if n == 0 {
            return None;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        // f64 -> u64 `as` casts saturate, so huge products stay safe.
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (b, &count) in self.buckets[h.idx()].iter().enumerate() {
            cum = cum.saturating_add(count);
            if cum >= rank {
                let (lo, hi) = bucket_bounds(b);
                return Some(hi.unwrap_or(lo) as f64);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_roundtrip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &c in &Counter::ALL {
            assert!(seen.insert(c.name()), "duplicate name {}", c.name());
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        assert_eq!(Counter::ALL.len(), NUM_COUNTERS);
        assert_eq!(Counter::from_name("nope"), None);
    }

    #[test]
    fn metric_set_add_merge_diff() {
        let mut a = MetricSet::new();
        a.add(Counter::EngineHitIssued, 3);
        a.add(Counter::ProbesIssued, 1);
        let mut b = MetricSet::new();
        b.add(Counter::EngineHitIssued, 2);
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.get(Counter::EngineHitIssued), 5);
        assert_eq!(m.get(Counter::ProbesIssued), 1);
        let d = m.diff(&b);
        assert_eq!(d.get(Counter::EngineHitIssued), 3);
        assert_eq!(
            d.nonzero(),
            vec![(Counter::EngineHitIssued, 3), (Counter::ProbesIssued, 1)]
        );
        assert!(!d.is_zero());
        assert!(MetricSet::new().is_zero());
    }

    #[test]
    fn metric_set_diff_saturates_on_underflow() {
        // `diff` promises `self - earlier` saturating at zero: a counter
        // that is *smaller* in `self` (only possible when the operands are
        // not snapshots of one monotonic set) must clamp, not wrap.
        let mut small = MetricSet::new();
        small.add(Counter::ProbesIssued, 2);
        let mut big = MetricSet::new();
        big.add(Counter::ProbesIssued, 7);
        big.add(Counter::AttrsTotal, 1);
        let d = small.diff(&big);
        assert_eq!(d.get(Counter::ProbesIssued), 0);
        assert_eq!(d.get(Counter::AttrsTotal), 0);
        assert!(d.is_zero());
        // and the well-ordered direction still subtracts exactly
        assert_eq!(big.diff(&small).get(Counter::ProbesIssued), 5);
    }

    #[test]
    fn gauges_keep_the_max() {
        let mut a = GaugeSet::new();
        a.set(Gauge::Interfaces, 20);
        a.set(Gauge::Interfaces, 5); // keeps max
        a.set(Gauge::Attributes, 80);
        assert_eq!(a.get(Gauge::Interfaces), 20);
        assert_eq!(a.get(Gauge::Attributes), 80);
        assert_eq!(a.get(Gauge::CorpusDocs), 0);
    }

    #[test]
    fn histogram_buckets() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(63), 6);
        assert_eq!(bucket_index(64), 7);
        assert_eq!(bucket_index(u64::MAX), 7);
        let mut h = HistSet::new();
        h.observe(HistKey::CandidatesPerAttr, 0);
        h.observe(HistKey::CandidatesPerAttr, 5);
        h.observe(HistKey::ProbesPerAttr, 100);
        assert_eq!(h.count(HistKey::CandidatesPerAttr), 2);
        assert_eq!(h.bucket(HistKey::CandidatesPerAttr, 3), 1);
        let mut m = HistSet::new();
        m.merge(&h);
        m.merge(&h);
        assert_eq!(m.count(HistKey::CandidatesPerAttr), 4);
        assert_eq!(m.diff(&h), h);
    }

    #[test]
    fn hist_key_names_roundtrip() {
        for &h in &HistKey::ALL {
            assert_eq!(HistKey::from_name(h.name()), Some(h));
        }
        assert_eq!(HistKey::from_name("nope"), None);
    }

    #[test]
    fn bucket_bounds_cover_the_range() {
        assert_eq!(bucket_bounds(0), (0, Some(0)));
        assert_eq!(bucket_bounds(1), (1, Some(1)));
        assert_eq!(bucket_bounds(2), (2, Some(3)));
        assert_eq!(bucket_bounds(6), (32, Some(63)));
        assert_eq!(bucket_bounds(7), (64, None));
        // every value's bucket contains it
        for v in [0u64, 1, 2, 3, 4, 63, 64, 1000] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v, "{v}");
            assert!(hi.is_none_or(|h| v <= h), "{v}");
        }
    }

    #[test]
    fn quantile_empty_histogram_is_none() {
        let h = HistSet::new();
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(HistKey::ProbesPerAttr, p), None);
        }
    }

    #[test]
    fn quantile_at_pinned_ranks() {
        // Values 1..=10 land in buckets: [1]=1, [2-3]=2, [4-7]=4, [8-15]=3.
        let mut h = HistSet::new();
        for v in 1..=10 {
            h.observe(HistKey::CandidatesPerAttr, v);
        }
        let q = |p| h.quantile(HistKey::CandidatesPerAttr, p);
        assert_eq!(q(0.0), Some(1.0)); // rank 1 -> bucket [1]
        assert_eq!(q(0.5), Some(7.0)); // rank 5 -> bucket [4-7]
        assert_eq!(q(0.99), Some(15.0)); // rank 10 -> bucket [8-15]
        assert_eq!(q(1.0), Some(15.0)); // rank 10, same bucket
                                        // out-of-range and NaN p are clamped, not panicking
        assert_eq!(q(-3.0), Some(1.0));
        assert_eq!(q(7.0), Some(15.0));
        assert_eq!(q(f64::NAN), Some(1.0));
    }

    #[test]
    fn quantile_single_bucket_collapses_every_p() {
        // All mass in one bucket: every quantile is that bucket's upper
        // bound, regardless of p.
        let mut h = HistSet::new();
        for _ in 0..7 {
            h.observe(HistKey::CandidatesPerAttr, 5); // bucket [4-7]
        }
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(HistKey::CandidatesPerAttr, p), Some(7.0), "{p}");
        }
    }

    #[test]
    fn quantile_p99_on_two_samples_selects_the_upper_one() {
        // n = 2: rank ceil(0.99 * 2) = 2, so p99 is the larger sample's
        // bucket — the tail sample must not be averaged away.
        let mut h = HistSet::new();
        h.observe(HistKey::ProbesPerAttr, 1); // bucket [1]
        h.observe(HistKey::ProbesPerAttr, 40); // bucket [32-63]
        assert_eq!(h.quantile(HistKey::ProbesPerAttr, 0.99), Some(63.0));
        // ...while the median lands on the lower sample (rank 1).
        assert_eq!(h.quantile(HistKey::ProbesPerAttr, 0.5), Some(1.0));
    }

    #[test]
    fn quantile_open_last_bucket_reports_lower_bound() {
        let mut h = HistSet::new();
        h.observe(HistKey::ProbesPerAttr, 100);
        h.observe(HistKey::ProbesPerAttr, 5000);
        assert_eq!(h.quantile(HistKey::ProbesPerAttr, 0.5), Some(64.0));
        assert_eq!(h.quantile(HistKey::ProbesPerAttr, 1.0), Some(64.0));
    }

    #[test]
    fn hist_nonzero_and_add_bucket_roundtrip() {
        let mut h = HistSet::new();
        h.observe(HistKey::ProbesPerAttr, 6);
        h.observe(HistKey::ProbesPerAttr, 6);
        let nz = h.nonzero();
        assert_eq!(nz.len(), 1);
        let (key, buckets) = nz[0];
        assert_eq!(key, HistKey::ProbesPerAttr);
        let mut rebuilt = HistSet::new();
        for (b, &n) in buckets.iter().enumerate() {
            rebuilt.add_bucket(key, b, n);
        }
        assert_eq!(rebuilt, h);
        rebuilt.add_bucket(key, NUM_BUCKETS + 5, 9); // out of range: ignored
        assert_eq!(rebuilt, h);
    }
}
