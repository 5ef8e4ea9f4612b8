//! The search-engine façade: `search` and `num_hits` over the index.
//!
//! This is the interface WebIQ's components program against — the same
//! surface the paper used via Google's Web API: top-k result *snippets*
//! for extraction queries and *hit counts* for validation queries. Query
//! traffic is counted so the overhead analysis (Fig. 8) can report the
//! number of search-engine round-trips per component.
//!
//! The engine is fully `Sync` and designed to be shared across the
//! parallel acquisition workers (see DESIGN.md, "Parallel acquisition
//! architecture"):
//!
//! - two caches memoise answers: hit counts in an unbounded map sharded N
//!   ways, so unrelated queries never contend on one lock, and snippet
//!   lists in a bounded sharded LRU storing `Arc`s, so repeated
//!   extraction queries are served without re-matching;
//! - a cache miss parses the query and evaluates it rarest-term-first
//!   ([`InvertedIndex::matches`]), in time proportional to the postings
//!   of its rarest positive term rather than of its first one; the
//!   index is built once, on the constructing thread, and read-only
//!   after that;
//! - every call makes three counter updates, one per telemetry home:
//!   1. the `webiq-trace` *thread-local* issued counter
//!      ([`Counter::EngineSearchIssued`] / [`Counter::EngineHitIssued`]),
//!      so a worker measures exactly the queries its own work item
//!      issued, independent of cache state or scheduling — the basis of
//!      the deterministic per-component cost accounting in `webiq-core`;
//!   2. one cache-outcome slot of this engine's [`EngineStats`];
//!   3. the same outcome in the process-wide `webiq-prof` registry
//!      (which also attributes evictions and times cache-missing
//!      queries).
//!
//!   Cache hits and misses depend on scheduling, so they live only in
//!   the last two and never enter the deterministic trace stream.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use webiq_prof::{ProfCounter, Stage};
use webiq_trace::Counter;

use crate::cache::{ShardedLru, ShardedMap};
use crate::corpus::Corpus;
use crate::index::InvertedIndex;
use crate::query;

/// A result snippet: a text window around the first match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snippet {
    /// Source document id.
    pub doc_id: u32,
    /// The snippet text (a contiguous slice of the document).
    pub text: String,
}

/// The two query primitives WebIQ's components program against — the
/// surface the paper used via Google's Web API. [`SearchEngine`]
/// implements it directly; resilience wrappers (fault injection, retry,
/// quota — see `webiq-core`'s `resilience` module) implement it by
/// delegation, so every extraction/validation routine is generic over
/// whether it talks to the raw engine or a guarded one.
pub trait QueryEngine {
    /// Top-`k` result snippets for `query` (extraction queries).
    fn search(&self, query: &str, k: usize) -> Vec<Snippet>;

    /// Number of pages matching `query` (validation queries).
    fn num_hits(&self, query: &str) -> u64;

    /// True while hit-count evidence is trustworthy. A quota-exhausted
    /// wrapper returns false, telling validation to degrade from
    /// PMI-based Web checks to statistics-only filtering.
    fn validation_available(&self) -> bool {
        true
    }
}

impl QueryEngine for SearchEngine {
    fn search(&self, query: &str, k: usize) -> Vec<Snippet> {
        SearchEngine::search(self, query, k)
    }

    fn num_hits(&self, query: &str) -> u64 {
        SearchEngine::num_hits(self, query)
    }
}

/// Per-engine traffic counters, used by the overhead analysis: one
/// relaxed atomic per cache outcome.
///
/// Misses are actual round-trips to the engine core; hits plus misses
/// are every call. Repeated queries (phrase and candidate marginals recur
/// constantly during classifier training) would be served from a
/// client-side cache in any real deployment and cost no search-engine
/// round-trip. Racing threads that miss on the same fresh query may each
/// count a miss, so the split depends on scheduling; the sum does not.
/// For per-call-site accounting that is independent of cache state, diff
/// the thread-local counters via [`webiq_trace::snapshot`].
#[derive(Debug, Default)]
pub struct EngineStats {
    search_hits: AtomicU64,
    search_misses: AtomicU64,
    hit_hits: AtomicU64,
    hit_misses: AtomicU64,
}

impl EngineStats {
    /// Number of `search` calls that missed the cache.
    pub fn search_queries(&self) -> u64 {
        self.search_misses.load(Ordering::Relaxed)
    }

    /// Number of `num_hits` calls that missed the cache.
    pub fn hit_queries(&self) -> u64 {
        self.hit_misses.load(Ordering::Relaxed)
    }

    /// Total cache-missing queries of both kinds.
    pub fn total(&self) -> u64 {
        self.search_queries() + self.hit_queries()
    }

    /// Total issued queries of both kinds: cache hits plus misses.
    pub fn total_issued(&self) -> u64 {
        self.search_hits.load(Ordering::Relaxed)
            + self.hit_hits.load(Ordering::Relaxed)
            + self.total()
    }

    /// Fraction of issued queries served from cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let issued = self.total_issued();
        if issued == 0 {
            return 0.0;
        }
        1.0 - self.total() as f64 / issued as f64
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        for a in [
            &self.search_hits,
            &self.search_misses,
            &self.hit_hits,
            &self.hit_misses,
        ] {
            a.store(0, Ordering::Relaxed);
        }
    }
}

/// Count one call's cache outcome in its engine slot and in the
/// process-wide registry.
fn bump(slot: &AtomicU64, prof: ProfCounter) {
    slot.fetch_add(1, Ordering::Relaxed);
    webiq_prof::incr(prof);
}

/// Bounded capacity of the search (snippet) result cache.
const SEARCH_CACHE_CAP: usize = 4096;

/// The simulated search engine.
///
/// ```
/// use webiq_web::{Corpus, SearchEngine};
/// let engine = SearchEngine::new(Corpus::from_texts([
///     "airlines such as Delta and United fly from Boston",
///     "a page about gardening",
/// ]));
/// assert_eq!(engine.num_hits("\"airlines such as\""), 1);
/// assert_eq!(engine.num_hits("boston -gardening"), 1);
/// let snippets = engine.search("\"airlines such as\"", 10);
/// assert!(snippets[0].text.contains("Delta"));
/// ```
pub struct SearchEngine {
    corpus: Corpus,
    index: InvertedIndex,
    stats: EngineStats,
    hit_cache: ShardedMap<u64>,
    search_cache: ShardedLru<(String, usize), Arc<Vec<Snippet>>>,
    /// Simulated network round-trip, in microseconds, charged to each
    /// cache *miss* (a cache hit is a local lookup). 0 = disabled.
    latency_us: AtomicU64,
}

impl SearchEngine {
    /// Index `corpus` and stand up the engine. An empty corpus is valid:
    /// every query answers zero hits.
    pub fn new(corpus: Corpus) -> Self {
        let index = InvertedIndex::build(&corpus);
        SearchEngine {
            corpus,
            index,
            stats: EngineStats::default(),
            hit_cache: ShardedMap::new(),
            search_cache: ShardedLru::new(SEARCH_CACHE_CAP),
            latency_us: AtomicU64::new(0),
        }
    }

    /// Charge every cache-missing query a simulated network round-trip of
    /// `us` microseconds (the paper cites 0.1-0.5 s per Google query).
    /// Makes the engine I/O-bound like its real counterpart, so benchmarks
    /// can observe round-trip overlap from the parallel executor; results
    /// and counters are unaffected. 0 disables.
    pub fn set_simulated_latency_us(&self, us: u64) {
        self.latency_us.store(us, Ordering::Relaxed);
    }

    /// Sleep for the configured simulated round-trip, if any. Called on
    /// the issuing thread outside any cache lock.
    fn simulate_round_trip(&self) {
        let us = self.latency_us.load(Ordering::Relaxed);
        if us > 0 {
            // Opt-in latency simulation: models the network's own round-trip
            // (off by default, enabled only by chaos/latency experiments); no
            // deterministic output depends on when this thread wakes.
            // lint:allow(no-sleep) simulated network round-trip; output never depends on wake time
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }

    /// Traffic counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.index.doc_count()
    }

    /// Number of pages matching `query` — the `NumHits` oracle of §2.2.
    /// Results are memoised in a sharded cache, and [`EngineStats`] records
    /// whether each call hit or missed it. Racing threads that miss on the
    /// same fresh query may each count a miss; the cached value itself is
    /// a pure function of the query, so results are unaffected.
    pub fn num_hits(&self, query: &str) -> u64 {
        webiq_trace::incr(Counter::EngineHitIssued);
        if let Some(hits) = self.hit_cache.get(query) {
            bump(&self.stats.hit_hits, ProfCounter::HitCacheHit);
            return hits;
        }
        bump(&self.stats.hit_misses, ProfCounter::HitCacheMiss);
        webiq_prof::time(Stage::EngineQuery, || {
            self.simulate_round_trip();
            let hits = self.index.matches(&query::parse(query)).count() as u64;
            self.hit_cache.insert(query.to_string(), hits);
            hits
        })
    }

    /// Top-`k` snippets for `query`, in ascending doc-id order (the
    /// deterministic stand-in for relevance order). Results are memoised
    /// per `(query, k)` in a bounded LRU; [`EngineStats`] records whether
    /// each call hit or missed it.
    pub fn search(&self, query: &str, k: usize) -> Vec<Snippet> {
        webiq_trace::incr(Counter::EngineSearchIssued);
        let key = (query.to_string(), k);
        if let Some(hit) = self.search_cache.get(query, &key) {
            bump(&self.stats.search_hits, ProfCounter::SearchCacheHit);
            return hit.as_ref().clone();
        }
        bump(&self.stats.search_misses, ProfCounter::SearchCacheMiss);
        webiq_prof::time(Stage::EngineQuery, || {
            self.simulate_round_trip();
            let snippets: Vec<Snippet> = self
                .index
                .matches(&query::parse(query))
                .take(k)
                .filter_map(|(doc_id, pos)| {
                    // Doc ids come from the index; a miss means index/corpus
                    // drift and the snippet is dropped rather than panicking.
                    let doc = self.corpus.get(doc_id)?;
                    Some(Snippet {
                        doc_id,
                        text: make_snippet(&doc.text, pos),
                    })
                })
                .collect();
            if self
                .search_cache
                .insert(query, key, Arc::new(snippets.clone()))
                .is_some()
            {
                webiq_prof::incr(ProfCounter::SearchCacheEvict);
            }
            snippets
        })
    }
}

/// Extract a snippet window around token position `pos`: a few tokens of
/// left context and a generous right context (cue-phrase completions are to
/// the right of the match). Token `p` of the window is the index's token
/// `p`: both cut the text with [`query::spans`].
fn make_snippet(text: &str, pos: u32) -> String {
    const LEFT: usize = 5;
    const RIGHT: usize = 40;
    let pos = pos as usize;
    let window: Vec<Range<usize>> = query::spans(text)
        .take(pos.saturating_add(RIGHT + 1))
        .collect();
    let (Some(from), Some(to)) = (window.get(pos.saturating_sub(LEFT)), window.last()) else {
        return text.to_string();
    };
    // extend to end of sentence punctuation if adjacent
    let mut end = to.end;
    let bytes = text.as_bytes();
    while end < bytes.len() && matches!(bytes[end], b'.' | b'!' | b'?' | b',') {
        end += 1;
    }
    text.get(from.start..end).unwrap_or_default().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> SearchEngine {
        SearchEngine::new(Corpus::from_texts([
            "Flights depart daily. Popular departure cities such as Boston, Chicago, and LAX are listed.",
            "Delta is an airline based in Atlanta.",
            "airlines such as Delta and United fly from Boston",
            "cities such as Boston and Chicago host many flights",
            "random page about gardening and tomatoes",
        ]))
    }

    #[test]
    fn num_hits_counts_matching_docs() {
        let e = engine();
        assert_eq!(e.num_hits("boston"), 3);
        // "cities such as" also matches inside "departure cities such as"
        assert_eq!(e.num_hits(r#""cities such as""#), 2);
        // both matching docs also contain "flights"
        assert_eq!(e.num_hits(r#""cities such as" +flights"#), 2);
        assert_eq!(e.num_hits(r#""cities such as" +host"#), 1);
        assert_eq!(e.num_hits("nonexistentterm"), 0);
        assert_eq!(e.num_hits(""), 0);
    }

    #[test]
    fn search_returns_snippets_containing_phrase() {
        let e = engine();
        let snippets = e.search(r#""departure cities such as""#, 5);
        assert_eq!(snippets.len(), 1);
        assert!(
            snippets[0]
                .text
                .contains("departure cities such as Boston, Chicago, and LAX"),
            "snippet: {}",
            snippets[0].text
        );
    }

    #[test]
    fn search_respects_k() {
        let e = engine();
        assert_eq!(e.search("boston", 2).len(), 2);
        assert_eq!(e.search("boston", 10).len(), 3);
    }

    #[test]
    fn keyword_conjunction() {
        let e = engine();
        assert_eq!(e.num_hits("boston chicago"), 2);
        assert_eq!(e.num_hits("boston gardening"), 0);
    }

    #[test]
    fn exclusion_filters_documents() {
        let e = engine();
        let with = e.num_hits("boston");
        let without = e.num_hits("boston -chicago");
        assert!(without < with, "{without} !< {with}");
        assert_eq!(e.num_hits("boston -boston"), 0);
    }

    #[test]
    fn multiple_phrases_intersect() {
        let e = engine();
        assert_eq!(e.num_hits(r#""such as" "fly from""#), 1);
    }

    #[test]
    fn stats_count_queries() {
        let e = engine();
        let _ = e.search("boston", 3);
        let _ = e.num_hits("boston");
        let _ = e.num_hits("delta");
        assert_eq!(e.stats().search_queries(), 1);
        assert_eq!(e.stats().hit_queries(), 2);
        assert_eq!(e.stats().total(), 3);
        e.stats().reset();
        assert_eq!(e.stats().total(), 0);
    }

    #[test]
    fn stats_count_issued_and_hit_rate() {
        let e = engine();
        let _ = e.num_hits("boston");
        let _ = e.num_hits("boston"); // cache hit
        let _ = e.search("boston", 3);
        let _ = e.search("boston", 3); // cache hit
        assert_eq!(e.stats().total(), 2);
        assert_eq!(e.stats().total_issued(), 4);
        assert!((e.stats().cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn thread_issued_counters_advance() {
        let e = engine();
        let before = webiq_trace::snapshot();
        let _ = e.num_hits("boston");
        let _ = e.num_hits("boston"); // cached, still issued
        let _ = e.search("delta", 4);
        let d = webiq_trace::snapshot().diff(&before);
        assert_eq!(
            d.get(Counter::EngineHitIssued) + d.get(Counter::EngineSearchIssued),
            3
        );
    }

    #[test]
    fn trace_counters_mirror_engine_traffic() {
        let e = engine();
        let before = webiq_trace::snapshot();
        let _ = e.num_hits("seattle");
        let _ = e.num_hits("seattle"); // cached, still issued
        let _ = e.search("atlanta", 4);
        let d = webiq_trace::snapshot().diff(&before);
        // the thread-local set sees every issued call...
        assert_eq!(d.get(Counter::EngineHitIssued), 2);
        assert_eq!(d.get(Counter::EngineSearchIssued), 1);
        assert_eq!(
            d.get(Counter::EngineHitIssued) + d.get(Counter::EngineSearchIssued),
            e.stats().total_issued()
        );
        // ...while the cache outcome is recorded per engine only
        assert_eq!(e.stats().hit_queries(), 1);
        assert_eq!(e.stats().search_queries(), 1);
        assert_eq!(e.stats().total(), 2);
    }

    #[test]
    fn prof_registry_attributes_cache_traffic() {
        let e = engine();
        let before = webiq_prof::snapshot();
        let _ = e.num_hits("a quite unusual profiling query");
        let _ = e.num_hits("a quite unusual profiling query"); // cache hit
        let _ = e.search("another unusual profiling query", 3);
        let d = webiq_prof::snapshot().diff(&before);
        // The registry is process-global and tests run in parallel, so
        // pin lower bounds on the delta, not exact values.
        assert!(d.get(ProfCounter::HitCacheMiss) >= 1, "{d:?}");
        assert!(d.get(ProfCounter::HitCacheHit) >= 1, "{d:?}");
        assert!(d.get(ProfCounter::SearchCacheMiss) >= 1, "{d:?}");
        assert!(d.get(ProfCounter::ShardLockAcquire) >= 1, "{d:?}");
        assert!(d.stage_calls(Stage::EngineQuery) >= 2, "{d:?}");
    }

    #[test]
    fn search_cache_returns_identical_results() {
        let e = engine();
        let a = e.search("boston", 10);
        let b = e.search("boston", 10);
        assert_eq!(a, b);
        assert_eq!(e.stats().search_queries(), 1);
        // a different k is a different cache entry, not a stale slice
        assert_eq!(e.search("boston", 2).len(), 2);
    }

    #[test]
    fn hit_cache_returns_consistent_results() {
        let e = engine();
        let a = e.num_hits(r#""cities such as""#);
        let b = e.num_hits(r#""cities such as""#);
        assert_eq!(a, b);
    }

    #[test]
    fn snippet_window_has_left_context() {
        let e = engine();
        let snippets = e.search(r#""cities such as" +host"#, 5);
        assert_eq!(snippets.len(), 1);
        assert!(snippets[0].text.starts_with("cities such as"));
    }

    /// `$` inside a word ends a token ("US$100" is `us`, `$100`), so the
    /// window's five tokens of left context stay before the match.
    #[test]
    fn snippet_window_counts_tokens_as_the_index_does() {
        let e = SearchEngine::new(Corpus::from_texts([
            "Fares US$100 US$200 US$300 US$400 US$500 US$600 US$700 on airlines such as Delta and United fly daily",
        ]));
        let snippets = e.search(r#""airlines such as""#, 10);
        let texts: Vec<&str> = snippets.iter().map(|s| s.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["US$600 US$700 on airlines such as Delta and United fly daily"]
        );
    }

    #[test]
    fn empty_corpus() {
        let e = SearchEngine::new(Corpus::default());
        assert_eq!(e.num_hits("anything"), 0);
        assert!(e.search("anything", 5).is_empty());
    }

    #[test]
    fn engine_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<SearchEngine>();
    }
}
