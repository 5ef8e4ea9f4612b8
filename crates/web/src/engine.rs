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
//! - queries arrive in batches ([`SearchEngine::num_hits_many`],
//!   [`SearchEngine::search_many`]) of independent queries, answered in
//!   input order; a single query is a batch of one;
//! - two caches memoise answers: hit counts in an unbounded map sharded N
//!   ways, so unrelated queries never contend on one lock, and snippet
//!   lists in a bounded sharded LRU storing `Arc`s, so repeated
//!   extraction queries are served without re-matching;
//! - a batch's cache misses go out in waves of at most [`MAX_IN_FLIGHT`],
//!   each wave one simulated round trip, and they are single-flight: a
//!   key another worker is fetching is awaited, not fetched again
//!   ([`InFlight`]), so the misses are the same at any worker count;
//! - a cache miss parses the query and evaluates it rarest-term-first
//!   ([`InvertedIndex::matches`]), in time proportional to the postings
//!   of its rarest positive term rather than of its first one; the
//!   index is built once, on the constructing thread, and read-only
//!   after that;
//! - every query makes three counter updates, one per telemetry home:
//!   1. the `webiq-trace` *thread-local* issued counter
//!      ([`Counter::EngineSearchIssued`] / [`Counter::EngineHitIssued`]),
//!      so a worker measures exactly the queries its own work item
//!      issued, independent of cache state or scheduling — the basis of
//!      the deterministic per-component cost accounting in `webiq-core`;
//!   2. one cache-outcome slot of this engine's [`EngineStats`];
//!   3. the same outcome in the process-wide `webiq-prof` registry
//!      (which also attributes evictions and times each wave).
//!
//!   Cache hits and waves depend on scheduling, so they live only in
//!   the last two and never enter the deterministic trace stream.

use std::hash::Hash;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use webiq_prof::{ProfCounter, Stage};
use webiq_trace::Counter;

use crate::cache::{InFlight, ShardedLru, ShardedMap};
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
/// surface the paper used via Google's Web API — in batches of
/// independent queries. [`SearchEngine`] implements it directly;
/// resilience wrappers (fault injection, retry, quota — see
/// `webiq-core`'s `resilience` module) implement it by delegation, so
/// every extraction/validation routine is generic over whether it talks
/// to the raw engine or a guarded one.
pub trait QueryEngine {
    /// Top-`k` result snippets for each of `queries` (extraction
    /// queries), in input order, shared with the engine's cache.
    fn search_many<Q: AsRef<str>>(&self, queries: &[Q], k: usize) -> Vec<Arc<Vec<Snippet>>>;

    /// Number of pages matching each of `queries` (validation queries),
    /// in input order.
    fn num_hits_many<Q: AsRef<str>>(&self, queries: &[Q]) -> Vec<u64>;

    /// [`QueryEngine::search_many`] of one query.
    fn search(&self, query: &str, k: usize) -> Arc<Vec<Snippet>> {
        self.search_many(&[query], k).pop().unwrap_or_default()
    }

    /// [`QueryEngine::num_hits_many`] of one query.
    fn num_hits(&self, query: &str) -> u64 {
        self.num_hits_many(&[query]).pop().unwrap_or_default()
    }

    /// True while hit-count evidence is trustworthy. A quota-exhausted
    /// wrapper returns false, telling validation to degrade from
    /// PMI-based Web checks to statistics-only filtering.
    fn validation_available(&self) -> bool {
        true
    }
}

impl QueryEngine for SearchEngine {
    fn search_many<Q: AsRef<str>>(&self, queries: &[Q], k: usize) -> Vec<Arc<Vec<Snippet>>> {
        SearchEngine::search_many(self, queries, k)
    }

    fn num_hits_many<Q: AsRef<str>>(&self, queries: &[Q]) -> Vec<u64> {
        SearchEngine::num_hits_many(self, queries)
    }
}

/// The cache outcomes of one query kind.
#[derive(Debug, Default)]
struct Outcomes {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Per-engine traffic counters, used by the overhead analysis: one
/// relaxed atomic per cache outcome, and one per wave.
///
/// Misses are the queries the engine core evaluated; hits plus misses
/// are every query issued. Repeated queries (phrase and candidate
/// marginals recur constantly during classifier training) would be
/// served from a client-side cache in any real deployment and cost no
/// search-engine round-trip. Misses are single-flight, so each distinct
/// query misses once whatever the worker count, and the split equals a
/// one-worker run's. Waves are the round trips: a batch's misses go out
/// [`MAX_IN_FLIGHT`] at a time, and how a batch's misses divide between
/// the workers that share them depends on scheduling. For per-call-site
/// accounting that is independent of cache state, diff the thread-local
/// counters via [`webiq_trace::snapshot`].
#[derive(Debug, Default)]
pub struct EngineStats {
    search: Outcomes,
    hit: Outcomes,
    waves: AtomicU64,
}

impl EngineStats {
    /// Number of `search` queries that missed the cache.
    pub fn search_queries(&self) -> u64 {
        self.search.misses.load(Ordering::Relaxed)
    }

    /// Number of `num_hits` queries that missed the cache.
    pub fn hit_queries(&self) -> u64 {
        self.hit.misses.load(Ordering::Relaxed)
    }

    /// Total cache-missing queries of both kinds.
    pub fn total(&self) -> u64 {
        self.search_queries() + self.hit_queries()
    }

    /// Total issued queries of both kinds: cache hits plus misses.
    pub fn total_issued(&self) -> u64 {
        self.search.hits.load(Ordering::Relaxed)
            + self.hit.hits.load(Ordering::Relaxed)
            + self.total()
    }

    /// Round trips: the waves that carried the misses, each at most
    /// [`MAX_IN_FLIGHT`] of them.
    pub fn waves(&self) -> u64 {
        self.waves.load(Ordering::Relaxed)
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
            &self.search.hits,
            &self.search.misses,
            &self.hit.hits,
            &self.hit.misses,
            &self.waves,
        ] {
            a.store(0, Ordering::Relaxed);
        }
    }
}

/// Most cache misses one wave carries: a client's connection pool. A
/// batch's misses cost `⌈misses / MAX_IN_FLIGHT⌉` round trips.
pub const MAX_IN_FLIGHT: usize = 8;

/// Bounded capacity of the search (snippet) result cache.
const SEARCH_CACHE_CAP: usize = 4096;

/// The counters one query kind's outcomes land in.
struct Lane<'e, K> {
    issued: Counter,
    outcomes: &'e Outcomes,
    hit: ProfCounter,
    miss: ProfCounter,
    flights: &'e InFlight<K>,
}

/// The simulated search engine.
///
/// ```
/// use webiq_web::{Corpus, SearchEngine};
/// let engine = SearchEngine::new(Corpus::from_texts([
///     "airlines such as Delta and United fly from Boston",
///     "a page about gardening",
/// ]));
/// assert_eq!(engine.num_hits("\"airlines such as\""), 1);
/// assert_eq!(engine.num_hits_many(&["boston -gardening", "gardening"]), [1, 1]);
/// let snippets = engine.search("\"airlines such as\"", 10);
/// assert!(snippets[0].text.contains("Delta"));
/// ```
pub struct SearchEngine {
    corpus: Corpus,
    index: InvertedIndex,
    stats: EngineStats,
    hit_cache: ShardedMap<u64>,
    hit_flights: InFlight<String>,
    search_cache: ShardedLru<(String, usize), Arc<Vec<Snippet>>>,
    search_flights: InFlight<(String, usize)>,
    /// Simulated network round-trip, in microseconds, charged to each
    /// wave of cache misses (a cache hit is a local lookup). 0 = disabled.
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
            hit_flights: InFlight::new(),
            search_cache: ShardedLru::new(SEARCH_CACHE_CAP),
            search_flights: InFlight::new(),
            latency_us: AtomicU64::new(0),
        }
    }

    /// Charge every wave of cache misses a simulated network round-trip
    /// of `us` microseconds (the paper cites 0.1-0.5 s per Google query).
    /// Makes the engine I/O-bound like its real counterpart, so benchmarks
    /// can observe round-trip overlap from batching and the parallel
    /// executor; results and counters are unaffected. 0 disables.
    pub fn set_simulated_latency_us(&self, us: u64) {
        self.latency_us.store(us, Ordering::Relaxed);
    }

    /// Sleep for the configured simulated round-trip, if any. Called on
    /// the issuing thread outside any cache lock.
    #[expect(
        clippy::disallowed_methods,
        reason = "opt-in latency simulation of the network's own round-trip (off by default); \
                  no deterministic output depends on when this thread wakes"
    )]
    fn simulate_round_trip(&self) {
        let us = self.latency_us.load(Ordering::Relaxed);
        if us > 0 {
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

    /// Number of pages matching `query` — the `NumHits` oracle of §2.2:
    /// [`SearchEngine::num_hits_many`] of one query.
    pub fn num_hits(&self, query: &str) -> u64 {
        self.num_hits_many(&[query]).pop().unwrap_or_default()
    }

    /// Number of pages matching each of `queries`, in input order.
    /// Answers are memoised in a sharded cache, and [`EngineStats`]
    /// records whether each query hit or missed it; a cached answer is a
    /// pure function of its query, so results never depend on the cache.
    pub fn num_hits_many<Q: AsRef<str>>(&self, queries: &[Q]) -> Vec<u64> {
        let keys: Vec<&str> = queries.iter().map(AsRef::as_ref).collect();
        let lane = Lane {
            issued: Counter::EngineHitIssued,
            outcomes: &self.stats.hit,
            hit: ProfCounter::HitCacheHit,
            miss: ProfCounter::HitCacheMiss,
            flights: &self.hit_flights,
        };
        self.serve(
            &keys,
            &lane,
            |q| self.hit_cache.get(q),
            |q| {
                let hits = self.index.matches(&query::parse(q)).count() as u64;
                self.hit_cache.insert(q.to_string(), hits);
                hits
            },
        )
    }

    /// Top-`k` snippets for `query`: [`SearchEngine::search_many`] of one
    /// query.
    pub fn search(&self, query: &str, k: usize) -> Arc<Vec<Snippet>> {
        self.search_many(&[query], k).pop().unwrap_or_default()
    }

    /// Top-`k` snippets for each of `queries`, in input order, each list
    /// in ascending doc-id order (the deterministic stand-in for
    /// relevance order). Lists are memoised per `(query, k)` in a bounded
    /// LRU, and every query returns the cached list itself, not a copy;
    /// [`EngineStats`] records whether each query hit or missed it.
    pub fn search_many<Q: AsRef<str>>(&self, queries: &[Q], k: usize) -> Vec<Arc<Vec<Snippet>>> {
        let owned: Vec<(String, usize)> = queries
            .iter()
            .map(|q| (q.as_ref().to_string(), k))
            .collect();
        let keys: Vec<&(String, usize)> = owned.iter().collect();
        let lane = Lane {
            issued: Counter::EngineSearchIssued,
            outcomes: &self.stats.search,
            hit: ProfCounter::SearchCacheHit,
            miss: ProfCounter::SearchCacheMiss,
            flights: &self.search_flights,
        };
        self.serve(
            &keys,
            &lane,
            |key| self.search_cache.get(&key.0, key),
            |key| self.fetch_snippets(key),
        )
    }

    /// Evaluate one snippet query and cache its list.
    fn fetch_snippets(&self, key: &(String, usize)) -> Arc<Vec<Snippet>> {
        let (query, k) = key;
        let snippets: Arc<Vec<Snippet>> = Arc::new(
            self.index
                .matches(&query::parse(query))
                .take(*k)
                .filter_map(|(doc_id, pos)| {
                    // Doc ids come from the index; a miss means index/corpus
                    // drift and the snippet is dropped rather than panicking.
                    let doc = self.corpus.get(doc_id)?;
                    Some(Snippet {
                        doc_id,
                        text: make_snippet(&doc.text, pos),
                    })
                })
                .collect(),
        );
        if self
            .search_cache
            .insert(query, key.clone(), Arc::clone(&snippets))
            .is_some()
        {
            webiq_prof::incr(ProfCounter::SearchCacheEvict);
        }
        snippets
    }

    /// The one lookup-and-miss path of both query kinds: answer `keys` in
    /// input order. Cached keys are answered from the cache; keys another
    /// worker is fetching, and repeats of a key this batch fetches, are
    /// awaited and then read from the cache; the rest are fetched
    /// (`fetch` evaluates and caches one) in waves of at most
    /// [`MAX_IN_FLIGHT`], each wave one simulated round trip. The worker
    /// fetches all its own claims before it waits on anyone else's. A
    /// query this call fetched counts as a miss; every other query
    /// counts as a hit.
    fn serve<Q, V>(
        &self,
        keys: &[&Q],
        lane: &Lane<'_, Q::Owned>,
        cached: impl Fn(&Q) -> Option<V>,
        fetch: impl Fn(&Q) -> V,
    ) -> Vec<V>
    where
        Q: ?Sized + Eq + Hash + ToOwned,
        Q::Owned: Eq + Hash,
        V: Clone + Default,
    {
        webiq_trace::add(lane.issued, keys.len() as u64);
        let mut answers: Vec<Option<V>> = keys.iter().map(|&key| cached(key)).collect();
        let mut pending: Vec<usize> = (0..keys.len()).filter(|&i| answers[i].is_none()).collect();
        let mut fetched = vec![false; keys.len()];
        while !pending.is_empty() {
            let wanted: Vec<&Q> = pending.iter().map(|&i| keys[i]).collect();
            // A key repeated in the batch is claimed at its first
            // occurrence; the later ones wait on that claim as on
            // another worker's, and read the cache.
            let (mut claim, mine) = lane.flights.claim(&wanted);
            // (position in `keys`, position in `wanted`)
            let mut todo = Vec::new();
            let mut theirs = Vec::new();
            for (j, (&i, mine)) in pending.iter().zip(mine).enumerate() {
                if !mine {
                    theirs.push(i);
                } else if let Some(v) = cached(keys[i]) {
                    // fetched and released by another worker since the
                    // lookup above
                    answers[i] = Some(v);
                } else {
                    todo.push((i, j));
                }
            }
            for wave in todo.chunks(MAX_IN_FLIGHT) {
                self.stats.waves.fetch_add(1, Ordering::Relaxed);
                webiq_prof::time(Stage::EngineQuery, || {
                    self.simulate_round_trip();
                    for &(i, _) in wave {
                        answers[i] = Some(fetch(keys[i]));
                        fetched[i] = true;
                    }
                });
                let sent: Vec<usize> = wave.iter().map(|&(_, j)| j).collect();
                claim.release(&sent);
            }
            drop(claim);
            if theirs.is_empty() {
                break;
            }
            let awaited: Vec<&Q> = theirs.iter().map(|&i| keys[i]).collect();
            lane.flights.wait(&awaited);
            // A claim dropped before its answer was cached leaves the
            // key to this worker.
            pending = theirs
                .into_iter()
                .filter(|&i| {
                    answers[i] = cached(keys[i]);
                    answers[i].is_none()
                })
                .collect();
        }
        answers
            .into_iter()
            .zip(fetched)
            .map(|(answer, fetched)| {
                let (slot, prof) = if fetched {
                    (&lane.outcomes.misses, lane.miss)
                } else {
                    (&lane.outcomes.hits, lane.hit)
                };
                slot.fetch_add(1, Ordering::Relaxed);
                webiq_prof::incr(prof);
                answer.unwrap_or_default()
            })
            .collect()
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
