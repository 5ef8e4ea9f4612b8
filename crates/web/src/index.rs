//! Positional inverted index.
//!
//! Maps each term to its postings — `(doc, positions)` pairs — enabling
//! both boolean keyword matching and exact phrase matching by position,
//! the two operations Google's 2006 query subset needs.
//! [`InvertedIndex::matches`] answers a parsed query rarest-term-first.

// lint:deterministic

use std::collections::HashMap;

use crate::corpus::Corpus;
use crate::error::WebError;
use crate::query::{tokenize, Query};

/// Postings for one term: documents and in-document token positions,
/// both ascending.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Postings {
    /// `(doc_id, positions)` sorted by doc id; positions sorted ascending.
    pub docs: Vec<(u32, Vec<u32>)>,
}

impl Postings {
    /// Number of documents containing the term.
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// The term's positions in `doc`, ascending, if it occurs there.
    pub(crate) fn positions(&self, doc: u32) -> Option<&[u32]> {
        let i = self.docs.binary_search_by_key(&doc, |(d, _)| *d).ok()?;
        self.docs.get(i).map(|(_, ps)| ps.as_slice())
    }
}

/// The inverted index over a corpus.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvertedIndex {
    terms: HashMap<String, Postings>,
    doc_count: usize,
}

/// Corpora below this size are indexed sequentially: chunking overhead
/// would dominate.
const PARALLEL_BUILD_MIN_DOCS: usize = 256;

/// Worker count for index building: `WEBIQ_THREADS` if set and valid,
/// otherwise the machine's available parallelism.
fn build_threads() -> usize {
    std::env::var("WEBIQ_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// Tokenize a contiguous run of documents into a partial term map.
/// Documents arrive in id order, so per-term doc lists come out ascending.
fn index_chunk(docs: &[crate::corpus::Document]) -> HashMap<String, Postings> {
    let mut terms: HashMap<String, Postings> = HashMap::new();
    for doc in docs {
        for (pos, tok) in tokenize(&doc.text).into_iter().enumerate() {
            let postings = terms.entry(tok).or_default();
            match postings.docs.last_mut() {
                Some((d, positions)) if *d == doc.id => positions.push(pos as u32),
                _ => postings.docs.push((doc.id, vec![pos as u32])),
            }
        }
    }
    terms
}

impl InvertedIndex {
    /// Build the index by tokenizing every document.
    ///
    /// Large corpora are split into contiguous document-range chunks
    /// indexed on a scoped worker pool; the partial term maps are merged
    /// in chunk order, so postings stay ascending and the result is
    /// byte-identical to a sequential build regardless of thread count.
    ///
    /// Fails with [`WebError::IndexWorkerFailed`] if a build worker
    /// terminates abnormally.
    pub fn build(corpus: &Corpus) -> Result<Self, WebError> {
        Self::build_with_threads(corpus, build_threads())
    }

    /// [`InvertedIndex::build`] with an explicit worker count.
    pub fn build_with_threads(corpus: &Corpus, threads: usize) -> Result<Self, WebError> {
        let docs = corpus.docs();
        let threads = threads.max(1);
        if threads == 1 || docs.len() < PARALLEL_BUILD_MIN_DOCS {
            return Ok(InvertedIndex {
                terms: index_chunk(docs),
                doc_count: corpus.len(),
            });
        }
        let chunk_size = docs.len().div_ceil(threads);
        let chunks: Vec<&[crate::corpus::Document]> = docs.chunks(chunk_size).collect();
        let mut terms: HashMap<String, Postings> = HashMap::new();
        std::thread::scope(|scope| -> Result<(), WebError> {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| scope.spawn(move || index_chunk(chunk)))
                .collect();
            // Merge joined chunks in spawn order: chunk i covers strictly
            // smaller doc ids than chunk i+1, so appending keeps every
            // posting list ascending.
            for h in handles {
                let partial: HashMap<String, Postings> =
                    h.join().map_err(|_| WebError::IndexWorkerFailed)?;
                // Audited re-sort: per-term appends commute, and every read path
                // (postings, term dumps) sorts before emission, so this iteration
                // order is unobservable. The flow-taint pass keys off this allow.
                // lint:allow(hash-iter) audited re-sort; order unobservable past the read paths
                for (term, mut postings) in partial {
                    terms
                        .entry(term)
                        .or_default()
                        .docs
                        .append(&mut postings.docs);
                }
            }
            Ok(())
        })?;
        Ok(InvertedIndex {
            terms,
            doc_count: corpus.len(),
        })
    }

    /// Total number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Postings for a term (lowercase).
    pub fn postings(&self, term: &str) -> Option<&Postings> {
        self.terms.get(term)
    }

    /// Documents matching `q`, ascending, each with the earliest start of
    /// the query's first phrase (0 when it has no phrase).
    ///
    /// Evaluation is rarest-term-first: the positive term (phrase word or
    /// keyword) with the fewest documents drives, and each of its
    /// documents is kept only if every keyword occurs in it, every phrase
    /// starts somewhere in it and no excluded term occurs in it, each
    /// checked by binary search over that term's postings. A positive
    /// term missing from the index empties the answer; a missing excluded
    /// term excludes nothing. The iterator is lazy, so `take(k)` stops
    /// after `k` matches.
    pub fn matches<'a>(&'a self, q: &Query) -> impl Iterator<Item = (u32, u32)> + 'a {
        let plan = Plan::new(self, q);
        let rarest: &'a [(u32, Vec<u32>)] = plan.as_ref().map_or(&[], |p| p.rarest);
        let mut scratch = Vec::new();
        rarest.iter().filter_map(move |&(doc, _)| {
            let anchor = plan.as_ref()?.admit(doc, &mut scratch)?;
            Some((doc, anchor))
        })
    }
}

/// A parsed query resolved against the index: every term's postings,
/// looked up once per query.
struct Plan<'a> {
    /// The rarest positive term's documents.
    rarest: &'a [(u32, Vec<u32>)],
    keywords: Vec<&'a Postings>,
    /// Each phrase's words, in order.
    phrases: Vec<Vec<&'a Postings>>,
    /// Excluded terms present in the index.
    excluded: Vec<&'a Postings>,
}

impl<'a> Plan<'a> {
    /// `None` when the query has no positive term or one of them is
    /// absent from the index: either way nothing matches.
    fn new(index: &'a InvertedIndex, q: &Query) -> Option<Self> {
        let lookup = |t: &String| index.terms.get(t);
        let keywords: Vec<&Postings> = q.keywords.iter().map(lookup).collect::<Option<_>>()?;
        let phrases: Vec<Vec<&Postings>> = q
            .phrases
            .iter()
            .map(|phrase| phrase.iter().map(lookup).collect::<Option<_>>())
            .collect::<Option<_>>()?;
        let rarest = keywords
            .iter()
            .chain(phrases.iter().flatten())
            .min_by_key(|p| p.doc_count())?;
        Some(Plan {
            rarest: &rarest.docs,
            excluded: q.excluded.iter().filter_map(lookup).collect(),
            keywords,
            phrases,
        })
    }

    /// The first phrase's earliest start in `doc` (0 without phrases), or
    /// `None` when `doc` does not match. `scratch` holds one phrase's
    /// in-document positions at a time.
    fn admit(&self, doc: u32, scratch: &mut Vec<&'a [u32]>) -> Option<u32> {
        if !self.keywords.iter().all(|p| p.positions(doc).is_some()) {
            return None;
        }
        let mut anchor = None;
        for phrase in &self.phrases {
            let start = phrase_start(phrase, doc, scratch)?;
            anchor.get_or_insert(start);
        }
        if self.excluded.iter().any(|p| p.positions(doc).is_some()) {
            return None;
        }
        Some(anchor.unwrap_or(0))
    }
}

/// Earliest token position in `doc` at which `phrase` (its words'
/// postings, in order) occurs contiguously.
fn phrase_start<'a>(
    phrase: &[&'a Postings],
    doc: u32,
    scratch: &mut Vec<&'a [u32]>,
) -> Option<u32> {
    scratch.clear();
    for p in phrase {
        scratch.push(p.positions(doc)?);
    }
    let (first, rest) = scratch.split_first()?;
    first.iter().copied().find(|&s| {
        rest.iter()
            .zip(1u32..)
            .all(|(ps, off)| ps.binary_search(&(s + off)).is_ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse;

    fn corpus() -> Corpus {
        Corpus::from_texts([
            "airlines such as Delta and United fly from Boston",
            "Delta is an airline based in Atlanta",
            "cities such as Boston and Chicago",
        ])
    }

    fn matches(idx: &InvertedIndex, q: &str) -> Vec<(u32, u32)> {
        idx.matches(&parse(q)).collect()
    }

    #[test]
    fn term_lookup() {
        let idx = InvertedIndex::build(&corpus()).expect("build");
        assert_eq!(matches(&idx, "delta"), vec![(0, 0), (1, 0)]);
        assert_eq!(matches(&idx, "boston"), vec![(0, 0), (2, 0)]);
        assert!(matches(&idx, "zurich").is_empty());
        assert_eq!(idx.doc_count(), 3);
    }

    #[test]
    fn positions_recorded() {
        let idx = InvertedIndex::build(&corpus()).expect("build");
        let p = idx.postings("such").expect("postings");
        assert_eq!(p.doc_count(), 2);
        assert_eq!(p.docs[0], (0, vec![1]));
        assert_eq!(p.positions(2), Some(&[1][..]));
        assert_eq!(p.positions(1), None);
    }

    #[test]
    fn phrase_match() {
        let idx = InvertedIndex::build(&corpus()).expect("build");
        assert_eq!(matches(&idx, "\"airlines such as\""), vec![(0, 0)]);
        assert_eq!(matches(&idx, "\"such as\""), vec![(0, 1), (2, 1)]);
    }

    #[test]
    fn phrase_requires_adjacency() {
        let idx = InvertedIndex::build(&corpus()).expect("build");
        assert!(matches(&idx, "\"delta united\"").is_empty());
    }

    #[test]
    fn phrase_with_unknown_term() {
        let idx = InvertedIndex::build(&corpus()).expect("build");
        assert!(matches(&idx, "\"such zebras\"").is_empty());
    }

    #[test]
    fn single_word_phrase() {
        let idx = InvertedIndex::build(&corpus()).expect("build");
        assert_eq!(matches(&idx, "\"boston\""), vec![(0, 8), (2, 3)]);
    }

    #[test]
    fn empty_phrase() {
        let idx = InvertedIndex::build(&corpus()).expect("build");
        assert!(matches(&idx, "\"\"").is_empty());
        assert!(matches(&idx, "-delta").is_empty());
    }

    #[test]
    fn first_phrase_anchors_whichever_term_drives() {
        let idx = InvertedIndex::build(&corpus()).expect("build");
        // "atlanta" (1 doc) drives; the anchor is still the phrase's start
        assert_eq!(matches(&idx, "\"an airline\" +atlanta"), vec![(1, 2)]);
        // the rarer second phrase drives; the first phrase anchors
        assert_eq!(matches(&idx, "\"such as\" \"from boston\""), vec![(0, 1)]);
        assert_eq!(matches(&idx, "\"from boston\" \"such as\""), vec![(0, 7)]);
    }

    #[test]
    fn unknown_exclusion_excludes_nothing() {
        let idx = InvertedIndex::build(&corpus()).expect("build");
        assert_eq!(matches(&idx, "delta -zurich"), matches(&idx, "delta"));
        assert_eq!(matches(&idx, "delta -atlanta"), vec![(0, 0)]);
    }

    /// A generated corpus plus pages with repeated words and tokens that
    /// keep internal punctuation (`3,000`, `u.s`, `$400`).
    fn oracle_corpus() -> Corpus {
        let concept = |key: &str, lex: &[&str], instances: &[&str]| crate::gen::ConceptSpec {
            key: key.into(),
            lexicalizations: lex.iter().map(|s| (*s).to_string()).collect(),
            object: "flight".into(),
            domain_terms: vec!["airfare".into(), "travel".into()],
            instances: instances.iter().map(|s| (*s).to_string()).collect(),
            confusers: vec!["the following".into()],
            richness: 1.0,
        };
        let mut corpus = crate::gen::generate(
            &[
                concept(
                    "airfare/city",
                    &["departure city", "city"],
                    &["Boston", "New York", "São Paulo", "Zürich", "St. Louis"],
                ),
                concept(
                    "airfare/airline",
                    &["airline"],
                    &["Delta", "U.S. Airways", "Air Canada", "JetBlue"],
                ),
                concept("airfare/fare", &["fare"], &["$400", "$3,000", "$1,250.50"]),
            ],
            &crate::gen::GenConfig {
                docs_per_concept: 60,
                noise_docs: 40,
                ..crate::gen::GenConfig::default()
            },
        );
        for text in [
            "boston boston boston",
            "Fares from $400 to $3,000 in the U.S. market, Boston to Boston.",
            "such as such as such as Delta",
            "3,000 miles; U.S. carriers such as Delta fly 3,000 routes",
        ] {
            corpus.push(text);
        }
        corpus
    }

    /// The oracle: on 2,400 seeded queries, rarest-term-first evaluation
    /// gives the brute-force reference's `(doc, first-phrase start)` list.
    #[test]
    fn matches_agree_with_brute_force_reference() {
        let corpus = oracle_corpus();
        let idx = InvertedIndex::build(&corpus).expect("build");
        let reference = crate::reference::Reference::new(corpus.iter().map(|d| tokenize(&d.text)));
        let (mut hits, mut phrase_hits) = (0, 0);
        webiq_rng::prop::cases(2_400, |rng| {
            let text = reference.random_query(rng);
            let q = parse(&text);
            let want = reference.answer(&q.phrases, &q.keywords, &q.excluded);
            let got: Vec<(u32, u32)> = idx.matches(&q).collect();
            assert_eq!(got, want, "query {text:?}");
            hits += usize::from(!want.is_empty());
            phrase_hits += usize::from(want.iter().any(|&(_, pos)| pos > 0));
        });
        // not vacuous: many queries match, many at a phrase past token 0
        assert!(hits > 650 && phrase_hits > 330, "{hits} {phrase_hits}");
    }

    #[test]
    fn repeated_term_in_doc() {
        let c = Corpus::from_texts(["boston boston boston"]);
        let idx = InvertedIndex::build(&c).expect("build");
        assert_eq!(idx.postings("boston").expect("p").docs[0].1, vec![0, 1, 2]);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // A corpus large enough to clear the parallel threshold, with
        // repeated vocabulary so terms span chunk boundaries.
        let texts: Vec<String> = (0..600)
            .map(|i| {
                format!(
                    "city{} flights depart from hub{} such as terminal{} daily",
                    i % 37,
                    i % 11,
                    i % 5
                )
            })
            .collect();
        let c = Corpus::from_texts(texts);
        let seq = InvertedIndex::build_with_threads(&c, 1).expect("build");
        for threads in [2, 3, 4, 8] {
            let par = InvertedIndex::build_with_threads(&c, threads).expect("build");
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn build_with_more_threads_than_docs() {
        let c = Corpus::from_texts(["one doc"]);
        let idx = InvertedIndex::build_with_threads(&c, 64).expect("build");
        assert_eq!(matches(&idx, "doc"), vec![(0, 0)]);
    }
}
