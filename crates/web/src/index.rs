//! Positional inverted index.
//!
//! Maps each term to its postings — the documents it occurs in, each with
//! its in-document token positions — enabling both boolean keyword
//! matching and exact phrase matching by position, the two operations
//! Google's 2006 query subset needs. [`InvertedIndex::matches`] answers a
//! parsed query rarest-term-first.
//!
//! Terms are numbered in order of first occurrence and the postings live
//! in four flat arrays (compressed sparse rows): term `t`'s documents are
//! `docs[doc_start[t]..doc_start[t + 1]]`, ascending, and the `j`-th
//! entry of `docs` has its positions at
//! `positions[pos_start[j]..pos_start[j + 1]]`, ascending. One pass over
//! the corpus numbers the tokens; a counting sort by term then lays them
//! out.

// lint:deterministic

use std::collections::HashMap;

use crate::corpus::Corpus;
use crate::query::{lowercase, spans, Query};

/// Postings for one term: a view of its documents and their in-document
/// token positions, both ascending.
#[derive(Debug, Clone, Copy)]
pub struct Postings<'a> {
    /// The term's documents, ascending.
    docs: &'a [u32],
    /// `docs.len() + 1` offsets into `positions`.
    pos_start: &'a [usize],
    /// The whole index's positions.
    positions: &'a [u32],
}

impl<'a> Postings<'a> {
    /// Number of documents containing the term.
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// The positions of the term's `j`-th document, ascending.
    fn positions_at(&self, j: usize) -> &'a [u32] {
        match (self.pos_start.get(j), self.pos_start.get(j + 1)) {
            (Some(&from), Some(&to)) => self.positions.get(from..to).unwrap_or_default(),
            _ => &[],
        }
    }

    /// Every `(doc, positions)` pair, by ascending doc.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &'a [u32])> + 'a {
        let p = *self;
        p.docs
            .iter()
            .enumerate()
            .map(move |(j, &doc)| (doc, p.positions_at(j)))
    }
}

/// The inverted index over a corpus. Term ids, document ids and
/// positions are `u32`, as [`Corpus`] document ids are.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    /// Term to term id, ids in order of first occurrence.
    ids: HashMap<String, u32>,
    /// `terms + 1` offsets into `docs`.
    doc_start: Vec<usize>,
    /// Every term's documents, term by term.
    docs: Vec<u32>,
    /// `docs.len() + 1` offsets into `positions`.
    pos_start: Vec<usize>,
    /// Every (term, document) pair's positions, pair by pair.
    positions: Vec<u32>,
    doc_count: usize,
}

impl InvertedIndex {
    /// Build the index by tokenizing every document once, on the calling
    /// thread.
    pub fn build(corpus: &Corpus) -> Self {
        let mut ids: HashMap<String, u32> = HashMap::new();
        // Every token's term id in corpus order, and where each
        // document's tokens end.
        let mut token_terms: Vec<u32> = Vec::new();
        let mut doc_ends: Vec<usize> = Vec::with_capacity(corpus.len());
        // Per term: its token count, its document count and the last
        // document it was seen in.
        let mut tokens_of: Vec<usize> = Vec::new();
        let mut docs_of: Vec<usize> = Vec::new();
        let mut last_doc: Vec<u32> = Vec::new();
        let mut buf = String::new();
        for doc in corpus.docs() {
            for span in spans(&doc.text) {
                let word = lowercase(doc.text.get(span).unwrap_or_default(), &mut buf);
                let id = match ids.get(word) {
                    Some(&id) => id,
                    None => {
                        let id = ids.len() as u32;
                        ids.insert(word.to_owned(), id);
                        tokens_of.push(0);
                        docs_of.push(0);
                        last_doc.push(u32::MAX);
                        id
                    }
                };
                token_terms.push(id);
                let t = id as usize;
                tokens_of[t] += 1;
                if last_doc[t] != doc.id {
                    last_doc[t] = doc.id;
                    docs_of[t] += 1;
                }
            }
            doc_ends.push(token_terms.len());
        }
        // Counting sort by term: each term's slice of `docs` and of
        // `positions` starts where the previous term's ends.
        let doc_start = prefix_sums(&docs_of);
        let mut next_doc = doc_start.clone();
        let mut next_pos = prefix_sums(&tokens_of);
        let mut docs = vec![0; doc_start.last().copied().unwrap_or(0)];
        let mut pos_start = vec![0; docs.len() + 1];
        let mut positions = vec![0; token_terms.len()];
        last_doc.fill(u32::MAX);
        let mut from = 0;
        for (doc, &end) in corpus.docs().iter().zip(&doc_ends) {
            let tokens = token_terms.get(from..end).unwrap_or_default();
            for (pos, &id) in tokens.iter().enumerate() {
                let t = id as usize;
                if last_doc[t] != doc.id {
                    last_doc[t] = doc.id;
                    docs[next_doc[t]] = doc.id;
                    pos_start[next_doc[t]] = next_pos[t];
                    next_doc[t] += 1;
                }
                positions[next_pos[t]] = pos as u32;
                next_pos[t] += 1;
            }
            from = end;
        }
        if let Some(last) = pos_start.last_mut() {
            *last = positions.len();
        }
        InvertedIndex {
            ids,
            doc_start,
            docs,
            pos_start,
            positions,
            doc_count: corpus.len(),
        }
    }

    /// Total number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Postings for a term (lowercase).
    pub fn postings(&self, term: &str) -> Option<Postings<'_>> {
        let t = *self.ids.get(term)? as usize;
        let (from, to) = (*self.doc_start.get(t)?, *self.doc_start.get(t + 1)?);
        Some(Postings {
            docs: self.docs.get(from..to)?,
            pos_start: self.pos_start.get(from..=to)?,
            positions: &self.positions,
        })
    }

    /// Documents matching `q`, ascending, each with the earliest start of
    /// the query's first phrase (0 when it has no phrase).
    ///
    /// Evaluation is rarest-term-first: the positive term (phrase word or
    /// keyword) with the fewest documents drives, and each of its
    /// documents is kept only if every keyword occurs in it, every phrase
    /// starts somewhere in it and no excluded term occurs in it. Every
    /// term keeps a cursor into its documents that only moves forward,
    /// by galloping search, since the driver's documents ascend. A
    /// positive term missing from the index empties the answer; a missing
    /// excluded term excludes nothing. The iterator is lazy, so `take(k)`
    /// stops after `k` matches.
    pub fn matches<'a>(&'a self, q: &Query) -> impl Iterator<Item = (u32, u32)> + 'a {
        let mut plan = Plan::new(self, q);
        let rarest: &'a [u32] = plan.as_ref().map_or(&[], |p| p.rarest);
        let mut scratch = Vec::new();
        rarest.iter().filter_map(move |&doc| {
            let anchor = plan.as_mut()?.admit(doc, &mut scratch)?;
            Some((doc, anchor))
        })
    }
}

/// Running offsets: `counts.len() + 1` entries, from 0 to the total.
fn prefix_sums(counts: &[usize]) -> Vec<usize> {
    let mut sums = Vec::with_capacity(counts.len() + 1);
    let mut total = 0;
    sums.push(0);
    for &c in counts {
        total += c;
        sums.push(total);
    }
    sums
}

/// One term's postings with a forward-only position among its documents.
struct Cursor<'a> {
    postings: Postings<'a>,
    /// No document before this entry was asked for yet.
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(postings: Postings<'a>) -> Self {
        Cursor { postings, at: 0 }
    }

    /// The term's positions in `doc`, if it occurs there. `doc` must not
    /// be below a document asked for before.
    fn seek(&mut self, doc: u32) -> Option<&'a [u32]> {
        self.at = gallop(self.postings.docs, self.at, doc);
        let found = *self.postings.docs.get(self.at)? == doc;
        found.then(|| self.postings.positions_at(self.at))
    }
}

/// The first index at or after `from` whose document is not below
/// `target` (`docs.len()` if none), for ascending `docs`: probe at
/// doubling distances, then binary-search the last step.
fn gallop(docs: &[u32], from: usize, target: u32) -> usize {
    let tail = docs.get(from..).unwrap_or_default();
    let mut step = 1;
    while tail.get(step).is_some_and(|&d| d < target) {
        step *= 2;
    }
    let lo = step / 2;
    // Every document before tail[lo] is below target; tail[step], if any,
    // is not.
    let hi = step.min(tail.len());
    let within = tail
        .get(lo..hi)
        .map_or(0, |w| w.partition_point(|&d| d < target));
    from + lo + within
}

/// A parsed query resolved against the index: every term's postings,
/// looked up once per query, each behind its own cursor.
struct Plan<'a> {
    /// The rarest positive term's documents.
    rarest: &'a [u32],
    keywords: Vec<Cursor<'a>>,
    /// Each phrase's words, in order.
    phrases: Vec<Vec<Cursor<'a>>>,
    /// Excluded terms present in the index.
    excluded: Vec<Cursor<'a>>,
}

impl<'a> Plan<'a> {
    /// `None` when the query has no positive term or one of them is
    /// absent from the index: either way nothing matches.
    fn new(index: &'a InvertedIndex, q: &Query) -> Option<Self> {
        let lookup = |t: &String| index.postings(t);
        let keywords: Vec<Postings> = q.keywords.iter().map(lookup).collect::<Option<_>>()?;
        let phrases: Vec<Vec<Postings>> = q
            .phrases
            .iter()
            .map(|phrase| phrase.iter().map(lookup).collect::<Option<_>>())
            .collect::<Option<_>>()?;
        let rarest = keywords
            .iter()
            .chain(phrases.iter().flatten())
            .min_by_key(|p| p.doc_count())?;
        Some(Plan {
            rarest: rarest.docs,
            excluded: q
                .excluded
                .iter()
                .filter_map(lookup)
                .map(Cursor::new)
                .collect(),
            keywords: keywords.into_iter().map(Cursor::new).collect(),
            phrases: phrases
                .into_iter()
                .map(|phrase| phrase.into_iter().map(Cursor::new).collect())
                .collect(),
        })
    }

    /// The first phrase's earliest start in `doc` (0 without phrases), or
    /// `None` when `doc` does not match. Documents must be asked for in
    /// ascending order. `scratch` holds one phrase's in-document
    /// positions at a time.
    fn admit(&mut self, doc: u32, scratch: &mut Vec<&'a [u32]>) -> Option<u32> {
        if !self.keywords.iter_mut().all(|c| c.seek(doc).is_some()) {
            return None;
        }
        let mut anchor = None;
        for phrase in &mut self.phrases {
            let start = phrase_start(phrase, doc, scratch)?;
            anchor.get_or_insert(start);
        }
        if self.excluded.iter_mut().any(|c| c.seek(doc).is_some()) {
            return None;
        }
        Some(anchor.unwrap_or(0))
    }
}

/// Earliest token position in `doc` at which `phrase` (its words'
/// cursors, in order) occurs contiguously.
fn phrase_start<'a>(
    phrase: &mut [Cursor<'a>],
    doc: u32,
    scratch: &mut Vec<&'a [u32]>,
) -> Option<u32> {
    scratch.clear();
    for c in phrase {
        scratch.push(c.seek(doc)?);
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
    use crate::reference;

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
        let idx = InvertedIndex::build(&corpus());
        assert_eq!(matches(&idx, "delta"), vec![(0, 0), (1, 0)]);
        assert_eq!(matches(&idx, "boston"), vec![(0, 0), (2, 0)]);
        assert!(matches(&idx, "zurich").is_empty());
        assert_eq!(idx.doc_count(), 3);
    }

    #[test]
    fn positions_recorded() {
        let idx = InvertedIndex::build(&corpus());
        let p = idx.postings("such").expect("postings");
        assert_eq!(p.doc_count(), 2);
        assert_eq!(
            p.iter().collect::<Vec<_>>(),
            vec![(0, &[1][..]), (2, &[1][..])]
        );
        // the last term and the last document have their own positions
        let last = idx.postings("chicago").expect("postings");
        assert_eq!(last.iter().collect::<Vec<_>>(), vec![(2, &[5][..])]);
    }

    #[test]
    fn phrase_match() {
        let idx = InvertedIndex::build(&corpus());
        assert_eq!(matches(&idx, "\"airlines such as\""), vec![(0, 0)]);
        assert_eq!(matches(&idx, "\"such as\""), vec![(0, 1), (2, 1)]);
    }

    #[test]
    fn phrase_requires_adjacency() {
        let idx = InvertedIndex::build(&corpus());
        assert!(matches(&idx, "\"delta united\"").is_empty());
    }

    #[test]
    fn phrase_with_unknown_term() {
        let idx = InvertedIndex::build(&corpus());
        assert!(matches(&idx, "\"such zebras\"").is_empty());
    }

    #[test]
    fn single_word_phrase() {
        let idx = InvertedIndex::build(&corpus());
        assert_eq!(matches(&idx, "\"boston\""), vec![(0, 8), (2, 3)]);
    }

    #[test]
    fn empty_phrase() {
        let idx = InvertedIndex::build(&corpus());
        assert!(matches(&idx, "\"\"").is_empty());
        assert!(matches(&idx, "-delta").is_empty());
    }

    #[test]
    fn first_phrase_anchors_whichever_term_drives() {
        let idx = InvertedIndex::build(&corpus());
        // "atlanta" (1 doc) drives; the anchor is still the phrase's start
        assert_eq!(matches(&idx, "\"an airline\" +atlanta"), vec![(1, 2)]);
        // the rarer second phrase drives; the first phrase anchors
        assert_eq!(matches(&idx, "\"such as\" \"from boston\""), vec![(0, 1)]);
        assert_eq!(matches(&idx, "\"from boston\" \"such as\""), vec![(0, 7)]);
    }

    #[test]
    fn unknown_exclusion_excludes_nothing() {
        let idx = InvertedIndex::build(&corpus());
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

    /// Every term's documents and positions equal the reference's, and
    /// the index has no term the reference lacks.
    #[test]
    fn postings_agree_with_reference() {
        let corpus = oracle_corpus();
        let idx = InvertedIndex::build(&corpus);
        let reference =
            crate::reference::Reference::new(corpus.iter().map(|d| reference::tokenize(&d.text)));
        let want = reference.postings();
        assert_eq!(idx.ids.len(), want.len());
        for (term, docs) in want {
            let got: Vec<(u32, Vec<u32>)> = idx
                .postings(term)
                .expect(term)
                .iter()
                .map(|(d, ps)| (d, ps.to_vec()))
                .collect();
            assert_eq!(got, docs, "term {term:?}");
        }
    }

    /// The oracle: on 2,400 seeded queries, rarest-term-first evaluation
    /// gives the brute-force reference's `(doc, first-phrase start)` list.
    #[test]
    fn matches_agree_with_brute_force_reference() {
        let corpus = oracle_corpus();
        let idx = InvertedIndex::build(&corpus);
        let reference =
            crate::reference::Reference::new(corpus.iter().map(|d| reference::tokenize(&d.text)));
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
        let idx = InvertedIndex::build(&c);
        let p = idx.postings("boston").expect("p");
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![(0, &[0, 1, 2][..])]);
    }

    /// Galloping finds the first document not below the target from every
    /// start, the last document of each doubling range included.
    #[test]
    fn gallop_finds_the_first_document_not_below() {
        let docs: Vec<u32> = (0..40).map(|i| i * 3).collect();
        for from in 0..=docs.len() {
            for target in 0..125 {
                let want = from + docs[from..].partition_point(|&d| d < target);
                assert_eq!(
                    gallop(&docs, from, target),
                    want,
                    "from {from} target {target}"
                );
            }
        }
    }
}
