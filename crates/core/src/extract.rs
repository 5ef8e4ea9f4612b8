//! The instance-extraction phase (§2.1): label syntax analysis, extraction
//! query formulation, and candidate extraction from result snippets.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use webiq_nlp::chunk::{self, LabelForm, NounPhrase};
use webiq_nlp::pos::{self, Tagged};
use webiq_trace::Counter;
use webiq_web::cache::ShardedMap;
use webiq_web::QueryEngine;

use crate::config::WebIQConfig;
use crate::patterns::{extraction_patterns, CompletionSide, MaterializedPattern, PatternKind};

/// Domain information used to scope extraction queries (§2.1: the object
/// name, the domain name, and labels/instances of sibling attributes).
#[derive(Debug, Clone, Default)]
pub struct DomainInfo {
    /// The real-world object name (`"book"`).
    pub object: String,
    /// Domain terms, most specific first (`["book", "bookstore"]`).
    pub domain_terms: Vec<String>,
    /// Content keywords from the labels of the *other* attributes on the
    /// same interface (`["title", "isbn"]` for a bookstore's `author`).
    /// §2.1 appends these to extraction queries to narrow their scope.
    pub sibling_terms: Vec<String>,
}

/// One candidate with its occurrence count across snippets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Display form (original casing from the first sighting).
    pub text: String,
    /// How many snippets yielded it (redundancy-based confidence).
    pub count: usize,
}

/// Result of the extraction phase.
#[derive(Debug, Clone, Default)]
pub struct ExtractionOutcome {
    /// Candidates in first-seen order.
    pub candidates: Vec<Candidate>,
    /// Number of extraction queries posed.
    pub queries: usize,
}

/// Analyze an attribute label and return the noun phrases usable for query
/// formulation (§2.1). Empty when the label has no noun phrase — the
/// extraction phase then terminates with no instances.
pub fn label_noun_phrases(label: &str) -> Vec<NounPhrase> {
    let form = chunk::classify_label(label);
    form.noun_phrases().into_iter().cloned().collect()
}

/// The primary noun phrase of a label, if any.
pub fn primary_noun_phrase(label: &str) -> Option<NounPhrase> {
    label_noun_phrases(label).into_iter().next()
}

/// Is the label form "benign" for Surface extraction (§4 intro: noun or
/// noun phrase)? Prepositional and verb-phrase labels formulate queries
/// from their inner NP but are considered less reliable.
pub fn label_is_benign(label: &str) -> bool {
    matches!(
        chunk::classify_label(label),
        LabelForm::NounPhrase(_) | LabelForm::Conjunction(_)
    )
}

/// Build the search-engine query string for a pattern: the quoted cue
/// phrase plus `+keyword` scoping from the domain info.
pub fn build_query(pattern: &MaterializedPattern, info: &DomainInfo, cfg: &WebIQConfig) -> String {
    let mut q = format!("\"{}\"", pattern.cue);
    for term in info.domain_terms.iter().take(cfg.scope_keywords) {
        // multi-word domain terms ("real estate") are quoted
        if term.contains(' ') {
            q.push_str(&format!(" \"{term}\""));
        } else {
            q.push_str(&format!(" +{term}"));
        }
    }
    // §2.1: "It also adds to such queries keywords formed from labels of
    // other attributes" — the paper's `"authors such as" +book +title
    // +isbn`. AND-semantics make each keyword a strict filter, so the
    // count is configurable (0 disables).
    for term in info.sibling_terms.iter().take(cfg.sibling_keywords) {
        q.push_str(&format!(" +{term}"));
    }
    q
}

/// Join the original (cased) token texts of a span.
fn span_text(tagged: &[Tagged], span: (usize, usize)) -> String {
    tagged[span.0..span.1]
        .iter()
        .map(|t| t.token.text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

/// The byte range in `snippet` of the first match of `cue` in
/// `snippet.to_lowercase()`. Lowercasing may change a char's byte length
/// (`İ` grows from 2 bytes to 3, `ẞ` shrinks from 3 to 2, the Kelvin sign
/// from 3 to 1), so the match is mapped back char by char: the range
/// covers every char whose lowercase form the match touches, and both
/// ends are char boundaries of `snippet`.
fn find_cue(snippet: &str, cue: &str) -> Option<(usize, usize)> {
    let at = snippet.to_lowercase().find(cue)?;
    let end = at + cue.len();
    let (mut start, mut stop) = (snippet.len(), snippet.len());
    // the current char's lowercase form spans `lower..next`
    let mut lower = 0;
    for (i, c) in snippet.char_indices() {
        let next = lower + c.to_lowercase().map(char::len_utf8).sum::<usize>();
        if lower <= at && at < next {
            start = i;
        }
        if lower >= end {
            stop = i;
            break;
        }
        lower = next;
    }
    Some((start, stop))
}

/// Extract completions from one snippet for one pattern: find the cue
/// phrase, then parse the NP list on the completion side.
pub fn completions(snippet: &str, pattern: &MaterializedPattern) -> Vec<String> {
    let Some((cue_start, cue_end)) = find_cue(snippet, &pattern.cue) else {
        return Vec::new();
    };
    match pattern.side {
        CompletionSide::After => {
            let after = snippet.get(cue_end..).unwrap_or_default();
            let tagged = pos::tag(after);
            let spans = chunk::parse_np_list_spans(&tagged);
            let texts: Vec<String> = spans.iter().map(|s| span_text(&tagged, *s)).collect();
            match pattern.kind {
                PatternKind::Set => texts,
                PatternKind::Singleton => texts.into_iter().take(1).collect(),
            }
        }
        CompletionSide::Before => {
            let before = snippet.get(..cue_start).unwrap_or_default();
            let tagged = pos::tag(before);
            let spans = trailing_np_list(&tagged);
            let texts: Vec<String> = spans.iter().map(|s| span_text(&tagged, *s)).collect();
            match pattern.kind {
                PatternKind::Set => texts,
                PatternKind::Singleton => texts.into_iter().rev().take(1).collect(),
            }
        }
    }
}

/// The [`completions`] one domain's acquisition has extracted, shared by
/// its workers. Interfaces share labels, so most (snippet, pattern) pairs
/// recur across attributes; each is tagged and parsed once. The key is
/// exactly the inputs [`completions`] reads: the pattern's cue, side and
/// kind, and the snippet text. Every value is a pure function of its key,
/// so a worker that misses while another computes the same key inserts
/// an equal value, and outputs never depend on which worker came first.
#[derive(Default)]
pub struct CompletionMemo {
    map: ShardedMap<Arc<[String]>>,
}

impl CompletionMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`completions`] of `snippet` under `pattern`, computed once.
    pub fn completions(&self, snippet: &str, pattern: &MaterializedPattern) -> Arc<[String]> {
        let key = memo_key(snippet, pattern);
        if let Some(hit) = self.map.get(&key) {
            return hit;
        }
        let computed: Arc<[String]> = completions(snippet, pattern).into();
        self.map.insert(key, Arc::clone(&computed));
        computed
    }

    /// Distinct (snippet, pattern) keys held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been extracted yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The memo key: side and kind as one byte each, the cue's length, the
/// cue, then the snippet, so no two inputs share a key.
fn memo_key(snippet: &str, pattern: &MaterializedPattern) -> String {
    let side = match pattern.side {
        CompletionSide::After => 'a',
        CompletionSide::Before => 'b',
    };
    let kind = match pattern.kind {
        PatternKind::Set => 's',
        PatternKind::Singleton => '1',
    };
    let cue = &pattern.cue;
    let mut key = String::with_capacity(cue.len() + snippet.len() + 8);
    key.push(side);
    key.push(kind);
    // writing to a `String` cannot fail
    let _ = write!(key, "{}:", cue.len());
    key.push_str(cue);
    key.push_str(snippet);
    key
}

/// The NP list forming the *suffix* of a tagged sequence (completions that
/// precede a cue, as in `NP₁, …, NPₙ, and other Ls`). A single trailing
/// separator (the comma before `and other`) is tolerated.
fn trailing_np_list(tagged: &[Tagged]) -> Vec<(usize, usize)> {
    let mut end = tagged.len();
    // tolerate one trailing "," separator
    while let Some(prev) = end.checked_sub(1).and_then(|i| tagged.get(i)) {
        if prev.tag == webiq_nlp::Tag::SYM && prev.token.text == "," {
            end -= 1;
        } else {
            break;
        }
    }
    let slice = &tagged[..end];
    // longest suffix that parses as an NP list consuming the whole suffix
    for start in 0..slice.len() {
        let spans = chunk::parse_np_list_spans(&slice[start..]);
        if let Some(last) = spans.last() {
            if start + last.1 == slice.len() {
                return spans.iter().map(|(a, b)| (start + a, start + b)).collect();
            }
        }
    }
    Vec::new()
}

/// Should a raw completion string be kept as a candidate? Drops empty
/// strings, bare stopwords, and echoes of the label itself.
fn plausible(text: &str, label_lower: &str) -> bool {
    let t = text.trim();
    if t.is_empty() || t.len() > 60 {
        return false;
    }
    let lower = t.to_lowercase();
    if lower == label_lower || label_lower.contains(&lower) && lower.len() > 3 {
        return false;
    }
    if t.split_whitespace().all(webiq_nlp::stopwords::is_stopword) {
        return false;
    }
    true
}

/// Run the full extraction phase for one attribute label. Traced as an
/// `extract` span; poses one [`Counter::ExtractQueries`] per query and
/// tallies raw yields under [`Counter::CandidatesExtracted`]. Every query
/// is issued, all of them in one batch; each snippet's completions come
/// from `memo`.
pub fn extract_candidates<E: QueryEngine>(
    engine: &E,
    label: &str,
    info: &DomainInfo,
    cfg: &WebIQConfig,
    memo: &CompletionMemo,
) -> ExtractionOutcome {
    let _span = webiq_trace::span("extract");
    let nps = label_noun_phrases(label);
    if nps.is_empty() {
        return ExtractionOutcome::default();
    }
    let label_lower = label.trim().trim_end_matches(':').to_lowercase();
    let mut seen: BTreeMap<String, usize> = BTreeMap::new(); // lower → index
    let mut candidates: Vec<Candidate> = Vec::new();
    let patterns: Vec<MaterializedPattern> = nps
        .iter()
        .flat_map(|np| extraction_patterns(np, &info.object))
        .collect();
    let queries: Vec<String> = patterns
        .iter()
        .map(|pattern| build_query(pattern, info, cfg))
        .collect();
    webiq_trace::add(Counter::ExtractQueries, queries.len() as u64);
    let results = engine.search_many(&queries, cfg.snippets_per_query);
    for (pattern, snippets) in patterns.iter().zip(&results) {
        for snippet in snippets.iter() {
            for text in memo.completions(&snippet.text, pattern).iter() {
                if !plausible(text, &label_lower) {
                    continue;
                }
                let key = text.to_lowercase();
                match seen.get(&key) {
                    Some(&idx) => candidates[idx].count += 1,
                    None => {
                        seen.insert(key, candidates.len());
                        candidates.push(Candidate {
                            text: text.clone(),
                            count: 1,
                        });
                    }
                }
            }
        }
    }
    webiq_trace::add(Counter::CandidatesExtracted, candidates.len() as u64);
    ExtractionOutcome {
        candidates,
        queries: queries.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webiq_web::{Corpus, SearchEngine};

    fn cfg() -> WebIQConfig {
        WebIQConfig::default()
    }

    fn info() -> DomainInfo {
        DomainInfo {
            object: "flight".into(),
            domain_terms: vec!["travel".into()],
            sibling_terms: Vec::new(),
        }
    }

    #[test]
    fn paper_snippet_example() {
        // Fig. 2: the snippet "... departure cities such as Boston,
        // Chicago, and LAX" yields exactly those three instances.
        let np = primary_noun_phrase("Departure city").expect("np");
        let pattern = &extraction_patterns(&np, "flight")[0];
        let got = completions(
            "Check fares from departure cities such as Boston, Chicago, and LAX. More info.",
            pattern,
        );
        assert_eq!(got, vec!["Boston", "Chicago", "LAX"]);
    }

    #[test]
    fn multiword_completions_keep_casing() {
        let np = primary_noun_phrase("Airline").expect("np");
        let pattern = &extraction_patterns(&np, "flight")[0];
        let got = completions(
            "airlines such as Air Canada and Aer Lingus fly here",
            pattern,
        );
        assert_eq!(got, vec!["Air Canada", "Aer Lingus"]);
    }

    #[test]
    fn s4_extracts_preceding_list() {
        let np = primary_noun_phrase("Airline").expect("np");
        let s4 = extraction_patterns(&np, "flight")
            .into_iter()
            .find(|p| p.id == "s4")
            .expect("s4");
        let got = completions("Delta, United, and other airlines serve this hub", &s4);
        assert!(got.contains(&"Delta".to_string()), "{got:?}");
        assert!(got.contains(&"United".to_string()), "{got:?}");
    }

    #[test]
    fn g4_extracts_single_preceding_np() {
        let np = primary_noun_phrase("Author").expect("np");
        let g4 = extraction_patterns(&np, "book")
            .into_iter()
            .find(|p| p.id == "g4")
            .expect("g4");
        let got = completions("Stephen King is the author of many novels", &g4);
        assert_eq!(got, vec!["Stephen King"]);
    }

    #[test]
    fn g1_extracts_following_np() {
        let np = primary_noun_phrase("Author").expect("np");
        let g1 = extraction_patterns(&np, "book")
            .into_iter()
            .find(|p| p.id == "g1")
            .expect("g1");
        let got = completions("We know the author of the book is Mark Twain.", &g1);
        assert_eq!(got, vec!["Mark Twain"]);
    }

    #[test]
    fn chars_that_change_length_when_lowercased_do_not_shift_the_cue() {
        // `İ` lowercases from 2 bytes to 3, `ẞ` from 3 to 2 and the
        // Kelvin sign from 3 to 1, before and after the cue
        let airline = primary_noun_phrase("Airline").expect("np");
        let patterns = extraction_patterns(&airline, "flight");
        let s1 = &patterns[0];
        let s4 = patterns.iter().find(|p| p.id == "s4").expect("s4");
        for c in ['İ', 'ẞ', '\u{212A}'] {
            let after = format!("{c}{c} airlines such as Delta and Lufthansa. {c}");
            assert_eq!(completions(&after, s1), ["Delta", "Lufthansa"], "{after}");
            let before = format!("{c}. Delta, United, and other airlines {c}{c}");
            assert_eq!(completions(&before, s4), ["Delta", "United"], "{before}");
        }
        // this once panicked: "start byte index 20 is not a char boundary"
        completions("İ airlines such asÜnited and Delta", s1);
        // a Kelvin sign inside the cue matches its `k`
        let make = primary_noun_phrase("Make").expect("np");
        let s1 = &extraction_patterns(&make, "car")[0];
        assert_eq!(
            completions(
                "\u{212A}\u{212A} MA\u{212A}ES such as Toyota and Honda.",
                s1
            ),
            ["Toyota", "Honda"]
        );
    }

    #[test]
    fn no_cue_no_completions() {
        let np = primary_noun_phrase("Airline").expect("np");
        let pattern = &extraction_patterns(&np, "flight")[0];
        assert!(completions("nothing relevant here", pattern).is_empty());
    }

    #[test]
    fn query_formatting_matches_google_syntax() {
        let np = primary_noun_phrase("Author").expect("np");
        let pattern = &extraction_patterns(&np, "book")[0];
        let info = DomainInfo {
            object: "book".into(),
            domain_terms: vec!["book".into()],
            sibling_terms: Vec::new(),
        };
        let q = build_query(pattern, &info, &cfg());
        assert_eq!(q, "\"authors such as\" +book");
    }

    #[test]
    fn sibling_keywords_narrow_queries() {
        let np = primary_noun_phrase("Author").expect("np");
        let pattern = &extraction_patterns(&np, "book")[0];
        let info = DomainInfo {
            object: "book".into(),
            domain_terms: vec!["book".into()],
            sibling_terms: vec!["title".into(), "isbn".into(), "publisher".into()],
        };
        let cfg = WebIQConfig {
            sibling_keywords: 2,
            ..WebIQConfig::default()
        };
        let q = build_query(pattern, &info, &cfg);
        // the paper's example query, exactly
        assert_eq!(q, "\"authors such as\" +book +title +isbn");
        // disabled by default
        assert_eq!(
            build_query(pattern, &info, &WebIQConfig::default()),
            "\"authors such as\" +book"
        );
    }

    #[test]
    fn multiword_domain_terms_are_quoted() {
        let np = primary_noun_phrase("City").expect("np");
        let pattern = &extraction_patterns(&np, "home")[0];
        let info = DomainInfo {
            object: "home".into(),
            domain_terms: vec!["real estate".into()],
            sibling_terms: Vec::new(),
        };
        let q = build_query(pattern, &info, &cfg());
        assert_eq!(q, "\"cities such as\" \"real estate\"");
    }

    #[test]
    fn prepositional_label_uses_inner_np() {
        let nps = label_noun_phrases("From city");
        assert_eq!(nps.len(), 1);
        assert_eq!(nps[0].text(), "city");
        assert!(label_noun_phrases("From").is_empty());
        assert!(!label_is_benign("From city"));
        assert!(label_is_benign("Departure city"));
    }

    #[test]
    fn end_to_end_extraction_against_engine() {
        let engine = SearchEngine::new(Corpus::from_texts([
            "Popular departure cities such as Boston, Chicago, and Denver are listed. This page is about travel.",
            "We feature such departure cities as Seattle and Atlanta. This page is about travel.",
            "This page is about gardening.",
        ]));
        let outcome = extract_candidates(
            &engine,
            "Departure city",
            &info(),
            &cfg(),
            &CompletionMemo::new(),
        );
        let texts: Vec<&str> = outcome.candidates.iter().map(|c| c.text.as_str()).collect();
        assert!(texts.contains(&"Boston"), "{texts:?}");
        assert!(texts.contains(&"Seattle"), "{texts:?}");
        assert!(outcome.queries >= 8);
    }

    #[test]
    fn label_without_np_yields_nothing() {
        let engine = SearchEngine::new(Corpus::from_texts(["anything"]));
        let outcome = extract_candidates(&engine, "From", &info(), &cfg(), &CompletionMemo::new());
        assert!(outcome.candidates.is_empty());
        assert_eq!(outcome.queries, 0);
    }

    #[test]
    fn duplicate_candidates_counted() {
        let engine = SearchEngine::new(Corpus::from_texts([
            "cities such as Boston and Chicago. This page is about travel.",
            "more cities such as Boston and Denver here. This page is about travel.",
        ]));
        let outcome = extract_candidates(&engine, "City", &info(), &cfg(), &CompletionMemo::new());
        let boston = outcome
            .candidates
            .iter()
            .find(|c| c.text == "Boston")
            .expect("boston extracted");
        assert_eq!(boston.count, 2);
    }

    #[test]
    fn conjunction_label_covers_both_nps() {
        let engine = SearchEngine::new(Corpus::from_texts([
            "first names such as Alice and Bob. This page is about travel.",
            "last names such as Smith and Jones. This page is about travel.",
        ]));
        let outcome = extract_candidates(
            &engine,
            "First name or last name",
            &info(),
            &cfg(),
            &CompletionMemo::new(),
        );
        let texts: Vec<&str> = outcome.candidates.iter().map(|c| c.text.as_str()).collect();
        assert!(texts.contains(&"Alice"), "{texts:?}");
        assert!(texts.contains(&"Smith"), "{texts:?}");
    }

    #[test]
    fn label_echo_filtered() {
        assert!(!plausible("city", "city"));
        assert!(plausible("Boston", "city"));
        assert!(!plausible("", "city"));
        assert!(!plausible("the", "city"));
    }
}
