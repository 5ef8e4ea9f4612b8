//! A brute-force reference for the search engine's answers, and the
//! seeded query generator its oracle sweeps draw from. Shared by the
//! `webiq-web` unit tests (through `#[path]`) and the workspace's
//! `engine_oracle` test.
//!
//! The reference tokenizes each document once, with its own char-by-char
//! tokenizer ([`tokenize`], the one the index used before it tokenized
//! spans of the text in place), and answers a parsed query by scanning
//! every document's token sequence. It shares nothing with posting
//! evaluation: no postings, no position lists, no special case for terms
//! missing from the corpus (an unknown term simply never occurs).

use std::collections::{BTreeMap, HashMap};

use webiq_rng::StdRng;

/// The index's tokenization, computed on a `Vec<char>`: alphanumeric runs
/// (plus internal `'`/`-`/`.`/`,` followed by an alphanumeric, and a
/// leading `$` before a digit), each collected char by char and then
/// lowercased as a whole.
pub fn tokenize(s: &str) -> Vec<String> {
    let chars: Vec<char> = s.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_alphanumeric() || c == '$' && chars.get(i + 1).is_some_and(char::is_ascii_digit) {
            let start = i;
            i += 1;
            while i < chars.len() {
                let c = chars[i];
                if c.is_alphanumeric() {
                    i += 1;
                } else if (c == '\'' || c == '-' || c == '.' || c == ',')
                    && chars.get(i + 1).is_some_and(|d| d.is_alphanumeric())
                {
                    i += 2;
                } else {
                    break;
                }
            }
            out.push(chars[start..i].iter().collect::<String>().to_lowercase());
        } else {
            i += 1;
        }
    }
    out
}

/// Stands for a query term that occurs in no document.
const ABSENT: u32 = u32::MAX;

/// Every document as a sequence of interned tokens.
pub struct Reference {
    vocab: HashMap<String, u32>,
    words: Vec<String>,
    docs: Vec<Vec<u32>>,
}

impl Reference {
    /// Intern the tokens of every document, in document-id order.
    pub fn new(docs: impl IntoIterator<Item = Vec<String>>) -> Self {
        let mut vocab: HashMap<String, u32> = HashMap::new();
        let mut words = Vec::new();
        let docs = docs
            .into_iter()
            .map(|toks| {
                toks.into_iter()
                    .map(|t| {
                        *vocab.entry(t.clone()).or_insert_with(|| {
                            words.push(t);
                            words.len() as u32 - 1
                        })
                    })
                    .collect()
            })
            .collect();
        Reference { vocab, words, docs }
    }

    /// Every term with the documents it occurs in, each with the term's
    /// positions there; documents and positions ascending.
    pub fn postings(&self) -> BTreeMap<&str, Vec<(u32, Vec<u32>)>> {
        let mut out: BTreeMap<&str, Vec<(u32, Vec<u32>)>> = BTreeMap::new();
        for (doc, toks) in self.docs.iter().enumerate() {
            for (pos, &t) in toks.iter().enumerate() {
                let list = out.entry(self.words[t as usize].as_str()).or_default();
                match list.last_mut() {
                    Some((d, ps)) if *d == doc as u32 => ps.push(pos as u32),
                    _ => list.push((doc as u32, vec![pos as u32])),
                }
            }
        }
        out
    }

    fn id(&self, term: &str) -> u32 {
        self.vocab.get(term).copied().unwrap_or(ABSENT)
    }

    /// Every document matching the parsed query, ascending, with the
    /// earliest start of the first phrase in it (0 without phrases): the
    /// document holds every keyword and every phrase as a contiguous run,
    /// and no excluded term. A query without phrases and keywords matches
    /// nothing.
    pub fn answer(
        &self,
        phrases: &[Vec<String>],
        keywords: &[String],
        excluded: &[String],
    ) -> Vec<(u32, u32)> {
        if phrases.is_empty() && keywords.is_empty() {
            return Vec::new();
        }
        let ids = |terms: &[String]| terms.iter().map(|t| self.id(t)).collect::<Vec<u32>>();
        let phrases: Vec<Vec<u32>> = phrases.iter().map(|p| ids(p)).collect();
        let (keywords, excluded) = (ids(keywords), ids(excluded));
        let mut out = Vec::new();
        'docs: for (doc, toks) in self.docs.iter().enumerate() {
            if !keywords.iter().all(|k| toks.contains(k))
                || excluded.iter().any(|x| toks.contains(x))
            {
                continue;
            }
            let mut anchor = None;
            for phrase in &phrases {
                let Some(start) = (0..toks.len()).find(|&s| toks[s..].starts_with(phrase)) else {
                    continue 'docs;
                };
                anchor.get_or_insert(start as u32);
            }
            out.push((doc as u32, anchor.unwrap_or(0)));
        }
        out
    }

    /// A seeded query in Google's syntax. Mixes one or two quoted phrases
    /// (cut from a document's token window, so they hit, or made of random
    /// words, so they mostly miss; 1-7 words), `+` and bare keywords,
    /// `-` exclusions, repeated words, terms absent from the corpus, and
    /// mixed case and punctuation.
    pub fn random_query(&self, rng: &mut StdRng) -> String {
        let mut parts: Vec<String> = Vec::new();
        let doc = rng.gen_range(0..self.docs.len().max(1));
        for _ in 0..rng.gen_range(0usize..=2) {
            parts.push(format!("\"{}\"", self.phrase(rng, doc)));
        }
        for _ in 0..rng.gen_range(0usize..=2) {
            let word = self.word(rng, doc);
            let repeat = rng.gen_bool(0.15);
            let plus = if rng.gen_bool(0.5) { "+" } else { "" };
            parts.push(format!("{plus}{word}"));
            if repeat {
                parts.push(word);
            }
        }
        for _ in 0..rng.gen_range(0usize..=2) {
            parts.push(format!("-{}", self.word(rng, doc)));
        }
        shuffle_tail(rng, &mut parts);
        parts.join(" ")
    }

    /// A phrase of 1-7 words: a window of `doc` three times in four,
    /// otherwise random words.
    fn phrase(&self, rng: &mut StdRng, doc: usize) -> String {
        let len = rng.gen_range(1usize..=7);
        let toks = self.docs.get(doc).map_or(&[][..], Vec::as_slice);
        let words: Vec<String> = if rng.gen_bool(0.75) && !toks.is_empty() {
            let start = rng.gen_range(0..toks.len());
            toks[start..(start + len).min(toks.len())]
                .iter()
                .map(|&t| self.render(rng, t))
                .collect()
        } else {
            (0..len).map(|_| self.word(rng, doc)).collect()
        };
        let mut phrase = words.join(" ");
        if rng.gen_bool(0.1) {
            // a repeated word inside the phrase ("boston boston")
            if let Some(last) = words.last() {
                phrase = format!("{phrase} {last}");
            }
        }
        phrase
    }

    /// One word: from `doc`, from anywhere in the corpus, or absent from it.
    fn word(&self, rng: &mut StdRng, doc: usize) -> String {
        let roll = rng.next_f64();
        let toks = self.docs.get(doc).map_or(&[][..], Vec::as_slice);
        if roll < 0.45 && !toks.is_empty() {
            let t = toks[rng.gen_range(0..toks.len())];
            self.render(rng, t)
        } else if roll < 0.85 && !self.words.is_empty() {
            let t = rng.gen_range(0..self.words.len()) as u32;
            self.render(rng, t)
        } else {
            let absent = [
                "zyxwv",
                "qqxj",
                "nonexistentterm",
                "U.S.A.",
                "$0",
                "9,999,999",
            ];
            absent[rng.gen_range(0..absent.len())].to_string()
        }
    }

    /// Token `t` as a user might type it: in mixed case, sometimes with
    /// trailing punctuation the tokenizer drops.
    fn render(&self, rng: &mut StdRng, t: u32) -> String {
        let word = self.words.get(t as usize).map_or("", String::as_str);
        let mut s: String = match rng.gen_range(0u32..4) {
            0 => word.to_ascii_uppercase(),
            1 => word
                .chars()
                .enumerate()
                .map(|(i, c)| if i == 0 { c.to_ascii_uppercase() } else { c })
                .collect(),
            _ => word.to_string(),
        };
        if rng.gen_bool(0.1) {
            s.push([',', '.', '!', ';'][rng.gen_range(0usize..4)]);
        }
        s
    }
}

/// Swap the last part to a random position, so keywords and exclusions
/// sometimes precede the phrases.
fn shuffle_tail(rng: &mut StdRng, parts: &mut [String]) {
    if parts.len() > 1 {
        let last = parts.len() - 1;
        parts.swap(rng.gen_range(0..parts.len()), last);
    }
}
