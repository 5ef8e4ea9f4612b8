//! Property-based tests for the Surface-Web simulator.

use webiq_rng::prop;
use webiq_web::{gen, query, Corpus, SearchEngine};

/// Query parsing is total.
#[test]
fn parse_total() {
    prop::cases(prop::CASES, |rng| {
        let s = rng.gen_string(prop::any_char(), 0, 120);
        let _ = query::parse(&s);
    });
}

/// num_hits never exceeds the corpus size.
#[test]
fn hits_bounded() {
    prop::cases(prop::CASES, |rng| {
        let texts = prop::string_vec(rng, prop::lower_space(), 0, 11, 0, 60);
        let q = rng.gen_string(prop::charset("abcdefghijklmnopqrstuvwxyz +\""), 0, 40);
        let engine = SearchEngine::new(Corpus::from_texts(texts.clone()));
        assert!(engine.num_hits(&q) <= texts.len() as u64);
    });
}

/// Adding a keyword never increases the hit count (conjunctive semantics
/// are monotone).
#[test]
fn conjunction_monotone() {
    prop::cases(prop::CASES, |rng| {
        let texts = prop::string_vec(rng, prop::charset("abc "), 0, 11, 0, 40);
        let base = rng.gen_string(prop::charset("abc"), 1, 3);
        let extra = rng.gen_string(prop::charset("abc"), 1, 3);
        let engine = SearchEngine::new(Corpus::from_texts(texts));
        let h1 = engine.num_hits(&base);
        let h2 = engine.num_hits(&format!("{base} +{extra}"));
        assert!(h2 <= h1, "h1={h1} h2={h2}");
    });
}

/// Every snippet returned for a quoted phrase contains that phrase.
#[test]
fn snippets_contain_phrase() {
    prop::cases(prop::CASES, |rng| {
        let words = prop::string_vec(rng, prop::lower(), 2, 3, 2, 6);
        let texts = prop::string_vec(rng, prop::lower_space(), 0, 7, 0, 40);
        let phrase = words.join(" ");
        let mut all = texts;
        all.push(format!("prefix words then {phrase} and a suffix"));
        let engine = SearchEngine::new(Corpus::from_texts(all));
        let q = format!("\"{phrase}\"");
        let snippets = engine.search(&q, 10);
        assert!(!snippets.is_empty());
        for s in snippets.iter() {
            assert!(
                s.text.to_lowercase().contains(&phrase),
                "snippet {:?} lacks {:?}",
                s.text,
                phrase
            );
        }
    });
}

/// One word of text the index and the snippet window must cut alike:
/// plain, with `$` inside or in front, with internal `'-.,`, a number with
/// separators, non-ASCII letters, or lone punctuation.
fn tricky_word(rng: &mut webiq_rng::StdRng) -> String {
    let letters = prop::charset("abcdeUSxyz");
    let digits = prop::charset("0123456789");
    match rng.gen_range(0u32..7) {
        0 => rng.gen_string(letters, 1, 5),
        1 => format!(
            "{}${}",
            rng.gen_string(letters, 1, 3),
            rng.gen_string(digits, 1, 4)
        ),
        2 => format!(
            "{}{}{}",
            rng.gen_string(letters, 1, 3),
            rng.gen_string(prop::charset("'-.,"), 1, 2),
            rng.gen_string(letters, 0, 3)
        ),
        3 => format!(
            "{},{}.{}",
            rng.gen_string(digits, 1, 3),
            rng.gen_string(digits, 3, 3),
            rng.gen_string(digits, 0, 2)
        ),
        4 => rng.gen_string(prop::charset("éüßΣσΩİẞ\u{212a}"), 1, 4),
        5 => format!("${}", rng.gen_string(digits, 1, 4)),
        _ => rng.gen_string(prop::charset("$'-.,"), 1, 2),
    }
}

/// Every snippet of a phrase query holds the phrase's tokens in order, on
/// text where a word-character rule other than the index's would miscount
/// the window's tokens.
#[test]
fn snippets_contain_phrase_tokens_on_tricky_text() {
    let mut matched = 0;
    prop::cases(prop::CASES * 2, |rng| {
        let docs: Vec<String> = (0..rng.gen_range(1usize..=4))
            .map(|_| {
                let n = rng.gen_range(8usize..=40);
                let words: Vec<String> = (0..n).map(|_| tricky_word(rng)).collect();
                words.join(" ")
            })
            .collect();
        let engine = SearchEngine::new(Corpus::from_texts(docs.clone()));
        let tokens = query::tokenize(&docs[rng.gen_range(0..docs.len())]);
        if tokens.is_empty() {
            return;
        }
        let start = rng.gen_range(0..tokens.len());
        let end = (start + rng.gen_range(1usize..=3)).min(tokens.len());
        let q = format!("\"{}\"", tokens[start..end].join(" "));
        let Some(phrase) = query::parse(&q).phrases.into_iter().next() else {
            return;
        };
        for s in engine.search(&q, 10).iter() {
            let got = query::tokenize(&s.text);
            assert!(
                got.windows(phrase.len()).any(|w| w == phrase.as_slice()),
                "snippet {:?} lacks {phrase:?}",
                s.text
            );
            matched += 1;
        }
    });
    // not vacuous: most phrases come back from their own document
    assert!(matched > prop::CASES, "{matched}");
}

/// A document matches its own exact text as a phrase query.
#[test]
fn self_phrase_match() {
    prop::cases(prop::CASES, |rng| {
        let words = prop::string_vec(rng, prop::lower(), 1, 5, 2, 6);
        let text = words.join(" ");
        let engine = SearchEngine::new(Corpus::from_texts([text.clone()]));
        let q = format!("\"{text}\"");
        assert!(engine.num_hits(&q) >= 1);
    });
}

/// Corpus generation is deterministic in the seed.
#[test]
fn generation_deterministic() {
    prop::cases(prop::CASES, |rng| {
        let seed = rng.next_u64();
        let concept = gen::ConceptSpec {
            key: "k".into(),
            lexicalizations: vec!["city".into()],
            object: "flight".into(),
            domain_terms: vec!["travel".into()],
            instances: vec!["Boston".into(), "Chicago".into(), "Denver".into()],
            confusers: vec![],
            richness: 1.0,
        };
        let cfg = gen::GenConfig {
            seed,
            docs_per_concept: 5,
            noise_docs: 5,
            ..gen::GenConfig::default()
        };
        let a = gen::generate(std::slice::from_ref(&concept), &cfg);
        let b = gen::generate(std::slice::from_ref(&concept), &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(&x.text, &y.text);
        }
    });
}

/// Adversarial text (final sigma, `İ`, `ẞ`, the Kelvin and Ohm signs,
/// combining marks) mixed with the query syntax's `"`, `+` and `-` and
/// the tokenizer's `$` and `.`.
const ADVERSARIAL: &str = "ΣσςİıẞßK\u{212A}\u{2126}\u{301}\u{345}éa0 \"+-$.";

/// The query entry points are total on adversarial text, and a batch
/// over a small corpus of it answers as its queries one at a time.
#[test]
fn text_entry_points_never_panic() {
    let chars = prop::charset(ADVERSARIAL);
    prop::cases(prop::CASES, |rng| {
        let texts = prop::string_vec(rng, chars, 0, 5, 0, 40);
        let queries = prop::string_vec(rng, chars, 0, 9, 0, 24);
        for q in &queries {
            let _ = query::parse(q);
            let _ = query::tokenize(q);
        }
        let batched = SearchEngine::new(Corpus::from_texts(texts.clone()));
        let single = SearchEngine::new(Corpus::from_texts(texts));
        let hits = batched.num_hits_many(&queries);
        let snippets = batched.search_many(&queries, 3);
        let one_hits: Vec<u64> = queries.iter().map(|q| single.num_hits(q)).collect();
        assert_eq!(hits, one_hits, "{queries:?}");
        for (q, got) in queries.iter().zip(&snippets) {
            assert_eq!(*got, single.search(q, 3), "{q:?}");
        }
    });
}
