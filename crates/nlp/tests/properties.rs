//! Property-based tests for the NLP substrate.

#[path = "support/reference.rs"]
mod reference;

use webiq_nlp::{chunk, inflect, pos, stem, stopwords, token};
use webiq_rng::{prop, SliceRandom, StdRng};

/// Tokenization never panics, never produces empty tokens and equals the
/// reference tokenizer.
#[test]
fn tokenize_total() {
    prop::cases(prop::CASES, |rng| {
        let s = rng.gen_string(prop::any_char(), 0, 200);
        let tokens = token::tokenize(&s);
        for t in &tokens {
            assert!(!t.text.is_empty());
        }
        assert_eq!(tokens, reference::tokenize(&s), "{s:?}");
    });
}

/// Word tokens contain no whitespace.
#[test]
fn tokens_have_no_whitespace() {
    prop::cases(prop::CASES, |rng| {
        let s = rng.gen_string(
            prop::charset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,.$-"),
            0,
            120,
        );
        for t in token::tokenize(&s) {
            assert!(!t.text.chars().any(char::is_whitespace), "token {t:?}");
        }
    });
}

/// Tagging assigns exactly one tag per token.
#[test]
fn tagging_is_total() {
    prop::cases(prop::CASES, |rng| {
        let s = rng.gen_string(
            prop::charset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ ,.'"),
            0,
            120,
        );
        let toks = token::tokenize(&s);
        let tagged = pos::tag_tokens(&toks);
        assert_eq!(toks.len(), tagged.len());
    });
}

/// Pluralize then singularize round-trips for regular lowercase nouns
/// that are not already plural and avoid ambiguous endings.
#[test]
fn plural_roundtrip() {
    prop::cases(prop::CASES * 4, |rng| {
        let w = rng.gen_string(prop::lower(), 3, 10);
        if inflect::is_plural(&w) {
            return;
        }
        // Endings whose plural is genuinely ambiguous to invert in English
        // (tie/ties vs. fly/flies; potato/potatoes vs. auto/autos) or that
        // produce -is/-us plurals the singularizer deliberately protects
        // (analysis, bus).
        if w.ends_with('s') || w.ends_with('o') {
            return;
        }
        if w.ends_with("ie") || w.ends_with('i') || w.ends_with('u') {
            return;
        }
        // sibilant+e endings collide with sibilant -es plurals (axe/axes vs.
        // box/boxes), another genuine English ambiguity.
        if ["xe", "se", "ze", "che", "she"]
            .iter()
            .any(|s| w.ends_with(s))
        {
            return;
        }
        let p = inflect::pluralize(&w);
        assert_eq!(inflect::singularize(&p), w);
    });
}

/// Pluralisation is idempotent (for realistic noun lengths; one- and
/// two-letter "nouns" like `a` are out of scope).
#[test]
fn plural_idempotent() {
    prop::cases(prop::CASES * 4, |rng| {
        let w = rng.gen_string(prop::lower(), 3, 12);
        // Words ending in i/u pluralise to -is/-us forms the singularizer
        // deliberately refuses to touch (analysis, bus), defeating the
        // already-plural detection on the second application.
        if w.ends_with('i') || w.ends_with('u') {
            return;
        }
        let once = inflect::pluralize(&w);
        let twice = inflect::pluralize(&once);
        assert_eq!(once, twice);
    });
}

/// Stemming never grows a word and is idempotent-ish: stemming a stem
/// never panics and stays ASCII.
#[test]
fn stem_never_grows() {
    prop::cases(prop::CASES, |rng| {
        let w = rng.gen_string(prop::lower(), 1, 20);
        let s = stem::stem(&w);
        assert!(s.len() <= w.len());
        assert!(s.is_ascii());
        let _ = stem::stem(&s);
    });
}

/// classify_label is total (never panics) on arbitrary label-ish text.
#[test]
fn classify_total() {
    prop::cases(prop::CASES, |rng| {
        let s = rng.gen_string(
            prop::charset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 :*()/-"),
            0,
            60,
        );
        let _ = chunk::classify_label(&s);
    });
}

/// Labels made of a single known noun always classify as a noun phrase
/// headed by that noun.
#[test]
fn single_noun_is_np() {
    let nouns = [
        "city",
        "airline",
        "author",
        "price",
        "company",
        "publisher",
        "salary",
        "mileage",
    ];
    for w in nouns {
        match chunk::classify_label(w) {
            chunk::LabelForm::NounPhrase(np) => assert_eq!(np.head_word(), w),
            other => panic!("expected NP for {w}, got {other:?}"),
        }
    }
}

/// Stopword removal output never contains a stopword and never reorders.
#[test]
fn stopword_filter_sound() {
    prop::cases(prop::CASES, |rng| {
        let ws = prop::string_vec(rng, prop::lower(), 0, 11, 1, 8);
        let out = stopwords::remove_stopwords(&ws);
        for w in &out {
            assert!(!stopwords::is_stopword(w));
        }
        // order preserved: `out` is a subsequence of `ws`
        let mut it = ws.iter();
        for w in &out {
            assert!(it.any(|x| x == w));
        }
    });
}

/// One piece of adversarial tagger input: a lexicon word in random case
/// (maybe suffixed), a word longer than any lexicon word, non-ASCII
/// letters, a `$`/`,`/`.` number, apostrophes and hyphens, punctuation or
/// whitespace.
fn fragment(rng: &mut StdRng) -> String {
    match rng.gen_range(0u32..9) {
        0..=2 => {
            let words: Vec<&str> = reference::lexicon_words().collect();
            let word = words.choose(rng).expect("non-empty lexicon");
            let cased: String = word
                .chars()
                .map(|c| {
                    if rng.gen_bool(0.4) {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect();
            let suffix = ["", "", "", "s", "S", "ing", "ed", "ly", "able"];
            cased + suffix.choose(rng).expect("non-empty")
        }
        3 => rng.gen_string(prop::charset("abcdeinrstuABCDEINRST"), 12, 24),
        4 => rng.gen_string(prop::charset("aeiéüßΩ中İ\u{212A}ÆøSTEDing"), 1, 10),
        5 => rng.gen_string(prop::charset("$0123456789,.,.$"), 1, 10),
        6 => rng.gen_string(prop::charset("ab'-'-OHARE"), 1, 10),
        7 => rng.gen_string(prop::charset(",.;:()!?*/&"), 1, 3),
        _ => rng.gen_string(prop::charset(" \t\n\u{a0}"), 1, 3),
    }
}

/// Adversarial text: up to 30 fragments, mostly space-separated,
/// sometimes run together.
fn adversarial_text(rng: &mut StdRng) -> String {
    let mut text = String::new();
    for _ in 0..rng.gen_range(0usize..=30) {
        text.push_str(&fragment(rng));
        if rng.gen_bool(0.8) {
            text.push(' ');
        }
    }
    text
}

/// The tokenizer, the tagger and `words_lower` equal their pre-rewrite
/// reference on adversarial text.
#[test]
fn tokenizer_and_tagger_equal_the_reference() {
    prop::cases(16 * prop::CASES, |rng| {
        let text = adversarial_text(rng);
        let tokens = token::tokenize(&text);
        assert_eq!(tokens, reference::tokenize(&text), "{text:?}");
        assert_eq!(pos::tag(&text), reference::tag(&text), "{text:?}");
        assert_eq!(pos::tag_tokens(&tokens), reference::tag_tokens(&tokens));
        assert_eq!(token::words_lower(&text), reference::words_lower(&text));
    });
}

/// Every lexicon word tags as the reference tags it: in lower, upper and
/// title case, first and mid-sentence, bare and suffixed.
#[test]
fn every_lexicon_word_tags_as_the_reference() {
    for word in reference::lexicon_words() {
        let upper = word.to_ascii_uppercase();
        let title: String = word
            .chars()
            .enumerate()
            .map(|(i, c)| if i == 0 { c.to_ascii_uppercase() } else { c })
            .collect();
        for w in [word, upper.as_str(), title.as_str()] {
            let text = format!("{w} the {w} {w}s");
            assert_eq!(pos::tag(&text), reference::tag(&text), "{text:?}");
        }
    }
}

/// The text entry points are total on adversarial text (final sigma,
/// `İ`, `ẞ`, the Kelvin and Ohm signs, combining marks) mixed with `"`,
/// `+`, `-`, `$` and `.`.
#[test]
fn text_entry_points_never_panic() {
    let chars = prop::charset("ΣσςİıẞßK\u{212A}\u{2126}\u{301}\u{345}éa0 \"+-$.!?'");
    prop::cases(4 * prop::CASES, |rng| {
        let s = rng.gen_string(chars, 0, 48);
        let _ = token::tokenize(&s);
        let _ = token::words_lower(&s);
        let _ = token::sentences(&s);
    });
}
