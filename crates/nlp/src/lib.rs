//! # webiq-nlp — shallow NLP substrate for WebIQ
//!
//! The WebIQ paper (ICDE 2006) performs *shallow syntactic analysis* of
//! query-interface attribute labels: Brill's part-of-speech tagging followed
//! by pattern matching over the tag sequence to recognise noun phrases,
//! prepositional phrases, verb phrases, and noun-phrase conjunctions
//! (§2.1). This crate provides that analysis plus the supporting machinery:
//!
//! - [`token`] — word/number/punctuation tokenizer and sentence splitter;
//! - [`pos`] — a Brill-style rule-based POS tagger (lexicon + suffix
//!   heuristics + contextual transformation rules);
//! - [`chunk`] — the noun-phrase chunker and label-form classifier;
//! - [`inflect`] — noun pluralisation for building cue phrases
//!   (`departure city` → `departure cities such as`);
//! - [`stem`] — Porter stemming for IceQ label vectors;
//! - [`stopwords`] — the stopword filter for label vectors.
//!
//! Everything is deterministic, allocation-light, and dependency-free.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod chunk;
pub mod inflect;
pub mod pos;
pub mod stem;
pub mod stopwords;
pub mod token;

pub use chunk::{classify_label, LabelForm, NounPhrase};
pub use pos::{tag, Tag, Tagged};
pub use token::{tokenize, words_lower, Token, TokenKind};
