//! # webiq-html — HTML substrate for WebIQ
//!
//! Deep-Web query interfaces are HTML forms; WebIQ's input is the schema
//! extracted from them, and the Attr-Deep component reads the *response
//! pages* sources return to probing queries. This crate provides the full
//! path from markup to schema:
//!
//! - [`entities`] — character-reference decoding/encoding;
//! - [`lexer`] — a lenient tag/text/comment tokenizer;
//! - [`dom`] — a forgiving DOM-lite tree builder (void elements,
//!   implicit closes, tag-soup recovery);
//! - [`form`] — query-interface extraction: controls, labels (via
//!   `label[for]`, wrapping labels, or preceding text), `<select>`
//!   options as pre-defined instances, radio-group merging.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod dom;
pub mod entities;
pub mod form;
pub mod lexer;

pub use dom::{parse, parse_document, Node};
pub use form::{extract_forms, ExtractedForm, FieldKind, FormField};
pub use lexer::{Attr, HtmlToken};
