//! # webiq-deep — the Deep-Web source simulator
//!
//! Attr-Deep (§4 of the paper) validates borrowed instances by *probing*:
//! submit the source's form with attribute `A` set to candidate `x` and
//! the other attributes at their defaults, then analyze the response page.
//! This crate provides both sides of that interaction:
//!
//! - [`record`] — columnar backend record stores with conjunctive,
//!   leniently-matched queries;
//! - [`source`] — the form handler: partial queries, enumerated-domain
//!   enforcement, required fields, deterministic failure injection;
//! - [`render`] — HTML result / no-results / error pages;
//! - [`analyze`] — the Raghavan–Garcia-Molina-style submission-success
//!   heuristics WebIQ runs over the returned page.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod analyze;
pub mod error;
pub mod record;
pub mod render;
pub mod source;

pub use analyze::{analyze_response, SubmissionOutcome};
pub use error::DeepError;
pub use record::{Record, RecordStore, Row};
pub use source::{DeepSource, ParamDomain, SourceParam};
