//! # webiq-data — domain knowledge bases and the ICQ-profile dataset
//!
//! The paper evaluates over the ICQ dataset: five real-world domains
//! (airfare, automobile, book, job, real estate) with 20 query interfaces
//! each. That dataset is not available, so this crate *regenerates* its
//! statistical profile from per-domain knowledge bases (see DESIGN.md §2):
//!
//! - [`kb`] — the five domain definitions: concepts, label variants
//!   (including the hard prepositional/verb-phrase/ambiguous forms the
//!   paper discusses), instance pools (with the North-American/European
//!   airline split), and generation parameters tuned to Table 1;
//! - [`interface`] — the interface/attribute model, HTML rendering, and
//!   HTML re-extraction;
//! - [`generate`] — the dataset generator (20 interfaces per domain,
//!   deterministic in the seed);
//! - [`gold`] — gold-standard match clusters and pairs;
//! - [`stats`] — Table-1 characteristics of a generated dataset;
//! - [`records`] — backend record stores and simulated Deep-Web sources
//!   per interface;
//! - [`corpus`] — mapping from knowledge bases to the Surface-Web corpus
//!   generator's concept specifications;
//! - [`export`] — persist a generated benchmark as on-disk HTML pages +
//!   gold file, and re-import it through the real extraction path.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::string_slice
)]

pub mod corpus;
pub mod export;
pub mod generate;
pub mod gold;
pub mod interface;
pub mod kb;
pub mod records;
pub mod stats;

pub use generate::{generate_all, generate_domain, GenOptions};
pub use interface::{AttrRef, Attribute, Dataset, Interface};
pub use kb::{all_domains, domain, ConceptDef, DomainDef};
