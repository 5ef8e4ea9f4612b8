//! # webiq-match — the IceQ-style interface matcher
//!
//! The matching system WebIQ plugs into (§5): attributes across a domain's
//! query interfaces are grouped by constrained agglomerative clustering
//! over `Sim(A,B) = α·LabelSim + β·DomSim` (α = 0.6, β = 0.4, τ ∈ {0,
//! 0.1}).
//!
//! - [`labelsim`] — cosine over stemmed, stopword-filtered label vectors;
//! - [`domsim`] — type- and value-based domain similarity and the §5
//!   very-similar value test, on value sets prepared once per attribute;
//! - [`cluster`] — average-link agglomerative clustering with the
//!   same-interface exclusion constraint;
//! - [`metrics`] — pairwise precision / recall / F-1;
//! - [`icq`] — the assembled matcher (one [`Profile`] per attribute feeds
//!   the similarity matrix) and its evaluation entry points;
//! - [`learn`] — the interactive threshold learning the paper's IceQ ran
//!   in manual mode (τ = 0.1 was "about the average of the thresholds
//!   learned for the five domains").
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::string_slice
)]

pub mod cluster;
pub mod domsim;
pub mod icq;
pub mod labelsim;
pub mod learn;
pub mod metrics;

pub use icq::{
    attributes_of, match_attributes, match_dataset, similarity, MatchAttribute, MatchConfig,
    MatchResult, Profile,
};
pub use learn::{learn_threshold, GoldOracle, LearnedThreshold, MatchOracle};
pub use metrics::PrF1;
