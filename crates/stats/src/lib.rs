//! # webiq-stats — statistics substrate for WebIQ
//!
//! The verification and classification machinery of the paper, independent
//! of where the numbers come from:
//!
//! - [`types`] — type-recognizing scanners (integer / real / monetary /
//!   date) and the 80 %-majority numeric-domain rule of §2.2;
//! - [`outlier`] — discordancy tests over the §2.2 test statistics
//!   (value; word count, capital count, length, numeric-character share);
//! - [`pmi`](mod@pmi) — pointwise mutual information over hit counts;
//! - [`entropy`] — entropy and information-gain threshold estimation for
//!   the validation-based classifier (§3.2);
//! - [`bayes`] — Laplace-smoothed binary naive Bayes (Formula 1).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod bayes;
pub mod entropy;
pub mod outlier;
pub mod pmi;
pub mod types;

pub use bayes::{NaiveBayes, TrainError};
pub use entropy::{best_threshold, binary_entropy, information_gain};
pub use outlier::{
    remove_outliers, remove_outliers_with, DiscordancyTest, OutlierResult, SIGMA_CUTOFF,
};
pub use pmi::pmi;
pub use types::{domain_type, infer_type, numeric_value, DomainType, ValueType};
