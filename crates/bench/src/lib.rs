//! # webiq-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6) over
//! the simulated substrates, plus the ablations DESIGN.md calls out. The
//! [`experiments`] functions return plain data; the `experiments` binary
//! renders them as text, or as JSON through the workspace codec
//! (`webiq::trace::json`, re-exported with the row trait in [`json`]),
//! and the bench targets time the underlying pipelines with the
//! dependency-free [`timing`] harness.
#![forbid(unsafe_code)]

pub mod chaos;
pub mod experiments;
pub mod json;
pub mod monitor;
pub mod profile;
pub mod render;
pub mod store;
pub mod timing;
