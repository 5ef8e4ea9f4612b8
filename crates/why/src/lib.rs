//! # webiq-why — decision provenance and evidence lineage
//!
//! WebIQ's output is a chain of probabilistic judgments: PMI-scored
//! instance extraction, validation-Bayes acceptance, borrowed-instance
//! verification by form probing, and label/domain-similarity cluster
//! merges. The trace/obs/prof stack says how *fast* and how *often*
//! those judgments ran; this crate records *why* each one went the way
//! it did.
//!
//! - [`record`] names the decision families and wraps
//!   [`webiq_trace::decision`] so every pipeline crate emits evidence
//!   records — name→value terms like the Bayes posterior or a probe
//!   success ratio — through the existing merge-time logical clock.
//!   Decision lines therefore share the trace's byte-identity guarantee
//!   across worker counts and reruns.
//! - [`provenance`] rebuilds the evidence-chain tree from a parsed
//!   trace: every decision anchored to its enclosing span, its owning
//!   attribute resolved, and the fault/degradation counters that were
//!   in play alongside it. `webiq-report explain <query>` renders it.
//! - [`diff`] is the decision-level regression gate behind
//!   `webiq-report diff --decisions`: it keys every decision by
//!   (kind, attribute, subject), flags *flipped* verdicts between two
//!   runs, and names the largest evidence delta that moved each flip.
//!
//! The crate is dependency-free (webiq-trace only) and panic-free.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::string_slice
)]

pub mod diff;
pub mod provenance;
pub mod record;

pub use diff::{diff_decisions, DecisionDiff, DecisionKey, Drift, Flip, TermDelta};
pub use provenance::{DecisionRecord, Provenance, SpanNode};
