//! # webiq-core — the WebIQ system (ICDE 2006)
//!
//! WebIQ learns from both the Surface Web and the Deep Web to
//! automatically discover instances for the attributes of Deep-Web query
//! interfaces, lifting the accuracy of interface matching:
//!
//! - [`surface`] — the Surface component (§2): label syntax analysis,
//!   Hearst-style extraction queries ([`patterns`], [`extract`]), and
//!   two-phase verification — statistical outlier removal followed by
//!   PMI-scored Web validation ([`verify`]);
//! - [`attr_surface`] — Attr-Surface (§3): borrow instances from other
//!   attributes and verify them with a validation-based naive Bayes
//!   classifier trained fully automatically;
//! - [`attr_deep`] — Attr-Deep (§4): verify borrowed instances by probing
//!   the attribute's own Deep-Web source and analysing the response page;
//! - [`acquire`] — the §5 strategy combining all three over a domain's
//!   interfaces, with per-component cost accounting for the overhead
//!   analysis;
//! - [`config`] — tunables (k = 10, the one-third probe rule, ablation
//!   switches for the outlier phase, PMI, info-gain thresholds, and the
//!   borrow pre-filters);
//! - [`resilience`] — deterministic fault handling around the engine and
//!   source boundaries: retry with virtual-time backoff, circuit
//!   breaking, and quota-aware graceful degradation (DESIGN.md §13).
//!
//! ## Quickstart
//!
//! ```
//! use webiq_core::{acquire, Components, WebIQConfig};
//! use webiq_data::records::{build_deep_source, RecordOptions};
//! use webiq_data::{corpus, generate_domain, kb, GenOptions};
//! use webiq_web::{gen, GenConfig, SearchEngine};
//!
//! let def = kb::domain("book").expect("domain");
//! let ds = generate_domain(def, &GenOptions::default());
//! let web = SearchEngine::new(gen::generate(
//!     &corpus::concept_specs(def),
//!     &GenConfig::default(),
//! ));
//! let sources: Vec<_> = ds
//!     .interfaces
//!     .iter()
//!     .map(|i| build_deep_source(def, i, &RecordOptions::default()))
//!     .collect();
//! let acq = acquire::acquire(
//!     &ds, def, &web, &sources, Components::ALL, &WebIQConfig::default(),
//! )
//! .expect("acquisition succeeds");
//! assert!(acq.report.no_inst_attrs > 0);
//! ```
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod acquire;
pub mod attr_deep;
pub mod attr_surface;
pub mod config;
pub mod error;
pub mod extract;
pub mod patterns;
pub mod persist;
pub mod resilience;
pub mod surface;
pub mod verify;

pub use acquire::{Acquisition, AcquisitionReport, ComponentCost};
pub use config::{Components, WebIQConfig};
pub use error::WebIqError;
pub use extract::DomainInfo;
pub use resilience::{Resilience, ResilientEngine, ResilientSource};
pub use surface::SurfaceResult;
