//! The unified error type of the WebIQ pipeline.
//!
//! Fallible entry points across the workspace funnel into [`WebIqError`]:
//! the Deep-Web simulator's [`DeepError`] converts via `From`, and the
//! acquisition/pipeline layers contribute their own variants. Library code returns
//! `Result<_, WebIqError>` instead of panicking; clippy's panic lints,
//! set in each library root, enforce the absence of
//! `unwrap`/`expect`/`panic!` in non-test code.

use std::fmt;

use webiq_deep::DeepError;
use webiq_obs::ObsError;
use webiq_store::StoreError;

/// Any failure the WebIQ pipeline can report instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WebIqError {
    /// A Deep-Web source rejected a submission.
    Deep(DeepError),
    /// The requested domain is not in the knowledge base.
    UnknownDomain {
        /// The domain name as requested.
        name: String,
    },
    /// An attribute reference pointed outside the dataset — an internal
    /// inconsistency between candidate lists and the interfaces they were
    /// drawn from.
    MissingAttribute {
        /// Interface index of the dangling reference.
        interface: usize,
        /// Attribute index within that interface.
        attribute: usize,
    },
    /// A parallel worker terminated abnormally.
    WorkerFailed {
        /// Which stage's pool lost the worker.
        stage: &'static str,
    },
    /// The observability layer failed (trace parsing, threshold config,
    /// or the metrics endpoint).
    Obs(ObsError),
    /// A persistent-store IO operation failed. The wrapped
    /// [`StoreError`] carries the file path, the operation, and the
    /// rendered `std::io::Error` (or injected-fault name), so a failed
    /// append or snapshot is attributable from the error alone.
    Io(StoreError),
}

impl fmt::Display for WebIqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WebIqError::Deep(e) => write!(f, "deep web: {e}"),
            WebIqError::UnknownDomain { name } => {
                write!(f, "unknown domain '{name}'")
            }
            WebIqError::MissingAttribute {
                interface,
                attribute,
            } => {
                write!(
                    f,
                    "attribute ({interface}, {attribute}) is not part of the dataset"
                )
            }
            WebIqError::WorkerFailed { stage } => {
                write!(f, "a parallel {stage} worker terminated abnormally")
            }
            WebIqError::Obs(e) => write!(f, "observability: {e}"),
            WebIqError::Io(e) => write!(f, "persistence: {e}"),
        }
    }
}

impl std::error::Error for WebIqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WebIqError::Deep(e) => Some(e),
            WebIqError::Obs(e) => Some(e),
            WebIqError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeepError> for WebIqError {
    fn from(e: DeepError) -> Self {
        WebIqError::Deep(e)
    }
}

impl From<ObsError> for WebIqError {
    fn from(e: ObsError) -> Self {
        WebIqError::Obs(e)
    }
}

impl From<StoreError> for WebIqError {
    fn from(e: StoreError) -> Self {
        WebIqError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        assert_eq!(
            WebIqError::UnknownDomain {
                name: "realty".into()
            }
            .to_string(),
            "unknown domain 'realty'"
        );
        assert_eq!(
            WebIqError::MissingAttribute {
                interface: 2,
                attribute: 5
            }
            .to_string(),
            "attribute (2, 5) is not part of the dataset"
        );
        assert_eq!(
            WebIqError::WorkerFailed {
                stage: "acquisition"
            }
            .to_string(),
            "a parallel acquisition worker terminated abnormally"
        );
    }

    #[test]
    fn wraps_component_errors() {
        let e: WebIqError = DeepError::ServerError.into();
        assert_eq!(
            e.to_string(),
            "deep web: the source answered with a server error"
        );

        let e: WebIqError = ObsError::MalformedTrace {
            path: "run.jsonl".into(),
            line: 3,
        }
        .into();
        assert_eq!(
            e.to_string(),
            "observability: run.jsonl:3: not a valid trace event"
        );
        assert!(std::error::Error::source(&e).is_some());

        let e: WebIqError = StoreError {
            path: "/tmp/s/wal.log".into(),
            op: "append",
            detail: "injected fault: torn_write".into(),
        }
        .into();
        assert_eq!(
            e.to_string(),
            "persistence: store append on /tmp/s/wal.log: injected fault: torn_write"
        );
        assert!(std::error::Error::source(&e).is_some());
    }
}
