//! Error type for the observability layer.
//!
//! Everything fallible in `webiq-obs` — reading a trace, parsing a
//! profile baseline, binding the metrics listener — reports an
//! [`ObsError`]. The variants carry enough context (path, line number)
//! to print an actionable one-line message; `Display` output is pinned
//! by tests because the `webiq-report` CLI surfaces it verbatim.

use std::fmt;

/// Anything that can go wrong in the observability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsError {
    /// Reading or writing a file failed.
    Io {
        /// The offending path (`-` for stdin).
        path: String,
        /// The underlying I/O error, stringified.
        detail: String,
    },
    /// A trace file contained a line that is not a valid trace event.
    MalformedTrace {
        /// The offending path (`-` for stdin).
        path: String,
        /// 1-based line number of the first malformed line.
        line: usize,
    },
    /// Binding the metrics listener failed.
    Bind {
        /// The requested address.
        addr: String,
        /// The underlying error, stringified.
        detail: String,
    },
    /// A profile baseline file could not be parsed.
    Profile {
        /// The offending path (`-` for stdin).
        path: String,
        /// What was wrong with it.
        detail: String,
    },
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::Io { path, detail } => write!(f, "cannot read {path}: {detail}"),
            ObsError::MalformedTrace { path, line } => {
                write!(f, "{path}:{line}: not a valid trace event")
            }
            ObsError::Bind { addr, detail } => {
                write!(f, "cannot bind metrics listener on {addr}: {detail}")
            }
            ObsError::Profile { path, detail } => {
                write!(f, "cannot parse profile baseline {path}: {detail}")
            }
        }
    }
}

impl std::error::Error for ObsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_pinned() {
        let e = ObsError::MalformedTrace {
            path: "run.jsonl".into(),
            line: 7,
        };
        assert_eq!(e.to_string(), "run.jsonl:7: not a valid trace event");
        let e = ObsError::Io {
            path: "-".into(),
            detail: "broken pipe".into(),
        };
        assert_eq!(e.to_string(), "cannot read -: broken pipe");
        let e = ObsError::Bind {
            addr: "127.0.0.1:9".into(),
            detail: "permission denied".into(),
        };
        assert_eq!(
            e.to_string(),
            "cannot bind metrics listener on 127.0.0.1:9: permission denied"
        );
        let e = ObsError::Profile {
            path: "PROF_BASELINE.json".into(),
            detail: "missing `sweep` array".into(),
        };
        assert_eq!(
            e.to_string(),
            "cannot parse profile baseline PROF_BASELINE.json: missing `sweep` array"
        );
    }
}
