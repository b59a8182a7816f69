//! The crate-wide error type of the facade.
//!
//! Before the [`Session`]-facade refactor, errors leaked in three shapes:
//! `SpecError(pub String)` for adversary specs, `Result<_, String>` from
//! `Shard::parse`, and bare `Option`s from `AnalysisKind::parse`. [`Error`]
//! unifies them into one typed enum with [`Display`](std::fmt::Display)
//! and [`source`](std::error::Error::source) implementations, so callers
//! can match on the failure class instead of parsing messages.
//!
//! [`Session`]: https://docs.rs/consensus-lab

use std::fmt;
use std::io;

use adversary::enumerate::BudgetExceeded;

/// A structurally invalid adversary specification.
///
/// ```
/// use consensus_core::error::{Error, SpecError};
///
/// let err = Error::Spec(SpecError::UnknownCatalog { name: "nope".into() });
/// assert_eq!(err.to_string(), "bad adversary spec: unknown catalog entry \"nope\"");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecError {
    /// The named entry is not in [`adversary::catalog::entries`].
    UnknownCatalog {
        /// The unknown name.
        name: String,
    },
    /// A 2-process graph token did not parse.
    BadGraph {
        /// The offending token.
        token: String,
        /// The parser's complaint.
        reason: String,
    },
    /// A pool spec contained no graphs.
    EmptyPool,
    /// A spec string failed to parse ([`adversary::spec::SpecTerm::parse`]).
    Parse {
        /// Byte offset of the failure in the spec string.
        offset: usize,
        /// What the parser expected there.
        expected: String,
    },
    /// A spec term parsed but lowers to no valid adversary (empty pool,
    /// mismatched process counts, unreachable liveness, …).
    Invalid {
        /// What is wrong with the term.
        reason: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownCatalog { name } => write!(f, "unknown catalog entry {name:?}"),
            SpecError::BadGraph { token, reason } => {
                write!(f, "unparsable 2-process graph token {token:?}: {reason}")
            }
            SpecError::EmptyPool => f.write_str("empty pool"),
            SpecError::Parse { offset, expected } => {
                write!(f, "parse error at byte {offset}: expected {expected}")
            }
            SpecError::Invalid { reason } => f.write_str(reason),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<adversary::spec::TermError> for SpecError {
    fn from(err: adversary::spec::TermError) -> Self {
        use adversary::spec::TermError;
        match err {
            TermError::Parse { offset, expected } => SpecError::Parse { offset, expected },
            TermError::UnknownCatalog { name } => SpecError::UnknownCatalog { name },
            TermError::Invalid { reason } => SpecError::Invalid { reason },
            // `TermError` is non_exhaustive; future variants surface as
            // their rendered message rather than a crash.
            other => SpecError::Invalid { reason: other.to_string() },
        }
    }
}

impl From<adversary::spec::TermError> for Error {
    fn from(err: adversary::spec::TermError) -> Self {
        Error::Spec(SpecError::from(err))
    }
}

/// The unified error of the `Session`/`Query` facade; see the module docs.
///
/// ```
/// use consensus_core::{Error, ExpandConfig, PrefixSpace};
/// use adversary::GeneralMA;
/// use dyngraph::generators;
///
/// fn expand() -> Result<PrefixSpace, Error> {
///     let ma = GeneralMA::oblivious(generators::lossy_link_full());
///     Ok(PrefixSpace::expand(&ma, &[0, 1], 5, &ExpandConfig::with_budget(10))?)
/// }
/// match expand().unwrap_err() {
///     Error::Budget(b) => assert_eq!(b.max_runs, 10),
///     other => panic!("expected a budget error, got {other}"),
/// }
/// ```
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// An adversary spec that names nothing buildable.
    Spec(SpecError),
    /// A prefix-space expansion (or exhaustive check) exceeded its run
    /// budget.
    Budget(BudgetExceeded),
    /// A filesystem operation of the persistence layer failed.
    Io {
        /// What was being attempted (e.g. `"opening cache dir \"x\""`).
        context: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// Persisted or resumed state is incompatible with the current run
    /// (e.g. a results file whose grid the current flags cannot re-create).
    CacheConflict {
        /// Why the cached state cannot be used.
        reason: String,
    },
    /// An analysis name outside the valid set.
    UnknownAnalysis {
        /// The unknown name.
        name: String,
        /// The valid machine names.
        valid: &'static [&'static str],
    },
    /// A malformed `i/n` shard spec.
    BadShard {
        /// The offending spec string.
        spec: String,
        /// What was wrong with it.
        reason: String,
    },
}

impl Error {
    /// Construct an [`Error::Io`] with context.
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        Error::Io { context: context.into(), source }
    }

    /// A stable machine-readable class name, used as the `kind` field of
    /// structured error payloads (the `consensus-serve` HTTP API).
    pub fn kind(&self) -> &'static str {
        match self {
            Error::Spec(_) => "spec",
            Error::Budget(_) => "budget",
            Error::Io { .. } => "io",
            Error::CacheConflict { .. } => "cache-conflict",
            Error::UnknownAnalysis { .. } => "unknown-analysis",
            Error::BadShard { .. } => "bad-shard",
        }
    }

    /// The HTTP status code this failure class maps to: `4xx` when the
    /// request itself is at fault (bad spec, unknown analysis, malformed
    /// shard), `409` when it conflicts with persisted state, `422` when
    /// the request is well-formed but exceeds the configured work budget,
    /// and `500` for engine-side I/O failures.
    pub fn status_code(&self) -> u16 {
        match self {
            Error::Spec(_) | Error::UnknownAnalysis { .. } | Error::BadShard { .. } => 400,
            Error::CacheConflict { .. } => 409,
            Error::Budget(_) => 422,
            Error::Io { .. } => 500,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Spec(spec) => write!(f, "bad adversary spec: {spec}"),
            Error::Budget(budget) => budget.fmt(f),
            Error::Io { context, source } => write!(f, "{context}: {source}"),
            Error::CacheConflict { reason } => write!(f, "cache conflict: {reason}"),
            Error::UnknownAnalysis { name, valid } => {
                write!(f, "unknown analysis {name:?} (expected one of: {})", valid.join(", "))
            }
            Error::BadShard { reason, .. } => f.write_str(reason),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Spec(spec) => Some(spec),
            Error::Budget(budget) => Some(budget),
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<BudgetExceeded> for Error {
    fn from(err: BudgetExceeded) -> Self {
        Error::Budget(err)
    }
}

impl From<SpecError> for Error {
    fn from(err: SpecError) -> Self {
        Error::Spec(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_messages_are_stable() {
        // The spec messages are load-bearing: sweep error records embed
        // them, so they must match the legacy `SpecError(String)` output.
        let unknown = Error::from(SpecError::UnknownCatalog { name: "missing".into() });
        assert_eq!(unknown.to_string(), "bad adversary spec: unknown catalog entry \"missing\"");
        let graph = Error::from(SpecError::BadGraph { token: "zz".into(), reason: "nope".into() });
        assert_eq!(
            graph.to_string(),
            "bad adversary spec: unparsable 2-process graph token \"zz\": nope"
        );
        assert_eq!(Error::from(SpecError::EmptyPool).to_string(), "bad adversary spec: empty pool");
        let parse = Error::from(SpecError::Parse { offset: 7, expected: "`)`".into() });
        assert_eq!(parse.to_string(), "bad adversary spec: parse error at byte 7: expected `)`");
        let invalid = Error::from(SpecError::Invalid { reason: "union needs a member".into() });
        assert_eq!(invalid.to_string(), "bad adversary spec: union needs a member");
        let shard = Error::BadShard { spec: "3/2".into(), reason: "index out of range".into() };
        assert_eq!(shard.to_string(), "index out of range");
        let analysis = Error::UnknownAnalysis { name: "nope".into(), valid: &["a", "b"] };
        assert_eq!(analysis.to_string(), "unknown analysis \"nope\" (expected one of: a, b)");
    }

    #[test]
    fn term_errors_convert_losslessly() {
        use adversary::spec::TermError;
        // The conversions carry the structured payload through, so the
        // serve layer can keep mapping every spec failure to a 400 whose
        // message locates the problem.
        let err = Error::from(TermError::Parse { offset: 3, expected: "a graph".into() });
        assert_eq!(err.kind(), "spec");
        assert_eq!(err.status_code(), 400);
        assert_eq!(err.to_string(), "bad adversary spec: parse error at byte 3: expected a graph");
        let err = Error::from(TermError::UnknownCatalog { name: "ghost".into() });
        assert_eq!(err.to_string(), "bad adversary spec: unknown catalog entry \"ghost\"");
        let err = Error::from(TermError::Invalid { reason: "empty pool".into() });
        assert_eq!(err.to_string(), "bad adversary spec: empty pool");
    }

    #[test]
    fn kinds_and_status_codes_are_stable() {
        // The HTTP layer serializes these into responses; they are part of
        // the service contract, not free to drift.
        let cases: [(Error, &str, u16); 6] = [
            (Error::from(SpecError::EmptyPool), "spec", 400),
            (Error::UnknownAnalysis { name: "x".into(), valid: &["a"] }, "unknown-analysis", 400),
            (Error::BadShard { spec: "x".into(), reason: "r".into() }, "bad-shard", 400),
            (Error::CacheConflict { reason: "r".into() }, "cache-conflict", 409),
            (Error::Budget(BudgetExceeded { max_runs: 1, needed: 2 }), "budget", 422),
            (Error::io("ctx", io::Error::other("x")), "io", 500),
        ];
        for (err, kind, status) in cases {
            assert_eq!(err.kind(), kind, "{err}");
            assert_eq!(err.status_code(), status, "{err}");
        }
    }

    #[test]
    fn sources_chain() {
        let budget = BudgetExceeded { max_runs: 10, needed: 99 };
        let err = Error::from(budget.clone());
        assert_eq!(err.source().unwrap().to_string(), budget.to_string());
        assert!(matches!(err, Error::Budget(b) if b == budget));

        let io = Error::io("opening x", io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(io.source().is_some());
        assert_eq!(io.to_string(), "opening x: gone");
    }
}
