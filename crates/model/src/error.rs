//! Error type for model construction and validation.

use std::error::Error;
use std::fmt;

/// Errors produced while building or validating an [`Instance`](crate::Instance).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// The representation ladder is malformed (empty, duplicate names,
    /// or non-increasing bitrates).
    InvalidLadder(String),
    /// A matrix was created with the wrong number of elements.
    DimensionMismatch {
        /// Expected element count (`rows × cols`).
        expected: usize,
        /// Actual element count supplied.
        actual: usize,
    },
    /// Delay matrices are malformed (negative entries, non-square `D`,
    /// non-zero diagonal, or inconsistent agent counts).
    InvalidDelays(String),
    /// An entity references an id that does not exist in the instance.
    UnknownId(String),
    /// Instance-level consistency violation (empty session, user/session
    /// mapping mismatch, non-positive `Dmax`, ...).
    Inconsistent(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidLadder(msg) => write!(f, "invalid representation ladder: {msg}"),
            ModelError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "matrix dimension mismatch: expected {expected} elements, got {actual}"
                )
            }
            ModelError::InvalidDelays(msg) => write!(f, "invalid delay matrices: {msg}"),
            ModelError::UnknownId(msg) => write!(f, "unknown identifier: {msg}"),
            ModelError::Inconsistent(msg) => write!(f, "inconsistent instance: {msg}"),
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = ModelError::InvalidLadder("x".into());
        assert!(e.to_string().starts_with("invalid representation ladder"));
        let e = ModelError::DimensionMismatch {
            expected: 4,
            actual: 3,
        };
        assert!(e.to_string().contains("expected 4"));
        assert!(e.to_string().contains("got 3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}
