//! The suite-wide error type.

/// Errors produced by GenomicsBench-rs crates.
///
/// # Examples
///
/// ```
/// use gb_core::seq::DnaSeq;
/// let err = "ACQT".parse::<DnaSeq>().unwrap_err();
/// assert!(err.to_string().contains("invalid base"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A byte that is not a valid `ACGT` nucleotide or 2-bit code.
    InvalidBase {
        /// Offset of the offending byte within its sequence.
        pos: usize,
        /// The offending byte value.
        byte: u8,
    },
    /// A CIGAR string failed to parse.
    InvalidCigar {
        /// Human-readable description of what went wrong.
        reason: String,
    },
    /// A record (FASTA/FASTQ-like) failed to parse.
    InvalidRecord {
        /// Human-readable description of what went wrong.
        reason: String,
    },
    /// An argument was outside its documented domain.
    InvalidArgument {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// Two inputs that must agree in shape (e.g. sequence and quality
    /// string) did not.
    LengthMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidBase { pos, byte } => {
                write!(f, "invalid base {:?} at position {pos}", *byte as char)
            }
            Error::InvalidCigar { reason } => write!(f, "invalid CIGAR: {reason}"),
            Error::InvalidRecord { reason } => write!(f, "invalid record: {reason}"),
            Error::InvalidArgument { reason } => write!(f, "invalid argument: {reason}"),
            Error::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = Error::InvalidBase { pos: 2, byte: b'N' };
        assert_eq!(e.to_string(), "invalid base 'N' at position 2");
        let e = Error::LengthMismatch {
            expected: 4,
            actual: 3,
        };
        assert!(e.to_string().contains("expected 4"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<Error>();
    }
}
