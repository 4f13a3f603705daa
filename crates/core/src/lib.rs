//! # gb-core
//!
//! Shared genomics types for **GenomicsBench-rs**, a from-scratch Rust
//! reproduction of the GenomicsBench benchmark suite (ISPASS 2021).
//!
//! This crate defines the vocabulary every kernel speaks:
//!
//! - [`alphabet`]: the `ACGT` alphabet and its 2-bit codes,
//! - [`seq`]: byte-per-base sequences and packed k-mers,
//! - [`packed`]: 2-bit packed storage for large references,
//! - [`quality`]: Phred base qualities,
//! - [`cigar`] / [`record`]: alignments (the SAM/BAM analogue),
//! - [`io`]: FASTA/FASTQ text I/O,
//! - [`region`]: genome-region tasks (the unit of task parallelism),
//! - [`rng`]: the seeded generator every synthetic dataset is drawn from,
//! - [`matrix`]: a small dense matrix for the GRM and NN kernels,
//! - [`error`]: the suite-wide error type.
//!
//! # Examples
//!
//! ```
//! use gb_core::seq::DnaSeq;
//! let read: DnaSeq = "ACGTACGT".parse()?;
//! let rc = read.reverse_complement();
//! assert_eq!(rc.len(), read.len());
//! # Ok::<(), gb_core::error::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alphabet;
pub mod cigar;
pub mod error;
pub mod io;
pub mod matrix;
pub mod packed;
pub mod quality;
pub mod record;
pub mod region;
pub mod rng;
pub mod seq;

pub use alphabet::Base;
pub use error::Error;
pub use seq::DnaSeq;
