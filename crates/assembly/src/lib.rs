//! # gb-assembly
//!
//! The assembly kernels of GenomicsBench-rs:
//!
//! - [`kmer_table`] — the open-addressing hash table substrate (linear and
//!   robin-hood probing),
//! - [`dbg`] — Platypus/GATK-style De-Bruijn graph re-assembly of
//!   variant-calling regions (the **dbg** kernel),
//! - [`kmer_count`] — Flye-style canonical k-mer counting (the
//!   **kmer-cnt** kernel): batched, with the table touched ahead of the
//!   updates as the paper suggests, and the one-at-a-time path the paper
//!   characterises,
//! - [`unitigs`] — reference-free unitig assembly over the k-mer graph
//!   (the de-novo counterpart of the dbg kernel).
//!
//! # Examples
//!
//! ```
//! use gb_assembly::kmer_count::{count_kmers, KmerCountParams};
//! use gb_core::seq::DnaSeq;
//! let read: DnaSeq = "ACGGTTACAGGATCCAGTT".parse()?;
//! let (table, stats) = count_kmers(&[read], &KmerCountParams { k: 11, ..Default::default() });
//! assert_eq!(stats.kmers_processed, 9);
//! assert!(table.len() > 0);
//! # Ok::<(), gb_core::error::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dbg;
pub mod kmer_count;
pub mod kmer_table;
pub mod unitigs;

pub use dbg::{assemble_region, DbgParams, DbgResult};
pub use kmer_count::{count_kmers, KmerCountParams, KmerCountStats};
pub use kmer_table::{KmerTable, Probing};
