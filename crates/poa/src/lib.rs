//! # gb-poa
//!
//! Partial-order alignment — the **spoa** kernel of GenomicsBench-rs.
//!
//! Racon polishes a draft assembly by splitting it into windows, building
//! a partial-order graph per window from the reads aligned there, and
//! emitting the heaviest-bundle consensus. This crate implements the full
//! pipeline from scratch: the graph ([`graph`]), sequence-to-graph
//! alignment and merging ([`align`]), its i16 row-sweep SIMD engine on
//! the `gb_dp::lockstep` ladder ([`align_simd`]), and consensus
//! extraction plus the windowed driver ([`consensus`]). Engine selection
//! (scalar vs SIMD, bit-identical) follows [`gb_dp::DpEngine`].
//!
//! # Examples
//!
//! ```
//! use gb_core::seq::DnaSeq;
//! use gb_poa::{align::PoaParams, consensus::window_consensus};
//! let a: DnaSeq = "ACGGTTACA".parse()?;
//! let b: DnaSeq = "ACGGTTACA".parse()?;
//! let (cons, stats) = window_consensus(&[a, b.clone()], &PoaParams::default());
//! assert_eq!(cons, b);
//! assert_eq!(stats.reads, 2);
//! # Ok::<(), gb_core::error::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod align_simd;
pub mod consensus;
pub mod graph;

pub use align::{add_read_weighted, add_sequence, align_to_graph, PoaParams};
pub use align_simd::{add_sequence_engine, align_to_graph_simd};
pub use consensus::{consensus, window_consensus, window_consensus_engine, WindowStats};
pub use graph::PoaGraph;
