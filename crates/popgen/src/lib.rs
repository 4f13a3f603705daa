//! # gb-popgen
//!
//! Population-genomics kernel of GenomicsBench-rs: the Genomic
//! Relationship Matrix (**grm**) from PLINK2 — dense standardized
//! matrix multiplication, the suite's regular-compute baseline.
//!
//! # Examples
//!
//! ```
//! use gb_datagen::genotypes::GenotypeMatrix;
//! use gb_popgen::grm::{compute_grm_probed, GrmParams};
//! use gb_uarch::probe::NullProbe;
//! let geno = GenotypeMatrix::generate(10, 50, 3);
//! let g = compute_grm_probed(&geno, &GrmParams::default(), &mut NullProbe);
//! assert_eq!(g.shape(), (10, 10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grm;
pub mod kinship;

pub use grm::{compute_grm_probed, naive_grm, standardize, GrmParams};
