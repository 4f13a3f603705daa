//! # gb-suite
//!
//! The GenomicsBench-rs suite façade: the twelve kernels behind a common
//! [`kernels::Kernel`] interface, dataset presets, the dynamic-scheduling
//! pool, and the report generators that regenerate every table and figure
//! of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod experiments;
pub mod export;
pub mod kernels;
pub mod paper;
pub mod pipelines;
pub mod pool;
pub mod reports;
pub mod scaling;

pub use dataset::DatasetSize;
pub use kernels::{characterize, prepare, run_parallel, run_serial, Kernel, KernelId};
