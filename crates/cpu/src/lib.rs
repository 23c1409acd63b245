//! # kus-cpu — the out-of-order core model
//!
//! An event-driven model of the reproduced Xeon core with exactly the
//! structural limits the paper's analysis depends on: a finite reorder
//! buffer with in-order dispatch/retirement, dataflow issue, a bounded
//! line-fill-buffer pool, and a shared chip-level credit on the path to the
//! dataset's backing store.
//!
//! - [`ops`]: the micro-op vocabulary (work chunks, loads, prefetches,
//!   runtime software, MMIO writes).
//! - [`core`]: the pipeline itself and its [`FillPath`]
//!   injection point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod ops;

pub use crate::core::{Core, CoreConfig, FillPath};
pub use ops::{work_chunks, Op, OpId, OpKind};
