//! # kus-mem — the host memory system and dataset substrate
//!
//! Models the parts of the reproduced Xeon host's memory system that the
//! paper's analysis turns on, plus the dataset plumbing applications use:
//!
//! - [`addr`]: dataset addresses, 64-byte cache-line geometry, and the
//!   device-vs-DRAM [`Backing`] switch.
//! - [`store`]: the dataset *contents* (timing and contents are separated).
//! - [`alloc`] / [`layout`]: bump allocation and typed array/bit-array views.
//! - [`cache`]: a set-associative LRU L1 model (prefetch installs lines here).
//! - [`lfb`]: the 10-entry line-fill-buffer pool — the paper's single-core
//!   bottleneck.
//! - [`uncore`]: shared chip-level credit queues — the 14-entry device-path
//!   limit and the ≥48-entry DRAM path.
//! - [`station`]: a generic bounded-concurrency queueing station used for the
//!   host DRAM channel and the device's on-board DRAM.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod alloc;
pub mod cache;
pub mod layout;
pub mod lfb;
pub mod station;
pub mod store;
pub mod uncore;

pub use addr::{Addr, Backing, LineAddr, LINE_BYTES};
pub use alloc::BumpAllocator;
pub use cache::SetAssocCache;
pub use layout::{ArrayLayout, BitArray, U64Array};
pub use lfb::LfbPool;
pub use station::{Station, StationConfig};
pub use store::ByteStore;
pub use uncore::CreditQueue;
