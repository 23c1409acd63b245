//! # kus-swq — the application-managed software-queue interface
//!
//! The paper's "best software-managed queue design for microsecond-latency
//! devices": per-core in-memory descriptor rings with a doorbell-request
//! flag (doorbells only when the device's fetcher has parked) and burst
//! descriptor reads of eight.
//!
//! - [`descriptor`]: request/completion descriptor formats and sizes.
//! - [`ring`]: the per-core [`QueuePair`] and the doorbell
//!   protocol.
//! - [`cost`]: the host-side software costs the mechanism pays per access.
//!
//! The device-side consumer of these rings (the request fetcher) lives in
//! `kus-device`; the host-side user (the FIFO scheduler's `dev_access`
//! implementation) lives in `kus-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod descriptor;
pub mod ring;

pub use cost::SwqCosts;
pub use descriptor::{Completion, Descriptor, COMPLETION_BYTES, DESCRIPTOR_BYTES, FETCH_BURST};
pub use ring::{QueuePair, RingFull};
