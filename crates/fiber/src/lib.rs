//! # kus-fiber — the user-level threading library
//!
//! The paper's heavily-optimized GNU-Pth-style threading layer, rebuilt on
//! Rust `async` state machines: fibers cost nothing to represent, switch
//! costs are charged explicitly by the execution layer (20–50 ns in the
//! reproduced system), and scheduling policy is pluggable.
//!
//! - [`fiber`]: the [`Fiber`] wrapper, poll outcomes, and the
//!   cooperative-yield flag.
//! - [`primitives`]: one-shot value futures (how load values reach a fiber)
//!   and [`yield_now`].
//! - [`sched`]: [`RoundRobin`] (prefetch mechanism) and
//!   [`Fifo`] (software-managed queues) policies.
//! - [`watchdog`]: stall detection and doorbell-mode degradation for the
//!   software-managed-queue access path.
//!
//! The executor that binds fibers to a simulated core lives in `kus-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fiber;
pub mod primitives;
pub mod sched;
pub mod watchdog;

pub use fiber::{Fiber, FiberId, PollOutcome, YieldFlag};
pub use primitives::{yield_now, OneShot, OneShotFuture};
pub use sched::{Fifo, RoundRobin, SchedPolicy};
pub use watchdog::{DoorbellMode, Watchdog};
