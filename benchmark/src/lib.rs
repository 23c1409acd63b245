//! # kusbench — the simulator's host-cost benchmark
//!
//! Measures what running the simulator costs on the host: wall time per
//! pass, simulated events per host second, peak resident memory and
//! set-up time, on four workloads (see [`workload`]). It never changes
//! what the model computes, but it checks it: every pass's outputs are
//! digested and compared with committed digests, and serving runs must
//! keep their invariants.
//!
//! A run is closed-loop: one simulation run at a time on one thread, the
//! next starting when the previous returns, each workload in fresh child
//! processes. See `README.md` next to this crate for the command line,
//! the metrics and the baseline.

#![forbid(unsafe_code)]

pub mod json;
pub mod measure;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;
