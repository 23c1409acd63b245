//! # kus-core — *Taming the Killer Microsecond* as a library
//!
//! This crate assembles the reproduction's substrates (`kus-sim`, `kus-mem`,
//! `kus-pcie`, `kus-device`, `kus-cpu`, `kus-fiber`, `kus-swq`) into the
//! system the paper evaluates: a multi-core host with user-level threading
//! accessing a microsecond-latency device through one of three mechanisms
//! (on-demand loads, prefetch + context switch, application-managed software
//! queues), with the paper's record/replay measurement discipline.
//!
//! ## Quick start
//!
//! ```
//! use kus_core::prelude::*;
//!
//! // A tiny pointer-stream workload: each fiber reads its own lines.
//! struct Stream { base: kus_mem::Addr, iters: u64 }
//! impl Workload for Stream {
//!     fn name(&self) -> &'static str { "stream" }
//!     fn build(&mut self, data: &mut Dataset) {
//!         self.base = data.alloc_lines(4096).unwrap();
//!     }
//!     fn spawn(&self, core: usize, fiber: usize, fibers: usize, ctx: MemCtx) -> FiberFuture {
//!         let base = self.base;
//!         let iters = self.iters;
//!         Box::pin(async move {
//!             for i in 0..iters {
//!                 let slot = (core * 1024) as u64 + (fiber as u64) + i * fibers as u64;
//!                 let _ = ctx.dev_read_u64(base + slot * 64).await;
//!                 ctx.work(200);
//!             }
//!         })
//!     }
//! }
//!
//! let cfg = PlatformConfig::paper_default()
//!     .mechanism(Mechanism::Prefetch)
//!     .fibers_per_core(4)
//!     .without_replay_device();
//! let report = Platform::try_new(cfg)
//!     .expect("valid config")
//!     .run(&mut Stream { base: kus_mem::Addr::ZERO, iters: 50 });
//! assert_eq!(report.accesses, 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod config;
pub mod dataset;
pub mod exec;
pub mod experiment;
pub mod mechanism;
pub mod metrics;
pub mod platform;
pub mod workload;

pub use config::{ConfigError, PlatformConfig, SwqRecovery};
pub use dataset::Dataset;
pub use exec::{Executor, MemCtx};
pub use experiment::{Experiment, Runner, WorkloadFactory};
pub use mechanism::Mechanism;
pub use metrics::{DeviceReport, FaultReport, LinkReport, RunReport, TraceReport};
pub use platform::Platform;
pub use workload::{FiberFuture, Workload};
pub use kus_device::JitterModel;
pub use kus_profile::{ProfileContext, ProfileReport, Verdict};

/// Convenient glob-import of the public API.
pub mod prelude {
    pub use crate::config::{ConfigError, PlatformConfig, SwqRecovery};
    pub use crate::dataset::Dataset;
    pub use crate::exec::MemCtx;
    pub use crate::experiment::{Experiment, Runner, WorkloadFactory};
    pub use crate::mechanism::Mechanism;
    pub use crate::metrics::{FaultReport, RunReport, TraceReport};
    pub use crate::platform::Platform;
    pub use crate::workload::{FiberFuture, Workload};
    pub use kus_device::JitterModel;
    pub use kus_mem::{Addr, Backing};
    pub use kus_profile::{ProfileReport, Verdict};
    pub use kus_sim::{FaultPlan, Span, Time};
}
