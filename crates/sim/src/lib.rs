//! # kus-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the *killer-usec* workspace (a reproduction of
//! *Taming the Killer Microsecond*, MICRO 2018). Every other crate models its
//! hardware or software component on top of this kernel.
//!
//! - [`time`]: integer-picosecond [`Time`]/[`Span`] newtypes and a cycle
//!   [`Clock`](time::Clock).
//! - [`event`]: the [`Sim`] driver — a hierarchical timing-wheel scheduler
//!   ([`wheel`]) over slab-allocated events ([`slab`]) with batched
//!   same-instant dispatch and deterministic `(time, seq)` ordering.
//! - [`heap_ref`]: the pre-wheel `BinaryHeap` core, retained as the
//!   reference model for differential tests and benchmark baselines.
//! - [`rng`]: seeded, label-splittable random streams.
//! - [`stats`]: counters, occupancy gauges, span histograms, rate helpers.
//! - [`fault`]: deterministic fault injection ([`FaultPlan`] /
//!   [`FaultInjector`]) for chaos experiments.
//! - [`trace`]: zero-cost-when-disabled structured event tracing with a
//!   deterministic content hash, a binary log codec, and a Chrome
//!   `trace_event` exporter.
//!
//! # Examples
//!
//! ```
//! use kus_sim::{Sim, time::Span};
//! use std::{cell::Cell, rc::Rc};
//!
//! let mut sim = Sim::new();
//! let done = Rc::new(Cell::new(false));
//! let d = done.clone();
//! sim.schedule_in(Span::from_us(1), move |_| d.set(true));
//! sim.run();
//! assert!(done.get());
//! assert_eq!(sim.now().as_ns(), 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod heap_ref;
pub mod rng;
mod slab;
pub mod stats;
pub mod time;
pub mod trace;
mod wheel;

pub use event::{RunOutcome, Sim};
pub use fault::{FaultInjector, FaultPlan, FaultStats};
pub use rng::SimRng;
pub use time::{Clock, Span, Time};
pub use trace::{Category, FlowArrow, Phase, TraceClass, TraceEvent, Tracer};
