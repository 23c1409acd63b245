//! `kus-load`: deterministic traffic generation, request serving, and
//! tail-latency/SLO analytics layered on the kus platform.
//!
//! The paper evaluates batch throughput, but the systems it targets serve
//! *requests*: what decides whether a µs-scale access mechanism is usable
//! in a datacenter is the p99/p999 sojourn time under open-loop load, not
//! the mean. This crate adds the missing serving axis:
//!
//! - [`arrival`] — deterministic open-loop (Poisson, on-off bursts, ramp)
//!   and closed-loop (N users with think time) arrival processes driven by
//!   [`kus_sim::rng::SimRng`] streams: same seed ⇒ same arrival trace.
//! - [`keys`] — stateless seeded key-popularity distributions
//!   ([`KeyPopularity`]): sequential, Zipfian, and hot-set skew, mapping
//!   request ids onto key indices without consuming any RNG stream.
//! - [`service`] — the [`Service`] trait: one request's worth of work
//!   expressed against a fiber's `MemCtx` (per-request adapters for the
//!   existing workload kernels live in `kus-workloads::service`).
//! - [`serving`] — [`ServingWorkload`]: a dispatcher that admits arrivals
//!   into a bounded queue (shedding on overflow), serves them on fibers
//!   across all cores, and stamps every request's arrival → dispatch →
//!   completion through the tracer.
//! - [`report`] — [`LoadReport`]: p50/p90/p99/p999/max percentile tables
//!   (HDR-histogram backed), goodput, shed counts, a queue-depth timeline,
//!   and an [`SloSpec`] verdict, all reconstructed from the deterministic
//!   event trace so the analytics are byte-reproducible across runs and
//!   `--jobs` values.
//! - [`admission`] — pluggable [`AdmissionPolicy`]: the static bounded
//!   queue, a CoDel-style deadline-aware shedder, and an AIMD adaptive
//!   concurrency limiter, selected per run via [`AdmissionControl`].
//! - [`retry`] — client-side [`RetryPolicy`] for closed-loop users:
//!   timeouts, budgeted/exponential-backoff retries, optional hedging.
//! - Recovery analytics: [`TimelineBucket`] timelines, per-fault-window
//!   time-to-recover, and the [`DegradationVerdict`]
//!   (graceful / brownout / collapse / unstable).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod arrival;
pub mod blame;
mod by_id;
pub mod keys;
pub mod net_report;
pub mod report;
pub mod retry;
pub mod service;
pub mod serving;
pub mod tier;

pub use admission::{AdmissionControl, AdmissionDecision, AdmissionPolicy, ShedCause};
pub use arrival::ArrivalProcess;
pub use blame::{flow_arrows, BlameReport, BlameTable, HopBlame};
pub use keys::KeyPopularity;
pub use report::{
    DegradationVerdict, DeviceDistress, LoadReport, RecoveryReport, SloSpec, SloVerdict,
    TimelineBucket, WindowRecovery, BROWNOUT_DEPTH, TIMELINE_BUCKETS,
};
pub use kus_net::{
    DmaNic, NanoNic, NetConfig, NetTimeline, NicModelKind, PacketCosts, PacketTiming,
};
pub use kus_sim::stats::Percentiles;
pub use net_report::{NetReport, HOP_NAMES};
pub use retry::{HedgeWindow, RetryPolicy, HEDGE_HISTORY};
pub use service::{service_factory, EchoService, ServeFuture, Service, ServiceFactory};
pub use serving::{load_experiment, LoadSpec, ServingWorkload};
pub use tier::{TierSpec, TierTopology, MAX_FANOUT};
