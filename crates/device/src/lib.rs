//! # kus-device — the microsecond-latency device emulator
//!
//! A faithful model of the paper's FPGA-based storage emulator (Fig. 1):
//!
//! - [`trace`]: per-core access recording — experiments run twice (record,
//!   then measured replay), exactly as on the real platform.
//! - [`replay`]: sliding-window, age-ordered associative request matching
//!   tolerant of cache-hit skips, reordering, and spurious wrong-path loads.
//! - [`streamer`]: bulk-streams the recorded sequence from on-board DRAM
//!   ahead of host requests, so slow DDR3 never limits response timing.
//! - [`ondemand`]: the fallback channel that answers spurious requests with
//!   correct data.
//! - [`core`]: the shared datapath (match → data → hold → release) with the
//!   configurable response delay.
//! - [`mmio`]: the cacheable-BAR interface used by the on-demand and
//!   prefetch mechanisms.
//! - [`fetcher`]: the per-core request fetchers used by the software-managed
//!   queue interface (burst descriptor reads, doorbell-request flag).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod fetcher;
pub mod mmio;
pub mod ondemand;
pub mod replay;
pub mod streamer;
pub mod trace;

pub use crate::core::{DeviceConfig, DeviceCore, JitterModel, LineData};
pub use fetcher::{CompletionHook, RequestFetcher};
pub use mmio::MmioDevice;
pub use replay::{MatchOutcome, ReplayConfig, ReplayModule};
pub use streamer::{ReplayStreamer, StreamerConfig};
pub use trace::{AccessTrace, CoreTrace};
