//! # kus-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the *killer-usec* workspace (a reproduction of
//! *Taming the Killer Microsecond*, MICRO 2018). Every other crate models its
//! hardware or software component on top of this kernel.
//!
//! - [`time`]: integer-picosecond [`Time`]/[`Span`] newtypes and a cycle
//!   [`Clock`].
//! - [`event`]: the [`Sim`] driver — a hierarchical timing-wheel scheduler
//!   (`wheel`) over slab-allocated events (`slab`) with batched
//!   same-instant dispatch and deterministic `(time, seq)` ordering.
//! - [`heap_ref`]: the pre-wheel `BinaryHeap` core, retained as the
//!   reference model for differential tests and benchmark baselines.
//! - [`rng`]: seeded, label-splittable random streams.
//! - [`stats`]: counters, occupancy gauges, the HDR span histogram and its
//!   percentile summary, the p99 index, rate helpers.
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
pub use trace::{Category, EventName, FlowArrow, Phase, TraceClass, TraceEvent, TraceLog, Tracer};

/// The FNV-1a-64 offset basis: the hash of no bytes, where every fold
/// starts.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a-64 prime each folded byte multiplies by.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a-64 `hash` (start from [`FNV_OFFSET`]).
/// Stable across platforms and Rust versions, unlike `DefaultHasher`: the
/// trace hash, the RNG stream labels, the experiment and scenario
/// fingerprints and RSS steering are all this fold. Inlined because the
/// trace hash folds every event and RSS steering runs once per packet.
#[inline]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The golden-ratio increment of the splitmix64 generator.
const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: a bijective avalanche mix of `z`. Inlined
/// because keys, Bloom probes and device jitter are drawn per request.
#[inline]
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// splitmix64 of `z`: [`splitmix64_mix`] of `z + 0x9e37_79b9_7f4a_7c15`,
/// the output of the splitmix64 generator one step after state `z`. The
/// stateless hash behind every seeded stream, request key, Bloom probe
/// and jitter sample.
///
/// # Examples
///
/// ```
/// // The first output of splitmix64 seeded with 0.
/// assert_eq!(kus_sim::splitmix64(0), 0xe220_a839_7b1d_cdaf);
/// ```
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    splitmix64_mix(z.wrapping_add(SPLITMIX64_GAMMA))
}

/// `s` as the body of a JSON string: `"` and `\` get a backslash, `\n`,
/// `\r` and `\t` their short escapes, and other control characters a
/// `\u00XX` escape. Every JSON emitter's string fields pass through it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
