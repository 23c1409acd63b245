//! Run reports and the paper's normalized-work-IPC metric.
//!
//! The paper reports microbenchmark results as **normalized work IPC**: the
//! average number of work-loop instructions retired per cycle, divided by
//! the same quantity for the single-threaded on-demand DRAM baseline.
//! Applications report **normalized performance** (inverse runtime ratio),
//! which for fixed-iteration workloads is the same ratio.

use kus_mem::Backing;
use kus_sim::stats::SpanHistogram;
use kus_sim::trace::Category;
use kus_sim::{Clock, OccupancyTimeline, Span, Time, TraceEvent};

use crate::mechanism::Mechanism;

/// Device-side statistics from the replay phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceReport {
    /// Responses released.
    pub responses: u64,
    /// Requests matched by replay modules.
    pub replayed: u64,
    /// Requests served by the on-demand module (spurious or replay misses).
    pub ondemand: u64,
    /// Responses that blew their deadline (device internals too slow).
    pub deadline_misses: u64,
    /// Replay matches that were out of order.
    pub out_of_order: u64,
}

/// PCIe link statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkReport {
    /// Device→host wire bytes (headers + payload).
    pub up_wire_bytes: u64,
    /// Device→host payload bytes ("useful data").
    pub up_payload_bytes: u64,
    /// Host→device wire bytes.
    pub down_wire_bytes: u64,
    /// Host→device payload bytes.
    pub down_payload_bytes: u64,
}

impl LinkReport {
    /// Device→host wire bandwidth over `elapsed`, in bytes/second.
    pub fn up_wire_bw(&self, elapsed: Span) -> f64 {
        kus_sim::stats::bytes_per_sec(self.up_wire_bytes, elapsed)
    }

    /// Device→host useful-payload bandwidth over `elapsed`, in bytes/second.
    pub fn up_payload_bw(&self, elapsed: Span) -> f64 {
        kus_sim::stats::bytes_per_sec(self.up_payload_bytes, elapsed)
    }
}

/// Fault-injection and recovery statistics for one run. All zeros when the
/// fault plan is inert and recovery never fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Device latency spikes injected.
    pub latency_spikes: u64,
    /// Fetcher stalls injected (parked with the doorbell-request flag lost).
    pub stalls: u64,
    /// Completions dropped in flight.
    pub dropped_completions: u64,
    /// Completions duplicated in flight.
    pub dup_completions: u64,
    /// Doorbell MMIO writes lost in flight.
    pub dropped_doorbells: u64,
    /// TLPs that needed a link-level replay.
    pub tlp_replays: u64,
    /// Completions the device could not post (completion ring full).
    pub completion_overflows: u64,
    /// Request deadlines that expired (per attempt).
    pub timeouts: u64,
    /// Re-enqueue attempts performed by the recovery path.
    pub retries: u64,
    /// Requests failed over to the host-side copy after the retry budget.
    pub failed: u64,
    /// Duplicate/late completions absorbed by tag dedup.
    pub stale_completions: u64,
    /// Watchdog transitions into doorbell-always mode.
    pub degradations: u64,
    /// Watchdog restorations of the optimized doorbell mode.
    pub restorations: u64,
    /// Serving fibers crashed and respawned (scheduler tally, summed over
    /// cores). The serving layer's own injector counts the same events;
    /// this is the platform-side cross-check.
    pub fiber_crashes: u64,
}

/// Per-request latency decomposition for the software-queue path, derived
/// from the trace by matching lifecycle stamps by descriptor tag:
/// `issue → enqueue → fetch → serve → deliver`. Only requests with all five
/// stamps contribute (requests still in flight at run end are dropped).
#[derive(Debug, Clone, Default)]
pub struct LatencyBreakdown {
    /// Requests with a complete stamp set.
    pub requests: u64,
    /// Host-side submission cost: issue → descriptor visible in the ring.
    pub host: SpanHistogram,
    /// Ring residency: enqueue → descriptor fetched by the device.
    pub queueing: SpanHistogram,
    /// Device service: fetch → response produced.
    pub device: SpanHistogram,
    /// Completion delivery: response → value handed to the fiber.
    pub wire: SpanHistogram,
    /// End-to-end: issue → delivery.
    pub total: SpanHistogram,
}

/// Derived observability products of a traced run: the raw event stream,
/// its determinism hash, and metrics timelines computed in a post-pass
/// (never fed back into the simulation).
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The full event stream, in emission order.
    pub events: Vec<TraceEvent>,
    /// FNV-1a hash of the canonical encoding, computed once here at
    /// harvest — the determinism fingerprint compared by
    /// `tests/determinism.rs` and CI.
    pub hash: u64,
    /// Events emitted.
    pub count: u64,
    /// Core 0's LFB occupancy over time (from `lfb.alloc`/`lfb.fill`).
    pub lfb_occupancy: OccupancyTimeline,
    /// Core 0's SWQ request-ring depth over time (from
    /// `swq.enqueue`/`swq.fetch`); empty outside software-queue runs.
    pub ring_occupancy: OccupancyTimeline,
    /// SWQ per-request latency decomposition; empty outside SWQ runs.
    pub latency: LatencyBreakdown,
}

impl TraceReport {
    /// Builds the report from a finished run's event stream, which it
    /// takes by value and keeps, hashing it in one pass.
    ///
    /// `end` is the simulation end time, used to close the occupancy
    /// timelines' final interval.
    pub fn build(events: Vec<TraceEvent>, end: Time) -> TraceReport {
        let hash = kus_sim::trace::hash_events(&events);
        let count = events.len() as u64;
        let lfb_occupancy = OccupancyTimeline::from_samples(
            events
                .iter()
                .filter(|e| {
                    e.track == 0
                        && e.cat == Category::Mem
                        && matches!(e.name, "lfb.alloc" | "lfb.fill")
                })
                .map(|e| (e.at, e.a1)),
            end,
        );
        let ring_occupancy = OccupancyTimeline::from_samples(
            events
                .iter()
                .filter(|e| {
                    e.track == 0
                        && e.cat == Category::Swq
                        && matches!(e.name, "swq.enqueue" | "swq.fetch")
                })
                .map(|e| (e.at, e.a1)),
            end,
        );

        // Latency decomposition: collect the first stamp of each kind per
        // tag (retries re-stamp a tag; the first attempt wins so retried
        // requests report their full, painful latency).
        use std::collections::HashMap;
        let mut stamps: HashMap<u64, [Option<Time>; 5]> = HashMap::new();
        for e in &events {
            let slot = match (e.cat, e.name) {
                (Category::Swq, "swq.issue") => 0,
                (Category::Swq, "swq.enqueue") => 1,
                (Category::Swq, "swq.fetch") => 2,
                (Category::Swq, "swq.serve") => 3,
                (Category::Swq, "swq.deliver") => 4,
                _ => continue,
            };
            let s = stamps.entry(e.a0).or_default();
            if s[slot].is_none() {
                s[slot] = Some(e.at);
            }
        }
        let mut latency = LatencyBreakdown::default();
        let mut tags: Vec<_> = stamps.keys().copied().collect();
        tags.sort_unstable();
        for tag in tags {
            let s = &stamps[&tag];
            let (Some(issue), Some(enq), Some(fetch), Some(serve), Some(deliver)) =
                (s[0], s[1], s[2], s[3], s[4])
            else {
                continue;
            };
            latency.requests += 1;
            latency.host.record(enq.saturating_since(issue));
            latency.queueing.record(fetch.saturating_since(enq));
            latency.device.record(serve.saturating_since(fetch));
            latency.wire.record(deliver.saturating_since(serve));
            latency.total.record(deliver.saturating_since(issue));
        }

        TraceReport { events, hash, count, lfb_occupancy, ring_occupancy, latency }
    }
}

/// The result of one platform run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Mechanism used.
    pub mechanism: Mechanism,
    /// Dataset backing.
    pub backing: Backing,
    /// Configured device latency.
    pub device_latency: Span,
    /// Cores used.
    pub cores: usize,
    /// Fibers per core.
    pub fibers_per_core: usize,
    /// Core clock (for IPC conversion).
    pub clock: Clock,
    /// Measured span from workload start to last fiber completion.
    pub elapsed: Span,
    /// Discrete events the simulator executed during the measured phase —
    /// the denominator for events/second throughput tracking.
    pub sim_events: u64,
    /// Work-loop instructions retired, summed over cores.
    pub work_insts: u64,
    /// Dataset accesses performed, summed over cores.
    pub accesses: u64,
    /// Dataset writes performed, summed over cores.
    pub writes: u64,
    /// User-level context switches, summed over cores.
    pub switches: u64,
    /// Doorbell MMIO writes (software-queue runs).
    pub doorbells: u64,
    /// Highest per-core LFB occupancy observed.
    pub lfb_max: u64,
    /// Highest device-path shared-queue occupancy observed.
    pub device_path_max: u64,
    /// Distribution of host-observed device fill latencies (memory-mapped
    /// device runs only): issue of the miss to data back at the core.
    /// Congestion on the link or in the device shows up as a fat tail.
    pub fill_latency: Option<SpanHistogram>,
    /// Device statistics (device-backed runs only).
    pub device: Option<DeviceReport>,
    /// Link statistics (device-backed runs only).
    pub link: Option<LinkReport>,
    /// Fault-injection/recovery statistics (present when a fault plan is
    /// active or SWQ recovery is enabled).
    pub faults: Option<FaultReport>,
    /// Trace-derived observability products (traced runs only). Carries the
    /// event stream, its determinism hash, and occupancy/latency timelines;
    /// tracing never alters the simulation, so every other field is
    /// identical with tracing on or off.
    pub trace: Option<TraceReport>,
    /// Cycle-accounting profile of the measured phase (profiled runs only):
    /// per-core time classification, resource-pressure histograms,
    /// critical-path blame tables, and bottleneck verdicts.
    pub profile: Option<kus_profile::ProfileReport>,
}

impl RunReport {
    /// A zeroed report shaped like a run of `cfg`.
    ///
    /// This is what a collecting [`Runner`](crate::Runner) hands back during
    /// a sweep's dry pass: every metric is zero (and
    /// [`normalized_to`](RunReport::normalized_to) of/against it is zero),
    /// but the configuration-derived fields are real so figure assembly code
    /// that labels series off them still works.
    pub fn placeholder(cfg: &crate::config::PlatformConfig) -> RunReport {
        RunReport {
            workload: "",
            mechanism: cfg.mechanism,
            backing: cfg.backing,
            device_latency: cfg.device_latency,
            cores: cfg.cores,
            fibers_per_core: cfg.fibers_per_core,
            clock: cfg.core.clock,
            elapsed: Span::ZERO,
            sim_events: 0,
            work_insts: 0,
            accesses: 0,
            writes: 0,
            switches: 0,
            doorbells: 0,
            lfb_max: 0,
            device_path_max: 0,
            fill_latency: None,
            device: None,
            link: None,
            faults: None,
            trace: None,
            profile: None,
        }
    }

    /// Aggregate work IPC: work instructions per core cycle of elapsed time
    /// (summed across cores, exactly as the paper aggregates multicore
    /// results against a single-core baseline).
    pub fn work_ipc(&self) -> f64 {
        let cycles = self.clock.cycles_in_f64(self.elapsed);
        if cycles == 0.0 {
            return 0.0;
        }
        self.work_insts as f64 / cycles
    }

    /// This run's work IPC normalized to `baseline` — the paper's headline
    /// metric.
    pub fn normalized_to(&self, baseline: &RunReport) -> f64 {
        let b = baseline.work_ipc();
        if b == 0.0 {
            return 0.0;
        }
        self.work_ipc() / b
    }

    /// Average dataset-access throughput in accesses/second.
    pub fn access_rate(&self) -> f64 {
        kus_sim::stats::rate_per_sec(self.accesses, self.elapsed)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<12} {:<10} {} lat={} cores={} fibers={} elapsed={} workIPC={:.3} accesses={}",
            self.workload,
            self.mechanism.to_string(),
            self.backing,
            self.device_latency,
            self.cores,
            self.fibers_per_core,
            self.elapsed,
            self.work_ipc(),
            self.accesses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(work: u64, elapsed_ns: u64) -> RunReport {
        RunReport {
            workload: "t",
            mechanism: Mechanism::Prefetch,
            backing: Backing::Device,
            device_latency: Span::from_us(1),
            cores: 1,
            fibers_per_core: 1,
            clock: Clock::from_ghz(1.0),
            elapsed: Span::from_ns(elapsed_ns),
            sim_events: 0,
            work_insts: work,
            accesses: 0,
            writes: 0,
            switches: 0,
            doorbells: 0,
            lfb_max: 0,
            device_path_max: 0,
            fill_latency: None,
            device: None,
            link: None,
            faults: None,
            trace: None,
            profile: None,
        }
    }

    #[test]
    fn work_ipc_math() {
        // 1400 instructions in 1000 cycles (1000 ns at 1 GHz) = 1.4 IPC.
        let r = report(1400, 1000);
        assert!((r.work_ipc() - 1.4).abs() < 1e-9);
    }

    #[test]
    fn normalization() {
        let dev = report(700, 1000);
        let base = report(1400, 1000);
        assert!((dev.normalized_to(&base) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_guards() {
        let z = report(0, 0);
        assert_eq!(z.work_ipc(), 0.0);
        assert_eq!(report(10, 10).normalized_to(&z), 0.0);
    }

    #[test]
    fn link_report_bandwidth() {
        let l = LinkReport { up_wire_bytes: 4000, up_payload_bytes: 2000, ..Default::default() };
        assert!((l.up_wire_bw(Span::from_us(1)) - 4e9).abs() < 1.0);
        assert!((l.up_payload_bw(Span::from_us(1)) - 2e9).abs() < 1.0);
    }

    #[test]
    fn summary_contains_key_fields() {
        let s = report(1, 1).summary();
        assert!(s.contains("prefetch"));
        assert!(s.contains("workIPC"));
    }

    #[test]
    fn trace_report_latency_decomposition() {
        use kus_sim::trace::Phase;
        let t = |ns| Time::ZERO + Span::from_ns(ns);
        let ev = |name, at, tag, a1| TraceEvent {
            at,
            cat: Category::Swq,
            name,
            phase: Phase::Instant,
            track: 0,
            a0: tag,
            a1,
        };
        // Tag 7 has the full stamp set; tag 8 never completes.
        let events = vec![
            ev("swq.issue", t(0), 7, 0),
            ev("swq.enqueue", t(10), 7, 1),
            ev("swq.issue", t(15), 8, 0),
            ev("swq.fetch", t(40), 7, 0),
            ev("swq.serve", t(1040), 7, 0),
            ev("swq.deliver", t(1100), 7, 0),
        ];
        let r = TraceReport::build(events, t(2000));
        assert_eq!(r.count, 6);
        assert_eq!(r.latency.requests, 1);
        assert_eq!(r.latency.host.mean(), Span::from_ns(10));
        assert_eq!(r.latency.queueing.mean(), Span::from_ns(30));
        assert_eq!(r.latency.device.mean(), Span::from_ns(1000));
        assert_eq!(r.latency.wire.mean(), Span::from_ns(60));
        assert_eq!(r.latency.total.mean(), Span::from_ns(1100));
        // Ring depth: 0 until 10ns, 1 until 40ns, 0 until 2000ns.
        assert_eq!(r.ring_occupancy.max_level, 1);
        assert_eq!(r.ring_occupancy.time_at_level[1], Span::from_ns(30));
    }

    #[test]
    fn trace_report_hash_matches_event_hash() {
        let events = vec![TraceEvent {
            at: Time::ZERO,
            cat: Category::Mem,
            name: "lfb.alloc",
            phase: kus_sim::trace::Phase::Instant,
            track: 0,
            a0: 1,
            a1: 1,
        }];
        let h = kus_sim::trace::hash_events(&events);
        let r = TraceReport::build(events, Time::ZERO + Span::from_ns(1));
        assert_eq!(r.hash, h);
        assert_eq!(r.lfb_occupancy.max_level, 1);
    }
}
