//! Run reports and the paper's normalized-work-IPC metric.
//!
//! The paper reports microbenchmark results as **normalized work IPC**: the
//! average number of work-loop instructions retired per cycle, divided by
//! the same quantity for the single-threaded on-demand DRAM baseline.
//! Applications report **normalized performance** (inverse runtime ratio),
//! which for fixed-iteration workloads is the same ratio.

use kus_mem::Backing;
use kus_sim::stats::Percentiles;
use kus_sim::{Clock, Span, TraceLog, Tracer};

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

/// A traced run's event stream and its determinism hash.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The full event stream, in emission order, held as a compact log
    /// whose [`load`](TraceLog::load) events the harvest reports read.
    pub events: TraceLog,
    /// FNV-1a hash of the canonical encoding, computed once here at
    /// harvest — the determinism fingerprint compared by
    /// `tests/determinism.rs` and CI.
    pub hash: u64,
    /// Events emitted.
    pub count: u64,
}

impl TraceReport {
    /// Moves a finished run's log out of `tracer`, with the hash its
    /// encoder computed as the events were emitted.
    pub(crate) fn finish(tracer: &Tracer) -> TraceReport {
        let (events, hash) = tracer.finish();
        let count = events.len() as u64;
        TraceReport { events, hash, count }
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
    /// Summary of the host-observed device fill latencies (memory-mapped
    /// device runs only): issue of the miss to data back at the core.
    /// Congestion on the link or in the device shows up as a fat tail.
    pub fill_latency: Option<Percentiles>,
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
    use kus_sim::trace::{Category, EventName, Phase};
    use kus_sim::{Sim, Time, TraceEvent};

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
    fn trace_report_hash_matches_event_hash() {
        let events = vec![TraceEvent {
            at: Time::ZERO,
            cat: Category::Mem,
            name: EventName::LfbAlloc,
            phase: Phase::Instant,
            track: 0,
            a0: 1,
            a1: 1,
        }];
        let h = kus_sim::trace::hash_events(&events);
        let tracer = Tracer::new(Sim::new().now_handle(), &[]);
        tracer.instant(EventName::LfbAlloc, 0, 1, 1);
        let r = TraceReport::finish(&tracer);
        assert_eq!((r.hash, r.count), (h, 1));
        assert!(r.events.iter().eq(events));
    }
}
