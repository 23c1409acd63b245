//! `kus-profile`: a cycle-accounting profiler for the killer-microsecond
//! platform.
//!
//! The paper's core contribution is a *diagnosis*: throughput is lost to
//! identifiable resources — 10 line-fill buffers per core, the 14-entry
//! chip-level queue on the PCIe path, 2 µs context switches — and widening
//! the right one recovers it. This crate turns a run's trace stream into
//! that diagnosis:
//!
//! 1. **Per-core cycle accounting** ([`account`]): every picosecond of
//!    simulated core time classified into compute / stall-LFB-full /
//!    blocked-load wait / context-switch overhead / SWQ poll / idle, with
//!    totals that sum to wall time *exactly* (a checked invariant).
//! 2. **Resource-pressure counters** ([`pressure`]): LFB occupancy, ring
//!    occupancy-at-enqueue, chip-queue credits, doorbell batching, fetch
//!    burst efficiency — mergeable HDR shards, `--jobs`-stable.
//! 3. **Critical-path blame** ([`blame`]): each request's sojourn
//!    attributed to its single longest chain segment, aggregated overall
//!    and over the p99 tail.
//! 4. **Bottleneck verdicts** ([`verdict`]): machine-readable findings
//!    like `lfb_saturated { occupancy_p99: 10/10, suggest: mlp_limit }`.
//! 5. **Exporters** ([`export`]): speedscope flamegraph JSON and a text
//!    dashboard, both byte-deterministic.
//!
//! The input is the ordinary trace stream plus the `Category::Cpu`
//! accounting spans the platform layers emit when profiling is enabled
//! (`PlatformConfig::profiled()` → `TraceClass::Profile`). Profiling is
//! observability only: the hooks fire from existing callbacks and never
//! schedule events or draw randomness, so a profiled run's outcome is
//! identical to an unprofiled one.

pub mod account;
pub mod blame;
pub mod export;
pub mod pressure;
pub mod verdict;

use std::fmt::Write as _;

use kus_sim::json_escape;
use kus_sim::stats::HdrHistogram;
use kus_sim::time::{Span, Time};
use kus_sim::trace::TraceEvent;

pub use account::{CoreAccount, CoreTimeline, CLASS_NAMES};
pub use blame::{BlameRow, BlameTable, SEGMENTS};
pub use pressure::{PressureReport, TRACK_DEVICE_CREDITS, TRACK_DEVICE_STATION, TRACK_DRAM_CREDITS};
pub use verdict::Verdict;

/// Everything the profiler needs to know about the run that produced the
/// events: platform shape (for saturation thresholds) and the measured
/// window. Filled in by `Platform` at harvest time.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileContext {
    /// Executor/core count (trace tracks `0..cores` carry Cpu spans).
    pub cores: usize,
    pub fibers_per_core: usize,
    /// Access-mechanism label (`ondemand` / `prefetch` / `swq`).
    pub mechanism: String,
    /// Line-fill buffers per core.
    pub lfb_capacity: u64,
    /// SWQ descriptor-ring capacity (0 outside SWQ runs).
    pub ring_capacity: u64,
    /// Chip-level device-path credit count.
    pub device_path_credits: u64,
    /// Configured fiber context-switch cost.
    pub ctx_switch: Span,
    /// Start of the measured window (after device pre-streaming).
    pub window_start: Time,
    /// End of the measured window.
    pub window_end: Time,
    /// Times the round-robin scheduler handed the core to a not-yet-ready
    /// fiber (a stall handoff), summed over cores.
    pub sched_stall_handoffs: u64,
}

/// The profiler's output: accounts, pressure, blame and verdicts for one
/// run. Built once at harvest; all exports are pure functions of it.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    pub ctx: ProfileContext,
    /// One classified timeline per core, track order.
    pub timelines: Vec<CoreTimeline>,
    /// Sum of all per-core accounts.
    pub totals: CoreAccount,
    pub pressure: PressureReport,
    /// Blame over all completed SWQ requests (empty outside SWQ runs).
    pub blame: BlameTable,
    /// Blame restricted to the p99 sojourn tail.
    pub blame_p99: BlameTable,
    pub verdicts: Vec<Verdict>,
}

impl ProfileReport {
    /// Builds the report from a run's event stream.
    ///
    /// # Panics
    ///
    /// Panics if any core's classified time does not sum exactly to the
    /// measured window — that would mean the accounting lost or
    /// double-counted time, which is a bug, never a data artifact.
    pub fn build(events: &[TraceEvent], ctx: ProfileContext) -> ProfileReport {
        let timelines = account::classify(events, ctx.cores, (ctx.window_start, ctx.window_end));
        let window = ctx.window_end - ctx.window_start;
        let mut totals = CoreAccount::default();
        for tl in &timelines {
            assert_eq!(
                tl.account.classified(),
                window,
                "cycle accounting must sum to wall time exactly (core {})",
                tl.track
            );
            totals.accumulate(&tl.account);
        }
        let pressure = pressure::build(events);
        let (blame, blame_p99) = blame::extract(events);
        let wall = Span::from_ps(window.as_ps() * ctx.cores as u64);
        let verdicts = verdict::diagnose(&ctx, &totals, wall, &pressure, &blame);
        ProfileReport { ctx, timelines, totals, pressure, blame, blame_p99, verdicts }
    }

    /// The measured window all per-core accounts sum to.
    pub fn window(&self) -> Span {
        self.ctx.window_end - self.ctx.window_start
    }

    /// Deterministic JSON rendering — integer picoseconds and fixed-width
    /// floats only, byte-identical for identical runs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let ctx = &self.ctx;
        let _ = write!(
            out,
            "{{\"mechanism\":\"{}\",\"cores\":{},\"fibers_per_core\":{},\"window_start_ps\":{},\"window_end_ps\":{},\"window_ps\":{}",
            json_escape(&ctx.mechanism),
            ctx.cores,
            ctx.fibers_per_core,
            ctx.window_start.as_ps(),
            ctx.window_end.as_ps(),
            self.window().as_ps()
        );
        out.push_str(",\"accounts\":[");
        for (i, tl) in self.timelines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"core\":{}", tl.track);
            write_account(&mut out, &tl.account);
            out.push('}');
        }
        out.push_str("],\"totals\":{\"cores\":");
        let _ = write!(out, "{}", ctx.cores);
        write_account(&mut out, &self.totals);
        out.push('}');

        let p = &self.pressure;
        out.push_str(",\"pressure\":{");
        write_hist(&mut out, "lfb_occupancy", &p.lfb_occupancy);
        let _ = write!(out, ",\"lfb_full_events\":{},\"lfb_waits\":{},", p.lfb_full_events, p.lfb_waits);
        write_hist(&mut out, "chip_queue_at_acquire", &p.chip_queue_at_acquire);
        out.push(',');
        write_hist(&mut out, "ring_at_enqueue", &p.ring_at_enqueue);
        out.push(',');
        write_hist(&mut out, "station_occupancy", &p.station_occupancy);
        out.push(',');
        write_hist(&mut out, "link_queue_delay", &p.link_queue_delay);
        let _ = write!(
            out,
            ",\"enqueues\":{},\"doorbells\":{},\"doorbell_batching\":{:.6},\"fetched\":{},\"fetch_bursts\":{},\"burst_efficiency\":{:.6},\"sched_stall_handoffs\":{}}}",
            p.enqueues,
            p.doorbells,
            p.doorbell_batching(),
            p.fetched,
            p.fetch_bursts,
            p.burst_efficiency(),
            ctx.sched_stall_handoffs
        );

        write_blame(&mut out, "blame", &self.blame);
        write_blame(&mut out, "blame_p99", &self.blame_p99);

        out.push_str(",\"verdicts\":[");
        for (i, v) in self.verdicts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"suggest\":\"{}\",\"details\":{{", v.name, v.suggest);
            for (j, (k, val)) in v.details.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":\"{}\"", json_escape(val));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Speedscope flamegraph JSON (see [`export`]).
    pub fn to_speedscope(&self, name: &str) -> String {
        export::speedscope(self, name)
    }

    /// Human-readable text dashboard (see [`export`]).
    pub fn dashboard(&self, name: &str) -> String {
        export::dashboard(self, name)
    }
}

fn write_account(out: &mut String, a: &CoreAccount) {
    for (class, span) in a.classes() {
        let _ = write!(out, ",\"{class}_ps\":{}", span.as_ps());
    }
    let _ = write!(out, ",\"wall_ps\":{}", a.classified().as_ps());
}

fn write_hist(out: &mut String, key: &str, h: &HdrHistogram) {
    let _ = write!(
        out,
        "\"{key}\":{{\"count\":{},\"mean_ps\":{},\"p50_ps\":{},\"p99_ps\":{},\"max_ps\":{}}}",
        h.count(),
        h.mean().as_ps(),
        h.quantile(0.5).as_ps(),
        h.quantile(0.99).as_ps(),
        h.max().as_ps()
    );
}

fn write_blame(out: &mut String, key: &str, t: &BlameTable) {
    let _ = write!(out, ",\"{key}\":{{\"requests\":{},\"rows\":[", t.requests);
    for (i, r) in t.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"segment\":\"{}\",\"count\":{},\"blamed_ps\":{},\"sojourn_ps\":{}}}",
            r.segment,
            r.count,
            r.blamed.as_ps(),
            r.sojourn.as_ps()
        );
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_sim::trace::{Category, EventName, Phase};

    fn cpu(name: EventName, track: u32, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            at: Time::from_ps(start),
            cat: Category::Cpu,
            name,
            phase: Phase::Complete,
            track,
            a0: 0,
            a1: dur,
        }
    }

    fn ctx(cores: usize, end_ps: u64) -> ProfileContext {
        ProfileContext {
            cores,
            fibers_per_core: 4,
            mechanism: "swq".to_string(),
            lfb_capacity: 10,
            ring_capacity: 64,
            device_path_credits: 14,
            ctx_switch: Span::from_us(2),
            window_start: Time::ZERO,
            window_end: Time::from_ps(end_ps),
            sched_stall_handoffs: 3,
        }
    }

    #[test]
    fn build_sums_to_wall_time_per_core() {
        let evs = vec![
            cpu(EventName::CpuWork, 0, 0, 300),
            cpu(EventName::CpuCtx, 0, 250, 200),
            cpu(EventName::CpuPark, 1, 100, 900),
        ];
        let r = ProfileReport::build(&evs, ctx(2, 1000));
        for tl in &r.timelines {
            assert_eq!(tl.account.classified(), Span::from_ps(1000));
        }
        assert_eq!(r.totals.classified(), Span::from_ps(2000));
        // Priority: the ctx span claims its overlap with the work span.
        assert_eq!(r.timelines[0].account.ctx_switch, Span::from_ps(200));
        assert_eq!(r.timelines[0].account.compute, Span::from_ps(250));
    }

    #[test]
    fn json_is_deterministic_and_balanced() {
        let evs = vec![cpu(EventName::CpuWork, 0, 0, 500)];
        let a = ProfileReport::build(&evs, ctx(1, 1000)).to_json();
        let b = ProfileReport::build(&evs, ctx(1, 1000)).to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"mechanism\":\"swq\",\"cores\":1,"));
        assert!(a.contains("\"accounts\":[{\"core\":0,"));
        assert!(a.contains("\"compute_ps\":500"));
        assert!(a.contains("\"wall_ps\":1000"));
        assert!(a.contains("\"verdicts\":["));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn empty_run_is_all_idle_and_verdicted_underutilized() {
        let r = ProfileReport::build(&[], ctx(2, 10_000));
        assert_eq!(r.totals.idle, Span::from_ps(20_000));
        assert!(r.verdicts.iter().any(|v| v.name == "underutilized"));
        assert_eq!(r.blame.requests, 0);
    }
}
