//! Tail-latency analytics: [`LoadReport`] reconstruction from the event
//! trace, percentile tables, and SLO verdicts.
//!
//! The report is computed *from the deterministic trace*, not from live
//! counters inside the simulation: `load.dispatch` / `load.complete` /
//! `load.shed` events carry each request's id and true arrival time, so
//! the full sojourn decomposition (queue wait + service time) can be
//! rebuilt after the fact. Because the trace is byte-reproducible, so is
//! every number here — including across sweep `--jobs` values.
//!
//! Overload runs add more event classes (per-cause sheds, client
//! retries/timeouts/hedges, fiber crashes, dispatcher stalls, freeze-window
//! markers), from which the report derives a windowed **recovery
//! timeline** and a [`DegradationVerdict`] — did the system degrade
//! gracefully, brown out, collapse, or flap?

use std::collections::BTreeMap;
use std::fmt;

use kus_core::prelude::RunReport;
use kus_sim::stats::{rate_per_sec, HdrHistogram};
use kus_sim::{Category, Span, Time, TraceEvent};

use crate::by_id::{last_per_id, lookup};

/// Buckets in the recovery timeline (the run window divided evenly).
pub const TIMELINE_BUCKETS: u64 = 32;

/// Brownout threshold: a fault window whose worst bucket p99 exceeds this
/// multiple of the SLO bound is a brownout even if the system recovers.
pub const BROWNOUT_DEPTH: f64 = 4.0;

/// A percentile summary of one latency distribution, backed by the
/// mergeable HDR histogram (≤ ~1.6% relative error per quantile).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: Span,
    /// Median.
    pub p50: Span,
    /// 90th percentile.
    pub p90: Span,
    /// 99th percentile.
    pub p99: Span,
    /// 99.9th percentile — the paper's "killer microsecond" headline stat.
    pub p999: Span,
    /// Worst observed sample (exact).
    pub max: Span,
}

impl Percentiles {
    /// Summarizes `hist` at the standard report quantiles.
    pub fn from_histogram(hist: &HdrHistogram) -> Percentiles {
        Percentiles {
            count: hist.count(),
            mean: hist.mean(),
            p50: hist.quantile(0.50),
            p90: hist.quantile(0.90),
            p99: hist.quantile(0.99),
            p999: hist.quantile(0.999),
            max: hist.max(),
        }
    }

    pub(crate) fn json_into(&self, out: &mut String) {
        use fmt::Write;
        let _ = write!(
            out,
            "{{\"count\":{},\"mean_ps\":{},\"p50_ps\":{},\"p90_ps\":{},\"p99_ps\":{},\"p999_ps\":{},\"max_ps\":{}}}",
            self.count,
            self.mean.as_ps(),
            self.p50.as_ps(),
            self.p90.as_ps(),
            self.p99.as_ps(),
            self.p999.as_ps(),
            self.max.as_ps(),
        );
    }
}

/// Everything a capacity planner asks of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Requests that arrived (completed + shed).
    pub offered: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests rejected at admission (queue full).
    pub shed: u64,
    /// First arrival to last completion.
    pub window: Span,
    /// Offered arrival rate over the window, requests/second.
    pub offered_rps: f64,
    /// Completion rate over the window, requests/second.
    pub goodput_rps: f64,
    /// End-to-end sojourn time: arrival → completion.
    pub latency: Percentiles,
    /// Admission-queue wait: arrival → dispatch.
    pub queue_wait: Percentiles,
    /// Service time: dispatch → completion.
    pub service: Percentiles,
    /// Peak admission-queue depth.
    pub queue_depth_max: u64,
    /// Time-weighted mean queue depth over the window.
    pub queue_depth_avg: f64,
    /// Completed requests whose sojourn was dominated by the admission-queue
    /// wait (wait > service) — the argmax blame over the two segments.
    pub blamed_queue: u64,
    /// Completed requests whose sojourn was dominated by service time.
    pub blamed_service: u64,
    /// Among the slowest 1% by sojourn (exact p99 cut), those blamed on the
    /// queue. Queueing dominating *only in the tail* is the classic
    /// saturation signature.
    pub tail_blamed_queue: u64,
    /// Among the slowest 1% by sojourn, those blamed on service time.
    pub tail_blamed_service: u64,
    /// Sheds because the admission queue was full (`load.shed`).
    pub shed_queue_full: u64,
    /// Sheds at dispatch time for blown deadlines (`load.shed.deadline`).
    pub shed_deadline: u64,
    /// Sheds by admission-policy backpressure (`load.shed.admission`).
    pub shed_admission: u64,
    /// Client retries issued (`load.retry`).
    pub retries: u64,
    /// Client-side attempt timeouts (`load.timeout`).
    pub client_timeouts: u64,
    /// Hedged requests issued (`load.hedge`).
    pub hedges: u64,
    /// Serving-fiber crashes observed (`load.crash`).
    pub crashes: u64,
    /// Dispatcher stalls observed (`load.stall`).
    pub dispatcher_stalls: u64,
    /// Load amplification from the client: `(completed + retries + hedges)
    /// / completed`. `1.0` means every completion cost exactly one serve.
    pub retry_amplification: f64,
    /// Goodput/p99/shed timeline: the run window split into
    /// [`TIMELINE_BUCKETS`] equal buckets.
    pub timeline: Vec<TimelineBucket>,
    /// Injected fault windows as `(start_ps, end_ps)` pairs, from the
    /// `load.window.*` markers (a window still open at run end closes at
    /// the window's end).
    pub fault_windows: Vec<(u64, u64)>,
    /// Device-level distress counters, populated by
    /// [`from_run`](LoadReport::from_run) when the run carries a
    /// [`FaultReport`](kus_core::FaultReport) — serving-level reports
    /// expose device pain instead of hiding it.
    pub device: Option<DeviceDistress>,
}

/// One bucket of the recovery timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineBucket {
    /// Bucket start, absolute picoseconds.
    pub start_ps: u64,
    /// Requests completed in this bucket (by completion time).
    pub completed: u64,
    /// Requests shed in this bucket (by shed time).
    pub shed: u64,
    /// Exact p99 sojourn of the bucket's completions (zero when empty).
    pub p99: Span,
    /// Completion rate over the bucket, requests/second.
    pub goodput_rps: f64,
}

impl TimelineBucket {
    /// Whether the bucket served traffic within `bound` — the recovery
    /// criterion. Shedding alone is not unhealthy (deadline-aware
    /// policies shed *in order to* keep latency bounded); serving nothing
    /// or serving beyond the bound is.
    pub fn healthy(&self, bound: Span) -> bool {
        self.completed > 0 && self.p99 <= bound
    }

    /// Whether any traffic hit this bucket at all.
    pub fn active(&self) -> bool {
        self.completed + self.shed > 0
    }
}

/// Device-level distress counters surfaced into the serving report
/// (satellite of the PR 1 device-hardening work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceDistress {
    /// Completion-ring overflows at the device.
    pub completion_overflows: u64,
    /// SWQ request deadline expirations.
    pub timeouts: u64,
    /// SWQ recovery retries.
    pub retries: u64,
    /// Requests failed over to the host-side copy.
    pub failovers: u64,
    /// Duplicate/late completions absorbed by dedup.
    pub stale_completions: u64,
    /// Serving fibers crashed and respawned (scheduler tally).
    pub fiber_crashes: u64,
}

impl LoadReport {
    /// Rebuilds the load analytics from a traced run, folding in the
    /// run's device-level fault counters when present. Returns `None`
    /// when the run was untraced or its trace carries no serving events.
    pub fn from_run(run: &RunReport) -> Option<LoadReport> {
        let mut report = Self::from_events(&run.trace.as_ref()?.events)?;
        report.device = run.faults.map(|f| DeviceDistress {
            completion_overflows: f.completion_overflows,
            timeouts: f.timeouts,
            retries: f.retries,
            failovers: f.failed,
            stale_completions: f.stale_completions,
            fiber_crashes: f.fiber_crashes,
        });
        Some(report)
    }

    /// Rebuilds the load analytics from a raw event stream (exposed for
    /// tests and external trace processing).
    pub fn from_events(events: &[TraceEvent]) -> Option<LoadReport> {
        // (id, arrival, dispatch/completion time) per event.
        let mut dispatches: Vec<(u64, (Time, Time))> = Vec::new();
        let mut completions: Vec<(u64, (Time, Time))> = Vec::new();
        let mut shed_times: Vec<Time> = Vec::new();
        let (mut shed_queue_full, mut shed_deadline, mut shed_admission) = (0u64, 0u64, 0u64);
        let (mut retries, mut client_timeouts, mut hedges) = (0u64, 0u64, 0u64);
        let (mut crashes, mut dispatcher_stalls) = (0u64, 0u64);
        // Freeze windows keyed by index: start/end marker times in ps.
        let mut windows: BTreeMap<u64, (Option<u64>, Option<u64>)> = BTreeMap::new();
        for ev in events.iter().filter(|e| e.cat == Category::Load) {
            let arrival = Time::from_ps(ev.a1);
            match ev.name {
                "load.dispatch" => dispatches.push((ev.a0, (arrival, ev.at))),
                "load.complete" => completions.push((ev.a0, (arrival, ev.at))),
                "load.shed" => {
                    shed_queue_full += 1;
                    shed_times.push(ev.at);
                }
                "load.shed.deadline" => {
                    shed_deadline += 1;
                    shed_times.push(ev.at);
                }
                "load.shed.admission" => {
                    shed_admission += 1;
                    shed_times.push(ev.at);
                }
                "load.retry" => retries += 1,
                "load.timeout" => client_timeouts += 1,
                "load.hedge" => hedges += 1,
                "load.crash" => crashes += 1,
                "load.stall" => dispatcher_stalls += 1,
                "load.window.start" => windows.entry(ev.a0).or_default().0 = Some(ev.a1),
                "load.window.end" => windows.entry(ev.a0).or_default().1 = Some(ev.a1),
                _ => {}
            }
        }
        let dispatches = last_per_id(dispatches);
        let completions = last_per_id(completions);
        let shed = shed_queue_full + shed_deadline + shed_admission;
        if completions.is_empty() && dispatches.is_empty() && shed == 0 {
            return None;
        }

        // Histograms merge exactly, so one per distribution equals the
        // per-core shards merged.
        let mut latency = HdrHistogram::new();
        let mut wait = HdrHistogram::new();
        let mut service = HdrHistogram::new();
        let mut first_arrival = Time::MAX;
        let mut last_completion = Time::ZERO;
        // (sojourn, queue wait, service) per completed request, for the
        // argmax blame attribution below.
        let mut splits: Vec<(Span, Span, Span)> = Vec::with_capacity(completions.len());
        for &(req, (arrival, done)) in &completions {
            first_arrival = first_arrival.min(arrival);
            last_completion = last_completion.max(done);
            latency.record(done.saturating_since(arrival));
            if let Some(&(_, dispatched)) = lookup(&dispatches, req) {
                let w = dispatched.saturating_since(arrival);
                let s = done.saturating_since(dispatched);
                wait.record(w);
                service.record(s);
                splits.push((done.saturating_since(arrival), w, s));
            }
        }

        // Argmax blame: each request charges its sojourn to whichever
        // segment was longer (ties go to service — being served is the
        // request's job; waiting is the anomaly worth flagging only when
        // it strictly dominates). The tail cut is the exact p99 of the
        // observed sojourns, not the histogram approximation, so the same
        // requests land in the tail on every run.
        let mut sojourns: Vec<Span> = splits.iter().map(|&(l, _, _)| l).collect();
        sojourns.sort_unstable();
        let tail_cut = if sojourns.is_empty() {
            Span::from_ps(0)
        } else {
            sojourns[(sojourns.len() * 99).div_ceil(100) - 1]
        };
        let (mut blamed_queue, mut blamed_service) = (0u64, 0u64);
        let (mut tail_blamed_queue, mut tail_blamed_service) = (0u64, 0u64);
        for &(sojourn, w, s) in &splits {
            let queue_dominates = w > s;
            if queue_dominates {
                blamed_queue += 1;
            } else {
                blamed_service += 1;
            }
            if sojourn >= tail_cut {
                if queue_dominates {
                    tail_blamed_queue += 1;
                } else {
                    tail_blamed_service += 1;
                }
            }
        }
        // Queue-depth timeline: +1 when an eventually-dispatched request
        // arrives, −1 when it dispatches. At equal timestamps the push
        // precedes the pop (that is the order the dispatcher runs them).
        let mut deltas: Vec<(u64, i64)> = Vec::with_capacity(dispatches.len() * 2);
        for &(_, (arrival, dispatched)) in &dispatches {
            deltas.push((arrival.as_ps(), 1));
            deltas.push((dispatched.as_ps(), -1));
        }
        deltas.sort_by_key(|&(t, d)| (t, -d));
        let mut depth = 0i64;
        let mut depth_max = 0i64;
        let mut weighted = 0f64;
        let mut prev = deltas.first().map_or(0, |&(t, _)| t);
        for &(t, d) in &deltas {
            weighted += depth as f64 * (t - prev) as f64;
            prev = t;
            depth += d;
            depth_max = depth_max.max(depth);
        }
        let span_ps = deltas.last().map_or(0, |&(t, _)| t).saturating_sub(deltas.first().map_or(0, |&(t, _)| t));
        let queue_depth_avg = if span_ps > 0 { weighted / span_ps as f64 } else { 0.0 };

        let completed = completions.len() as u64;
        let offered = completed + shed;
        let window = if completed > 0 {
            last_completion.saturating_since(first_arrival)
        } else {
            Span::from_ps(0)
        };

        // Recovery timeline: the observation window split into
        // TIMELINE_BUCKETS equal buckets. Completions land by completion
        // time (with the exact per-bucket p99, not a histogram
        // approximation), sheds by shed time.
        let window_ps = window.as_ps();
        let timeline: Vec<TimelineBucket> = if window_ps == 0 {
            Vec::new()
        } else {
            let origin = first_arrival.as_ps();
            let width = window_ps.div_ceil(TIMELINE_BUCKETS).max(1);
            let idx = |t: Time| ((t.as_ps().saturating_sub(origin) / width).min(TIMELINE_BUCKETS - 1)) as usize;
            let mut lat_buckets: Vec<Vec<Span>> = vec![Vec::new(); TIMELINE_BUCKETS as usize];
            for &(_, (arrival, done)) in &completions {
                lat_buckets[idx(done)].push(done.saturating_since(arrival));
            }
            let mut shed_buckets = vec![0u64; TIMELINE_BUCKETS as usize];
            for &t in &shed_times {
                shed_buckets[idx(t)] += 1;
            }
            lat_buckets
                .into_iter()
                .zip(shed_buckets)
                .enumerate()
                .map(|(k, (mut lats, bucket_shed))| {
                    lats.sort_unstable();
                    let bucket_completed = lats.len() as u64;
                    let p99 = if lats.is_empty() {
                        Span::from_ps(0)
                    } else {
                        lats[(lats.len() * 99).div_ceil(100) - 1]
                    };
                    TimelineBucket {
                        start_ps: origin + k as u64 * width,
                        completed: bucket_completed,
                        shed: bucket_shed,
                        p99,
                        goodput_rps: rate_per_sec(bucket_completed, Span::from_ps(width)),
                    }
                })
                .collect()
        };

        // Fault windows from the trace markers; a window still open when
        // the run ends closes at the end of the observation window.
        let run_end = first_arrival.as_ps().saturating_add(window_ps);
        let fault_windows: Vec<(u64, u64)> = windows
            .values()
            .filter_map(|&(start, end)| start.map(|s| (s, end.unwrap_or(run_end).max(s))))
            .collect();

        let retry_amplification = if completed > 0 {
            (completed + retries + hedges) as f64 / completed as f64
        } else {
            0.0
        };

        Some(LoadReport {
            offered,
            completed,
            shed,
            window,
            offered_rps: rate_per_sec(offered, window),
            goodput_rps: rate_per_sec(completed, window),
            latency: Percentiles::from_histogram(&latency),
            queue_wait: Percentiles::from_histogram(&wait),
            service: Percentiles::from_histogram(&service),
            queue_depth_max: depth_max as u64,
            queue_depth_avg,
            blamed_queue,
            blamed_service,
            tail_blamed_queue,
            tail_blamed_service,
            shed_queue_full,
            shed_deadline,
            shed_admission,
            retries,
            client_timeouts,
            hedges,
            crashes,
            dispatcher_stalls,
            retry_amplification,
            timeline,
            fault_windows,
            device: None,
        })
    }

    /// Fraction of offered requests that were shed.
    pub fn shed_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// Canonical JSON encoding: integer picoseconds, fixed-precision
    /// rates — byte-identical for identical runs, regardless of `--jobs`.
    pub fn to_json(&self) -> String {
        use fmt::Write;
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"offered\":{},\"completed\":{},\"shed\":{},\"window_ps\":{},\"offered_rps\":{:.6},\"goodput_rps\":{:.6},",
            self.offered,
            self.completed,
            self.shed,
            self.window.as_ps(),
            self.offered_rps,
            self.goodput_rps,
        );
        out.push_str("\"latency\":");
        self.latency.json_into(&mut out);
        out.push_str(",\"queue_wait\":");
        self.queue_wait.json_into(&mut out);
        out.push_str(",\"service\":");
        self.service.json_into(&mut out);
        let _ = write!(
            out,
            ",\"queue_depth_max\":{},\"queue_depth_avg\":{:.6},\"blame\":{{\"queue\":{},\"service\":{},\"tail_queue\":{},\"tail_service\":{}}}",
            self.queue_depth_max,
            self.queue_depth_avg,
            self.blamed_queue,
            self.blamed_service,
            self.tail_blamed_queue,
            self.tail_blamed_service,
        );
        let _ = write!(
            out,
            ",\"shed_causes\":{{\"queue_full\":{},\"deadline\":{},\"admission\":{}}}",
            self.shed_queue_full, self.shed_deadline, self.shed_admission,
        );
        let _ = write!(
            out,
            ",\"client\":{{\"retries\":{},\"timeouts\":{},\"hedges\":{},\"retry_amplification\":{:.6}}}",
            self.retries, self.client_timeouts, self.hedges, self.retry_amplification,
        );
        let _ = write!(
            out,
            ",\"serving_faults\":{{\"crashes\":{},\"dispatcher_stalls\":{}}},\"timeline\":[",
            self.crashes, self.dispatcher_stalls,
        );
        for (i, b) in self.timeline.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"start_ps\":{},\"completed\":{},\"shed\":{},\"p99_ps\":{},\"goodput_rps\":{:.6}}}",
                b.start_ps,
                b.completed,
                b.shed,
                b.p99.as_ps(),
                b.goodput_rps,
            );
        }
        out.push_str("],\"fault_windows\":[");
        for (i, &(s, e)) in self.fault_windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{s},{e}]");
        }
        out.push_str("],\"device\":");
        match &self.device {
            None => out.push_str("null"),
            Some(d) => {
                let _ = write!(
                    out,
                    "{{\"completion_overflows\":{},\"timeouts\":{},\"retries\":{},\"failovers\":{},\"stale_completions\":{},\"fiber_crashes\":{}}}",
                    d.completion_overflows,
                    d.timeouts,
                    d.retries,
                    d.failovers,
                    d.stale_completions,
                    d.fiber_crashes,
                );
            }
        }
        out.push('}');
        out
    }

    /// A human-readable percentile table (used by `examples/serving.rs`
    /// and `figures --load`).
    pub fn to_table(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "offered {} ({:.0} rps)  completed {} ({:.0} rps)  shed {} ({:.2}%)  window {}",
            self.offered,
            self.offered_rps,
            self.completed,
            self.goodput_rps,
            self.shed,
            100.0 * self.shed_fraction(),
            self.window,
        );
        let _ = writeln!(
            out,
            "queue depth: max {}  avg {:.2}",
            self.queue_depth_max, self.queue_depth_avg
        );
        let _ = writeln!(
            out,
            "blame (all): queue {}  service {}   blame (p99 tail): queue {}  service {}",
            self.blamed_queue, self.blamed_service, self.tail_blamed_queue, self.tail_blamed_service,
        );
        if self.shed > 0 {
            let _ = writeln!(
                out,
                "shed causes: queue-full {}  deadline {}  admission {}",
                self.shed_queue_full, self.shed_deadline, self.shed_admission,
            );
        }
        if self.retries + self.client_timeouts + self.hedges > 0 {
            let _ = writeln!(
                out,
                "client: retries {}  timeouts {}  hedges {}  amplification {:.3}x",
                self.retries, self.client_timeouts, self.hedges, self.retry_amplification,
            );
        }
        if self.crashes + self.dispatcher_stalls > 0 || !self.fault_windows.is_empty() {
            let _ = writeln!(
                out,
                "serving faults: crashes {}  dispatcher stalls {}  freeze windows {}",
                self.crashes,
                self.dispatcher_stalls,
                self.fault_windows.len(),
            );
        }
        if let Some(d) = &self.device {
            let _ = writeln!(
                out,
                "device distress: overflows {}  timeouts {}  retries {}  failovers {}  stale {}  fiber crashes {}",
                d.completion_overflows, d.timeouts, d.retries, d.failovers, d.stale_completions, d.fiber_crashes,
            );
        }
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "metric", "mean", "p50", "p90", "p99", "p999", "max"
        );
        for (label, p) in [
            ("sojourn", &self.latency),
            ("queue-wait", &self.queue_wait),
            ("service", &self.service),
        ] {
            let _ = writeln!(
                out,
                "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                label,
                p.mean.to_string(),
                p.p50.to_string(),
                p.p90.to_string(),
                p.p99.to_string(),
                p.p999.to_string(),
                p.max.to_string(),
            );
        }
        out
    }

    /// Judges how the run degraded and recovered, bucket by bucket.
    ///
    /// The health bound is the SLO's p99 when configured, otherwise the
    /// run's own p99 (which trivially passes — set an SLO for a meaningful
    /// verdict). Per injected fault window the report measures:
    ///
    /// * **depth** — the worst bucket p99 inside the window as a multiple
    ///   of the bound (infinite if an active bucket completed nothing);
    /// * **time to recover** — from the window's end to the start of the
    ///   first subsequent healthy bucket (`None` if health never returns).
    ///
    /// Verdict rules, checked in order:
    ///
    /// 1. **Collapse** — some window never recovers, or the final active
    ///    bucket is unhealthy (the run *ends* degraded).
    /// 2. **Brownout** — recovery happened but some window's depth
    ///    exceeds [`BROWNOUT_DEPTH`], or recovery took longer than the
    ///    fault window itself lasted.
    /// 3. **Unstable** — an active bucket is unhealthy *outside* every
    ///    fault window and its recovery span: latency flaps without an
    ///    injected cause.
    /// 4. **Graceful** — everything else: faults hurt briefly, shedding
    ///    and admission kept served latency near the bound throughout.
    pub fn recovery(&self, slo: &SloSpec) -> RecoveryReport {
        let bound = slo.p99.unwrap_or(self.latency.p99);
        let bound_ps = bound.as_ps().max(1);
        let width = match self.timeline.len() {
            0 | 1 => self.window.as_ps().max(1),
            _ => self.timeline[1].start_ps - self.timeline[0].start_ps,
        };
        let mut windows = Vec::with_capacity(self.fault_windows.len());
        for (index, &(start_ps, end_ps)) in self.fault_windows.iter().enumerate() {
            // Recovery must be *sustained*: a fault's damage (the backlog
            // drain) can land buckets after the window closes, so scan the
            // window's whole region — from its end to the next window (or
            // run end) — and demand health after the last unhealthy
            // bucket. No unhealthy bucket in the region means immediate
            // recovery; an unhealthy bucket with no healthy one after it
            // means the window never recovered.
            let next_start = self.fault_windows.get(index + 1).map_or(u64::MAX, |&(s, _)| s);
            let region: Vec<&TimelineBucket> = self
                .timeline
                .iter()
                .filter(|b| b.start_ps + width > end_ps && b.start_ps < next_start)
                .collect();
            let last_bad = region.iter().rposition(|b| b.active() && !b.healthy(bound));
            let time_to_recover = match last_bad {
                None => Some(Span::from_ps(0)),
                Some(i) => region[i + 1..]
                    .iter()
                    .find(|b| b.active() && b.healthy(bound))
                    .map(|b| Span::from_ps(b.start_ps.saturating_sub(end_ps))),
            };
            // Depth covers the window *and* its damage region up to the
            // recovery point — the brownout is however deep latency went
            // before health returned.
            let damage_end = last_bad.map_or(end_ps, |i| region[i].start_ps + width);
            let mut depth = 0.0f64;
            for b in &self.timeline {
                let overlaps = b.start_ps < damage_end && b.start_ps + width > start_ps;
                if overlaps && b.active() {
                    let d = if b.completed == 0 {
                        f64::INFINITY
                    } else {
                        b.p99.as_ps() as f64 / bound_ps as f64
                    };
                    depth = depth.max(d);
                }
            }
            windows.push(WindowRecovery { index, start_ps, end_ps, time_to_recover, depth });
        }

        let final_unhealthy = self
            .timeline
            .iter()
            .rev()
            .find(|b| b.active())
            .is_some_and(|b| !b.healthy(bound));
        let unrecovered = windows.iter().any(|w| w.time_to_recover.is_none());
        let too_deep = windows.iter().any(|w| w.depth > BROWNOUT_DEPTH);
        let too_slow = windows.iter().any(|w| {
            w.time_to_recover
                .is_some_and(|t| t.as_ps() > w.end_ps.saturating_sub(w.start_ps))
        });
        // Unhealthy active buckets not explained by any fault window
        // (each window covers through its recovery point).
        let unexplained = self.timeline.iter().any(|b| {
            let b_end = b.start_ps + width;
            b.active()
                && !b.healthy(bound)
                && !windows.iter().any(|w| {
                    let covered_end = w.end_ps
                        + w.time_to_recover.map_or(u64::MAX - w.end_ps, |t| t.as_ps().saturating_add(width));
                    b_end > w.start_ps && b.start_ps < covered_end
                })
        });
        let verdict = if unrecovered || final_unhealthy {
            DegradationVerdict::Collapse
        } else if too_deep || too_slow {
            DegradationVerdict::Brownout
        } else if unexplained {
            DegradationVerdict::Unstable
        } else {
            DegradationVerdict::Graceful
        };
        RecoveryReport { bound, windows, verdict }
    }
}

/// Recovery measurement for one injected fault window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRecovery {
    /// Position in [`LoadReport::fault_windows`].
    pub index: usize,
    /// Window start, absolute picoseconds.
    pub start_ps: u64,
    /// Window end, absolute picoseconds.
    pub end_ps: u64,
    /// Window end → first subsequent healthy timeline bucket. `None`
    /// when served latency never returns under the bound.
    pub time_to_recover: Option<Span>,
    /// Worst in-window bucket p99 as a multiple of the bound
    /// (`f64::INFINITY` for an active bucket that completed nothing).
    pub depth: f64,
}

/// How a run behaved under overload and injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationVerdict {
    /// Latency stayed near the bound; faults were absorbed quickly.
    Graceful,
    /// Recovered, but degradation was deep or recovery slow.
    Brownout,
    /// Never recovered, or the run ended degraded.
    Collapse,
    /// Latency excursions with no injected cause — flapping.
    Unstable,
}

impl DegradationVerdict {
    /// Stable lowercase label for artifacts and tables.
    pub fn label(&self) -> &'static str {
        match self {
            DegradationVerdict::Graceful => "graceful",
            DegradationVerdict::Brownout => "brownout",
            DegradationVerdict::Collapse => "collapse",
            DegradationVerdict::Unstable => "unstable",
        }
    }
}

impl fmt::Display for DegradationVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome of [`LoadReport::recovery`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// The p99 health bound the timeline was judged against.
    pub bound: Span,
    /// Per-fault-window measurements, in window order.
    pub windows: Vec<WindowRecovery>,
    /// The overall degradation verdict.
    pub verdict: DegradationVerdict,
}

impl RecoveryReport {
    /// Canonical JSON encoding (stable field order, integer picoseconds).
    pub fn to_json(&self) -> String {
        use fmt::Write;
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"verdict\":\"{}\",\"bound_ps\":{},\"windows\":[",
            self.verdict,
            self.bound.as_ps(),
        );
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"start_ps\":{},\"end_ps\":{},\"time_to_recover_ps\":",
                w.start_ps, w.end_ps,
            );
            match w.time_to_recover {
                Some(t) => {
                    let _ = write!(out, "{}", t.as_ps());
                }
                None => out.push_str("null"),
            }
            if w.depth.is_finite() {
                let _ = write!(out, ",\"depth\":{:.6}}}", w.depth);
            } else {
                out.push_str(",\"depth\":null}");
            }
        }
        out.push_str("]}");
        out
    }
}

/// A service-level objective: bounds the report is judged against.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloSpec {
    /// Upper bound on p99 sojourn time.
    pub p99: Option<Span>,
    /// Upper bound on p999 sojourn time.
    pub p999: Option<Span>,
    /// Upper bound on the shed fraction (0.0 = shed nothing).
    pub max_shed_fraction: Option<f64>,
}

impl SloSpec {
    /// No objectives; every report passes.
    pub fn none() -> SloSpec {
        SloSpec::default()
    }

    /// Bounds the p99 sojourn time.
    pub fn p99(mut self, bound: Span) -> SloSpec {
        self.p99 = Some(bound);
        self
    }

    /// Bounds the p999 sojourn time.
    pub fn p999(mut self, bound: Span) -> SloSpec {
        self.p999 = Some(bound);
        self
    }

    /// Bounds the fraction of arrivals the system may shed.
    pub fn max_shed_fraction(mut self, bound: f64) -> SloSpec {
        self.max_shed_fraction = Some(bound);
        self
    }

    /// Judges `report` against every configured bound.
    pub fn verdict(&self, report: &LoadReport) -> SloVerdict {
        let mut violations = Vec::new();
        if let Some(bound) = self.p99 {
            if report.latency.p99 > bound {
                violations.push(format!("p99 {} exceeds {}", report.latency.p99, bound));
            }
        }
        if let Some(bound) = self.p999 {
            if report.latency.p999 > bound {
                violations.push(format!("p999 {} exceeds {}", report.latency.p999, bound));
            }
        }
        if let Some(bound) = self.max_shed_fraction {
            let got = report.shed_fraction();
            if got > bound {
                violations.push(format!("shed fraction {got:.4} exceeds {bound:.4}"));
            }
        }
        SloVerdict { pass: violations.is_empty(), violations }
    }
}

/// The outcome of judging a [`LoadReport`] against an [`SloSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloVerdict {
    /// Whether every configured bound held.
    pub pass: bool,
    /// One line per violated bound.
    pub violations: Vec<String>,
}

impl fmt::Display for SloVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pass {
            write!(f, "SLO PASS")
        } else {
            write!(f, "SLO FAIL: {}", self.violations.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_sim::Phase;

    fn ev(name: &'static str, at_ns: u64, track: u32, a0: u64, a1_ns: u64) -> TraceEvent {
        TraceEvent {
            at: Time::ZERO + Span::from_ns(at_ns),
            cat: Category::Load,
            name,
            phase: Phase::Instant,
            track,
            a0,
            a1: Span::from_ns(a1_ns).as_ps(),
        }
    }

    /// Two requests on two cores plus one shed arrival:
    /// req 0: arrive 0, dispatch 100 ns, complete 1100 ns (sojourn 1100).
    /// req 1: arrive 50, dispatch 150 ns, complete 2150 ns (sojourn 2100).
    fn sample_events() -> Vec<TraceEvent> {
        vec![
            ev("load.dispatch", 100, 0, 0, 0),
            ev("load.dispatch", 150, 1, 1, 50),
            ev("load.shed", 60, 0, 2, 60),
            ev("load.complete", 1100, 0, 0, 0),
            ev("load.complete", 2150, 1, 1, 50),
        ]
    }

    #[test]
    fn reconstructs_counts_window_and_decomposition() {
        let r = LoadReport::from_events(&sample_events()).expect("events present");
        assert_eq!((r.offered, r.completed, r.shed), (3, 2, 1));
        assert_eq!(r.window, Span::from_ns(2150));
        assert_eq!(r.latency.max, Span::from_ns(2100));
        assert_eq!(r.queue_wait.max, Span::from_ns(100));
        assert_eq!(r.service.max, Span::from_ns(2000));
        assert_eq!(r.latency.count, 2);
        // Both requests queued concurrently over [50, 100) ns.
        assert_eq!(r.queue_depth_max, 2);
        assert!(r.queue_depth_avg > 0.0);
        assert!((r.shed_fraction() - 1.0 / 3.0).abs() < 1e-12);
        // Both sojourns are service-dominated (100 ns waits vs µs service);
        // with two samples the exact-p99 cut keeps only the slower one.
        assert_eq!((r.blamed_queue, r.blamed_service), (0, 2));
        assert_eq!((r.tail_blamed_queue, r.tail_blamed_service), (0, 1));
    }

    /// A queue-dominated request (3 µs wait, 1 µs service) is blamed on
    /// the queue — in the overall table and in the tail, since its sojourn
    /// is the worst.
    #[test]
    fn queue_dominated_tail_is_blamed_on_the_queue() {
        let mut events = sample_events();
        events.push(ev("load.dispatch", 3200, 0, 3, 200));
        events.push(ev("load.complete", 4200, 0, 3, 200));
        let r = LoadReport::from_events(&events).expect("events present");
        assert_eq!((r.blamed_queue, r.blamed_service), (1, 2));
        assert_eq!((r.tail_blamed_queue, r.tail_blamed_service), (1, 0));
        assert!(r.to_json().contains("\"blame\":{\"queue\":1,\"service\":2,\"tail_queue\":1,\"tail_service\":0}"));
    }

    #[test]
    fn json_is_stable_and_event_order_does_not_matter() {
        let a = LoadReport::from_events(&sample_events()).unwrap();
        let mut shuffled = sample_events();
        shuffled.reverse();
        let b = LoadReport::from_events(&shuffled).unwrap();
        assert_eq!(a, b, "report must not depend on event order");
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().starts_with("{\"offered\":3,\"completed\":2,\"shed\":1,"));
    }

    #[test]
    fn ignores_foreign_categories_and_returns_none_without_load_events() {
        assert!(LoadReport::from_events(&[]).is_none());
        let foreign = TraceEvent {
            at: Time::ZERO,
            cat: Category::Sim,
            name: "load.dispatch",
            phase: Phase::Instant,
            track: 0,
            a0: 0,
            a1: 0,
        };
        assert!(LoadReport::from_events(&[foreign]).is_none(), "wrong category must not count");
    }

    #[test]
    fn per_cause_sheds_client_counters_and_windows() {
        let mut events = sample_events();
        events.push(ev("load.shed.deadline", 70, 0, 3, 70));
        events.push(ev("load.shed.admission", 80, 0, 4, 80));
        events.push(ev("load.retry", 90, 2, 0, 1));
        events.push(ev("load.timeout", 90, 2, 0, 1));
        events.push(ev("load.hedge", 95, 2, 1, 1));
        events.push(ev("load.crash", 100, 0, 5, 100));
        events.push(ev("load.stall", 110, 0, 6, 110));
        events.push(ev("load.window.start", 500, 0, 1, 500));
        events.push(ev("load.window.end", 700, 0, 1, 700));
        events.push(ev("load.window.start", 1900, 0, 2, 1900));
        let r = LoadReport::from_events(&events).expect("events present");
        assert_eq!(
            (r.shed_queue_full, r.shed_deadline, r.shed_admission),
            (1, 1, 1)
        );
        assert_eq!(r.shed, 3, "shed stays the sum over causes");
        assert_eq!(r.offered, r.completed + r.shed);
        assert_eq!((r.retries, r.client_timeouts, r.hedges), (1, 1, 1));
        assert_eq!((r.crashes, r.dispatcher_stalls), (1, 1));
        // 2 completions + 1 retry + 1 hedge = 4 serves for 2 answers.
        assert!((r.retry_amplification - 2.0).abs() < 1e-12);
        // Window 1 closed by its marker; window 2 closes at run end.
        let run_end = r.window.as_ps();
        assert_eq!(
            r.fault_windows,
            vec![
                (Span::from_ns(500).as_ps(), Span::from_ns(700).as_ps()),
                (Span::from_ns(1900).as_ps(), run_end)
            ]
        );
        assert_eq!(r.timeline.len(), TIMELINE_BUCKETS as usize);
        let completed: u64 = r.timeline.iter().map(|b| b.completed).sum();
        let shed: u64 = r.timeline.iter().map(|b| b.shed).sum();
        assert_eq!((completed, shed), (r.completed, r.shed));
        let js = r.to_json();
        assert!(js.contains("\"shed_causes\":{\"queue_full\":1,\"deadline\":1,\"admission\":1}"));
        assert!(js.contains("\"client\":{\"retries\":1,\"timeouts\":1,\"hedges\":1,"));
        assert!(js.contains("\"serving_faults\":{\"crashes\":1,\"dispatcher_stalls\":1}"));
        assert!(js.contains("\"device\":null"));
        assert!(js.ends_with('}'));
    }

    fn bucket(start_ps: u64, completed: u64, p99: Span) -> TimelineBucket {
        TimelineBucket { start_ps, completed, shed: 0, p99, goodput_rps: 0.0 }
    }

    /// Exercises each verdict rule on hand-built timelines: eight
    /// 1000-ps buckets judged against a 100 ns p99 bound.
    #[test]
    fn recovery_verdict_rules() {
        let slo = SloSpec::none().p99(Span::from_ns(100));
        let healthy = Span::from_ns(50);
        let base = LoadReport::from_events(&sample_events()).unwrap();

        // Graceful: one shallow excursion inside the fault window,
        // healthy again in the very next bucket.
        let mut r = base.clone();
        r.timeline = (0..8).map(|k| bucket(k * 1000, 4, healthy)).collect();
        r.timeline[1].p99 = Span::from_ns(150);
        r.fault_windows = vec![(1000, 2000)];
        let rec = r.recovery(&slo);
        assert_eq!(rec.verdict, DegradationVerdict::Graceful);
        assert_eq!(rec.windows[0].time_to_recover, Some(Span::from_ps(0)));
        assert!((rec.windows[0].depth - 1.5).abs() < 1e-12);

        // Brownout: recovered, but the excursion ran 5x past the bound.
        let mut r = base.clone();
        r.timeline = (0..8).map(|k| bucket(k * 1000, 4, healthy)).collect();
        r.timeline[1].p99 = Span::from_ns(500);
        r.fault_windows = vec![(1000, 2000)];
        assert_eq!(r.recovery(&slo).verdict, DegradationVerdict::Brownout);

        // Brownout: shallow but recovery (3 buckets) outlasts the window.
        let mut r = base.clone();
        r.timeline = (0..8).map(|k| bucket(k * 1000, 4, healthy)).collect();
        for k in 1..5 {
            r.timeline[k].p99 = Span::from_ns(150);
        }
        r.fault_windows = vec![(1000, 2000)];
        let rec = r.recovery(&slo);
        assert_eq!(rec.verdict, DegradationVerdict::Brownout);
        assert_eq!(rec.windows[0].time_to_recover, Some(Span::from_ps(3000)));

        // Collapse: latency never comes back under the bound.
        let mut r = base.clone();
        r.timeline = (0..8).map(|k| bucket(k * 1000, 4, healthy)).collect();
        for k in 1..8 {
            r.timeline[k].p99 = Span::from_ns(500);
        }
        r.fault_windows = vec![(1000, 2000)];
        let rec = r.recovery(&slo);
        assert_eq!(rec.verdict, DegradationVerdict::Collapse);
        assert_eq!(rec.windows[0].time_to_recover, None);

        // Collapse: a run that *ends* degraded collapses even with no
        // fault window to blame.
        let mut r = base.clone();
        r.timeline = (0..8).map(|k| bucket(k * 1000, 4, healthy)).collect();
        r.timeline[7].p99 = Span::from_ns(500);
        r.fault_windows = vec![];
        assert_eq!(r.recovery(&slo).verdict, DegradationVerdict::Collapse);

        // Unstable: an excursion with no injected cause anywhere near it.
        let mut r = base.clone();
        r.timeline = (0..8).map(|k| bucket(k * 1000, 4, healthy)).collect();
        r.timeline[4].p99 = Span::from_ns(150);
        r.fault_windows = vec![];
        assert_eq!(r.recovery(&slo).verdict, DegradationVerdict::Unstable);

        // The JSON encoding is stable and carries the verdict label.
        let json = r.recovery(&slo).to_json();
        assert!(json.starts_with("{\"verdict\":\"unstable\",\"bound_ps\":"));
    }

    #[test]
    fn slo_verdict_reports_each_violated_bound() {
        let r = LoadReport::from_events(&sample_events()).unwrap();
        assert!(SloSpec::none().verdict(&r).pass);
        let pass = SloSpec::none().p99(Span::from_us(10)).max_shed_fraction(0.5);
        assert!(pass.verdict(&r).pass);
        let fail = SloSpec::none()
            .p99(Span::from_ns(500))
            .p999(Span::from_ns(500))
            .max_shed_fraction(0.1);
        let v = fail.verdict(&r);
        assert!(!v.pass);
        assert_eq!(v.violations.len(), 3);
        assert!(v.to_string().starts_with("SLO FAIL:"));
    }
}
