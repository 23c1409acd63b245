//! The `figures simbench` pipeline: event-core throughput scenarios that
//! track the simulator's events/sec trajectory across commits.
//!
//! Every other suite in this crate measures the *modelled system*; this one
//! measures the *simulator substrate itself* — the timing-wheel scheduler
//! and slab event allocator in `kus-sim` — against the retained pre-rewrite
//! `BinaryHeap` core ([`kus_sim::heap_ref::RefSim`]). Both cores run the
//! same scenario generically and the baseline is measured **live in the
//! same process on the same machine**, so the reported speedups are
//! apples-to-apples rather than against a stale number from other hardware.
//!
//! Two artifacts come out of a run:
//!
//! - `BENCH_simbench.json` — wall-clock events/sec per scenario for both
//!   cores, the per-scenario speedup, an aggregate (total dispatches /
//!   total wall-clock across the paired suite, which weights scenarios by
//!   where time is actually spent), and a `history` array recording the
//!   trajectory: the committed copy is the growth log that future PRs
//!   append to.
//! - `simbench_check.json` — the deterministic face of the same run: per
//!   scenario, the dispatched-event count and final simulated instant,
//!   asserted equal between the wheel core and the heap reference before
//!   any timing is reported. This file is byte-identical across runs and
//!   machines; CI diffs it.
//!
//! Scenario shapes (sizes chosen so the suite stays under ~a minute while
//! the deep-pending case still dominates the aggregate):
//!
//! - `timer_churn_*` — N self-rearming timers at ~1–1.7 µs deltas: the
//!   serving-platform pattern. Small N measures raw dispatch overhead;
//!   large N (millions pending) measures scheduling-structure scaling,
//!   where a binary heap pays `log n` DRAM misses per operation and the
//!   wheel pays O(1) appends.
//! - `fanout_burst` — wide same-instant fan-outs, the barrier/broadcast
//!   pattern; exercises batched same-tick dispatch.
//! - `open_loop_1m` — one million pre-computed arrivals scheduled up front
//!   and then drained; exercises bulk insert plus ordered drain.
//! - `cancel_churn` — the timeout-guard pattern: every event cancels its
//!   predecessor's guard and arms a new one, all through the boxed-closure
//!   escape hatch, so both cores allocate identically and the comparison
//!   isolates the scheduling structure.
//! - `serving_mini` — an end-to-end `kus-core` platform run (unpaired: the
//!   platform only runs on the current core), reporting absolute simulator
//!   throughput for a real modelled workload.
//!
//! Events/sec counts *dispatched* events over the full scenario wall-clock
//! including setup scheduling; scenarios that leave a large pending set
//! behind therefore understate both cores equally.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use kus_core::prelude::*;
use kus_sim::event::Cancel;
use kus_sim::heap_ref::RefSim;
use kus_sim::{Sim, Span, Time};
use kus_workloads::{Microbench, MicrobenchConfig};

/// One core's timing of one scenario: the median of its timed runs, which
/// is robust to scheduler noise.
#[derive(Debug, Clone, Copy)]
pub struct BenchStats {
    /// Median wall-clock time per run, in nanoseconds.
    pub median_ns: u128,
}

impl BenchStats {
    /// Median in seconds.
    pub fn median_secs(&self) -> f64 {
        self.median_ns as f64 / 1e9
    }

    /// How many times faster this run is than `other` (>1 means faster).
    pub fn speedup_over(&self, other: &BenchStats) -> f64 {
        other.median_ns as f64 / self.median_ns.max(1) as f64
    }
}

/// Times `f` over `samples` runs, after one untimed warm-up that fills
/// caches and lazily allocated arenas. `f` returns what the run observed,
/// so the optimizer cannot delete the work.
fn bench_stats<T>(samples: u32, mut f: impl FnMut() -> T) -> BenchStats {
    assert!(samples > 0);
    black_box(f());
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    BenchStats { median_ns: times[times.len() / 2] }
}

/// The operations a scenario needs from an event core, implemented by both
/// the wheel-based [`Sim`] and the heap-based [`RefSim`]. The fn-pointer
/// methods map to the zero-allocation fast path on `Sim` and to a boxed
/// closure on `RefSim` — which is exactly what the pre-rewrite core did for
/// every event, so the baseline numbers reproduce pre-rewrite reality.
trait EventCore: Sized {
    fn fresh() -> Self;
    fn now(&self) -> Time;
    fn executed(&self) -> u64;
    fn set_event_budget(&mut self, n: u64);
    fn at(&mut self, at: Time, f: fn(&mut Self, u64), arg: u64);
    fn after(&mut self, delay: Span, f: fn(&mut Self, u64), arg: u64);
    fn closure_in(&mut self, delay: Span, f: impl FnOnce(&mut Self) + 'static);
    fn drain(&mut self);
}

impl EventCore for Sim {
    fn fresh() -> Sim {
        Sim::new()
    }
    fn now(&self) -> Time {
        Sim::now(self)
    }
    fn executed(&self) -> u64 {
        Sim::executed(self)
    }
    fn set_event_budget(&mut self, n: u64) {
        Sim::set_event_budget(self, n);
    }
    fn at(&mut self, at: Time, f: fn(&mut Sim, u64), arg: u64) {
        self.schedule_fn_at(at, f, arg);
    }
    fn after(&mut self, delay: Span, f: fn(&mut Sim, u64), arg: u64) {
        self.schedule_fn_in(delay, f, arg);
    }
    fn closure_in(&mut self, delay: Span, f: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_in(delay, f);
    }
    fn drain(&mut self) {
        let _ = Sim::run(self);
    }
}

impl EventCore for RefSim {
    fn fresh() -> RefSim {
        RefSim::new()
    }
    fn now(&self) -> Time {
        RefSim::now(self)
    }
    fn executed(&self) -> u64 {
        RefSim::executed(self)
    }
    fn set_event_budget(&mut self, n: u64) {
        RefSim::set_event_budget(self, n);
    }
    fn at(&mut self, at: Time, f: fn(&mut RefSim, u64), arg: u64) {
        self.schedule_at(at, move |s| f(s, arg));
    }
    fn after(&mut self, delay: Span, f: fn(&mut RefSim, u64), arg: u64) {
        self.schedule_in(delay, move |s| f(s, arg));
    }
    fn closure_in(&mut self, delay: Span, f: impl FnOnce(&mut RefSim) + 'static) {
        self.schedule_in(delay, f);
    }
    fn drain(&mut self) {
        let _ = RefSim::run(self);
    }
}

/// What one scenario run observed: `(dispatched events, final instant)`.
/// Deterministic, and asserted equal between the two cores.
type Observed = (u64, u64);

fn timer_churn<C: EventCore>(timers: u64, budget: u64) -> Observed {
    let mut sim = C::fresh();
    fn rearm<C: EventCore>(sim: &mut C, x: u64) {
        let delta = 1_000_000 + x.wrapping_mul(2_654_435_761) % 700_000; // ~1-1.7 us
        sim.after(Span::from_ps(delta), rearm::<C>, x.wrapping_add(1));
    }
    for i in 0..timers {
        rearm(&mut sim, i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    sim.set_event_budget(budget);
    sim.drain();
    (sim.executed(), sim.now().as_ps())
}

fn fanout_burst<C: EventCore>(width: u64, budget: u64) -> Observed {
    let mut sim = C::fresh();
    fn nop<C: EventCore>(_: &mut C, _: u64) {}
    fn burst<C: EventCore>(sim: &mut C, x: u64) {
        // One coordinator plus `width` same-instant followers, re-armed by
        // the coordinator: width+1 events per simulated microsecond-ish.
        let width = x >> 48;
        let at = sim.now() + Span::from_ps(1_000_000 + x % 777);
        for i in 0..width {
            sim.at(at, nop::<C>, i);
        }
        let next = x.wrapping_mul(48271).wrapping_add(1) & 0xFFFF_FFFF_FFFF | (width << 48);
        sim.at(at, burst::<C>, next);
    }
    burst(&mut sim, width << 48 | 1);
    sim.set_event_budget(budget);
    sim.drain();
    (sim.executed(), sim.now().as_ps())
}

fn open_loop<C: EventCore>(arrivals: u64) -> Observed {
    let mut sim = C::fresh();
    fn nop<C: EventCore>(_: &mut C, _: u64) {}
    let mut t = 0u64;
    let mut x = 1u64;
    for _ in 0..arrivals {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        t += x % 2_000_000; // mean ~1 us inter-arrival
        sim.at(Time::from_ps(t), nop::<C>, 0);
    }
    sim.drain();
    (sim.executed(), sim.now().as_ps())
}

fn cancel_churn<C: EventCore>(sessions: u64, budget: u64) -> Observed {
    let mut sim = C::fresh();
    fn arm<C: EventCore>(sim: &mut C, x: u64, prev: Cancel) {
        // Cancel the previous step's timeout guard, arm a fresh one, and
        // re-arm the worker. Guards still occupy the queue until their
        // deadline passes and they fire as no-ops — the realistic timeout
        // pattern for both cores.
        prev.cancel();
        let guard = Cancel::new();
        let g = guard.clone();
        sim.closure_in(Span::from_ps(8_000_000), move |_: &mut C| {
            let _ = g.is_cancelled();
        });
        let delta = 1_000_000 + x.wrapping_mul(2_654_435_761) % 900_000;
        sim.closure_in(Span::from_ps(delta), move |s: &mut C| {
            arm(s, x.wrapping_add(1), guard);
        });
    }
    for i in 0..sessions {
        arm(&mut sim, i.wrapping_mul(7919), Cancel::new());
    }
    sim.set_event_budget(budget);
    sim.drain();
    (sim.executed(), sim.now().as_ps())
}

/// One scenario's measurements: the deterministic observation plus timing
/// for the wheel core and (when paired) the heap baseline.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Stable scenario name (used in artifact keys).
    pub name: &'static str,
    /// Events dispatched per timed iteration (identical on both cores).
    pub events: u64,
    /// Final simulated instant, ps (identical on both cores).
    pub final_now_ps: u64,
    /// Wheel-core timing.
    pub wheel: BenchStats,
    /// Heap-reference timing; `None` for wheel-only scenarios.
    pub baseline: Option<BenchStats>,
}

impl ScenarioResult {
    /// Dispatched events per second on the wheel core (median).
    pub fn wheel_eps(&self) -> f64 {
        self.events as f64 / self.wheel.median_secs().max(1e-12)
    }

    /// Dispatched events per second on the heap baseline (median).
    pub fn baseline_eps(&self) -> Option<f64> {
        self.baseline.as_ref().map(|b| self.events as f64 / b.median_secs().max(1e-12))
    }

    /// Wheel speedup over the baseline (>1 means the wheel is faster).
    pub fn speedup(&self) -> Option<f64> {
        self.baseline.as_ref().map(|b| self.wheel.speedup_over(b))
    }
}

/// The full suite's results.
#[derive(Debug, Clone)]
pub struct SimbenchResults {
    /// Per-scenario results, in fixed order.
    pub scenarios: Vec<ScenarioResult>,
    /// Whole-suite wall-clock (including warm-ups and baseline runs).
    pub wall_seconds: f64,
}

/// Aggregate over the paired scenarios: total dispatches and total
/// median wall-clock per core. The ratio weights each scenario by where
/// time is actually spent instead of averaging per-scenario ratios.
#[derive(Debug, Clone, Copy)]
pub struct Aggregate {
    /// Total dispatched events across paired scenarios (one core's worth).
    pub events: u64,
    /// Summed median seconds on the wheel core.
    pub wheel_secs: f64,
    /// Summed median seconds on the heap baseline.
    pub baseline_secs: f64,
}

impl Aggregate {
    /// Aggregate wheel events/sec.
    pub fn wheel_eps(&self) -> f64 {
        self.events as f64 / self.wheel_secs.max(1e-12)
    }
    /// Aggregate baseline events/sec.
    pub fn baseline_eps(&self) -> f64 {
        self.events as f64 / self.baseline_secs.max(1e-12)
    }
    /// Aggregate speedup.
    pub fn speedup(&self) -> f64 {
        self.baseline_secs / self.wheel_secs.max(1e-12)
    }
}

fn fmt_eps(eps: f64) -> String {
    format!("{:.2}", eps / 1e6)
}

impl SimbenchResults {
    /// The paired-scenario aggregate.
    pub fn aggregate(&self) -> Aggregate {
        let mut agg = Aggregate { events: 0, wheel_secs: 0.0, baseline_secs: 0.0 };
        for s in &self.scenarios {
            if let Some(b) = &s.baseline {
                agg.events += s.events;
                agg.wheel_secs += s.wheel.median_secs();
                agg.baseline_secs += b.median_secs();
            }
        }
        agg
    }

    /// Human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>10} {:>14} {:>14} {:>8}",
            "scenario", "events", "wheel Mev/s", "heap Mev/s", "speedup"
        );
        for s in &self.scenarios {
            let _ = writeln!(
                out,
                "{:<18} {:>10} {:>14} {:>14} {:>8}",
                s.name,
                s.events,
                fmt_eps(s.wheel_eps()),
                s.baseline_eps().map_or("-".to_string(), fmt_eps),
                s.speedup().map_or("-".to_string(), |x| format!("{x:.2}x")),
            );
        }
        let a = self.aggregate();
        let _ = writeln!(
            out,
            "{:<18} {:>10} {:>14} {:>14} {:>8}",
            "aggregate(paired)",
            a.events,
            fmt_eps(a.wheel_eps()),
            fmt_eps(a.baseline_eps()),
            format!("{:.2}x", a.speedup()),
        );
        out
    }

    /// The deterministic check artifact: per-scenario dispatch counts and
    /// final instants. Byte-identical across runs and machines; CI diffs
    /// two consecutive runs and the committed copy.
    pub fn check_json(&self) -> String {
        let mut out = String::from("{\"suite\":\"simbench-check\",\"scenarios\":[");
        for (i, s) in self.scenarios.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"events\":{},\"final_now_ps\":{}}}",
                s.name, s.events, s.final_now_ps
            );
        }
        out.push_str("]}\n");
        out
    }

    /// The wall-clock artifact, in the `BENCH_*.json` family. `history` is
    /// the raw inner JSON of prior trajectory entries (empty for a fresh
    /// file); the current run is appended as a new entry labelled `label`.
    pub fn bench_json(&self, label: &str, history: &str) -> String {
        let a = self.aggregate();
        let mut out = String::from("{\"suite\":\"simbench\",\"scenarios\":[");
        for (i, s) in self.scenarios.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"events\":{},\"wheel_events_per_sec\":{:.0}",
                s.name,
                s.events,
                s.wheel_eps()
            );
            if let (Some(beps), Some(sp)) = (s.baseline_eps(), s.speedup()) {
                let _ = write!(out, ",\"baseline_events_per_sec\":{beps:.0},\"speedup\":{sp:.2}");
            }
            out.push('}');
        }
        let _ = write!(
            out,
            "],\"aggregate\":{{\"events\":{},\"wheel_events_per_sec\":{:.0},\
             \"baseline_events_per_sec\":{:.0},\"speedup\":{:.2}}},\
             \"wall_seconds\":{:.3},\"history\":[",
            a.events,
            a.wheel_eps(),
            a.baseline_eps(),
            a.speedup(),
            self.wall_seconds,
        );
        if !history.is_empty() {
            out.push_str(history);
            out.push(',');
        }
        let _ = writeln!(
            out,
            "{{\"label\":\"{}\",\"events_per_sec\":{:.0},\"baseline_events_per_sec\":{:.0},\
             \"speedup\":{:.2}}}]}}",
            label,
            a.wheel_eps(),
            a.baseline_eps(),
            a.speedup(),
        );
        out
    }
}

/// Extracts the inner JSON of the `history` array from a previously written
/// `BENCH_simbench.json`, so a new run extends the trajectory instead of
/// restarting it. Returns `""` when the file content has no history.
pub fn extract_history(bench_json: &str) -> &str {
    let Some(start) = bench_json.find("\"history\":[") else { return "" };
    let inner = &bench_json[start + "\"history\":[".len()..];
    // History entries are flat objects — the first `]` closes the array.
    match inner.find(']') {
        Some(end) => inner[..end].trim(),
        None => "",
    }
}

/// Runs one paired scenario: asserts both cores observe the same
/// `(events, final instant)`, then times each with `samples` runs.
fn paired(
    name: &'static str,
    samples: u32,
    run_wheel: impl Fn() -> Observed,
    run_heap: impl Fn() -> Observed,
) -> ScenarioResult {
    let w = run_wheel();
    let h = run_heap();
    assert_eq!(
        w, h,
        "simbench scenario {name}: wheel core and heap reference diverged \
         (events, final_now_ps)"
    );
    let wheel = bench_stats(samples, &run_wheel);
    let baseline = bench_stats(samples, &run_heap);
    ScenarioResult { name, events: w.0, final_now_ps: w.1, wheel, baseline: Some(baseline) }
}

/// Runs the full suite. `samples` timed runs per scenario per core
/// (median reported), after one warm-up each.
pub fn run_simbench(samples: u32) -> SimbenchResults {
    let suite_start = Instant::now();
    let scenarios = vec![
        paired(
            "timer_churn_32",
            samples,
            || timer_churn::<Sim>(32, 300_000),
            || timer_churn::<RefSim>(32, 300_000),
        ),
        paired(
            "timer_churn_64k",
            samples,
            || timer_churn::<Sim>(1 << 16, 300_000),
            || timer_churn::<RefSim>(1 << 16, 300_000),
        ),
        paired(
            "timer_churn_2m",
            samples,
            || timer_churn::<Sim>(1 << 21, 300_000),
            || timer_churn::<RefSim>(1 << 21, 300_000),
        ),
        paired(
            "fanout_burst_512",
            samples,
            || fanout_burst::<Sim>(512, 400_000),
            || fanout_burst::<RefSim>(512, 400_000),
        ),
        paired(
            "open_loop_1m",
            samples,
            || open_loop::<Sim>(1_000_000),
            || open_loop::<RefSim>(1_000_000),
        ),
        paired(
            "cancel_churn_256",
            samples,
            || cancel_churn::<Sim>(256, 250_000),
            || cancel_churn::<RefSim>(256, 250_000),
        ),
        serving_mini(samples),
    ];
    SimbenchResults { scenarios, wall_seconds: suite_start.elapsed().as_secs_f64() }
}

/// End-to-end platform run on the wheel core only: a scaled-down prefetch
/// microbenchmark through the full `kus-core` machinery. Reports absolute
/// simulator throughput on a real modelled workload; excluded from the
/// paired aggregate.
fn serving_mini(samples: u32) -> ScenarioResult {
    let exp = Experiment::new(
        "simbench/serving-mini",
        PlatformConfig::paper_default().without_replay_device().seed(7).fibers_per_core(4),
        || {
            Microbench::new(MicrobenchConfig {
                work_count: 100,
                mlp: 8,
                iters_per_fiber: 50,
                writes_per_iter: 0,
            })
        },
    )
    .expect("valid simbench config");
    let run = || {
        let r = exp.run();
        (r.sim_events, r.elapsed.as_ps())
    };
    let (events, final_now_ps) = run();
    let wheel = bench_stats(samples, run);
    ScenarioResult { name: "serving_mini", events, final_now_ps, wheel, baseline: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both cores observe identical (events, final instant) on every
    /// paired scenario shape, at test-sized budgets.
    #[test]
    fn cores_agree_on_scenarios() {
        assert_eq!(timer_churn::<Sim>(8, 2_000), timer_churn::<RefSim>(8, 2_000));
        assert_eq!(timer_churn::<Sim>(512, 2_000), timer_churn::<RefSim>(512, 2_000));
        assert_eq!(fanout_burst::<Sim>(16, 2_000), fanout_burst::<RefSim>(16, 2_000));
        assert_eq!(open_loop::<Sim>(5_000), open_loop::<RefSim>(5_000));
        assert_eq!(cancel_churn::<Sim>(16, 2_000), cancel_churn::<RefSim>(16, 2_000));
    }

    #[test]
    fn bench_stats_takes_the_median() {
        // An untimed 100 ms warm-up, then timed runs of 0, 50 and 5 ms:
        // the median is the 5 ms run.
        let mut sleeps = [100, 0, 50, 5].into_iter();
        let s = bench_stats(3, || {
            std::thread::sleep(std::time::Duration::from_millis(sleeps.next().unwrap()))
        });
        assert!((5_000_000..50_000_000).contains(&s.median_ns), "{s:?}");
    }

    #[test]
    fn speedup_is_a_ratio() {
        let (fast, slow) = (BenchStats { median_ns: 10 }, BenchStats { median_ns: 40 });
        assert_eq!(fast.speedup_over(&slow), 4.0);
    }

    #[test]
    fn history_extraction_round_trips() {
        let r = SimbenchResults {
            scenarios: vec![ScenarioResult {
                name: "t",
                events: 10,
                final_now_ps: 99,
                wheel: BenchStats { median_ns: 1 },
                baseline: None,
            }],
            wall_seconds: 0.0,
        };
        let first = r.bench_json("a", "");
        let h1 = extract_history(&first);
        assert!(h1.contains("\"label\":\"a\""));
        let second = r.bench_json("b", h1);
        let h2 = extract_history(&second);
        assert!(h2.contains("\"label\":\"a\"") && h2.contains("\"label\":\"b\""));
        assert!(second.ends_with("]}\n"));
    }

    #[test]
    fn check_json_is_deterministic_across_runs() {
        let mk = || {
            let (events, final_now_ps) = open_loop::<Sim>(2_000);
            SimbenchResults {
                scenarios: vec![ScenarioResult {
                    name: "open_loop",
                    events,
                    final_now_ps,
                    wheel: BenchStats { median_ns: 1 },
                    baseline: None,
                }],
                wall_seconds: 1.23,
            }
        };
        assert_eq!(mk().check_json(), mk().check_json());
    }
}
