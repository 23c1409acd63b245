//! Reproduction of every data figure in the paper's evaluation (§V).
//!
//! Each `figN` function runs the same experiment the paper plots and
//! returns its data series; the `kus-bench` crate's `figures` binary prints
//! them, and the integration tests assert the headline shapes. Table I of
//! the paper is a qualitative taxonomy with no data, so Figures 2–10 are
//! the complete set of quantitative artifacts.
//!
//! All values are the paper's metric: work IPC normalized to the
//! single-core, single-threaded, on-demand DRAM baseline of the same
//! workload shape (for MLP variants, the baseline has matching MLP;
//! Fig. 10 normalizes each application to its own DRAM baseline).
//!
//! ## Execution model
//!
//! Every cell a figure needs is described as an [`Experiment`] and obtained
//! through the [`Runner`] each generator takes, so the same code serves
//! three modes: `figN(&Runner::immediate(), q)` runs serially (the
//! reference the sweep engine is checked against); driven with a
//! collecting runner it *declares* its cells for the `kus-bench` sweep
//! engine to execute in parallel; and driven with a cached runner it
//! re-assembles byte-identical figures from the sweep's results.
//! [`registry`] lists every generator in paper order for such batch
//! runs.

use kus_core::prelude::*;
use kus_core::RunReport;
use kus_sim::Span;

use crate::bfs::{BfsConfig, BfsWorkload};
use crate::bloom::{BloomConfig, BloomWorkload};
use crate::memcached::{MemcachedConfig, MemcachedWorkload};
use crate::microbench::{Microbench, MicrobenchConfig};

/// One data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// X coordinate (threads, cores, work count, …).
    pub x: f64,
    /// Normalized performance.
    pub y: f64,
}

/// One labelled curve.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The curve.
    pub points: Vec<Point>,
}

impl Series {
    /// The y value at the given x (panics if absent).
    pub fn at(&self, x: f64) -> f64 {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .unwrap_or_else(|| panic!("no point at x={x} in {}", self.label))
            .y
    }

    /// The maximum y value.
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|p| p.y).fold(0.0, f64::max)
    }
}

/// A reproduced figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Paper figure id, e.g. "fig3".
    pub id: &'static str,
    /// What the paper's caption says.
    pub title: &'static str,
    /// X-axis label.
    pub x_axis: &'static str,
    /// Y-axis label.
    pub y_axis: &'static str,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Finds a series by label (panics if absent).
    pub fn series(&self, label: &str) -> &Series {
        self.series
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("{}: no series {label}", self.id))
    }

    /// Renders an aligned text table of the figure's data.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        let _ = write!(out, "{:>12}", self.x_axis);
        for s in &self.series {
            let _ = write!(out, " {:>18}", s.label);
        }
        let _ = writeln!(out);
        let xs: Vec<f64> = self.series[0].points.iter().map(|p| p.x).collect();
        for (i, x) in xs.iter().enumerate() {
            let _ = write!(out, "{x:>12.0}");
            for s in &self.series {
                match s.points.get(i) {
                    Some(p) => {
                        let _ = write!(out, " {:>18.3}", p.y);
                    }
                    None => {
                        let _ = write!(out, " {:>18}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// How much simulated work to spend per point.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Microbenchmark iterations per fiber.
    pub iters: u64,
    /// Use the full two-phase record/replay device (the paper's
    /// methodology) instead of the single-phase idealized device.
    pub replay_device: bool,
    /// Fault plan applied to every run (inert by default, so paper-figure
    /// outputs are untouched unless faults are requested).
    pub faults: FaultPlan,
    /// Override the platform RNG seed (`None` keeps the paper default).
    pub seed: Option<u64>,
}

impl Quality {
    /// Fast smoke-test quality (idealized device, short loops).
    pub fn fast() -> Quality {
        Quality { iters: 250, replay_device: false, faults: FaultPlan::none(), seed: None }
    }

    /// Full quality: record/replay device, longer loops.
    pub fn full() -> Quality {
        Quality { replay_device: true, iters: 1200, ..Quality::fast() }
    }
}

fn base_cfg(q: Quality) -> PlatformConfig {
    let mut cfg = PlatformConfig::paper_default();
    if !q.replay_device {
        cfg = cfg.without_replay_device();
    }
    if let Some(s) = q.seed {
        cfg = cfg.seed(s);
    }
    if q.faults.is_active() {
        cfg = cfg.faults(q.faults);
    }
    cfg
}

/// The microbenchmark on `cfg` as an experiment cell.
fn ubench_exp(cfg: PlatformConfig, work: u32, mlp: usize, iters: u64) -> Experiment {
    let mc = MicrobenchConfig {
        work_count: work,
        mlp,
        iters_per_fiber: (iters / mlp as u64).max(10),
        writes_per_iter: 0,
    };
    Experiment::new(
        format!("ubench w={work} mlp={mlp} iters={} writes=0", mc.iters_per_fiber),
        cfg,
        move || Microbench::new(mc),
    )
    .expect("figure configuration is valid")
}

/// Runs the microbenchmark on `cfg` through the runner.
fn ubench(r: &Runner, cfg: PlatformConfig, work: u32, mlp: usize, iters: u64) -> RunReport {
    r.run(&ubench_exp(cfg, work, mlp, iters))
}

/// The single-core, single-thread, on-demand DRAM baseline at matching MLP.
fn ubench_baseline(r: &Runner, q: Quality, work: u32, mlp: usize) -> RunReport {
    let cfg = base_cfg(q).cores(1).baseline_twin();
    ubench(r, cfg, work, mlp, (q.iters * 4).max(1000))
}

/// The paper's default work-count for the thread-sweep figures.
const SWEEP_WORK: u32 = 100;

/// Thread counts used by the single-core sweeps.
const THREADS: [usize; 9] = [1, 2, 4, 6, 8, 10, 12, 14, 16];

/// Fig. 2: on-demand access of the microsecond device, work-count sweep.
pub fn fig2(r: &Runner, q: Quality) -> Figure {
    let works = [50u32, 100, 200, 500, 1000, 2000, 5000];
    let mut series = Vec::new();
    for lat_us in [1u64, 2, 4] {
        let mut points = Vec::new();
        for &w in &works {
            let base = ubench_baseline(r, q, w, 1);
            let dev = ubench(
                r,
                base_cfg(q)
                    .mechanism(Mechanism::OnDemand)
                    .device_latency(Span::from_us(lat_us)),
                w,
                1,
                q.iters.min(300),
            );
            points.push(Point { x: w as f64, y: dev.normalized_to(&base) });
        }
        series.push(Series { label: format!("{lat_us}us"), points });
    }
    Figure {
        id: "fig2",
        title: "On-demand access of microsecond-latency device",
        x_axis: "work-count",
        y_axis: "normalized work IPC",
        series,
    }
}

/// Fig. 3: prefetch-based access, thread sweep at 1/2/4 µs.
pub fn fig3(r: &Runner, q: Quality) -> Figure {
    let base = ubench_baseline(r, q, SWEEP_WORK, 1);
    let mut series = Vec::new();
    for lat_us in [1u64, 2, 4] {
        let mut points = Vec::new();
        for &t in &THREADS {
            let dev = ubench(
                r,
                base_cfg(q)
                    .mechanism(Mechanism::Prefetch)
                    .device_latency(Span::from_us(lat_us))
                    .fibers_per_core(t),
                SWEEP_WORK,
                1,
                q.iters,
            );
            points.push(Point { x: t as f64, y: dev.normalized_to(&base) });
        }
        series.push(Series { label: format!("{lat_us}us"), points });
    }
    Figure {
        id: "fig3",
        title: "Prefetch-based access with various latencies",
        x_axis: "threads",
        y_axis: "normalized work IPC",
        series,
    }
}

/// Fig. 4: 1 µs prefetch-based access at various work counts.
pub fn fig4(r: &Runner, q: Quality) -> Figure {
    let mut series = Vec::new();
    for w in [50u32, 100, 200, 400, 800] {
        let base = ubench_baseline(r, q, w, 1);
        let mut points = Vec::new();
        for &t in &THREADS {
            let dev = ubench(
                r,
                base_cfg(q).mechanism(Mechanism::Prefetch).fibers_per_core(t),
                w,
                1,
                q.iters,
            );
            points.push(Point { x: t as f64, y: dev.normalized_to(&base) });
        }
        series.push(Series { label: format!("W={w}"), points });
    }
    Figure {
        id: "fig4",
        title: "1us prefetch-based access with various work counts",
        x_axis: "threads",
        y_axis: "normalized work IPC",
        series,
    }
}

/// Fig. 5: multicore prefetch-based access (normalized to the single-core
/// baseline).
pub fn fig5(r: &Runner, q: Quality) -> Figure {
    let base = ubench_baseline(r, q, SWEEP_WORK, 1);
    let mut series = Vec::new();
    for cores in [1usize, 2, 4, 8] {
        let mut points = Vec::new();
        for t in [1usize, 2, 4, 6, 8] {
            let dev = ubench(
                r,
                base_cfg(q)
                    .mechanism(Mechanism::Prefetch)
                    .cores(cores)
                    .fibers_per_core(t),
                SWEEP_WORK,
                1,
                q.iters,
            );
            points.push(Point { x: t as f64, y: dev.normalized_to(&base) });
        }
        series.push(Series { label: format!("{cores}-core"), points });
    }
    Figure {
        id: "fig5",
        title: "Multicore prefetch-based access (1us)",
        x_axis: "threads/core",
        y_axis: "normalized work IPC",
        series,
    }
}

/// Fig. 6: 1 µs prefetch-based access at MLP 1/2/4, each normalized to the
/// matching-MLP DRAM baseline.
pub fn fig6(r: &Runner, q: Quality) -> Figure {
    let mut series = Vec::new();
    for mlp in [1usize, 2, 4] {
        let base = ubench_baseline(r, q, SWEEP_WORK, mlp);
        let mut points = Vec::new();
        for &t in &THREADS {
            let dev = ubench(
                r,
                base_cfg(q).mechanism(Mechanism::Prefetch).fibers_per_core(t),
                SWEEP_WORK,
                mlp,
                q.iters,
            );
            points.push(Point { x: t as f64, y: dev.normalized_to(&base) });
        }
        series.push(Series { label: format!("{mlp}-read"), points });
    }
    Figure {
        id: "fig6",
        title: "1us prefetch-based access at various MLP",
        x_axis: "threads",
        y_axis: "normalized work IPC",
        series,
    }
}

/// Fig. 7: application-managed queues vs prefetch, 1 µs and 4 µs.
pub fn fig7(r: &Runner, q: Quality) -> Figure {
    let base = ubench_baseline(r, q, SWEEP_WORK, 1);
    let threads = [1usize, 2, 4, 8, 10, 12, 16, 20, 24, 28, 32];
    let mut series = Vec::new();
    for (mech, label) in [(Mechanism::Prefetch, "prefetch"), (Mechanism::SoftwareQueue, "swq")] {
        for lat_us in [1u64, 4] {
            let mut points = Vec::new();
            for &t in &threads {
                let dev = ubench(
                    r,
                    base_cfg(q)
                        .mechanism(mech)
                        .device_latency(Span::from_us(lat_us))
                        .fibers_per_core(t),
                    SWEEP_WORK,
                    1,
                    q.iters,
                );
                points.push(Point { x: t as f64, y: dev.normalized_to(&base) });
            }
            series.push(Series { label: format!("{label}-{lat_us}us"), points });
        }
    }
    Figure {
        id: "fig7",
        title: "Application-managed queues vs prefetch-based access",
        x_axis: "threads",
        y_axis: "normalized work IPC",
        series,
    }
}

/// Fig. 8: multicore application-managed queues (24 threads/core),
/// normalized to the single-core baseline.
pub fn fig8(r: &Runner, q: Quality) -> Figure {
    let base = ubench_baseline(r, q, SWEEP_WORK, 1);
    let mut series = Vec::new();
    for lat_us in [1u64, 4] {
        let mut points = Vec::new();
        for cores in [1usize, 2, 4, 8, 12] {
            let dev = ubench(
                r,
                base_cfg(q)
                    .mechanism(Mechanism::SoftwareQueue)
                    .device_latency(Span::from_us(lat_us))
                    .cores(cores)
                    .fibers_per_core(24),
                SWEEP_WORK,
                1,
                q.iters,
            );
            points.push(Point { x: cores as f64, y: dev.normalized_to(&base) });
        }
        series.push(Series { label: format!("{lat_us}us"), points });
    }
    Figure {
        id: "fig8",
        title: "Multicore software-managed queues",
        x_axis: "cores",
        y_axis: "normalized work IPC",
        series,
    }
}

/// Fig. 9: MLP impact on software-managed queues, one and four cores.
pub fn fig9(r: &Runner, q: Quality) -> Figure {
    let threads = [1usize, 2, 4, 8, 12, 16, 24, 32];
    let mut series = Vec::new();
    for cores in [1usize, 4] {
        for mlp in [1usize, 2, 4] {
            let base = ubench_baseline(r, q, SWEEP_WORK, mlp);
            let mut points = Vec::new();
            for &t in &threads {
                let dev = ubench(
                    r,
                    base_cfg(q)
                        .mechanism(Mechanism::SoftwareQueue)
                        .cores(cores)
                        .fibers_per_core(t),
                    SWEEP_WORK,
                    mlp,
                    q.iters,
                );
                points.push(Point { x: t as f64, y: dev.normalized_to(&base) });
            }
            series.push(Series { label: format!("{cores}c-{mlp}-read"), points });
        }
    }
    Figure {
        id: "fig9",
        title: "MLP impact on software-managed queues (1us)",
        x_axis: "threads",
        y_axis: "normalized work IPC",
        series,
    }
}

/// The thread counts Fig. 10 sweeps for each application.
const APP_THREADS: [usize; 5] = [1, 4, 8, 16, 24];

/// One Fig.-10 application run as an experiment cell. The label carries the
/// app name and every workload parameter, so the sweep engine's
/// deduplication fingerprint is faithful.
fn app_exp(app: &str, cfg: PlatformConfig, q: Quality) -> Experiment {
    let lookups = q.iters.max(100);
    let exp = match app {
        "bfs" => {
            let bc = BfsConfig {
                scale: 12,
                max_visits: (q.iters * 4).max(400),
                ..BfsConfig::default()
            };
            Experiment::new(
                format!("bfs scale={} visits={}", bc.scale, bc.max_visits),
                cfg,
                move || BfsWorkload::new(bc),
            )
        }
        "bloom" => {
            let bc = BloomConfig { lookups_per_fiber: lookups / 2, ..BloomConfig::default() };
            Experiment::new(
                format!("bloom lookups={}", bc.lookups_per_fiber),
                cfg,
                move || BloomWorkload::new(bc),
            )
        }
        "memcached" => {
            let mc =
                MemcachedConfig { lookups_per_fiber: lookups / 2, ..MemcachedConfig::default() };
            Experiment::new(
                format!("memcached lookups={}", mc.lookups_per_fiber),
                cfg,
                move || MemcachedWorkload::new(mc),
            )
        }
        "ubench-4read" => {
            let mc = MicrobenchConfig {
                work_count: SWEEP_WORK,
                mlp: 4,
                iters_per_fiber: (q.iters / 4).max(50),
                writes_per_iter: 0,
            };
            Experiment::new(
                format!("ubench w={} mlp=4 iters={} writes=0", SWEEP_WORK, mc.iters_per_fiber),
                cfg,
                move || Microbench::new(mc),
            )
        }
        other => panic!("unknown app {other}"),
    };
    exp.expect("figure configuration is valid")
}

fn app_run(
    r: &Runner,
    q: Quality,
    app: &str,
    mech: Mechanism,
    cores: usize,
    fibers: usize,
) -> RunReport {
    let cfg = base_cfg(q).mechanism(mech).cores(cores).fibers_per_core(fibers);
    r.run(&app_exp(app, cfg, q))
}

fn app_baseline(r: &Runner, q: Quality, app: &str) -> RunReport {
    let cfg = base_cfg(q).cores(1).baseline_twin();
    r.run(&app_exp(app, cfg, q))
}

/// Fig. 10: application case studies — four panels as the paper lays them
/// out: (a) prefetch 1-core, (b) swq 1-core, (c) prefetch 8-core,
/// (d) swq 8-core; each returned as its own [`Figure`] with one series per
/// application, swept over thread counts, normalized to that application's
/// own single-core DRAM baseline.
pub fn fig10(r: &Runner, q: Quality) -> Vec<Figure> {
    let apps = ["bfs", "bloom", "memcached", "ubench-4read"];
    let panels = [
        ("fig10a", "Applications, prefetch, 1 core", Mechanism::Prefetch, 1usize),
        ("fig10b", "Applications, swq, 1 core", Mechanism::SoftwareQueue, 1),
        ("fig10c", "Applications, prefetch, 8 cores", Mechanism::Prefetch, 8),
        ("fig10d", "Applications, swq, 8 cores", Mechanism::SoftwareQueue, 8),
    ];
    let baselines: Vec<RunReport> = apps.iter().map(|a| app_baseline(r, q, a)).collect();
    panels
        .into_iter()
        .map(|(id, title, mech, cores)| {
            let mut series = Vec::new();
            for (app, base) in apps.iter().zip(&baselines) {
                let mut points = Vec::new();
                for &t in &APP_THREADS {
                    let dev = app_run(r, q, app, mech, cores, t);
                    points.push(Point { x: t as f64, y: dev.normalized_to(base) });
                }
                series.push(Series { label: app.to_string(), points });
            }
            Figure { id, title, x_axis: "threads/core", y_axis: "normalized performance", series }
        })
        .collect()
}

/// Ablation: lifting the 10-LFB cap lets even a 4 µs device approach DRAM
/// (§V-B "Implications": per-core queues should hold ≈20 × latency-in-µs).
pub fn ablation_lfb(r: &Runner, q: Quality) -> Figure {
    let base = ubench_baseline(r, q, SWEEP_WORK, 1);
    let mut series = Vec::new();
    for lfbs in [10usize, 20, 40, 80] {
        let mut points = Vec::new();
        for t in [10usize, 20, 40, 60, 80] {
            let dev = ubench(
                r,
                base_cfg(q)
                    .mechanism(Mechanism::Prefetch)
                    .device_latency(Span::from_us(4))
                    .lfbs(lfbs)
                    .device_path_credits(256)
                    .fibers_per_core(t),
                SWEEP_WORK,
                1,
                q.iters,
            );
            points.push(Point { x: t as f64, y: dev.normalized_to(&base) });
        }
        series.push(Series { label: format!("{lfbs} LFBs"), points });
    }
    Figure {
        id: "ablation_lfb",
        title: "Lifting the LFB cap (4us device, uncore cap lifted)",
        x_axis: "threads",
        y_axis: "normalized work IPC",
        series,
    }
}

/// Ablation: lifting the 14-entry chip-level queue restores multicore
/// prefetch scaling.
pub fn ablation_uncore(r: &Runner, q: Quality) -> Figure {
    let base = ubench_baseline(r, q, SWEEP_WORK, 1);
    let mut series = Vec::new();
    for credits in [14usize, 56, 224] {
        let mut points = Vec::new();
        for cores in [1usize, 2, 4, 8] {
            let dev = ubench(
                r,
                base_cfg(q)
                    .mechanism(Mechanism::Prefetch)
                    .device_path_credits(credits)
                    .cores(cores)
                    .fibers_per_core(10),
                SWEEP_WORK,
                1,
                q.iters,
            );
            points.push(Point { x: cores as f64, y: dev.normalized_to(&base) });
        }
        series.push(Series { label: format!("{credits} entries"), points });
    }
    Figure {
        id: "ablation_uncore",
        title: "Lifting the chip-level device-path queue (1us, 10 threads/core)",
        x_axis: "cores",
        y_axis: "normalized work IPC",
        series,
    }
}

/// Ablation: the unmodified 2 µs Pth context switch vs the optimized 35 ns
/// switch.
pub fn ablation_ctx_switch(r: &Runner, q: Quality) -> Figure {
    let base = ubench_baseline(r, q, SWEEP_WORK, 1);
    let mut series = Vec::new();
    for (label, ns) in [("35ns switch", 35u64), ("2us switch (stock Pth)", 2000)] {
        let mut points = Vec::new();
        for &t in &THREADS {
            let dev = ubench(
                r,
                base_cfg(q)
                    .mechanism(Mechanism::Prefetch)
                    .ctx_switch(Span::from_ns(ns))
                    .fibers_per_core(t),
                SWEEP_WORK,
                1,
                q.iters,
            );
            points.push(Point { x: t as f64, y: dev.normalized_to(&base) });
        }
        series.push(Series { label: label.to_string(), points });
    }
    Figure {
        id: "ablation_ctx_switch",
        title: "Context-switch cost (1us, prefetch)",
        x_axis: "threads",
        y_axis: "normalized work IPC",
        series,
    }
}

/// Ablation: software-queue designs without the doorbell-request flag or
/// without burst descriptor reads ("strictly inferior", §III-A).
pub fn ablation_swq_opts(r: &Runner, q: Quality) -> Figure {
    let base = ubench_baseline(r, q, SWEEP_WORK, 1);
    let variants: [(&str, bool, usize); 3] = [
        ("optimized", false, 8),
        ("no doorbell flag", true, 8),
        ("no burst reads", false, 1),
    ];
    let mut series = Vec::new();
    for (label, doorbell_always, burst) in variants {
        let mut points = Vec::new();
        for t in [1usize, 4, 8, 16, 24, 32] {
            let cfg = base_cfg(q)
                .mechanism(Mechanism::SoftwareQueue)
                .fibers_per_core(t)
                .swq_doorbell_every_enqueue(doorbell_always)
                .swq_fetch_burst(burst);
            let dev = ubench(r, cfg, SWEEP_WORK, 1, q.iters);
            points.push(Point { x: t as f64, y: dev.normalized_to(&base) });
        }
        series.push(Series { label: label.to_string(), points });
    }
    Figure {
        id: "ablation_swq_opts",
        title: "Software-queue design options (1us)",
        x_axis: "threads",
        y_axis: "normalized work IPC",
        series,
    }
}

/// Extension (§VII future work): posted writes mixed into the read loop —
/// the paper predicts write latency "can be more easily hidden … without
/// requiring prefetch instructions". The curve should stay essentially
/// flat as writes are added.
pub fn ext_writes(r: &Runner, q: Quality) -> Figure {
    let base = ubench_baseline(r, q, SWEEP_WORK, 1);
    let mut series = Vec::new();
    for mech in [Mechanism::OnDemand, Mechanism::Prefetch] {
        let fibers = if mech == Mechanism::Prefetch { 10 } else { 1 };
        let mut points = Vec::new();
        for writes in [0u32, 1, 2, 4] {
            let mc = MicrobenchConfig {
                work_count: SWEEP_WORK,
                mlp: 1,
                iters_per_fiber: q.iters,
                writes_per_iter: writes,
            };
            let cfg = base_cfg(q).mechanism(mech).fibers_per_core(fibers);
            let exp = Experiment::new(
                format!(
                    "ubench w={} mlp=1 iters={} writes={writes}",
                    SWEEP_WORK, mc.iters_per_fiber
                ),
                cfg,
                move || Microbench::new(mc),
            )
            .expect("figure configuration is valid");
            let dev = r.run(&exp);
            points.push(Point { x: writes as f64, y: dev.normalized_to(&base) });
        }
        series.push(Series { label: format!("{mech} ({fibers}t)"), points });
    }
    Figure {
        id: "ext_writes",
        title: "Extension: posted writes mixed into the loop (1us)",
        x_axis: "writes/iter",
        y_axis: "normalized work IPC",
        series,
    }
}

/// Extension (§III): SMT gives on-demand accesses a second hardware
/// context — "allowing a core to make progress in one context while
/// another context is blocked on a long-latency access". The paper
/// measures with hyper-threading disabled; this experiment turns it on.
pub fn ext_smt(r: &Runner, q: Quality) -> Figure {
    let base = ubench_baseline(r, q, SWEEP_WORK, 1);
    let mut series = Vec::new();
    for smt in [1usize, 2] {
        let mut points = Vec::new();
        for lat_us in [1u64, 2, 4] {
            let cfg = base_cfg(q)
                .mechanism(Mechanism::OnDemand)
                .device_latency(Span::from_us(lat_us))
                .smt(smt);
            let dev = ubench(r, cfg, SWEEP_WORK, 1, q.iters.min(300));
            points.push(Point { x: lat_us as f64, y: dev.normalized_to(&base) });
        }
        series.push(Series { label: format!("smt={smt}"), points });
    }
    Figure {
        id: "ext_smt",
        title: "Extension: SMT contexts under on-demand access",
        x_axis: "device latency (us)",
        y_axis: "normalized work IPC",
        series,
    }
}

/// Extension: latency *jitter*. The paper's emulator uses a fixed response
/// delay; flash-class devices spread around their mean. With mean-preserving
/// uniform jitter the prefetch mechanism needs a few extra threads (late
/// responses stall their fiber's turn), but the plateau survives — the
/// paper's conclusions are not an artifact of fixed latency.
pub fn ext_jitter(r: &Runner, q: Quality) -> Figure {
    let base = ubench_baseline(r, q, SWEEP_WORK, 1);
    let mut series = Vec::new();
    // 2 us mean leaves ~1.2 us of internal service time to jitter over.
    for spread_ns in [0u64, 800, 1600, 2400] {
        let mut points = Vec::new();
        for t in [2usize, 6, 10, 14, 16, 20, 24] {
            let cfg = base_cfg(q)
                .mechanism(Mechanism::Prefetch)
                .device_latency(Span::from_us(2))
                .device_jitter(Span::from_ns(spread_ns))
                .fibers_per_core(t);
            let dev = ubench(r, cfg, SWEEP_WORK, 1, q.iters);
            points.push(Point { x: t as f64, y: dev.normalized_to(&base) });
        }
        series.push(Series { label: format!("jitter={spread_ns}ns"), points });
    }
    Figure {
        id: "ext_jitter",
        title: "Extension: response-time jitter (2us mean, prefetch)",
        x_axis: "threads",
        y_axis: "normalized work IPC",
        series,
    }
}

/// A figure generator the batch drivers can call with any [`Runner`].
pub type FigureThunk = Box<dyn Fn(&Runner, Quality) -> Vec<Figure> + Send + Sync>;

/// One registry entry: a stable figure id plus its generator.
pub struct RegistryEntry {
    /// The id used by `--fig` prefix selection (e.g. "fig3",
    /// "ablation_lfb").
    pub id: &'static str,
    /// The generator (a figure may expand into several panels, like
    /// Fig. 10).
    pub thunk: FigureThunk,
}

/// Every figure generator in paper order; with `ablations`, the ablation
/// and extension studies as well. This is the single figure list shared by
/// the `figures` binary, the sweep engine, and CI.
pub fn registry(ablations: bool) -> Vec<RegistryEntry> {
    fn single(id: &'static str, f: fn(&Runner, Quality) -> Figure) -> RegistryEntry {
        RegistryEntry { id, thunk: Box::new(move |r, q| vec![f(r, q)]) }
    }
    let mut entries = vec![
        single("fig2", fig2),
        single("fig3", fig3),
        single("fig4", fig4),
        single("fig5", fig5),
        single("fig6", fig6),
        single("fig7", fig7),
        single("fig8", fig8),
        single("fig9", fig9),
        RegistryEntry { id: "fig10", thunk: Box::new(fig10) },
    ];
    if ablations {
        entries.push(single("ablation_lfb", ablation_lfb));
        entries.push(single("ablation_uncore", ablation_uncore));
        entries.push(single("ablation_ctx_switch", ablation_ctx_switch));
        entries.push(single("ablation_swq_opts", ablation_swq_opts));
        entries.push(single("ext_writes", ext_writes));
        entries.push(single("ext_smt", ext_smt));
        entries.push(single("ext_jitter", ext_jitter));
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_helpers() {
        let s = Series {
            label: "t".into(),
            points: vec![Point { x: 1.0, y: 0.5 }, Point { x: 2.0, y: 0.9 }],
        };
        assert_eq!(s.at(2.0), 0.9);
        assert_eq!(s.peak(), 0.9);
    }

    #[test]
    fn render_table_is_aligned() {
        let f = Figure {
            id: "figX",
            title: "t",
            x_axis: "x",
            y_axis: "y",
            series: vec![Series {
                label: "a".into(),
                points: vec![Point { x: 1.0, y: 0.25 }],
            }],
        };
        let t = f.render_table();
        assert!(t.contains("figX"));
        assert!(t.contains("0.250"));
    }

    #[test]
    fn registry_matches_paper_order() {
        let ids: Vec<&str> = registry(true).iter().map(|e| e.id).collect();
        assert_eq!(&ids[..3], &["fig2", "fig3", "fig4"]);
        assert!(ids.contains(&"fig10"));
        assert!(ids.contains(&"ext_jitter"));
        assert_eq!(registry(false).len(), 9);
    }

    /// The collect pass is pure in the runner: collecting twice yields the
    /// same cell set, which is what guarantees the cached re-assembly pass
    /// finds every report it asks for.
    #[test]
    fn collect_pass_is_deterministic() {
        let q = Quality { iters: 20, ..Quality::fast() };
        let fps = |_: ()| {
            let r = Runner::collecting();
            let _ = fig3(&r, q);
            r.into_cells().iter().map(|e| e.fingerprint()).collect::<Vec<_>>()
        };
        let a = fps(());
        let b = fps(());
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Dedup: the shared baseline appears exactly once.
        let unique: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(unique.len(), a.len());
    }
}
