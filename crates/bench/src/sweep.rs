//! The parallel sweep engine: declarative configuration matrices executed
//! on a `std::thread` work-stealing pool.
//!
//! Every paper figure is a configuration matrix (mechanism × device latency
//! × MLP × fibers × seed) whose cells are independent deterministic
//! [`Experiment`] runs. This module expands such a matrix
//! ([`SweepSpec::expand`]) and executes it in parallel ([`run_cells`]) with:
//!
//! - **shared-nothing workers** — each cell constructs its entire `Sim`
//!   (with its `Rc`/`RefCell` internals) on the worker thread that runs it;
//!   only the [`Experiment`] *description* and the finished [`RunReport`]
//!   cross threads;
//! - **deterministic result ordering** — results are keyed by cell index
//!   and merged in matrix order, so every emitter below is byte-identical
//!   between `--jobs 1` and `--jobs N` (locked down by
//!   `tests/sweep_equivalence.rs`);
//! - **per-cell panic isolation** — a poisoned cell (or one whose
//!   configuration failed validation at expansion time) reports an error
//!   row instead of killing the sweep;
//! - **work stealing** — cells are striped round-robin across per-worker
//!   deques; an idle worker pops its own queue from the front and steals
//!   from the back of its victims', so a queue stuck behind one expensive
//!   cell (an 8-core record/replay run, say) drains through the rest of the
//!   pool;
//! - a **progress/ETA line** on stderr and machine-readable
//!   [JSON](SweepResults::to_json)/[CSV](SweepResults::to_csv) emitters for
//!   the `--json`/`--csv` artifacts.
//!
//! The figure pipeline ([`run_figures`]) drives the engine through the
//! [`Runner`] protocol: a collect pass harvests every experiment a figure
//! set requests (deduplicated by fingerprint), the pool executes the unique
//! cells, and a cached pass re-assembles the figures from the results —
//! identical output to the serial path, minus the wall-clock.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use kus_core::prelude::*;
use kus_load::{ArrivalProcess, LoadSpec};
use kus_sim::json_escape;
use kus_workloads::figures::{Figure, Quality, RegistryEntry};

use crate::axes::{product, Knob, Point};

/// One expanded matrix cell: a label plus either a runnable experiment or
/// the expansion-time validation error.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Human-readable cell label (base label + the axis values applied).
    pub label: String,
    /// The experiment, or why this cell cannot run.
    pub exp: Result<Experiment, String>,
}

impl SweepCell {
    /// Wraps a standalone experiment as a cell.
    pub fn from_experiment(exp: Experiment) -> SweepCell {
        SweepCell { label: exp.label().to_string(), exp: Ok(exp) }
    }
}

/// A declarative sweep: a base experiment and the axes to vary.
///
/// Empty axes keep the base configuration's value; non-empty axes multiply
/// into the job matrix in the fixed order *mechanism → device latency →
/// cores → fibers/core → SMT → LFBs → device-path credits → ring capacity →
/// fetch burst → ctx switch → seed* (seed innermost), which is also the
/// deterministic result order. Cells come from the same product of axes
/// the serving matrix expands.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    base: Experiment,
    /// Each axis's points, in [`SWEEP_AXES`] order; an empty one is no axis.
    axes: [Vec<Point>; 11],
}

/// The sweep's axes by label tag, in their fixed matrix order.
const SWEEP_AXES: [&str; 11] =
    ["mech", "lat", "cores", "fibers", "smt", "lfbs", "credits", "ring", "burst", "ctx", "seed"];

impl SweepSpec {
    /// A sweep over `base` with no axes (a single cell).
    pub fn new(base: Experiment) -> SweepSpec {
        SweepSpec { base, axes: Default::default() }
    }

    /// Sets the axis tagged `tag` to one `<tag>=<value>` point per value.
    fn axis<T: Copy + fmt::Display>(mut self, tag: &str, v: &[T], knob: fn(T) -> Knob) -> Self {
        let slot = SWEEP_AXES.iter().position(|&t| t == tag).expect("a sweep axis tag");
        self.axes[slot] =
            v.iter().map(|&x| Point::new(knob(x), format!("{tag}={x}"), Vec::new())).collect();
        self
    }

    /// Sweeps the access mechanism.
    pub fn mechanisms(self, v: &[Mechanism]) -> Self {
        self.axis("mech", v, Knob::Mechanism)
    }

    /// Sweeps the host-observed device latency.
    pub fn device_latencies(self, v: &[Span]) -> Self {
        self.axis("lat", v, Knob::Latency)
    }

    /// Sweeps the core count.
    pub fn cores(self, v: &[usize]) -> Self {
        self.axis("cores", v, Knob::Cores)
    }

    /// Sweeps the fibers-per-core count.
    pub fn fibers_per_core(self, v: &[usize]) -> Self {
        self.axis("fibers", v, Knob::Fibers)
    }

    /// Sweeps the SMT context count.
    pub fn smt(self, v: &[usize]) -> Self {
        self.axis("smt", v, Knob::Smt)
    }

    /// Sweeps the per-core LFB count.
    pub fn lfb_counts(self, v: &[usize]) -> Self {
        self.axis("lfbs", v, Knob::Lfbs)
    }

    /// Sweeps the chip-level device-path queue capacity.
    pub fn device_path_credits(self, v: &[usize]) -> Self {
        self.axis("credits", v, Knob::Credits)
    }

    /// Sweeps the SWQ request-ring capacity.
    pub fn swq_ring_capacities(self, v: &[usize]) -> Self {
        self.axis("ring", v, Knob::Ring)
    }

    /// Sweeps the SWQ descriptor fetch-burst size.
    pub fn swq_fetch_bursts(self, v: &[usize]) -> Self {
        self.axis("burst", v, Knob::Burst)
    }

    /// Sweeps the user-mode context-switch cost.
    pub fn ctx_switches(self, v: &[Span]) -> Self {
        self.axis("ctx", v, Knob::CtxSwitch)
    }

    /// Sweeps the platform RNG seed.
    pub fn seeds(self, v: &[u64]) -> Self {
        self.axis("seed", v, Knob::Seed)
    }

    /// The number of cells this spec expands into.
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(|a| a.len().max(1)).product()
    }

    /// Expands the matrix into cells, in matrix order. Cells whose
    /// configuration fails [`PlatformConfig::validate`] become error cells
    /// (they report an error row; they never abort the sweep).
    pub fn expand(&self) -> Vec<SweepCell> {
        let axes: Vec<&Vec<Point>> = self.axes.iter().filter(|a| !a.is_empty()).collect();
        // Every sweep knob is a platform knob: the product's serving spec
        // goes unread.
        let unread = LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 1.0 });
        product(self.base.label(), unread, self.base.config(), &axes)
            .map(|d| SweepCell {
                exp: self.base.relabeled(d.label.clone(), d.cfg).map_err(|e| e.to_string()),
                label: d.label,
            })
            .collect()
    }
}

/// Execution options for [`run_cells`].
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads (0 = one per available hardware thread).
    pub jobs: usize,
    /// Emit a progress/ETA line on stderr while the sweep runs.
    pub progress: bool,
}

impl SweepOptions {
    /// Options with an explicit job count and no progress line.
    pub fn jobs(jobs: usize) -> SweepOptions {
        SweepOptions { jobs, progress: false }
    }

    fn resolved_jobs(&self, cells: usize) -> usize {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let want = if self.jobs == 0 { hw } else { self.jobs };
        want.clamp(1, cells.max(1))
    }
}

/// One executed cell, in matrix order.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Cell index in matrix order.
    pub index: usize,
    /// Cell label.
    pub label: String,
    /// The configuration the cell ran (absent when expansion already
    /// failed).
    pub config: Option<PlatformConfig>,
    /// The report, or the panic/validation message for a poisoned cell.
    pub outcome: Result<RunReport, String>,
}

/// All results of one sweep, in matrix order.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// Per-cell results, indexed by matrix order.
    pub cells: Vec<CellResult>,
    /// Wall-clock seconds the pool spent (not part of any emitter output —
    /// the emitters must be byte-identical across job counts).
    pub wall_seconds: f64,
}

impl SweepResults {
    /// Successful (index, report) pairs, in matrix order.
    pub fn reports(&self) -> impl Iterator<Item = (&CellResult, &RunReport)> {
        self.cells.iter().filter_map(|c| c.outcome.as_ref().ok().map(|r| (c, r)))
    }

    /// Error rows, in matrix order.
    pub fn errors(&self) -> impl Iterator<Item = (&CellResult, &str)> {
        self.cells.iter().filter_map(|c| c.outcome.as_ref().err().map(|e| (c, e.as_str())))
    }

    /// Machine-readable JSON (one object per cell, matrix order).
    ///
    /// Byte-identical for a given cell set regardless of `--jobs`: every
    /// value is taken from the deterministic reports, floats are printed
    /// with fixed precision, and no timing or thread identity leaks in.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"index\":{},\"label\":\"{}\"", c.index, json_escape(&c.label)));
            if let Some(cfg) = &c.config {
                out.push_str(&format!(
                    ",\"mechanism\":\"{}\",\"backing\":\"{}\",\"device_latency_ns\":{},\"cores\":{},\"smt\":{},\"fibers_per_core\":{},\"lfbs\":{},\"device_path_credits\":{},\"swq_ring_capacity\":{},\"swq_fetch_burst\":{},\"ctx_switch_ns\":{},\"seed\":{}",
                    cfg.mechanism,
                    cfg.backing,
                    cfg.device_latency.as_ns(),
                    cfg.cores,
                    cfg.smt,
                    cfg.fibers_per_core,
                    cfg.core.lfb_count,
                    cfg.device_path_credits,
                    cfg.swq_ring_capacity,
                    cfg.swq_fetch_burst,
                    cfg.ctx_switch.as_ns(),
                    cfg.seed,
                ));
            }
            match &c.outcome {
                Ok(r) => {
                    out.push_str(&format!(
                        ",\"ok\":true,\"elapsed_ns\":{},\"work_insts\":{},\"accesses\":{},\"writes\":{},\"switches\":{},\"doorbells\":{},\"lfb_max\":{},\"device_path_max\":{},\"work_ipc\":{:.9}",
                        r.elapsed.as_ns(),
                        r.work_insts,
                        r.accesses,
                        r.writes,
                        r.switches,
                        r.doorbells,
                        r.lfb_max,
                        r.device_path_max,
                        r.work_ipc(),
                    ));
                    match &r.trace {
                        Some(t) => out.push_str(&format!(
                            ",\"trace_hash\":\"{:016x}\",\"trace_events\":{}",
                            t.hash, t.count
                        )),
                        None => out.push_str(",\"trace_hash\":null"),
                    }
                }
                Err(e) => {
                    out.push_str(&format!(",\"ok\":false,\"error\":\"{}\"", json_escape(e)));
                }
            }
            out.push('}');
            if i + 1 < self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Machine-readable CSV (header + one row per cell, matrix order).
    /// Deterministic for the same reasons as [`SweepResults::to_json`].
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "index,label,ok,mechanism,backing,device_latency_ns,cores,smt,fibers_per_core,lfbs,device_path_credits,seed,elapsed_ns,work_insts,accesses,work_ipc,trace_hash,error\n",
        );
        for c in &self.cells {
            let (mech, backing, lat, cores, smt, fibers, lfbs, credits, seed) = match &c.config {
                Some(cfg) => (
                    cfg.mechanism.to_string(),
                    cfg.backing.to_string(),
                    cfg.device_latency.as_ns().to_string(),
                    cfg.cores.to_string(),
                    cfg.smt.to_string(),
                    cfg.fibers_per_core.to_string(),
                    cfg.core.lfb_count.to_string(),
                    cfg.device_path_credits.to_string(),
                    cfg.seed.to_string(),
                ),
                None => Default::default(),
            };
            let (ok, elapsed, insts, accesses, ipc, hash, err) = match &c.outcome {
                Ok(r) => (
                    "true",
                    r.elapsed.as_ns().to_string(),
                    r.work_insts.to_string(),
                    r.accesses.to_string(),
                    format!("{:.9}", r.work_ipc()),
                    r.trace.as_ref().map(|t| format!("{:016x}", t.hash)).unwrap_or_default(),
                    String::new(),
                ),
                Err(e) => (
                    "false",
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    e.clone(),
                ),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                c.index,
                csv_field(&c.label),
                ok,
                mech,
                backing,
                lat,
                cores,
                smt,
                fibers,
                lfbs,
                credits,
                seed,
                elapsed,
                insts,
                accesses,
                ipc,
                hash,
                csv_field(&err),
            ));
        }
        out
    }
}

pub(crate) fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_string()
    }
}

/// Executes `cells` on a work-stealing pool and returns results in matrix
/// order. See the module docs for the execution guarantees.
pub fn run_cells(cells: Vec<SweepCell>, opts: &SweepOptions) -> SweepResults {
    let n = cells.len();
    let jobs = opts.resolved_jobs(n);
    let start = Instant::now();

    // Settle expansion-time failures immediately; only runnable cells are
    // striped across the worker deques.
    let mut slots: Vec<Mutex<Option<CellResult>>> = Vec::with_capacity(n);
    let mut runnable: Vec<(usize, &Experiment)> = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        match &c.exp {
            Ok(exp) => {
                slots.push(Mutex::new(None));
                runnable.push((i, exp));
            }
            Err(e) => slots.push(Mutex::new(Some(CellResult {
                index: i,
                label: c.label.clone(),
                config: None,
                outcome: Err(format!("invalid configuration: {e}")),
            }))),
        }
    }
    let queues: Vec<Mutex<VecDeque<(usize, &Experiment)>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for (k, job) in runnable.iter().enumerate() {
        queues[k % jobs].lock().unwrap().push_back(*job);
    }

    let done = AtomicUsize::new(0);
    let total = runnable.len();
    let progress = Mutex::new(());
    std::thread::scope(|s| {
        for w in 0..jobs {
            let queues = &queues;
            let slots = &slots;
            let cells = &cells;
            let done = &done;
            let progress = &progress;
            s.spawn(move || loop {
                // Own queue from the front; victims from the back.
                let mut job = queues[w].lock().unwrap().pop_front();
                if job.is_none() {
                    for v in 1..jobs {
                        job = queues[(w + v) % jobs].lock().unwrap().pop_back();
                        if job.is_some() {
                            break;
                        }
                    }
                }
                let Some((idx, exp)) = job else { break };
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| exp.run())).map_err(panic_message);
                *slots[idx].lock().unwrap() = Some(CellResult {
                    index: idx,
                    label: cells[idx].label.clone(),
                    config: Some(exp.config().clone()),
                    outcome,
                });
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                if opts.progress {
                    let _g = progress.lock().unwrap();
                    let elapsed = start.elapsed().as_secs_f64();
                    let eta = if finished > 0 {
                        elapsed / finished as f64 * (total - finished) as f64
                    } else {
                        0.0
                    };
                    eprint!(
                        "\r# sweep: {finished}/{total} cells ({:.0}%), elapsed {elapsed:.1}s, eta {eta:.1}s   ",
                        100.0 * finished as f64 / total.max(1) as f64,
                    );
                    if finished == total {
                        eprintln!();
                    }
                }
            });
        }
    });

    let results = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every cell settled"))
        .collect();
    SweepResults { cells: results, wall_seconds: start.elapsed().as_secs_f64() }
}

/// Expands and executes a [`SweepSpec`] in one call.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> SweepResults {
    run_cells(spec.expand(), opts)
}

/// Drives a figure registry through the engine: collect pass → parallel
/// execution of the deduplicated experiment set → cached re-assembly.
///
/// Returns the figures per registry entry (in registry order — identical to
/// running each entry serially with [`Runner::immediate`]) plus the raw
/// sweep results for the JSON/CSV emitters. A poisoned cell's figures
/// assemble against a zeroed placeholder report (its rows surface in
/// [`SweepResults::errors`]).
pub fn run_figures(
    entries: &[RegistryEntry],
    q: Quality,
    opts: &SweepOptions,
) -> (Vec<(&'static str, Vec<Figure>)>, SweepResults) {
    // Pass 1: harvest the experiment set (reports are zeroed placeholders).
    let collector = Runner::collecting();
    for e in entries {
        let _ = (e.thunk)(&collector, q);
    }
    let exps = collector.into_cells();
    if opts.progress {
        eprintln!("# sweep: {} unique cells from {} figure generators", exps.len(), entries.len());
    }

    // Pass 2: execute the unique cells on the pool.
    let fingerprints: Vec<u64> = exps.iter().map(|e| e.fingerprint()).collect();
    let placeholders: Vec<RunReport> =
        exps.iter().map(|e| RunReport::placeholder(e.config())).collect();
    let cells = exps.into_iter().map(SweepCell::from_experiment).collect();
    let results = run_cells(cells, opts);

    // Pass 3: re-assemble the figures from the cached reports.
    let mut cache: HashMap<u64, RunReport> = HashMap::new();
    for (i, c) in results.cells.iter().enumerate() {
        let report = match &c.outcome {
            Ok(r) => r.clone(),
            Err(e) => {
                eprintln!("# sweep: cell {} `{}` failed: {e}", c.index, c.label);
                placeholders[i].clone()
            }
        };
        cache.insert(fingerprints[i], report);
    }
    let cached = Runner::cached(cache);
    let figures = entries.iter().map(|e| (e.id, (e.thunk)(&cached, q))).collect();
    (figures, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_workloads::{Microbench, MicrobenchConfig};

    fn tiny_exp() -> Experiment {
        let mc = MicrobenchConfig { work_count: 50, mlp: 1, iters_per_fiber: 8, writes_per_iter: 0 };
        Experiment::new(
            "tiny",
            PlatformConfig::paper_default().without_replay_device(),
            move || Microbench::new(mc),
        )
        .unwrap()
    }

    #[test]
    fn expansion_order_and_count() {
        let spec = SweepSpec::new(tiny_exp())
            .mechanisms(&[Mechanism::OnDemand, Mechanism::Prefetch])
            .fibers_per_core(&[1, 2])
            .seeds(&[3, 4]);
        assert_eq!(spec.cell_count(), 8);
        let cells = spec.expand();
        assert_eq!(cells.len(), 8);
        // Matrix order: mechanism outermost, seed innermost.
        assert!(cells[0].label.contains("mech=on-demand"));
        assert!(cells[0].label.ends_with("seed=3"));
        assert!(cells[1].label.ends_with("seed=4"));
        assert!(cells[4].label.contains("mech=prefetch"));
        for c in &cells {
            assert!(c.exp.is_ok(), "{}", c.label);
        }
    }

    #[test]
    fn invalid_cells_become_error_rows() {
        let spec = SweepSpec::new(tiny_exp())
            .mechanisms(&[Mechanism::Prefetch, Mechanism::SoftwareQueue])
            .swq_ring_capacities(&[0]);
        let cells = spec.expand();
        assert_eq!(cells.len(), 2);
        assert!(cells[0].exp.is_ok(), "ring capacity is irrelevant to prefetch");
        assert!(cells[1].exp.is_err(), "swq with a zero ring must fail validation");
        let results = run_cells(cells, &SweepOptions::jobs(2));
        assert!(results.cells[0].outcome.is_ok());
        let err = results.cells[1].outcome.as_ref().unwrap_err();
        assert!(err.contains("swq_ring_capacity"), "{err}");
        assert_eq!(results.errors().count(), 1);
    }

    #[test]
    fn engine_matches_direct_runs() {
        let spec = SweepSpec::new(tiny_exp()).fibers_per_core(&[1, 2, 4]);
        let results = run_cells(spec.expand(), &SweepOptions::jobs(3));
        for (c, r) in results.reports() {
            let direct = c.config.as_ref().map(|cfg| {
                tiny_exp().with_config(cfg.clone()).unwrap().run()
            });
            let d = direct.expect("runnable cell has a config");
            assert_eq!(r.elapsed, d.elapsed, "{}", c.label);
            assert_eq!(r.work_insts, d.work_insts, "{}", c.label);
        }
    }

    #[test]
    fn json_and_csv_have_one_row_per_cell() {
        let spec = SweepSpec::new(tiny_exp()).seeds(&[1, 2]);
        let results = run_sweep(&spec, &SweepOptions::jobs(1));
        let json = results.to_json();
        assert_eq!(json.matches("\"index\":").count(), 2);
        assert!(json.contains("\"ok\":true"));
        let csv = results.to_csv();
        assert_eq!(csv.lines().count(), 3, "header + 2 rows");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(csv_field("a,b\"c"), "\"a,b\"\"c\"");
    }
}
