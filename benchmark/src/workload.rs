//! The four workloads and their passes.
//!
//! A process builds a workload's [`Inputs`] once, then runs passes. A pass
//! is one seeded unit of user-visible work: every simulation run it needs,
//! plus the emitters a user would read. Its [`PassOutcome`] carries an
//! FNV-1a digest of the pass's deterministic outputs, which `bless` pins
//! and every run checks.
//!
//! Each workload has two ways to run a pass. The timed pass calls the
//! entry point a user calls (`run_figures`, the sweep engine, one
//! `Experiment::run`). The traced pass calls each layer's public entry
//! point directly, one span per call, and must produce the same digest.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

use kus_bench::figures::{registry, Figure, Quality, RegistryEntry};
use kus_bench::{
    run_cells, run_figures, CellResult, ScenarioCell, ScenarioMatrixResults, SweepCell,
    SweepOptions, SweepResults,
};
use kus_core::prelude::{Dataset, Experiment, Mechanism, RunReport, Runner};
use kus_load::{flow_arrows, load_experiment, BlameReport, LoadReport, NetReport};
use kus_scenario::Scenario;
use kus_sim::trace::chrome_json_with_flows;

use crate::metrics::Layer;
use crate::spans::Spans;
use crate::stats::{sub_seed, Fnv};

/// The benchmark's workloads. The names are fixed: results files,
/// digests and `BENCHMARK.json` refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper figures 2-9 on the idealized device, shortened loops.
    FiguresFast,
    /// Figures 3 and 7 through the two-phase record/replay device.
    FiguresReplay,
    /// The frozen scenario corpus × seeds × mechanisms.
    ScenarioCorpus,
    /// One long traced fan-out serving run and its harvest.
    FanoutLong,
}

/// Every workload, in the order a full set runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload::FiguresFast,
    Workload::FiguresReplay,
    Workload::ScenarioCorpus,
    Workload::FanoutLong,
];

impl Workload {
    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresFast => "figures-fast",
            Workload::FiguresReplay => "figures-replay",
            Workload::ScenarioCorpus => "scenario-corpus",
            Workload::FanoutLong => "fanout-long",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a pass does: the benchmarked size, or a few cells for
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size `BENCHMARK.json` describes.
    Full,
    /// A few cells per pass, for the crate's tests.
    Smoke,
}

/// The frozen scenario corpus, compiled into the binary so edits to the
/// repository's `scenarios/` never shift this workload.
const CORPUS: [&str; 19] = [
    include_str!("../workloads/corpus/calm-closed-loop.toml"),
    include_str!("../workloads/corpus/calm-poisson.toml"),
    include_str!("../workloads/corpus/correlated-bursts.toml"),
    include_str!("../workloads/corpus/diurnal-swell.toml"),
    include_str!("../workloads/corpus/flash-crowd.toml"),
    include_str!("../workloads/corpus/hostile-crash-stall.toml"),
    include_str!("../workloads/corpus/hostile-freeze.toml"),
    include_str!("../workloads/corpus/hostile-retry-storm.toml"),
    include_str!("../workloads/corpus/jittery-device.toml"),
    include_str!("../workloads/corpus/nanopu-vs-dma.toml"),
    include_str!("../workloads/corpus/onoff-bursts.toml"),
    include_str!("../workloads/corpus/overload-defaults.toml"),
    include_str!("../workloads/corpus/ramp-up.toml"),
    include_str!("../workloads/corpus/rpc-echo-baseline.toml"),
    include_str!("../workloads/corpus/rpc-fanout-4.toml"),
    include_str!("../workloads/corpus/rpc-fanout-blame.toml"),
    include_str!("../workloads/corpus/rpc-hostile-nic-jitter.toml"),
    include_str!("../workloads/corpus/skewed-hotkey.toml"),
    include_str!("../workloads/corpus/skewed-zipfian.toml"),
];

const FANOUT_LONG: &str = include_str!("../workloads/fanout-long.toml");

/// The mechanism axis of the scenario matrix, in `figures scenario-matrix`
/// order.
const MECHANISMS: [Mechanism; 3] = [
    Mechanism::OnDemand,
    Mechanism::Prefetch,
    Mechanism::SoftwareQueue,
];

/// What a workload builds once per process; each pass derives its seeded
/// cells from it.
pub enum Inputs {
    /// Figure generators and the quality to run them at.
    Figures {
        /// Registry entries, in paper order.
        entries: Vec<RegistryEntry>,
        /// Quality; each pass sets its seed.
        quality: Quality,
    },
    /// Scenario TOML texts and the number of seeds each pass compiles
    /// them with.
    Corpus {
        /// TOML texts, in corpus (filename) order.
        texts: Vec<&'static str>,
        /// Seeds per scenario per pass.
        seeds: u64,
    },
    /// One scenario TOML text, optionally with fewer requests.
    Fanout {
        /// TOML text.
        text: &'static str,
        /// Request-count override (smoke size only).
        requests: Option<usize>,
    },
}

/// The result of one pass.
#[derive(Debug, Clone, Default)]
pub struct PassOutcome {
    /// Simulation runs attempted.
    pub runs: u64,
    /// One message per failed run: a panic, an error row, or a broken
    /// invariant.
    pub failures: Vec<String>,
    /// `RunReport::sim_events` summed over the pass's runs (measured
    /// phases only; record phases are not counted).
    pub events: u64,
    /// FNV-1a-64 of the pass's deterministic outputs.
    pub digest: u64,
}

impl PassOutcome {
    fn failed(runs: u64, why: String) -> PassOutcome {
        PassOutcome {
            runs,
            failures: vec![why],
            ..PassOutcome::default()
        }
    }
}

/// Builds `w`'s inputs at `size` (step 1 of every workload process).
pub fn inputs(w: Workload, size: Size) -> Inputs {
    let smoke = size == Size::Smoke;
    let figures = |ids: &[&str]| -> Vec<RegistryEntry> {
        registry(false)
            .into_iter()
            .filter(|e| ids.contains(&e.id))
            .collect()
    };
    match w {
        // Figures 2-9 at Quality::fast() with 50 iterations per fiber
        // instead of 250, so a pass takes about a second on the baseline
        // host. Fig. 10's application panels are left out: their per-cell
        // floors keep one pass above 4 s at any quality.
        Workload::FiguresFast => Inputs::Figures {
            entries: if smoke {
                figures(&["fig3"])
            } else {
                registry(false)
                    .into_iter()
                    .filter(|e| e.id != "fig10")
                    .collect()
            },
            quality: Quality {
                iters: if smoke { 10 } else { 50 },
                ..Quality::fast()
            },
        },
        Workload::FiguresReplay => Inputs::Figures {
            entries: figures(if smoke { &["fig3"] } else { &["fig3", "fig7"] }),
            quality: Quality {
                iters: if smoke { 20 } else { 200 },
                ..Quality::full()
            },
        },
        Workload::ScenarioCorpus => Inputs::Corpus {
            texts: CORPUS[..if smoke { 2 } else { CORPUS.len() }].to_vec(),
            seeds: if smoke { 1 } else { 4 },
        },
        Workload::FanoutLong => Inputs::Fanout {
            text: FANOUT_LONG,
            requests: smoke.then_some(200),
        },
    }
}

impl Inputs {
    /// Runs one timed pass with seed `seed`.
    pub fn pass(&self, seed: u64) -> PassOutcome {
        match self {
            Inputs::Figures { entries, quality } => {
                let q = Quality {
                    seed: Some(seed),
                    ..*quality
                };
                let (figs, results) = run_figures(entries, q, &SweepOptions::jobs(1));
                let tables = render(&figs);
                let json = results.to_json();
                black_box(results.to_csv());
                figures_outcome(&results, &tables, &json)
            }
            Inputs::Corpus { texts, seeds } => {
                let scenarios = match compile_corpus(texts, &corpus_seeds(seed, *seeds)) {
                    Ok(s) => s,
                    Err(e) => return PassOutcome::failed(1, e),
                };
                let keyed = expand(&scenarios);
                let (keys, cells): (Vec<_>, Vec<_>) =
                    keyed.into_iter().map(|(si, m, c)| ((si, m), c)).unzip();
                let results = run_cells(cells, &SweepOptions::jobs(1));
                let events = results.reports().map(|(_, r)| r.sim_events).sum();
                let cells = results
                    .cells
                    .into_iter()
                    .zip(keys)
                    .map(|(c, (si, mech))| {
                        harvest(&scenarios[si], c.index, c.label, mech, &c.outcome)
                    })
                    .collect();
                let matrix = ScenarioMatrixResults {
                    cells,
                    wall_seconds: 0.0,
                };
                let json = emit_matrix(&matrix);
                corpus_outcome(&matrix, &json, events)
            }
            Inputs::Fanout { text, requests } => fanout_pass(text, *requests, seed, None, None).0,
        }
    }

    /// Runs the traced pass with seed `seed`: the same work as
    /// [`Inputs::pass`], one span per layer call under a root `pass` span,
    /// with per-layer counts folded into `layer`. Returns the outcome and
    /// the experiments the pass ran, for the standalone dataset probe.
    pub fn traced_pass(
        &self,
        seed: u64,
        spans: &mut Spans,
        layer: &mut Layer,
    ) -> (PassOutcome, Vec<Experiment>) {
        match self {
            Inputs::Figures { entries, quality } => on_worker(|| {
                figures_traced(
                    entries,
                    Quality {
                        seed: Some(seed),
                        ..*quality
                    },
                    spans,
                    layer,
                )
            }),
            Inputs::Corpus { texts, seeds } => {
                on_worker(|| corpus_traced(texts, &corpus_seeds(seed, *seeds), spans, layer))
            }
            Inputs::Fanout { text, requests } => {
                fanout_pass(text, *requests, seed, Some(spans), Some(layer))
            }
        }
    }
}

/// Runs `f` on a fresh thread and waits for it. The timed figures and
/// corpus passes run their cells on the sweep engine's worker thread, so
/// their traced passes do too: both then allocate from the same kind of
/// malloc arena, and the tracing overhead compares like with like.
fn on_worker<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join())
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

fn run_isolated(exp: &Experiment) -> Result<RunReport, String> {
    catch_unwind(AssertUnwindSafe(|| exp.run())).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string payload".into());
        format!("panicked: {msg}")
    })
}

/// Times the dataset build of every experiment on its own: `Dataset::new`
/// plus the workload's `prepare` and `build`, as `Platform::run` does
/// before simulating. One `core.dataset` span per experiment.
pub fn dataset_probe(exps: &[Experiment], spans: &mut Spans) {
    for (i, exp) in exps.iter().enumerate() {
        spans.time("core.dataset", Some(i), || {
            let cfg = exp.config();
            let mut w = exp.workload();
            let mut data = Dataset::new(cfg.dataset_bytes, cfg.seed);
            w.prepare(cfg.cores * cfg.smt, cfg.fibers_per_core);
            w.build(&mut data);
            black_box(data);
        });
    }
}

// ---- figures-fast, figures-replay ------------------------------------

fn render(figs: &[(&str, Vec<Figure>)]) -> String {
    figs.iter()
        .flat_map(|(_, f)| f)
        .map(Figure::render_table)
        .collect()
}

fn figures_outcome(results: &SweepResults, tables: &str, json: &str) -> PassOutcome {
    let mut d = Fnv::default();
    d.write_str(tables);
    d.write_str(json);
    PassOutcome {
        runs: results.cells.len() as u64,
        failures: results
            .errors()
            .map(|(c, e)| format!("{}: {e}", c.label))
            .collect(),
        events: results.reports().map(|(_, r)| r.sim_events).sum(),
        digest: d.finish(),
    }
}

/// `run_figures` taken apart: collect pass, one `Experiment::run` per
/// unique cell, cached re-assembly, emitters.
fn figures_traced(
    entries: &[RegistryEntry],
    q: Quality,
    spans: &mut Spans,
    layer: &mut Layer,
) -> (PassOutcome, Vec<Experiment>) {
    let root = spans.enter("pass", None);
    let (exps, _) = spans.time("workloads.collect", None, || {
        let collector = Runner::collecting();
        for e in entries {
            let _ = (e.thunk)(&collector, q);
        }
        collector.into_cells()
    });
    let mut cells = Vec::with_capacity(exps.len());
    let mut run_s = Vec::with_capacity(exps.len());
    for (index, exp) in exps.iter().enumerate() {
        let (outcome, s) = spans.time("core.run", Some(index), || run_isolated(exp));
        run_s.push(s);
        cells.push(CellResult {
            index,
            label: exp.label().to_string(),
            config: Some(exp.config().clone()),
            outcome,
        });
    }
    let results = SweepResults {
        cells,
        wall_seconds: 0.0,
    };
    let (tables, _) = spans.time("workloads.assemble", None, || {
        let cache = exps
            .iter()
            .zip(&results.cells)
            .map(|(e, c)| {
                let report = c
                    .outcome
                    .clone()
                    .unwrap_or_else(|_| RunReport::placeholder(e.config()));
                (e.fingerprint(), report)
            })
            .collect();
        let cached = Runner::cached(cache);
        let figs: Vec<_> = entries
            .iter()
            .map(|e| (e.id, (e.thunk)(&cached, q)))
            .collect();
        render(&figs)
    });
    let (json, _) = spans.time("bench.emit", None, || {
        black_box(results.to_csv());
        results.to_json()
    });
    spans.exit(root);
    for (c, s) in results.cells.iter().zip(run_s) {
        if let Ok(r) = &c.outcome {
            layer.absorb_run(r, s);
        }
    }
    (figures_outcome(&results, &tables, &json), exps)
}

// ---- scenario-corpus -------------------------------------------------

fn corpus_seeds(pass_seed: u64, n: u64) -> Vec<u64> {
    (0..n).map(|j| sub_seed(pass_seed, j)).collect()
}

/// `Scenario::from_toml` once per text, then `ScenarioSpec::compile` once
/// per seed, in corpus order.
fn compile_corpus(texts: &[&str], seeds: &[u64]) -> Result<Vec<Scenario>, String> {
    let mut out = Vec::with_capacity(texts.len() * seeds.len());
    for text in texts {
        let base = Scenario::from_toml(text).map_err(|e| format!("corpus scenario: {e}"))?;
        for &s in seeds {
            let sc = base.spec().clone().seed(s).compile();
            out.push(sc.map_err(|e| format!("{}: {e}", base.name()))?);
        }
    }
    Ok(out)
}

/// The scenario-matrix expansion (scenario outermost, mechanism
/// innermost), as `figures scenario-matrix` expands it.
fn expand(scenarios: &[Scenario]) -> Vec<(usize, Mechanism, SweepCell)> {
    let mut out = Vec::with_capacity(scenarios.len() * MECHANISMS.len());
    for (si, sc) in scenarios.iter().enumerate() {
        for mech in MECHANISMS {
            let label = format!("{} mech={mech}", sc.name());
            let exp = load_experiment(
                &label,
                sc.load(),
                sc.cfg().clone().mechanism(mech),
                sc.service(),
            )
            .map_err(|e| e.to_string());
            out.push((si, mech, SweepCell { label, exp }));
        }
    }
    out
}

/// One scenario-matrix cell from its run: the load analytics and the SLO
/// verdict, exactly as `run_scenario_matrix` derives them.
fn harvest(
    sc: &Scenario,
    index: usize,
    label: String,
    mechanism: Mechanism,
    run: &Result<RunReport, String>,
) -> ScenarioCell {
    let outcome = run.clone().and_then(|r| {
        LoadReport::from_run(&r).ok_or_else(|| "run produced no serving trace events".to_string())
    });
    let slo = sc.load().slo;
    let declared = slo.p99.is_some() || slo.p999.is_some() || slo.max_shed_fraction.is_some();
    let slo_pass = match &outcome {
        Ok(r) if declared => Some(slo.verdict(r).pass),
        _ => None,
    };
    ScenarioCell {
        index,
        label,
        scenario: sc.name().to_string(),
        fingerprint: sc.fingerprint(),
        mechanism,
        slo_pass,
        outcome,
    }
}

fn emit_matrix(m: &ScenarioMatrixResults) -> String {
    black_box(m.to_csv());
    black_box(m.render_table());
    m.to_json()
}

/// Request conservation for one serving run: nothing completes or is shed
/// that was not offered.
fn serving_invariant(lr: &LoadReport) -> Result<(), String> {
    if lr.completed + lr.shed > lr.offered {
        return Err(format!(
            "completed {} + shed {} > offered {}",
            lr.completed, lr.shed, lr.offered
        ));
    }
    Ok(())
}

fn corpus_outcome(m: &ScenarioMatrixResults, json: &str, events: u64) -> PassOutcome {
    let failures = m
        .cells
        .iter()
        .filter_map(|c| match &c.outcome {
            Err(e) => Some(format!("{}: {e}", c.label)),
            Ok(lr) => serving_invariant(lr)
                .err()
                .map(|e| format!("{}: {e}", c.label)),
        })
        .collect();
    let mut d = Fnv::default();
    d.write_str(json);
    PassOutcome {
        runs: m.cells.len() as u64,
        failures,
        events,
        digest: d.finish(),
    }
}

fn corpus_traced(
    texts: &[&str],
    seeds: &[u64],
    spans: &mut Spans,
    layer: &mut Layer,
) -> (PassOutcome, Vec<Experiment>) {
    let root = spans.enter("pass", None);
    let (compiled, _) = spans.time("scenario.compile", None, || compile_corpus(texts, seeds));
    let scenarios = match compiled {
        Ok(s) => s,
        Err(e) => {
            spans.exit(root);
            return (PassOutcome::failed(1, e), Vec::new());
        }
    };
    let mut cells = Vec::new();
    let mut runs = Vec::new();
    let mut exps = Vec::new();
    for (index, (si, mech, cell)) in expand(&scenarios).into_iter().enumerate() {
        let (run, s) = match &cell.exp {
            Ok(exp) => {
                exps.push(exp.clone());
                spans.time("core.run", Some(index), || run_isolated(exp))
            }
            Err(e) => (Err(format!("invalid configuration: {e}")), 0.0),
        };
        let (c, _) = spans.time("load.report", Some(index), || {
            harvest(&scenarios[si], index, cell.label, mech, &run)
        });
        cells.push(c);
        runs.push((run, s));
    }
    let matrix = ScenarioMatrixResults {
        cells,
        wall_seconds: 0.0,
    };
    let (json, _) = spans.time("bench.emit", None, || emit_matrix(&matrix));
    spans.exit(root);
    let mut events = 0;
    for ((run, s), c) in runs.iter().zip(&matrix.cells) {
        if let Ok(r) = run {
            events += r.sim_events;
            layer.absorb_run(r, *s);
        }
        if let Ok(lr) = &c.outcome {
            layer.absorb_load(lr, *s);
        }
    }
    (corpus_outcome(&matrix, &json, events), exps)
}

// ---- fanout-long -----------------------------------------------------

/// Runs `f`, inside a span when the pass is traced.
fn timed<T>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    match spans {
        Some(s) => s.time(name, None, f),
        None => (f(), 0.0),
    }
}

/// One fan-out pass: compile, one causal-traced serving run, then the
/// serial harvest (load, NIC and blame reports, Perfetto flow arrows and
/// the Chrome export, all in memory). Traced when `spans` is given.
fn fanout_pass(
    text: &str,
    requests: Option<usize>,
    seed: u64,
    mut spans: Option<&mut Spans>,
    layer: Option<&mut Layer>,
) -> (PassOutcome, Vec<Experiment>) {
    let root = spans.as_mut().map(|s| s.enter("pass", None));
    let (compiled, _) = timed(&mut spans, "scenario.compile", || {
        let mut spec = Scenario::from_toml(text)
            .map_err(|e| e.to_string())?
            .spec()
            .clone()
            .seed(seed);
        if let Some(n) = requests {
            spec = spec.requests(n);
        }
        spec.compile().map_err(|e| e.to_string())
    });
    let exp = compiled.and_then(|sc| {
        load_experiment(
            sc.name(),
            sc.load(),
            sc.cfg().clone().causal(),
            sc.service(),
        )
        .map_err(|e| e.to_string())
    });
    let (run, run_s) = match &exp {
        Ok(exp) => timed(&mut spans, "core.run", || run_isolated(exp)),
        Err(e) => (Err(e.clone()), 0.0),
    };
    let harvested = run.and_then(|r| {
        catch_unwind(AssertUnwindSafe(|| harvest_fanout(&r, &mut spans)))
            .unwrap_or_else(|_| Err("harvest panicked".into()))
            .map(|(lr, digest)| (r, lr, digest))
    });
    if let (Some(s), Some(id)) = (spans.as_mut(), root) {
        s.exit(id);
    }
    let exps = exp.into_iter().collect();
    let (r, lr, digest) = match harvested {
        Ok(h) => h,
        Err(e) => return (PassOutcome::failed(1, e), exps),
    };
    if let Some(layer) = layer {
        layer.absorb_run(&r, run_s);
        layer.absorb_load(&lr, run_s);
    }
    let failures = serving_invariant(&lr).err().into_iter().collect();
    (
        PassOutcome {
            runs: 1,
            failures,
            events: r.sim_events,
            digest,
        },
        exps,
    )
}

/// The fan-out harvest. The digest covers the three reports' JSON and the
/// trace hash; `BlameReport` asserts internally that every request's hops
/// telescope to its sojourn, and a failed assertion fails the run.
fn harvest_fanout(
    r: &RunReport,
    spans: &mut Option<&mut Spans>,
) -> Result<(LoadReport, u64), String> {
    let trace = r.trace.as_ref().ok_or("serving run carried no trace")?;
    let (lr, _) = timed(spans, "load.report", || LoadReport::from_run(r));
    let lr = lr.ok_or("no serving events in the trace")?;
    let (nr, _) = timed(spans, "net.report", || NetReport::from_run(r));
    let nr = nr.ok_or("no NIC events in the trace")?;
    let (br, _) = timed(spans, "load.blame", || BlameReport::from_run(r));
    let br = br.ok_or("no requests to blame")?;
    timed(spans, "sim.chrome_export", || {
        let arrows = flow_arrows(&trace.events);
        black_box(chrome_json_with_flows(&trace.events, &arrows));
    });
    let (json, _) = timed(spans, "bench.emit", || {
        [lr.to_json(), nr.to_json(), br.to_json()]
    });
    let mut d = Fnv::default();
    for j in &json {
        d.write_str(j);
    }
    d.write_str(&format!("{:016x}", trace.hash));
    Ok((lr, d.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_bench::{run_scenario_matrix, ScenarioMatrixSpec};

    #[test]
    fn names_round_trip() {
        for w in WORKLOADS {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("figures"), None);
    }

    /// The corpus pass assembles its matrix from the sweep engine by hand
    /// (it needs each run's event count); its emitters must match
    /// `run_scenario_matrix` byte for byte.
    #[test]
    fn corpus_pass_matches_run_scenario_matrix() {
        let Inputs::Corpus { texts, seeds } = inputs(Workload::ScenarioCorpus, Size::Smoke) else {
            unreachable!("the corpus workload has corpus inputs")
        };
        let seeds = corpus_seeds(11, seeds);
        let reference = run_scenario_matrix(
            &ScenarioMatrixSpec::new(compile_corpus(&texts, &seeds).expect("compiles")),
            &SweepOptions::jobs(1),
        );
        let ours = inputs(Workload::ScenarioCorpus, Size::Smoke).pass(11);
        let mut d = Fnv::default();
        d.write_str(&reference.to_json());
        assert_eq!(ours.digest, d.finish());
        assert!(ours.failures.is_empty(), "{:?}", ours.failures);
        assert!(ours.events > 0);
    }

    #[test]
    fn traced_passes_reproduce_timed_digests() {
        for w in WORKLOADS {
            let inp = inputs(w, Size::Smoke);
            let timed = inp.pass(5);
            let mut layer = Layer::default();
            let mut spans = Spans::default();
            let (traced, exps) = inp.traced_pass(5, &mut spans, &mut layer);
            assert_eq!(timed.digest, traced.digest, "{}", w.name());
            assert_eq!(timed.events, traced.events, "{}", w.name());
            assert_eq!(timed.runs, traced.runs, "{}", w.name());
            assert!(
                timed.failures.is_empty(),
                "{}: {:?}",
                w.name(),
                timed.failures
            );
            assert!(!exps.is_empty(), "{}", w.name());
            assert_eq!(
                layer.get("sim.events") as u64,
                traced.events,
                "{}",
                w.name()
            );
        }
    }
}
