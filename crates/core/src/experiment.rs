//! The unified experiment API: one value that owns everything a run needs.
//!
//! Before this module, the repo's entry points were scattered —
//! [`Platform::run`], [`Platform::run_baseline`], `run_chaos`,
//! `run_trace_scenario_opts` — each bundling configuration, workload choice,
//! fault plan, and trace flags a different way. An [`Experiment`] folds all
//! of that into a single, self-contained, thread-safe value:
//!
//! - the [`PlatformConfig`] (which already carries the fault plan and trace
//!   flags),
//! - a **workload factory** that builds a fresh workload instance per run
//!   (required because a [`Workload`] is consumed mutably by a run, and
//!   because `Sim`'s `Rc`/`RefCell` internals must never cross threads —
//!   each run constructs everything on the thread that executes it),
//! - a human-readable label that doubles as part of the deduplication
//!   fingerprint.
//!
//! An `Experiment` is `Send + Sync + Clone`, which is what lets the
//! `kus-bench` sweep engine ship cells to a worker pool: the *description*
//! crosses threads; the simulator state never does.
//!
//! # Examples
//!
//! ```
//! use kus_core::prelude::*;
//!
//! struct Noop;
//! impl Workload for Noop {
//!     fn name(&self) -> &'static str { "noop" }
//!     fn build(&mut self, _data: &mut Dataset) {}
//!     fn spawn(&self, _c: usize, _f: usize, _n: usize, _ctx: MemCtx) -> FiberFuture {
//!         Box::pin(async {})
//!     }
//! }
//!
//! let exp = Experiment::new(
//!     "noop smoke",
//!     PlatformConfig::paper_default().without_replay_device(),
//!     || Noop,
//! ).unwrap();
//! let report = exp.run();
//! assert_eq!(report.accesses, 0);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use kus_sim::{fnv1a, FNV_OFFSET};

use crate::config::{ConfigError, PlatformConfig};
use crate::metrics::RunReport;
use crate::platform::Platform;
use crate::workload::Workload;

/// A thread-safe factory producing a fresh boxed workload per run.
pub type WorkloadFactory = Arc<dyn Fn() -> Box<dyn Workload> + Send + Sync>;

/// A fully-described, runnable experiment: configuration + workload
/// selection (+ fault plan and trace flags, which live in the config).
///
/// Construction validates the configuration via
/// [`PlatformConfig::validate`], so a held `Experiment` is always runnable;
/// the sweep engine relies on this to report broken matrix cells at
/// expansion time instead of panicking mid-sweep.
#[derive(Clone)]
pub struct Experiment {
    label: String,
    config: PlatformConfig,
    workload: WorkloadFactory,
}

impl fmt::Debug for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Experiment")
            .field("label", &self.label)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Experiment {
    /// Creates an experiment from a label, a validated configuration, and a
    /// workload constructor.
    ///
    /// The label should encode every workload parameter not captured by the
    /// config (iteration counts, MLP, dataset shape): two experiments with
    /// equal labels and equal configs are assumed interchangeable by the
    /// sweep engine's deduplication (see [`Experiment::fingerprint`]).
    pub fn new<W, F>(
        label: impl Into<String>,
        config: PlatformConfig,
        make: F,
    ) -> Result<Experiment, ConfigError>
    where
        W: Workload + 'static,
        F: Fn() -> W + Send + Sync + 'static,
    {
        config.validate()?;
        Ok(Experiment {
            label: label.into(),
            config,
            workload: Arc::new(move || Box::new(make()) as Box<dyn Workload>),
        })
    }

    /// [`Experiment::new`] taking an already-boxed factory.
    pub fn from_factory(
        label: impl Into<String>,
        config: PlatformConfig,
        workload: WorkloadFactory,
    ) -> Result<Experiment, ConfigError> {
        config.validate()?;
        Ok(Experiment { label: label.into(), config, workload })
    }

    /// The experiment's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The configuration this experiment runs.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// A copy of this experiment with the configuration replaced (and
    /// re-validated) — the sweep engine uses this to stamp one workload
    /// across a configuration matrix.
    pub fn with_config(&self, config: PlatformConfig) -> Result<Experiment, ConfigError> {
        config.validate()?;
        Ok(Experiment { label: self.label.clone(), config, workload: self.workload.clone() })
    }

    /// Same, with a new label.
    pub fn relabeled(
        &self,
        label: impl Into<String>,
        config: PlatformConfig,
    ) -> Result<Experiment, ConfigError> {
        config.validate()?;
        Ok(Experiment { label: label.into(), config, workload: self.workload.clone() })
    }

    /// A deterministic identity fingerprint: FNV-1a over the label and the
    /// canonical (`Debug`) rendering of the configuration.
    ///
    /// Two cells with the same fingerprint run the same workload on the
    /// same configuration and therefore — the whole simulator being
    /// deterministic — produce the same report; the sweep engine dedups on
    /// this.
    pub fn fingerprint(&self) -> u64 {
        let h = fnv1a(fnv1a(FNV_OFFSET, self.label.as_bytes()), &[0xff]);
        fnv1a(h, format!("{:?}", self.config).as_bytes())
    }

    /// Builds a fresh workload instance.
    pub fn workload(&self) -> Box<dyn Workload> {
        (self.workload)()
    }

    /// Runs the experiment and returns its report.
    pub fn run(&self) -> RunReport {
        let mut w = self.workload();
        Platform::try_new(self.config.clone())
            .expect("experiment configs are validated at construction")
            .run(w.as_mut())
    }

    /// Runs the experiment's DRAM-baseline twin (same workload shape, data
    /// in DRAM, on-demand, single fiber per core).
    pub fn run_baseline(&self) -> RunReport {
        self.baseline().run()
    }

    /// The DRAM-baseline twin as its own experiment.
    pub fn baseline(&self) -> Experiment {
        Experiment {
            label: format!("{} [baseline]", self.label),
            config: self.config.baseline_twin(),
            workload: self.workload.clone(),
        }
    }
}

/// How figure assemblers obtain run reports: immediately, by recording the
/// requested experiments for a later batch execution, or from a cache of
/// batch results.
///
/// This is the bridge between declarative figure definitions and the
/// parallel sweep engine. A figure function is written once against
/// [`Runner::run`]; driving it with a [collecting](Runner::collecting)
/// runner harvests its experiment set (reports come back zeroed), the
/// engine executes the set on a worker pool, and a
/// [cached](Runner::cached) runner re-drives the same function with the
/// real reports. Because figure functions are pure in the runner, the two
/// passes request identical experiment sets.
pub enum Runner {
    /// Run each experiment inline, serially (the legacy path).
    Immediate,
    /// Record each requested experiment (deduplicated by
    /// [`Experiment::fingerprint`], first-occurrence order) and return
    /// zeroed placeholder reports.
    Collecting(std::cell::RefCell<CollectedCells>),
    /// Serve reports from a fingerprint-keyed cache; panics on a miss
    /// (which would mean the collect and replay passes disagreed).
    Cached(HashMap<u64, RunReport>),
}

/// The experiment set harvested by a collecting [`Runner`].
#[derive(Default)]
pub struct CollectedCells {
    seen: HashMap<u64, usize>,
    cells: Vec<Experiment>,
}

impl Runner {
    /// A runner that executes experiments inline.
    pub fn immediate() -> Runner {
        Runner::Immediate
    }

    /// A runner that records requested experiments instead of running them.
    pub fn collecting() -> Runner {
        Runner::Collecting(std::cell::RefCell::new(CollectedCells::default()))
    }

    /// A runner serving pre-computed reports keyed by experiment
    /// fingerprint.
    pub fn cached(reports: HashMap<u64, RunReport>) -> Runner {
        Runner::Cached(reports)
    }

    /// Obtains the report for `exp` according to this runner's mode.
    pub fn run(&self, exp: &Experiment) -> RunReport {
        match self {
            Runner::Immediate => exp.run(),
            Runner::Collecting(state) => {
                let mut s = state.borrow_mut();
                let fp = exp.fingerprint();
                if !s.seen.contains_key(&fp) {
                    let idx = s.cells.len();
                    s.seen.insert(fp, idx);
                    s.cells.push(exp.clone());
                }
                RunReport::placeholder(exp.config())
            }
            Runner::Cached(reports) => reports
                .get(&exp.fingerprint())
                .unwrap_or_else(|| {
                    panic!(
                        "sweep cache miss for `{}` — collect and replay passes disagreed",
                        exp.label()
                    )
                })
                .clone(),
        }
    }

    /// Consumes a collecting runner and returns the deduplicated experiment
    /// set in first-occurrence order. Panics on other modes.
    pub fn into_cells(self) -> Vec<Experiment> {
        match self {
            Runner::Collecting(state) => state.into_inner().cells,
            _ => panic!("into_cells on a non-collecting runner"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::exec::MemCtx;
    use crate::workload::FiberFuture;

    struct Noop;
    impl Workload for Noop {
        fn name(&self) -> &'static str {
            "noop"
        }
        fn build(&mut self, _data: &mut Dataset) {}
        fn spawn(&self, _c: usize, _f: usize, _n: usize, _ctx: MemCtx) -> FiberFuture {
            Box::pin(async {})
        }
    }

    fn noop(seed: u64) -> Experiment {
        Experiment::new(
            "noop",
            PlatformConfig::paper_default().without_replay_device().seed(seed),
            || Noop,
        )
        .unwrap()
    }

    #[test]
    fn experiments_are_send_sync_and_reports_are_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<Experiment>();
        assert_send_sync::<PlatformConfig>();
        assert_send::<RunReport>();
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let err = Experiment::new("bad", PlatformConfig::paper_default().cores(0), || Noop)
            .unwrap_err();
        assert_eq!(err, ConfigError::Zero("cores"));
    }

    #[test]
    fn fingerprint_separates_configs_and_labels() {
        let a = noop(1);
        let b = noop(2);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), noop(1).fingerprint());
        let relabeled = a.relabeled("noop v2", a.config().clone()).unwrap();
        assert_ne!(a.fingerprint(), relabeled.fingerprint());
    }

    #[test]
    fn collecting_runner_dedups_and_preserves_order() {
        let r = Runner::collecting();
        let a = noop(1);
        let b = noop(2);
        r.run(&a);
        r.run(&b);
        r.run(&a); // duplicate
        let cells = r.into_cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].fingerprint(), a.fingerprint());
        assert_eq!(cells[1].fingerprint(), b.fingerprint());
    }

    #[test]
    fn cached_runner_round_trips_reports() {
        let a = noop(1);
        let report = a.run();
        let mut map = HashMap::new();
        map.insert(a.fingerprint(), report.clone());
        let r = Runner::cached(map);
        assert_eq!(r.run(&a).elapsed, report.elapsed);
    }

    #[test]
    fn baseline_twin_label_and_config() {
        let a = noop(1);
        let b = a.baseline();
        assert!(b.label().contains("baseline"));
        assert_eq!(b.config().fibers_per_core, 1);
    }
}
